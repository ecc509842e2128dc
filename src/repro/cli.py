"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — registered experiments (tables, figures, ablations);
* ``run <experiment-id> [...]`` — run experiments and print their
  markdown reports (claims are enforced unless ``--no-enforce``);
* ``trace <experiment-id>`` — run one experiment under the span
  tracer; print the aggregated span tree (inclusive/exclusive wall
  times) and write a Chrome ``trace_event`` JSON file; ``--json``
  prints the same span-closure records as a machine-readable profile
  document (the schema ``repro profile`` writes) instead of the table;
* ``profile [target ...]`` — run targets (experiment ids or the
  ``nn_forward``/``fleet_cells`` probes) under the deterministic tick
  clock, print the ranked hotspot table and write the profile JSON
  plus optional folded-stacks flamegraph output;
  ``--diff BASE HEAD`` instead compares two profile documents and
  exits non-zero when any tracked path's self-time p50 regresses past
  the tolerance or a path new in HEAD reaches the noise floor;
* ``monitor <experiment-id>`` — run an experiment under the telemetry
  bus and replay it as a fleet dashboard (per-device percentiles, SLO
  burn rates, health states); ``--spike`` injects a thermal-throttle
  latency spike into the fleet simulation;
* ``serve-sim`` — run the dynamic-batching serving simulator
  (``repro.serving``) for one workload/policy — one server, a replica
  pool (optionally under the chaos ladder), or a sharded fleet — and
  print the report: admission/shedding breakdown, latency percentiles
  vs the deadline, batch-size profile and per-frame execution time;
  ``--check`` fails the process when invariants or the shedding SLO
  do not hold (the CI smoke mode);
* ``lint`` — reprolint: AST-based determinism rules (wall-clock,
  ambient RNG, unsorted iteration, mutable defaults, swallowed
  exceptions) plus repo-contract rules (experiment↔golden↔docs
  coverage, CLI↔README coverage, metric naming); ``--strict`` fails
  on warnings, ``--json`` emits the machine report CI archives;
* ``report`` — run every fast experiment and print the consolidated
  paper-vs-measured report (what EXPERIMENTS.md is generated from);
* ``latency <model> <device>`` — one latency estimate with its
  roofline decomposition;
* ``dataset`` — Table 1 summary of the full dataset index.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .errors import ReproError


def _ensure_parent(path: str) -> str:
    """Create ``path``'s parent directory so every ``--out`` flag can
    point into a fresh directory instead of dying on FileNotFoundError
    — one behaviour across trace/serve-sim/monitor/profile."""
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    return path


def _cmd_list(_args) -> int:
    from .bench.experiments.registry import (FAST_EXPERIMENTS,
                                             SLOW_EXPERIMENTS)
    print("Fast experiments (seconds):")
    for eid in sorted(FAST_EXPERIMENTS):
        print(f"  {eid}")
    print("Slow experiments (train mini models):")
    for eid in sorted(SLOW_EXPERIMENTS):
        print(f"  {eid}")
    return 0


def _cmd_run(args) -> int:
    from .bench.experiments.registry import EXPERIMENTS, run_experiment
    from .errors import BenchmarkError
    unknown = [eid for eid in args.experiments
               if eid not in EXPERIMENTS]
    if unknown:
        raise BenchmarkError(
            f"unknown experiment(s): {unknown}; see `repro list`")
    failed = False
    for eid in args.experiments:
        try:
            result = run_experiment(eid, enforce_claims=args.enforce)
        except BenchmarkError as exc:
            # Claim enforcement (or the experiment itself) failed; keep
            # going so one bad experiment doesn't hide the others.
            print(f"FAILED: {exc}", file=sys.stderr)
            failed = True
            continue
        print(result.to_markdown())
        print()
        if not result.all_claims_hold:
            print(f"FAILED CLAIMS in {eid}: "
                  f"{result.failed_claims()}", file=sys.stderr)
    return 1 if failed else 0


def _cmd_trace(args) -> int:
    from .bench.experiments.registry import run_experiment
    from .io.jsonio import dumps_json
    from .obs import (Tracer, aggregate_tree, build_profile,
                      exclusive_total_s, profile_document, render_tree,
                      use_tracer, write_chrome_trace,
                      write_spans_jsonl)
    tracer = Tracer()
    with use_tracer(tracer):
        result = run_experiment(args.experiment,
                                enforce_claims=args.enforce)
    spans = tracer.finished_spans()
    if args.json:
        # The same span-closure records the table prints, in the
        # profile-document schema (wall-clock, so ungateable).
        profile = build_profile(spans, quantize=False)
        print(dumps_json(profile_document(
            profile, targets=[args.experiment], deterministic=False)))
    else:
        print(render_tree(spans))

        roots = aggregate_tree(spans)
        incl = sum(r.inclusive_s for r in roots)
        excl = sum(exclusive_total_s(r) for r in roots)
        closure = 100.0 * excl / incl if incl > 0 else float("nan")
        print(f"\nroot inclusive: {incl * 1e3:.2f} ms; "
              f"exclusive sum: {excl * 1e3:.2f} ms "
              f"({closure:.2f}% closure)")

        if result.metrics:
            print("\nMetrics:")
            for name, snap in result.metrics.items():
                if snap.get("type") == "histogram":
                    quantiles = " ".join(
                        f"{k}={snap[k]:.3f}" for k in snap
                        if k[:1] == "p"
                        and k[1:].replace(".", "", 1).isdigit())
                    print(f"  {name}: n={snap['count']} "
                          f"mean={snap['mean']:.3f} {quantiles}")
                else:
                    print(f"  {name}: {snap.get('value')}")

    out = args.out if args.out else os.path.join(
        "traces", f"{args.experiment}_trace.json")
    trace_path = write_chrome_trace(_ensure_parent(out), spans)
    if not args.json:
        print(f"\nchrome trace: {trace_path}")
    if args.jsonl:
        jsonl_path = write_spans_jsonl(_ensure_parent(args.jsonl),
                                       spans)
        if not args.json:
            print(f"span jsonl  : {jsonl_path}")
    return 0


def _cmd_profile(args) -> int:
    from .bench import profiler
    from .obs import (diff_profiles, folded_stacks,
                      profile_regressions, render_profile)
    if args.diff:
        base_path, head_path = args.diff
        base = profiler.load_profile(base_path)
        head = profiler.load_profile(head_path)
        rows = diff_profiles(base, head)
        moved = [r for r in rows if r["status"] != "common"
                 or r["delta_self_ms"]]
        if moved:
            print(f"{'path':<52s} {'base self':>10s} "
                  f"{'head self':>10s} {'delta':>9s}")
            for r in moved[:args.top]:
                label = r["path"] if len(r["path"]) <= 52 \
                    else "..." + r["path"][-49:]
                print(f"{label:<52s} {r['base_self_ms']:>10.2f} "
                      f"{r['head_self_ms']:>10.2f} "
                      f"{r['delta_self_ms']:>+9.2f}")
        else:
            print("profiles are identical on every path")
        regressions = profile_regressions(
            base, head, max_regress_pct=args.max_regress_pct,
            min_self_ms=args.min_self_ms)
        if regressions:
            print(f"self-time p50 REGRESSION vs {base_path} "
                  f"(tolerance {args.max_regress_pct:g}%):",
                  file=sys.stderr)
            for r in regressions:
                pct = f"+{r['regress_pct']:.1f}%" if r["baseline"] \
                    else "new path"
                print(f"  {r['path']}: {r['baseline']:.2f} -> "
                      f"{r['current']:.2f} ms ({pct})", file=sys.stderr)
            return 1
        print(f"no self-time p50 regression vs {base_path} "
              f"(tolerance {args.max_regress_pct:g}%)")
        return 0

    from .obs import profile_document
    targets = profiler.resolve_targets(args.targets)
    profile = profiler.capture_profile(targets, shards=args.shards)
    doc = profile_document(profile, targets=targets)
    print(render_profile(profile, top=args.top))
    out = args.out if args.out else os.path.join(
        profiler.DEFAULT_OUT_DIR, "PROFILE_head.json")
    print(f"\nprofile json : {profiler.write_profile(out, doc)}")
    if args.folded:
        with open(_ensure_parent(args.folded), "w",
                  encoding="utf-8") as fh:
            fh.write(folded_stacks(profile))
        print(f"folded stacks: {args.folded}")
    return 0


def _cmd_monitor(args) -> int:
    from .obs import (MonitorSession, REALTIME_BUDGET_MS, SloObjective,
                      SloPolicy, TelemetryBus, use_telemetry)
    bus = TelemetryBus()
    budget_ms = args.budget_ms
    if args.experiment == "ablation_fleet":
        # The fleet dashboard's native subject: re-run the saturation
        # simulation's fleet with telemetry on (optionally spiked).
        from .core.fleet import (FleetConfig, FleetScheduler,
                                 SchedulingPolicy)
        from .faults import FaultInjector, FaultKind, FaultSpec
        cfg = FleetConfig(num_drones=args.drones,
                          duration_s=args.duration)
        injector = None
        if args.spike:
            total = cfg.num_drones * cfg.frames_per_drone
            start = total // 2
            injector = FaultInjector((FaultSpec(
                FaultKind.THERMAL_THROTTLE, start_frame=start,
                end_frame=min(total, start + total // 4),
                magnitude=args.spike_factor),))
        with use_telemetry(bus):
            FleetScheduler(cfg).run(SchedulingPolicy.ADAPTIVE,
                                    injector=injector)
        if budget_ms is None:
            budget_ms = cfg.deadline_ms
    else:
        from .bench.experiments.registry import run_experiment
        if args.spike:
            from .errors import BenchmarkError
            raise BenchmarkError(
                "--spike only applies to the ablation_fleet monitor")
        with use_telemetry(bus):
            run_experiment(args.experiment, enforce_claims=False)
        if budget_ms is None:
            budget_ms = REALTIME_BUDGET_MS
    if not bus.samples:
        print(f"no telemetry emitted by {args.experiment!r}")
        return 1

    policy = SloPolicy(objectives=(
        SloObjective("latency_e2e", target=0.99,
                     threshold_ms=budget_ms),
        SloObjective("availability", target=0.99)))
    session = MonitorSession(policy, refresh_s=args.refresh)
    live = sys.stdout.isatty() and not args.all_frames
    ever_burning: set = set()
    frame = None
    for frame in session.replay(bus.samples):
        ever_burning.update(frame.burning_devices)
        if live:
            print(f"\x1b[2J\x1b[H{frame.text}", flush=True)
        elif args.all_frames:
            print(frame.text)
            print()
    if frame is not None and not args.all_frames and not live:
        print(frame.text)
    print(f"\n{len(bus.samples)} samples, "
          f"{len(session.devices)} devices, "
          f"budget {budget_ms:.2f} ms")
    if ever_burning:
        print(f"SLO burned on: {', '.join(sorted(ever_burning))}")
    for device in sorted(session.devices):
        for t in session.devices[device].health.transitions:
            print(f"  {device}: frame {t['frame']} "
                  f"{t['from']} -> {t['to']} ({t['reason']})")
    if args.out and frame is not None:
        with open(_ensure_parent(args.out), "w",
                  encoding="utf-8") as fh:
            fh.write(frame.text + "\n")
        print(f"final frame: {args.out}")
    return 0


def _cmd_serve_sim(args) -> int:
    if args.cells or args.shards > 1 or args.autoscale:
        if args.policy is not None:
            print("error: --policy does not apply to fleet mode "
                  "(cells always screen deadlines)", file=sys.stderr)
            return 2
        return _serve_sim_fleet(args)
    return _serve_sim_cluster(args)


def _serve_sim_cluster(args) -> int:
    import json as _json

    from .serving import (AdmissionPolicy, ClusterConfig,
                          ClusterSimulator, ReplicaSpec,
                          default_chaos_faults)
    if args.replica:
        specs = []
        for entry in args.replica:
            model, sep, device = entry.partition("@")
            if not sep or not model or not device:
                print(f"error: --replica wants MODEL@DEVICE, "
                      f"got {entry!r}", file=sys.stderr)
                return 2
            specs.append(ReplicaSpec(
                model=model, device=device,
                queue_capacity=args.queue_capacity,
                max_batch=args.max_batch))
        replicas = tuple(specs)
    else:
        replicas = tuple(
            ReplicaSpec(model=args.model, device=args.device,
                        queue_capacity=args.queue_capacity,
                        max_batch=args.max_batch)
            for _ in range(args.replicas))
    faults = default_chaos_faults(args.duration, len(replicas)) \
        if args.chaos else ()
    policy = args.policy
    if policy is None:
        pooled = bool(args.replica) or args.replicas > 1 or args.chaos
        policy = "deadline" if pooled else "full"
    cfg = ClusterConfig(
        replicas=replicas, num_streams=args.streams,
        frame_rate=args.rate, duration_s=args.duration,
        deadline_ms=args.deadline_ms, router=args.router,
        admission=policy, max_retries=args.retries,
        hedge_quantile=args.hedge_quantile, faults=faults,
        arrival_jitter_ms=args.jitter_ms, seed=args.seed)
    rep = ClusterSimulator(cfg).run()
    s = rep.summary()
    pool = ", ".join(f"r{i}={label}"
                     for i, label in enumerate(s["replicas"]))
    print(f"cluster [{pool}] — {cfg.num_streams} streams x "
          f"{cfg.frame_rate:g} fps ({cfg.offered_rps:g} rps), "
          f"router={s['router']}, admission={cfg.admission.value}"
          + (", chaos ladder on" if args.chaos else ""))
    shed_parts = " ".join(f"{k}={v}" for k, v in
                          sorted(rep.shed.items()) if v)
    print(f"  deadline       : {rep.deadline_ms:8.2f} ms")
    print(f"  generated      : {rep.generated:8d}")
    print(f"  admitted       : {rep.admitted:8d} "
          f"({100.0 * rep.admitted_fraction:.1f}%)"
          + (f"  shed: {shed_parts}" if shed_parts else ""))
    print(f"  completed      : {rep.completed:8d} "
          f"({rep.violations} past deadline, "
          f"rate {rep.violation_rate:.4f})")
    print(f"  latency        : p50 {rep.p50_ms:8.2f} ms   "
          f"p99 {rep.p99_ms:8.2f} ms")
    print(f"  goodput        : {rep.goodput_fps:8.1f} fps "
          f"(throughput {rep.throughput_fps:.1f} fps)")
    print(f"  mean batch     : {rep.mean_batch:8.2f} frames "
          f"over {len(rep.batch_sizes)} batches")
    print(f"  exec per frame : {rep.exec_per_frame_ms:8.2f} ms")
    avail = " ".join(f"r{r}={rep.availability(r):.4f}"
                     for r in range(len(cfg.replicas)))
    print(f"  availability   : {avail}")
    if rep.downtimes_ms:
        recov = ", ".join(f"{v:.1f}" for v in rep.crash_recoveries_ms)
        print(f"  crashes        : {sum(rep.replica_crashes.values())}"
              f" (MTTR {rep.mttr_ms:.1f} ms, failover recovery "
              f"[{recov}] ms)")
    if rep.retries or rep.timeout_reroutes or rep.hedged:
        print(f"  recovery       : {rep.requeued_on_crash} requeued, "
              f"{rep.retries} retries, {rep.timeout_reroutes} "
              f"timeout re-routes, {rep.hedged} hedged "
              f"({rep.hedge_wins} wins)")
    if args.out:
        with open(_ensure_parent(args.out), "w",
                  encoding="utf-8") as fh:
            _json.dump(s, fh, indent=2, sort_keys=True)
        print(f"  wrote {args.out}")
    if args.check:
        failures = []
        if not rep.conservation_holds():
            failures.append("request conservation violated")
        if rep.lost_requests:
            failures.append(
                f"{rep.lost_requests} admitted requests lost")
        if cfg.admission in (AdmissionPolicy.DEADLINE,
                             AdmissionPolicy.FULL) \
                and rep.violation_rate >= 0.01:
            failures.append(
                f"shedding violation rate {rep.violation_rate:.4f} "
                f">= 0.01")
        if failures:
            for f in failures:
                print(f"CHECK FAILED: {f}", file=sys.stderr)
            return 1
        print("checks passed")
    return 0


def _serve_sim_fleet(args) -> int:
    import json as _json
    from dataclasses import replace

    from .serving import (AutoscalePolicy, FleetSimConfig,
                          FleetSimulator, ReplicaSpec,
                          default_chaos_faults)
    replicas = tuple(
        ReplicaSpec(model=args.model, device=args.device,
                    queue_capacity=args.queue_capacity,
                    max_batch=args.max_batch)
        for _ in range(args.replicas))
    # The chaos ladder is confined to cell 0 — the fleet-level claim
    # is that a cell-local fault never leaks into other cells.
    faults = tuple((0, spec) for spec in
                   default_chaos_faults(args.duration, len(replicas))) \
        if args.chaos else ()
    policy = AutoscalePolicy(
        epoch_s=args.epoch_s, min_replicas=len(replicas),
        max_replicas=args.max_replicas) if args.autoscale else None
    try:
        ramp = tuple(float(m) for m in args.ramp.split(","))
    except ValueError:
        print(f"error: --ramp wants comma-separated multipliers, "
              f"got {args.ramp!r}", file=sys.stderr)
        return 2
    cfg = FleetSimConfig(
        num_streams=args.streams, num_cells=args.cells or 4,
        replicas_per_cell=replicas, frame_rate=args.rate,
        duration_s=args.duration, deadline_ms=args.deadline_ms,
        router=args.router, max_retries=args.retries,
        arrival_jitter_ms=args.jitter_ms, ramp=ramp, faults=faults,
        autoscale=policy, shards=args.shards, seed=args.seed)
    fleet = FleetSimulator(cfg).run()
    s = fleet.summary()
    print(f"fleet — {cfg.num_streams} streams over "
          f"{len(s['cells'])} cells x {len(replicas)} replica(s) "
          f"[{replicas[0].label}], {cfg.shards} shard(s), "
          f"router={s['router']}"
          + (", autoscale on" if policy else "")
          + (", chaos in cell 0" if args.chaos else ""))
    shed_parts = " ".join(f"{k}={v}" for k, v in
                          sorted(s["shed"].items()) if v)
    print(f"  deadline       : {s['deadline_ms']:8.2f} ms")
    print(f"  generated      : {s['generated']:8d}")
    print(f"  admitted       : {s['admitted']:8d}"
          + (f"  shed: {shed_parts}" if shed_parts else ""))
    print(f"  completed      : {s['completed']:8d} "
          f"({s['violations']} past deadline, "
          f"rate {s['violation_rate']:.4f})")
    p50 = s["p50_ms"] if s["p50_ms"] is not None else float("nan")
    p99 = s["p99_ms"] if s["p99_ms"] is not None else float("nan")
    print(f"  latency        : p50 {p50:8.2f} ms   "
          f"p99 {p99:8.2f} ms")
    print(f"  goodput        : {s['goodput_fps']:8.1f} fps "
          f"(min availability {s['min_availability']:.4f})")
    print(f"  scale          : {s['replica_seconds']:.1f} "
          f"replica-seconds, max {s['max_replicas_per_cell']} "
          f"replica(s)/cell")
    for event in s["autoscale_events"]:
        if event["action"] != "hold":
            print(f"    t={event['t_ms'] / 1000.0:5.1f}s "
                  f"{event['action']:>5s} -> "
                  f"{event['replicas_per_cell']} replica(s)/cell")
    if args.out:
        with open(_ensure_parent(args.out), "w",
                  encoding="utf-8") as fh:
            _json.dump(s, fh, indent=2, sort_keys=True)
        print(f"  wrote {args.out}")
    if args.check:
        failures = []
        if not fleet.conservation_holds():
            failures.append("fleet request conservation violated")
        if fleet.lost_requests:
            failures.append(
                f"{fleet.lost_requests} admitted requests lost")
        if cfg.shards > 1:
            single = FleetSimulator(replace(cfg, shards=1)).run()
            if _json.dumps(single.summary(), sort_keys=True) \
                    != _json.dumps(s, sort_keys=True):
                failures.append(
                    f"shard-count invariance violated: {cfg.shards} "
                    f"shards diverge from 1 shard")
        if failures:
            for f in failures:
                print(f"CHECK FAILED: {f}", file=sys.stderr)
            return 1
        print("checks passed")
    return 0


def _cmd_lint(args) -> int:
    from .analysis import lint_paths, render_json, render_text
    result = lint_paths(args.paths, strict=args.strict,
                        select=args.select.split(",")
                        if args.select else None)
    if args.json:
        print(render_json(result))
    else:
        print(render_text(result))
    code = result.exit_code
    if args.sanitize:
        # The dynamic half of the aliasing defense: run the fused
        # mini-YOLO sweep under the runtime array sanitizer.  The
        # summary goes to stderr in --json mode so the JSON report
        # schema on stdout stays intact.
        from .errors import AliasError
        from .nn.sanitizer import run_sanitize_sweep
        stream = sys.stderr if args.json else sys.stdout
        try:
            sweep = run_sanitize_sweep()
        except AliasError as exc:
            print(f"sanitize: ALIAS VIOLATION — {exc}", file=stream)
            return 1
        print(sweep.render(), file=stream)
        code = code or (0 if sweep.clean else 1)
    return code


def _cmd_report(_args) -> int:
    from .core.suite import OcularoneBench
    report = OcularoneBench().run_all()
    print(report.to_markdown())
    return 0 if report.all_claims_hold else 1


def _cmd_latency(args) -> int:
    from .latency.estimator import LatencyEstimator
    est = LatencyEstimator()
    b = est.breakdown(args.model, args.device)
    print(f"{args.model} on {args.device}:")
    print(f"  median latency : {b.total_ms:8.2f} ms "
          f"({1000.0 / b.total_ms:.1f} FPS)")
    print(f"  compute        : {b.compute_ms:8.2f} ms")
    print(f"  memory         : {b.memory_ms:8.2f} ms")
    print(f"  host overhead  : {b.overhead_ms:8.2f} ms")
    print(f"  post-process   : {b.postprocess_ms:8.2f} ms")
    print(f"  bound          : "
          f"{'compute' if b.compute_bound else 'memory'}")
    return 0


def _cmd_dataset(_args) -> int:
    from .dataset.stats import dataset_summary, table1_rows
    from .io.report import markdown_table
    rows = [list(r) for r in table1_rows()]
    print(markdown_table(
        ["Category", "Sub-Category", "# annotated images"], rows))
    summary = dataset_summary()
    print(f"\nTotal: {summary['Total']} images")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Ocularone-Bench reproduction command line")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered experiments")

    run_p = sub.add_parser("run", help="run experiments by id")
    run_p.add_argument("experiments", nargs="+",
                       help="experiment ids (see `repro list`)")
    run_p.add_argument("--no-enforce", dest="enforce",
                       action="store_false", default=True,
                       help="do not fail on violated paper claims")

    trace_p = sub.add_parser(
        "trace", help="run one experiment under the span tracer")
    trace_p.add_argument("experiment",
                         help="experiment id (see `repro list`)")
    trace_p.add_argument("--out", default=None,
                         help="Chrome trace output path "
                              "(default traces/<id>_trace.json)")
    trace_p.add_argument("--jsonl", default=None,
                         help="also write spans as JSON-lines here")
    trace_p.add_argument("--json", action="store_true",
                         help="print the span-closure records as a "
                              "profile-schema JSON document instead "
                              "of the table")
    trace_p.add_argument("--no-enforce", dest="enforce",
                         action="store_false", default=True,
                         help="do not fail on violated paper claims")

    prof_p = sub.add_parser(
        "profile", help="deterministic hotspot profile: ranked table, "
                        "folded stacks, diffable JSON")
    prof_p.add_argument("targets", nargs="*",
                        help="experiment ids and/or probes "
                             "(nn_forward, fleet_cells); default: the "
                             "committed-baseline target set")
    prof_p.add_argument("--out", default=None,
                        help="profile JSON output path (default "
                             "profiles/PROFILE_head.json)")
    prof_p.add_argument("--folded", default=None,
                        help="also write folded-stacks (collapsed "
                             "flamegraph format) here")
    prof_p.add_argument("--top", type=int, default=20,
                        help="rows in the hotspot/diff table "
                             "(default 20)")
    prof_p.add_argument("--shards", type=int, default=1,
                        help="worker processes for shardable probes; "
                             "profiles are byte-identical for any "
                             "shard count")
    prof_p.add_argument("--diff", nargs=2, default=None,
                        metavar=("BASE.json", "HEAD.json"),
                        help="compare two profile documents; exit "
                             "non-zero on self-time p50 regression "
                             "or an added path")
    prof_p.add_argument("--max-regress-pct", type=float, default=10.0,
                        help="p50 self-time regression tolerance in "
                             "percent (default 10)")
    prof_p.add_argument("--min-self-ms", type=float, default=2.0,
                        help="gate only paths whose baseline (for an "
                             "added path, head) self-time p50 is at "
                             "least this (default 2)")

    mon_p = sub.add_parser(
        "monitor", help="replay an experiment's telemetry as a "
                        "fleet dashboard")
    mon_p.add_argument("experiment",
                       help="experiment id (ablation_fleet re-runs "
                            "the fleet simulation with telemetry)")
    mon_p.add_argument("--refresh", type=float, default=1.0,
                       help="dashboard refresh cadence in sim seconds")
    mon_p.add_argument("--budget-ms", type=float, default=None,
                       help="latency SLO threshold (default: fleet "
                            "deadline / 33 ms real-time budget)")
    mon_p.add_argument("--drones", type=int, default=6,
                       help="fleet size for ablation_fleet")
    mon_p.add_argument("--duration", type=float, default=12.0,
                       help="simulated seconds for ablation_fleet")
    mon_p.add_argument("--spike", action="store_true",
                       help="inject a thermal-throttle latency spike "
                            "mid-run (ablation_fleet only)")
    mon_p.add_argument("--spike-factor", type=float, default=6.0,
                       help="latency multiplier during the spike")
    mon_p.add_argument("--all-frames", action="store_true",
                       help="print every dashboard frame sequentially")
    mon_p.add_argument("--out", default=None,
                       help="also write the final frame to this file")

    serve_p = sub.add_parser(
        "serve-sim", help="run the dynamic-batching serving simulator")
    serve_p.add_argument("--model", default="yolov8-m",
                         help="served model (default yolov8-m)")
    serve_p.add_argument("--device", default="rtx4090",
                         help="serving device (default rtx4090)")
    serve_p.add_argument("--streams", type=int, default=8,
                         help="number of drone request streams")
    serve_p.add_argument("--rate", type=float, default=10.0,
                         help="requests/s per stream")
    serve_p.add_argument("--duration", type=float, default=10.0,
                         help="simulated seconds of arrivals")
    serve_p.add_argument("--deadline-ms", type=float, default=None,
                         help="per-request deadline "
                              "(default: one frame period)")
    serve_p.add_argument("--policy", default=None,
                         choices=["none", "deadline", "slo", "full"],
                         help="admission policy (default full for one "
                              "replica, deadline for a pool or "
                              "--chaos; not accepted in fleet mode)")
    serve_p.add_argument("--max-batch", type=int, default=None,
                         help="batch-size cap (default: auto via "
                              "BatchingModel)")
    serve_p.add_argument("--queue-capacity", type=int, default=256,
                         help="bounded queue capacity")
    serve_p.add_argument("--jitter-ms", type=float, default=0.0,
                         help="seeded uniform arrival jitter")
    serve_p.add_argument("--seed", type=int, default=None,
                         help="seed for the jitter stream")
    serve_p.add_argument("--replicas", type=int, default=1,
                         help="replica count (default 1)")
    serve_p.add_argument("--replica", action="append", default=None,
                         metavar="MODEL@DEVICE",
                         help="explicit heterogeneous replica (repeat "
                              "per replica; overrides --replicas)")
    serve_p.add_argument("--router", default="least-loaded",
                         choices=["least-loaded", "round-robin",
                                  "fastest"],
                         help="failover routing policy "
                              "(default least-loaded)")
    serve_p.add_argument("--chaos", action="store_true",
                         help="inject the canned server-fault ladder "
                              "(crash + slowdown window)")
    serve_p.add_argument("--hedge-quantile", type=float, default=None,
                         help="hedge requests outstanding past this "
                              "latency quantile (e.g. 0.95)")
    serve_p.add_argument("--retries", type=int, default=4,
                         help="per-request re-dispatch budget "
                              "(default 4)")
    serve_p.add_argument("--cells", type=int, default=0,
                         help="partition streams into this many fleet "
                              "cells (enables the sharded fleet "
                              "simulator; default 4 when only "
                              "--shards/--autoscale given)")
    serve_p.add_argument("--shards", type=int, default=1,
                         help="worker processes for the fleet cells; "
                              "merged metrics are byte-identical for "
                              "any shard count")
    serve_p.add_argument("--autoscale", action="store_true",
                         help="enable the SLO-burn autoscaler "
                              "(fleet mode)")
    serve_p.add_argument("--epoch-s", type=float, default=1.0,
                         help="autoscaler decision epoch in simulated "
                              "seconds (default 1.0)")
    serve_p.add_argument("--max-replicas", type=int, default=3,
                         help="autoscaler per-cell replica ceiling "
                              "(default 3)")
    serve_p.add_argument("--ramp", default="1.0",
                         help="comma-separated arrival-rate "
                              "multipliers over equal run segments "
                              "(e.g. 1,3,1)")
    serve_p.add_argument("--out", default=None,
                         help="write the summary / recovery-metrics "
                              "JSON here")
    serve_p.add_argument("--check", action="store_true",
                         help="exit non-zero when serving invariants "
                              "fail (CI smoke mode)")

    lint_p = sub.add_parser(
        "lint", help="reprolint: determinism & repo-contract static "
                     "analysis")
    lint_p.add_argument("paths", nargs="*", default=["src"],
                        help="files/directories to lint (default src)")
    lint_p.add_argument("--strict", action="store_true",
                        help="warnings also fail the lint (CI mode)")
    lint_p.add_argument("--json", action="store_true",
                        help="print the machine-readable JSON report")
    lint_p.add_argument("--select", default=None,
                        help="comma-separated rule ids to run "
                             "(default: all)")
    lint_p.add_argument("--sanitize", action="store_true",
                        help="also run the fused-vs-unfused mini-YOLO "
                             "sweep under the runtime array sanitizer "
                             "(writeable fencing + shares_memory "
                             "checks); failures exit non-zero")

    sub.add_parser("report",
                   help="run all fast experiments, print the report")

    lat_p = sub.add_parser("latency",
                           help="latency estimate for model@device")
    lat_p.add_argument("model", help="e.g. yolov8-x")
    lat_p.add_argument("device", help="e.g. xavier-nx")

    sub.add_parser("dataset", help="print the Table 1 summary")
    return parser


_HANDLERS = {
    "list": _cmd_list,
    "run": _cmd_run,
    "trace": _cmd_trace,
    "profile": _cmd_profile,
    "monitor": _cmd_monitor,
    "serve-sim": _cmd_serve_sim,
    "lint": _cmd_lint,
    "report": _cmd_report,
    "latency": _cmd_latency,
    "dataset": _cmd_dataset,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover — exercised via main()
    sys.exit(main())
