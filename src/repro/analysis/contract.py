"""Repo-contract rules (RL101–RL104): cross-artifact consistency.

Single-file AST rules cannot see that an experiment lost its golden,
or that a CLI subcommand never made it into the README.  These rules
receive the whole :class:`~repro.analysis.rules.RepoContext` and
cross-check the artifacts the reproduction's credibility rests on:

========  ==========================================================
RL101     every registered experiment has a golden, an EXPERIMENTS.md
          entry and at least one machine-checked claim
RL102     every CLI subcommand is documented in README.md
RL103     telemetry/metric names are unique and follow the
          ``stage.metric`` convention
RL104     a ``profile`` CLI subcommand ships with a valid committed
          profile baseline (``profile_baseline/PROFILE_baseline.json``)
========  ==========================================================

Each rule degrades gracefully: when the artifact it cross-checks does
not exist (e.g. linting a fixture tree in tests), it stays silent —
absence of the registry is not a lint error, only *inconsistency* is.
"""

from __future__ import annotations

import ast
import json
import os
import re
from typing import Dict, Iterator, List, Optional, Tuple

from .rules import (RepoContext, Rule, SourceFile, Violation,
                    register)

#: ``stage.metric`` — lowercase dotted, at least two segments.
METRIC_NAME_FORM = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)+$")

#: Telemetry stage labels: one lowercase token.
STAGE_NAME_FORM = re.compile(r"^[a-z0-9_-]+$")


def _find_file(ctx: RepoContext, suffix: str) -> Optional[SourceFile]:
    """The linted file whose repo-relative path ends with ``suffix``,
    falling back to parsing it from disk under the repo root."""
    for rel in sorted(ctx.files):
        if rel.endswith(suffix):
            return ctx.files[rel]
    path = os.path.join(ctx.root, *suffix.split("/"))
    return _load(ctx.root, path)


def _load(root: str, path: str) -> Optional[SourceFile]:
    if not os.path.isfile(path):
        return None
    with open(path, "r", encoding="utf-8") as fh:
        source = fh.read()
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return None
    rel = os.path.relpath(path, root).replace(os.sep, "/")
    return SourceFile(path=rel, source=source, tree=tree)


def _read_text(ctx: RepoContext, name: str) -> Optional[str]:
    path = os.path.join(ctx.root, name)
    if not os.path.isfile(path):
        return None
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


@register
class ExperimentArtifactsRule(Rule):
    """RL101 — experiments keep their golden / docs / claims triple.

    The registry is the single source of truth for what this repo can
    reproduce; each entry must stay pinned by (a) a golden JSON so
    byte-drift is caught, (b) an EXPERIMENTS.md section so the claim
    is documented, and (c) at least one machine-checked claim so
    "reproduced" means something falsifiable.  Goldens apply to fast
    experiments only — slow ones train live and are gated by claims.
    """

    rule_id = "RL101"
    title = "experiment missing golden/docs/claims artifact"
    rationale = ("an experiment without a golden, an EXPERIMENTS.md "
                 "entry and a machine-checked claim is unverifiable")
    scope = "repo"

    registry_suffix = "bench/experiments/registry.py"

    def check_repo(self, ctx: RepoContext) -> Iterator[Violation]:
        registry = _find_file(ctx, self.registry_suffix)
        if registry is None:
            return
        fast = _experiment_table(registry.tree, "FAST_EXPERIMENTS")
        slow = _experiment_table(registry.tree, "SLOW_EXPERIMENTS")
        experiments_md = _read_text(ctx, "EXPERIMENTS.md")
        golden_dir = os.path.join(ctx.root, "tests", "golden")
        for eid, (module, line) in sorted({**fast, **slow}.items()):
            if eid in fast and os.path.isdir(golden_dir):
                golden = os.path.join(golden_dir, f"{eid}.json")
                if not os.path.isfile(golden):
                    yield self.violation(
                        registry.path, line, 0,
                        f"experiment {eid!r} has no golden at "
                        f"tests/golden/{eid}.json — regenerate with "
                        f"tools/update_goldens.py")
            if experiments_md is not None and not re.search(
                    rf"\b{re.escape(eid)}\b", experiments_md):
                yield self.violation(
                    registry.path, line, 0,
                    f"experiment {eid!r} is not documented in "
                    f"EXPERIMENTS.md")
            mod_file = _find_file(
                ctx, f"bench/experiments/{module}.py")
            if mod_file is not None and \
                    not _has_machine_checked_claims(mod_file.tree):
                yield self.violation(
                    mod_file.path, 1, 0,
                    f"experiment {eid!r} declares no machine-checked "
                    f"claims (claims= on its ExperimentResult)")


def _experiment_table(tree: ast.Module,
                      table_name: str) -> Dict[str, Tuple[str, int]]:
    """``{experiment_id: (module_name, registry_line)}`` from a
    module-level ``NAME: ... = {"id": module.run, ...}`` literal."""
    out: Dict[str, Tuple[str, int]] = {}
    for node in tree.body:
        target: Optional[str] = None
        assigned: Optional[ast.expr] = None
        if isinstance(node, ast.AnnAssign) and \
                isinstance(node.target, ast.Name):
            target, assigned = node.target.id, node.value
        elif isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            target, assigned = node.targets[0].id, node.value
        if target != table_name or \
                not isinstance(assigned, ast.Dict):
            continue
        for key, value in zip(assigned.keys, assigned.values):
            if not (isinstance(key, ast.Constant)
                    and isinstance(key.value, str)):
                continue
            module = ""
            if isinstance(value, ast.Attribute) and \
                    isinstance(value.value, ast.Name):
                module = value.value.id
            out[key.value] = (module, key.lineno)
    return out


def _has_machine_checked_claims(tree: ast.Module) -> bool:
    """True when some call passes a non-empty ``claims=``.

    A ``claims=`` bound to a name is accepted when that name is
    assigned a non-empty dict literal anywhere in the module (claims
    dicts built incrementally are accepted unverified — static
    analysis cannot prove emptiness there, and a false "no claims"
    would be worse).
    """
    dict_assignments: Dict[str, bool] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and isinstance(node.value, ast.Dict):
            dict_assignments[node.targets[0].id] = \
                len(node.value.keys) > 0
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        for kw in node.keywords:
            if kw.arg != "claims":
                continue
            if isinstance(kw.value, ast.Dict):
                if len(kw.value.keys) > 0:
                    return True
            elif isinstance(kw.value, ast.Name):
                if dict_assignments.get(kw.value.id, True):
                    return True
            else:
                return True  # dict(...) call, comprehension, etc.
    return False


@register
class CliDocumentedRule(Rule):
    """RL102 — every CLI subcommand appears in README.md.

    The README's command table is the contract users script against;
    a subcommand that exists only in ``cli.py`` is an undocumented
    API surface that silently rots.
    """

    rule_id = "RL102"
    title = "CLI subcommand missing from README"
    rationale = ("undocumented subcommands rot; README is the CLI's "
                 "public contract")
    scope = "repo"

    cli_suffix = "repro/cli.py"

    def check_repo(self, ctx: RepoContext) -> Iterator[Violation]:
        cli = _find_file(ctx, self.cli_suffix)
        readme = _read_text(ctx, "README.md")
        if cli is None or readme is None:
            return
        for name, line in _subcommands(cli.tree):
            if not re.search(rf"\brepro\s+{re.escape(name)}\b",
                             readme):
                yield self.violation(
                    cli.path, line, 0,
                    f"CLI subcommand {name!r} is not documented in "
                    f"README.md (expected 'repro {name}' to appear)")


def _subcommands(tree: ast.Module) -> List[Tuple[str, int]]:
    """(name, line) of each ``<x>.add_parser("name", ...)`` literal."""
    out: List[Tuple[str, int]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr == "add_parser" and node.args and \
                isinstance(node.args[0], ast.Constant) and \
                isinstance(node.args[0].value, str):
            out.append((node.args[0].value, node.lineno))
    return out


@register
class TelemetryNamingRule(Rule):
    """RL103 — metric names: unique, ``stage.metric``-shaped.

    Dashboards and the SLO tracker key on metric-name strings; a typo
    or a counter/histogram name collision silently splits one signal
    into two.  Registry metrics must be dotted ``stage.metric``
    (``guard.retries``); telemetry stage labels must be one lowercase
    token (``e2e``, ``detect``).
    """

    rule_id = "RL103"
    title = "telemetry metric naming violation"
    rationale = ("metric-name typos and kind collisions split "
                 "signals; enforce stage.metric and uniqueness")
    scope = "repo"

    metric_kinds = frozenset({"counter", "gauge", "histogram"})

    #: Files defining the metrics/telemetry machinery itself, where
    #: the kind methods take caller-supplied names.
    allowlist: Tuple[str, ...] = ("obs/metrics.py", "obs/telemetry.py")

    def check_repo(self, ctx: RepoContext) -> Iterator[Violation]:
        seen: Dict[str, Tuple[str, str, int]] = {}
        for rel in sorted(ctx.files):
            if any(rel.endswith(sfx) for sfx in self.allowlist):
                continue
            src = ctx.files[rel]
            for node in ast.walk(src.tree):
                if not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)):
                    continue
                attr = node.func.attr
                if attr in self.metric_kinds and node.args and \
                        isinstance(node.args[0], ast.Constant) and \
                        isinstance(node.args[0].value, str):
                    name = node.args[0].value
                    if not METRIC_NAME_FORM.match(name):
                        yield self.violation(
                            rel, node.lineno, node.col_offset,
                            f"metric name {name!r} does not follow "
                            f"the 'stage.metric' convention "
                            f"(lowercase dotted)")
                    elif name in seen and seen[name][0] != attr:
                        kind, where, line = seen[name]
                        yield self.violation(
                            rel, node.lineno, node.col_offset,
                            f"metric {name!r} registered as "
                            f"{attr} here but as {kind} at "
                            f"{where}:{line}")
                    else:
                        seen.setdefault(name, (attr, rel,
                                               node.lineno))
                elif attr == "emit" and len(node.args) >= 2 and \
                        isinstance(node.args[1], ast.Constant) and \
                        isinstance(node.args[1].value, str):
                    stage = node.args[1].value
                    if not STAGE_NAME_FORM.match(stage):
                        yield self.violation(
                            rel, node.lineno, node.col_offset,
                            f"telemetry stage {stage!r} is not a "
                            f"single lowercase token")


@register
class ProfileBaselineRule(Rule):
    """RL104 — the profile byte pin needs its committed baseline.

    Tier-1's freshness test recaptures the baseline and compares bytes,
    so span-structure changes are caught only when there is a pinned
    reference to compare against.  Whenever ``cli.py`` exposes a
    ``profile`` subcommand, the repo must commit a loadable profile
    document at ``profile_baseline/PROFILE_baseline.json``: strict
    JSON, the current schema, deterministic (tick-clock captured — a
    wall-clock baseline would pin machine speed), and a non-empty
    path table.  Silent when there is no CLI or no ``profile``
    subcommand, matching the other contract rules.
    """

    rule_id = "RL104"
    title = "profile CLI without valid committed baseline"
    rationale = ("a profile byte pin without a committed deterministic "
                 "baseline cannot catch span-structure changes")
    scope = "repo"

    cli_suffix = "repro/cli.py"
    baseline_rel = "profile_baseline/PROFILE_baseline.json"

    def check_repo(self, ctx: RepoContext) -> Iterator[Violation]:
        cli = _find_file(ctx, self.cli_suffix)
        if cli is None:
            return
        lines = [ln for name, ln in _subcommands(cli.tree)
                 if name == "profile"]
        if not lines:
            return
        line = lines[0]
        path = os.path.join(ctx.root, *self.baseline_rel.split("/"))
        if not os.path.isfile(path):
            yield self.violation(
                cli.path, line, 0,
                f"CLI defines 'profile' but no baseline exists at "
                f"{self.baseline_rel} — capture one with "
                f"'repro profile --out {self.baseline_rel}'")
            return
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except ValueError as exc:
            yield self.violation(
                self.baseline_rel, 1, 0,
                f"profile baseline is not valid JSON: {exc}")
            return
        problem = _baseline_problem(doc)
        if problem is not None:
            yield self.violation(self.baseline_rel, 1, 0,
                                 f"profile baseline {problem}")


def _baseline_problem(doc: object) -> Optional[str]:
    """Why ``doc`` is not a gateable baseline, or None when it is."""
    if not isinstance(doc, dict):
        return "must be a JSON object"
    if doc.get("schema") != 1:
        return f"has schema {doc.get('schema')!r}, expected 1"
    if doc.get("deterministic") is not True:
        return ("is not deterministic — wall-clock baselines gate on "
                "machine speed; recapture it on the tick clock with "
                "`python -m repro profile --out <path>`")
    paths = doc.get("paths")
    if not isinstance(paths, dict) or not paths:
        return "has an empty or missing 'paths' table"
    return None
