"""Repo-contract rule tests (RL101–RL104) against a miniature repo.

A synthetic repository — registry, experiment module, goldens,
EXPERIMENTS.md, cli.py, README.md — is materialised in ``tmp_path``;
each test then breaks exactly one artifact and asserts the matching
rule (and only it) fires.  This is the static mirror of the
acceptance criterion: *deleting a golden JSON makes the lint exit
non-zero with the correct rule id*.
"""

from __future__ import annotations

import textwrap

from repro.analysis import lint_paths

REGISTRY = '''
from . import exp_alpha, exp_beta, exp_fleet_scale, exp_serving_chaos

FAST_EXPERIMENTS = {
    "exp_alpha": exp_alpha.run,
    "exp_serving_chaos": exp_serving_chaos.run,
    "exp_fleet_scale": exp_fleet_scale.run,
}

SLOW_EXPERIMENTS = {
    "exp_beta": exp_beta.run,
}
'''

EXPERIMENT = '''
def run():
    claims = {"latency is finite": True}
    return Result(claims=claims)
'''

EXPERIMENT_NO_CLAIMS = '''
def run():
    return Result(claims={})
'''

CLI = '''
def build_parser(sub):
    sub.add_parser("run", help="run")
    sub.add_parser("lint", help="lint")
    sub.add_parser("serve-sim", help="fleet")
    sub.add_parser("profile", help="hotspots")
'''

README = """
Usage: repro run <id> and repro lint [--strict].
Fleet mode: repro serve-sim --cells 4 --shards 2 --autoscale.
Hotspots: repro profile --folded HEAD.folded.
"""

#: README that never mentions the fleet subcommand — RL102 bait.
README_NO_SERVE_SIM = """
Usage: repro run <id> and repro lint [--strict].
Hotspots: repro profile --folded HEAD.folded.
"""

#: README that never mentions the profile subcommand — RL102 bait.
README_NO_PROFILE = """
Usage: repro run <id> and repro lint [--strict].
Fleet mode: repro serve-sim --cells 4 --shards 2 --autoscale.
"""

#: A minimal valid (deterministic, schema-1) profile baseline.
PROFILE_BASELINE = ('{"deterministic": true, "paths": {"a/b": '
                    '{"count": 1, "self_ms": 3.0}}, "schema": 1, '
                    '"targets": ["exp_alpha"], "unit": "ms"}')

EXPERIMENTS_MD = """
## exp_alpha results
## exp_beta results
## exp_serving_chaos results
## exp_fleet_scale results
"""

#: Docs that mention the chaos experiment's *prefix* but never the
#: full id — must NOT satisfy RL101's word-boundary match.
EXPERIMENTS_MD_PREFIX_ONLY = """
## exp_alpha results
## exp_beta results
## exp_serving results
## exp_fleet_scale results
"""

METRICS_USER = '''
def instrument(metrics, bus):
    metrics.counter("guard.retries").inc()
    metrics.histogram("pipeline.latency_ms", ())
    bus.emit("drone-00", "e2e", 1.0, 0.0)
'''


def build_repo(tmp_path, *, drop_golden=False, drop_docs=False,
               no_claims=False, undocumented_cli=False,
               drop_chaos_golden=False, drop_fleet_golden=False,
               docs_prefix_only=False, undocumented_serve_sim=False,
               undocumented_profile=False, baseline=PROFILE_BASELINE,
               metrics_src=METRICS_USER):
    (tmp_path / "pyproject.toml").write_text("[project]\n")
    pkg = tmp_path / "src" / "repro"
    exp = pkg / "bench" / "experiments"
    exp.mkdir(parents=True)
    (exp / "registry.py").write_text(textwrap.dedent(REGISTRY))
    (exp / "exp_alpha.py").write_text(textwrap.dedent(
        EXPERIMENT_NO_CLAIMS if no_claims else EXPERIMENT))
    (exp / "exp_beta.py").write_text(textwrap.dedent(EXPERIMENT))
    (exp / "exp_serving_chaos.py").write_text(
        textwrap.dedent(EXPERIMENT))
    (exp / "exp_fleet_scale.py").write_text(
        textwrap.dedent(EXPERIMENT))
    cli = textwrap.dedent(CLI)
    if undocumented_cli:
        cli += '    sub.add_parser("hidden", help="oops")\n'
    (pkg / "cli.py").write_text(cli)
    (pkg / "metrics_user.py").write_text(textwrap.dedent(metrics_src))
    golden = tmp_path / "tests" / "golden"
    golden.mkdir(parents=True)
    if not drop_golden:
        (golden / "exp_alpha.json").write_text("{}")
    if not drop_chaos_golden:
        (golden / "exp_serving_chaos.json").write_text("{}")
    if not drop_fleet_golden:
        (golden / "exp_fleet_scale.json").write_text("{}")
    if undocumented_serve_sim:
        readme = README_NO_SERVE_SIM
    elif undocumented_profile:
        readme = README_NO_PROFILE
    else:
        readme = README
    (tmp_path / "README.md").write_text(readme)
    if baseline is not None:
        bdir = tmp_path / "profile_baseline"
        bdir.mkdir()
        (bdir / "PROFILE_baseline.json").write_text(baseline)
    if drop_docs:
        (tmp_path / "EXPERIMENTS.md").write_text("# empty\n")
    elif docs_prefix_only:
        (tmp_path / "EXPERIMENTS.md").write_text(
            EXPERIMENTS_MD_PREFIX_ONLY)
    else:
        (tmp_path / "EXPERIMENTS.md").write_text(EXPERIMENTS_MD)
    return tmp_path


def contract_lint(root):
    return lint_paths([str(root / "src")], strict=True,
                      select=["RL101", "RL102", "RL103", "RL104"],
                      root=str(root))


class TestExperimentArtifacts:
    def test_consistent_repo_is_clean(self, tmp_path):
        root = build_repo(tmp_path)
        assert contract_lint(root).violations == []

    def test_deleted_golden_fires_rl101(self, tmp_path):
        root = build_repo(tmp_path, drop_golden=True)
        res = contract_lint(root)
        assert [v.rule_id for v in res.violations] == ["RL101"]
        assert "exp_alpha" in res.violations[0].message
        assert "golden" in res.violations[0].message
        assert res.exit_code == 1

    def test_slow_experiments_need_no_golden(self, tmp_path):
        # exp_beta is slow and has no golden — and that is fine.
        root = build_repo(tmp_path)
        res = contract_lint(root)
        assert all("exp_beta" not in v.message
                   for v in res.violations)

    def test_missing_docs_entry_fires_rl101(self, tmp_path):
        root = build_repo(tmp_path, drop_docs=True)
        res = contract_lint(root)
        ids = [v.rule_id for v in res.violations]
        assert ids == ["RL101"] * 4  # all experiments undocced
        assert all("EXPERIMENTS.md" in v.message
                   for v in res.violations)

    def test_deleted_chaos_golden_fires_rl101(self, tmp_path):
        root = build_repo(tmp_path, drop_chaos_golden=True)
        res = contract_lint(root)
        assert [v.rule_id for v in res.violations] == ["RL101"]
        assert "exp_serving_chaos" in res.violations[0].message
        assert "golden" in res.violations[0].message

    def test_docs_prefix_does_not_satisfy_chaos_id(self, tmp_path):
        # "exp_serving" in the docs must not count as documenting
        # "exp_serving_chaos" — the match is word-bounded on the id.
        root = build_repo(tmp_path, docs_prefix_only=True)
        res = contract_lint(root)
        assert [v.rule_id for v in res.violations] == ["RL101"]
        assert "exp_serving_chaos" in res.violations[0].message
        assert "EXPERIMENTS.md" in res.violations[0].message

    def test_deleted_fleet_golden_fires_rl101(self, tmp_path):
        root = build_repo(tmp_path, drop_fleet_golden=True)
        res = contract_lint(root)
        assert [v.rule_id for v in res.violations] == ["RL101"]
        assert "exp_fleet_scale" in res.violations[0].message
        assert "golden" in res.violations[0].message

    def test_empty_claims_fires_rl101(self, tmp_path):
        root = build_repo(tmp_path, no_claims=True)
        res = contract_lint(root)
        assert [v.rule_id for v in res.violations] == ["RL101"]
        assert "machine-checked" in res.violations[0].message


class TestCliDocumented:
    def test_undocumented_subcommand_fires_rl102(self, tmp_path):
        root = build_repo(tmp_path, undocumented_cli=True)
        res = contract_lint(root)
        assert [v.rule_id for v in res.violations] == ["RL102"]
        assert "'hidden'" in res.violations[0].message

    def test_undocumented_serve_sim_fires_rl102(self, tmp_path):
        # The fleet entry point is under the same README contract as
        # every other subcommand.
        root = build_repo(tmp_path, undocumented_serve_sim=True)
        res = contract_lint(root)
        assert [v.rule_id for v in res.violations] == ["RL102"]
        assert "'serve-sim'" in res.violations[0].message

    def test_undocumented_profile_fires_rl102(self, tmp_path):
        # The profile entry point is under the same README contract.
        root = build_repo(tmp_path, undocumented_profile=True)
        res = contract_lint(root)
        assert [v.rule_id for v in res.violations] == ["RL102"]
        assert "'profile'" in res.violations[0].message

    def test_documented_subcommands_pass(self, tmp_path):
        root = build_repo(tmp_path)
        assert contract_lint(root).violations == []


class TestProfileBaseline:
    def test_valid_baseline_is_clean(self, tmp_path):
        root = build_repo(tmp_path)
        assert contract_lint(root).violations == []

    def test_missing_baseline_fires_rl104(self, tmp_path):
        root = build_repo(tmp_path, baseline=None)
        res = contract_lint(root)
        assert [v.rule_id for v in res.violations] == ["RL104"]
        assert "PROFILE_baseline.json" in res.violations[0].message

    def test_malformed_json_fires_rl104(self, tmp_path):
        root = build_repo(tmp_path, baseline="{not json")
        res = contract_lint(root)
        assert [v.rule_id for v in res.violations] == ["RL104"]
        assert "not valid JSON" in res.violations[0].message

    def test_nondeterministic_baseline_fires_rl104(self, tmp_path):
        root = build_repo(tmp_path, baseline=PROFILE_BASELINE.replace(
            '"deterministic": true', '"deterministic": false'))
        res = contract_lint(root)
        assert [v.rule_id for v in res.violations] == ["RL104"]
        assert "deterministic" in res.violations[0].message

    def test_empty_paths_fires_rl104(self, tmp_path):
        root = build_repo(tmp_path, baseline=(
            '{"deterministic": true, "paths": {}, "schema": 1}'))
        res = contract_lint(root)
        assert [v.rule_id for v in res.violations] == ["RL104"]
        assert "paths" in res.violations[0].message

    def test_wrong_schema_fires_rl104(self, tmp_path):
        root = build_repo(tmp_path, baseline=PROFILE_BASELINE.replace(
            '"schema": 1', '"schema": 2'))
        res = contract_lint(root)
        assert [v.rule_id for v in res.violations] == ["RL104"]
        assert "schema" in res.violations[0].message

    def test_no_profile_subcommand_needs_no_baseline(self, tmp_path):
        # A repo whose CLI has no profile subcommand owes nothing.
        root = build_repo(tmp_path, baseline=None)
        cli = root / "src" / "repro" / "cli.py"
        cli.write_text(cli.read_text().replace(
            '    sub.add_parser("profile", help="hotspots")\n', ""))
        assert contract_lint(root).violations == []


class TestTelemetryNaming:
    def test_undotted_metric_fires_rl103(self, tmp_path):
        root = build_repo(tmp_path, metrics_src='''
            def instrument(metrics):
                metrics.counter("retries").inc()
            ''')
        res = contract_lint(root)
        assert [v.rule_id for v in res.violations] == ["RL103"]
        assert "stage.metric" in res.violations[0].message

    def test_uppercase_metric_fires_rl103(self, tmp_path):
        root = build_repo(tmp_path, metrics_src='''
            def instrument(metrics):
                metrics.gauge("Guard.Retries")
            ''')
        res = contract_lint(root)
        assert [v.rule_id for v in res.violations] == ["RL103"]

    def test_kind_collision_fires_rl103(self, tmp_path):
        root = build_repo(tmp_path, metrics_src='''
            def instrument(metrics):
                metrics.counter("guard.retries").inc()
                metrics.histogram("guard.retries", ())
            ''')
        res = contract_lint(root)
        assert [v.rule_id for v in res.violations] == ["RL103"]
        assert "counter" in res.violations[0].message

    def test_same_kind_reuse_allowed(self, tmp_path):
        root = build_repo(tmp_path, metrics_src='''
            def a(metrics):
                metrics.counter("guard.retries").inc()
            def b(metrics):
                metrics.counter("guard.retries").inc()
            ''')
        assert contract_lint(root).violations == []

    def test_bad_emit_stage_fires_rl103(self, tmp_path):
        root = build_repo(tmp_path, metrics_src='''
            def instrument(bus):
                bus.emit("drone-00", "End To End", 1.0, 0.0)
            ''')
        res = contract_lint(root)
        assert [v.rule_id for v in res.violations] == ["RL103"]
        assert "stage" in res.violations[0].message


class TestGracefulDegradation:
    def test_fixture_tree_without_artifacts_is_silent(self, tmp_path):
        # A bare module with no registry/cli/README around it must
        # not trip the contract rules (they cross-check, not require).
        (tmp_path / "pyproject.toml").write_text("[project]\n")
        (tmp_path / "mod.py").write_text("x = 1\n")
        res = lint_paths([str(tmp_path / "mod.py")], strict=True,
                         root=str(tmp_path))
        assert res.violations == []
