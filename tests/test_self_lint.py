"""Self-application: the repository passes its own lint gate.

This is the PR's acceptance criterion made executable: ``repro lint
--strict src/`` exits 0 on the tree as committed, and the two tamper
scenarios — deleting a golden, stripping a wall-clock suppression —
flip the exit code with the correct rule id.  Tampering happens on a
copy, never on the working tree.
"""

from __future__ import annotations

import os
import shutil

from repro.analysis import lint_paths
from repro.cli import main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")


class TestSelfLint:
    def test_strict_lint_is_clean(self):
        result = lint_paths([SRC], strict=True, root=REPO_ROOT)
        assert result.violations == [], \
            "\n".join(f"{v.path}:{v.line} {v.rule_id} {v.message}"
                      for v in result.violations)
        assert result.exit_code == 0
        assert result.files_checked > 100

    def test_cli_strict_exits_zero(self, capsys):
        assert main(["lint", "--strict", SRC]) == 0
        out = capsys.readouterr().out
        assert out.startswith("clean")

    def test_cli_json_mode_parses(self, capsys):
        import json
        assert main(["lint", "--json", SRC]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["tool"] == "reprolint"
        assert doc["violations"] == []

    def test_known_suppressions_are_in_place(self):
        # The blessed wall-clock sites (the tracer's clock and the
        # runner's elapsed_s reads) carry documented suppressions.  Both
        # files are allowlisted by the rule itself, so the strict lint
        # of src/ uses no suppression; a new one has to be argued here.
        for rel in (("obs", "tracer.py"), ("bench", "runner.py")):
            with open(os.path.join(SRC, "repro", *rel), "r",
                      encoding="utf-8") as fh:
                assert "# reprolint: disable=RL001 " in fh.read()
        result = lint_paths([SRC], strict=True, root=REPO_ROOT)
        assert result.suppressed == 0


def _copy_repo_skeleton(tmp_path):
    """Copy just what the contract rules cross-check."""
    exp_src = os.path.join(SRC, "repro", "bench", "experiments")
    exp_dst = tmp_path / "src" / "repro" / "bench" / "experiments"
    shutil.copytree(exp_src, exp_dst)
    shutil.copy(os.path.join(SRC, "repro", "cli.py"),
                tmp_path / "src" / "repro" / "cli.py")
    shutil.copytree(os.path.join(REPO_ROOT, "tests", "golden"),
                    tmp_path / "tests" / "golden")
    for doc in ("EXPERIMENTS.md", "README.md", "pyproject.toml"):
        shutil.copy(os.path.join(REPO_ROOT, doc), tmp_path / doc)
    return tmp_path


class TestTamperDetection:
    def test_deleting_golden_fails_with_rl101(self, tmp_path):
        root = _copy_repo_skeleton(tmp_path)
        (root / "tests" / "golden" / "fig3.json").unlink()
        result = lint_paths([str(root / "src")], strict=True,
                            select=["RL101"], root=str(root))
        assert result.exit_code == 1
        assert [v.rule_id for v in result.violations] == ["RL101"]
        assert "fig3" in result.violations[0].message

    def test_unsuppressed_wall_clock_fails_with_rl001(self, tmp_path):
        runner_file = os.path.join(SRC, "repro", "bench", "runner.py")
        with open(runner_file, "r", encoding="utf-8") as fh:
            text = fh.read()
        marker = "# reprolint: disable=RL001 elapsed_s is wall-time"
        assert marker in text
        tampered = tmp_path / "runner.py"
        tampered.write_text(text.replace(marker, "# stripped"))
        result = lint_paths([str(tampered)], strict=True,
                            select=["RL001"], root=str(tmp_path))
        assert result.exit_code == 1
        assert [v.rule_id for v in result.violations] == ["RL001"]
