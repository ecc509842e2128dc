"""Fixture-snippet tests for every single-file rule (RL001–RL005, RL301).

Each rule gets the same treatment: the violation fires on a minimal
snippet, a suppression comment silences it, and the rule's allowlist
(where one exists) is honored.  Snippets are written to ``tmp_path``
and linted through the real engine so suppression parsing, severity
filtering and exit codes are exercised end to end.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis import LintResult, lint_paths
from repro.errors import ConfigError


def lint_snippet(tmp_path, source, *, name="snippet.py",
                 select=None, strict=True) -> LintResult:
    """Write ``source`` under ``tmp_path`` and lint it."""
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return lint_paths([str(path)], strict=strict, select=select,
                      root=str(tmp_path))


def rule_ids_of(result: LintResult):
    return [v.rule_id for v in result.violations]


class TestWallClock:
    def test_time_time_fires(self, tmp_path):
        res = lint_snippet(tmp_path, """
            import time
            def now():
                return time.time()
            """)
        assert rule_ids_of(res) == ["RL001"]
        assert res.exit_code == 1

    def test_from_import_alias_resolved(self, tmp_path):
        res = lint_snippet(tmp_path, """
            from time import perf_counter as pc
            def now():
                return pc()
            """)
        assert rule_ids_of(res) == ["RL001"]

    def test_datetime_now_fires(self, tmp_path):
        res = lint_snippet(tmp_path, """
            from datetime import datetime
            def stamp():
                return datetime.now().isoformat()
            """)
        assert rule_ids_of(res) == ["RL001"]

    def test_trailing_suppression_silences(self, tmp_path):
        res = lint_snippet(tmp_path, """
            import time
            def now():
                return time.time()  # reprolint: disable=RL001 display only
            """)
        assert res.violations == []
        assert res.suppressed == 1

    def test_next_line_suppression_silences(self, tmp_path):
        res = lint_snippet(tmp_path, """
            import time
            def now():
                # reprolint: disable=RL001 display only
                return time.time()
            """)
        assert res.violations == []
        assert res.suppressed == 1

    def test_file_suppression_silences(self, tmp_path):
        res = lint_snippet(tmp_path, """
            # reprolint: disable-file=RL001 this module is the clock
            import time
            def a():
                return time.time()
            def b():
                return time.monotonic()
            """)
        assert res.violations == []
        assert res.suppressed == 2

    def test_allowlist_honored(self, tmp_path):
        res = lint_snippet(tmp_path, """
            import time
            OFFSET = time.time() - time.perf_counter()
            """, name="obs/tracer.py")
        assert res.violations == []

    def test_sleep_not_flagged(self, tmp_path):
        res = lint_snippet(tmp_path, """
            import time
            def pause():
                time.sleep(0.0)
            """)
        assert res.violations == []


class TestAmbientRandomness:
    def test_stdlib_random_fires(self, tmp_path):
        res = lint_snippet(tmp_path, """
            import random
            def draw():
                return random.random() + random.choice([1, 2])
            """)
        assert rule_ids_of(res) == ["RL002", "RL002"]

    def test_numpy_legacy_global_fires(self, tmp_path):
        res = lint_snippet(tmp_path, """
            import numpy as np
            def draw():
                np.random.seed(0)
                return np.random.rand(3)
            """)
        assert rule_ids_of(res) == ["RL002", "RL002"]

    def test_seeded_constructors_allowed(self, tmp_path):
        res = lint_snippet(tmp_path, """
            import numpy as np
            def make(seed):
                return np.random.default_rng(
                    np.random.SeedSequence(seed))
            """)
        assert res.violations == []

    def test_rng_module_allowlisted(self, tmp_path):
        res = lint_snippet(tmp_path, """
            import numpy as np
            def draw():
                return np.random.rand()
            """, name="repro/rng.py")
        assert res.violations == []

    def test_suppression_silences(self, tmp_path):
        res = lint_snippet(tmp_path, """
            import random
            def draw():
                return random.random()  # reprolint: disable=RL002 demo
            """)
        assert res.violations == []


class TestUnsortedIteration:
    def test_glob_fires_sorted_passes(self, tmp_path):
        fires = lint_snippet(tmp_path, """
            import glob
            def files(d):
                return [p for p in glob.glob(d)]
            """)
        assert rule_ids_of(fires) == ["RL003"]
        clean = lint_snippet(tmp_path, """
            import glob
            def files(d):
                return [p for p in sorted(glob.glob(d))]
            """)
        assert clean.violations == []

    def test_listdir_in_for_fires(self, tmp_path):
        res = lint_snippet(tmp_path, """
            import os
            def walk(d):
                for name in os.listdir(d):
                    print(name)
            """)
        assert rule_ids_of(res) == ["RL003"]

    def test_order_insensitive_consumers_allowed(self, tmp_path):
        res = lint_snippet(tmp_path, """
            import os
            def count(d):
                return len(os.listdir(d)), max(os.listdir(d))
            """)
        assert res.violations == []

    def test_set_iteration_fires(self, tmp_path):
        res = lint_snippet(tmp_path, """
            def emit(items):
                for x in set(items):
                    print(x)
                return [y for y in {1, 2, 3}]
            """)
        assert rule_ids_of(res) == ["RL003", "RL003"]

    def test_sorted_set_iteration_passes(self, tmp_path):
        res = lint_snippet(tmp_path, """
            def emit(items):
                for x in sorted(set(items)):
                    print(x)
            """)
        assert res.violations == []

    def test_suppression_silences(self, tmp_path):
        res = lint_snippet(tmp_path, """
            import os
            def walk(d):
                # reprolint: disable=RL003 order never serialized
                for name in os.listdir(d):
                    print(name)
            """)
        assert res.violations == []


class TestMutableDefault:
    def test_literal_and_factory_fire(self, tmp_path):
        res = lint_snippet(tmp_path, """
            def f(xs=[], mapping=dict()):
                return xs, mapping
            """)
        assert rule_ids_of(res) == ["RL004", "RL004"]

    def test_warning_severity_gated_by_strict(self, tmp_path):
        src = """
            def f(xs=[]):
                return xs
            """
        assert lint_snippet(tmp_path, src, strict=False).exit_code == 0
        assert lint_snippet(tmp_path, src, strict=True).exit_code == 1

    def test_none_default_passes(self, tmp_path):
        res = lint_snippet(tmp_path, """
            def f(xs=None, n=3, name="x"):
                return xs or [n, name]
            """)
        assert res.violations == []

    def test_kwonly_default_fires(self, tmp_path):
        res = lint_snippet(tmp_path, """
            def f(*, acc={}):
                return acc
            """)
        assert rule_ids_of(res) == ["RL004"]

    def test_suppression_silences(self, tmp_path):
        res = lint_snippet(tmp_path, """
            def f(xs=[]):  # reprolint: disable=RL004 read-only sentinel
                return xs
            """)
        assert res.violations == []


class TestSwallowedException:
    def test_silent_handler_fires(self, tmp_path):
        res = lint_snippet(tmp_path, """
            def run(fn):
                try:
                    return fn()
                except Exception:
                    pass
            """)
        assert rule_ids_of(res) == ["RL005"]

    def test_bare_except_fires(self, tmp_path):
        res = lint_snippet(tmp_path, """
            def run(fn):
                try:
                    return fn()
                except:
                    return None
            """)
        assert rule_ids_of(res) == ["RL005"]

    def test_tuple_with_exception_fires(self, tmp_path):
        res = lint_snippet(tmp_path, """
            def run(fn):
                try:
                    return fn()
                except (ValueError, Exception):
                    return None
            """)
        assert rule_ids_of(res) == ["RL005"]

    def test_reraise_passes(self, tmp_path):
        res = lint_snippet(tmp_path, """
            from repro.errors import BenchmarkError
            def run(fn):
                try:
                    return fn()
                except Exception as exc:
                    raise BenchmarkError(str(exc)) from exc
            """)
        assert res.violations == []

    def test_fault_recording_passes(self, tmp_path):
        res = lint_snippet(tmp_path, """
            def run(fn, tracer):
                try:
                    return fn()
                except Exception as exc:
                    tracer.event("stage_exception",
                                 error=type(exc).__name__)
                    return None
            """)
        assert res.violations == []

    def test_narrow_handler_passes(self, tmp_path):
        res = lint_snippet(tmp_path, """
            def run(fn):
                try:
                    return fn()
                except (OSError, ImportError):
                    return None
            """)
        assert res.violations == []

    def test_suppression_silences(self, tmp_path):
        res = lint_snippet(tmp_path, """
            def run(fn):
                try:
                    return fn()
                # reprolint: disable=RL005 best-effort cleanup probe
                except Exception:
                    pass
            """)
        assert res.violations == []

    def test_base_exception_recording_still_fires(self, tmp_path):
        # BaseException swallows KeyboardInterrupt/SystemExit too;
        # recording the fault is not enough — it must re-raise.
        res = lint_snippet(tmp_path, """
            def run(fn, tracer):
                try:
                    return fn()
                except BaseException as exc:
                    tracer.event("fault", error=type(exc).__name__)
                    return None
            """)
        assert rule_ids_of(res) == ["RL005"]
        assert "KeyboardInterrupt" in res.violations[0].message

    def test_bare_except_recording_still_fires(self, tmp_path):
        res = lint_snippet(tmp_path, """
            def run(fn, log):
                try:
                    return fn()
                except:
                    log.warning("failed")
                    return None
            """)
        assert rule_ids_of(res) == ["RL005"]

    def test_base_exception_reraise_passes(self, tmp_path):
        res = lint_snippet(tmp_path, """
            def run(fn):
                try:
                    return fn()
                except BaseException:
                    raise
            """)
        assert res.violations == []

    def test_pass_only_body_gets_pointed_message(self, tmp_path):
        res = lint_snippet(tmp_path, """
            def run(fn):
                try:
                    return fn()
                except Exception:
                    pass
            """)
        assert rule_ids_of(res) == ["RL005"]
        assert "pass/continue-only" in res.violations[0].message

    def test_continue_only_bare_except_fires(self, tmp_path):
        res = lint_snippet(tmp_path, """
            def run(items):
                out = []
                for item in items:
                    try:
                        out.append(item())
                    except:
                        continue
                return out
            """)
        assert rule_ids_of(res) == ["RL005"]
        assert "bare except" in res.violations[0].message


class TestSuppressionHygiene:
    def test_missing_reason_reported(self, tmp_path):
        res = lint_snippet(tmp_path, """
            import time
            def now():
                return time.time()  # reprolint: disable=RL001
            """)
        assert "RL000" in rule_ids_of(res)

    def test_malformed_id_reported(self, tmp_path):
        res = lint_snippet(tmp_path, """
            x = 1  # reprolint: disable=NOTARULE because reasons
            """)
        assert rule_ids_of(res) == ["RL000"]

    def test_suppression_is_rule_specific(self, tmp_path):
        res = lint_snippet(tmp_path, """
            import time
            def now():
                # reprolint: disable=RL002 wrong rule on purpose
                return time.time()
            """)
        assert rule_ids_of(res) == ["RL001"]

    def test_syntax_error_reported_not_crash(self, tmp_path):
        res = lint_snippet(tmp_path, "def broken(:\n")
        assert rule_ids_of(res) == ["RL000"]
        assert res.exit_code == 1


class TestEngine:
    def test_unknown_rule_select_raises(self, tmp_path):
        with pytest.raises(ConfigError):
            lint_snippet(tmp_path, "x = 1\n", select=["RL999"])

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(ConfigError):
            lint_paths([str(tmp_path / "nope")], root=str(tmp_path))

    def test_select_limits_rules(self, tmp_path):
        res = lint_snippet(tmp_path, """
            import time
            import random
            def f():
                return time.time() + random.random()
            """, select=["RL002"])
        assert rule_ids_of(res) == ["RL002"]

    def test_deterministic_ordering(self, tmp_path):
        src = """
            import time, random
            def f(xs=[]):
                return time.time(), random.random(), xs
            """
        first = lint_snippet(tmp_path, src)
        second = lint_snippet(tmp_path, src)
        assert [v.to_dict() for v in first.violations] == \
            [v.to_dict() for v in second.violations]
        lines = [(v.path, v.line, v.col, v.rule_id)
                 for v in first.violations]
        assert lines == sorted(lines)


class TestUnusedImport:
    def test_unused_import_fires(self, tmp_path):
        res = lint_snippet(tmp_path, """
            import os
            from typing import Dict, List
            def keys(d: Dict) -> int:
                return len(d)
            """)
        assert rule_ids_of(res) == ["RL301", "RL301"]
        assert [v.line for v in res.violations] == [2, 3]
        assert "'os'" in res.violations[0].message
        assert "'List'" in res.violations[1].message
        assert res.exit_code == 1  # a warning, failing under --strict

    def test_name_in_all_counts_as_used(self, tmp_path):
        res = lint_snippet(tmp_path, """
            from os.path import join
            __all__ = ["join"]
            """)
        assert rule_ids_of(res) == []

    def test_annotation_only_use_counts(self, tmp_path):
        res = lint_snippet(tmp_path, """
            from __future__ import annotations
            from typing import TYPE_CHECKING, Optional
            if TYPE_CHECKING:
                from collections import OrderedDict
            def first(x: Optional[int], od: "OrderedDict") -> None:
                return None
            """)
        assert rule_ids_of(res) == []

    def test_dotted_import_and_alias(self, tmp_path):
        res = lint_snippet(tmp_path, """
            import os.path
            import numpy as np
            def here():
                return os.path.abspath(".")
            """)
        assert rule_ids_of(res) == ["RL301"]
        assert "'np'" in res.violations[0].message

    def test_function_level_imports_are_not_checked(self, tmp_path):
        res = lint_snippet(tmp_path, """
            def lazy():
                import json  # noqa: F401
                return 1
            """)
        assert rule_ids_of(res) == []

    def test_package_init_is_skipped(self, tmp_path):
        res = lint_snippet(tmp_path, """
            from os.path import join
            """, name="pkg/__init__.py")
        assert rule_ids_of(res) == []
