"""Fixture-snippet and tamper tests for the aliasing rules (RL2xx).

Same treatment as the determinism rules: every rule fires on a minimal
snippet, stays quiet on the idiomatic-clean variant, and honors
suppressions.  The tamper tests then re-introduce the two *real* bugs
this rule family was distilled from — the PR 9 Linear by-reference
cache and the conditional-copy arena escape — into copies of the live
source files and assert the rules catch them.
"""

from __future__ import annotations

import os
import textwrap

from repro.analysis import LintResult, lint_paths

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")


def lint_snippet(tmp_path, source, *, name="snippet.py",
                 select=None, strict=True) -> LintResult:
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return lint_paths([str(path)], strict=strict, select=select,
                      root=str(tmp_path))


def rule_ids_of(result: LintResult):
    return [v.rule_id for v in result.violations]


class TestInPlaceParamMutation:
    def test_slice_write_fires(self, tmp_path):
        res = lint_snippet(tmp_path, """
            def normalise(x):
                x[:] = x / x.max()
                return x
            """, select=["RL201"])
        assert rule_ids_of(res) == ["RL201"]
        assert "caller-owned" in res.violations[0].message

    def test_out_kwarg_fires(self, tmp_path):
        res = lint_snippet(tmp_path, """
            import numpy as np
            def apply(x, w):
                np.matmul(x, w, out=x)
                return x
            """, select=["RL201"])
        assert rule_ids_of(res) == ["RL201"]

    def test_copyto_and_fill_fire(self, tmp_path):
        res = lint_snippet(tmp_path, """
            import numpy as np
            def load(x, values):
                np.copyto(x, values)
            def clear(x):
                x.fill(0)
            """, select=["RL201"])
        assert rule_ids_of(res) == ["RL201", "RL201"]

    def test_annotated_array_augassign_fires(self, tmp_path):
        res = lint_snippet(tmp_path, """
            import numpy as np
            def scale(x: np.ndarray, s: float):
                x *= s
            """, select=["RL201"])
        assert rule_ids_of(res) == ["RL201"]

    def test_trailing_underscore_mutator_exempt(self, tmp_path):
        res = lint_snippet(tmp_path, """
            import numpy as np
            def clip_grads_(x: np.ndarray, lo, hi):
                np.clip(x, lo, hi, out=x)
            """, select=["RL201"])
        assert res.violations == []

    def test_out_param_name_exempt(self, tmp_path):
        res = lint_snippet(tmp_path, """
            def render(out, color):
                out[:] = color
            """, select=["RL201"])
        assert res.violations == []

    def test_dict_param_store_not_flagged(self, tmp_path):
        res = lint_snippet(tmp_path, """
            from typing import Dict
            def bump(counter: Dict[str, int], key: str):
                counter[key] = counter.get(key, 0) + 1
            def stash(meta: dict, where):
                meta["locations"] = where
            """, select=["RL201"])
        assert res.violations == []

    def test_rebound_to_fresh_not_flagged(self, tmp_path):
        res = lint_snippet(tmp_path, """
            def softmax(x):
                x = x - x.max()
                x[:] = x / x.sum()
                return x
            """, select=["RL201"])
        assert res.violations == []

    def test_suppression_silences(self, tmp_path):
        res = lint_snippet(tmp_path, """
            def normalise(x):
                x[:] = x / x.max()  # reprolint: disable=RL201 caller opts in via docstring contract
                return x
            """, select=["RL201"])
        assert res.violations == []
        assert res.suppressed == 1


class TestByReferenceCache:
    def test_bare_param_cache_fires(self, tmp_path):
        """The PR 9 Linear gradient bug, distilled."""
        res = lint_snippet(tmp_path, """
            class Linear:
                def forward(self, x, training=True):
                    self._x = x
                    return x @ self.w.T
            """, select=["RL202"])
        assert rule_ids_of(res) == ["RL202"]
        assert "by reference" in res.violations[0].message
        assert "copy()" in res.violations[0].message

    def test_view_in_tuple_cache_fires(self, tmp_path):
        res = lint_snippet(tmp_path, """
            class L:
                def forward(self, x, training=True):
                    self._cache = (x.shape, x.T)
                    return x
            """, select=["RL202"])
        assert rule_ids_of(res) == ["RL202"]

    def test_copy_is_clean(self, tmp_path):
        res = lint_snippet(tmp_path, """
            class Linear:
                def forward(self, x, training=True):
                    self._x = x.copy()
                    return x @ self.w.T
            """, select=["RL202"])
        assert res.violations == []

    def test_conditional_copy_is_clean(self, tmp_path):
        # reshape may copy; flagging it would punish the idiomatic
        # shape-normalisation most forwards start with (Conv2d cols).
        res = lint_snippet(tmp_path, """
            class Conv:
                def forward(self, x, training=True):
                    cols = x.reshape(-1, 4)
                    self._cache = (x.shape, cols)
                    return cols
            """, select=["RL202"])
        assert res.violations == []

    def test_non_forward_method_not_flagged(self, tmp_path):
        # Setters holding a reference are an ownership *transfer*;
        # only forward-family caches feed a later backward.
        res = lint_snippet(tmp_path, """
            class Holder:
                def set_weights(self, w):
                    self._w = w
            """, select=["RL202"])
        assert res.violations == []


class TestArenaEscape:
    def test_public_return_of_buffer_fires(self, tmp_path):
        res = lint_snippet(tmp_path, """
            class C:
                def forward(self, x):
                    ws = self.workspace
                    return ws.buffer(self, "gemm", (8, 4))
            """, select=["RL203"])
        assert rule_ids_of(res) == ["RL203"]

    def test_conditional_copy_fires_even_private(self, tmp_path):
        res = lint_snippet(tmp_path, """
            import numpy as np
            class Conv:
                def _forward_arena(self, x):
                    ws = self.workspace
                    out2d = ws.buffer(self, "gemm", (8, 4))
                    out = out2d.reshape(2, 2, 2, 4)
                    return np.ascontiguousarray(
                        out.transpose(0, 3, 1, 2))
            """, select=["RL203"])
        assert rule_ids_of(res) == ["RL203"]
        assert "contiguous" in res.violations[0].message

    def test_private_definite_alias_allowed(self, tmp_path):
        res = lint_snippet(tmp_path, """
            class C:
                def _padded(self, x):
                    ws = self.workspace
                    return ws.buffer(self, "pad", (4, 4))
            """, select=["RL203"])
        assert res.violations == []

    def test_explicit_copy_is_clean(self, tmp_path):
        res = lint_snippet(tmp_path, """
            class C:
                def forward(self, x):
                    ws = self.workspace
                    out = ws.buffer(self, "gemm", (8, 4))
                    return out.reshape(2, 2, 2, 4) \\
                        .transpose(0, 3, 1, 2).copy()
            """, select=["RL203"])
        assert res.violations == []


class TestBorrowLifetime:
    def test_borrow_stored_on_self_fires(self, tmp_path):
        res = lint_snippet(tmp_path, """
            class C:
                def forward(self, x):
                    ws = self.workspace
                    buf = ws.take(self, "cols", (8, 8))
                    self._held = buf
                    return x
            """, select=["RL204"])
        assert rule_ids_of(res) == ["RL204"]
        assert "outlives" in res.violations[0].message

    def test_borrow_appended_fires(self, tmp_path):
        res = lint_snippet(tmp_path, """
            class C:
                def collect(self, x, sink):
                    ws = self.workspace
                    buf = ws.take(self, "cols", (8, 8))
                    sink.append(buf)
                    return x
            """, select=["RL204"])
        assert rule_ids_of(res) == ["RL204"]

    def test_use_after_reset_fires(self, tmp_path):
        res = lint_snippet(tmp_path, """
            class C:
                def sweep(self, x):
                    ws = self.workspace
                    buf = ws.buffer(self, "pad", (4, 4))
                    ws.reset()
                    buf[:] = 0
                    return x
            """, select=["RL204"])
        assert rule_ids_of(res) == ["RL204"]
        assert "reset()" in res.violations[0].message

    def test_identity_check_after_reset_allowed(self, tmp_path):
        # The arena's own regression tests assert `new is not old`;
        # reading the reference is not reading the dropped memory.
        res = lint_snippet(tmp_path, """
            class C:
                def check(self, x):
                    ws = self.workspace
                    a = ws.buffer(self, "pad", (4, 4))
                    ws.reset()
                    assert ws.buffer(self, "pad", (4, 4)) is not a
                    return x
            """, select=["RL204"])
        assert res.violations == []

    def test_take_release_pairing_clean(self, tmp_path):
        res = lint_snippet(tmp_path, """
            class C:
                def forward(self, x):
                    ws = self.workspace
                    buf = ws.take(self, "cols", (8, 8))
                    y = buf.copy()
                    ws.release(self, "cols")
                    return y
            """, select=["RL204"])
        assert res.violations == []


class TestTamperRealBugs:
    """Re-introduce the two real aliasing bugs; the rules must fire."""

    def _tamper(self, tmp_path, rel, old, new):
        path = os.path.join(SRC, *rel.split("/"))
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        assert old in text, f"tamper anchor vanished from {rel}"
        tampered = tmp_path / os.path.basename(rel)
        tampered.write_text(text.replace(old, new), encoding="utf-8")
        return str(tampered)

    def test_linear_by_reference_cache_trips_rl202(self, tmp_path):
        tampered = self._tamper(
            tmp_path, "repro/nn/layers.py",
            "self._x = x.copy()", "self._x = x")
        res = lint_paths([tampered], strict=True, select=["RL202"],
                         root=str(tmp_path))
        assert "RL202" in rule_ids_of(res)
        assert res.exit_code == 1

    def test_conditional_copy_escape_trips_rl203(self, tmp_path):
        # The anchor is the return of the module-level conv eval kernel,
        # which every unfused and fused eval conv runs; its arena is the
        # ``ws`` parameter, not ``self.workspace``.
        tampered = self._tamper(
            tmp_path, "repro/nn/layers.py",
            "return out.transpose(0, 3, 1, 2).copy()",
            "return np.ascontiguousarray(out.transpose(0, 3, 1, 2))")
        res = lint_paths([tampered], strict=True, select=["RL203"],
                         root=str(tmp_path))
        assert "RL203" in rule_ids_of(res)
        assert any("conv2d_eval()" in v.message for v in res.violations)

    def test_live_tree_is_rl2xx_clean(self):
        res = lint_paths([SRC], strict=True, root=REPO_ROOT,
                         select=["RL201", "RL202", "RL203", "RL204"])
        assert res.violations == [], \
            "\n".join(f"{v.path}:{v.line} {v.rule_id} {v.message}"
                      for v in res.violations)
