"""Runtime array sanitizer: make silent aliasing fail loudly.

The fused NN and serving hot paths deliberately share mutable buffers —
workspace arenas, in-place GEMM epilogues, cached activations — which is
exactly the class of code where an aliasing bug corrupts numbers without
crashing (the PR 9 stale-cache gradient bug was one instance).  The
static RL2xx rules catch the usual causes at lint time; this module is
the *dynamic* half: an opt-in mode that turns "two tensors silently
share memory" into an immediate error.

Under ``with sanitize():``

* parameters and non-trainable buffers are flipped ``writeable=False``
  for the duration of every **eval** forward
  (:func:`frozen_params`, wired into
  :meth:`repro.nn.network.Sequential.forward`), so an in-place epilogue
  that touches a weight raises ``ValueError`` at the write;
* backward caches are frozen as they are stored (:func:`freeze` at the
  cache sites in :mod:`repro.nn.layers`), so a caller mutating a cached
  tensor between forward and backward fails loudly;
* the :class:`~repro.nn.workspace.Workspace` arena runs its
  borrow/return bookkeeping: double ``take()`` of one key, ``release``
  without a borrow, and ``reset()`` with outstanding borrows all raise
  :class:`~repro.errors.AliasError`, and buffers dropped by ``reset()``
  are write-fenced so stale references fail on their next write;
* :func:`assert_disjoint` / :func:`assert_tree_disjoint` verify with
  ``np.shares_memory`` that network outputs never alias arena buffers
  and that serving snapshots share nothing with live simulator state.

Nothing here costs anything when inactive: every hook is a contextvar
read away from a no-op, and the mode is process-local (each
``parallel_map`` worker decides independently).

Entry points: ``repro lint --sanitize`` runs
:func:`run_sanitize_sweep` (fused-vs-unfused over all six mini-YOLO
variants under the sanitizer); the pytest fixture in
``tests/conftest.py`` re-runs the nn/fuse/workspace/serving test
modules under ``sanitize()`` when ``REPRO_SANITIZE=1``.
"""

from __future__ import annotations

import contextlib
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..errors import AliasError


@dataclass
class SanitizerState:
    """Coverage counters for one ``sanitize()`` scope.

    Violations raise immediately; the counters exist so reports can
    prove the checks actually ran (a sweep that "passes" with zero
    ``shares_memory`` comparisons verified nothing).
    """

    freezes: int = 0
    #: pairwise ``shares_memory`` comparisons made by assert_disjoint.
    disjoint_checks: int = 0
    #: assert_tree_disjoint invocations (a tree pair may legitimately
    #: have zero ndarray leaves — the guard still ran).
    tree_checks: int = 0


_ACTIVE: ContextVar[Optional[SanitizerState]] = ContextVar(
    "repro_array_sanitizer", default=None)


def sanitizer_active() -> bool:
    """Whether a ``sanitize()`` scope is active on this context."""
    return _ACTIVE.get() is not None


def current_sanitizer() -> Optional[SanitizerState]:
    """The active state, or None outside ``sanitize()``."""
    return _ACTIVE.get()


@contextlib.contextmanager
def sanitize() -> Iterator[SanitizerState]:
    """Enable the runtime array sanitizer for the enclosed block."""
    state = SanitizerState()
    token = _ACTIVE.set(state)
    try:
        yield state
    finally:
        _ACTIVE.reset(token)


def freeze(arr: np.ndarray) -> np.ndarray:
    """Write-protect a cache the caller owns (no-op when inactive).

    Layers call this on the arrays they stash for backward; a stray
    in-place mutation of the cache then raises ``ValueError`` at the
    write site instead of corrupting gradients three calls later.
    """
    if _ACTIVE.get() is not None and arr.flags.writeable:
        arr.flags.writeable = False
    return arr


@contextlib.contextmanager
def frozen_params(layer) -> Iterator[None]:
    """Write-protect a layer's params+buffers for the enclosed block.

    Only arrays this scope actually froze are thawed on exit, so nested
    scopes (a fused net forwarding through its source ``Sequential``)
    compose.  No-op when the sanitizer is inactive.
    """
    state = _ACTIVE.get()
    if state is None:
        yield
        return
    frozen: List[np.ndarray] = []
    for arr in list(layer.params().values()) + list(layer.buffers().values()):
        if isinstance(arr, np.ndarray) and arr.flags.writeable:
            arr.flags.writeable = False
            frozen.append(arr)
    state.freezes += 1
    try:
        yield
    finally:
        for arr in frozen:
            arr.flags.writeable = True


def assert_disjoint(arrays: Dict[str, np.ndarray],
                    context: str = "") -> int:
    """Raise :class:`AliasError` if any two named arrays share memory.

    Returns the number of pairs compared.  Runs regardless of whether
    ``sanitize()`` is active (callers gate); counters only tick inside
    a scope.
    """
    names = sorted(arrays)
    pairs = 0
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            pairs += 1
            if np.shares_memory(arrays[a], arrays[b]):
                where = f" in {context}" if context else ""
                raise AliasError(
                    f"arrays {a!r} and {b!r} share memory{where}; "
                    f"expected disjoint buffers")
    state = _ACTIVE.get()
    if state is not None:
        state.disjoint_checks += pairs
    return pairs


def _tree_arrays(obj, path: str, out: List[Tuple[str, np.ndarray]],
                 depth: int = 0) -> None:
    """Collect ndarray leaves of nested dict/list/tuple structures."""
    if depth > 12:  # defensive: snapshots are shallow
        return
    if isinstance(obj, np.ndarray):
        out.append((path, obj))
    elif isinstance(obj, dict):
        for key in sorted(obj, key=repr):
            _tree_arrays(obj[key], f"{path}.{key}", out, depth + 1)
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            _tree_arrays(item, f"{path}[{i}]", out, depth + 1)


def assert_tree_disjoint(a, b, context: str = "") -> int:
    """No ndarray leaf of tree ``a`` may share memory with one of ``b``.

    The serving snapshot guard: a checkpoint that aliases live
    simulator state would mutate retroactively as the run continues.
    Returns the number of cross-tree pairs compared.
    """
    left: List[Tuple[str, np.ndarray]] = []
    right: List[Tuple[str, np.ndarray]] = []
    _tree_arrays(a, "a", left)
    _tree_arrays(b, "b", right)
    pairs = 0
    for pa, arr_a in left:
        for pb, arr_b in right:
            pairs += 1
            if np.shares_memory(arr_a, arr_b):
                where = f" in {context}" if context else ""
                raise AliasError(
                    f"snapshot leaf {pa} aliases live state leaf "
                    f"{pb}{where}; snapshots must be deep copies")
    state = _ACTIVE.get()
    if state is not None:
        state.tree_checks += 1
    return pairs


# -- the sanitize sweep (repro lint --sanitize) ---------------------------


@dataclass
class VariantResult:
    """Per-variant outcome of the fused-vs-unfused sanitize sweep."""

    variant: str
    max_abs_delta: float
    arena_buffers: int
    arena_hits: int
    disjoint_pairs: int
    bitwise_identical: bool


@dataclass
class SanitizeReport:
    """Everything ``repro lint --sanitize`` prints and gates on."""

    results: List[VariantResult] = field(default_factory=list)
    freezes: int = 0

    @property
    def clean(self) -> bool:
        return all(r.bitwise_identical for r in self.results)

    def render(self) -> str:
        lines = ["sanitize sweep (fused vs unfused, writeable-fenced, "
                 "shares_memory-checked):"]
        for r in self.results:
            lines.append(
                f"  {r.variant:<18} max|Δ|={r.max_abs_delta:.2e}  "
                f"arena={r.arena_buffers} bufs/{r.arena_hits} hits  "
                f"pairs={r.disjoint_pairs}  "
                f"{'ok' if r.bitwise_identical else 'MISMATCH'}")
        verdict = "clean" if self.clean else "VIOLATIONS"
        lines.append(f"sanitize: {verdict} — {len(self.results)} "
                     f"variants, {self.freezes} frozen eval forwards")
        return "\n".join(lines)


def run_sanitize_sweep(image_size: int = 64, seed: int = 7,
                       batch: int = 2) -> SanitizeReport:
    """Run all six mini-YOLO variants fused vs unfused under sanitizer.

    For each variant: (1) plain eval forwards, fused and unfused;
    (2) the same forwards under ``sanitize()`` with frozen parameters
    and the arena borrow ledger — outputs must be **bitwise identical**
    to the plain runs (the sanitizer observes, never perturbs);
    (3) ``np.shares_memory`` proof that the fused output, the unfused
    output, the input, and every arena buffer are pairwise disjoint;
    (4) a second fused frame must not mutate the first frame's output
    (the arena-escape regression the static RL203 rule guards).

    Deterministic: seeded inputs, no clock, sorted variant order.
    """
    from ..models.yolo.mini import MINI_YOLO_VARIANTS, MiniYolo
    from ..rng import make_rng

    report = SanitizeReport()
    for name in sorted(MINI_YOLO_VARIANTS):
        cfg = MINI_YOLO_VARIANTS[name]
        rng = make_rng(seed, "sanitize-sweep", name)
        x = rng.normal(size=(batch, 3, image_size, image_size)) \
            .astype(np.float32)
        unfused = MiniYolo(cfg, seed=seed)
        fused = MiniYolo(cfg, seed=seed)
        fused.fuse()

        y_unfused = unfused.forward(x, training=False)
        y_fused = fused.forward(x, training=False)

        with sanitize() as state:
            ys_unfused = unfused.forward(x, training=False)
            ys_fused = fused.forward(x, training=False)
            named = {"input": x, "unfused_out": ys_unfused,
                     "fused_out": ys_fused}
            ws = fused._fused.workspace
            for key in sorted(ws._buffers, key=repr):
                named[f"arena:{key[0]}:{key[1]}{key[2]}"] = \
                    ws._buffers[key]
            pairs = assert_disjoint(named, context=name)
            # Frame-2 must leave frame-1's output untouched.
            first = ys_fused.copy()
            x2 = rng.normal(size=x.shape).astype(np.float32)
            fused.forward(x2, training=False)
            if not np.array_equal(ys_fused, first):
                raise AliasError(
                    f"{name}: second fused frame mutated the first "
                    f"frame's output — an arena buffer escaped")
            report.freezes += state.freezes

        bitwise = (np.array_equal(y_unfused, ys_unfused)
                   and np.array_equal(y_fused, ys_fused))
        report.results.append(VariantResult(
            variant=name,
            max_abs_delta=float(np.max(np.abs(
                y_fused.astype(np.float64)
                - y_unfused.astype(np.float64)))),
            arena_buffers=ws.num_buffers,
            arena_hits=ws.hits,
            disjoint_pairs=pairs,
            bitwise_identical=bitwise))
    return report
