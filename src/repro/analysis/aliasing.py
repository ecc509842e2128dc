"""Aliasing rules (RL201–RL204): array-ownership dataflow checks.

The PR 9 stale-cache bug — ``Linear`` caching its *caller's* input
array by reference, so in-place activations upstream corrupted the
gradients — is a member of a family: NumPy shares memory silently
(views, conditional copies, arena reuse), and the resulting corruption
surfaces numerically, far from the cause.  These rules encode the
family statically, on top of the def-use pass in
:mod:`repro.analysis.dataflow`:

========  ==========================================================
RL201     in-place mutation of a caller-owned (parameter) array
RL202     caching a caller-owned array by reference (the PR 9 bug)
RL203     returning memory that aliases a workspace arena buffer
RL204     workspace borrow escaping its scope / use after reset()
========  ==========================================================

The static rules are deliberately conservative (definite aliases and
NumPy's *conditional-copy* functions only); the runtime sanitizer
(:mod:`repro.nn.sanitizer`) is the dynamic complement that catches
what the approximation cannot.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Tuple

from .dataflow import OUT_PARAM_NAMES, Event, ModuleEvents, Via
from .rules import Rule, SourceFile, Violation, register


def _allowlisted(path: str, suffixes: Tuple[str, ...]) -> bool:
    norm = path.replace("\\", "/")
    return any(norm.endswith(suffix) for suffix in suffixes)


#: One-entry scan cache: four rules consume the same module's events
#: back to back, so caching the last tree avoids 4× re-scans without
#: retaining anything across files.  The entry holds the tree itself
#: and matches by identity: keyed on ``id(tree)`` alone, a later file
#: whose tree reused a freed tree's id got the stale file's events.
_SCAN_CACHE: List[Tuple[ast.AST, ModuleEvents]] = []


def _module_events(src: SourceFile) -> ModuleEvents:
    if not _SCAN_CACHE or _SCAN_CACHE[0][0] is not src.tree:
        _SCAN_CACHE[:] = [(src.tree, ModuleEvents.scan(src.tree))]
    return _SCAN_CACHE[0][1]


class _AliasRule(Rule):
    """Shared plumbing: pick events of one kind, filter, report."""

    kind = ""
    allowlist: Tuple[str, ...] = ()

    def check_file(self, src: SourceFile) -> Iterator[Violation]:
        if _allowlisted(src.path, self.allowlist):
            return
        for event in _module_events(src).of_kind(self.kind):
            if self.event_applies(event):
                yield self.violation(src.path, event.line, event.col,
                                     self.message(event))

    def event_applies(self, event: Event) -> bool:
        return True

    def message(self, event: Event) -> str:  # pragma: no cover
        raise NotImplementedError


@register
class InPlaceParamMutationRule(_AliasRule):
    """RL201 — don't mutate arrays the caller handed you.

    ``x[:] = …``, ``np.add(a, b, out=x)``, ``np.copyto(x, …)`` or
    ``x.fill(0)`` on a parameter rewrites memory the *caller* owns —
    and with NumPy that corruption is silent: every view and cached
    reference of the array changes value at a distance.  Functions
    that exist to mutate opt out by convention: a trailing-underscore
    name (``clip_grads_``) or an out-parameter name (``out``, ``dst``,
    ``buf`` …) advertises the write.
    """

    rule_id = "RL201"
    title = "in-place mutation of caller-owned array"
    rationale = ("writes through a parameter corrupt the caller's "
                 "array and every view of it; copy first, or "
                 "advertise mutation with a trailing-underscore name "
                 "or an out= parameter")
    kind = "mutation"

    #: Rasterisers: their whole API is painting onto caller canvases
    #: (documented "(in-place)"), mirroring the RL001 timing allowlist.
    allowlist = ("image/draw.py", "multimodal/thermal.py")

    def event_applies(self, event: Event) -> bool:
        if event.func_name.endswith("_"):
            return False  # mutator by naming convention
        if event.binding.source in OUT_PARAM_NAMES:
            return False  # parameter name advertises the write
        return True

    def message(self, event: Event) -> str:
        return (f"{event.detail} (parameter "
                f"{event.binding.source!r} in {event.func_name}()); "
                f"operate on a copy, or mark the function as a "
                f"mutator (trailing '_') / rename the parameter to "
                f"'out'")


@register
class ByReferenceCacheRule(_AliasRule):
    """RL202 — never cache a caller-owned array by reference.

    The PR 9 gradient bug as a rule: ``self._cache = x`` (or a tuple
    containing ``x``, or a definite view like ``x[:, 0]`` / ``x.T``)
    inside ``forward`` keeps a live reference into memory the caller
    may legally overwrite before ``backward`` runs — gradients then
    read torn data.  Cache ``x.copy()`` instead (and freeze it under
    the sanitizer).  Conditional copies (``reshape``, ``asarray``)
    are accepted: flagging them would punish the idiomatic
    shape-normalisation most forwards start with.
    """

    rule_id = "RL202"
    title = "caller-owned array cached by reference"
    rationale = ("a cached reference to the caller's array reads "
                 "torn data if the caller reuses the buffer before "
                 "backward; cache x.copy() instead")
    kind = "cache_store"

    #: Methods whose caches feed a later pass (forward → backward).
    cache_methods = ("forward", "__call__")

    def event_applies(self, event: Event) -> bool:
        return (event.func_name in self.cache_methods
                or event.func_name.startswith("_forward"))

    def message(self, event: Event) -> str:
        what = "a view of" if event.binding.via is Via.VIEW else ""
        return (f"{event.detail} caches {what or 'the'} caller-owned "
                f"array {event.binding.source!r} by reference in "
                f"{event.func_name}(); the caller may reuse that "
                f"buffer before backward — cache "
                f"{event.binding.source}.copy()")


@register
class ArenaEscapeRule(_AliasRule):
    """RL203 — arena-backed memory must not cross an API boundary.

    Workspace buffers are overwritten on the next frame; returning one
    (or a view of one) hands the caller memory that will change under
    it.  Two shapes are flagged: a *definite* alias returned from a
    public function, and a *conditional copy* (``ascontiguousarray``,
    ``reshape``…) of arena memory returned from anywhere — NumPy
    returns the input itself when it is already contiguous, so for
    some shapes (1×1 spatial outputs) the "copy" is the arena buffer.
    Private helpers may return definite aliases: their callers are in
    the same file and part of the arena discipline.
    """

    rule_id = "RL203"
    title = "workspace arena buffer escapes via return"
    rationale = ("arena buffers are overwritten next frame; returning "
                 "one (or a maybe-copy of one) hands the caller "
                 "memory that changes under it — return an explicit "
                 ".copy()")
    kind = "return"

    #: The arena's own accessors return buffers by design.
    allowlist = ("nn/workspace.py",)

    def event_applies(self, event: Event) -> bool:
        if event.binding.via is Via.MAYBE:
            return True  # conditional copy: flagged everywhere
        return event.public  # definite alias: public API only

    def message(self, event: Event) -> str:
        if event.binding.via is Via.MAYBE:
            return (f"{event.func_name}() returns a conditional copy "
                    f"(reshape/ascontiguousarray) of workspace buffer "
                    f"{event.binding.source!r} — when the array is "
                    f"already contiguous NumPy returns the arena "
                    f"buffer itself; use an explicit .copy()")
        return (f"public {event.func_name}() returns workspace buffer "
                f"{event.binding.source!r} (or a view of it); the "
                f"arena overwrites it next frame — return a .copy()")


@register
class BorrowLifetimeRule(_AliasRule):
    """RL204 — a workspace borrow must not outlive its scope.

    ``ws.take()`` is a scoped borrow: stored to ``self`` or appended
    to a container it survives past the matching ``release()``/
    ``reset()`` and dangles into reallocated arena space.  Using any
    arena-bound local after ``ws.reset()`` is the same bug one step
    later.  The runtime leak detector in
    :class:`repro.nn.workspace.Workspace` is the dynamic twin.
    """

    rule_id = "RL204"
    title = "workspace borrow outlives its scope"
    rationale = ("take() borrows are valid until release()/reset(); "
                 "storing one on self or using one after reset() "
                 "dangles into reallocated arena memory")
    kind = "borrow_escape"

    def check_file(self, src: SourceFile) -> Iterator[Violation]:
        if _allowlisted(src.path, self.allowlist):
            return
        events = _module_events(src)
        for event in events.of_kind("borrow_escape"):
            yield self.violation(
                src.path, event.line, event.col,
                f"workspace take() borrow {event.binding.source!r} "
                f"{event.detail} in {event.func_name}() — it "
                f"outlives the borrow scope; release() first or use "
                f"buffer() for frame-persistent storage")
        for event in events.of_kind("use_after_reset"):
            yield self.violation(
                src.path, event.line, event.col,
                f"{event.detail} in {event.func_name}() — the arena "
                f"dropped it; request a fresh buffer after reset()")
