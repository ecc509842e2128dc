"""Rule model and registry for reprolint.

A :class:`Rule` inspects source and yields :class:`Violation` records.
Two scopes exist:

* **file** rules receive one parsed module at a time (path, source,
  AST) — the determinism family lives here;
* **repo** rules receive a :class:`RepoContext` spanning every linted
  file plus the repository root, so they can cross-check artifacts
  (goldens, docs, CLI surface) — the contract family lives here.

Rules self-register at import via :func:`register`; the engine asks
:func:`all_rules` for the active set.  Every rule carries a stable id
(``RL0xx`` determinism, ``RL1xx`` contract, ``RL2xx`` aliasing,
``RL3xx`` hygiene), a default severity and a one-line rationale that
the reporters and docs reuse.
"""

from __future__ import annotations

import ast
import enum
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple, Type

from ..errors import ConfigError


class Severity(enum.Enum):
    """How bad a violation is by default.

    ``--strict`` promotes warnings to the failing set; errors always
    fail the lint.
    """

    WARNING = "warning"
    ERROR = "error"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class Violation:
    """One rule hit, anchored to a file and line."""

    rule_id: str
    severity: Severity
    path: str
    line: int
    col: int
    message: str

    def to_dict(self) -> Dict[str, object]:
        """JSON-reporter form (stable key order via dataclass order)."""
        return {
            "rule": self.rule_id,
            "severity": self.severity.value,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule_id)


@dataclass
class SourceFile:
    """A parsed module handed to file-scope rules."""

    path: str
    source: str
    tree: ast.Module
    lines: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.lines:
            self.lines = self.source.splitlines()


@dataclass
class RepoContext:
    """Everything repo-scope rules may cross-check.

    ``root`` is the repository root (directory holding
    ``pyproject.toml``); ``files`` maps repo-relative posix paths to
    parsed sources for every linted file.
    """

    root: str
    files: Dict[str, SourceFile] = field(default_factory=dict)


class Rule:
    """Base class: subclass, set the class attributes, implement check.

    File-scope rules implement :meth:`check_file`; repo-scope rules
    implement :meth:`check_repo`.  ``scope`` picks which one the engine
    calls.
    """

    rule_id: str = ""
    title: str = ""
    rationale: str = ""
    severity: Severity = Severity.ERROR
    scope: str = "file"  # "file" | "repo"

    def violation(self, path: str, line: int, col: int,
                  message: str) -> Violation:
        """Build a violation carrying this rule's id and severity."""
        return Violation(self.rule_id, self.severity, path, line, col,
                         message)

    def check_file(self, src: SourceFile) -> Iterator[Violation]:
        """Yield violations for one module (file-scope rules)."""
        return iter(())

    def check_repo(self, ctx: RepoContext) -> Iterator[Violation]:
        """Yield violations spanning the repository (repo-scope rules)."""
        return iter(())


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: add a rule to the global registry."""
    if not cls.rule_id:
        raise ConfigError(f"rule {cls.__name__} has no rule_id")
    if cls.rule_id in _REGISTRY:
        raise ConfigError(f"duplicate rule id {cls.rule_id}")
    _REGISTRY[cls.rule_id] = cls
    return cls


def all_rules(select: Optional[List[str]] = None) -> List[Rule]:
    """Instantiate the registered rules (optionally a subset).

    ``select`` is a list of rule ids; unknown ids raise
    :class:`~repro.errors.ConfigError` so typos fail loudly instead of
    silently linting nothing.
    """
    # Rule modules register on import; pull them in lazily to avoid an
    # import cycle (they import this module for the base class).
    from . import aliasing, contract, determinism, hygiene  # noqa: F401
    if select is None:
        ids = sorted(_REGISTRY)
    else:
        unknown = sorted(set(select) - set(_REGISTRY))
        if unknown:
            raise ConfigError(
                f"unknown rule id(s) {unknown}; known: "
                f"{sorted(_REGISTRY)}")
        ids = sorted(set(select))
    return [_REGISTRY[rid]() for rid in ids]


def rule_ids() -> List[str]:
    """Sorted ids of every registered rule."""
    from . import aliasing, contract, determinism, hygiene  # noqa: F401
    return sorted(_REGISTRY)


def get_rule(rule_id: str) -> Rule:
    """Instantiate one rule by id."""
    from . import aliasing, contract, determinism, hygiene  # noqa: F401
    if rule_id not in _REGISTRY:
        raise ConfigError(
            f"unknown rule id {rule_id!r}; known: {sorted(_REGISTRY)}")
    return _REGISTRY[rule_id]()
