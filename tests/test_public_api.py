"""Every name a ``repro`` package exports in ``__all__`` must exist.

A deleted function can leave its name behind in a package's
``__all__``; ``from repro.x import *`` then fails at import time in
user code, while the package itself still imports cleanly.
"""

import importlib
import pkgutil

import pytest

import repro


def _packages():
    names = [repro.__name__]
    for info in pkgutil.walk_packages(repro.__path__, repro.__name__ + "."):
        if info.ispkg:
            names.append(info.name)
    return sorted(names)


PACKAGES = _packages()


def test_every_subpackage_is_found():
    assert {"repro.nn", "repro.serving", "repro.models.yolo",
            "repro.bench.experiments"} <= set(PACKAGES)


@pytest.mark.parametrize("name", PACKAGES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    missing = [entry for entry in exported
               if not hasattr(module, entry)]
    assert not missing, f"{name}.__all__ names missing objects: {missing}"
    assert len(set(exported)) == len(exported), \
        f"{name}.__all__ lists a name twice"
