"""The EXPERIMENTS.md generator reproduces the committed document's
structure: every experiment block in file order, then the footer."""

import importlib.util
import os
import re

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _generator():
    path = os.path.join(REPO_ROOT, "tools", "generate_experiments_md.py")
    spec = importlib.util.spec_from_file_location("generate_experiments_md",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _experiments_md() -> str:
    with open(os.path.join(REPO_ROOT, "EXPERIMENTS.md"),
              encoding="utf-8") as fh:
        return fh.read()


def test_footer_is_committed_tail():
    assert _experiments_md().endswith(_generator().FOOTER)


def test_order_lists_every_heading_in_file_order():
    ids = re.findall(r"^### .*\((\w+)\)$", _experiments_md(), re.M)
    assert _generator().ORDER == ids
