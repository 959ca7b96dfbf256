"""The library constructs and the oracle checks: an import-level guard."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "unimodal_chains"


def _imports(path):
    """Top-level module names imported by path, relative ones with their dots."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            out.add("." * node.level + node.module)
        elif isinstance(node, ast.ImportFrom):  # from . import oracle
            out.update("." * node.level + alias.name for alias in node.names)
    return out


def test_only_the_oracle_uses_numpy():
    users = {p.name for p in PACKAGE.glob("*.py") if "numpy" in _imports(p)}
    assert users == {"oracle.py"}


def test_structure_does_not_reach_into_the_oracle():
    path = PACKAGE / "structure.py"
    assert ".oracle" not in _imports(path)
    assert "CheckResult" not in path.read_text()


def test_structure_holds_no_memo():
    # the library's per-poset memos live in statistics, beside the
    # clear_caches() that empties them all
    path = PACKAGE / "structure.py"
    names = {
        alias.name
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert not names & {"functools", "lru_cache", "cache"}
