"""The library constructs and the oracle checks: an import-level guard."""

import ast
import os
import subprocess
import sys
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


def test_the_package_imports_only_the_standard_library():
    # function-level imports included: _imports walks the whole tree
    third_party = {
        (p.name, name)
        for p in PACKAGE.glob("*.py")
        for name in _imports(p)
        if not name.startswith(".")
        and name.split(".")[0] not in sys.stdlib_module_names
    }
    assert third_party == set()


def test_a_cli_call_loads_only_the_standard_library_and_the_package():
    # the snapshot keeps what site preloads, e.g. a setuptools shim
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from unimodal_chains import cli\n"
        "cli.main(['signature', '[1,2,0,1,0]'])\n"
        "loaded = {name.split('.')[0] for name in set(sys.modules) - before}\n"
        "foreign = loaded - set(sys.stdlib_module_names) - {'unimodal_chains'}\n"
        "assert not foreign, f'loaded {sorted(foreign)}'\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_structure_does_not_reach_into_the_oracle():
    path = PACKAGE / "structure.py"
    assert ".oracle" not in _imports(path)


def test_only_the_oracle_names_the_check_record():
    # the library constructs; recording a check's outcome is the oracle's
    naming = [p.name for p in PACKAGE.glob("*.py") if "CheckResult" in p.read_text()]
    assert naming == ["oracle.py"]


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


def test_statistics_reaches_no_higher_layer():
    # signature_classes walks chains with the posets walks, not through
    # transversal, so statistics sits below every module that reads it
    imports = _imports(PACKAGE / "statistics.py")
    assert not imports & {".transversal", ".structure", ".oracle"}


def test_only_the_oracle_names_the_waived_checks():
    # the oracle alone decides which failed checks are documented facts;
    # the CLI reads its verdict and names no check of its own
    from unimodal_chains import oracle

    checks = (*oracle.SPLIT_SOUND_CHECKS, *oracle.SPLIT_DEFECT_CHECKS,
              "degree_formula")
    cli_text = (PACKAGE / "cli.py").read_text()
    assert [check for check in checks if check in cli_text] == []
    imported = [
        getattr(oracle, alias.name)
        for node in ast.walk(ast.parse(cli_text))
        if isinstance(node, ast.ImportFrom) and node.module == "oracle"
        for alias in node.names
    ]
    check_sets = (oracle.SPLIT_SOUND_CHECKS, oracle.SPLIT_DEFECT_CHECKS, oracle.WAIVED)
    assert not any(value is s for value in imported for s in check_sets)
    naming = [p.name for p in PACKAGE.glob("*.py")
              if any(check in p.read_text() for check in oracle.WAIVED)]
    assert naming == ["oracle.py"]
