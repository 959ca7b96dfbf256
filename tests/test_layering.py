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


def test_the_oracle_rebuilds_fibers_without_structure_internals():
    # the oracle's fiber map is its own route; it may call structure's
    # public constructions only to check them
    private = {
        alias.name
        for node in ast.walk(ast.parse((PACKAGE / "oracle.py").read_text()))
        if isinstance(node, ast.ImportFrom) and node.module == "structure"
        for alias in node.names
        if alias.name.startswith("_")
    }
    assert private == set()


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


def _where(names, matches):
    """(file, innermost enclosing function) of every node that matches."""
    found = set()

    def visit(node, name, func):
        if matches(node):
            found.add((name, func))
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.FunctionDef) else func
            visit(child, name, inner)

    for name in names:
        visit(ast.parse((PACKAGE / name).read_text()), name, None)
    return found


def _writes_section_head(node):
    # (s, 0) * r: a pair ending in the constant 0, repeated
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult) and any(
        isinstance(side, ast.Tuple) and len(side.elts) == 2
        and isinstance(side.elts[1], ast.Constant) and side.elts[1].value == 0
        for side in (node.left, node.right)
    )


def _reads_class_degree(node):
    # degree(highest_weight(n, d)), degree(cls[0]), degree(min(cls, ...)):
    # the degree of anything but an element passed in by name
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "degree"
            and not all(isinstance(arg, ast.Name) for arg in node.args))


def test_only_the_split_step_writes_a_class_s_r_and_section_images():
    # one split step for the library and the CLI, whose section images and
    # fiber_element's have one writer, and whose r split_shape reads from
    # the signature, not from an element's degree; the oracle keeps its
    # own route
    library = ("statistics.py", "structure.py", "cli.py")
    assert _where(library, _writes_section_head) == {("statistics.py", "section")}
    assert _where(library, _reads_class_degree) == set()
    # the oracle's own route is still there to check it
    assert ("oracle.py", "verify_split_extension") in _where(
        ["oracle.py"], _writes_section_head) & _where(["oracle.py"], _reads_class_degree)


def test_the_private_names_each_module_imports_are_pinned():
    # an underscore name read across modules couples them to an internal;
    # a new coupling is a design change to pin here, not one to pass
    # unnoticed.  structure reads the forward fiber map's one writer per
    # step from statistics; the oracle and transversal read the walks.
    private = {
        p.name: {
            (node.module, alias.name)
            for node in ast.walk(ast.parse(p.read_text()))
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names
            if alias.name.startswith("_")
        }
        for p in PACKAGE.glob("*.py")
    }
    walks = {("posets", "_lower_path"), ("posets", "_raise_path")}
    assert {name: names for name, names in private.items() if names} == {
        "oracle.py": walks | {("statistics", "_components")},
        "statistics.py": walks,
        "structure.py": {("posets", "_raise_path")} | {
            ("statistics", name) for name in (
                "_class_mass", "_components", "_fiber_points", "_fiber_position",
                "_leading_chain", "_remove_runs", "_runs_degree")},
        "transversal.py": walks | {("statistics", "_scan")},
    }


def _module_level_memos():
    """{(module, name): memo} for every memo a package module defines at
    module level: each function wrapped by functools.cache or lru_cache,
    and each dict bound by a top-level assignment (the package keeps no
    constant tables in dicts, so a module-level dict is a memo)."""
    import importlib

    memos = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"unimodal_chains.{path.stem}")
        assigned = {
            target.id
            for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(target, ast.Name)
        }
        for name, value in vars(module).items():
            cached = (hasattr(value, "cache_clear")
                      and getattr(value, "__module__", None) == module.__name__)
            if cached or (name in assigned and isinstance(value, dict)):
                memos[path.stem, name] = value
    return memos


def test_clear_caches_empties_every_module_level_memo(monkeypatch):
    # one cache policy: every memo holds one poset at a time and
    # clear_caches() drops it.  Kept: gaussian's, keyed by box and shared
    # across posets, and the CLI's parser, built once per process.
    from unimodal_chains import statistics

    kept = {("qpoly", "gaussian"), ("cli", "build_parser")}
    memos = _module_level_memos()
    assert set(memos) == kept | {
        ("statistics", name)
        for name in ("_scans", "_scan_results", "signature", "signature_classes")
    }
    dicts = {key: memo for key, memo in memos.items() if isinstance(memo, dict)}
    for key, memo in dicts.items():
        memo[key] = memo  # any entry: the memo must come back empty
    cleared = []
    for key in set(memos) - kept - set(dicts):
        real = memos[key].cache_clear
        monkeypatch.setattr(memos[key], "cache_clear",
                            lambda key=key, real=real: cleared.append(key) or real())
    statistics.clear_caches()
    assert [key for key, memo in dicts.items() if memo.pop(key, None) is not None] == []
    assert sorted(cleared) == sorted(set(memos) - kept - set(dicts))
