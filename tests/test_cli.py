import argparse
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from unimodal_chains import cli, oracle
from unimodal_chains.cli import build_parser, main
from unimodal_chains.qpoly import gaussian
from unimodal_chains.structure import decomposition_from_dict


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_signature_command(capsys):
    code, out = run(capsys, "signature", "[2,0,1,0,0,2]")
    assert code == 0
    assert "spread: 2" in out
    assert "degree: 2" in out
    assert "signature: (0,1,1)" in out


def test_signature_base_case(capsys):
    code, out = run(capsys, "signature", "[5]")
    assert code == 0 and "signature: (5)" in out
    code, out = run(capsys, "signature", "[0,0]")
    assert code == 0 and "signature: (0)" in out


def test_signature_as_partition(capsys):
    code, out = run(capsys, "signature", "[0,1,1,3]", "--as-partition", "--n", "3")
    assert code == 0
    assert "element: [1,2,0,1]" in out


def test_signature_json(capsys):
    code, out = run(capsys, "signature", "[1,0,1]", "--format", "json")
    payload = json.loads(out)
    assert payload["signature"] == "(0,1)"
    assert payload["degree"] == 1


def test_signature_usage_error(capsys):
    assert main(["signature", "1,0,1"]) == 2
    assert main(["signature", "[0,1,1,3]", "--as-partition"]) == 2


def test_signature_non_integer_entry_quotes_the_composition(capsys):
    assert main(["signature", "[1,x]"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: non-integer entry in composition '[1,x]'\n"


@pytest.mark.parametrize("text", ["[1_0,+2, \uff13]", "[1,0_1]", "[+1]"])
def test_signature_refuses_python_integer_literals(capsys, text):
    assert main(["signature", text]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: non-integer entry in composition {text!r}\n"


def test_classes_command(capsys):
    code, out = run(capsys, "classes", "--n", "2", "--m", "2", "--format", "json")
    rows = json.loads(out)
    assert code == 0
    assert [r["size"] for r in rows] == [5, 1]


def test_classes_5_5(capsys):
    code, out = run(capsys, "classes", "--n", "5", "--m", "5", "--format", "json")
    rows = json.loads(out)
    assert len(rows) == 5
    assert sum(r["size"] for r in rows) == 252


def test_classes_filter(capsys):
    code, out = run(
        capsys, "classes", "--n", "5", "--m", "5", "--signature", "0,1,1",
        "--format", "json",
    )
    rows = json.loads(out)
    assert len(rows) == 1 and rows[0]["size"] == 30


def test_classes_filter_not_an_integer_names_the_flag(capsys):
    # an empty item or an unmatched parenthesis is not an integer either
    for text in ("abc", "1,,0", ",1,0", "1,0,", "(1,0"):
        assert main(["classes", "--n", "2", "--m", "1", "--signature", text]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"usage error: --signature takes comma-separated integers, got {text!r}\n"
        )


@pytest.mark.parametrize("text", ["0_1,0", "+1,0", "(\uff11,0)", " 1 ,0x0"])
def test_classes_filter_refuses_python_integer_literals(capsys, text):
    # int() reads each of the first three as the class (1,0) of L(1, 2)
    assert main(["classes", "--n", "2", "--m", "1", "--signature", text]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"usage error: --signature takes comma-separated integers, got {text!r}\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["--signature", "9,9,9"],
        ["--signature", "1,2", "--format", "json"],
        ["--signature", "(0,-1,2)"],
        ["--signature", ""],
    ],
    ids=["wrong-mass", "wrong-length", "negative-entry", "empty"],
)
def test_classes_filter_that_never_matches_is_refused(capsys, argv):
    # L(4, 4) has signatures of n//2 + 1 = 3 entries d_j with
    # sum((j+1)*d_j) = 4; any other filter used to print an empty listing
    assert main(["classes", "--n", "4", "--m", "4", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage error: --signature {argv[1]!r} ")
    assert "n//2 + 1 = 3 nonnegative entries" in captured.err
    assert "sum((j+1)*d_j) = 4" in captured.err


@pytest.mark.parametrize("signature", ["abc", "9,9,9"])
def test_classes_filter_is_checked_before_classifying(capsys, monkeypatch, signature):
    # L(30, 30) is over MAX_POSET_SIZE, so classifying it would exit 3
    real = cli.signature_classes
    calls = []

    def spy(n, m):
        calls.append((n, m))
        return real(n, m)

    monkeypatch.setattr(cli, "signature_classes", spy)
    assert main(["classes", "--n", "30", "--m", "30", "--signature", signature]) == 2
    assert calls == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: --signature ")


def test_classes_single_class_posets(capsys):
    code, out = run(capsys, "classes", "--n", "0", "--m", "6", "--format", "json")
    assert [r["size"] for r in json.loads(out)] == [1]


@pytest.mark.parametrize("n, m", [(6, 6), (5, 0), (0, 5), (1, 5)])
def test_classes_flags_no_row(capsys, n, m):
    # every listed signature has its highest-weight element, the enumerated
    # one-class posets of n <= 1 or m == 0 included; the key stays in the JSON
    code, out = run(capsys, "classes", "--n", str(n), "--m", str(m), "--format", "json")
    rows = json.loads(out)
    assert code == 0 and rows
    assert [r["boundary_flagged"] for r in rows] == [False] * len(rows)


def test_decompose_json(capsys):
    code, out = run(capsys, "decompose", "--n", "2", "--m", "2", "--format", "json")
    data = json.loads(out)
    chains = [ch for cd in data["classes"] for ch in cd["chains"]]
    assert len(chains) == 2
    dec = decomposition_from_dict(data)
    assert dec.n == 2 and dec.m == 2


def test_decompose_dot_path_graph(capsys):
    code, out = run(capsys, "decompose", "--n", "1", "--m", "4", "--format", "dot")
    assert code == 0
    assert out.count("[label=") == 5
    assert out.count("style=bold") == 4
    assert "digraph" in out


def test_decompose_dot_marks_chain_and_non_chain_edges(capsys):
    # (3, 3): 20 elements on 3 chains, so 17 of its 30 Hasse edges are bold
    # chain edges, each labelled with the chain of both its endpoints
    from unimodal_chains.posets import parse_composition
    from unimodal_chains.structure import decompose_all

    code, out = run(capsys, "decompose", "--n", "3", "--m", "3", "--format", "dot")
    assert code == 0
    edges = [line for line in out.splitlines() if " -> " in line]
    bold = [line for line in edges if "style=bold" in line]
    dashed = [line for line in edges if "style=dashed, color=gray" in line]
    assert (len(edges), len(bold), len(dashed)) == (30, 17, 13)
    index = decompose_all(3, 3).index
    for line in bold:
        low, high, chain = re.fullmatch(
            r'  "(\[.*\])" -> "(\[.*\])" \[chain=(\d+), style=bold\];', line).groups()
        assert index[parse_composition(low)] == index[parse_composition(high)] == int(chain)


def test_decompose_lengths_reproduce_gaussian(capsys):
    code, out = run(capsys, "decompose", "--n", "3", "--m", "3", "--format", "json")
    data = json.loads(out)
    hist = [0] * 10
    for cd in data["classes"]:
        for ch in cd["chains"]:
            top_rank = sum(i * a for i, a in enumerate(ch["top"]))
            for t in range(len(ch["colors"]) + 1):
                hist[top_rank + t] += 1
    assert tuple(hist) == gaussian(3, 3)


def test_decompose_text(capsys):
    code, out = run(capsys, "decompose", "--n", "2", "--m", "2")
    assert "2 chains" in out


def test_verify_single_pair_exit_zero(capsys):
    assert main(["verify", "--n", "2", "--m", "2"]) == 0
    assert main(["verify", "--n", "0", "--m", "0"]) == 0


def test_verify_needs_both_n_and_m(capsys):
    # one of the two must not fall through to the full sweep
    assert main(["verify", "--n", "5"]) == 2
    assert main(["verify", "--m", "5", "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("usage error: verify takes both --n and --m") == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["--max-dim", "-1"],
        ["--max-size", "0"],
        ["--jobs", "0"],
        ["--jobs", "-3"],
        ["--n", "2", "--m", "2", "--jobs", "0"],
    ],
    ids=["max-dim-negative", "max-size-zero", "jobs-zero", "jobs-negative",
         "one-pair-jobs-zero"],
)
def test_verify_arguments_that_select_nothing(capsys, argv):
    # each would otherwise print nothing or run serially, and exit 0
    assert main(["verify", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "usage error:" in captured.err


def test_verify_reads_its_worker_count_from_the_flag_alone(capsys, monkeypatch):
    # the environment variable is the acceptance fixture's knob, not the CLI's
    monkeypatch.setenv("UNIMODAL_CHAINS_JOBS", "abc")
    assert main(["verify", "--n", "2", "--m", "2"]) == 0
    golden = Path(__file__).parent / "data" / "verify_n2_m2.txt"
    assert capsys.readouterr().out == golden.read_text()


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["classes", "--n", "-1", "--m", "2"], "--n -1"),
        (["verify", "--n", "-1", "--m", "2"], "--n -1"),
        (["classes", "--n", "2", "--m", "-1"], "--m -1"),
        (["decompose", "--n", "3", "--m", "-2"], "--m -2"),
        (["gaussian", "--m", "-1", "--n", "2"], "--m -1"),
        (["signature", "[1,0]", "--as-partition", "--n", "-1"], "--n -1"),
    ],
    ids=["classes-n", "verify-n", "classes-m", "decompose-m", "gaussian-m",
         "signature-n"],
)
def test_negative_n_or_m_names_the_flag(capsys, argv, flag):
    assert main(argv) == 2
    captured = capsys.readouterr()
    name, value = flag.split()
    assert captured.out == ""
    assert captured.err == f"usage error: {name} must be >= 0, got {value}\n"


def test_verify_failure_names_reproducing_commands(capsys, monkeypatch):
    # a closed form off by one on every element of n = 3 fails that check
    # on each poset (3, m) of the sweep, and nothing else fails
    real = oracle.first_coordinate_closed_form
    monkeypatch.setattr(oracle, "first_coordinate_closed_form",
                        lambda a: real(a) + (len(a) == 4))
    assert main(["verify", "--max-size", "300", "--max-dim", "5"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["FAILED checks: first_coordinate_closed_form"] + [
        f"unimodal-chains verify --n 3 --m {m}" for m in range(6)
    ]
    assert main(lines[-1].split()[1:]) == 1


def test_verify_json_format(capsys):
    code, out = run(capsys, "verify", "--n", "2", "--m", "2", "--format", "json")
    reports = json.loads(out)
    assert code == 0
    assert {r["scope"] for r in reports} == {"statistics", "chains", "structure"}


@pytest.mark.parametrize(
    "n,name",
    [("5", "projection-order"), ("2", "degree-formula")],
    ids=["projection-order", "degree-formula"],
)
def test_verify_waiver_withdrawal(capsys, n, name):
    # (5,5) carries both documented censuses and (2,2) the degree-formula
    # one; they are facts, waived by the oracle alone, so verify passes and
    # the old switches that withdrew the waiver are unknown arguments
    assert main(["verify", "--n", n, "--m", n]) == 0
    capsys.readouterr()
    for flag in (f"--no-waive-{name}", f"--waive-{name}"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--n", n, "--m", n, flag])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {flag}" in captured.err


def test_gaussian_command(capsys):
    code, out = run(capsys, "gaussian", "--m", "2", "--n", "2")
    assert code == 0 and out.strip() == "1,1,2,1,1 symmetric unimodal"
    code, out = run(capsys, "gaussian", "--m", "5", "--n", "0")
    assert out.strip() == "1 symmetric unimodal"
    code, out = run(capsys, "gaussian", "--m", "4", "--n", "4")
    assert out.startswith("1,1,2,3,5") and "symmetric unimodal" in out


def test_gaussian_resource_guard(capsys):
    assert main(["gaussian", "--m", "100000", "--n", "100000"]) == 3


@pytest.mark.parametrize("command", ["classes", "decompose", "verify"])
def test_poset_size_guard(capsys, command):
    # C(60, 30) elements: refused before any of them is enumerated
    start = time.perf_counter()
    code = main([command, "--n", "30", "--m", "30"])
    assert code == 3 and time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "MAX_POSET_SIZE" in err and "Traceback" not in err


def _cap_address_space():
    import resource

    cap = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def _run_capped(*argv, timeout):
    """The CLI in a fresh interpreter under a 1 GiB address-space cap, so a
    broken guard ends in a MemoryError instead of taking the whole machine."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.run(
        [sys.executable, "-m", "unimodal_chains.cli", *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=timeout, preexec_fn=_cap_address_space,
    )


def test_poset_entries_guard():
    # 998,991 elements pass MAX_POSET_SIZE, but of 1,413 entries each
    start = time.perf_counter()
    proc = _run_capped("classes", "--n", "1412", "--m", "2", timeout=60)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 3, proc.stderr
    assert "MAX_POSET_SIZE" in proc.stderr and "Traceback" not in proc.stderr
    assert elapsed < 1.0


@pytest.mark.parametrize(
    "argv",
    [
        ("classes", "--n", "10", "--m", "400"),
        ("decompose", "--n", "10", "--m", "200"),
        ("verify", "--n", "10", "--m", "200"),
    ],
    ids=["classes-400", "decompose-200", "verify-200"],
)
def test_poset_size_guard_runs_before_any_signature_is_listed(argv):
    # (10, 200) has 36,976,937,738,226,486 elements and 4,775,383
    # signatures: listing them takes seconds and most of a GiB, and at
    # (10, 400) more than the cap, so the guard must come first
    start = time.perf_counter()
    proc = _run_capped(*argv, timeout=60)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 3, proc.stderr
    assert "MAX_POSET_SIZE" in proc.stderr and "Traceback" not in proc.stderr
    assert elapsed < 1.0


def test_order_matrix_guard_refuses_before_the_scopes():
    # a class of (300, 2) has fibers of 44,850 elements; the refusal comes
    # after classifying, before the statistics scope
    proc = _run_capped("verify", "--n", "300", "--m", "2", timeout=30)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == ("resource guard: order matrix of 44850 rows exceeds "
                           "MAX_ORDER_MATRIX_ROWS=16384\n")
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("gaussian", "--m", "1", "--n", "498"),
        ("gaussian", "--m", "2000", "--n", "10"),
        ("signature", "[" + ",".join(map(str, range(1, 1001))) + "]"),
    ],
    ids=["gaussian-1-498", "gaussian-2000-10", "signature-1000"],
)
def test_deep_recursion_is_a_resource_guard(argv):
    # these inputs recurse past Python's frame limit: exit 3 with one
    # line on stderr, not a traceback
    proc = _run_capped(*argv, timeout=60)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("resource guard: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("command", ["classes", "decompose"])
def test_long_thin_poset(command):
    # 2,001 elements with 1,001-entry signatures: the signature list must
    # not be built by a recursion one level deep per entry
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "unimodal_chains.cli", command, "--n", "2000", "--m", "1"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout.strip()


@pytest.mark.parametrize(
    "argv",
    [["classes", "--n", "5", "--m", "5"], ["gaussian", "--m", "2", "--n", "2"]],
    ids=["classes", "gaussian"],
)
def test_stdout_closed_by_the_reader(argv):
    # the read end is closed before the command writes anything
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "unimodal_chains.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr


def test_output_determinism(capsys):
    _, out1 = run(capsys, "decompose", "--n", "4", "--m", "3", "--format", "json")
    _, out2 = run(capsys, "decompose", "--n", "4", "--m", "3", "--format", "json")
    assert out1 == out2
    _, v1 = run(capsys, "verify", "--n", "3", "--m", "3", "--format", "json")
    _, v2 = run(capsys, "verify", "--n", "3", "--m", "3", "--format", "json")
    assert v1 == v2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["unknown-command"])
    assert exc.value.code == 2


def test_main_builds_its_parser_once(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    build_parser.cache_clear()
    assert main(["gaussian", "--m", "2", "--n", "2"]) == 0
    first_call = len(built)
    assert main(["gaussian", "--m", "2", "--n", "2"]) == 0
    assert main(["signature", "[1,0,1]"]) == 0
    assert built.count("unimodal-chains") == 1 and len(built) == first_call
    assert build_parser.cache_info().misses == 1


def test_no_flag_carries_over_between_calls(capsys):
    # the shared parser fills a fresh namespace from the defaults each call
    assert main(["signature", "[0,1,1,3]", "--as-partition", "--n", "3"]) == 0
    assert main(["signature", "[0,1,1,3]", "--as-partition"]) == 2
    capsys.readouterr()
    code, out = run(capsys, "verify", "--n", "2", "--m", "2", "--format", "json")
    assert code == 0 and out.startswith("[{")
    code, out = run(capsys, "verify", "--n", "2", "--m", "2")
    assert code == 0 and out.startswith("[statistics] n=2 m=2\n")
    code, out = run(capsys, "signature", "[1,0,1]", "--format", "json")
    assert code == 0 and json.loads(out)["signature"] == "(0,1)"
    code, out = run(capsys, "signature", "[1,0,1]")
    assert code == 0 and out.splitlines()[0] == "element: [1,0,1]"


def test_parse_error_after_the_parser_was_used(capsys):
    assert main(["gaussian", "--m", "2", "--n", "2"]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["gaussian", "--m", "two", "--n", "2"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out = run(capsys, "gaussian", "--m", "2", "--n", "2")
    assert code == 0 and out.strip() == "1,1,2,1,1 symmetric unimodal"
