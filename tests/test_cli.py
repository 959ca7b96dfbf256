import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from unimodal_chains import cli
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
    assert main(["classes", "--n", "4", "--m", "4", "--signature", "abc"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "usage error: --signature takes comma-separated integers, got 'abc'\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["--signature", "9,9,9"],
        ["--signature", "1,2", "--format", "json"],
        ["--signature", "(0,-1,2)"],
    ],
    ids=["wrong-mass", "wrong-length", "negative-entry"],
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
    "argv,env_jobs",
    [
        (["--max-dim", "-1"], None),
        (["--max-size", "0"], None),
        (["--jobs", "0"], None),
        (["--jobs", "-3"], None),
        (["--n", "2", "--m", "2", "--jobs", "0"], None),
        (["--n", "2", "--m", "2"], "0"),
        (["--jobs", "2"], "-3"),
        (["--n", "2", "--m", "2"], "abc"),
    ],
    ids=["max-dim-negative", "max-size-zero", "jobs-zero", "jobs-negative",
         "one-pair-jobs-zero", "env-jobs-zero", "env-jobs-negative",
         "env-jobs-not-a-number"],
)
def test_verify_arguments_that_select_nothing(capsys, monkeypatch, argv, env_jobs):
    # each would otherwise print nothing or run serially, and exit 0
    if env_jobs is None:
        monkeypatch.delenv("UNIMODAL_CHAINS_JOBS", raising=False)
    else:
        monkeypatch.setenv("UNIMODAL_CHAINS_JOBS", env_jobs)
    assert main(["verify", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "usage error:" in captured.err
    if env_jobs is not None:
        # the message names the variable and its value
        assert "UNIMODAL_CHAINS_JOBS" in captured.err and env_jobs in captured.err


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


def test_verify_failure_names_reproducing_commands(capsys):
    argv = ["verify", "--max-size", "300", "--max-dim", "5",
            "--no-waive-projection-order"]
    assert main(argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines[0].startswith("FAILED checks: ")
    posets = [(3, 3), (3, 5), (4, 3), (4, 5), (5, 3), (5, 4), (5, 5)]
    assert lines[1:] == [
        f"unimodal-chains verify --n {n} --m {m} --no-waive-projection-order"
        for n, m in posets
    ]
    assert main(lines[-1].split()[1:]) == 1


def test_verify_json_format(capsys):
    code, out = run(capsys, "verify", "--n", "2", "--m", "2", "--format", "json")
    reports = json.loads(out)
    assert code == 0
    assert {r["scope"] for r in reports} == {"statistics", "chains", "structure"}


@pytest.mark.parametrize(
    "n,flag,failing",
    [
        ("5", "--no-waive-projection-order",
         "projection_order_preserving, stripped_cover_preserved"),
        ("2", "--no-waive-degree-formula", "degree_formula"),
    ],
    ids=["projection-order", "degree-formula"],
)
def test_verify_waiver_withdrawal(capsys, n, flag, failing):
    # (5,5) carries both documented censuses and (2,2) the degree-formula
    # one; withdrawing a waiver must flip the exit code
    assert main(["verify", "--n", n, "--m", n]) == 0
    capsys.readouterr()
    assert main(["verify", "--n", n, "--m", n, flag]) == 1
    assert capsys.readouterr().err == (
        f"FAILED checks: {failing}\nunimodal-chains verify --n {n} --m {n} {flag}\n"
    )


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


def test_poset_entries_guard():
    # 998,991 elements pass MAX_POSET_SIZE, but of 1,413 entries each;
    # under a 1 GiB address-space cap a broken guard ends in a MemoryError
    # instead of taking the memory of the whole machine
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "unimodal_chains.cli", "classes", "--n", "1412", "--m", "2"],
        capture_output=True, text=True, env=env, timeout=60,
        preexec_fn=_cap_address_space,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 3, proc.stderr
    assert "MAX_POSET_SIZE" in proc.stderr and "Traceback" not in proc.stderr
    assert elapsed < 1.0


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
    assert main(["verify", "--n", "5", "--m", "5", "--no-waive-projection-order"]) == 1
    assert main(["verify", "--n", "5", "--m", "5"]) == 0
    capsys.readouterr()
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
