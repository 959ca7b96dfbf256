"""Command-line surface: statistics, class listings, decomposition, verification.

Exit codes: 0 success, 1 verification failure or stdout closed early (as
Python itself exits on a broken pipe), 2 usage error, 3 resource guard.
All output is deterministic for identical invocations.  ``main`` may be
called repeatedly in one process: the parser is built on the first call
and shared, and every call starts from the defaults.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .posets import (
    InconsistencyError,
    ResourceGuardError,
    count_compositions,
    enumerate_compositions,
    format_composition,
    parse_composition,
    rank,
    to_counts,
    upper_covers,
    weight,
)
from .qpoly import format_coefficients, gaussian, is_symmetric, is_unimodal
from .statistics import (
    chain_length,
    degree,
    highest_weight,
    maximal_structure,
    remove_maximal_pairs,
    signature,
    signature_classes,
    signature_mass,
)
from .structure import decompose_all, decomposition_to_dict
from .oracle import DEFAULT_WAIVED, SPLIT_DEFECT_CHECKS, run_pair, run_sweep, sweep_pairs

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _format_signature(d) -> str:
    return "(" + ",".join(str(x) for x in d) + ")"


def _parse_signature(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.strip("() ").split(",") if tok.strip())
    except ValueError:
        raise ValueError(f"--signature takes comma-separated integers, "
                         f"got {text!r}") from None


def _element_from_args(args) -> tuple[int, ...]:
    entries = parse_composition(args.element)
    if args.as_partition:
        if args.n is None:
            raise ValueError("--as-partition requires --n for the part bound")
        return to_counts(entries, args.n)
    return entries


def cmd_signature(args) -> int:
    comp = _element_from_args(args)
    ms = maximal_structure(comp)
    payload = {
        "element": format_composition(comp),
        "spread": ms.spread,
        "degree": degree(comp),
        "maximal_indices": list(ms.mset),
        "active_indices": list(ms.active),
        "removal_image": format_composition(remove_maximal_pairs(comp)),
        "signature": _format_signature(signature(comp)),
        "rank": rank(comp),
        "weight": weight(comp),
    }
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for key in (
            "element", "spread", "degree", "maximal_indices", "active_indices",
            "removal_image", "signature", "rank", "weight",
        ):
            print(f"{key}: {payload[key]}")
    return EXIT_OK


def cmd_classes(args) -> int:
    if args.signature:
        # checked before classifying: these rules admit exactly the class keys
        wanted = _parse_signature(args.signature)
        if (len(wanted) != args.n // 2 + 1 or any(dj < 0 for dj in wanted)
                or signature_mass(wanted) != args.m):
            raise ValueError(
                f"--signature {args.signature!r} matches no class of "
                f"n={args.n}, m={args.m}: it needs n//2 + 1 = {args.n // 2 + 1} "
                f"nonnegative entries d_j of mass sum((j+1)*d_j) = {args.m}"
            )
        classes = {wanted: signature_classes(args.n, args.m)[wanted]}
    else:
        classes = signature_classes(args.n, args.m)
    rows = []
    for d, cls in classes.items():
        r = None
        h = None
        flagged = False
        if cls:
            r = degree(cls[0])
            try:
                h = highest_weight(args.n, d)
            except InconsistencyError:
                h = min(cls, key=rank)
                flagged = True
        rows.append(
            {
                "signature": _format_signature(d),
                "size": len(cls),
                "r": r,
                "ell": chain_length(args.n, d),
                "highest_weight": format_composition(h) if h else None,
                "boundary_flagged": flagged,
            }
        )
    if args.format == "json":
        print(json.dumps(rows, sort_keys=True))
    else:
        print(f"signature classes of n={args.n}, m={args.m} "
              f"({count_compositions(args.n, args.m)} elements)")
        for row in rows:
            flag = "  [boundary]" if row["boundary_flagged"] else ""
            print(
                f"  {row['signature']:>14}  size={row['size']:<7} r={row['r']}"
                f"  ell={row['ell']:<4} top={row['highest_weight']}{flag}"
            )
    return EXIT_OK


def _dot_output(dec) -> str:
    lines = [f"digraph poset_{dec.n}_{dec.m} {{", "  rankdir=BT;",
             '  node [shape=box, fontname="monospace"];']
    elements = list(enumerate_compositions(dec.n, dec.m))
    for e in elements:
        name = format_composition(e)
        lines.append(f'  "{name}" [label="{name}\\nwt={weight(e)}"];')
    for e in elements:
        for _, up in upper_covers(e):
            a, b = format_composition(e), format_composition(up)
            if dec.index.get(e) == dec.index.get(up):
                lines.append(
                    f'  "{a}" -> "{b}" [chain={dec.index[e]}, style=bold];'
                )
            else:
                lines.append(f'  "{a}" -> "{b}" [style=dashed, color=gray];')
    lines.append("}")
    return "\n".join(lines)


def cmd_decompose(args) -> int:
    dec = decompose_all(args.n, args.m)
    if args.format == "json":
        print(json.dumps(decomposition_to_dict(dec), sort_keys=True))
    elif args.format == "dot":
        print(_dot_output(dec))
    else:
        total = sum(len(cd.chains) for cd in dec.classes)
        print(f"decomposition of n={args.n}, m={args.m}: {total} chains")
        for cd in dec.classes:
            lengths = sorted((ch.length for ch in cd.chains), reverse=True)
            print(
                f"  class {_format_signature(cd.signature)}: r={cd.r} "
                f"ell={cd.ell} chains={len(cd.chains)} lengths={lengths}"
            )
    return EXIT_OK


def cmd_verify(args) -> int:
    waived = set(DEFAULT_WAIVED)
    withdrawn = []  # the --no-waive-* flags, repeated in reproducing commands
    if not args.waive_degree_formula:
        waived.discard("degree_formula")
        withdrawn.append("--no-waive-degree-formula")
    if not args.waive_projection_order:
        waived.difference_update(SPLIT_DEFECT_CHECKS)
        withdrawn.append("--no-waive-projection-order")
    waived = frozenset(waived)
    jobs = args.jobs
    env_jobs = os.environ.get("UNIMODAL_CHAINS_JOBS")
    if env_jobs:
        try:
            jobs = int(env_jobs)
        except ValueError:
            raise ValueError(f"UNIMODAL_CHAINS_JOBS must be an integer, "
                             f"got {env_jobs!r}") from None
    if jobs < 1:
        raise ValueError(f"verify needs at least one worker, got {jobs} "
                         "(--jobs or UNIMODAL_CHAINS_JOBS)")
    if (args.n is None) != (args.m is None):
        raise ValueError("verify takes both --n and --m, or neither for a sweep")
    if args.n is not None:
        reports = run_pair(args.n, args.m)
    elif not sweep_pairs(args.max_size, args.max_dim):
        raise ValueError(f"--max-size {args.max_size} and --max-dim "
                         f"{args.max_dim} select no poset")
    else:
        reports = run_sweep(max_size=args.max_size, max_dim=args.max_dim, jobs=jobs)
    if args.format == "json":
        print(json.dumps([r.to_dict() for r in reports], sort_keys=True))
    else:
        for r in reports:
            print(r.to_text(waived))
    ok = all(r.passed(waived) for r in reports)
    if not ok:
        failing = sorted(
            {name for r in reports for name in r.failed_names(waived)}
        )
        print(f"FAILED checks: {', '.join(failing)}", file=sys.stderr)
        for n, m in sorted({(r.n, r.m) for r in reports if not r.passed(waived)}):
            print(f"unimodal-chains verify --n {n} --m {m}", *withdrawn,
                  file=sys.stderr)
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_gaussian(args) -> int:
    coeffs = gaussian(args.m, args.n)
    flags = []
    flags.append("symmetric" if is_symmetric(coeffs) else "asymmetric")
    flags.append("unimodal" if is_unimodal(coeffs) else "not-unimodal")
    print(f"{format_coefficients(coeffs)} {' '.join(flags)}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    ``main`` call; callers must not mutate it.  ``parse_args`` fills a fresh
    namespace on each call, so no flag carries over between calls."""
    parser = argparse.ArgumentParser(
        prog="unimodal-chains",
        description="Signature statistics and chain decompositions of Young's lattice",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sig = sub.add_parser("signature", help="statistics of one element")
    p_sig.add_argument("element", help='composition "[a_0,...,a_n]"')
    p_sig.add_argument("--as-partition", action="store_true",
                       help="treat the element as partition parts")
    p_sig.add_argument("--n", type=int, help="part bound for --as-partition")
    p_sig.add_argument("--format", choices=("text", "json"), default="text")
    p_sig.set_defaults(func=cmd_signature)

    p_cls = sub.add_parser("classes", help="signature classes of one poset")
    p_cls.add_argument("--n", type=int, required=True)
    p_cls.add_argument("--m", type=int, required=True)
    p_cls.add_argument("--signature", help='filter, e.g. "0,1,1"')
    p_cls.add_argument("--format", choices=("text", "json"), default="text")
    p_cls.set_defaults(func=cmd_classes)

    p_dec = sub.add_parser("decompose", help="chain decomposition of one poset")
    p_dec.add_argument("--n", type=int, required=True)
    p_dec.add_argument("--m", type=int, required=True)
    p_dec.add_argument("--format", choices=("text", "json", "dot"), default="text")
    p_dec.set_defaults(func=cmd_decompose)

    p_ver = sub.add_parser("verify", help="run the brute-force verification suite")
    p_ver.add_argument("--n", type=int)
    p_ver.add_argument("--m", type=int)
    p_ver.add_argument("--max-size", type=int, default=200_000,
                       help="sweep cap on the poset size C(m+n, n)")
    p_ver.add_argument("--max-dim", type=int, default=12,
                       help="sweep cap on each of m and n")
    p_ver.add_argument("--jobs", type=int, default=1,
                       help="parallel workers (UNIMODAL_CHAINS_JOBS overrides)")
    p_ver.add_argument("--format", choices=("text", "json"), default="text")
    p_ver.add_argument("--waive-degree-formula", action=argparse.BooleanOptionalAction,
                       default=True,
                       help="do not fail on the documented degree-formula census")
    p_ver.add_argument("--waive-projection-order",
                       action=argparse.BooleanOptionalAction, default=True,
                       help="do not fail on the documented projection-order census")
    p_ver.set_defaults(func=cmd_verify)

    p_gau = sub.add_parser("gaussian", help="exact Gaussian binomial coefficients")
    p_gau.add_argument("--m", type=int, required=True)
    p_gau.add_argument("--n", type=int, required=True)
    p_gau.set_defaults(func=cmd_gaussian)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for flag in ("n", "m"):  # one message for every command's --n and --m
            if (value := getattr(args, flag, None)) is not None and value < 0:
                raise ValueError(f"--{flag} must be >= 0, got {value}")
        code = args.func(args)
        # flush here so a reader that closed stdout early is caught below
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull so the flush at exit
        # raises nothing more, and exit 1 as Python does on a broken pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_VERIFY
    except ResourceGuardError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except InconsistencyError as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
