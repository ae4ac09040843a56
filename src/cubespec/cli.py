"""Command-line entry point.

Every subcommand consumes and emits the JSON formats documented in
cubespec.serialize, with sorted keys, so identical inputs and flags give
byte-identical output.  Exit codes: 0 success, 1 contract violation
(with an error object on stderr), 2 verification mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import serialize
from .constructions import (
    blueprint_spectrum,
    build,
    enumerate_blueprints,
    phi,
)
from .functions import parity_twist, support, tensor
from .search import (
    canonical_form,
    equivalent,
    min_support,
    min_support_exact_spectrum,
    verify_classification,
)
from .spectral import check_eigen_relation, in_band, level_project, spectrum
from .trades import (
    anf_degree,
    detect_affine,
    has_disjoint_support_basis,
    is_trade,
    sign_split,
    split_subspace,
)

EXIT_OK = 0
EXIT_CONTRACT = 1
EXIT_MISMATCH = 2


def _default_jobs() -> int:
    try:
        return max(1, int(os.environ.get("CUBESPEC_JOBS", "1")))
    except ValueError:
        return 1


def _add_io(sub, inputs=1):
    if inputs == 1:
        sub.add_argument("--input", default="-", help="input path, '-' for stdin")
        sub.add_argument("--inline", help="inline JSON instead of a path")
    sub.add_argument("--output", default="-", help="output path, '-' for stdout")


def _add_band(sub):
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--i", type=int, required=True)
    sub.add_argument("--j", type=int, required=True)


def _read_json(path: str, inline: str | None = None):
    """Parse inline JSON if given, else the file at path ('-' for stdin)."""
    if inline is not None:
        text = inline
    elif path == "-":
        text = sys.stdin.read()
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON input: {exc}") from None


def _write(args, text: str) -> None:
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit(args, payload) -> None:
    _write(args, serialize.dumps(payload))


def _read_function(args):
    return serialize.function_from_dict(_read_json(args.input, args.inline))


def _parse_levels(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ValueError(f"bad level list {text!r}; expected comma-separated integers") from None


def cmd_build_optimal(args) -> int:
    bps = enumerate_blueprints(args.n, args.i, args.j)
    if not 0 <= args.index < len(bps):
        raise ValueError(f"index {args.index} out of range; {len(bps)} blueprints exist")
    _emit(args, serialize.function_to_dict(build(bps[args.index])))
    return EXIT_OK


def cmd_enumerate(args) -> int:
    entries = []
    for bp in enumerate_blueprints(args.n, args.i, args.j):
        entry = serialize.blueprint_to_dict(bp)
        entry["spectrum"] = list(blueprint_spectrum(bp).sorted_levels)
        entry["support_size"] = bp.support_size
        entries.append(entry)
    _emit(args, entries)
    return EXIT_OK


def cmd_spectrum(args) -> int:
    _emit(args, serialize.spectrum_to_dict(spectrum(_read_function(args))))
    return EXIT_OK


def cmd_project(args) -> int:
    _emit(args, serialize.function_to_dict(level_project(_read_function(args), args.level)))
    return EXIT_OK


def cmd_in_band(args) -> int:
    f = _read_function(args)
    _emit(args, {"i": args.i, "in_band": in_band(f, args.i, args.j), "j": args.j})
    return EXIT_OK


def cmd_eigen_check(args) -> int:
    f = _read_function(args)
    _emit(args, {"holds": check_eigen_relation(f, args.lam), "lambda": args.lam})
    return EXIT_OK


def cmd_verify_trade(args) -> int:
    tp = serialize.trade_pair_from_dict(_read_json(args.input, args.inline))
    _emit(args, {"is_trade": is_trade(tp, args.t), "t": args.t})
    return EXIT_OK


def cmd_anf_degree(args) -> int:
    _emit(args, {"degree": anf_degree(_read_function(args))})
    return EXIT_OK


def cmd_detect_affine(args) -> int:
    n, vertices = serialize.fields(_read_json(args.input, args.inline), n=int, vertices=list)
    sub = detect_affine(serialize.vertex_set_from_list(vertices, n), n)
    if sub is None:
        _emit(args, {"affine": False})
    else:
        out = serialize.affine_subspace_to_dict(sub)
        out["affine"] = True
        out["disjoint_support_basis"] = has_disjoint_support_basis(sub)
        _emit(args, out)
    return EXIT_OK


def cmd_split_subspace(args) -> int:
    sub = serialize.affine_subspace_from_dict(_read_json(args.input, args.inline))
    tp = split_subspace(sub)
    out = serialize.trade_pair_to_dict(tp)
    out["t"] = sub.dimension - 1
    _emit(args, out)
    return EXIT_OK


def cmd_min_support(args) -> int:
    if args.exact_spectrum is not None:
        report = min_support_exact_spectrum(
            args.n,
            _parse_levels(args.exact_spectrum),
            unsafe=args.unsafe_n,
        )
    else:
        if args.i is None or args.j is None:
            raise ValueError("min-support needs --i and --j unless --exact-spectrum is given")
        report = min_support(args.n, args.i, args.j, unsafe=args.unsafe_n, jobs=args.jobs)
    _emit(args, serialize.search_report_to_dict(report, with_timing=args.timing))
    return EXIT_OK


def cmd_canonical(args) -> int:
    _emit(args, serialize.function_to_dict(canonical_form(_read_function(args))))
    return EXIT_OK


def cmd_equivalent(args) -> int:
    f = serialize.function_from_dict(_read_json(args.first))
    g = serialize.function_from_dict(_read_json(args.second))
    _emit(args, {"equivalent": equivalent(f, g)})
    return EXIT_OK


def cmd_verify_classification(args) -> int:
    report = verify_classification(
        args.n, args.i, args.j, extended=args.extended_n5, jobs=args.jobs
    )
    _emit(args, serialize.search_report_to_dict(report, with_timing=args.timing))
    if not report.ok:
        _error("classification mismatch", kind="verification", notes=list(report.notes))
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_demo(args) -> int:
    lines = []
    failures = 0

    def check(name: str, got, expect) -> None:
        nonlocal failures
        ok = got == expect
        if not ok:
            failures += 1
        lines.append(f"{'PASS' if ok else 'FAIL'}  {name}: got {got}, expected {expect}")

    bps = enumerate_blueprints(4, 2, 3)
    check("optimal classes for n=4 band [2,3]", len(bps), 2)
    check(
        "their partitions",
        [(bp.odd_parts, bp.even_parts, bp.remainder) for bp in bps],
        [((), (2, 2), 0), ((1,), (2,), 1)],
    )
    bps = enumerate_blueprints(3, 0, 2)
    check("optimal classes for n=3 band [0,2]", len(bps), 3)

    for n in range(1, 5):
        for i in range(n + 1):
            for j in range(i, n + 1):
                report = min_support(n, i, j, jobs=args.jobs)
                check(
                    f"support minimum for n={n} band [{i},{j}]",
                    report.min_support,
                    max(1 << i, 1 << (n - j)),
                )

    f = tensor(phi(2), phi(2))
    tp = sign_split(f)
    check("sign split of the 4-dim double pair is a [1]-trade", is_trade(tp, 1), True)
    indicator = serialize.function_from_dict(
        {"n": 4, "values": ["1" if v != 0 else "0" for v in f.values]}
    )
    check("support indicator degree", anf_degree(indicator), 2)
    sub = detect_affine(support(f), 4)
    check("support is an affine subspace of dimension", sub.dimension if sub else None, 2)
    if sub is not None:
        check("its basis has disjoint supports", has_disjoint_support_basis(sub), True)
        split = split_subspace(sub)
        check(
            "parity split reproduces the sign split",
            sorted(sorted(part) for part in (split.t0, split.t1)),
            sorted(sorted(part) for part in (tp.t0, tp.t1)),
        )
    twisted = parity_twist(f)
    check("parity twist keeps the double pair's class", equivalent(f, twisted), True)

    _write(args, "".join(line + "\n" for line in lines))
    if failures:
        _error(f"{failures} demo checks failed", kind="verification")
        return EXIT_MISMATCH
    return EXIT_OK


def _error(message: str, *, kind: str, **extra) -> None:
    payload = {"error": message, "kind": kind}
    payload.update(extra)
    sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubespec",
        description="Exact spectral analysis and minimum-support search on the hypercube.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-optimal", help="build one optimal function for a band")
    _add_band(p)
    p.add_argument("--index", type=int, default=0, help="blueprint index from `enumerate`")
    _add_io(p, inputs=0)
    p.set_defaults(handler=cmd_build_optimal)

    p = sub.add_parser("enumerate", help="list the blueprints of optimal functions")
    _add_band(p)
    _add_io(p, inputs=0)
    p.set_defaults(handler=cmd_enumerate)

    p = sub.add_parser("spectrum", help="levels with nonzero Fourier coefficient")
    _add_io(p)
    p.set_defaults(handler=cmd_spectrum)

    p = sub.add_parser("project", help="component in one eigenvalue level")
    p.add_argument("--level", type=int, required=True)
    _add_io(p)
    p.set_defaults(handler=cmd_project)

    p = sub.add_parser("in-band", help="test membership in a band of levels")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    _add_io(p)
    p.set_defaults(handler=cmd_in_band)

    p = sub.add_parser("eigen-check", help="test the adjacency eigenvalue relation directly")
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    _add_io(p)
    p.set_defaults(handler=cmd_eigen_check)

    p = sub.add_parser("verify-trade", help="balance test over all faces of codimension t")
    p.add_argument("--t", type=int, required=True)
    _add_io(p)
    p.set_defaults(handler=cmd_verify_trade)

    p = sub.add_parser("anf-degree", help="algebraic degree of a 0/1 indicator")
    _add_io(p)
    p.set_defaults(handler=cmd_anf_degree)

    p = sub.add_parser("detect-affine", help="recognize a vertex set as an affine subspace")
    _add_io(p)
    p.set_defaults(handler=cmd_detect_affine)

    p = sub.add_parser("split-subspace", help="split a subspace into a trade by parity")
    _add_io(p)
    p.set_defaults(handler=cmd_split_subspace)

    p = sub.add_parser("min-support", help="exhaustive minimum-support search")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--i", type=int)
    p.add_argument("--j", type=int)
    p.add_argument("--exact-spectrum", help="comma-separated levels, e.g. 0,3")
    p.add_argument("--unsafe-n", action="store_true", help="allow n beyond the exhaustive limit")
    p.add_argument(
        "--jobs", type=int, default=_default_jobs(),
        help="worker processes for band scans; --exact-spectrum always runs sequentially",
    )
    p.add_argument("--timing", action="store_true", help="include elapsed seconds in the report")
    _add_io(p, inputs=0)
    p.set_defaults(handler=cmd_min_support)

    p = sub.add_parser("canonical", help="class representative under automorphisms and scaling")
    _add_io(p)
    p.set_defaults(handler=cmd_canonical)

    p = sub.add_parser("equivalent", help="test equivalence of two functions")
    p.add_argument("first", help="path to the first function, '-' for stdin")
    p.add_argument("second", help="path to the second function")
    _add_io(p, inputs=0)
    p.set_defaults(handler=cmd_equivalent)

    p = sub.add_parser("verify-classification", help="match search classes against blueprints")
    _add_band(p)
    p.add_argument("--extended-n5", action="store_true", help="allow the n=5 exhaustive run")
    p.add_argument("--jobs", type=int, default=_default_jobs())
    p.add_argument("--timing", action="store_true")
    _add_io(p, inputs=0)
    p.set_defaults(handler=cmd_verify_classification)

    p = sub.add_parser("demo", help="re-derive the desk-scale checks end to end")
    p.add_argument("--jobs", type=int, default=_default_jobs())
    _add_io(p, inputs=0)
    p.set_defaults(handler=cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:
        _error(str(exc), kind="contract")
        return EXIT_CONTRACT
    except OSError as exc:
        _error(str(exc), kind="io")
        return EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())
