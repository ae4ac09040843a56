"""Command-line entry point.

Every subcommand consumes and emits the JSON formats documented in
cubespec.serialize, with sorted keys, so identical inputs and flags give
byte-identical output.  Exit codes: 0 success, 1 contract violation
(with an error object on stderr), 2 verification mismatch.

Each subcommand is declared once, in COMMANDS.  Its handler maps the parsed
arguments and the decoded input to the output and does no I/O; main alone
reads the input, writes the output and picks the exit code.  A ValueError
(usage errors included) is the contract error, an OSError the io error; a
failed check raises VerificationError, whose output is written first.
Input JSON too deeply nested to decode is a contract error too.
Library functions are called as module attributes, looked up at call time,
so a tracer that rebinds them also sees the calls made from here.

build_parser is cached: main builds the parser on its first call, and every
later call in the process reuses it.  That is safe because parse_args
returns a fresh namespace each time, every default is immutable, and help
and usage text look up sys.stdout and sys.stderr when they print.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Callable, NamedTuple

from . import constructions, functions, search, serialize, spectral, trades

EXIT_OK = 0
EXIT_CONTRACT = 1
EXIT_MISMATCH = 2


class VerificationError(Exception):
    """A check failed; main writes ``output``, then the error, and exits 2."""

    def __init__(self, message: str, output, **extra):
        super().__init__(message)
        self.output = output
        self.extra = extra


class Command(NamedTuple):
    name: str
    help: str
    decode: Callable | None  # JSON document -> handler data; None reads no input
    args: tuple  # (flags, add_argument keywords) pairs
    run: Callable  # (args, data) -> JSON-ready output, or text


def _arg(*flags, **kwargs):
    return flags, kwargs


def _int(text: str) -> int:
    """The one int grammar of every flag and level: -?[0-9]+, a JSON rational's numerator."""
    if functions._INT_RE.fullmatch(text) is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _int_list(text: str) -> list[int]:
    return [_int(part) for part in text.split(",")] if text else []


_N, _I, _J = (_arg(f"--{name}", type=_int, required=True) for name in "nij")
_BAND = (_N, _I, _J)
_TIMING = _arg("--timing", action="store_true", help="include elapsed seconds in the report")
_PATHS = _arg("paths", nargs=2, metavar="PATH", help="two function files, '-' for stdin")
_INPUT = (
    _arg("--input", default="-", help="input path, '-' for stdin"),
    _arg("--inline", help="inline JSON instead of a path"),
)
_OUTPUT = _arg("--output", default="-", help="output path, '-' for stdout")
_UNSAFE = _arg("--unsafe-n", action="store_true", help="allow n beyond the exhaustive limit")


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
    except RecursionError:
        raise ValueError("invalid JSON input: nesting too deep") from None


def _function(doc):
    return serialize.function_from_dict(doc)


def _vertex_set(doc):
    n, vertices = serialize.fields(doc, n=int, vertices=list)
    return serialize.vertex_set_from_list(vertices, n), n


def cmd_build_optimal(args, _):
    bps = constructions.enumerate_blueprints(args.n, args.i, args.j)
    functions._check_int("index", args.index, 0, len(bps) - 1)
    return serialize.function_to_dict(constructions.build(bps[args.index]))


def cmd_enumerate(args, _):
    return [
        dict(serialize.blueprint_to_dict(bp), support_size=bp.support_size,
             spectrum=list(constructions.blueprint_spectrum(bp).sorted_levels))
        for bp in constructions.enumerate_blueprints(args.n, args.i, args.j)
    ]


def cmd_detect_affine(args, vertex_set):
    sub = trades.detect_affine(*vertex_set)
    if sub is None:
        return {"affine": False}
    return dict(serialize.affine_subspace_to_dict(sub), affine=True,
                disjoint_support_basis=trades.has_disjoint_support_basis(sub))


def cmd_min_support(args, _):
    if args.exact_spectrum is None:
        if args.i is None or args.j is None:
            raise ValueError("min-support needs --i and --j unless --exact-spectrum is given")
        report = search.min_support(args.n, args.i, args.j, unsafe=args.unsafe_n)
    elif args.i is not None or args.j is not None:
        raise ValueError("min-support takes either --i and --j or --exact-spectrum, not both")
    else:
        report = search.min_support_exact_spectrum(args.n, args.exact_spectrum, unsafe=args.unsafe_n)
    return serialize.search_report_to_dict(report, with_timing=args.timing)


def cmd_verify_classification(args, _):
    report = search.verify_classification(args.n, args.i, args.j, extended=args.unsafe_n)
    out = serialize.search_report_to_dict(report, with_timing=args.timing)
    if not report.ok:
        raise VerificationError("classification mismatch", out, notes=list(report.notes))
    return out


def cmd_demo(args, _):
    lines = []

    def check(name: str, got, expect) -> None:
        lines.append(f"{'PASS' if got == expect else 'FAIL'}  {name}: got {got}, expected {expect}")

    bps = constructions.enumerate_blueprints(4, 2, 3)
    check("optimal classes for n=4 band [2,3]", len(bps), 2)
    check(
        "their partitions",
        [(bp.odd_parts, bp.even_parts, bp.remainder) for bp in bps],
        [((), (2, 2), 0), ((1,), (2,), 1)],
    )
    bps = constructions.enumerate_blueprints(3, 0, 2)
    check("optimal classes for n=3 band [0,2]", len(bps), 3)

    for n in range(1, 5):
        for report in search.min_support_all(n):
            i, j = report.i, report.j
            check(f"support minimum for n={n} band [{i},{j}]", report.min_support, max(1 << i, 1 << (n - j)))

    f = functions.tensor(constructions.phi(2), constructions.phi(2))
    tp = trades.sign_split(f)
    check("sign split of the 4-dim double pair is a [1]-trade", trades.is_trade(tp, 1), True)
    indicator = serialize.function_from_dict(
        {"n": 4, "values": ["1" if v else "0" for v in f.values]}
    )
    check("support indicator degree", trades.anf_degree(indicator), 2)
    sub = trades.detect_affine(functions.support(f), 4)
    check("support is an affine subspace of dimension", sub.dimension if sub else None, 2)
    if sub is not None:
        check("its basis has disjoint supports", trades.has_disjoint_support_basis(sub), True)
        split = trades.split_subspace(sub)
        check(
            "parity split reproduces the sign split",
            sorted(sorted(part) for part in (split.t0, split.t1)),
            sorted(sorted(part) for part in (tp.t0, tp.t1)),
        )
    twisted = functions.parity_twist(f)
    check("parity twist keeps the double pair's class", search.equivalent(f, twisted), True)

    text = "".join(line + "\n" for line in lines)
    failures = sum(line.startswith("FAIL") for line in lines)
    if failures:
        raise VerificationError(f"{failures} demo checks failed", text)
    return text


COMMANDS = (
    Command("build-optimal", "build one optimal function for a band", None, _BAND + (
        _arg("--index", type=_int, default=0, help="blueprint index from `enumerate`"),
    ), cmd_build_optimal),
    Command("enumerate", "list the blueprints of optimal functions", None, _BAND, cmd_enumerate),
    Command("spectrum", "levels with nonzero Fourier coefficient", _function, (),
            lambda args, f: serialize.spectrum_to_dict(spectral.spectrum(f))),
    Command("project", "component in one eigenvalue level", _function, (
        _arg("--level", type=_int, required=True),
    ), lambda args, f: serialize.function_to_dict(spectral.level_project(f, args.level))),
    Command("in-band", "test membership in a band of levels", _function, (_I, _J),
            lambda args, f: {"i": args.i, "in_band": spectral.in_band(f, args.i, args.j),
                             "j": args.j}),
    Command("eigen-check", "test the adjacency eigenvalue relation directly", _function, (
        _arg("--lambda", dest="lam", type=_int, required=True),
    ), lambda args, f: {"holds": spectral.check_eigen_relation(f, args.lam), "lambda": args.lam}),
    Command("verify-trade", "balance test over all faces of codimension t",
            lambda doc: serialize.trade_pair_from_dict(doc), (
                _arg("--t", type=_int, required=True),
            ), lambda args, tp: {"is_trade": trades.is_trade(tp, args.t), "t": args.t}),
    Command("anf-degree", "algebraic degree of a 0/1 indicator", _function, (),
            lambda args, f: {"degree": trades.anf_degree(f)}),
    Command("detect-affine", "recognize a vertex set as an affine subspace", _vertex_set, (),
            cmd_detect_affine),
    Command("split-subspace", "split a subspace into a trade by parity",
            lambda doc: serialize.affine_subspace_from_dict(doc), (),
            lambda args, sub: dict(serialize.trade_pair_to_dict(trades.split_subspace(sub)),
                                   t=sub.dimension - 1)),
    Command("min-support", "exhaustive minimum-support search", None, (
        _N,
        _arg("--i", type=_int),
        _arg("--j", type=_int),
        _arg("--exact-spectrum", type=_int_list, help="comma-separated levels, e.g. 0,3"),
        _UNSAFE,
        _TIMING,
    ), cmd_min_support),
    Command("canonical", "class representative under automorphisms and scaling", _function, (),
            lambda args, f: serialize.function_to_dict(search.canonical_form(f))),
    Command("equivalent", "test equivalence of two functions", _function, (_PATHS,),
            lambda args, fg: {"equivalent": search.equivalent(*fg)}),
    Command("verify-classification", "match search classes against blueprints", None,
            _BAND + (_UNSAFE, _TIMING), cmd_verify_classification),
    Command("demo", "re-derive the desk-scale checks end to end", None, (), cmd_demo),
)


def _error(message: str, *, kind: str, **extra) -> None:
    payload = {"error": message, "kind": kind}
    payload.update(extra)
    sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as ValueError, so they give the contract error."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cubespec",
        description="Exact spectral analysis and minimum-support search on the hypercube.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in COMMANDS:
        p = sub.add_parser(cmd.name, help=cmd.help)
        inputs = _INPUT if cmd.decode and _PATHS not in cmd.args else ()
        for flags, kwargs in cmd.args + inputs + (_OUTPUT,):
            p.add_argument(*flags, **kwargs)
        p.set_defaults(cmd=cmd)
    return parser


def _decode(cmd: Command, args):
    if cmd.decode is None:
        return None
    if _PATHS in cmd.args:
        return [cmd.decode(_read_json(path)) for path in args.paths]
    return cmd.decode(_read_json(args.input, args.inline))


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        failure = None
        try:
            output = args.cmd.run(args, _decode(args.cmd, args))
        except VerificationError as exc:
            output, failure = exc.output, exc
        text = output if isinstance(output, str) else serialize.dumps(output)
        if args.output == "-":
            sys.stdout.write(text)
        else:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        if failure is not None:
            _error(str(failure), kind="verification", **failure.extra)
            return EXIT_MISMATCH
        return EXIT_OK
    except search.LimitError as exc:  # name the flag, not the library keyword
        _error(exc.template.format("--unsafe-n"), kind="contract")
        return EXIT_CONTRACT
    except ValueError as exc:
        _error(str(exc), kind="contract")
        return EXIT_CONTRACT
    except OSError as exc:
        _error(str(exc), kind="io")
        return EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())
