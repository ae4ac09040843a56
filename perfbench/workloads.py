"""The benchmark's workloads: seeded inputs and checked operations.

Each workload builder takes the seed and a scratch directory and returns the
fixed list of operations of one pass, in seeded order.  An operation's
callable drives cubespec only through the public functions of its layers,
checks the output against a mathematical invariant (never a pinned table),
raises CheckError when the check fails, and returns the output text whose
sha256 is recorded for information.

Every call is sequential and uses the library defaults: no ``jobs``
argument is ever passed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Callable, NamedTuple

from cubespec import cli, constructions, functions, search, serialize, spectral, trades


class Op(NamedTuple):
    label: str
    run: Callable[[], str]
    bytes_in: int = 0  # JSON bytes the operation hands to the CLI as input


class CheckError(Exception):
    """An operation's output broke the invariant it is checked against."""


def check(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def band_bound(n: int, i: int, j: int) -> int:
    """The sharp support bound max(2^i, 2^(n-j)) of the band [i, j]."""
    return max(1 << i, 1 << (n - j))


def run_cli(argv: list[str]) -> tuple[int, str]:
    """cli.main with stdout captured; returns (exit code, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            raise CheckError(f"cli {argv[0]} exited: {err.getvalue().strip()}") from exc
    return code, out.getvalue()


def values_text(f) -> str:
    return repr((f.n, f.values))


def _check_witness(report, n: int, lo: int, hi: int) -> None:
    w = report.witness
    check(w is not None, "no witness")
    check(functions.support_size(w) == report.min_support, "witness support differs from minimum")
    check(spectral.in_band(w, lo, hi), f"witness not in band [{lo}, {hi}]")


# --- search-scan ----------------------------------------------------------

# The n = 5 bands whose sharp bound is at most 4: i <= 2 and j >= 3.
N5_SMALL_BANDS = [(i, j) for i in range(3) for j in range(3, 6)]

# Exact-spectrum level sets that finish in well under a second each: every
# set of at most three levels at n <= 3, and a fixed selection at n = 4, 5.
EXACT_SPECTRA = (
    [(n, lv, None) for n in (2, 3) for k in (1, 2, 3) for lv in combinations(range(n + 1), k)]
    + [(4, lv, None) for lv in ((0,), (1,), (2,), (0, 3), (1, 4), (0, 2), (1, 3), (0, 1, 4),
                                (2, 3, 4))]
    + [(5, lv, 8) for lv in ((1, 3), (2, 3), (2, 4))]
)

# The frontier call: no witness exists below the band bound 8.
DEEP_SCAN = (5, (0, 2), 6)


def _demo():
    code, text = run_cli(["demo"])
    check(code == 0, f"demo exit code {code}")
    check("FAIL" not in text, "demo printed FAIL lines")
    check(text.count("PASS") > 0, "demo printed no checks")
    return text


def _min_support(n, i, j):
    report = search.min_support(n, i, j)
    check(report.min_support == band_bound(n, i, j),
          f"minimum {report.min_support} != bound {band_bound(n, i, j)}")
    _check_witness(report, n, i, j)
    return values_text(report.witness)


def _exact_spectrum(n, levels, cap):
    report = search.min_support_exact_spectrum(n, levels, max_size=cap)
    lo, hi = min(levels), max(levels)
    floor = band_bound(n, lo, hi)
    if report.min_support is None:
        # absence of a witness is only provable here when the cap is below
        # the band bound that every exact-spectrum function obeys
        check(cap is not None and cap < floor, "no witness although the cap allows one")
        return "none"
    check(report.min_support >= floor, f"minimum {report.min_support} below bound {floor}")
    check(cap is None or report.min_support <= cap, "minimum above the cap")
    check(spectral.spectrum(report.witness).levels == frozenset(levels),
          "witness spectrum differs from the level set")
    check(functions.support_size(report.witness) == report.min_support,
          "witness support differs from minimum")
    return values_text(report.witness)


def search_scan(seed: int, work: Path):
    """n <= 4 demo sweep, small n = 5 bands, exact spectra, one deep scan."""
    ops = [Op("demo", _demo)]
    ops += [Op(f"min_support 5 [{i},{j}]", lambda i=i, j=j: _min_support(5, i, j))
            for i, j in N5_SMALL_BANDS]
    ops += [Op(f"exact_spectrum {n} {lv} cap={cap}",
             lambda n=n, lv=lv, cap=cap: _exact_spectrum(n, lv, cap))
            for n, lv, cap in EXACT_SPECTRA]
    n, lv, cap = DEEP_SCAN
    ops.append(Op(f"deep exact_spectrum {n} {lv} cap={cap}", lambda: _exact_spectrum(n, lv, cap)))
    random.Random(seed).shuffle(ops)
    return ops


# --- classify -------------------------------------------------------------

EQUIV_N, EQUIV_BAND = 6, (3, 4)


def _classify_cli(n, i, j):
    code, text = run_cli(["verify-classification", "--n", str(n), "--i", str(i), "--j", str(j)])
    check(code == 0, f"exit code {code}")
    report = json.loads(text)
    check(report["ok"] is True, f"not ok: {report['notes']}")
    check(report["min_support"] == band_bound(n, i, j), "minimum differs from the bound")
    check(len(report["classes_found"]) == len(constructions.enumerate_blueprints(n, i, j)),
          "class count differs from the blueprint count")
    return text


def _classify_n5(i, j):
    report = search.verify_classification(5, i, j, extended=True)
    check(report.ok, f"not ok: {report.notes}")
    check(report.min_support == band_bound(5, i, j), "minimum differs from the bound")
    check(len(report.classes_found) == len(constructions.enumerate_blueprints(5, i, j)),
          "class count differs from the blueprint count")
    return repr([(c.n, c.values) for c in report.classes_found])


def _automorphism_image(f, rng):
    """c * (f o pi) for a random coordinate permutation plus translation
    and a random nonzero rational scale, never a plain multiple of f."""
    n = f.n
    while True:
        perm = list(range(n))
        rng.shuffle(perm)
        shift = rng.randrange(1 << n)
        scale = Fraction(rng.choice([-1, 1]) * rng.randrange(1, 10), rng.randrange(1, 10))
        vals = [Fraction(0)] * (1 << n)
        for x, v in enumerate(f.values):
            y = shift
            for c in range(n):
                if x >> c & 1:
                    y ^= 1 << perm[c]
            vals[y] = scale * v
        g = functions.make_function(n, vals)
        # a plain multiple would take equivalent()'s fast path
        ratio = [b / a for a, b in zip(f.values, g.values) if a != 0]
        if any(b != 0 for a, b in zip(f.values, g.values) if a == 0) or len(set(ratio)) > 1:
            return g


def _equivalent(f, g, expect):
    got = search.equivalent(f, g)
    check(got is expect, f"equivalent returned {got}, expected {expect}")
    return str(got)


def classify(seed: int, work: Path):
    """All n <= 4 bands through the CLI, small n = 5 bands, n = 6 equivalence."""
    rng = random.Random(seed)
    ops = [Op(f"cli verify-classification {n} [{i},{j}]",
              lambda n=n, i=i, j=j: _classify_cli(n, i, j))
           for n in range(1, 5) for i in range(n + 1) for j in range(i, n + 1)]
    ops += [Op(f"verify_classification 5 [{i},{j}]", lambda i=i, j=j: _classify_n5(i, j))
            for i, j in N5_SMALL_BANDS]
    blueprint_fns = [constructions.build(bp)
                     for bp in constructions.enumerate_blueprints(EQUIV_N, *EQUIV_BAND)]
    for idx, f in enumerate(blueprint_fns[:2]):
        g = _automorphism_image(f, rng)
        ops.append(Op(f"equivalent image {idx}", lambda f=f, g=g: _equivalent(f, g, True)))
    f, g = blueprint_fns[0], blueprint_fns[1]
    ops.append(Op("equivalent control", lambda: _equivalent(f, g, False)))
    rng.shuffle(ops)
    return ops


# --- spectral-rational ----------------------------------------------------

LIBRARY_NS = (12, 13)
CLI_N = 14
DENOMINATORS = (3, 5, 7, 11, 13)


def random_band_function(rng, n: int):
    """A function whose spectrum is exactly two random levels lo < hi.

    Three characters per level (fewer where the level has fewer masks) get
    random nonzero rational coefficients; inverse_walsh turns the
    coefficient table into the value table.
    """
    lo, hi = sorted(rng.sample(range(n + 1), 2))
    table = [Fraction(0)] * (1 << n)
    for level in (lo, hi):
        masks = [u for u in range(1 << n) if u.bit_count() == level]
        for u in rng.sample(masks, min(3, len(masks))):
            table[u] = Fraction(rng.choice([-1, 1]) * rng.randrange(1, 10), rng.choice(DENOMINATORS))
    return functions.inverse_walsh(functions.make_function(n, table)), (lo, hi)


def _spectrum(f, levels):
    got = spectral.spectrum(f).levels
    check(got == frozenset(levels), f"spectrum {sorted(got)} != {list(levels)}")
    return repr(sorted(got))


def _in_band(f, levels):
    lo, hi = levels
    check(spectral.in_band(f, lo, hi), f"not in band [{lo}, {hi}]")
    check(not spectral.in_band(f, lo + 1, hi), f"in band [{lo + 1}, {hi}] without level {lo}")
    return "ok"


def _project(f, level):
    p = spectral.level_project(f, level)
    check(not p.is_zero(), f"level {level} projection is zero")
    check(spectral.check_eigen_relation(p, f.n - 2 * level), f"level {level} eigen relation fails")
    return values_text(p)


def _cli_spectrum(path: Path, levels):
    code, text = run_cli(["spectrum", "--input", str(path)])
    check(code == 0, f"exit code {code}")
    check(json.loads(text)["levels"] == list(levels), "cli spectrum differs from the levels")
    return text


def _cli_project(path: Path, n: int, level: int):
    code, text = run_cli(["project", "--level", str(level), "--input", str(path)])
    check(code == 0, f"exit code {code}")
    p = serialize.function_from_dict(json.loads(text))
    check(not p.is_zero(), f"level {level} projection is zero")
    check(spectral.check_eigen_relation(p, n - 2 * level), f"level {level} eigen relation fails")
    return text


def spectral_rational(seed: int, work: Path):
    """Rational band functions at n = 12, 13 in-library and n = 14 via the CLI."""
    rng = random.Random(seed)
    ops = []
    for n in LIBRARY_NS:
        f, levels = random_band_function(rng, n)
        ops.append(Op(f"spectrum {n}", lambda f=f, lv=levels: _spectrum(f, lv)))
        ops.append(Op(f"in_band {n}", lambda f=f, lv=levels: _in_band(f, lv)))
        ops += [Op(f"level_project {n} {lv}", lambda f=f, lv=lv: _project(f, lv)) for lv in levels]
    f, levels = random_band_function(rng, CLI_N)
    path = work / "cli-input.json"
    path.write_text(serialize.dumps(serialize.function_to_dict(f)), encoding="utf-8")
    size = path.stat().st_size
    ops.append(Op(f"cli spectrum {CLI_N}", lambda: _cli_spectrum(path, levels), size))
    ops.append(Op(f"cli project {CLI_N} {levels[0]}",
                  lambda: _cli_project(path, CLI_N, levels[0]), size))
    rng.shuffle(ops)
    return ops


# --- trade-pipeline -------------------------------------------------------

PIPELINE_MAX_N = 8
# LOWER single-level blueprints beyond n = 8: all of them at n = 9, and the
# one with the costliest face-sum test at n = 10
EXTRA_SINGLE_LEVEL = [(9, i) for i in range(5, 10)] + [(10, 7)]


def _pipeline(bp) -> str:
    n = bp.n
    i = bp.k + bp.ell
    f = constructions.build(bp)
    check(spectral.spectrum(f) == constructions.blueprint_spectrum(bp),
          "spectrum differs from blueprint_spectrum")
    pair = trades.sign_split(f)
    check(trades.is_trade(pair, i - 1), f"sign split is not a [{i - 1}]-trade")
    check(trades.face_sums_vanish(f, i), f"face sums at level {i} do not vanish")
    supp = functions.support(f)
    check(len(supp) == bp.support_size, "support size differs from the blueprint")
    sub = trades.detect_affine(supp, n)
    check(sub is not None and sub.dimension == i, "support is not an affine subspace of dim i")
    split = trades.split_subspace(sub)
    check({split.t0, split.t1} == {pair.t0, pair.t1}, "parity split differs from the sign split")
    indicator = functions.make_function(n, [1 if v != 0 else 0 for v in f.values])
    # an affine subspace of codimension c has an indicator of degree exactly c
    check(trades.anf_degree(indicator) == n - i, "indicator degree differs from the codimension")
    return values_text(f)


def _pipeline_band(n, i) -> str:
    bps = constructions.enumerate_blueprints(n, i, n)
    check(len(bps) > 0, "no blueprints")
    check(all(bp.case == constructions.LOWER and bp.k + bp.ell == i for bp in bps),
          "blueprint outside the LOWER family of the band")
    return "".join(_pipeline(bp) for bp in bps)


def trade_pipeline(seed: int, work: Path):
    """Every LOWER blueprint with n <= 8, plus single-level ones at n = 9, 10."""
    ops = [Op(f"pipeline band [{i},{n}]", lambda n=n, i=i: _pipeline_band(n, i))
           for n in range(1, PIPELINE_MAX_N + 1) for i in range(1, n + 1)]
    ops += [Op(f"pipeline single level {n} [{i},{i}]",
             lambda n=n, i=i: _pipeline(constructions.single_level_blueprint(n, i)))
            for n, i in EXTRA_SINGLE_LEVEL]
    random.Random(seed).shuffle(ops)
    return ops


WORKLOADS = {
    "search-scan": search_scan,
    "classify": classify,
    "spectral-rational": spectral_rational,
    "trade-pipeline": trade_pipeline,
}
