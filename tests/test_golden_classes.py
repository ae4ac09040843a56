"""CLI search output, pinned byte for byte.

tests/golden_classes.json holds, for every band with n <= 4, the nine
bands [i, j] at each of n = 5, 6, 7 and 8 with i <= 2 and j >= n - 2
(bound <= 4) and the six n = 5 bands with bound 8, the minimum support,
the number of classes and a sha256 of the stdout of verify-classification.
The n = 5 bound-8 bands and the n = 8 bands take seconds each and are
checked only with CUBESPEC_EXTENDED=1.
tests/golden_exact_spectrum.json holds, for every nonempty level set at
n = 2..4, the minimum support, the number of nodes examined and a sha256 of
the stdout of min-support --exact-spectrum, the scan that descends through
dependent supports.  Regenerate both with
``PYTHONPATH=src python tests/test_golden_classes.py`` only when a change
to the output is intended.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from itertools import combinations
from pathlib import Path

import pytest

from cubespec import cli

GOLDEN = Path(__file__).with_name("golden_classes.json")
GOLDEN_EXACT = Path(__file__).with_name("golden_exact_spectrum.json")

EXTENDED = os.environ.get("CUBESPEC_EXTENDED") == "1"

BANDS = [(n, i, j) for n in range(1, 5) for i in range(n + 1) for j in range(i, n + 1)] + [
    (n, i, j) for n in (5, 6, 7) for i in range(3) for j in range(n - 2, n + 1)
]
BOUND_8_BANDS = [(5, i, j) for i in range(4) for j in range(i, 6) if max(1 << i, 1 << 5 - j) == 8]
N8_BANDS = [(8, i, j) for i in range(3) for j in range(6, 9)]

LEVEL_SETS = [
    (n, levels)
    for n in range(2, 5)
    for size in range(1, n + 2)
    for levels in combinations(range(n + 1), size)
]


def _run(argv: list[str]) -> tuple[dict, str]:
    """The parsed stdout of a successful CLI run and its sha256."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert (code, err.getvalue()) == (0, ""), argv
    return json.loads(out.getvalue()), hashlib.sha256(out.getvalue().encode()).hexdigest()


def classification_record(n: int, i: int, j: int) -> dict:
    argv = ["verify-classification", "--n", str(n), "--i", str(i), "--j", str(j)]
    if n >= 6:
        argv.append("--unsafe-n")
    report, digest = _run(argv)
    return {
        "band": [n, i, j],
        "min_support": report["min_support"],
        "classes": len(report["classes_found"]),
        "stdout_sha256": digest,
    }


def exact_spectrum_record(n: int, levels: tuple[int, ...]) -> dict:
    argv = ["min-support", "--n", str(n), "--exact-spectrum", ",".join(map(str, levels))]
    report, digest = _run(argv)
    return {
        "levels": [n, *levels],
        "min_support": report["min_support"],
        "nodes_examined": report["nodes_examined"],
        "stdout_sha256": digest,
    }


def _golden() -> dict:
    return {tuple(rec["band"]): rec for rec in json.loads(GOLDEN.read_text())}


def _golden_exact() -> dict:
    return {tuple(rec["levels"]): rec for rec in json.loads(GOLDEN_EXACT.read_text())}


def _extended(bands: list, what: str) -> list:
    reason = f"set CUBESPEC_EXTENDED=1 for the {what}"
    return [pytest.param(band, marks=pytest.mark.skipif(not EXTENDED, reason=reason)) for band in bands]


@pytest.mark.parametrize("band", BANDS + _extended(BOUND_8_BANDS, "n=5 bound-8 bands")
                         + _extended(N8_BANDS, "n=8 bands"), ids=lambda b: "n{}_{}_{}".format(*b))
def test_class_table_matches_golden(kernel_calls, band):
    assert classification_record(*band) == _golden()[band]
    # the blueprints' orbit counts cover every minimal support: only the witness takes a kernel
    assert len(kernel_calls) == 1


def test_golden_covers_every_band():
    assert sorted(_golden()) == sorted(BANDS + BOUND_8_BANDS + N8_BANDS)


@pytest.mark.parametrize(
    "n,levels", LEVEL_SETS, ids=lambda v: f"n{v}" if isinstance(v, int) else "_".join(map(str, v))
)
def test_exact_spectrum_matches_golden(n, levels):
    assert exact_spectrum_record(n, levels) == _golden_exact()[(n, *levels)]


def test_exact_golden_covers_every_level_set():
    assert sorted(_golden_exact()) == sorted((n, *levels) for n, levels in LEVEL_SETS)


def _write(path: Path, records: list[dict]) -> None:
    path.write_text("[\n" + ",\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n]\n")
    sys.stdout.write(f"wrote {len(records)} records to {path}\n")


if __name__ == "__main__":
    _write(GOLDEN, [classification_record(*band) for band in BANDS + BOUND_8_BANDS + N8_BANDS])
    _write(GOLDEN_EXACT, [exact_spectrum_record(n, levels) for n, levels in LEVEL_SETS])
