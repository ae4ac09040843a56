"""The class tables of verify-classification, pinned byte for byte.

tests/golden_classes.json holds, for every band with n <= 4 and the nine
n = 5 bands [i, j] with i <= 2 and j >= 3 (bound <= 4), the minimum support,
the number of classes and a sha256 of the CLI's stdout.  Regenerate it with
``PYTHONPATH=src python tests/test_golden_classes.py`` only when a change
to the output is intended.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from cubespec import cli

GOLDEN = Path(__file__).with_name("golden_classes.json")

BANDS = [(n, i, j) for n in range(1, 5) for i in range(n + 1) for j in range(i, n + 1)] + [
    (5, i, j) for i in range(3) for j in range(3, 6)
]


def classification_record(n: int, i: int, j: int) -> dict:
    argv = ["verify-classification", "--n", str(n), "--i", str(i), "--j", str(j)]
    if n == 5:
        argv.append("--extended-n5")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert (code, err.getvalue()) == (0, ""), argv
    report = json.loads(out.getvalue())
    return {
        "band": [n, i, j],
        "min_support": report["min_support"],
        "classes": len(report["classes_found"]),
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
    }


def _golden() -> dict:
    return {tuple(rec["band"]): rec for rec in json.loads(GOLDEN.read_text())}


@pytest.mark.parametrize("band", BANDS, ids=lambda b: "n{}_{}_{}".format(*b))
def test_class_table_matches_golden(band):
    assert classification_record(*band) == _golden()[band]


def test_golden_covers_every_band():
    assert sorted(_golden()) == sorted(BANDS)


if __name__ == "__main__":
    records = [classification_record(*band) for band in BANDS]
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n]\n")
    sys.stdout.write(f"wrote {len(records)} bands to {GOLDEN}\n")
