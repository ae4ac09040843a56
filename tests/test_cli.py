import argparse
import io
import json
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import cubespec
from cubespec import cli, phi, point_mass, search, serialize, tensor
from cubespec.cli import COMMANDS, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_contract_error(code, out, err):
    assert code == 1 and out == ""
    assert "Traceback" not in err
    assert json.loads(err)["kind"] == "contract"


def write_function(tmp_path, name, f):
    path = tmp_path / name
    path.write_text(serialize.dumps(serialize.function_to_dict(f)))
    return str(path)


def test_spectrum_command(tmp_path, capsys):
    path = write_function(tmp_path, "f.json", phi(3))
    code, out, err = run(capsys, "spectrum", "--input", path)
    assert code == 0 and err == ""
    assert json.loads(out) == {"levels": [1, 3]}


def test_spectrum_inline_input(capsys):
    payload = json.dumps(serialize.function_to_dict(phi(1)))
    code, out, _ = run(capsys, "spectrum", "--inline", payload)
    assert code == 0
    assert json.loads(out) == {"levels": [1]}


def test_input_defaults_to_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(serialize.dumps(serialize.function_to_dict(phi(3)))))
    code, out, err = run(capsys, "spectrum")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"levels": [1, 3]}


def test_output_path_gets_what_stdout_would(tmp_path, capsys):
    argv = ("min-support", "--n", "3", "--i", "1", "--j", "2")
    code, expected, _ = run(capsys, *argv)
    assert code == 0
    path = tmp_path / "report.json"
    assert run(capsys, *argv, "--output", str(path)) == (0, "", "")
    assert path.read_text(encoding="utf-8") == expected


def test_missing_input_file_is_an_io_error(tmp_path, capsys):
    code, out, err = run(capsys, "spectrum", "--input", str(tmp_path / "absent.json"))
    assert code == 1 and out == ""
    assert json.loads(err)["kind"] == "io"


def test_enumerate_and_build_optimal(tmp_path, capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "4", "--i", "2", "--j", "3")
    assert code == 0
    entries = json.loads(out)
    assert len(entries) == 2
    assert all(e["support_size"] == 4 for e in entries)
    assert entries[0] == {
        "case": "LOWER", "odd": [], "even": [2, 2], "r": 0,
        "spectrum": [2], "support_size": 4,
    }

    code, out, _ = run(capsys, "build-optimal", "--n", "4", "--i", "2", "--j", "3", "--index", "0")
    assert code == 0
    f = serialize.function_from_dict(json.loads(out))
    assert f.values == tensor(phi(2), phi(2)).values

    code, _, err = run(capsys, "build-optimal", "--n", "4", "--i", "2", "--j", "3", "--index", "5")
    assert code == 1
    assert json.loads(err)["kind"] == "contract"


def test_enumerate_far_above_the_dimension_cap(capsys):
    code, out, err = run(capsys, "enumerate", "--n", "1500", "--i", "0", "--j", "0")
    assert (code, err) == (0, "")
    (entry,) = json.loads(out)
    assert entry["odd"] == [1] * 1500 and entry["support_size"] == 1 << 1500
    for n in ("25", "1500"):
        code, out, err = run(capsys, "build-optimal", "--n", n, "--i", "0", "--j", "0")
        assert_contract_error(code, out, err)
        assert json.loads(err)["error"] == f"dimension must be an int in [0, 24], got {n}"


def test_project_and_in_band_and_eigen_check(tmp_path, capsys):
    path = write_function(tmp_path, "f.json", phi(3))
    code, out, _ = run(capsys, "project", "--level", "1", "--input", path)
    assert code == 0
    proj = serialize.function_from_dict(json.loads(out))
    assert proj.values[0] == Fraction(3, 4)  # (3 - 2*weight(x))/4 at the origin

    code, out, _ = run(capsys, "in-band", "--i", "2", "--j", "3", "--input", path)
    assert code == 0
    assert json.loads(out)["in_band"] is False

    code, out, _ = run(capsys, "eigen-check", "--lambda", "1", "--input", path)
    assert code == 0
    assert json.loads(out) == {"holds": False, "lambda": 1}


def test_trade_pipeline_commands(tmp_path, capsys):
    pair = {"n": 2, "t0": ["00", "11"], "t1": ["10", "01"]}
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(pair))
    code, out, _ = run(capsys, "verify-trade", "--t", "1", "--input", str(path))
    assert code == 0
    assert json.loads(out) == {"is_trade": True, "t": 1}

    # two vertices of H(40): the answer comes from the pair, not from a 2^40 table
    wide = json.dumps({"n": 40, "t0": ["1" + "0" * 39], "t1": ["0" * 39 + "1"]})
    for t, answer in (("0", True), ("1", False), ("40", False)):
        code, out, _ = run(capsys, "verify-trade", "--t", t, "--inline", wide)
        assert code == 0
        assert json.loads(out) == {"is_trade": answer, "t": int(t)}

    f = tensor(phi(2), phi(2))
    vertices = {"n": 4, "vertices": ["0000", "1100", "0011", "1111"]}
    path = tmp_path / "set.json"
    path.write_text(json.dumps(vertices))
    code, out, _ = run(capsys, "detect-affine", "--input", str(path))
    assert code == 0
    sub = json.loads(out)
    assert sub["affine"] is True and sub["dimension"] == 2
    assert sub["disjoint_support_basis"] is True

    code, out, _ = run(capsys, "detect-affine", "--inline",
                       json.dumps({"n": 4, "vertices": ["0000", "1100", "0011"]}))
    assert code == 0
    assert json.loads(out) == {"affine": False}

    path = tmp_path / "sub.json"
    path.write_text(json.dumps(sub))
    code, out, _ = run(capsys, "split-subspace", "--input", str(path))
    assert code == 0
    split = json.loads(out)
    assert split["t"] == 1
    assert sorted(split["t0"]) == ["0000", "1111"]
    assert sorted(split["t1"]) == ["0011", "1100"]

    indicator = {"n": 4, "values": ["1" if v != 0 else "0" for v in f.values]}
    path = tmp_path / "ind.json"
    path.write_text(json.dumps(indicator))
    code, out, _ = run(capsys, "anf-degree", "--input", str(path))
    assert code == 0
    assert json.loads(out) == {"degree": 2}


def test_min_support_command_is_deterministic(capsys):
    code, out1, _ = run(capsys, "min-support", "--n", "2", "--i", "1", "--j", "1")
    assert code == 0
    code, out2, _ = run(capsys, "min-support", "--n", "2", "--i", "1", "--j", "1")
    assert out1 == out2
    report = json.loads(out1)
    assert report["min_support"] == 2
    assert report["elapsed"] is None
    assert report["witness"]["values"] == ["1", "0", "0", "-1"]


def run_module(*argv):
    """Run python -m cubespec.cli as a process on the package under test."""
    src = str(Path(cubespec.__file__).parents[1])
    return subprocess.run([sys.executable, "-m", "cubespec.cli", *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))


def test_module_run_as_a_process_matches_main(capsys):
    proc = run_module("verify-classification", "--n", "3", "--i", "0", "--j", "2")
    code, out, err = run(capsys, "verify-classification", "--n", "3", "--i", "0", "--j", "2")
    assert proc.returncode == code == 0
    assert proc.stdout == out and json.loads(out)["ok"] is True
    assert proc.stderr == err == ""


def test_module_run_as_a_process_reports_the_contract_error():
    proc = run_module("min-support", "--n", "6", "--i", "2", "--j", "3")
    assert proc.returncode == 1 and proc.stdout == ""
    assert json.loads(proc.stderr) == {
        "error": "exhaustive search beyond n=5 needs --unsafe-n", "kind": "contract",
    }


def test_min_support_exact_spectrum_flag(capsys):
    code, out, _ = run(capsys, "min-support", "--n", "3", "--exact-spectrum", "0,3")
    assert code == 0
    report = json.loads(out)
    assert report["min_support"] == 4
    assert report["levels"] == [0, 3]


@pytest.mark.parametrize("band", [("--i", "1", "--j", "2"), ("--i", "1"), ("--j", "2")])
def test_min_support_rejects_band_with_exact_spectrum(capsys, band):
    code, out, err = run(capsys, "min-support", "--n", "3", *band, "--exact-spectrum", "0,3")
    assert_contract_error(code, out, err)


def test_min_support_guard_rails(capsys):
    code, _, err = run(capsys, "min-support", "--n", "6", "--i", "2", "--j", "3")
    assert code == 1
    assert json.loads(err)["kind"] == "contract"

    code, _, err = run(capsys, "min-support", "--n", "3")
    assert code == 1


@pytest.mark.parametrize("argv, flag", [
    (("verify-classification", "--n", "6", "--i", "2", "--j", "4"), "--unsafe-n"),
    (("min-support", "--n", "6", "--i", "2", "--j", "3"), "--unsafe-n"),
    (("min-support", "--n", "6", "--exact-spectrum", "0,3"), "--unsafe-n"),
])
def test_limit_errors_name_the_flag(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert_contract_error(code, out, err)
    message = json.loads(err)["error"]
    assert flag in message and "=True" not in message


def test_verify_classification_refuses_n_above_the_canonical_limit(capsys, no_scan):
    code, out, err = run(capsys, "verify-classification", "--n", "9", "--i", "2", "--j", "9",
                         "--unsafe-n")
    assert_contract_error(code, out, err)
    assert json.loads(err)["error"] == "n must be an int in [0, 8], got 9"


PHI2 = '{"n": 2, "values": ["1", "0", "0", "-1"]}'
TRADE = '{"n": 2, "t0": ["00", "11"], "t1": ["10", "01"]}'


@pytest.mark.parametrize("argv", [
    ("min-support", "--n", "3", "--exact-spectrum", "\u0660,\u0663"),  # Arabic-Indic 0,3
    ("min-support", "--n", "3", "--exact-spectrum", "0,0_3"),
    ("min-support", "--n", "3", "--exact-spectrum", "+0,3"),
    ("min-support", "--n", "3", "--exact-spectrum", " 0, 3"),
    ("min-support", "--n", "3", "--exact-spectrum", "0,,3"),
    ("min-support", "--n", "3", "--exact-spectrum", "0,3,"),
    ("min-support", "--n", "\u0663", "--i", "1", "--j", "2"),
    ("min-support", "--n", "+3", "--i", "1", "--j", "2"),
    ("min-support", "--n", " 3", "--i", "1", "--j", "2"),
    ("min-support", "--n", "0_3", "--i", "1", "--j", "2"),
    ("enumerate", "--n", "4", "--i", "\uff12", "--j", "3"),  # fullwidth 2
    ("build-optimal", "--n", "4", "--i", "2", "--j", "3", "--index", "+0"),
    ("project", "--level", "1 ", "--inline", PHI2),
    ("eigen-check", "--lambda", "-\u0662", "--inline", PHI2),
    ("in-band", "--i", "0", "--j", "\u0662", "--inline", PHI2),
    ("verify-trade", "--t", "\u0661", "--inline", TRADE),
], ids=repr)
def test_int_flags_and_levels_take_ascii_digits_only(capsys, argv):
    assert_contract_error(*run(capsys, *argv))


@pytest.mark.parametrize("argv, same_as", [
    (("min-support", "--n", "03", "--exact-spectrum", "0,3"),
     ("min-support", "--n", "3", "--exact-spectrum", "0,3")),
    (("eigen-check", "--lambda", "-0", "--inline", PHI2), ("eigen-check", "--lambda", "0", "--inline", PHI2)),
])
def test_ascii_int_grammar_keeps_its_accepted_forms(capsys, argv, same_as):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == run(capsys, *same_as) and code == 0


def test_empty_level_list_gives_the_library_error(capsys):
    code, out, err = run(capsys, "min-support", "--n", "3", "--exact-spectrum", "")
    assert_contract_error(code, out, err)
    assert json.loads(err)["error"] == "levels must be nonempty"


def test_canonical_and_equivalent(tmp_path, capsys):
    a = write_function(tmp_path, "a.json", phi(2))
    b = write_function(tmp_path, "b.json", phi(2).scale(-3))
    code, out, _ = run(capsys, "equivalent", a, b)
    assert code == 0
    assert json.loads(out) == {"equivalent": True}

    code, out, _ = run(capsys, "canonical", "--input", a)
    assert code == 0
    cf_a = json.loads(out)
    code, out, _ = run(capsys, "canonical", "--input", b)
    assert cf_a == json.loads(out)


def test_equivalent_command_refuses_n_above_the_canonical_limit(tmp_path, capsys):
    a = write_function(tmp_path, "a.json", point_mass(9))
    b = write_function(tmp_path, "b.json", point_mass(9).scale(2))
    code, out, err = run(capsys, "equivalent", a, b)
    assert_contract_error(code, out, err)
    assert json.loads(err)["error"] == "canonical_form sweeps the full group only for n <= 8"


@pytest.mark.parametrize("argv", [
    ("min-support", "--n", "3", "--i", "1", "--j", "2"),
    ("min-support", "--n", "3", "--exact-spectrum", "0,3"),
    ("verify-classification", "--n", "3", "--i", "0", "--j", "2"),
])
def test_timing_flag_only_fills_elapsed(capsys, argv):
    code, plain, err = run(capsys, *argv)
    assert code == 0 and err == ""
    code, timed, err = run(capsys, *argv, "--timing")
    assert code == 0 and err == ""
    report = json.loads(timed)
    assert type(report["elapsed"]) in (int, float) and report["elapsed"] >= 0
    report["elapsed"] = None
    assert serialize.dumps(report) == plain


def test_verify_classification_command(capsys):
    code, out, _ = run(capsys, "verify-classification", "--n", "3", "--i", "0", "--j", "2")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert len(report["classes_found"]) == 3
    assert len(report["matched_blueprints"]) == 3


def test_classification_mismatch_writes_report_then_exits_2(capsys, monkeypatch):
    real = search.verify_classification
    monkeypatch.setattr(search, "verify_classification",
                        lambda *a, **kw: replace(real(*a, **kw), ok=False, notes=("forced",)))
    code, out, err = run(capsys, "verify-classification", "--n", "2", "--i", "1", "--j", "1")
    assert code == 2
    assert json.loads(out)["ok"] is False
    assert json.loads(err) == {
        "error": "classification mismatch", "kind": "verification", "notes": ["forced"],
    }


def test_bad_json_input_exits_with_contract_error(capsys):
    code, _, err = run(capsys, "spectrum", "--inline", "{not json")
    assert code == 1
    payload = json.loads(err)
    assert payload["kind"] == "contract"


@pytest.mark.parametrize("argv", [
    ("verify-trade", "--t", "1", "--inline", "{}"),
    ("detect-affine", "--inline", "[]"),
    ("split-subspace", "--inline", '{"n": 2, "basis": ["10"]}'),
    ("split-subspace", "--inline", '{"n": 2, "translation": "00", "basis": ["00"]}'),
    ("spectrum", "--inline", '{"n": true, "values": ["1", "0"]}'),
    ("spectrum", "--inline", '{"n": 1, "values": [[0], "1"]}'),
    ("spectrum", "--inline", '{"n": 1, "values": ["1", {"a": 1}]}'),
])
def test_malformed_payload_exits_with_contract_error(capsys, argv):
    assert_contract_error(*run(capsys, *argv))


def _malformed_input_cases():
    for cmd in COMMANDS:
        if cmd.decode is not None:
            for payload in ("[]", "{}", "{not json"):
                yield pytest.param(cmd, payload, id=f"{cmd.name}:{payload}")


def _input_argv(tmp_path, cmd, payload):
    """argv giving payload to cmd, inline or as its input files, with 1 for each required flag."""
    path = tmp_path / "input.json"
    path.write_text(payload)
    argv, inputs = [cmd.name], ["--inline", payload]
    for flags, kwargs in cmd.args:
        if kwargs.get("required"):
            argv += [flags[0], "1"]
        elif not flags[0].startswith("-"):  # input files instead of --inline
            inputs = [str(path)] * kwargs["nargs"]
    return argv + inputs


@pytest.mark.parametrize("cmd,payload", _malformed_input_cases())
def test_every_input_command_rejects_malformed_input(tmp_path, capsys, cmd, payload):
    assert_contract_error(*run(capsys, *_input_argv(tmp_path, cmd, payload)))


DEEP_JSON = {"unclosed": "[" * 100_000, "valid": "[" * 100_000 + "]" * 100_000}
TOO_DEEP = "invalid JSON input: nesting too deep"


@pytest.mark.parametrize("source", ["inline", "file", "stdin"])
@pytest.mark.parametrize("payload", DEEP_JSON.values(), ids=DEEP_JSON.keys())
def test_too_deep_json_is_a_contract_error(tmp_path, capsys, monkeypatch, source, payload):
    argv = ["spectrum"]
    if source == "inline":
        argv += ["--inline", payload]
    elif source == "file":
        path = tmp_path / "deep.json"
        path.write_text(payload)
        argv += ["--input", str(path)]
    else:
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    code, out, err = run(capsys, *argv)
    assert_contract_error(code, out, err)
    assert json.loads(err)["error"] == TOO_DEEP


@pytest.mark.parametrize("cmd", [cmd for cmd in COMMANDS if cmd.decode is not None],
                         ids=lambda cmd: cmd.name)
def test_every_input_command_rejects_too_deep_json(tmp_path, capsys, cmd):
    code, out, err = run(capsys, *_input_argv(tmp_path, cmd, DEEP_JSON["valid"]))
    assert_contract_error(code, out, err)
    assert json.loads(err)["error"] == TOO_DEEP


USAGE_ERRORS = [
    ("spectrum", "--bogus"),
    ("min-support", "--n", "abc"),
    ("equivalent",),
    ("frobnicate",),
    (),
    ("min-support", "--n", "2", "--i", "1", "--j", "1", "--jobs", "2"),
]


@pytest.mark.parametrize("argv", USAGE_ERRORS)
def test_usage_error_exits_with_contract_error(capsys, argv):
    assert_contract_error(*run(capsys, *argv))


def test_jobs_environment_is_ignored(capsys, monkeypatch):
    argv = ("min-support", "--n", "2", "--i", "1", "--j", "1")
    monkeypatch.delenv("CUBESPEC_JOBS", raising=False)
    unset = run(capsys, *argv)
    monkeypatch.setenv("CUBESPEC_JOBS", "many")
    assert run(capsys, *argv) == unset
    assert unset[0] == 0 and json.loads(unset[1])["min_support"] == 2


@pytest.mark.parametrize("argv", [("--help",), ("min-support", "--help")])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 0
    assert "usage: cubespec" in capsys.readouterr().out


def test_demo_passes(capsys):
    code, out, err = run(capsys, "demo")
    assert code == 0, err
    assert "FAIL" not in out
    assert out.count("PASS") >= 10


# The whole demo table, byte for byte: its 34 band lines come from the band
# sweep, so a band dropped, repeated or out of (i, j) order changes it.
DEMO_STDOUT = """\
PASS  optimal classes for n=4 band [2,3]: got 2, expected 2
PASS  their partitions: got [((), (2, 2), 0), ((1,), (2,), 1)], expected [((), (2, 2), 0), ((1,), (2,), 1)]
PASS  optimal classes for n=3 band [0,2]: got 3, expected 3
PASS  support minimum for n=1 band [0,0]: got 2, expected 2
PASS  support minimum for n=1 band [0,1]: got 1, expected 1
PASS  support minimum for n=1 band [1,1]: got 2, expected 2
PASS  support minimum for n=2 band [0,0]: got 4, expected 4
PASS  support minimum for n=2 band [0,1]: got 2, expected 2
PASS  support minimum for n=2 band [0,2]: got 1, expected 1
PASS  support minimum for n=2 band [1,1]: got 2, expected 2
PASS  support minimum for n=2 band [1,2]: got 2, expected 2
PASS  support minimum for n=2 band [2,2]: got 4, expected 4
PASS  support minimum for n=3 band [0,0]: got 8, expected 8
PASS  support minimum for n=3 band [0,1]: got 4, expected 4
PASS  support minimum for n=3 band [0,2]: got 2, expected 2
PASS  support minimum for n=3 band [0,3]: got 1, expected 1
PASS  support minimum for n=3 band [1,1]: got 4, expected 4
PASS  support minimum for n=3 band [1,2]: got 2, expected 2
PASS  support minimum for n=3 band [1,3]: got 2, expected 2
PASS  support minimum for n=3 band [2,2]: got 4, expected 4
PASS  support minimum for n=3 band [2,3]: got 4, expected 4
PASS  support minimum for n=3 band [3,3]: got 8, expected 8
PASS  support minimum for n=4 band [0,0]: got 16, expected 16
PASS  support minimum for n=4 band [0,1]: got 8, expected 8
PASS  support minimum for n=4 band [0,2]: got 4, expected 4
PASS  support minimum for n=4 band [0,3]: got 2, expected 2
PASS  support minimum for n=4 band [0,4]: got 1, expected 1
PASS  support minimum for n=4 band [1,1]: got 8, expected 8
PASS  support minimum for n=4 band [1,2]: got 4, expected 4
PASS  support minimum for n=4 band [1,3]: got 2, expected 2
PASS  support minimum for n=4 band [1,4]: got 2, expected 2
PASS  support minimum for n=4 band [2,2]: got 4, expected 4
PASS  support minimum for n=4 band [2,3]: got 4, expected 4
PASS  support minimum for n=4 band [2,4]: got 4, expected 4
PASS  support minimum for n=4 band [3,3]: got 8, expected 8
PASS  support minimum for n=4 band [3,4]: got 8, expected 8
PASS  support minimum for n=4 band [4,4]: got 16, expected 16
PASS  sign split of the 4-dim double pair is a [1]-trade: got True, expected True
PASS  support indicator degree: got 2, expected 2
PASS  support is an affine subspace of dimension: got 2, expected 2
PASS  its basis has disjoint supports: got True, expected True
PASS  parity split reproduces the sign split: got [[0, 15], [3, 12]], expected [[0, 15], [3, 12]]
PASS  parity twist keeps the double pair's class: got True, expected True
"""


def test_demo_stdout_is_pinned(capsys):
    code, out, err = run(capsys, "demo")
    assert (code, err) == (0, "")
    assert out == DEMO_STDOUT


def test_demo_failure_writes_table_then_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(search, "equivalent", lambda f, g: False)
    code, out, err = run(capsys, "demo")
    assert code == 2
    assert out.count("FAIL") == 1 and out.count("PASS") >= 10
    assert json.loads(err) == {"error": "1 demo checks failed", "kind": "verification"}


def _valid_argv(tmp_path):
    """One valid call of every command in COMMANDS."""
    a = write_function(tmp_path, "a.json", phi(2))
    b = write_function(tmp_path, "b.json", phi(2).scale(-3))
    argv = {
        "build-optimal": ("--n", "4", "--i", "2", "--j", "3", "--index", "1"),
        "enumerate": ("--n", "4", "--i", "2", "--j", "3"),
        "spectrum": ("--inline", PHI2),
        "project": ("--level", "1", "--inline", PHI2),
        "in-band": ("--i", "1", "--j", "2", "--inline", PHI2),
        "eigen-check": ("--lambda", "0", "--inline", PHI2),
        "verify-trade": ("--t", "1", "--inline", TRADE),
        "anf-degree": ("--inline", '{"n": 2, "values": ["1", "0", "0", "1"]}'),
        "detect-affine": ("--inline", '{"n": 2, "vertices": ["00", "11"]}'),
        "split-subspace": ("--inline", '{"n": 2, "translation": "00", "basis": ["11"]}'),
        "min-support": ("--n", "3", "--i", "1", "--j", "2"),
        "canonical": ("--inline", PHI2),
        "equivalent": (a, b),
        "verify-classification": ("--n", "3", "--i", "0", "--j", "2"),
        "demo": (),
    }
    assert list(argv) == [cmd.name for cmd in COMMANDS]
    return [(name, *rest) for name, rest in argv.items()]


def _run_sequence(capsys, monkeypatch, steps):
    """(exit code, stdout, stderr) of each (argv, failing) step; a failing step breaks equivalent."""
    results = []
    for argv, failing in steps:
        with monkeypatch.context() as patch:
            if failing:
                patch.setattr(search, "equivalent", lambda f, g: False)
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = ("SystemExit", exc.code)
        results.append((code, *capsys.readouterr()))
    return results


def test_reused_parser_behaves_like_a_fresh_one(tmp_path, capsys, monkeypatch):
    steps = [(argv, False) for argv in _valid_argv(tmp_path) + USAGE_ERRORS]
    steps += [
        (("min-support", "--n", "abc"), False),
        (("min-support", "--n", "2", "--i", "1", "--j", "1"), False),
        (("demo",), True),
        (("--help",), False),
        (("min-support", "--help"), False),
        (("spectrum", "--inline", PHI2), False),
    ]
    cached = _run_sequence(capsys, monkeypatch, steps)
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = _run_sequence(capsys, monkeypatch, steps)
    assert cached == fresh
    codes = [result[0] for result in cached]
    assert codes.count(2) == 1 and codes.count(("SystemExit", 0)) == 2
    assert codes.count(0) == len(COMMANDS) + 2
    assert codes.count(1) == len(USAGE_ERRORS) + 1


def test_parser_is_built_once_and_not_at_import(tmp_path, monkeypatch):
    main(["spectrum", "--inline", PHI2])
    real = argparse.ArgumentParser.add_argument
    added = []

    def counting(self, *args, **kwargs):
        added.append(args)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting)
    mixed = _valid_argv(tmp_path)[:6] + USAGE_ERRORS[:4]
    for argv in mixed:
        main(list(argv))
    assert len(mixed) == 10 and added == []

    src = str(Path(cubespec.__file__).parents[1])
    probe = subprocess.run(
        [sys.executable, "-c",
         "import cubespec.cli; print(cubespec.cli.build_parser.cache_info().currsize)"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), check=True,
    )
    assert probe.stdout == "0\n"
