"""cubespec benchmark: run one workload and print its metrics as JSON.

Run from the root of a checkout:

    python3 perfbench/run.py --workload search-scan --seed 1 --seconds 15 --trace 0

Each workload runs in fresh interpreters started from ``src/`` with
``CUBESPEC_JOBS`` removed from the environment, so the library runs
sequentially with its defaults: one caller, one thread, a closed loop.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (median time of one
pass over the workload's fixed operations), ``max_op_s`` (median over
passes of the slowest operation), ``setup_s`` (median over SETUP_SAMPLES
processes of the time from spawn to inputs built) and ``peak_rss_mib``.
``--trace 1`` prints the per-layer metrics of traced passes instead and
writes the spans to ``perfbench/out/``.  Every operation's output is
checked; the last stdout line is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = HERE / "out"
SETUP_SAMPLES = 9  # processes whose set-up time is measured, the main one included
DEADLINE_S = 170.0  # the whole command must end within 180 s


def parse_args(spec: dict, argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("CUBESPEC_JOBS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, work: Path, started: float, extra: list[str]) -> dict:
    """Run child.py once and return its JSON result; raise on any failure."""
    remaining = DEADLINE_S - (time.monotonic() - started)
    if remaining <= 0:
        raise RuntimeError("out of time before the child could start")
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work", str(work), *extra,
    ]
    spawned_at = time.monotonic()
    proc = subprocess.run(
        cmd + ["--spawned-at", repr(spawned_at)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=remaining,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(main: dict, setup_samples: list[float]) -> dict:
    measured = [p for p in main["passes"] if not p["traced"]]
    return {
        "wall_s": statistics.median(p["wall_s"] for p in measured),
        "setup_s": statistics.median(setup_samples),
        "max_op_s": statistics.median(p["max_op_s"] for p in measured),
        "peak_rss_mib": main["peak_rss_mib"],
    }


def main(argv=None) -> int:
    started = time.monotonic()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    args = parse_args(spec, argv)
    if not (ROOT / "src" / "cubespec" / "__init__.py").is_file():
        print(f"no cubespec sources under {ROOT / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        samples = []
        if not args.trace:
            for k in range(SETUP_SAMPLES - 1):
                probe = spawn(args, work / f"probe{k}", started, ["--setup-only"])
                samples.append(probe["setup_s"])
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        main_run = spawn(args, work / "main", started,
                         ["--trace-file", str(OUT / f"trace-{tag}.json")])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    samples.append(main_run["setup_s"])

    passes = main_run["passes"]
    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(p["attempted"] for p in passes)
    correct = not failures
    if args.trace:
        layers = main_run["layers"]
        if not main_run["counts_repeat"]:
            correct = False
            failures.append("work counts differ between traced passes of one seed")
        values = {**layers, "fail_frac": len(failures) / attempted}
        declared = spec["per_layer"]
    else:
        values = end_to_end(main_run, samples)
        declared = spec["end_to_end"]
    for f in failures[:20]:
        print(f"FAILED {f}", file=sys.stderr)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": sys.version.split()[0], "cpus": os.cpu_count(),
        "setup_samples_s": samples, "main": main_run,
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
