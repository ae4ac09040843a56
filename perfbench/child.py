"""One benchmark process: set up a workload, run passes over it, report JSON.

Started by run.py in a fresh interpreter.  Set-up runs from the moment
run.py spawned this process (``--spawned-at``, a time.monotonic stamp, which
is system-wide on Linux) to the end of building the seeded inputs, so it
covers interpreter start, importing cubespec and the inputs.

A pass runs the workload's fixed list of operations once.  Passes repeat
until ``--seconds`` have elapsed.  With ``--trace 1`` untraced and traced
passes alternate, starting untraced, so the tracing overhead is measured in
the same process; per-layer numbers come from the traced passes only.

Every interval is recorded twice: raw perf_counter seconds, and seconds at
the reference CPU speed (see speed.py), which is what the metrics use.
The last stdout line is a JSON object for run.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import tracer as tracing
from speed import SpeedProbe

SPANS_KEPT = 200_000  # spans of the first traced pass written to the trace file


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--work", type=Path, required=True, help="scratch directory for this process")
    p.add_argument("--trace-file", type=Path, help="where a traced run writes its spans")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def run_pass(ops, probe, tracer):
    """Run every operation once; returns the pass record and its spans."""
    if tracer:
        tracer.install()
    failures, digests, bounds = [], {}, []
    start = time.perf_counter()
    for op in ops:
        if tracer:
            tracer.begin(tracing.BENCH_OP, op.label)
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # an operation that raises counts as failed
            failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
            out = None
        bounds.append((t0, time.perf_counter()))
        if tracer:
            tracer.end()
        if out is not None:
            digests[op.label] = hashlib.sha256(out.encode("utf-8")).hexdigest()
    end = time.perf_counter()
    spans = []
    if tracer:
        tracer.uninstall()
        spans = tracer.take()
    op_s = [probe.ref_seconds(a, b) for a, b in bounds]
    slowest = max(range(len(ops)), key=op_s.__getitem__)
    record = {
        "traced": tracer is not None,
        "wall_s": probe.ref_seconds(start, end),
        "raw_wall_s": end - start,
        "max_op_s": op_s[slowest],
        "max_op": ops[slowest].label,
        "op_s": op_s,
        "attempted": len(ops),
        "failures": failures,
        "digests": digests,
    }
    return record, spans


def main(argv=None) -> int:
    args = parse_args(argv)
    probe = SpeedProbe()
    probe.start()
    import cubespec  # noqa: F401  (timed as part of set-up)
    from workloads import WORKLOADS

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    args.work.mkdir(parents=True, exist_ok=True)
    ops = WORKLOADS[args.workload](args.seed, args.work)
    ready = time.perf_counter()
    spawned = args.spawned_at + (ready - time.monotonic())
    setup = {"setup_s": probe.ref_seconds(spawned, ready), "raw_setup_s": ready - spawned}
    setup_spans = []
    if tracer:
        tracer.uninstall()
        setup_spans = tracer.take()
    if args.setup_only:
        probe.stop()
        print(json.dumps(setup))
        return 0

    bytes_in = sum(op.bytes_in for op in ops)
    passes, layer_timings, layer_counts, kept_spans, dropped = [], [], [], None, 0
    start = time.perf_counter()
    while True:
        traced = bool(tracer) and len(passes) % 2 == 1
        record, spans = run_pass(ops, probe, tracer if traced else None)
        passes.append(record)
        if traced:
            timings, counts = tracing.summarize(spans, record["wall_s"] / record["raw_wall_s"])
            layer_timings.append(timings)
            counts["serialize.bytes_in"] = bytes_in
            layer_counts.append(counts)
            if kept_spans is None:
                kept_spans, dropped = spans[:SPANS_KEPT], max(0, len(spans) - SPANS_KEPT)
        done = time.perf_counter() - start >= args.seconds
        if done and (not tracer or len(passes) >= 2):
            break
    probe.stop()

    result = {
        "workload": args.workload,
        "seed": args.seed,
        **setup,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "probe_median_s": statistics.median(probe.durations),
        "passes": passes,
    }
    if tracer:
        untraced = statistics.median(p["wall_s"] for p in passes if not p["traced"])
        traced_wall = statistics.median(p["wall_s"] for p in passes if p["traced"])
        layers = {k: statistics.median(t[k] for t in layer_timings) for k in layer_timings[0]}
        layers.update(layer_counts[0])
        layers["functions.inverse_walsh.setup_s"] = sum(
            (s[2] - s[1] for s in setup_spans if s[0] == "functions.inverse_walsh"), 0.0
        ) * setup["setup_s"] / setup["raw_setup_s"]
        layers["trace.wall_s"] = traced_wall
        layers["trace.overhead_s"] = traced_wall - untraced
        result["layers"] = layers
        result["counts_repeat"] = all(c == layer_counts[0] for c in layer_counts)
        if args.trace_file:
            args.trace_file.parent.mkdir(parents=True, exist_ok=True)
            args.trace_file.write_text(json.dumps({
                "fields": ["name", "start", "end", "parent", "tag"],
                "setup": setup_spans,
                "first_traced_pass": kept_spans,
                "spans_dropped": dropped,
            }))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
