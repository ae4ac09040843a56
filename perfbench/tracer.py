"""In-memory call tracing for the public functions of cubespec's layers.

install() swaps a timing wrapper into every ``cubespec.*`` module namespace
that binds one of the traced functions, so calls made from inside the
library (``cli`` into ``search``, ``spectral`` into ``functions``) are
caught as well as the benchmark's own calls.  Each call becomes a span
``[name, start, end, parent, tag]``; a span's self time is its duration
minus the durations of its direct children.  The tag holds the exact work
count of the call where there is one (transform size, search nodes,
classes found, JSON bytes).

Only public names are wrapped, and canonical results are never inspected,
so the tracer keeps working when the internals of a layer are rewritten.
"""

from __future__ import annotations

import functools
import sys
import time

# layer -> public functions whose calls become spans
TRACED = {
    "functions": ("walsh_transform", "inverse_walsh"),
    "spectral": ("spectrum", "in_band", "level_project", "check_eigen_relation"),
    "constructions": ("build", "enumerate_blueprints"),
    "trades": (
        "is_trade", "face_sums_vanish", "detect_affine", "sign_split",
        "split_subspace", "anf_degree",
    ),
    "search": (
        "min_support", "min_support_exact_spectrum", "verify_classification",
        "canonical_form", "equivalent",
    ),
    "serialize": ("function_from_dict", "function_to_dict", "dumps", "search_report_to_dict"),
    "cli": ("main",),
}

SEARCH_ENTRY = ("search.min_support", "search.min_support_exact_spectrum",
                "search.verify_classification")
MAX_WALSH_N = 14
MAX_CANONICAL_N = 6
BENCH_OP = "bench.op"


def _walsh_tag(args, kwargs):
    f = args[0]
    return f.n, all(v.denominator == 1 for v in f.values)


def _canonical_tag(args, kwargs):
    return args[0].n


def _nodes(result):
    return result.nodes_examined


def _classes(result):
    return result.nodes_examined, len(result.classes_found)


def _json_bytes(result):
    return len(result.encode("utf-8"))


# span name -> (tag computed from the arguments before the call,
#               tag computed from the result after it)
_TAGGERS = {
    "functions.walsh_transform": (_walsh_tag, None),
    "search.canonical_form": (_canonical_tag, None),
    "search.min_support": (None, _nodes),
    "search.min_support_exact_spectrum": (None, _nodes),
    "search.verify_classification": (None, _classes),
    "serialize.dumps": (None, _json_bytes),
}


class Tracer:
    """Records spans while installed; take() hands them over and resets."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers = self._make_wrappers()

    def _make_wrappers(self) -> dict:
        wrappers = {}
        for layer, names in TRACED.items():
            module = sys.modules[f"cubespec.{layer}"]
            for name in names:
                original = getattr(module, name)
                span = f"{layer}.{name}"
                wrappers[original] = self._wrap(span, original, *_TAGGERS.get(span, (None, None)))
        return wrappers

    def _wrap(self, name, fn, before, after):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tag = before(args, kwargs) if before else None
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tag]
            spans.append(rec)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                rec[1] = start
                stack.pop()
            if after:
                rec[4] = after(result)
            return result

        return wrapper

    def install(self) -> None:
        """Bind the wrappers in every loaded cubespec module namespace."""
        for modname, module in list(sys.modules.items()):
            if modname != "cubespec" and not modname.startswith("cubespec."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(value) if callable(value) else None
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def begin(self, name: str, tag=None) -> None:
        """Open a span for the benchmark's own code (one operation)."""
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), 0.0, -1, tag])

    def end(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def take(self) -> list[list]:
        spans = list(self.spans)
        self.spans.clear()
        self._stack.clear()
        return spans


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def _under(spans, idx, ancestor) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == ancestor:
            return True
        parent = spans[parent][3]
    return False


def summarize(spans, scale: float = 1.0) -> tuple[dict, dict]:
    """Per-layer timings and exact work counts of one pass.

    Span times are multiplied by ``scale`` (the pass's reference-speed
    seconds per raw second) before they are summed.
    """
    own = [t * scale for t in self_times(spans)]
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s, t in zip(spans, own):
        self_s[s[0]] = self_s.get(s[0], 0.0) + t
        calls[s[0]] = calls.get(s[0], 0) + 1

    counts = {
        "search.nodes": 0,
        "search.classes": 0,
        "search.canonical_form.calls": calls.get("search.canonical_form", 0),
        "search.canonical_form.calls_in_classification": 0,
        "functions.walsh_transform.calls": calls.get("functions.walsh_transform", 0),
        "functions.walsh_transform.butterflies": 0,
        "serialize.bytes_out": 0,
        "cli.main.calls": calls.get("cli.main", 0),
    }
    for n in range(1, MAX_CANONICAL_N + 1):
        counts[f"search.canonical_form.calls.n{n}"] = 0
    for n in range(1, MAX_WALSH_N + 1):
        counts[f"functions.walsh_transform.calls.n{n}"] = 0
    timings = {
        "functions.walsh_transform.int_self_s": 0.0,
        "functions.walsh_transform.frac_self_s": 0.0,
    }
    canon_ms = {n: 0.0 for n in range(1, MAX_CANONICAL_N + 1)}

    for idx, (s, t) in enumerate(zip(spans, own)):
        name, tag = s[0], s[4]
        if name == "functions.walsh_transform":
            n, integral = tag
            counts["functions.walsh_transform.butterflies"] += n << (n - 1) if n else 0
            key = f"functions.walsh_transform.calls.n{n}"
            if key in counts:
                counts[key] += 1
            timings["functions.walsh_transform." + ("int" if integral else "frac") + "_self_s"] += t
        elif name == "search.canonical_form":
            key = f"search.canonical_form.calls.n{tag}"
            if key in counts:
                counts[key] += 1
                canon_ms[tag] += t * 1e3
            if _under(spans, idx, "search.verify_classification"):
                counts["search.canonical_form.calls_in_classification"] += 1
        elif name == "search.verify_classification":
            counts["search.nodes"] += tag[0]
            counts["search.classes"] += tag[1]
        elif name in SEARCH_ENTRY:
            counts["search.nodes"] += tag
        elif name == "serialize.dumps":
            counts["serialize.bytes_out"] += tag

    for layer, names in TRACED.items():
        for name in names:
            timings[f"{layer}.{name}.self_s"] = self_s.get(f"{layer}.{name}", 0.0)
    timings["bench.op.self_s"] = self_s.get(BENCH_OP, 0.0)
    nodes = counts["search.nodes"]
    scan_s = sum(self_s.get(name, 0.0) for name in SEARCH_ENTRY)
    timings["search.us_per_node"] = scan_s / nodes * 1e6 if nodes else 0.0
    flies = counts["functions.walsh_transform.butterflies"]
    walsh_s = self_s.get("functions.walsh_transform", 0.0)
    timings["functions.walsh_transform.ns_per_butterfly"] = walsh_s / flies * 1e9 if flies else 0.0
    for n in (5, 6):
        c = counts[f"search.canonical_form.calls.n{n}"]
        timings[f"search.canonical_form.ms_per_call.n{n}"] = canon_ms[n] / c if c else 0.0
    classes = counts["search.classes"]
    in_cls = counts["search.canonical_form.calls_in_classification"]
    timings["search.canonical_form.calls_per_class"] = in_cls / classes if classes else 0.0
    return timings, counts
