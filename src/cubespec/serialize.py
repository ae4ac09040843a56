"""JSON interchange formats.

Functions travel as {"n": int, "values": ["p/q" or "p", ...]} with values
in vertex-code order.  Vertex sets travel as arrays of bitstrings with
coordinate 1 leftmost, so code 1 in H(4) is "1000"; the mapping between
the string form and the integer code is string index c <-> bit c.
All emitters sort object keys so output is byte-stable.
"""

from __future__ import annotations

import json

from .constructions import Blueprint
from .functions import VertexFunction, _check_int, fraction_from_str
from .search import SearchReport
from .spectral import SpectrumSet
from .trades import AffineSubspace, TradePair


def function_to_dict(f: VertexFunction) -> dict:
    """Encode a function, formatting each distinct value object once.

    Tables share one Fraction per distinct value, so the strings are keyed
    by object identity, which costs no Fraction hash.
    """
    ids = list(map(id, f.values))
    distinct = dict(zip(ids, f.values))
    text = dict(zip(distinct, map(str, distinct.values())))
    return {"n": f.n, "values": list(map(text.__getitem__, ids))}


def fields(payload, **types) -> list:
    """The named fields of a JSON object, in keyword order.

    Raises ValueError when payload is not an object, a field is missing,
    or a field is not of its JSON type; a bool is not accepted as an int.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"expected a JSON object with {sorted(types)}, got {type(payload).__name__}")
    out = []
    for key, kind in types.items():
        if key not in payload:
            raise ValueError(f"payload needs {key!r}")
        value = payload[key]
        if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
            raise ValueError(f"{key!r} must be {kind.__name__}, got {type(value).__name__}")
        out.append(value)
    return out


def function_from_dict(payload: dict) -> VertexFunction:
    """Decode a function, parsing each distinct value string once.

    A table with a non-string entry, which may be unhashable, is parsed
    entry by entry, so it fails at its first bad entry as an all-string
    table does.
    """
    n, values = fields(payload, n=int, values=list)
    parse = fraction_from_str
    if {*map(type, values)} <= {str}:
        parse = {text: fraction_from_str(text) for text in dict.fromkeys(values)}.__getitem__
    return VertexFunction(n, tuple(map(parse, values)))


def vertex_to_bitstring(code: int, n: int) -> str:
    _check_int("n", n)
    _check_int("vertex code", code, 0, (1 << n) - 1)
    return "".join("1" if code >> c & 1 else "0" for c in range(n))


def vertex_from_bitstring(text: str, n: int) -> int:
    if not isinstance(text, str) or len(text) != n or any(ch not in "01" for ch in text):
        raise ValueError(f"not an n={n} bitstring: {text!r}")
    return sum(1 << c for c, ch in enumerate(text) if ch == "1")


def vertex_set_to_list(codes, n: int) -> list[str]:
    return [vertex_to_bitstring(x, n) for x in sorted(codes)]


def vertex_set_from_list(items, n: int) -> frozenset[int]:
    return frozenset(vertex_from_bitstring(s, n) for s in items)


def spectrum_to_dict(s: SpectrumSet) -> dict:
    return {"levels": list(s.sorted_levels)}


def blueprint_to_dict(bp: Blueprint) -> dict:
    return {
        "case": bp.case,
        "odd": list(bp.odd_parts),
        "even": list(bp.even_parts),
        "r": bp.remainder,
    }


def trade_pair_to_dict(tp: TradePair) -> dict:
    return {
        "n": tp.n,
        "t0": vertex_set_to_list(tp.t0, tp.n),
        "t1": vertex_set_to_list(tp.t1, tp.n),
    }


def trade_pair_from_dict(payload: dict) -> TradePair:
    n, t0, t1 = fields(payload, n=int, t0=list, t1=list)
    return TradePair(vertex_set_from_list(t0, n), vertex_set_from_list(t1, n), n)


def affine_subspace_to_dict(sub: AffineSubspace) -> dict:
    return {
        "n": sub.n,
        "translation": vertex_to_bitstring(sub.translation, sub.n),
        "basis": [vertex_to_bitstring(b, sub.n) for b in sub.basis],
        "dimension": sub.dimension,
    }


def affine_subspace_from_dict(payload: dict) -> AffineSubspace:
    n, translation, basis = fields(payload, n=int, translation=str, basis=list)
    return AffineSubspace(
        n,
        vertex_from_bitstring(translation, n),
        tuple(vertex_from_bitstring(b, n) for b in basis),
    )


def search_report_to_dict(report: SearchReport, *, with_timing: bool = False) -> dict:
    return {
        "n": report.n,
        "i": report.i,
        "j": report.j,
        "levels": list(report.levels) if report.levels is not None else None,
        "min_support": report.min_support,
        "witness": function_to_dict(report.witness) if report.witness is not None else None,
        "classes_found": [function_to_dict(c) for c in report.classes_found],
        "matched_blueprints": [
            {"blueprint": blueprint_to_dict(bp), "class_index": idx}
            for bp, idx in report.matched_blueprints
        ],
        "ok": report.ok,
        "notes": list(report.notes),
        "elapsed": report.elapsed if with_timing else None,
        "nodes_examined": report.nodes_examined,
    }


def dumps(payload) -> str:
    """Byte-stable JSON: sorted keys, two-space indent, trailing newline."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
