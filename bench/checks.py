"""Independent checks of tropic's CLI reports.

Everything here is computed from the paper's closed forms with exact integer
and Fraction arithmetic.  Nothing imports tropic: no LP, no `tropic.bounds`,
no tropic parser.  Below, e_j means e_j(k_1 - 1, ..., k_m - 1).

For a `construct shallow-max` layer with n inputs and ranks k_1..k_m:

- regions = poset elements = upper vertices of the lifted Minkowski sum
  = sum_{j<=n} e_j;
- bounded regions = |sum_{j<=n} (-1)^j e_j|, for m >= n;
- s-dimensional faces f_s = sum_{j=n-s}^{n} C(j, n-s) e_j;
- Minkowski-sum points = prod k_i, vertices = C(m-1, n) + regions,
  for m >= n+1.

Each `check_*` function returns a list of error strings; an empty list
means the job's output passed.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb, prod


def elementary_symmetric(values) -> list[int]:
    """[e_0, ..., e_m] of the given integers."""
    e = [1]
    for v in values:
        e = [a + v * b for a, b in zip(e + [0], [0] + e)]
    return e


def _e(n: int, ranks) -> list[int]:
    e = elementary_symmetric([k - 1 for k in ranks])
    return (e + [0] * (n + 1))[: n + 1]


def shallow_regions(n: int, ranks) -> int:
    return sum(_e(n, ranks))


def bounded_regions(n: int, ranks) -> int:
    if len(ranks) < n:
        raise ValueError("the bounded-region formula needs m >= n")
    return abs(sum((-1) ** j * v for j, v in enumerate(_e(n, ranks))))


def face_counts(n: int, ranks) -> list[int]:
    """[f_0, ..., f_n]; f_n is the region count."""
    e = _e(n, ranks)
    return [sum(comb(j, n - s) * e[j] for j in range(n - s, n + 1)) for s in range(n + 1)]


def minkowski_vertices(n: int, ranks) -> int:
    if len(ranks) < n + 1:
        raise ValueError("the vertex formula needs m >= n+1")
    return comb(len(ranks) - 1, n) + shallow_regions(n, ranks)


# ---------------------------------------------------------------------------
# Layers, read without tropic's parser


def _rational(v) -> Fraction:
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise ValueError(f"not an exact rational: {v!r}")
    return Fraction(v)


def parse_layer(text: str):
    """(input_dim, bias_mode, units) with units as lists of (weights, bias)."""
    doc = json.loads(text)
    if len(doc["layers"]) != 1:
        raise ValueError("expected a single-layer network")
    layer = doc["layers"][0]
    units = []
    for u in layer["units"]:
        weights = [tuple(_rational(v) for v in row) for row in u["weights"]]
        biases = [_rational(b) for b in u.get("biases", [0] * len(weights))]
        units.append(list(zip(weights, biases)))
    return doc["input_dim"], layer["bias_mode"], units


def argmax_sets(units, x) -> list[frozenset[int]]:
    """Per unit, the 1-based features attaining the max at x, exactly."""
    out = []
    for feats in units:
        vals = [sum((w * v for w, v in zip(weights, x)), Fraction(0)) + b for weights, b in feats]
        top = max(vals)
        out.append(frozenset(i + 1 for i, v in enumerate(vals) if v == top))
    return out


def _expect(errors: list[str], what: str, got, want):
    if got != want:
        errors.append(f"{what}: got {got!r}, expected {want!r}")


# ---------------------------------------------------------------------------
# Per-workload checks


def check_pattern_count(report: dict, n: int, ranks) -> list[str]:
    errors: list[str] = []
    res = report["results"]["pattern"]
    _expect(errors, "regions", res["regions"], shallow_regions(n, ranks))
    _expect(errors, "bounded_regions", res["bounded_regions"], bounded_regions(n, ranks))
    return errors


def check_poset_cells(dump: dict, cells: dict, layer_text: str, n: int, ranks) -> list[str]:
    errors: list[str] = []
    regions = shallow_regions(n, ranks)
    faces = face_counts(n, ranks)
    _expect(errors, "poset elements", len(dump["elements"]), regions)
    _expect(errors, "poset regions", dump["regions"], regions)
    _expect(errors, "poset faces", [dump["faces"][str(s)] for s in range(n)], faces[:n])
    hist = [0] * (n + 1)
    for c in cells["cells"]:
        hist[c["dim"]] += 1
    _expect(errors, "cell dimension histogram", hist, faces)
    bounded = sum(1 for c in cells["cells"] if c["dim"] == n and c["bounded"])
    _expect(errors, "bounded regions among cells", bounded, bounded_regions(n, ranks))
    _, _, units = parse_layer(layer_text)
    for c in cells["cells"]:
        x = [Fraction(v) for v in c["witness"]]
        sig = [frozenset(t) for t in c["signature"]]
        if argmax_sets(units, x) != sig:
            errors.append(f"witness {c['witness']} does not realize signature {c['signature']}")
    return errors


def check_minkowski_dual(report: dict, n: int, ranks) -> list[str]:
    errors: list[str] = []
    res = report["results"]
    _expect(errors, "points", len(res["points"]), prod(ranks))
    _expect(errors, "upper vertices", res["upper_vertices"], shallow_regions(n, ranks))
    _expect(errors, "vertices", res["vertices"], minkowski_vertices(n, ranks))
    return errors


def check_sampled_layer(layer_text: str, n: int, ranks, magnitude: int) -> list[str]:
    """Shape, bias mode and integer entries within +-magnitude."""
    errors: list[str] = []
    dim, mode, units = parse_layer(layer_text)
    _expect(errors, "input_dim", dim, n)
    _expect(errors, "bias_mode", mode, "bias")
    _expect(errors, "ranks", [len(u) for u in units], list(ranks))
    for u in units:
        for weights, b in u:
            for v in weights + (b,):
                if v.denominator != 1 or abs(v) > magnitude:
                    errors.append(f"entry {v} is not an integer within +-{magnitude}")
    return errors


def check_counter_agreement(counts: dict, n: int, ranks) -> list[str]:
    """The pattern, poset and dual counts agree and respect the sharp bound."""
    errors: list[str] = []
    if len(set(counts.values())) != 1:
        errors.append(f"region counters disagree: {counts}")
    bound = shallow_regions(n, ranks)
    for name, v in counts.items():
        if v > bound:
            errors.append(f"{name} count {v} exceeds the sharp bound {bound}")
    return errors
