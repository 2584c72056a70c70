"""Maxout network data model, JSON format, exact evaluation, and the
bound-attaining parameter constructions.

A unit of rank k computes max of k affine preactivation features; a layer is
a tuple of units sharing an input dimension and a bias mode; a network chains
layers.  All parameters are exact rationals.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import isqrt, prod
from typing import Sequence

from . import linalg
from .bounds import deep_lower
from .linalg import dot
from .rational import format_rational, parse_rational

WITH_BIAS = "bias"
NO_BIAS = "no_bias"

Vec = tuple[Fraction, ...]

SAMPLE_ATTEMPTS = 60  # draws sample_generic makes before it gives up


class NetworkParseError(ValueError):
    """Schema or dimension violation; the message carries the JSON path."""


@dataclass(frozen=True)
class MaxoutUnitSpec:
    weights: tuple[Vec, ...]
    biases: tuple[Fraction, ...] | None

    @property
    def rank(self) -> int:
        return len(self.weights)

    @property
    def has_atom(self) -> bool:
        """Whether two features tie on an (n-1)-dimensional face of the
        unit's argmax pieces in Q^n, the unit's atom: exactly when two of
        its features have different gradients, so no LP decides it.

        If all gradients are equal, the features differ by constants, and a
        pair ties nowhere or, for duplicates, on Q^n or nowhere: no tie has
        dimension n-1.  Otherwise no feature is the maximum everywhere, as
        it would dominate one of another gradient, so (the open sets where
        one feature is the strict maximum are dense together) two or more
        features are the strict maximum somewhere.  The closed pieces
        {f_a >= every feature} of those features cover Q^n, so two of them,
        a and b, meet in an (n-1)-face inside {f_a = f_b}, a hyperplane
        since both are strict somewhere: an atom.
        """
        return len(set(self.weights)) >= 2

    def integer_gradients(self) -> list[list[int]]:
        """The weight vectors times one positive integer, the lcm of their
        denominators: the same argmax sets, ranks and tie flats, in
        integers."""
        n = len(self.weights[0])
        ints, _ = linalg.integer_row([x for w in self.weights for x in w])
        return [ints[a * n : (a + 1) * n] for a in range(self.rank)]

    def features(self) -> list[tuple[Vec, Fraction]]:
        """(weight vector, bias) per preactivation feature; bias 0 when absent."""
        if self.biases is None:
            return [(w, Fraction(0)) for w in self.weights]
        return list(zip(self.weights, self.biases))

    def argmax(self, x: Sequence[Fraction]) -> tuple[int, ...]:
        """The 0-based features of largest value at x, in order."""
        values = [dot(w, x) + b for w, b in self.features()]
        top = max(values)
        return tuple(a for a, v in enumerate(values) if v == top)


@dataclass(frozen=True)
class LayerSpec:
    input_dim: int
    units: tuple[MaxoutUnitSpec, ...]
    bias_mode: str

    def __post_init__(self):
        if self.bias_mode not in (WITH_BIAS, NO_BIAS):
            raise ValueError(f"unknown bias mode {self.bias_mode!r}")
        for u in self.units:
            if u.rank < 1:
                raise ValueError("unit rank must be >= 1")
            for w in u.weights:
                if len(w) != self.input_dim:
                    raise ValueError("weight length != layer input_dim")
            has_bias = u.biases is not None
            if has_bias != (self.bias_mode == WITH_BIAS):
                raise ValueError("unit bias presence inconsistent with layer bias mode")
            if has_bias and len(u.biases) != u.rank:
                raise ValueError("biases length != rank")

    @property
    def width(self) -> int:
        return len(self.units)

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(u.rank for u in self.units)


@dataclass(frozen=True)
class NetworkSpec:
    input_dim: int
    layers: tuple[LayerSpec, ...]

    def __post_init__(self):
        if not self.layers:
            raise ValueError("a network needs at least one layer")
        expect = self.input_dim
        for l, layer in enumerate(self.layers):
            if layer.input_dim != expect:
                raise ValueError(f"layer {l} input_dim {layer.input_dim} != {expect}")
            expect = layer.width


def unit(weights: Sequence[Sequence], biases: Sequence | None = None) -> MaxoutUnitSpec:
    w = tuple(tuple(parse_rational(v, "weight") for v in row) for row in weights)
    b = None if biases is None else tuple(parse_rational(v, "bias") for v in biases)
    return MaxoutUnitSpec(w, b)


def layer(units: Sequence[MaxoutUnitSpec], input_dim: int | None = None) -> LayerSpec:
    if input_dim is None:
        input_dim = len(units[0].weights[0])
    mode = WITH_BIAS if units[0].biases is not None else NO_BIAS
    return LayerSpec(input_dim, tuple(units), mode)


def single_layer_network(l: LayerSpec) -> NetworkSpec:
    return NetworkSpec(l.input_dim, (l,))


def homogenize(l: LayerSpec) -> LayerSpec:
    """The no-bias layer in Q^(n+1) whose features are (w, b), one per
    feature (w, b) of l; l is its slice at last coordinate 1."""
    units = tuple(
        MaxoutUnitSpec(tuple(w + (b,) for w, b in u.features()), None) for u in l.units
    )
    return LayerSpec(l.input_dim + 1, units, NO_BIAS)


# ---------------------------------------------------------------------------
# JSON format


def _reject_float(s):
    raise NetworkParseError(f"float literal {s!r} not accepted; use 'p/q' strings")


def load_json(text: str):
    """The JSON document of a network or point-set file; bad JSON and float
    literals raise NetworkParseError."""
    try:
        return json.loads(text, parse_float=_reject_float)
    except json.JSONDecodeError as exc:
        raise NetworkParseError(f"invalid JSON: {exc}") from exc


def json_rational(value, path: str) -> Fraction:
    """parse_rational, raising NetworkParseError."""
    try:
        return parse_rational(value, path)
    except ValueError as exc:
        raise NetworkParseError(str(exc)) from exc


def parse_network(text: str) -> NetworkSpec:
    doc = load_json(text)
    if not isinstance(doc, dict):
        raise NetworkParseError("$: expected an object")
    n0 = doc.get("input_dim")
    if not isinstance(n0, int) or isinstance(n0, bool) or n0 < 1:
        raise NetworkParseError("$.input_dim: expected a positive integer")
    layers_doc = doc.get("layers")
    if not isinstance(layers_doc, list) or not layers_doc:
        raise NetworkParseError("$.layers: expected a nonempty array")
    layers = []
    expect = n0
    for li, ldoc in enumerate(layers_doc):
        lpath = f"$.layers[{li}]"
        if not isinstance(ldoc, dict):
            raise NetworkParseError(f"{lpath}: expected an object")
        mode = ldoc.get("bias_mode")
        if mode not in (WITH_BIAS, NO_BIAS):
            raise NetworkParseError(f"{lpath}.bias_mode: expected 'bias' or 'no_bias'")
        units_doc = ldoc.get("units")
        if not isinstance(units_doc, list) or not units_doc:
            raise NetworkParseError(f"{lpath}.units: expected a nonempty array")
        units = []
        for ui, udoc in enumerate(units_doc):
            upath = f"{lpath}.units[{ui}]"
            if not isinstance(udoc, dict):
                raise NetworkParseError(f"{upath}: expected an object")
            wdoc = udoc.get("weights")
            if not isinstance(wdoc, list) or not wdoc:
                raise NetworkParseError(f"{upath}.weights: expected a nonempty array (rank >= 1)")
            weights = []
            for ri, row in enumerate(wdoc):
                rpath = f"{upath}.weights[{ri}]"
                if not isinstance(row, list) or len(row) != expect:
                    raise NetworkParseError(f"{rpath}: expected an array of length {expect}")
                weights.append(tuple(json_rational(v, f"{rpath}[{ci}]") for ci, v in enumerate(row)))
            bdoc = udoc.get("biases")
            if mode == NO_BIAS:
                if bdoc is not None:
                    raise NetworkParseError(f"{upath}.biases: not allowed in a no_bias layer")
                biases = None
            else:
                if not isinstance(bdoc, list) or len(bdoc) != len(weights):
                    raise NetworkParseError(
                        f"{upath}.biases: expected an array of length {len(weights)}"
                    )
                biases = tuple(json_rational(v, f"{upath}.biases[{bi}]") for bi, v in enumerate(bdoc))
            units.append(MaxoutUnitSpec(tuple(weights), biases))
        layers.append(LayerSpec(expect, tuple(units), mode))
        expect = len(units)
    return NetworkSpec(n0, tuple(layers))


def serialize_network(net: NetworkSpec) -> str:
    doc = {
        "input_dim": net.input_dim,
        "layers": [
            {
                "bias_mode": l.bias_mode,
                "units": [
                    {
                        "weights": [[format_rational(v) for v in w] for w in u.weights],
                        **(
                            {"biases": [format_rational(b) for b in u.biases]}
                            if u.biases is not None
                            else {}
                        ),
                    }
                    for u in l.units
                ],
            }
            for l in net.layers
        ],
    }
    return json.dumps(doc, sort_keys=True)


# ---------------------------------------------------------------------------
# Evaluation


def evaluate_unit(u: MaxoutUnitSpec, x: Sequence[Fraction]) -> Fraction:
    return max(dot(w, x) + b for w, b in u.features())


def evaluate_layer(l: LayerSpec, x: Sequence[Fraction]) -> Vec:
    if len(x) != l.input_dim:
        raise ValueError("input dimension mismatch")
    return tuple(evaluate_unit(u, x) for u in l.units)


def evaluate(net: NetworkSpec, x: Sequence[Fraction]) -> Vec:
    if len(x) != net.input_dim:
        raise ValueError("input dimension mismatch")
    y = tuple(parse_rational(v, "input") for v in x)
    for l in net.layers:
        y = evaluate_layer(l, y)
    return y


def activation_pattern(l: LayerSpec, x: Sequence[Fraction]) -> tuple[frozenset[int], ...]:
    """Per unit, the full 1-based set of features attaining the max at x."""
    if len(x) != l.input_dim:
        raise ValueError("input dimension mismatch")
    return tuple(frozenset(a + 1 for a in u.argmax(x)) for u in l.units)


# ---------------------------------------------------------------------------
# Bound-attaining constructions


def _primes_above(bound: int, count: int) -> list[int]:
    """The count smallest primes above max(bound, 2), by trial division."""
    out = []
    p = max(bound, 2)
    while len(out) < count:
        p += 1
        if all(p % i for i in range(2, isqrt(p) + 1)):
            out.append(p)
    return out


def _moment_vector(t: int, n: int) -> Vec:
    return tuple(Fraction(t**j) for j in range(n))


def _shift_denominators(n: int, ts: list[int]) -> list[int]:
    """Prime denominators for the per-unit breakpoint shifts.

    Any n+1 breakpoint hyperplanes of distinct units are concurrent only if an
    integer combination of moment-matrix minors cancels against the shifts;
    primes larger than every minor make that impossible.  A minor's rows are
    (1, t, ..., t^(k-1)) for k of the ts, so it is a Vandermonde determinant:
    up to sign, the product of the differences of those ts.
    """
    m = len(ts)
    bound = 2
    if n >= 1 and m >= 1:
        for sub in combinations(ts, min(n, m)):
            bound = max(bound, abs(prod(b - a for a, b in combinations(sub, 2))))
    return _primes_above(bound, m)


def construct_shallow_optimal(n: int, ranks: Sequence[int], seed: int) -> LayerSpec:
    """A with-bias layer whose region count attains the shallow maximum.

    Each unit's indecision set is k_i - 1 parallel hyperplanes: features
    r * <w_i, x> - r(r-1)/2 - r*d_i for r = 0..k_i-1, the ladder along w_i
    with kinks r + d_i for r = 0..k_i-2 (_ladder_unit), with moment-curve
    normals w_i = (1, t_i, ..., t_i^(n-1)) for distinct positive integers t_i
    (any n of them are linearly independent) and shifts d_i = 1/p_i for large
    primes p_i (no n+1 hyperplanes of distinct units meet).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    ranks = list(ranks)
    if any(k < 2 for k in ranks):
        raise ValueError("ranks must all be >= 2 (rank-1 units contribute nothing)")
    m = len(ranks)
    rng = random.Random(seed)
    ts = sorted(rng.sample(range(1, 4 * m + 1), m))
    primes = _shift_denominators(n, ts)
    units = []
    for i, k in enumerate(ranks):
        delta = Fraction(1, primes[i])
        units.append(_ladder_unit(_moment_vector(ts[i], n), [r + delta for r in range(k - 1)], 1, 0))
    return LayerSpec(n, tuple(units), WITH_BIAS)


def construct_shallow_optimal_nobias(n: int, ranks: Sequence[int], seed: int) -> LayerSpec:
    """A no-bias layer attaining the no-bias shallow maximum.

    Embeds the (n-1)-input with-bias construction through the last coordinate:
    a feature with weights w and bias b becomes the linear feature (w, b).
    """
    if n < 2:
        raise ValueError("no-bias construction needs n >= 2 (one input allows at most 2 regions)")
    return homogenize(construct_shallow_optimal(n - 1, ranks, seed))


def _ladder_unit(
    v: Sequence[Fraction], kinks: Sequence[Fraction], jump: int | Fraction, init_slope: int | Fraction
) -> MaxoutUnitSpec:
    """The unit whose features are s * v for the slopes s of the convex
    piecewise-linear function of <v, x> with the given kinks (all with the
    same slope jump), initial slope, and value 0 at the origin: one feature
    per kink, plus one.  The intercepts depend on the kinks and the jump
    alone."""
    slopes = [init_slope + r * jump for r in range(len(kinks) + 1)]
    biases = [Fraction(0)]
    for c in kinks:
        biases.append(biases[-1] - jump * c)
    return MaxoutUnitSpec(tuple(tuple(s * a for a in v) for s in slopes), tuple(biases))


def construct_deep_lower(n0: int, widths: Sequence[int], rank: int, seed: int) -> NetworkSpec:
    """A with-bias deep network realizing the deep lower-bound formula.

    Hidden layers hold n groups of units whose alternating-sign sums are
    zig-zag maps [0,1] -> [0,1]; the (absorbed) linear folds feed the next
    layer; the final layer is a parallel-hyperplane layer with all breakpoints
    inside the image cube and no zero slopes, so every fold stays visible.
    The replication dimension n, and the refusal of a rank below 2 or an
    architecture with no admissible n, are bounds.deep_lower's.
    """
    widths = list(widths)
    n = deep_lower(n0, widths, rank).n
    hidden = widths[:-1]
    rng = random.Random(seed)
    k = rank
    layers = []
    # fold_rows[i]: the row vector producing folded coordinate z_i from the
    # previous layer's outputs (for layer 1, from the network input).
    fold_rows: list[Vec] = []
    for i in range(n):
        e = [Fraction(0)] * n0
        e[i] = Fraction(1)
        fold_rows.append(tuple(e))

    for w in hidden:
        p = w // n
        q = p * (k - 1)
        sigma = Fraction(q + 1)
        jump = 2 * sigma
        breakpoints = [Fraction(r, q + 1) for r in range(1, q + 1)]
        units: list[MaxoutUnitSpec] = []
        new_fold: list[list[Fraction]] = [[Fraction(0)] * w for _ in range(n)]
        for i in range(n):
            for j in range(p):  # j even (0-based) -> "+" unit, odd -> "-"
                a = j // 2
                if j % 2 == 0:
                    kinks = [breakpoints[2 * (a * (k - 1) + s) + 1] for s in range(k - 1)]
                    init = sigma if a == 0 else Fraction(0)
                else:
                    kinks = [breakpoints[2 * (a * (k - 1) + s)] for s in range(k - 1)]
                    init = Fraction(0)
                units.append(_ladder_unit(fold_rows[i], kinks, jump, init))
                new_fold[i][len(units) - 1] = Fraction(1 if j % 2 == 0 else -1)
        layers.append(LayerSpec(len(fold_rows[0]), tuple(units), WITH_BIAS))
        fold_rows = [tuple(row) for row in new_fold]

    # Final layer: n_L parallel-hyperplane units over the folded coordinates,
    # slopes (r+1) * w_i (never zero along any active direction), breakpoints
    # interleaved strictly inside the unit cube's image interval.
    n_last = widths[-1]
    ts = sorted(rng.sample(range(1, 4 * n_last + 1), n_last))
    nb = n_last * (k - 1)
    units = []
    for i in range(n_last):
        wvec = _moment_vector(ts[i], n)
        total = sum(wvec, Fraction(0))
        folded = [sum(wvec[d] * fold_rows[d][c] for d in range(n)) for c in range(len(fold_rows[0]))]
        betas = [total * Fraction(i + 1 + r * n_last, nb + 1) for r in range(k - 1)]
        units.append(_ladder_unit(folded, betas, 1, 1))
    layers.append(LayerSpec(len(fold_rows[0]), tuple(units), WITH_BIAS))
    return NetworkSpec(n0, tuple(layers))


def sample_generic(
    n: int,
    ranks: Sequence[int],
    bias_mode: str,
    seed: int,
    magnitude: int = 12,
) -> LayerSpec:
    """Seeded integer-grid layer certified generic.

    The certificate requires every rank->=2 unit to contribute an atom and
    the arrangement to be simple.  A no-bias layer's own arrangement is
    checked.  A with-bias layer is checked through its projectivization
    only: the homogenized central arrangement extended by the hyperplane at
    infinity (affine simplicity alone admits parallel atoms across units,
    which defeat the bounded-region floor).  That implies affine
    simplicity: each affine atom is the t = 1 slice of a homogenized atom,
    so a nonempty affine intersection of j atoms from distinct units is
    the t = 1 slice of the intersection C of their homogenized atoms, and C
    is not {0}.  Projectivized simplicity then gives dim C = n+1-j >= 1 (so
    n+1 such atoms never meet), and the slice, which meets t > 0, has
    dimension n-j.  A draw whose checked central layer has transverse tie
    flats (flats_transverse) is accepted with no LP; any other draw is
    decided by build_atoms and is_simple (_generic_by_lp).  Both take the
    draw as it is and projectivize a with-bias one themselves.  Resamples
    until the certificate passes; raises after SAMPLE_ATTEMPTS draws with a
    hint to increase the magnitude.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = random.Random(seed)
    for _ in range(SAMPLE_ATTEMPTS):
        units = []
        for k in ranks:
            weights = tuple(
                tuple(Fraction(rng.randint(-magnitude, magnitude)) for _ in range(n))
                for _ in range(k)
            )
            biases = (
                tuple(Fraction(rng.randint(-magnitude, magnitude)) for _ in range(k))
                if bias_mode == WITH_BIAS
                else None
            )
            units.append(MaxoutUnitSpec(weights, biases))
        cand = LayerSpec(n, tuple(units), bias_mode)
        if flats_transverse(cand) or _generic_by_lp(cand):
            return cand
    raise ValueError(
        f"no simple layer found in {SAMPLE_ATTEMPTS} samples; try a larger magnitude (B > {magnitude})"
    )


def _generic_by_lp(l: LayerSpec) -> bool:
    """sample_generic's certificate by LPs: every rank->=2 unit of l has an
    atom, which its gradients decide with no LP (MaxoutUnitSpec.has_atom),
    and l's central layer (projectivize) is simple."""
    from .arrangement import build_atoms, is_simple

    if any(u.rank >= 2 and not u.has_atom for u in l.units):
        return False
    return is_simple(build_atoms(projectivize(l))).simple


def flats_transverse(l: LayerSpec) -> bool:
    """Whether the tie flats of the units of l's central layer, which
    projectivize builds here from a with-bias l, are transverse, by
    integer ranks alone: if so, the central layer's arrangement is simple
    and every unit of rank >= 2 of it, and so of l, has an atom.

    In Q^N, a unit's flat for a subset S of 2 to min(k, N+1) of its k
    features is the rows f_s0 - f_c, c in S minus its first feature s0: the
    points where S ties.  A larger S contains N+1 features whose flat has
    rank N, so it needs no check.  The flats are transverse when every
    tuple of flats from distinct units, single flats included, has stacked
    rank min(rows, N); a tuple of N rows or more has rank N, and so has
    every extension of it, which is not walked.

    A positive scale changes no rank, so each unit's gradients are scaled
    to integers once (MaxoutUnitSpec.integer_gradients), and every flat is
    built once as integer difference rows.  The walk carries each tuple's
    reduction and extends it by one flat for each longer tuple
    (linalg.extend_reduction), whose rank is its number of pivots: no
    stack is reduced from scratch.

    Simplicity.  Take closed atoms of j distinct units and x != 0 in their
    intersection C, with T_i the argmax set of unit i at x.  Each T_i holds
    its atom's pair and ties at x, so x lies on every flat of T_i.  The
    flat of N+1 features meets only at 0, so |T_i| <= N+1, and the stacked
    flats of the T_i have R = sum(|T_i| - 1) rows and, as x != 0, rank
    below N: the rows are independent and R < N.  Near x only the features
    of T_i compete, so C is x + M^-1(Q_1 x ... x Q_j), with M the stacked
    rows, which map Q^N onto Q^R, and Q_i the cone of dimension |T_i| - 2
    where the atom's pair is the argmax within T_i.  So dim C = N - R +
    sum(|T_i| - 2) = N - j; and j >= N, as R >= j, leaves C = {0}.

    Atoms.  Two features of a unit with one gradient give a pair flat of
    rank 0 in a no-bias layer.  In a projectivized layer,
    features (w, b) and (w, b') give the pair flat (0, b - b'), which
    stacks with the flat (0, 1) of the unit at infinity to rank 1 < 2.  So
    each unit of the no-bias layer, or of the with-bias layer that was
    projectivized, has features of distinct gradients, and so an atom
    (MaxoutUnitSpec.has_atom).
    """
    central = projectivize(l)
    n = central.input_dim
    flats = [
        [
            [[x - y for x, y in zip(g[s[0]], g[c])] for c in s[1:]]
            for size in range(2, min(len(g), n + 1) + 1)
            for s in combinations(range(len(g)), size)
        ]
        for g in (u.integer_gradients() for u in central.units)
    ]

    def transverse(start: int, red: tuple) -> bool:
        # red reduces a tuple that passed with fewer than N rows, so with
        # full rank: its rows are its pivots.
        for i in range(start, len(flats)):
            for flat in flats[i]:
                stacked = linalg.extend_reduction(red, flat)
                rows = len(red[1]) + len(flat)
                if len(stacked[1]) < min(rows, n):
                    return False
                if rows < n and not transverse(i + 1, stacked):
                    return False
        return True

    return transverse(0, ([], [], 1))


def projectivize(l: LayerSpec) -> LayerSpec:
    """The central layer of l: a no-bias layer as it is, and a with-bias
    layer's homogenization plus a unit at infinity, with the features t
    and 0 (in that order), tying on the hyperplane at infinity, as a
    no-bias layer in Q^(n+1).  sample_generic's certificate and the
    region count's fan walk read it."""
    if l.bias_mode != WITH_BIAS:
        return l
    h = homogenize(l)
    infinity = MaxoutUnitSpec(
        (
            tuple(Fraction(0) for _ in range(l.input_dim)) + (Fraction(1),),
            tuple(Fraction(0) for _ in range(l.input_dim + 1)),
        ),
        None,
    )
    return LayerSpec(h.input_dim, h.units + (infinity,), NO_BIAS)


# ---------------------------------------------------------------------------
# Restrictions


def restrict_layer(l: LayerSpec, offset: Sequence[Fraction], basis: Sequence[Sequence[Fraction]]) -> LayerSpec:
    """The layer as seen on the affine subspace {offset + basis . u}.

    A linear offset of zero keeps a no-bias layer central; any other offset
    produces a with-bias layer.
    """
    offset = tuple(parse_rational(v, "offset") for v in offset)
    basis = [tuple(parse_rational(v, "basis") for v in col) for col in basis]
    if len(offset) != l.input_dim or any(len(col) != l.input_dim for col in basis):
        raise ValueError("restriction dimension mismatch")
    new_dim = len(basis)
    central = all(v == 0 for v in offset) and l.bias_mode == NO_BIAS
    units = []
    for u in l.units:
        weights = []
        biases = []
        for w, b in u.features():
            weights.append(tuple(dot(w, col) for col in basis))
            biases.append(dot(w, offset) + b)
        units.append(
            MaxoutUnitSpec(tuple(weights), None if central else tuple(biases))
        )
    return LayerSpec(new_dim, tuple(units), NO_BIAS if central else WITH_BIAS)


def restrict_network_to_line(net: NetworkSpec, point: Sequence[Fraction], direction: Sequence[Fraction]) -> NetworkSpec:
    """One-input network t -> net(point + t * direction)."""
    first = restrict_layer(net.layers[0], point, [direction])
    return NetworkSpec(1, (first,) + net.layers[1:])


def count_regions_line(net: NetworkSpec) -> int:
    """Exact number of linear regions of a one-input network.

    One left-to-right pass over pieces.  A piece is an open interval of the
    line, stored as its left end (None for -inf; it ends where the next
    piece starts), with the affine map t -> p + t * q of the layers seen so
    far.  Invariant: on every piece each unit of each layer seen so far has
    one constant argmax set, so (p, q) is the network's prefix on all of
    it.  A layer splits a piece at the ties, strictly inside it, of the
    one-input layer that the piece sees; a tie at a sub-piece's interior
    point holds on the whole sub-piece, so any argmax feature there gives
    its next (p, q).  Adjacent pieces lie in one region iff their final
    maps are equal.
    """
    if net.input_dim != 1:
        raise ValueError("count_regions_line needs a one-input network")
    pieces = [(None, (Fraction(0),), (Fraction(1),))]
    for l in net.layers:
        split = []
        rights = [piece[0] for piece in pieces[1:]] + [None]
        for (left, p, q), right in zip(pieces, rights):
            units = [[(b, w[0]) for w, b in u.features()] for u in restrict_layer(l, p, [q]).units]
            ties = {
                (d0 - c0) / (c1 - d1)
                for feats in units
                for (c0, c1), (d0, d1) in combinations(feats, 2)
                if c1 != d1
            }
            ends = [left] + sorted(
                x for x in ties if (left is None or left < x) and (right is None or x < right)
            )
            for a, b in zip(ends, ends[1:] + [right]):
                t = _interior_point(a, b)
                best = [max(feats, key=lambda f: f[0] + f[1] * t) for feats in units]
                split.append((a, tuple(c0 for c0, _ in best), tuple(c1 for _, c1 in best)))
        pieces = split
    return 1 + sum(a[1:] != b[1:] for a, b in zip(pieces, pieces[1:]))


def _interior_point(left: Fraction | None, right: Fraction | None) -> Fraction:
    """A point of the open interval (left, right); None is -inf or +inf."""
    if left is None:
        return Fraction(0) if right is None else right - 1
    return left + 1 if right is None else (left + right) / 2
