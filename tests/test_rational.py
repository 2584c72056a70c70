"""Every public constructor coerces its numbers with parse_rational, so a
float or a bool is rejected wherever it enters, and ints, Fractions and
'p/q' strings are accepted."""

from fractions import Fraction

import pytest

from tropic.arrangement import bounded_region_gap
from tropic.geometry import ConstraintSystem
from tropic.minkowski import point_set
from tropic.network import evaluate, layer, restrict_layer, single_layer_network, unit
from tropic.rational import parse_rational

CENTRAL = layer([unit([[1, 0], [0, 1]]), unit([[1, 1], [0, 0]])])


def test_fraction_is_returned_as_it_is():
    q = Fraction(2, 3)
    assert parse_rational(q) is q
    assert parse_rational(3) == parse_rational("3") == 3
    assert parse_rational("-2/6") == Fraction(-1, 3)


@pytest.mark.parametrize("bad, match", [(0.5, "float"), (True, "boolean")], ids=["float", "bool"])
@pytest.mark.parametrize(
    "build",
    [
        lambda v: unit([[v, 1]]),
        lambda v: unit([[0, 1]], [v]),
        lambda v: ConstraintSystem.build(1, inequalities=[((v,), 0)]),
        lambda v: ConstraintSystem.build(1, equalities=[((1,), v)]),
        lambda v: point_set([[v, 1]]),
        lambda v: restrict_layer(CENTRAL, (v, 0), [(1, 0)]),
        lambda v: restrict_layer(CENTRAL, (0, 0), [(v, 0)]),
        lambda v: evaluate(single_layer_network(CENTRAL), (v, 0)),
        lambda v: bounded_region_gap(CENTRAL, (v, 1)),
    ],
    ids=[
        "unit-weight",
        "unit-bias",
        "build-coefficient",
        "build-rhs",
        "point_set",
        "restrict_layer-offset",
        "restrict_layer-basis",
        "evaluate",
        "bounded_region_gap",
    ],
)
def test_public_constructors_reject_floats_and_bools(build, bad, match):
    with pytest.raises(ValueError, match=match):
        build(bad)


def test_exact_numbers_are_accepted_alike():
    assert unit([[1, "1/2"]], ["-3"]) == unit([[Fraction(1), Fraction(1, 2)]], [Fraction(-3)])
    assert point_set([["1/3", 2]]) == point_set([[Fraction(1, 3), 2]])
    assert ConstraintSystem.build(1, [(("2",), "1/2")]) == ConstraintSystem.build(
        1, [((Fraction(2),), Fraction(1, 2))]
    )
    assert evaluate(single_layer_network(CENTRAL), ("1/2", 0)) == (Fraction(1, 2), Fraction(1, 2))


def test_empty_point_set_is_a_value_error():
    with pytest.raises(ValueError, match="at least one point"):
        point_set([])


def test_a_list_is_not_a_rational():
    with pytest.raises(ValueError) as info:
        parse_rational([1, 2], "$.x")
    assert type(info.value) is ValueError and str(info.value) == "$.x: expected rational, got list"
