"""The phase-one simplex on hand-built systems and on systems that are
feasible by construction."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coregauge.exactlp import solve_feasible

F = Fraction


def satisfies(point, constraints) -> bool:
    for coeffs, rel, b in constraints:
        lhs = sum((F(a) * x for a, x in zip(coeffs, point)), F(0))
        if not {"<=": lhs <= b, ">=": lhs >= b, "==": lhs == b}[rel]:
            return False
    return True


def test_each_relation_holds_exactly():
    constraints = [
        ([1, 1], "==", F(3)),
        ([1, 0], "<=", F(1, 3)),
        ([0, 1], ">=", F(5, 2)),
    ]
    x = solve_feasible(2, constraints)
    assert x is not None and satisfies(x, constraints)
    assert all(isinstance(v, Fraction) for v in x)


@pytest.mark.parametrize(
    "constraints",
    [
        [([1, 2], "==", F(-7, 2)), ([0, 1], ">=", F(-1))],
        [([1, 0], ">=", F(2)), ([-1, 0], "==", F(-2))],  # wrong (x0 = 0) without the negation
    ],
)
def test_negative_right_hand_side(constraints):
    # the row is negated so that phase one starts from a nonnegative basis
    x = solve_feasible(2, constraints)
    assert x is not None and satisfies(x, constraints)


def test_free_variable_that_must_be_negative():
    constraints = [([1], "<=", F(-5, 3)), ([1], ">=", F(-2))]
    x = solve_feasible(1, constraints)
    assert x is not None and satisfies(x, constraints)
    assert x[0] < 0


@pytest.mark.parametrize("c", [F(0), F(-3, 4), F(10)])
def test_infeasible_pair(c):
    assert solve_feasible(1, [([1], "<=", c), ([1], ">=", c + 1)]) is None


def test_empty_system_gives_zeros():
    assert solve_feasible(3, []) == [0, 0, 0]
    assert solve_feasible(0, []) == []


def test_unknown_relation():
    with pytest.raises(ValueError, match="relation"):
        solve_feasible(1, [([1], "<", F(1))])


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=7)


@st.composite
def feasible_systems(draw):
    """Rows built around a random rational point, so that it satisfies all of them."""
    n = draw(st.integers(1, 4))
    point = draw(st.lists(rationals, min_size=n, max_size=n))
    constraints = []
    for _ in range(draw(st.integers(1, 6))):
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        rel = draw(st.sampled_from(["<=", ">=", "=="]))
        value = sum((a * x for a, x in zip(coeffs, point)), F(0))
        gap = F(0) if rel == "==" else draw(st.fractions(min_value=0, max_value=3, max_denominator=5))
        constraints.append((coeffs, rel, value + gap if rel == "<=" else value - gap))
    return n, constraints


@given(feasible_systems())
@settings(max_examples=150, deadline=None)
def test_feasible_systems_are_solved_exactly(system):
    n, constraints = system
    x = solve_feasible(n, constraints)
    assert x is not None
    assert satisfies(x, constraints)
