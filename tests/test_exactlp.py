"""The phase-one simplex on hand-built systems, on systems that are
feasible by construction, and against the same simplex run on Fractions."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coregauge.exactlp import solve_feasible

F = Fraction


def reference_solve(n_vars, constraints):
    """The phase-one simplex of ``solve_feasible`` with a Fraction tableau:
    every pivot row divided by its pivot, the same Bland entering and
    leaving rules. The integer solver must reproduce its pivots."""
    n_struct = 2 * n_vars + sum(1 for c in constraints if c[1] != "==")
    zero = F(0)
    rows = []
    slack_at = 2 * n_vars
    for coeffs, rel, b in constraints:
        row = [zero] * (n_struct + 1)
        for j, a in enumerate(coeffs):
            if a:
                row[j] = F(a)
                row[n_vars + j] = -row[j]
        if rel != "==":
            row[slack_at] = F(1 if rel == "<=" else -1)
            slack_at += 1
        row[-1] = F(b)
        rows.append([-a for a in row] if row[-1] < 0 else row)
    basis = [n_struct + r for r in range(len(rows))]
    obj = [-sum(col, zero) for col in zip(*rows)] if rows else [zero] * (n_struct + 1)
    while True:
        enter = next((j for j in range(n_struct) if obj[j] < 0), -1)
        if enter < 0:
            break
        leave, best = -1, None
        for r, row in enumerate(rows):
            if row[enter] > 0:
                ratio = row[-1] / row[enter]
                if best is None or ratio < best or (ratio == best and basis[r] < basis[leave]):
                    leave, best = r, ratio
        prow = rows[leave]
        piv = prow[enter]
        nonzero = [j for j, a in enumerate(prow) if a]
        for j in nonzero:
            prow[j] /= piv
        for row in (*rows, obj):
            f = row[enter]
            if f and row is not prow:
                for j in nonzero:
                    row[j] -= f * prow[j]
        basis[leave] = enter
    if obj[-1] != 0:
        return None
    x = [zero] * n_vars
    for row, col in zip(rows, basis):
        if col < n_vars:
            x[col] += row[-1]
        elif col < 2 * n_vars:
            x[col - n_vars] -= row[-1]
    return x


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


small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=9)


@st.composite
def rational_systems(draw):
    """Arbitrary systems, feasible or not, with Fraction coefficients and
    right-hand sides such as 1/3 and -7/2, and denominators that differ
    from row to row."""
    n = draw(st.integers(1, 4))
    constraints = [
        (draw(st.lists(small_fractions, min_size=n, max_size=n)),
         draw(st.sampled_from(["<=", ">=", "=="])),
         draw(st.fractions(min_value=-6, max_value=6, max_denominator=8)))
        for _ in range(draw(st.integers(1, 7)))
    ]
    return n, constraints


@given(st.one_of(rational_systems(), feasible_systems()))
@settings(max_examples=200, deadline=None)
def test_integer_pivots_give_the_fraction_simplex_point(system):
    n, constraints = system
    want = reference_solve(n, constraints)
    got = solve_feasible(n, constraints)
    assert got == want
    if got is not None:
        assert satisfies(got, constraints)


def test_reference_agrees_on_a_hand_built_degenerate_system():
    # ties in the ratio test: rows 0 and 1 both allow x0 = 1/2
    constraints = [([F(2), 0], "<=", F(1)), ([F(4, 3), F(1, 3)], "<=", F(2, 3)), ([1, 1], ">=", F(1, 2))]
    assert solve_feasible(2, constraints) == reference_solve(2, constraints)
