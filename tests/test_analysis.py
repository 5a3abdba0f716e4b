import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from coregauge.analysis import (
    core_check,
    exact_core_solve,
    iter_core_rows,
    lipschitz_scan,
    named_allocator,
    probe_deltas,
)
from coregauge.games import ROOT, Allocation, GameKind, l1_distance
from coregauge.instances import (
    gen_path_pair_zero_ends,
    gen_path_uniform,
    gen_random,
)
from coregauge.matching import matching_core_allocate, matching_raw_sensitivity_bound
from coregauge.mst import mst_core_allocate, mst_raw_sensitivity_bound
from coregauge.oracles import agents_of, char_table, char_value, coalition_values
from coregauge.shapley import matching_lower_bound_value

from conftest import matching_instance, mst_instance


def test_core_check_single_edge_pass():
    inst = matching_instance(2, [(0, 1, 1.0)])
    report = core_check(inst, Allocation.of([0.5, 0.5]), 0.25)
    assert report.passed
    assert report.direction == "welfare_lower"
    assert report.grand_residual <= 1e-12


def test_core_check_accepts_exact_core_point_of_the_path():
    inst = gen_path_uniform(5)
    report = core_check(inst, Allocation.of([0, 1, 0, 1, 0]), 1.0)
    assert report.passed


def test_core_check_flags_the_wrong_core_point_under_zeroed_ends():
    # the stale point pays out 2 but the zeroed instance is only worth 1
    _, zeroed = gen_path_pair_zero_ends(5)
    report = core_check(zeroed, Allocation.of([0, 1, 0, 1, 0]), 1.0)
    assert not report.passed
    assert report.grand_residual == pytest.approx(1.0)


def test_core_check_names_the_first_nan_slack_as_the_worst():
    # {0, 1} is allocated inf and costs inf; the singletons have finite slacks
    inst = mst_instance(3, [(ROOT, v, 1e308) for v in range(3)])
    report = core_check(inst, Allocation.of([1.7e308, 1.7e308, -1.7e308]), 1.0)
    assert report.worst_subset == (0, 1)
    assert math.isnan(report.worst_slack)
    assert not report.passed


def test_core_check_cost_direction():
    inst = mst_instance(2, [(ROOT, 0, 1.0), (ROOT, 1, 4.0), (0, 1, 2.0)])
    x = mst_core_allocate(inst, inst.weights)
    assert core_check(inst, x, 4.0).passed
    # a grossly unfair split must fail the cost check at alpha 1
    report = core_check(inst, Allocation.of([3.0, 0.0]), 1.0)
    assert not report.passed
    assert report.direction == "cost_upper"
    assert report.worst_subset == (0,)


CORE_ALLOCATORS = {
    GameKind.MATCHING: (lambda inst: matching_core_allocate(inst, inst.weights, 0.25), 0.25),
    GameKind.MIN_SPANNING_TREE: (lambda inst: mst_core_allocate(inst, inst.weights), 4.0),
}


def _scaled(inst, c):
    return inst.with_weights([c * w for w in inst.weights])


@pytest.mark.parametrize("c", [1e6, 1e12, 1e300])
@pytest.mark.parametrize("kind", [GameKind.MATCHING, GameKind.MIN_SPANNING_TREE])
def test_core_allocators_pass_core_check_at_every_weight_scale(kind, c):
    # float sums of c-sized shares are off by about c * eps, far above the
    # absolute tolerances once c is large; the summation allowance covers it
    allocate, alpha = CORE_ALLOCATORS[kind]
    for seed in range(16):
        inst = _scaled(gen_random(kind, 2 + seed % 7, 0.5, 10.0, 500 + seed), c)
        report = core_check(inst, allocate(inst), alpha)
        assert report.passed, (seed, report)


@pytest.mark.parametrize("c", [1e6, 1e12, 1e300])
@pytest.mark.parametrize("kind", [GameKind.MATCHING, GameKind.MIN_SPANNING_TREE])
def test_an_allocation_failing_core_check_fails_at_every_weight_scale(kind, c):
    allocate, alpha = CORE_ALLOCATORS[kind]
    for seed in range(16):
        inst = gen_random(kind, 2 + seed % 7, 0.5, 10.0, 500 + seed)
        x = allocate(inst).values
        total = sum(inst.weights) + 1.0  # above every coalition value
        over = [x[0] + 1e-8 * total, *x[1:]]  # misses the grand value
        shift = (alpha + 1) * total * (-1 if kind is GameKind.MATCHING else 1)
        moved = [x[0] + shift, *x[1:-1], x[-1] - shift]  # breaks agent 0's own constraint
        for bad in (over, moved):
            assert not core_check(inst, Allocation.of(bad), alpha).passed, (seed, bad)
            scaled = Allocation.of([c * v for v in bad])
            assert not core_check(_scaled(inst, c), scaled, alpha).passed, (seed, bad)


@pytest.mark.parametrize(
    "inst,x,alpha",
    [
        (matching_instance(2, [(0, 1, 1.0)]), [1e308, -1e308], 0.25),
        (mst_instance(2, [(ROOT, 0, 1.0), (ROOT, 1, 1.0)]), [1e308, -1e308], 4.0),
        # alpha times the largest cost is past the float range, agent 0's bound is 1.0
        (mst_instance(2, [(ROOT, 0, 1e-300), (ROOT, 1, 1e10)]), [1e300, 1e10 - 1e300], 1e300),
    ],
    ids=["matching", "tree", "tree-huge-alpha"],
)
def test_shares_at_the_float_extremes_that_break_a_constraint_fail(inst, x, alpha):
    # the summation allowance of such shares is about 1e293, far below the violation
    report = core_check(inst, Allocation.of(x), alpha)
    assert not report.passed
    assert report.worst_subset in ((0,), (1,))
    assert report.worst_slack < -1e299


def test_core_check_takes_the_grand_residual_exactly_when_the_float_sum_overflows():
    star = matching_instance(3, [(0, 1, 1e308), (0, 2, sys.float_info.max)])
    x = matching_core_allocate(star, star.weights, 0.25)
    assert sum(x.values) == math.inf  # each outer share is one ulp above half the float max
    report = core_check(star, x, 0.25)
    exact = abs(sum(map(Fraction, x.values)) - Fraction(sys.float_info.max))
    assert report.passed and report.grand_residual == float(exact) > 0
    # a residual that is itself past the float range reads inf, and fails
    over = Allocation.of([sys.float_info.max] * 3)  # two float maxima past the grand value
    report = core_check(star, over, 0.25)
    assert report.grand_residual == math.inf and not report.passed


@pytest.mark.parametrize("kind", [GameKind.MATCHING, GameKind.MIN_SPANNING_TREE])
@pytest.mark.parametrize("seed", range(6))
def test_core_check_reports_the_worst_nonempty_proper_coalition(kind, seed):
    n = 6
    rng = np.random.default_rng(seed + 40)
    inst = gen_random(kind, n, 0.5, 10.0, seed)
    if kind is GameKind.MATCHING:
        alpha, x = 0.25, matching_core_allocate(inst, inst.weights, 0.25)
    else:
        alpha, x = 4.0, mst_core_allocate(inst, inst.weights)
    if seed % 2:  # shift value between agents and tighten to the exact core: coalitions fail
        alpha, x = 1.0, Allocation.of(x.as_array() * rng.uniform(0.3, 1.7, size=n))
    sign = 1.0 if kind is GameKind.MATCHING else -1.0
    slacks = {}
    for mask in range(1, (1 << n) - 1):  # nonempty proper coalitions
        S = agents_of(mask)
        slacks[mask] = sign * (math.fsum(x.values[v] for v in S) - alpha * char_value(inst, S))
    report = core_check(inst, x, alpha)
    assert report.worst_slack == pytest.approx(min(slacks.values()), rel=1e-12, abs=1e-12)
    worst = sum(1 << v for v in report.worst_subset)
    assert slacks[worst] == pytest.approx(report.worst_slack, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("n", [0, 1])
def test_core_check_without_proper_coalitions_names_the_empty_one(n):
    inst = mst_instance(n, [(ROOT, 0, 2.0)] if n else [])
    report = core_check(inst, Allocation.of([2.0] * n), 4.0)
    assert report.passed
    assert (report.worst_subset, report.worst_slack) == ((), 0.0)


def test_core_check_guards():
    inst = gen_path_uniform(3)
    with pytest.raises(ValueError):
        core_check(inst, Allocation.of([1, 1, 1]), 1.5)  # welfare alpha > 1
    mst = mst_instance(1, [(ROOT, 0, 1.0)])
    with pytest.raises(ValueError):
        core_check(mst, Allocation.of([1.0]), 0.5)  # cost alpha < 1
    with pytest.raises(ValueError):
        core_check(inst, Allocation.of([1, 1]), 1.0)  # wrong index set
    big = matching_instance(17, [])
    with pytest.raises(ValueError):
        core_check(big, Allocation.of([0.0] * 17), 1.0)


def test_iter_core_rows_covers_all_proper_subsets():
    inst = gen_path_uniform(3)
    rows = list(iter_core_rows(char_table(inst), Allocation.of([0.5, 1.0, 0.5]), 1.0))
    assert len(rows) == 2**3 - 1
    subsets = {r[0] for r in rows}
    assert (0, 1) in subsets and () in subsets


def test_exact_core_solve_unique_points_of_the_zero_ends_pair():
    base, zeroed = gen_path_pair_zero_ends(5)
    assert exact_core_solve(base).values == (0.0, 1.0, 0.0, 1.0, 0.0)
    assert exact_core_solve(zeroed).values == (0.0, 0.0, 1.0, 0.0, 0.0)


def test_exact_core_solve_infeasible_triangle():
    tri = matching_instance(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    assert exact_core_solve(tri) is None


def test_exact_core_solve_mst_kind():
    inst = mst_instance(2, [(ROOT, 0, 1.0), (ROOT, 1, 4.0), (0, 1, 2.0)])
    x = exact_core_solve(inst)
    assert x is not None
    assert x.total() == pytest.approx(3.0, abs=1e-12)
    assert core_check(inst, x, 1.0).passed


def test_exact_core_solve_feasible_points_always_verify():
    for seed in range(6):
        inst = gen_random(GameKind.MATCHING, 5, 0.4, 10.0, seed)
        x = exact_core_solve(inst)
        if x is not None:
            assert core_check(inst, x, 1.0, tol=1e-9).passed


PINNED_POINTS = Path(__file__).with_name("exact_core_points.json")


def test_exact_core_solve_selects_the_pinned_points():
    # Criterion 9 rests on which vertex Bland's rule selects: these points
    # (float.hex, or null for an empty core) must not move.
    for case in json.loads(PINNED_POINTS.read_text()):
        inst = gen_random(GameKind(case["kind"]), case["n"], case["edge_prob"], 10.0, case["seed"])
        if case["integer_weights"]:
            inst = inst.with_weights(tuple(float(math.ceil(w / 2.5)) for w in inst.weights))
        x = exact_core_solve(inst)
        got = None if x is None else [v.hex() for v in x.values]
        assert got == case["point"], case


EXTREME_WEIGHTS = (5e-324, 1e-310, 2.2250738585072014e-308, 1.0, 1e308)


@pytest.mark.parametrize("kind", list(GameKind))
@pytest.mark.parametrize("seed", range(12))
def test_exact_core_solve_at_the_float_extremes(kind, seed):
    # weights from the least subnormal to 1e308: the point must hold every
    # coalition constraint in exact arithmetic, up to the rounding of each
    # coordinate to float, and sum to the grand value
    rng = np.random.default_rng(seed)
    n = 1 + seed % 6
    base = gen_random(kind, n, 0.7, 1.0, seed)
    inst = base.with_weights([EXTREME_WEIGHTS[i] for i in rng.integers(0, len(EXTREME_WEIGHTS), base.m)])
    x = exact_core_solve(inst)
    if x is None:
        assert kind is GameKind.MATCHING  # spanning-tree games always have a core point
        return
    exact = [Fraction(v) for v in x.values]
    ulps = [Fraction(math.ulp(v)) for v in x.values]
    nu = coalition_values(inst, [Fraction(w) for w in inst.weights])
    sign = 1 if kind is GameKind.MATCHING else -1
    for mask in range(1, 1 << n):
        members = agents_of(mask)
        allocated = sum((exact[v] for v in members), Fraction(0))
        assert sign * (allocated - nu[mask]) >= -sum(ulps[v] for v in members), (mask, x.values)
    assert abs(sum(exact) - nu[-1]) <= sum(ulps)


def test_exact_core_solve_size_guard():
    with pytest.raises(ValueError):
        exact_core_solve(matching_instance(13, []))


@pytest.mark.parametrize("n", [5, 7])
def test_core_selection_jump_ratio(n):
    base, zeroed = gen_path_pair_zero_ends(n)
    x1 = exact_core_solve(base)
    x2 = exact_core_solve(zeroed)
    gap = l1_distance(x1, x2)
    assert gap / 2.0 == pytest.approx((n - 2) / 2.0, abs=1e-12)


def test_probe_deltas_rule():
    assert probe_deltas(2.0) == [2.0, 0.2, 0.02, 0.002]
    assert probe_deltas(0.0) == [1.0, 0.1, 0.01, 0.001]
    assert probe_deltas(5e-324) == [5e-324]  # the smaller sizes underflow to 0
    assert probe_deltas(1e308) == [1e308 * 10.0**-k for k in (1, 2, 3)]  # 2e308 is past the range
    assert probe_deltas(5e-321) == [5e-321 * 10.0**-k for k in range(4)]
    assert probe_deltas(8.9e307) == [8.9e307 * 10.0**-k for k in range(4)]


def test_lipschitz_scan_raw_matching_bound():
    inst = gen_random(GameKind.MATCHING, 6, 0.5, 10.0, 17)
    alpha = 1.5
    fn = named_allocator("matching-raw", base=alpha)
    report = lipschitz_scan(fn, inst, matching_raw_sensitivity_bound(alpha), name="matching-raw")
    assert report.passed
    assert len(report.rows) == 4 * inst.m
    assert report.max_ratio <= 12.0 / (alpha - 1.0) + 1e-6


def test_lipschitz_scan_mst_raw_bound():
    inst = gen_random(GameKind.MIN_SPANNING_TREE, 6, 0.4, 10.0, 23)
    fn = named_allocator("mst-raw")
    report = lipschitz_scan(fn, inst, mst_raw_sensitivity_bound(), name="mst-raw")
    assert report.passed


def test_lipschitz_scan_shapley_on_mst_meets_two_delta():
    inst = gen_random(GameKind.MIN_SPANNING_TREE, 5, 0.5, 10.0, 31)
    report = lipschitz_scan(named_allocator("shapley"), inst, 2.0, name="shapley")
    assert report.passed


def test_lipschitz_scan_shapley_on_paths_tracks_the_lower_bound():
    for n in (5, 7, 9):
        inst = gen_path_uniform(n)
        # only the measured ratio is checked; the claimed bound must merely be finite
        report = lipschitz_scan(named_allocator("shapley"), inst, sys.float_info.max, name="shapley")
        assert report.max_ratio >= matching_lower_bound_value(n, 1.0) - 1e-9


def test_lipschitz_scan_reports_failing_probe_context():
    inst = matching_instance(2, [(0, 1, 1.0)])

    def broken(instance):
        if instance.weights[0] != 1.0:
            raise ValueError("boom")
        return [0.5, 0.5]

    with pytest.raises(ValueError, match="allocator 'broken' failed on edge 0 with delta .*: boom"):
        lipschitz_scan(broken, inst, 1.0, name="broken")


def test_lipschitz_scan_passes_other_allocator_errors_through_unchanged():
    inst = matching_instance(2, [(0, 1, 1.0)])

    def buggy(instance):
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError, match="^boom$"):
        lipschitz_scan(buggy, inst, 1.0, name="buggy")


def test_named_allocator_validation():
    with pytest.raises(ValueError):
        named_allocator("matching-core")  # epsilon missing
    with pytest.raises(ValueError):
        named_allocator("matching-raw")  # base missing
    with pytest.raises(ValueError):
        named_allocator("nonsense")


def test_named_exact_core_raises_on_empty_core():
    tri = matching_instance(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    with pytest.raises(ValueError, match="empty"):
        named_allocator("exact-core")(tri)


def test_named_exact_core_returns_the_solver_point():
    inst = mst_instance(2, [(ROOT, 0, 1.0), (ROOT, 1, 4.0), (0, 1, 2.0)])
    solve = named_allocator("exact-core")
    assert solve(inst) == exact_core_solve(inst).values
    report = lipschitz_scan(solve, inst, 2.0, name="exact-core")  # a tree game's core is never empty
    probes = [(e.id, delta) for e in inst.edges for delta in probe_deltas(inst.weights[e.id])]
    assert [(row.edge_id, row.delta) for row in report.rows] == probes


def test_bird_style_parent_edge_shares_jump_while_ours_do_not():
    # classic instability of paying your parent edge in the optimal tree:
    # two near-tied routes flip on a tiny bump
    def bird(inst):
        order = sorted(range(inst.m), key=lambda eid: (inst.weights[eid], eid))
        parent_edge = {}
        joined = {ROOT}
        remaining = set(range(inst.n))
        chosen: list[int] = []
        uf = {v: v for v in list(range(inst.n)) + [ROOT]}

        def find(x):
            while uf[x] != x:
                uf[x] = uf[uf[x]]
                x = uf[x]
            return x

        for eid in order:
            e = inst.edges[eid]
            if find(e.u) != find(e.v):
                uf[find(e.u)] = find(e.v)
                chosen.append(eid)
        # root the tree at the supply vertex and charge each agent its parent edge
        adj: dict[int, list[tuple[int, int]]] = {}
        for eid in chosen:
            e = inst.edges[eid]
            adj.setdefault(e.u, []).append((e.v, eid))
            adj.setdefault(e.v, []).append((e.u, eid))
        shares = [0.0] * inst.n
        stack = [ROOT]
        seen = {ROOT}
        while stack:
            at = stack.pop()
            for nxt, eid in adj.get(at, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    shares[nxt] = inst.weights[eid]
                    stack.append(nxt)
        return shares

    # two near-tied supply routes: a 2e-9 bump flips which agent pays ~1
    inst = mst_instance(2, [(ROOT, 0, 1.0), (ROOT, 1, 1.0 + 1e-9), (0, 1, 0.01)])
    bumped = inst.with_weights((1.0 + 2e-9, 1.0 + 1e-9, 0.01))
    jump = l1_distance(bird(inst), bird(bumped))
    shift = sum(abs(a - b) for a, b in zip(inst.weights, bumped.weights))
    assert jump / shift > 1e6  # parent-edge shares are not stable
    ours = l1_distance(
        mst_core_allocate(inst, inst.weights), mst_core_allocate(bumped, bumped.weights)
    )
    assert ours / shift <= 20.0 / math.log(2.0) + 1.0 + 1e-6


@pytest.mark.parametrize("seed,eps", [(1, 0.05), (2, 0.25), (3, 0.5)])
def test_matching_core_allocations_pass_their_factor(seed, eps):
    inst = gen_random(GameKind.MATCHING, 8, 0.5, 10.0, seed)
    x = matching_core_allocate(inst, inst.weights, eps)
    assert core_check(inst, x, 0.5 - eps).passed


@pytest.mark.parametrize("seed", range(4))
def test_mst_core_allocations_pass_factor_four(seed):
    inst = gen_random(GameKind.MIN_SPANNING_TREE, 7, 0.5, 10.0, seed)
    x = mst_core_allocate(inst, inst.weights)
    assert core_check(inst, x, 4.0).passed
