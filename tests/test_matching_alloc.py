import math
import sys

import numpy as np
import pytest

from coregauge.analysis import core_check
from coregauge.games import ROOT, GameKind, l1_distance, perturb
from coregauge.instances import gen_path_uniform, gen_random
from coregauge.matching import (
    greedy_allocate,
    integrate_matching,
    matching_core_allocate,
    normalize_welfare,
)
from coregauge.games import Allocation
from coregauge.oracles import agents_of, char_table, max_weight_matching
from coregauge.rounding import breakpoints, differing_offset_measure, round_weights, rounding_exponent

from conftest import matching_instance, mst_instance
from mc_oracle import mc_matching_samples, mc_mean_and_se

PATH3 = matching_instance(3, [(0, 1, 2.0), (1, 2, 1.0)])
SINGLE = matching_instance(2, [(0, 1, 1.0)])


def test_rounding_examples():
    assert rounding_exponent(1.0, 0.5, 2.0) == -1
    assert round_weights([1.0], 0.5, 2.0) == (2**0.5,)
    assert rounding_exponent(2.0, 0.0, 2.0) == 1
    assert round_weights([2.0], 0.0, 2.0) == (4.0,)
    assert round_weights([0.0], 0.3, 1.5) == (0.0,)


@pytest.mark.parametrize("alpha", [1.1, 1.5, 2.0])
@pytest.mark.parametrize("b", [0.0, 0.25, 0.7, 1.0])
def test_rounding_defining_inequality_and_upper_bound(alpha, b):
    rng = np.random.default_rng(7)
    weights = list(rng.uniform(0.001, 50.0, size=40)) + [1.0, 2.0, alpha, alpha**3]
    rw = round_weights(weights, b, alpha)
    for w, hat in zip(weights, rw):
        i = rounding_exponent(w, b, alpha)
        assert alpha ** (i + b) <= w < alpha ** (i + 1 + b)
        assert hat == alpha ** (i + 1 + b)
        assert w < hat <= alpha * w + 1e-9


def test_rounding_rejects_bad_base():
    with pytest.raises(ValueError):
        round_weights([1.0], 0.0, 2.5)
    with pytest.raises(ValueError):
        round_weights([1.0], 0.0, 1.0)


def test_matching_integral_refuses_a_tree_game():
    tree = mst_instance(1, [(ROOT, 0, 1.0)])
    with pytest.raises(ValueError, match="requires a matching game"):
        integrate_matching(tree, tree.weights, 1.5)


@pytest.mark.parametrize("weight", [math.inf, math.nan])
def test_rounding_rejects_a_weight_that_is_not_finite(weight):
    with pytest.raises(ValueError, match="not finite"):
        round_weights([1.0, weight], 0.5, 2.0)
    with pytest.raises(ValueError, match="not finite"):
        breakpoints([weight], 1.5)


@pytest.mark.parametrize(
    "call",
    [
        lambda: round_weights([1.7e308], 0.0, 1.5),
        lambda: integrate_matching(matching_instance(2, [(0, 1, 1.7e308)]), [1.7e308], 1.5),
        lambda: round_weights([1.7e308], 0.5, 2.0),
        lambda: round_weights([sys.float_info.max], 0.999, 2.0),
    ],
    ids=["round_weights", "integrate_matching", "round_weights-at-an-offset", "round_weights-float-max"],
)
def test_rounding_past_the_float_range_raises_value_error(call):
    with pytest.raises(ValueError, match="float range"):
        call()


def test_rounding_overflow_at_an_offset_and_the_core_allocator_scaling_past_it():
    # 1e308 at base 1.5 rounds to at most 1.5**1750.09 ~ 1.50e308 at every
    # offset, so its integral is the finite w * (base - 1) / ln(base)
    edge = matching_instance(2, [(0, 1, 1e308)])
    want = 1e308 * 0.5 / math.log(1.5)
    for got in integrate_matching(edge, edge.weights, 1.5).values:
        assert got == pytest.approx(want, rel=1e-12)
    assert matching_core_allocate(edge, edge.weights, 0.25).values == (5e307, 5e307)


@pytest.mark.parametrize("big, fits", [(1.4e308, False), (1e308, True)])
def test_offset_average_refuses_on_the_weights_alone(big, fits):
    # over the offsets a weight w rounds up to at most base * w: 1.4e308 at
    # base 1.5 reaches 2.1e308 and 1e308 reaches 1.5e308. A second edge's
    # breakpoint at 0.8 moves the interval midpoints but not the verdict.
    alone = matching_instance(2, [(0, 1, big)])
    beside = matching_instance(4, [(0, 1, big), (2, 3, 1.5**0.8)])
    for inst in (alone, beside):
        if not fits:
            with pytest.raises(ValueError, match="float range"):
                integrate_matching(inst, inst.weights, 1.5)
            continue
        got = integrate_matching(inst, inst.weights, 1.5).values[:2]
        assert got == pytest.approx((big * 0.5 / math.log(1.5),) * 2, rel=1e-12)


def test_rounding_that_fits_the_float_range_is_returned():
    # the level above the weight's offset-0 exponent is past the range, but
    # the weight's own rounding at these offsets is not
    assert round_weights([1e308], 0.9, 1.5) == (1.5**1749.9,)
    assert round_weights([1.7e308], 0.95, 2.0) == (2.0**1023.95,)
    assert breakpoints([1.7e308], 2.0).start_exponents == (1023,)


@pytest.mark.parametrize("base", [2.0, 1.5])
@pytest.mark.parametrize("b", [0.0, 0.99])
def test_rounding_exponent_of_the_largest_float(b, base):
    # math.log(max, 2) is 1024.0; a power past the float range counts as
    # above the weight
    top = sys.float_info.max
    i = rounding_exponent(top, b, base)
    assert base ** (i + b) <= top
    with pytest.raises(OverflowError):
        base ** (i + 1 + b)


@pytest.mark.parametrize("base", [2.0, 1.5, 1.1, 1.02])
def test_rounding_exponent_at_powers_of_the_base(base):
    # one ulp below, at and above base**k: float log lands one off on many
    # of these, on both sides, and the repair must restore the inequality
    for k in range(-60, 60):
        power = base**k
        for w in (math.nextafter(power, 0.0), power, math.nextafter(power, math.inf)):
            for b in (0.0, 0.3, 0.999, 1.0):
                i = rounding_exponent(w, b, base)
                assert base ** (i + b) <= w < base ** (i + 1 + b), (w, b)
                assert round_weights((w,), b, base) == (base ** (i + 1 + b),), (w, b)


def test_greedy_hand_run_examples():
    trace = greedy_allocate(PATH3, PATH3.weights, 0.0, 2.0)
    assert trace.matching == (0,)
    assert trace.raw == (4.0, 4.0, 0.0)

    trace = greedy_allocate(SINGLE, SINGLE.weights, 0.5, 2.0)
    assert trace.raw == pytest.approx((2**0.5, 2**0.5))

    zeros = matching_instance(3, [(0, 1, 0.0), (1, 2, 0.0)])
    trace = greedy_allocate(zeros, zeros.weights, 0.3, 2.0)
    assert trace.matching == ()
    assert trace.raw == (0.0, 0.0, 0.0)


def test_greedy_tie_break_prefers_lower_edge_id():
    # both edges share vertex 1 and round identically; edge 0 must win
    inst = matching_instance(3, [(0, 1, 1.0), (1, 2, 1.0)])
    trace = greedy_allocate(inst, inst.weights, 0.2, 2.0)
    assert trace.matching == (0,)


@pytest.mark.parametrize("seed", range(10))
def test_greedy_invariants_matching_is_maximal_and_l1_matches(seed):
    inst = gen_random(GameKind.MATCHING, 8, 0.5, 10.0, seed)
    rw = round_weights(inst.weights, 0.37, 1.5)
    trace = greedy_allocate(inst, inst.weights, 0.37, 1.5)
    covered = set()
    for eid in trace.matching:
        e = inst.edges[eid]
        assert e.u not in covered and e.v not in covered
        covered.update((e.u, e.v))
    for e in inst.edges:  # maximality over positive rounded weights
        if rw[e.id] > 0:
            assert e.id in trace.matching or e.u in covered or e.v in covered
    assert math.fsum(trace.raw) == pytest.approx(
        2 * math.fsum(rw[eid] for eid in trace.matching), rel=1e-12
    )


def test_breakpoints_examples():
    assert breakpoints([2.0, 1.0], 2.0).points == (0.0, 1.0)
    pts = breakpoints([3.0], 2.0).points
    assert len(pts) == 3
    assert pts[1] == pytest.approx(math.log2(3) - 1, abs=1e-12)
    assert breakpoints([0.0, 0.0], 2.0).points == (0.0, 1.0)


def test_breakpoints_merge_colliding_values():
    # weights in exact ratio alpha**k share a breakpoint
    pts = breakpoints([3.0, 6.0, 12.0], 2.0).points
    assert len(pts) == 3


@pytest.mark.parametrize("seed,alpha", [(s, a) for s in range(4) for a in (1.1, 1.5, 2.0)])
def test_breakpoint_intervals_have_constant_exponents(seed, alpha):
    inst = gen_random(GameKind.MATCHING, 7, 0.6, 10.0, seed)
    decomp = breakpoints(inst.weights, alpha)
    for lo, hi in decomp.intervals():
        probes = [lo + (hi - lo) * t for t in (0.1, 0.5, 0.9)]
        expos = [
            tuple(
                rounding_exponent(w, b, alpha) if w > 0 else None for w in inst.weights
            )
            for b in probes
        ]
        assert expos[0] == expos[1] == expos[2]


def test_integrate_single_edge_closed_form():
    out = integrate_matching(SINGLE, SINGLE.weights, 2.0)
    assert out.values == pytest.approx((1 / math.log(2),) * 2, rel=1e-12)


def test_integrate_zero_weights_gives_zero_vector():
    zeros = matching_instance(3, [(0, 1, 0.0), (1, 2, 0.0)])
    assert integrate_matching(zeros, zeros.weights, 1.5).values == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("seed,alpha", [(0, 2.0), (1, 1.5), (2, 1.1)])
def test_integrate_matches_monte_carlo(seed, alpha):
    inst = gen_random(GameKind.MATCHING, 7, 0.6, 10.0, seed)
    closed = integrate_matching(inst, inst.weights, alpha).as_array()
    mean, se = mc_mean_and_se(mc_matching_samples(inst, inst.weights, alpha, 20_000, seed + 99))
    assert np.all(np.abs(closed - mean) <= 3 * se + 1e-9)


@pytest.mark.parametrize("seed", range(6))
def test_within_interval_scaling(seed):
    inst = gen_random(GameKind.MATCHING, 6, 0.6, 10.0, seed)
    alpha = 1.5
    rng = np.random.default_rng(seed)
    for lo, hi in breakpoints(inst.weights, alpha).intervals():
        for _ in range(4):
            b1, b2 = sorted(lo + (hi - lo) * rng.uniform(0.01, 0.99, size=2))
            z1 = np.asarray(greedy_allocate(inst, inst.weights, b1, alpha).raw)
            z2 = np.asarray(greedy_allocate(inst, inst.weights, b2, alpha).raw)
            np.testing.assert_allclose(z2, alpha ** (b2 - b1) * z1, rtol=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_raw_norm_upper_bound_and_coalition_lower_bound(seed):
    inst = gen_random(GameKind.MATCHING, 8, 0.5, 10.0, seed)
    alpha = 1.3
    opt = max_weight_matching(inst, range(inst.n))
    for b in (0.0, 0.33, 0.81, 1.0):
        trace = greedy_allocate(inst, inst.weights, b, alpha)
        assert math.fsum(trace.raw) <= 2 * alpha * opt + 1e-9
        # every edge is dominated by its endpoints' payouts
        rw = round_weights(inst.weights, b, alpha)
        for e in inst.edges:
            assert rw[e.id] <= trace.raw[e.u] + trace.raw[e.v] + 1e-12
        # hence every coalition is covered at least up to its own value
        table = char_table(inst)
        for smask in range(1 << inst.n):
            S = agents_of(smask)
            assert math.fsum(trace.raw[v] for v in S) >= table.values[smask] - 1e-9


@pytest.mark.parametrize("seed", range(8))
def test_single_edge_bump_fixed_offset_bound(seed):
    rng = np.random.default_rng(seed + 500)
    inst = gen_random(GameKind.MATCHING, 7, 0.6, 10.0, seed)
    if inst.m == 0:
        pytest.skip("empty graph drawn")
    alpha = 1.5
    eid = int(rng.integers(inst.m))
    w_f = inst.weights[eid]
    delta = w_f * 0.5 if w_f > 0 else 0.3
    bumped = perturb(inst.weights, eid, delta)
    for b in rng.uniform(0, 1, size=12):
        rw = round_weights(inst.weights, b, alpha)
        rw2 = round_weights(bumped, b, alpha)
        z1 = greedy_allocate(inst, inst.weights, b, alpha).raw
        z2 = greedy_allocate(inst, bumped, b, alpha).raw
        if rw[eid] == rw2[eid]:
            assert z1 == z2  # bit-identical
        else:
            assert l1_distance(z1, z2) <= 2 * rw2[eid] + 1e-9


@pytest.mark.parametrize("alpha", [1.1, 1.5, 2.0])
def test_bad_offset_measure_formula(alpha):
    rng = np.random.default_rng(4)
    for w_f in rng.uniform(0.01, 20.0, size=12):
        for ratio in (0.9, 0.1, 0.01):
            delta = w_f * ratio
            measured = differing_offset_measure(w_f, w_f + delta, alpha)
            expected = min(1.0, math.log(1 + delta / w_f) / math.log(alpha))
            assert measured == pytest.approx(expected, abs=1e-9)
            assert measured <= delta / (w_f * math.log(alpha)) + 1e-12


def test_bad_offset_measure_saturates_at_one():
    # relative bump above alpha - 1 flips the exponent at every offset
    assert differing_offset_measure(1.0, 3.0, 1.5) == pytest.approx(1.0)
    assert differing_offset_measure(0.0, 1.0, 2.0) == 1.0
    assert differing_offset_measure(2.0, 2.0, 2.0) == 0.0


def test_bad_offset_measure_refuses_no_finite_pair():
    # exponents are compared, not rounded levels, so a weight whose rounding
    # passes the float range still has a measure
    assert differing_offset_measure(1.7e308, 1.0, 1.5) == 1.0
    assert differing_offset_measure(sys.float_info.max, 1.0, 2.0) == 1.0
    assert differing_offset_measure(1.7e308, 1.69e308, 1.5) == pytest.approx(math.log(1.7 / 1.69, 1.5))
    assert differing_offset_measure(1.7e308, 1.7e308, 1.5) == 0.0
    # a zero weight rounds differently from every positive one, and like another zero
    assert differing_offset_measure(0.0, 5e-324, 1.5) == 1.0
    assert differing_offset_measure(0.0, 0.0, 1.5) == 0.0


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("alpha", [1.1, 1.5, 2.0])
def test_integrated_single_edge_sensitivity(seed, alpha):
    inst = gen_random(GameKind.MATCHING, 7, 0.5, 10.0, seed)
    base_out = integrate_matching(inst, inst.weights, alpha)
    bound = 12.0 / (alpha - 1.0)
    for e in inst.edges:
        w_f = inst.weights[e.id]
        for delta in ((w_f, w_f / 10) if w_f > 0 else (1.0, 0.1)):
            out = integrate_matching(inst, perturb(inst.weights, e.id, delta), alpha)
            assert l1_distance(base_out, out) <= bound * delta + 1e-9


def test_normalize_welfare_examples():
    assert normalize_welfare(Allocation.of([4, 4, 0]), 2.0).values == (1.0, 1.0, 0.0)
    out = normalize_welfare(Allocation.of([1.4427, 1.4427]), 1.0)
    assert out.values == pytest.approx((0.5, 0.5))
    assert normalize_welfare(Allocation.of([0.0, 0.0]), 0.0).values == (0.0, 0.0)
    with pytest.raises(ValueError):
        normalize_welfare(Allocation.of([0.0]), 1.0)


def test_core_allocate_single_edge_split():
    for eps in (0.05, 0.25, 0.5):
        assert matching_core_allocate(SINGLE, SINGLE.weights, eps).values == pytest.approx((0.5, 0.5))


def test_core_allocate_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        matching_core_allocate(SINGLE, SINGLE.weights, 0.0)
    with pytest.raises(ValueError):
        matching_core_allocate(SINGLE, SINGLE.weights, 0.75)


def test_core_allocate_path5_passes_core_check():
    inst = gen_path_uniform(5)
    x = matching_core_allocate(inst, inst.weights, 0.25)
    assert x.total() == pytest.approx(2.0, abs=1e-9)
    report = core_check(inst, x, 0.25)
    assert report.passed


def test_core_allocate_zero_weights():
    zeros = matching_instance(3, [(0, 1, 0.0), (1, 2, 0.0)])
    assert matching_core_allocate(zeros, zeros.weights, 0.25).values == (0.0, 0.0, 0.0)
