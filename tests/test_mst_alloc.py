import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from coregauge.analysis import core_check
from coregauge.games import ROOT, GameKind, l1_distance, perturb
from coregauge.instances import gen_random
from coregauge.matching import normalize_welfare
from coregauge.mst import (
    _heights,
    _shares,
    auxiliary_tree,
    connector_sum,
    integrate_mst,
    mst_allocate,
    mst_core_allocate,
)
from coregauge.oracles import agents_of, mst_weight
from coregauge.rounding import breakpoints, round_weights, rounding_exponent

from conftest import matching_instance, mst_instance
from mc_oracle import mc_mean_and_se, mc_mst_samples

MST3 = mst_instance(2, [(ROOT, 0, 1.0), (ROOT, 1, 4.0), (0, 1, 2.0)])
SINGLE = mst_instance(1, [(ROOT, 0, 1.0)])


def test_round_weights_at_base_two_examples():
    assert rounding_exponent(1.0, 0.0, 2.0) == 0
    assert round_weights([1.0], 0.0, 2.0) == (2.0,)
    assert rounding_exponent(3.0, 0.0, 2.0) == 1
    assert round_weights([3.0], 0.0, 2.0) == (4.0,)
    assert round_weights([0.0], 0.4, 2.0) == (0.0,)


# agent 1 has no edge at all; validate_instance would reject this game
UNREACHED = mst_instance(2, [(ROOT, 0, 1.0)])


def test_auxiliary_tree_refuses_an_agent_the_supply_cannot_reach():
    with pytest.raises(ValueError, match="^graph is not connected; cannot build the merge dendrogram$"):
        auxiliary_tree(UNREACHED, UNREACHED.weights)


def test_tree_integral_refuses_a_matching_game():
    with pytest.raises(ValueError, match="requires a spanning-tree game"):
        integrate_mst(matching_instance(2, [(0, 1, 1.0)]), (1.0,))


def test_auxiliary_tree_hand_run():
    tree = auxiliary_tree(MST3, (1.0, 4.0, 2.0))
    # leaves 0, 1 and the supply leaf, then one node at 1 and one at 2
    heights = sorted(nd.height for nd in tree.nodes if nd.leaf is None)
    assert heights == [1.0, 2.0]
    low = next(nd for nd in tree.nodes if nd.leaf is None and nd.height == 1.0)
    high = next(nd for nd in tree.nodes if nd.leaf is None and nd.height == 2.0)
    assert {tree.nodes[c].leaf for c in low.children} == {0, ROOT}
    assert {tree.nodes[c].leaf for c in high.children if tree.nodes[c].leaf is not None} == {1}
    assert low.id in high.children
    assert tree.nodes[-1] is high


def test_auxiliary_tree_single_agent():
    tree = auxiliary_tree(SINGLE, (3.0,))
    internal = [nd for nd in tree.nodes if nd.leaf is None]
    assert len(internal) == 1
    assert internal[0].height == 3.0
    assert len(internal[0].children) == 2


def test_auxiliary_tree_equal_weights_collapse_to_one_node():
    inst = mst_instance(3, [(ROOT, 0, 5.0), (ROOT, 1, 5.0), (ROOT, 2, 5.0)])
    tree = auxiliary_tree(inst, inst.weights)
    internal = [nd for nd in tree.nodes if nd.leaf is None]
    assert len(internal) == 1
    assert len(internal[0].children) == 4


def test_auxiliary_tree_zero_weight_edges_merge_at_height_zero():
    inst = mst_instance(2, [(ROOT, 0, 1.0), (ROOT, 1, 1.0), (0, 1, 0.0)])
    tree = auxiliary_tree(inst, (2.0, 2.0, 0.0))
    zero_nodes = [nd for nd in tree.nodes if nd.leaf is None and nd.height == 0.0]
    assert len(zero_nodes) == 1
    assert {tree.nodes[c].leaf for c in zero_nodes[0].children} == {0, 1}
    # the zero-height component allocates nothing but its parent edge counts
    z = mst_allocate(inst, inst.weights, 0.0)
    assert z.total() > 0


@pytest.mark.parametrize("seed", range(10))
def test_tree_structure_invariants(seed):
    inst = gen_random(GameKind.MIN_SPANNING_TREE, 7, 0.5, 10.0, seed)
    rounded = round_weights(inst.weights, 0.41, 2.0)
    tree = auxiliary_tree(inst, rounded)
    leaves = [nd for nd in tree.nodes if nd.leaf is not None]
    assert sorted(nd.leaf for nd in leaves) == sorted([ROOT] + list(range(inst.n)))
    assert all(nd.height == 0.0 for nd in leaves)
    for parent_node in tree.nodes:
        for child in (tree.nodes[c] for c in parent_node.children):
            assert parent_node.height >= child.height
            if child.leaf is None and child.height > 0:
                # power-of-two rounding forces at least a doubling per level
                assert parent_node.height >= 2 * child.height - 1e-9
    for nd in tree.nodes:
        if nd.leaf is None:
            assert len(nd.children) >= 2


def test_mst_allocate_hand_run():
    z = mst_allocate(MST3, MST3.weights, 0.0)
    # rounded weights at b=0: (2, 8, 4); merges at 2 then 4; supply-free
    # subtrees are {0} under height 2 and {1} under height 4... the second
    # merge joins {r,0} with {1}, so agent 1 sits alone under height 4
    assert z.values == (2.0, 4.0)


def test_mst_allocate_single_agent_gets_rounded_root_edge():
    for b in (0.0, 0.33, 0.9):
        z = mst_allocate(SINGLE, SINGLE.weights, b)
        assert z.values[0] == round_weights(SINGLE.weights, b, 2.0)[0]


def _per_edge_shares(inst, rounded):
    """Fixed-offset shares straight from their definition, on the whole
    graph: at each rounded level, every agent whose component grows gets
    the level divided by the agent count of its old component, unless
    that component holds the supply vertex (union-find slot n)."""
    n = inst.n

    def components(level):
        parent = list(range(n + 1))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for e in inst.edges:
            if rounded[e.id] <= level:
                a, b = (n if e.u == ROOT else e.u), (n if e.v == ROOT else e.v)
                parent[find(a)] = find(b)
        roots = [find(x) for x in range(n + 1)]
        return [frozenset(y for y in range(n + 1) if roots[y] == roots[x]) for x in range(n + 1)]

    z = [0.0] * n
    before = [frozenset([x]) for x in range(n + 1)]
    for level in sorted(set(rounded)):
        after = components(level)
        for v in range(n):
            if after[v] != before[v] and n not in before[v]:
                z[v] += level / len(before[v])
        before = after
    return z


@pytest.mark.parametrize("seed", range(16))
def test_mst_allocate_matches_the_per_edge_definition(seed):
    rng = np.random.default_rng(seed + 700)
    inst = gen_random(GameKind.MIN_SPANNING_TREE, int(rng.integers(1, 9)), 0.6, 10.0, seed)
    if seed % 2:  # integer weights, zeros included: ties within and across levels
        inst = inst.with_weights(tuple(float(w) for w in rng.integers(0, 5, size=inst.m)))
    for b in (0.0, 0.5, *rng.uniform(0, 1, size=3)):
        want = _per_edge_shares(inst, round_weights(inst.weights, b, 2.0))
        got = mst_allocate(inst, inst.weights, b).values
        assert sum(abs(g - w) for g, w in zip(got, want)) <= 1e-12 * max(sum(want), 1e-300)


def _offset_instance(seed):
    rng = np.random.default_rng(seed)
    inst = gen_random(GameKind.MIN_SPANNING_TREE, 9, 0.6, 10.0, seed)
    if seed % 2 == 0:
        inst = inst.with_weights(tuple(float(w) for w in rng.integers(0, 5, size=inst.m)))
    return inst, (0.0, 0.81, *rng.uniform(0, 1, size=3))


@pytest.mark.parametrize("seed", range(89, 101))
def test_offset_dendrogram_equals_the_whole_graph_dendrogram(seed):
    # the offset's dendrogram rounds only the tree edges of the exact
    # weights' Kruskal run, while the whole graph's rounds every edge and
    # breaks ties by edge id; seed 89 at b=0.81 has a batch that
    # set-iteration order would number differently
    inst, offsets = _offset_instance(seed)
    exact = auxiliary_tree(inst, inst.weights)
    assert exact.cost == mst_weight(inst, range(inst.n))
    assert abs(connector_sum(exact, range(inst.n)) - exact.cost) <= 1e-9
    for b in offsets:
        rounded = inst.with_weights(round_weights(inst.weights, b, 2.0))
        tree = auxiliary_tree(inst, inst.weights, b)
        assert tree.to_dict() == auxiliary_tree(rounded, rounded.weights).to_dict()
        assert tree.cost == mst_weight(rounded, range(inst.n))
        assert abs(connector_sum(tree, range(inst.n)) - tree.cost) <= 1e-9


def _reference_dendrogram(inst, weights) -> dict:
    """The documented dendrogram, built from scratch: the components at
    each distinct weight come from a plain union-find over every edge up
    to that weight; a component new at a level is a node whose children,
    ascending, are the components it contains from the level below, and
    the new nodes of one level are numbered by their smallest child."""
    n = inst.n
    nodes = [{"id": v, "h": 0.0, "children": [], "leaf": v} for v in range(n)]
    nodes.append({"id": n, "h": 0.0, "children": [], "leaf": ROOT})
    node_of = {frozenset([x]): x for x in range(n + 1)}  # component -> node id; supply is n
    for level in sorted(set(weights)):
        if len(node_of) == 1:
            break
        parent = list(range(n + 1))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for e, w in zip(inst.edges, weights):
            if w <= level:
                parent[find(n if e.u == ROOT else e.u)] = find(n if e.v == ROOT else e.v)
        comps: dict[int, set[int]] = {}
        for x in range(n + 1):
            comps.setdefault(find(x), set()).add(x)
        components = [frozenset(c) for c in comps.values()]
        new = [
            (sorted(node_of[old] for old in node_of if old <= comp), comp)
            for comp in components
            if comp not in node_of
        ]
        for children, comp in sorted(new, key=lambda item: item[0]):
            node_of[comp] = len(nodes)
            nodes.append({"id": len(nodes), "h": level, "children": children, "leaf": None})
        node_of = {comp: node_of[comp] for comp in components}
    return {"nodes": nodes}


@pytest.mark.parametrize("n", range(1, 10))
def test_dendrogram_numbering_matches_a_from_scratch_reference(n):
    # integer weights 0-4 give ties and zeros, so levels merge several components
    rng = np.random.default_rng(7000 + n)
    for seed in range(25):
        inst = gen_random(GameKind.MIN_SPANNING_TREE, n, float(rng.uniform(0.2, 1.0)), 10.0, seed)
        weights = tuple(float(w) for w in rng.integers(0, 5, size=inst.m))
        assert auxiliary_tree(inst, weights).to_dict() == _reference_dendrogram(inst, weights)


def test_offset_dendrogram_ignores_a_heavy_non_tree_edge():
    heavy = mst_instance(2, [(ROOT, 0, 1.0), (ROOT, 1, 3.0), (0, 1, 1.7e308)])
    light = heavy.with_weights((1.0, 3.0, 5.0))
    for b in (0.0, 0.5, 1.0):
        want = auxiliary_tree(light, light.weights, b).to_dict()
        assert auxiliary_tree(heavy, heavy.weights, b).to_dict() == want


def _top_down_shares(tree, n):
    """Shares paid on a dendrogram by its own node heights: every edge whose
    subtree avoids the supply vertex splits the parent height over the
    agents below it, carried down from the top."""
    carried = [0.0] * len(tree.nodes)
    for node in reversed(tree.nodes):
        for c in node.children:
            child = tree.nodes[c]
            if not child.has_supply:
                carried[c] = carried[node.id] + node.height / child.agent_mask.bit_count()
    return tuple(carried[:n])


@pytest.mark.parametrize("seed", range(89, 101))
def test_mst_allocate_pays_the_offset_dendrogram_exactly(seed):
    inst, offsets = _offset_instance(seed)
    for b in offsets:
        want = _top_down_shares(auxiliary_tree(inst, inst.weights, b), inst.n)
        assert mst_allocate(inst, inst.weights, b).values == want


@pytest.mark.parametrize("seed", range(40))
def test_fraction_heights_give_fraction_shares_close_to_the_float_run(seed):
    n = 2 + seed % 11
    inst = gen_random(GameKind.MIN_SPANNING_TREE, n, 0.4, 10.0, seed)
    tree = auxiliary_tree(inst, inst.weights)
    heights = _heights(tree)
    for rounded in (heights, round_weights(heights, 0.3, 2.0), round_weights(heights, 0.9, 2.0)):
        floats = _shares(tree, rounded, n)
        exact = _shares(tree, [Fraction(h) for h in rounded], n)
        assert all(type(x) is Fraction for x in exact)
        assert sum(abs(Fraction(x) - y) for x, y in zip(floats, exact)) <= Fraction(1e-15) * sum(exact)


def test_offset_dendrogram_rejects_rounding_beyond_the_float_range():
    huge = mst_instance(1, [(ROOT, 0, 1.7e308)])
    for build in (auxiliary_tree, mst_allocate):
        with pytest.raises(ValueError, match="float range"):
            build(huge, huge.weights, 0.0)


@pytest.mark.parametrize("seed", range(12))
def test_total_share_covers_true_tree_cost(seed):
    inst = gen_random(GameKind.MIN_SPANNING_TREE, 6, 0.5, 10.0, seed)
    opt = mst_weight(inst, range(inst.n))
    for b in (0.0, 0.5, 0.87):
        z = mst_allocate(inst, inst.weights, b)
        assert z.total() >= opt - 1e-9


@pytest.mark.parametrize("seed", range(10))
def test_coalition_share_at_most_four_times_its_own_cost(seed):
    inst = gen_random(GameKind.MIN_SPANNING_TREE, 6, 0.5, 10.0, seed)
    for b in (0.0, 0.31, 0.74):
        z = mst_allocate(inst, inst.weights, b)
        for smask in range(1, 1 << inst.n):
            S = agents_of(smask)
            share = math.fsum(z.values[v] for v in S)
            assert share <= 4 * mst_weight(inst, S) + 1e-9


def test_connector_examples():
    tree = auxiliary_tree(MST3, (1.0, 4.0, 2.0))
    assert connector_sum(tree, [0, 1]) == pytest.approx(3.0)
    assert connector_sum(tree, []) == 0.0
    assert connector_sum(tree, [0]) <= 1.0 + 1e-12  # its own rounded tree cost


@pytest.mark.parametrize("seed", range(10))
def test_connector_identity_and_upper_bound(seed):
    inst = gen_random(GameKind.MIN_SPANNING_TREE, 6, 0.5, 10.0, seed)
    for b in (0.1, 0.62):
        rounded = round_weights(inst.weights, b, 2.0)
        tree = auxiliary_tree(inst, rounded)
        on_rounded = inst.with_weights(rounded)
        full = mst_weight(on_rounded, range(inst.n))
        assert connector_sum(tree, range(inst.n)) == pytest.approx(full, abs=1e-9)
        for smask in range(1, 1 << inst.n):
            S = agents_of(smask)
            assert connector_sum(tree, S) <= mst_weight(on_rounded, S) + 1e-9


def test_breakpoints_at_base_two_examples():
    assert breakpoints([1.0, 2.0, 4.0], 2.0).points == (0.0, 1.0)
    pts = breakpoints([3.0], 2.0).points
    assert pts[1] == pytest.approx(math.log2(3) - 1)
    assert breakpoints([0.0], 2.0).points == (0.0, 1.0)


def test_integrate_single_agent_closed_form():
    # unit root edge rounds to 2**b for every interior offset
    out = integrate_mst(SINGLE, SINGLE.weights)
    assert out.values[0] == pytest.approx(1.0 / math.log(2), rel=1e-12)


@pytest.mark.parametrize("seed", range(16))
def test_integrate_sums_the_per_edge_definition_over_the_intervals(seed):
    rng = np.random.default_rng(seed + 900)
    inst = gen_random(GameKind.MIN_SPANNING_TREE, int(rng.integers(1, 9)), 0.6, 10.0, seed)
    if seed % 2:  # integer weights, zeros included
        inst = inst.with_weights(tuple(float(w) for w in rng.integers(0, 5, size=inst.m)))
    want = [0.0] * inst.n
    for lo, hi in breakpoints(inst.weights, 2.0).intervals():
        mid = (lo + hi) / 2.0
        factor = (2.0 ** (hi - mid) - 2.0 ** (lo - mid)) / math.log(2.0)
        shares = _per_edge_shares(inst, round_weights(inst.weights, mid, 2.0))
        want = [x + factor * z for x, z in zip(want, shares)]
    got = integrate_mst(inst, inst.weights).values
    assert sum(abs(g - w) for g, w in zip(got, want)) <= 1e-12 * max(sum(want), 1e-300)


def _closed_form_average(tree, n):
    """The offset average one dendrogram edge at a time: the parent's rounded
    height r_p(b) is paid where the child's r_c(b) differs from it, and
    over b in [0, 1] that integrates to min(h_p, 2(h_p - h_c))/ln 2."""
    carried = [0.0] * len(tree.nodes)
    for node in reversed(tree.nodes):
        for c in node.children:
            child = tree.nodes[c]
            if not child.has_supply:
                term = min(node.height, 2.0 * (node.height - child.height)) / math.log(2.0)
                carried[c] = carried[node.id] + term / child.agent_mask.bit_count()
    return carried[:n]


@pytest.mark.parametrize("weights", ["float", "integer", "power-of-two"])
def test_integral_is_one_closed_form_term_per_dendrogram_edge(weights):
    for seed in range(140):
        rng = np.random.default_rng(seed + 1100)
        inst = gen_random(GameKind.MIN_SPANNING_TREE, 1 + seed % 30, float(rng.uniform(0.1, 0.9)), 10.0, seed)
        if weights == "integer":  # ties and zeros
            inst = inst.with_weights(tuple(float(w) for w in rng.integers(0, 5, size=inst.m)))
        elif weights == "power-of-two":
            inst = inst.with_weights(tuple(2.0 ** int(k) for k in rng.integers(-6, 7, size=inst.m)))
        want = _closed_form_average(auxiliary_tree(inst, inst.weights), inst.n)
        got = integrate_mst(inst, inst.weights).values
        assert sum(abs(g - w) for g, w in zip(got, want)) <= 1e-12 * max(sum(want), 1e-300), seed
        total = math.fsum(want)
        scale = mst_weight(inst, range(inst.n)) / total if total else 0.0
        want = [w * scale for w in want]
        got = mst_core_allocate(inst, inst.weights).values
        assert sum(abs(g - w) for g, w in zip(got, want)) <= 1e-12 * max(sum(want), 1e-300), seed


@pytest.mark.parametrize("weights", ["float", "integer", "power-of-two", "scaled"])
def test_core_allocation_is_the_integral_rescaled_to_kruskals_tree_cost(weights):
    # the tree cost is Kruskal's own sum, so the normalization is exact
    for seed in range(500):
        rng = np.random.default_rng(seed + 4100)
        inst = gen_random(GameKind.MIN_SPANNING_TREE, 1 + seed % 12, float(rng.uniform(0.1, 0.9)), 10.0, seed)
        if weights == "integer":  # ties and zeros
            inst = inst.with_weights(tuple(float(w) for w in rng.integers(0, 5, size=inst.m)))
        elif weights == "power-of-two":
            inst = inst.with_weights(tuple(2.0 ** int(k) for k in rng.integers(-6, 7, size=inst.m)))
        elif weights == "scaled":
            inst = inst.with_weights(tuple(w * 10.0 ** (200 if seed % 2 else -200) for w in inst.weights))
        cost = mst_weight(inst, range(inst.n))
        want = normalize_welfare(integrate_mst(inst, inst.weights), cost).values
        assert mst_core_allocate(inst, inst.weights).values == want, seed


# tree cost exactly sys.float_info.max; agent 3's share is nearly all of it
MAX_COST_TREE = mst_instance(5, [
    (ROOT, 0, 1e300), (ROOT, 1, 2.2250738585072014e-308), (ROOT, 2, 1.0),
    (ROOT, 3, sys.float_info.max), (ROOT, 4, sys.float_info.max),
    (0, 1, 1e-300), (1, 4, 2.2250738585072014e-308), (2, 4, 1e300),
])


def test_core_shares_of_a_tree_cost_at_the_float_max_stay_finite():
    # the scale grand / norm rounds up; no share may pass the grand value
    assert mst_weight(MAX_COST_TREE, range(5)) == sys.float_info.max
    shares = mst_core_allocate(MAX_COST_TREE, MAX_COST_TREE.weights).values
    assert all(0.0 <= x <= sys.float_info.max for x in shares)
    assert math.fsum(shares) == sys.float_info.max


def test_integrate_zero_weights():
    inst = mst_instance(2, [(ROOT, 0, 0.0), (ROOT, 1, 0.0)])
    assert integrate_mst(inst, inst.weights).values == (0.0, 0.0)


@pytest.mark.parametrize("seed", range(3))
def test_integrate_matches_monte_carlo(seed):
    inst = gen_random(GameKind.MIN_SPANNING_TREE, 6, 0.4, 10.0, seed)
    closed = integrate_mst(inst, inst.weights).as_array()
    mean, se = mc_mean_and_se(mc_mst_samples(inst, inst.weights, 20_000, seed + 7))
    assert np.all(np.abs(closed - mean) <= 3 * se + 1e-9)


@pytest.mark.parametrize("exponent", [-40, -60])
def test_integrate_matches_monte_carlo_at_tiny_scales(exponent):
    # merge levels of distinct rounded weights differ by a factor of two,
    # so the Monte-Carlo oracle must tell them apart at any scale
    scale = 2.0**exponent
    inst = gen_random(GameKind.MIN_SPANNING_TREE, 5, 0.7, 10.0, 20003)
    weights = tuple(w * scale for w in inst.weights)
    closed = integrate_mst(inst, weights).as_array()
    mean, se = mc_mean_and_se(mc_mst_samples(inst, weights, 20_000, 7))
    assert np.all(np.abs(closed - mean) <= 3 * se + 1e-12 * scale)


@pytest.mark.parametrize("seed", range(6))
def test_within_interval_scaling(seed):
    inst = gen_random(GameKind.MIN_SPANNING_TREE, 5, 0.5, 10.0, seed)
    rng = np.random.default_rng(seed)
    for lo, hi in breakpoints(inst.weights, 2.0).intervals():
        for _ in range(4):
            b1, b2 = sorted(lo + (hi - lo) * rng.uniform(0.01, 0.99, size=2))
            z1 = mst_allocate(inst, inst.weights, b1).as_array()
            z2 = mst_allocate(inst, inst.weights, b2).as_array()
            np.testing.assert_allclose(z2, 2.0 ** (b2 - b1) * z1, rtol=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_single_edge_bump_fixed_offset_bound(seed):
    rng = np.random.default_rng(seed + 300)
    inst = gen_random(GameKind.MIN_SPANNING_TREE, 6, 0.5, 10.0, seed)
    eid = int(rng.integers(inst.m))
    w_f = inst.weights[eid]
    delta = w_f * 0.6
    bumped = perturb(inst.weights, eid, delta)
    for b in rng.uniform(0, 1, size=12):
        r1 = round_weights(inst.weights, b, 2.0)
        r2 = round_weights(bumped, b, 2.0)
        z1 = mst_allocate(inst, inst.weights, b)
        z2 = mst_allocate(inst, bumped, b)
        if r1[eid] == r2[eid]:
            assert z1.values == z2.values
        else:
            assert l1_distance(z1, z2) <= r1[eid] + 2 * r2[eid] + 1e-9


@pytest.mark.parametrize("seed", range(6))
def test_integrated_single_edge_sensitivity(seed):
    inst = gen_random(GameKind.MIN_SPANNING_TREE, 6, 0.4, 10.0, seed)
    base_out = integrate_mst(inst, inst.weights)
    bound = 10.0 / math.log(2.0)
    for e in inst.edges:
        w_f = inst.weights[e.id]
        for delta in (w_f, w_f / 10):
            out = integrate_mst(inst, perturb(inst.weights, e.id, delta))
            assert l1_distance(base_out, out) <= bound * delta + 1e-9


def test_core_allocate_single_agent():
    assert mst_core_allocate(SINGLE, SINGLE.weights).values == pytest.approx((1.0,))
    scaled = mst_instance(1, [(ROOT, 0, 7.5)])
    assert mst_core_allocate(scaled, scaled.weights).values == pytest.approx((7.5,))


def test_core_allocate_three_vertex_example():
    x = mst_core_allocate(MST3, MST3.weights)
    assert x.total() == pytest.approx(3.0, abs=1e-9)
    assert x.values[0] <= 4 * 1.0 + 1e-9
    assert x.values[1] <= 4 * 4.0 + 1e-9
    report = core_check(MST3, x, 4.0)
    assert report.passed


@pytest.mark.parametrize("seed", range(6))
def test_core_allocate_sums_to_tree_cost(seed):
    inst = gen_random(GameKind.MIN_SPANNING_TREE, 7, 0.5, 10.0, seed)
    x = mst_core_allocate(inst, inst.weights)
    assert x.total() == pytest.approx(mst_weight(inst, range(inst.n)), abs=1e-9)


def test_tree_serialization_schema():
    tree = auxiliary_tree(MST3, (1.0, 4.0, 2.0))
    data = tree.to_dict()
    assert set(data) == {"nodes"}
    for node in data["nodes"]:
        assert set(node) == {"id", "h", "children", "leaf"}
    leaves = {node["leaf"] for node in data["nodes"] if node["leaf"] is not None}
    assert leaves == {ROOT, 0, 1}
