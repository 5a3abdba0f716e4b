"""The lockstep tree Monte-Carlo oracle against its one-sample reference."""

from __future__ import annotations

import numpy as np
import pytest

from coregauge.games import ROOT, GameKind
from coregauge.instances import gen_random

from mc_oracle import _mst_alloc_lockstep, _mst_alloc_once, _rounded_matrix, stratified_offsets

SAMPLES = 400


@pytest.mark.parametrize("seed", range(12))
def test_lockstep_kruskal_rows_equal_the_scalar_pass(seed):
    n = 1 + seed % 9
    inst = gen_random(GameKind.MIN_SPANNING_TREE, n, (0.2, 0.4, 0.7)[seed % 3], 10.0, 20_000 + seed)
    w = np.asarray(inst.weights)
    if seed % 2:
        w = np.round(w)  # integer weights: many exact ties and zero weights
    rounded = _rounded_matrix(w, stratified_offsets(SAMPLES, seed), 2.0)
    orders = np.argsort(rounded, axis=1, kind="stable")
    eu = np.asarray([n if e.u == ROOT else e.u for e in inst.edges])
    ev = np.asarray([n if e.v == ROOT else e.v for e in inst.edges])
    got = _mst_alloc_lockstep(n, eu, ev, rounded, orders)
    want = np.array([
        _mst_alloc_once(n, eu.tolist(), ev.tolist(), rounded[s].tolist(), orders[s].tolist())
        for s in range(SAMPLES)
    ])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
