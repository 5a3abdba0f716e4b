"""The run-sharing Monte-Carlo oracle against its per-sample reference."""

from __future__ import annotations

import numpy as np
import pytest

from coregauge.games import GameKind
from coregauge.instances import gen_random

from mc_oracle import _rounded_matrix, _run_rows, matching_rule, mst_rule, stratified_offsets

SAMPLES = 2000


@pytest.mark.parametrize("kind", GameKind)
@pytest.mark.parametrize("seed", range(12))
def test_run_rows_equal_the_direct_rows(kind, seed):
    n = 1 + seed % 9
    inst = gen_random(kind, n, (0.2, 0.4, 0.7)[seed % 3], 10.0, 20_000 + seed)
    w = np.asarray(inst.weights)
    if seed % 2:
        w = np.round(w)  # integer weights: many exact ties and zero weights
    tree = kind is GameKind.MIN_SPANNING_TREE
    base = 2.0 if tree else (1.1, 1.5, 2.0)[seed // 4]
    rule = (mst_rule if tree else matching_rule)(inst)
    b = stratified_offsets(SAMPLES, seed)
    want = np.array([rule(row) for row in _rounded_matrix(w, b, base)])
    np.testing.assert_allclose(_run_rows(rule, n, w, base, b), want, rtol=1e-12, atol=0)
