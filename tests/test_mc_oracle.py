"""The run-sharing Monte-Carlo oracle against its per-sample reference."""

from __future__ import annotations

import sys

import numpy as np
import pytest

from coregauge.games import GameKind
from coregauge.instances import gen_random

from mc_oracle import _exponent_matrix, _rounded_matrix, _run_rows, matching_rule, mst_rule, stratified_offsets

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


def _fully_repaired_exponents(w: np.ndarray, b: np.ndarray, base: float) -> np.ndarray:
    """floor(log) and two rounds of the defining repair at every entry."""
    pos = w > 0
    logs = np.full(w.shape, -np.inf)
    logs[pos] = np.log(w[pos]) / np.log(base)
    expo = np.floor(logs[None, :] - b[:, None])
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(2):
            expo[pos[None, :] & (base ** (expo + b[:, None]) > w)] -= 1.0
            expo[pos[None, :] & (base ** (expo + 1.0 + b[:, None]) <= w)] += 1.0
    return expo


@pytest.mark.parametrize("base", [1.0 + 2 * sys.float_info.epsilon, 1.00002, 1.1, 2.0])
def test_boundary_repair_equals_the_full_repair_at_every_magnitude(base):
    # in exponent units the float error grows with |log_base w| and with
    # 1 / log(base): bases near 1 and weights near the float extremes
    rng = np.random.default_rng(31)
    scales = np.array([0.0, 5e-324, 3e-308, 1e-300, 1.0, 1e200, 1e308, sys.float_info.max])
    w = np.r_[scales, scales[1:-1] * rng.uniform(0.5, 1.0, len(scales) - 2)]
    b = np.r_[stratified_offsets(SAMPLES, 5), 0.0, 0.5]
    np.testing.assert_array_equal(_exponent_matrix(w, b, base), _fully_repaired_exponents(w, b, base))
