"""Monte-Carlo oracles for the closed-form offset integrals.

Each sampled offset gets its own rounding exponents, recomputed from
scratch by floor(log) and a repair to the defining inequality. Samples
with equal exponent vectors are consecutive, because the offsets are
stratified and increase and each positive edge changes exponent at most
once on [0, 1). The fixed-offset rule (a greedy scan or Kruskal merges)
runs in full once per such run, on the run's first rounded row. Every
other row of the run is that row's output times base**(b - b_first),
since its rounded weights are the first row's times that factor and the
rule is homogeneous of degree one. Nothing here reuses the package's
breakpoint or scaling machinery: the runs come from the oracle's own
per-sample exponents, so agreement with the closed forms is a real
cross-check. Offsets are stratified over [0, 1) (one uniform draw per
equal-width stratum), which keeps the estimator unbiased while shrinking
its true error far below the iid standard-error yardstick.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from coregauge.games import ROOT, GameInstance

GROUP_TOL = 1e-12

Rule = Callable[[np.ndarray], list[float]]


def stratified_offsets(samples: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (np.arange(samples) + rng.random(samples)) / samples


def _exponent_matrix(weights: np.ndarray, b: np.ndarray, base: float) -> np.ndarray:
    """Per-sample rounding exponents, shape (samples, edges); -inf marks a
    zero weight."""
    pos = weights > 0
    logs = np.full(weights.shape, -np.inf)
    logs[pos] = np.log(weights[pos]) / np.log(base)
    expo = np.floor(logs[None, :] - b[:, None])
    w_row = weights[None, :]
    for _ in range(2):  # repair float-log boundary misses
        too_high = pos[None, :] & (base ** (expo + b[:, None]) > w_row)
        expo[too_high] -= 1.0
        too_low = pos[None, :] & (base ** (expo + 1.0 + b[:, None]) <= w_row)
        expo[too_low] += 1.0
    return expo


def _rounded_matrix(weights: np.ndarray, b: np.ndarray, base: float) -> np.ndarray:
    """Per-sample rounded weights, shape (samples, edges)."""
    expo = _exponent_matrix(weights, b, base)
    return np.where(weights > 0, base ** (expo + 1.0 + b[:, None]), 0.0)


def _run_rows(rule: Rule, n: int, weights, base: float, b: np.ndarray) -> np.ndarray:
    """rule(rounded row) for every offset in b, shape (samples, n), with
    one rule run per run of equal exponent vectors."""
    w = np.asarray(weights, dtype=float)
    expo = _exponent_matrix(w, b, base)
    starts = np.flatnonzero(np.r_[True, (expo[1:] != expo[:-1]).any(axis=1)])
    assert len(starts) <= np.count_nonzero(w > 0) + 1, "an edge changed exponent twice"
    out = np.empty((len(b), n))
    for lo, hi in zip(starts, np.r_[starts[1:], len(b)]):
        row = np.where(w > 0, base ** (expo[lo] + 1.0 + b[lo]), 0.0)
        out[lo:hi] = np.outer(base ** (b[lo:hi] - b[lo]), rule(row))
    return out


def _greedy_once(n: int, eu, ev, rounded_row: np.ndarray) -> list[float]:
    """One greedy scan: edges ranked by rounded weight, ties by edge id;
    an edge of positive weight whose endpoints are both free is matched
    and pays each endpoint its weight."""
    z = [0.0] * n
    free = [True] * n
    row = rounded_row.tolist()
    for eid in np.argsort(-rounded_row, kind="stable").tolist():
        u, v = eu[eid], ev[eid]
        if row[eid] > 0 and free[u] and free[v]:
            free[u] = free[v] = False
            z[u] = z[v] = row[eid]
    return z


def matching_rule(inst: GameInstance) -> Rule:
    eu = [e.u for e in inst.edges]
    ev = [e.v for e in inst.edges]
    return lambda row: _greedy_once(inst.n, eu, ev, row)


def mc_matching_samples(
    inst: GameInstance, weights, base: float, samples: int, seed: int
) -> np.ndarray:
    """Greedy payout vectors for stratified offsets, shape (samples, n)."""
    b = stratified_offsets(samples, seed)
    return _run_rows(matching_rule(inst), inst.n, weights, base, b)


def _mst_alloc_once(n: int, eu, ev, rounded_row, order) -> list[float]:
    """One honest Kruskal pass: equal weights merge simultaneously and
    every swallowed supply-free component receives the merge weight
    split over its members. Components are vertex bitmasks; bit n marks
    the supply vertex."""
    supply_bit = 1 << n
    parent = list(range(n + 1))
    comp = [1 << v for v in range(n)] + [supply_bit]
    z = [0.0] * n
    m = len(order)
    pos = 0
    while pos < m:
        level = rounded_row[order[pos]]
        absorbed: dict[int, list[int]] = {}
        while pos < m and rounded_row[order[pos]] - level <= GROUP_TOL:
            eid = order[pos]
            pos += 1
            a = eu[eid]
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            b = ev[eid]
            while parent[b] != b:
                parent[b] = parent[parent[b]]
                b = parent[b]
            if a == b:
                continue
            la = absorbed.pop(a, None) or [a]
            lb = absorbed.pop(b, None) or [b]
            parent[b] = a
            absorbed[a] = la + lb
        for new_root, olds in absorbed.items():
            merged = 0
            for o in olds:
                mask = comp[o]
                merged |= mask
                if level > 0.0 and not mask & supply_bit:
                    share = level / mask.bit_count()
                    v = 0
                    while mask:
                        if mask & 1:
                            z[v] += share
                        mask >>= 1
                        v += 1
            comp[new_root] = merged
    return z


def mst_rule(inst: GameInstance) -> Rule:
    eu = [inst.n if e.u == ROOT else e.u for e in inst.edges]
    ev = [inst.n if e.v == ROOT else e.v for e in inst.edges]
    return lambda row: _mst_alloc_once(
        inst.n, eu, ev, row.tolist(), np.argsort(row, kind="stable").tolist()
    )


def mc_mst_samples(
    inst: GameInstance, weights, samples: int, seed: int
) -> np.ndarray:
    """Kruskal cost-share vectors for stratified offsets, shape (samples, n)."""
    b = stratified_offsets(samples, seed)
    return _run_rows(mst_rule(inst), inst.n, weights, 2.0, b)


def mc_mean_and_se(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = samples.mean(axis=0)
    se = samples.std(axis=0, ddof=1) / np.sqrt(samples.shape[0])
    return mean, se
