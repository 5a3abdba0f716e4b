"""Monte-Carlo oracles for the closed-form offset integrals.

Each sampled offset gets a full, independent run of the fixed-offset
allocator: rounding exponents recomputed from scratch, greedy scan or
Kruskal merges executed per sample. Nothing here reuses the package's
breakpoint or scaling machinery, so agreement with the closed forms is
a real cross-check. Offsets are stratified over [0, 1) (one uniform
draw per equal-width stratum), which keeps the estimator unbiased while
shrinking its true error far below the iid standard-error yardstick.
"""

from __future__ import annotations

import numpy as np

from coregauge.games import ROOT, GameInstance

GROUP_TOL = 1e-12


def stratified_offsets(samples: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (np.arange(samples) + rng.random(samples)) / samples


def _rounded_matrix(weights: np.ndarray, b: np.ndarray, base: float) -> np.ndarray:
    """Per-sample rounded weights, shape (samples, edges)."""
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
    rounded = np.where(pos[None, :], base ** (expo + 1.0 + b[:, None]), 0.0)
    return rounded


def mc_matching_samples(
    inst: GameInstance, weights, base: float, samples: int, seed: int
) -> np.ndarray:
    """Greedy payout vectors for stratified offsets, shape (samples, n).

    Every sample runs the full greedy scan: edges ranked by its own
    rounded weights (ties by edge id), matched only when both endpoints
    are free.
    """
    b = stratified_offsets(samples, seed)
    w = np.asarray(weights, dtype=float)
    rounded = _rounded_matrix(w, b, base)
    order = np.argsort(-rounded, axis=1, kind="stable")  # stable: ties keep id order
    eu = np.asarray([e.u for e in inst.edges])
    ev = np.asarray([e.v for e in inst.edges])
    covered = np.zeros((samples, inst.n), dtype=bool)
    z = np.zeros((samples, inst.n))
    rows = np.arange(samples)
    for p in range(inst.m):
        eid = order[:, p]
        val = rounded[rows, eid]
        u = eu[eid]
        v = ev[eid]
        ok = (val > 0) & ~covered[rows, u] & ~covered[rows, v]
        hit = rows[ok]
        covered[hit, u[ok]] = True
        covered[hit, v[ok]] = True
        z[hit, u[ok]] = val[ok]
        z[hit, v[ok]] = val[ok]
    return z


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


def _find(parent: np.ndarray, rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Union-find roots of vertex x[i] in row rows[i]."""
    while True:
        up = parent[rows, x]
        moving = up != x
        if not moving.any():
            return x
        x = np.where(moving, up, x)


def _mst_alloc_lockstep(n: int, eu: np.ndarray, ev: np.ndarray, rounded: np.ndarray,
                        orders: np.ndarray) -> np.ndarray:
    """_mst_alloc_once on every row at once, shape (samples, n).

    Union-find arrays have shape (samples, n+1), slot n is the supply
    vertex. A payout to a whole component is added to its root's offset,
    and a vertex's payout is the sum of the offsets on its path to the
    root, so linking root b under root a subtracts a's offset from b's.
    Each component that exists when a tie group starts is paid once, the
    first time it merges in that group.
    """
    samples, m = orders.shape
    rows = np.arange(samples)
    parent = np.tile(np.arange(n + 1), (samples, 1))
    size = np.tile(np.append(np.ones(n), 0.0), (samples, 1))  # agents per component
    supply = np.zeros((samples, n + 1), dtype=bool)
    supply[:, n] = True
    offset = np.zeros((samples, n + 1))
    merged_in = np.full((samples, n + 1), -1)  # tie group of a root's last merge
    group = np.zeros(samples, dtype=int)
    level = rounded[rows, orders[:, 0]] if m else np.zeros(samples)
    for p in range(m):
        eid = orders[:, p]
        val = rounded[rows, eid]
        fresh = val - level > GROUP_TOL
        group += fresh
        level = np.where(fresh, val, level)
        a = _find(parent, rows, eu[eid])
        b = _find(parent, rows, ev[eid])
        hit = a != b
        r, a, b, lv, g = rows[hit], a[hit], b[hit], level[hit], group[hit]
        for x in (a, b):
            pay = (merged_in[r, x] != g) & ~supply[r, x] & (lv > 0.0)
            offset[r[pay], x[pay]] += lv[pay] / size[r[pay], x[pay]]
        offset[r, b] -= offset[r, a]
        parent[r, b] = a
        size[r, a] += size[r, b]
        supply[r, a] |= supply[r, b]
        merged_in[r, a] = g
    z = offset[:, :n].copy()
    x = np.tile(np.arange(n), (samples, 1))
    while True:
        up = np.take_along_axis(parent, x, axis=1)
        moving = up != x
        if not moving.any():
            return z
        x = np.where(moving, up, x)
        z += np.where(moving, np.take_along_axis(offset, x, axis=1), 0.0)


def mc_mst_samples(
    inst: GameInstance, weights, samples: int, seed: int
) -> np.ndarray:
    """Cost-share vectors for stratified offsets, shape (samples, n): every
    sample runs its own Kruskal pass, all samples in lockstep."""
    b = stratified_offsets(samples, seed)
    w = np.asarray(weights, dtype=float)
    rounded = _rounded_matrix(w, b, 2.0)
    orders = np.argsort(rounded, axis=1, kind="stable")
    eu = np.asarray([inst.n if e.u == ROOT else e.u for e in inst.edges], dtype=int)
    ev = np.asarray([inst.n if e.v == ROOT else e.v for e in inst.edges], dtype=int)
    return _mst_alloc_lockstep(inst.n, eu, ev, rounded, orders)


def mc_mean_and_se(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = samples.mean(axis=0)
    se = samples.std(axis=0, ddof=1) / np.sqrt(samples.shape[0])
    return mean, se
