"""Homogeneity of both core allocators: A(2^k w) = 2^k A(w).

Scaling every weight by c = base**t shifts the rounding offset by the
fractional part of t, and the offset average over a full period does not
see the shift, so the raw integral scales by c and the normalized
allocation does too. Multiplying by 2^k is exact in floats, so only the
round-off of the logs and of the sums remains.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coregauge.games import GameKind, l1_distance
from coregauge.instances import gen_random
from coregauge.matching import matching_core_allocate
from coregauge.mst import mst_core_allocate
from coregauge.oracles import char_value

ALLOCATORS = [
    (GameKind.MIN_SPANNING_TREE, mst_core_allocate),
    (GameKind.MATCHING, lambda inst, w: matching_core_allocate(inst, w, 0.05)),
    (GameKind.MATCHING, lambda inst, w: matching_core_allocate(inst, w, 0.25)),
]


@pytest.mark.parametrize("kind,allocate", ALLOCATORS, ids=["mst", "matching-0.05", "matching-0.25"])
@given(seed=st.integers(0, 4), k=st.integers(-1000, 1000))
@settings(max_examples=40, deadline=None)
def test_core_allocators_are_homogeneous_under_powers_of_two(kind, allocate, seed, k):
    inst = gen_random(kind, 6, 0.6, 10.0, seed)
    scaled = tuple(math.ldexp(w, k) for w in inst.weights)
    want = [math.ldexp(v, k) for v in allocate(inst, inst.weights).values]
    got = allocate(inst.with_weights(scaled), scaled).values
    assert l1_distance(got, want) <= 1e-12 * math.fsum(want), (seed, k)


@pytest.mark.parametrize("kind,allocate", ALLOCATORS, ids=["mst", "matching-0.05", "matching-0.25"])
@given(seed=st.integers(0, 39), k=st.integers(-1080, -990))
@settings(max_examples=40, deadline=None)
def test_core_allocators_stay_efficient_down_to_subnormal_weights(kind, allocate, seed, k):
    # Below 2^-1022 the payouts are subnormal: each one can be off by up to
    # 2^-1074 (a lone edge of 5e-324 has no representable halves), and no more.
    inst = gen_random(kind, 6, 0.6, 10.0, seed)
    scaled = inst.with_weights([math.ldexp(w, k) for w in inst.weights])
    grand = char_value(scaled, range(scaled.n))
    total = math.fsum(allocate(scaled, scaled.weights).values)
    assert abs(total - grand) <= scaled.n * 2.0**-1074 + 1e-12 * grand, (seed, k)
