"""Perturbation-stable approximate-core allocations for matching and
spanning-tree games, with exact oracles and verification tooling."""

from .games import (
    ROOT,
    Allocation,
    Edge,
    GameInstance,
    GameKind,
    dump_instance,
    instance_from_dict,
    instance_to_dict,
    l1_distance,
    load_instance,
    perturb,
    validate_instance,
)
from .oracles import (
    CharTable,
    agents_of,
    char_table,
    char_value,
    coalition_values,
    marginal_monotonicity_check,
    mask_of,
    max_weight_matching,
    mst_weight,
)
from .rounding import (
    RoundingSchedule,
    breakpoints,
    differing_offset_measure,
    offset_average,
    round_weights,
)
from .matching import (
    GreedyTrace,
    greedy_allocate,
    integrate_matching,
    matching_core_allocate,
    matching_core_factor,
    matching_raw_sensitivity_bound,
    matching_sensitivity_bound,
    normalize_welfare,
)
from .mst import (
    MST_CORE_FACTOR,
    AuxiliaryTree,
    auxiliary_tree,
    connector_sum,
    integrate_mst,
    mst_allocate,
    mst_core_allocate,
    mst_raw_sensitivity_bound,
    mst_sensitivity_bound,
)
from .shapley import (
    matching_lower_bound_value,
    shapley_exact,
    shapley_sample,
)
from .analysis import (
    ALLOCATOR_NAMES,
    CoreReport,
    LipschitzReport,
    ProbeRow,
    core_check,
    exact_core_solve,
    iter_core_rows,
    lipschitz_scan,
    named_allocator,
    probe_deltas,
)
from .instances import (
    gen_path_pair_bumped,
    gen_path_pair_zero_ends,
    gen_path_uniform,
    gen_random,
)

__version__ = "0.1.0"
