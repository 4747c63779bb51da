"""Exact q-series and partition verification toolkit.

Truncated integer power series on a half-exponent grid, constrained
partition enumeration with chain weights, a staged partition bijection,
Bailey pair machinery, bounded polynomial analogues, and a catalog of
runnable checks tying them together.
"""

from .series import (
    FactorSpec,
    TruncSeries,
    collapse_zw,
    inv_poch_finite,
    inv_poch_infinite,
    jacobi_sides,
    monomial,
    one,
    poch_finite,
    poch_infinite,
    poch_product,
    q_coefficients,
    series_diff,
    truncate,
    zero,
    zw_slice,
)
from .partitions import (
    Chain,
    Partition,
    ResidueFamilyConfig,
    chains,
    count_g,
    count_gg,
    count_p,
    count_q,
    count_residue_family,
    count_thm1_side,
    count_thm2_sides,
    enumerate_members,
    enumerate_partitions,
    interp_config,
    is_gollnitz_gordon,
    weighted_count,
)
from .bijection import (
    MarkedPartition,
    SplitPair,
    TriplePartition,
    euler_add,
    euler_subtract,
    ferrers_graph,
    ferrers_merge,
    ferrers_split,
    identify,
    redistribute,
    redistribute_inverse,
    split_pairs,
    trace_pipeline,
    triple_inverse,
    triple_map,
    triple_partitions,
)
from .bailey import (
    BaileyPair,
    iterate_closed,
    lhs_4_7,
    rhs_4_7,
    seed_E4,
    step,
)
from .trinomials import (
    limit_4_9,
    limit_4_10,
    limit_4_17,
    limit_4_18,
    q_binomial,
    sides_4_15,
    sides_4_20,
    t_ab,
    t_warnaar,
    u_tilde,
)
from .registry import (
    Corruption,
    UnknownCheckError,
    VerificationReport,
    registry_ids,
    run_all,
    run_check,
)

__version__ = "0.1.0"
