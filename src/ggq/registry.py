"""Catalog of verifiable statements with a uniform runner.

Every entry builds a list of facets: pairs of independently computed
objects that must agree, either truncated series or count sequences.
The first facet is the primary one; the corruption hook perturbs a
single coefficient there and must flip the verdict.

Check ids are opaque catalog keys and form the public contract of the
command line front end.  Each id has two parameter sets: "quick" (the
acceptance bounds) and "full" (extended bounds).
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

from .bailey import (
    defining_sum,
    iterate_closed,
    lhs_4_7,
    rhs_4_7,
    seed_E4,
    step,
)
from .bijection import (
    ferrers_split,
    identify,
    redistribute,
    redistribute_inverse,
    split_pairs,
    triple_partitions,
)
from .partitions import (
    MOD8_CONFIG,
    Partition,
    count_g,
    count_p,
    count_q,
    count_residue_family,
    count_thm1_side,
    count_thm2_sides,
    enumerate_members,
    interp_config,
    weighted_count,
)
from .series import (
    FactorSpec,
    TruncSeries,
    at_order,
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
    reciprocal,
    series_diff,
    zero,
    zw_slice,
)
from .trinomials import (
    lhs_4_15,
    lhs_4_20,
    limit_4_9,
    limit_4_10,
    limit_4_17,
    limit_4_18,
    n_vectors,
    rhs_4_15,
    rhs_4_20,
)

__all__ = [
    "Corruption",
    "Facet",
    "UnknownCheckError",
    "VerificationReport",
    "natural_key",
    "registry_ids",
    "run_all",
    "run_check",
]

F = FactorSpec
Q1F = F(1, 2, 2)  # (q; q)
Q2F = F(1, 4, 4)  # (q^2; q^2)
Q4F = F(1, 8, 8)  # (q^4; q^4)
MQ_Q2 = F(-1, 2, 4)  # (-q; q^2)

@dataclass
class Facet:
    label: str
    kind: str  # "series" | "counts"
    got: object
    expected: object


@dataclass(frozen=True)
class Corruption:
    """Single-coefficient perturbation applied to the primary facet.

    key: (e2, dz, dw) for a series facet, an index for a counts facet,
    or None for the smallest key present.
    """

    key: Optional[object] = None
    delta: int = 1

    def __post_init__(self):
        if self.delta == 0:
            raise ValueError("corruption delta must be nonzero")


@dataclass
class VerificationReport:
    id: str
    parameters: dict
    order2: int
    status: str  # "pass" | "fail"
    first_mismatch: Optional[str]
    elapsed_ms: int


class UnknownCheckError(ValueError):
    def __init__(self, check_id: str, valid: list[str]):
        self.check_id = check_id
        self.valid = valid
        super().__init__(
            f"unknown check id {check_id!r}; valid ids: {', '.join(valid)}"
        )


# -- shared series builders ---------------------------------------------


def _sum_regular(order2, exp2: Callable[[int], int], num, den) -> TruncSeries:
    """Sum of q^(exp2(n)/2) (num)_n / prod (den)_n over n >= 0.

    exp2 must be nondecreasing; summation stops at the first invisible
    term, which is sound because every factor has constant term 1.
    """
    total = zero(order2)
    n = 0
    while exp2(n) < order2:
        term = monomial(1, exp2(n), order2=order2)
        if num is not None:
            term = term * poch_finite(num, n, order2=order2)
        for d in den:
            term = term * inv_poch_finite(d, n, order2=order2)
        total = total + term
        n += 1
    return total


def _single_pair_sum(order2, marked: bool) -> TruncSeries:
    """The two-headed single sum: term n >= 1 contributes
    (q^(n^2+n) + [w] q^(n^2+n-1)) (-[w]q; q^2)_{n-1} / (q^2; q^2)_n,
    where [w] marks the w-degree when marked is True."""
    dw = 1 if marked else 0
    shifted = F(-1, 2, 4, 0, dw)
    total = one(order2)
    n = 1
    while 2 * n * n + 2 * n - 2 < order2:
        head = monomial(1, 2 * n * n + 2 * n, order2=order2) + monomial(
            1, 2 * n * n + 2 * n - 2, 0, dw, order2=order2
        )
        term = head * poch_finite(shifted, n - 1, order2=order2)
        total = total + term * inv_poch_finite(Q2F, n, order2=order2)
        n += 1
    return total


def _double_grid(order2, exp2):
    """(n1, n2) with exp2(n1, n2) < order2; exp2 nondecreasing in n1 for
    fixed n2 and, at n1 = 0, eventually increasing in n2."""
    n2 = 0
    while True:
        if exp2(0, n2) >= order2 and n2 > 0:
            break
        n1 = 0
        while exp2(n1, n2) < order2:
            yield n1, n2
            n1 += 1
        n2 += 1


def _double_sum(order2, exp2, num, den2, z_mark: bool, w_mark: bool) -> TruncSeries:
    """Sum over (n1, n2) of z^n1 w^n2 q^(exp2/2) (num)_{n2} /
    ((q^2; q^2)_{n1} (den2)_{n2}); markers dropped when not tracked."""
    total = zero(order2)
    for n1, n2 in _double_grid(order2, exp2):
        term = monomial(
            1,
            exp2(n1, n2),
            n1 if z_mark else 0,
            n2 if w_mark else 0,
            order2=order2,
        )
        if num is not None:
            term = term * poch_finite(num, n2, order2=order2)
        term = term * inv_poch_finite(Q2F, n1, order2=order2)
        term = term * inv_poch_finite(den2, n2, order2=order2)
        total = total + term
    return total


def _lhs_hierarchy(k: int, order2: int) -> TruncSeries:
    total = zero(order2)
    for nvec in n_vectors(k, order2, order2):  # the budget binds, not the cap
        e2 = 2 * (sum(v * v for v in nvec) + 2 * nvec[-1])
        term = monomial(1, e2, order2=order2)
        term = term * poch_finite(MQ_Q2, nvec[-1], order2=order2)
        for i in range(k - 1):
            term = term * inv_poch_finite(
                Q2F, nvec[i] - nvec[i + 1], order2=order2
            )
        term = term * inv_poch_finite(Q4F, nvec[-1], order2=order2)
        total = total + term
    return total


def _hier_form1(k: int, order2: int) -> TruncSeries:
    m = 4 * k + 8
    triple = poch_product(
        [F(1, m, m), F(1, 2 * k, m), F(1, 2 * k + 8, m)], order2=order2
    )
    return (
        triple
        * poch_infinite(MQ_Q2, order2=order2)
        * inv_poch_infinite(Q2F, order2=order2)
    )


def _hier_form2(k: int, order2: int) -> TruncSeries:
    m = 4 * k + 8
    triple = poch_product(
        [F(1, m, m), F(1, 2 * k, m), F(1, 2 * k + 8, m)], order2=order2
    )
    return (
        triple
        * poch_infinite(F(1, 4, 8), order2=order2)
        * inv_poch_infinite(Q1F, order2=order2)
    )


def _hier_rewrite(k: int, order2: int) -> Optional[TruncSeries]:
    """Quadruple-product forms; only for k odd and k = 2 mod 4."""
    if k % 2 == 1:
        m = 4 * k + 8
        specs = [
            F(1, 4, 8),
            F(1, 2 * k, m),
            F(1, 2 * k + 8, m),
            F(1, 2 * k + 4, m),
            F(-1, 2 * k + 4, m),
            F(1, 8 * k + 16, 8 * k + 16),
        ]
    elif k % 4 == 2:
        m = 2 * k + 4
        specs = [
            F(1, 4, 8),
            F(1, 4 * k + 8, 4 * k + 8),
            F(1, k, m),
            F(-1, k, m),
            F(1, k + 4, m),
            F(-1, k + 4, m),
        ]
    else:
        return None
    return poch_product(specs, order2=order2) * inv_poch_infinite(
        Q1F, order2=order2
    )


def _counts_cap(counts_max: int, order2: int) -> int:
    return min(counts_max, (order2 - 1) // 2)


def _counts_facet(label, series: TruncSeries, cmax: int, oracle) -> Facet:
    """The q^0..q^cmax coefficients of series against oracle(n)."""
    return Facet(
        label,
        "counts",
        q_coefficients(series, cmax),
        [oracle(n) for n in range(cmax + 1)],
    )


# -- builders, one per catalog id ---------------------------------------


def _build_1_1(order2, counts_max):
    lhs = _sum_regular(order2, lambda n: 2 * n * n + 2 * n, MQ_Q2, [Q2F])
    rhs = poch_product(
        [F(-1, 4, 8), F(-1, 6, 8), F(-1, 8, 8)], order2=order2
    )
    cmax = _counts_cap(counts_max, order2)
    return [
        Facet("sum-vs-product", "series", lhs, rhs),
        _counts_facet("product-vs-counts", rhs, cmax, lambda n: count_q(1, n)),
    ]


def _build_1_2(order2, counts_max):
    lhs = _single_pair_sum(order2, marked=False)
    rhs = poch_product(
        [F(-1, 2, 8), F(-1, 4, 8), F(-1, 8, 8)], order2=order2
    )
    cmax = _counts_cap(counts_max, order2)
    return [
        Facet("sum-vs-product", "series", lhs, rhs),
        _counts_facet("product-vs-counts", rhs, cmax, lambda n: count_q(3, n)),
    ]


def _build_1_3(order2, counts_max):
    lhs = _sum_regular(order2, lambda n: 2 * n * n, MQ_Q2, [Q2F])
    rhs = reciprocal(
        poch_product([F(1, 2, 16), F(1, 8, 16), F(1, 14, 16)], order2=order2)
    )
    cmax = _counts_cap(counts_max, order2)
    return [
        Facet("sum-vs-product", "series", lhs, rhs),
        _counts_facet(
            "product-vs-counts",
            rhs,
            cmax,
            lambda n: count_residue_family(MOD8_CONFIG[1], n),
        ),
    ]


def _build_1_4(order2, counts_max):
    lhs = _sum_regular(order2, lambda n: 2 * (n * n + 2 * n), MQ_Q2, [Q2F])
    rhs = reciprocal(
        poch_product([F(1, 6, 16), F(1, 8, 16), F(1, 10, 16)], order2=order2)
    )
    cmax = _counts_cap(counts_max, order2)
    return [
        Facet("sum-vs-product", "series", lhs, rhs),
        _counts_facet(
            "product-vs-counts",
            rhs,
            cmax,
            lambda n: count_residue_family(MOD8_CONFIG[3], n),
        ),
    ]


def _build_2_7(sigma_max):
    fwd_bad = []
    fwd_total = []
    for n in range(sigma_max + 1):
        bad = 0
        total = 0
        for pi in enumerate_members("S", n):
            m = identify(pi)
            for choice in m.choices():
                pair = redistribute(m, choice)
                total += 1
                if redistribute_inverse(pair) != (m, choice):
                    bad += 1
        fwd_bad.append(bad)
        fwd_total.append(total)
    bwd_bad = []
    for n in range(sigma_max + 1):
        bad = 0
        for pair in split_pairs(n):
            m, choice = redistribute_inverse(pair)
            if redistribute(m, choice) != pair:
                bad += 1
        bwd_bad.append(bad)
    zeros = [0] * (sigma_max + 1)
    p3, p4 = ferrers_split(Partition((5, 15, 24, 29)))
    worked = list(p3.parts) + list(p4.parts)
    return [
        Facet("forward-roundtrip-failures", "counts", fwd_bad, zeros),
        Facet("backward-roundtrip-failures", "counts", bwd_bad, zeros),
        Facet(
            "choice-count-vs-weight",
            "counts",
            fwd_total,
            [weighted_count("S", n) for n in range(sigma_max + 1)],
        ),
        Facet(
            "worked-example-split",
            "counts",
            worked,
            [4, 12, 20, 24, 1, 5, 7],
        ),
    ]


def _exp_3_3(n1, n2):
    return 2 * (n1 * n1 + 2 * n1 * n2 + 2 * n2 * n2 + 2 * n2)


def _exp_3_4(n1, n2):
    return 2 * (n1 * n1 + 2 * n1 * n2 + 2 * n2 * n2)


def _exp_3_5(n1, n2):
    return 2 * (n1 * n1 + 2 * n1 * n2 + 2 * n2 * n2 + n1 + n2)


def _exp_3_8(n1, n2):
    return 2 * (n1 * n1 + 2 * n1 * n2 + 2 * n2 * n2 + n1 - n2)


def _build_3_2(order2, counts_max, triples_max):
    lhs = _double_sum(order2, _exp_3_3, MQ_Q2, Q4F, False, False)
    rhs_a = poch_product(
        [F(-1, 2, 8), F(-1, 6, 8), F(-1, 8, 8)], order2=order2
    )
    rhs_b = poch_product([F(-1, 2, 4), F(-1, 8, 8)], order2=order2)
    cmax = _counts_cap(counts_max, order2)
    tmax = min(triples_max, cmax)
    return [
        Facet("sum-vs-product", "series", lhs, rhs_a),
        Facet("product-vs-product", "series", rhs_a, rhs_b),
        _counts_facet("sum-vs-counts", lhs, cmax, lambda n: count_q(2, n)),
        _counts_facet(
            "sum-vs-triples", lhs, tmax, lambda n: len(triple_partitions(n))
        ),
    ]


def _build_3_3(order2):
    lhs = _double_sum(order2, _exp_3_3, F(-1, 2, 4, 1), Q4F, True, True)
    rhs = poch_product(
        [F(-1, 2, 8, 1), F(-1, 6, 8, 1), F(-1, 8, 8, 0, 1)], order2=order2
    )
    return [Facet("sum-vs-product", "series", lhs, rhs)]


def _build_3_4(order2, counts_max):
    lhs = _double_sum(order2, _exp_3_4, F(-1, 2, 4, 1), Q4F, True, True)
    rhs = poch_product(
        [F(-1, 2, 8, 1), F(-1, 6, 8, 1), F(-1, 4, 8, 0, 1)], order2=order2
    )
    cmax = _counts_cap(counts_max, order2)
    return [
        Facet("sum-vs-product", "series", lhs, rhs),
        _counts_facet(
            "collapsed-vs-counts", collapse_zw(lhs), cmax, lambda n: count_q(0, n)
        ),
    ]


def _build_3_5(order2):
    lhs = _double_sum(order2, _exp_3_5, F(-1, 4, 4, 1), Q4F, True, True)
    rhs = poch_product(
        [F(-1, 4, 8, 1), F(-1, 6, 8, 0, 1), F(-1, 8, 8, 1)], order2=order2
    )
    return [Facet("sum-vs-product", "series", lhs, rhs)]


def _build_3_8(order2):
    lhs = _double_sum(order2, _exp_3_8, F(-1, 4, 4, 1), Q4F, True, True)
    rhs = poch_product(
        [F(-1, 4, 8, 1), F(-1, 2, 8, 0, 1), F(-1, 8, 8, 1)], order2=order2
    )
    return [Facet("sum-vs-product", "series", lhs, rhs)]


def _build_3_7(order2):
    double = _double_sum(order2, _exp_3_5, None, Q2F, False, True)
    single = _sum_regular(
        order2, lambda n: 2 * n * n + 2 * n, F(-1, 2, 4, 0, 1), [Q2F]
    )
    product = poch_product(
        [F(-1, 4, 8), F(-1, 6, 8, 0, 1), F(-1, 8, 8)], order2=order2
    )
    base = poch_product(
        [F(-1, 4, 8), F(-1, 6, 8), F(-1, 8, 8)], order2=order2
    )
    j0 = _sum_regular(order2, lambda n: 2 * n * n + 2 * n, None, [Q2F])
    return [
        Facet("double-vs-single", "series", double, single),
        Facet("single-vs-product", "series", single, product),
        Facet("collapsed-vs-base", "series", collapse_zw(product), base),
        Facet("degree-0-slice", "series", zw_slice(double, dw=0), j0),
    ]


def _build_3_10(order2):
    double = _double_sum(order2, _exp_3_8, None, Q2F, False, True)
    single = _single_pair_sum(order2, marked=True)
    product = poch_product(
        [F(-1, 4, 8), F(-1, 2, 8, 0, 1), F(-1, 8, 8)], order2=order2
    )
    base = poch_product(
        [F(-1, 2, 8), F(-1, 4, 8), F(-1, 8, 8)], order2=order2
    )
    return [
        Facet("double-vs-single", "series", double, single),
        Facet("single-vs-product", "series", single, product),
        Facet("collapsed-vs-base", "series", collapse_zw(product), base),
    ]


def _build_4_6(order2, n_max):
    p = seed_E4(n_max, order2)
    return [
        Facet(f"defining-relation n={n}", "series", p.beta[n], defining_sum(p, n))
        for n in range(n_max + 1)
    ]


def _build_4_3(order2, n_max):
    p = step(seed_E4(n_max, order2))
    return [
        Facet(f"stepped-relation n={n}", "series", p.beta[n], defining_sum(p, n))
        for n in range(n_max + 1)
    ]


def _build_4_5(order2, k_max, n_max):
    base = seed_E4(n_max, order2)
    facets = []
    cur = base
    for k in range(1, k_max + 1):
        cur = step(cur)
        closed = iterate_closed(base, k)
        for n in range(n_max + 1):
            facets.append(
                Facet(f"alpha k={k} n={n}", "series", closed.alpha[n], cur.alpha[n])
            )
            facets.append(
                Facet(f"beta k={k} n={n}", "series", closed.beta[n], cur.beta[n])
            )
    return facets


def _build_4_7(order2, n_max, k_max):
    return [
        Facet(
            f"finite-identity n={n} k={k}",
            "series",
            lhs_4_7(n, k, order2),
            rhs_4_7(n, k, order2),
        )
        for k in range(1, k_max + 1)
        for n in range(n_max + 1)
    ]


def _build_4_9(order2, m_max):
    got = [1 if limit_4_9(m, order2) else 0 for m in range(m_max + 1)]
    return [Facet("stabilizes", "counts", got, [1] * (m_max + 1))]


def _build_4_10(order2, j_max):
    got = [1 if limit_4_10(j, order2) else 0 for j in range(j_max + 1)]
    return [Facet("stabilizes", "counts", got, [1] * (j_max + 1))]


def _build_4_11(order2):
    zspecs = [((1, 0), "z=1"), ((-1, 0), "z=-1"), ((1, 2), "z=q"), ((1, 6), "z=q^3")]
    facets = []
    for zspec, label in zspecs:
        lhs, rhs = jacobi_sides(zspec, order2=order2)
        facets.append(Facet(label, "series", lhs, rhs))
    return facets


def _build_4_12(order2, k_list, counts_max):
    facets = []
    cmax = _counts_cap(counts_max, order2)
    for k in k_list:
        lhs = _lhs_hierarchy(k, order2)
        form1 = _hier_form1(k, order2)
        facets.append(Facet(f"sum-vs-product k={k}", "series", lhs, form1))
        facets.append(
            Facet(
                f"product-forms k={k}",
                "series",
                form1,
                _hier_form2(k, order2),
            )
        )
        rewrite = _hier_rewrite(k, order2)
        if rewrite is not None:
            facets.append(
                Facet(f"quadruple-form k={k}", "series", form1, rewrite)
            )
        config = interp_config(k)
        facets.append(
            _counts_facet(
                f"sum-vs-counts k={k}",
                lhs,
                cmax,
                lambda n: count_residue_family(config, n),
            )
        )
        if k == 2:
            facets.append(
                _counts_facet(
                    "sum-vs-distinct-counts k=2", lhs, cmax, lambda n: count_q(2, n)
                )
            )
    return facets


def _build_4_13(order2, counts_max):
    a = _lhs_hierarchy(2, order2)
    b = poch_product([F(-1, 2, 4), F(-1, 8, 8)], order2=order2)
    c = poch_product([F(-1, 2, 8), F(-1, 6, 8), F(-1, 8, 8)], order2=order2)
    cmax = _counts_cap(counts_max, order2)
    return [
        Facet("sum-vs-pair-product", "series", a, b),
        Facet("pair-vs-triple-product", "series", b, c),
        _counts_facet("sum-vs-counts", a, cmax, lambda n: count_q(2, n)),
    ]


def _build_4_14(order2, counts_max):
    lhs = _sum_regular(order2, lambda n: 2 * n * n + 4 * n, MQ_Q2, [Q4F])
    form1 = poch_product(
        [F(1, 4, 8), F(1, 12, 12), F(1, 2, 12), F(1, 10, 12)], order2=order2
    ) * inv_poch_infinite(Q1F, order2=order2)
    form2 = poch_infinite(F(-1, 6, 12), order2=order2) * reciprocal(
        poch_product([F(1, 8, 24), F(1, 16, 24)], order2=order2)
    )
    cmax = _counts_cap(counts_max, order2)
    return [
        Facet("sum-vs-product", "series", lhs, form1),
        Facet("product-forms", "series", form1, form2),
        Facet(
            "head-coefficients",
            "counts",
            q_coefficients(lhs, 9),
            [1, 0, 0, 1, 1, 0, 0, 1, 2, 1],
        ),
        _counts_facet("sum-vs-counts", lhs, cmax, count_p),
    ]


def _poly_facet(label, a: TruncSeries, b: TruncSeries) -> Facet:
    target = max(a.max_e2(), b.max_e2()) + 2
    return Facet(label, "series", at_order(a, target), at_order(b, target))


def _build_4_15(k_list, l_max, m_max):
    return [
        _poly_facet(
            f"doubly-bounded k={k} l={l} m={m}",
            lhs_4_15(k, l, m),
            rhs_4_15(k, l, m),
        )
        for k in k_list
        for l in range(l_max + 1)
        for m in range(m_max + 1)
    ]


def _build_4_17(order2, m_max):
    grid = [(m, 1, 0) for m in range(m_max + 1)]
    got = [1 if limit_4_17(m, a, b, order2) else 0 for m, a, b in grid]
    return [Facet("stabilizes", "counts", got, [1] * len(grid))]


def _build_4_18(order2, b_list):
    grid = [(3, 1, b) for b in b_list]
    got = [1 if limit_4_18(l, a, b, order2) else 0 for l, a, b in grid]
    return [Facet("stabilizes", "counts", got, [1] * len(grid))]


def _build_4_20(k_list, l_max):
    return [
        _poly_facet(
            f"singly-bounded k={k} l={l}", lhs_4_20(k, l), rhs_4_20(k, l)
        )
        for k in k_list
        for l in range(l_max + 1)
    ]


def _build_thm1(n_max):
    return [
        Facet(
            f"gap-side-vs-distinct-side i={i}",
            "counts",
            [count_thm1_side(i, n) for n in range(n_max + 1)],
            [count_q(i, n) for n in range(n_max + 1)],
        )
        for i in (1, 3)
    ]


def _build_thm2(n_max):
    facets = []
    for i in (1, 3):
        pairs = [count_thm2_sides(i, n) for n in range(n_max + 1)]
        facets.append(
            Facet(
                f"gap-side-vs-residue-side i={i}",
                "counts",
                [p[1] for p in pairs],
                [p[0] for p in pairs],
            )
        )
    return facets


def _build_thm3(n_max):
    return [
        Facet(
            "weighted-vs-distinct",
            "counts",
            [weighted_count("S", n) for n in range(n_max + 1)],
            [count_q(2, n) for n in range(n_max + 1)],
        )
    ]


def _build_thm4(n_max):
    return [
        Facet(
            "weighted-vs-distinct",
            "counts",
            [weighted_count("Sstar", n) for n in range(n_max + 1)],
            [count_q(0, n) for n in range(n_max + 1)],
        )
    ]


def _build_thm5(n_max):
    g = [count_g(n) for n in range(n_max + 1)]
    p = [count_p(n) for n in range(n_max + 1)]
    lhs = _sum_regular(
        2 * n_max + 1, lambda n: 2 * n * n + 4 * n, MQ_Q2, [Q4F]
    )
    return [
        Facet("gap-vs-residue", "counts", g, p),
        Facet("residue-vs-series", "counts", p, q_coefficients(lhs, n_max)),
    ]


def _build_lemma1(n_max):
    return [
        Facet(
            "pairs-vs-weighted",
            "counts",
            [len(split_pairs(n)) for n in range(n_max + 1)],
            [weighted_count("S", n) for n in range(n_max + 1)],
        )
    ]


def _build_lemma2(n_max):
    triples = [len(triple_partitions(n)) for n in range(n_max + 1)]
    return [
        Facet(
            "triples-vs-pairs",
            "counts",
            triples,
            [len(split_pairs(n)) for n in range(n_max + 1)],
        ),
        Facet(
            "triples-vs-distinct",
            "counts",
            triples,
            [count_q(2, n) for n in range(n_max + 1)],
        ),
    ]


# -- the catalog --------------------------------------------------------


@dataclass(frozen=True)
class _Entry:
    builder: Callable[..., list[Facet]]
    quick: dict
    full: dict


REGISTRY: dict[str, _Entry] = {
    "1.1": _Entry(
        _build_1_1,
        {"order2": 201, "counts_max": 60},
        {"order2": 301, "counts_max": 72},
    ),
    "1.2": _Entry(
        _build_1_2,
        {"order2": 201, "counts_max": 60},
        {"order2": 301, "counts_max": 72},
    ),
    "1.3": _Entry(
        _build_1_3,
        {"order2": 201, "counts_max": 60},
        {"order2": 301, "counts_max": 72},
    ),
    "1.4": _Entry(
        _build_1_4,
        {"order2": 201, "counts_max": 60},
        {"order2": 301, "counts_max": 72},
    ),
    "2.7": _Entry(_build_2_7, {"sigma_max": 36}, {"sigma_max": 40}),
    "3.2": _Entry(
        _build_3_2,
        {"order2": 81, "counts_max": 40, "triples_max": 36},
        {"order2": 121, "counts_max": 46, "triples_max": 38},
    ),
    "3.3": _Entry(_build_3_3, {"order2": 81}, {"order2": 121}),
    "3.4": _Entry(
        _build_3_4,
        {"order2": 81, "counts_max": 40},
        {"order2": 121, "counts_max": 46},
    ),
    "3.5": _Entry(_build_3_5, {"order2": 81}, {"order2": 121}),
    "3.7": _Entry(_build_3_7, {"order2": 121}, {"order2": 161}),
    "3.8": _Entry(_build_3_8, {"order2": 81}, {"order2": 121}),
    "3.10": _Entry(_build_3_10, {"order2": 121}, {"order2": 161}),
    "4.3": _Entry(_build_4_3, {"order2": 60, "n_max": 5}, {"order2": 80, "n_max": 6}),
    "4.5": _Entry(
        _build_4_5,
        {"order2": 80, "k_max": 4, "n_max": 4},
        {"order2": 100, "k_max": 5, "n_max": 4},
    ),
    "4.6": _Entry(_build_4_6, {"order2": 80, "n_max": 6}, {"order2": 100, "n_max": 8}),
    "4.7": _Entry(
        _build_4_7,
        {"order2": 80, "n_max": 6, "k_max": 3},
        {"order2": 100, "n_max": 7, "k_max": 4},
    ),
    "4.9": _Entry(_build_4_9, {"order2": 81, "m_max": 4}, {"order2": 101, "m_max": 5}),
    "4.10": _Entry(
        _build_4_10,
        {"order2": 81, "j_max": 2},
        {"order2": 101, "j_max": 3},
    ),
    "4.11": _Entry(_build_4_11, {"order2": 121}, {"order2": 161}),
    "4.12": _Entry(
        _build_4_12,
        {"order2": 121, "k_list": [1, 2, 3, 4, 5, 6], "counts_max": 40},
        {"order2": 161, "k_list": [1, 2, 3, 4, 5, 6, 7, 8], "counts_max": 44},
    ),
    "4.13": _Entry(
        _build_4_13,
        {"order2": 121, "counts_max": 40},
        {"order2": 161, "counts_max": 46},
    ),
    "4.14": _Entry(
        _build_4_14,
        {"order2": 201, "counts_max": 40},
        {"order2": 301, "counts_max": 46},
    ),
    "4.15": _Entry(
        _build_4_15,
        {"k_list": [1, 2, 3], "l_max": 6, "m_max": 6},
        {"k_list": [1, 2, 3, 4], "l_max": 7, "m_max": 7},
    ),
    "4.17": _Entry(
        _build_4_17,
        {"order2": 81, "m_max": 2},
        {"order2": 101, "m_max": 3},
    ),
    "4.18": _Entry(
        _build_4_18,
        {"order2": 81, "b_list": [0, 1]},
        {"order2": 101, "b_list": [-1, 0, 1, 2]},
    ),
    "4.20": _Entry(
        _build_4_20,
        {"k_list": [1, 2, 3], "l_max": 10},
        {"k_list": [1, 2, 3, 4], "l_max": 12},
    ),
    "thm1": _Entry(_build_thm1, {"n_max": 40}, {"n_max": 48}),
    "thm2": _Entry(_build_thm2, {"n_max": 40}, {"n_max": 48}),
    "thm3": _Entry(_build_thm3, {"n_max": 50}, {"n_max": 56}),
    "thm4": _Entry(_build_thm4, {"n_max": 50}, {"n_max": 56}),
    "thm5": _Entry(_build_thm5, {"n_max": 50}, {"n_max": 56}),
    "lemma1": _Entry(_build_lemma1, {"n_max": 36}, {"n_max": 40}),
    "lemma2": _Entry(_build_lemma2, {"n_max": 36}, {"n_max": 40}),
}


def registry_ids() -> list[str]:
    return sorted(REGISTRY, key=natural_key)


def natural_key(check_id: str):
    if check_id.startswith("thm"):
        return (1, int(check_id[3:]), 0)
    if check_id.startswith("lemma"):
        return (2, int(check_id[5:]), 0)
    major, minor = check_id.split(".")
    return (0, int(major), int(minor))


# -- runner -------------------------------------------------------------


def _facet_mismatch(f: Facet) -> Optional[str]:
    if f.kind == "series":
        d = series_diff(f.got, f.expected)
        if d is not None:
            (e2, dz, dw), want, got = d
            return f"e2={e2},dz={dz},dw={dw},expected={want},got={got}"
        return None
    for n, (g, w) in enumerate(zip(f.got, f.expected)):
        if g != w:
            return f"n={n},expected={w},got={g}"
    if len(f.got) != len(f.expected):
        return (
            f"n={min(len(f.got), len(f.expected))},"
            f"expected-length={len(f.expected)},got-length={len(f.got)}"
        )
    return None


def _corrupted(f: Facet, c: Corruption) -> Facet:
    if f.kind == "series":
        s: TruncSeries = f.got
        if c.key is None:
            key = min(s.terms) if s.terms else (0, 0, 0)
        else:
            key = tuple(c.key)
        if key[0] >= s.order2:
            raise ValueError("corruption key beyond truncation order")
        terms = dict(s.terms)
        v = terms.get(key, 0) + c.delta
        if v:
            terms[key] = v
        else:
            del terms[key]
        return Facet(f.label, f.kind, TruncSeries(terms, s.order2, s.exact), f.expected)
    idx = 0 if c.key is None else int(c.key)
    if not 0 <= idx < len(f.got):
        raise ValueError("corruption index out of range")
    got = list(f.got)
    got[idx] += c.delta
    return Facet(f.label, f.kind, got, f.expected)


_LEAST_BOUNDS = {"order2": 3, "n_max": 1, "sigma_max": 1, "k_max": 1, "l_max": 0,
                 "m_max": 0, "j_max": 0, "triples_max": 0, "counts_max": 0}


def run_check(
    check_id: str,
    *,
    level: str = "quick",
    corrupt: Optional[Corruption] = None,
    **overrides,
) -> VerificationReport:
    entry = REGISTRY.get(check_id)
    if entry is None:
        raise UnknownCheckError(check_id, registry_ids())
    params = dict(entry.quick if level == "quick" else entry.full)
    for k, v in overrides.items():
        if v is None:
            continue
        if k not in params:
            raise ValueError(
                f"unknown parameter {k!r} for check {check_id}; "
                f"valid: {sorted(params)}"
            )
        params[k] = v
    # bounds below these compare nothing, or nothing past q^0, and would
    # pass; they are usage errors
    for name, least in _LEAST_BOUNDS.items():
        if params.get(name, least) < least:
            raise ValueError(
                f"check {check_id}: {name} must be at least {least}, got {params[name]}"
            )
    if any(k < 1 for k in params.get("k_list", ())):
        raise ValueError(f"check {check_id}: k must be at least 1, got {params}")
    t0 = time.perf_counter()
    facets = entry.builder(**params)
    if not facets:
        raise ValueError(f"check {check_id} compares no facets with {params}")
    if corrupt is not None:
        facets[0] = _corrupted(facets[0], corrupt)
    first = None
    for f in facets:
        first = _facet_mismatch(f)
        if first is not None:
            break
    elapsed = int((time.perf_counter() - t0) * 1000)
    order2 = params.get("order2")
    if order2 is None:
        # count and round-trip checks: implied truncation; exact
        # polynomial checks: 0, nothing is truncated
        bound = params.get("n_max", params.get("sigma_max", 0))
        order2 = 2 * bound + 1 if bound else 0
    reported = {k: v for k, v in params.items() if k != "order2"}
    return VerificationReport(
        id=check_id,
        parameters=reported,
        order2=order2,
        status="pass" if first is None else "fail",
        first_mismatch=first,
        elapsed_ms=elapsed,
    )


def _run_by_id(args) -> VerificationReport:
    check_id, level, corrupt = args
    return run_check(check_id, level=level, corrupt=corrupt)


def run_all(
    level: str = "quick",
    parallelism: int = 1,
    ids: Optional[list[str]] = None,
    corrupt_id: Optional[str] = None,
) -> list[VerificationReport]:
    """Reports for every requested id, ordered by catalog key."""
    if level not in ("quick", "full"):
        raise ValueError("level must be quick or full")
    chosen = list(ids) if ids is not None else list(REGISTRY)
    for cid in chosen:
        if cid not in REGISTRY:
            raise UnknownCheckError(cid, registry_ids())
    if corrupt_id is not None and corrupt_id not in chosen:
        raise UnknownCheckError(corrupt_id, registry_ids())
    chosen.sort(key=natural_key)
    jobs = [
        (cid, level, Corruption() if cid == corrupt_id else None)
        for cid in chosen
    ]
    if parallelism > 1:
        with ProcessPoolExecutor(max_workers=parallelism) as ex:
            return list(ex.map(_run_by_id, jobs))
    return [_run_by_id(j) for j in jobs]
