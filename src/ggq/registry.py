"""Catalog of verifiable statements with a uniform runner.

Every entry builds a list of facets: pairs of independently computed
objects that must agree, either truncated series or count sequences.
The first facet is the primary one; the corruption hook perturbs a
single coefficient there and must flip the verdict.

Check ids are opaque catalog keys and form the public contract of the
command line front end.  Each id is one row of ``REGISTRY``: a builder
and two parameter sets, "quick" (the acceptance bounds) and "full"
(extended bounds).  Most builders come from one factory per shape of
statement: sum = product (= generating function of a count), count
sequence = count sequence, a limit stabilizes, a Bailey relation, and a
marked double sum = single sum = product.  Only the irregular ids have a
builder of their own.  The multisums of 4.12 and 4.13 read the Bailey
chain of ``bailey.lhs_4_7`` with q replaced by q^2, so the chain is not
stated here a second time.  ``run_check`` clamps the count bounds to what
the truncation order can show, once for every id, and reports the clamped
values; a check that compares no facets, or a counts facet of no
entries, is a usage error, not a pass.
"""

from __future__ import annotations

import time
from collections import Counter, namedtuple
from math import isqrt, prod

from .bailey import (
    defining_sum,
    iterate_closed,
    lhs_4_7,
    rhs_4_7,
    seed_E4,
    step,
)
from .bijection import (
    _invert,
    _route,
    choices,
    euler_subtract,
    ferrers_split,
    identify,
    split_pairs,
    triple_partitions,
)
from .partitions import (
    MOD8_CONFIG,
    count_g,
    count_gg,
    count_p,
    count_q,
    count_residue_family,
    count_thm1_side,
    enumerate_members,
    interp_config,
    weighted_count,
)
from .series import (
    FactorSpec,
    TruncSeries,
    _dilate,
    _divided,
    _ratio_sum,
    _sum_of_products,
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
    zw_slice,
)
from .trinomials import (
    limit_4_9,
    limit_4_10,
    limit_4_17,
    limit_4_18,
    sides_4_15,
    sides_4_20,
)

__all__ = [
    "Corruption",
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


class Facet(namedtuple("Facet", "label got expected")):
    """Two independently computed objects that must agree: truncated
    series, or count sequences (lists of integers)."""

    __slots__ = ()

    @property
    def kind(self) -> str:
        return "series" if isinstance(self.got, TruncSeries) else "counts"


class Corruption(namedtuple("Corruption", "key delta", defaults=(None, 1))):
    """Single-coefficient perturbation applied to the primary facet.

    key: (e2, dz, dw) for a series facet, an index for a counts facet,
    or None for the smallest key present.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.delta == 0:
            raise ValueError("corruption delta must be nonzero")
        return self


# status is "pass" or "fail"; a failure's first_mismatch says where, and
# failed_facet names the first mismatching facet
VerificationReport = namedtuple(
    "VerificationReport",
    "id parameters order2 status first_mismatch elapsed_ms failed_facet",
    defaults=(None,),
)


class UnknownCheckError(ValueError):
    def __init__(self, check_id: str, valid: list[str]):
        self.check_id = check_id
        self.valid = valid
        super().__init__(
            f"unknown check id {check_id!r}; valid ids: {', '.join(valid)}"
        )


# -- shared series builders ---------------------------------------------


def _single_pair_sum(order2, marked: bool) -> TruncSeries:
    """The two-headed single sum: term n >= 1 contributes
    (q^(n^2+n) + [w] q^(n^2+n-1)) (-[w]q; q^2)_{n-1} / (q^2; q^2)_n,
    where [w] marks the w-degree when marked is True.

    The head is q^(n^2+n-1) (q + [w]), and with m = n - 1 the rest is
    q^(n^2+n-1) (-[w]q; q^2)_m / ((1 - q^2) (q^4; q^2)_m), so the sum is
    1 + (q + [w]) / (1 - q^2) times one regular sum over m.  The division
    by (1 - q^2) runs on each slice's list, one dense product fewer."""
    dw = 1 if marked else 0
    head = monomial(1, 2, order2=order2) + monomial(1, 0, 0, dw, order2=order2)
    walk = _ratio_sum(order2, lambda m: 2 * m * m + 6 * m + 2, F(-1, 2, 4, 0, dw), [F(1, 8, 4)])
    return one(order2) + _divided(head * walk, 4)


def _double_sum(order2, lin, num, den2, w_mark: bool) -> TruncSeries:
    """Sum over (n1, n2) of z^n1 w^n2 q^(n1^2 + 2 n1 n2 + 2 n2^2 + a n1 + b n2)
    (num)_{n2} / ((q^2; q^2)_{n1} (den2)_{n2}), where lin = (a, b) with
    a >= 0 and b >= -1; z^n1 is tracked exactly when num carries z, and
    w^n2 when w_mark.  The exponent grows with n1, and with n2 at n1 = 0,
    which bounds the grid.

    Summed by rows of n2: the factors that depend on n2 alone come out of
    the n1 sum, so row n2 is the sum over n1 of z^n1 w^n2 q^(...) /
    (q^2; q^2)_{n1}, multiplied once by (num)_{n2} and once by
    1 / (den2)_{n2}.  Each row is one sum of products, one pair per n1,
    and so is the total, one pair per row."""
    a, b = lin
    z_mark = num is not None and num.dz > 0

    def exp2(n1, n2):
        return 2 * (n1 * n1 + 2 * n1 * n2 + 2 * n2 * n2 + a * n1 + b * n2)

    rows = []
    n2 = 0
    while exp2(0, n2) < order2:
        dw = n2 if w_mark else 0
        heads, n1 = [], 0
        while exp2(n1, n2) < order2:
            heads.append((monomial(1, exp2(n1, n2), n1 if z_mark else 0, dw, order2=order2),
                          inv_poch_finite(Q2F, n1, order2=order2)))
            n1 += 1
        row = _sum_of_products(heads, order2)
        if num is not None:
            row = row * poch_finite(num, n2, order2=order2)
        rows.append((row, inv_poch_finite(den2, n2, order2=order2)))
        n2 += 1
    return _sum_of_products(rows, order2)


def _lhs_hierarchy(k: int, order2: int) -> list[TruncSeries]:
    """The j-fold multisums of 4.12 for j = 1..k, entry j - 1: over
    N_1 >= .. >= N_j >= 0, the sum of q^(sum N_i^2 + 2 N_j) (-q; q^2)_{N_j}
    / ((q^2; q^2)_{N_1-N_2} .. (q^2; q^2)_{N_(j-1)-N_j} (q^4; q^4)_{N_j}).

    This is 4.7's multisum at level j - 1 with q replaced by q^2, summed
    over m = N_1 with weight q^(m^2), so it reads the chain of ``lhs_4_7``
    and maps each entry's exponents e2 -> 2 e2; the terms below order2
    come from those below (order2 + 1) // 2.  Every term has
    e2 >= 2 N_1^2, so m stops where that reaches order2.
    """
    top = isqrt((order2 - 1) // 2)
    sums = []
    for level in lhs_4_7(top, k - 1, (order2 + 1) // 2):
        sums.append(_sum_of_products(
            [(monomial(1, 2 * m * m, order2=order2), _dilate(g, order2))
             for m, g in enumerate(level)], order2))
    return sums


def _hier_rewrite(k: int, order2: int) -> TruncSeries | None:
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


def _upward(f, top: int) -> list:
    """[f(0), ..., f(top)], asked from the top down: a counter then
    computes the counts of 0..top once, where an ascending caller makes it
    double its bound on the way up."""
    return [f(n) for n in range(top, -1, -1)][::-1]


def _counts_facet(label, series: TruncSeries, cmax: int, oracle) -> Facet:
    """The q^0..q^cmax coefficients of series against oracle(n)."""
    return Facet(label, q_coefficients(series, cmax), _upward(oracle, cmax))


# -- builder factories, one per shape of statement ----------------------
#
# The callables a row passes in are lambdas that name ggq functions, so
# the names are looked up when the check runs, not captured when the
# catalog is built; tooling that rebinds module names (the benchmark's
# span tracer) then sees every call.


def _sum_vs_product(lhs, rhs, counted=None):
    """Builder of "sum = product": lhs and rhs map order2 to a series.
    counted, when given, is (label, side, oracle): the q^0..q^counts_max
    coefficients of side(sum, product) against oracle(n)."""

    def build(order2, counts_max=0):
        a, b = lhs(order2), rhs(order2)
        facets = [Facet("sum-vs-product", a, b)]
        if counted is not None:
            label, side, oracle = counted
            facets.append(_counts_facet(label, side(a, b), counts_max, oracle))
        return facets

    return build


def _product(*specs, inverse=False):
    """order2 -> the product of the FactorSpecs, or of their inverses."""
    if inverse:
        return lambda order2: prod(inv_poch_infinite(f, order2=order2) for f in specs)
    return lambda order2: poch_product(specs, order2=order2)


def _the_product(_, product):
    return product


def _sequences(*rows):
    """Builder of "count = count" for n = 0..n_max: each row is (label,
    got, expected), got and expected mapping n to an integer."""

    def build(n_max):
        return [
            Facet(label, _upward(got, n_max), _upward(want, n_max))
            for label, got, want in rows
        ]

    return build


def _stabilizes(limit):
    """Builder of "a limit stabilizes by order2": limit(x, order2) is
    truthy at each grid point x, where the grid is the one parameter
    besides order2: a list of points, or an integer bound b meaning
    0..b.  Each limit compares its sequence with the limit at two
    indices where the terms below order2 must already have settled."""

    def build(order2, **grid):
        (points,) = grid.values()
        if isinstance(points, int):
            points = range(points + 1)
        got = [1 if limit(x, order2) else 0 for x in points]
        return [Facet("stabilizes", got, [1] * len(got))]

    return build


def _bailey_relation(stepped: bool):
    """Builder of the defining relation of the E(4) seed pair, or of the
    pair one lattice step further, at n = 0..n_max."""
    label = "stepped-relation" if stepped else "defining-relation"

    def build(order2, n_max):
        p = seed_E4(n_max, order2)
        if stepped:
            p = step(p)
        return [
            Facet(f"{label} n={n}", p.beta[n], defining_sum(p, n))
            for n in range(n_max + 1)
        ]

    return build


def _marked(lin, single, product, base):
    """Builder of "marked double sum = marked single sum = marked product",
    and of the product with its markers set to 1 against the unmarked
    product.  The double sum has (q^2; q^2)_{n2} below, no numerator and
    the linear exponent part lin; single maps order2 to a series; product
    and base are lists of FactorSpecs."""

    def build(order2):
        double = _double_sum(order2, lin, None, Q2F, True)
        single_sum = single(order2)
        marked = poch_product(product, order2=order2)
        unmarked = poch_product(base, order2=order2)
        return [
            Facet("double-vs-single", double, single_sum),
            Facet("single-vs-product", single_sum, marked),
            Facet("collapsed-vs-base", collapse_zw(marked), unmarked),
        ]

    return build


# -- builders of the irregular ids --------------------------------------


def _build_2_7(sigma_max):
    # g(f(a)) == a on every a makes f one-to-one; its images, as a
    # multiset, equal to the independently listed pairs make it onto.
    # Their splits, as a multiset equal to the triples, each listed once,
    # make the split a bijection from the pairs onto the triples
    rows = []
    split = {}
    for n in range(sigma_max + 1):
        bad = 0
        images = Counter()
        for pi in enumerate_members("S", n):
            marks, stars = identify(pi), euler_subtract(pi)
            for choice in choices(len(marks)):
                pair = _route(pi, marks, stars, choice)
                images[pair] += 1
                try:
                    bad += _invert(pair) != (pi, choice)
                except ValueError:
                    bad += 1
        triples = Counter()
        for (pi1, pi2), count in images.items():
            split[pi2] = split.get(pi2) or ferrers_split(pi2)
            triples[(pi1, *split[pi2])] += count
        total = images.total()
        images.subtract(split_pairs(n))
        triples.subtract(triple_partitions(n))
        rows.append((bad, sum(map(abs, images.values())), sum(map(abs, triples.values())), total))
    fwd_bad, image_bad, triple_bad, fwd_total = map(list, zip(*rows))
    zeros = [0] * (sigma_max + 1)
    p3, p4 = ferrers_split((5, 15, 24, 29))
    worked = [*p3, *p4]
    return [
        Facet("forward-roundtrip-failures", fwd_bad, zeros),
        Facet("image-vs-split-pairs", image_bad, zeros),
        Facet("split-image-vs-triples", triple_bad, zeros),
        Facet(
            "choice-count-vs-weight",
            fwd_total,
            _upward(lambda n: weighted_count("S", n), sigma_max),
        ),
        Facet("worked-example-split", worked, [4, 12, 20, 24, 1, 5, 7]),
    ]


def _build_3_2(order2, counts_max, triples_max):
    lhs = _double_sum(order2, (0, 2), MQ_Q2, Q4F, False)
    rhs_a = poch_product([F(-1, 2, 8), F(-1, 6, 8), F(-1, 8, 8)], order2=order2)
    rhs_b = poch_product([F(-1, 2, 4), F(-1, 8, 8)], order2=order2)
    return [
        Facet("sum-vs-product", lhs, rhs_a),
        Facet("product-vs-product", rhs_a, rhs_b),
        _counts_facet("sum-vs-counts", lhs, counts_max, lambda n: count_q(2, n)),
        _counts_facet(
            "sum-vs-triples", lhs, triples_max, lambda n: len(triple_partitions(n))
        ),
    ]


_marked_3_7 = _marked(
    (1, 1),
    lambda o: _ratio_sum(o, lambda n: 2 * n * n + 2 * n, F(-1, 2, 4, 0, 1), [Q2F]),
    [F(-1, 4, 8), F(-1, 6, 8, 0, 1), F(-1, 8, 8)],
    [F(-1, 4, 8), F(-1, 6, 8), F(-1, 8, 8)],
)


def _build_3_7(order2):
    facets = _marked_3_7(order2)
    j0 = _ratio_sum(order2, lambda n: 2 * n * n + 2 * n, None, [Q2F])
    double = facets[0].got
    return facets + [Facet("degree-0-slice", zw_slice(double, dw=0), j0)]


def _build_4_5(order2, k_max, n_max):
    base = seed_E4(n_max, order2)
    facets = []
    cur = base
    for k in range(1, k_max + 1):
        cur = step(cur)
        closed = iterate_closed(base, k)
        for n in range(n_max + 1):
            # alpha_n starts at q^(k n^2 / 2 + n^2 - n); past order2 both sides are 0
            if k * n * n + 2 * n * (n - 1) < order2:
                facets.append(Facet(f"alpha k={k} n={n}", closed.alpha[n], cur.alpha[n]))
            facets.append(Facet(f"beta k={k} n={n}", closed.beta[n], cur.beta[n]))
    return facets


def _build_4_7(order2, n_max, k_max):
    return [
        Facet(f"finite-identity n={n} k={k}", lhs, rhs_4_7(n, k, order2))
        for k, level in enumerate(lhs_4_7(n_max, k_max, order2))
        if k
        for n, lhs in enumerate(level)
    ]


def _build_4_11(order2):
    zspecs = [((1, 0), "z=1"), ((-1, 0), "z=-1"), ((1, 2), "z=q"), ((1, 6), "z=q^3")]
    facets = []
    for zspec, label in zspecs:
        lhs, rhs = jacobi_sides(zspec, order2=order2)
        facets.append(Facet(label, lhs, rhs))
    return facets


def _build_4_12(order2, k_list, counts_max):
    facets = []
    sums = _lhs_hierarchy(max(k_list, default=0), order2)
    for k in k_list:
        lhs = sums[k - 1]
        m = 4 * k + 8
        triple = poch_product([F(1, m, m), F(1, 2 * k, m), F(1, 2 * k + 8, m)], order2=order2)
        form1 = triple * poch_infinite(MQ_Q2, order2=order2)
        form1 = form1 * inv_poch_infinite(Q2F, order2=order2)
        form2 = triple * poch_infinite(F(1, 4, 8), order2=order2)
        form2 = form2 * inv_poch_infinite(Q1F, order2=order2)
        facets.append(Facet(f"sum-vs-product k={k}", lhs, form1))
        facets.append(Facet(f"product-forms k={k}", form1, form2))
        rewrite = _hier_rewrite(k, order2)
        if rewrite is not None:
            facets.append(Facet(f"quadruple-form k={k}", form1, rewrite))
        config = interp_config(k)
        facets.append(_counts_facet(f"sum-vs-counts k={k}", lhs, counts_max,
                                    lambda n: count_residue_family(config, n)))
        if k == 2:
            facets.append(_counts_facet("sum-vs-distinct-counts k=2", lhs, counts_max,
                                        lambda n: count_q(2, n)))
    return facets


def _build_4_13(order2, counts_max):
    a = _lhs_hierarchy(2, order2)[1]
    b = poch_product([F(-1, 2, 4), F(-1, 8, 8)], order2=order2)
    c = poch_product([F(-1, 2, 8), F(-1, 6, 8), F(-1, 8, 8)], order2=order2)
    return [
        Facet("sum-vs-pair-product", a, b),
        Facet("pair-vs-triple-product", b, c),
        _counts_facet("sum-vs-counts", a, counts_max, lambda n: count_q(2, n)),
    ]


def _build_4_14(order2, counts_max):
    lhs = _ratio_sum(order2, lambda n: 2 * n * n + 4 * n, MQ_Q2, [Q4F])
    form1 = poch_product(
        [F(1, 4, 8), F(1, 12, 12), F(1, 2, 12), F(1, 10, 12)], order2=order2
    ) * inv_poch_infinite(Q1F, order2=order2)
    form2 = poch_infinite(F(-1, 6, 12), order2=order2)
    for f in (F(1, 8, 24), F(1, 16, 24)):
        form2 = form2 * inv_poch_infinite(f, order2=order2)
    # q^0..q^9, or as many as order2 shows
    head = [1, 0, 0, 1, 1, 0, 0, 1, 2, 1][: (order2 + 1) // 2]
    return [
        Facet("sum-vs-product", lhs, form1),
        Facet("product-forms", form1, form2),
        Facet("head-coefficients", q_coefficients(lhs, len(head) - 1), head),
        _counts_facet("sum-vs-counts", lhs, counts_max, count_p),
    ]


# at l = 0 both sides of 4.15 and 4.20 are the zero polynomial, so the
# grids start at l = 1
def _build_4_15(k_list, l_max, m_max):
    return [
        Facet(f"doubly-bounded k={k} l={l} m={m}", *sides_4_15(k, l, m))
        for k in k_list
        for l in range(1, l_max + 1)
        for m in range(m_max + 1)
    ]


def _build_4_20(k_list, l_max):
    return [
        Facet(f"singly-bounded k={k} l={l}", *sides_4_20(k, l))
        for k in k_list
        for l in range(1, l_max + 1)
    ]


def _build_thm5(n_max):
    g = _upward(count_g, n_max)
    p = _upward(count_p, n_max)
    lhs = _ratio_sum(
        2 * n_max + 1, lambda n: 2 * n * n + 4 * n, MQ_Q2, [Q4F]
    )
    return [
        Facet("gap-vs-residue", g, p),
        Facet("residue-vs-series", p, q_coefficients(lhs, n_max)),
    ]


# -- the catalog --------------------------------------------------------


# builder(**params) -> list[Facet], and the quick and full tiers' params
_Entry = namedtuple("_Entry", "builder quick full")


REGISTRY: dict[str, _Entry] = {
    "1.1": _Entry(
        _sum_vs_product(
            lambda o: _ratio_sum(o, lambda n: 2 * n * n + 2 * n, MQ_Q2, [Q2F]),
            _product(F(-1, 4, 8), F(-1, 6, 8), F(-1, 8, 8)),
            ("product-vs-counts", _the_product, lambda n: count_q(1, n)),
        ),
        {"order2": 201, "counts_max": 60}, {"order2": 301, "counts_max": 72},
    ),
    "1.2": _Entry(
        _sum_vs_product(
            lambda o: _single_pair_sum(o, marked=False),
            _product(F(-1, 2, 8), F(-1, 4, 8), F(-1, 8, 8)),
            ("product-vs-counts", _the_product, lambda n: count_q(3, n)),
        ),
        {"order2": 201, "counts_max": 60}, {"order2": 301, "counts_max": 72},
    ),
    "1.3": _Entry(
        _sum_vs_product(
            lambda o: _ratio_sum(o, lambda n: 2 * n * n, MQ_Q2, [Q2F]),
            _product(F(1, 2, 16), F(1, 8, 16), F(1, 14, 16), inverse=True),
            ("product-vs-counts", _the_product, lambda n: count_residue_family(MOD8_CONFIG[1], n)),
        ),
        {"order2": 201, "counts_max": 60}, {"order2": 301, "counts_max": 72},
    ),
    "1.4": _Entry(
        _sum_vs_product(
            lambda o: _ratio_sum(o, lambda n: 2 * (n * n + 2 * n), MQ_Q2, [Q2F]),
            _product(F(1, 6, 16), F(1, 8, 16), F(1, 10, 16), inverse=True),
            ("product-vs-counts", _the_product, lambda n: count_residue_family(MOD8_CONFIG[3], n)),
        ),
        {"order2": 201, "counts_max": 60}, {"order2": 301, "counts_max": 72},
    ),
    "2.7": _Entry(_build_2_7, {"sigma_max": 36}, {"sigma_max": 40}),
    "3.2": _Entry(
        _build_3_2,
        {"order2": 81, "counts_max": 40, "triples_max": 36},
        {"order2": 121, "counts_max": 46, "triples_max": 38},
    ),
    "3.3": _Entry(
        _sum_vs_product(
            lambda o: _double_sum(o, (0, 2), F(-1, 2, 4, 1), Q4F, True),
            _product(F(-1, 2, 8, 1), F(-1, 6, 8, 1), F(-1, 8, 8, 0, 1)),
        ),
        {"order2": 81}, {"order2": 121},
    ),
    "3.4": _Entry(
        _sum_vs_product(
            lambda o: _double_sum(o, (0, 0), F(-1, 2, 4, 1), Q4F, True),
            _product(F(-1, 2, 8, 1), F(-1, 6, 8, 1), F(-1, 4, 8, 0, 1)),
            ("collapsed-vs-counts", lambda s, _: collapse_zw(s), lambda n: count_q(0, n)),
        ),
        {"order2": 81, "counts_max": 40}, {"order2": 121, "counts_max": 46},
    ),
    "3.5": _Entry(
        _sum_vs_product(
            lambda o: _double_sum(o, (1, 1), F(-1, 4, 4, 1), Q4F, True),
            _product(F(-1, 4, 8, 1), F(-1, 6, 8, 0, 1), F(-1, 8, 8, 1)),
        ),
        {"order2": 81}, {"order2": 121},
    ),
    "3.7": _Entry(_build_3_7, {"order2": 121}, {"order2": 161}),
    "3.8": _Entry(
        _sum_vs_product(
            lambda o: _double_sum(o, (1, -1), F(-1, 4, 4, 1), Q4F, True),
            _product(F(-1, 4, 8, 1), F(-1, 2, 8, 0, 1), F(-1, 8, 8, 1)),
        ),
        {"order2": 81}, {"order2": 121},
    ),
    "3.10": _Entry(
        _marked(
            (1, -1),
            lambda o: _single_pair_sum(o, marked=True),
            [F(-1, 4, 8), F(-1, 2, 8, 0, 1), F(-1, 8, 8)],
            [F(-1, 2, 8), F(-1, 4, 8), F(-1, 8, 8)],
        ),
        {"order2": 121}, {"order2": 161},
    ),
    "4.3": _Entry(
        _bailey_relation(stepped=True),
        {"order2": 60, "n_max": 5}, {"order2": 80, "n_max": 6},
    ),
    "4.5": _Entry(
        _build_4_5,
        {"order2": 80, "k_max": 4, "n_max": 4}, {"order2": 100, "k_max": 5, "n_max": 4},
    ),
    "4.6": _Entry(
        _bailey_relation(stepped=False),
        {"order2": 80, "n_max": 6}, {"order2": 100, "n_max": 8},
    ),
    "4.7": _Entry(
        _build_4_7,
        {"order2": 80, "n_max": 6, "k_max": 3}, {"order2": 100, "n_max": 7, "k_max": 4},
    ),
    "4.9": _Entry(
        _stabilizes(lambda m, o: limit_4_9(m, o)),
        {"order2": 81, "m_max": 4}, {"order2": 101, "m_max": 5},
    ),
    "4.10": _Entry(
        _stabilizes(lambda j, o: limit_4_10(j, o)),
        {"order2": 81, "j_max": 2}, {"order2": 101, "j_max": 3},
    ),
    "4.11": _Entry(_build_4_11, {"order2": 121}, {"order2": 161}),
    "4.12": _Entry(
        _build_4_12,
        {"order2": 121, "k_list": [1, 2, 3, 4, 5, 6], "counts_max": 40},
        {"order2": 161, "k_list": [1, 2, 3, 4, 5, 6, 7, 8], "counts_max": 44},
    ),
    "4.13": _Entry(
        _build_4_13,
        {"order2": 121, "counts_max": 40}, {"order2": 161, "counts_max": 46},
    ),
    "4.14": _Entry(
        _build_4_14,
        {"order2": 201, "counts_max": 40}, {"order2": 301, "counts_max": 46},
    ),
    "4.15": _Entry(
        _build_4_15,
        {"k_list": [1, 2, 3], "l_max": 6, "m_max": 6},
        {"k_list": [1, 2, 3, 4], "l_max": 7, "m_max": 7},
    ),
    "4.17": _Entry(
        _stabilizes(lambda m, o: limit_4_17(m, 1, 0, o)),
        {"order2": 81, "m_max": 2}, {"order2": 101, "m_max": 3},
    ),
    "4.18": _Entry(
        _stabilizes(lambda b, o: limit_4_18(3, 1, b, o)),
        {"order2": 81, "b_list": [0, 1]}, {"order2": 101, "b_list": [-1, 0, 1, 2]},
    ),
    "4.20": _Entry(
        _build_4_20,
        {"k_list": [1, 2, 3], "l_max": 10}, {"k_list": [1, 2, 3, 4], "l_max": 12},
    ),
    "thm1": _Entry(
        _sequences(
            ("gap-side-vs-distinct-side i=1",
             lambda n: count_thm1_side(1, n), lambda n: count_q(1, n)),
            ("gap-side-vs-distinct-side i=3",
             lambda n: count_thm1_side(3, n), lambda n: count_q(3, n)),
        ),
        {"n_max": 40}, {"n_max": 48},
    ),
    "thm2": _Entry(
        _sequences(
            ("gap-side-vs-residue-side i=1",
             lambda n: count_gg(n, min_part=1), lambda n: count_residue_family(MOD8_CONFIG[1], n)),
            ("gap-side-vs-residue-side i=3",
             lambda n: count_gg(n, min_part=3), lambda n: count_residue_family(MOD8_CONFIG[3], n)),
        ),
        {"n_max": 40}, {"n_max": 48},
    ),
    "thm3": _Entry(
        _sequences(
            ("weighted-vs-distinct", lambda n: weighted_count("S", n), lambda n: count_q(2, n)),
        ),
        {"n_max": 50}, {"n_max": 56},
    ),
    "thm4": _Entry(
        _sequences(
            ("weighted-vs-distinct", lambda n: weighted_count("Sstar", n), lambda n: count_q(0, n)),
        ),
        {"n_max": 50}, {"n_max": 56},
    ),
    "thm5": _Entry(_build_thm5, {"n_max": 50}, {"n_max": 56}),
    "lemma1": _Entry(
        _sequences(
            ("pairs-vs-weighted", lambda n: len(split_pairs(n)), lambda n: weighted_count("S", n)),
        ),
        {"n_max": 36}, {"n_max": 40},
    ),
    "lemma2": _Entry(
        _sequences(
            ("triples-vs-pairs",
             lambda n: len(triple_partitions(n)), lambda n: len(split_pairs(n))),
            ("triples-vs-distinct", lambda n: len(triple_partitions(n)), lambda n: count_q(2, n)),
        ),
        {"n_max": 36}, {"n_max": 40},
    ),
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


def _facet_mismatch(f: Facet) -> str | None:
    if isinstance(f.got, TruncSeries):
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
    if isinstance(f.got, TruncSeries):
        s = f.got
        if c.key is None:
            key = min(s.terms) if s.terms else (0, 0, 0)
        elif isinstance(c.key, tuple) and len(c.key) == 3:
            key = c.key
        else:
            raise ValueError(f"series facet {f.label!r} takes a corruption key e2,dz,dw")
        if key[0] >= s.order2:
            raise ValueError("corruption key beyond truncation order")
        terms = dict(s.terms)
        v = terms.get(key, 0) + c.delta
        if v:
            terms[key] = v
        else:
            del terms[key]
        return Facet(f.label, TruncSeries(terms, s.order2), f.expected)
    if c.key is not None and not isinstance(c.key, int):
        raise ValueError(f"counts facet {f.label!r} takes a corruption index")
    idx = c.key or 0
    if not 0 <= idx < len(f.got):
        raise ValueError("corruption index out of range")
    got = list(f.got)
    got[idx] += c.delta
    return Facet(f.label, got, f.expected)


_LEAST_BOUNDS = {"order2": 3, "n_max": 1, "sigma_max": 1, "k_max": 1, "l_max": 1,
                 "m_max": 0, "j_max": 0, "triples_max": 0, "counts_max": 0}


def run_check(
    check_id: str,
    *,
    level: str = "quick",
    corrupt: Corruption | None = None,
    **overrides,
) -> VerificationReport:
    if level not in ("quick", "full"):
        raise ValueError("level must be quick or full")
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
    # a series truncated at order2 holds counts up to n = (order2 - 1) // 2
    # only (every id with a count bound has an order2); the report then
    # echoes the bounds that were compared
    if "counts_max" in params:
        params["counts_max"] = min(params["counts_max"], (params["order2"] - 1) // 2)
    if "triples_max" in params:
        params["triples_max"] = min(params["triples_max"], params["counts_max"])
    t0 = time.perf_counter()
    facets = entry.builder(**params)
    if not facets:
        raise ValueError(f"check {check_id} compares no facets with {params}")
    for f in facets:
        if f.kind == "counts" and not (f.got or f.expected):
            raise ValueError(f"check {check_id}: {f.label} compares no counts with {params}")
    if corrupt is not None:
        facets[0] = _corrupted(facets[0], corrupt)
    first = failed_facet = None
    for f in facets:
        first = _facet_mismatch(f)
        if first is not None:
            failed_facet = f.label
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
        failed_facet=failed_facet,
    )


def _run_by_id(args) -> VerificationReport:
    check_id, level, corrupt = args
    return run_check(check_id, level=level, corrupt=corrupt)


def run_all(
    level: str = "quick",
    parallelism: int = 1,
    ids: list[str] | None = None,
    corrupt_id: str | None = None,
) -> list[VerificationReport]:
    """Reports for every requested id, ordered by catalog key."""
    if level not in ("quick", "full"):
        raise ValueError("level must be quick or full")
    chosen = list(ids) if ids is not None else list(REGISTRY)
    if not chosen:
        raise ValueError("no check ids chosen")
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
        # imported here: multiprocessing is loaded only by a run that uses it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=parallelism) as ex:
            return list(ex.map(_run_by_id, jobs))
    return [_run_by_id(j) for j in jobs]
