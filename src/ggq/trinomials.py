"""Gaussian binomials, two q-trinomial families, and the bounded identities.

Everything here is exact polynomial arithmetic: operands carry an
``exact`` flag asserting no truncation ever happened, and comparisons are
full polynomial equality.  Exponents stay on the half grid, so the
q^(n^2/2) prefactors are plain integer shifts; substituting q -> q^2 is
an exponent doubling, never a re-expansion.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, isqrt

from .series import (
    FactorSpec,
    TruncSeries,
    at_order,
    inv_poch_finite,
    inv_poch_infinite,
    one,
    poch_finite,
    poly_mul,
    poly_sum,
    scale_exponents,
    series_diff,
    shift_exponents,
)

__all__ = [
    "n_vectors",
    "q_binomial",
    "t_warnaar",
    "t_ab",
    "u_tilde",
    "u_of",
    "poly_equal",
    "lhs_4_15",
    "rhs_4_15",
    "identity_4_15",
    "lhs_4_20",
    "rhs_4_20",
    "identity_4_20",
    "limit_4_9",
    "limit_4_10",
    "limit_4_17",
    "limit_4_18",
    "stabilized",
]


@lru_cache(maxsize=None)
def q_binomial(top: int, bottom: int, step2: int = 2, *, order2: int = 0) -> TruncSeries:
    """Gaussian binomial [top choose bottom] in x = q^(step2/2).

    Zero outside 0 <= bottom <= top.  Computed as the product of
    (1 - x^(top-bottom+i)), i = 1..bottom, divided in place by each
    (1 - x^i); the divisions are exact.  When nothing is cut, the sum of
    the coefficients must equal comb(top, bottom), the value at q = 1.

    Without order2 the result is the whole polynomial, tagged with the
    smallest bound that holds it.  A positive order2 is the bound of the
    result: only the terms below it are built.  Neither step moves a
    coefficient to a lower degree, so those terms equal the whole
    polynomial's.  The result is exact exactly when nothing was cut; then
    the q = 1 check still runs.
    """
    if order2 < 0:
        raise ValueError("order2 must be nonnegative")
    if bottom < 0 or bottom > top:
        return TruncSeries({}, order2 or 1)
    bottom = min(bottom, top - bottom)  # symmetry keeps the arrays short
    if bottom == 0:
        return one(order2 or 1)
    deg = bottom * (top - bottom)
    order2 = order2 or deg * step2 + 1
    size = min(deg, (order2 - 1) // step2) + 1  # coefficients kept
    coeffs = [0] * size
    coeffs[0] = 1
    cur = 0
    for i in range(1, bottom + 1):
        d = top - bottom + i
        cur += d
        for j in range(min(cur, size - 1), d - 1, -1):
            coeffs[j] -= coeffs[j - d]
    for i in range(1, bottom + 1):
        # divide in place by (1 - x^i); ascending order keeps it exact
        for j in range(i, size):
            coeffs[j] += coeffs[j - i]
    exact = size == deg + 1
    if exact and sum(coeffs) != comb(top, bottom):  # q=1 specialization
        raise AssertionError(f"q-binomial [{top}, {bottom}] fails its q=1 value")
    terms = {(u * step2, 0, 0): c for u, c in enumerate(coeffs) if c}
    return TruncSeries(terms, order2, exact=exact)


def t_warnaar(l: int, m: int, a: int, b: int) -> TruncSeries:
    """Refined q-trinomial at base q; exponents n^2/2 live on the half grid."""
    if l < 0 or m < 0:
        raise ValueError("l, m must be nonnegative")
    parts = []
    for n in range(0, l + 1):
        if (n + l - a) % 2 != 0:
            continue
        h = (l - a - n) // 2
        f1 = q_binomial(m, n)
        f2 = q_binomial(m + b + h, m + b)
        f3 = q_binomial(m - b + (l + a - n) // 2, m - b)
        if not (f1.terms and f2.terms and f3.terms):
            continue
        parts.append(shift_exponents(poly_mul(poly_mul(f1, f2), f3), n * n))
    return poly_sum(parts)


def t_ab(l: int, a: int) -> TruncSeries:
    if l < 0:
        raise ValueError("l must be nonnegative")
    parts = []
    for n in range(0, l + 1):
        if (n + l - a) % 2 != 0:
            continue
        f1 = q_binomial(l, n)
        f2 = q_binomial(l - n, (l - a - n) // 2)
        if not (f1.terms and f2.terms):
            continue
        parts.append(shift_exponents(poly_mul(f1, f2), n * n))
    return poly_sum(parts)


def u_tilde(l: int, m: int, a: int, b: int) -> TruncSeries:
    return poly_sum([t_warnaar(l, m, a, b), t_warnaar(l, m, a + 1, b)])


def u_of(l: int, a: int) -> TruncSeries:
    return poly_sum([t_ab(l, a), t_ab(l, a + 1)])


def poly_equal(a: TruncSeries, b: TruncSeries):
    """None when equal as exact polynomials, else the first mismatch."""
    if not (a.exact and b.exact):
        raise ValueError("poly_equal needs exact operands")
    target = max(a.max_e2(), b.max_e2()) + 2
    return series_diff(at_order(a, target), at_order(b, target))


# -- the doubly bounded identity and its m -> infinity form -------------


def n_vectors(k: int, cap: int, order2: int = 0):
    """Weakly decreasing nonnegative (N_1..N_k) with N_1 <= cap, in
    descending lexicographic order.

    A positive order2 is a truncation budget: only vectors with
    2*sum(N_i^2) < order2 are listed, and the walk never enters a
    subtree past it.
    """

    def rec(prefix, hi, sq):
        if len(prefix) == k:
            yield prefix
            return
        if order2 > 0:
            hi = min(hi, isqrt((order2 - 1 - sq) // 2))
        for v in range(hi, -1, -1):
            yield from rec(prefix + (v,), v, sq + 2 * v * v)

    yield from rec((), cap, 0)


def _bounded_lhs(k: int, l: int, cap: int, head) -> TruncSeries:
    """The multisum side of 4.15 and 4.20 over N_1 <= cap; head(N_1) is
    the leading factor, a Gaussian binomial in m for 4.15 and 1 for 4.20."""
    parts = []
    for nvec in n_vectors(k, cap):
        small = [nvec[i] - nvec[i + 1] for i in range(k - 1)] + [nvec[-1]]
        nk = small[-1]
        total = sum(nvec)
        term = head(nvec[0])
        if not term.terms:
            continue
        run = 0
        for j in range(k - 1):
            run += nvec[j]
            fj = q_binomial(l - run + small[j], small[j], step2=4)
            if not fj.terms:
                break
            term = poly_mul(term, fj)
        else:
            for s in range(0, nk + 1):
                f4 = q_binomial(nk + (l - 1 - total - s) // 2, nk, step2=8)
                fs = q_binomial(nk, s, step2=4)
                if not (f4.terms and fs.terms):
                    continue
                e2 = 2 * (sum(v * v for v in nvec) + s * s + 2 * nk)
                parts.append(shift_exponents(poly_mul(poly_mul(term, f4), fs), e2))
    return poly_sum(parts)


def _rhs_hierarchy(k: int, u) -> TruncSeries:
    """Sum the alternating j-series of 4.15 and 4.20 over u(a, b), which
    is u_tilde or u_of at the identity's bounds; stop after two all-zero
    |j| levels.

    The closure rule is enforced, not assumed: both levels beyond the
    last contributing one are checked to vanish identically.
    """

    def piece(j: int) -> TruncSeries:
        u1 = scale_exponents(u(2 * (k + 2) * j + 1, 2 * j), 2)
        u2 = scale_exponents(u(2 * (k + 2) * j + k + 1, 2 * j + 1), 2)
        e1 = 2 * ((4 * k + 8) * j * j + 4 * j)
        e2 = 2 * ((4 * k + 8) * j * j + 4 * (k + 1) * j + k)
        return poly_sum([shift_exponents(u1, e1), shift_exponents(u2, e2).scale(-1)])

    parts = []
    zero_levels = 0
    t = 0
    while zero_levels < 2:
        js = [0] if t == 0 else [t, -t]
        level = [piece(j) for j in js]
        if all(not p.terms for p in level):
            zero_levels += 1
        else:
            zero_levels = 0
            parts.extend(level)
        t += 1
        if t >= 200:
            raise AssertionError("j-sum failed to close")
    return poly_sum(parts)


def lhs_4_15(k: int, l: int, m: int) -> TruncSeries:
    return _bounded_lhs(k, l, m, lambda n1: q_binomial(l + m - n1, m - n1, step2=4))


def rhs_4_15(k: int, l: int, m: int) -> TruncSeries:
    return _rhs_hierarchy(k, lambda a, b: u_tilde(l, m, a, b))


def identity_4_15(k: int, l: int, m: int):
    """The doubly bounded identity at (k, l, m), as exact polynomials: the
    k-fold multisum led by [l+m-N_1, m-N_1] in q^2 against the alternating
    j-sum over u_tilde(l, m, ., .) in q^2.  None when equal, else the first
    mismatch."""
    return poly_equal(lhs_4_15(k, l, m), rhs_4_15(k, l, m))


def lhs_4_20(k: int, l: int) -> TruncSeries:
    cap = max(l, 0) if k > 1 else max(l - 1, 0)
    return _bounded_lhs(k, l, cap, lambda n1: one(1))


def rhs_4_20(k: int, l: int) -> TruncSeries:
    return _rhs_hierarchy(k, lambda a, b: u_of(l, a))


def identity_4_20(k: int, l: int):
    """The singly bounded identity at (k, l), the m -> infinity form of
    identity_4_15: the multisum with N_1 <= l (l - 1 when k = 1) against
    the alternating j-sum over u_of(l, .) in q^2.  None when equal, else
    the first mismatch."""
    return poly_equal(lhs_4_20(k, l), rhs_4_20(k, l))


# -- limit / stabilization checks ---------------------------------------


def stabilized(values, target: TruncSeries):
    """Index where two consecutive values equal each other and the target.

    values is an iterable of series already truncated to a common order2;
    returns the first such index or None.
    """
    prev = None
    for idx, v in enumerate(values):
        if prev is not None and prev == v and v == target:
            return idx - 1
        prev = v
    return None


def limit_4_9(m: int, order2: int, search: int = 0) -> bool:
    """[n, m] -> 1/(q)_m as n grows."""
    target = inv_poch_finite(FactorSpec(1, 2, 2), m, order2=order2)
    hi = search or m + order2 // 2 + 3
    vals = (q_binomial(n, m, order2=order2) for n in range(m, hi))
    return stabilized(vals, target) is not None


def limit_4_10(j: int, order2: int, search: int = 0) -> bool:
    """[2n, n+j] -> 1/(q)_infinity as n grows."""
    target = inv_poch_infinite(FactorSpec(1, 2, 2), order2=order2)
    hi = search or abs(j) + order2 // 2 + 3
    vals = (q_binomial(2 * n, n + j, order2=order2) for n in range(abs(j), hi))
    return stabilized(vals, target) is not None


def limit_4_17(m: int, a: int, b: int, order2: int, search: int = 0) -> bool:
    """u_tilde(l, m, a, b) -> (-sqrt q)_m / (q)_{2m} * [2m, m+b] as l grows."""
    lead = poch_finite(FactorSpec(-1, 1, 2), m, order2=order2)
    lead = lead * inv_poch_finite(FactorSpec(1, 2, 2), 2 * m, order2=order2)
    target = lead * at_order(q_binomial(2 * m, m + b), order2)
    hi = search or order2 + 4
    vals = (at_order(u_tilde(l, m, a, b), order2) for l in range(hi))
    return stabilized(vals, target) is not None


def limit_4_18(l: int, a: int, b: int, order2: int, search: int = 0) -> bool:
    """t_warnaar(l, m, a, b) -> t_ab(l, a) / (q)_l as m grows."""
    target = at_order(t_ab(l, a), order2) * inv_poch_finite(
        FactorSpec(1, 2, 2), l, order2=order2
    )
    hi = search or order2 // 2 + l + 4
    vals = (at_order(t_warnaar(l, m, a, b), order2) for m in range(hi))
    return stabilized(vals, target) is not None
