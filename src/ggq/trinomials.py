"""Gaussian binomials, two q-trinomial families, and the bounded identities.

The bounded identities 4.15 and 4.20, and the trinomials behind the
limits 4.17 and 4.18, are equalities of exact polynomials in x = q^(1/2).
Such a polynomial p is built as the integer p(2^bits) (Kronecker
substitution), so products, sums and shifts x^e are one bignum ``*``,
``+`` and ``<< bits * e``, and q -> q^2 is evaluation at 2^(2 * bits).
Gaussian binomials come from the q-Pascal rule, with no division, and
have nonnegative coefficients that sum to comb(top, bottom).  So each
value travels with a bound on |coefficient|: a sum of products of
binomials is bounded by the sum of the products of their combs.
``_unpacked`` picks slots wide enough for every bound and reads each
value back into a TruncSeries once, by balanced digits.  Only this
module knows the packed form.  The multisums of 4.15 and 4.20 run as a
chain from N_1 down, with no list of vectors, and their alternating
j-sums over a range stated in closed form: a trinomial at l vanishes
once |a| > l, so only finitely many j can contribute.

``q_binomial`` builds its coefficients one by one instead: the limit
checks need only the low terms of binomials whose whole packed value
would run to hundreds of thousands of bits.  Each limit check evaluates
its sequence at the two indices one and two past where the terms below
order2 must have settled, and compares both with the limit.
"""

from __future__ import annotations

from functools import lru_cache, partial
from math import comb
from operator import add

from .series import (
    FactorSpec,
    TruncSeries,
    _digits,
    _from_lists,
    inv_poch_finite,
    inv_poch_infinite,
    one,
    poch_finite,
)

__all__ = [
    "q_binomial",
    "t_warnaar",
    "t_ab",
    "u_tilde",
    "sides_4_15",
    "sides_4_20",
    "limit_4_9",
    "limit_4_10",
    "limit_4_17",
    "limit_4_18",
]


@lru_cache(maxsize=None)
def q_binomial(top: int, bottom: int, *, order2: int = 0) -> TruncSeries:
    """Gaussian binomial [top choose bottom] in q.

    Zero outside 0 <= bottom <= top.  Computed as the product of
    (1 - q^(top-bottom+i)), i = 1..bottom, divided in place by each
    (1 - q^i); the divisions are exact.  When nothing is cut, the sum of
    the coefficients must equal comb(top, bottom), the value at q = 1.

    Without order2 the result is the whole polynomial, tagged with the
    smallest bound that holds it.  A positive order2 is the bound of the
    result: only the terms below it are built.  Neither step moves a
    coefficient to a lower degree, so those terms equal the whole
    polynomial's.
    """
    if order2 < 0:
        raise ValueError("order2 must be nonnegative")
    if bottom < 0 or bottom > top:
        return TruncSeries({}, order2 or 1)
    bottom = min(bottom, top - bottom)  # symmetry keeps the arrays short
    if bottom == 0:
        return one(order2 or 1)
    deg = bottom * (top - bottom)
    order2 = order2 or 2 * deg + 1
    size = min(deg, (order2 - 1) // 2) + 1  # coefficients kept
    coeffs = [0] * size
    coeffs[0] = 1
    cur = 0
    for i in range(1, bottom + 1):
        d = top - bottom + i
        cur += d
        for j in range(min(cur, size - 1), d - 1, -1):
            coeffs[j] -= coeffs[j - d]
    for i in range(1, bottom + 1):
        # divide in place by (1 - q^i); ascending order keeps it exact
        for j in range(i, size):
            coeffs[j] += coeffs[j - i]
    if size == deg + 1 and sum(coeffs) != comb(top, bottom):  # q=1 specialization
        raise AssertionError(f"q-binomial [{top}, {bottom}] fails its q=1 value")
    terms = {(2 * u, 0, 0): c for u, c in enumerate(coeffs) if c}
    return TruncSeries(terms, order2)


# -- exact polynomials packed into integers ------------------------------


@lru_cache(maxsize=None)
def _binomial_at(top: int, bottom: int, bits: int) -> tuple[int, int]:
    """([top choose bottom] at x = 2^bits, comb(top, bottom)) by the q-Pascal
    rule [t, b] = [t-1, b-1] + x^b [t-1, b], one shift-add per entry, each
    cached; (0, 0) outside 0 <= bottom <= top.  With b <= t - b, an entry
    first builds [t - 64, b] when t - b >= 64, so the recursion runs at
    most b + 64 deep past it.
    """
    if bottom < 0 or bottom > top:
        return 0, 0
    bottom = min(bottom, top - bottom)
    if bottom == 0:
        return 1, 1
    if top - bottom >= 64:
        _binomial_at(top - 64, bottom, bits)
    f1, c1 = _binomial_at(top - 1, bottom - 1, bits)
    f2, c2 = _binomial_at(top - 1, bottom, bits)
    return f1 + (f2 << bits * bottom), c1 + c2


def _unpacked(*sides, order2: int = 0) -> tuple[TruncSeries, ...]:
    """Each side(bits) -> (value, bound), read back as a TruncSeries.

    Slots start at 4 bytes and widen until every bound is below half a
    slot, so each coefficient is one balanced digit, and the top slot of
    a nonzero value is its bit length // (8 * width).  All sides share one
    order2: the given one, or else the highest degree of any side plus 2
    (1 when every side is zero).  Few calls widen (2 of the full tier's
    292), so a pass at bits = 0 to fix the width first would cost more.
    """
    width = 4
    while True:
        packed = [side(8 * width) for side in sides]
        top = max(bound for _, bound in packed)
        if top < 1 << (8 * width - 1):
            break
        width = (top.bit_length() + 8) // 8
    order2 = order2 or 2 + max(v.bit_length() // (8 * width) if v else -1 for v, _ in packed)
    return tuple(_from_lists([_digits(v, order2, width)], 0, 0, order2) for v, _ in packed)


def _t_warnaar(l: int, m: int, a: int, b: int, bits: int) -> tuple[int, int]:
    if l < 0 or m < 0:
        raise ValueError("l, m must be nonnegative")
    val = bound = 0
    for n in range((l - a) % 2, l + 1, 2):
        f1, c1 = _binomial_at(m, n, 2 * bits)
        f2, c2 = _binomial_at(m + b + (l - a - n) // 2, m + b, 2 * bits)
        f3, c3 = _binomial_at(m - b + (l + a - n) // 2, m - b, 2 * bits)
        val += (f1 * f2 * f3) << bits * n * n
        bound += c1 * c2 * c3
    return val, bound


def _t_ab(l: int, a: int, bits: int) -> tuple[int, int]:
    if l < 0:
        raise ValueError("l must be nonnegative")
    val = bound = 0
    for n in range((l - a) % 2, l + 1, 2):
        f1, c1 = _binomial_at(l, n, 2 * bits)
        f2, c2 = _binomial_at(l - n, (l - a - n) // 2, 2 * bits)
        val += (f1 * f2) << bits * n * n
        bound += c1 * c2
    return val, bound


def _u_tilde(l: int, m: int, a: int, b: int, bits: int) -> tuple[int, int]:
    return tuple(map(add, _t_warnaar(l, m, a, b, bits), _t_warnaar(l, m, a + 1, b, bits)))


def _u_of(l: int, a: int, bits: int) -> tuple[int, int]:
    return tuple(map(add, _t_ab(l, a, bits), _t_ab(l, a + 1, bits)))


def t_warnaar(l: int, m: int, a: int, b: int, *, order2: int = 0) -> TruncSeries:
    """Refined q-trinomial at base q; exponents n^2/2 live on the half grid.

    Without order2 the whole polynomial, else its terms below order2.
    """
    return _unpacked(partial(_t_warnaar, l, m, a, b), order2=order2)[0]


def t_ab(l: int, a: int, *, order2: int = 0) -> TruncSeries:
    return _unpacked(partial(_t_ab, l, a), order2=order2)[0]


def u_tilde(l: int, m: int, a: int, b: int, *, order2: int = 0) -> TruncSeries:
    return _unpacked(partial(_u_tilde, l, m, a, b), order2=order2)[0]


# -- the doubly bounded identity and its m -> infinity form -------------


def _bounded_lhs(k: int, l: int, m: int | None, bits: int) -> tuple[int, int]:
    """The multisum side of 4.15 (m >= N_1 >= .. >= N_k), or of 4.20 (m None,
    l >= N_1), as a chain: past N_j, with t = N_1 + .. + N_j, the sum depends
    only on (j, N_j, t), so each state is summed once.  The step to N_(j+1)
    takes q^(N_(j+1)^2) [l - t + N_j - N_(j+1), N_j - N_(j+1)] in q^2; at
    N_0 = m, t = 0 it is 4.15's leading binomial, which 4.20 lacks."""
    if k < 1:
        raise ValueError("k must be >= 1")

    @lru_cache(maxsize=None)
    def below(j: int, n: int, t: int) -> tuple[int, int]:
        val = bound = 0
        if j == k:  # the s-sum that closes each vector
            for s in range(n + 1):
                f4, c4 = _binomial_at(n + (l - 1 - t - s) // 2, n, 8 * bits)
                fs, cs = _binomial_at(n, s, 4 * bits)
                val += (f4 * fs) << bits * 2 * (s * s + 2 * n)
                bound += c4 * cs
            return val, bound
        for n2 in range(n + 1):
            f, c = _binomial_at(l - t + n - n2, n - n2, 4 * bits) if j or m is not None else (1, 1)
            if c:
                v, b = below(j + 1, n2, t + n2)
                val += (f * v) << bits * 2 * n2 * n2
                bound += c * b
        return val, bound

    return below(0, l if m is None else m, 0)


def _rhs_hierarchy(k: int, l: int, u, bits: int) -> tuple[int, int]:
    """Sum the alternating j-series of 4.15 and 4.20 over u(a, b, bits),
    which is _u_tilde or _u_of at the identity's bounds, taken in q^2.

    Each trinomial at l has a Gaussian binomial whose bottom exceeds its
    top once |a| > l, so u(a) = T(a) + T(a + 1) vanishes outside
    -l - 1 <= a <= l.  Piece j reads u at a = (2k + 4)j + 1 and
    (2k + 4)j + k + 1, so only j = -((l + k + 2) // (2k + 4)) ..
    (l - 1) // (2k + 4) can contribute, and the sum runs over exactly those.
    """
    period = 2 * k + 4
    val = bound = 0
    for j in range(-((l + k + 2) // period), (l - 1) // period + 1):
        u1, b1 = u(period * j + 1, 2 * j, 2 * bits)
        u2, b2 = u(period * j + k + 1, 2 * j + 1, 2 * bits)
        # x-exponents of q^((4k+8)j^2 + 4j) and q^((4k+8)j^2 + 4(k+1)j + k)
        e = 4 * period * j * j
        val += (u1 << bits * (e + 8 * j)) - (u2 << bits * (e + 8 * (k + 1) * j + 2 * k))
        bound += b1 + b2
    return val, bound


def sides_4_15(k: int, l: int, m: int) -> tuple[TruncSeries, TruncSeries]:
    """Both sides of the doubly bounded identity at (k, l, m), whole, at
    one bound: the k-fold multisum led by [l+m-N_1, m-N_1] in q^2, and the
    alternating j-sum over u_tilde(l, m, ., .) in q^2."""
    if l < 0 or m < 0:
        raise ValueError("l, m must be nonnegative")
    return _unpacked(
        partial(_bounded_lhs, k, l, m),
        partial(_rhs_hierarchy, k, l, partial(_u_tilde, l, m)),
    )


def sides_4_20(k: int, l: int) -> tuple[TruncSeries, TruncSeries]:
    """Both sides of the singly bounded identity at (k, l), the m -> infinity
    form of 4.15, whole, at one bound: the multisum with N_1 <= l, and the
    alternating j-sum over t_ab(l, a) + t_ab(l, a + 1) in q^2.  For k = 1
    the vector N_1 = l adds nothing: its last binomial has top below
    bottom for every s."""
    if l < 0:
        raise ValueError("l must be nonnegative")
    return _unpacked(
        partial(_bounded_lhs, k, l, None),
        partial(_rhs_hierarchy, k, l, lambda a, b, bits: _u_of(l, a, bits)),
    )


# -- limits, each checked where it must already hold -------------------


def limit_4_9(m: int, order2: int) -> bool:
    """[n, m] -> 1/(q)_m as n grows: they agree through q^(n-m), so below
    order2 from n = m + order2 // 2 on; checked at the next two n."""
    target = inv_poch_finite(FactorSpec(1, 2, 2), m, order2=order2)
    n = m + order2 // 2 + 1
    return q_binomial(n, m, order2=order2) == q_binomial(n + 1, m, order2=order2) == target


def limit_4_10(j: int, order2: int) -> bool:
    """[2n, n+j] -> 1/(q)_infinity as n grows: they agree through q^(n-|j|),
    so below order2 from n = |j| + order2 // 2 on; checked at the next two n."""
    target = inv_poch_infinite(FactorSpec(1, 2, 2), order2=order2)
    n = abs(j) + order2 // 2 + 1
    return q_binomial(2 * n, n + j, order2=order2) == q_binomial(
        2 * n + 2, n + 1 + j, order2=order2
    ) == target


def limit_4_17(m: int, a: int, b: int, order2: int) -> bool:
    """u_tilde(l, m, a, b) -> (-sqrt q)_m / (q)_{2m} * [2m, m+b] as l grows,
    checked at l = order2 + 2 and + 3, past where the terms below order2 settle."""
    lead = poch_finite(FactorSpec(-1, 1, 2), m, order2=order2)
    lead = lead * inv_poch_finite(FactorSpec(1, 2, 2), 2 * m, order2=order2)
    target = lead * q_binomial(2 * m, m + b, order2=order2)
    l = order2 + 2
    return u_tilde(l, m, a, b, order2=order2) == u_tilde(l + 1, m, a, b, order2=order2) == target


def limit_4_18(l: int, a: int, b: int, order2: int) -> bool:
    """t_warnaar(l, m, a, b) -> t_ab(l, a) / (q)_l as m grows, checked at
    m = order2 // 2 + l + 2 and + 3, past where the terms below order2 settle."""
    target = t_ab(l, a, order2=order2) * inv_poch_finite(FactorSpec(1, 2, 2), l, order2=order2)
    m = order2 // 2 + l + 2
    return t_warnaar(l, m, a, b, order2=order2) == t_warnaar(
        l, m + 1, a, b, order2=order2
    ) == target
