"""Schoolbook oracles: exact polynomials for the packed path, and
Pochhammer products multiplied in one factor at a time.

The refined trinomials and both sides of the bounded identities 4.15 and
4.20 are written here a second time, as dicts {e2: coeff} over
x = q^(1/2), multiplied pair by pair and summed key by key from the
coefficients of ``q_binomial``.  Nothing here packs a polynomial into an
integer or shares the chain or the j range of ``ggq.trinomials``: each
multisum is summed one term per vector, the vectors from a filtered
product, and the j-sum runs over the wider range |j| <= l, past which
every term is zero.

``poch`` multiplies a Pochhammer product out one two-term factor at a
time through ``TruncSeries.__mul__``; it shares nothing with the dense
builders of ``ggq.series``.

``single_sum``, ``single_pair_sum`` and ``double_sum`` are the paper's
series summed term by term: a monomial times (num)_n and the cached
inverses, one product per factor and term, added into the total one term
at a time.  They do not walk the term ratio, as ``series._ratio_sum``
and ``registry._single_pair_sum`` do, nor pull the factors of n2 out of
the n1 sum, as ``registry._double_sum`` does.
"""

from __future__ import annotations

from itertools import product

from ggq.series import (
    FactorSpec,
    TruncSeries,
    inv_poch_finite,
    monomial,
    one,
    poch_finite,
    zero,
)
from ggq.trinomials import q_binomial


def poch(f: FactorSpec, n: int | None, order2: int) -> TruncSeries:
    """The first n factors of the family (every visible one for None), each
    built as ``one - monomial`` and multiplied in with ``*``."""
    acc = one(order2)
    j = 0
    while (j < n) if n is not None else (f.e2 + j * f.step2 < order2):
        acc = acc * (one(order2) - monomial(f.sign, f.e2 + j * f.step2, f.dz, f.dw, order2=order2))
        j += 1
    return acc


def single_sum(order2, exp2, num, den) -> TruncSeries:
    """Sum of q^(exp2(n)/2) (num)_n / prod (den)_n over n >= 0, exp2
    nondecreasing, one term at a time."""
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


def single_pair_sum(order2, marked: bool) -> TruncSeries:
    """1 plus, over n >= 1, (q^(n^2+n) + [w] q^(n^2+n-1)) (-[w]q; q^2)_{n-1}
    / (q^2; q^2)_n, one term at a time."""
    dw = 1 if marked else 0
    shifted = FactorSpec(-1, 2, 4, 0, dw)
    total = one(order2)
    n = 1
    while 2 * n * n + 2 * n - 2 < order2:
        head = monomial(1, 2 * n * n + 2 * n, order2=order2) + monomial(
            1, 2 * n * n + 2 * n - 2, 0, dw, order2=order2
        )
        term = head * poch_finite(shifted, n - 1, order2=order2)
        total = total + term * inv_poch_finite(FactorSpec(1, 4, 4), n, order2=order2)
        n += 1
    return total


def double_sum(order2, lin, num, den2, z_mark: bool, w_mark: bool) -> TruncSeries:
    """Sum over (n1, n2) of z^n1 w^n2 q^(n1^2 + 2 n1 n2 + 2 n2^2 + a n1 + b n2)
    (num)_{n2} / ((q^2; q^2)_{n1} (den2)_{n2}), lin = (a, b), one grid
    point at a time."""
    a, b = lin
    q2 = FactorSpec(1, 4, 4)

    def exp2(n1, n2):
        return 2 * (n1 * n1 + 2 * n1 * n2 + 2 * n2 * n2 + a * n1 + b * n2)

    total = zero(order2)
    n2 = 0
    while exp2(0, n2) < order2:
        n1 = 0
        while exp2(n1, n2) < order2:
            dz, dw = n1 if z_mark else 0, n2 if w_mark else 0
            term = monomial(1, exp2(n1, n2), dz, dw, order2=order2)
            if num is not None:
                term = term * poch_finite(num, n2, order2=order2)
            term = term * inv_poch_finite(q2, n1, order2=order2)
            term = term * inv_poch_finite(den2, n2, order2=order2)
            total = total + term
            n1 += 1
        n2 += 1
    return total


def binomial(top: int, bottom: int, step2: int = 2) -> dict[int, int]:
    """[top, bottom] in x = q^(step2/2): the binomial in q, exponents dilated."""
    return {e2 * step2 // 2: c for (e2, _, _), c in q_binomial(top, bottom).terms.items()}


def add(*polys: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for p in polys:
        for e2, c in p.items():
            out[e2] = out.get(e2, 0) + c
    return {e2: c for e2, c in out.items() if c}


def mul(*polys: dict[int, int]) -> dict[int, int]:
    out = {0: 1}
    for p in polys:
        acc: dict[int, int] = {}
        for ea, ca in out.items():
            for eb, cb in p.items():
                acc[ea + eb] = acc.get(ea + eb, 0) + ca * cb
        out = {e2: c for e2, c in acc.items() if c}
    return out


def shift(p: dict[int, int], e2: int, sign: int = 1) -> dict[int, int]:
    return {k + e2: sign * c for k, c in p.items()}


def t_warnaar(l: int, m: int, a: int, b: int) -> dict[int, int]:
    return add(*(
        shift(mul(
            binomial(m, n),
            binomial(m + b + (l - a - n) // 2, m + b),
            binomial(m - b + (l + a - n) // 2, m - b),
        ), n * n)
        for n in range(l + 1) if (n + l - a) % 2 == 0
    ))


def t_ab(l: int, a: int) -> dict[int, int]:
    return add(*(
        shift(mul(binomial(l, n), binomial(l - n, (l - a - n) // 2)), n * n)
        for n in range(l + 1) if (n + l - a) % 2 == 0
    ))


def u_tilde(l: int, m: int, a: int, b: int) -> dict[int, int]:
    return add(t_warnaar(l, m, a, b), t_warnaar(l, m, a + 1, b))


def u_of(l: int, a: int) -> dict[int, int]:
    return add(t_ab(l, a), t_ab(l, a + 1))


def _bounded_lhs(k: int, l: int, cap: int, head) -> dict[int, int]:
    parts = []
    for nvec in product(range(cap, -1, -1), repeat=k):
        if any(x < y for x, y in zip(nvec, nvec[1:])):
            continue
        small = [nvec[i] - nvec[i + 1] for i in range(k - 1)] + [nvec[-1]]
        nk, total = small[-1], sum(nvec)
        factors = [head(nvec[0])]
        for j in range(k - 1):
            factors.append(binomial(l - sum(nvec[: j + 1]) + small[j], small[j], 4))
        for s in range(nk + 1):
            term = mul(*factors, binomial(nk + (l - 1 - total - s) // 2, nk, 8),
                       binomial(nk, s, 4))
            parts.append(shift(term, 2 * (sum(v * v for v in nvec) + s * s + 2 * nk)))
    return add(*parts)


def _rhs_hierarchy(k: int, l: int, u) -> dict[int, int]:
    # u(a, .) is zero once |a| > l, and each a below is at least (k+2)|j|
    # in size when j != 0, so |j| <= l covers every nonzero term
    parts = []
    for j in range(-l, l + 1):
        u1 = {2 * e2: c for e2, c in u(2 * (k + 2) * j + 1, 2 * j).items()}
        u2 = {2 * e2: c for e2, c in u(2 * (k + 2) * j + k + 1, 2 * j + 1).items()}
        parts.append(shift(u1, 2 * ((4 * k + 8) * j * j + 4 * j)))
        parts.append(shift(u2, 2 * ((4 * k + 8) * j * j + 4 * (k + 1) * j + k), -1))
    return add(*parts)


def sides_4_15(k: int, l: int, m: int) -> tuple[dict[int, int], dict[int, int]]:
    lhs = _bounded_lhs(k, l, m, lambda n1: binomial(l + m - n1, m - n1, 4))
    return lhs, _rhs_hierarchy(k, l, lambda a, b: u_tilde(l, m, a, b))


def sides_4_20(k: int, l: int) -> tuple[dict[int, int], dict[int, int]]:
    cap = l if k > 1 else max(l - 1, 0)
    lhs = _bounded_lhs(k, l, cap, lambda n1: {0: 1})
    return lhs, _rhs_hierarchy(k, l, lambda a, b: u_of(l, a))
