"""Bailey pairs relative to 1, the limiting lemma step, and the finite identity.

Sequences are truncated series on the half-exponent grid, so q^(n^2/2)
and (-sqrt q)_n are integer shifts.  The defining relation

    beta_n = sum_{i<=n} alpha_i / ((q)_{n-i} (q)_{n+i})

is checked termwise; pair equality always means termwise series equality
up to the shared order.

The multisums of the hierarchy are k applications of the limiting lemma,
the Bailey chain (Andrews, Pacific J. Math. 114 (1984)).  ``step`` and
``lhs_4_7`` run it one level at a time, each level one application,
instead of listing vectors.  The chain is stated once: 4.12/4.13's
multisums in the registry are ``lhs_4_7``'s levels with q replaced by q^2.
"""

from __future__ import annotations

from dataclasses import dataclass

from .series import (
    FactorSpec,
    TruncSeries,
    inv_poch_finite,
    monomial,
    one,
    poch_finite,
    zero,
)
from .trinomials import n_vectors, q_binomial

__all__ = [
    "BaileyPair",
    "seed_E4",
    "defining_sum",
    "step",
    "iterate_closed",
    "lhs_4_7",
    "rhs_4_7",
]

Q = FactorSpec(1, 2, 2)  # (q; q)
SQ = FactorSpec(-1, 1, 2)  # (-sqrt q; q)
Q2 = FactorSpec(1, 4, 4)  # (q^2; q^2)


@dataclass(frozen=True)
class BaileyPair:
    alpha: tuple[TruncSeries, ...]
    beta: tuple[TruncSeries, ...]
    order2: int

    @property
    def n_max(self) -> int:
        return len(self.alpha) - 1

    def __post_init__(self):
        if len(self.alpha) != len(self.beta):
            raise ValueError("alpha and beta must have the same length")


def seed_E4(n_max: int, order2: int) -> BaileyPair:
    """alpha_0 = 1, alpha_n = (-1)^n (q^(n^2-n) + q^(n^2+n)),
    beta_n = q^n / (q^2; q^2)_n."""
    alpha = [one(order2)]
    beta = [one(order2)]
    for n in range(1, n_max + 1):
        sgn = -1 if n % 2 else 1
        a = monomial(sgn, 2 * (n * n - n), order2=order2) + monomial(
            sgn, 2 * (n * n + n), order2=order2
        )
        alpha.append(a)
        beta.append(
            monomial(1, 2 * n, order2=order2)
            * inv_poch_finite(Q2, n, order2=order2)
        )
    return BaileyPair(tuple(alpha), tuple(beta), order2)


def defining_sum(p: BaileyPair, n: int) -> TruncSeries:
    """The right side of the defining relation at n, built from alpha."""
    acc = zero(p.order2)
    for i in range(n + 1):
        acc = acc + p.alpha[i] * inv_poch_finite(
            Q, n - i, order2=p.order2
        ) * inv_poch_finite(Q, n + i, order2=p.order2)
    return acc


def _chain_level(g: list[TruncSeries], order2: int) -> list[TruncSeries]:
    """One level of the Bailey chain: for n < len(g),

        h_n = sum_{i<=n} q^(i^2 / 2) g_i / (q; q)_{n-i}.

    Each g_i is weighted once, then each (n, i) costs one product.
    """
    weighted = [monomial(1, i * i, order2=order2) * gi for i, gi in enumerate(g)]
    out = []
    for n in range(len(g)):
        acc = zero(order2)
        for i in range(n + 1):
            acc = acc + weighted[i] * inv_poch_finite(Q, n - i, order2=order2)
        out.append(acc)
    return out


def _gamma(p: BaileyPair) -> list[TruncSeries]:
    """(-sqrt q)_n beta_n for every n: what the chain sums over."""
    return [poch_finite(SQ, n, order2=p.order2) * b for n, b in enumerate(p.beta)]


def step(p: BaileyPair) -> BaileyPair:
    """One application of the limiting lemma: a new pair from an old one.

    alpha_n becomes q^(n^2/2) alpha_n, and beta_n becomes h_n / (-sqrt q)_n,
    where h is the chain level over (q; q) of (-sqrt q)_n beta_n.
    """
    order2 = p.order2
    alpha = [monomial(1, n * n, order2=order2) * a for n, a in enumerate(p.alpha)]
    h = _chain_level(_gamma(p), order2)
    beta = [hn * inv_poch_finite(SQ, n, order2=order2) for n, hn in enumerate(h)]
    return BaileyPair(tuple(alpha), tuple(beta), order2)


def iterate_closed(p: BaileyPair, k: int) -> BaileyPair:
    """The closed form of k lemma applications, evaluated directly."""
    if k < 1:
        raise ValueError("k must be >= 1")
    order2 = p.order2
    alpha = [
        monomial(1, k * n * n, order2=order2) * p.alpha[n]
        for n in range(p.n_max + 1)
    ]
    beta = []
    for n in range(p.n_max + 1):
        acc = zero(order2)
        for nvec in n_vectors(k, n):
            small = [nvec[i] - nvec[i + 1] for i in range(k - 1)] + [nvec[-1]]
            nk = small[-1]
            term = monomial(1, sum(v * v for v in nvec), order2=order2)
            term = term * poch_finite(SQ, nk, order2=order2) * p.beta[nk]
            term = term * inv_poch_finite(Q, n - nvec[0], order2=order2)
            for nj in small[:-1]:
                term = term * inv_poch_finite(Q, nj, order2=order2)
            acc = acc + term
        beta.append(acc * inv_poch_finite(SQ, n, order2=order2))
    return BaileyPair(tuple(alpha), tuple(beta), order2)


def lhs_4_7(n: int, k: int, order2: int) -> list[list[TruncSeries]]:
    """Multi-sums with the E(4) ingredients folded in, for every level up
    to k and every index up to n, from one chain: entry [j][m] equals
    (-sqrt q)_m * beta_m^(j).

    The j-fold sum over m >= N_1 >= .. >= N_j of q^((sum N_i^2)/2 + N_j)
    (-sqrt q)_{N_j} / ((q)_{m-N_1} .. (q)_{N_(j-1)-N_j} (q^2; q^2)_{N_j}),
    evaluated as j chain levels over (q; q) from level 0, the seed's
    (-sqrt q)_m beta_m that ``step`` sums over.  Entry m of a level reads
    only entries up to m of the level below, so one chain over m <= n
    holds every (m, j).
    """
    levels = [_gamma(seed_E4(n, order2))]
    for _ in range(k):
        levels.append(_chain_level(levels[-1], order2))
    return levels


def rhs_4_7(n: int, k: int, order2: int) -> TruncSeries:
    """(-sqrt q)_n / (q)_{2n} times the alternating j-sum of binomials.

    The denominator index is 2n: expanding the defining relation against
    the k-shifted seed gives 1/((q)_{n-j}(q)_{n+j}) = [2n, n+j]/(q)_{2n},
    and only the 2n form matches the multi-sum side termwise.
    """
    acc = zero(order2)
    for j in range(-n, n + 1):
        e2 = (k + 2) * j * j + 2 * j
        sgn = -1 if j % 2 else 1
        acc = acc + monomial(sgn, e2, order2=order2) * q_binomial(2 * n, n + j, order2=order2)
    return (
        acc
        * poch_finite(SQ, n, order2=order2)
        * inv_poch_finite(Q, 2 * n, order2=order2)
    )

