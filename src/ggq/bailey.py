"""Bailey pairs relative to 1, the limiting lemma step, and the finite identity.

Sequences are truncated series on the half-exponent grid, so q^(n^2/2)
and (-sqrt q)_n are integer shifts.  The defining relation

    beta_n = sum_{i<=n} alpha_i / ((q)_{n-i} (q)_{n+i})

is checked termwise; pair equality always means termwise series equality
up to the shared order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .series import (
    FactorSpec,
    TruncSeries,
    inv_poch_finite,
    monomial,
    one,
    poch_finite,
    series_diff,
    zero,
)
from .trinomials import n_vectors, q_binomial

__all__ = [
    "BaileyPair",
    "seed_E4",
    "defining_sum",
    "pair_mismatch",
    "verify_pair",
    "step",
    "iterate_closed",
    "lhs_4_7",
    "rhs_4_7",
    "finite_identity_4_7",
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


def pair_mismatch(p: BaileyPair) -> Optional[tuple[int, tuple, int, int]]:
    """First (n, key, expected, got) where the defining relation breaks."""
    for n in range(p.n_max + 1):
        d = series_diff(p.beta[n], defining_sum(p, n))
        if d is not None:
            key, want, got = d
            return n, key, want, got
    return None


def verify_pair(p: BaileyPair) -> bool:
    return pair_mismatch(p) is None


def step(p: BaileyPair) -> BaileyPair:
    """One application of the limiting lemma: a new pair from an old one."""
    alpha = []
    beta = []
    for n in range(p.n_max + 1):
        alpha.append(monomial(1, n * n, order2=p.order2) * p.alpha[n])
        acc = zero(p.order2)
        for i in range(n + 1):
            acc = acc + (
                poch_finite(SQ, i, order2=p.order2)
                * monomial(1, i * i, order2=p.order2)
                * p.beta[i]
                * inv_poch_finite(Q, n - i, order2=p.order2)
            )
        beta.append(acc * inv_poch_finite(SQ, n, order2=p.order2))
    return BaileyPair(tuple(alpha), tuple(beta), p.order2)


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


def lhs_4_7(n: int, k: int, order2: int) -> TruncSeries:
    """Multi-sum with the E(4) ingredients folded in; equals
    (-sqrt q)_n * beta_n^(k)."""
    acc = zero(order2)
    for nvec in n_vectors(k, n):
        small = [nvec[i] - nvec[i + 1] for i in range(k - 1)] + [nvec[-1]]
        nk = small[-1]
        e2 = sum(v * v for v in nvec) + 2 * nvec[-1]
        term = monomial(1, e2, order2=order2)
        term = term * poch_finite(SQ, nk, order2=order2)
        term = term * inv_poch_finite(Q, n - nvec[0], order2=order2)
        for nj in small[:-1]:
            term = term * inv_poch_finite(Q, nj, order2=order2)
        term = term * inv_poch_finite(Q2, nk, order2=order2)
        acc = acc + term
    return acc


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


def finite_identity_4_7(n: int, k: int, order2: int):
    """None when the two sides agree, else the first differing key."""
    return series_diff(lhs_4_7(n, k, order2), rhs_4_7(n, k, order2))
