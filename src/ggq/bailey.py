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

from collections import namedtuple
from collections.abc import Iterator

from .series import (
    FactorSpec,
    TruncSeries,
    _sum_of_products,
    inv_poch_finite,
    monomial,
    one,
    poch_finite,
    zero,
)
from .trinomials import q_binomial

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


class BaileyPair(namedtuple("BaileyPair", "alpha beta order2")):
    """alpha and beta: tuples of TruncSeries of one length."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if len(self.alpha) != len(self.beta):
            raise ValueError("alpha and beta must have the same length")
        return self

    @property
    def n_max(self) -> int:
        return len(self.alpha) - 1


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
    return _sum_of_products(
        [(p.alpha[i] * inv_poch_finite(Q, n - i, order2=p.order2),
          inv_poch_finite(Q, n + i, order2=p.order2)) for i in range(n + 1)],
        p.order2,
    )


def _chain_level(g: list[TruncSeries], order2: int) -> list[TruncSeries]:
    """One level of the Bailey chain: for n < len(g),

        h_n = sum_{i<=n} q^(i^2 / 2) g_i / (q; q)_{n-i}.

    Each g_i is weighted once, then each h_n is one sum of products, one
    pair per i, packed and unpacked once.
    """
    weighted = [monomial(1, i * i, order2=order2) * gi for i, gi in enumerate(g)]
    return [_sum_of_products([(weighted[i], inv_poch_finite(Q, n - i, order2=order2))
                              for i in range(n + 1)], order2) for n in range(len(g))]


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
    """The closed form of k lemma applications, evaluated directly:
    alpha_n becomes q^(k n^2/2) alpha_n, and beta_n becomes 1 / (-sqrt q)_n
    times the k-fold sum over n >= N_1 >= .. >= N_k >= 0 of

        q^((N_1^2 + .. + N_k^2)/2) (-sqrt q)_{N_k} beta_{N_k}
            / ((q)_{n-N_1} (q)_{N_1-N_2} .. (q)_{N_(k-1)-N_k}).

    The vectors are walked depth-first from N_k up to N_1, so vectors that
    share N_k .. N_j share that part of the product: each node multiplies
    its parent's partial product by q^(N_j^2/2) / (q)_{N_j-N_(j+1)}, and
    each leaf adds its product times 1 / (q)_{n-N_1} into beta_n for every
    n >= N_1.  Sums happen only at the leaves, one term per vector, so no
    level is summed before the next is built, as the chain (``step``) does.
    Each root N_k's leaf terms are collected and added as one sum of
    products per n when its subtree is done, so one root's are held at once.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    order2, top = p.order2, p.n_max
    alpha = [monomial(1, k * n * n, order2=order2) * a for n, a in enumerate(p.alpha)]
    sums = [zero(order2)] * (top + 1)
    # q^(N_j^2/2) / (q)_{N_j-N_(j+1)} for each pair of indices, shared by every node
    factor = {(nj, low): monomial(1, nj * nj, order2=order2)
              * inv_poch_finite(Q, nj - low, order2=order2)
              for low in range(top + 1) for nj in range(low, top + 1)}

    def descend(partial: TruncSeries, low: int, levels: int) -> None:
        # partial is the product through N_j = low, with levels indices to choose
        if not levels:
            for n in range(low, top + 1):
                leaves[n].append((partial, inv_poch_finite(Q, n - low, order2=order2)))
            return
        for nj in range(low, top + 1):
            descend(partial * factor[nj, low], nj, levels - 1)

    for nk, b in enumerate(p.beta):
        root = monomial(1, nk * nk, order2=order2) * poch_finite(SQ, nk, order2=order2)
        leaves = {n: [] for n in range(nk, top + 1)}  # n -> the pairs of its leaf terms
        descend(root * b, nk, k - 1)
        for n, pairs in leaves.items():
            sums[n] = sums[n] + _sum_of_products(pairs, order2)
    beta = [s * inv_poch_finite(SQ, n, order2=order2) for n, s in enumerate(sums)]
    return BaileyPair(tuple(alpha), tuple(beta), order2)


def lhs_4_7(n: int, k: int, order2: int) -> Iterator[list[TruncSeries]]:
    """Multi-sums with the E(4) ingredients folded in, for every level up
    to k and every index up to n, from one chain: level j, yielded j-th,
    holds (-sqrt q)_m * beta_m^(j) at entry m.

    The j-fold sum over m >= N_1 >= .. >= N_j of q^((sum N_i^2)/2 + N_j)
    (-sqrt q)_{N_j} / ((q)_{m-N_1} .. (q)_{N_(j-1)-N_j} (q^2; q^2)_{N_j}),
    evaluated as j chain levels over (q; q) from level 0, the seed's
    (-sqrt q)_m beta_m that ``step`` sums over.  Entry m of a level reads
    only entries up to m of the level below, so one chain over m <= n
    holds every (m, j).  Only the level the next is built from is kept.
    """
    level = _gamma(seed_E4(n, order2))
    yield level
    for _ in range(k):
        level = _chain_level(level, order2)
        yield level


def rhs_4_7(n: int, k: int, order2: int) -> TruncSeries:
    """(-sqrt q)_n / (q)_{2n} times the alternating j-sum of binomials.

    The denominator index is 2n: expanding the defining relation against
    the k-shifted seed gives 1/((q)_{n-j}(q)_{n+j}) = [2n, n+j]/(q)_{2n},
    and only the 2n form matches the multi-sum side termwise.
    """
    acc = _sum_of_products(
        [(monomial(-1 if j % 2 else 1, (k + 2) * j * j + 2 * j, order2=order2),
          q_binomial(2 * n, n + j, order2=order2)) for j in range(-n, n + 1)],
        order2,
    )
    return (
        acc
        * poch_finite(SQ, n, order2=order2)
        * inv_poch_finite(Q, 2 * n, order2=order2)
    )

