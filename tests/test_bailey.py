"""Bailey pair seed, lattice step, closed iterate, and the finite identity."""

from itertools import product
from math import isqrt

import pytest

from ggq import bailey
from ggq.bailey import (
    BaileyPair,
    defining_sum,
    iterate_closed,
    lhs_4_7,
    rhs_4_7,
    seed_E4,
    step,
)
from ggq.registry import _lhs_hierarchy
from ggq.series import FactorSpec, inv_poch_finite, monomial, poch_finite, series_diff, zero

ORDER2 = 80


def relation_mismatches(p):
    return [n for n in range(p.n_max + 1) if series_diff(p.beta[n], defining_sum(p, n))]


def test_seed_satisfies_defining_relation():
    p = seed_E4(6, ORDER2)
    assert p.n_max == 6
    assert relation_mismatches(p) == []


def test_step_preserves_relation():
    p = seed_E4(6, ORDER2)
    for _ in range(3):
        p = step(p)
        assert relation_mismatches(p) == []


def test_closed_iterate_matches_stepping(monkeypatch):
    # the closed form is 4.5's independent side: with the chain refused, it
    # still gives the stepped pairs
    base = seed_E4(6, ORDER2)
    stepped = [base]
    for _ in range(5):
        stepped.append(step(stepped[-1]))

    def refuse(*args):
        raise RuntimeError("the closed form ran the chain")

    monkeypatch.setattr(bailey, "step", refuse)
    monkeypatch.setattr(bailey, "_chain_level", refuse)
    for k in range(1, 6):
        closed = iterate_closed(base, k)
        assert closed.alpha == stepped[k].alpha
        assert closed.beta == stepped[k].beta


def test_pair_length_mismatch_rejected():
    p = seed_E4(2, 40)
    with pytest.raises(ValueError):
        BaileyPair(p.alpha, p.beta[:-1], 40)


def test_finite_identity_grid():
    levels = list(lhs_4_7(5, 2, ORDER2))
    assert len(levels) == 3 and all(len(level) == 6 for level in levels)
    for n in range(6):
        for k in range(1, 3):
            assert series_diff(levels[k][n], rhs_4_7(n, k, ORDER2)) is None


def test_finite_identity_detects_damage():
    # sanity on the checker itself: shrinking n on one side must show up
    assert series_diff(list(lhs_4_7(3, 2, 60))[2][3], rhs_4_7(4, 2, 60)) is not None


# The multisums of 4.7 and 4.12 written a second time, straight from their
# definitions: one term per weakly decreasing vector, the vectors filtered
# out of a product, every factor multiplied in.  Nothing here shares the
# chain recursion or the vector walk of ggq.


def _vector_sum(k, top, order2, term):
    acc = zero(order2)
    for v in product(range(top + 1), repeat=k):
        if all(a >= b for a, b in zip(v, v[1:])):
            acc = acc + term(v)
    return acc


def _den(spec, gaps, order2):
    acc = monomial(1, 0, order2=order2)
    for g in gaps:
        acc = acc * inv_poch_finite(spec, g, order2=order2)
    return acc


def vectors_4_7(n, k, order2):
    q, sq, q2 = FactorSpec(1, 2, 2), FactorSpec(-1, 1, 2), FactorSpec(1, 4, 4)

    def term(v):
        gaps = [n - v[0]] + [a - b for a, b in zip(v, v[1:])]
        e2 = sum(x * x for x in v) + 2 * v[-1]
        return (monomial(1, e2, order2=order2) * poch_finite(sq, v[-1], order2=order2)
                * _den(q, gaps, order2) * inv_poch_finite(q2, v[-1], order2=order2))

    return _vector_sum(k, n, order2, term)


def vectors_4_12(k, order2):
    q2, mq, q4 = FactorSpec(1, 4, 4), FactorSpec(-1, 2, 4), FactorSpec(1, 8, 8)

    def term(v):
        gaps = [a - b for a, b in zip(v, v[1:])]
        e2 = 2 * (sum(x * x for x in v) + 2 * v[-1])
        return (monomial(1, e2, order2=order2) * poch_finite(mq, v[-1], order2=order2)
                * _den(q2, gaps, order2) * inv_poch_finite(q4, v[-1], order2=order2))

    # a vector with N_1^2 >= order2 / 2 has every term past the bound
    return _vector_sum(k, isqrt(order2 // 2), order2, term)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_chain_matches_the_vector_sum_4_7(k):
    # one chain holds every level up to k and every n up to its own
    levels = list(lhs_4_7(5, k, 60))
    for j in range(1, k + 1):
        for n in range(6):
            got = levels[j][n]
            assert got.terms and got == vectors_4_7(n, j, 60), (n, j)


# the smallest and the even orders are where lhs_4_7's bound
# (order2 + 1) // 2 decides which terms survive q -> q^2
@pytest.mark.parametrize("order2", [3, 4, 21, 22, 81])
def test_chain_matches_the_vector_sum_4_12(order2):
    sums = _lhs_hierarchy(4, order2)
    assert len(sums) == 4
    for k, got in enumerate(sums, 1):
        assert got.terms and got == vectors_4_12(k, order2), k
