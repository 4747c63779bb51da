"""Gaussian binomials, refined trinomials, and their limiting behavior."""

from functools import partial
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import schoolbook as sb
from ggq import trinomials
from ggq.series import FactorSpec, inv_poch_finite, inv_poch_infinite, monomial, series_diff
from ggq.trinomials import (
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


def test_frozen_small_binomial():
    assert sorted(q_binomial(4, 2).terms.items()) == [
        ((0, 0, 0), 1),
        ((2, 0, 0), 1),
        ((4, 0, 0), 2),
        ((6, 0, 0), 1),
        ((8, 0, 0), 1),
    ]


def test_binomial_vanishing_conventions():
    assert q_binomial(4, -1).terms == {}
    assert q_binomial(4, 5).terms == {}
    assert q_binomial(0, 0).terms == {(0, 0, 0): 1}


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 16), st.integers(-1, 17), st.data())
def test_truncated_binomial_is_the_full_one_cut(top, bottom, data):
    bottom = min(bottom, top + 1)
    full = q_binomial(top, bottom)
    top_e2 = max(full.max_e2(), 0)  # twice the degree
    # the two edges: order2 just holds the top term, or just cuts it
    edges = [o for o in (top_e2 + 1, top_e2) if o > 0]
    order2 = data.draw(st.sampled_from(edges) | st.integers(1, top_e2 + 4))
    cut = q_binomial(top, bottom, order2=order2)
    assert cut.order2 == order2
    assert cut.terms == {k: c for k, c in full.terms.items() if k[0] < order2}


def test_truncated_binomial_rejects_a_negative_bound():
    with pytest.raises(ValueError):
        q_binomial(6, 3, order2=-1)


@given(st.integers(1, 12), st.integers(0, 12))
def test_binomial_pascal_and_symmetry(n, k):
    # every term of [n, k] lies below q^(k(n-k)), so a bound past n^2 holds all
    order2 = 2 * n * n + 1
    lhs = q_binomial(n, k, order2=order2)
    rhs = q_binomial(n - 1, k - 1, order2=order2) + monomial(
        1, 2 * k, order2=order2
    ) * q_binomial(n - 1, k, order2=order2)
    assert series_diff(lhs, rhs) is None
    assert series_diff(lhs, q_binomial(n, n - k, order2=order2)) is None
    assert sum(lhs.terms.values()) == comb(n, k)


def _packed(top, bottom, bits):
    # q_binomial's whole polynomial at q = 2^bits, and its value at q = 1
    terms = q_binomial(top, bottom).terms
    return sum(c << bits * (e2 // 2) for (e2, _, _), c in terms.items()), comb(top, bottom)


@pytest.mark.parametrize("bits", [3, 16])
def test_packed_binomial_is_the_dense_one_evaluated(bits):
    for top in range(25):
        for bottom in range(top + 1):
            assert trinomials._binomial_at(top, bottom, bits) == _packed(top, bottom, bits)


@pytest.mark.parametrize("top, bottom", [(0, -1), (0, 1), (5, -2), (5, 6), (-1, 0), (-3, -4)])
def test_packed_binomial_is_zero_out_of_range(top, bottom):
    assert trinomials._binomial_at(top, bottom, 8) == (0, 0)


@pytest.mark.parametrize("bottom", [1, 2, 3])
def test_packed_binomial_at_a_far_top(bottom):
    # with its cache cold, a recursion one top at a time would run about
    # 1 000 frames deep here and raise RecursionError
    trinomials._binomial_at.cache_clear()
    assert trinomials._binomial_at(1000, bottom, 5) == _packed(1000, bottom, 5)


def test_refined_trinomial_base_cases():
    assert sorted(t_warnaar(1, 1, 1, 0).terms.items()) == [
        ((0, 0, 0), 1),
        ((2, 0, 0), 1),
    ]
    assert t_ab(1, 1).terms == {(0, 0, 0): 1}
    assert t_warnaar(2, 0, 3, 0).terms == {}  # a out of reach


def test_u_forms_are_adjacent_sums():
    a = u_tilde(3, 2, 1, 0, order2=40)
    b = t_warnaar(3, 2, 1, 0, order2=40) + t_warnaar(3, 2, 2, 0, order2=40)
    assert a.terms and series_diff(a, b) is None


def test_doubly_bounded_identity_grid():
    for k in (1, 2):
        for l in range(5):
            for m in range(5):
                assert series_diff(*sides_4_15(k, l, m)) is None


def test_singly_bounded_identity_grid():
    for k in (1, 2):
        for l in range(7):
            assert series_diff(*sides_4_20(k, l)) is None


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_j_sum_reads_its_stated_range_and_nothing_past_it_is_nonzero(k):
    # the j-sum reads u exactly at the pieces of its closed-form range, and
    # both u forms vanish at the piece one past each end of that range
    period = 2 * k + 4
    for l in range(16):
        lo, hi = -((l + k + 2) // period), (l - 1) // period
        forms = [lambda a, b, bits: trinomials._u_of(l, a, bits)]
        forms += [partial(trinomials._u_tilde, l, m) for m in range(7)]
        for u in forms:
            read = []

            def recorded(a, b, bits):
                read.append((a, b))
                return u(a, b, bits)

            trinomials._rhs_hierarchy(k, l, recorded, 8)
            assert read == [
                ab
                for j in range(lo, hi + 1)
                for ab in ((period * j + 1, 2 * j), (period * j + k + 1, 2 * j + 1))
            ]
            for j in (lo - 1, hi + 1):
                for a, own_b in ((period * j + 1, 2 * j), (period * j + k + 1, 2 * j + 1)):
                    for b in (own_b, -1, 0, 1):
                        assert u(a, b, 8) == (0, 0), (k, l, j, a, b)


@pytest.mark.parametrize(
    "sides, args", [(sides_4_15, (1, -1, 0)), (sides_4_15, (2, 0, -1)),
                    (sides_4_20, (1, -1)), (sides_4_20, (3, -2))]
)
def test_bounded_sides_reject_negative_bounds(sides, args):
    with pytest.raises(ValueError, match="nonnegative"):
        sides(*args)


@pytest.mark.parametrize(
    "sides, args", [(sides_4_15, (0, 2, 1)), (sides_4_15, (-1, 2, 1)),
                    (sides_4_20, (0, 3)), (sides_4_20, (-1, 3))]
)
def test_bounded_sides_reject_k_below_one(sides, args):
    with pytest.raises(ValueError, match="k must be >= 1"):
        sides(*args)


def _dict(s):
    assert s.is_univariate
    return {e2: c for (e2, _, _), c in s.terms.items()}


def _degree(p):
    return max(p, default=-1)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(0, 5), st.integers(0, 5))
def test_packed_sides_match_schoolbook(k, l, m):
    for got, want in ((sides_4_15(k, l, m), sb.sides_4_15(k, l, m)),
                      (sides_4_20(k, l), sb.sides_4_20(k, l))):
        assert [_dict(s) for s in got] == list(want)
        # both sides share the bound one past the top degree, plus one
        assert {s.order2 for s in got} == {max(map(_degree, want)) + 2}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 9), st.integers(0, 9), st.integers(-3, 10), st.integers(-3, 6),
       st.integers(0, 60))
def test_packed_trinomials_match_schoolbook(l, m, a, b, order2):
    want = sb.t_warnaar(l, m, a, b)
    assert _dict(t_warnaar(l, m, a, b)) == want
    assert t_warnaar(l, m, a, b).order2 == _degree(want) + 2
    assert _dict(t_ab(l, a)) == sb.t_ab(l, a)
    if order2:
        cut = t_warnaar(l, m, a, b, order2=order2)
        assert cut.order2 == order2
        assert _dict(cut) == {e2: c for e2, c in want.items() if e2 < order2}


def test_packing_widens_past_four_byte_slots():
    # a 34-bit coefficient does not fit a 4-byte balanced digit
    want = sb.t_warnaar(16, 12, 1, 0)
    assert max(map(abs, want.values())) >= 2**31
    assert _dict(t_warnaar(16, 12, 1, 0)) == want
    # here the coefficients fit, but their bound (the sum of the q = 1
    # values) does not, and only the terms below order2 are read back
    want = sb.u_tilde(90, 3, 1, 0)
    assert sum(map(abs, want.values())) >= 2**31
    got = u_tilde(90, 3, 1, 0, order2=101)
    assert _dict(got) == {e2: c for e2, c in want.items() if e2 < 101}


ORDER2 = 81


def test_limits():
    for m in range(5):
        assert limit_4_9(m, ORDER2)
    for j in range(3):
        assert limit_4_10(j, ORDER2)
    assert limit_4_17(0, 1, 0, ORDER2)
    assert limit_4_17(2, 1, 0, ORDER2)
    for b in (-1, 0, 1, 2):
        assert limit_4_18(3, 1, b, ORDER2)


def test_binomial_limits_hold_from_the_stated_index():
    # [n, m] agrees with 1/(q)_m through q^(n-m), and [2n, n+j] with
    # 1/(q)_infinity through q^(n-|j|); at odd ORDER2 the last coefficient
    # kept is q^(ORDER2 // 2), so n0 = m + ORDER2 // 2, or |j| + ORDER2 // 2,
    # is the first n whose value equals the limit
    for m in range(1, 5):
        target = inv_poch_finite(FactorSpec(1, 2, 2), m, order2=ORDER2)
        n0 = m + ORDER2 // 2
        assert q_binomial(n0 - 1, m, order2=ORDER2) != target
        assert q_binomial(n0, m, order2=ORDER2) == target
    target = inv_poch_infinite(FactorSpec(1, 2, 2), order2=ORDER2)
    for j in (-2, 0, 1, 3):
        n0 = abs(j) + ORDER2 // 2
        assert q_binomial(2 * n0 - 2, n0 - 1 + j, order2=ORDER2) != target
        assert q_binomial(2 * n0, n0 + j, order2=ORDER2) == target


# each limit, the function that builds its sequence, the sequence index of
# a call to it, and the two indices the limit must read: one and two past
# where the terms below ORDER2 must have settled
LIMIT_READS = {
    "4.9": (lambda: limit_4_9(3, ORDER2), "q_binomial", lambda top, bottom: top,
            [3 + ORDER2 // 2 + 1, 3 + ORDER2 // 2 + 2]),
    "4.10": (lambda: limit_4_10(-2, ORDER2), "q_binomial", lambda top, bottom: top // 2,
             [2 + ORDER2 // 2 + 1, 2 + ORDER2 // 2 + 2]),
    "4.17": (lambda: limit_4_17(2, 1, 0, ORDER2), "u_tilde", lambda l, m, a, b: l,
             [ORDER2 + 2, ORDER2 + 3]),
    "4.18": (lambda: limit_4_18(3, 1, 1, ORDER2), "t_warnaar", lambda l, m, a, b: m,
             [ORDER2 // 2 + 3 + 2, ORDER2 // 2 + 3 + 3]),
}


@pytest.mark.parametrize("check_id", LIMIT_READS)
def test_limit_fails_when_a_read_value_is_changed(monkeypatch, check_id):
    limit, name, index_of, indices = LIMIT_READS[check_id]
    build = getattr(trinomials, name)
    for changed in indices:
        seen = []

        def perturbed(*args, order2):
            value = build(*args, order2=order2)
            seen.append(index_of(*args))
            if seen[-1] != changed:
                return value
            # one coefficient, the last one kept below order2
            return value + monomial(1, order2 - 1, order2=order2)

        monkeypatch.setattr(trinomials, name, perturbed)
        assert not limit()
        assert seen == indices
    monkeypatch.undo()
    assert limit()
