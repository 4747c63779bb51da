"""Ring laws, truncation coherence, and frozen expansions for the series kernel."""

import pytest
from hypothesis import given, settings, strategies as st

import schoolbook

from ggq.series import (
    FactorSpec,
    TruncSeries,
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
    truncate,
    zero,
    zw_slice,
)

ORD = 24

_keys = st.tuples(st.integers(0, ORD - 1), st.integers(0, 3), st.integers(0, 3))
_coeffs = st.integers(-9, 9).filter(bool)
small_series = st.dictionaries(_keys, _coeffs, max_size=8).map(
    lambda t: TruncSeries(t, ORD)
)

# two or more terms, no two with the same marker degrees: every slice holds
# one term, so no gap between exponents sets the packing step
one_term_slices = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.tuples(st.integers(0, ORD - 1), st.integers(-99, 99).filter(bool)),
    min_size=2, max_size=8,
).map(lambda t: TruncSeries({(e2, dz, dw): c for (dz, dw), (e2, c) in t.items()}, ORD))

# univariate operands of 21-45 terms below order2 60
_uni_keys = st.tuples(st.integers(0, 59), st.just(0), st.just(0))
fat_univariate = st.dictionaries(_uni_keys, st.integers(-99, 99).filter(bool), min_size=21, max_size=45).map(
    lambda t: TruncSeries(t, 60)
)


@settings(max_examples=60, deadline=None)
@given(small_series, small_series, small_series)
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero(ORD) == a
    assert a * one(ORD) == a
    assert a - a == zero(ORD)


@settings(max_examples=60, deadline=None)
@given(small_series, small_series)
def test_truncation_is_a_ring_morphism(a, b):
    half = ORD // 2
    assert truncate(a * b, half) == truncate(a, half) * truncate(b, half)
    assert truncate(a + b, half) == truncate(a, half) + truncate(b, half)


def _naive_mul(a, b, order2):
    out = {}
    for (ea, za, wa), ca in a.terms.items():
        for (eb, zb, wb), cb in b.terms.items():
            if ea + eb < order2:
                k = (ea + eb, za + zb, wa + wb)
                out[k] = out.get(k, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


@settings(max_examples=40, deadline=None)
@given(fat_univariate, fat_univariate)
def test_packed_multiplication_matches_schoolbook(a, b):
    assert (a * b).terms == _naive_mul(a, b, 60)


@settings(max_examples=40, deadline=None)
@given(st.one_of(small_series, one_term_slices), st.one_of(small_series, one_term_slices))
def test_sparse_multiplication_matches_schoolbook(a, b):
    assert (a * b).terms == _naive_mul(a, b, ORD)


def _univariate(coeffs, min_size, max_size, order2):
    keys = st.tuples(st.integers(0, order2 - 1), st.just(0), st.just(0))
    return st.dictionaries(keys, coeffs, min_size=min_size, max_size=max_size).map(
        lambda t: TruncSeries(t, order2)
    )


def _operands(marked, min_size, max_size, coeffs, order2s):
    marks = st.integers(0, 3) if marked else st.just(0)
    return order2s.flatmap(
        lambda order2: st.dictionaries(
            st.tuples(st.integers(0, order2 - 1), marks, marks),
            coeffs,
            min_size=min_size,
            max_size=max_size,
        ).map(lambda t: TruncSeries(t, order2))
    )


_mixed = st.one_of(st.integers(-99, 99), st.integers(-(2**100), 2**100)).filter(bool)
_wide = st.one_of(st.integers(2**64, 2**100), st.integers(-(2**100), -(2**64)))
_negative = st.one_of(st.integers(-99, -1), st.integers(-(2**70), -1))


def _long(coeffs):
    # 201-300 terms on every first or second exponent, below order2 600
    return st.builds(
        lambda cs, stride: TruncSeries({(i * stride, 0, 0): c for i, c in enumerate(cs)}, 600),
        st.lists(coeffs, min_size=201, max_size=300),
        st.integers(1, 2),
    )


@settings(max_examples=30, deadline=None)
@given(_univariate(_mixed, 2, 2, 600), _long(_mixed))
def test_two_term_times_long_multiplication_matches_schoolbook(short, long):
    # one two-term operand, the shape of a Pochhammer factor, against
    # 201-300 terms: one slice pair, one packed product
    prod = short * long
    assert prod.terms == _naive_mul(short, long, 600)
    assert (long * short).terms == prod.terms


def _long_marked():
    # one slice z^dz w^dw of 201-450 consecutive exponents below order2 600
    return st.builds(
        lambda cs, low, dz, dw: TruncSeries(
            {(low + i, dz, dw): c for i, c in enumerate(cs)}, 600
        ),
        st.lists(_mixed, min_size=201, max_size=450),
        st.integers(0, 140),
        st.integers(0, 2),
        st.integers(0, 2),
    )


@st.composite
def _sliced(draw, min_size, max_size, coeffs):
    """Marked series with z and w degrees 0 or 1, whose slices step by a
    common stride and start at offsets of their own."""
    order2 = draw(st.integers(200, 400))
    stride = draw(st.sampled_from([1, 2, 3, 4, 8]))
    shift = draw(st.integers(0, 7))
    cells = draw(st.dictionaries(
        st.tuples(st.integers(0, (order2 - 1) // stride - 1), st.integers(0, 1), st.integers(0, 1)),
        coeffs, min_size=min_size, max_size=max_size,
    ))
    return TruncSeries(
        {(stride * j + shift * (1 + dz + 2 * dw) % stride, dz, dw): c
         for (j, dz, dw), c in cells.items()},
        order2,
    )


@settings(max_examples=40, deadline=None)
@given(
    _sliced(60, 120, _mixed),
    st.one_of(
        _sliced(60, 120, _mixed),
        _operands(True, 1, 2, _mixed, st.integers(200, 400)),
        _operands(False, 1, 2, _mixed, st.integers(200, 400)),
        _univariate(_mixed, 21, 45, 400),
    ),
)
def test_sliced_multiplication_matches_schoolbook(a, b):
    # slices of many terms and of few, at offsets that differ modulo their
    # common stride, and 1- and 2-term partners
    want = _naive_mul(a, b, min(a.order2, b.order2))
    assert (a * b).terms == want
    assert (b * a).terms == want


@settings(max_examples=30, deadline=None)
@given(_operands(True, 1, 2, _mixed, st.just(600)), _long_marked())
def test_marked_short_times_long_matches_schoolbook(short, long):
    # a one-term operand is a key shift; a two-term one is one or two
    # slices, each multiplied by the long slice of 201-450 terms
    want = _naive_mul(short, long, 600)
    assert (short * long).terms == want
    assert (long * short).terms == want


@settings(max_examples=30, deadline=None)
@given(_univariate(_wide, 21, 45, 60), _univariate(_mixed, 21, 45, 60))
def test_wide_packed_multiplication_matches_schoolbook(a, b):
    # coefficients past 2^64 need slots wider than eight bytes
    assert (a * b).terms == _naive_mul(a, b, 60)
    assert (a * a).terms == _naive_mul(a, a, 60)


@settings(max_examples=30, deadline=None)
@given(
    _univariate(_negative, 21, 45, 60),
    _univariate(_negative, 21, 45, 60),
    _univariate(_negative, 2, 2, 600),
    _long(_negative),
)
def test_all_negative_multiplication_matches_schoolbook(a, b, short, long):
    assert (a * b).terms == _naive_mul(a, b, 60)
    assert (short * long).terms == _naive_mul(short, long, 600)


@settings(max_examples=40, deadline=None)
@given(_univariate(_mixed, 5, 20, 200), _univariate(_mixed, 81, 120, 200), st.integers(-2, 60))
def test_multiplication_matches_schoolbook_when_straddling_the_bound(a, b, slack):
    # slack <= 0 keeps every term, slack 1 drops exactly the top one
    order2 = max(a.max_e2() + b.max_e2() + 1 - slack, 200)
    a, b = TruncSeries(a.terms, order2), TruncSeries(b.terms, order2)
    assert (a * b).terms == _naive_mul(a, b, order2)


def test_validation():
    with pytest.raises(ValueError):
        TruncSeries({(0, 0, 0): 0}, 4)
    with pytest.raises(ValueError):
        TruncSeries({(4, 0, 0): 1}, 4)
    with pytest.raises(ValueError):
        TruncSeries({(-2, 0, 0): 1}, 4)
    with pytest.raises(ValueError):
        monomial(1, -2, order2=4)


def test_truncate():
    s = one(30) + monomial(1, 4, order2=30) + monomial(2, 12, order2=30)
    assert truncate(s, 6) == one(6) + monomial(1, 4, order2=6)
    assert truncate(s, 13).terms == s.terms and truncate(s, 13).order2 == 13
    with pytest.raises(ValueError):
        truncate(s, 31)  # a larger bound would claim terms never computed
    # a term at or past the bound is not representable: the zero series
    assert monomial(1, 5, order2=5) == zero(5)


def test_squaring_drops_past_the_bound():
    s = one(12) + monomial(1, 6, order2=12)
    sq = s * s
    assert sq.terms == {(0, 0, 0): 1, (6, 0, 0): 2}  # q^6 fell off
    assert sq.order2 == 12


# -- frozen expansions --------------------------------------------------

Q = FactorSpec(1, 2, 2)


def test_euler_products():
    assert q_coefficients(poch_infinite(Q, order2=14), 6) == [1, -1, -1, 0, 0, 1, 0]
    assert q_coefficients(inv_poch_infinite(Q, order2=14), 6) == [1, 1, 2, 3, 5, 7, 11]
    assert poch_infinite(Q, order2=3).terms == {(0, 0, 0): 1, (2, 0, 0): -1}
    assert poch_infinite(FactorSpec(-1, 8, 8), order2=12).terms == {
        (0, 0, 0): 1,
        (8, 0, 0): 1,
    }


def test_infinite_product_rejects_constant_factor():
    with pytest.raises(ValueError):
        poch_infinite(FactorSpec(1, 0, 2), order2=10)


def test_poch_finite_recurrence():
    for f in (Q, FactorSpec(-1, 1, 2), FactorSpec(-1, 2, 4, 1), FactorSpec(1, 4, 4)):
        for n in range(10):
            grown = poch_finite(f, n, order2=40) * (
                one(40) - monomial(f.sign, f.e2 + n * f.step2, f.dz, f.dw, order2=40)
            )
            assert grown == poch_finite(f, n + 1, order2=40)


# families of every sign, first exponent and step, unmarked or marked by
# z, w or zw
_families = st.builds(
    lambda sign, e2, step2, mark: FactorSpec(sign, e2, step2, *mark),
    st.sampled_from([1, -1]),
    st.integers(0, 9),
    st.integers(1, 6),
    st.sampled_from([(0, 0), (1, 0), (0, 1), (1, 1)]),
)
_univariate_families = _families.filter(lambda f: f.e2 > 0 and not (f.dz or f.dw))


def _outcome(build):
    # a marked product whose marker degree outgrows order2 is rejected
    try:
        return build()
    except ValueError:
        return ValueError


@settings(max_examples=150, deadline=None)
@given(_families, st.integers(0, 90), st.integers(5, 80))
def test_dense_products_match_the_factor_by_factor_product(f, n, order2):
    # n runs past the last factor below order2 (at most 80 of them)
    got = _outcome(lambda: poch_finite(f, n, order2=order2))
    assert got == _outcome(lambda: schoolbook.poch(f, n, order2))
    if f.e2 == 0 and not (f.dz or f.dw):
        with pytest.raises(ValueError):
            poch_infinite(f, order2=order2)
    else:
        got = _outcome(lambda: poch_infinite(f, order2=order2))
        assert got == _outcome(lambda: schoolbook.poch(f, None, order2))


@settings(max_examples=100, deadline=None)
@given(_univariate_families, st.integers(0, 40), st.integers(5, 80))
def test_inverse_pochhammer_consistency(f, n, order2):
    assert poch_finite(f, n, order2=order2) * inv_poch_finite(f, n, order2=order2) == one(order2)
    assert poch_infinite(f, order2=order2) * inv_poch_infinite(f, order2=order2) == one(order2)


@pytest.mark.parametrize("f", [FactorSpec(1, 2, 2, 1), FactorSpec(-1, 4, 4, 0, 1),
                               FactorSpec(1, 0, 2), FactorSpec(-1, 0, 3, 1, 1)])
def test_inverse_rejects_marked_and_zero_exponent_families(f):
    # no catalog id inverts such a family: a marked inverse, or one whose
    # first factor is (1 -/+ z^dz w^dw) or a constant
    with pytest.raises(ValueError):
        inv_poch_finite(f, 2, order2=20)
    with pytest.raises(ValueError):
        inv_poch_infinite(f, order2=20)


def test_marker_tools():
    s = monomial(3, 2, 1, 0, order2=9) + monomial(4, 4, 0, 2, order2=9) + one(9)
    assert collapse_zw(s).terms == {(0, 0, 0): 1, (2, 0, 0): 3, (4, 0, 0): 4}
    assert zw_slice(s, dw=2).terms == {(4, 0, 2): 4}
    assert zw_slice(s, dw=0).terms == {(0, 0, 0): 1, (2, 1, 0): 3}


def test_series_diff_reports_smallest_key():
    a = one(10) + monomial(2, 4, order2=10)
    b = one(10) + monomial(3, 4, order2=10) + monomial(1, 6, order2=10)
    assert series_diff(a, b) == ((4, 0, 0), 3, 2)
    assert series_diff(a, a) is None


def test_theta_expansion():
    got = q_coefficients(jacobi_sides((1, 0), order2=21)[0], 10)
    assert got == [1, 2, 0, 0, 2, 0, 0, 0, 0, 2, 0]


# z and 1/z give the same sides, so a negative e2 is as good as its
# absolute value, z = +-q^(-1) (e2 = -2) included
@pytest.mark.parametrize("zspec", [(s, e2) for s in (1, -1) for e2 in range(-8, 9)])
def test_triple_product(zspec):
    assert series_diff(*jacobi_sides(zspec, order2=121)) is None


# a sign other than +-1, and z = 0, where 1/z is undefined
@pytest.mark.parametrize("zspec", [(2, 0), (0, 2)])
def test_triple_product_rejects_out_of_domain_z(zspec):
    with pytest.raises(ValueError):
        jacobi_sides(zspec, order2=121)


def test_inexact_builders_pass_the_flag_at_construction():
    # terms pinned from the builders of truncated infinite expansions
    half_odd = poch_infinite(FactorSpec(-1, 1, 2), order2=30)
    assert [half_odd.terms.get((e2, 0, 0), 0) for e2 in range(30)] == [
        1, 1, 0, 1, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3,
        4, 5, 5, 5, 6, 7, 8, 8, 9, 11, 12, 12, 14, 16, 17,
    ]
    prod = poch_product([Q, FactorSpec(1, 4, 4, 1)], order2=16)
    assert prod.terms == {
        (0, 0, 0): 1, (2, 0, 0): -1, (4, 0, 0): -1, (4, 1, 0): -1, (6, 1, 0): 1,
        (10, 0, 0): 1, (10, 1, 0): 1, (12, 2, 0): 1, (14, 0, 0): 1, (14, 2, 0): -1,
    }
    for side in jacobi_sides((1, 6), order2=30):
        assert side.order2 == 30
        assert side.terms == {(0, 0, 0): 2, (4, 0, 0): 2, (12, 0, 0): 2, (24, 0, 0): 2}
    # the cached inverse is one object however often it is handed out
    assert inv_poch_infinite(Q, order2=30) is inv_poch_infinite(Q, order2=30)


def test_product_shorthand():
    lhs = poch_product([Q, FactorSpec(1, 4, 4)], order2=30)
    rhs = poch_infinite(Q, order2=30) * poch_infinite(FactorSpec(1, 4, 4), order2=30)
    assert lhs == rhs


# short operands of at most 8 terms and long ones of 21 or more,
# univariate, marked and in strided slices; marked operands also meet 1-
# and 2-term partners
_kernel_operands = st.one_of(
    _operands(False, 0, 8, _coeffs, st.integers(13, 40)),
    _operands(True, 0, 8, _coeffs, st.integers(13, 40)),
    _operands(True, 1, 2, _coeffs, st.integers(13, 40)),
    _operands(False, 1, 2, _mixed, st.integers(60, 120)),
    _operands(False, 21, 45, _mixed, st.integers(60, 120)),
    _operands(True, 21, 45, _mixed, st.integers(60, 120)),
    _sliced(60, 120, _mixed),
)


@settings(max_examples=80, deadline=None)
@given(_kernel_operands, _kernel_operands, st.integers(-5, 5), st.data())
def test_kernel_outputs_pass_validation(a, b, c, data):
    # the ring operations skip the term-by-term check; every output must
    # still satisfy it, and none may claim to be univariate with a marker.
    # Each must also be stored as the constructor stores its terms: series
    # compare by their stored slices, so a zero end or an empty slice would
    # make equal series differ.  Cuts stay at or above 6, the largest
    # marker degree drawn: below it truncate rejects a marked operand, as it
    # always has.
    cut = data.draw(st.integers(6, a.order2))
    outs = [a * b, b * a, a + b, a - b, b - a, a - a, -a, a.scale(c), a * c, truncate(a, cut),
            collapse_zw(a), zw_slice(a, data.draw(st.integers(0, 3)))]
    # and so do the Pochhammer builders
    f = data.draw(_families)
    n = data.draw(st.integers(0, 30))
    for build in (lambda: poch_finite(f, n, order2=a.order2),
                  lambda: poch_infinite(f, order2=a.order2)):
        out = _outcome(build)
        if out is not ValueError:
            outs.append(out)
    if f.e2 and not (f.dz or f.dw):
        outs += [inv_poch_finite(f, n, order2=a.order2), inv_poch_infinite(f, order2=a.order2)]
    for out in outs:
        assert TruncSeries(dict(out.terms), out.order2) == out
        assert eval(repr(out), {"TruncSeries": TruncSeries}) == out
        if out.is_univariate:
            assert not any(dz or dw for _, dz, dw in out.terms)


Q2 = FactorSpec(1, 4, 4)


def test_cached_series_cannot_change():
    s = inv_poch_finite(Q2, 2, order2=21)
    with pytest.raises(TypeError):
        s.terms[(0, 0, 0)] += 1
    with pytest.raises(AttributeError):
        s.order2 = 5
    # no operation writes a list its operands hold: neither the series nor
    # any result changes while the others are computed
    term = monomial(-3, 2, 1, 0, order2=21)
    ops = (lambda t: t + t, lambda t: t - one(21), lambda t: t.scale(3), lambda t: truncate(t, 9),
           lambda t: zw_slice(t, 0), collapse_zw, lambda t: t * term, lambda t: term * t,
           lambda t: t * t)
    results = [op(s) for op in ops]
    inv_poch_finite.cache_clear()
    rebuilt = inv_poch_finite(Q2, 2, order2=21)
    assert rebuilt is not s and rebuilt == s
    assert [op(rebuilt) for op in ops] == results


def _crowded(max_size):
    # marker degrees up to the bound itself, so a product can pass it
    return st.integers(3, 8).flatmap(
        lambda order2: st.dictionaries(
            st.tuples(st.integers(0, order2 - 1), st.integers(0, order2), st.integers(0, order2)),
            st.integers(-2, 2).filter(bool),
            max_size=max_size,
        ).map(lambda t: TruncSeries(
            {k: c for k, c in t.items() if k[1] + k[2] <= order2}, order2
        ))
    )


@settings(max_examples=300, deadline=None)
@given(st.one_of(_crowded(2), _crowded(6)), st.one_of(_crowded(2), _crowded(6)))
def test_products_past_the_marker_bound_raise_as_the_constructor_does(a, b):
    # the kernel raises exactly when the schoolbook product, rebuilt through
    # the validating constructor, does: a nonzero term with dz + dw > order2
    order2 = min(a.order2, b.order2)
    want = _outcome(lambda: TruncSeries(_naive_mul(a, b, order2), order2))
    assert _outcome(lambda: a * b) == want
    assert _outcome(lambda: b * a) == want


def test_products_that_cancel_past_the_marker_bound_pass():
    # two slice pairs land at z^4 w (degree 5 > order2 4) and cancel there;
    # what is left stays within the bound, so the product is valid
    a = TruncSeries({(0, 2, 1): 1, (1, 4, 0): -1, (3, 0, 2): 1}, 4)
    b = TruncSeries({(2, 0, 1): -1, (3, 2, 0): -1}, 4)
    assert (a * b).terms == {(2, 2, 2): -1} == _naive_mul(a, b, 4)
    with pytest.raises(ValueError):
        a * TruncSeries({(2, 0, 1): -1}, 4)
