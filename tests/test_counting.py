"""State-machine counters and listers against the brute-force oracle."""

import random
from functools import partial

import brute_force as bf
import pytest
from hypothesis import given, settings, strategies as st

from ggq.bijection import _MULT4, _PI2, _listed, _odds
from ggq.partitions import (
    MOD8_CONFIG,
    P_CONFIG,
    Family,
    ResidueFamilyConfig,
    _MEMBERS,
    _count,
    _gap_family,
    count_g,
    count_gg,
    count_p,
    count_q,
    count_residue_family,
    count_thm1_side,
    count_thm2_sides,
    enumerate_members,
    enumerate_partitions,
    interp_config,
    weighted_count,
)

N = 40


def listed(extend):
    return lambda n: bf.count(n, extend)


def thm2_listed(i):
    return lambda n: (bf.count(n, bf.residue_side(MOD8_CONFIG[i])), bf.count(n, bf.gap_side(i, 0)))


# family name -> (state counter, brute-force count), both taking n
FAMILIES = {
    **{f"Q{i}": (partial(count_q, i), listed(bf.q_side(i))) for i in range(4)},
    "thm1 i=1": (partial(count_thm1_side, 1), listed(bf.gap_side(2, 1))),
    "thm1 i=3": (partial(count_thm1_side, 3), listed(bf.gap_side(1, 1))),
    **{f"thm2 i={i}": (partial(count_thm2_sides, i), thm2_listed(i)) for i in (1, 3)},
    **{
        f"GG min_part={m}": (lambda n, m=m: count_gg(n, m), listed(bf.gap_side(m, 0)))
        for m in (1, 2, 3)
    },
    "S": (partial(weighted_count, "S"), partial(bf.weighted, "S")),
    "Sstar": (partial(weighted_count, "Sstar"), partial(bf.weighted, "Sstar")),
    "G": (count_g, listed(bf.g_side)),
    "P": (count_p, listed(bf.residue_side(P_CONFIG))),
    **{
        f"interp k={k}": (
            partial(count_residue_family, interp_config(k)),
            listed(bf.residue_side(interp_config(k))),
        )
        for k in range(1, 7)
    },
}


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_counter_matches_brute_force(name):
    counter, oracle = FAMILIES[name]
    assert [counter(n) for n in range(N + 1)] == [oracle(n) for n in range(N + 1)]


def test_listers_match_brute_force():
    for n in range(26):
        for variant in ("S", "Sstar"):
            want = bf.enumerate_partitions(n, bf.member_side(variant))
            assert enumerate_members(variant, n) == want
        assert enumerate_partitions(n, _MULT4) == bf.enumerate_partitions(
            n, bf.distinct_where(lambda p: p % 4 == 0)
        )
        for lo in (1, 4):
            assert list(_listed(_odds(lo), n)) == bf.enumerate_partitions(
                n, bf.distinct_where(lambda p: p % 2 == 1 and p >= lo)
            )


def test_pi2_lister_matches_the_six_apart_rule():
    # _pi2_step drops the paper's rule that odd parts are 6 apart, which
    # bf.pi2_side keeps; the parity rule already implies it
    for n in range(61):
        assert enumerate_partitions(n, _PI2) == bf.enumerate_partitions(n, bf.pi2_side)


WEIGHED = {
    "pi2": _PI2,
    "mult4": _MULT4,
    "odds": _odds(1),
    "odds-3-below-12": _odds(3, 12),
    "members-S": _MEMBERS["S"],
    "members-Sstar": _MEMBERS["Sstar"],
    "gollnitz-gordon": _gap_family(1, 0),
    "thm1-side-1": _gap_family(2, 1),
}


@pytest.mark.parametrize("name", sorted(WEIGHED))
def test_weigh_admits_exactly_the_listed_members(name):
    # the validators rest on weigh; it must accept what the family lists,
    # refuse every other partition, and weigh the members as the counter does
    family = WEIGHED[name]
    for n in range(21):
        members = set(enumerate_partitions(n, family))
        weights = {pi: family.weigh(pi) for pi in enumerate_partitions(n)}
        assert {pi for pi, w in weights.items() if w is not None} == members
        assert sum(w for w in weights.values() if w is not None) == _count(family, n)


# each WEIGHED family restated from its definition
WEIGHED_ORACLES = {
    "pi2": listed(bf.pi2_side),
    "mult4": listed(bf.distinct_where(lambda p: p % 4 == 0)),
    "odds": listed(bf.distinct_where(lambda p: p % 2 == 1)),
    "odds-3-below-12": listed(bf.distinct_where(lambda p: p % 2 == 1 and 3 <= p < 12)),
    "members-S": partial(bf.weighted, "S"),
    "members-Sstar": partial(bf.weighted, "Sstar"),
    "gollnitz-gordon": listed(bf.gap_side(1, 0)),
    "thm1-side-1": listed(bf.gap_side(2, 1)),
}


@pytest.mark.parametrize("name", sorted(WEIGHED))
def test_counts_do_not_depend_on_the_order_asked(name):
    # the counter computes 0..N together and doubles N when asked past it:
    # ascending calls cross the growth points 1, 2, 4, ..., 128, descending
    # ones compute 0..130 at once, shuffled ones grow at random points
    family = WEIGHED[name]
    ns = list(range(131))
    shuffled = random.Random(name).sample(ns, len(ns))
    got = []
    for order in (ns, ns[::-1], shuffled):
        fresh = Family(family.step, family.bits)
        got.append({n: _count(fresh, n) for n in order})
    assert got[0] == got[1] == got[2]
    assert [got[0][n] for n in range(26)] == [WEIGHED_ORACLES[name](n) for n in range(26)]


def test_repeated_parts_carry_their_weight():
    # any parts, each weighing 2: prod 1/(1 - 2q^k), whose coefficients
    # pass p(n) by far, so the slot needs its heaviest^top bits
    top = 150
    want = [1] + [0] * top
    for k in range(1, top + 1):
        for n in range(k, top + 1):
            want[n] += 2 * want[n - k]
    doubled = Family(lambda last, p: (p, 2) if p >= max(last, 1) else None)
    assert [_count(doubled, n) for n in range(top + 1)] == want


def test_distinct_part_counts_fill_their_slots():
    # the paper's theorems far past the catalog's sizes: distinct parts, so
    # at most isqrt(2 top) factors 2, and counts near p(n)'s bound
    assert [weighted_count("S", n) for n in range(251)] == [count_q(2, n) for n in range(251)]
    assert [weighted_count("Sstar", n) for n in range(251)] == [count_q(0, n) for n in range(251)]


@pytest.mark.parametrize(
    "family",
    [
        # a weight of 0
        Family(lambda last, p: (p, 0 if p == 3 else 1) if p > last else None),
        # a repeated part flips the parity of the number of parts
        Family(lambda s, p: (p << 1 | (s & 1 ^ 1), 1) if p >= max(s >> 1, 1) else None, bits=1),
    ],
    ids=["zero-weight", "repeat-changes-state"],
)
def test_counter_refuses_what_it_cannot_count(family):
    with pytest.raises(ValueError):
        _count(family, 10)


@st.composite
def residue_configs(draw):
    modulus = draw(st.integers(1, 12))
    allowed = draw(st.frozensets(st.integers(0, modulus - 1), max_size=modulus))
    sub = draw(st.one_of(st.none(), st.integers(1, 12)))
    distinct = draw(st.frozensets(st.integers(0, (sub or modulus) - 1), max_size=4))
    return ResidueFamilyConfig(modulus, allowed, distinct, sub)


@settings(max_examples=40, deadline=None)
@given(residue_configs(), st.integers(0, 24))
def test_random_residue_families_match_brute_force(cfg, n):
    assert count_residue_family(cfg, n) == bf.count(n, bf.residue_side(cfg))


def test_deep_count_needs_no_recursion():
    # only the part 1 is allowed: one member, 1500 parts deep
    assert count_residue_family(ResidueFamilyConfig(2000, frozenset({1})), 1500) == 1


@pytest.mark.parametrize(
    "counter",
    [
        lambda n: count_q(2, n),
        lambda n: count_thm1_side(1, n),
        lambda n: count_thm2_sides(3, n),
        count_gg,
        count_g,
        count_p,
        lambda n: count_residue_family(MOD8_CONFIG[1], n),
        lambda n: weighted_count("S", n),
        lambda n: enumerate_members("Sstar", n),
        enumerate_partitions,
    ],
)
def test_negative_n_is_rejected(counter):
    with pytest.raises(ValueError):
        counter(-1)
