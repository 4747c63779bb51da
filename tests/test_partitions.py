"""Enumeration, chain statistics, weighted families, counting functions."""

import brute_force
import pytest
from hypothesis import given, settings, strategies as st

from ggq.bijection import identify
from ggq.partitions import (
    _chain_marks,
    MOD8_CONFIG,
    P_CONFIG,
    ResidueFamilyConfig,
    VARIANTS,
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
from ggq.series import FactorSpec, inv_poch_infinite, one, poch_product, q_coefficients


def test_partition_basics():
    # a partition is the ascending tuple of its parts, () the one of 0
    assert enumerate_partitions(0) == [()]
    assert (2, 5, 8) in enumerate_partitions(15)
    # descending parts and a zero part are refused where a partition is read
    for bad in [(3, 1), (0,)]:
        assert not brute_force.is_gollnitz_gordon(bad)
        with pytest.raises(ValueError):
            identify(bad)


def test_enumeration_is_exhaustive_and_ordered():
    # unrestricted enumeration must hit the classical partition numbers
    classical = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert [len(enumerate_partitions(n)) for n in range(11)] == classical
    got = enumerate_partitions(5)
    assert got == sorted(got)
    assert all(sum(p) == 5 for p in got)
    assert enumerate_partitions(12) == brute_force.enumerate_partitions(12)


def test_extend_sees_the_prefix():
    # the brute-force oracle's filter sees the whole prefix
    seen = []

    def ext(prefix, p):
        seen.append((prefix, p))
        return True

    brute_force.enumerate_partitions(3, extend=ext)
    assert ((), 3) in seen and ((1,), 2) in seen


def test_gollnitz_gordon_predicate():
    assert brute_force.is_gollnitz_gordon((1, 5, 7))
    assert not brute_force.is_gollnitz_gordon((1, 2))
    assert not brute_force.is_gollnitz_gordon((2, 4))  # even needs gap > 2
    assert brute_force.is_gollnitz_gordon((3, 5))  # odd may sit at gap 2
    assert brute_force.is_gollnitz_gordon(())


def test_membership_weight_is_power_of_two():
    # each member passes the parity test, and its marks, one factor 2
    # each, give the weight stated from the definition
    for variant in VARIANTS:
        for n in range(30):
            for pi in enumerate_members(variant, n):
                marks = _chain_marks(variant, pi)
                assert marks is not None
                assert 1 << len(marks) == brute_force.chain_weight(variant, pi)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_chain_marks_match_the_definition(variant):
    # every partition of n <= 22, and each again behind a zero part: the
    # one-pass reading refuses exactly the non-Gollnitz-Gordon ones, gives
    # None exactly when an even part b has b - 2t(b) off even_offset
    # (mod 4), and otherwise marks the chain starts of the definition
    v = VARIANTS[variant]
    for n in range(23):
        for parts in enumerate_partitions(n):
            for pi in (parts, (0, *parts)):
                if not brute_force.is_gollnitz_gordon(pi):
                    with pytest.raises(ValueError):
                        _chain_marks(variant, pi)
                    continue
                parity = all(
                    b % 2 or (b - 2 * sum(x % 2 for x in pi[:i])) % 4 == v.even_offset
                    for i, b in enumerate(pi)
                )
                marks = _chain_marks(variant, pi)
                assert marks == (brute_force.chain_marks(variant, pi) if parity else None)


def test_membership_rejects_non_gg_input():
    with pytest.raises(ValueError):
        _chain_marks("S", (1, 2))
    with pytest.raises(ValueError):
        identify((1, 2))


def test_weight_counts_qualifying_chains():
    # (5,) is a single odd chain with least part 5 == 2*0+1 (mod 4): one mark
    assert identify((5,)) == (5,)
    # (1,) fails the chain_min bound: no mark
    assert identify((1,)) == ()
    # an even part matching the parity rule is never marked
    assert identify((4,)) == ()


def test_variant_table():
    assert set(VARIANTS) == {"S", "Sstar"}
    assert VARIANTS["S"].even_offset == 0 and VARIANTS["Sstar"].even_offset == 2


def test_weighted_counts_frozen():
    assert [weighted_count("S", n) for n in range(8)] == [1, 1, 0, 1, 2, 2, 1, 2]
    assert [weighted_count("Sstar", n) for n in range(8)] == [1, 1, 1, 2, 1, 2, 3, 3]


def test_count_q_frozen():
    assert [count_q(1, n) for n in range(5)] == [1, 0, 1, 1, 1]
    assert [count_q(3, n) for n in range(7)] == [1, 1, 1, 1, 1, 2, 3]
    assert [count_q(2, n) for n in range(7)] == [1, 1, 0, 1, 2, 2, 1]
    assert [count_q(0, n) for n in range(7)] == [1, 1, 1, 2, 1, 2, 3]
    with pytest.raises(ValueError):
        count_q(4, 1)


def test_count_q_against_product():
    # distinct parts avoiding one residue class mod 4: a three-factor product
    for i in range(4):
        specs = [
            FactorSpec(-1, 2 * r, 8) for r in (1, 2, 3, 4) if r % 4 != i % 4
        ]
        coeffs = q_coefficients(poch_product(specs, order2=81), 40)
        assert coeffs == [count_q(i, n) for n in range(41)], f"i={i}"


def test_gg_counts():
    assert [count_gg(n) for n in range(8)] == [1, 1, 1, 1, 2, 2, 2, 3]
    assert [count_gg(n, 3) for n in range(8)] == [1, 0, 0, 1, 1, 1, 1, 1]


def test_thm1_and_thm2_sides_frozen():
    assert count_thm1_side(1, 4) == 1
    assert count_thm2_sides(1, 0) == (1, 1)
    assert count_thm2_sides(3, 5) == (1, 1)
    with pytest.raises(ValueError):
        count_thm1_side(2, 4)


def test_residue_family_machinery():
    cfg = ResidueFamilyConfig(4, frozenset({1, 2}))
    assert cfg.permits(5) and not cfg.permits(4)
    assert count_residue_family(cfg, 3) == 2  # 1+1+1 and 1+2; 3 itself is excluded
    with pytest.raises(ValueError):
        ResidueFamilyConfig(4, frozenset({7}))
    with pytest.raises(ValueError):
        ResidueFamilyConfig(0, frozenset())


def test_mod8_families_match_products():
    # 1/((q^a;q^8)(q^4;q^8)(q^b;q^8)) expands to the residue counts
    for i, (a, b) in ((1, (1, 7)), (3, (3, 5))):
        prod = one(81)
        for f in (FactorSpec(1, 2 * a, 16), FactorSpec(1, 8, 16), FactorSpec(1, 2 * b, 16)):
            prod = prod * inv_poch_infinite(f, order2=81)
        want = [count_residue_family(MOD8_CONFIG[i], n) for n in range(41)]
        assert q_coefficients(prod, 40) == want


def test_p_and_g_frozen():
    frozen = [1, 0, 0, 1, 1, 0, 0, 1, 2, 1, 0, 2]
    assert [count_p(n) for n in range(12)] == frozen
    assert [count_g(n) for n in range(12)] == frozen


def test_p_config_distinctness_bites():
    # 3 may not repeat (3 mod 6 in the distinct set) but 4 may
    assert count_residue_family(P_CONFIG, 6) == 0  # 3+3 excluded
    assert count_residue_family(P_CONFIG, 8) == 2  # 4+4 and 8


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 8])
def test_interp_config_is_well_formed(k):
    cfg = interp_config(k)
    assert all(r % 4 != 2 for r in cfg.allowed)
    assert 0 not in cfg.allowed
    if k % 2 == 1:
        assert cfg.modulus == 4 * k + 8
        assert all(r % (2 * k + 4) not in {k, k + 4} for r in cfg.allowed)
    else:
        assert cfg.modulus == 2 * k + 4
    if k % 4 == 0:
        assert not cfg.distinct_residues


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 26))
def test_q2_equals_weighted_s(n):
    assert weighted_count("S", n) == count_q(2, n)
