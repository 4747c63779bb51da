"""Round trips and worked examples for the staged partition bijection."""

import brute_force
import pytest

from ggq import bijection
from ggq.bijection import (
    _PI2,
    choices,
    euler_subtract,
    ferrers_graph,
    ferrers_merge,
    ferrers_split,
    identify,
    redistribute,
    redistribute_inverse,
    split_pairs,
    trace_pipeline,
    triple_inverse,
    triple_map,
    triple_partitions,
)
from ggq.partitions import (
    count_q,
    enumerate_members,
    enumerate_partitions,
    weighted_count,
)

SIGMA = 28  # exhaustive round-trip bound for this module's own suite


def test_choices_cover_every_bit_tuple_in_order():
    f, t = False, True
    assert list(choices(2)) == [(f, f), (t, f), (f, t), (t, t)]
    assert list(choices(0)) == [()]


def test_staircase_pair():
    assert euler_subtract((3, 5, 8)) == (3, 3, 4)
    assert brute_force.euler_add((3, 3, 4)) == (3, 5, 8)
    with pytest.raises(ValueError):
        euler_subtract((3, 4))
    for n in range(20):
        for pi in enumerate_members("S", n):
            assert brute_force.euler_add(euler_subtract(pi)) == pi


def test_identify_worked_example():
    assert identify((5,)) == (5,)
    # 1 is below chain_min, and 5 - 2t(5) == 3 (mod 4): only 9 is marked
    assert identify((1, 5, 9)) == (9,)
    # the chain 5, 7 is marked at its least part, and 13 starts a chain
    assert identify((5, 7, 13)) == (5, 13)


def test_broken_invariant_raises(monkeypatch):
    # a split that loses pi2 breaks triple_map's size invariant; the check
    # is an explicit raise, so it fires under python -O as well
    monkeypatch.setattr(bijection, "ferrers_split", lambda pi2: ((), ()))
    with pytest.raises(AssertionError, match="invariant broken"):
        triple_map((5,), (True,))


def test_identify_mark_count_matches_weight():
    for n in range(SIGMA + 1):
        for pi in enumerate_members("S", n):
            assert 1 << len(identify(pi)) == brute_force.chain_weight("S", pi)


def test_identify_rejects_bad_parity():
    with pytest.raises(ValueError):
        identify((1, 4, 9, 11))  # the 4 sits at the wrong parity


def test_redistribute_single_mark():
    assert redistribute((5,), (False,)) == ((5,), ())
    assert redistribute((5,), (True,)) == ((), (5,))
    with pytest.raises(ValueError):
        redistribute((5,), ())  # one bit per mark


def test_routes_match_the_brute_force_redistribution():
    # every member of n <= 30 from the brute-force lister, its marks from
    # the brute-force chain rule, and every bit tuple for them
    for n in range(31):
        for pi in brute_force.enumerate_partitions(n, brute_force.member_side("S")):
            marks = brute_force.chain_marks("S", pi)
            routed = bijection._routes(pi, identify(pi))
            k = len(marks)
            every = [tuple(bool(i >> j & 1) for j in range(k)) for i in range(1 << k)]
            assert [choice for choice, _ in routed] == every
            for choice, pair in routed:
                assert pair == brute_force.redistribute(pi, marks, choice)
                assert redistribute(pi, choice) == pair


def test_redistribute_roundtrip_exhaustive():
    for n in range(SIGMA + 1):
        for pi in enumerate_members("S", n):
            for choice in choices(len(identify(pi))):
                pi1, pi2 = redistribute(pi, choice)
                assert sum(pi1) + sum(pi2) == n
                assert redistribute_inverse((pi1, pi2)) == (pi, choice)


def test_pair_roundtrip_exhaustive():
    for n in range(SIGMA + 1):
        for pair in split_pairs(n):
            pi, choice = redistribute_inverse(pair)
            assert redistribute(pi, choice) == pair


def test_unchecked_inverse_agrees_with_the_checked_one():
    for n in range(SIGMA + 1):
        for pair in split_pairs(n):
            assert bijection._invert(pair) == redistribute_inverse(pair)


def test_unchecked_inverse_refuses_a_non_positive_merge():
    # no pair of split_pairs holds these piles: de-staircased, pi1's 1
    # becomes -1, so the merge (-1, 8) re-staircases to a member with a
    # part below 1
    with pytest.raises(ValueError):
        bijection._invert(((1,), (8,)))


def test_split_pair_validation():
    # what split_pairs does not list, the inverse refuses; what it lists
    # inverts
    for pi1, pi2 in [
        ((), (5, 7)),  # pi2 gap < 4
        ((), (1,)),  # odd pi2 part < 5
        ((), (5, 9)),  # odd pi2 parts 4 apart
        ((), (7,)),  # odd pi2 part: 7 - 2t(7) == 3 (mod 4), not 1
        ((), (6,)),  # even pi2 part: 6 - 2t(6) == 2 (mod 4), not 0
        ((), (5, 12)),  # even pi2 part above an odd one: 12 - 2 == 2 (mod 4)
        ((2,), ()),  # even part in pi1
        ((5, 5), ()),  # repeated pi1 part
        ((1,), (4,)),  # 1 <= 2*nu(pi2)
    ]:
        assert (pi1, pi2) not in split_pairs(sum(pi1) + sum(pi2))
        with pytest.raises(ValueError):
            redistribute_inverse((pi1, pi2))
    for pi1, pi2 in [((5,), ()), ((), (5,)), ((3,), (4,)), ((), (5, 11)), ((), (4, 9))]:
        pi, choice = redistribute_inverse((pi1, pi2))
        assert redistribute(pi, choice) == (pi1, pi2)


def test_ferrers_worked_example():
    pi2 = (5, 15, 24, 29)
    rows = ferrers_graph(pi2)
    assert [sum(r) for r in rows] == [5, 15, 24, 29]
    # exactly the one-footed columns feed the odd pile
    pi3, pi4 = ferrers_split(pi2)
    assert pi3 == (4, 12, 20, 24)
    assert pi4 == (1, 5, 7)
    assert ferrers_merge(pi3, pi4) == pi2


def test_ferrers_merge_split_roundtrip():
    for n in range(SIGMA + 1):
        for _, pi3, pi4 in triple_partitions(n):
            assert ferrers_split(ferrers_merge(pi3, pi4)) == (pi3, pi4)


def _split_by_columns(rows):
    # the paper's cut, read off the graph: each 1-footed column summed is a
    # pi4 part, and the rows less those columns are the pi3 parts
    one_cols = {len(row) - 1: i for i, row in enumerate(rows) if row[-1] == 1}
    pi4 = sorted(sum(rows[j][c] for j in range(i, len(rows))) for c, i in one_cols.items())
    pi3 = [sum(w for c, w in enumerate(row) if c not in one_cols) for row in rows]
    return tuple(pi3), tuple(pi4)


def test_ferrers_graph_structure():
    # odd rows end in a single 1, the column above each 1 carries 2s,
    # everything else is a 4; row sums give back the parts, and cutting
    # the graph's columns gives what the closed-form split gives
    for n in range(SIGMA + 1):
        for _, pi2 in split_pairs(n):
            rows = ferrers_graph(pi2)
            assert ferrers_split(pi2) == _split_by_columns(rows)
            one_cols = set()
            for row, p in zip(rows, pi2):
                assert sum(row) == p
                assert set(row) <= {1, 2, 4}
                if p % 2:
                    assert row.count(1) == 1 and row[-1] == 1
                    one_cols.add(len(row) - 1)
                else:
                    assert 1 not in row
                assert {c for c, v in enumerate(row) if v == 2} == {
                    c for c in one_cols if c < len(row) - (1 if p % 2 else 0)
                }


def test_ferrers_split_and_graph_reject_non_members():
    # (4, 5) has integral, increasing row lengths but breaks the gap rule
    for n in range(25):
        for pi in enumerate_partitions(n):
            if _PI2.weigh(pi) is None:
                with pytest.raises(ValueError):
                    ferrers_split(pi)
                with pytest.raises(ValueError):
                    ferrers_graph(pi)


# (0, 4) meets pi2's gap and parity rules: only positivity refuses it
@pytest.mark.parametrize("bad", [(3, 1), (0,), (0, 4), (-1, 3)])
def test_non_partitions_are_refused(bad):
    # descending, zero and negative parts: each function that reads a
    # partition refuses them, through its family's weigh or, for the
    # inverses, against the forward map
    assert not brute_force.is_gollnitz_gordon(bad)
    assert _PI2.weigh(bad) is None
    for refuse in [
        euler_subtract,
        identify,
        ferrers_split,
        ferrers_graph,
        lambda pi: redistribute_inverse((pi, ())),
        lambda pi: redistribute_inverse(((), pi)),
        lambda pi: triple_inverse((pi, (), ())),
        lambda pi: triple_inverse(((), pi, ())),
        lambda pi: triple_inverse(((), (4, 8), pi)),
    ]:
        with pytest.raises(ValueError):
            refuse(bad)


def test_triple_validation():
    # what triple_partitions does not list, the inverse refuses; what it
    # lists inverts
    for pi1, pi3, pi4 in [
        ((), (3,), ()),  # pi3 part not a multiple of 4
        ((), (4, 4), ()),  # repeated pi3 part
        ((), (4,), (3,)),  # pi4 part >= 2*nu(pi3)
        ((), (4, 8), (2,)),  # even pi4 part
        ((), (4, 8), (1, 1)),  # repeated pi4 part
        ((6,), (), ()),  # even pi1 part
        ((5, 5), (), ()),  # repeated pi1 part
        ((1,), (4,), ()),  # 1 <= 2*nu(pi3)
    ]:
        assert (pi1, pi3, pi4) not in triple_partitions(sum(pi1) + sum(pi3) + sum(pi4))
        with pytest.raises(ValueError):
            triple_inverse((pi1, pi3, pi4))
    for triple in [((), (4,), (1,)), ((3, 7), (4,), (1,))]:
        pi, choice = triple_inverse(triple)
        assert triple_map(pi, choice) == triple


@pytest.mark.parametrize(
    "pi3, pi4",
    [
        ((3,), ()),
        ((4, 4), ()),
        ((4, 4), (1,)),  # reattaches to (4, 5), which ferrers_split maps back
        ((4,), (3,)),
        ((4, 8), (1, 1)),
        ((4, 8), (2,)),
        ((), (1,)),
    ],
)
def test_ferrers_merge_rejects_what_the_split_does_not_produce(pi3, pi4):
    with pytest.raises(ValueError):
        ferrers_merge(pi3, pi4)


def test_triple_map_single_mark():
    assert triple_map((5,), (False,)) == ((5,), (), ())
    assert triple_map((5,), (True,)) == ((), (4,), (1,))


def test_triple_roundtrip_exhaustive():
    for n in range(SIGMA + 1):
        for pi in enumerate_members("S", n):
            for choice in choices(len(identify(pi))):
                t = triple_map(pi, choice)
                assert sum(map(sum, t)) == n
                assert triple_inverse(t) == (pi, choice)
        for t in triple_partitions(n):
            pi, choice = triple_inverse(t)
            assert triple_map(pi, choice) == t


def test_cardinalities_frozen_and_cross():
    assert [len(split_pairs(n)) for n in range(8)] == [1, 1, 0, 1, 2, 2, 1, 2]
    for n in range(SIGMA + 1):
        assert len(split_pairs(n)) == weighted_count("S", n)
        assert len(triple_partitions(n)) == len(split_pairs(n))
        assert len(triple_partitions(n)) == count_q(2, n)


def test_trace_stages():
    stages = trace_pipeline((5,), (True,))
    names = [s for s, _ in stages]
    assert names == [
        "member",
        "marks",
        "choice",
        "euler-subtracted",
        "pi1",
        "pi2",
        "graph",
        "pi3",
        "pi4",
    ]
    rendered = dict(stages)
    assert rendered["member"] == "5"
    assert rendered["pi3"] == "4" and rendered["pi4"] == "1"
