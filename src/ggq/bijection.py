"""The combinatorial pipeline behind the weighted count.

Stages, each invertible:

    member  --identify-->  its marks
            --redistribute (one bit per mark)-->  (pi1, pi2)
            --ferrers_split on pi2-->  (pi3, pi4)

Every partition is the ascending tuple of its parts, and every stage is
a plain tuple: a member's marks are the ascending tuple of its marked
parts, a pair is (pi1, pi2) and a triple (pi1, pi3, pi4).  A member is
a Gollnitz-Gordon partition whose even parts b satisfy b == 2t(b)
(mod 4).  Marks sit on the least parts of qualifying odd chains; each
mark contributes a factor 2 to the weight, realized here as a free
routing choice, one bit per mark (``choices``).  The final triples
(pi1, pi3, pi4) carry no parity conditions at all, which is what ties
the weighted count to the distinct-part counting function.

Each rule on the stages' partitions is stated once, as a ``Family``
step, and those families list ``split_pairs`` and ``triple_partitions``,
each read from the listing of every size its family keeps.  Nothing
re-checks the tuples they list.  The maps that read a member,
``identify`` and the staircase map ``euler_subtract``, check it through
partition families of ``ggq.partitions``: Gollnitz-Gordon gaps and the
parity rule, and positive parts with gaps >= 2.

The redistribution is stated once, in ``_routes``: given a member and
the marks ``identify`` read, it de-staircases the parts once and lists
the pair of every routing choice, or of the choices it is given.
``redistribute``, check 2.7 and the command line's bijection all route
through it.

The split is stated in closed form; ``ferrers_graph`` draws the graph
it cuts, for the trace.  Both raise ValueError on a pi2 outside the pi2
family ``_PI2``.

Inverses recompute rather than remember: the choice bits are recovered
from which pile holds the subtracted value.  The public inverses,
``redistribute_inverse``, ``ferrers_merge`` and ``triple_inverse``,
check their input only against the forward map, and raise on anything
it does not produce; the private ``_invert`` skips that check, for
callers that compare its result with the forward map's input
themselves.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from operator import add, not_, sub

from .partitions import Family, _chain_marks, _gap_family, _listed_to, _odd_below

__all__ = [
    "choices",
    "euler_subtract",
    "identify",
    "redistribute",
    "redistribute_inverse",
    "ferrers_graph",
    "ferrers_split",
    "ferrers_merge",
    "triple_map",
    "triple_inverse",
    "split_pairs",
    "triple_partitions",
    "trace_pipeline",
]


# -- the stages' families -----------------------------------------------


@lru_cache(maxsize=None)
def _odds(min_part: int, below: int | None = None) -> Family:
    """Distinct odd parts p >= min_part, and p < below when below is given."""

    def step(last: int, p: int):
        if p % 2 and p > last and p >= min_part and (below is None or p < below):
            return p, 1
        return None

    return Family(step)


def _pi2_step(state: int, p: int):
    # state: last part, odd parts so far mod 2.  Odd parts 6 apart need no
    # test: two odd parts 4 apart differ by one in t, so break parity.
    last, t = state >> 1, state & 1
    odd = p % 2
    if (p - last < 4 if last else p < 1) or (p - 2 * t) % 4 != odd or (odd and p < 5):
        return None
    return p << 1 | (t ^ odd), 1


# pi2: positive parts, gaps >= 4, odd parts >= 5 and 6 apart, b == 2t(b) + (b mod 2) (mod 4)
_PI2 = Family(_pi2_step, bits=1)
_MULT4 = Family(lambda last, p: (p, 1) if p % 4 == 0 and p > last else None)


def _check_pi2(parts) -> None:
    if _PI2.weigh(parts) is None:
        raise ValueError("pi2 breaks a gap or parity condition")


def _require(holds: bool, invariant: str) -> None:
    # an explicit raise, so the check survives python -O
    if not holds:
        raise AssertionError(f"invariant broken: {invariant}")


# -- staircase ----------------------------------------------------------


def euler_subtract(pi: tuple[int, ...]) -> tuple[int, ...]:
    """b_k -> b_k - 2(k-1); needs positive parts with gaps >= 2, so the
    result stays a partition."""
    if _gap_family(1).weigh(pi) is None:
        raise ValueError("needs positive parts and gaps >= 2")
    return tuple(p - 2 * k for k, p in enumerate(pi))


# -- identification and redistribution ----------------------------------


def identify(pi: tuple[int, ...]) -> tuple[int, ...]:
    """The marks of a member: the least parts of its qualifying odd
    chains, ascending."""
    marks = _chain_marks("S", pi)
    if marks is None:
        raise ValueError("partition fails the even-part parity condition")
    return marks


def choices(k: int):
    """Every tuple of routing bits for k marks; bit j of the running
    index is the bit of the j-th mark."""
    for bits in range(1 << k):
        yield tuple(bool(bits >> j & 1) for j in range(k))


@lru_cache(maxsize=None)
def _choice_table(k: int) -> tuple[tuple[bool, ...], ...]:
    # choices(k), built once per k
    return tuple(choices(k))


def redistribute(pi: tuple[int, ...], choice: tuple[bool, ...]) -> tuple[tuple[int, ...], ...]:
    """Split the member's de-staircased parts into two piles and
    re-staircase them: (pi1, pi2).

    One bit per mark, ascending mark order; True routes the mark's
    subtracted value to the pi2 pile.  Unmarked odd values always go to
    pi1's pile, everything even to pi2's.  The subtracted values ascend,
    so each pile does too.
    """
    marks = identify(pi)
    if len(choice) != len(marks):
        raise ValueError("one choice bit per mark required")
    ((_, pair),) = _routes(pi, marks, (tuple(choice),))
    return pair


def _routes(pi, marks, chosen=None) -> list[tuple[tuple[bool, ...], tuple[tuple[int, ...], ...]]]:
    """The redistribution of a member under each routing choice, as
    (choice, (pi1, pi2)): every choice, in the order of ``choices``,
    unless chosen names some.  marks are the member's, from ``identify``.

    The parts are de-staircased once, with no check of their own:
    ``identify`` refuses anything that is not Gollnitz-Gordon.  Each
    pile is its fixed values, the even or the unmarked odd ones, with
    the values of the marks its choice routes there sorted in.
    """
    size = sum(pi)
    to_mark = set(marks)
    evens: list[int] = []
    odds: list[int] = []
    marked: list[int] = []
    for k, b in enumerate(pi):
        v = b - 2 * k
        if b % 2 == 0:
            evens.append(v)
        elif b in to_mark:
            marked.append(v)
        else:
            odds.append(v)
    n = len(pi)
    out = []
    for choice in chosen or _choice_table(len(marks)):
        pile2 = sorted([*evens, *compress(marked, choice)]) if marked else evens
        pile1 = sorted([*odds, *compress(marked, map(not_, choice))]) if marked else odds
        n2 = len(pile2)
        pi2 = tuple(map(add, pile2, range(0, 2 * n2, 2)))
        pi1 = tuple(map(add, pile1, range(2 * n2, 2 * n, 2)))
        _require(sum(pi1) + sum(pi2) == size, "redistribution keeps the size")
        out.append((choice, (pi1, pi2)))
    return out


def _invert(pair) -> tuple[tuple[int, ...], tuple[bool, ...]]:
    """Recover the member and its routing bits from (pi1, pi2), unchecked.

    The piles are de-staircased and merged; marks are recomputed from the
    reassembled member, and each bit is read off from which pile holds
    the mark's subtracted value.  Equal subtracted values all come from
    one chain, and only a chain's least part can be marked, so the
    multiset lookup is unambiguous.

    The merged piles are re-staircased (p + 2k) with no check of their
    own: they are sorted, so ascending, and the member's first part is
    their first value, so it is at least 1 exactly when they all are.
    ``identify`` refuses a member whose first part is below 1, so a merge
    that is not a partition of positive parts is refused there.
    """
    pi1, pi2 = pair
    n2 = len(pi2)
    star2 = list(map(sub, pi2, range(0, 2 * n2, 2)))
    merged = sorted([*map(sub, pi1, range(2 * n2, 2 * (n2 + len(pi1)), 2)), *star2])
    pi = tuple(map(add, merged, range(0, 2 * len(merged), 2)))
    marks = identify(pi)
    if not marks:
        return pi, ()
    star_of = dict(zip(pi, merged))
    budget: dict[int, int] = {}
    for v in star2:
        if v % 2 == 1:
            budget[v] = budget.get(v, 0) + 1
    bits = []
    for mark in marks:
        v = star_of[mark]
        if budget.get(v, 0) > 0:
            budget[v] -= 1
            bits.append(True)
        else:
            bits.append(False)
    return pi, tuple(bits)


def redistribute_inverse(pair) -> tuple[tuple[int, ...], tuple[bool, ...]]:
    """Recover the member and its routing bits from (pi1, pi2); raise
    ValueError when the pair is not an image of ``redistribute``."""
    pi, bits = _invert(pair)
    if redistribute(pi, bits) != pair:
        raise ValueError("not in the image of the redistribution map")
    return pi, bits


# -- weighted Ferrers graph ---------------------------------------------


def ferrers_graph(pi2: tuple[int, ...]) -> list[list[int]]:
    """Node-weight rows (ascending part order) with entries 4, 2, or 1.

    Row for odd part f has (3+f+2t(f))/4 nodes ending in a 1; row for
    even part e has (e+2t(e))/4 nodes.  The column over each 1 (rows of
    larger parts) is weighted 2, the rest 4.  Row sums reproduce parts.
    """
    _check_pi2(pi2)
    tmap = _odd_below(pi2)
    lengths = [(p + 2 * tmap[p] + 3 * (p % 2)) // 4 for p in pi2]
    one_cols = {lengths[i] - 1 for i, p in enumerate(pi2) if p % 2 == 1}
    rows = []
    for n, p in zip(lengths, pi2):
        # the columns of smaller odd rows all end before this row's last node
        row = [2 if c in one_cols else 4 for c in range(n - p % 2)] + [1] * (p % 2)
        _require(sum(row) == p, "graph rows sum to their parts")
        rows.append(row)
    return rows


def ferrers_split(pi2: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Cut the 1-footed columns out of pi2's graph: they are pi4, the
    all-4 remainder is pi3.

    A part b keeps its 4s, b - 2t(b) - (b mod 2), in pi3.  The 1 ending
    the row of an odd part at index i sits over the 2s of the nu - 1 - i
    larger rows, so its column is the pi4 part 2(nu - i) - 1.
    """
    _check_pi2(pi2)
    t = _odd_below(pi2)
    nu = len(pi2)
    pi3 = tuple(b - 2 * t[b] - b % 2 for b in pi2)
    pi4 = tuple(2 * (nu - i) - 1 for i in reversed(range(nu)) if pi2[i] % 2)
    return pi3, pi4


def ferrers_merge(pi3: tuple[int, ...], pi4: tuple[int, ...]) -> tuple[int, ...]:
    """Reattach the 2-modular columns; inverse of ferrers_split on the pi2
    family.  Raises ValueError on any (pi3, pi4) it does not produce from
    a member of that family."""
    nu = len(pi3)
    odd_rows = {nu - 1 - (p - 1) // 2 for p in pi4}
    parts = []
    t = 0
    for i, g in enumerate(pi3):
        parts.append(g + 2 * t + (1 if i in odd_rows else 0))
        if i in odd_rows:
            t += 1
    pi2 = tuple(parts)
    if ferrers_split(pi2) != (pi3, pi4):
        raise ValueError("not in the image of the split map")
    return pi2


# -- full pipeline ------------------------------------------------------


def triple_map(pi: tuple[int, ...], choice: tuple[bool, ...]) -> tuple[tuple[int, ...], ...]:
    """The member's image (pi1, pi3, pi4) under the routing bits."""
    return _triple(pi, *redistribute(pi, choice))


def _triple(pi, pi1, pi2):
    # triple_map, given the member's pair
    pi3, pi4 = ferrers_split(pi2)
    _require(sum(pi1) + sum(pi3) + sum(pi4) == sum(pi), "the pipeline keeps the size")
    return pi1, pi3, pi4


def triple_inverse(triple) -> tuple[tuple[int, ...], tuple[bool, ...]]:
    """Recover the member and its routing bits from (pi1, pi3, pi4); raise
    ValueError when the triple is not an image of ``triple_map``."""
    pi1, pi3, pi4 = triple
    return redistribute_inverse((pi1, ferrers_merge(pi3, pi4)))


# -- enumeration of the target objects ----------------------------------


@lru_cache(maxsize=None)
def split_pairs(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Every (pi1, pi2) of size n.  Each family's listing is asked at the
    largest size this call reads from it first, so one walk serves it:
    _PI2's at n, and each pi1 family's at n less the smallest pi2 it
    follows, which comes first as s2 ascends."""
    pi2s = _listed_to(_PI2, n)
    out = []
    for s2 in range(n + 1):
        for pi2 in pi2s[s2]:
            out += [(pi1, pi2) for pi1 in _listed_to(_odds(2 * len(pi2) + 1), n - s2)[n - s2]]
    return tuple(out)


@lru_cache(maxsize=None)
def triple_partitions(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Every (pi1, pi3, pi4) of size n; each listing is asked at the
    largest size read from it first, as in ``split_pairs``."""
    pi3s = _listed_to(_MULT4, n)
    out = []
    for s3 in range(n + 1):
        for pi3 in pi3s[s3]:
            r = n - s3
            pi4s = _listed_to(_odds(1, 2 * len(pi3)), r)
            pi1s = _listed_to(_odds(2 * len(pi3) + 1), r)
            out += [
                (pi1, pi3, pi4) for s4 in range(r + 1) for pi4 in pi4s[s4] for pi1 in pi1s[r - s4]
            ]
    return tuple(out)


def trace_pipeline(pi: tuple[int, ...], choice: tuple[bool, ...]) -> list[tuple[str, str]]:
    """Stage-by-stage rendering of one run, for the CLI trace mode."""
    pi1, pi2 = redistribute(pi, choice)
    pi3, pi4 = ferrers_split(pi2)
    rows = ferrers_graph(pi2)
    stages = [
        ("member", _fmt(pi)),
        ("marks", _fmt(identify(pi))),
        ("choice", "".join("2" if b else "1" for b in choice) or "-"),
        ("euler-subtracted", _fmt(euler_subtract(pi))),
        ("pi1", _fmt(pi1)),
        ("pi2", _fmt(pi2)),
        ("graph", " / ".join("".join(str(w) for w in row) for row in rows) or "-"),
        ("pi3", _fmt(pi3)),
        ("pi4", _fmt(pi4)),
    ]
    inverse = triple_inverse((pi1, pi3, pi4))
    _require(inverse == (pi, tuple(choice)), "the trace inverts")
    return stages


def _fmt(parts) -> str:
    return "+".join(str(p) for p in parts) if parts else "0"
