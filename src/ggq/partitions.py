"""Partitions: family listing, counting and membership.

A partition is the tuple of its parts, in ascending order; the empty
tuple is the partition of 0.  No constructor checks a tuple: each
function that needs positive, ascending parts reads them through a
family's ``weigh``, such as ``_gap_family``'s for gaps >= 2.
"Parity" of a part means its residue class mod 4, not mod 2; all parity
predicates below are written mod 4 explicitly.

Each family is described once, as a ``Family``: a state machine that
reads the parts smallest first, keeping the last part and a few parity
bits.  The description lists, counts and tests membership: it drives
``enumerate_partitions``, which lists members for the bijection, a
counter that builds no member, and ``Family.weigh``, which reads one
given partition and is how the validators state a family's rule.  The
counter computes the counts of 0..N together, one packed completion
series per state, and doubles N when asked past it, so the counts stay
cheap far past n = 60.  It imports nothing from ``ggq.series``: the
counts are the oracles the products are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import isqrt, log, pi, sqrt
from typing import Callable, Optional

__all__ = [
    "Family",
    "ResidueFamilyConfig",
    "VARIANTS",
    "enumerate_partitions",
    "weighted_count",
    "count_q",
    "count_thm1_side",
    "count_thm2_sides",
    "count_gg",
    "count_g",
    "count_p",
    "count_residue_family",
    "interp_config",
    "P_CONFIG",
    "MOD8_CONFIG",
]


@dataclass(frozen=True, eq=False)
class Family:
    """A partition family read one part at a time, smallest part first.

    A state is an int: the last part shifted left by ``bits``, over
    ``bits`` bits of statistics of the parts so far; the empty prefix is
    state 0.  ``step(state, p)``, for p no smaller than the last part,
    returns the next state and p's weight, a positive integer, or None
    when p may not follow; a repeated part keeps the state.  Every
    admitted prefix is a member, weighted by the product of its steps'
    weights.  A family whose ``weigh`` checks a given tuple, such as
    ``_ANY`` or ``_gap_family``, also refuses a part below 1 and one
    below the last part.
    """

    step: Callable[[int, int], Optional[tuple[int, int]]]
    bits: int = 0
    _memo: list = field(default_factory=list, repr=False)  # counts of 0..N

    def weigh(self, parts) -> Optional[int]:
        """Weight of the ascending parts as a member, or None when a step
        refuses one of them."""
        state = 0
        weight = 1
        for p in parts:
            nxt = self.step(state, p)
            if nxt is None:
                return None
            state, w = nxt
            weight *= w
        return weight


# every partition: positive parts, ascending
_ANY = Family(lambda last, p: (p, 1) if p >= max(last, 1) else None)


def _next_parts(last: int, remaining: int) -> list[int]:
    # the rest, or a part leaving room for a further one at least as large
    lo = last or 1
    return [*range(lo, remaining // 2 + 1), remaining] if lo <= remaining else []


def enumerate_partitions(n: int, family: Optional[Family] = None) -> list[tuple[int, ...]]:
    """The members of n in ascending-lexicographic order; every partition
    of n when no family is given."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    fam = family or _ANY
    step, bits = fam.step, fam.bits
    out: list[tuple[int, ...]] = []
    stack = [((), n, 0)]
    while stack:
        prefix, remaining, state = stack.pop()
        if remaining == 0:
            out.append(prefix)
            continue
        for p in reversed(_next_parts(state >> bits, remaining)):
            nxt = step(state, p)
            if nxt is not None:
                stack.append((prefix + (p,), remaining - p, nxt[0]))
    return out


def _count(family: Family, n: int) -> int:
    """Weighted number of members of n, without listing them.  The counts
    of 0..N are computed together and kept; a call past N computes them
    again for at least 2N, so an ascending caller pays for about one
    computation at its final size."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    memo = family._memo
    if n >= len(memo):
        memo[:] = _counts_to(family, max(n, 2 * len(memo) - 2))
    return memo[n]


def _counts_to(family: Family, top: int) -> list[int]:
    """Weighted counts of 0..top, from one completion series per state.

    F_s = (1 + sum w F_t x^p) / (1 - w' x^last) over the moves (p, t, w)
    of state s and its repeat of the last part, of weight w'.  A move to
    a larger part leads to a larger state, so the states are read in
    descending order.  A state whose last part is L is reached with at
    least L placed: its parts stop at top - L, and F_s is kept mod
    x^(top - L + 1).  Each series is one int, x = 2^width; reducing mod
    2^(width * (top + 1)) respects sums and products, so only the counts
    read from F_0 must fit a slot.  The count of r is at most p(r) <
    e^(pi sqrt(2r/3)) (Apostol, Thm 14.5) times heaviest^parts, and a
    member of top has at most top parts, isqrt(2 top) when none repeats.
    """
    step, bits = family.step, family.bits
    moves: dict[int, list[tuple[int, int, int]]] = {0: []}
    loops: dict[int, int] = {}
    heaviest = 1
    todo = [0]
    while todo:
        s = todo.pop()
        last = s >> bits
        for p in range(max(last, 1), top - last + 1):
            nxt = step(s, p)
            if nxt is None:
                continue
            t, w = nxt
            if w != 1:
                if w < 1:
                    raise ValueError("a family's weights must be positive integers")
                heaviest = max(heaviest, w)
            if p == last:
                if t != s:
                    raise ValueError("a repeated part must keep the state")
                loops[s] = w
                continue
            moves[s].append((p, t, w))
            if t not in moves:
                moves[t] = []
                todo.append(t)
    parts = top if loops else isqrt(2 * top)
    width = int(pi * sqrt(2 * top / 3) / log(2)) + 1 + (heaviest**parts).bit_length()
    series: dict[int, int] = {}
    for s in sorted(moves, reverse=True):
        last = s >> bits
        mask = (1 << width * (top - last + 1)) - 1
        f = 1
        for p, t, w in moves[s]:
            f += (w * series[t] if w > 1 else series[t]) << width * p
        f &= mask
        if s in loops:
            # 1/(1 - y) = prod (1 + y^(2^i)), y = w' x^last
            k, y = last, loops[s]
            while k <= top - last:
                f = (f + ((y * f if y > 1 else f) << width * k)) & mask
                k, y = 2 * k, y * y
        series[s] = f
    slot = (1 << width) - 1
    f = series[0]
    return [f >> width * r & slot for r in range(top + 1)]


# -- weighted families (mod-4 parity conditions on even parts) ----------


@dataclass(frozen=True)
class WeightVariant:
    """Even-part condition b == 2t(b)+even_offset (mod 4); a chain gets
    weight 2 when odd, least part >= chain_min, and least part ==
    2t+chain_offset (mod 4)."""

    even_offset: int
    chain_min: int
    chain_offset: int


VARIANTS = {
    "S": WeightVariant(0, 5, 1),
    "Sstar": WeightVariant(2, 3, 3),
}


def _odd_below(parts: tuple[int, ...]) -> dict[int, int]:
    """t(b): the number of odd parts below each part b."""
    out: dict[int, int] = {}
    odd = 0
    for p in parts:
        out[p] = odd
        odd += p % 2
    return out


def _chain_marks(variant: str, pi: tuple[int, ...]) -> Optional[frozenset[int]]:
    """Least parts of the qualifying odd chains of a member, or None if the
    even-part parity test fails; anything not Gollnitz-Gordon is a usage
    error.  One pass over the parts: a chain starts at an odd part whose
    predecessor is not 2 below it."""
    v = VARIANTS[variant]
    marks = []
    last = t = 0
    parity = True
    for p in pi:
        d = p - last
        if p < 1 or (last and (d < 2 or (d == 2 and p % 2 == 0))):
            raise ValueError("not a Gollnitz-Gordon partition")
        if p % 2 == 0:
            parity = parity and (p - 2 * t) % 4 == v.even_offset
        else:
            if d != 2 and p >= v.chain_min and (p - 2 * t) % 4 == v.chain_offset:
                marks.append(p)
            t += 1
        last = p
    return frozenset(marks) if parity else None


def _member_family(variant: str) -> Family:
    """Gollnitz-Gordon gaps, the even-part parity test, and weight 2 at the
    least part of each qualifying odd chain; state: odd parts so far mod 2.

    ``_chain_marks`` reads one given partition in a loop of its own; this
    restates its rule as a ``Family`` step on purpose, with no shared code:
    check 2.7 compares the marks with the counts this family gives, so
    neither may be derived from the other."""
    v = VARIANTS[variant]

    def step(state: int, p: int):
        last, t = state >> 1, state & 1
        d = p - last
        if last and (d < 2 or (d == 2 and p % 2 == 0)):
            return None
        if p % 2 == 0:
            return (p << 1 | t, 1) if (p - 2 * t) % 4 == v.even_offset else None
        marked = (not last or d > 2) and p >= v.chain_min and (p - 2 * t) % 4 == v.chain_offset
        return p << 1 | (t ^ 1), 2 if marked else 1

    return Family(step, bits=1)


_MEMBERS = {name: _member_family(name) for name in VARIANTS}


def enumerate_members(variant: str, n: int) -> list[tuple[int, ...]]:
    """All weighted-family members of n (S or Sstar)."""
    return enumerate_partitions(n, _MEMBERS[variant])


@lru_cache(maxsize=None)
def weighted_count(variant: str, n: int) -> int:
    return _count(_MEMBERS[variant], n)


# -- counting functions -------------------------------------------------


_Q = {
    i: Family(lambda last, p, i=i: (p, 1) if p > last and p % 4 != i else None)
    for i in range(4)
}


@lru_cache(maxsize=None)
def count_q(i: int, n: int) -> int:
    """Partitions of n into distinct parts with no part == i (mod 4)."""
    if i not in (0, 1, 2, 3):
        raise ValueError("i must be 0..3")
    return _count(_Q[i], n)


@lru_cache(maxsize=None)
def _gap_family(min_part: int, strict_parity: Optional[int] = None) -> Family:
    """Parts >= min_part, gaps >= 2, no gap of 2 below a part == strict_parity
    (mod 2); any gap of 2 when strict_parity is None."""

    def step(last: int, p: int):
        d = p - last
        if p < min_part or (last and (d < 2 or (d == 2 and p % 2 == strict_parity))):
            return None
        return p, 1

    return Family(step)


@lru_cache(maxsize=None)
def count_thm1_side(i: int, n: int) -> int:
    """Gaps >= 2, strict above odd parts, smallest part > (4-i)/2."""
    if i not in (1, 3):
        raise ValueError("i must be 1 or 3")
    return _count(_gap_family(2 if i == 1 else 1, 1), n)


@lru_cache(maxsize=None)
def count_gg(n: int, min_part: int = 1) -> int:
    return _count(_gap_family(min_part, 0), n)


def count_thm2_sides(i: int, n: int) -> tuple[int, int]:
    """(residue-side count, gap-side count) for the mod-8 theorem."""
    if i not in (1, 3):
        raise ValueError("i must be 1 or 3")
    residue = count_residue_family(MOD8_CONFIG[i], n)
    return residue, count_gg(n, min_part=i)


def _g_step(state: int, p: int):
    # state: last part, parts so far mod 2, even parts so far mod 2
    last, k, s = state >> 2, state >> 1 & 1, state & 1
    if p <= last or (last and (p - last) % 4 == 1):
        return None
    want = (1 if p % 2 else 2) + 2 * (k + 1) + 2 * s
    if (p - want) % 4:
        return None
    return p << 2 | (k ^ 1) << 1 | (s ^ (p % 2 == 0)), 1


_G = Family(_g_step, bits=2)


@lru_cache(maxsize=None)
def count_g(n: int) -> int:
    """Distinct parts, no consecutive gap == 1 (mod 4), and the k-th
    smallest part b satisfies b == 1+2k+2s(b) (odd) or 2+2k+2s(b) (even),
    mod 4 with k counted from 1."""
    return _count(_G, n)


@dataclass(frozen=True)
class ResidueFamilyConfig:
    """Parts restricted to residues mod `modulus`; parts whose residue mod
    `sub_modulus` lands in `distinct_residues` may not repeat."""

    modulus: int
    allowed: frozenset[int]
    distinct_residues: frozenset[int] = field(default_factory=frozenset)
    sub_modulus: Optional[int] = None

    def __post_init__(self):
        if self.modulus <= 0:
            raise ValueError("modulus must be positive")
        if not all(0 <= r < self.modulus for r in self.allowed):
            raise ValueError("allowed residues out of range")
        sub = self.sub_modulus if self.sub_modulus is not None else self.modulus
        if sub <= 0 or not all(0 <= r < sub for r in self.distinct_residues):
            raise ValueError("distinct residues out of range")

    def permits(self, p: int) -> bool:
        return p % self.modulus in self.allowed

    def must_be_distinct(self, p: int) -> bool:
        sub = self.sub_modulus if self.sub_modulus is not None else self.modulus
        return p % sub in self.distinct_residues


@lru_cache(maxsize=None)
def _residue_family(cfg: ResidueFamilyConfig) -> Family:
    def step(last: int, p: int):
        if not cfg.permits(p) or (p == last and cfg.must_be_distinct(p)):
            return None
        return p, 1

    return Family(step)


@lru_cache(maxsize=None)
def count_residue_family(cfg: ResidueFamilyConfig, n: int) -> int:
    return _count(_residue_family(cfg), n)


# parts == +-3, +-4 (mod 12), those == 3 (mod 6) distinct
P_CONFIG = ResidueFamilyConfig(12, frozenset({3, 4, 8, 9}), frozenset({3}), 6)

# parts == +-i, 4 (mod 8), repetition allowed
MOD8_CONFIG = {
    1: ResidueFamilyConfig(8, frozenset({1, 4, 7})),
    3: ResidueFamilyConfig(8, frozenset({3, 4, 5})),
}


@lru_cache(maxsize=None)
def count_p(n: int) -> int:
    return count_residue_family(P_CONFIG, n)


def interp_config(k: int) -> ResidueFamilyConfig:
    """Residue-family reading of the level-k product side.

    k odd: modulus 4k+8, drop residues == 2 (mod 4), == +-k (mod 2k+4),
    and 0; parts == k+2 (mod 2k+4) distinct.  k == 2 (mod 4): modulus
    2k+4, drop == 2 (mod 4) and 0; parts == +-k/2 (mod k+2) distinct.
    k == 0 (mod 4): modulus 2k+4, drop == 2 (mod 4), 0, and +-k; no
    distinctness.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if k % 2 == 1:
        m = 4 * k + 8
        half = 2 * k + 4
        allowed = frozenset(
            r
            for r in range(1, m)
            if r % 4 != 2 and r % half not in {k, k + 4}
        )
        return ResidueFamilyConfig(m, allowed, frozenset({k + 2}), half)
    m = 2 * k + 4
    if k % 4 == 2:
        allowed = frozenset(r for r in range(1, m) if r % 4 != 2)
        return ResidueFamilyConfig(
            m, allowed, frozenset({k // 2, k // 2 + 2}), k + 2
        )
    allowed = frozenset(
        r for r in range(1, m) if r % 4 != 2 and r not in {k, k + 4}
    )
    return ResidueFamilyConfig(m, allowed)
