"""Brute-force partition lister: the independent oracle for the counters.

Each family is written here a second time, as a predicate that sees the
whole prefix, straight from its definition.  Nothing here shares code
with the state machines in ``ggq.partitions``; the tests compare the two
for small n.
"""

from __future__ import annotations

from typing import Callable, Optional

from ggq.partitions import VARIANTS, ResidueFamilyConfig

ExtendFn = Callable[[tuple[int, ...], int], bool]
AcceptFn = Callable[[tuple[int, ...]], bool]


def enumerate_partitions(
    n: int,
    extend: Optional[ExtendFn] = None,
    accept: Optional[AcceptFn] = None,
) -> list[tuple[int, ...]]:
    """All partitions of n passing the filters, ascending-lexicographic.

    extend(prefix, p) is consulted before appending p (p >= last part is
    already guaranteed); accept sees the completed tuple.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], remaining: int, lo: int):
        if remaining == 0:
            if accept is None or accept(prefix):
                out.append(prefix)
            return
        for p in range(lo, remaining + 1):
            if extend is None or extend(prefix, p):
                rec(prefix + (p,), remaining - p, p)

    rec((), n, 1)
    return out


def count(n: int, extend: ExtendFn) -> int:
    return len(enumerate_partitions(n, extend=extend))


def distinct_where(keep: Callable[[int], bool]) -> ExtendFn:
    return lambda prefix, p: keep(p) and (not prefix or p > prefix[-1])


def q_side(i: int) -> ExtendFn:
    return distinct_where(lambda p: p % 4 != i)


def gap_side(min_part: int, strict_parity: int) -> ExtendFn:
    """Gaps >= 2, gap exactly 2 forbidden below parts of strict_parity."""

    def ext(prefix, p):
        if p < min_part:
            return False
        if prefix:
            d = p - prefix[-1]
            if d < 2 or (d == 2 and p % 2 == strict_parity):
                return False
        return True

    return ext


def g_side(prefix, p) -> bool:
    k = len(prefix) + 1
    if prefix:
        if p <= prefix[-1] or (p - prefix[-1]) % 4 == 1:
            return False
    s = sum(1 for x in prefix if x % 2 == 0)
    want = (1 if p % 2 else 2) + 2 * k + 2 * s
    return (p - want) % 4 == 0


def residue_side(cfg: ResidueFamilyConfig) -> ExtendFn:
    def ext(prefix, p):
        if not cfg.permits(p):
            return False
        return not (prefix and p == prefix[-1] and cfg.must_be_distinct(p))

    return ext


def member_side(variant: str) -> ExtendFn:
    v = VARIANTS[variant]

    def ext(prefix, p):
        if prefix:
            d = p - prefix[-1]
            if d < 2 or (d == 2 and p % 2 == 0):
                return False
        if p % 2 == 0:
            t = sum(1 for x in prefix if x % 2 == 1)
            if (p - 2 * t) % 4 != v.even_offset:
                return False
        return True

    return ext


def is_gollnitz_gordon(parts: tuple[int, ...]) -> bool:
    """Positive parts, gaps >= 2, and a gap of exactly 2 only below an
    odd part."""
    return all(p >= 1 for p in parts) and all(
        b - a > 2 or (b - a == 2 and b % 2) for a, b in zip(parts, parts[1:])
    )


def euler_add(parts: tuple[int, ...]) -> tuple[int, ...]:
    """The inverse staircase b_k -> b_k + 2(k-1)."""
    return tuple(p + 2 * k for k, p in enumerate(parts))


def chain_marks(variant: str, parts: tuple[int, ...]) -> set[int]:
    """The least parts b of the odd chains, maximal runs of odd parts two
    apart, with b at least chain_min and b - 2 t(b) == chain_offset
    (mod 4), where t(b) counts the odd parts below b."""
    v = VARIANTS[variant]
    marks = set()
    for i, b in enumerate(parts):
        if b % 2 == 0 or (i and parts[i - 1] == b - 2):
            continue
        t = sum(x % 2 for x in parts[:i])
        if b >= v.chain_min and (b - 2 * t) % 4 == v.chain_offset:
            marks.add(b)
    return marks


def chain_weight(variant: str, parts: tuple[int, ...]) -> int:
    """2 for each mark of ``chain_marks``."""
    return 2 ** len(chain_marks(variant, parts))


def weighted(variant: str, n: int) -> int:
    return sum(
        chain_weight(variant, pi)
        for pi in enumerate_partitions(n, extend=member_side(variant))
    )


def pi2_side(prefix, p) -> bool:
    if prefix and p - prefix[-1] < 4:
        return False
    t = sum(1 for x in prefix if x % 2 == 1)
    if p % 2 == 1:
        if p < 5 or (p - 2 * t) % 4 != 1:
            return False
        last_odd = next((x for x in reversed(prefix) if x % 2 == 1), None)
        if last_odd is not None and p - last_odd < 6:
            return False
    elif (p - 2 * t) % 4 != 0:
        return False
    return True
