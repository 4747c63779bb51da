"""Exact truncated power series in q^(1/2) with two marker variables.

Coefficients are exact Python integers, so there is no overflow and no
rounding anywhere.  Exponents of q are stored in half-integer units
("e2"): ``e2 == 2`` means q, ``e2 == 1`` means q^(1/2).  Working on the
half grid keeps every exponent integral, including q^(n^2/2) terms and
shifted products such as (-q^(1/2); q)_n.

Two marker variables z and w ride along with nonnegative degrees
(dz, dw).  They are never inverted and never substituted with negative
powers; specializations that would need q^(-1) are done upstream, on
closed-form summands, before a series is ever built.

A series carries its truncation bound ``order2``: terms with e2 >=
order2 are unknown and silently dropped by the ring operations, and a
sum or product keeps the smaller bound of its operands.  Exact
polynomials (the bounded identities) are built outside this ring, as
packed integers in ``ggq.trinomials``, and arrive here through
``_unpack``.  Every product goes through one kernel, ``_mul``: a
one-term operand shifts the keys of the other; otherwise each operand is
cut into slices of equal marker degrees (dz, dw), and each pair of slices
is multiplied as univariate series by one signed Kronecker product; the
comment above the kernel says how, and why the one-term shift stays.
Pochhammer products (a; q^k)_n and their inverses never go factor
by factor through ``*``: their builders work on dense coefficient lists,
through two shared helpers that apply one factor (``_times_factor``) or
divide by one (``_divide_factor``), as the comment above them says.  The
same helpers walk the term ratio of the paper's single sums
(``_ratio_sum``), so no term of such a sum is built on its own.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from math import gcd, isqrt
from operator import add, itemgetter, sub
from typing import Callable, Iterable, Optional

Key = tuple[int, int, int]

__all__ = [
    "FactorSpec",
    "TruncSeries",
    "monomial",
    "zero",
    "one",
    "truncate",
    "series_diff",
    "q_coefficients",
    "collapse_zw",
    "zw_slice",
    "poch_finite",
    "poch_infinite",
    "poch_product",
    "inv_poch_finite",
    "inv_poch_infinite",
    "jacobi_sides",
]


@dataclass(frozen=True, slots=True)
class FactorSpec:
    """Family of factors (1 - sign * q^((e2 + j*step2)/2) z^dz w^dw), j = 0, 1, ...

    ``sign=+1`` gives the plain product (x; .)_n, ``sign=-1`` encodes the
    negated argument (-x; .)_n, i.e. factors (1 + ...).
    """

    sign: int
    e2: int
    step2: int
    dz: int = 0
    dw: int = 0

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if self.e2 < 0:
            raise ValueError("negative q-exponent in factor")
        if self.step2 <= 0:
            raise ValueError("step2 must be positive")
        if self.dz < 0 or self.dw < 0:
            raise ValueError("marker degrees must be nonnegative")


class TruncSeries:
    """Sparse exact series {(e2, dz, dw): coeff}, truncated at q^(order2/2)."""

    __slots__ = ("terms", "order2", "_uni")

    def __init__(self, terms: dict[Key, int], order2: int):
        if order2 <= 0:
            raise ValueError("order2 must be positive")
        uni = True
        for (e2, dz, dw), c in terms.items():
            if e2 < 0:
                raise ValueError(f"negative q-exponent e2={e2}")
            if dz < 0 or dw < 0:
                raise ValueError("negative marker degree")
            if e2 >= order2:
                raise ValueError(f"term e2={e2} at or beyond order2={order2}")
            if dz + dw > order2:
                raise ValueError("marker degree exceeds truncation order")
            if c == 0:
                raise ValueError("explicit zero coefficient")
            if dz or dw:
                uni = False
        self.terms = terms
        self.order2 = order2
        self._uni = uni

    @classmethod
    def _trusted(cls, terms: dict[Key, int], order2: int, uni: bool) -> "TruncSeries":
        """A kernel output, or a re-tagged copy of a valid series, whose
        terms are already nonzero, nonnegative, below order2 and within the
        marker bound, so they are not checked again.  uni may be False for
        a univariate result, never True with a marker term.  The marker
        bound can only break in a product, a sum of unequal bounds, a
        truncation or a marked Pochhammer builder, and each of those checks
        it itself."""
        s = object.__new__(cls)
        s.terms = terms
        s.order2 = order2
        s._uni = uni
        return s

    # -- basic protocol -------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.order2 == other.order2 and self.terms == other.terms

    __hash__ = None  # mutable dict inside; identity hashing would mislead

    def __repr__(self) -> str:
        if not self.terms:
            return f"<series 0 (order2={self.order2})>"
        bits = []
        for (e2, dz, dw), c in sorted(self.terms.items())[:8]:
            mono = []
            if e2:
                mono.append(f"q^{e2 // 2}" if e2 % 2 == 0 else f"q^({e2}/2)")
            if dz:
                mono.append(f"z^{dz}" if dz > 1 else "z")
            if dw:
                mono.append(f"w^{dw}" if dw > 1 else "w")
            head = "*".join(mono) if mono else "1"
            bits.append(f"{c}*{head}" if mono else str(c))
        more = " + ..." if len(self.terms) > 8 else ""
        return f"<series {' + '.join(bits)}{more} (order2={self.order2})>"

    # -- inspection -----------------------------------------------------

    def max_e2(self) -> int:
        """Largest stored exponent, -1 for the zero series."""
        return max((k[0] for k in self.terms), default=-1)

    @property
    def is_univariate(self) -> bool:
        return self._uni

    # -- arithmetic -----------------------------------------------------

    def __neg__(self) -> "TruncSeries":
        return TruncSeries._trusted({k: -c for k, c in self.terms.items()}, self.order2, self._uni)

    def scale(self, c: int) -> "TruncSeries":
        if c == 0:
            return TruncSeries._trusted({}, self.order2, True)
        terms = {k: c * v for k, v in self.terms.items()}
        return TruncSeries._trusted(terms, self.order2, self._uni)

    def __add__(self, other) -> "TruncSeries":
        if not isinstance(other, TruncSeries):
            return NotImplemented
        order2 = min(self.order2, other.order2)
        # a running total is the longer operand: copy it whole, add the other
        big, small = (self, other) if len(self.terms) >= len(other.terms) else (other, self)
        if big.order2 == order2:
            out = dict(big.terms)
        else:
            out = {k: c for k, c in big.terms.items() if k[0] < order2}
        for k, c in small.terms.items():
            if k[0] < order2:
                acc = out.get(k, 0) + c
                if acc:
                    out[k] = acc
                else:
                    del out[k]
        uni = self._uni and other._uni
        if not uni and self.order2 != other.order2:
            _check_markers(out, order2)
        return TruncSeries._trusted(out, order2, uni)

    def __sub__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.__add__(-other)

    def __mul__(self, other) -> "TruncSeries":
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, TruncSeries):
            return NotImplemented
        order2 = min(self.order2, other.order2)
        if not self.terms or not other.terms:
            return TruncSeries._trusted({}, order2, True)
        return TruncSeries._trusted(_mul(self, other, order2), order2, self._uni and other._uni)

    def __rmul__(self, other):
        return self.__mul__(other)


# -- multiplication kernel ----------------------------------------------
#
# A one-term operand is a key shift of the other one.  The packed product
# below would give the same terms, but one-term operands, such as the
# monomial heads of the paper's sums, are common, and the shift is one
# comprehension with nothing to pack or unpack.  Sending them through the
# packed product instead raised the median time of the six marked double
# sums from 0.451 to 0.550 s and of the full catalog from 0.829 to 0.977 s
# (7 alternating in-process runs, 2-core x86-64 host, Python 3.11).
#
# Any other product goes slice by slice: each operand's terms are grouped
# by their marker degrees (dz, dw), a univariate series being one slice,
# and each pair of slices is multiplied as univariate series, by one
# signed Kronecker product, and added under (dz_a + dz_b, dw_a + dw_b).
# A pair whose lowest exponents already sum past order2 is skipped
# (Pochhammer factors never reach here: the builders below apply them to
# dense lists).
#
# Packing.  A slice with lowest exponent l is packed once per product, in
# slots (e2 - l) / g, where g divides the gaps between the exponents of
# every slice of both operands (most slices here step by 4 or 8).  The
# slice is P - N, its positive and negated negative coefficients in B-bit
# slots, B holding min(terms) * max|a| * max|b| over the whole operands
# plus a sign bit: a coefficient of the product sums at most min(terms)
# term products, so every slot of a slice product, and of a sum of them,
# lies in [-2^(B-1), 2^(B-1)).  Adding 2^(B-1) to every slot then makes
# each a digit in [0, 2^B), and no slot borrows from the next.  A pair's
# product starts at exponent l_a + l_b; the products under one (dz, dw)
# and one residue of l_a + l_b mod g are shifted into place and added as
# integers, and each sum is unpacked once, only below order2, through
# array for 1, 2, 4 or 8 bytes on little-endian machines.  The marker
# bound is checked once, on the result, and only when some pair landed
# past it.

_ARRAY_CODES = {array(c).itemsize: c for c in "BHIQ"} if sys.byteorder == "little" else {}

Slice = tuple[dict[Key, int], int]  # a slice's terms, read for e2 only, and its lowest e2


def _check_markers(terms: dict[Key, int], order2: int) -> None:
    if any(dz + dw > order2 for _, dz, dw in terms):
        raise ValueError("marker degree exceeds truncation order")


def _slices(s: TruncSeries) -> dict[tuple[int, int], Slice]:
    if s._uni:
        return {(0, 0): (s.terms, 0)}
    groups: dict[tuple[int, int], dict[Key, int]] = {}
    for k, c in s.terms.items():
        sl = groups.get(k[1:])
        if sl is None:
            groups[k[1:]] = sl = {}
        sl[k] = c
    return {mark: (sl, min(sl)[0]) for mark, sl in groups.items()}


def _packing(x: TruncSeries, y: TruncSeries, slices) -> tuple[int, int]:
    """The slot step g and the bytes per slot for any slice product of x and y."""
    step = 0
    for sl in slices:
        for terms, low in sl.values():
            step = gcd(step, *map(sub, map(itemgetter(0), terms), repeat(low)))
    a, b = x.terms, y.terms
    bound = max(max(a.values()), -min(a.values())) * max(max(b.values()), -min(b.values()))
    width = (bound.bit_length() + min(len(a), len(b)).bit_length() + 8) // 8
    # every slice of both one term long: no gap, and any step will do
    return step or 1, 1 << (width - 1).bit_length() if width <= 8 else width


def _mul(x: TruncSeries, y: TruncSeries, order2: int) -> dict[Key, int]:
    if len(x.terms) > 1 < len(y.terms):
        return _mul_sliced(x, y, order2)
    # a one-term operand moves every key of the other one
    if len(x.terms) > 1:
        x, y = y, x
    ((e, z, w), c), = x.terms.items()
    out = {
        (e + e2, z + dz, w + dw): c * v for (e2, dz, dw), v in y.terms.items() if e + e2 < order2
    }
    if not y._uni:
        _check_markers(out, order2)
    elif z + w > order2 and out:
        raise ValueError("marker degree exceeds truncation order")
    return out


def _mul_sliced(x: TruncSeries, y: TruncSeries, order2: int) -> dict[Key, int]:
    a, b = _slices(x), _slices(y)
    step, width = _packing(x, y, (a, b))
    packs_b = {mark: (*_pack(sl, low, step, width), low) for mark, (sl, low) in b.items()}
    packed: dict[tuple[int, int, int], list[int]] = {}  # (dz, dw, residue) -> [sum, slots]
    for (za, wa), (sa, la) in a.items():
        va, na = _pack(sa, la, step, width)
        for (zb, wb), (vb, nb, lb) in packs_b.items():
            low = la + lb
            if low >= order2:
                continue
            residue, base = low % step, low // step
            slots = min(base + na + nb - 1, (order2 - residue + step - 1) // step)
            prod = (va * vb) << (8 * width * base)
            acc = packed.get((za + zb, wa + wb, residue))
            if acc is None:
                packed[za + zb, wa + wb, residue] = [prod, slots]
            else:
                acc[0] += prod
                acc[1] = max(acc[1], slots)
    out: dict[Key, int] = {}
    for (dz, dw, residue), (val, slots) in packed.items():
        digits = _digits(val, slots, width)
        out.update({(residue + step * i, dz, dw): c for i, c in enumerate(digits) if c})
    if any(dz + dw > order2 for dz, dw, _ in packed):
        _check_markers(out, order2)
    return out


@lru_cache(maxsize=None)
def _uni_keys(size: int) -> tuple[Key, ...]:
    return tuple((e2, 0, 0) for e2 in range(size))


def _uni_terms(coeffs: Iterable[int], n: int) -> dict[Key, int]:
    """{(e2, 0, 0): c} over the nonzero ones of the first n coefficients."""
    return {k: c for k, c in zip(_uni_keys(1 << (n - 1).bit_length()), coeffs) if c}


def _pack(terms: dict[Key, int], low: int, step: int, width: int) -> tuple[int, int]:
    """Terms at e2 = low + step * i packed into slot i, and the slot count."""
    nslots = (max(terms)[0] - low) // step + 1
    pos = [0] * nslots
    neg = [0] * nslots
    for (e2, _, _), c in terms.items():
        if c > 0:
            pos[(e2 - low) // step] = c
        else:
            neg[(e2 - low) // step] = -c
    code = _ARRAY_CODES.get(width)
    pos, neg = (
        array(code, xs) if code else b"".join(c.to_bytes(width, "little") for c in xs)
        for xs in (pos, neg)
    )
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little"), nslots


def _digits(val: int, nslots: int, width: int) -> Iterable[int]:
    """The signed coefficients in the first nslots slots of a packed value."""
    half = 1 << (8 * width - 1)
    bias = int.from_bytes(half.to_bytes(width, "little") * nslots, "little")
    raw = ((val + bias) & ((1 << (8 * width * nslots)) - 1)).to_bytes(width * nslots, "little")
    code = _ARRAY_CODES.get(width)
    digits = array(code, raw) if code else [
        int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width)
    ]
    return map(sub, digits, repeat(half))


def _unpack(val: int, nslots: int, width: int) -> dict[Key, int]:
    return _uni_terms(_digits(val, nslots, width), nslots)


# -- constructors and reshaping -----------------------------------------


def monomial(c: int, e2: int, dz: int = 0, dw: int = 0, *, order2: int) -> TruncSeries:
    """c * q^(e2/2) z^dz w^dw, or the zero series if e2 falls past order2."""
    if e2 < 0:
        raise ValueError("negative q-exponent")
    if c == 0 or e2 >= order2:
        return TruncSeries({}, order2)
    return TruncSeries({(e2, dz, dw): c}, order2)


def zero(order2: int) -> TruncSeries:
    return TruncSeries({}, order2)


def one(order2: int) -> TruncSeries:
    return monomial(1, 0, order2=order2)


def truncate(s: TruncSeries, order2: int) -> TruncSeries:
    """Forget everything at or above the new, not larger, bound."""
    if order2 <= 0:
        raise ValueError("order2 must be positive")
    if order2 > s.order2:
        raise ValueError("truncate cannot raise order2")
    kept = {k: c for k, c in s.terms.items() if k[0] < order2}
    if not s._uni:
        _check_markers(kept, order2)
    return TruncSeries._trusted(kept, order2, s._uni)


def series_diff(got: TruncSeries, want: TruncSeries) -> Optional[tuple[Key, int, int]]:
    """First differing key through the common truncation range.

    Returns (key, expected, got) sorted by (e2, dz, dw), or None.
    """
    bound = min(got.order2, want.order2)
    keys = {k for k in got.terms if k[0] < bound} | {k for k in want.terms if k[0] < bound}
    for k in sorted(keys):
        a = got.terms.get(k, 0)
        b = want.terms.get(k, 0)
        if a != b:
            return (k, b, a)
    return None


def q_coefficients(s: TruncSeries, n_max: int) -> list[int]:
    """[coeff of q^0, ..., coeff of q^n_max] along the pure-q axis."""
    if 2 * n_max >= s.order2:
        raise ValueError("q_coefficients beyond truncation order")
    return [s.terms.get((2 * n, 0, 0), 0) for n in range(n_max + 1)]


def collapse_zw(s: TruncSeries) -> TruncSeries:
    """Substitute z = w = 1, folding marker degrees into the q-axis."""
    out: dict[Key, int] = {}
    for (e2, _, _), c in s.terms.items():
        k = (e2, 0, 0)
        acc = out.get(k, 0) + c
        if acc:
            out[k] = acc
        elif k in out:
            del out[k]
    return TruncSeries(out, s.order2)


def zw_slice(s: TruncSeries, dw: int) -> TruncSeries:
    """Sub-series of w-degree dw, degrees kept in place."""
    return TruncSeries({k: c for k, c in s.terms.items() if k[2] == dw}, s.order2)


# -- Pochhammer products ------------------------------------------------
#
# A family's product is built on dense lists, one per power k of its
# marker M = z^dz w^dw (a single list when it has none).  Two helpers do
# all the work on such lists, and every builder below, the ratio walk
# included, is a loop over them.  ``_times_factor`` applies one factor
# (1 - s q^(e/2) M): list k takes s times list k - 1, shifted by e, away;
# lists are updated from the highest k down, so each list is read before
# it is written.  Unmarked, the one list is its own source, which is safe
# because the slices read are copies.  ``_divide_factor`` divides one
# list by an unmarked factor (1 - s q^(e/2)): v[j] += s v[j-e], a block of
# e at a time, each block reading the block below it that is already
# divided.  In a product every list is min(order2, degree + 1) long, and a
# new top list is opened only while its lowest term, at the degree, is
# visible.


def _times_factor(lists: list[list[int]], e: int, sign: int, marked: int) -> None:
    """Multiplies the lists, of equal length, by (1 - sign q^(e/2) M) in
    place; marked is 1 when list k holds the terms of M^k, 0 for one
    unmarked list."""
    op = sub if sign == 1 else add
    for k in range(len(lists) - 1, marked - 1, -1):
        v, src = lists[k], lists[k - marked]
        v[e:] = map(op, v[e:], src[: len(v) - e])


def _divide_factor(v: list[int], e: int, sign: int) -> None:
    """Divides v by (1 - sign q^(e/2)) in place, e > 0."""
    op = add if sign == 1 else sub
    for b in range(e, len(v), e):
        v[b : b + e] = map(op, v[b : b + e], v[b - e : b])


def _check_divisor(f: FactorSpec) -> None:
    if f.dz or f.dw:
        raise ValueError("inverse of a marked family is not built")
    if f.e2 == 0:
        raise ValueError("inverse needs a positive first exponent")


def _from_lists(lists: list[list[int]], dz: int, dw: int, order2: int) -> TruncSeries:
    """The series whose M^k part, M = z^dz w^dw, is lists[k]."""
    if len(lists) == 1:
        return TruncSeries._trusted(_uni_terms(lists[0], len(lists[0])), order2, True)
    if any(map(any, lists[order2 // (dz + dw) + 1 :])):
        raise ValueError("marker degree exceeds truncation order")
    terms = {(e2, k * dz, k * dw): c for k, v in enumerate(lists) for e2, c in enumerate(v) if c}
    return TruncSeries._trusted(terms, order2, False)


def _exponents(f: FactorSpec, n: Optional[int], order2: int) -> range:
    """The visible exponents of the first n factors (all of them for None)."""
    stop = order2 if n is None else min(order2, f.e2 + n * f.step2)
    return range(f.e2, stop, f.step2)


def _dense_product(f: FactorSpec, exps: range, order2: int) -> TruncSeries:
    marked = 1 if f.dz or f.dw else 0
    lists = [[1]]
    degree = 0
    for e in exps:
        degree += e
        size = min(order2, degree + 1)
        if marked and degree < order2:
            lists.append([])
        for v in lists:
            v.extend(repeat(0, size - len(v)))
        _times_factor(lists, e, f.sign, marked)
    return _from_lists(lists, f.dz, f.dw, order2)


def _dense_inverse(f: FactorSpec, exps: range, order2: int) -> TruncSeries:
    _check_divisor(f)
    v = [0] * order2
    v[0] = 1
    for e in exps:
        _divide_factor(v, e, f.sign)
    return TruncSeries._trusted(_uni_terms(v, order2), order2, True)


def _ratio_sum(
    order2: int, exp2: Callable[[int], int], num: Optional[FactorSpec], den: list[FactorSpec]
) -> TruncSeries:
    """Sum over n >= 0 of q^(exp2(n)/2) (num)_n / prod (den)_n, with no
    numerator for num None; every family of den unmarked, e2 > 0.

    Walks the term ratio t_n / t_(n-1) = q^((exp2(n) - exp2(n-1))/2) times
    factor n - 1 of num over factor n - 1 of each den.  The term is kept
    from its lowest exponent exp2(n) up, one list per power of num's
    marker, so the shift by the gap is a cut of each list to the part
    still visible.  Summation stops at the first invisible term, which is
    sound only because every factor has constant term 1 and exp2 never
    decreases; a decreasing exp2 raises ValueError.
    """
    for d in den:
        _check_divisor(d)
    dz, dw = (num.dz, num.dw) if num is not None else (0, 0)
    marked = 1 if dz or dw else 0
    low = exp2(0)
    if low < 0:
        raise ValueError("negative q-exponent")
    totals = [[0] * order2]
    term = [[1] + [0] * (order2 - low - 1)] if low < order2 else []
    top = 0  # lowest exponent of the top list of term, from low
    n = 0
    while term:
        for k, v in enumerate(term):
            if k == len(totals):
                totals.append([0] * order2)
            t = totals[k]
            t[low:] = map(add, t[low:], v)
        n += 1
        nxt = exp2(n)
        if nxt < low:
            raise ValueError(f"exp2 decreases from n={n - 1} to n={n}")
        if nxt >= order2:
            break
        low = nxt
        for v in term:
            del v[order2 - low :]
        if num is not None:
            e = num.e2 + (n - 1) * num.step2
            if marked and top + e < order2 - low:
                term.append([0] * (order2 - low))
                top += e
            _times_factor(term, e, num.sign, marked)
        for d in den:
            e = d.e2 + (n - 1) * d.step2
            for v in term:
                _divide_factor(v, e, d.sign)
    return _from_lists(totals, dz, dw, order2)


def poch_finite(f: FactorSpec, n: int, *, order2: int) -> TruncSeries:
    """Product of the first n factors of the family."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _dense_product(f, _exponents(f, n, order2), order2)


def poch_infinite(f: FactorSpec, *, order2: int) -> TruncSeries:
    """Infinite product, truncated: factors beyond order2 are identically 1.

    Rejects f.e2 == 0 with no marker degree: that first factor never
    leaves the constant range, so the product has no term-by-term limit.
    """
    if f.e2 == 0 and f.dz == 0 and f.dw == 0:
        raise ValueError("infinite product needs a positive exponent or a marker")
    return _dense_product(f, _exponents(f, None, order2), order2)


def poch_product(specs: Iterable[FactorSpec], *, order2: int) -> TruncSeries:
    # unmarked families first, then the z-marked ones next to each other,
    # then the w-marked ones: a product of two families with one marker
    # has few (dz, dw) slices for the next to meet.  Measured on the 3.x
    # product sides, w-marked first made 3.3 slower, so the key is this one
    acc = one(order2)
    for f in sorted(specs, key=lambda f: (f.dw > 0, f.dz > 0)):
        acc = acc * poch_infinite(f, order2=order2)
    return acc


@lru_cache(maxsize=None)
def inv_poch_finite(f: FactorSpec, n: int, *, order2: int) -> TruncSeries:
    """Cached 1 / (first n factors) of an unmarked family with e2 > 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _dense_inverse(f, _exponents(f, n, order2), order2)


@lru_cache(maxsize=None)
def inv_poch_infinite(f: FactorSpec, *, order2: int) -> TruncSeries:
    """Cached 1 / (infinite product) of an unmarked family with e2 > 0."""
    return _dense_inverse(f, _exponents(f, None, order2), order2)


# -- bilateral theta and the triple product -----------------------------


def jacobi_sides(zspec, *, order2: int) -> tuple[TruncSeries, TruncSeries]:
    """Normalized (theta, product) pair for the triple-product comparison
    sum_n z^n q^(n^2) = (q^2; q^2) (-qz; q^2) (-q/z; q^2), zspec = (sign, e2)
    standing for z = sign q^(e2/2).

    The theta term of n sits at 2n^2 + n*e2.  Peeling the factors of
    (-q/z; q^2) with a negative exponent pulls q^(-shift/2) out of the
    product, and shift = -min over n of (2n^2 + n*e2): the first N peeled
    add up to N*e2 - 2N^2, the exponent of n = -N negated.  Both sides are
    multiplied by q^(shift/2), which puts each on the nonnegative grid.
    """
    sign_z, e2z = zspec
    if sign_z not in (1, -1):
        raise ValueError("zspec sign must be +1 or -1")
    # z -> 1/z maps each side to itself: the theta term of n goes to that of
    # -n, and the product swaps its (-qz; q^2) and (-q/z; q^2) chains.  So
    # e2 -> |e2| changes neither side, and the (-qz; q^2) chain, which is
    # not peeled, then never starts at or below q^0
    e2z = abs(e2z)

    # product side (q^2; q^2) (-qz; q^2) (-q/z; q^2), peeling nonpositive
    # exponents from the -q/z chain: (1 - s q^(-c/2)) = -s q^(-c/2) (1 - s q^(c/2))
    mult = 1
    shift = 0
    extras: list[tuple[int, int]] = []  # (sign, e2) single factors
    s_a = -sign_z
    e2a = 2 - e2z
    while e2a <= 0 and mult != 0:
        if e2a < 0:
            c = -e2a
            mult *= -s_a
            shift += c
            extras.append((s_a, c))
        else:
            mult *= 1 - s_a
        e2a += 4

    # no term past |n| = isqrt(order2) + e2 is kept: there
    # 2n^2 + n*e2 >= |n| (2|n| - e2) > n^2 > order2
    lhs_terms: dict[Key, int] = {}
    bound = isqrt(order2) + e2z
    for n in range(-bound, bound + 1):
        k = (2 * n * n + n * e2z + shift, 0, 0)
        if k[0] < order2:
            lhs_terms[k] = lhs_terms.get(k, 0) + (sign_z if n % 2 else 1)
    lhs = TruncSeries({k: c for k, c in lhs_terms.items() if c}, order2)

    if mult == 0:
        return lhs, zero(order2)
    prod = poch_infinite(FactorSpec(1, 4, 4), order2=order2)
    prod = prod * poch_infinite(FactorSpec(-sign_z, 2 + e2z, 4), order2=order2)
    for s_x, c in extras:
        prod = prod * (one(order2) - monomial(s_x, c, order2=order2))
    if e2a > 0:
        prod = prod * poch_infinite(FactorSpec(s_a, e2a, 4), order2=order2)
    return lhs, prod.scale(mult)
