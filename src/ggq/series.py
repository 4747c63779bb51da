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
sum or product keeps the smaller bound of its operands.  It is stored by
marker slices: per (dz, dw), the lowest e2 and the dense coefficients
from there to the highest nonzero one.  The kernel packs that form and
the builders below produce it; ``terms`` is a read-only view built on
demand.  No stored list is ever written, so series share lists, and a
cached series cannot change.  Exact polynomials (the bounded
identities) are built outside this ring, as packed integers in
``ggq.trinomials``, and arrive as one dense list through
``_from_lists``.  Every product and every sum of products, such as a row
of a double sum or a level of the Bailey chain, goes through one kernel,
``_sum_of_products``: each pair of slices is one signed Kronecker product
in slots wide enough for the whole sum, unpacked once, and each series
keeps its slices as last packed for the next sum.  Only a product with a
one-term operand shifts the other one instead; the comment above the
kernel says why.
Pochhammer products (a; q^k)_n and their inverses never go factor by
factor through ``*``: their builders hold the result packed into
integers, as the kernel does, so each factor is one bignum shift and
subtraction, and dividing by one is a few shift-adds; the comment above
them gives the slot width.  The paper's single sums walk their term
ratio on dense lists instead (``_ratio_sum``), through two helpers that
apply one factor (``_times_factor``) or divide by one
(``_divide_factor``), so no term of such a sum is built on its own.
"""

from __future__ import annotations

import sys
from array import array
from collections import namedtuple
from collections.abc import Callable, Iterable, Mapping
from functools import lru_cache
from itertools import accumulate, compress, count, repeat
from math import gcd, isqrt, log, pi, sqrt
from operator import add, mul, sub
from types import MappingProxyType

Key = tuple[int, int, int]
Mark = tuple[int, int]
Slices = dict[Mark, tuple[int, list[int]]]  # (dz, dw) -> (lowest e2, coefficients from it)

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


class FactorSpec(namedtuple("FactorSpec", "sign e2 step2 dz dw", defaults=(0, 0))):
    """Family of factors (1 - sign * q^((e2 + j*step2)/2) z^dz w^dw), j = 0, 1, ...

    ``sign=+1`` gives the plain product (x; .)_n, ``sign=-1`` encodes the
    negated argument (-x; .)_n, i.e. factors (1 + ...).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if self.e2 < 0:
            raise ValueError("negative q-exponent in factor")
        if self.step2 <= 0:
            raise ValueError("step2 must be positive")
        if self.dz < 0 or self.dw < 0:
            raise ValueError("marker degrees must be nonnegative")
        return self


class TruncSeries:
    """Exact series {(e2, dz, dw): coeff}, truncated at q^(order2/2), and
    stored as its marker slices."""

    # the packing inputs and the slices packed at the last (step, width), kept by the kernel
    __slots__ = ("_by_mark", "_order2", "_summary", "_packed")

    def __init__(self, terms: Mapping[Key, int], order2: int):
        if order2 <= 0:
            raise ValueError("order2 must be positive")
        groups: dict[Mark, dict[int, int]] = {}
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
            groups.setdefault((dz, dw), {})[e2] = c
        self._by_mark = {}
        for mark, g in groups.items():
            low = min(g)
            v = [0] * (max(g) - low + 1)
            for e2, c in g.items():
                v[e2 - low] = c
            self._by_mark[mark] = (low, v)
        self._order2 = order2
        self._summary = self._packed = None

    @classmethod
    def _of(cls, by_mark: Slices, order2: int) -> "TruncSeries":
        """Slices already in stored form, with nonzero ends, below order2
        and within the marker bound, so they are not checked again: each
        operation that can pass the marker bound checks it itself."""
        s = object.__new__(cls)
        s._by_mark = by_mark
        s._order2 = order2
        s._summary = s._packed = None
        return s

    @property
    def order2(self) -> int:
        return self._order2

    @property
    def terms(self) -> Mapping[Key, int]:
        """The nonzero terms {(e2, dz, dw): c}, a read-only view built on each call."""
        terms = {(low + i, dz, dw): c for (dz, dw), (low, v) in self._by_mark.items()
                 for i, c in enumerate(v) if c}
        return MappingProxyType(terms)

    # -- basic protocol -------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._by_mark)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self._order2 == other._order2 and self._by_mark == other._by_mark

    __hash__ = None  # compared by value; no caller keys on a series, and a hash would read it all

    def __repr__(self) -> str:
        return f"TruncSeries({dict(sorted(self.terms.items()))}, {self._order2})"

    # -- inspection -----------------------------------------------------

    def max_e2(self) -> int:
        """Largest stored exponent, -1 for the zero series."""
        return max((low + len(v) - 1 for low, v in self._by_mark.values()), default=-1)

    @property
    def is_univariate(self) -> bool:
        return self._by_mark.keys() <= {(0, 0)}

    # -- arithmetic -----------------------------------------------------

    def __neg__(self) -> "TruncSeries":
        return self.scale(-1)

    def scale(self, c: int) -> "TruncSeries":
        if c == 0:
            return TruncSeries._of({}, self._order2)
        return TruncSeries._of(
            {mark: (low, list(map(mul, v, repeat(c)))) for mark, (low, v) in self._by_mark.items()},
            self._order2,
        )

    def __add__(self, other) -> "TruncSeries":
        if not isinstance(other, TruncSeries):
            return NotImplemented
        order2 = min(self._order2, other._order2)
        a, b = self._by_mark, other._by_mark
        out: Slices = {}
        for mark in a.keys() | b.keys():
            if mark in a and mark in b:
                # both spans in one list from the lower start, cut at order2
                (la, va), (lb, vb) = a[mark], b[mark]
                low = min(la, lb)
                acc = [0] * (min(order2, max(la + len(va), lb + len(vb))) - low)
                _add_at(acc, va, la - low)
                _add_at(acc, vb, lb - low)
                _put(out, mark, low, acc)
            else:
                low, v = a.get(mark) or b[mark]
                if low < order2:
                    _put(out, mark, low, v if low + len(v) <= order2 else v[: order2 - low])
        _check_markers(out, order2)
        return TruncSeries._of(out, order2)

    def __sub__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.__add__(-other)

    def __mul__(self, other) -> "TruncSeries":
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, TruncSeries):
            return NotImplemented
        order2 = min(self._order2, other._order2)
        if _is_term(other):
            return _shifted(self, other, order2)
        if _is_term(self):
            return _shifted(other, self, order2)
        return _sum_of_products([(self, other)], order2)

    def __rmul__(self, other):
        return self.__mul__(other)


def _put(out: Slices, mark: Mark, low: int, v: list[int]) -> None:
    """Stores v, the coefficients from e2 = low up, under mark without its
    zero ends (v itself if it has none), or nothing when all are zero."""
    first = next(compress(count(), v), None)
    if first is None:
        return
    end = len(v) - next(compress(count(), reversed(v)))
    out[mark] = (low + first, v[first:end] if first or end < len(v) else v)


def _add_at(acc: list[int], v: list[int], at: int) -> None:
    """Adds v into acc from index at on, as far as acc reaches."""
    end = min(len(acc), at + len(v))
    acc[at:end] = map(add, acc[at:end], v)


def _check_markers(by_mark: Slices, order2: int) -> None:
    if any(dz + dw > order2 for dz, dw in by_mark):
        raise ValueError("marker degree exceeds truncation order")


# -- multiplication kernel ----------------------------------------------
#
# A lone product with a one-term operand shifts the other one: each slice
# moves its lowest exponent and marker degrees, and a cut of its list below
# order2 is scaled.  The packed product below would give the same terms,
# but one-term operands, such as the monomial heads of the paper's sums, are
# common.  Sending every product through _sum_of_products instead raised
# the benchmark's median wall_s on catalog-full from 0.183 to 0.197 s
# (slower in 4 of 4 pairs) and on marked-series from 0.112 to 0.115 s
# (2 of 4); series-deep stayed at 0.077 s (scripts/bench_pairs.py, 4
# alternating pairs of 6 s runs, seeds 1-4, 2-core x86-64 host, Python
# 3.11.7).
#
# Any other product, and every sum of products (one-term operands and all),
# is one call of _sum_of_products: each pair of marker slices of each pair
# of operands is one signed Kronecker product, added under
# (dz_a + dz_b, dw_a + dw_b).  A slice pair whose lowest exponents already
# sum past order2 is skipped.
#
# Packing.  A slice with lowest exponent l is packed in slots (e2 - l) / g,
# where g divides the offset from l of every nonzero coefficient of every
# slice of every operand (most slices here step by 4 or 8).  Each
# coefficient fills its B-bit slot in two's complement, B holding the sum
# over the pairs of max|x| * max|y| * 2^bits(min(terms)) plus a sign bit:
# a coefficient of one product sums at most min(terms) term products, so
# every slot of the whole sum, not only of its largest product, lies in
# [-2^(B-1), 2^(B-1)).  Each operand's gcd, max|c| and term count are read
# once and kept with it, since it cannot change, and so are its slices
# packed at the last (g, B): a cached inverse that many rows read is packed
# once.  A negative c fills its slot as c + 2^B, which sets the slot's top
# bit, so 2^B is taken back at each such slot.  Adding 2^(B-1) to every
# slot then makes each a digit in [0, 2^B), and no slot borrows from the
# next.  A pair's product starts at l_a + l_b; the products under one
# (dz, dw) and one residue of l_a + l_b mod g are shifted into place and
# added as integers, and each sum is unpacked once, below order2, through
# array for 1, 2, 4 or 8 bytes on little-endian machines, into every g-th
# entry of one dense list per (dz, dw).

_ARRAY_CODES = {array(c).itemsize: c for c in "BHIQ"} if sys.byteorder == "little" else {}


def _summary_of(s: TruncSeries) -> tuple[int, int, int]:
    """The gcd of the nonzero offsets of every slice of s (0 when each is
    one term long), its largest |c| and its nonzero count, read from its
    stored slices once: a series cannot change."""
    if s._summary is None:
        lists = [v for _, v in s._by_mark.values()]
        step = 0
        for v in lists:
            step = gcd(step, *compress(count(), v))
            if step == 1:
                break
        s._summary = (step, max(max(map(max, lists)), -min(map(min, lists))),
                      sum(len(v) - v.count(0) for v in lists))
    return s._summary


def _slot_bytes(bits: int) -> int:
    """Bytes per slot for coefficients below 2^bits in absolute value: a
    sign bit more, rounded up to an array item size where one fits."""
    width = (bits + 8) // 8
    return 1 << (width - 1).bit_length() if width <= 8 else width


def _is_term(s: TruncSeries) -> bool:
    return len(s._by_mark) == 1 and len(next(iter(s._by_mark.values()))[1]) == 1


def _shifted(s: TruncSeries, term: TruncSeries, order2: int) -> TruncSeries:
    """s times a one-term series c q^(e/2) z^dz w^dw: every slice of s moves."""
    ((dz, dw), (e, (c,))), = term._by_mark.items()
    out: Slices = {}
    for (z, w), (low, v) in s._by_mark.items():
        if low + e < order2:
            _put(out, (z + dz, w + dw), low + e, list(map(mul, v[: order2 - low - e], repeat(c))))
    _check_markers(out, order2)
    return TruncSeries._of(out, order2)


def _sum_of_products(pairs: list[tuple[TruncSeries, TruncSeries]], order2: int) -> TruncSeries:
    """The sum of x * y over the pairs (x, y), below order2 and the bound
    of every operand, packed as the comment above says."""
    order2 = min([order2, *(s._order2 for pair in pairs for s in pair)])
    pairs = [(x, y) for x, y in pairs if x._by_mark and y._by_mark]
    if not pairs:
        return TruncSeries._of({}, order2)
    step = bound = 0
    for x, y in pairs:
        (sx, bx, tx), (sy, by, ty) = _summary_of(x), _summary_of(y)
        step = gcd(step, sx, sy)
        bound += (bx * by) << min(tx, ty).bit_length()
    # every slice of every operand one term long: no offset, and any step will do
    step, width = step or 1, _slot_bytes(bound.bit_length())
    packed: dict[tuple[int, int, int], list[int]] = {}  # (dz, dw, residue) -> [sum, slots]
    for x, y in pairs:
        for s in (x, y):  # each slice as (mark, lowest e2, value, slot count)
            if s._packed is None or s._packed[0] != (step, width):
                s._packed = ((step, width), [(mark, low, *_pack(v, step, width))
                                             for mark, (low, v) in s._by_mark.items()])
        for (za, wa), la, pa, na in x._packed[1]:
            for (zb, wb), lb, pb, nb in y._packed[1]:
                low = la + lb
                if low >= order2:
                    continue
                residue, base = low % step, low // step
                slots = min(base + na + nb - 1, (order2 - residue + step - 1) // step)
                prod = (pa * pb) << (8 * width * base)
                acc = packed.get((za + zb, wa + wb, residue))
                if acc is None:
                    packed[za + zb, wa + wb, residue] = [prod, slots]
                else:
                    acc[0] += prod
                    acc[1] = max(acc[1], slots)
    dense: dict[Mark, list[int]] = {}
    for (dz, dw, residue), (val, slots) in packed.items():
        if (dz, dw) not in dense:
            dense[dz, dw] = [0] * order2
        dense[dz, dw][residue : residue + step * slots : step] = _digits(val, slots, width)
    out: Slices = {}
    for mark, v in dense.items():
        _put(out, mark, 0, v)
    _check_markers(out, order2)
    return TruncSeries._of(out, order2)


def _pack(v: list[int], step: int, width: int) -> tuple[int, int]:
    """v[::step] packed into slots of width bytes, and the slot count."""
    v = v[::step]
    code = _ARRAY_CODES.get(width)
    raw = (array(code.lower(), v) if code
           else b"".join(c.to_bytes(width, "little", signed=True) for c in v))
    val = int.from_bytes(raw, "little")
    # 2^B back at each slot whose top bit a negative coefficient set
    bits = 8 * width
    ones = int.from_bytes((1).to_bytes(width, "little") * len(v), "little")
    return val - (((val >> (bits - 1)) & ones) << bits), len(v)


def _digits(val: int, nslots: int, width: int) -> list[int]:
    """The signed coefficients in the first nslots slots of a packed value:
    each slot c + 2^(B-1), its top bit flipped, reads as c."""
    size = width * nslots
    bias = int.from_bytes((1 << (8 * width - 1)).to_bytes(width, "little") * nslots, "little")
    raw = (((val + bias) & ((1 << 8 * size) - 1)) ^ bias).to_bytes(size, "little")
    code = _ARRAY_CODES.get(width)
    return array(code.lower(), raw).tolist() if code else [
        int.from_bytes(raw[i : i + width], "little", signed=True) for i in range(0, len(raw), width)
    ]


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
    out: Slices = {}
    for mark, (low, v) in s._by_mark.items():
        if low < order2:
            _put(out, mark, low, v[: order2 - low])
    _check_markers(out, order2)
    return TruncSeries._of(out, order2)


def series_diff(got: TruncSeries, want: TruncSeries) -> tuple[Key, int, int] | None:
    """First differing key through the common truncation range.

    Returns (key, expected, got) sorted by (e2, dz, dw), or None.
    """
    if got._by_mark == want._by_mark:
        return None
    bound = min(got.order2, want.order2)
    a, b = got.terms, want.terms
    for k in sorted({k for k in a if k[0] < bound} | {k for k in b if k[0] < bound}):
        if a.get(k, 0) != b.get(k, 0):
            return (k, b.get(k, 0), a.get(k, 0))
    return None


def q_coefficients(s: TruncSeries, n_max: int) -> list[int]:
    """[coeff of q^0, ..., coeff of q^n_max] along the pure-q axis."""
    if 2 * n_max >= s.order2:
        raise ValueError("q_coefficients beyond truncation order")
    low, v = s._by_mark.get((0, 0), (0, []))
    return [v[e2 - low] if 0 <= e2 - low < len(v) else 0 for e2 in range(0, 2 * n_max + 1, 2)]


def collapse_zw(s: TruncSeries) -> TruncSeries:
    """Substitute z = w = 1, folding marker degrees into the q-axis."""
    acc = [0] * (s.max_e2() + 1)
    for low, v in s._by_mark.values():
        _add_at(acc, v, low)
    return _from_lists([acc], 0, 0, s.order2)


def _dilate(s: TruncSeries, order2: int) -> TruncSeries:
    """s with q replaced by q^2, every e2 doubled, truncated at order2 <= 2 s.order2."""
    out: Slices = {}
    for mark, (low, v) in s._by_mark.items():
        if 2 * low < order2:
            _put(out, mark, 2 * low, _spread(v, 2, min(order2 - 2 * low, 2 * len(v) - 1)))
    _check_markers(out, order2)
    return TruncSeries._of(out, order2)


def zw_slice(s: TruncSeries, dw: int) -> TruncSeries:
    """Sub-series of w-degree dw, degrees kept in place."""
    return TruncSeries._of({m: sl for m, sl in s._by_mark.items() if m[1] == dw}, s.order2)


# -- Pochhammer products ------------------------------------------------
#
# A family's exponents are multiples of g = gcd(e2, step2), so its product
# and inverse are packed into n = ceil(order2 / g) slots of B bits: the
# series in y = q^(g/2) at y = 2^B, mod 2^(B n), one integer per power k
# of its marker M = z^dz w^dw (one integer when it has none).  A factor
# (1 - s q^(e/2) M) is V_k -= s (V_(k-1) << B e/g), from the highest k
# down, so each integer is read before it is written; a new top integer
# is opened only while its lowest term, at the degree, is visible.
# Dividing by (1 - s x) multiplies by (1 + s x) (1 + x^2) (1 + x^4) ...
# up to the truncation: 1/(1 - x) = prod (1 + x^(2^i)).  Reduction mod
# 2^(B n) is a ring homomorphism from Z[y]/(y^n), so values may wrap on
# the way and only the final coefficients must fit a slot.  In a product
# the coefficient of M^k y^m counts with signs the sets of k distinct parts
# e/g summing to m, at most 2 d(m) for d(m) the partitions of m into distinct
# parts (the 2 covers a part 0 of an unmarked family with e2 = 0); in an
# inverse it counts partitions of m, at most p(m).  Both are at most
# 2 p(m) < 2 e^(pi sqrt(2m/3)) (Apostol, Introduction to Analytic Number
# Theory, Thm 14.5), and B holds that for m = n, plus a sign bit.


def _check_divisor(f: FactorSpec) -> None:
    if f.dz or f.dw:
        raise ValueError("inverse of a marked family is not built")
    if f.e2 == 0:
        raise ValueError("inverse needs a positive first exponent")


def _from_lists(lists: list[list[int]], dz: int, dw: int, order2: int) -> TruncSeries:
    """The series whose M^k part, M = z^dz w^dw, is lists[k], a list from
    e2 = 0 at most order2 long that no one writes again."""
    out: Slices = {}
    for k, v in enumerate(lists):
        _put(out, (k * dz, k * dw), 0, v)
    _check_markers(out, order2)
    return TruncSeries._of(out, order2)


def _spread(v: list[int], g: int, size: int) -> list[int]:
    """A list of size entries with v[i] at entry i g and zeros between,
    v cut to the entries that fit."""
    out = [0] * size
    out[::g] = v[: -(-size // g)]
    return out


def _exponents(f: FactorSpec, n: int | None, order2: int) -> range:
    """The visible exponents of the first n factors (all of them for None)."""
    stop = order2 if n is None else min(order2, f.e2 + n * f.step2)
    return range(f.e2, stop, f.step2)


def _slots(f: FactorSpec, order2: int) -> tuple[int, int, int, int]:
    """The slot step g, the slot count n, the bits per slot and the mask of
    n slots of the family's product and inverse."""
    g = gcd(f.e2, f.step2)
    n = -(-order2 // g)
    bits = 8 * _slot_bytes(int(pi * sqrt(2 * n / 3) / log(2)) + 2)
    return g, n, bits, (1 << bits * n) - 1


def _dense_product(f: FactorSpec, exps: range, order2: int) -> TruncSeries:
    g, n, bits, mask = _slots(f, order2)
    op = sub if f.sign == 1 else add
    marked = 1 if f.dz or f.dw else 0
    vals = [1]
    degree = 0
    for e in exps:
        degree += e
        if marked and degree < order2:
            vals.append(0)
        shift = bits * (e // g)
        for k in range(len(vals) - 1, marked - 1, -1):
            vals[k] = op(vals[k], vals[k - marked] << shift) & mask
    lists = [_spread(_digits(v, n, bits // 8), g, order2) for v in vals]
    return _from_lists(lists, f.dz, f.dw, order2)


def _dense_inverse(f: FactorSpec, exps: range, order2: int) -> TruncSeries:
    _check_divisor(f)
    g, n, bits, mask = _slots(f, order2)
    v = 1
    for e in exps:
        shift, op = bits * (e // g), add if f.sign == 1 else sub
        while shift < bits * n:
            v = op(v, v << shift) & mask
            shift, op = 2 * shift, add
    return _from_lists([_spread(_digits(v, n, bits // 8), g, order2)], 0, 0, order2)


# The single sums walk their terms on dense lists instead: a term is not a
# product or an inverse, so no partition number bounds its coefficients.
def _times_factor(lists: list[list[int]], e: int, sign: int, marked: int) -> None:
    """Multiplies the lists, of equal length, by (1 - sign q^(e/2) M) in
    place, from the highest k down; marked is 1 when list k holds the
    terms of M^k, 0 for one unmarked list, its own source."""
    op = sub if sign == 1 else add
    for k in range(len(lists) - 1, marked - 1, -1):
        v, src = lists[k], lists[k - marked]
        v[e:] = map(op, v[e:], src[: len(v) - e])


def _divide_factor(v: list[int], e: int, sign: int) -> None:
    """Divides v by (1 - sign q^(e/2)) in place, e > 0, a block of e at a
    time, each reading the block below it that is already divided; or,
    for sign 1 and more than e blocks, as a running sum over each residue
    class mod e, e C-level passes in place of one Python step per block."""
    if sign == 1 and e * e < len(v):
        for r in range(e):
            v[r::e] = accumulate(v[r::e])
        return
    op = add if sign == 1 else sub
    for b in range(e, len(v), e):
        v[b : b + e] = map(op, v[b : b + e], v[b - e : b])


def _divided(s: TruncSeries, e: int) -> TruncSeries:
    """s / (1 - q^(e/2)), e > 0, each slice divided on its own list
    continued to order2: the factor has no marker, so no slice moves."""
    out: Slices = {}
    for mark, (low, v) in s._by_mark.items():
        v = v + [0] * (s._order2 - low - len(v))
        _divide_factor(v, e, 1)
        _put(out, mark, low, v)
    return TruncSeries._of(out, s._order2)


def _ratio_sum(
    order2: int, exp2: Callable[[int], int], num: FactorSpec | None, den: list[FactorSpec]
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
