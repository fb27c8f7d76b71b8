"""Exact arithmetic kernel.

Everything downstream is built from six value types plus a handful of free
functions, all exact (int / fractions.Fraction, never floats):

* dense polynomials: plain lists/tuples of integer coefficients indexed by
  exponent (``poly_strip``, ``poly_mul`` and the (1 - t**m) helpers below);
* ``FracPoly``: a polynomial whose exponents live in (1/w)Z, stored as a map
  ``e -> c`` meaning ``c * t**(e/w)`` (public API; both pipelines project
  through ``cleared_section`` instead);
* ``RationalT``: a one-variable rational function in the factored shape
  ``t**shift * num(t) / prod (1 - t**m)**e``.  Keeping the denominator as a
  multiset of ``(1 - t**m)`` factors keeps degrees small and makes the order
  of the pole at t = 1 readable.  Values are kept in a greedy-peel normal
  form ``(shift, num, den)``, which ``render_rational_t`` prints;
* ``BiPoly``: a two-variable polynomial ``sum c * u**a * v**b`` as a map
  ``(a, b) -> c``, which ``render_bipoly`` prints;
* ``HodgeTable``: the grid h^{p,q} that ``hodge_table`` reads off an
  E-polynomial, E = sum (-1)^(p+q) h^{p,q} u^p v^q; both pipelines import
  this module, so the stringy and the orbifold grids have this one reader;
* ``EFunction``: a finite sum of u**a v**b * R(uv) with R a RationalT, the
  shape of every E-function both pipelines build.  Every term is a
  polynomial in u/v times a rational function of t = uv, so it stores a map
  (a, b) -> R(t) with min(a, b) = 0: the monomial key u**a v**b rides on the
  off-diagonal degree a - b, so distinct keys can never cancel and equality
  may be tested key by key.

Printed forms: ``_signed_sum`` writes every sum of signed monomials, as in
``1 - 3*t``; ``render_bipoly`` and ``render_rational_t`` write the
polynomials in u, v and the rational functions of t with it.  The CLI
prints with those, and each repr wraps the writer of its type.

Operators are written once, in ``_Value``: ``+``, ``-`` and ``==`` ask the
type's ``_pair`` for both operands on common ground (an int lifts to a
RationalT, an int or a Fraction to a FracPoly or a BiPoly, and two
FracPolys are rescaled to the lcm of their denominators), and return
NotImplemented for an operand it does not take.  ``*`` and unary ``-`` are
``_Ring``'s: RationalT, FracPoly and BiPoly multiply, an EFunction does
not.  FracPoly and BiPoly add and multiply their ``terms`` maps with
``_sparse_sum`` and ``_sparse_product``.  Equality is by value, so no value
is hashable.

Every division by 1 - t**m is a stride-m running sum, ``accumulate`` over
each residue class mod m: ``series_quotient`` for series and
``div_one_minus_tm`` for exact polynomial division.  Multiplication by
1 - t**m (``mul_one_minus_tm``) is one subtraction per coefficient.

The arithmetic runs on (shift, num, den) triples of plain ints, lists and
dicts, in one kernel: ``_peel`` makes the normal form, ``_fold`` sums in
the form the left fold of ``+`` gives, ``_product`` multiplies by a
polynomial and peels, and ``_scaled`` multiplies by a nonzero int, which
needs no peel.  Both halves, the stringy face assembly and the orbifold
sector sum, run on the triples and build objects only for what their
records keep; ``rational_sum``, ``RationalT.mul_poly`` and ``EFunction``
wrap the kernel for the public API.  The peel divides out each factor
(1 - t**m) that divides the numerator, smallest m first, by stride-m
running sums: O(deg) a factor, with num(1) summed once per numerator
(num(1) != 0 means no factor divides) and a reject at the first residue
class mod m whose coefficients do not sum to zero.  Shifts, negation,
multiplication by a nonzero int and t -> 1/t keep the form normal and
skip the peeling.  Limits at t = 1 (``limit_at_one``,
``EFunction.value_at_one``) are integers to the end: a numerator and a
product of m**e, then one Fraction.

The averaging projector ``[.]_int`` keeps exactly the monomials of a FracPoly
whose exponent is an integer; it equals the mean over the w-th roots of unity
substituted for t**(1/w), which is what makes it commute with multiplication
by integral polynomials (``reynolds_factor_property``).

The stringy brackets and the orbifold sectors are projections of a
rational function of s = t**(1/w) to the rational function of t made of
every w-th coefficient.  They are exact: each factor 1 - s**c divides some
1 - t**m, so clearing them leaves a polynomial numerator to split by
residue mod w.  Clearing goes one coin at a time (``extend_cleared``) and
the split is ``cleared_section``.  ``multisection`` does both for the
orbifold sectors; the stringy brackets share factors over the subset
lattice, so ``stringy`` extends one cleared product per subset and cuts
its section in ``stringy._finish``.

``rational_from_counts`` and ``series_to_rational`` turn a finite run of
series coefficients with a known denominator into a certified RationalT:
the numerator must terminate within the degree bound and every guard-band
coefficient past it must vanish, otherwise ReconstructionFailure is raised.
The pipelines do not use them; they are the reference for ``multisection``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, repeat
from math import gcd, lcm, prod
from operator import add, sub
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .errors import (
    NegativeExponent,
    NonIntegerCoefficient,
    NotPolynomial,
    OutOfRange,
    PoleAtOne,
    ReconstructionFailure,
    SignPatternViolation,
)

Factor = Tuple[int, int]  # (m, e) standing for (1 - t**m)**e


# ---------------------------------------------------------------------------
# dense integer polynomials


def poly_strip(coeffs: List) -> List:
    """Drop trailing zeros in place and return the list."""
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def poly_mul(a: Sequence, b: Sequence) -> List:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] += ca * cb
    return poly_strip(out)


def mul_one_minus_tm(a: Sequence[int], m: int) -> List[int]:
    """a * (1 - t**m): one subtraction per coefficient."""
    return list(map(sub, chain(a, repeat(0, m)), chain(repeat(0, m), a)))


def div_one_minus_tm(a: Sequence[int], m: int) -> Optional[List[int]]:
    """Quotient of a by (1 - t**m), or None when a remainder is left.

    ``a`` must be stripped (no trailing zeros).  No 1 - t**m divides an a
    with a(1) != 0, as t = 1 is a root of it; otherwise ``_div_one_minus_tm``
    divides."""
    if sum(a):  # a(1) != 0: the root t = 1 of 1 - t**m is missing
        return None
    return _div_one_minus_tm(a, m)


def _div_one_minus_tm(a: Sequence[int], m: int) -> Optional[List[int]]:
    """``div_one_minus_tm`` for a stripped a with a(1) = 0, which the caller
    has summed (``_peel`` once per numerator, ``_limit_parts`` before each
    division).

    From a = (1 - t**m) q, q[i] = a[i] + q[i - m]: along each residue class
    mod m the quotient is a running sum of a, and the division is exact iff
    every class sums to zero (a vanishes at each m-th root of unity).  The
    class sums are tested one class at a time, so a failing division stops
    at the first nonzero class without building the quotient; the top m
    running sums would be the (zero) class sums and are not taken.  When
    len(a) <= m every class holds at most one coefficient, and the top one
    is nonzero.  These are ``series_quotient``'s running sums, kept here: on
    the peel's hot path most divisions are short and by 1 - t, where a call
    into it costs more than the sums."""
    if m == 1:
        return list(accumulate(a[:-1]))
    for r in range(1, m):  # with a(1) = 0, class 0 sums to zero with these
        if sum(a[r::m]):
            return None
    n = len(a) - m
    q = [0] * n
    for r in range(m):
        q[r::m] = accumulate(a[r:n:m])
    return q


def expand_factors(factors: Iterable[Factor]) -> List[int]:
    """Dense coefficients of prod (1 - t**m)**e."""
    out = [1]
    for m, e in factors:
        for _ in range(e):
            out = mul_one_minus_tm(out, m)
    return out


def series_quotient(num: Sequence[int], den: Iterable[Factor], n: int) -> List[int]:
    """First n+1 coefficients of num(t) / prod (1 - t**m)**e expanded at
    t = 0.  The one stride-m kernel for 1/(1 - t**m) series: h = g / (1 -
    t**m) has h[i] = g[i] + h[i - m], a running sum ``accumulate`` over the
    slice g[r::m] for each residue r < min(m, n + 1)."""
    g = list(num[: n + 1])
    g.extend(repeat(0, n + 1 - len(g)))
    for m, e in den:
        for _ in range(e):
            for r in range(min(m, n + 1)):
                g[r::m] = accumulate(g[r::m])
    return g


def _merge_factors(factors: Iterable[Factor]) -> Tuple[Factor, ...]:
    acc: Dict[int, int] = {}
    for m, e in factors:
        if m < 1 or e < 1:
            raise ValueError("denominator factors need m >= 1 and e >= 1")
        acc[m] = acc.get(m, 0) + e
    return tuple(sorted(acc.items()))


# ---------------------------------------------------------------------------
# the (shift, num, den) kernel
#
# A rational function t**shift * num / prod (1 - t**m)**den[m] is worked on
# as a triple (shift, num, den): num a list (or tuple) of ints, den a dict
# m -> e (the module docstring names the steps).  A triple is never changed
# in place once made: each step builds its own lists.

Triple = Tuple[int, Sequence[int], Dict[int, int]]


def _check_ints(coeffs: Iterable, error: type = NonIntegerCoefficient) -> None:
    """Raise error unless every coefficient is an int: NonIntegerCoefficient,
    an internal fault, for the pipelines' own polynomials, and TypeError for
    a caller's numerator (``RationalT``, ``RationalT.mul_poly``)."""
    if not all(map(isinstance, coeffs, repeat(int))):
        raise error("numerator coefficients must be ints")


def _peel(coeffs: List[int], shift: int, facs: Mapping[int, int]) -> Triple:
    """The normal form (see ``RationalT``) of
    t**shift * coeffs / prod (1 - t**m)**facs[m], as (shift, num, den) with
    num a list and den a new dict in increasing m; consumes ``coeffs``.

    The factors are tried smallest m first, each as often as it divides.
    No 1 - t**m divides a numerator N with N(1) != 0, so N(1) is summed
    once per numerator and a nonzero one ends the peeling."""
    poly_strip(coeffs)
    if not coeffs:
        return 0, coeffs, {}
    lead_zero = 0
    while coeffs[lead_zero] == 0:
        lead_zero += 1
    if lead_zero:
        shift += lead_zero
        del coeffs[:lead_zero]
    at_one = sum(coeffs)
    den = {}
    for m in sorted(facs):
        e = facs[m]
        while e and not at_one:
            q = _div_one_minus_tm(coeffs, m)
            if q is None:
                break
            coeffs = q
            e -= 1
            at_one = sum(coeffs)
        if e:
            den[m] = e
    return shift, coeffs, den


def _fold(terms: Iterable[Triple]) -> Triple:
    """The sum of normal-form triples, in the form the left fold of ``+`` gives.

    Each step brings the running sum and the next term onto their
    union-max denominator (for each m the larger exponent of 1 - t**m),
    adds the numerators as plain integer lists aligned at the smaller shift
    and peels.  Zero terms are skipped, as ``+`` skips them, and a single
    nonzero term comes back as it is.

    The fold order is kept on purpose: the greedy-peel form depends on the
    denominator it is peeled over, so peeling once over the union of all
    the terms' denominators can give another form of the same value.
    """
    shift, num, den = 0, (), {}
    own = False  # whether num and den are this fold's own to change
    for t_shift, term, t_den in terms:
        if not term:
            continue
        if not num:  # nothing summed yet, or a sum that cancelled: 0 + t is t
            shift, num, den, own = t_shift, term, t_den, False
            continue
        if not own:
            num, den, own = list(num), dict(den), True
        for m, e in t_den.items():
            have = den.get(m, 0)
            if e > have:
                for _ in range(e - have):
                    num = mul_one_minus_tm(num, m)
                den[m] = e
        for m, e in den.items():
            for _ in range(e - t_den.get(m, 0)):
                term = mul_one_minus_tm(term, m)
        if t_shift < shift:
            num[:0] = [0] * (shift - t_shift)
            shift = t_shift
        lo = t_shift - shift
        hi = lo + len(term)
        if hi > len(num):
            num.extend([0] * (hi - len(num)))
        num[lo:hi] = map(add, num[lo:hi], term)
        shift, num, den = _peel(num, shift, den)
    return shift, num, den


def _scaled(t: Triple, c: int) -> Triple:
    """c * t for a nonzero int c, without a peel: 1 - t**m is primitive, so
    by Gauss's lemma it divides c * num iff it divides num."""
    shift, num, den = t
    return shift, [c * x for x in num], den


def _product(t: Triple, poly: Sequence[int]) -> Triple:
    """t * poly(t) for a normal-form t, peeled over t's own denominator:
    it is merged and sorted already, so only the product is checked.  A
    nonzero constant poly keeps the form (``_scaled``)."""
    shift, num, den = t
    if len(poly) == 1 and poly[0] and num:
        return t if poly[0] == 1 else _scaled(t, poly[0])
    return _peel(poly_mul(num, poly), shift, den)


def _reflected(t: Triple) -> Triple:
    """t(1/t) for a normal-form t, in normal form without a peel: (1 - t**-m)
    = -t**-m (1 - t**m), so each factor keeps its m and gives a sign and a
    power of t, and the reversed numerator vanishes at the same roots of
    unity as the numerator.  Applying it twice is the identity.  The
    numerator comes back a tuple, as a RationalT holds it, so ``_same``
    matches an equal form without a product."""
    shift, num, den = t
    if not num:
        return t
    sign = -1 if sum(den.values()) % 2 else 1
    top = sum(m * e for m, e in den.items()) - len(num) + 1
    return top - shift, tuple(sign * c for c in reversed(num)), den


def _same(a: Triple, b: Triple) -> bool:
    """Whether two triples name the same rational function: each numerator
    times the other's expanded denominator, with the shifts aligned, so two
    structurally different forms of one function compare equal."""
    (s1, n1, d1), (s2, n2, d2) = a, b
    if s1 == s2 and n1 == n2 and d1 == d2:
        return True
    x = poly_mul(n1, expand_factors(d2.items()))
    y = poly_mul(n2, expand_factors(d1.items()))
    return [0] * (s1 - s2) + x == [0] * (s2 - s1) + y


# ---------------------------------------------------------------------------
# printed forms


def _signed_sum(terms: Iterable[Tuple[int, str]]) -> str:
    """The sum of the (coefficient, monomial) pairs with a nonzero
    coefficient, in their order: "-" leads a negative first term, later
    signs join as " + " and " - ", a unit coefficient is dropped before a
    monomial, and the empty monomial "" is the constant 1."""
    out = ""
    for c, mono in terms:
        if not c:
            continue
        mag = abs(c)
        body = mono if (mag == 1 and mono) else (f"{mag}*{mono}" if mono else str(mag))
        if not out:
            out = ("-" if c < 0 else "") + body
        else:
            out += (" - " if c < 0 else " + ") + body
    return out or "0"


def _uv_monomial(a: int, b: int) -> str:
    """u^a v^b, with diagonal powers contracted to (u*v)^k."""
    if a == b:
        if a == 0:
            return ""
        return "u*v" if a == 1 else f"(u*v)^{a}"
    bits = []
    if a:
        bits.append("u" if a == 1 else f"u^{a}")
    if b:
        bits.append("v" if b == 1 else f"v^{b}")
    return "*".join(bits)


def render_bipoly(p: BiPoly) -> str:
    """Graded rendering; diagonal powers contract to (u*v)^k."""
    return _signed_sum((c, _uv_monomial(a, b)) for (a, b), c in p.sorted_terms())


def render_rational_t(r: RationalT) -> str:
    """Render num/den in t (t stands for the product u*v)."""
    if r.is_zero():
        return "0"
    powers = ("" if i == 0 else "t" if i == 1 else f"t^{i}" for i in range(len(r.num)))
    out = f"({_signed_sum(zip(r.num, powers))})"
    if r.shift:
        out = f"t^{r.shift} * " + out
    if r.den:
        den = " * ".join(
            f"(1 - t^{m})" + (f"^{e}" if e > 1 else "") for m, e in r.den
        )
        out += f" / ({den})"
    return out


# ---------------------------------------------------------------------------
# the operator protocol


class _Value:
    """The operators of the value types.  ``_pair(other)`` returns both
    operands on common ground, or None for an operand the type does not
    take; the first of the pair then computes ``_plus``, ``_equals``, or for
    ``-`` ``_plus`` of the second's ``_negated``."""

    __slots__ = ()
    __hash__ = None

    def __add__(self, other):
        pair = self._pair(other)
        return NotImplemented if pair is None else pair[0]._plus(pair[1])

    __radd__ = __add__

    def __sub__(self, other):
        pair = self._pair(other)
        return NotImplemented if pair is None else pair[0]._plus(pair[1]._negated())

    def __eq__(self, other):
        pair = self._pair(other)
        return NotImplemented if pair is None else pair[0]._equals(pair[1])

    def _equals(self, other):
        return self.terms == other.terms


class _Ring(_Value):
    """A value type that multiplies (``_times``) and negates as ``self * -1``."""

    __slots__ = ()

    def __mul__(self, other):
        pair = self._pair(other)
        return NotImplemented if pair is None else pair[0]._times(pair[1])

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1

    _negated = __neg__


def _sparse_sum(x: Mapping, y: Mapping) -> Dict:
    """The ``terms`` map of a sum of two sparse polynomials."""
    out = dict(x)
    for k, c in y.items():
        out[k] = out.get(k, 0) + c
    return out


def _sparse_product(x: Mapping, y: Mapping, join) -> Dict:
    """The ``terms`` map of a product of two sparse polynomials; ``join``
    adds two exponent keys."""
    out: Dict = {}
    for k1, c1 in x.items():
        for k2, c2 in y.items():
            k = join(k1, k2)
            out[k] = out.get(k, 0) + c1 * c2
    return out


# ---------------------------------------------------------------------------
# RationalT


class RationalT(_Ring):
    """t**shift * num(t) / prod (1 - t**m)**e with integer coefficients.

    Values are immutable and kept in the greedy-peel normal form: no
    trailing zeros in num, num[0] != 0 (leading zeros fold into the shift),
    den sorted by m, and for each m in ascending order every factor
    (1 - t**m) that divides the numerator has been cancelled, by exact
    stride-m division (``div_one_minus_tm``).  After peeling no remaining
    factor divides the numerator.  Peeling is sound for polynomiality
    detection: if the value is a polynomial then every remaining factor
    divides the remaining numerator, so the factored denominator empties
    out.

    The constructor type-checks every coefficient and normalises through
    ``_peel`` alone.  Operations that provably keep the normal
    form build their result directly, without peeling again:

    * ``mul_tpower`` only moves the shift;
    * ``-r`` and ``r * k`` for a nonzero int k (``_scaled``): 1 - t**m is
      primitive, so by Gauss's lemma it divides k * num iff it divides num;
    * ``inverse_substitution``: the reversed numerator vanishes at the same
      roots of unity as num.

    Sums go through ``rational_sum``, and ``a + b`` is its two-term case.

    Equality is semantic, decided by cross-multiplication of the expanded
    denominators with shifts aligned; two structurally different forms of the
    same rational function compare equal.
    """

    __slots__ = ("shift", "num", "den")

    def __init__(self, num: Sequence[int], shift: int = 0, den: Iterable[Factor] = ()):
        _check_ints(num, TypeError)
        shift, coeffs, facs = _peel(list(num), shift, dict(_merge_factors(den)))
        self.shift = shift
        self.num: Tuple[int, ...] = tuple(coeffs)
        self.den: Tuple[Factor, ...] = tuple(facs.items())

    def _triple(self) -> Triple:
        return self.shift, self.num, dict(self.den)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "RationalT":
        return cls(())

    @classmethod
    def one(cls) -> "RationalT":
        return cls((1,))

    @classmethod
    def from_int(cls, k: int) -> "RationalT":
        return cls((k,))

    # -- basic queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_polynomial(self) -> bool:
        return not self.den and self.shift >= 0

    def as_polynomial(self) -> Tuple[int, ...]:
        """Dense coefficients (exponent-indexed, shift applied)."""
        if self.is_zero():
            return ()
        if not self.is_polynomial():
            raise NotPolynomial(f"{self!r} is not a polynomial")
        return tuple([0] * self.shift + list(self.num))

    def pole_order_at_one(self) -> int:
        return sum(e for _, e in self.den)

    # -- arithmetic ----------------------------------------------------------

    def _pair(self, other):
        if isinstance(other, int):
            other = RationalT.from_int(other)
        return (self, other) if isinstance(other, RationalT) else None

    def _plus(self, other):
        return rational_sum((self, other))

    def __rsub__(self, other):
        pair = self._pair(other)
        return NotImplemented if pair is None else pair[1] + (-self)

    def _times(self, other):
        """Peeled over self's own denominator when other has none
        (``_product``), so an int factor scales without a peel."""
        if other.den:
            return RationalT(
                poly_mul(self.num, other.num), self.shift + other.shift, self.den + other.den
            )
        shift, num, den = self._triple()
        return _rational(_product((shift + other.shift, num, den), other.num))

    def mul_tpower(self, k: int) -> "RationalT":
        """Multiply by t**k (k may be negative: Laurent shift)."""
        if self.is_zero() or not k:
            return self
        shift, num, den = self._triple()
        return _rational((shift + k, num, den))

    def mul_poly(self, coeffs: Sequence[int]) -> "RationalT":
        """self * coeffs(t), peeled over self's denominator: the normal form
        leaves den merged and sorted, so only the product is checked."""
        _check_ints(coeffs, TypeError)
        return _rational(_product(self._triple(), coeffs))

    def _equals(self, other):
        return _same(self._triple(), other._triple())

    # -- expansion ------------------------------------------------------------

    def laurent_series(self, n: int) -> Tuple[int, List[int]]:
        """(start, coefficients of t**start .. t**(start+n)) of the expansion
        at t = 0; start equals the shift since num(0) != 0."""
        return self.shift, series_quotient(self.num, self.den, n)

    def series(self, n: int) -> List[int]:
        """Coefficients of t**0 .. t**n; requires no pole at t = 0."""
        if self.is_zero():
            return [0] * (n + 1)
        if self.shift < 0:
            raise ValueError("series at t = 0 of a function with a pole there")
        start, g = self.laurent_series(n)
        return ([0] * start + g)[: n + 1]

    def inverse_substitution(self) -> "RationalT":
        """The rational function value(1/t), in the same factored shape
        (``_reflected``)."""
        return _rational(_reflected(self._triple()))

    def __repr__(self):
        return f"RationalT({render_rational_t(self)})"


def _rational(t: Triple) -> RationalT:
    """The RationalT of a normal-form triple, built without a peel."""
    shift, num, den = t
    out = object.__new__(RationalT)
    out.shift = shift
    out.num = tuple(num)
    out.den = tuple(den.items())
    return out


def rational_sum(terms: Iterable[RationalT]) -> RationalT:
    """The sum of RationalTs, in the form the left fold of ``+`` gives
    (``_fold``): the running sum stays a triple, so no RationalT is built,
    validated or re-peeled between steps."""
    return _rational(_fold(r._triple() for r in terms))


# ---------------------------------------------------------------------------
# FracPoly and the averaging projector


class FracPoly(_Ring):
    """Finite sum of c * t**(e/w) terms with a fixed exponent denominator w.

    ``terms`` maps the integer numerator e to its coefficient (int or
    Fraction).  Arithmetic between two values rescales to the lcm of their
    denominators, so mixed-denominator expressions behave as expected.
    """

    __slots__ = ("w", "terms")

    def __init__(self, w: int, terms: Mapping[int, object]):
        if w < 1:
            raise ValueError("exponent denominator must be >= 1")
        if any(e != int(e) for e in terms):
            raise ValueError("FracPoly exponent numerators must be integers")
        self.w = w
        self.terms: Dict[int, object] = {
            int(e): c for e, c in terms.items() if c != 0
        }

    @classmethod
    def zero(cls, w: int = 1) -> "FracPoly":
        return cls(w, {})

    @classmethod
    def monomial(cls, w: int, e: int, c=1) -> "FracPoly":
        return cls(w, {e: c})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def rescaled(self, new_w: int) -> "FracPoly":
        if new_w == self.w:
            return self
        if new_w % self.w:
            raise ValueError("can only rescale to a multiple of the denominator")
        k = new_w // self.w
        return FracPoly(new_w, {e * k: c for e, c in self.terms.items()})

    def _pair(self, other):
        if isinstance(other, (int, Fraction)):
            other = FracPoly(self.w, {0: other})
        if not isinstance(other, FracPoly):
            return None
        w = lcm(self.w, other.w)
        return self.rescaled(w), other.rescaled(w)

    def _plus(self, other):
        return FracPoly(self.w, _sparse_sum(self.terms, other.terms))

    def _times(self, other):
        return FracPoly(self.w, _sparse_product(self.terms, other.terms, add))

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not polynomials")
        out = FracPoly(self.w, {0: 1})
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def is_integral(self) -> bool:
        return all(e % self.w == 0 for e in self.terms)

    def as_integer_poly(self) -> Dict[int, object]:
        """{k: c} with exponents in Z; requires an integral value."""
        if not self.is_integral():
            raise ValueError("value has genuinely fractional exponents")
        return {e // self.w: c for e, c in self.terms.items()}

    def exponents(self) -> List[Fraction]:
        return sorted(Fraction(e, self.w) for e in self.terms)

    def __repr__(self):
        terms = sorted(self.terms.items())
        monomials = ((c, f"t^({Fraction(e, self.w)})" if e else "") for e, c in terms)
        return f"FracPoly({_signed_sum(monomials)})"


def integral_project(f: FracPoly) -> FracPoly:
    """[f]_int: keep the monomials with integer exponent (w | e).

    Equals the average of f over t**(1/w) -> zeta * t**(1/w) for the w-th
    roots of unity zeta, hence a projector commuting with multiplication by
    already-integral polynomials.
    """
    return FracPoly(f.w, {e: c for e, c in f.terms.items() if e % f.w == 0})


def reynolds_factor_property(p: FracPoly, q: FracPoly) -> bool:
    """Check [p * q]_int == p * [q]_int for integral p (projector averaging
    property).  Raises ValueError when p is not integral."""
    if not p.is_integral():
        raise ValueError("the fixed factor p must be integral")
    return integral_project(p * q) == p * integral_project(q)


# ---------------------------------------------------------------------------
# multisection, certified reconstruction and limits


def clearing_order(c: int, w: int) -> int:
    """m = c / gcd(c, w), the least m for which 1 - s**c divides
    1 - s**(m w) = 1 - t**m, t = s**w."""
    return c // gcd(c, w)


def extend_cleared(P: Sequence[int], c: int, w: int) -> Tuple[List[int], int]:
    """(P * (1 - s**(m w)) / (1 - s**c), m) with m = ``clearing_order(c, w)``:
    one more coin c cleared into a factor 1 - t**m of t = s**w.  The
    quotient Q is a polynomial of degree deg P + m w - c.  With G the
    series P / (1 - s**c) up to that degree (``series_quotient``), Q = G -
    s**(m w) G: one subtraction for each of the top deg P - c + 1
    coefficients."""
    m = clearing_order(c, w)
    mw = m * w
    Q = series_quotient(P, [(c, 1)], len(P) - 1 + mw - c)
    if len(Q) > mw:
        Q[mw:] = map(sub, Q[mw:], Q)
    return Q, m


def cleared_section(P: Sequence[int], ms: Sequence[int], w: int, offset: int) -> Triple:
    """sum over k of c[k w + offset] t**k, where c[e] is the coefficient of
    s**e in P(s) / prod (1 - t**m) over ms, t = s**w, as a normal-form
    triple: with r = offset mod w, the coefficients at e = r + j w are
    those of P[r::w](t) / prod (1 - t**m), and e = r + j w is
    k = j + (r - offset) / w."""
    r = offset % w
    section = P[r::w]
    _check_ints(section)
    den: Dict[int, int] = {}
    for m in ms:
        den[m] = den.get(m, 0) + 1
    return _peel(section, (r - offset) // w, den)


def multisection(num: Sequence[int], coins: Sequence[int], w: int, offset: int) -> Triple:
    """sum over k of c[k w + offset] t**k, where c[e] is the coefficient of
    s**e in num(s) / prod (1 - s**c) over the coins c (zero for e < 0), as
    a normal-form triple of a rational function of t = s**w.

    Each coin is cleared in turn (``extend_cleared``), so the series is
    P / prod (1 - t**m) with P a polynomial in s, and ``cleared_section``
    keeps every w-th coefficient of P.
    """
    P, ms = list(num), []
    for c in coins:
        P, m = extend_cleared(P, c, w)
        ms.append(m)
    return cleared_section(P, ms, w, offset)


def series_to_rational(
    series: Sequence[int], denom: Iterable[Factor], num_bound: int
) -> RationalT:
    """Certified reconstruction of sum series[k] t**k as P(t)/prod(1-t**m)**e.

    P := series * denominator, one factor 1 - t**m at a time
    (``mul_one_minus_tm``), truncated to the series length; every
    coefficient of P beyond num_bound acts as a guard residual and must be
    zero, else ReconstructionFailure.  The caller guarantees that the true
    numerator degree is at most num_bound and supplies enough terms.
    """
    facs = _merge_factors(denom)
    n = len(series) - 1
    if n < num_bound + 1:
        raise ValueError(
            f"need at least {num_bound + 2} series coefficients "
            f"(numerator bound {num_bound} plus a guard), got {n + 1}"
        )
    prod = list(series)
    for m, e in facs:
        for _ in range(e):
            prod = mul_one_minus_tm(prod, m)[: n + 1]
    bad = [k for k in range(num_bound + 1, n + 1) if prod[k]]
    if bad:
        raise ReconstructionFailure(
            f"guard residuals nonzero at degrees {bad[:4]}: "
            "the claimed denominator does not generate the series"
        )
    return RationalT(prod[: num_bound + 1], 0, facs)


def rational_from_counts(counts: Sequence[int], denom: Iterable[Factor]) -> RationalT:
    """Reconstruct sum_{k>=1} counts[k-1] t**k / prod factors from counts
    N(1..K); K must exceed the denominator degree sum so that at least one
    guard coefficient is checked."""
    facs = _merge_factors(denom)
    bound = sum(m * e for m, e in facs)
    if len(counts) < bound + 1:
        raise ValueError(
            f"need at least {bound + 1} counts for denominator degree {bound}"
        )
    return series_to_rational((0, *counts), facs, bound)


def _limit_parts(r: RationalT) -> Tuple[int, int]:
    """(n, D) with n / D the limit of r at t = 1; PoleAtOne when it is
    infinite.

    Each denominator factor is (1 - t**m) = (1 - t)(1 + ... + t**(m-1)); the
    numerator is divided by (1 - t) once per factor (one running sum each)
    and what remains is evaluated at 1, over D = prod m**e."""
    num = r.num
    for _ in range(r.pole_order_at_one()):
        if sum(num):
            raise PoleAtOne(f"{r!r} has a pole at t = 1")
        num = _div_one_minus_tm(num, 1)
    return sum(num), prod(m**e for m, e in r.den)


def limit_at_one(r: RationalT) -> Fraction:
    """Exact limit of r at t = 1; PoleAtOne when the limit is infinite."""
    return Fraction(*_limit_parts(r))


# ---------------------------------------------------------------------------
# BiPoly, the mirror transform and the Hodge grid


class BiPoly(_Ring):
    """Two-variable polynomial sum c * u**a * v**b, exponents >= 0."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Tuple[int, int], object]):
        clean: Dict[Tuple[int, int], object] = {}
        for (a, b), c in terms.items():
            key = (int(a), int(b))
            if key != (a, b):
                raise ValueError(f"BiPoly exponents must be integers, got ({a}, {b})")
            if a < 0 or b < 0:
                raise ValueError("BiPoly exponents must be non-negative")
            if c != 0:
                clean[key] = c
        self.terms = clean

    @classmethod
    def zero(cls) -> "BiPoly":
        return cls({})

    @classmethod
    def one(cls) -> "BiPoly":
        return cls({(0, 0): 1})

    @classmethod
    def monomial(cls, a: int, b: int, c=1) -> "BiPoly":
        return cls({(a, b): c})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def coefficient(self, a: int, b: int):
        return self.terms.get((a, b), 0)

    def _pair(self, other):
        if isinstance(other, (int, Fraction)):
            other = BiPoly({(0, 0): other})
        return (self, other) if isinstance(other, BiPoly) else None

    def _plus(self, other):
        return BiPoly(_sparse_sum(self.terms, other.terms))

    def _times(self, other):
        return BiPoly(
            _sparse_product(self.terms, other.terms, lambda x, y: (x[0] + y[0], x[1] + y[1]))
        )

    def __call__(self, u, v):
        return sum(c * u**a * v**b for (a, b), c in self.terms.items())

    def total_degree(self) -> int:
        return max((a + b for a, b in self.terms), default=0)

    def sorted_terms(self):
        """Graded order: by total degree, then u-exponent descending."""
        return sorted(self.terms.items(), key=lambda kv: (kv[0][0] + kv[0][1], -kv[0][0]))

    def __repr__(self):
        return f"BiPoly({render_bipoly(self)})"


def mirror_transform(p: BiPoly, dim: int) -> BiPoly:
    """(-u)**dim * p(1/u, v): sends c u**a v**b to (-1)**dim c u**(dim-a) v**b.

    Applying it twice with the same dim is the identity.  Raises
    NegativeExponent if some u-exponent of p exceeds dim.
    """
    if dim < 0:
        raise ValueError("dim must be non-negative")
    sign = -1 if dim % 2 else 1
    out: Dict[Tuple[int, int], object] = {}
    for (a, b), c in p.terms.items():
        if a > dim:
            raise NegativeExponent(
                f"u-exponent {a} exceeds dim {dim}; transform leaves a pole"
            )
        out[(dim - a, b)] = sign * c
    return BiPoly(out)


@dataclass(frozen=True)
class HodgeTable:
    """Hodge numbers h^{p,q} for 0 <= p, q <= dimension."""

    dimension: int
    grid: Tuple[Tuple[int, ...], ...]

    def h(self, p: int, q: int) -> int:
        if not (0 <= p <= self.dimension and 0 <= q <= self.dimension):
            raise OutOfRange(f"(p, q) = ({p}, {q}) outside the Hodge grid")
        return self.grid[p][q]

    def euler(self) -> int:
        """E(1, 1), the sum of the signed entries."""
        return sum(self.to_bipoly().terms.values())

    def to_bipoly(self) -> BiPoly:
        """E = sum (-1)^(p+q) h^{p,q} u^p v^q, the inverse of ``hodge_table``."""
        return BiPoly(
            {
                (p, q): -h if (p + q) % 2 else h
                for p, row in enumerate(self.grid)
                for q, h in enumerate(row)
            }
        )


def hodge_table(p: BiPoly, dim: int) -> HodgeTable:
    """Read h^{p,q} off an E-polynomial via E = sum (-1)^(p+q) h^{p,q} u^p v^q:
    the one place the sign rule is read, for the stringy E-function and for
    the orbifold side alike.

    Raises SignPatternViolation when a coefficient has the wrong sign, an
    exponent falls outside the grid, or h^{p,q} != h^{q,p}.
    """
    if dim < 0:
        raise ValueError("dim must be non-negative")
    grid = [[0] * (dim + 1) for _ in range(dim + 1)]
    for (a, b), c in p.terms.items():
        if a > dim or b > dim:
            raise SignPatternViolation(
                f"monomial u^{a} v^{b} falls outside a dimension-{dim} Hodge grid"
            )
        h = -c if (a + b) % 2 else c
        if h < 0 or h != int(h):
            raise SignPatternViolation(
                f"coefficient {c} of u^{a} v^{b} violates the (-1)^(p+q) pattern"
            )
        grid[a][b] = int(h)
    for i in range(dim + 1):
        for j in range(i):
            if grid[i][j] != grid[j][i]:
                raise SignPatternViolation(
                    f"h^{{{i},{j}}} = {grid[i][j]} but h^{{{j},{i}}} = {grid[j][i]}"
                )
    return HodgeTable(dim, tuple(tuple(row) for row in grid))


# ---------------------------------------------------------------------------
# EFunction: sums of u^a v^b * R(uv)


class EFunction(_Value):
    """Finite sum of u^a v^b * R_{a,b}(uv) with min(a, b) = 0.

    Construction folds min(a, b) into the rational part as a power of
    t = uv, sums the parts of each key in one ``_fold`` and drops
    vanishing parts, so the key set is canonical.  ``_of`` builds one from
    entries whose parts are triples of the kernel.  Equality compares the
    canonical maps; the rational parts compare semantically.
    """

    __slots__ = ("dimension", "terms")

    def __init__(self, dimension: int, entries: Iterable[Tuple[int, int, RationalT]]):
        self._collect(dimension, ((a, b, r._triple()) for a, b, r in entries))

    @classmethod
    def _of(cls, dimension: int, entries: Iterable[Tuple[int, int, Triple]]) -> "EFunction":
        """The EFunction of entries (a, b, t) with normal-form triples t."""
        out = object.__new__(cls)
        out._collect(dimension, entries)
        return out

    def _collect(self, dimension: int, entries: Iterable[Tuple[int, int, Triple]]) -> None:
        acc: Dict[Tuple[int, int], List[Triple]] = {}
        for a, b, part in entries:
            if a < 0 or b < 0:
                raise ValueError(f"EFunction exponents must be >= 0, got ({a}, {b})")
            if a and b:
                m = min(a, b)
                a, b, part = a - m, b - m, (part[0] + m, part[1], part[2])
            acc.setdefault((a, b), []).append(part)
        self.dimension = dimension
        self.terms = {}
        for key, parts in acc.items():
            total = _fold(parts)
            if total[1]:
                self.terms[key] = _rational(total)

    def iter_entries(self) -> Iterator[Tuple[int, int, RationalT]]:
        for (a, b), r in self.terms.items():
            yield a, b, r

    def _pair(self, other):
        return (self, other) if isinstance(other, EFunction) else None

    def _plus(self, other):
        return EFunction(self.dimension, chain(self.iter_entries(), other.iter_entries()))

    def _negated(self):
        return EFunction(self.dimension, ((a, b, -r) for a, b, r in self.iter_entries()))

    def is_zero(self) -> bool:
        return not self.terms

    def is_polynomial(self) -> bool:
        return all(r.is_polynomial() for r in self.terms.values())

    def to_bipoly(self) -> BiPoly:
        out: Dict[Tuple[int, int], int] = {}
        for (a, b), r in self.terms.items():
            for k, c in enumerate(r.as_polynomial()):
                if c:
                    key = (a + k, b + k)
                    out[key] = out.get(key, 0) + c
        return BiPoly(out)

    def value_at_one(self) -> Fraction:
        """Exact limit at u = v = 1 (PoleAtOne if infinite): the terms'
        limits n / D summed in integers over the lcm of the D, then one
        Fraction."""
        parts = [_limit_parts(r) for r in self.terms.values()]
        common = lcm(*(d for _, d in parts))
        return Fraction(sum(n * (common // d) for n, d in parts), common)

    def __repr__(self):
        terms = sorted(self.terms.items())
        bits = " + ".join(f"u^{a} v^{b} * {render_rational_t(r)}" for (a, b), r in terms)
        return f"EFunction({bits or 0})"
