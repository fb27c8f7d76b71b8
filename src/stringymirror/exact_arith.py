"""Exact arithmetic kernel.

Everything downstream is built from four value types plus a handful of free
functions, all exact (int / fractions.Fraction, never floats):

* dense polynomials: plain lists/tuples of integer coefficients indexed by
  exponent (helpers ``poly_*`` below);
* ``FracPoly``: a polynomial whose exponents live in (1/w)Z, stored as a map
  ``e -> c`` meaning ``c * t**(e/w)``;
* ``RationalT``: a one-variable rational function in the factored shape
  ``t**shift * num(t) / prod (1 - t**m)**e``.  Keeping the denominator as a
  multiset of ``(1 - t**m)`` factors keeps degrees small and makes the order
  of the pole at t = 1 readable;
* ``BiPoly``: a two-variable polynomial ``sum c * u**a * v**b`` as a map
  ``(a, b) -> c``.

The averaging projector ``[.]_int`` keeps exactly the monomials of a FracPoly
whose exponent is an integer; it equals the mean over the w-th roots of unity
substituted for t**(1/w), which is what makes it commute with multiplication
by integral polynomials (``reynolds_factor_property``).

``rational_from_counts`` turns a finite run of series coefficients with a
known denominator into a certified RationalT: the numerator must terminate
within the denominator degree bound and every guard-band coefficient past it
must vanish, otherwise ReconstructionFailure is raised.  The guard band can
be overridden through the MIRROR_STRINGY_GUARD environment variable.
"""

from __future__ import annotations

import os
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .errors import (
    NegativeExponent,
    NotPolynomial,
    OutOfRange,
    PoleAtOne,
    ReconstructionFailure,
)

Factor = Tuple[int, int]  # (m, e) standing for (1 - t**m)**e


# ---------------------------------------------------------------------------
# dense integer polynomials


def poly_strip(coeffs: List) -> List:
    """Drop trailing zeros in place and return the list."""
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def poly_add(a: Sequence, b: Sequence) -> List:
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return poly_strip(out)


def poly_neg(a: Sequence) -> List:
    return [-c for c in a]


def poly_sub(a: Sequence, b: Sequence) -> List:
    return poly_add(a, poly_neg(b))


def poly_scale(a: Sequence, k) -> List:
    if k == 0:
        return []
    return [c * k for c in a]


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


def poly_shift(a: Sequence, k: int) -> List:
    """Multiply by t**k, k >= 0."""
    if not a:
        return []
    return [0] * k + list(a)


def one_minus_tm(m: int) -> List[int]:
    """Coefficients of 1 - t**m."""
    out = [0] * (m + 1)
    out[0] = 1
    out[m] = -1
    return out


def poly_div_exact(a: Sequence, b: Sequence):
    """Quotient of dense polynomials, or None when a remainder is left.

    The divisor must have a unit leading coefficient, which covers every
    divisor used in this package: products of (1 - t**m) factors.
    """
    rem = list(a)
    div = poly_strip(list(b))
    if not div:
        raise ZeroDivisionError("polynomial division by zero")
    lead = div[-1]
    if lead not in (1, -1):
        raise ValueError("divisor must have a unit leading coefficient")
    poly_strip(rem)
    if not rem:
        return []
    if len(rem) < len(div):
        return None
    quot = [0] * (len(rem) - len(div) + 1)
    for i in range(len(quot) - 1, -1, -1):
        c = rem[i + len(div) - 1]
        if c:
            c *= lead
            quot[i] = c
            for k, bc in enumerate(div):
                rem[i + k] -= c * bc
    if any(rem):
        return None
    return quot


def expand_factors(factors: Iterable[Factor]) -> List[int]:
    """Dense coefficients of prod (1 - t**m)**e."""
    out = [1]
    for m, e in factors:
        f = one_minus_tm(m)
        for _ in range(e):
            out = poly_mul(out, f)
    return out


def series_quotient(num: Sequence[int], den: Iterable[Factor], n: int) -> List[int]:
    """First n+1 coefficients of num(t) / prod (1 - t**m)**e expanded at
    t = 0: one prefix-sum pass with stride m per denominator factor."""
    g = list(num[: n + 1]) + [0] * max(0, n + 1 - len(num))
    for m, e in den:
        for _ in range(e):
            for i in range(m, n + 1):
                g[i] += g[i - m]
    return g


def _merge_factors(factors: Iterable[Factor]) -> Tuple[Factor, ...]:
    acc: Dict[int, int] = {}
    for m, e in factors:
        if m < 1 or e < 1:
            raise ValueError("denominator factors need m >= 1 and e >= 1")
        acc[m] = acc.get(m, 0) + e
    return tuple(sorted(acc.items()))


def truncated_product(series: Sequence, dense: Sequence, n: int) -> List:
    """First n+1 coefficients of series * dense."""
    out = [0] * (n + 1)
    support = [(j, c) for j, c in enumerate(dense) if c]
    for i, s in enumerate(series):
        if i > n:
            break
        if s:
            for j, c in support:
                if i + j <= n:
                    out[i + j] += s * c
    return out


# ---------------------------------------------------------------------------
# RationalT


class RationalT:
    """t**shift * num(t) / prod (1 - t**m)**e with integer coefficients.

    Values are immutable.  Construction normalises: trailing zeros are
    stripped, leading zeros of the numerator are folded into the shift, and
    denominator factors that divide the numerator exactly are cancelled
    (greedy peeling).  Peeling is sound for polynomiality detection: if the
    value is a polynomial then every remaining factor divides the remaining
    numerator, so the factored denominator empties out.

    Equality is semantic, decided by cross-multiplication of the expanded
    denominators with shifts aligned; two structurally different forms of the
    same rational function compare equal.
    """

    __slots__ = ("shift", "num", "den")

    def __init__(self, num: Sequence[int], shift: int = 0, den: Iterable[Factor] = ()):
        coeffs = poly_strip(list(num))
        facs = dict(_merge_factors(den))
        if not coeffs:
            self.shift = 0
            self.num: Tuple[int, ...] = ()
            self.den: Tuple[Factor, ...] = ()
            return
        lead_zero = 0
        while coeffs[lead_zero] == 0:
            lead_zero += 1
        shift += lead_zero
        coeffs = coeffs[lead_zero:]
        for c in coeffs:
            if not isinstance(c, int):
                raise TypeError("RationalT numerators must have int coefficients")
        for m in sorted(facs):
            e = facs[m]
            factor = one_minus_tm(m)
            while e > 0:
                q = poly_div_exact(coeffs, factor)
                if q is None:
                    break
                coeffs = q
                e -= 1
            facs[m] = e
        self.shift = shift
        self.num = tuple(coeffs)
        self.den = tuple(sorted((m, e) for m, e in facs.items() if e))

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

    def expanded_den(self) -> List[int]:
        return expand_factors(self.den)

    def pole_order_at_one(self) -> int:
        return sum(e for _, e in self.den)

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RationalT):
            return other
        if isinstance(other, int):
            return RationalT.from_int(other)
        return None

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        if self.is_zero():
            return rhs
        if rhs.is_zero():
            return self
        d1 = dict(self.den)
        d2 = dict(rhs.den)
        union = {m: max(d1.get(m, 0), d2.get(m, 0)) for m in set(d1) | set(d2)}
        pad1 = [(m, union[m] - d1.get(m, 0)) for m in union if union[m] > d1.get(m, 0)]
        pad2 = [(m, union[m] - d2.get(m, 0)) for m in union if union[m] > d2.get(m, 0)]
        n1 = poly_mul(self.num, expand_factors(pad1)) if pad1 else list(self.num)
        n2 = poly_mul(rhs.num, expand_factors(pad2)) if pad2 else list(rhs.num)
        s = min(self.shift, rhs.shift)
        n1 = poly_shift(n1, self.shift - s)
        n2 = poly_shift(n2, rhs.shift - s)
        return RationalT(poly_add(n1, n2), s, union.items())

    __radd__ = __add__

    def __neg__(self):
        return RationalT(poly_neg(self.num), self.shift, self.den)

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        if self.is_zero() or rhs.is_zero():
            return RationalT.zero()
        return RationalT(
            poly_mul(self.num, rhs.num),
            self.shift + rhs.shift,
            tuple(self.den) + tuple(rhs.den),
        )

    __rmul__ = __mul__

    def mul_tpower(self, k: int) -> "RationalT":
        """Multiply by t**k (k may be negative: Laurent shift)."""
        if self.is_zero():
            return self
        return RationalT(self.num, self.shift + k, self.den)

    def mul_poly(self, coeffs: Sequence[int]) -> "RationalT":
        return RationalT(poly_mul(self.num, coeffs), self.shift, self.den)

    def __eq__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        n1 = poly_mul(self.num, rhs.expanded_den())
        n2 = poly_mul(rhs.num, self.expanded_den())
        s = min(self.shift, rhs.shift)
        return poly_shift(n1, self.shift - s) == poly_shift(n2, rhs.shift - s)

    __hash__ = None  # semantic equality; not hashable

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
        """The rational function value(1/t), in the same factored shape.

        Uses (1 - t**-m) = -t**-m (1 - t**m): each denominator factor keeps
        its m, contributing a sign and a power of t.  Applying this twice is
        the identity.
        """
        if self.is_zero():
            return self
        deg = len(self.num) - 1
        total_m = sum(m * e for m, e in self.den)
        total_e = sum(e for _, e in self.den)
        sign = -1 if total_e % 2 else 1
        new_num = poly_scale(list(reversed(self.num)), sign)
        new_shift = -self.shift - deg + total_m
        return RationalT(new_num, new_shift, self.den)

    def __repr__(self):
        if self.is_zero():
            return "RationalT(0)"
        num = " + ".join(
            f"{c}*t^{i}" if i else str(c) for i, c in enumerate(self.num) if c
        )
        parts = []
        if self.shift:
            parts.append(f"t^{self.shift}")
        parts.append(f"({num})")
        if self.den:
            den = "*".join(
                f"(1-t^{m})" + (f"^{e}" if e > 1 else "") for m, e in self.den
            )
            return "RationalT(" + "*".join(parts) + "/" + den + ")"
        return "RationalT(" + "*".join(parts) + ")"


# ---------------------------------------------------------------------------
# FracPoly and the averaging projector


class FracPoly:
    """Finite sum of c * t**(e/w) terms with a fixed exponent denominator w.

    ``terms`` maps the integer numerator e to its coefficient (int or
    Fraction).  Arithmetic between two values rescales to the lcm of their
    denominators, so mixed-denominator expressions behave as expected.
    """

    __slots__ = ("w", "terms")

    def __init__(self, w: int, terms: Mapping[int, object]):
        if w < 1:
            raise ValueError("exponent denominator must be >= 1")
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

    def _common(self, other: "FracPoly"):
        from math import lcm

        w = lcm(self.w, other.w)
        return self.rescaled(w), other.rescaled(w)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = FracPoly(self.w, {0: other})
        if not isinstance(other, FracPoly):
            return NotImplemented
        a, b = self._common(other)
        out = dict(a.terms)
        for e, c in b.terms.items():
            out[e] = out.get(e, 0) + c
        return FracPoly(a.w, out)

    __radd__ = __add__

    def __neg__(self):
        return FracPoly(self.w, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = FracPoly(self.w, {0: other})
        if not isinstance(other, FracPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FracPoly(self.w, {e: c * other for e, c in self.terms.items()})
        if not isinstance(other, FracPoly):
            return NotImplemented
        a, b = self._common(other)
        out: Dict[int, object] = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return FracPoly(a.w, out)

    __rmul__ = __mul__

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

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = FracPoly(self.w, {0: other})
        if not isinstance(other, FracPoly):
            return NotImplemented
        a, b = self._common(other)
        if set(a.terms) != set(b.terms):
            return False
        return all(a.terms[e] == b.terms[e] for e in a.terms)

    __hash__ = None

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
        if not self.terms:
            return "FracPoly(0)"
        bits = []
        for e in sorted(self.terms):
            c = self.terms[e]
            q = Fraction(e, self.w)
            bits.append(f"{c}*t^({q})" if q else str(c))
        return "FracPoly(" + " + ".join(bits) + ")"


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
# certified reconstruction and limits


def guard_override() -> Optional[int]:
    """The validated MIRROR_STRINGY_GUARD width, or None when it is unset.

    Public entry points read it once and pass it down, so it is part of the
    key of every cache whose value depends on a reconstruction."""
    raw = os.environ.get("MIRROR_STRINGY_GUARD")
    if raw is None:
        return None
    try:
        g = int(raw)
    except ValueError:
        raise OutOfRange(f"MIRROR_STRINGY_GUARD must be an integer, got {raw!r}")
    if g < 1:
        raise OutOfRange("MIRROR_STRINGY_GUARD must be >= 1")
    return g


def reconstruction_guard(default: int) -> int:
    """Guard-band width; MIRROR_STRINGY_GUARD overrides the default."""
    return guard_override() or default


def series_to_rational(
    series: Sequence[int], denom: Iterable[Factor], num_bound: int
) -> RationalT:
    """Certified reconstruction of sum series[k] t**k as P(t)/prod(1-t**m)**e.

    P := series * denominator, truncated to the series length; every
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
    dense = expand_factors(facs)
    prod = truncated_product(series, dense, n)
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


def limit_at_one(r: RationalT) -> Fraction:
    """Exact limit of r at t = 1; PoleAtOne when the limit is infinite.

    Each denominator factor is (1 - t**m) = (1 - t)(1 + ... + t**(m-1)); the
    numerator is divided by (1 - t) once per factor (prefix sums, exact iff
    num(1) = 0) and what remains is evaluated at 1.
    """
    if r.is_zero():
        return Fraction(0)
    num = list(r.num)
    scale = Fraction(1)
    for m, e in r.den:
        scale /= Fraction(m) ** e
    for _ in range(r.pole_order_at_one()):
        if sum(num) != 0:
            raise PoleAtOne(f"{r!r} has a pole at t = 1")
        acc = 0
        quot = []
        for c in num[:-1]:
            acc += c
            quot.append(acc)
        num = quot or [0]
    return Fraction(sum(num)) * scale


# ---------------------------------------------------------------------------
# BiPoly and the mirror transform


class BiPoly:
    """Two-variable polynomial sum c * u**a * v**b, exponents >= 0."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Tuple[int, int], object]):
        clean: Dict[Tuple[int, int], object] = {}
        for (a, b), c in terms.items():
            if a < 0 or b < 0:
                raise ValueError("BiPoly exponents must be non-negative")
            if c != 0:
                clean[(int(a), int(b))] = c
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

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = BiPoly({(0, 0): other})
        if not isinstance(other, BiPoly):
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return BiPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return BiPoly({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = BiPoly({(0, 0): other})
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return BiPoly({k: c * other for k, c in self.terms.items()})
        if not isinstance(other, BiPoly):
            return NotImplemented
        out: Dict[Tuple[int, int], object] = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                k = (a1 + a2, b1 + b2)
                out[k] = out.get(k, 0) + c1 * c2
        return BiPoly(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = BiPoly({(0, 0): other})
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def __call__(self, u, v):
        return sum(c * u**a * v**b for (a, b), c in self.terms.items())

    def total_degree(self) -> int:
        return max((a + b for a, b in self.terms), default=0)

    def sorted_terms(self):
        """Graded order: by total degree, then u-exponent descending."""
        return sorted(self.terms.items(), key=lambda kv: (kv[0][0] + kv[0][1], -kv[0][0]))

    def __repr__(self):
        if not self.terms:
            return "BiPoly(0)"
        bits = [f"{c}*u^{a}*v^{b}" for (a, b), c in self.sorted_terms()]
        return "BiPoly(" + " + ".join(bits) + ")"


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
