"""Orbifold invariants of the hypersurface itself and their mirror form.

For each l in Z/wZ let Z(l) = { i : theta~_i(l) = 0 } be the coordinates
fixed by l.  Three related objects are computed:

* ``vafa_euler``: the orbifold Euler number
      (1/w) sum_{l,r} prod_{i in Z(l) & Z(r)} (1 - 1/q_i),
  with (1 - 1/q_i) = (w_i - w)/w_i, an exact rational (an integer for
  transverse vectors).

* ``vafa_poincare``: the orbifold Hodge-Poincare polynomial

      P(t, tbar) = sum_l [ U_l(s) * (t tbar)^{g_l} * (t/tbar)^{beta_l} ]_int

  where s = (t tbar)^(1/w), U_l is the sector Hilbert series
  prod_{i in Z(l)} (1 - s^(w - w_i)) / (1 - s^(w_i)) (a polynomial with
  non-negative coefficients for transverse vectors, computed by exact long
  division), g_l = size/2 - sum_{i not in Z} q_i and beta_l = age - size/2.
  All exponent arithmetic is carried over the common denominator 2w, and the
  bracket keeps the terms with both exponents integral, which reduces to the
  single congruence e = sum_{i not in Z} w_i (mod w) on the s-exponent.
  Coefficients are Hodge numbers of the mirror: the (p, q) entry is
  h^{d-1-p, q} of the mirror hypersurface.

* ``mirror_orbifold_e``: (-u)^(d-1) E_orb(X; 1/u, v), rewritten per element as

      (1/uv) [ prod_{i in Z(l)} ((uv)^{q_i} - uv) / (1 - (uv)^{q_i}) ]_int
             * (-v)^{size} (u/v)^{age}.

  The projected product depends only on Z(l).  With s = t^(1/w) it equals
  [ s^a U_l(s) ]_int, a = sum_{i in Z} w_i.

Both rational projections go through one multisection helper: it expands
U_l as a series in s (``exact_arith.series_quotient``), keeps the
coefficients at the exponents k w + offset, and recovers sum_k c t^k by
certified reconstruction with denominator prod (1 - t^(m_i)),
m_i = w_i / gcd(w_i, w), and numerator degree bound sum m_i + |Z| (the
multisection can raise the degree past the naive bound by one per factor).
``mirror_orbifold_e`` uses the offset -a; the non-polynomial sectors of the
Poincare-style route use the offset sum_{i not in Z} w_i mod w.

``q_identity_check`` verifies, element by element, that the Poincare-style
route (fractional exponents over 2w, no signs) times (-1)^size equals the
per-element term of ``mirror_orbifold_e`` (s^a twist); it is a structural
self-test of the fractional-exponent algebra, not a mirror statement.
The guard-band override (MIRROR_STRINGY_GUARD) is read once per public call
and keys every cached reconstruction.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Dict, FrozenSet, List, Optional, Tuple

from .errors import NonIntegerCoefficient
from .exact_arith import (
    BiPoly,
    Factor,
    FracPoly,
    RationalT,
    expand_factors,
    guard_override,
    integral_project,
    poly_div_exact,
    series_quotient,
    series_to_rational,
)
from .stringy import EFunction, efunction_from_bipoly
from .weights import WeightVector, _elements

# ---------------------------------------------------------------------------
# sector data


@lru_cache(maxsize=None)
def _zero_sets(wv: WeightVector) -> Tuple[FrozenSet[int], ...]:
    return tuple(
        frozenset(i for i, q in enumerate(el.theta_tilde) if q == 0)
        for el in _elements(wv)
    )


def vafa_euler(wv: WeightVector) -> Fraction:
    """Orbifold Euler number of the hypersurface (exact rational).

    The pair sum runs over the distinct zero sets (at most 2^(d+1) of them),
    each weighted by how many elements l share it."""
    mult = Counter(_zero_sets(wv))
    ws = wv.weights
    w = wv.w
    total = Fraction(0)
    for zl, ml in mult.items():
        for zr, mr in mult.items():
            val = Fraction(ml * mr)
            for i in zl & zr:
                val *= Fraction(ws[i] - w, ws[i])
            total += val
    return total / w


# ---------------------------------------------------------------------------
# sector Hilbert series and the Poincare polynomial


def _sector_factors(wv: WeightVector, zero: FrozenSet[int]) -> Tuple[List[Factor], List[Factor]]:
    """Numerator and denominator factors (m, 1), standing for 1 - s^m, of
    U_l = prod_{i in Z} (1 - s^(w - w_i)) / (1 - s^(w_i))."""
    ws = [wv.weights[i] for i in sorted(zero)]
    return [(wv.w - wi, 1) for wi in ws], [(wi, 1) for wi in ws]


@lru_cache(maxsize=None)
def _sector_polynomial(wv: WeightVector, zero: FrozenSet[int]) -> Optional[Tuple[int, ...]]:
    """U_l(s) as a dense polynomial, or None when the quotient is not a
    polynomial (the vector is then not transverse)."""
    if not zero:
        return (1,)
    num, den = _sector_factors(wv, zero)
    q = poly_div_exact(expand_factors(num), expand_factors(den))
    return None if q is None else tuple(q)


def _multisection(
    wv: WeightVector, zero: FrozenSet[int], offset: int, guard: Optional[int]
) -> RationalT:
    """sum_k c_{k w + offset} t^k for the coefficients c_e of U_l in s (zero
    at negative e), by certified reconstruction with denominator
    prod (1 - t^(m_i)), m_i = w_i / gcd(w_i, w), and numerator degree bound
    sum m_i + |Z|."""
    w = wv.w
    ms = sorted(wv.weights[i] // gcd(wv.weights[i], w) for i in zero)
    bound = sum(ms) + len(zero)
    top = (bound + (guard or sum(ms))) * w + offset
    num, den = _sector_factors(wv, zero)
    series = series_quotient(expand_factors(num), den, top)
    coeffs = tuple(series[e] if e >= 0 else 0 for e in range(offset, top + 1, w))
    return series_to_rational(coeffs, [(m, 1) for m in ms], bound)


def _sector_bipoly(wv: WeightVector, l: int) -> Optional[BiPoly]:
    """[ U_l * (t tbar)^{g} (t/tbar)^{beta} ]_int for the polynomial route;
    None when U_l is not a polynomial."""
    el = _elements(wv)[l]
    zero = _zero_sets(wv)[l]
    U = _sector_polynomial(wv, zero)
    if U is None:
        return None
    w = wv.w
    twisted_sum = sum(wv.weights[i] for i in wv.indices() if i not in zero)
    # numerators over the common denominator 2w:
    # 2w*g = size*w - 2*sum', 2w*beta = 2*age*w - size*w
    g2 = el.size * w - 2 * twisted_sum
    b2 = 2 * el.age * w - el.size * w
    terms: Dict[int, int] = {}
    for e, c in enumerate(U):
        if c:
            terms[2 * e + g2 + b2] = c
    fp = FracPoly(2 * w, terms)
    kept = integral_project(fp)
    diag_offset = 2 * el.age - el.size  # alpha - beta, always an integer
    out: Dict[Tuple[int, int], int] = {}
    for ee, c in kept.terms.items():
        alpha = ee // (2 * w)
        beta = alpha - diag_offset
        assert alpha >= 0 and beta >= 0, "sector exponents are non-negative"
        out[(alpha, beta)] = out.get((alpha, beta), 0) + c
    return BiPoly(out)


def vafa_poincare(wv: WeightVector) -> BiPoly:
    """Orbifold Hodge-Poincare polynomial P(t, tbar); the entry at (p, q) is
    h^{d-1-p, q} of the hypersurface itself, i.e. h^{p, q} of its mirror.
    Raises NonIntegerCoefficient when a sector Hilbert series fails to be a
    polynomial with non-negative integer coefficients (non-transverse
    input)."""
    total = BiPoly.zero()
    for l in range(wv.w):
        part = _sector_bipoly(wv, l)
        if part is None:
            raise NonIntegerCoefficient(
                f"sector l={l} of {wv} has a non-polynomial Hilbert series; "
                "the weight vector is not transverse"
            )
        total = total + part
    if any(c < 0 or c != int(c) for c in total.terms.values()):
        raise NonIntegerCoefficient(f"negative entries in P(t, tbar) for {wv}")
    return total


# ---------------------------------------------------------------------------
# the mirror-side orbifold E-function


@lru_cache(maxsize=None)
def _projected_sector(wv: WeightVector, zero: FrozenSet[int], guard: Optional[int]) -> RationalT:
    """[ prod_{i in Z} ((uv)^{q_i} - uv) / (1 - (uv)^{q_i}) ]_int as a
    rational function of t = uv: the multisection of U_l at offset -a."""
    if not zero:
        return RationalT.one()
    return _multisection(wv, zero, -sum(wv.weights[i] for i in zero), guard)


@dataclass(frozen=True)
class OrbifoldEResult:
    """(-u)^(d-1) E_orb(X; 1/u, v) with its per-element breakdown."""

    value: EFunction
    euler: Fraction
    per_l_terms: Dict[int, EFunction]


@lru_cache(maxsize=None)
def _mirror_orbifold_e(wv: WeightVector, guard: Optional[int]) -> OrbifoldEResult:
    per: Dict[int, EFunction] = {}
    total = EFunction(wv.d - 1, ())
    zs = _zero_sets(wv)
    for l in range(wv.w):
        B = _projected_sector(wv, zs[l], guard)
        if l == 0:
            ef = EFunction(wv.d - 1, [(0, 0, B.mul_tpower(-1))])
        else:
            el = _elements(wv)[l]
            sign = -1 if el.size % 2 else 1
            ef = EFunction(
                wv.d - 1, [(el.age - 1, el.size - el.age - 1, B * sign)]
            )
        per[l] = ef
        total = total + ef
    return OrbifoldEResult(total, total.value_at_one(), per)


def mirror_orbifold_e(wv: WeightVector) -> OrbifoldEResult:
    """(-u)^(d-1) E_orb(X; 1/u, v), summed over the sectors l in Z/wZ."""
    return _mirror_orbifold_e(wv, guard_override())


# ---------------------------------------------------------------------------
# structural identity between the two sector forms


def _sector_efunction_direct(wv: WeightVector, l: int, guard: Optional[int]) -> EFunction:
    """Project U_l (or its full rational series) against the twisted
    monomial, fractional exponents carried over 2w."""
    el = _elements(wv)[l]
    zero = _zero_sets(wv)[l]
    w = wv.w
    bp = _sector_bipoly(wv, l)
    if bp is not None:
        return efunction_from_bipoly(wv.d - 1, bp)
    # rational sector: multisection at the offset forced by integrality
    twisted_sum = sum(wv.weights[i] for i in wv.indices() if i not in zero)
    e0 = twisted_sum % w
    G = _multisection(wv, zero, e0, guard)
    alpha0 = Fraction(e0, w) + Fraction(el.size, 2) - Fraction(twisted_sum, w) \
        + el.age - Fraction(el.size, 2)
    beta0 = alpha0 - (2 * el.age - el.size)
    assert alpha0.denominator == 1 and beta0.denominator == 1
    return EFunction(wv.d - 1, [(int(alpha0), int(beta0), G)])


def q_identity_check(wv: WeightVector) -> bool:
    """Element-by-element agreement of the two displayed forms of the
    orbifold sector sum: the direct projection, signed by (-1)^size, equals
    the s^a-twisted term of ``mirror_orbifold_e``."""
    guard = guard_override()
    per_l = _mirror_orbifold_e(wv, guard).per_l_terms
    for l, el in enumerate(_elements(wv)):
        direct = _sector_efunction_direct(wv, l, guard)
        # per_l[l] - (-1)^size * direct
        diff = per_l[l] + direct if el.size % 2 else per_l[l] - direct
        if not diff.is_zero():
            return False
    return True
