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
  [ s^a prod (1 - s^(w-w_i)) / (1 - s^(w_i)) ]_int, a = sum_{i in Z} w_i,
  recovered by certified reconstruction with denominator
  prod (1 - t^(m_i)), m_i = w_i / gcd(w_i, w), and numerator degree bound
  sum m_i + |Z| (the multisection can raise the degree past the naive bound
  by one per factor).

``q_identity_check`` verifies, element by element, that the Poincare-style
route (fractional exponents over 2w, no signs) and the reconstruction route
(s^a twist) produce the same projected sector term; it is a structural
self-test of the fractional-exponent algebra, not a mirror statement.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Dict, FrozenSet, List, Optional, Tuple

from .errors import NonIntegerCoefficient, OutOfRange
from .exact_arith import (
    BiPoly,
    FracPoly,
    RationalT,
    integral_project,
    poly_div_exact,
    poly_mul,
    reconstruction_guard,
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
# sector Hilbert polynomials and the Poincare polynomial


def _sector_numerator(wv: WeightVector, zero: FrozenSet[int]) -> List[int]:
    num = [1]
    for i in sorted(zero):
        wi = wv.weights[i]
        factor = [0] * (wv.w - wi + 1)
        factor[0] = 1
        factor[wv.w - wi] = -1
        num = poly_mul(num, factor)
    return num


def _sector_denominator(wv: WeightVector, zero: FrozenSet[int]) -> List[int]:
    den = [1]
    for i in sorted(zero):
        wi = wv.weights[i]
        factor = [0] * (wi + 1)
        factor[0] = 1
        factor[wi] = -1
        den = poly_mul(den, factor)
    return den


@lru_cache(maxsize=None)
def _sector_polynomial(wv: WeightVector, zero: FrozenSet[int]) -> Optional[Tuple[int, ...]]:
    """U_l(s) as a dense polynomial, or None when the quotient is not a
    polynomial (the vector is then not transverse)."""
    if not zero:
        return (1,)
    q = poly_div_exact(_sector_numerator(wv, zero), _sector_denominator(wv, zero))
    return None if q is None else tuple(q)


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
def _projected_sector(wv: WeightVector, zero: FrozenSet[int]) -> RationalT:
    """[ prod_{i in Z} ((uv)^{q_i} - uv) / (1 - (uv)^{q_i}) ]_int as a
    rational function of t = uv, via s^a-twisted multisection of the sector
    Hilbert series."""
    if not zero:
        return RationalT.one()
    w = wv.w
    a = sum(wv.weights[i] for i in zero)
    ms = sorted(wv.weights[i] // gcd(wv.weights[i], w) for i in sorted(zero))
    bound = sum(ms) + len(zero)
    guard = reconstruction_guard(sum(ms))
    n_t = bound + guard
    series = _hilbert_series(wv, zero, n_t * w)
    tcoeffs = tuple(
        series[k * w - a] if k * w >= a else 0 for k in range(n_t + 1)
    )
    return series_to_rational(tcoeffs, [(m, 1) for m in ms], bound)


def _hilbert_series(wv: WeightVector, zero: FrozenSet[int], n: int) -> List[int]:
    """First n+1 coefficients of prod (1-s^(w-w_i))/(1-s^(w_i)), i in Z."""
    num = _sector_numerator(wv, zero)
    g = list(num[: n + 1]) + [0] * max(0, n + 1 - len(num))
    for i in sorted(zero):
        wi = wv.weights[i]
        for k in range(wi, n + 1):
            g[k] += g[k - wi]
    return g


@dataclass(frozen=True)
class OrbifoldEResult:
    """(-u)^(d-1) E_orb(X; 1/u, v) with its per-element breakdown."""

    value: EFunction
    euler: Fraction
    per_l_terms: Dict[int, EFunction]


@lru_cache(maxsize=None)
def mirror_orbifold_e(wv: WeightVector) -> OrbifoldEResult:
    per: Dict[int, EFunction] = {}
    total = EFunction(wv.d - 1, ())
    zs = _zero_sets(wv)
    for l in range(wv.w):
        B = _projected_sector(wv, zs[l])
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


# ---------------------------------------------------------------------------
# structural identity between the two sector forms


def _sector_efunction_direct(wv: WeightVector, l: int) -> EFunction:
    """Route 1: project U_l (or its full rational series) against the twisted
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
    a = sum(wv.weights[i] for i in zero)
    ms = sorted(wv.weights[i] // gcd(wv.weights[i], w) for i in sorted(zero))
    bound = sum(ms) + len(zero)
    guard = reconstruction_guard(sum(ms))
    n_t = bound + guard
    series = _hilbert_series(wv, zero, n_t * w + e0)
    gcoeffs = tuple(series[k * w + e0] for k in range(n_t + 1))
    G = series_to_rational(gcoeffs, [(m, 1) for m in ms], bound)
    alpha0 = Fraction(e0, w) + Fraction(el.size, 2) - Fraction(twisted_sum, w) \
        + el.age - Fraction(el.size, 2)
    beta0 = alpha0 - (2 * el.age - el.size)
    assert alpha0.denominator == 1 and beta0.denominator == 1
    return EFunction(wv.d - 1, [(int(alpha0), int(beta0), G)])


def _sector_efunction_twisted(wv: WeightVector, l: int) -> EFunction:
    """Route 2: u^(age-1) v^(size-age-1) times the s^a-twisted projection."""
    el = _elements(wv)[l]
    B = _projected_sector(wv, _zero_sets(wv)[l])
    if l == 0:
        return EFunction(wv.d - 1, [(0, 0, B.mul_tpower(-1))])
    return EFunction(wv.d - 1, [(el.age - 1, el.size - el.age - 1, B)])


def q_identity_check(wv: WeightVector) -> bool:
    """Element-by-element agreement of the two displayed forms of the
    orbifold sector sum (signs removed from both sides)."""
    for l in range(wv.w):
        if _sector_efunction_direct(wv, l) != _sector_efunction_twisted(wv, l):
            return False
    return True
