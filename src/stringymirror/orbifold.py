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

Both rational projections are multisections of U_l: sum_k c_{k w + offset}
t^k over the coefficients c_e of U_l in s, an exact rational function of t
(``exact_arith.multisection``).  ``mirror_orbifold_e`` uses the offset -a;
the non-polynomial sectors of the Poincare-style route use the offset
sum_{i not in Z} w_i mod w.

``q_identity_check`` verifies, element by element, that the Poincare-style
route (fractional exponents over 2w, no signs) times (-1)^size equals the
per-element term of ``mirror_orbifold_e`` (s^a twist); it is a structural
self-test of the fractional-exponent algebra, not a mirror statement.

Every sum over Z/wZ runs over the element classes of ``weights``: a term
depends on l only through Z(l), age and size.  The sector terms and their
total are kept in the orbifold half of the vector's record
(``weights.record``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Tuple

from .errors import InconsistentSector, NonIntegerCoefficient
from .exact_arith import (
    BiPoly,
    Factor,
    FracPoly,
    RationalT,
    expand_factors,
    integral_project,
    multisection,
    poly_div_exact,
)
from .stringy import EFunction, efunction_from_bipoly
from .weights import (
    WeightVector,
    class_index,
    element,
    element_classes,
    record,
)

# ---------------------------------------------------------------------------
# sector data


def vafa_euler(wv: WeightVector) -> Fraction:
    """Orbifold Euler number of the hypersurface (exact rational).

    The pair sum runs over the distinct zero sets (at most 2^(d+1) of them),
    each weighted by how many elements l share it."""
    mult: Counter = Counter()
    for c in element_classes(wv):
        mult[frozenset(wv.indices()) - c.support] += c.count
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


def _multisection(wv: WeightVector, zero: FrozenSet[int], offset: int) -> RationalT:
    """sum_k c_{k w + offset} t^k for the coefficients c_e of U_l in s (zero
    at negative e)."""
    num, den = _sector_factors(wv, zero)
    return multisection(expand_factors(num), [c for c, _ in den], wv.w, offset)


def _sector_bipoly(wv: WeightVector, l: int) -> Optional[BiPoly]:
    """[ U_l * (t tbar)^{g} (t/tbar)^{beta} ]_int for the polynomial route;
    None when U_l is not a polynomial."""
    el = element(wv, l)
    zero = frozenset(i for i, q in enumerate(el.theta_tilde) if q == 0)
    num, den = _sector_factors(wv, zero)
    U = poly_div_exact(expand_factors(num), expand_factors(den))
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
        if alpha < 0 or beta < 0:
            raise InconsistentSector(
                f"sector {l} of {wv} has a negative exponent pair ({alpha}, {beta})"
            )
        out[(alpha, beta)] = out.get((alpha, beta), 0) + c
    return BiPoly(out)


def vafa_poincare(wv: WeightVector) -> BiPoly:
    """Orbifold Hodge-Poincare polynomial P(t, tbar); the entry at (p, q) is
    h^{d-1-p, q} of the hypersurface itself, i.e. h^{p, q} of its mirror.
    Raises NonIntegerCoefficient when a sector Hilbert series fails to be a
    polynomial with non-negative integer coefficients (non-transverse
    input)."""
    total = BiPoly.zero()
    for c in element_classes(wv):
        part = _sector_bipoly(wv, c.first)
        if part is None:
            raise NonIntegerCoefficient(
                f"sector l={c.first} of {wv} has a non-polynomial Hilbert series; "
                "the weight vector is not transverse"
            )
        total = total + part * c.count
    if any(c < 0 or c != int(c) for c in total.terms.values()):
        raise NonIntegerCoefficient(f"negative entries in P(t, tbar) for {wv}")
    return total


# ---------------------------------------------------------------------------
# the mirror-side orbifold E-function


def _projected_sector(wv: WeightVector, zero: FrozenSet[int]) -> RationalT:
    """[ prod_{i in Z} ((uv)^{q_i} - uv) / (1 - (uv)^{q_i}) ]_int as a
    rational function of t = uv: the multisection of U_l at offset -a."""
    return _multisection(wv, zero, -sum(wv.weights[i] for i in zero))


@dataclass(frozen=True)
class OrbifoldEResult:
    """(-u)^(d-1) E_orb(X; 1/u, v) with its per-element breakdown."""

    value: EFunction
    euler: Fraction
    per_l_terms: Dict[int, EFunction]


class OrbifoldHalf(NamedTuple):
    """The orbifold pipeline's part of a vector's record."""

    value: EFunction
    terms: Tuple[EFunction, ...]  # one per element class


def _orbifold(wv: WeightVector) -> OrbifoldHalf:
    """The orbifold half of wv's record, built on first use."""
    rec = record(wv)
    if rec.orbifold is None:
        projected: Dict[FrozenSet[int], RationalT] = {}
        terms = []
        entries = []
        for c in element_classes(wv):
            zero = frozenset(wv.indices()) - c.support
            if zero not in projected:
                projected[zero] = _projected_sector(wv, zero)
            B = projected[zero]
            if c.support:
                sign = -1 if c.size % 2 else 1
                a, b, r = c.age - 1, c.size - c.age - 1, B * sign
            else:  # l = 0
                a, b, r = 0, 0, B.mul_tpower(-1)
            terms.append(EFunction(wv.d - 1, [(a, b, r)]))
            entries.append((a, b, r * c.count))
        rec.orbifold = OrbifoldHalf(EFunction(wv.d - 1, entries), tuple(terms))
    return rec.orbifold


def mirror_orbifold_e(wv: WeightVector) -> OrbifoldEResult:
    """(-u)^(d-1) E_orb(X; 1/u, v), summed over the sectors l in Z/wZ; the
    per-element terms of one element class are one shared EFunction."""
    half = _orbifold(wv)
    per_l = {l: half.terms[c] for l, c in enumerate(class_index(wv))}
    return OrbifoldEResult(half.value, half.value.value_at_one(), per_l)


# ---------------------------------------------------------------------------
# structural identity between the two sector forms


def _sector_efunction_direct(wv: WeightVector, l: int) -> EFunction:
    """Project U_l (or its full rational series) against the twisted
    monomial, fractional exponents carried over 2w."""
    el = element(wv, l)
    zero = frozenset(i for i, q in enumerate(el.theta_tilde) if q == 0)
    w = wv.w
    bp = _sector_bipoly(wv, l)
    if bp is not None:
        return efunction_from_bipoly(wv.d - 1, bp)
    # rational sector: multisection at the offset forced by integrality
    twisted_sum = sum(wv.weights[i] for i in wv.indices() if i not in zero)
    e0 = twisted_sum % w
    G = _multisection(wv, zero, e0)
    alpha0 = Fraction(e0, w) + Fraction(el.size, 2) - Fraction(twisted_sum, w) \
        + el.age - Fraction(el.size, 2)
    beta0 = alpha0 - (2 * el.age - el.size)
    if alpha0.denominator != 1 or beta0.denominator != 1:
        raise InconsistentSector(
            f"sector {l} of {wv} has a non-integral exponent pair ({alpha0}, {beta0})"
        )
    return EFunction(wv.d - 1, [(int(alpha0), int(beta0), G)])


def q_identity_check(wv: WeightVector) -> bool:
    """Element-by-element agreement of the two displayed forms of the
    orbifold sector sum: the direct projection, signed by (-1)^size, equals
    the s^a-twisted term of ``mirror_orbifold_e``.  Both depend on l only
    through its element class, so one l per class is checked."""
    for c, term in zip(element_classes(wv), _orbifold(wv).terms):
        direct = _sector_efunction_direct(wv, c.first)
        # term - (-1)^size * direct
        diff = term + direct if c.size % 2 else term - direct
        if not diff.is_zero():
            return False
    return True
