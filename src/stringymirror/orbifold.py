"""Orbifold invariants of the hypersurface itself and their mirror form.

For each l in Z/wZ let Z(l) = { i : theta~_i(l) = 0 } be the coordinates
fixed by l.  Three related objects are computed:

* ``vafa_euler``: the orbifold Euler number
      (1/w) sum_{l,r} prod_{i in Z(l) & Z(r)} (1 - 1/q_i),
  with (1 - 1/q_i) = (w_i - w)/w_i, an exact rational (an integer for
  transverse vectors).  It is computed in the closed form
      sum_{T in {0..d}} (-w)^|T| gcd(w, w_T)^2 / (w prod_{i in T} w_i),
  w_T the gcd of the weights on T (gcd(w, w_T) = w for T empty), from the
  identity |{l in Z/wZ : T in Z(l)}| = gcd(w, w_T): l fixes i iff
  w/gcd(w, w_i) divides l, and the lcm of those over T is w/gcd(w, w_T).
  It needs no element classes.

* ``vafa_poincare``: the orbifold Hodge-Poincare polynomial

      P(t, tbar) = sum_l [ U_l(s) * (t tbar)^{g_l} * (t/tbar)^{beta_l} ]_int

  where s = (t tbar)^(1/w), U_l is the sector Hilbert series
  prod_{i in Z(l)} (1 - s^(w - w_i)) / (1 - s^(w_i)) (a polynomial with
  non-negative coefficients for transverse vectors), g_l = size/2 -
  sum_{i not in Z} q_i and beta_l = age - size/2.  With S = sum_{i not in
  Z} w_i, the term s^e lands at t^(age + (e - S)/w) tbar^(size - age + (e -
  S)/w), so the bracket keeps the e = S (mod w), and e = S mod w + k w lands
  at (alpha + k, beta + k), alpha = age - S // w, beta = size - age - S // w.
  Coefficients are Hodge numbers of the mirror: the (p, q) entry is
  h^{d-1-p, q} of the mirror hypersurface.

* ``mirror_orbifold_e``: (-u)^(d-1) E_orb(X; 1/u, v), rewritten per element as

      (1/uv) [ prod_{i in Z(l)} ((uv)^{q_i} - uv) / (1 - (uv)^{q_i}) ]_int
             * (-v)^{size} (u/v)^{age}.

  The projected product depends only on Z(l).  With s = t^(1/w) it equals
  [ s^a U_l(s) ]_int, a = sum_{i in Z} w_i.

Both projections are multisections of U_l: sum_k c_{k w + offset} t^k
over the coefficients c_e of U_l in s, an exact rational function of t
(``exact_arith.multisection``), all in integers.  ``mirror_orbifold_e`` uses
the offset -a, the Poincare-style route the offset S mod w; U_l is a
polynomial exactly when its factored normal form has an empty denominator.

Since S = w - a, the two offsets differ by w and G = B / t, B the mirror
form's multisection: each Poincare-style term is (-1)^size times the
class's term of ``mirror_orbifold_e``.  Every exponent pair (p, q) of that
term, (age - 1, size - age - 1) plus a multiple of (1, 1), has p + q =
size mod 2, so P is the Hodge grid of the orbifold total of
``mirror_orbifold_e``: ``vafa_poincare`` reads it with
``exact_arith.hodge_table``, the one reader of the Hodge sign rule, which
also checks the signs, the grid's range and its symmetry.
``q_identity_check`` verifies the term identity, element class by element
class, against the Poincare-style route t^alpha tbar^beta G(t tbar)
computed on its own (``_direct_sector``); it is a structural self-test of
the two offsets, not a mirror statement.

Every other sum over Z/wZ runs over the element classes of ``weights``: a
term depends on l only through Z(l), age and size.  The half is built on the
``exact_arith`` kernel's triples; only the sector terms and their total,
kept in the vector's record (``weights.record``), are EFunctions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod
from typing import Dict, Tuple

from .errors import InconsistentSector, NonIntegerCoefficient
from .exact_arith import BiPoly, EFunction, Triple, _peel, _scaled, hodge_table, multisection
from .weights import (
    ElementClass,
    Half,
    VectorRecord,
    WeightVector,
    _classified,
    _complement,
    _members,
    record,
    sector_hilbert,
)

# ---------------------------------------------------------------------------
# sector data


def vafa_euler(wv: WeightVector) -> Fraction:
    """Orbifold Euler number of the hypersurface (exact rational), as

        sum_{T in {0..d}} (-w)^|T| gcd(w, w_T)^2 / (w prod_{i in T} w_i),

    w_T the gcd of the weights on T, with gcd(w, w_T) = w for T empty.
    Expanding each prod_{i in Z(l) & Z(r)} (1 - w/w_i) over the subsets T
    of Z(l) & Z(r) gives sum_T prod_{i in T} (-w/w_i) times the number of
    pairs (l, r) whose zero sets both hold T, which is the square of
    |{l : T in Z(l)}| = gcd(w, w_T): l fixes i iff w/gcd(w, w_i) divides
    l, and the lcm of those over T is w/gcd(w, w_T).

    One pass over the weights keeps, per running gcd(w, w_T) (a divisor of
    w), the integer sum of (-w)^|T| prod_{i not in T} w_i over the subsets T
    of the weights so far, so the result is one Fraction over w prod w_i."""
    w = wv.w
    by_gcd = {w: 1}
    for wi in wv.weights:
        step: Dict[int, int] = {}
        for g, v in by_gcd.items():
            step[g] = step.get(g, 0) + v * wi
            h = gcd(g, wi)
            step[h] = step.get(h, 0) - v * w
        by_gcd = step
    return Fraction(sum(g * g * v for g, v in by_gcd.items()), w * prod(wv.weights))


# ---------------------------------------------------------------------------
# the Poincare polynomial


def _direct_sector(wv: WeightVector, c: ElementClass) -> Tuple[int, int, Triple]:
    """[ U_l * (t tbar)^{g} (t/tbar)^{beta} ]_int for the elements l of class
    c: t^alpha tbar^beta G(t tbar), G the multisection of U_l at the offset
    S mod w (S the sum of the weights off Z(l)), as (alpha, beta, G)."""
    twisted_sum = sum(wv.weights[i] for i in _members(c.support))
    alpha = c.age - twisted_sum // wv.w
    beta = alpha - (2 * c.age - c.size)
    if alpha < 0 or beta < 0:
        raise InconsistentSector(
            f"sector {c.first} of {wv} has a negative exponent pair ({alpha}, {beta})"
        )
    num, coins = sector_hilbert(wv, _complement(wv, c.support))
    return alpha, beta, multisection(num, coins, wv.w, twisted_sum % wv.w)


def vafa_poincare(wv: WeightVector) -> BiPoly:
    """Orbifold Hodge-Poincare polynomial P(t, tbar); the entry at (p, q) is
    h^{d-1-p, q} of the hypersurface itself, i.e. h^{p, q} of its mirror.
    Raises NonIntegerCoefficient when a sector Hilbert series fails to be a
    polynomial (non-transverse input).

    P is the Hodge grid of the orbifold total, read by ``hodge_table``: the
    sector term of class c is (-1)^size times its term of
    ``mirror_orbifold_e`` (``q_identity_check`` tests this against
    ``_direct_sector``), whose exponent pairs (p, q) all have p + q = size
    mod 2.  So a wrong sign, an entry outside the grid or an asymmetric
    grid raises SignPatternViolation."""
    rec = record(wv)
    # the check depends only on the zero set: each one once, at its first l
    first: Dict[int, int] = {}
    for c in _classified(rec).classes:
        first.setdefault(_complement(wv, c.support), c.first)
    for zero, l in first.items():
        num, coins = sector_hilbert(wv, zero)
        if _peel(num, 0, Counter(coins))[2]:  # a denominator factor is left
            raise NonIntegerCoefficient(
                f"sector l={l} of {wv} has a non-polynomial Hilbert series; "
                "the weight vector is not transverse"
            )
    grid = hodge_table(_orbifold(rec).total.to_bipoly(), wv.d - 1).grid
    return BiPoly({(p, q): h for p, row in enumerate(grid) for q, h in enumerate(row)})


# ---------------------------------------------------------------------------
# the mirror-side orbifold E-function


def _projected_sector(wv: WeightVector, zero: int) -> Triple:
    """[ prod_{i in Z} ((uv)^{q_i} - uv) / (1 - (uv)^{q_i}) ]_int as the
    triple of a rational function of t = uv, for the zero set Z given as a
    bitmask: the multisection of U_l at offset -a."""
    num, coins = sector_hilbert(wv, zero)
    return multisection(num, coins, wv.w, -sum(coins))


@dataclass(frozen=True)
class OrbifoldEResult:
    """(-u)^(d-1) E_orb(X; 1/u, v) with its per-element breakdown."""

    value: EFunction
    euler: Fraction
    per_l_terms: Dict[int, EFunction]


def _orbifold(rec: VectorRecord) -> Half:
    """The orbifold half of a vector's record, built on first use, on the
    kernel's triples: EFunctions are made only for what the record keeps."""
    if rec.orbifold is None:
        wv = rec.wv
        projected: Dict[int, Triple] = {}
        terms = []
        entries = []
        for c in _classified(rec).classes:
            zero = _complement(wv, c.support)
            if zero not in projected:
                projected[zero] = _projected_sector(wv, zero)
            B = projected[zero]
            if c.support:
                sign = -1 if c.size % 2 else 1
                a, b, r = c.age - 1, c.size - c.age - 1, _scaled(B, sign)
            else:  # l = 0: B / t
                a, b, r = 0, 0, (B[0] - 1, B[1], B[2])
            terms.append(EFunction._of(wv.d - 1, [(a, b, r)]))
            entries.append((a, b, _scaled(r, c.count)))
        rec.orbifold = Half(EFunction._of(wv.d - 1, entries), tuple(terms))
    return rec.orbifold


def mirror_orbifold_e(wv: WeightVector) -> OrbifoldEResult:
    """(-u)^(d-1) E_orb(X; 1/u, v), summed over the sectors l in Z/wZ; the
    per-element terms of one element class are one shared EFunction."""
    rec = _classified(record(wv))
    half = _orbifold(rec)
    per_l = {l: half.terms[c] for l, c in enumerate(rec.class_of)}
    return OrbifoldEResult(half.total, half.total.value_at_one(), per_l)


# ---------------------------------------------------------------------------
# structural identity between the two sector forms


def q_identity_check(wv: WeightVector) -> bool:
    """Element-by-element agreement of the two displayed forms of the
    orbifold sector sum: the direct projection, signed by (-1)^size, equals
    the s^a-twisted term of ``mirror_orbifold_e``.  Both depend on l only
    through its element class, so one l per class is checked."""
    rec = record(wv)
    for c, term in zip(_classified(rec).classes, _orbifold(rec).terms):
        alpha, beta, G = _direct_sector(wv, c)
        if term != EFunction._of(wv.d - 1, [(alpha, beta, _scaled(G, (-1) ** c.size))]):
            return False
    return True
