"""Stringy E-function of the mirror hypersurface.

The mirror's stringy E-function is assembled face by face:

    E_str(u, v) = sum over J with |J| >= 2 of
        E_J(u, v) * (uv - 1)^(d+1-|J|) * [ prod_{j not in J} 1/((uv)^{q_j} - 1) ]_int

The projected product (the "bracket") is one rational function of t = uv.
At t = 0, 1/(t^q - 1) = -1/(1 - t^q) makes it (-1)^|K| sum_{k>=0} M_J(k)
t^k, K the complement of J and M_J(k) the number of u >= 0 on K with
sum w_k u_k = k w: the residue-0 multisection of 1 / prod_{k in K}
(1 - s**w_k), t = s**w.  At t = infinity it is sum_{k>=1} N_J(k) t^-k,
the lattice counts.  Every bracket takes one route: K's coins are cleared
into factors 1 - t**m (``exact_arith.extend_cleared``), and ``_finish``
cuts the section off the cleared product (``exact_arith.cleared_section``)
and checks both ends against counts it reads off the same product: the
section must start as 1 + M_J(1) t, and the bracket must vanish at
infinity with t^-1 coefficient N_J(1), else InconsistentExpansion.

The stringy half needs the brackets of all 2^n - n - 1 faces.  It walks
their complements K depth first over the subset lattice, K after K minus
one coin, and extends the parent's cleared product by that coin
(``exact_arith.extend_cleared``) instead of clearing every coin of K
again; the walk is a loop over a stack, so it leaves no reference cycle.
From the brackets on, the build runs on the (shift, num, den) triples of
the ``exact_arith`` kernel; EFunctions are made only for what the record
keeps.  One pass over the faces in face order (by |J|, then by sorted
members) makes base_J = (uv - 1)^(d+1-|J|) bracket_J and base_J U, U the
untwisted numerator of E_J.  J's face term E_J base_J is base_J U when
G_J = {0}, else one product per key.  E_str is the face-order sum of the
face terms, folded per key by ``EFunction._of``: a sum's printed form
depends on its order and grouping.

The same object supports the per-element decomposition

    E_str = sum over l in Z/wZ of E^(l),
    E^(0)   = sum_J [((uv-1)^(|J|-1) - (-1)^(|J|-1))/uv] (uv-1)^(d+1-|J|) bracket_J,
    E^(l)   = u^(age-1) v^(size-age-1) *
              sum_{J containing the support of l} (-1)^|J| (uv-1)^(d+1-|J|) bracket_J

for l != 0, with support(l) = { i : theta~_i(l) != 0 }.  E^(l) depends on l
only through its element class.  The stringy half of the vector's record
(``weights.record``) keeps E_str and one E^(l) per element class, not the
weighted brackets (uv-1)^(d+1-|J|) bracket_J they are built from.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

from .errors import InconsistentExpansion, NotPolynomial
from .exact_arith import (
    BiPoly,
    EFunction,
    RationalT,
    Triple,
    _check_ints,
    _fold,
    _product,
    _rational,
    _scaled,
    cleared_section,
    clearing_order,
    extend_cleared,
)
from .face_epoly import _untwisted_numerator, _uv_minus_one_pow, face_terms
from .weights import (
    ElementClass,
    Half,
    VectorRecord,
    WeightVector,
    _check_element,
    _check_subset,
    _classified,
    _complement,
    _members,
    ip_record,
)

# ---------------------------------------------------------------------------
# brackets


def bracket(wv: WeightVector, J: Iterable[int]) -> RationalT:
    """[ prod_{j not in J} 1/((uv)^{q_j} - 1) ]_int as a rational function of
    t = uv; equals (-1)^|K| sum_{k>=0} M_J(k) t^k at t = 0 (K the complement
    of J) and sum_{k>=1} N_J(k) t^{-k} when expanded at infinity.  K's coins
    are cleared in index order, and ``_finish`` does the rest."""
    K = _complement(wv, _check_subset(wv, J))
    P, ms, gap = [1], (), wv.w
    for i in _members(K):
        P, m = extend_cleared(P, wv.weights[i], wv.w)
        ms, gap = ms + (m,), gap - wv.weights[i]
    return _rational(_finish(wv, K, P, ms, gap))


def _finish(wv: WeightVector, K: int, P: List[int], ms: Tuple[int, ...], gap: int) -> Triple:
    """The bracket of the J whose complement has the bitmask K, off K's
    cleared product: P(s) / prod (1 - t**m) over ms is 1 / prod_{k in K}
    (1 - s**w_k), t = s**w, and gap = w - sum_K.  As prod (1 - t**m) is 1 +
    O(s**w), n1 = N_J(1) is P[gap] and m1 = M_J(1) is P[w] plus the number
    of m = 1.  The section ``cleared_section`` cuts, negated when |K| is
    odd, must start as 1 + m1 t (its t^1 coefficient is num[1] plus the
    power of 1 - t once shift = 0 and num[0] = 1), and the bracket must
    vanish at t = infinity with t^-1 coefficient n1; else
    InconsistentExpansion."""
    w = wv.w
    n1 = P[gap] if gap < len(P) else 0
    m1 = (P[w] if w < len(P) else 0) + ms.count(1)
    section = cleared_section(P, ms, w, 0)
    shift, num, den = section
    bt = _scaled(section, -1) if K.bit_count() % 2 else section
    if K:
        top = shift + len(num) - 1 - sum(m * e for m, e in den.items())
        first = bt[1][-1] * (-1) ** sum(den.values()) if num and top == -1 else 0
        start = (shift, list(num[:1]), sum(num[1:2]) + den.get(1, 0))
        if start != (0, [1], m1) or top >= 0 or first != n1:
            J = list(_members(_complement(wv, K)))
            raise InconsistentExpansion(
                f"bracket of {wv} for J = {J}: its expansion at t = infinity"
                f" should be sum_k N_J(k) t^-k and its section at t = 0 start as"
                f" 1 + {m1} t, but it has degree {top}, t^-1 coefficient {first} while"
                f" N_J(1) = {n1}, and (shift, num[:1], t^1 coefficient) = {start}"
            )
    return bt


def _lattice_brackets(rec: VectorRecord) -> Dict[int, Triple]:
    """bracket_J for every J with |J| >= 2 as a triple, keyed by J's bitmask.

    The complements K are walked depth first over the subset lattice, one
    ranked coin at a time: K extends the cleared product of K minus its
    coin of lowest rank by that one coin (``extend_cleared``), so each
    bracket costs one coin instead of |K|, and only the products along the
    current chain are alive.  Rank 0 is the coin that lengthens a product
    most (by m w - c), so the longest products are leaves, never parents.
    The walk is a loop over a stack of pending extensions, each holding its
    parent's product and the coin to add."""
    wv = rec.wv
    ws, w, n = wv.weights, wv.w, len(wv.weights)
    full = (1 << n) - 1
    growth = [clearing_order(c, w) * w - c for c in ws]
    rank = sorted(range(n), key=growth.__getitem__, reverse=True)
    out: Dict[int, Triple] = {}
    # (K, low, P, ms, gap) of the parent, and the coin it is extended by
    # (-1 for the empty K, which is no extension)
    stack = [(0, n, [1], (), w, -1)]
    while stack:
        K, low, P, ms, gap, i = stack.pop()
        if i >= 0:
            P, m = extend_cleared(P, ws[i], w)
            K, ms, gap = K | 1 << i, ms + (m,), gap - ws[i]
        out[full ^ K] = _finish(wv, K, P, ms, gap)
        if K.bit_count() < n - 2:
            stack.extend((K, p, P, ms, gap, rank[p]) for p in reversed(range(low)))
    return out


# ---------------------------------------------------------------------------
# assembly


def _face_entries(
    classes: Sequence[ElementClass], mask: int, base: Triple, base_u: Triple
) -> List[Tuple[int, int, Triple]]:
    """The face term E_J * base of the J with bitmask ``mask``, one entry
    per key u^a v^b with min(a, b) = 0, from E_J's coefficients
    (``face_terms``) and J's weighted bracket ``base``.  When G_J = {0}
    (no element class has its support in J), E_J is the untwisted
    numerator U on the diagonal, and the face term is ``base_u``, the
    product base * U ``_weighted`` made for E^(0).

    Otherwise the coefficients of E_J whose keys fold onto one key
    (a - m, b - m), m = min(a, b), make one integer polynomial in t, and
    the entry is base times it (``_product``: one peel over base's
    denominator).  That is the form the fold of the parts c t^m base gives
    as well, since they all share base's denominator: the fold's last
    pre-peel state is the whole sum over it."""
    if not any(c.support and c.support & mask == c.support for c in classes):
        return [(0, 0, base_u)]
    face = face_terms(classes, mask)
    _check_ints(face.values())
    polys: Dict[Tuple[int, int], List[int]] = {}
    for (a, b), c in face.items():
        m = min(a, b)
        poly = polys.setdefault((a - m, b - m), [])
        poly.extend([0] * (m + 1 - len(poly)))
        poly[m] += c
    entries = []
    for (a, b), poly in polys.items():
        low = next(i for i, c in enumerate(poly) if c)
        s, q, qden = _product(base, poly[low:])
        entries.append((a, b, (s + low, q, qden)))
    return entries


def _weighted(rec: VectorRecord) -> Tuple[Dict[int, Triple], Dict[int, Triple]]:
    """base_J = (uv - 1)^(d+1-|J|) * bracket_J and base_J * U for every
    |J| >= 2, U the untwisted numerator of E_J, keyed by J's bitmask in
    face order; (uv - 1)^k and U are made once per |J|."""
    d = rec.wv.d
    brackets = _lattice_brackets(rec)
    weighted: Dict[int, Triple] = {}
    untwisted: Dict[int, Triple] = {}
    for k in range(2, d + 2):
        power = _uv_minus_one_pow(d + 1 - k)
        u = _untwisted_numerator(k)
        _check_ints(power + u)
        for J in combinations(range(d + 1), k):
            mask = sum(1 << i for i in J)
            weighted[mask] = _product(brackets[mask], power)
            untwisted[mask] = _product(weighted[mask], u)
    return weighted, untwisted


def _stringy(rec: VectorRecord) -> Half:
    """The stringy half of a vector's record, built on first use: E_str and
    E^(l) for one l per element class.  The build runs on triples; the
    EFunctions the record keeps are made at the end."""
    if rec.stringy is None:
        wv = rec.wv
        dim = wv.d - 1
        weighted, untwisted = _weighted(rec)
        classes = _classified(rec).classes
        # each key of E_str sums its face terms in the order of J: the
        # printed form of the sum follows this grouping and order
        entries = chain.from_iterable(
            _face_entries(classes, mask, weighted[mask], untwisted[mask]) for mask in weighted
        )
        total = EFunction._of(dim, entries)
        # a twisted class sums over the J holding its support in increasing
        # mask order, once per distinct support
        twisted: Dict[int, Triple] = {}
        terms = []
        for c in classes:
            if not c.support:  # l = 0
                entry = (0, 0, _fold(untwisted.values()))
            else:
                if c.support not in twisted:
                    twisted[c.support] = _fold(
                        _scaled(weighted[mask], -1) if mask.bit_count() % 2 else weighted[mask]
                        for mask in range(c.support, 1 << len(wv.weights))
                        if mask & c.support == c.support
                    )
                entry = (c.age - 1, c.size - c.age - 1, twisted[c.support])
            terms.append(EFunction._of(dim, [entry]))
        rec.stringy = Half(total, tuple(terms))
    return rec.stringy


def stringy_terms(wv: WeightVector) -> Dict[FrozenSet[int], EFunction]:
    """The assembled contribution of each face subset J (|J| >= 2); their
    sum in face order is ``stringy_e``."""
    rec = ip_record(wv)
    classes = _classified(rec).classes
    weighted, untwisted = _weighted(rec)
    return {
        frozenset(_members(mask)): EFunction._of(
            wv.d - 1, _face_entries(classes, mask, base, untwisted[mask])
        )
        for mask, base in weighted.items()
    }


def stringy_e(wv: WeightVector) -> EFunction:
    """Stringy E-function of the mirror hypersurface."""
    return _stringy(ip_record(wv)).total


def stringy_e_per_l(wv: WeightVector, l: int) -> EFunction:
    """The contribution E^(l) of a single group element to E_str; summing
    over all l in Z/wZ recovers ``stringy_e``.  Every l of an element class
    gets the same object.  The verdict, the classes and the stringy half
    come from one lookup of wv's record."""
    rec = ip_record(wv)
    _check_element(wv, l)
    return _stringy(rec).terms[rec.class_of[l]]


# ---------------------------------------------------------------------------
# polynomiality and the Euler number


def is_polynomial(e: EFunction) -> bool:
    return e.is_polynomial()


def to_polynomial(e: EFunction) -> BiPoly:
    if not e.is_polynomial():
        raise NotPolynomial("the E-function has non-polynomial terms")
    return e.to_bipoly()


def stringy_euler(wv: WeightVector) -> Fraction:
    """Exact limit of E_str at u = v = 1 (the stringy Euler number of the
    mirror); finite even when E_str is not a polynomial."""
    return stringy_e(wv).value_at_one()
