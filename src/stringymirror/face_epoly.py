"""E-polynomials of the affine hypersurface pieces attached to faces of the
weight simplex.

For an index subset J with |J| >= 2 the piece is a (|J| - 2)-dimensional
affine hypersurface and its E-polynomial is assembled from the face subgroup
G_J = { l : theta~_j(l) = 0 for all j outside J }:

    E_J(u, v) = [ (uv - 1)^(|J|-1) - (-1)^(|J|-1)
                  + (-1)^|J| * sum_{0 != l in G_J} u^age(l) v^(size(l)-age(l))
                ] / (uv)

The division by uv is exact because every nonzero l has age >= 1 and
size - age >= 1; a remainder would mean the weight vector escaped the
well-formedness checks, reported as DivisionNotExact.  The formula is
written once, ``face_terms``, over the element classes, whose supports are
index bitmasks like J; ``face_e`` reads it for one J and the stringy half
for every J.  The stringy half reads two of its parts too: (t - 1)^n,
t = uv, is ``_uv_minus_one_pow``, and the l = 0 part
((t - 1)^(|J|-1) - (-1)^(|J|-1)) / t of E_J is ``_untwisted_numerator``.

``psi`` is the age census of the full group: psi_i = #{ l : age(l) = i }.
Specialising E_I at v = 1 reproduces the psi-weighted form
((u-1)^d - (-1)^d)/u + (-1)^(d-1) sum_{i>=1} psi_i u^(i-1), which the tests
use as a cross-check between the two code paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

from .errors import DivisionNotExact, InconsistentCensus, SubsetTooSmall
from .exact_arith import BiPoly
from .weights import ElementClass, WeightVector, _check_subset, _members, element_classes


@dataclass(frozen=True)
class FaceEPolynomial:
    J: FrozenSet[int]
    value: BiPoly


def face_e(wv: WeightVector, J: Iterable[int]) -> FaceEPolynomial:
    """E-polynomial of the face piece for J (|J| >= 2)."""
    mask = _check_subset(wv, J)
    members = _members(mask)
    if len(members) < 2:
        raise SubsetTooSmall(f"face subsets need at least two indices, got {list(members)}")
    return FaceEPolynomial(frozenset(members), BiPoly(face_terms(element_classes(wv), mask)))


def _uv_minus_one_pow(n: int) -> List[int]:
    """(t - 1)^n as dense coefficients."""
    return [comb(n, i) * (-1) ** (n - i) for i in range(n + 1)]


def _untwisted_numerator(k: int) -> List[int]:
    """((t - 1)^(k-1) - (-1)^(k-1)) / t as dense coefficients, the part of
    E_J from l = 0 for |J| = k: a polynomial of degree k - 2."""
    num = _uv_minus_one_pow(k - 1)
    num[0] -= (-1) ** (k - 1)
    if num[0]:
        raise DivisionNotExact(f"(t - 1)^{k - 1} - (-1)^{k - 1} is not divisible by t")
    return num[1:]


def face_terms(classes: Sequence[ElementClass], mask: int) -> Dict[Tuple[int, int], int]:
    """The nonzero coefficients {(a, b): c} of E_J for the index bitmask J
    (|J| >= 2), from the element classes: G_J minus {0} is the elements
    whose nonempty support lies in J."""
    k = mask.bit_count()
    # (uv - 1)^(k-1) - (-1)^(k-1), along the diagonal
    terms = {(i, i): c for i, c in enumerate(_untwisted_numerator(k), 1)}
    sign = (-1) ** k
    for support, age, size, count, _ in classes:
        if support and support & mask == support:
            key = (age, size - age)
            terms[key] = terms.get(key, 0) + sign * count
    out: Dict[Tuple[int, int], int] = {}
    for (a, b), c in terms.items():
        if c == 0:
            continue
        if a < 1 or b < 1:
            raise DivisionNotExact(
                f"face numerator for J={list(_members(mask))} has a u^{a} v^{b} term; "
                "division by uv is not exact"
            )
        out[(a - 1, b - 1)] = c
    return out


def psi(wv: WeightVector) -> Tuple[int, ...]:
    """Age census (psi_0, ..., psi_d); psi_0 = 1 (only l = 0 has age 0) and
    the entries sum to w."""
    counts = [0] * (wv.d + 1)
    for c in element_classes(wv):
        counts[c.age] += c.count
    if counts[0] != 1 or sum(counts) != wv.w:
        raise InconsistentCensus(
            f"age census {counts} of {wv} needs psi_0 = 1 and sum {wv.w}"
        )
    return tuple(counts)
