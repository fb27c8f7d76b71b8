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
well-formedness checks, reported as DivisionNotExact.

``psi`` is the age census of the full group: psi_i = #{ l : age(l) = i }.
Specialising E_I at v = 1 reproduces the psi-weighted form
((u-1)^d - (-1)^d)/u + (-1)^(d-1) sum_{i>=1} psi_i u^(i-1), which the tests
use as a cross-check between the two code paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Dict, FrozenSet, Iterable, Tuple

from .errors import DivisionNotExact, InconsistentCensus, SubsetTooSmall
from .exact_arith import BiPoly
from .weights import WeightVector, _check_subset, _elements, subgroup


@dataclass(frozen=True)
class FaceEPolynomial:
    J: FrozenSet[int]
    value: BiPoly


def face_e(wv: WeightVector, J: Iterable[int]) -> FaceEPolynomial:
    """E-polynomial of the face piece for J (|J| >= 2)."""
    Jf = _check_subset(wv, J)
    k = len(Jf)
    if k < 2:
        raise SubsetTooSmall(f"face subsets need at least two indices, got {sorted(Jf)}")
    terms: Dict[Tuple[int, int], int] = {}
    # (uv - 1)^(k-1) - (-1)^(k-1), along the diagonal
    for i in range(k):
        c = comb(k - 1, i) * (-1) ** (k - 1 - i)
        terms[(i, i)] = terms.get((i, i), 0) + c
    terms[(0, 0)] = terms.get((0, 0), 0) - (-1) ** (k - 1)
    sign = (-1) ** k
    els = _elements(wv)
    for l in subgroup(wv, Jf).members:
        if l == 0:
            continue
        el = els[l]
        key = (el.age, el.size - el.age)
        terms[key] = terms.get(key, 0) + sign
    out: Dict[Tuple[int, int], int] = {}
    for (a, b), c in terms.items():
        if c == 0:
            continue
        if a < 1 or b < 1:
            raise DivisionNotExact(
                f"face numerator for J={sorted(Jf)} has a u^{a} v^{b} term; "
                "division by uv is not exact"
            )
        out[(a - 1, b - 1)] = c
    return FaceEPolynomial(Jf, BiPoly(out))


def psi(wv: WeightVector) -> Tuple[int, ...]:
    """Age census (psi_0, ..., psi_d); psi_0 = 1 (only l = 0 has age 0) and
    the entries sum to w."""
    counts = [0] * (wv.d + 1)
    for el in _elements(wv):
        counts[el.age] += 1
    if counts[0] != 1 or sum(counts) != wv.w:
        raise InconsistentCensus(
            f"age census {counts} of {wv} needs psi_0 = 1 and sum {wv.w}"
        )
    return tuple(counts)
