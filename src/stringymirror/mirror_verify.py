"""Mirror-duality verification.

The identity under test, element by element and in total:

    E_str(mirror; u, v) = (-u)^(d-1) E_orb(X; 1/u, v)

The left side comes from the face assembly (``stringy``), the right side
from the twisted-sector sum (``orbifold``); the two pipelines share no code
past the arithmetic kernel, so agreement is a genuine cross-check of both.

When both sides are polynomials the report also records, Hodge entry by
Hodge entry, that h^{p,q}_str(mirror) = h^{d-1-p,q}_orb(X), obtained by
undoing the (-u)^(d-1), u -> 1/u transform on the orbifold side.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Tuple

from .errors import OutOfRange
from .exact_arith import mirror_transform
from .orbifold import mirror_orbifold_e, vafa_euler
from .stringy import hodge_table, stringy_e, stringy_e_per_l, stringy_euler
from .weights import WeightVector, _elements, require_ip, transverse


@dataclass(frozen=True)
class VerificationReport:
    weights: Tuple[int, ...]
    ip: bool
    transverse: bool
    global_identity: bool
    per_l_failures: Tuple[int, ...]
    stringy_polynomial: bool
    hodge_pairs_match: bool
    euler_stringy: Fraction
    euler_orbifold: Fraction

    @property
    def passed(self) -> bool:
        return self.global_identity and not self.per_l_failures


def per_l_check(wv: WeightVector, l: int) -> bool:
    """Does the face-assembled contribution of the group element l equal the
    orbifold sector term of the same l?"""
    require_ip(wv)
    if not 0 <= l < wv.w:
        raise OutOfRange(f"group element {l} outside 0..{wv.w - 1}")
    return stringy_e_per_l(wv, l) == mirror_orbifold_e(wv).per_l_terms[l]


def verify(wv: WeightVector) -> VerificationReport:
    """Full mirror-duality report; raises NotIP when no mirror exists."""
    require_ip(wv)
    s = stringy_e(wv)
    orb = mirror_orbifold_e(wv)
    # deduplicate the per-element checks by the data they depend on: the
    # stringy side sees only (support, age, size), the orbifold side only
    # (zero set, age, size)
    seen: Dict[Tuple[frozenset, int, int], bool] = {}
    failures = []
    for l in range(wv.w):
        el = _elements(wv)[l]
        support = frozenset(i for i, q in enumerate(el.theta_tilde) if q)
        key = (support, el.age, el.size)
        ok = seen.get(key)
        if ok is None:
            ok = stringy_e_per_l(wv, l) == orb.per_l_terms[l]
            seen[key] = ok
        if not ok:
            failures.append(l)
    global_identity = s == orb.value
    assert global_identity == (not failures), (
        "per-element identities and the global identity must agree"
    )
    poly = s.is_polynomial()
    hodge_ok = False
    if poly and orb.value.is_polynomial():
        dim = wv.d - 1
        table_str = hodge_table(s.to_bipoly(), dim)
        # undo the mirror transform to read the orbifold table of X itself
        e_orb_x = mirror_transform(orb.value.to_bipoly(), dim)
        table_orb = hodge_table(e_orb_x, dim)
        hodge_ok = all(
            table_str.h(p, q) == table_orb.h(dim - p, q)
            for p in range(dim + 1)
            for q in range(dim + 1)
        )
    return VerificationReport(
        weights=wv.weights,
        ip=True,
        transverse=transverse(wv),
        global_identity=global_identity,
        per_l_failures=tuple(failures),
        stringy_polynomial=poly,
        hodge_pairs_match=hodge_ok,
        euler_stringy=stringy_euler(wv),
        euler_orbifold=vafa_euler(wv),
    )
