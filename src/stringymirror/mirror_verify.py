"""Mirror-duality verification.

The identity under test, element by element and in total:

    E_str(mirror; u, v) = (-u)^(d-1) E_orb(X; 1/u, v)

The left side comes from the face assembly (``stringy``), the right side
from the twisted-sector sum (``orbifold``); the two pipelines share no code
past the arithmetic kernel, so agreement is a genuine cross-check of both.

When both sides are polynomials the report also records, Hodge entry by
Hodge entry, that h^{p,q}_str(mirror) = h^{d-1-p,q}_orb(X), obtained by
undoing the (-u)^(d-1), u -> 1/u transform on the orbifold side.

The verdict also needs two checks that read no element classes, since a
fault in the one table both halves read moves both: E_str(1, 1) = (-1)^(d-1)
``vafa_euler``, and stringy Poincare duality, E_str(u, v) = (uv)^D
E_str(1/u, 1/v) with D = d - 1 (Batyrev, alg-geom/9711008), key by key.
A wrong age moves a twisted class's term off its dual key.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .errors import InconsistentVerification
from .exact_arith import EFunction, _reflected, _same, hodge_table, mirror_transform
from .orbifold import _orbifold, vafa_euler
from .stringy import _stringy
from .weights import WeightVector, _check_element, _classified, ip_record, transverse


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
    self_dual: bool

    @property
    def passed(self) -> bool:
        sign = -1 if len(self.weights) % 2 else 1  # (-1)^(d-1), d + 1 weights
        agrees = self.global_identity and not self.per_l_failures and self.self_dual
        return agrees and self.euler_stringy == sign * self.euler_orbifold


def _self_dual(e: EFunction) -> bool:
    """Whether e(u, v) = (uv)^D e(1/u, 1/v), D = e.dimension, key by key:
    the entry (a, b, R) with m = max(a, b) has the dual (m - a, m - b,
    t^(D - m) R(1/t)), and e must hold each dual as it is."""
    dual = {}
    for (a, b), r in e.terms.items():
        shift, num, den = _reflected(r._triple())
        m = max(a, b)
        dual[m - a, m - b] = (shift + e.dimension - m, num, den)
    return dual.keys() == e.terms.keys() and all(
        _same(dual[key], r._triple()) for key, r in e.terms.items()
    )


def per_l_check(wv: WeightVector, l: int) -> bool:
    """Does the face-assembled contribution of the group element l equal the
    orbifold sector term of the same l?"""
    rec = ip_record(wv)
    _check_element(wv, l)
    c = _classified(rec).class_of[l]
    return _stringy(rec).terms[c] == _orbifold(rec).terms[c]


def verify(wv: WeightVector) -> VerificationReport:
    """Full mirror-duality report; raises NotIP when no mirror exists."""
    rec = ip_record(wv)
    s = _stringy(rec)
    orb = _orbifold(rec)
    # both halves hold one term per element class, in the order of the classes
    failed = {c for c, (a, b) in enumerate(zip(s.terms, orb.terms)) if a != b}
    failures = [l for l, c in enumerate(_classified(rec).class_of) if c in failed]
    global_identity = s.total == orb.total
    if global_identity == bool(failures):
        raise InconsistentVerification(
            f"{wv}: global identity {global_identity} disagrees with"
            f" {len(failures)} per-element failures"
        )
    poly = s.total.is_polynomial()
    hodge_ok = False
    if poly and orb.total.is_polynomial():
        dim = wv.d - 1
        table_str = hodge_table(s.total.to_bipoly(), dim)
        # undo the mirror transform to read the orbifold table of X itself;
        # hodge_table also checks X's own symmetry h^{p,q} = h^{q,p}, which
        # the mirror's table does not imply: its symmetry gives only
        # h^{dim-p,q}(X) = h^{dim-q,p}(X)
        e_orb_x = mirror_transform(orb.total.to_bipoly(), dim)
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
        euler_stringy=s.total.value_at_one(),
        euler_orbifold=vafa_euler(wv),
        self_dual=_self_dual(s.total),
    )
