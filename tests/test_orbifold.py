"""Orbifold side: the Euler-number double sum, the mirror-Hodge generating
polynomial, the mirror-transformed orbifold E-function, and the structural
identity between its two sector representations."""

from fractions import Fraction

import pytest

from stringymirror import (
    BiPoly,
    EFunction,
    RationalT,
    mirror_orbifold_e,
    q_identity_check,
    stringy_e,
    stringy_euler,
    vafa_euler,
    vafa_poincare,
    validate,
    weights,
)
from stringymirror.errors import NonIntegerCoefficient, SignPatternViolation
from stringymirror.orbifold import _direct_sector, _orbifold
from stringymirror.weights import class_index, element_classes, ip_vectors, transverse

from conftest import _ip_members, slow_vafa_poincare

QUINTIC = (1, 1, 1, 1, 1)
K3 = (1, 5, 12, 18)
OCTIC = (1, 1, 2, 2, 2)
FERMAT_LIKE = (1, 1, 2, 4, 5)
DEGREE_1806 = (1, 42, 258, 602, 903)
RATIONAL_SECTOR = (1, 2, 3, 10, 15)  # non-transverse: U_l is not a polynomial


def _sector_bipoly(wv, l):
    """The direct sector of l's element class, as a polynomial in (t, tbar)."""
    entry = _direct_sector(wv, element_classes(wv)[class_index(wv)[l]])
    return EFunction._of(wv.d - 1, [entry]).to_bipoly()


# ---------------------------------------------------------------------------
# Euler numbers


def test_vafa_euler_quintic():
    # only (l, r) = (0, 0) contributes a nonempty product: ((-4)^5 + 24)/5
    assert vafa_euler(validate(QUINTIC)) == Fraction((-4) ** 5 + 24, 5) == -200


def test_vafa_euler_octic():
    assert vafa_euler(validate(OCTIC)) == -168


def test_vafa_euler_k3():
    assert vafa_euler(validate(K3)) == 24


def test_vafa_euler_reads_no_element_classes():
    # the closed form sums over index subsets, so a fresh record keeps its
    # classes unbuilt
    wv = validate(FERMAT_LIKE)
    weights.record.cache_clear()
    rec = weights.record(wv)
    assert vafa_euler(wv) == Fraction(-1032, 5)
    assert rec.classes is None and rec.class_of is None


@pytest.mark.parametrize("ws", [QUINTIC, K3, OCTIC, FERMAT_LIKE])
def test_euler_sign_rule(ws):
    # chi_str of the mirror = (-1)^(d-1) chi_orb of the hypersurface
    wv = validate(ws)
    assert stringy_euler(wv) == (-1) ** (wv.d - 1) * vafa_euler(wv)


# ---------------------------------------------------------------------------
# mirror Hodge generating polynomial


def test_vafa_poincare_quintic():
    p = vafa_poincare(validate(QUINTIC))
    assert p == BiPoly(
        {
            (0, 0): 1,
            (1, 1): 101,
            (2, 2): 101,
            (3, 3): 1,
            (3, 0): 1,
            (2, 1): 1,
            (1, 2): 1,
            (0, 3): 1,
        }
    )


def test_vafa_poincare_quintic_sectors():
    wv = validate(QUINTIC)
    assert _sector_bipoly(wv, 0) == BiPoly(
        {(0, 0): 1, (1, 1): 101, (2, 2): 101, (3, 3): 1}
    )
    twisted = [_sector_bipoly(wv, l).terms for l in range(1, 5)]
    assert sorted(twisted, key=str) == sorted(
        [{(3, 0): 1}, {(2, 1): 1}, {(1, 2): 1}, {(0, 3): 1}], key=str
    )


def test_vafa_poincare_octic_sectors():
    wv = validate(OCTIC)
    assert _sector_bipoly(wv, 0) == BiPoly(
        {(0, 0): 1, (1, 1): 83, (2, 2): 83, (3, 3): 1}
    )
    assert _sector_bipoly(wv, 4) == BiPoly({(1, 1): 3, (2, 2): 3})


def test_vafa_poincare_octic_total():
    p = vafa_poincare(validate(OCTIC))
    assert p == BiPoly(
        {
            (0, 0): 1,
            (1, 1): 86,
            (2, 1): 2,
            (1, 2): 2,
            (3, 0): 1,
            (0, 3): 1,
            (2, 2): 86,
            (3, 3): 1,
        }
    )


def test_vafa_poincare_symmetric_nonnegative():
    for ws in (QUINTIC, K3, OCTIC):
        p = vafa_poincare(validate(ws))
        for (a, b), c in p.terms.items():
            assert c > 0
            assert p.coefficient(b, a) == c


def test_vafa_poincare_rejects_non_transverse():
    with pytest.raises(NonIntegerCoefficient):
        vafa_poincare(validate(FERMAT_LIKE))


def test_vafa_poincare_reads_the_grid_by_the_hodge_sign_rule(monkeypatch):
    # an orbifold total 1 - u has h^{1,0} = 1 but h^{0,1} = 0: the Hodge
    # reader rejects the asymmetric grid where a bare sign flip gives 1 + u
    wv = validate(QUINTIC)
    rec = weights.record(wv)
    terms = _orbifold(rec).terms
    total = EFunction(3, [(0, 0, RationalT.one()), (1, 0, RationalT([-1]))])
    monkeypatch.setattr(rec, "orbifold", weights.Half(total, terms))
    with pytest.raises(SignPatternViolation, match=r"h\^\{1,0\} = 1 but h\^\{0,1\} = 0"):
        vafa_poincare(wv)


def _poincare_or_error(fn, wv):
    try:
        return fn(wv)
    except NonIntegerCoefficient as exc:
        return str(exc)


def test_vafa_poincare_matches_long_division(population):
    # the same polynomial, or the same NonIntegerCoefficient message, as the
    # long-division route over 2w on every survey vector and every IP vector
    # with six weights and w <= 16
    six_weights = list(ip_vectors(5, 16))
    assert sum(transverse(wv) for wv in six_weights) == 62
    assert any(not transverse(wv) for wv in population)
    for wv in population + six_weights:
        assert _poincare_or_error(vafa_poincare, wv) == _poincare_or_error(
            slow_vafa_poincare, wv
        ), wv


def test_vafa_poincare_matches_long_division_degree_1806():
    wv = validate(DEGREE_1806)
    assert vafa_poincare(wv) == slow_vafa_poincare(wv)


def test_vafa_poincare_sign_rule():
    # P(t, tbar) is the mirror-side E-function with the sign (-1)^(p+q)
    # dropped, on every transverse IP vector of d = 3, w <= 66 and d = 4,
    # w <= 24
    vectors = [wv for wv in _ip_members(3, 66) + _ip_members(4, 24) if transverse(wv)]
    assert len(vectors) > 100
    for wv in vectors:
        e = mirror_orbifold_e(wv).value.to_bipoly()
        signed = BiPoly({(p, q): (-1) ** (p + q) * c for (p, q), c in e.terms.items()})
        assert vafa_poincare(wv) == signed, wv


# ---------------------------------------------------------------------------
# mirror-transformed orbifold E-function


def test_mirror_orbifold_octic():
    res = mirror_orbifold_e(validate(OCTIC))
    assert res.value.to_bipoly() == BiPoly(
        {
            (0, 0): 1,
            (1, 1): 86,
            (3, 0): -1,
            (2, 1): -2,
            (1, 2): -2,
            (0, 3): -1,
            (2, 2): 86,
            (3, 3): 1,
        }
    )
    assert res.euler == 168


def test_mirror_orbifold_k3():
    res = mirror_orbifold_e(validate(K3))
    assert res.value.to_bipoly() == BiPoly(
        {(0, 0): 1, (2, 0): 1, (1, 1): 20, (0, 2): 1, (2, 2): 1}
    )
    assert res.per_l_terms[0] == EFunction(2, [(0, 0, RationalT([1, 10, 1]))])


def test_mirror_orbifold_fermat_like_formal():
    res = mirror_orbifold_e(validate(FERMAT_LIKE))
    assert not res.value.is_polynomial()
    assert res.euler == Fraction(1032, 5)


@pytest.mark.parametrize("ws", [QUINTIC, K3, OCTIC, FERMAT_LIKE])
def test_orbifold_result_internal_consistency(ws):
    res = mirror_orbifold_e(validate(ws))
    total = None
    for term in res.per_l_terms.values():
        total = term if total is None else total + term
    assert total == res.value
    assert res.value.value_at_one() == res.euler


@pytest.mark.parametrize("ws", [K3, OCTIC])
def test_per_l_inverse_pairing(ws):
    # the l and w - l sectors differ by swapping u and v
    wv = validate(ws)
    per_l = mirror_orbifold_e(wv).per_l_terms
    for l in range(1, wv.w):
        mine = per_l[l].terms
        theirs = per_l[wv.w - l].terms
        assert mine == {(b, a): r for (a, b), r in theirs.items()}


@pytest.mark.parametrize("ws", [QUINTIC, K3, OCTIC])
def test_mirror_orbifold_equals_stringy(ws):
    wv = validate(ws)
    assert mirror_orbifold_e(wv).value == stringy_e(wv)


# ---------------------------------------------------------------------------
# the two sector representations agree


@pytest.mark.parametrize("ws", [QUINTIC, K3, OCTIC, FERMAT_LIKE, DEGREE_1806, RATIONAL_SECTOR])
def test_q_identity(ws):
    assert q_identity_check(validate(ws))


FAULTS = {
    "negated": lambda a, b, r: (a, b, -r),
    "times uv": lambda a, b, r: (a + 1, b + 1, r),
}


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("ws", [QUINTIC, FERMAT_LIKE, RATIONAL_SECTOR])
def test_a_wrong_class_term_fails_the_q_identity(monkeypatch, ws, fault):
    # each class's term of the orbifold half is compared with its direct
    # sector: a fault in the record's term of any one class is seen
    wv = validate(ws)
    rec = weights.record(wv)
    half = _orbifold(rec)
    assert q_identity_check(wv)
    for i, term in enumerate(half.terms):
        wrong = EFunction(wv.d - 1, [FAULTS[fault](*e) for e in term.iter_entries()])
        terms = half.terms[:i] + (wrong,) + half.terms[i + 1 :]
        monkeypatch.setattr(rec, "orbifold", half._replace(terms=terms))
        assert not q_identity_check(wv), i
