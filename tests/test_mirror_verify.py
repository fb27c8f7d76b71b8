"""End-to-end duality reports: the face-assembled stringy E-function against
the orbifold sector sum, globally, per group element, and at the Hodge
level."""

from fractions import Fraction

import pytest

from stringymirror import cli, per_l_check, validate, verify, weights
from stringymirror.errors import NotIP, OutOfRange
from stringymirror.weights import ip_vectors

QUINTIC = (1, 1, 1, 1, 1)
K3 = (1, 5, 12, 18)
OCTIC = (1, 1, 2, 2, 2)
FERMAT_LIKE = (1, 1, 2, 4, 5)


def test_verify_k3():
    report = verify(validate(K3))
    assert report.passed
    assert report.global_identity
    assert report.per_l_failures == ()
    assert report.transverse
    assert report.stringy_polynomial
    assert report.hodge_pairs_match
    assert report.euler_stringy == 24
    assert report.euler_orbifold == 24


def test_verify_octic():
    report = verify(validate(OCTIC))
    assert report.passed
    assert report.euler_stringy == 168
    assert report.euler_orbifold == -168
    assert report.stringy_polynomial


def test_verify_quintic():
    report = verify(validate(QUINTIC))
    assert report.passed
    assert report.hodge_pairs_match
    assert (report.euler_stringy, report.euler_orbifold) == (200, -200)


def test_verify_fermat_like_identity_without_mirror():
    # the identity holds as rational functions even though no polynomial
    # (hence no mirror Calabi-Yau) comes out
    report = verify(validate(FERMAT_LIKE))
    assert report.global_identity
    assert report.passed
    assert not report.stringy_polynomial
    assert not report.transverse
    assert report.euler_stringy == Fraction(1032, 5)
    assert report.euler_orbifold == Fraction(-1032, 5)


def test_verify_requires_ip():
    with pytest.raises(NotIP):
        verify(validate((1, 1, 4)))


def test_verify_transverse_members_are_polynomial():
    for ws in (QUINTIC, K3, OCTIC):
        report = verify(validate(ws))
        assert report.transverse and report.stringy_polynomial


def test_per_l_check_untwisted():
    assert per_l_check(validate(K3), 0)


def test_per_l_check_top_size_element():
    # size d + 1 collapses both sides to a single monomial
    assert per_l_check(validate(K3), 1)


def test_per_l_check_all_octic():
    wv = validate(OCTIC)
    assert all(per_l_check(wv, l) for l in range(wv.w))


def test_per_l_check_guards():
    wv = validate(K3)
    with pytest.raises(OutOfRange):
        per_l_check(wv, 36)
    with pytest.raises(NotIP):
        per_l_check(validate((1, 1, 4)), 0)


def test_global_identity_is_per_l_aggregate():
    report = verify(validate(OCTIC))
    assert report.global_identity == (not report.per_l_failures)


@pytest.fixture
def fresh_records():
    """Drop the cached records before and after, so a fault put into one
    stays in its test."""
    weights.record.cache_clear()
    yield
    weights.record.cache_clear()


def _drop_an_element(wv):
    """Take one element off the last twisted class of wv's record with more
    than one, before either half is built: both halves read the faulted
    table, and ``vafa_euler`` reads no classes."""
    rec = weights._classified(weights.record(wv))
    classes = list(rec.classes)
    i = max(i for i, c in enumerate(classes) if c.support and c.count > 1)
    classes[i] = classes[i]._replace(count=classes[i].count - 1)
    rec.classes = tuple(classes)


@pytest.mark.parametrize("ws", [(1, 1, 1, 2), FERMAT_LIKE], ids=str)
def test_a_class_count_fault_fails_the_verdict(fresh_records, capsys, ws):
    # the fault moves both halves alike, so the identity still holds, in
    # total and per element: only the Euler number sees it
    wv = validate(ws)
    _drop_an_element(wv)
    report = verify(wv)
    assert report.global_identity and not report.per_l_failures
    assert report.euler_stringy != (-1) ** (wv.d - 1) * report.euler_orbifold
    assert not report.passed
    assert cli.main(["mirror-check", ",".join(map(str, ws))]) == 0
    assert "mirror_check: fail" in capsys.readouterr().out


@pytest.mark.parametrize("dim, wmax", [(2, 40), (3, 80), (4, 24), (5, 16)])
def test_euler_numbers_agree_over_small_scans(dim, wmax):
    # E_str(1, 1) = (-1)^(d-1) vafa_euler on every IP row, polynomial or not
    for wv in ip_vectors(dim, wmax):
        report = verify(wv)
        assert report.euler_stringy == (-1) ** (dim - 1) * report.euler_orbifold, wv
        assert report.passed, wv
