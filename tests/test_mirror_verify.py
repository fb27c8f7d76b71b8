"""End-to-end duality reports: the face-assembled stringy E-function against
the orbifold sector sum, globally, per group element, and at the Hodge
level."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from stringymirror import cli, per_l_check, validate, verify, weights
from stringymirror.errors import (
    InconsistentVerification,
    NotIP,
    OutOfRange,
    StringyMirrorError,
)
from stringymirror.stringy import _stringy
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


def _fault(wv, change):
    """Put change(c) in place of the last twisted class c of wv's record with
    more than one element, before either half is built: both halves read
    the faulted table, and ``vafa_euler`` reads no classes."""
    rec = weights._classified(weights.record(wv))
    classes = list(rec.classes)
    i = max(i for i, c in enumerate(classes) if c.support and c.count > 1)
    classes[i] = change(classes[i])
    rec.classes = tuple(classes)


def _drop_an_element(wv):
    """Take one element off that class."""
    _fault(wv, lambda c: c._replace(count=c.count - 1))


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


def test_swapped_class_terms_fail_the_agreement_guard(fresh_records):
    # two of the quintic's stringy class terms trade places in its record:
    # the total still agrees with the orbifold total, but the elements of
    # both classes fail, and the guard must raise, also under -O
    wv = validate(QUINTIC)
    rec = weights.record(wv)
    half = _stringy(rec)
    t = half.terms
    rec.stringy = half._replace(terms=(t[0], t[2], t[1]) + t[3:])
    with pytest.raises(InconsistentVerification, match="True disagrees with 2 per-element"):
        verify(wv)


@pytest.mark.parametrize("dim, wmax", [(2, 40), (3, 80), (4, 24), (5, 16)])
def test_euler_numbers_agree_over_small_scans(dim, wmax):
    # E_str(1, 1) = (-1)^(d-1) vafa_euler on every IP row, polynomial or not
    for wv in ip_vectors(dim, wmax):
        report = verify(wv)
        assert report.euler_stringy == (-1) ** (dim - 1) * report.euler_orbifold, wv
        assert report.passed, wv


# one field of a class changed; the classes are the one table both halves read
CLASS_FAULTS = {
    "age + 1": lambda c: c._replace(age=c.age + 1),
    "age - 1": lambda c: c._replace(age=c.age - 1),
    "count + 1": lambda c: c._replace(count=c.count + 1),
    "count - 1": lambda c: c._replace(count=c.count - 1),
    "support bit dropped": lambda c: c._replace(support=c.support & (c.support - 1)),
}


def _reference_vectors():
    reference = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
    return [tuple(map(int, v.split(","))) for v in json.loads(reference.read_text())["vectors"]]


def test_no_class_fault_that_moves_e_str_passes_the_verdict(fresh_records):
    # a fault in the class table moves both halves alike, so the identity
    # holds; a wrong age keeps E_str(1, 1) too, and only the duality of
    # E_str sees it.  Every fault that changes E_str must fail the verdict
    # or raise
    escaped = {name: [] for name in CLASS_FAULTS}
    failed = dict.fromkeys(CLASS_FAULTS, 0)
    for ws in _reference_vectors():
        wv = validate(ws)
        weights.record.cache_clear()
        rec = weights.ip_record(wv)
        if not any(c.support and c.count > 1 for c in weights._classified(rec).classes):
            continue  # no class to fault
        clean = _stringy(rec).total
        for name, change in CLASS_FAULTS.items():
            weights.record.cache_clear()
            _fault(wv, change)
            try:
                report = verify(wv)
            except (StringyMirrorError, KeyError):
                # a support of one index has no face for the stringy half
                failed[name] += 1
                continue
            if _stringy(weights.record(wv)).total != clean:
                if report.passed:
                    escaped[name].append(ws)
                else:
                    failed[name] += 1
    assert escaped == {name: [] for name in CLASS_FAULTS}
    assert all(failed.values()), failed
