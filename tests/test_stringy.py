"""Assembly of the mirror's stringy E-function: brackets, the face-by-face
sum, the per-element decomposition, polynomiality, Hodge tables, and the
stringy Euler number."""

import gc
import operator
from fractions import Fraction
from functools import reduce
from math import gcd

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from stringymirror import (
    BiPoly,
    EFunction,
    RationalT,
    bracket,
    hodge_table,
    ip_property,
    is_polynomial,
    lattice_counts,
    limit_at_one,
    mirror_orbifold_e,
    rational_from_counts,
    stringy_e,
    stringy_e_per_l,
    stringy_euler,
    stringy_terms,
    to_polynomial,
    vafa_euler,
    validate,
    verify,
)
from stringymirror import cli, exact_arith, stringy, weights
from stringymirror.errors import (
    InconsistentExpansion,
    NotIP,
    NotPolynomial,
    NotWellFormed,
    OutOfRange,
    SignPatternViolation,
)

from conftest import lattice_points, series_counts, slow_series_quotient, slow_stringy_half

QUINTIC = (1, 1, 1, 1, 1)
K3 = (1, 5, 12, 18)
OCTIC = (1, 1, 2, 2, 2)
FERMAT_LIKE = (1, 1, 2, 4, 5)
DEGREE_1806 = (1, 42, 258, 602, 903)

K3_POLY = BiPoly({(0, 0): 1, (2, 0): 1, (1, 1): 20, (0, 2): 1, (2, 2): 1})
OCTIC_POLY = BiPoly(
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


# ---------------------------------------------------------------------------
# brackets


def test_bracket_full_subset_is_one():
    assert bracket(validate(K3), range(4)) == RationalT.one()


def test_bracket_single_coin_k3():
    # complement {weight 5}: sum over k of [5 | k] t^-k = 1/(t^5 - 1)
    r = bracket(validate(K3), (0, 2, 3))
    assert r == RationalT([-1], 0, [(5, 1)])


def test_bracket_quintic_one_index():
    # N(k) = 1 for every k: geometric series 1/(t - 1)
    r = bracket(validate(QUINTIC), (0, 1, 2, 3))
    assert r == RationalT([-1], 0, [(1, 1)])


@pytest.mark.parametrize("ws", [QUINTIC, K3, OCTIC, FERMAT_LIKE])
def test_bracket_reexpansion_matches_counts(ws):
    # the t -> infinity expansion of every bracket must reproduce the
    # lattice counts it was reconstructed from
    wv = validate(ws)
    n = wv.d + 1
    for mask in range(1 << n):
        J = [i for i in range(n) if mask >> i & 1]
        comp = [i for i in range(n) if not mask >> i & 1]
        back = bracket(wv, J).inverse_substitution()
        assert back.series(12)[1:] == series_counts(ws, comp, 12), J


@pytest.mark.parametrize("ws", [DEGREE_1806, FERMAT_LIKE, K3])
def test_bracket_matches_certified_counts(ws):
    # every bracket with a nonempty complement, against the counts route:
    # N_J(1..K) by ``lattice_counts``, reconstructed in x = 1/t over
    # prod (1 - x^m_j), m_j = w_j / gcd(w_j, w), with a full-period guard,
    # then x = 1/t; the normal forms must agree, not only the values
    wv = validate(ws)
    n = wv.d + 1
    for mask in range((1 << n) - 1):
        J = [i for i in range(n) if mask >> i & 1]
        ms = [ws[i] // gcd(ws[i], wv.w) for i in range(n) if not mask >> i & 1]
        counts = lattice_counts(wv, J, 2 * sum(ms))
        want = rational_from_counts(counts, [(m, 1) for m in ms]).inverse_substitution()
        got = bracket(wv, J)
        assert (got.shift, got.num, got.den) == (want.shift, want.num, want.den), J


def _form(r):
    """(shift, num, den) as tuples, of a RationalT or of a (shift, num list,
    den dict) triple as the walk hands its brackets on."""
    if isinstance(r, tuple):
        shift, num, den = r
        return shift, tuple(num), tuple(den.items())
    return r.shift, r.num, r.den


def _first_coefficient_at_infinity(form):
    """The t^-1 coefficient at t = infinity of the function of the form
    (shift, num, den), for one vanishing there."""
    shift, num, den = form
    top = shift + len(num) - 1 - sum(m * e for m, e in den)
    return num[-1] * (-1) ** sum(e for _, e in den) if top == -1 else 0


@settings(deadline=None, derandomize=True, max_examples=40)
@given(st.lists(st.integers(1, 12), min_size=2, max_size=6))
@example([1, 1])
@example([1, 2, 3])
@example([1, 1, 1, 1, 1, 1])
@example(list(DEGREE_1806))
def test_lattice_brackets_match_per_subset_brackets(ws):
    # the depth-first walk over the complements gives every face subset's
    # bracket in the form of a bracket built from scratch, and the t^-1
    # coefficient its check reads is N_J(1)
    try:
        wv = validate(sorted(ws))
    except NotWellFormed:
        assume(False)
    assume(ip_property(wv))
    n = len(ws)
    got = stringy._lattice_brackets(weights.record(wv))
    assert sorted(got) == [mask for mask in range(1 << n) if bin(mask).count("1") >= 2]
    for mask, r in got.items():
        J = [i for i in range(n) if mask >> i & 1]
        assert _form(r) == _form(bracket(wv, J)), J
        if len(J) < n:
            assert _first_coefficient_at_infinity(_form(r)) == lattice_counts(wv, J, 1)[0], J


_section = exact_arith.cleared_section

# the 105 IP vectors of the d = 3 and d = 4 scans up to w = 30 and w = 12,
# each bracket of them with a proper nonempty J: 1,934 brackets
SWEEP = [wv.weights for wv in weights.ip_vectors(3, 30)] + [
    wv.weights for wv in weights.ip_vectors(4, 12)
]


def _proper_subsets(n):
    for mask in range(1, (1 << n) - 1):
        yield [i for i in range(n) if mask >> i & 1]


@pytest.fixture
def shifted_kernel(monkeypatch):
    """Patch the section kernel ``cleared_section`` to read its
    coefficients ``shift`` places off, for every route to a bracket: both
    ``bracket`` and the walk reach it through ``stringy._finish``, which
    calls it as ``stringy.cleared_section``.  The records built under it
    are dropped on both sides."""

    def patch(shift):
        def _shifted_section(P, ms, w, offset):
            return _section(P, ms, w, offset + shift)

        weights.record.cache_clear()
        monkeypatch.setattr(stringy, "cleared_section", _shifted_section)

    yield patch
    weights.record.cache_clear()


@pytest.mark.parametrize("shift", [1, -1], ids=lambda s: f"{s:+d}")
def test_bracket_checks_catch_a_shifted_kernel(shifted_kernel, capsys, shift):
    # a multisection one coefficient off either way: the expansion at t = 0
    # no longer starts as (-1)^|K| t^0, or the one at t = infinity no longer
    # as N_J(1) t^-1, and every route to a bracket says so.  The complement
    # of J = (0, 2, 3) is the coin 5; that of (1, 2, 3) would be the coin 1,
    # whose section is the same at every residue, so a +1 fault leaves its
    # bracket right
    shifted_kernel(shift)
    with pytest.raises(InconsistentExpansion):
        bracket(validate(K3), (0, 2, 3))
    with pytest.raises(InconsistentExpansion):
        stringy_e(validate(K3))
    assert cli.main(["stringy", "1,1,1,1,1"]) == 4
    assert "expansion at t = infinity" in capsys.readouterr().err


def _changed_and_passing(shifted_kernel, shift):
    """The number of SWEEP brackets a kernel read ``shift`` places off
    changes, and the (ws, J) of those it changes that pass the checks."""
    want = {
        (ws, tuple(J)): _form(bracket(validate(ws), J))
        for ws in SWEEP
        for J in _proper_subsets(len(ws))
    }
    shifted_kernel(shift)
    changed, passing = 0, []
    for (ws, J), form in want.items():
        try:
            got = bracket(validate(ws), J)
        except InconsistentExpansion:
            changed += 1
            continue
        if _form(got) != form:
            changed += 1
            passing.append((ws, J))
    return changed, passing


def test_every_bracket_a_low_shifted_kernel_changes_raises(shifted_kernel):
    # one coefficient low, the section at t = 0 starts at t^1 instead of
    # t^0: every bracket the fault changes must raise
    assert _changed_and_passing(shifted_kernel, -1) == (1934, [])


def test_a_high_shifted_kernel_passes_only_where_the_first_counts_hold(shifted_kernel):
    # one coefficient high, a bracket whose complement K holds one coin 1
    # changes by the residue-1 section D of K's other coins, and the checks
    # compare M_J(1) and N_J(1) at each end: 19 of the 1,553 wrong brackets
    # pass, those whose D starts past t^1 at t = 0 and past t^-1 at
    # infinity, as w + 1 is no sum of the other coins and w - 1 none with
    # every one of them used
    changed, passing = _changed_and_passing(shifted_kernel, 1)
    assert (changed, len(passing)) == (1553, 19)
    for ws, J in passing:
        w = sum(ws)
        K = [ws[i] for i in range(len(ws)) if i not in J]
        others = [c for c in K if c != 1]
        counts = slow_series_quotient([1], [(c, 1) for c in others], w + 1)
        assert K.count(1) == 1, (ws, J)
        assert counts[w + 1] == counts[w - 1 - sum(others)] == 0, (ws, J)


LARGE_M = (21, 41, 249, 581, 851)  # the coin 851 has clearing order m = 851


def _check_the_first_counts(monkeypatch, ws, route):
    """Run ``route`` on ws with ``stringy._finish`` spied, and check what
    it is handed: K's cleared product P and gap = w - sum_K, for each K the
    route reaches, and N_J(1) = P[gap] and M_J(1) = P[w] + #{m = 1} read
    off it match the lattice counts and the points of degree w on K
    enumerated.  Returns the K reached, in order."""
    wv = validate(ws)
    n, w = len(ws), wv.w
    points = lattice_points(ws)
    handed = {}
    finish = stringy._finish

    def spy(wv, K, P, ms, gap):
        n1, at_w = (P[e] if e < len(P) else 0 for e in (gap, w))
        handed[K] = gap, n1, at_w + ms.count(1)
        return finish(wv, K, P, ms, gap)

    monkeypatch.setattr(stringy, "_finish", spy)
    route(wv)
    for K, (gap, n1, m1) in handed.items():
        J = [i for i in range(n) if not K >> i & 1]
        assert gap == sum(ws[j] for j in J), J
        assert n1 == lattice_counts(wv, J, 1)[0], J
        assert m1 == sum(1 for u in points if not any(u[j] for j in J)), J
    return sorted(handed)


FIRST_COUNTS = [K3, FERMAT_LIKE, DEGREE_1806, LARGE_M]


@pytest.mark.parametrize("ws", FIRST_COUNTS)
def test_the_walk_hands_the_checks_the_first_counts(monkeypatch, ws):
    # the walk reads both counts off each cleared product it extends
    n = len(ws)

    def walk(wv):
        stringy._lattice_brackets(weights.record(wv))

    reached = _check_the_first_counts(monkeypatch, ws, walk)
    assert reached == [K for K in range(1 << n) if K.bit_count() <= n - 2]


@pytest.mark.parametrize("ws", FIRST_COUNTS)
def test_bracket_hands_the_checks_the_first_counts(monkeypatch, ws):
    # ``bracket`` clears its complement's coins in index order and takes
    # the walk's step: every proper nonempty J, one K each
    n = len(ws)

    def every_bracket(wv):
        for J in _proper_subsets(n):
            bracket(wv, J)

    reached = _check_the_first_counts(monkeypatch, ws, every_bracket)
    assert reached == list(range(1, (1 << n) - 1))


def _anchor(wv):
    """wv's ``verify`` report and the Hodge grid of its stringy E-function."""
    return verify(wv), hodge_table(to_polynomial(stringy_e(wv)), wv.d - 1)


def _counting_section(cut):
    """The section kernel, appending |K| (the length of ms) to ``cut`` on
    each call."""

    def spy(P, ms, w, offset):
        cut.append(len(ms))
        return _section(P, ms, w, offset)

    return spy


@pytest.fixture(scope="module")
def large_m():
    """LARGE_M's stringy half built on a fresh record with the section
    kernel ``stringy.cleared_section`` spied, and what ``_anchor`` reads off
    the same record: the suite's costliest walk runs once for both.  ``cut``
    holds |K| of each section the walk cuts."""
    wv, cut = validate(LARGE_M), []
    weights.record.cache_clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stringy, "cleared_section", _counting_section(cut))
        stringy_e(wv)
    return wv, cut, _anchor(wv)


def test_each_bracket_cuts_its_section_once(large_m, monkeypatch):
    # ``_finish`` is the one caller of the section kernel in ``stringy``:
    # the walk cuts one section per K with |K| <= n - 2, 1 + 5 + 10 + 10,
    # the 10 leaves with |K| = 3 among them, and ``bracket`` one per call
    wv, cut, _ = large_m
    assert (len(cut), cut.count(3)) == (26, 10)
    calls = []
    monkeypatch.setattr(stringy, "cleared_section", _counting_section(calls))
    for J in _proper_subsets(len(LARGE_M)):
        before = len(calls)
        bracket(wv, J)
        assert calls[before:] == [len(LARGE_M) - len(J)], J


@pytest.mark.parametrize("ws", [QUINTIC, DEGREE_1806, (1, 2, 3, 10, 15)])
def test_a_fresh_stringy_half_leaves_no_cyclic_garbage(ws):
    # the walk is a loop over a stack of pending extensions, not a closure
    # that refers to itself, so a build leaves nothing for the cyclic
    # collector: no bracket, product or triple outlives it in a cycle
    weights.record.cache_clear()
    rec = weights.ip_record(validate(ws))
    weights._classified(rec)
    gc.collect()
    gc.disable()
    try:
        stringy._stringy(rec)
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        garbage = [type(o).__name__ for o in gc.garbage]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert rec.stringy is not None
    assert garbage == []


def test_bracket_builds_no_record():
    # a single bracket clears its own complement's coins, and reads its
    # checks' counts off that product, not the vector's record: 20 ones
    # has 2^20 subsets
    weights.record.cache_clear()
    bracket(validate((1,) * 20), range(2))
    assert weights.record.cache_info().currsize == 0


def test_brackets_match_the_inverse_substitution_route():
    # the expansion at t = 0 gives each bracket, per subset and in the walk,
    # in the form the route over t = infinity gives: the section at offset
    # -sum(coins) in x = 1/t, then x = 1/t substituted; (16, 21, 206, 280,
    # 317) has w = 840 and a clearing order m = 317
    for ws in SWEEP + [DEGREE_1806, (16, 21, 206, 280, 317)]:
        wv = validate(ws)
        n = len(ws)
        walk = stringy._lattice_brackets(weights.record(wv))
        for J in _proper_subsets(n):
            coins = [ws[i] for i in range(n) if i not in J]
            want = exact_arith.multisection([1], coins, wv.w, -sum(coins))
            want = _form(exact_arith._rational(want).inverse_substitution())
            assert _form(bracket(wv, J)) == want, (ws, J)
            mask = sum(1 << i for i in J)
            if mask in walk:
                assert _form(walk[mask]) == want, (ws, J)


# ---------------------------------------------------------------------------
# the assembled sum


def test_stringy_k3_polynomial():
    e = stringy_e(validate(K3))
    assert is_polynomial(e)
    assert to_polynomial(e) == K3_POLY


def test_stringy_octic_polynomial():
    assert to_polynomial(stringy_e(validate(OCTIC))) == OCTIC_POLY


def test_stringy_fermat_like_not_polynomial():
    e = stringy_e(validate(FERMAT_LIKE))
    assert not is_polynomial(e)
    with pytest.raises(NotPolynomial):
        to_polynomial(e)


def test_stringy_requires_ip():
    with pytest.raises(NotIP):
        stringy_e(validate((1, 1, 4)))


def test_k3_subtotal_with_order_five_pole():
    # the four faces whose bracket carries (uv)^5 - 1 sum to 1 + 7uv
    wv = validate(K3)
    picked = []
    for J, term in stringy_terms(wv).items():
        if any(m == 5 for r in term.terms.values() for m, _ in r.den):
            picked.append((J, term))
    assert {frozenset(J) for J, _ in picked} == {
        frozenset(s) for s in [(0, 2), (0, 3), (2, 3), (0, 2, 3)]
    }
    total = picked[0][1]
    for _, term in picked[1:]:
        total = total + term
    assert total == EFunction(2, [(0, 0, RationalT([1, 7]))])


def _forms(e):
    return {key: _form(r) for key, r in e.terms.items()}


# E_str of these prints a form that depends on how the face terms are
# grouped and in which order they are summed
FOLD_ORDER_SENSITIVE = [
    (1, 2, 3, 10, 15),
    (1, 4, 7, 10, 15),
    (1, 2, 5, 12, 18),
    (1, 3, 5, 12, 18),
    (1, 2, 3, 8, 12),
    (1, 3, 8, 10, 12),
    (1, 3, 8, 12, 14),
]


@pytest.mark.parametrize("ws", FOLD_ORDER_SENSITIVE + [DEGREE_1806] + SWEEP)
def test_printed_forms_match_face_by_face_assembly(ws):
    # every term the record stores, E_str and one E^(l) per class, in the
    # form of the face-by-face assembly: the walk's triples, the shared
    # E^(0) products and folds and the twisted sums change no peel
    wv = validate(ws)
    total, per_class = slow_stringy_half(wv)
    assert _forms(stringy_e(wv)) == _forms(total)
    classes = weights.element_classes(wv)
    assert len(classes) == len(per_class)
    for c, want in zip(classes, per_class):
        assert _forms(stringy_e_per_l(wv, c.first)) == _forms(want), c


@pytest.mark.parametrize("ws", FOLD_ORDER_SENSITIVE + [DEGREE_1806] + SWEEP)
def test_e_str_is_the_face_order_fold_of_its_face_terms(ws):
    # the face terms in face order (by |J|, then by sorted members), summed
    # by ``+`` from the left, print as E_str does
    wv = validate(ws)
    total = reduce(operator.add, stringy_terms(wv).values())
    assert repr(total) == repr(stringy_e(wv))


@pytest.mark.parametrize("ws", [K3, OCTIC, FERMAT_LIKE])
def test_every_term_has_finite_limit(ws):
    for term in stringy_terms(validate(ws)).values():
        for r in term.terms.values():
            limit_at_one(r)  # must not raise


# ---------------------------------------------------------------------------
# per-element decomposition


@pytest.mark.parametrize("ws", [K3, OCTIC, FERMAT_LIKE])
def test_per_l_sums_to_total(ws):
    wv = validate(ws)
    total = stringy_e_per_l(wv, 0)
    for l in range(1, wv.w):
        total = total + stringy_e_per_l(wv, l)
    assert total == stringy_e(wv)


def test_per_l_top_size_is_single_monomial():
    # size = d + 1 leaves only J = I: (-1)^(d+1) u^age v^(size-age) / uv
    wv = validate(K3)
    e = stringy_e_per_l(wv, 1)
    assert e.terms == {(0, 2): RationalT.one()}
    e35 = stringy_e_per_l(wv, 35)
    assert e35.terms == {(2, 0): RationalT.one()}


def test_per_l_untwisted_limit_fermat_like():
    e0 = stringy_e_per_l(validate(FERMAT_LIKE), 0)
    assert e0.value_at_one() == Fraction(1092, 5)


def test_per_l_range_and_ip_guards():
    wv = validate(K3)
    with pytest.raises(OutOfRange):
        stringy_e_per_l(wv, 36)
    with pytest.raises(OutOfRange):
        stringy_e_per_l(wv, -1)
    with pytest.raises(NotIP):
        stringy_e_per_l(validate((1, 1, 4)), 0)


@pytest.mark.parametrize("ws", [FERMAT_LIKE, K3])
def test_per_l_terms_are_shared_per_element_class(ws):
    wv = validate(ws)
    first = [c.first for c in weights.element_classes(wv)]
    for l, c in enumerate(weights.class_index(wv)):
        assert stringy_e_per_l(wv, l) is stringy_e_per_l(wv, first[c])


@pytest.mark.parametrize("ws", [FERMAT_LIKE, K3])
def test_both_halves_hold_a_total_and_one_term_per_class(ws):
    wv = validate(ws)
    stringy_e(wv)
    mirror_orbifold_e(wv)
    rec = weights.record(wv)
    assert type(rec.stringy) is type(rec.orbifold)
    for half in (rec.stringy, rec.orbifold):
        assert half._fields == ("total", "terms")
        assert len(half.terms) == len(weights.element_classes(wv))


# ---------------------------------------------------------------------------
# Euler numbers


def test_stringy_euler_values():
    assert stringy_euler(validate(K3)) == 24
    assert stringy_euler(validate(OCTIC)) == 168
    assert stringy_euler(validate(QUINTIC)) == 200
    assert stringy_euler(validate(FERMAT_LIKE)) == Fraction(1032, 5)


def test_stringy_euler_matches_polynomial_value():
    wv = validate(OCTIC)
    assert stringy_euler(wv) == to_polynomial(stringy_e(wv))(1, 1)


# ---------------------------------------------------------------------------
# EFunction canonical form


def test_efunction_folds_diagonal_powers():
    r = RationalT([3])
    e = EFunction(2, [(2, 1, r)])
    assert e.terms == {(1, 0): RationalT([0, 3])}


def test_efunction_sum_cancels_before_polynomiality():
    geo = RationalT([1], 0, [(1, 1)])
    frac = EFunction(1, [(0, 0, geo)])
    rest = EFunction(1, [(0, 0, RationalT.one() - geo)])
    assert not frac.is_polynomial()
    assert (frac + rest).is_polynomial()
    assert to_polynomial(frac + rest) == BiPoly.one()


def test_efunction_equality_across_groupings():
    a = EFunction(2, [(1, 0, RationalT([1, 1])), (1, 0, RationalT([0, 0, 2]))])
    b = EFunction(2, [(1, 0, RationalT([1, 1, 2]))])
    assert a == b
    assert not (a - b).terms


# ---------------------------------------------------------------------------
# Hodge tables


def test_hodge_table_k3():
    table = hodge_table(K3_POLY, 2)
    assert table.h(1, 1) == 20
    assert table.h(0, 0) == table.h(2, 2) == 1
    assert table.h(2, 0) == table.h(0, 2) == 1
    assert table.h(1, 0) == 0
    assert table.euler() == 24


def test_hodge_table_quintic_mirror():
    table = hodge_table(to_polynomial(stringy_e(validate(QUINTIC))), 3)
    assert table.h(1, 1) == 101
    assert table.h(2, 1) == 1
    assert table.h(0, 0) == table.h(3, 3) == 1
    assert table.h(1, 2) == 1


@pytest.mark.parametrize(
    "ws, chi", [(QUINTIC, 200), (K3, 24), (OCTIC, 168), ((1, 1, 12, 28, 42), 960)]
)
def test_hodge_table_euler_is_both_euler_numbers(ws, chi):
    # the alternating sum of the Hodge numbers of the mirror is the limit of
    # E_str at u = v = 1 and, up to the sign (-1)^(d-1), the orbifold Euler
    # number of the hypersurface
    wv = validate(ws)
    table = hodge_table(to_polynomial(stringy_e(wv)), wv.d - 1)
    assert table.euler() == chi
    assert stringy_euler(wv) == chi
    assert (-1) ** (wv.d - 1) * vafa_euler(wv) == chi


def test_hodge_table_constant():
    assert hodge_table(BiPoly.one(), 0).h(0, 0) == 1


@pytest.mark.parametrize("ws", [K3, OCTIC])
def test_hodge_poincare_duality(ws):
    wv = validate(ws)
    dim = wv.d - 1
    table = hodge_table(to_polynomial(stringy_e(wv)), dim)
    for p in range(dim + 1):
        for q in range(dim + 1):
            assert table.h(p, q) == table.h(q, p)
            assert table.h(p, q) == table.h(dim - p, dim - q)


def test_hodge_table_sign_violation():
    with pytest.raises(SignPatternViolation):
        hodge_table(BiPoly({(0, 0): 1, (1, 0): 5, (0, 1): 5}), 1)


def test_hodge_table_asymmetry_violation():
    with pytest.raises(SignPatternViolation):
        hodge_table(BiPoly({(0, 0): 1, (1, 0): -1}), 1)


def test_hodge_table_out_of_grid():
    with pytest.raises(SignPatternViolation):
        hodge_table(BiPoly({(3, 3): 1}), 2)


def test_hodge_table_roundtrip():
    table = hodge_table(K3_POLY, 2)
    assert table.to_bipoly() == K3_POLY


# ---------------------------------------------------------------------------
# literature anchors: the two ends of the CY3 Euler range, chi = -+960, a
# mirror pair across two weight vectors (Klemm-Schimmrigk hep-th/9204060,
# Kreuzer-Skarke hep-th/9205004)

ANCHORS = {(1, 1, 12, 28, 42): (960, 491, 11), LARGE_M: (-960, 11, 491)}


@pytest.mark.parametrize("ws", ANCHORS, ids=str)
def test_the_ends_of_the_cy3_euler_range(large_m, ws):
    # the record of LARGE_M is the spy test's
    _, _, anchor = large_m
    report, grid = anchor if ws == LARGE_M else _anchor(validate(ws))
    euler, h11, h12 = ANCHORS[ws]
    assert report.passed and report.hodge_pairs_match
    assert report.euler_stringy == euler
    assert (grid.h(1, 1), grid.h(1, 2)) == (h11, h12)
