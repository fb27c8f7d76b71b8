"""Kernel tests: factored rationals, fractional-exponent polynomials, the
integrality projector, certified reconstruction, limits, and the mirror
substitution on bivariate polynomials."""

from collections import Counter
from fractions import Fraction
from itertools import permutations, product
from math import gcd
from operator import add, eq, mul, ne, neg, sub

import pytest
from hypothesis import example, given, settings, strategies as st

from stringymirror import (
    BiPoly,
    EFunction,
    FracPoly,
    RationalT,
    integral_project,
    limit_at_one,
    mirror_transform,
    rational_from_counts,
    reynolds_factor_property,
)
from stringymirror.exact_arith import (
    _peel,
    _rational,
    _reflected,
    _same,
    cleared_section,
    clearing_order,
    div_one_minus_tm,
    expand_factors,
    extend_cleared,
    mul_one_minus_tm,
    multisection,
    poly_mul,
    poly_strip,
    rational_sum,
    series_quotient,
    series_to_rational,
)
from stringymirror.errors import (
    NegativeExponent,
    PoleAtOne,
    ReconstructionFailure,
)

from conftest import poly_div_exact, slow_series_quotient

HYP = settings(deadline=None, derandomize=True, max_examples=60)


# ---------------------------------------------------------------------------
# dense polynomial helpers


def test_poly_div_exact_geometric():
    # (1 - t^5) / (1 - t) = 1 + t + t^2 + t^3 + t^4
    q = poly_div_exact([1, 0, 0, 0, 0, -1], [1, -1])
    assert q == [1, 1, 1, 1, 1]


def test_poly_div_exact_remainder_is_none():
    assert poly_div_exact([1, 1, 1], [1, -1]) is None


def test_expand_factors():
    assert expand_factors([(1, 2)]) == [1, -2, 1]
    assert expand_factors([(2, 1), (3, 1)]) == poly_mul([1, 0, -1], [1, 0, 0, -1])


def _dense_one_minus_tm(m):
    return [1] + [0] * (m - 1) + [-1]


@HYP
@given(
    st.lists(st.integers(-5, 5), min_size=1, max_size=12),
    st.integers(1, 8),
    st.sampled_from(["", "1 - t", "1 - t^m"]),
)
@example([3], 1, "")  # len(a) <= m
@example([1, 2, 3], 5, "")
@example([1, 0, 1], 2, "1 - t^m")  # m < len(a) < 2m
@example([1, -1], 1, "")
@example([1, 2], 3, "1 - t")  # a(1) = 0 and len(a) <= m
@example([2, 1], 4, "1 - t")
@example([1, 0, 1], 2, "1 - t")  # a(1) = 0, class 1 of 2 sums to -2
@example([1, 0, 1], 2, "")  # classes 1 .. m-1 sum to zero, class 0 does not
@example([1, 2, 0, 3, 1], 3, "1 - t")
def test_stride_division_matches_dense(coeffs, m, factor):
    # a third of the draws are multiples of 1 - t^m and a third multiples
    # of 1 - t only (a(1) = 0), which the class-sum reject has to catch
    k = {"": 0, "1 - t": 1, "1 - t^m": m}[factor]
    a = poly_strip(mul_one_minus_tm(coeffs, k) if k else list(coeffs))
    dense = _dense_one_minus_tm(m)
    assert div_one_minus_tm(a, m) == poly_div_exact(a, dense)
    assert poly_strip(mul_one_minus_tm(coeffs, m)) == poly_mul(coeffs, dense)
    if k == m and any(coeffs):
        assert div_one_minus_tm(a, m) == poly_strip(list(coeffs))


@HYP
@given(
    st.lists(st.integers(-5, 5), max_size=14),
    st.lists(st.tuples(st.integers(1, 12), st.integers(1, 3)), max_size=4),
    st.integers(0, 10),
)
@example([1], [(12, 1)], 4)  # m > n: the factor leaves the series alone
@example([2, -1], [(3, 3), (1, 2)], 9)  # e > 1
@example(list(range(1, 15)), [(2, 1)], 5)  # len(num) > n + 1
@example([], [(1, 1)], 0)
def test_series_quotient_matches_per_coefficient_loop(num, den, n):
    assert series_quotient(num, den, n) == slow_series_quotient(num, den, n)


# ---------------------------------------------------------------------------
# RationalT


def test_rational_canonical_peel():
    # (1 - t^5)/(1 - t^5) collapses to 1
    r = RationalT([1, 0, 0, 0, 0, -1], 0, [(5, 1)])
    assert r.is_polynomial()
    assert r.as_polynomial() == (1,)
    assert r == RationalT.one()


def test_rational_eq_across_denominators():
    # (1 + t)/(1 - t^2) and 1/(1 - t) are the same function
    a = RationalT([1, 1], 0, [(2, 1)])
    b = RationalT([1], 0, [(1, 1)])
    assert a == b
    assert a != b.mul_tpower(1)


def test_rational_sum_telescopes():
    one_minus = RationalT([1, -1])  # polynomial 1 - t
    geo = RationalT([1], 0, [(1, 1)])
    assert geo * one_minus == RationalT.one()
    assert geo - geo == RationalT.zero()
    # 1/(1-t) + t/(1-t) ... multiplying out: (1+t)/(1-t) = 2/(1-t) - 1
    s = geo + geo.mul_tpower(1)
    assert s == RationalT([2], 0, [(1, 1)]) - RationalT.one()


def test_rational_series_of_geometric():
    geo = RationalT([1], 0, [(1, 1)])
    assert geo.series(6) == [1] * 7
    sq = RationalT([1], 1, [(1, 2)])  # t/(1-t)^2
    assert sq.series(6) == [0, 1, 2, 3, 4, 5, 6]


def test_rational_series_pole_at_origin_rejected():
    with pytest.raises(ValueError):
        RationalT([1], -1, [(1, 1)]).series(3)


def test_rational_unhashable():
    with pytest.raises(TypeError):
        hash(RationalT.one())


def test_rational_constructor_rejects_non_int_zeros():
    # every coefficient is type-checked, as mul_poly checks its factor: a
    # Fraction or float zero is no int, even where the normal form strips it
    for num in ([Fraction(0), 1], [1, 0.0]):
        with pytest.raises(TypeError):
            RationalT(num)


def test_inverse_substitution_geometric():
    # 1/(1-t) at t -> 1/t is -t/(1-t)
    geo = RationalT([1], 0, [(1, 1)])
    assert geo.inverse_substitution() == RationalT([-1], 1, [(1, 1)])


@st.composite
def rationals(draw):
    num = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=5))
    if not any(num):
        num = [1]
    while num[0] == 0:  # keep num(0) != 0 so the shift is canonical
        num = num[1:] + [1]
    shift = draw(st.integers(-3, 6))
    den = draw(
        st.lists(
            st.tuples(st.integers(1, 6), st.integers(1, 2)),
            max_size=3,
        )
    )
    return RationalT(num, shift, den)


@HYP
@given(rationals(), rationals())
def test_rational_ring_laws(a, b):
    assert a + b == b + a
    assert a - a == RationalT.zero()
    assert (a + b) - b == a
    assert a * b == b * a


@HYP
@given(rationals())
def test_inverse_substitution_is_involutive(r):
    assert r.inverse_substitution().inverse_substitution() == r


@st.composite
def peelable_rationals(draw):
    """RationalTs built from a numerator that carries some denominator
    factors, so the constructor peels."""
    num = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=4))
    den = draw(st.lists(st.tuples(st.integers(1, 6), st.integers(1, 2)), max_size=3))
    shared = draw(st.lists(st.sampled_from(den), max_size=2)) if den else []
    return RationalT(poly_mul(num, expand_factors(shared)), draw(st.integers(-3, 6)), den)


def _form(r):
    return r.shift, r.num, r.den


@HYP
@given(rationals(), st.integers(-4, 4))
def test_reflected_triples_match_inverse_substitution(r, k):
    # r(1/t) on the kernel's triples, in normal form, and (t**k r)(1/t) is
    # t**-k r(1/t); reflecting twice gives r back
    assert _form(_rational(_reflected(r._triple()))) == _form(r.inverse_substitution())
    shifted = _rational(_reflected(r.mul_tpower(k)._triple()))
    assert _form(shifted) == _form(r.inverse_substitution().mul_tpower(-k))
    assert _form(_rational(_reflected(_reflected(r._triple())))) == _form(r)
    zero = RationalT.zero()._triple()
    assert _reflected(zero) == zero


@HYP
@given(rationals(), rationals(), st.integers(1, 4))
def test_same_matches_rational_equality(a, b, m):
    # cross-multiplied equality on triples is ==, also between a normal
    # form and an unpeeled triple of the same function
    assert _same(a._triple(), b._triple()) == (a == b) == (a - b).is_zero()
    shift, num, den = a._triple()
    unpeeled = (shift, mul_one_minus_tm(num, m), {**den, m: den.get(m, 0) + 1})
    assert _same(unpeeled, a._triple()) and _same(a._triple(), unpeeled)
    assert _same(unpeeled, b._triple()) == (a == b)


@HYP
@given(peelable_rationals(), st.integers(-4, 4), st.integers(-5, 5).filter(bool))
def test_form_preserving_ops_match_the_constructor(r, k, c):
    sign = -1 if sum(e for _, e in r.den) % 2 else 1
    deg = len(r.num) - 1
    total_m = sum(m * e for m, e in r.den)
    cases = [
        (r.mul_tpower(k), RationalT(r.num, r.shift + k, r.den)),
        (-r, RationalT([-x for x in r.num], r.shift, r.den)),
        (r * c, RationalT([c * x for x in r.num], r.shift, r.den)),
        (c * r, RationalT([c * x for x in r.num], r.shift, r.den)),
        (
            r.inverse_substitution(),
            RationalT([sign * x for x in reversed(r.num)], total_m - r.shift - deg, r.den),
        ),
    ]
    # mul_poly peels over r's own denominator without re-merging it
    for poly in ([c, k], expand_factors(r.den)):
        cases.append((r.mul_poly(poly), RationalT(poly_mul(r.num, poly), r.shift, r.den)))
    for fast, normalised in cases:
        assert _form(fast) == _form(normalised)
    assert _form(r * 0) == _form(RationalT.zero())
    with pytest.raises(TypeError):
        r.mul_poly([Fraction(1, 2)])


@st.composite
def summands(draw):
    terms = draw(st.lists(peelable_rationals(), max_size=5))
    # negated copies make partial sums cancel poles or vanish
    for i in draw(st.lists(st.integers(0, 4), max_size=2)):
        if i < len(terms):
            terms.append(-terms[i] + draw(peelable_rationals()) * draw(st.integers(0, 1)))
    return terms


def _reference_add(a, b):
    """a + b by dense arithmetic: both numerators over the union-max
    denominator, added, then one pass of the normalising constructor."""
    if a.is_zero() or b.is_zero():
        return b if a.is_zero() else a
    union = dict(a.den)
    for m, e in b.den:
        union[m] = max(union.get(m, 0), e)
    low = min(a.shift, b.shift)
    total = []
    for r in (a, b):
        missing = [(m, e - dict(r.den).get(m, 0)) for m, e in union.items()]
        num = [0] * (r.shift - low) + poly_mul(
            r.num, expand_factors((m, e) for m, e in missing if e)
        )
        total = [x + y for x, y in zip(total + [0] * len(num), num + [0] * len(total))]
    return RationalT(total, low, union.items())


# enough draws to reach a partial sum that loses a factor
@settings(deadline=None, derandomize=True, max_examples=300)
@given(summands())
def test_rational_sum_matches_fold(terms):
    folded = RationalT.zero()
    for r in terms:
        folded = _reference_add(folded, r)
    total = rational_sum(terms)
    assert total == folded
    assert _form(total) == _form(folded)
    if len(terms) == 2:
        assert _form(terms[0] + terms[1]) == _form(folded)


def _greedy_peel(num, shift, den):
    """The normal form by long division: strip the zeros at both ends, then
    for each m in increasing order divide 1 - t^m out (``poly_div_exact``)
    as often as it divides and the denominator holds it."""
    coeffs = poly_strip(list(num))
    if not coeffs:
        return 0, (), ()
    while coeffs[0] == 0:
        del coeffs[0]
        shift += 1
    left = []
    for m, e in sorted(den.items()):
        while e:
            q = poly_div_exact(coeffs, _dense_one_minus_tm(m))
            if q is None:
                break
            coeffs = poly_strip(q)
            e -= 1
        if e:
            left.append((m, e))
    return shift, tuple(coeffs), tuple(left)


@settings(deadline=None, derandomize=True, max_examples=300)
@given(
    st.lists(st.integers(-6, 6), max_size=6),
    st.dictionaries(st.integers(1, 6), st.integers(1, 3), max_size=4),
    st.lists(st.integers(1, 6), max_size=4),
    st.integers(0, 2),
    st.integers(-3, 3),
)
@example([1, 1], {1: 1, 2: 1}, [], 0, 0)  # 1 + t is no multiple of 1 - t
@example([1], {2: 1, 3: 1}, [3, 1], 1, 0)  # 1 - t^2 comes first and does not divide
@example([0, 0, 2, -2], {1: 3}, [], 0, -1)  # leading zeros into the shift
@example([], {1: 1}, [1], 0, 4)  # zero
def test_peel_matches_greedy_long_division(num, den, factors, zeros, shift):
    # a numerator that carries some of the denominator's factors (and
    # others), with zeros at both ends: the stride-m peel with its N(1)
    # test and its one running sum for 1 - t gives the greedy form that
    # long division gives
    coeffs = [0] * zeros + poly_mul(num, expand_factors((m, 1) for m in factors))
    coeffs += [0] * zeros
    got_shift, got_num, got_den = _peel(list(coeffs), shift, dict(den))
    assert (got_shift, tuple(got_num), tuple(got_den.items())) == _greedy_peel(
        coeffs, shift, den
    )
    assert list(got_den) == sorted(got_den)


def test_rational_sum_keeps_the_fold_form():
    # 1/(1-t^2) - t^2/(1-t^2) = 1, then + 1/(1-t) gives (2 - t)/(1 - t); one
    # peel over (1-t)(1-t^2) would give (1 + t)(2 - t)/(1 - t^2) instead
    terms = [
        RationalT([1], 0, [(2, 1)]),
        RationalT([-1], 2, [(2, 1)]),
        RationalT([1], 0, [(1, 1)]),
    ]
    one_peel = RationalT([2, 1, -1], 0, [(2, 1)])
    assert _form(one_peel) == (0, (2, 1, -1), ((2, 1),))
    assert _form(rational_sum(terms)) == (0, (2, -1), ((1, 1),))
    assert rational_sum(terms) == one_peel
    assert _form(rational_sum([])) == _form(RationalT.zero())


# ---------------------------------------------------------------------------
# FracPoly and the projector


def test_projector_fixes_integral():
    f = FracPoly(3, {0: 1, 3: -2, 9: 5})
    assert integral_project(f) == f


def test_projector_kills_pure_fractional():
    # (uv)^(5/6) * (1 + (uv)^(1/3)) has exponents 5/6 and 7/6 only
    f = FracPoly(6, {5: 1}) * FracPoly(3, {0: 1, 1: 1})
    assert sorted(f.exponents()) == [Fraction(5, 6), Fraction(7, 6)]
    assert integral_project(f).is_zero()


def test_projector_quintic_section_count():
    # [(1 + s + s^2 + s^3)^5]_int with s = t^(1/5)
    s = FracPoly(5, {1: 1})
    p = (FracPoly(5, {0: 1}) + s + s**2 + s**3) ** 5
    proj = integral_project(p)
    assert proj.as_integer_poly() == {0: 1, 1: 101, 2: 101, 3: 1}


def test_fracpoly_pow_zero_and_rescale():
    f = FracPoly(4, {1: 2, 6: -1})
    assert f**0 == FracPoly(1, {0: 1})
    assert f.rescaled(8) == f
    assert (f - f).is_zero()


def test_reynolds_rejects_fractional_fixed_factor():
    with pytest.raises(ValueError):
        reynolds_factor_property(FracPoly(2, {1: 1}), FracPoly(2, {0: 1}))


def test_reynolds_trivial_cases():
    one = FracPoly(1, {0: 1})
    assert reynolds_factor_property(one, FracPoly(2, {1: 3, 4: -1}))
    # p = 1 + t, q = t^(1/2): both sides vanish
    p = FracPoly(2, {0: 1, 2: 1})
    q = FracPoly(2, {1: 1})
    assert integral_project(p * q).is_zero()
    assert reynolds_factor_property(p, q)


@HYP
@given(
    st.dictionaries(
        st.integers(0, 2).map(lambda k: 12 * k), st.integers(-6, 6), max_size=3
    ),
    st.dictionaries(st.integers(0, 24), st.integers(-6, 6), max_size=6),
)
def test_reynolds_factor_property_random(pd, qd):
    p = FracPoly(12, pd or {0: 1})
    q = FracPoly(12, qd)
    assert reynolds_factor_property(p, q)


@HYP
@given(st.dictionaries(st.integers(0, 24), st.integers(-6, 6), max_size=6))
def test_projector_is_idempotent_and_linear(d):
    f = FracPoly(12, d)
    g = FracPoly(12, {k + 1: v for k, v in d.items()})
    assert integral_project(integral_project(f)) == integral_project(f)
    assert integral_project(f + g) == integral_project(f) + integral_project(g)


# ---------------------------------------------------------------------------
# certified reconstruction


def test_counts_multiple_of_five():
    counts = [1 if k % 5 == 0 else 0 for k in range(1, 12)]
    r = rational_from_counts(counts, [(5, 1)])
    assert r == RationalT([1], 5, [(5, 1)])  # t^5/(1 - t^5)


def test_counts_all_zero():
    assert rational_from_counts([0] * 8, [(1, 2)]).is_zero()


def test_counts_linear_growth():
    r = rational_from_counts([1, 2, 3, 4, 5, 6], [(1, 2)])
    assert r == RationalT([1], 1, [(1, 2)])  # t/(1 - t)^2


def test_counts_wrong_denominator_raises():
    # N(k) = k needs a double pole; claiming (1 - t) must fail the guard
    with pytest.raises(ReconstructionFailure):
        rational_from_counts([1, 2, 3, 4, 5, 6], [(1, 1)])


def test_counts_too_short_raises():
    with pytest.raises(ValueError):
        rational_from_counts([1, 1], [(3, 1)])


def test_series_to_rational_roundtrip():
    r = RationalT([1, 0, 2], 3, [(2, 1), (3, 1)])
    n = 3 + 2 + 2 + 3 + 4  # shift + num degree + den degree + guard
    rebuilt = series_to_rational(r.series(n), [(2, 1), (3, 1)], 3 + 2 + 5)
    assert rebuilt == r


# ---------------------------------------------------------------------------
# the exact multisection kernel


def reference_multisection(num, coins, w, offset):
    """The truncated route: expand num(s) / prod (1 - s^c) by
    ``series_quotient``, keep every w-th coefficient from e = offset mod w
    and reconstruct over prod (1 - t^m), m = c / gcd(c, w), with a guard of
    one full denominator period."""
    ms = [c // gcd(c, w) for c in coins]
    bound = sum(ms) + len(num)  # the numerator in t has degree <= deg(num)/w + sum(ms)
    r = offset % w
    top = r + (bound + max(1, sum(ms))) * w
    series = series_quotient(num, [(c, 1) for c in coins], top)
    rebuilt = series_to_rational(series[r::w], [(m, 1) for m in ms], bound)
    return rebuilt.mul_tpower((r - offset) // w)


@st.composite
def multisection_cases(draw):
    w = draw(st.integers(1, 12))
    num = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=6))
    coins = draw(st.lists(st.integers(1, 2 * w), min_size=1, max_size=5))
    offset = draw(st.integers(-w, 2 * w - 1))
    return num, coins, w, offset


@HYP
@given(multisection_cases())
# gcd(c, w) > 1 for every coin, with a nonzero shift either way of [0, w)
@example(([2, -1, 3], [4, 6, 9], 12, -7))
@example(([1, 0, -2], [2, 4], 8, 13))
# coprime coins, offset at each end of the range
@example(([1], [5, 7], 12, -12))
@example(([3, 1], [1, 5, 7, 11, 13], 12, 23))
def test_multisection_matches_truncated_reconstruction(case):
    num, coins, w, offset = case
    got = _rational(multisection(num, coins, w, offset))
    want = reference_multisection(num, coins, w, offset)
    assert (got.shift, got.num, got.den) == (want.shift, want.num, want.den)


def peeled_first_section(num, coins, w, offset):
    """The section by another route: peel num by its coins first, clear
    only the coins left in the denominator, cut the section at offset minus
    the peeled shift, and re-peel a nonzero section over the clearing
    orders of all the coins."""
    shift, P, left = _peel(list(num), 0, Counter(coins))
    ms = []
    for c, e in left.items():
        for _ in range(e):
            P, m = extend_cleared(P, c, w)
            ms.append(m)
    sec_shift, sec, sec_den = cleared_section(P, ms, w, offset - shift)
    if not sec:
        return sec_shift, sec, sec_den
    full = Counter(clearing_order(c, w) for c in coins)
    for m, e in full.items():
        for _ in range(e - sec_den.get(m, 0)):
            sec = mul_one_minus_tm(sec, m)
    return _peel(sec, sec_shift, full)


@st.composite
def section_order_cases(draw):
    w = draw(st.integers(1, 30))
    coins = draw(st.lists(st.integers(1, 25), max_size=4))
    num = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=6))
    # some of the coins' factors 1 - s^c multiplied in, for the peel to take
    for c, keep in zip(coins, draw(st.lists(st.booleans(), min_size=4, max_size=4))):
        if keep:
            num = poly_mul(num, [1] + [0] * (c - 1) + [-1])
    offset = draw(st.integers(-w, 2 * w - 1))
    return num, coins, w, offset


def _exact(t):
    shift, num, den = t
    return shift, list(num), list(den.items())


@settings(deadline=None, derandomize=True, max_examples=300)
@given(section_order_cases())
def test_a_section_prints_the_same_by_any_route(case):
    # a normal form is fixed by the value and the denominator it is peeled
    # over, so neither the order the coins are cleared in nor peeling the
    # numerator first changes the triple
    num, coins, w, offset = case
    want = _exact(multisection(num, coins, w, offset))
    for order in set(permutations(coins)):
        assert _exact(multisection(num, list(order), w, offset)) == want, order
    assert _exact(peeled_first_section(num, coins, w, offset)) == want


def test_multisection_of_counts():
    # 1 / (1 - s^2)(1 - s^3) at w = 6, offset -5: the multisection counts
    # the solutions of 2a + 3b = 6k with a, b >= 1: k - 1 of them, so the
    # sum is t^2 / (1 - t)^2
    r = _rational(multisection([1], [2, 3], 6, -5))
    assert (r.shift, r.num, r.den) == (2, (1,), ((1, 2),))


# ---------------------------------------------------------------------------
# limits at t = 1


def test_limit_cyclotomic_ratio():
    r = RationalT([1, 0, 0, -1], 0, [(1, 1)])  # (1 - t^3)/(1 - t)
    assert limit_at_one(r) == 3


def test_limit_simple_bracket():
    # (t - 1)/(t^5 - 1) = (1 - t)/(1 - t^5)
    r = RationalT([1, -1], 0, [(5, 1)])
    assert limit_at_one(r) == Fraction(1, 5)


def test_limit_with_surviving_numerator():
    # (1 + t^3)(t - 1)/(t^5 - 1)
    r = RationalT(poly_mul([1, 0, 0, 1], [1, -1]), 0, [(5, 1)])
    assert limit_at_one(r) == Fraction(2, 5)


def test_limit_pole_raises():
    with pytest.raises(PoleAtOne):
        limit_at_one(RationalT([1], 0, [(1, 1)]))


def test_limit_of_zero():
    assert limit_at_one(RationalT.zero()) == 0


def _limit_by_factors(num, den):
    """The limit at t = 1 of num / prod (1 - t^m)^e, one factor at a time:
    a synthetic division of num by 1 - t and one Fraction division by m
    per factor, PoleAtOne when num(1) != 0 before a division."""
    num = [Fraction(c) for c in num]
    value = Fraction(1)
    for m, e in den:
        for _ in range(e):
            if sum(num):
                raise PoleAtOne("pole")
            quotient, run = [], Fraction(0)
            for c in num[:-1]:
                run += c
                quotient.append(run)
            num = quotient
            value /= m
    return sum(num) * value


@st.composite
def limit_cases(draw):
    """(num, shift, den): a numerator carrying 0 to 4 factors 1 - t over a
    denominator of up to 3 factors, so the limit is finite or a pole."""
    num = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=5))
    for _ in range(draw(st.integers(0, 4))):
        num = mul_one_minus_tm(num, 1)
    den = draw(st.lists(st.tuples(st.integers(1, 7), st.integers(1, 2)), max_size=3))
    return num, draw(st.integers(-2, 3)), den


@settings(deadline=None, derandomize=True, max_examples=200)
@given(st.lists(limit_cases(), min_size=1, max_size=3))
@example([([1, -1], 0, [(5, 1)]), ([1, 0, 0, -1], 1, [(1, 1)])])  # 1/5 + 3
@example([([1], 0, [(1, 1)])])  # pole
def test_limits_in_integers_match_per_factor_fractions(cases):
    # limit_at_one and value_at_one make one Fraction from an integer
    # numerator and a product of m^e; the reference divides factor by
    # factor, from the numerator and denominator as given, before peeling
    terms = [RationalT(num, shift, den) for num, shift, den in cases]
    try:
        want = [_limit_by_factors(num, den) for num, _, den in cases]
    except PoleAtOne:
        want = None
    if want is None:
        with pytest.raises(PoleAtOne):
            for r in terms:
                limit_at_one(r)
        return
    assert [limit_at_one(r) for r in terms] == want
    e = EFunction(2, [(i, 0, r) for i, r in enumerate(terms)])
    assert e.value_at_one() == sum(want)
    assert isinstance(e.value_at_one(), Fraction)


# ---------------------------------------------------------------------------
# BiPoly and the mirror substitution


def test_bipoly_arithmetic():
    p = BiPoly({(0, 0): 1, (1, 1): 2})
    q = BiPoly({(1, 0): 1})
    assert (p * q).coefficient(2, 1) == 2
    assert p(1, 1) == 3
    assert (p - p).is_zero()
    assert p.total_degree() == 2


def test_bipoly_rejects_negative_exponents():
    with pytest.raises(ValueError):
        BiPoly({(-1, 0): 1})


@pytest.mark.parametrize(
    "make",
    [
        lambda: FracPoly(2, {Fraction(1, 2): 1}),
        lambda: BiPoly({(Fraction(1, 2), 0): 3}),
        lambda: BiPoly({(0.5, 1): 3}),
    ],
    ids=["fracpoly", "bipoly-fraction", "bipoly-float"],
)
def test_non_integer_exponents_are_rejected(make):
    # truncating them would turn 1/2 into 0 and change the value
    with pytest.raises(ValueError):
        make()


def test_integer_valued_exponents_are_kept():
    f = FracPoly(2, {Fraction(2): 1, 4.0: 3})
    assert f == FracPoly(2, {2: 1, 4: 3})
    assert all(type(e) is int for e in f.terms)
    p = BiPoly({(Fraction(2), 1.0): 3})
    assert p == BiPoly({(2, 1): 3})
    assert all(type(a) is type(b) is int for a, b in p.terms)


def test_mirror_transform_point():
    one = BiPoly.one()
    assert mirror_transform(one, 0) == one


def test_mirror_transform_fixes_uv_in_dim_two():
    uv = BiPoly({(1, 1): 1})
    assert mirror_transform(uv, 2) == uv


def test_mirror_transform_overflow():
    with pytest.raises(NegativeExponent):
        mirror_transform(BiPoly({(3, 0): 1}), 2)


@HYP
@given(
    st.dictionaries(
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
        st.integers(-5, 5),
        max_size=6,
    )
)
def test_mirror_transform_involutive_even_dim(d):
    p = BiPoly(d)
    assert mirror_transform(mirror_transform(p, 4), 4) == p


# ---------------------------------------------------------------------------
# the operator protocol over every pairing of operands


_OPERANDS = {
    "R": RationalT((1, 2), 1, [(1, 1)]),
    "0R": RationalT.zero(),
    "3R": RationalT.from_int(3),
    "F2": FracPoly(2, {1: 1, 2: Fraction(1, 2)}),
    "F3": FracPoly(3, {0: 2, 2: -1}),
    "B": BiPoly({(1, 0): 1, (0, 2): -2}),
    "E": EFunction(2, [(0, 0, RationalT((1,), 0, [(2, 1)])), (1, 0, RationalT.one())]),
    "3": 3,
    "0": 0,
    "2/3": Fraction(2, 3),
    "True": True,
    "1.5": 1.5,
    "'x'": "x",
    "None": None,
}
_VALUES = ("R", "0R", "3R", "F2", "F3", "B", "E")
_BINARY = {"+": add, "-": sub, "*": mul, "==": eq, "!=": ne}
# the outcome of each binary operator that the table leaves out
_DEFAULT = {
    "+": "TypeError",
    "-": "TypeError",
    "*": "TypeError",
    "==": "bool: False",
    "!=": "bool: True",
}


# what the operators give at every pairing other than the defaults above
_OPERATOR_TABLE = """
-R -> RationalT: RationalT(t^1 * (-1 - 2*t) / ((1 - t^1)))
-0R -> RationalT: RationalT(0)
-3R -> RationalT: RationalT((-3))
-F2 -> FracPoly: FracPoly(-t^(1/2) - 1/2*t^(1))
-F3 -> FracPoly: FracPoly(-2 + t^(2/3))
-B -> BiPoly: BiPoly(-u + 2*v^2)
-E -> TypeError
R + R -> RationalT: RationalT(t^1 * (2 + 4*t) / ((1 - t^1)))
R - R -> RationalT: RationalT(0)
R * R -> RationalT: RationalT(t^2 * (1 + 4*t + 4*t^2) / ((1 - t^1)^2))
R == R -> bool: True
R != R -> bool: False
R + 0R -> RationalT: RationalT(t^1 * (1 + 2*t) / ((1 - t^1)))
R - 0R -> RationalT: RationalT(t^1 * (1 + 2*t) / ((1 - t^1)))
R * 0R -> RationalT: RationalT(0)
R + 3R -> RationalT: RationalT((3 - 2*t + 2*t^2) / ((1 - t^1)))
R - 3R -> RationalT: RationalT((-3 + 4*t + 2*t^2) / ((1 - t^1)))
R * 3R -> RationalT: RationalT(t^1 * (3 + 6*t) / ((1 - t^1)))
R + 3 -> RationalT: RationalT((3 - 2*t + 2*t^2) / ((1 - t^1)))
R - 3 -> RationalT: RationalT((-3 + 4*t + 2*t^2) / ((1 - t^1)))
R * 3 -> RationalT: RationalT(t^1 * (3 + 6*t) / ((1 - t^1)))
R + 0 -> RationalT: RationalT(t^1 * (1 + 2*t) / ((1 - t^1)))
R - 0 -> RationalT: RationalT(t^1 * (1 + 2*t) / ((1 - t^1)))
R * 0 -> RationalT: RationalT(0)
R + True -> RationalT: RationalT((1 + 2*t^2) / ((1 - t^1)))
R - True -> RationalT: RationalT((-1 + 2*t + 2*t^2) / ((1 - t^1)))
R * True -> RationalT: RationalT(t^1 * (1 + 2*t) / ((1 - t^1)))
0R + R -> RationalT: RationalT(t^1 * (1 + 2*t) / ((1 - t^1)))
0R - R -> RationalT: RationalT(t^1 * (-1 - 2*t) / ((1 - t^1)))
0R * R -> RationalT: RationalT(0)
0R + 0R -> RationalT: RationalT(0)
0R - 0R -> RationalT: RationalT(0)
0R * 0R -> RationalT: RationalT(0)
0R == 0R -> bool: True
0R != 0R -> bool: False
0R + 3R -> RationalT: RationalT((3))
0R - 3R -> RationalT: RationalT((-3))
0R * 3R -> RationalT: RationalT(0)
0R + 3 -> RationalT: RationalT((3))
0R - 3 -> RationalT: RationalT((-3))
0R * 3 -> RationalT: RationalT(0)
0R + 0 -> RationalT: RationalT(0)
0R - 0 -> RationalT: RationalT(0)
0R * 0 -> RationalT: RationalT(0)
0R == 0 -> bool: True
0R != 0 -> bool: False
0R + True -> RationalT: RationalT((1))
0R - True -> RationalT: RationalT((-1))
0R * True -> RationalT: RationalT(0)
3R + R -> RationalT: RationalT((3 - 2*t + 2*t^2) / ((1 - t^1)))
3R - R -> RationalT: RationalT((3 - 4*t - 2*t^2) / ((1 - t^1)))
3R * R -> RationalT: RationalT(t^1 * (3 + 6*t) / ((1 - t^1)))
3R + 0R -> RationalT: RationalT((3))
3R - 0R -> RationalT: RationalT((3))
3R * 0R -> RationalT: RationalT(0)
3R + 3R -> RationalT: RationalT((6))
3R - 3R -> RationalT: RationalT(0)
3R * 3R -> RationalT: RationalT((9))
3R == 3R -> bool: True
3R != 3R -> bool: False
3R + 3 -> RationalT: RationalT((6))
3R - 3 -> RationalT: RationalT(0)
3R * 3 -> RationalT: RationalT((9))
3R == 3 -> bool: True
3R != 3 -> bool: False
3R + 0 -> RationalT: RationalT((3))
3R - 0 -> RationalT: RationalT((3))
3R * 0 -> RationalT: RationalT(0)
3R + True -> RationalT: RationalT((4))
3R - True -> RationalT: RationalT((2))
3R * True -> RationalT: RationalT((3))
F2 + F2 -> FracPoly: FracPoly(2*t^(1/2) + t^(1))
F2 - F2 -> FracPoly: FracPoly(0)
F2 * F2 -> FracPoly: FracPoly(t^(1) + t^(3/2) + 1/4*t^(2))
F2 == F2 -> bool: True
F2 != F2 -> bool: False
F2 + F3 -> FracPoly: FracPoly(2 + t^(1/2) - t^(2/3) + 1/2*t^(1))
F2 - F3 -> FracPoly: FracPoly(-2 + t^(1/2) + t^(2/3) + 1/2*t^(1))
F2 * F3 -> FracPoly: FracPoly(2*t^(1/2) + t^(1) - t^(7/6) - 1/2*t^(5/3))
F2 + 3 -> FracPoly: FracPoly(3 + t^(1/2) + 1/2*t^(1))
F2 - 3 -> FracPoly: FracPoly(-3 + t^(1/2) + 1/2*t^(1))
F2 * 3 -> FracPoly: FracPoly(3*t^(1/2) + 3/2*t^(1))
F2 + 0 -> FracPoly: FracPoly(t^(1/2) + 1/2*t^(1))
F2 - 0 -> FracPoly: FracPoly(t^(1/2) + 1/2*t^(1))
F2 * 0 -> FracPoly: FracPoly(0)
F2 + 2/3 -> FracPoly: FracPoly(2/3 + t^(1/2) + 1/2*t^(1))
F2 - 2/3 -> FracPoly: FracPoly(-2/3 + t^(1/2) + 1/2*t^(1))
F2 * 2/3 -> FracPoly: FracPoly(2/3*t^(1/2) + 1/3*t^(1))
F2 + True -> FracPoly: FracPoly(1 + t^(1/2) + 1/2*t^(1))
F2 - True -> FracPoly: FracPoly(-1 + t^(1/2) + 1/2*t^(1))
F2 * True -> FracPoly: FracPoly(t^(1/2) + 1/2*t^(1))
F3 + F2 -> FracPoly: FracPoly(2 + t^(1/2) - t^(2/3) + 1/2*t^(1))
F3 - F2 -> FracPoly: FracPoly(2 - t^(1/2) - t^(2/3) - 1/2*t^(1))
F3 * F2 -> FracPoly: FracPoly(2*t^(1/2) + t^(1) - t^(7/6) - 1/2*t^(5/3))
F3 + F3 -> FracPoly: FracPoly(4 - 2*t^(2/3))
F3 - F3 -> FracPoly: FracPoly(0)
F3 * F3 -> FracPoly: FracPoly(4 - 4*t^(2/3) + t^(4/3))
F3 == F3 -> bool: True
F3 != F3 -> bool: False
F3 + 3 -> FracPoly: FracPoly(5 - t^(2/3))
F3 - 3 -> FracPoly: FracPoly(-1 - t^(2/3))
F3 * 3 -> FracPoly: FracPoly(6 - 3*t^(2/3))
F3 + 0 -> FracPoly: FracPoly(2 - t^(2/3))
F3 - 0 -> FracPoly: FracPoly(2 - t^(2/3))
F3 * 0 -> FracPoly: FracPoly(0)
F3 + 2/3 -> FracPoly: FracPoly(8/3 - t^(2/3))
F3 - 2/3 -> FracPoly: FracPoly(4/3 - t^(2/3))
F3 * 2/3 -> FracPoly: FracPoly(4/3 - 2/3*t^(2/3))
F3 + True -> FracPoly: FracPoly(3 - t^(2/3))
F3 - True -> FracPoly: FracPoly(1 - t^(2/3))
F3 * True -> FracPoly: FracPoly(2 - t^(2/3))
B + B -> BiPoly: BiPoly(2*u - 4*v^2)
B - B -> BiPoly: BiPoly(0)
B * B -> BiPoly: BiPoly(u^2 - 4*u*v^2 + 4*v^4)
B == B -> bool: True
B != B -> bool: False
B + 3 -> BiPoly: BiPoly(3 + u - 2*v^2)
B - 3 -> BiPoly: BiPoly(-3 + u - 2*v^2)
B * 3 -> BiPoly: BiPoly(3*u - 6*v^2)
B + 0 -> BiPoly: BiPoly(u - 2*v^2)
B - 0 -> BiPoly: BiPoly(u - 2*v^2)
B * 0 -> BiPoly: BiPoly(0)
B + 2/3 -> BiPoly: BiPoly(2/3 + u - 2*v^2)
B - 2/3 -> BiPoly: BiPoly(-2/3 + u - 2*v^2)
B * 2/3 -> BiPoly: BiPoly(2/3*u - 4/3*v^2)
B + True -> BiPoly: BiPoly(1 + u - 2*v^2)
B - True -> BiPoly: BiPoly(-1 + u - 2*v^2)
B * True -> BiPoly: BiPoly(u - 2*v^2)
E + E -> EFunction: EFunction(u^0 v^0 * (2) / ((1 - t^2)) + u^1 v^0 * (2))
E - E -> EFunction: EFunction(0)
E == E -> bool: True
E != E -> bool: False
3 + R -> RationalT: RationalT((3 - 2*t + 2*t^2) / ((1 - t^1)))
3 - R -> RationalT: RationalT((3 - 4*t - 2*t^2) / ((1 - t^1)))
3 * R -> RationalT: RationalT(t^1 * (3 + 6*t) / ((1 - t^1)))
3 + 0R -> RationalT: RationalT((3))
3 - 0R -> RationalT: RationalT((3))
3 * 0R -> RationalT: RationalT(0)
3 + 3R -> RationalT: RationalT((6))
3 - 3R -> RationalT: RationalT(0)
3 * 3R -> RationalT: RationalT((9))
3 == 3R -> bool: True
3 != 3R -> bool: False
3 + F2 -> FracPoly: FracPoly(3 + t^(1/2) + 1/2*t^(1))
3 * F2 -> FracPoly: FracPoly(3*t^(1/2) + 3/2*t^(1))
3 + F3 -> FracPoly: FracPoly(5 - t^(2/3))
3 * F3 -> FracPoly: FracPoly(6 - 3*t^(2/3))
3 + B -> BiPoly: BiPoly(3 + u - 2*v^2)
3 * B -> BiPoly: BiPoly(3*u - 6*v^2)
0 + R -> RationalT: RationalT(t^1 * (1 + 2*t) / ((1 - t^1)))
0 - R -> RationalT: RationalT(t^1 * (-1 - 2*t) / ((1 - t^1)))
0 * R -> RationalT: RationalT(0)
0 + 0R -> RationalT: RationalT(0)
0 - 0R -> RationalT: RationalT(0)
0 * 0R -> RationalT: RationalT(0)
0 == 0R -> bool: True
0 != 0R -> bool: False
0 + 3R -> RationalT: RationalT((3))
0 - 3R -> RationalT: RationalT((-3))
0 * 3R -> RationalT: RationalT(0)
0 + F2 -> FracPoly: FracPoly(t^(1/2) + 1/2*t^(1))
0 * F2 -> FracPoly: FracPoly(0)
0 + F3 -> FracPoly: FracPoly(2 - t^(2/3))
0 * F3 -> FracPoly: FracPoly(0)
0 + B -> BiPoly: BiPoly(u - 2*v^2)
0 * B -> BiPoly: BiPoly(0)
2/3 + F2 -> FracPoly: FracPoly(2/3 + t^(1/2) + 1/2*t^(1))
2/3 * F2 -> FracPoly: FracPoly(2/3*t^(1/2) + 1/3*t^(1))
2/3 + F3 -> FracPoly: FracPoly(8/3 - t^(2/3))
2/3 * F3 -> FracPoly: FracPoly(4/3 - 2/3*t^(2/3))
2/3 + B -> BiPoly: BiPoly(2/3 + u - 2*v^2)
2/3 * B -> BiPoly: BiPoly(2/3*u - 4/3*v^2)
True + R -> RationalT: RationalT((1 + 2*t^2) / ((1 - t^1)))
True - R -> RationalT: RationalT((1 - 2*t - 2*t^2) / ((1 - t^1)))
True * R -> RationalT: RationalT(t^1 * (1 + 2*t) / ((1 - t^1)))
True + 0R -> RationalT: RationalT((1))
True - 0R -> RationalT: RationalT((1))
True * 0R -> RationalT: RationalT(0)
True + 3R -> RationalT: RationalT((4))
True - 3R -> RationalT: RationalT((-2))
True * 3R -> RationalT: RationalT((3))
True + F2 -> FracPoly: FracPoly(1 + t^(1/2) + 1/2*t^(1))
True * F2 -> FracPoly: FracPoly(t^(1/2) + 1/2*t^(1))
True + F3 -> FracPoly: FracPoly(3 - t^(2/3))
True * F3 -> FracPoly: FracPoly(2 - t^(2/3))
True + B -> BiPoly: BiPoly(1 + u - 2*v^2)
True * B -> BiPoly: BiPoly(u - 2*v^2)
"""


def _outcome(op, *args):
    try:
        out = op(*args)
    except Exception as exc:
        return type(exc).__name__
    return f"{type(out).__name__}: {out!r}"


def _operator_table():
    rows = [f"-{name} -> {_outcome(neg, _OPERANDS[name])}" for name in _VALUES]
    for left, right in product(_OPERANDS, repeat=2):
        if left in _VALUES or right in _VALUES:
            for sym, op in _BINARY.items():
                outcome = _outcome(op, _OPERANDS[left], _OPERANDS[right])
                if outcome != _DEFAULT[sym]:
                    rows.append(f"{left} {sym} {right} -> {outcome}")
    return rows


def test_every_operand_pairing_keeps_its_value_or_error():
    # unary minus on each value type, then each binary operator over every
    # ordered pair with a value type on one side: the result's type and
    # repr, or the exception raised
    assert _operator_table() == _OPERATOR_TABLE.strip().splitlines()
