"""Weight vector layer: validation, orbifold elements, census, face
subgroups, lattice counting, the interior-point and transversality tests,
and the sector Poincare series."""

from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product
from math import gcd, prod

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from stringymirror import (
    RationalT,
    bracket,
    census,
    element,
    face_e,
    ip_property,
    lattice_counts,
    milnor_number,
    poincare_series,
    subgroup,
    transverse,
    validate,
    weights,
)
from stringymirror.errors import (
    EmptyInput,
    InconsistentLP,
    NonIntegerMilnor,
    NotWellFormed,
    OutOfRange,
)
from stringymirror.exact_arith import poly_mul

from conftest import (
    ascending_tuples,
    enumerated_counts,
    slow_ip_property,
    slow_lattice_counts,
    slow_transverse,
)

HYP = settings(deadline=None, derandomize=True, max_examples=40)

QUINTIC = (1, 1, 1, 1, 1)
K3 = (1, 5, 12, 18)
OCTIC = (1, 1, 2, 2, 2)
FERMAT_LIKE = (1, 1, 2, 4, 5)  # IP but not transverse


# ---------------------------------------------------------------------------
# validation


def test_validate_accepts_known_vectors():
    assert validate(QUINTIC).w == 5
    assert validate(K3).w == 36
    wv = validate(K3)
    assert wv.d == 3
    assert wv.charges == (
        Fraction(1, 36),
        Fraction(5, 36),
        Fraction(12, 36),
        Fraction(18, 36),
    )


def test_validate_rejects_common_factor_on_restriction():
    # dropping the last coordinate leaves gcd(2, 2) = 2
    with pytest.raises(NotWellFormed):
        validate((2, 2, 4))


def test_validate_rejects_empty_and_short():
    with pytest.raises(EmptyInput):
        validate(())
    with pytest.raises(NotWellFormed):
        validate((5,))


def test_validate_rejects_nonpositive_and_bool():
    with pytest.raises(NotWellFormed):
        validate((0, 1, 2))
    with pytest.raises(NotWellFormed):
        validate((-1, 2, 3))
    with pytest.raises(NotWellFormed):
        validate((True, 2, 3))


def test_weight_vector_is_frozen():
    wv = validate(QUINTIC)
    with pytest.raises(Exception):
        wv.weights = (1, 2)


# ---------------------------------------------------------------------------
# orbifold elements and census


def test_element_identity():
    wv = validate(K3)
    el = element(wv, 0)
    assert el.theta_tilde == (0, 0, 0, 0)
    assert el.age == 0 and el.size == 0


def test_element_k3_six():
    el = element(validate(K3), 6)
    assert el.theta_tilde == (Fraction(1, 6), Fraction(5, 6), 0, 0)
    assert el.age == 1 and el.size == 2


def test_element_octic_four():
    el = element(validate(OCTIC), 4)
    assert el.theta_tilde == (Fraction(1, 2), Fraction(1, 2), 0, 0, 0)
    assert el.age == 1 and el.size == 2


def test_element_out_of_range():
    wv = validate(K3)
    with pytest.raises(OutOfRange):
        element(wv, 36)
    with pytest.raises(OutOfRange):
        element(wv, -1)


def test_census_k3():
    cen = census(validate(K3))
    assert cen[(4, 1)] == 1 and cen[(4, 2)] == 10 and cen[(4, 3)] == 1
    assert sum(n for (s, a), n in cen.items() if s == 4) == 12
    assert cen[(0, 0)] == 1
    assert sum(cen.values()) == 36


def test_census_octic():
    cen = census(validate(OCTIC))
    assert [cen[(5, a)] for a in (1, 2, 3, 4)] == [1, 2, 2, 1]
    assert sum(n for (s, a), n in cen.items() if s == 5) == 6


def test_census_fermat_like_all_top_size():
    cen = census(validate(FERMAT_LIKE))
    nonzero = {key: n for key, n in cen.items() if key != (0, 0)}
    assert sum(nonzero.values()) == 12
    assert all(s == 5 for (s, a) in nonzero)


@HYP
@given(st.lists(st.integers(1, 10), min_size=3, max_size=5))
def test_census_matches_elements_and_pairing(ws):
    try:
        wv = validate(tuple(ws))
    except NotWellFormed:
        assume(False)
    cen = census(wv)
    rebuilt = Counter(
        (element(wv, l).size, element(wv, l).age) for l in range(wv.w)
    )
    assert cen == rebuilt
    for l in range(1, wv.w):
        el, inv = element(wv, l), element(wv, wv.w - l)
        assert el.age + inv.age == el.size == inv.size
        assert 1 <= el.age <= el.size - 1
        assert el.size >= 2


# ---------------------------------------------------------------------------
# face subgroups


def test_subgroup_full_index_set():
    wv = validate(K3)
    assert subgroup(wv, range(4)).members == tuple(range(36))


def test_subgroup_k3_examples():
    wv = validate(K3)
    assert subgroup(wv, [2, 3]).members == (0,)
    assert subgroup(wv, [0, 1]).members == (0, 6, 12, 18, 24, 30)


def test_subgroup_bad_index():
    with pytest.raises(OutOfRange):
        subgroup(validate(K3), [4])


def test_index_subsets_read_any_iterable():
    # every public function taking an index subset J reads it through one
    # check: each iterable form of J gives the same result, a repeated index
    # counts once, and an index outside 0..d is OutOfRange
    wv = validate(OCTIC)
    calls = (
        lambda J: bracket(wv, J),
        lambda J: face_e(wv, J),
        lambda J: lattice_counts(wv, J, 3),
        lambda J: subgroup(wv, J),
    )
    forms = (
        lambda: [3, 0, 2, 0],
        lambda: (0, 2, 3),
        lambda: {2, 3, 0},
        lambda: frozenset((0, 2, 3)),
        lambda: (j for j in (3, 2, 0)),
    )
    for call in calls:
        results = [call(form()) for form in forms]
        assert all(r == results[0] for r in results), results
        assert all(repr(r) == repr(results[0]) for r in results)
        for bad in ([0, 5], (-1, 2), {0, 1, 9}):
            with pytest.raises(OutOfRange):
                call(bad)
    assert face_e(wv, iter([0, 2, 3])).J == frozenset((0, 2, 3))
    assert subgroup(wv, iter([0, 2, 3])).J == frozenset((0, 2, 3))


def test_subgroup_closed_under_addition():
    wv = validate(OCTIC)
    for J in ([0, 1], [2], [0, 4]):
        members = set(subgroup(wv, J).members)
        assert 0 in members
        for a in members:
            for b in members:
                assert (a + b) % wv.w in members


# ---------------------------------------------------------------------------
# lattice counting


def test_lattice_counts_full_J_is_zero():
    wv = validate(K3)
    assert lattice_counts(wv, range(4), 6) == (0,) * 6


def test_lattice_counts_single_coin():
    # complement {weight 5}: 5 n = 36 k forces 5 | k
    wv = validate(K3)
    counts = lattice_counts(wv, [0, 2, 3], 10)
    assert counts == tuple(1 if k % 5 == 0 else 0 for k in range(1, 11))


def test_lattice_counts_quintic_interior():
    from math import comb

    wv = validate(QUINTIC)
    counts = lattice_counts(wv, (), 6)
    assert counts[0] == 1
    assert counts == tuple(comb(5 * k - 1, 4) for k in range(1, 7))


@pytest.mark.parametrize(
    "ws,J",
    [
        (QUINTIC, ()),
        (K3, ()),
        (K3, (0,)),
        (K3, (1, 3)),
        (OCTIC, ()),
        (OCTIC, (0, 1)),
        (FERMAT_LIKE, (2, 4)),
    ],
)
def test_lattice_counts_against_enumeration(ws, J):
    wv = validate(ws)
    comp = [i for i in range(wv.d + 1) if i not in J]
    kmax = 8 if len(comp) < 4 else 5
    assert lattice_counts(wv, J, kmax) == tuple(
        enumerated_counts(ws, comp, kmax)
    )


@pytest.mark.parametrize("J", [(), (0,), (1, 3), (2, 3, 4), (0, 1, 2, 3)])
def test_lattice_counts_high_degree_matches_per_coin_dp(J):
    # w = 1806: the stride kernel against the per-coin DP it replaced
    wv = validate((1, 42, 258, 602, 903))
    assert lattice_counts(wv, J, 6) == slow_lattice_counts(wv, J, 6)


# ---------------------------------------------------------------------------
# interior point property


def _polygon_ip(ws):
    """Independent oracle for d = 2: project the degree-w monomials to the
    first two exponents and test (1,1) strictly inside their convex hull."""
    w = sum(ws)
    pts = set()
    for u0 in range(w // ws[0] + 1):
        for u1 in range((w - u0 * ws[0]) // ws[1] + 1):
            rem = w - u0 * ws[0] - u1 * ws[1]
            if rem % ws[2] == 0:
                pts.add((u0, u1))
    pts = sorted(pts)
    if len(pts) < 3:
        return False

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        return False
    z = (1, 1)
    return all(cross(a, b, z) > 0 for a, b in zip(hull, hull[1:] + hull[:1]))


def test_ip_known_examples():
    assert ip_property(validate(QUINTIC))
    assert ip_property(validate(K3))
    assert ip_property(validate(FERMAT_LIKE))
    assert not ip_property(validate((1, 1, 4)))


def test_ip_matches_polygon_oracle_on_surfaces():
    checked = 0
    for tup in ascending_tuples(3, 25):
        try:
            wv = validate(tup)
        except NotWellFormed:
            continue
        assert ip_property(wv) == _polygon_ip(tup), tup
        checked += 1
    assert checked > 50


@pytest.mark.parametrize(
    "dim, wmax, tuples", [(2, 60, 1857), (3, 30, 1059), (4, 14, 70), (5, 10, 12)]
)
def test_ip_matches_enumeration_oracle(dim, wmax, tuples):
    checked = 0
    for tup in ascending_tuples(dim + 1, wmax):
        try:
            wv = validate(tup)
        except NotWellFormed:
            continue
        assert ip_property(wv) == slow_ip_property(tup), tup
        checked += 1
    assert checked == tuples


def test_ip_count_k3_anchor():
    # 95 IP weight systems with four weights (Reid's list; Yonemura), the
    # largest having w = 66
    count = 0
    for tup in ascending_tuples(4, 66):
        try:
            wv = validate(tup)
        except NotWellFormed:
            continue
        count += ip_property(wv)
    assert count == 95


def _well_formed(dim, wmax):
    for tup in ascending_tuples(dim + 1, wmax):
        try:
            yield validate(tup)
        except NotWellFormed:
            continue


def _check_face_rejects(ws):
    # the reach-set test against two knapsack DPs per proper subset J
    R = weights._reach_sets(ws)
    n = len(ws)
    for mask in range(1, (1 << n) - 1):
        ind = [mask >> i & 1 for i in range(n)]
        size = sum(ind)
        expected = (
            weights._knapsack_min(ws, ind)[0] == size,
            -weights._knapsack_min(ws, [-x for x in ind])[0] == size,
        )
        found = (weights._on_min(ws, R, mask), weights._on_max(ws, R, mask))
        assert found == expected, (ws, mask)


@HYP
@given(st.lists(st.integers(1, 60), min_size=2, max_size=7))
@example([1, 1, 4])  # max u_2 = 1: the face u_2 = 1
@example([1, 2, 2])  # min u_0 = 1: the degree 5 is odd
def test_face_rejects_match_knapsack(ws):
    _check_face_rejects(ws)


def test_face_rejects_match_knapsack_high_degree():
    _check_face_rejects((1, 42, 258, 602, 903))


@HYP
@given(st.lists(st.integers(1, 40), min_size=1, max_size=6), st.integers(0, 50))
@example([1], 0)
def test_reach_sets_extend_a_prefix(ws, extra):
    # a prefix's reach sets built for a larger degree and cut to w, then
    # extended by the last coin: the sets of the whole vector
    w = sum(ws)
    R = [1]
    for c in ws[:-1]:
        R += weights._extend_reach(R, c, w + extra)
    cut = [r & ((1 << (w + 1)) - 1) for r in R]
    assert weights._reach_sets(ws) == cut + weights._extend_reach(cut, ws[-1], w)


def test_reach_sets_are_subset_sums():
    ws = (2, 3, 7)
    R = weights._reach_sets(ws)
    for mask, coins in enumerate([(), (2,), (3,), (2, 3), (7,), (2, 7), (3, 7), ws]):
        reachable = {
            s
            for s in range(13)
            if any(
                s == sum(c * k for c, k in zip(coins, ks))
                for ks in product(range(13), repeat=len(coins))
            )
        }
        assert {s for s in range(13) if R[mask] >> s & 1} == reachable
        assert R[mask] >> 13 == 0


def _det(M):
    """Leibniz expansion: independent of the elimination under test."""
    total = 0
    for perm in permutations(range(len(M))):
        inversions = sum(a > b for a, b in combinations(perm, 2))
        total += (-1) ** inversions * prod(row[j] for row, j in zip(M, perm))
    return total


def _int_rows(n, min_rows, max_rows):
    row = st.lists(st.integers(-9, 9), min_size=n, max_size=n)
    return st.lists(row, min_size=min_rows, max_size=max_rows)


def _matmul(P, Q):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*Q)] for row in P]


@HYP
@given(st.integers(1, 5).flatmap(lambda m: _int_rows(m, m, m)))
def test_scaled_inverse_is_exact(B):
    det = _det(B)
    if det == 0:
        with pytest.raises(InconsistentLP, match="singular"):
            weights._scaled_inverse(B)
        return
    A, D = weights._scaled_inverse(B)
    m = len(B)
    identity = [[D * (i == k) for k in range(m)] for i in range(m)]
    assert D == abs(det)  # the integers are minors of B: no growth past det
    assert _matmul(B, A) == identity
    assert _matmul(A, B) == identity


@HYP
@given(
    st.integers(1, 5).flatmap(lambda m: st.tuples(_int_rows(m, m, m), _int_rows(m, 1, 4))),
    st.lists(st.integers(0, 4), min_size=4, max_size=4),
)
def test_pivot_update_keeps_the_scaled_inverse(case, picks):
    # a chain of pivots: after each, the (A, D) kept by one-pivot updates
    # equals _scaled_inverse of the new basis, entry for entry
    B, entering = case
    assume(_det(B))
    A, D = weights._scaled_inverse(B)
    B = [list(row) for row in B]
    for col, pick in zip(entering, picks):
        a = [sum(x * c for x, c in zip(row, col)) for row in A]
        positive = [i for i, ai in enumerate(a) if ai > 0]
        if not positive:  # the ratio test picks a positive entry only
            continue
        leave = positive[pick % len(positive)]
        A, D = weights._pivot_inverse(A, D, a, leave)
        for r, c in enumerate(col):
            B[r][leave] = c
        assert (A, D) == weights._scaled_inverse(B)


@HYP
@given(st.integers(1, 5).flatmap(lambda n: _int_rows(n, 1, n)))
def test_kernel_vector_is_primitive_and_orthogonal(rows):
    n = len(rows[0])
    if len(rows) == n and _det(rows):
        with pytest.raises(InconsistentLP, match="span"):
            weights._kernel_vector(rows, n)
        return
    x = weights._kernel_vector(rows, n)
    assert any(x)
    assert gcd(*x) == 1
    assert all(sum(a * b for a, b in zip(row, x)) == 0 for row in rows)


# ---------------------------------------------------------------------------
# transversality and the Milnor number


def test_transverse_known_examples():
    assert transverse(validate(QUINTIC))
    assert transverse(validate(K3))
    assert transverse(validate(OCTIC))
    assert not transverse(validate(FERMAT_LIKE))
    assert not transverse(validate((1, 1, 4)))


@pytest.mark.parametrize(
    "dim, wmax, tuples", [(1, 40, 1), (2, 40, 568), (3, 40, 3118), (4, 20, 329)]
)
def test_transverse_matches_list_dp(dim, wmax, tuples):
    checked = 0
    for wv in _well_formed(dim, wmax):
        assert transverse(wv) == slow_transverse(wv), wv
        checked += 1
    assert checked == tuples


def test_k3_ip_systems_all_transverse():
    # Reid's 95 families: every IP weight system with four weights has a
    # quasi-smooth (transverse) member
    ip = [wv for wv in _well_formed(3, 66) if ip_property(wv)]
    assert len(ip) == 95
    assert all(transverse(wv) for wv in ip)


def test_transverse_implies_ip_small_sweep():
    hits = 0
    for k in (3, 4):
        for tup in ascending_tuples(k, 22):
            try:
                wv = validate(tup)
            except NotWellFormed:
                continue
            if transverse(wv):
                hits += 1
                assert ip_property(wv), tup
    assert hits > 20


def test_milnor_numbers():
    assert milnor_number(validate(QUINTIC)) == 1024
    assert milnor_number(validate(OCTIC)) == 1323
    assert milnor_number(validate(K3)) == 434


def test_milnor_fractional_value_flagged_when_claimed_transverse():
    wv = validate((1, 1, 4))
    assert milnor_number(wv) == Fraction(25, 2)
    with pytest.raises(NonIntegerMilnor):
        milnor_number(wv, transverse_hint=True)


# ---------------------------------------------------------------------------
# sector Poincare series


def test_poincare_series_free_sector_is_one():
    wv = validate(FERMAT_LIKE)
    assert poincare_series(wv, 1) == RationalT.one()


def test_poincare_series_quintic_untwisted():
    expected = [1]
    for _ in range(5):
        expected = poly_mul(expected, [1, 1, 1, 1])
    assert poincare_series(validate(QUINTIC), 0) == RationalT(expected)


def test_poincare_series_k3_sector_six():
    # fixed coordinates have weights 12 and 18: the series is 1 + s^12
    r = poincare_series(validate(K3), 6)
    assert r == RationalT([1] + [0] * 11 + [1])
