"""Weight vector layer: validation, orbifold elements, census, face
subgroups, lattice counting, the interior-point and transversality tests,
and the sector Poincare series."""

from collections import Counter
from functools import cache
from fractions import Fraction
from itertools import combinations, permutations, product
from math import gcd, prod
from operator import mul

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
    lattice_points,
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
    assert len(subgroup(wv, [0, 1])) == 6


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


def test_subgroup_is_the_literal_fixed_set(surface_population, random_threefold_population):
    # G_J read off the gcd identity against its definition, l by l, for
    # every J of the four- and five-weight survey vectors and of w = 1806
    vectors = surface_population + random_threefold_population
    vectors.append(validate((1, 42, 258, 602, 903)))
    for wv in vectors:
        n, w = len(wv.weights), wv.w
        for k in range(n + 1):
            for J in combinations(range(n), k):
                off = [wv.weights[j] for j in range(n) if j not in J]
                literal = tuple(l for l in range(w) if all(l * wj % w == 0 for wj in off))
                assert subgroup(wv, J).members == literal, (wv, J)


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


def test_lattice_counts_need_at_least_one_count():
    with pytest.raises(OutOfRange):
        lattice_counts(validate(K3), [0, 2, 3], 0)


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


@HYP
@given(
    # (weight count, smallest w, largest w, largest weight drawn)
    st.sampled_from([(4, 31, 66, 33), (5, 15, 24, 8)]).flatmap(
        lambda family: st.lists(
            st.integers(1, family[3]), min_size=family[0], max_size=family[0]
        ).filter(lambda ws: family[1] <= sum(ws) <= family[2])
    )
)
# IP, and rejected only by the column generation, beyond the grid above
@example([1, 5, 12, 18])
@example([4, 5, 18, 27])
@example([1, 9, 18, 26])
@example([6, 8, 11, 19])
@example([1, 1, 6, 7, 9])
@example([3, 4, 4, 5, 8])
@example([1, 1, 4, 4, 7])
def test_ip_matches_enumeration_oracle_sampled(ws):
    # four weights with 30 < w <= 66 and five with 14 < w <= 24
    try:
        wv = validate(sorted(ws))
    except NotWellFormed:
        return
    assert ip_property(wv) == slow_ip_property(wv.weights), ws


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
    # the reach-set test against the knapsack minima of 1_J and -1_J, for
    # every proper subset J
    R = weights._reach_sets(ws)
    n = len(ws)
    w = sum(ws)
    for mask in range(1, (1 << n) - 1):
        ind = [mask >> i & 1 for i in range(n)]
        size = sum(ind)
        (lo, _), (neg_hi, _) = weights._knapsack_min(ws, ind, [-x for x in ind])
        coins = [c for c, bit in zip(ws, ind) if bit]
        found = (
            weights._on_min(w, R[(len(R) - 1) ^ mask], coins),
            weights._on_max(w, R[-1], coins),
        )
        assert found == (lo == size, -neg_hi == size), (ws, mask)


@HYP
@given(st.lists(st.integers(1, 60), min_size=2, max_size=7))
@example([1, 1, 4])  # max u_2 = 1: the face u_2 = 1
@example([1, 2, 2])  # min u_0 = 1: the degree 5 is odd
def test_face_rejects_match_knapsack(ws):
    _check_face_rejects(ws)


def test_face_rejects_match_knapsack_high_degree():
    _check_face_rejects((1, 42, 258, 602, 903))


def _point_count(ws):
    # the number of degree-w points, by a counting DP: keeps the enumeration
    # of the knapsack test small
    w = sum(ws)
    count = [1] + [0] * w
    for c in ws:
        for s in range(c, w + 1):
            count[s] += count[s - c]
    return count[w]


@HYP
@given(
    st.integers(2, 6).flatmap(
        lambda n: st.lists(st.integers(1, 60 // n), min_size=n, max_size=n)
    ),
    st.lists(
        st.lists(st.integers(-9, 9), min_size=6, max_size=6), min_size=1, max_size=3
    ),
)
@example([1, 1, 4], [[0, 0, 0, 0, 0, 0]])  # a zero cost: every point is optimal
@example([5, 2, 3], [[1, -1, 0, 0, 0, 0]] * 3)  # a large first coin, a small last
def test_knapsack_min_matches_enumeration(ws, costs):
    # every cost of one call against the minimum over the listed points,
    # and the pair (c, -c) of the hull step against the minimum and maximum
    assume(_point_count(ws) <= 5000)
    points = lattice_points(ws)
    costs = [cost[: len(ws)] for cost in costs]
    values = [[sum(map(mul, cost, p)) for p in points] for cost in costs]
    found = weights._knapsack_min(ws, *costs)
    for cost, vs, (value, u) in zip(costs, values, found):
        assert value == min(vs)
        assert u in points and sum(map(mul, cost, u)) == value
    c = costs[0]
    (lo, _), (neg_hi, _) = weights._knapsack_min(ws, c, [-x for x in c])
    assert (lo, -neg_hi) == (min(values[0]), max(values[0]))


@HYP
@given(
    st.lists(st.integers(1, 30), min_size=1, max_size=4),
    st.integers(1, 30),
    st.integers(0, 40),
)
@example([1, 2], 2, 0)  # w = 5 with d = 2: the prefix without 1 misses it
def test_comb_reject_matches_on_min(prefix, d, extra):
    # the walk's |J| = 1 tests, read off the prefix's sets kept to a larger
    # degree before the coin d joins, against _on_min on the whole vector
    ws = prefix + [d]
    w = sum(ws)
    top = [1]
    for c in prefix:
        top += weights._extend_reach(top, c, w + extra)
    R = weights._reach_sets(ws)
    every, full = len(top) - 1, len(R) - 1
    comb = weights._comb(w, d)
    for i, c in enumerate(prefix):
        found = bool(top[every ^ 1 << i] & comb)
        assert found == (not weights._on_min(w, R[full ^ 1 << i], [c])), (ws, i)
    found = bool(top[every] >> w & 1)
    assert found == (not weights._on_min(w, R[full ^ 1 << len(prefix)], [d])), ws


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


def _keeps_the_scaled_inverse(A, D, B):
    m = len(B)
    assert _matmul(A, B) == [[D * (i == k) for k in range(m)] for i in range(m)]
    assert D == abs(_det(B))  # the integers are minors of B: no growth past det


@HYP
@given(
    st.integers(1, 5).flatmap(lambda m: _int_rows(m, 1, 6)),
    st.lists(st.integers(0, 4), min_size=6, max_size=6),
)
def test_pivot_update_keeps_the_scaled_inverse(entering, picks):
    # a chain of pivots from B = I: after each, A = D B^-1 and D = |det B|
    m = len(entering[0])
    B = [[int(i == k) for k in range(m)] for i in range(m)]
    A, D = [row[:] for row in B], 1
    for col, pick in zip(entering, picks):
        a = [sum(x * c for x, c in zip(row, col)) for row in A]
        positive = [i for i, ai in enumerate(a) if ai > 0]
        if not positive:  # the ratio test picks a positive entry only
            continue
        leave = positive[pick % len(positive)]
        A, D = weights._pivot_inverse(A, D, a, leave)
        for r, c in enumerate(col):
            B[r][leave] = c
        _keeps_the_scaled_inverse(A, D, B)


@cache
def _lp_vectors():
    """The weights of every column-generation run of the scans of d = 1..5
    up to w = 10, 60, 40, 20, 12: 426 well-formed vectors past the face
    rejects and the hull, 127 of them rejected by the LP and 237 given an
    oracle point."""
    column_generation = weights._column_generation
    runs = []

    def spy(coins, cols, A, D):
        runs.append(tuple(coins))
        return column_generation(coins, cols, A, D)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(weights, "_column_generation", spy)
        for d, wmax in [(1, 10), (2, 60), (3, 40), (4, 20), (5, 12)]:
            list(weights.ip_vectors(d, wmax))
    return runs


# 2 to 6 weights that reach the LP, in any order
_LP_WEIGHTS = st.deferred(lambda: st.sampled_from(_lp_vectors())).flatmap(st.permutations)


@HYP
@given(_LP_WEIGHTS)
@example([1, 1, 1, 1, 1])  # IP
@example([1, 5, 12, 18])  # IP
@example([1, 3, 5, 7])  # through the hull to the LP, which rejects it
@example([1, 3, 3, 5])
def test_hull_pivots_build_the_lp_start_inverse(ws):
    # each hull direction c is a primitive row of D B^-1, so c.z = 0, and
    # the LP starts from the (A, D) the hull's pivots left for its basis
    n = len(ws)
    knapsack_min, column_generation = weights._knapsack_min, weights._column_generation

    def knapsack_spy(coins, *costs):
        if len(costs) == 2:  # a hull step asks for the minima of c and -c
            c, minus = costs
            assert minus == [-x for x in c]
            assert gcd(*c) == 1
            assert sum(c) == 0  # c.z, z the all-ones point
        return knapsack_min(coins, *costs)

    def lp_spy(coins, cols, A, D):
        _keeps_the_scaled_inverse(A, D, [list(row[:n]) for row in zip(*cols)])
        return column_generation(coins, cols, A, D)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(weights, "_knapsack_min", knapsack_spy)
        mp.setattr(weights, "_column_generation", lp_spy)
        weights._interior(ws, weights._reach_sets(ws), weights._faces(n))


def _lp_runs(ws):
    """(start columns, A, D, verdict, points added) of each column-generation
    run of ``_interior`` on ws (none when a face reject decides it)."""
    column_generation = weights._column_generation
    runs = []

    def spy(coins, cols, A, D):
        start = list(cols)
        verdict = column_generation(coins, cols, A, D)
        runs.append((start, A, D, verdict, cols[len(start):]))
        return verdict

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(weights, "_column_generation", spy)
        weights._interior(ws, weights._reach_sets(ws), weights._faces(len(ws)))
    return runs


@HYP
@given(_LP_WEIGHTS)
@example([1, 3, 5, 7])  # the oracle adds points, and the LP rejects it
@example([1, 1, 2, 5, 8])  # the oracle adds points, and the LP certifies it
def test_simplex_warm_start_matches_a_fresh_solve(ws):
    # a second run from the same start basis, seeded with every point the
    # first run's oracle added, reaches the same verdict
    for start, A, D, verdict, added in _lp_runs(ws):
        assert weights._column_generation(ws, start + added, A, D) == verdict


def test_simplex_guards():
    # a 1-D LP whose column s = (0,) is a free direction
    with pytest.raises(InconsistentLP, match="unbounded"):
        weights._column_generation((1,), [(1,), (0,)], [[1]], 1)
    with pytest.raises(InconsistentLP, match="already a column"):
        weights._add_column([(1,)], (1,))
    # an oracle that prices with a column the LP already has, z = cols[0]
    knapsack_min = weights._knapsack_min

    def stale_oracle(coins, *costs):
        if len(costs) == 1:
            return [(-1, (1,) * len(coins))]
        return knapsack_min(coins, *costs)

    ws = [1, 3, 5, 7]  # its LP calls the oracle
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(weights, "_knapsack_min", stale_oracle)
        with pytest.raises(InconsistentLP, match="already a column"):
            weights._interior(ws, weights._reach_sets(ws), weights._faces(len(ws)))


# ---------------------------------------------------------------------------
# transversality and the Milnor number


def test_transverse_known_examples():
    assert transverse(validate(QUINTIC))
    assert transverse(validate(K3))
    assert transverse(validate(OCTIC))
    assert not transverse(validate(FERMAT_LIKE))
    assert not transverse(validate((1, 1, 4)))


@pytest.mark.parametrize("first", ["ip", "transverse"])
def test_both_verdicts_come_from_one_reach_set_pass(monkeypatch, first):
    # a fresh record builds its reach sets once for the two verdicts, in
    # either order, also for a vector that fails the IP property
    calls = []
    reach_sets = weights._reach_sets
    monkeypatch.setattr(weights, "_reach_sets", lambda ws: calls.append(ws) or reach_sets(ws))
    for ws in (QUINTIC, K3, FERMAT_LIKE, (1, 1, 4), (1, 1, 1, 3000001)):
        weights.record.cache_clear()
        wv = validate(ws)
        verdicts = (ip_property, transverse) if first == "ip" else (transverse, ip_property)
        for verdict in verdicts:
            verdict(wv)
        assert calls == [ws]
        calls.clear()
    weights.record.cache_clear()


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
