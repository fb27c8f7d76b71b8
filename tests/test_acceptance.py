"""Acceptance gate: one test per shipped guarantee, every equality exact.

Each test prints a single PASS/FAIL line (visible with -s or on failure) and
enforces its runtime budget.  The population sweeps reuse the session-scoped
fixtures from conftest.
"""

import random
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

from stringymirror import (
    BiPoly,
    EFunction,
    FracPoly,
    RationalT,
    bracket,
    census,
    element,
    face_e,
    hodge_table,
    integral_project,
    ip_property,
    mirror_orbifold_e,
    reynolds_factor_property,
    stringy_e,
    stringy_e_per_l,
    stringy_euler,
    stringy_terms,
    to_polynomial,
    transverse,
    vafa_euler,
    vafa_poincare,
    validate,
    verify,
)
from stringymirror.weights import ip_vectors

from conftest import series_counts

QUINTIC = (1, 1, 1, 1, 1)
K3 = (1, 5, 12, 18)
OCTIC = (1, 1, 2, 2, 2)
FERMAT_LIKE = (1, 1, 2, 4, 5)


@contextmanager
def budgeted(name, budget):
    t0 = perf_counter()
    try:
        yield
    except BaseException:
        print(f"{name}: FAIL ({perf_counter() - t0:.2f}s)")
        raise
    elapsed = perf_counter() - t0
    verdict = "PASS" if elapsed < budget else "FAIL"
    print(f"{name}: {verdict} ({elapsed:.2f}s, budget {budget:g}s)")
    assert elapsed < budget, f"{name} took {elapsed:.2f}s, budget {budget}s"


def test_criterion_1_quintic_mirror_hodge_data():
    with budgeted("criterion 1 (quintic mirror Hodge data)", 1.0):
        wv = validate(QUINTIC)
        p = vafa_poincare(wv)
        diagonal = {(0, 0): 1, (1, 1): 101, (2, 2): 101, (3, 3): 1}
        corners = {(3, 0): 1, (2, 1): 1, (1, 2): 1, (0, 3): 1}
        assert p == BiPoly({**diagonal, **corners})
        assert p.coefficient(1, 1) == 101  # h^{1,1} of the mirror
        assert p.coefficient(2, 1) == 1  # h^{2,1} of the mirror
        assert vafa_euler(wv) == -200


def test_criterion_2_k3_surface_both_sides():
    with budgeted("criterion 2 (K3 surface, both sides and per-l)", 1.0):
        wv = validate(K3)
        k3_poly = BiPoly(
            {(0, 0): 1, (2, 0): 1, (1, 1): 20, (0, 2): 1, (2, 2): 1}
        )
        assert to_polynomial(stringy_e(wv)) == k3_poly

        picked = [
            term
            for term in stringy_terms(wv).values()
            if any(m == 5 for r in term.terms.values() for m, _ in r.den)
        ]
        assert len(picked) == 4
        subtotal = picked[0]
        for term in picked[1:]:
            subtotal = subtotal + term
        assert subtotal == EFunction(2, [(0, 0, RationalT([1, 7]))])

        assert stringy_euler(wv) == 24
        assert face_e(wv, range(4)).value == BiPoly(
            {
                (2, 2): 1,
                (2, 0): 1,
                (1, 1): 7,
                (0, 2): 1,
                (1, 0): 9,
                (0, 1): 9,
                (0, 0): 8,
            }
        )
        orb = mirror_orbifold_e(wv)
        assert orb.value.to_bipoly() == k3_poly

        report = verify(wv)
        assert report.passed and report.global_identity
        assert report.per_l_failures == ()


def test_criterion_3_octic_threefold_orbifold_side():
    with budgeted("criterion 3 (octic threefold orbifold side)", 1.0):
        wv = validate(OCTIC)
        orb = mirror_orbifold_e(wv)
        assert orb.value.to_bipoly() == BiPoly(
            {
                (0, 0): 1,
                (1, 1): 86,
                (0, 3): -1,
                (1, 2): -2,
                (2, 1): -2,
                (3, 0): -1,
                (2, 2): 86,
                (3, 3): 1,
            }
        )
        assert orb.per_l_terms[0] == EFunction(
            3, [(0, 0, RationalT([1, 83, 83, 1]))]
        )
        assert orb.per_l_terms[4] == EFunction(
            3, [(0, 0, RationalT([0, 3, 3]))]
        )
        assert vafa_euler(wv) == -168
        assert verify(wv).passed


def test_criterion_4_interior_point_without_mirror():
    with budgeted("criterion 4 (IP vector without a mirror)", 1.0):
        wv = validate(FERMAT_LIKE)
        assert ip_property(wv)
        assert not transverse(wv)
        e = stringy_e(wv)
        assert not e.is_polynomial()
        assert stringy_e_per_l(wv, 0).value_at_one() == Fraction(1092, 5)

        cen = census(wv)
        twisted = {key: n for key, n in cen.items() if key != (0, 0)}
        assert sum(twisted.values()) == 12
        assert all(size == 5 for size, _ in twisted)

        total = stringy_e_per_l(wv, 1)
        for l in range(2, wv.w):
            total = total + stringy_e_per_l(wv, l)
        assert total == EFunction(
            3,
            [
                (0, 3, RationalT([-1])),
                (1, 2, RationalT([-5])),
                (2, 1, RationalT([-5])),
                (3, 0, RationalT([-1])),
            ],
        )


def test_criterion_5_bracket_oracle_equivalence(population):
    with budgeted("criterion 5 (bracket vs brute-force counts)", 60.0):
        for wv in population:
            n = wv.d + 1
            ws = wv.weights
            for mask in range(1 << n):
                J = [i for i in range(n) if mask >> i & 1]
                comp = [i for i in range(n) if not mask >> i & 1]
                back = bracket(wv, J).inverse_substitution()
                assert back.series(20)[1:] == series_counts(ws, comp, 20), (
                    ws,
                    J,
                )


def test_criterion_6_per_element_identity_population(population):
    with budgeted("criterion 6 (per-element identity, population)", 120.0):
        for wv in population:
            orb = mirror_orbifold_e(wv)
            for l in range(wv.w):
                assert stringy_e_per_l(wv, l) == orb.per_l_terms[l], (
                    wv.weights,
                    l,
                )
            if transverse(wv):
                e = stringy_e(wv)
                assert e.is_polynomial(), wv.weights
                dim = wv.d - 1
                table = hodge_table(to_polynomial(e), dim)
                for p in range(dim + 1):
                    for q in range(dim + 1):
                        assert table.h(p, q) == table.h(q, p)
                        assert table.h(p, q) == table.h(dim - p, dim - q)


def test_criterion_7_euler_cross_route(population):
    with budgeted("criterion 7 (Euler number, two routes)", 60.0):
        for wv in population:
            if not transverse(wv):
                continue
            assert stringy_euler(wv) == (-1) ** (wv.d - 1) * vafa_euler(wv), (
                wv.weights
            )


def test_criterion_8_kernel_invariants():
    with budgeted("criterion 8 (kernel invariants, randomized)", 10.0):
        rng = random.Random(8675309)
        w = 12

        def rand_frac_poly(integral=False):
            terms = {}
            for _ in range(rng.randint(0, 6)):
                e = rng.randrange(0, 37)
                if integral:
                    e -= e % w
                terms[e] = rng.randint(-9, 9)
            return FracPoly(w, terms)

        for _ in range(200):
            f, g = rand_frac_poly(), rand_frac_poly()
            p = rand_frac_poly(integral=True)
            assert integral_project(integral_project(f)) == integral_project(f)
            assert integral_project(f + g) == integral_project(
                f
            ) + integral_project(g)
            assert reynolds_factor_property(p, f)

        def rand_rational():
            num = [rng.randint(-9, 9) for _ in range(rng.randint(1, 5))]
            if not any(num):
                num[0] = 1
            den = [
                (rng.randint(1, 6), rng.randint(1, 2))
                for _ in range(rng.randint(0, 3))
            ]
            return RationalT(num, rng.randint(-3, 6), den)

        for _ in range(200):
            a, b = rand_rational(), rand_rational()
            assert a == a
            m = rng.randint(1, 6)
            inflated_num = [0] * (m + 1)
            inflated_num[0] = 1
            inflated_num[m] = -1
            padded = a.mul_poly(inflated_num)
            assert RationalT(padded.num, padded.shift, padded.den + ((m, 1),)) == a
            assert (a == b) == (a - b).is_zero()


def _hodge_identities(table):
    """The Libgober-Wood identity sum (-1)^(p+q) (p - D/2)^2 h^{p,q} =
    D chi / 12 and h^{0,0} = h^{D,0} = 1 with h^{p,0} = 0 for 0 < p < D,
    read off the Hodge table alone."""
    D = table.dimension
    grid = [(p, q, (-1) ** (p + q) * table.h(p, q)) for p in range(D + 1) for q in range(D + 1)]
    chi = sum(e for _, _, e in grid)
    moment = sum((p - Fraction(D, 2)) ** 2 * e for p, _, e in grid)
    edge = [table.h(p, 0) for p in range(D + 1)]
    return moment == Fraction(D * chi, 12) and edge == [1] + [0] * (D - 1) + [1]


def test_criterion_9_the_theorem_in_every_dimension():
    with budgeted("criterion 9 (the theorem for curves up to fivefolds)", 20.0):
        rows = polynomial = 0
        for dim, wmax in ((2, 40), (3, 40), (4, 20), (5, 14), (6, 12)):
            for wv in ip_vectors(dim, wmax):
                report = verify(wv)
                assert report.passed and report.self_dual, wv.weights
                rows += 1
                if report.stringy_polynomial:
                    polynomial += 1
                    table = hodge_table(to_polynomial(stringy_e(wv)), dim - 1)
                    assert _hodge_identities(table), wv.weights
        assert (rows, polynomial) == (337, 283)
        # the sextic fourfold's mirror
        table = hodge_table(to_polynomial(stringy_e(validate((1,) * 6))), 4)
        assert (table.h(1, 1), table.h(3, 1), table.h(2, 1), table.h(2, 2)) == (426, 1, 0, 1752)
        assert table.euler() == 2610
