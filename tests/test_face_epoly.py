"""Face E-polynomials of the affine hypersurfaces attached to simplex faces,
and the age histogram psi."""

import pytest

from stringymirror import BiPoly, census, face_e, psi, validate
from stringymirror.errors import SubsetTooSmall
from stringymirror.face_epoly import _untwisted_numerator, _uv_minus_one_pow

QUINTIC = (1, 1, 1, 1, 1)
K3 = (1, 5, 12, 18)
OCTIC = (1, 1, 2, 2, 2)
FERMAT_LIKE = (1, 1, 2, 4, 5)


def test_face_with_trivial_subgroup_is_one():
    # ((uv - 1) + 1)/uv = 1 whenever |J| = 2 and G_J = {0}
    wv = validate(K3)
    fe = face_e(wv, (2, 3))
    assert fe.J == frozenset({2, 3})
    assert fe.value == BiPoly.one()


def test_face_full_simplex_k3():
    fe = face_e(validate(K3), range(4))
    assert fe.value == BiPoly(
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


def test_face_small_subset_rejected():
    wv = validate(K3)
    with pytest.raises(SubsetTooSmall):
        face_e(wv, (0,))
    with pytest.raises(SubsetTooSmall):
        face_e(wv, ())


@pytest.mark.parametrize("ws", [QUINTIC, K3, OCTIC, FERMAT_LIKE, (1, 2, 3)])
def test_face_euler_number_is_signed_weight(ws):
    # chi of the affine hypersurface in the torus: (-1)^(d-1) * w
    wv = validate(ws)
    fe = face_e(wv, range(wv.d + 1))
    assert fe.value(1, 1) == (-1) ** (wv.d - 1) * wv.w


@pytest.mark.parametrize("ws", [QUINTIC, K3, OCTIC, FERMAT_LIKE])
def test_face_at_v_one_matches_psi_formula(ws):
    # ((u-1)^d - (-1)^d + (-1)^(d-1) (sum psi_i u^i - 1)) / u, exactly
    wv = validate(ws)
    d = wv.d
    fe = face_e(wv, range(d + 1))

    collapsed = {}
    for (a, b), c in fe.value.terms.items():
        collapsed[a] = collapsed.get(a, 0) + c
    collapsed = {a: c for a, c in collapsed.items() if c}

    from math import comb

    num = [comb(d, i) * (-1) ** (d - i) for i in range(d + 1)]
    num[0] -= (-1) ** d
    sign = (-1) ** (d - 1)
    for i, p in enumerate(psi(wv)):
        num[i] += sign * p
    num[0] -= sign
    assert num[0] == 0
    expected = {i: c for i, c in enumerate(num[1:]) if c}
    assert collapsed == expected


def test_psi_quintic_uniform():
    assert psi(validate(QUINTIC)) == (1, 1, 1, 1, 1)


def test_psi_k3():
    p = psi(validate(K3))
    assert p == (1, 15, 19, 1)
    assert sum(p) == 36


def test_psi_octic():
    assert psi(validate(OCTIC)) == (1, 2, 2, 2, 1)


@pytest.mark.parametrize("ws", [QUINTIC, K3, OCTIC, FERMAT_LIKE, (1, 3, 8)])
def test_psi_total_and_identity_count(ws):
    wv = validate(ws)
    p = psi(wv)
    assert sum(p) == wv.w
    assert p[0] == 1


@pytest.mark.parametrize("ws", [QUINTIC, K3, OCTIC, FERMAT_LIKE, (2, 3, 7)])
def test_top_size_age_symmetry(ws):
    wv = validate(ws)
    cen = census(wv)
    top = wv.d + 1
    for age in range(1, top):
        assert cen[(top, age)] == cen[(top, top - age)]


@pytest.mark.parametrize("k", range(2, 13))
def test_untwisted_numerator_times_t_restores_the_binomial(k):
    # t * ((t - 1)^(k-1) - (-1)^(k-1)) / t + (-1)^(k-1) = (t - 1)^(k-1)
    times_t = [0] + _untwisted_numerator(k)
    times_t[0] += (-1) ** (k - 1)
    assert times_t == _uv_minus_one_pow(k - 1)
