"""Sums over element classes against the per-element loops they replaced.

Every per-element formula depends on l only through its class (support,
age, size), so ``face_e``, ``psi``, ``census`` and ``mirror_orbifold_e``
sum over classes with multiplicities.  ``vafa_euler`` needs no classes: it
is the closed form sum_T (-w)^|T| gcd(w, w_T)^2 / (w prod_{i in T} w_i)
over the index subsets T, w_T the gcd of the weights on T, since
gcd(w, w_T) elements l fix every coordinate of T (l fixes i iff
w/gcd(w, w_i) divides l, and the lcm of those over T is w/gcd(w, w_T)).
The oracles in ``conftest`` visit every l of Z/wZ in turn; the one for
``vafa_euler`` counts each zero set element by element and sums over pairs.
"""

from itertools import combinations

from hypothesis import assume, example, given, settings, strategies as st

from conftest import (
    slow_census,
    slow_face_e,
    slow_mirror_orbifold_e,
    slow_psi,
    slow_vafa_euler,
)
from stringymirror import (
    census,
    face_e,
    mirror_orbifold_e,
    psi,
    vafa_euler,
    validate,
)
from stringymirror.errors import NotWellFormed
from stringymirror.weights import class_index, element, element_classes


def _check_against_oracles(ws):
    try:
        wv = validate(ws)
    except NotWellFormed:
        assume(False)
    classes = element_classes(wv)
    assert sum(c.count for c in classes) == wv.w
    for l, c in enumerate(class_index(wv)):
        el = element(wv, l)
        support = sum(1 << i for i, q in enumerate(el.theta_tilde) if q)
        assert (classes[c].support, classes[c].age, classes[c].size) == (
            support, el.age, el.size
        )
        assert classes[c].first <= l
    for k in range(2, len(ws) + 1):
        for J in combinations(range(len(ws)), k):
            fast, slow = face_e(wv, J), slow_face_e(wv, J)
            assert fast == slow
            # the face assembly adds terms in this order
            assert list(fast.value.terms) == list(slow.value.terms)
    assert psi(wv) == slow_psi(wv)
    assert census(wv) == slow_census(wv)
    assert vafa_euler(wv) == slow_vafa_euler(wv)
    orb = mirror_orbifold_e(wv)
    total, per_l = slow_mirror_orbifold_e(wv)
    # the same canonical form, not only the same function: both are rendered
    assert repr(orb.value) == repr(total)
    assert orb.euler == total.value_at_one()
    assert list(orb.per_l_terms) == list(per_l)
    for c in classes:
        assert repr(orb.per_l_terms[c.first]) == repr(per_l[c.first])
    assert all(orb.per_l_terms[l] == term for l, term in per_l.items())


@settings(deadline=None, derandomize=True, max_examples=40)
@given(
    st.lists(st.integers(1, 60), min_size=2, max_size=6).filter(
        lambda ws: sum(ws) <= 120
    )
)
@example([1, 1, 2, 4, 5])
@example([1, 5, 12, 18])
def test_class_sums_match_per_element_loops(ws):
    _check_against_oracles(ws)


def test_class_sums_match_per_element_loops_high_degree():
    _check_against_oracles((1, 42, 258, 602, 903))
