"""Shared fixtures and brute-force oracles.

The survey population (every well-formed IP weight vector of dimension 3
with w <= 40, plus 20 pseudo-random dimension-4 vectors with w <= 60) is
built once per session and reused by the slow sweeps.  The count oracles
below recompute lattice data straight from the definition so the library's
reconstruction pipeline is checked against independent code, and
``slow_ip_property`` decides the IP property from the full list of lattice
points, with its own two-phase ``Fraction`` simplex: it shares no LP code
with the integer revised simplex in ``weights``.  ``slow_transverse`` is the
transversality criterion with one list-of-booleans reachability DP per index
subset, the reference for the big-int reach sets ``transverse`` reads.
``slow_face_e``, ``slow_psi``, ``slow_census``, ``slow_vafa_euler`` and
``slow_mirror_orbifold_e`` loop over every group element l, one at a time,
the references for the sums over element classes.  ``slow_series_quotient``
and ``slow_lattice_counts`` are the per-coefficient loops that the
stride-m kernel ``exact_arith.series_quotient`` replaced.
``slow_stringy_half`` assembles E_str and every E^(l) face by face, with one
``bracket`` call and one ``EFunction`` per face term, the reference for the
printed forms of the subset-lattice walk and its one peel per face term.
``slow_vafa_poincare`` divides each sector Hilbert series out by exact long
division (``poly_div_exact``, also the reference for the stride-m division)
and keeps the integral exponents of a ``FracPoly`` over 2w, the reference
for the single multisection route of ``vafa_poincare``.
"""

import random
from collections import Counter
from fractions import Fraction
from math import comb
from typing import Dict, List, Optional, Sequence, Tuple

import pytest

from stringymirror import (
    BiPoly,
    EFunction,
    FaceEPolynomial,
    FracPoly,
    bracket,
    element,
    face_e,
    integral_project,
    ip_property,
    orbifold,
    subgroup,
    validate,
)
from stringymirror.exact_arith import _rational, expand_factors, poly_strip, rational_sum
from stringymirror.weights import element_classes
from stringymirror.errors import (
    DivisionNotExact,
    InconsistentCensus,
    InconsistentLP,
    InconsistentSector,
    NonIntegerCoefficient,
    NotWellFormed,
)

D3_BUDGET = 40
D4_BUDGET = 60
D4_COUNT = 20
SEED = 20240814


def ascending_tuples(k, budget, start=1):
    """Non-decreasing k-tuples with entries >= start and sum <= budget."""
    if k == 0:
        yield ()
        return
    for v in range(start, budget // k + 1):
        for rest in ascending_tuples(k - 1, budget - v, v):
            yield (v,) + rest


def _ip_members(dim, budget):
    out = []
    for tup in ascending_tuples(dim + 1, budget):
        try:
            wv = validate(tup)
        except NotWellFormed:
            continue
        if ip_property(wv):
            out.append(wv)
    return out


@pytest.fixture(scope="session")
def surface_population():
    """Every well-formed IP weight vector with d = 3 and w <= 40."""
    return _ip_members(3, D3_BUDGET)


@pytest.fixture(scope="session")
def random_threefold_population():
    """20 seeded-random well-formed IP weight vectors with d = 4, w <= 60."""
    rng = random.Random(SEED)
    out, seen = [], set()
    while len(out) < D4_COUNT:
        tup = tuple(sorted(rng.randint(1, 15) for _ in range(5)))
        if sum(tup) > D4_BUDGET or tup in seen:
            continue
        seen.add(tup)
        try:
            wv = validate(tup)
        except NotWellFormed:
            continue
        if ip_property(wv):
            out.append(wv)
    return out


@pytest.fixture(scope="session")
def population(surface_population, random_threefold_population):
    return surface_population + random_threefold_population


def series_counts(weights, comp, kmax):
    """N(k) = #{n in Z_{>0}^comp : sum n_j w_j = k w} for k = 1..kmax.

    Expands prod_{j in comp} (x**w_j + x**(2 w_j) + ...) truncated at degree
    kmax*w and reads the coefficients at multiples of w.  No rational
    reconstruction involved, so this is a fair oracle for bracket().
    """
    w = sum(weights)
    deg = kmax * w
    acc = [0] * (deg + 1)
    acc[0] = 1
    for j in comp:
        m = weights[j]
        nxt = [0] * (deg + 1)
        nxt[m:] = acc[: deg + 1 - m]
        for i in range(m, deg + 1):
            nxt[i] += nxt[i - m]
        acc = nxt
    return [acc[k * w] for k in range(1, kmax + 1)]


def enumerated_counts(weights, comp, kmax):
    """Same numbers by walking every solution of the Diophantine system.

    Exponential; only for small anchor cases.  Ties series_counts (and
    through it the whole reconstruction chain) to literal point counting.
    """
    w = sum(weights)
    coins = [weights[j] for j in comp]
    limit = kmax * w
    counts = [0] * (kmax + 1)

    def walk(i, total):
        if i == len(coins):
            if total and total % w == 0:
                counts[total // w] += 1
            return
        step = coins[i]
        acc = total + step
        while acc <= limit:
            walk(i + 1, acc)
            acc += step

    if coins:
        walk(0, 0)
    return counts[1:]


def lattice_points(weights):
    """All non-negative integer u with sum w_i u_i = w (degree-w monomials)."""
    d = len(weights) - 1
    out = []

    def rec(i, remaining, prefix):
        if i == d:
            if remaining % weights[d] == 0:
                out.append(prefix + (remaining // weights[d],))
            return
        step = weights[i]
        for u in range(remaining // step + 1):
            rec(i + 1, remaining - u * step, prefix + (u,))

    rec(0, sum(weights), ())
    return out


# exact LP (two-phase simplex, Bland's rule) for slow_ip_property


def _pivot(T: List[List[Fraction]], rhs: List[Fraction], r: int, c: int):
    pr = T[r]
    inv = Fraction(1) / pr[c]
    if inv != 1:
        T[r] = pr = [x * inv for x in pr]
        rhs[r] *= inv
    for i, row in enumerate(T):
        if i != r and row[c]:
            f = row[c]
            T[i] = [x - f * y for x, y in zip(row, pr)]
            rhs[i] -= f * rhs[r]


def _run_simplex(T, rhs, basis, cost, allowed):
    m = len(T)
    while True:
        cb = [cost[b] for b in basis]
        enter = -1
        for j in allowed:
            if j in basis:
                continue
            rc = cost[j] - sum(cb[i] * T[i][j] for i in range(m) if cb[i] or T[i][j])
            if rc > 0:
                enter = j  # Bland: smallest improving index
                break
        if enter < 0:
            return
        leave = -1
        best = None
        for i in range(m):
            a = T[i][enter]
            if a > 0:
                ratio = rhs[i] / a
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best, leave = ratio, i
        if leave < 0:
            raise InconsistentLP("LP unbounded")
        _pivot(T, rhs, leave, enter)
        basis[leave] = enter


def _simplex_max(cols: List[Sequence[int]], b: Sequence[int], obj: Sequence[int]):
    """Maximize obj.x subject to sum_j x_j cols[j] = b, x >= 0 (b >= 0).

    Returns (value, y) with y an exact dual vector: y.cols[j] >= obj[j] for
    all j and y.b = value.  Requires full row rank (true for our instances);
    an infeasible, unbounded or rank-deficient system raises InconsistentLP.
    """
    m = len(b)
    n = len(cols)
    F = Fraction
    T = [
        [F(cols[j][i]) for j in range(n)] + [F(1 if k == i else 0) for k in range(m)]
        for i in range(m)
    ]
    rhs = [F(x) for x in b]
    basis = list(range(n, n + m))
    # phase 1: drive the artificial variables to zero
    cost1 = [F(0)] * n + [F(-1)] * m
    _run_simplex(T, rhs, basis, cost1, range(n + m))
    if any(rhs[i] for i in range(m) if basis[i] >= n):
        raise InconsistentLP("LP infeasible")
    for i in range(m):
        if basis[i] >= n:  # degenerate artificial: pivot out on a real column
            for j in range(n):
                if j not in basis and T[i][j]:
                    _pivot(T, rhs, i, j)
                    basis[i] = j
                    break
            else:
                raise InconsistentLP("LP constraint rows are rank deficient")
    # phase 2
    cost2 = [F(c) for c in obj] + [F(0)] * m
    _run_simplex(T, rhs, basis, cost2, range(n))
    value = sum(cost2[basis[i]] * rhs[i] for i in range(m))
    # dual from B^T y = c_B over the original columns
    Bt = [[F(cols[basis[i]][r]) for r in range(m)] for i in range(m)]
    cB = [cost2[basis[i]] for i in range(m)]
    y = _solve_linear(Bt, cB)
    return value, y


def _solve_linear(A: List[List[Fraction]], b: List[Fraction]) -> List[Fraction]:
    """Solve A x = b by Gaussian elimination (A square, invertible)."""
    m = len(A)
    M = [row[:] + [b[i]] for i, row in enumerate(A)]
    for col in range(m):
        piv = next((r for r in range(col, m) if M[r][col]), None)
        if piv is None:
            raise InconsistentLP("singular basis in dual extraction")
        M[col], M[piv] = M[piv], M[col]
        inv = Fraction(1) / M[col][col]
        M[col] = [x * inv for x in M[col]]
        for r in range(m):
            if r != col and M[r][col]:
                f = M[r][col]
                M[r] = [x - f * y for x, y in zip(M[r], M[col])]
    return [M[r][m] for r in range(m)]


def slow_ip_property(weights):
    """The IP property by enumeration: list every lattice point, check the
    affine span by exact row reduction, then run column generation in which
    the separating points are found by scanning the whole list.

    Exponential in the dimension; the reference for ``ip_property``.
    """
    pts = lattice_points(weights)
    n = len(weights)
    d = n - 1
    z = (1,) * n
    # quick reject: if some coordinate attains its maximum 1 at z while
    # vanishing somewhere, z sits on a proper face
    for i in range(n):
        col = [u[i] for u in pts]
        if max(col) == 1 and min(col) == 0:
            return False
    # affine span via exact row reduction of u - z
    echelon, pivots, spanning = [], [], [z]
    for u in pts:
        vec = [Fraction(ui - 1) for ui in u]
        for row, p in zip(echelon, pivots):
            if vec[p]:
                f = vec[p]
                vec = [a - f * b for a, b in zip(vec, row)]
        lead = next((i for i, a in enumerate(vec) if a), None)
        if lead is not None:
            inv = Fraction(1) / vec[lead]
            echelon.append([a * inv for a in vec])
            pivots.append(lead)
            spanning.append(u)
            if len(echelon) == d:
                break
    if len(echelon) < d:
        return False
    V = spanning
    Vset = set(V)
    while True:
        cols = list(V)
        cols.append(tuple(sum(u[i] for u in V) for i in range(n)))
        obj = [0] * len(V) + [1]
        eps, y = _simplex_max(cols, z, obj)
        if eps > 0:
            return True
        violators = sorted(
            (u for u in pts if sum(yi * ui for yi, ui in zip(y, u)) < 0),
            key=lambda u: sum(yi * ui for yi, ui in zip(y, u)),
        )
        if not violators:
            return False
        for u in violators[:10]:
            if u not in Vset:  # dual feasibility guarantees novelty
                V.append(u)
                Vset.add(u)


def slow_transverse(wv):
    """Monomial-existence criterion for quasi-smoothness of the generic
    degree-w hypersurface: for every nonempty index subset S, either w is a
    non-negative integer combination of the weights in S, or at least |S|
    distinct indices j outside S have w - w_j representable that way."""
    ws = wv.weights
    n = len(ws)
    w = wv.w
    for mask in range(1, 1 << n):
        coins = sorted({ws[i] for i in range(n) if mask >> i & 1})
        reach = [False] * (w + 1)
        reach[0] = True
        for c in coins:
            for i in range(c, w + 1):
                if reach[i - c]:
                    reach[i] = True
        if reach[w]:
            continue
        size = bin(mask).count("1")
        pointers = sum(
            1 for j in range(n) if not mask >> j & 1 and reach[w - ws[j]]
        )
        if pointers < size:
            return False
    return True


# ---------------------------------------------------------------------------
# per-element oracles: one group element l at a time


def _elements(wv):
    return tuple(element(wv, l) for l in range(wv.w))


def _zero_sets(wv):
    return tuple(
        frozenset(i for i, q in enumerate(el.theta_tilde) if q == 0)
        for el in _elements(wv)
    )


def slow_face_e(wv, J) -> FaceEPolynomial:
    """E-polynomial of the face piece for J (|J| >= 2), summed over the
    members of the face subgroup G_J."""
    Jf = frozenset(J)
    k = len(Jf)
    terms: Dict[Tuple[int, int], int] = {}
    # (uv - 1)^(k-1) - (-1)^(k-1), along the diagonal
    for i in range(k):
        c = comb(k - 1, i) * (-1) ** (k - 1 - i)
        terms[(i, i)] = terms.get((i, i), 0) + c
    terms[(0, 0)] = terms.get((0, 0), 0) - (-1) ** (k - 1)
    sign = (-1) ** k
    els = _elements(wv)
    for l in subgroup(wv, Jf).members:
        if l == 0:
            continue
        el = els[l]
        key = (el.age, el.size - el.age)
        terms[key] = terms.get(key, 0) + sign
    out: Dict[Tuple[int, int], int] = {}
    for (a, b), c in terms.items():
        if c == 0:
            continue
        if a < 1 or b < 1:
            raise DivisionNotExact(
                f"face numerator for J={sorted(Jf)} has a u^{a} v^{b} term; "
                "division by uv is not exact"
            )
        out[(a - 1, b - 1)] = c
    return FaceEPolynomial(Jf, BiPoly(out))


def slow_psi(wv) -> Tuple[int, ...]:
    """Age census (psi_0, ..., psi_d), element by element."""
    counts = [0] * (wv.d + 1)
    for el in _elements(wv):
        counts[el.age] += 1
    if counts[0] != 1 or sum(counts) != wv.w:
        raise InconsistentCensus(
            f"age census {counts} of {wv} needs psi_0 = 1 and sum {wv.w}"
        )
    return tuple(counts)


def slow_census(wv) -> Counter:
    """Multiset {(size, age): multiplicity}, element by element."""
    return Counter((el.size, el.age) for el in _elements(wv))


def slow_vafa_euler(wv) -> Fraction:
    """Orbifold Euler number, with the multiplicity of each zero set
    counted element by element."""
    mult = Counter(_zero_sets(wv))
    ws = wv.weights
    w = wv.w
    total = Fraction(0)
    for zl, ml in mult.items():
        for zr, mr in mult.items():
            val = Fraction(ml * mr)
            for i in zl & zr:
                val *= Fraction(ws[i] - w, ws[i])
            total += val
    return total / w


def slow_mirror_orbifold_e(wv) -> Tuple[EFunction, Dict[int, EFunction]]:
    """(total, per-l terms) of (-u)^(d-1) E_orb(X; 1/u, v), adding the
    sector term of every l in turn; each zero set is projected once."""
    projected = {}
    per: Dict[int, EFunction] = {}
    total = EFunction(wv.d - 1, ())
    els = _elements(wv)
    zs = _zero_sets(wv)
    for l in range(wv.w):
        if zs[l] not in projected:
            zero = sum(1 << i for i in zs[l])
            projected[zs[l]] = _rational(orbifold._projected_sector(wv, zero))
        B = projected[zs[l]]
        if l == 0:
            ef = EFunction(wv.d - 1, [(0, 0, B.mul_tpower(-1))])
        else:
            el = els[l]
            sign = -1 if el.size % 2 else 1
            ef = EFunction(
                wv.d - 1, [(el.age - 1, el.size - el.age - 1, B * sign)]
            )
        per[l] = ef
        total = total + ef
    return total, per


# ---------------------------------------------------------------------------
# the Poincare polynomial by exact long division and exponents over 2w


def poly_div_exact(a: Sequence, b: Sequence):
    """Quotient of dense polynomials, or None when a remainder is left.

    The divisor must have a unit leading coefficient, which covers every
    divisor used in this package: products of (1 - t**m) factors.
    """
    rem = list(a)
    div = poly_strip(list(b))
    if not div:
        raise ZeroDivisionError("polynomial division by zero")
    lead = div[-1]
    if lead not in (1, -1):
        raise ValueError("divisor must have a unit leading coefficient")
    poly_strip(rem)
    if not rem:
        return []
    if len(rem) < len(div):
        return None
    quot = [0] * (len(rem) - len(div) + 1)
    for i in range(len(quot) - 1, -1, -1):
        c = rem[i + len(div) - 1]
        if c:
            c *= lead
            quot[i] = c
            for k, bc in enumerate(div):
                rem[i + k] -= c * bc
    if any(rem):
        return None
    return quot


def _slow_sector_bipoly(wv, l) -> Optional[BiPoly]:
    """[ U_l * (t tbar)^{g} (t/tbar)^{beta} ]_int for the polynomial route;
    None when U_l is not a polynomial."""
    el = element(wv, l)
    zero = frozenset(i for i, q in enumerate(el.theta_tilde) if q == 0)
    ws = [wv.weights[i] for i in sorted(zero)]
    num, den = [(wv.w - wi, 1) for wi in ws], [(wi, 1) for wi in ws]
    U = poly_div_exact(expand_factors(num), expand_factors(den))
    if U is None:
        return None
    w = wv.w
    twisted_sum = sum(wv.weights[i] for i in wv.indices() if i not in zero)
    # numerators over the common denominator 2w:
    # 2w*g = size*w - 2*sum', 2w*beta = 2*age*w - size*w
    g2 = el.size * w - 2 * twisted_sum
    b2 = 2 * el.age * w - el.size * w
    terms: Dict[int, int] = {}
    for e, c in enumerate(U):
        if c:
            terms[2 * e + g2 + b2] = c
    fp = FracPoly(2 * w, terms)
    kept = integral_project(fp)
    diag_offset = 2 * el.age - el.size  # alpha - beta, always an integer
    out: Dict[Tuple[int, int], int] = {}
    for ee, c in kept.terms.items():
        alpha = ee // (2 * w)
        beta = alpha - diag_offset
        if alpha < 0 or beta < 0:
            raise InconsistentSector(
                f"sector {l} of {wv} has a negative exponent pair ({alpha}, {beta})"
            )
        out[(alpha, beta)] = out.get((alpha, beta), 0) + c
    return BiPoly(out)


def slow_vafa_poincare(wv) -> BiPoly:
    """Orbifold Hodge-Poincare polynomial with U_l divided out by exact long
    division and the bracket taken on a ``FracPoly`` over 2w, one l per
    element class; NonIntegerCoefficient when some U_l is not a
    polynomial."""
    total = BiPoly.zero()
    for c in element_classes(wv):
        part = _slow_sector_bipoly(wv, c.first)
        if part is None:
            raise NonIntegerCoefficient(
                f"sector l={c.first} of {wv} has a non-polynomial Hilbert series; "
                "the weight vector is not transverse"
            )
        total = total + part * c.count
    if any(c < 0 or c != int(c) for c in total.terms.values()):
        raise NonIntegerCoefficient(f"negative entries in P(t, tbar) for {wv}")
    return total


# ---------------------------------------------------------------------------
# per-coefficient loops: the references for the stride-m kernel


def slow_series_quotient(num, den, n):
    """First n+1 coefficients of num(t) / prod (1 - t**m)**e expanded at
    t = 0: one prefix-sum pass with stride m per denominator factor."""
    g = list(num[: n + 1]) + [0] * max(0, n + 1 - len(num))
    for m, e in den:
        for _ in range(e):
            for i in range(m, n + 1):
                g[i] += g[i - m]
    return g


def slow_lattice_counts(wv, J, K):
    """N_J(k) for k = 1..K by a knapsack DP with one pass per coin."""
    Jf = frozenset(J)
    w = wv.w
    coins = [wv.weights[j] for j in wv.indices() if j not in Jf]
    if not coins:
        return (0,) * K
    base = sum(coins)
    top = K * w - base
    if top < 0:
        return (0,) * K
    dp = [0] * (top + 1)
    dp[0] = 1
    for c in coins:
        for i in range(c, top + 1):
            dp[i] += dp[i - c]
    return tuple(
        dp[k * w - base] if k * w >= base else 0 for k in range(1, K + 1)
    )


# ---------------------------------------------------------------------------
# the stringy half face by face: the reference for the subset-lattice walk


def _bits(mask):
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _t_minus_one_pow(n):
    return [comb(n, i) * (-1) ** (n - i) for i in range(n + 1)]


def slow_stringy_half(wv) -> Tuple[EFunction, List[EFunction]]:
    """(E_str, [E^(l) for one l per element class]) with one ``bracket``
    call per face subset J and one ``EFunction`` per face term, summed over
    J in order of size and then members; each twisted sum runs over the J
    containing the support in increasing order of J's bitmask."""
    n = len(wv.weights)
    masks = sorted(
        (mask for mask in range(1 << n) if bin(mask).count("1") >= 2),
        key=lambda mask: (bin(mask).count("1"), _bits(mask)),
    )
    weighted = {
        mask: bracket(wv, _bits(mask)).mul_poly(
            _t_minus_one_pow(wv.d + 1 - bin(mask).count("1"))
        )
        for mask in masks
    }
    terms = [
        EFunction(
            wv.d - 1,
            ((a, b, base * c) for (a, b), c in face_e(wv, _bits(mask)).value.terms.items()),
        )
        for mask, base in weighted.items()
    ]
    total = EFunction(wv.d - 1, (e for term in terms for e in term.iter_entries()))
    untwisted = []
    for mask, base in weighted.items():
        k = bin(mask).count("1")
        num = _t_minus_one_pow(k - 1)
        num[0] -= (-1) ** (k - 1)
        untwisted.append((0, 0, base.mul_poly(num[1:])))
    per_class = []
    for c in element_classes(wv):
        if not c.support:
            per_class.append(EFunction(wv.d - 1, untwisted))
            continue
        r = rational_sum(
            weighted[mask] * (-1 if bin(mask).count("1") % 2 else 1)
            for mask in range(c.support, 1 << n)
            if mask & c.support == c.support
        )
        per_class.append(EFunction(wv.d - 1, [(c.age - 1, c.size - c.age - 1, r)]))
    return total, per_class
