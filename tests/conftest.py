"""Shared fixtures and brute-force oracles.

The survey population (every well-formed IP weight vector of dimension 3
with w <= 40, plus 20 pseudo-random dimension-4 vectors with w <= 60) is
built once per session and reused by the slow sweeps.  The count oracles
below recompute lattice data straight from the definition so the library's
reconstruction pipeline is checked against independent code, and
``slow_ip_property`` decides the IP property from the full list of lattice
points, with its own two-phase ``Fraction`` simplex: it shares no LP code
with the integer revised simplex in ``weights``.
"""

import random
from fractions import Fraction
from typing import List, Sequence

import pytest

from stringymirror import ip_property, validate
from stringymirror.errors import InconsistentLP, NotWellFormed

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
