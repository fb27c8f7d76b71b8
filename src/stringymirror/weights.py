"""Weight vectors and their combinatorics.

A weight vector w = (w_0, ..., w_d) is well formed when every d-element
subset of the weights has gcd 1.  Throughout, w also denotes the total
weight sum and q_i = w_i / w are the charges.

The cyclic group Z/wZ acts with phases theta~_i(l) = frac(l q_i); for each
element we record

    age(l)  = sum_i theta~_i(l)          (an integer),
    size(l) = #{ i : theta~_i(l) != 0 }  = age(l) + age(w - l)  for l != 0.

Well-formedness forces size(l) >= 2 and 1 <= age(l) <= size(l) - 1 for all
l != 0.

``lattice_counts`` counts monomials of degree k*w supported exactly off a
given index subset; ``transverse`` is the standard monomial-existence
criterion for the generic member of the linear system to be quasi-smooth.

``ip_property`` decides whether the all-ones exponent vector lies in the
interior of the degree-w monomial polytope without listing its lattice
points (there are roughly w^d of them).  One oracle minimizes an integer
functional over those points by an unbounded-knapsack DP over the degrees
0..w, O(n w) integer steps.  After the free reject 2 w_i > w (z on the face
u_i = 1), the oracle serves three steps in turn: sound rejects (z on a face
sum_{j in J} u_j = |J| for a proper index subset J), a search for an
affinely spanning set of points along integer directions orthogonal to the
span so far, and the exact separation step of a column generation whose LP
is a small rational simplex over the points found.  No floats anywhere.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod
from typing import FrozenSet, Iterable, List, Sequence, Tuple

from .errors import (
    EmptyInput,
    InconsistentLP,
    NonIntegerMilnor,
    NotIP,
    NotWellFormed,
    OutOfRange,
)
from .exact_arith import RationalT, expand_factors

# ---------------------------------------------------------------------------
# the weight vector itself


@dataclass(frozen=True)
class WeightVector:
    """Validated weight tuple; construct through ``validate``."""

    weights: Tuple[int, ...]

    def __post_init__(self):
        ws = self.weights
        if not ws:
            raise EmptyInput("no weights supplied")
        if any(not isinstance(x, int) or isinstance(x, bool) or x < 1 for x in ws):
            raise NotWellFormed("weights must be positive integers")
        if len(ws) < 2:
            raise NotWellFormed("need at least two weights")
        for i in range(len(ws)):
            rest = ws[:i] + ws[i + 1 :]
            if gcd(*rest) != 1:
                raise NotWellFormed(
                    f"gcd of weights omitting index {i} is {gcd(*rest)}, not 1"
                )

    @property
    def d(self) -> int:
        """Ambient projective dimension: one less than the weight count."""
        return len(self.weights) - 1

    @property
    def w(self) -> int:
        return sum(self.weights)

    @property
    def charges(self) -> Tuple[Fraction, ...]:
        w = self.w
        return tuple(Fraction(wi, w) for wi in self.weights)

    def indices(self) -> range:
        return range(len(self.weights))

    def __str__(self):
        return "(" + ",".join(map(str, self.weights)) + ")"


def validate(weights: Sequence[int]) -> WeightVector:
    """Build a WeightVector, raising EmptyInput / NotWellFormed."""
    ws = tuple(weights)
    if not ws:
        raise EmptyInput("no weights supplied")
    return WeightVector(ws)


# ---------------------------------------------------------------------------
# group elements, census, face subgroups


@dataclass(frozen=True)
class OrbifoldElement:
    l: int
    theta_tilde: Tuple[Fraction, ...]
    age: int
    size: int


def element(wv: WeightVector, l: int) -> OrbifoldElement:
    """The l-th element of Z/wZ with its phases, age and size."""
    w = wv.w
    if not 0 <= l < w:
        raise OutOfRange(f"group element {l} outside 0..{w - 1}")
    theta = tuple(Fraction((l * wi) % w, w) for wi in wv.weights)
    age = sum(theta)
    assert age.denominator == 1, "ages of diagonal symmetries are integers"
    return OrbifoldElement(l, theta, int(age), sum(1 for q in theta if q))


@lru_cache(maxsize=None)
def _elements(wv: WeightVector) -> Tuple[OrbifoldElement, ...]:
    return tuple(element(wv, l) for l in range(wv.w))


def census(wv: WeightVector) -> Counter:
    """Multiset {(size, age): multiplicity} over all of Z/wZ."""
    return Counter((el.size, el.age) for el in _elements(wv))


@dataclass(frozen=True)
class FaceSubgroup:
    """Elements acting trivially on every coordinate off J."""

    J: FrozenSet[int]
    members: Tuple[int, ...]

    def __len__(self):
        return len(self.members)


def _check_subset(wv: WeightVector, J: Iterable[int]) -> FrozenSet[int]:
    Jf = frozenset(J)
    if not all(isinstance(j, int) and 0 <= j <= wv.d for j in Jf):
        raise OutOfRange(f"subset {sorted(Jf)} not within 0..{wv.d}")
    return Jf


def subgroup(wv: WeightVector, J: Iterable[int]) -> FaceSubgroup:
    """G_J = { l : theta~_j(l) = 0 for every j outside J }."""
    Jf = _check_subset(wv, J)
    w = wv.w
    comp = [wv.weights[j] for j in wv.indices() if j not in Jf]
    members = tuple(
        l for l in range(w) if all((l * wj) % w == 0 for wj in comp)
    )
    return FaceSubgroup(Jf, members)


# ---------------------------------------------------------------------------
# lattice-point counts


def lattice_counts(wv: WeightVector, J: Iterable[int], K: int) -> Tuple[int, ...]:
    """N_J(k) for k = 1..K: solutions of sum w_i u_i = k*w with u_j = 0
    exactly for j in J (all other coordinates strictly positive)."""
    if K < 1:
        raise OutOfRange("K must be >= 1")
    Jf = _check_subset(wv, J)
    w = wv.w
    coins = [wv.weights[j] for j in wv.indices() if j not in Jf]
    if not coins:
        # only the zero vector, which never has degree k*w for k >= 1
        return (0,) * K
    base = sum(coins)  # from the mandatory 1 in each active coordinate
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
# exact IP test: sound integer rejects, then column generation over a
# knapsack separation oracle (no enumeration of the degree-w monomials)


def _knapsack_min(
    ws: Sequence[int], cost: Sequence[int]
) -> Tuple[int, Tuple[int, ...]]:
    """min cost.u over integer u >= 0 with sum ws_i u_i = sum(ws), and one
    minimiser: an unbounded-knapsack DP over the degrees 0..w, O(n w)."""
    w = sum(ws)
    # every reachable degree has |value| <= w * top, so `big` plus any chain
    # of at most w costs stays above all of them
    top = max(map(abs, cost))
    big = 2 * w * top + 1
    f = [big] * (w + 1)
    f[0] = 0
    arg = [0] * (w + 1)
    for i, (wi, ci) in enumerate(zip(ws, cost)):
        for s in range(wi, w + 1):
            v = f[s - wi] + ci
            if v < f[s]:
                f[s] = v
                arg[s] = i
    u = [0] * len(ws)
    s = w
    while s:
        i = arg[s]
        u[i] += 1
        s -= ws[i]
    return f[w], tuple(u)


def _primitive(v: Sequence[Fraction]) -> List[int]:
    """The positive multiple of a nonzero rational vector that is a
    primitive integer vector."""
    scale = lcm(*(x.denominator for x in v))
    ints = [int(x * scale) for x in v]
    g = gcd(*ints)
    return [x // g for x in ints]


def _kernel_vector(rows: List[Sequence[int]], n: int) -> List[int]:
    """A primitive integer vector orthogonal to every row (fewer than n
    linearly independent rows)."""
    M = [[Fraction(x) for x in row] for row in rows]
    pivots: List[int] = []
    for col in range(n):
        r = len(pivots)
        piv = next((i for i in range(r, len(M)) if M[i][col]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = 1 / M[r][col]
        M[r] = [x * inv for x in M[r]]
        for i, row in enumerate(M):
            if i != r and row[col]:
                f = row[col]
                M[i] = [a - f * b for a, b in zip(row, M[r])]
        pivots.append(col)
    if len(pivots) == n:
        raise InconsistentLP("affine hull rows already span the whole space")
    free = next(c for c in range(n) if c not in pivots)
    x = [Fraction(0)] * n
    x[free] = Fraction(1)
    for row, p in zip(M, pivots):
        x[p] = -row[free]
    return _primitive(x)


# ---------------------------------------------------------------------------
# exact LP (two-phase simplex, Bland's rule) for the IP property


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


def _add_column(V: List[Tuple[int, ...]], u: Tuple[int, ...]):
    # an exact oracle only returns points off the span found so far (hull)
    # or violating the current dual (column generation), never one of V
    if u in V:
        raise InconsistentLP(f"oracle point {u} is already a column of the LP")
    V.append(u)


@lru_cache(maxsize=None)
def ip_property(wv: WeightVector) -> bool:
    """Whether the all-ones vector z is interior to the degree-w monomial
    polytope: conv{u >= 0 : sum w_i u_i = w} must be d-dimensional with z in
    its relative interior.

    The lattice points are never listed.  Every step after the first
    reject asks one oracle, ``_knapsack_min``: the minimum of an integer functional c.u over them,
    by an unbounded-knapsack DP over the degrees 0..w.  z is itself a
    lattice point, so min <= c.z <= max for every c.

    1. Sound rejects, cheapest first.  If 2 w_i > w then u_i <= 1 on every
       point, so z lies on the face u_i = 1.  Otherwise, for each proper
       nonempty index subset J, if the minimum or the maximum of
       sum_{j in J} u_j equals |J|, z lies on a face (a proper one, or the
       polytope is not d-dimensional since 1_J is not parallel to w).
    2. Affine hull: starting from V = {z}, take a primitive integer c
       orthogonal to w and to every u - z, u in V.  If both the minimum and
       the maximum of c.u equal c.z, the points lie in a hyperplane of the
       degree hyperplane and the answer is False; otherwise the optimal
       point joins V.  After d steps V spans the polytope affinely.
    3. Column generation: maximize eps subject to z = sum_p mu_p u_p +
       eps * s_V over mu >= 0, eps >= 0, where s_V = sum of the points in V
       (substituting lambda_p = mu_p + eps into a convex combination; the
       degree functional forces sum lambda = 1).  eps > 0 certifies
       interiority.  At eps = 0 the exact dual y, scaled to a primitive
       integer vector, supports conv(V) at z; the oracle's minimum of y.u
       is either >= 0 (y supports the whole polytope at z: False) or
       attained at a point outside V, which joins V.
    """
    ws = wv.weights
    n = len(ws)
    w = wv.w
    if any(2 * wi > w for wi in ws):
        return False
    for mask in range(1, (1 << n) - 1):
        ind = [mask >> i & 1 for i in range(n)]
        size = sum(ind)
        if _knapsack_min(ws, ind)[0] == size:
            return False
        if -_knapsack_min(ws, [-x for x in ind])[0] == size:
            return False
    z = (1,) * n
    V: List[Tuple[int, ...]] = [z]
    rows: List[Sequence[int]] = [ws]
    while len(V) < n:
        c = _kernel_vector(rows, n)
        cz = sum(c)
        lo, u_lo = _knapsack_min(ws, c)
        neg_hi, u_hi = _knapsack_min(ws, [-x for x in c])
        if lo == cz == -neg_hi:
            return False
        u = u_lo if lo < cz else u_hi
        _add_column(V, u)
        rows.append([ui - 1 for ui in u])
    while True:
        cols: List[Sequence[int]] = list(V)
        cols.append(tuple(sum(u[i] for u in V) for i in range(n)))
        obj = [0] * len(V) + [1]
        eps, y = _simplex_max(cols, z, obj)
        if eps > 0:
            return True
        value, u = _knapsack_min(ws, _primitive(y))
        if value >= 0:
            return False
        _add_column(V, u)


def require_ip(wv: WeightVector) -> None:
    """Raise NotIP unless wv has the IP property (no mirror otherwise)."""
    if not ip_property(wv):
        raise NotIP(f"{wv} fails the IP property; no mirror construction")


# ---------------------------------------------------------------------------
# transversality, Milnor number, sector Poincare series


@lru_cache(maxsize=None)
def transverse(wv: WeightVector) -> bool:
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


def milnor_number(wv: WeightVector, transverse_hint: bool | None = None) -> Fraction:
    """prod (w - w_i) / w_i; must be a positive integer for transverse
    vectors (the Milnor number of the cone singularity)."""
    value = prod((Fraction(wv.w - wi, wi) for wi in wv.weights), start=Fraction(1))
    claimed = transverse(wv) if transverse_hint is None else transverse_hint
    if claimed and value.denominator != 1:
        raise NonIntegerMilnor(
            f"claimed transverse but prod (w - w_i)/w_i = {value} is not integral"
        )
    return value


def poincare_series(wv: WeightVector, l: int) -> RationalT:
    """Hilbert series of the l-th fixed sector restriction, as a rational
    function of s = t**(1/w):

        prod over theta~_j(l) = 0 of (1 - s**(w - w_j)) / (1 - s**w_j).

    The returned RationalT carries integer exponents in s; divide them by w
    to read fractional exponents in t.  For l whose phases are all nonzero
    the product is empty and the series is 1.
    """
    el = element(wv, l)
    fixed = [wv.weights[j] for j, q in enumerate(el.theta_tilde) if q == 0]
    num = expand_factors((wv.w - wj, 1) for wj in fixed)
    return RationalT(num, 0, [(wj, 1) for wj in fixed])
