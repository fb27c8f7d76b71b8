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
span so far, and the exact separation step of a column generation over the
points found.  Its LP is a revised simplex in plain integers: it starts
from the feasible basis the spanning search already found, so there is no
phase 1, and one fraction-free Gauss-Jordan elimination gives both its
scaled basis inverses and the orthogonal directions.  The IP test uses
neither floats nor fractions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, prod
from typing import FrozenSet, Iterable, List, Sequence, Tuple

from .errors import (
    EmptyInput,
    InconsistentCensus,
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
    if age.denominator != 1:
        raise InconsistentCensus(f"element {l} of {wv} has a non-integral age {age}")
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


def _eliminate(
    rows: Sequence[Sequence[int]],
) -> Tuple[List[List[int]], List[int], int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22,
    1968): (R, pivots, D) with D > 0 and R = D * rref(rows), so the first
    len(pivots) rows of R hold D in their pivot column and 0 in every other
    pivot column.  Every division is exact and every entry is a minor of
    rows, so the integers stay small."""
    M = [list(row) for row in rows]
    pivots: List[int] = []
    prev = 1
    for col in range(len(M[0])):
        r = len(pivots)
        piv = next((i for i in range(r, len(M)) if M[i][col]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        top = M[r]
        p = top[col]
        for i, row in enumerate(M):
            if i != r:
                f = row[col]
                M[i] = [(p * a - f * b) // prev for a, b in zip(row, top)]
        prev = p
        pivots.append(col)
    if prev < 0:
        M = [[-x for x in row] for row in M]
    return M, pivots, abs(prev)


def _scaled_inverse(B: Sequence[Sequence[int]]) -> Tuple[List[List[int]], int]:
    """(A, D) with B A = A B = D I and D > 0, from [B | I] reduced by
    ``_eliminate``; a singular B raises InconsistentLP."""
    m = len(B)
    R, pivots, D = _eliminate(
        [list(row) + [int(i == k) for k in range(m)] for i, row in enumerate(B)]
    )
    if pivots != list(range(m)):
        raise InconsistentLP("singular basis in the integer simplex")
    return [row[m:] for row in R], D


def _primitive(v: Sequence[int]) -> List[int]:
    """The positive multiple of a nonzero integer vector that is primitive."""
    g = gcd(*v)
    return [x // g for x in v]


def _kernel_vector(rows: List[Sequence[int]], n: int) -> List[int]:
    """A primitive integer vector orthogonal to every row (fewer than n
    linearly independent rows)."""
    R, pivots, D = _eliminate(rows)
    if len(pivots) == n:
        raise InconsistentLP("affine hull rows already span the whole space")
    free = next(c for c in range(n) if c not in pivots)
    x = [0] * n
    x[free] = D
    for row, p in zip(R, pivots):
        x[p] = -row[free]
    return _primitive(x)


# ---------------------------------------------------------------------------
# exact LP (revised simplex in integers, Bland's rule) for the IP property


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(a, b))


def _simplex_max(
    cols: List[Sequence[int]], b: Sequence[int], obj: Sequence[int]
) -> Tuple[int, List[int]]:
    """Maximize obj.x subject to sum_j x_j cols[j] = b, x >= 0, starting
    from the basis of the first len(b) columns, whose basic solution must be
    feasible (there is no phase 1).

    Each iteration rebuilds A = D B^-1 (D > 0) with ``_scaled_inverse``, so
    D x_B = A b, the dual D y = c_B A and the entering direction D B^-1 a_j
    are integer vectors, and the ratio test compares cross products.
    Returns (D * value, D * y) for the final D: y is an exact optimal dual,
    y.cols[j] >= obj[j] for all j.  A singular basis or an unbounded LP
    raises InconsistentLP.
    """
    m = len(b)
    basis = list(range(m))
    while True:
        A, D = _scaled_inverse([[cols[j][r] for j in basis] for r in range(m)])
        x = [_dot(row, b) for row in A]
        cb = [obj[j] for j in basis]
        y = [_dot(cb, col) for col in zip(*A)]
        enter = next(
            (
                j
                for j in range(len(cols))  # Bland: smallest improving index
                if j not in basis and D * obj[j] > _dot(y, cols[j])
            ),
            None,
        )
        if enter is None:
            return _dot(cb, x), y
        a = [_dot(row, cols[enter]) for row in A]
        leave = -1
        for i in range(m):
            if a[i] > 0 and (
                leave < 0
                or x[i] * a[leave] < x[leave] * a[i]
                or (
                    x[i] * a[leave] == x[leave] * a[i]
                    and basis[i] < basis[leave]
                )
            ):
                leave = i
        if leave < 0:
            raise InconsistentLP("LP unbounded")
        basis[leave] = enter


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
    reject asks one oracle, ``_knapsack_min``: the minimum of an integer
    functional c.u over them, by an unbounded-knapsack DP over the degrees
    0..w.  z is itself a lattice point, so min <= c.z <= max for every c.

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
       The LP is ``_simplex_max``, a revised simplex in integers.  It needs
       no phase 1: the points of step 2 lie in the degree hyperplane
       w.u = w, which misses the origin, so V[:n] (z and n - 1 affinely
       independent points) is a basis, and since z is one of them x = e_0
       is feasible.  Every run starts there.
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
