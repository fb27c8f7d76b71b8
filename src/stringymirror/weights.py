"""Weight vectors and their combinatorics.

A weight vector w = (w_0, ..., w_d) is well formed when every d-element
subset of the weights has gcd 1.  Throughout, w also denotes the total
weight sum and q_i = w_i / w are the charges.

The cyclic group Z/wZ acts with phases theta~_i(l) = frac(l q_i); for each
element we record

    age(l)  = sum_i theta~_i(l)          (an integer),
    size(l) = #{ i : theta~_i(l) != 0 }  = age(l) + age(w - l)  for l != 0.

Well-formedness forces size(l) >= 2 and 1 <= age(l) <= size(l) - 1 for all
l != 0.  Every per-element formula depends on l only through its support
{i : theta~_i(l) != 0}, age and size, so the elements are grouped into
classes (``element_classes``), computed in integers one element at a time:
the support of l is that of the divisor gcd(l, w), the phase w theta~_i(l)
is l w_i mod w and the age is the phase sum divided by w.  ``element`` keeps
the ``Fraction`` phases for single elements.

``lattice_counts`` counts monomials of degree k*w supported exactly off a
given index subset; ``transverse`` is the standard monomial-existence
criterion for the generic member of the linear system to be quasi-smooth.

Both tests read reach sets: for every index subset K, one int whose bit s
says whether the degree s <= w is a non-negative integer combination of
the weights w_k, k in K, built by shift-or steps one weight at a time
(``_reach_sets``): the subsets holding the last weight extend those of the
others by one coin (``_extend_reach``), so a scan shares the sets of a
weight prefix across every last weight (``ip_vectors``).  Both verdicts
come from one reach-set pass (``_verdicts``), and the record keeps the
verdicts, not the sets.

An index subset, whether a support, a face J or a zero set, is an index
bitmask throughout the package (bit i set for i in the subset);
``_check_subset`` turns a caller's iterable into one and ``_members`` lists
a mask's indices.  Only the public results ``FaceSubgroup.J``,
``FaceEPolynomial.J`` and the keys of ``stringy_terms`` are frozensets.

``ip_property`` decides whether the all-ones exponent vector lies in the
interior of the degree-w monomial polytope without listing its lattice
points (there are roughly w^d of them): face rejects read off the reach
sets, cheapest first, then an exact column generation priced by an
unbounded-knapsack oracle, in plain integers (its docstring has the steps).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import count, repeat
from math import gcd, isqrt, lcm, prod
from operator import mod, mul
from typing import FrozenSet, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .errors import (
    EmptyInput,
    InconsistentLP,
    NonIntegerMilnor,
    NotIP,
    NotWellFormed,
    OutOfRange,
)
from .exact_arith import EFunction, RationalT, expand_factors, series_quotient

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
    return WeightVector(tuple(weights))


# ---------------------------------------------------------------------------
# the per-vector record

# Records kept by ``record``.  A record with both halves built holds about
# 11 KiB for five weights (tracemalloc, mean over the 353 IP vectors with
# w <= 24).  A request reuses its vector's record as long as fewer than this
# many other vectors were asked for in between.
RECORD_CACHE_SIZE = 1024


class Half(NamedTuple):
    """One pipeline's E-function of a vector: the total and its term per
    element class, in the order of ``element_classes``."""

    total: EFunction
    terms: Tuple[EFunction, ...]


@dataclass(eq=False)
class VectorRecord:
    """The answers computed for one weight vector, each table built on
    first use by one function in one pass: both verdicts from one set of
    reach sets (``_verdicts``), the element classes one element at a time
    (``_classified``).  The fields up to ``class_of`` are this module's;
    ``stringy`` and ``orbifold`` hold the halves those modules build, each
    from its own pipeline: neither half reads the other."""

    wv: WeightVector
    ip: Optional[bool] = None
    transverse: Optional[bool] = None
    classes: Optional[Tuple[ElementClass, ...]] = None
    class_of: Optional[Tuple[int, ...]] = None
    stringy: Optional[Half] = None
    orbifold: Optional[Half] = None


@lru_cache(maxsize=RECORD_CACHE_SIZE)
def record(wv: WeightVector) -> VectorRecord:
    """wv's record; the least recently used record leaves the cache first."""
    return VectorRecord(wv)


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
    _check_element(wv, l)
    w = wv.w
    theta = tuple(Fraction((l * wi) % w, w) for wi in wv.weights)
    # an integer, as sum_i w_i = w: sum_i (l w_i mod w) = l w - w sum_i floor(l w_i / w)
    age = int(sum(theta))
    return OrbifoldElement(l, theta, age, sum(1 for q in theta if q))


class ElementClass(NamedTuple):
    """The elements l of Z/wZ that share support (the i with theta~_i(l) !=
    0, as an index bitmask), age and size: every per-element formula
    depends on l only through these.  ``count`` is their number and
    ``first`` the smallest of them."""

    support: int
    age: int
    size: int
    count: int
    first: int


def _classified(rec: VectorRecord) -> VectorRecord:
    """rec with its element classes and the class of each l, from one walk
    over l in integers.  l fixes i iff w / gcd(w, w_i) divides l, so the
    support bitmask of l is that of the divisor gcd(l, w); the phase
    l * w_i % w is w theta~_i(l), and the phase sum is w age.  Each key
    (support, phase sum) takes the next class index when first met, so the
    classes come in the order of their smallest elements; the counts and
    those elements are read off the class of each l."""
    if rec.classes is None:
        ws = rec.wv.weights
        w = rec.wv.w
        orders = [w // gcd(w, wi) for wi in ws]
        small = [g for g in range(1, isqrt(w) + 1) if not w % g]
        support = {
            g: sum(1 << i for i, o in enumerate(orders) if g % o)
            for g in small + [w // g for g in small]
        }
        supports = map(support.__getitem__, map(gcd, range(w), repeat(w)))
        sums = map(sum, zip(*(map(mod, range(0, w * wi, wi), repeat(w)) for wi in ws)))
        index = defaultdict(count().__next__)  # a new key takes the next index
        class_of = tuple(map(index.__getitem__, zip(supports, sums)))
        tally = Counter(class_of)
        classes: List[ElementClass] = []
        first = 0
        for (mask, total), c in index.items():
            first = class_of.index(c, first)
            # w | total, as sum_i w_i = w: sum_i (l w_i mod w) = l w - w sum_i floor(l w_i / w)
            classes.append(ElementClass(mask, total // w, mask.bit_count(), tally[c], first))
        rec.classes, rec.class_of = tuple(classes), class_of
    return rec


def element_classes(wv: WeightVector) -> Tuple[ElementClass, ...]:
    """Z/wZ grouped by (support, age, size), in the order of each class's
    smallest element; the first class is {0}."""
    return _classified(record(wv)).classes


def class_index(wv: WeightVector) -> Tuple[int, ...]:
    """The class of each l in Z/wZ, as an index into ``element_classes``."""
    return _classified(record(wv)).class_of


def census(wv: WeightVector) -> Counter:
    """Multiset {(size, age): multiplicity} over all of Z/wZ."""
    out: Counter = Counter()
    for c in element_classes(wv):
        out[(c.size, c.age)] += c.count
    return out


@dataclass(frozen=True)
class FaceSubgroup:
    """Elements acting trivially on every coordinate off J."""

    J: FrozenSet[int]
    members: Tuple[int, ...]

    def __len__(self):
        return len(self.members)


def _check_subset(wv: WeightVector, J: Iterable[int]) -> int:
    """The index bitmask of J; OutOfRange unless every member is an int in
    0..d."""
    members = set(J)
    if not all(isinstance(j, int) and 0 <= j <= wv.d for j in members):
        raise OutOfRange(f"subset {sorted(members)} not within 0..{wv.d}")
    return sum(1 << j for j in members)


def _check_element(wv: WeightVector, l: int) -> None:
    """OutOfRange unless l is an element 0..w-1 of Z/wZ."""
    if not 0 <= l < wv.w:
        raise OutOfRange(f"group element {l} outside 0..{wv.w - 1}")


def _members(mask: int) -> Tuple[int, ...]:
    """The indices of an index bitmask, in increasing order."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _complement(wv: WeightVector, mask: int) -> int:
    """The indices of wv outside the index bitmask mask."""
    return ((1 << len(wv.weights)) - 1) ^ mask


def subgroup(wv: WeightVector, J: Iterable[int]) -> FaceSubgroup:
    """G_J = { l : theta~_j(l) = 0 for every j outside J }: the multiples of
    w/g in Z/wZ, g = gcd(w, w_j : j outside J) (g = w when J holds every
    index).  l fixes the coordinate j iff l w_j = 0 mod w, that is iff
    w/gcd(w, w_j) divides l, and the lcm of the w/gcd(w, w_j) over the j
    outside J is w/g."""
    mask = _check_subset(wv, J)
    w = wv.w
    g = gcd(w, *(wv.weights[j] for j in _members(_complement(wv, mask))))
    return FaceSubgroup(frozenset(_members(mask)), tuple(range(0, w, w // g)))


# ---------------------------------------------------------------------------
# lattice-point counts


def lattice_counts(wv: WeightVector, J: Iterable[int], K: int) -> Tuple[int, ...]:
    """N_J(k) for k = 1..K: solutions of sum w_i u_i = k*w with u_j = 0
    exactly for j in J (all other coordinates strictly positive): the
    coefficients of 1 / prod_{i not in J} (1 - t**w_i) at k*w - sum of those
    w_i, by one ``series_quotient`` call."""
    if K < 1:
        raise OutOfRange("K must be >= 1")
    w = wv.w
    coins = [wv.weights[j] for j in _members(_complement(wv, _check_subset(wv, J)))]
    # base <= w <= k*w; with no coins the series is 1, 0 at every k*w
    base = sum(coins)  # from the mandatory 1 in each active coordinate
    dp = series_quotient([1], [(c, 1) for c in coins], K * w - base)
    return tuple(dp[k * w - base] for k in range(1, K + 1))


# ---------------------------------------------------------------------------
# exact IP test: sound integer rejects, then column generation over a
# knapsack separation oracle (no enumeration of the degree-w monomials)


def _knapsack_min(
    ws: Sequence[int], *costs: Sequence[int]
) -> List[Tuple[int, Tuple[int, ...]]]:
    """For each cost vector c, min c.u over integer u >= 0 with sum ws_i u_i
    = sum(ws), and one minimiser: an unbounded-knapsack DP over the degrees
    0..w, O(n w) steps per cost.  The first coin alone reaches its
    multiples, set in one step, and the last coin's pass visits only the
    degrees it takes to w."""
    w = sum(ws)
    first, last = ws[0], ws[-1]
    passes = [(i, ws[i], range(ws[i], w + 1)) for i in range(1, len(ws) - 1)]
    passes.append((len(ws) - 1, last, range(w % last + last, w + 1, last)))
    out = []
    for cost in costs:
        # every reachable degree has |value| <= w * max |cost|, so this
        # start plus any chain of at most w costs stays above all of them
        f = [2 * w * max(map(abs, cost)) + 1] * (w + 1)
        f[::first] = [k * cost[0] for k in range(w // first + 1)]
        arg = [0] * (w + 1)
        for i, wi, degrees in passes:
            ci = cost[i]
            for s in degrees:
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
        out.append((f[w], tuple(u)))
    return out


def _extend_reach(R: Sequence[int], c: int, w: int) -> List[int]:
    """Each reach set of R, kept to the bits 0..w, closed under one more
    coin c by O(log w) shift-or steps: from the sets of the index subsets K,
    those of K plus one new index of weight c."""
    full = (1 << (w + 1)) - 1
    out = []
    for r in R:
        step = c
        while step <= w:  # steps c, 2c, .., 2^k c add 0..2^(k+1) - 1 coins
            r |= (r << step) & full
            step <<= 1
        out.append(r)
    return out


def _reach_sets(ws: Sequence[int]) -> List[int]:
    """R[mask] for every index subset K (bit i of mask set for i in K): an
    int whose bit s, 0 <= s <= w, is set when s is a non-negative integer
    combination of the weights ws_k, k in K.  R[K] is R[K minus its highest
    index] extended by that coin, so R(ws) = R(ws[:-1]) + ``_extend_reach``(
    R(ws[:-1]), ws[-1], w): a scan builds the sets of a prefix once, at its
    largest w, and shares them across every last weight."""
    w = sum(ws)
    R = [1]
    for c in ws:
        R += _extend_reach(R, c, w)
    return R


def _comb(w: int, d: int) -> int:
    """The bits w, w - d, w - 2d, .. down to w mod d: a reach set r, extended
    by the coin d (``_extend_reach``), has bit w iff r & _comb(w, d)."""
    return ((1 << (w // d + 1) * d) - 1) // ((1 << d) - 1) << w % d


def _faces(n: int) -> Tuple[Tuple[int, Tuple[int, ...]], ...]:
    """(J, members of J) for each proper nonempty index subset J of n
    indices, smallest |J| first: the face order of ``_interior``, which a
    scan computes once."""
    masks = sorted(range(1, (1 << n) - 1), key=int.bit_count)
    return tuple((J, _members(J)) for J in masks)


def _on_min(w: int, r: int, coins: Sequence[int]) -> bool:
    """Whether the minimum of sum_{j in J} u_j over the points u >= 0,
    sum w_i u_i = w equals |J|, for the proper nonempty index subset J
    whose weights are coins; r is the reach set of the other weights.

    L_0 = r holds the degrees reachable with no coin of J, and L_(t+1) =
    OR_(c in coins) L_t << c those with exactly t + 1 of them (bits past w
    are left in: they never reach bit w).  z is a point, so the minimum is
    |J| when bit w is in none of L_0..L_(|J|-1).  For |J| = 1 that is one
    bit read."""
    for _ in range(len(coins) - 1):
        if r >> w & 1:
            return False
        out = 0
        for c in coins:
            out |= r << c
        r = out
    return not r >> w & 1


def _on_max(w: int, r: int, coins: Sequence[int]) -> bool:
    """Whether the maximum of sum_{j in J} u_j over the same points equals
    |J|: the rounds of ``_on_min``, started from the reach set r of all the
    weights, hold the degrees reachable with at least t coins of J, and the
    maximum is |J| when bit w is missing after |J| + 1 of them."""
    for _ in range(len(coins) + 1):
        out = 0
        for c in coins:
            out |= r << c
        r = out
    return not r >> w & 1


def _primitive(v: Sequence[int]) -> List[int]:
    """The positive multiple of a nonzero integer vector that is primitive."""
    g = gcd(*v)
    return [x // g for x in v]


# ---------------------------------------------------------------------------
# exact LP (revised simplex in integers, Bland's rule) for the IP property


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(mul, a, b))


def _add_column(cols: List[Tuple[int, ...]], u: Tuple[int, ...]):
    # an exact oracle only returns points off the span found so far (hull)
    # or violating the current dual (column generation), never a column
    if u in cols:
        raise InconsistentLP(f"oracle point {u} is already a column of the LP")
    cols.append(u)


def _column_generation(
    ws: Sequence[int], cols: List[Tuple[int, ...]], A: List[List[int]], D: int
) -> bool:
    """Step 3 of ``ip_property``: whether z = sum_j x_j cols[j] has a
    solution x >= 0 with eps = x_n > 0, n = len(ws), cols[n] the column s.
    The first n columns are the start basis B = V, whose basic solution is
    feasible, given with A = D B^-1 and D = |det B| > 0.  Revised-simplex
    pivots with Bland's rule maximize eps, and the points the oracle
    returns join cols (``_add_column``).

    Each pivot keeps A = D B^-1 (``_pivot_inverse``), so D x_B = A z and the
    entering direction D B^-1 u are integer vectors, and the ratio test
    compares cross products.  The objective is the indicator of s, so the
    scaled dual D y = c_B A is zero while s is nonbasic, which makes s the
    one improving column, and the row of A at s once it is basic: then a
    column u improves when y.u < 0.  When none does the basis is optimal,
    and eps > 0 gives True.  At eps = 0 the oracle's minimum of y.u prices
    every point: a value >= 0 gives False, and otherwise its point is the
    one improving column and enters, as Bland's rule would pick it.  An
    unbounded LP raises InconsistentLP."""
    n = len(ws)
    basis = list(range(n))
    while True:
        if n not in basis:
            enter = n
        else:
            y = A[basis.index(n)]
            enter = next(  # Bland: smallest improving index
                (j for j, u in enumerate(cols) if j not in basis and _dot(y, u) < 0),
                None,
            )
            if enter is None:
                if sum(y) > 0:  # D x_s = y.z
                    return True
                [(value, u)] = _knapsack_min(ws, _primitive(y))
                if value >= 0:
                    return False
                _add_column(cols, u)
                enter = len(cols) - 1
        x = [sum(row) for row in A]  # D x_B = A z
        a = [_dot(row, cols[enter]) for row in A]
        leave = -1
        for i, ai in enumerate(a):
            if ai > 0 and (
                leave < 0
                or x[i] * a[leave] < x[leave] * ai
                or (x[i] * a[leave] == x[leave] * ai and basis[i] < basis[leave])
            ):
                leave = i
        if leave < 0:
            raise InconsistentLP("LP unbounded")
        A, D = _pivot_inverse(A, D, a, leave)
        basis[leave] = enter


def _pivot_inverse(
    A: List[List[int]], D: int, a: Sequence[int], leave: int
) -> Tuple[List[List[int]], int]:
    """(A', D') = D' B'^-1 after column ``leave`` of B is replaced by c,
    given A = D B^-1, a = A c and p = a[leave] > 0.  By Cramer's rule
    D' = p = |det B'|, the leaving row stays and every other row is
    (p A[i] - a[i] A[leave]) / D, exact since A' is an adjugate up to sign."""
    p = a[leave]
    top = A[leave]
    return [
        row if i == leave else [(p * u - a[i] * v) // D for u, v in zip(row, top)]
        for i, row in enumerate(A)
    ], p


def ip_property(wv: WeightVector) -> bool:
    """Whether the all-ones vector z is interior to the degree-w monomial
    polytope: conv{u >= 0 : sum w_i u_i = w} must be d-dimensional with z in
    its relative interior.

    The lattice points are never listed.  Steps 2 and 3 ask one oracle,
    ``_knapsack_min``: the minimum of integer functionals c.u over them, by
    an unbounded-knapsack DP over the degrees 0..w, several functionals to
    one call.  z is itself a lattice point, so min <= c.z <= max for every
    c.

    1. Sound rejects, cheapest first.  If 2 w_i > w then u_i <= 1 on every
       point, so z lies on the face u_i = 1.  Otherwise, for each proper
       nonempty index subset J, if the minimum or the maximum of
       sum_{j in J} u_j equals |J|, z lies on a face (a proper one, or the
       polytope is not d-dimensional since 1_J is not parallel to w).
       ``_on_min`` and ``_on_max`` decide them from the reach sets: whether
       degree w needs |J| coins of J, and whether it allows no more than
       |J|.  Every on-min test runs first, smallest |J| first; for |J| = 1
       it is one bit read.
    2. Affine hull: keep a basis B of R^n with A = D B^-1, D = |det B|,
       starting from B = [z, e_1, .., e_(n-1)] (D = 1, row 0 of A is e_0
       and row i is e_i - e_0), and V = {z}.  Step p = 1..d takes c, the
       primitive multiple of row p of A, which is orthogonal to every
       column of B but the p-th: to z, to the points of V and to the e_j
       still in B.  As c.z = 0 while w.z = w, c is not parallel to w.  The
       oracle gives the minima of c and of -c in one call.  If both
       extremes of c.u are 0, the points lie in a hyperplane of the degree
       hyperplane and the answer is False.  Otherwise a point off c.u = 0,
       hence off aff(V), joins V (the minimiser if it is off, else the
       maximiser) and replaces column p of B by one ``_pivot_inverse``
       step, after negating row p of A if need be (e_p becomes -e_p) so
       that the pivot is positive.  When the minimiser joins and the
       maximiser is off too, the maximiser is kept as an extra LP column,
       and a kept point off c.u = 0 joins V in place of the oracle's
       answer, with no DP.  After d steps V spans the polytope affinely,
       and B = V with its A and D is the LP's start basis.
    3. Column generation: maximize eps subject to z = sum_p mu_p u_p +
       eps * s over mu >= 0, eps >= 0, where p runs over the LP's columns
       (V, the extra columns and the points added since) and s = sum of the
       n points of V, a fixed column.  The degree functional forces
       sum mu_p + n eps = 1, so this is z as a convex combination in which
       every point of V has weight at least eps.  eps > 0 certifies
       interiority: V spans the polytope's affine hull, so a convex
       combination with positive weight on all of V is relative-interior.
       At eps = 0 the exact dual y has y.u_p >= 0 on every column,
       y.z = 0 and y.s >= 1 once scaled to a primitive integer vector, so
       y supports conv(V) at z and is not constant on V.  The oracle's
       minimum of y.u is then either >= 0 (y supports the whole polytope
       at z, which lies on a proper face: False) or attained at a point
       that is not yet a column, which joins the LP.
       The LP is one loop, ``_column_generation``: revised-simplex pivots
       in integers, with the oracle as the pricing step when no column
       improves and its point the next to enter.  It starts from the
       basis V with step 2's A and D, so it inverts nothing, and it needs
       no phase 1: z is in V, so x = e_0 is feasible.
    """
    return _verdicts(record(wv)).ip


def _verdicts(rec: VectorRecord) -> VectorRecord:
    """rec with its IP and transversality verdicts, both read off one
    ``_reach_sets`` pass, which the record does not keep."""
    if rec.ip is None:
        ws = rec.wv.weights
        R = _reach_sets(ws)
        # 2 w_i > w puts z on the face u_i = 1, with no face test
        rec.ip = 2 * max(ws) <= rec.wv.w and _interior(ws, R, _faces(len(ws)))
        rec.transverse = _quasi_smooth(ws, R)
    return rec


def _interior(
    ws: Sequence[int], R: Sequence[int], faces: Sequence[Tuple[int, Tuple[int, ...]]]
) -> bool:
    """The IP verdict of ``ip_property`` for the weights ws with reach sets
    R = ``_reach_sets(ws)`` and faces = ``_faces(len(ws))``, from step 1's
    face rejects on: the one verdict of the record path and of
    ``ip_vectors``.  Every on-min test runs before any on-max test,
    smallest |J| first (the |J| = 1 on-min tests, one bit each, reject most
    candidates; the on-max tests, few).  A weight with 2 w_i > w is caught
    too, by the on-max test of J = {i}."""
    n = len(ws)
    w = sum(ws)
    top = len(R) - 1
    for J, members in faces:
        r = R[top ^ J]
        # the first bit of the test here: most faces are decided by it
        if not r >> w & 1 and _on_min(w, r, [ws[j] for j in members]):
            return False
    for _, members in faces:
        if _on_max(w, R[top], [ws[j] for j in members]):
            return False
    z = (1,) * n
    V: List[Tuple[int, ...]] = [z]
    extra: List[Tuple[int, ...]] = []
    # A = D B^-1 for the basis B = [z, e_1, .., e_(n-1)], of det 1
    A = [[1] + [0] * (n - 1)]
    A += [[-1] + [int(k == i) for k in range(1, n)] for i in range(1, n)]
    D = 1
    for p in range(1, n):
        # row p of A is orthogonal to every column of B but the p-th
        c = _primitive(A[p])
        # a far extreme of an earlier direction off c.u = 0 needs no DP
        u = next((u for u in extra if _dot(c, u)), None)
        if u is None:
            (lo, u_lo), (neg_hi, u_hi) = _knapsack_min(ws, c, [-x for x in c])
            if lo == 0 == neg_hi:
                return False
            u = u_hi if lo == 0 else u_lo
            if lo < 0 < -neg_hi:
                extra.append(u_hi)
        _add_column(V, u)
        a = [_dot(row, u) for row in A]
        if not a[p]:
            raise InconsistentLP(f"singular basis: oracle point {u} has c.u = 0")
        if a[p] < 0:  # B's column p becomes -e_p, so the pivot is positive
            A[p] = [-x for x in A[p]]
            a[p] = -a[p]
        A, D = _pivot_inverse(A, D, a, p)
    cols = V + [tuple(map(sum, zip(*V)))]
    cols += [u for u in extra if u not in V]
    return _column_generation(ws, cols, A, D)


def ip_record(wv: WeightVector) -> VectorRecord:
    """wv's record, or NotIP unless wv has the IP property: one lookup
    serves the verdict and whatever the caller reads from the record next."""
    rec = _verdicts(record(wv))
    if not rec.ip:
        raise NotIP(f"{wv} fails the IP property; no mirror construction")
    return rec


def _prefixes(
    k: int, wmax: int, ws: Tuple[int, ...], R: List[int]
) -> Iterator[Tuple[Tuple[int, ...], List[int]]]:
    """ws extended by k more non-decreasing weights, in lexicographic order,
    leaving room for a last weight at least as large within the sum wmax;
    each with its reach sets kept to the bits 0..wmax, extended one weight
    at a time as the walk goes down (R holds those of ws)."""
    if not k:
        yield ws, R
        return
    for v in range(ws[-1] if ws else 1, (wmax - sum(ws)) // (k + 1) + 1):
        yield from _prefixes(k - 1, wmax, ws + (v,), R + _extend_reach(R, v, wmax))


def ip_vectors(dim: int, wmax: int) -> Iterator[WeightVector]:
    """The IP vectors with dim + 1 non-decreasing weights and w <= wmax, in
    lexicographic order.

    The walk goes over the prefixes of the first dim weights, and each does
    its work once: gcd(prefix) = 1 (else no last weight d makes a
    well-formed vector), the lcm g of the gcds g_i of the prefix without
    index i, and the prefix's reach sets.  A candidate d runs from the
    prefix's largest weight up to the sum s of the others (a larger d has
    2 d > w, on a face) and within wmax.  It is well formed iff gcd(g, d) =
    1.  The |J| = 1 on-min tests come next, before any reach set is
    extended; each rejects d unless the weights off J reach w: for J = {d},
    bit w = s + d of the prefix's full reach set, and for J = {i}, whether
    the prefix's set without i meets ``_comb(w, d)``, that is, reaches w
    with copies of d.  Only a survivor gets its reach sets,
    the prefix's, cut to w, followed by the same extended by the coin d
    (``_reach_sets``), and ``_interior`` gives the verdict.  Only an IP
    vector gets a record, seeded with both verdicts from those reach sets,
    as ``_verdicts`` would fill them, and the record before it is dropped
    first (and with it whatever was built from it), so a scan holds one
    record at a time."""
    faces = _faces(dim + 1)
    for prefix, top in _prefixes(dim, wmax, (), [1]):
        if gcd(*prefix) != 1:
            continue
        s = sum(prefix)
        g = lcm(*(gcd(*prefix[:i], *prefix[i + 1 :]) for i in range(dim)))
        every = len(top) - 1
        rest = [top[every ^ 1 << i] for i in range(dim)]
        for d in range(prefix[-1], min(wmax - s, s) + 1):
            w = s + d
            if gcd(g, d) != 1 or not top[every] >> w & 1:
                continue
            comb = _comb(w, d)
            if not all(r & comb for r in rest):
                continue
            full = (1 << (w + 1)) - 1
            R = [r & full for r in top]
            R += _extend_reach(R, d, w)
            if _interior(prefix + (d,), R, faces):
                wv = validate(prefix + (d,))
                record.cache_clear()
                rec = record(wv)
                rec.ip, rec.transverse = True, _quasi_smooth(wv.weights, R)
                yield wv


# ---------------------------------------------------------------------------
# transversality, Milnor number, sector Poincare series


def transverse(wv: WeightVector) -> bool:
    """Monomial-existence criterion for quasi-smoothness of the generic
    degree-w hypersurface: for every nonempty index subset S, either w is a
    non-negative integer combination of the weights in S, or at least |S|
    distinct indices j outside S have w - w_j representable that way.
    Both are bits of the reach set R[S] of ``_reach_sets``: bit w, and bit
    w - w_j.  The verdict comes with the IP verdict (``_verdicts``)."""
    return _verdicts(record(wv)).transverse


def _quasi_smooth(ws: Sequence[int], R: Sequence[int]) -> bool:
    """The ``transverse`` criterion for the weights ws with reach sets R."""
    n = len(ws)
    w = sum(ws)
    for mask in range(1, 1 << n):
        reach = R[mask]
        if reach >> w & 1:
            continue
        pointers = sum(
            1 for j in range(n) if not mask >> j & 1 and reach >> (w - ws[j]) & 1
        )
        if pointers < mask.bit_count():
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


def sector_hilbert(wv: WeightVector, zero: int) -> Tuple[List[int], List[int]]:
    """The numerator coefficients and the coins c of the sector Hilbert
    series U = prod over i in Z of (1 - s**(w - w_i)) / (1 - s**w_i), with
    the zero set Z given as a bitmask: U = num(s) / prod (1 - s**c)."""
    coins = [wv.weights[i] for i in _members(zero)]
    return expand_factors((wv.w - wi, 1) for wi in coins), coins


def poincare_series(wv: WeightVector, l: int) -> RationalT:
    """Hilbert series of the l-th fixed sector restriction, as a rational
    function of s = t**(1/w):

        prod over theta~_j(l) = 0 of (1 - s**(w - w_j)) / (1 - s**w_j).

    The returned RationalT carries integer exponents in s; divide them by w
    to read fractional exponents in t.  For l whose phases are all nonzero
    the product is empty and the series is 1.
    """
    el = element(wv, l)
    num, coins = sector_hilbert(wv, sum(1 << j for j, q in enumerate(el.theta_tilde) if q == 0))
    return RationalT(num, 0, [(c, 1) for c in coins])
