"""Stringy E-function of the mirror hypersurface.

The mirror's stringy E-function is assembled face by face:

    E_str(u, v) = sum over J with |J| >= 2 of
        E_J(u, v) * (uv - 1)^(d+1-|J|) * [ prod_{j not in J} 1/((uv)^{q_j} - 1) ]_int

The projected product (the "bracket") is the generating function of the
lattice counts N_J(k) in the variable x = t**-1 where t = uv: expanding
each factor at t = infinity and keeping integer exponents gives
sum_{k>=1} N_J(k) x**k, the multisection of 1 / prod_{j not in J}
(1 - s**w_j), s = x**(1/w), at the offset -sum_{j not in J} w_j.  It is
computed exactly as a rational function of x (``exact_arith.multisection``)
and x = 1/t substituted; the substitution is checked to invert exactly, and
a mismatch raises InconsistentExpansion.

Because every term is a polynomial in u/v times a rational function of
t = uv, an ``EFunction`` stores a map (a, b) -> R(t) with min(a, b) = 0:
the monomial key u^a v^b rides on the off-diagonal degree a - b, so distinct
keys can never cancel and equality may be tested key by key.

The same object supports the per-element decomposition

    E_str = sum over l in Z/wZ of E^(l),
    E^(0)   = sum_J [((uv-1)^(|J|-1) - (-1)^(|J|-1))/uv] (uv-1)^(d+1-|J|) bracket_J,
    E^(l)   = u^(age-1) v^(size-age-1) *
              sum_{J containing the support of l} (-1)^|J| (uv-1)^(d+1-|J|) bracket_J

for l != 0, with support(l) = { i : theta~_i(l) != 0 }.  E^(l) depends on l
only through its element class.  The weighted brackets, E_str, E^(0) and
the sum over J per support are kept in the stringy half of the vector's
record (``weights.record``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Dict, FrozenSet, Iterable, Iterator, List, NamedTuple, Tuple

from .errors import (
    DivisionNotExact,
    InconsistentExpansion,
    NotPolynomial,
    OutOfRange,
    SignPatternViolation,
)
from .exact_arith import (
    BiPoly,
    RationalT,
    limit_at_one,
    multisection,
    rational_sum,
)
from .face_epoly import face_e
from .weights import (
    VectorRecord,
    WeightVector,
    _check_subset,
    _classified,
    ip_record,
)

# ---------------------------------------------------------------------------
# EFunction


class EFunction:
    """Finite sum of u^a v^b * R_{a,b}(uv) with min(a, b) = 0.

    Construction folds min(a, b) into the rational part as a power of
    t = uv, sums the parts of each key in one ``rational_sum`` and drops
    vanishing parts, so the key set is canonical.  Equality
    compares the canonical maps; the rational parts compare semantically.
    """

    __slots__ = ("dimension", "terms")

    def __init__(self, dimension: int, entries: Iterable[Tuple[int, int, RationalT]]):
        acc: Dict[Tuple[int, int], List[RationalT]] = {}
        for a, b, r in entries:
            if a < 0 or b < 0:
                raise ValueError(f"EFunction exponents must be >= 0, got ({a}, {b})")
            m = min(a, b)
            acc.setdefault((a - m, b - m), []).append(r.mul_tpower(m))
        self.dimension = dimension
        self.terms = {}
        for key, parts in acc.items():
            total = rational_sum(parts)
            if not total.is_zero():
                self.terms[key] = total

    def iter_entries(self) -> Iterator[Tuple[int, int, RationalT]]:
        for (a, b), r in self.terms.items():
            yield a, b, r

    def __add__(self, other: "EFunction") -> "EFunction":
        if not isinstance(other, EFunction):
            return NotImplemented
        entries = list(self.iter_entries()) + list(other.iter_entries())
        return EFunction(self.dimension, entries)

    def __sub__(self, other: "EFunction") -> "EFunction":
        if not isinstance(other, EFunction):
            return NotImplemented
        entries = list(self.iter_entries()) + [
            (a, b, -r) for a, b, r in other.iter_entries()
        ]
        return EFunction(self.dimension, entries)

    def __eq__(self, other):
        if not isinstance(other, EFunction):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def is_zero(self) -> bool:
        return not self.terms

    def is_polynomial(self) -> bool:
        return all(r.is_polynomial() for r in self.terms.values())

    def to_bipoly(self) -> BiPoly:
        out: Dict[Tuple[int, int], int] = {}
        for (a, b), r in self.terms.items():
            for k, c in enumerate(r.as_polynomial()):
                if c:
                    key = (a + k, b + k)
                    out[key] = out.get(key, 0) + c
        return BiPoly(out)

    def value_at_one(self) -> Fraction:
        """Exact limit at u = v = 1 (PoleAtOne if infinite)."""
        return sum((limit_at_one(r) for r in self.terms.values()), Fraction(0))

    def __repr__(self):
        bits = [f"u^{a} v^{b} * {r!r}" for (a, b), r in sorted(self.terms.items())]
        return "EFunction(" + ("0" if not bits else " + ".join(bits)) + ")"


def efunction_from_bipoly(dimension: int, p: BiPoly) -> EFunction:
    return EFunction(
        dimension,
        ((a, b, RationalT.from_int(c)) for (a, b), c in p.terms.items()),
    )


# ---------------------------------------------------------------------------
# brackets


def bracket(wv: WeightVector, J: Iterable[int]) -> RationalT:
    """[ prod_{j not in J} 1/((uv)^{q_j} - 1) ]_int as a rational function of
    t = uv; equals sum_{k>=1} N_J(k) t^{-k} when expanded at infinity."""
    Jf = _check_subset(wv, J)
    coins = [wv.weights[j] for j in wv.indices() if j not in Jf]
    fx = multisection([1], coins, wv.w, -sum(coins))
    bt = fx.inverse_substitution()
    if bt.inverse_substitution() != fx:
        raise InconsistentExpansion(
            f"bracket of {wv} for J = {sorted(Jf)}: its expansions at t = 0 and"
            " at infinity name different rational functions"
        )
    return bt


def _uv_minus_one_pow(n: int) -> List[int]:
    """(t - 1)^n as dense coefficients."""
    return [comb(n, i) * (-1) ** (n - i) for i in range(n + 1)]


# ---------------------------------------------------------------------------
# assembly


def _face_masks(wv: WeightVector) -> List[int]:
    """The index bitmasks of the subsets J with |J| >= 2, ordered by size and
    then by their sorted members."""
    n = len(wv.weights)
    masks = [mask for mask in range(1 << n) if mask.bit_count() >= 2]
    masks.sort(key=lambda mask: (mask.bit_count(), _members(mask)))
    return masks


def _members(mask: int) -> Tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _term(wv: WeightVector, mask: int, base: RationalT) -> EFunction:
    """The face term of J from its weighted bracket ``base``."""
    fe = face_e(wv, _members(mask)).value
    return EFunction(wv.d - 1, ((a, b, base * c) for (a, b), c in fe.terms.items()))


class StringyHalf(NamedTuple):
    """The stringy pipeline's part of a vector's record; subsets of the
    indices are keyed by bitmask."""

    # (uv - 1)^(d+1-|J|) * bracket_J for every |J| >= 2, the factor every
    # assembly shares
    weighted: Dict[int, RationalT]
    total: EFunction
    untwisted: EFunction
    # the twisted component per support, filled on first use
    twisted: Dict[int, RationalT]


def _stringy(rec: VectorRecord) -> StringyHalf:
    """The stringy half of a vector's record, built on first use."""
    wv = rec.wv
    if rec.stringy is None:
        weighted = {
            mask: bracket(wv, _members(mask)).mul_poly(
                _uv_minus_one_pow(wv.d + 1 - mask.bit_count())
            )
            for mask in _face_masks(wv)
        }
        # one entry per face term and key, in the order of J: the printed
        # form of each key's sum follows this grouping and order
        total = EFunction(
            wv.d - 1,
            (e for mask, base in weighted.items() for e in _term(wv, mask, base).iter_entries()),
        )
        rec.stringy = StringyHalf(
            weighted, total, _untwisted_component(wv, weighted), {}
        )
    return rec.stringy


def stringy_terms(wv: WeightVector) -> Dict[FrozenSet[int], EFunction]:
    """The assembled contribution of each face subset J (|J| >= 2)."""
    return {
        frozenset(_members(mask)): _term(wv, mask, base)
        for mask, base in _stringy(ip_record(wv)).weighted.items()
    }


def stringy_e(wv: WeightVector) -> EFunction:
    """Stringy E-function of the mirror hypersurface."""
    return _stringy(ip_record(wv)).total


# ---------------------------------------------------------------------------
# per-element decomposition


def _untwisted_component(wv: WeightVector, weighted: Dict[int, RationalT]) -> EFunction:
    entries = []
    for mask, base in weighted.items():
        k = mask.bit_count()
        # ((t-1)^(k-1) - (-1)^(k-1)) / t is a polynomial of degree k - 2
        num = _uv_minus_one_pow(k - 1)
        num[0] -= (-1) ** (k - 1)
        if num[0]:
            raise DivisionNotExact(f"(t - 1)^{k - 1} - (-1)^{k - 1} is not divisible by t")
        entries.append((0, 0, base.mul_poly(num[1:])))
    return EFunction(wv.d - 1, entries)


def _twisted_component(
    wv: WeightVector, weighted: Dict[int, RationalT], support: int
) -> RationalT:
    """sum over J containing the support of (-1)^|J| (uv-1)^(d+1-|J|) bracket_J,
    with J and the support as index bitmasks, summed in increasing order of
    J's mask (the printed form of a sum follows its order)."""
    return rational_sum(
        weighted[mask] * (-1 if mask.bit_count() % 2 else 1)
        for mask in range(support, 1 << len(wv.weights))
        if mask & support == support
    )


def stringy_e_per_l(wv: WeightVector, l: int) -> EFunction:
    """The contribution E^(l) of a single group element to E_str; summing
    over all l in Z/wZ recovers ``stringy_e``.  It depends on l only
    through l's element class.  The verdict, the classes and the stringy
    half come from one lookup of wv's record."""
    rec = ip_record(wv)
    if not 0 <= l < wv.w:
        raise OutOfRange(f"group element {l} outside 0..{wv.w - 1}")
    half = _stringy(rec)
    if l == 0:
        return half.untwisted
    c = _classified(rec).classes[rec.class_of[l]]
    support = sum(1 << i for i in c.support)
    r = half.twisted.get(support)
    if r is None:
        r = half.twisted[support] = _twisted_component(wv, half.weighted, support)
    return EFunction(wv.d - 1, [(c.age - 1, c.size - c.age - 1, r)])


# ---------------------------------------------------------------------------
# polynomiality, Euler number, Hodge numbers


def is_polynomial(e: EFunction) -> bool:
    return e.is_polynomial()


def to_polynomial(e: EFunction) -> BiPoly:
    if not e.is_polynomial():
        raise NotPolynomial("the E-function has non-polynomial terms")
    return e.to_bipoly()


def stringy_euler(wv: WeightVector) -> Fraction:
    """Exact limit of E_str at u = v = 1 (the stringy Euler number of the
    mirror); finite even when E_str is not a polynomial."""
    return stringy_e(wv).value_at_one()


@dataclass(frozen=True)
class HodgeTable:
    """Stringy Hodge numbers h^{p,q} for 0 <= p, q <= dimension."""

    dimension: int
    grid: Tuple[Tuple[int, ...], ...]

    def h(self, p: int, q: int) -> int:
        if not (0 <= p <= self.dimension and 0 <= q <= self.dimension):
            raise OutOfRange(f"(p, q) = ({p}, {q}) outside the Hodge grid")
        return self.grid[p][q]

    def euler(self) -> int:
        return sum(
            (-1) ** (p + q) * self.grid[p][q]
            for p in range(self.dimension + 1)
            for q in range(self.dimension + 1)
        )

    def to_bipoly(self) -> BiPoly:
        return BiPoly(
            {
                (p, q): (-1) ** (p + q) * self.grid[p][q]
                for p in range(self.dimension + 1)
                for q in range(self.dimension + 1)
                if self.grid[p][q]
            }
        )


def hodge_table(p: BiPoly, dim: int) -> HodgeTable:
    """Read h^{p,q} off an E-polynomial via E = sum (-1)^(p+q) h^{p,q} u^p v^q.

    Raises SignPatternViolation when a coefficient has the wrong sign, an
    exponent falls outside the grid, or h^{p,q} != h^{q,p}.
    """
    if dim < 0:
        raise ValueError("dim must be non-negative")
    grid = [[0] * (dim + 1) for _ in range(dim + 1)]
    for (a, b), c in p.terms.items():
        if a > dim or b > dim:
            raise SignPatternViolation(
                f"monomial u^{a} v^{b} falls outside a dimension-{dim} Hodge grid"
            )
        h = c if (a + b) % 2 == 0 else -c
        if h < 0 or h != int(h):
            raise SignPatternViolation(
                f"coefficient {c} of u^{a} v^{b} violates the (-1)^(p+q) pattern"
            )
        grid[a][b] = int(h)
    for i in range(dim + 1):
        for j in range(i):
            if grid[i][j] != grid[j][i]:
                raise SignPatternViolation(
                    f"h^{{{i},{j}}} = {grid[i][j]} but h^{{{j},{i}}} = {grid[j][i]}"
                )
    return HodgeTable(dim, tuple(tuple(row) for row in grid))
