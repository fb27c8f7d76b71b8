"""Stringy E-function of the mirror hypersurface.

The mirror's stringy E-function is assembled face by face:

    E_str(u, v) = sum over J with |J| >= 2 of
        E_J(u, v) * (uv - 1)^(d+1-|J|) * [ prod_{j not in J} 1/((uv)^{q_j} - 1) ]_int

The projected product (the "bracket") is the generating function of the
lattice counts N_J(k) in the variable t**-1 where t = uv: expanding each
factor at t = infinity and keeping integer exponents gives
sum_{k>=1} N_J(k) t**-k.  The implementation counts N_J(k) directly, builds
the rational form in x = 1/t by certified reconstruction
(denominator prod (1 - x**m_j), m_j = w_j / gcd(w_j, w)), and substitutes
x = 1/t; in debug builds the substitution is verified to invert exactly.

Because every term is a polynomial in u/v times a rational function of
t = uv, an ``EFunction`` stores a map (a, b) -> R(t) with min(a, b) = 0:
the monomial key u^a v^b rides on the off-diagonal degree a - b, so distinct
keys can never cancel and equality may be tested key by key.

The same object supports the per-element decomposition

    E_str = sum over l in Z/wZ of E^(l),
    E^(0)   = sum_J [((uv-1)^(|J|-1) - (-1)^(|J|-1))/uv] (uv-1)^(d+1-|J|) bracket_J,
    E^(l)   = u^(age-1) v^(size-age-1) *
              sum_{J containing the support of l} (-1)^|J| (uv-1)^(d+1-|J|) bracket_J

for l != 0, with support(l) = { i : theta~_i(l) != 0 }.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from .errors import NotPolynomial, OutOfRange, SignPatternViolation
from .exact_arith import (
    BiPoly,
    RationalT,
    guard_override,
    limit_at_one,
    rational_from_counts,
)
from .face_epoly import face_e
from .weights import (
    WeightVector,
    _check_subset,
    _elements,
    lattice_counts,
    require_ip,
)

# ---------------------------------------------------------------------------
# EFunction


class EFunction:
    """Finite sum of u^a v^b * R_{a,b}(uv) with min(a, b) = 0.

    Construction folds min(a, b) into the rational part as a power of
    t = uv and drops vanishing parts, so the key set is canonical.  Equality
    compares the canonical maps; the rational parts compare semantically.
    """

    __slots__ = ("dimension", "terms")

    def __init__(self, dimension: int, entries: Iterable[Tuple[int, int, RationalT]]):
        acc: Dict[Tuple[int, int], RationalT] = {}
        for a, b, r in entries:
            if a < 0 or b < 0:
                raise ValueError(f"EFunction exponents must be >= 0, got ({a}, {b})")
            m = min(a, b)
            key = (a - m, b - m)
            shifted = r.mul_tpower(m)
            prev = acc.get(key)
            acc[key] = shifted if prev is None else prev + shifted
        self.dimension = dimension
        self.terms = {k: v for k, v in acc.items() if not v.is_zero()}

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


def _denominator_orders(wv: WeightVector, comp: List[int]) -> List[int]:
    # (uv)^{q_j} has order m_j = w_j / gcd(w_j, w) as a root-of-unity twist:
    # the projected series in x = t^{-1} repeats with period m_j per factor
    return sorted(wv.weights[j] // gcd(wv.weights[j], wv.w) for j in comp)


@lru_cache(maxsize=None)
def _bracket(wv: WeightVector, Jf: FrozenSet[int], guard: Optional[int]) -> RationalT:
    comp = [j for j in wv.indices() if j not in Jf]
    if not comp:
        return RationalT.one()
    ms = _denominator_orders(wv, comp)
    bound = sum(ms)
    # guard: the MIRROR_STRINGY_GUARD width, None for one full period
    counts = lattice_counts(wv, Jf, bound + (guard or bound))
    fx = rational_from_counts(counts, [(m, 1) for m in ms])
    bt = fx.inverse_substitution()
    if __debug__:
        # the two expansion conventions must name the same rational function
        assert bt.inverse_substitution() == fx
    return bt


def bracket(wv: WeightVector, J: Iterable[int]) -> RationalT:
    """[ prod_{j not in J} 1/((uv)^{q_j} - 1) ]_int as a rational function of
    t = uv; equals sum_{k>=1} N_J(k) t^{-k} when expanded at infinity."""
    return _bracket(wv, _check_subset(wv, J), guard_override())


def _uv_minus_one_pow(n: int) -> List[int]:
    """(t - 1)^n as dense coefficients."""
    return [comb(n, i) * (-1) ** (n - i) for i in range(n + 1)]


def _weighted_bracket(wv: WeightVector, Jf: FrozenSet[int], guard: Optional[int]) -> RationalT:
    """(uv - 1)^(d+1-|J|) * bracket_J, the factor every assembly shares."""
    return _bracket(wv, Jf, guard).mul_poly(_uv_minus_one_pow(wv.d + 1 - len(Jf)))


# ---------------------------------------------------------------------------
# assembly


def _subsets(wv: WeightVector, min_size: int = 2) -> List[FrozenSet[int]]:
    idx = list(wv.indices())
    n = len(idx)
    out = [
        frozenset(i for i in idx if mask >> i & 1)
        for mask in range(1 << n)
        if bin(mask).count("1") >= min_size
    ]
    out.sort(key=lambda s: (len(s), sorted(s)))
    return out


def _term(wv: WeightVector, Jf: FrozenSet[int], guard: Optional[int]) -> EFunction:
    fe = face_e(wv, Jf).value
    base = _weighted_bracket(wv, Jf, guard)
    return EFunction(
        wv.d - 1, ((a, b, base * c) for (a, b), c in fe.terms.items())
    )


def stringy_terms(wv: WeightVector) -> Dict[FrozenSet[int], EFunction]:
    """The assembled contribution of each face subset J (|J| >= 2)."""
    require_ip(wv)
    guard = guard_override()
    return {Jf: _term(wv, Jf, guard) for Jf in _subsets(wv)}


@lru_cache(maxsize=None)
def _stringy_e(wv: WeightVector, guard: Optional[int]) -> EFunction:
    total = EFunction(wv.d - 1, ())
    for Jf in _subsets(wv):
        total = total + _term(wv, Jf, guard)
    return total


def stringy_e(wv: WeightVector) -> EFunction:
    """Stringy E-function of the mirror hypersurface."""
    require_ip(wv)
    return _stringy_e(wv, guard_override())


# ---------------------------------------------------------------------------
# per-element decomposition


@lru_cache(maxsize=None)
def _untwisted_component(wv: WeightVector, guard: Optional[int]) -> EFunction:
    entries = []
    for Jf in _subsets(wv):
        k = len(Jf)
        # ((t-1)^(k-1) - (-1)^(k-1)) / t is a polynomial of degree k - 2
        num = _uv_minus_one_pow(k - 1)
        num[0] -= (-1) ** (k - 1)
        assert num[0] == 0
        entries.append((0, 0, _weighted_bracket(wv, Jf, guard).mul_poly(num[1:])))
    return EFunction(wv.d - 1, entries)


@lru_cache(maxsize=None)
def _twisted_component(
    wv: WeightVector, support: FrozenSet[int], guard: Optional[int]
) -> RationalT:
    """sum over J containing the support of (-1)^|J| (uv-1)^(d+1-|J|) bracket_J."""
    rest = [j for j in wv.indices() if j not in support]
    total = RationalT.zero()
    for mask in range(1 << len(rest)):
        Jf = frozenset(support | {rest[i] for i in range(len(rest)) if mask >> i & 1})
        sign = -1 if len(Jf) % 2 else 1
        total = total + _weighted_bracket(wv, Jf, guard) * sign
    return total


def stringy_e_per_l(wv: WeightVector, l: int) -> EFunction:
    """The contribution E^(l) of a single group element to E_str; summing
    over all l in Z/wZ recovers ``stringy_e``."""
    require_ip(wv)
    if not 0 <= l < wv.w:
        raise OutOfRange(f"group element {l} outside 0..{wv.w - 1}")
    guard = guard_override()
    if l == 0:
        return _untwisted_component(wv, guard)
    el = _elements(wv)[l]
    support = frozenset(i for i, q in enumerate(el.theta_tilde) if q)
    r = _twisted_component(wv, support, guard)
    return EFunction(wv.d - 1, [(el.age - 1, el.size - el.age - 1, r)])


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
