"""Exception hierarchy for the package.

Every error raised by the library derives from StringyMirrorError so that
callers (notably the CLI) can map failure classes to exit codes:
invalid input, violated preconditions, and failed internal guards are kept
apart deliberately.
"""

from __future__ import annotations


class StringyMirrorError(Exception):
    """Base class for all package errors."""


class EmptyInput(StringyMirrorError):
    """An empty weight sequence was supplied."""


class NotWellFormed(StringyMirrorError):
    """Weights are not positive integers or some d-subset has gcd > 1."""


class OutOfRange(StringyMirrorError):
    """An index, group element or configuration value is outside its domain."""


class ReconstructionFailure(StringyMirrorError):
    """Guard-band residuals of a certified-denominator reconstruction are
    nonzero, i.e. the claimed denominator does not generate the series."""


class PoleAtOne(StringyMirrorError):
    """A rational function has a genuine pole at t = 1 where a finite limit
    was required."""


class NegativeExponent(StringyMirrorError):
    """The mirror transform (-u)^dim p(1/u, v) did not clear all negative
    powers of u."""


class DivisionNotExact(StringyMirrorError):
    """An exact polynomial division left a remainder where none is possible
    for a correctly transcribed formula."""


class SubsetTooSmall(StringyMirrorError):
    """A face E-polynomial was requested for a subset with fewer than two
    indices."""


class NotIP(StringyMirrorError):
    """The weight vector fails the IP-property precondition."""


class NotPolynomial(StringyMirrorError):
    """A polynomial was requested from a genuinely non-polynomial value."""


class SignPatternViolation(StringyMirrorError):
    """A claimed stringy E-polynomial has a coefficient violating the
    (-1)^(p+q) sign pattern or the h^{p,q} = h^{q,p} symmetry."""


class NonIntegerMilnor(StringyMirrorError):
    """The Milnor number product is not an integer although the weight
    vector was claimed transverse."""


class NonIntegerCoefficient(StringyMirrorError):
    """A sector Hilbert series expected to be a polynomial with non-negative
    integer coefficients is not one (the transversality claim was false, or
    there is an internal bug)."""


class InconsistentLP(StringyMirrorError):
    """The exact interior-point linear program or its separation oracle
    contradicted itself: a singular basis (a zero pivot while the hull step
    builds the simplex's start basis), an unbounded LP, or an oracle point
    already among the columns."""


class InconsistentCensus(StringyMirrorError):
    """The group-element data contradict themselves: a non-integral age, or
    an age census psi whose psi_0 is not 1 or whose entries do not sum to
    w."""


class InconsistentVerification(StringyMirrorError):
    """The global mirror identity and the per-element identities disagree:
    one holds while the other fails."""


class InconsistentSector(StringyMirrorError):
    """A twisted sector produced a negative or non-integral exponent pair
    (alpha, beta)."""


class InconsistentExpansion(StringyMirrorError):
    """A bracket's expansions at t = 0 and at infinity do not name the same
    rational function."""
