"""Exception types raised by the public API, and :func:`as_int`, the rule every integer argument passes.

Everything derives from :class:`BelldiscError` so callers (notably the CLI)
can catch one base class for "bad input or bad data" and map it to a nonzero
exit code.  An argument of the wrong type or out of its domain raises
:class:`BadArgument`, which is also a ``ValueError``.
"""
from __future__ import annotations

import numbers


class BelldiscError(Exception):
    """Base class for all errors raised by this package."""


class BadArgument(BelldiscError, ValueError):
    """An argument has the wrong type or a value outside its domain (also a ValueError)."""


class BadSeed(BadArgument, TypeError):
    """A seed or stream is not an integer (also a TypeError, as numpy raises for such a seed)."""


def as_int(value, error: type[BelldiscError], what: str, low: int | None = None, high: int | None = None) -> int:
    """``value`` as an ``int`` if it is a Python or numpy integer, not a bool, with ``low <= value < high``.

    Anything else raises ``error``, naming ``what`` and the range; a bound of None is open.
    """
    if type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool):
        value = int(value)
        if (low is None or low <= value) and (high is None or value < high):
            return value
    if high is None:
        domain = "" if low is None else f" of at least {low}"
    else:  # a power-of-two bound reads as 2^63 - 1, not as its 19 digits
        top = f"2^{high.bit_length() - 1} - 1" if high > 2 ** 32 and not high & (high - 1) else high - 1
        domain = f" from {low} to {top}"
    raise error(f"{what} must be an integer{domain}, got {value!r}")


# ---- linear algebra / state validation ----

class DimensionMismatch(BelldiscError):
    """Operands have incompatible shapes."""


class NotSquare(BelldiscError):
    """A matrix argument is not square."""


class NotHermitian(BelldiscError):
    """A matrix argument is not Hermitian within tolerance."""


class GrosslyNonHermitian(BelldiscError):
    """Asymmetry too large to be repaired by symmetrization."""


class StronglyNonPositive(BelldiscError):
    """A density matrix has an eigenvalue well below zero."""


# ---- circuit model ----

class BadQubitIndex(BelldiscError):
    """A gate or measurement references a qubit outside the register, or an index or register size is no integer."""


class HasMeasurements(BelldiscError):
    """Operation requires a measurement-free circuit."""


class HasMeasurementsBeforeEnd(BelldiscError):
    """A gate acts on a qubit that was already marked measured."""


class ParseError(BelldiscError):
    """Malformed circuit text or matrix file."""


class UnroutableCircuit(BelldiscError):
    """No rewrite rule can realize a CNOT on the coupling map."""


# ---- sampling ----

class NoMeasurements(BelldiscError):
    """Sampling requires at least one measured qubit."""


class ZeroShots(BelldiscError):
    """Shot count must be an integer from 1 to 2^63 - 1, the range of an int64 count."""


class IdentityInSetting(BelldiscError):
    """Measurement settings must name a basis (X, Y or Z) on every qubit."""


# ---- tomography ----

class TooManyQubits(BelldiscError):
    """Full Pauli tomography is only supported for small registers."""


class MissingSetting(BelldiscError):
    """A histogram is missing for one of the planned settings."""


class InconsistentShotTotals(BelldiscError):
    """Histograms for different settings disagree on their shot totals."""


class IncompleteTable(BelldiscError):
    """Reconstruction needs a coefficient for every Pauli label."""


# ---- reference dataset ----

class BadDimensions(BelldiscError):
    """A matrix payload does not have the expected 8x8 shape."""


class NonHermitianBeyondTolerance(BelldiscError):
    """A loaded matrix exceeds the dataset's Hermiticity tolerance."""
