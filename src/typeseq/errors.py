"""Domain errors raised by the library.

Every error carries a stable ``code`` (its class name) so front ends can
render structured error objects without string matching on messages.
``require_count`` is the one check that a bound (a genus, conductor,
window, worker count, sample limit or listing limit) is an int >= 0.
"""

from __future__ import annotations


class TypeseqError(Exception):
    """Base class for all domain errors."""

    @property
    def code(self) -> str:
        return type(self).__name__


class InvalidInput(TypeseqError, ValueError):
    """An argument is outside the domain of the operation.

    Also a ``ValueError``, so callers that catch the built-in still work.
    """


class EmptyGenerators(TypeseqError):
    """A generating set was empty."""


class NotCoprime(TypeseqError):
    """Generators share a common divisor, so the complement is infinite."""


class NotClosed(TypeseqError):
    """A claimed member set is not closed under addition below the conductor."""


class ConductorNotTight(TypeseqError):
    """conductor - 1 is a member, so the stated conductor is not minimal."""


class ParentMismatch(TypeseqError):
    """Two ideals from different parent semigroups were combined."""


class NotContained(TypeseqError):
    """A length l(E/F) was requested for F not contained in E."""


class NotIntegralProper(TypeseqError):
    """The operation needs a proper integral ideal: 0 not in E and E inside S."""


class NotOversemigroup(TypeseqError):
    """The claimed oversemigroup does not contain the base semigroup."""


class DegenerateDVR(TypeseqError):
    """The operation is undefined for S = N (the valuation-ring case)."""


class BoundTooLarge(TypeseqError):
    """An enumeration bound exceeds the safety guard."""


class WindowTooLarge(TypeseqError):
    """An ideal-conductor window exceeds the safety guard."""


class EncodingError(TypeseqError):
    """A textual encoding could not be parsed."""


class InternalInconsistency(TypeseqError):
    """An identity the theory guarantees failed: a bug, not bad input."""


def require_count(**values) -> None:
    """Raise ``InvalidInput`` unless each value is an int >= 0; None is no value.

    A bool is refused too, though Python counts it an int: ``True`` would
    pass as 1 and print as ``true``.
    """
    for name, value in values.items():
        if value is None:
            continue
        if type(value) is not int:
            raise InvalidInput(f"{name} must be an int, got {value!r}")
        if value < 0:
            raise InvalidInput(f"{name} must be non-negative, got {value}")
