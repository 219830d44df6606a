"""Domain errors raised by the library.

Every error carries a stable ``code`` (its class name) so front ends can
render structured error objects without string matching on messages.
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
