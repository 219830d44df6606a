"""Relative ideals of a numerical semigroup and their exact arithmetic.

A relative ideal E of S is a set of integers, bounded below, with
E + S inside E.  The normal form is ``(min_element, conductor, mask)``:
bit i of ``mask`` records membership of ``min_element + i`` for the window
[min_element, conductor), and every integer >= conductor is a member.  The
conductor is tight (conductor - 1 is never a member) and ``min_element``
is the least member, so equal ideals have equal normal forms.

Each operation computes membership on a finite window that provably
contains all undecided values; the one-line justification for the window
bounds sits next to each implementation.  An operation aligns its
operands, makes one call and normalizes: one AND or OR on ``_aligned``
bits, or one call of the generator kernels ``colon_bits``/``sum_bits``.
"""

from __future__ import annotations

import functools

from .errors import (
    EmptyGenerators,
    EncodingError,
    InvalidInput,
    NotContained,
    NotIntegralProper,
    ParentMismatch,
    require_ints,
)
from .semigroup import (
    NumericalSemigroup,
    _bit_positions,
    _ones,
    _reflect,
    colon_bits,
    sum_bits,
)


class RelativeIdeal:
    """Immutable relative ideal in ``(min_element, conductor, mask)`` form."""

    __slots__ = ("parent", "min_element", "conductor", "mask")

    def __init__(
        self,
        parent: NumericalSemigroup,
        min_element: int,
        conductor: int,
        mask: int,
    ):
        width = conductor - min_element
        if width < 0:
            raise InvalidInput("conductor below the minimum")
        if width == 0:
            if mask:
                raise InvalidInput("window is empty but bits are set")
        else:
            if not mask & 1:
                raise InvalidInput("the minimum must be a member")
            if (mask >> (width - 1)) & 1:
                raise InvalidInput("conductor - 1 must not be a member")
        self.parent = parent
        self.min_element = min_element
        self.conductor = conductor
        self.mask = mask

    # -- membership and views ------------------------------------------------

    def __contains__(self, x: int) -> bool:
        if x >= self.conductor:
            return True
        if x < self.min_element:
            return False
        return bool((self.mask >> (x - self.min_element)) & 1)

    def bits_below(self, stop: int) -> int:
        """Membership bits for [min_element, stop), tail filled in."""
        rel = stop - self.min_element
        if rel <= 0:
            return 0
        width = self.conductor - self.min_element
        if rel <= width:
            return self.mask & _ones(rel)
        return self.mask | (_ones(rel - width) << width)

    @property
    def window_members(self) -> tuple[int, ...]:
        """Members below the conductor, in increasing order."""
        m = self.min_element
        return tuple([m + k for k in _bit_positions(self.mask)])

    def is_subset_of(self, other: "RelativeIdeal") -> bool:
        _, _, mine, theirs = _aligned(self, other)
        return mine & ~theirs == 0

    # -- encoding ------------------------------------------------------------

    def encode(self) -> str:
        """Canonical text form: ``min|members below conductor|conductor``."""
        body = ",".join(map(str, self.window_members))
        return f"{self.min_element}|{body}|{self.conductor}"

    @classmethod
    def decode(cls, parent: NumericalSemigroup, text: str) -> "RelativeIdeal":
        parts = text.split("|")
        if len(parts) != 3:
            raise EncodingError(f"bad ideal encoding: {text!r}")
        try:
            mn = int(parts[0])
            cond = int(parts[2])
            members = [int(t) for t in parts[1].split(",") if t != ""]
        except ValueError as exc:
            raise EncodingError(f"bad ideal encoding: {text!r}") from exc
        # min + S lies inside the ideal, so its window is at most S's conductor.
        if not 0 <= cond - mn <= parent.conductor:
            raise EncodingError(
                f"window [{mn}, {cond}) does not fit conductor {parent.conductor}"
            )
        bits = 0
        for x in members:
            if x < mn or x >= cond:
                raise EncodingError(f"member {x} outside [{mn}, {cond})")
            bits |= 1 << (x - mn)
        E = _normalized(parent, mn, cond, bits)
        if E.min_element != mn or E.conductor != cond:
            raise EncodingError(f"encoding {text!r} is not in normal form")
        # The set must actually absorb addition by the parent.
        for x in E.window_members:
            shifted = parent.bits_below(cond - x) << (x - mn)
            if shifted & ~E.bits_below(cond):
                raise EncodingError(f"{text!r} is not an ideal: {x} + S escapes")
        return E

    # -- value identity --------------------------------------------------------

    def sort_key(self) -> tuple[int, int, int]:
        return (self.min_element, self.conductor, self.mask)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RelativeIdeal):
            return NotImplemented
        return (
            self.parent == other.parent
            and self.min_element == other.min_element
            and self.conductor == other.conductor
            and self.mask == other.mask
        )

    def __hash__(self) -> int:
        return hash((self.parent, self.min_element, self.conductor, self.mask))

    def __repr__(self) -> str:
        return f"RelativeIdeal({self.parent.encode()!r}, {self.encode()!r})"

    def __reduce__(self):
        return (
            RelativeIdeal,
            (self.parent, self.min_element, self.conductor, self.mask),
        )


def _normalized(
    parent: NumericalSemigroup, lo: int, hi: int, bits: int
) -> RelativeIdeal:
    """Build the normal form from membership bits on [lo, hi).

    Callers guarantee every integer >= hi is a member and none below lo is.
    """
    full = _ones(hi - lo)
    bits &= full
    # One past the highest non-member below hi.
    k = (bits ^ full).bit_length()
    cond = lo + k
    win = bits & _ones(k)
    if win:
        mn = lo + (win & -win).bit_length() - 1
    else:
        mn = cond
    return RelativeIdeal(parent, mn, cond, win >> (mn - lo))


def _aligned(E: RelativeIdeal, F: RelativeIdeal) -> tuple[int, int, int, int]:
    """(lo, hi, e_bits, f_bits): E and F as membership bits on [lo, hi).

    lo is the lesser minimum and hi the greater conductor, so every
    integer >= hi is in both and none below lo is in either.
    """
    if E.parent != F.parent:
        raise ParentMismatch("ideals belong to different semigroups")
    lo = min(E.min_element, F.min_element)
    hi = max(E.conductor, F.conductor)
    e_bits = E.bits_below(hi) << (E.min_element - lo)
    return lo, hi, e_bits, F.bits_below(hi) << (F.min_element - lo)


# -- constructors -------------------------------------------------------------


def unit_ideal(S: NumericalSemigroup) -> RelativeIdeal:
    """S viewed as an ideal over itself."""
    return RelativeIdeal(S, 0, S.conductor, S.mask)


def tail_ideal(S: NumericalSemigroup, start: int) -> RelativeIdeal:
    """The ideal of all integers >= start."""
    return RelativeIdeal(S, start, start, 0)


def members_from(S: NumericalSemigroup, m: int) -> RelativeIdeal:
    """The ideal of the members of S from m >= 0 on; the tail if m >= c."""
    return _normalized(S, m, max(S.conductor, m), S.mask >> m)


def maximal_ideal(S: NumericalSemigroup) -> RelativeIdeal:
    """Nonzero members of S; for S = N this is the tail from 1."""
    return members_from(S, 1)


def principal_ideal(S: NumericalSemigroup, g: int) -> RelativeIdeal:
    """The translate g + S (window bits equal those of S)."""
    return RelativeIdeal(S, g, g + S.conductor, S.mask)


def ideal_from_generators(S: NumericalSemigroup, generators) -> RelativeIdeal:
    """Union of the translates g + S over the generating integers.

    Window: everything >= min(generators) + conductor(S) lies in the
    translate of the least generator, so [min, min + c) decides the form.
    A generator that is not an int is an ``InvalidInput``.
    """
    gens = require_ints("generators", generators)
    if not gens:
        raise EmptyGenerators("an ideal needs at least one generator")
    lo = gens[0]
    hi = lo + S.conductor
    acc = 0
    for g in gens:
        acc |= S.bits_below(hi - g) << (g - lo)
    return _normalized(S, lo, hi, acc)


# -- arithmetic ----------------------------------------------------------------


def colon(A: RelativeIdeal, B: RelativeIdeal) -> RelativeIdeal:
    """The ideal quotient A - B = {z : z + B inside A}.

    Generators: A - B is the intersection of the translates A - g over
    the generators g of B that ``colon_bits`` reads, one per residue class.

    Window: z >= conductor(A) - min(B) shifts all of B into the tail of A,
    and z < min(A) - min(B) sends min(B) below min(A); so the window
    [min(A) - min(B), conductor(A) - min(B)) decides membership.
    """
    if A.parent != B.parent:
        raise ParentMismatch("ideals belong to different semigroups")
    lo = A.min_element - B.min_element
    hi = A.conductor - B.min_element
    e = A.parent.multiplicity
    # Bit j of b is min(B) + j; bit idx of a_bits is min(A) + idx, so
    # z = lo + idx needs bit idx + j for every generator offset j.
    b = B.bits_below(B.conductor + e)
    a_bits = A.bits_below(A.min_element + b.bit_length() + hi - lo)
    return _normalized(A.parent, lo, hi, colon_bits(a_bits, b, e))


def dual(E: RelativeIdeal) -> RelativeIdeal:
    """S - E."""
    return colon(unit_ideal(E.parent), E)


def bidual(E: RelativeIdeal) -> RelativeIdeal:
    return dual(dual(E))


def ideal_product(E: RelativeIdeal, F: RelativeIdeal) -> RelativeIdeal:
    """Sumset E + F (the ideal product in the value model).

    Generators: E + S = E, so E + F is the union of the translates E + g
    over the generators g of F that ``sum_bits`` reads, one per residue class.

    Window: everything >= conductor(E) + min(F) is min(F) plus a tail
    member of E, and symmetrically; the smaller of the two bounds, hi, is
    used.  A generator of F at or past hi - min(E) adds nothing below hi.
    """
    if E.parent != F.parent:
        raise ParentMismatch("ideals belong to different semigroups")
    if E.conductor + F.min_element > F.conductor + E.min_element:
        E, F = F, E
    lo = E.min_element + F.min_element
    hi = E.conductor + F.min_element
    e = E.parent.multiplicity
    b = F.bits_below(hi - E.min_element)
    acc = sum_bits(E.bits_below(hi - F.min_element), b, e)
    return _normalized(E.parent, lo, hi, acc)


def ideal_union(E: RelativeIdeal, F: RelativeIdeal) -> RelativeIdeal:
    """Module sum E + F as sets (union of members)."""
    lo, hi, e_bits, f_bits = _aligned(E, F)
    return _normalized(E.parent, lo, hi, e_bits | f_bits)


def ideal_intersection(E: RelativeIdeal, F: RelativeIdeal) -> RelativeIdeal:
    lo, hi, e_bits, f_bits = _aligned(E, F)
    return _normalized(E.parent, lo, hi, e_bits & f_bits)


def length_between(E: RelativeIdeal, F: RelativeIdeal) -> int:
    """l(E/F): the number of members of E outside F (F must sit inside E)."""
    _, _, e_bits, f_bits = _aligned(E, F)
    if f_bits & ~e_bits:
        raise NotContained("l(E/F) needs F inside E")
    return (e_bits & ~f_bits).bit_count()


# -- canonical ideal and friends ------------------------------------------------


@functools.lru_cache(maxsize=1)
def canonical_ideal(S: NumericalSemigroup) -> RelativeIdeal:
    """K = {x : frobenius - x is a gap}; satisfies S <= K <= N.

    Window: for x >= conductor the difference drops below 0, always a gap,
    and for x < 0 it exceeds the frobenius, always a member; so K has
    minimum 0 and conductor equal to S's.  Its window bits are the gap
    bits of S reflected about c - 1.
    """
    c = S.conductor
    return RelativeIdeal(S, 0, c, _reflect(~S.mask & _ones(c), c - 1))


@functools.lru_cache(maxsize=1)
def dedekind_different(S: NumericalSemigroup) -> RelativeIdeal:
    """S - K; equals S exactly in the symmetric (type 1) case."""
    return colon(unit_ideal(S), canonical_ideal(S))


def require_proper(E: RelativeIdeal) -> None:
    """Raise unless E is integral (inside S) and proper (0 not a member)."""
    if 0 in E:
        raise NotIntegralProper("0 must not be a member")
    if E.conductor < E.parent.conductor or not E.is_subset_of(
        unit_ideal(E.parent)
    ):
        raise NotIntegralProper("the ideal must sit inside its semigroup")


def integral_closure(E: RelativeIdeal) -> RelativeIdeal:
    """Members of S at or above min(E): the largest ideal with E's minimum."""
    require_proper(E)
    return members_from(E.parent, E.min_element)


def is_integrally_closed(E: RelativeIdeal) -> bool:
    return E == integral_closure(E)


def is_reflexive(E: RelativeIdeal) -> bool:
    return bidual(E) == E


def is_omega_stable(E: RelativeIdeal) -> bool:
    """Whether K + E = E, i.e. E is a module over the canonical ideal."""
    return ideal_product(canonical_ideal(E.parent), E) == E


def is_principal(E: RelativeIdeal) -> bool:
    """Whether E is a translate g + S (g is forced to be the minimum)."""
    return E == principal_ideal(E.parent, E.min_element)
