"""Numerical semigroups stored as bit-per-integer membership tables.

A numerical semigroup S is a subset of the non-negative integers that
contains 0, is closed under addition, and has a finite complement (the
gaps).  The least member c with c + N inside S is the conductor.  The
normal form used everywhere in this package is the pair
``(conductor, mask)`` where bit x of ``mask`` records membership of x for
x in [0, conductor); every integer >= conductor is a member by definition
of the conductor, so no bits are stored for the tail.

Each fact about a semigroup is computed once per instance.  ``n`` and
``genus`` are plain attributes set on construction.  One pass over the
Apery set of the multiplicity yields both the minimal generators and the
pseudo-Frobenius bits; the type is the popcount of those bits, and the
``pseudo_frobenius`` tuple is built only when read.  A child S - {x} in
the semigroup tree (``_child``) inherits its facts instead: its small
elements, minimal generators and pseudo-Frobenius bits follow from its
parent's by slicing and one AND each, with no Apery pass.  ``encode()``
keeps its string after the first call.  None of these caches is pickled.
"""

from __future__ import annotations

import functools
import itertools
import math
from bisect import bisect_left

from .errors import (
    BoundTooLarge,
    ConductorNotTight,
    EmptyGenerators,
    EncodingError,
    InvalidInput,
    NotClosed,
    NotCoprime,
)


def _ones(width: int) -> int:
    """Bitmask with ``width`` low bits set."""
    return (1 << width) - 1 if width > 0 else 0


def _bit_positions(bits: int) -> tuple[int, ...]:
    """Positions of the set bits of a non-negative ``bits``, ascending.

    The reversed ``bin(bits)``, split at each 1, gives the runs of zeros
    between set bits: one C scan, then one step per set bit.
    """
    out = []
    k = -1
    for zeros in bin(bits)[:1:-1].split("1")[:-1]:
        k += len(zeros) + 1
        out.append(k)
    return tuple(out)


def _reflect(bits: int, axis: int) -> int:
    """``bits`` (none above ``axis``) with bit k moved to bit axis - k."""
    return int(bin(bits)[:1:-1], 2) << (axis + 1 - bits.bit_length())


class NumericalSemigroup:
    """Immutable numerical semigroup in ``(conductor, mask)`` normal form.

    ``small_elements`` lists the members s_0 = 0 < s_1 < ... < s_n where
    s_n equals the conductor; for S = N it is just (0,).  ``n`` (the
    number of nonzero small elements) and ``genus`` (c - n) are attributes.
    Instances are hashable and compare by value, so they can key caches.
    The minimal generators, the pseudo-Frobenius bits and the encoding are
    computed on first use and kept in slots; ``_child`` fills the first two
    from the parent's.
    """

    __slots__ = (
        "conductor",
        "mask",
        "small_elements",
        "n",
        "genus",
        "_mingens",
        "_pf_bits",
        "_pf",
        "_enc",
    )

    def __init__(self, conductor: int, mask: int):
        if conductor < 0:
            raise InvalidInput("conductor must be non-negative")
        if conductor > 0:
            # 0 is always a member and conductor - 1 is always a gap.
            if not mask & 1:
                raise InvalidInput("0 must be a member")
            if (mask >> (conductor - 1)) & 1:
                raise ConductorNotTight(f"{conductor - 1} is a member")
        elif mask:
            raise InvalidInput("mask must be empty when the conductor is 0")
        self.conductor = conductor
        self.mask = mask
        small = _bit_positions(mask) + (conductor,) if conductor else (0,)
        self.small_elements = small
        self.n = n = len(small) - 1
        self.genus = conductor - n
        self._mingens: tuple[int, ...] | None = None
        self._pf_bits: int | None = None
        self._pf: tuple[int, ...] | None = None
        self._enc: str | None = None

    # -- membership and views ------------------------------------------------

    def __contains__(self, x: int) -> bool:
        if x >= self.conductor:
            return True
        if x < 0:
            return False
        return bool((self.mask >> x) & 1)

    def bits_below(self, stop: int) -> int:
        """Membership bits for [0, stop), with the tail filled in."""
        if stop <= 0:
            return 0
        if stop <= self.conductor:
            return self.mask & _ones(stop)
        return self.mask | (_ones(stop - self.conductor) << self.conductor)

    @property
    def multiplicity(self) -> int:
        """Least nonzero member; 1 for S = N."""
        if self.conductor == 0:
            return 1
        return self.small_elements[1]

    @property
    def frobenius(self) -> int:
        """Largest non-member (-1 for S = N)."""
        return self.conductor - 1

    @property
    def gaps(self) -> tuple[int, ...]:
        return _bit_positions(~self.mask & _ones(self.conductor))

    def _apery_pass(self) -> int:
        """Fill the minimal generators and pseudo-Frobenius bits (c > 0).

        With e the multiplicity, every nonzero member is w + k*e with w in
        the Apery set Ap(S, e), whose nonzero part is the bits of
        B & ~(B << e) & ~1 for B the membership bits below c + e.

        Generators: a sum x = a + b of nonzero members with x - e not in S
        has a and b in Ap(S, e), so the generators are the bits of
        M & ~((M << e) | OR over those w of (M << w)), with M = B & ~1.

        Pseudo-Frobenius: a gap x has x + s in S for every nonzero member s
        exactly when x + e and every x + w are members, so the gap bits
        are ANDed with W >> e and each W >> w, W the bits below 2c + e.

        Returns the pseudo-Frobenius bits.
        """
        c = self.conductor
        e = self.small_elements[1]
        wide = self.bits_below(2 * c + e)
        members = wide & _ones(c + e)
        nonzero = members & ~1
        sums = nonzero << e
        pf = ~self.mask & _ones(c) & (wide >> e)
        for w in _bit_positions(members & ~(members << e) & ~1):
            sums |= nonzero << w
            pf &= wide >> w
        self._mingens = _bit_positions(nonzero & ~sums)
        self._pf_bits = pf
        return pf

    def _child(self, x: int) -> "NumericalSemigroup":
        """T = S - {x} for a minimal generator x > F(S), every fact from S's.

        The tree walk's builder, in place of ``NumericalSemigroup(x + 1,
        bits)`` and its Apery pass.  With c the conductor and e the
        multiplicity of S:

        - small elements: those of S below c, then c, ..., x - 1, x + 1;
        - minimal generators: those of S but x, then x + e unless
          x + e = a + b for members a, b of S in (e, x): one AND of those
          bits with their reflection about x + e.  A new generator y of T
          is x + s with s in S, as every split of y in S uses x, and
          y <= x + e, as every generator of T is below c_T + e_T =
          x + 1 + e.  Every generator of S is below c + e <= x + e, so
          x + e goes last.  For x = e, S is ordinary (S = N included) and
          T's generators are e + 1, ..., 2e + 1;
        - pseudo-Frobenius bits: PF(T) = {x} + {f in PF(S) : x - f is a
          gap of S}, one AND of PF(S) with the gap bits of S reflected
          about x.  The gaps of T are those of S and x; a gap f of S is
          pseudo-Frobenius in T exactly when it is in PF(S) and f + t != x
          for every t in T.
        """
        c = self.conductor
        gens = self.minimal_generators  # runs the Apery pass if not yet run
        pf = self._pf_bits or 0  # unset only for S = N
        e = gens[0]
        T = NumericalSemigroup.__new__(NumericalSemigroup)
        T.conductor = x + 1
        T.mask = below = self.bits_below(x)
        T.small_elements = small = (
            self.small_elements[:-1] + tuple(range(c, x)) + (x + 1,)
        )
        T.n = len(small) - 1
        T.genus = self.genus + 1
        if x == e:
            T._mingens = tuple(range(x + 1, 2 * x + 2))
        else:
            i = gens.index(x)
            rest = gens[:i] + gens[i + 1 :]
            inner = below & ~_ones(e + 1)
            split = inner & _reflect(inner, x + e)
            T._mingens = rest if split else rest + (x + e,)
        T._pf_bits = (pf & _reflect(~self.mask & _ones(c), x)) | 1 << x
        T._pf = None
        T._enc = None
        return T

    @property
    def minimal_generators(self) -> tuple[int, ...]:
        """Nonzero members not expressible as a sum of two nonzero members."""
        if self._mingens is None:
            if self.conductor == 0:
                self._mingens = (1,)
            else:
                self._apery_pass()
        return self._mingens

    @property
    def pseudo_frobenius(self) -> tuple[int, ...]:
        """Non-members x with x + s a member for every nonzero member s.

        For S = N the same colon-style definition gives {-1}, matching the
        convention that the valuation ring has type 1.
        """
        if self._pf is None:
            if self.conductor == 0:
                self._pf = (-1,)
            else:
                pf = self._pf_bits
                self._pf = _bit_positions(
                    self._apery_pass() if pf is None else pf
                )
        return self._pf

    @property
    def type(self) -> int:
        """Number of pseudo-Frobenius numbers: a popcount of their bits."""
        pf = self._pf_bits
        if pf is None:
            if self.conductor == 0:
                return 1
            pf = self._apery_pass()
        return pf.bit_count()

    @property
    def is_gorenstein(self) -> bool:
        """Symmetric case: twice the genus equals the conductor."""
        return 2 * self.genus == self.conductor

    def small_element(self, j: int) -> int:
        """j-th small element, extended by s_j = c + (j - n) for j > n."""
        if j <= self.n:
            return self.small_elements[j]
        return self.conductor + (j - self.n)

    def small_index(self, x: int) -> int:
        """Index j with extended small element s_j = x (x must be a member)."""
        if x > self.conductor:
            return self.n + (x - self.conductor)
        j = bisect_left(self.small_elements, x)
        if self.small_elements[j] != x:
            raise InvalidInput(f"{x} is not a member")
        return j

    # -- encoding ------------------------------------------------------------

    def encode(self) -> str:
        """Canonical text form: small elements comma-joined, then conductor."""
        enc = self._enc
        if enc is None:
            enc = self._enc = (
                ",".join(map(str, self.small_elements)) + "|" + str(self.conductor)
            )
        return enc

    @classmethod
    def decode(cls, text: str) -> "NumericalSemigroup":
        parts = text.split("|")
        if len(parts) != 2:
            raise EncodingError(f"bad semigroup encoding: {text!r}")
        try:
            conductor = int(parts[1])
            elements = [int(t) for t in parts[0].split(",") if t != ""]
        except ValueError as exc:
            raise EncodingError(f"bad semigroup encoding: {text!r}") from exc
        return from_small_elements(elements, conductor)

    # -- value identity --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, NumericalSemigroup):
            return NotImplemented
        return self.conductor == other.conductor and self.mask == other.mask

    def __hash__(self) -> int:
        return hash((self.conductor, self.mask))

    def __repr__(self) -> str:
        return f"NumericalSemigroup({self.encode()!r})"

    def __reduce__(self):
        return (NumericalSemigroup, (self.conductor, self.mask))


def schur_bound(generators) -> int:
    """Schur's bound (min g - 1)(max g - 1) on the conductor (Brauer 1942)."""
    return (min(generators) - 1) * (max(generators) - 1)


def from_generators(generators) -> NumericalSemigroup:
    """Semigroup generated by a coprime set of positive integers.

    S is the sum of the monoids gN, so the sieve adds the multiples of
    each generator in turn, doubling the shift: mask |= mask << g, << 2g,
    << 4g, ...  The table covers the Schur bound plus min(generators)
    bits, so every gap lies inside it and the conductor is one past the
    largest non-member found; one sieve suffices.
    """
    gens = sorted({int(g) for g in generators})
    if not gens:
        raise EmptyGenerators("at least one generator is required")
    if gens[0] < 1:
        raise InvalidInput("generators must be positive")
    if math.gcd(*gens) != 1:
        raise NotCoprime(f"gcd({', '.join(map(str, gens))}) != 1")
    width = schur_bound(gens) + gens[0]
    full = _ones(width)
    mask = 1
    for g in gens:
        step = g
        while step < width:
            mask |= (mask << step) & full
            step *= 2
    t = (~mask & full).bit_length()  # one past the largest gap
    return NumericalSemigroup(t, mask & _ones(t))


def from_small_elements(elements, conductor: int) -> NumericalSemigroup:
    """Semigroup from its members below ``conductor`` plus the tail.

    Members >= conductor may appear in ``elements``; they are redundant and
    are folded into the tail, which lets encodings that list the conductor
    itself round-trip.
    """
    if conductor < 0:
        raise InvalidInput("conductor must be non-negative")
    elems = sorted({int(x) for x in elements})
    if not elems or elems[0] != 0:
        if elems and elems[0] < 0:
            raise InvalidInput("members must be non-negative")
        raise InvalidInput("0 must be listed among the elements")
    mask = 0
    for x in elems:
        if x < conductor:
            mask |= 1 << x
    if conductor > 0 and (mask >> (conductor - 1)) & 1:
        raise ConductorNotTight(
            f"{conductor - 1} is listed, so the conductor is not tight"
        )
    window = _ones(conductor)
    bits = mask & ~1
    while bits:
        low = bits & -bits
        a = low.bit_length() - 1
        bits ^= low
        # a + member must land in the set or the tail.
        missing = ((mask << a) & window) & ~mask
        if missing:
            b = missing.bit_length() - 1 - a
            raise NotClosed(f"{a} + {b} = {a + b} is missing")
    return NumericalSemigroup(conductor, mask)


@functools.lru_cache(maxsize=64)
def is_arf(S: NumericalSemigroup) -> bool:
    """Whether s + t - u is a member for all members s >= t >= u.

    Triples with s >= conductor are automatic because s + t - u >= s, so
    the scan only needs s among the small elements below the conductor.
    """
    small = S.small_elements[:-1] if S.conductor > 0 else (0,)
    for si, s in enumerate(small):
        for ti in range(si + 1):
            t = small[ti]
            for ui in range(ti + 1):
                if s + t - small[ui] not in S:
                    return False
    return True


def from_bits(members: int, stop: int) -> NumericalSemigroup:
    """The semigroup with these membership bits below ``stop``, full from it."""
    c = (~members & _ones(stop)).bit_length()
    return NumericalSemigroup(c, members & _ones(c))


def oversemigroup_walk(S: NumericalSemigroup):
    """Each oversemigroup T != S once, by reverse search, with S - T.

    The parent of T is T minus m = min(T - S) (Avis & Fukuda 1996):
    nonzero members of T below m lie in S, and so do their sums, so m is a
    minimal generator of T.  The children of U are thus the U + {g} for
    the gaps g of U below min(U - S), any at U = S, with g + (U - {0}) and
    2g inside U.  S - T comes down the same tree: S - (U + {g}) = (S - U) & (S - g),
    with S - g the bits of S shifted down by g.  T and S - T are full from
    the conductor c of S and are yielded as bits on [0, c);
    ``from_bits(members, c)`` is T.
    """
    c = S.conductor
    window = _ones(c)
    wide = S.bits_below(2 * c)  # S - g below c reads S below c + g
    stack = [(S.mask, c, S.mask)]
    while stack:
        members, bound, ideal = stack.pop()
        holes = window & ~members
        nonzero = members & ~1
        gaps = holes & _ones(bound)
        while gaps:
            low = gaps & -gaps
            gaps ^= low
            g = low.bit_length() - 1
            if not ((nonzero | low) << g) & holes:  # g + (U - {0}), 2g in U
                child, child_ideal = members | low, ideal & (wide >> g)
                yield child, child_ideal
                stack.append((child, g, child_ideal))


def oversemigroups(
    S: NumericalSemigroup, limit: int | None = None
) -> list[NumericalSemigroup]:
    """All numerical semigroups containing S, including S and N.

    They are S and ``oversemigroup_walk``, sorted by descending genus and
    then by small elements, so S comes first and N last.  Their number
    grows exponentially with the genus, so with a ``limit`` the walk stops,
    and ``BoundTooLarge`` is raised, as soon as the list would pass it; a
    negative ``limit`` is an ``InvalidInput``.
    """
    if limit is not None and limit < 0:
        raise InvalidInput(f"limit must be non-negative, got {limit}")
    found = list(itertools.islice(oversemigroup_walk(S), limit))
    if limit is not None and len(found) >= limit:  # S makes len(found) + 1
        raise BoundTooLarge(f"more than {limit} oversemigroups (genus {S.genus})")
    overs = [from_bits(members, S.conductor) for members, _ in found]
    overs.sort(key=lambda T: (-T.genus, T.small_elements))
    return [S] + overs
