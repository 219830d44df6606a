"""Numerical semigroups stored as bit-per-integer membership tables.

A numerical semigroup S is a subset of the non-negative integers that
contains 0, is closed under addition, and has a finite complement (the
gaps).  The least member c with c + N inside S is the conductor.  The
normal form used everywhere in this package is the pair
``(conductor, mask)`` where bit x of ``mask`` records membership of x for
x in [0, conductor); every integer >= conductor is a member by definition
of the conductor, so no bits are stored for the tail.

An ideal of S is generated by its least member in each residue class mod
the multiplicity e.  The kernels ``colon_bits`` and ``sum_bits`` hold this
rule; every colon, product and Apery pass in the package is one call of one.

Each fact about a semigroup is computed once per instance.  ``n``,
``genus`` and ``multiplicity`` are plain attributes set on construction,
from popcounts and the lowest bits of the mask.  One pass over the Apery
set of the multiplicity yields both the minimal generators and the
pseudo-Frobenius numbers, each as bits; the type is the popcount of the
latter.  The ``small_elements`` and ``minimal_generators`` tuples are
built from their bits on first read and kept; ``pseudo_frobenius`` is
built on each read.  A child S - {x} in the semigroup tree (``_child``)
inherits its facts instead: n, its generator bits and its
pseudo-Frobenius bits follow from its parent's by a few shifts, with no
Apery pass and no tuple, read against the mask reversed about the
conductor, which the child carries on, and its type is stored as their
popcount.  ``encode()`` keeps its string after the first call.  None of
these caches is pickled.
"""

from __future__ import annotations

import functools
import math

from .errors import (
    ConductorNotTight,
    EmptyGenerators,
    EncodingError,
    InternalInconsistency,
    InvalidInput,
    NotClosed,
    NotCoprime,
    require_count,
    require_ints,
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


def colon_bits(a_bits: int, b_bits: int, e: int) -> int:
    """The translate intersection behind every colon: AND of a_bits >> g.

    g runs over the bit positions of ``b_bits`` that hold the least member
    of their residue class mod e.  With e the multiplicity these generate
    B (e is in S), so bit i of the result says i + g is in A for every g
    of B, which is A - B on the caller's layout.  ``b_bits`` must reach
    B's conductor + e, so that every class has its least member there,
    and ``a_bits`` must be exact up to every bit the shifts read.  The g
    are read from the highest down, one ``bit_length`` each; the AND is
    the same in any order.  No generator gives -1.
    """
    gens = b_bits & ~(b_bits << e)
    acc = -1
    while gens:
        g = gens.bit_length() - 1
        acc &= a_bits >> g
        gens ^= 1 << g
    return acc


def sum_bits(a_bits: int, b_bits: int, e: int) -> int:
    """The translate union behind every product: OR of a_bits << g.

    g runs over the class minima of ``b_bits`` as in ``colon_bits``, so for
    A + S = A the result is A + B, exact where the shifts read exact bits.
    ``b_bits`` may stop early where every later generator would shift
    ``a_bits`` past the caller's window.  The g are read from the highest
    down, and the OR is the same in any order.  No generator gives 0.
    """
    gens = b_bits & ~(b_bits << e)
    acc = 0
    while gens:
        g = gens.bit_length() - 1
        acc |= a_bits << g
        gens ^= 1 << g
    return acc


class NumericalSemigroup:
    """Immutable numerical semigroup in ``(conductor, mask)`` normal form.

    ``small_elements`` lists the members s_0 = 0 < s_1 < ... < s_n where
    s_n equals the conductor; for S = N it is just (0,).  ``n`` (the
    number of nonzero small elements), ``genus`` (c - n) and
    ``multiplicity`` (s_1, or 1 for S = N) are attributes.  Instances are
    hashable and compare by value, so they can key caches.  The reversed
    mask, the generator and pseudo-Frobenius bits, the small-element and
    generator tuples and the encoding are computed on first use and kept
    in slots; ``_child`` fills the first three from the parent's.  The
    type is the popcount of the pseudo-Frobenius bits, which its first read
    fills.  A tree node, built by ``_child``, is a ``_TreeNode``, which
    stores its type in a slot as well.
    """

    __slots__ = (
        "conductor",
        "mask",
        "n",
        "genus",
        "multiplicity",
        "_small",
        "_gens",
        "_mingens",
        "_rev",
        "_pf_bits",
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
        self.n = mask.bit_count()  # the members below c, 0 among them
        self.genus = conductor - self.n
        low = mask ^ 1 | 1 << conductor  # the nonzero members up to c
        self.multiplicity = (low & -low).bit_length() - 1 if conductor else 1
        self._small: tuple[int, ...] | None = None
        self._gens: int | None = None if conductor else 0b10
        self._mingens: tuple[int, ...] | None = None
        self._rev: int | None = None
        self._pf_bits: int | None = None
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
    def frobenius(self) -> int:
        """Largest non-member (-1 for S = N)."""
        return self.conductor - 1

    @property
    def gaps(self) -> tuple[int, ...]:
        return _bit_positions(~self.mask & _ones(self.conductor))

    @property
    def small_elements(self) -> tuple[int, ...]:
        """The members s_0 = 0 < s_1 < ... < s_n = c; (0,) for S = N.

        Built from the mask on first read, and checked against ``n``, which
        ``_child`` sets by its own arithmetic.
        """
        small = self._small
        if small is None:
            c = self.conductor
            small = _bit_positions(self.mask) + (c,) if c else (0,)
            if len(small) != self.n + 1:
                raise InternalInconsistency(
                    f"n = {self.n}, but the mask holds {len(small) - 1}"
                )
            self._small = small
        return small

    def _apery_pass(self) -> int:
        """Fill the generator and pseudo-Frobenius bits (c > 0).

        With e the multiplicity, the class minima of M, the nonzero members
        below c + e, are e and the nonzero part of the Apery set Ap(S, e).

        Generators: the bits of M outside M + M.  M + S is M below c + e,
        so M + M is ``sum_bits(M, M, e)`` there.

        Pseudo-Frobenius: a gap x has x + s in S for every nonzero member s
        exactly when x plus each class minimum is a member, so the gap bits
        are ANDed with ``colon_bits(W, M, e)``, W the bits below 2c + e.

        Returns the pseudo-Frobenius bits.
        """
        c = self.conductor
        e = self.multiplicity
        wide = self.bits_below(2 * c + e)
        nonzero = wide & _ones(c + e) & ~1
        pf = ~self.mask & _ones(c) & colon_bits(wide, nonzero, e)
        self._gens = nonzero & ~sum_bits(nonzero, nonzero, e)
        self._pf_bits = pf
        return pf

    def _generator_bits(self) -> int:
        """The minimal generators as bits, bit g per generator g."""
        if self._gens is None:
            self._apery_pass()  # N's are set on construction
        return self._gens

    def _reversal(self) -> int:
        """S's mask reversed about its conductor c: bit c - k per member k < c.

        ``_child`` carries it down the tree; an instance it did not build
        reflects its mask once, on first use.
        """
        rev = self._rev
        if rev is None:
            rev = self._rev = _reflect(self.mask, self.conductor)
        return rev

    def _child(self, x: int) -> "NumericalSemigroup":
        """T = S - {x} for a minimal generator x > F(S), every fact from S's.

        The tree walk's builder, in place of ``NumericalSemigroup(x + 1,
        bits)`` and its Apery pass: a few shifts of S's bits, and no tuple.
        With c the conductor, e the multiplicity and rev the reversal of S:

        - n: the members of T below x + 1 are the n_S members of S below c
          and c, ..., x - 1, so n_T = n_S + x - c.  The small elements are
          built from T's mask on first read;
        - reversal: a member k < c moves from bit c - k to bit x + 1 - k, a
          shift by x + 1 - c, and k in [c, x) lands on bit x + 1 - k in
          [2, x + 1 - c], the x - c bits from bit 2.  So bit x + 1 - k of
          rev_T is set exactly for the members k <= x of T;
        - multiplicity: e, or e + 1 for x = e;
        - generator bits: S's with bit x cleared, and bit x + e set unless
          x + e = a + b for members a, b of S in (e, x).  A new generator y
          of T is x + s with s in S, as every split of y in S uses x, and
          y <= x + e, as every generator of T is below c_T + e_T =
          x + 1 + e.  Bit a of rev_T << (e - 1) is bit a + 1 - e of rev_T,
          set exactly when x + e - a is a member of T, and for a in (e, x)
          that member lies in (e, x) too.  So the split test is one AND of
          the members of T in (e, x) with rev_T << (e - 1), both shifted
          down by e + 1.  For x = e, S is ordinary (S = N included) and T's
          generators are the run e + 1, ..., 2e + 1;
        - pseudo-Frobenius bits: PF(T) = {x} + {f in PF(S) : x - f is not
          in T}.  The gaps of T are those of S and x; a gap f of S is
          pseudo-Frobenius in T exactly when it is in PF(S) and f + t != x
          for every t in T.  For f in PF(S), 1 <= x - f <= x, and x - f is
          in T exactly when bit f + 1 of rev_T is set: one AND of PF(S)
          with the complement of rev_T >> 1.
        """
        c = self.conductor
        gens = self._gens or self._generator_bits()  # Apery pass if unset
        pf = self._pf_bits or 0  # unset only for S = N
        rev = self._reversal()
        e = self.multiplicity
        run = (1 << (x - c)) - 1  # c, ..., x - 1
        T = _TreeNode.__new__(_TreeNode)
        T.conductor = x + 1
        T.mask = below = self.mask | run << c
        T.n = self.n + x - c
        T.genus = self.genus + 1
        T._rev = rev_t = rev << (x + 1 - c) | run << 2
        if x == e:
            T.multiplicity = x + 1
            T._gens = ((2 << x) - 1) << (x + 1)
        else:
            T.multiplicity = e
            gens ^= 1 << x
            split = below >> (e + 1) & rev_t >> 2  # bit j: e + 1 + j, x - 1 - j in T
            T._gens = gens if split else gens | 1 << (x + e)
        T._pf_bits = pf = pf & ~(rev_t >> 1) | 1 << x
        T.type = pf.bit_count()
        T._small = T._mingens = T._enc = None
        return T

    @property
    def minimal_generators(self) -> tuple[int, ...]:
        """Nonzero members not expressible as a sum of two nonzero members."""
        gens = self._mingens
        if gens is None:
            gens = self._mingens = _bit_positions(self._generator_bits())
        return gens

    @property
    def pseudo_frobenius(self) -> tuple[int, ...]:
        """Non-members x with x + s a member for every nonzero member s.

        For S = N the same colon-style definition gives {-1}, matching the
        convention that the valuation ring has type 1.
        """
        if self.conductor == 0:
            return (-1,)
        pf = self._pf_bits
        return _bit_positions(self._apery_pass() if pf is None else pf)

    @property
    def type(self) -> int:
        """Number of pseudo-Frobenius numbers: a popcount of their bits.

        A tree node (``_child``) stores it in a slot of this name instead.
        """
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
        if j < 0:
            raise InvalidInput(f"small element index must be non-negative, got {j}")
        if j <= self.n:
            return self.small_elements[j]
        return self.conductor + (j - self.n)

    def small_index(self, x: int) -> int:
        """Index j with extended small element s_j = x (x must be a member).

        A member x below c is preceded by the n members below c less those
        from x on: n minus the popcount of the mask shifted down by x, one
        shift where masking the bits below x takes three big-int steps.
        """
        c = self.conductor
        if x >= c:
            return self.n + (x - c)
        rest = self.mask >> x if x >= 0 else 0
        if not rest & 1:
            raise InvalidInput(f"{x} is not a member")
        return self.n - rest.bit_count()

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
        return from_small_elements(*parse_encoding(text))

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


class _TreeNode(NumericalSemigroup):
    """A semigroup built by ``_child``, with its type r stored.

    ``_child`` has the pseudo-Frobenius bits at hand and stores their
    popcount in the slot ``type``, which shadows the property: the census
    reads r several times per node, each a plain slot read.  In all else
    a node is a ``NumericalSemigroup``; it compares, hashes and pickles as
    one, and unpickles as one.
    """

    __slots__ = ("type",)


def schur_bound(generators) -> int:
    """Schur's bound (min g - 1)(max g - 1) on the conductor (Brauer 1942)."""
    return (min(generators) - 1) * (max(generators) - 1)


def from_generators(generators) -> NumericalSemigroup:
    """Semigroup generated by a coprime set of positive integers.

    S is the sum of the monoids gN, so the sieve adds the multiples of
    each generator in turn, doubling the shift: mask |= mask << g, << 2g,
    << 4g, ...  The table covers the Schur bound plus min(generators)
    bits, so every gap lies inside it and the conductor is one past the
    largest non-member found; one sieve suffices.  A generator that is not
    an int, a float or a bool among them, is an ``InvalidInput``.
    """
    gens = require_ints("generators", generators)
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


def parse_encoding(text: str) -> tuple[list[int], int]:
    """The listed members and the conductor of an encoding, unchecked.

    Reads the text only: nothing of the conductor's size is allocated.
    """
    parts = text.split("|")
    if len(parts) != 2:
        raise EncodingError(f"bad semigroup encoding: {text!r}")
    try:
        conductor = int(parts[1])
        elements = [int(t) for t in parts[0].split(",") if t != ""]
    except ValueError as exc:
        raise EncodingError(f"bad semigroup encoding: {text!r}") from exc
    return elements, conductor


def from_small_elements(elements, conductor: int) -> NumericalSemigroup:
    """Semigroup from its members below ``conductor`` plus the tail.

    Members >= conductor may appear in ``elements``; they are redundant and
    are folded into the tail, which lets encodings that list the conductor
    itself round-trip.  The members and the conductor must be ints: a
    float or a bool is an ``InvalidInput``, not truncated.
    """
    require_count(conductor=conductor)
    elems = require_ints("members", elements)
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


@functools.lru_cache(maxsize=1)
def is_arf(S: NumericalSemigroup) -> bool:
    """Whether s + t - u is a member for all members s >= t >= u.

    Equivalently, 2x - y is a member for all members x >= y (Campillo,
    Farran & Munuera 2000).  The triple form gives the pair form with
    s = t = x.  Conversely, write the triple as z, z + b, z + a with
    a >= b >= 0; z + a + b is a member, by induction on a + b: it is z + a
    for b = 0 and the pair (z + a, z) for a = b, and for a > b > 0 the
    members z + b, z + 2b (the pair (z + b, z)) and z + a are a triple at
    z + b with a - b and b, of smaller sum.

    2x - y >= x, so only members x < c need a check, and only the values
    2x - y = x + t in [x, c).  With rev the reversal of S (bit c - k per
    member k < c), bit t of rev >> (c - x) says x - t is a member and bit
    t of the gaps >> x says x + t is a gap: x fails exactly when both
    are set.  One shift each, so the test is linear in the members.
    """
    c = S.conductor
    rev = S._reversal()
    gaps = ~S.mask & _ones(c)
    return not any(gaps >> x & rev >> (c - x) for x in S.small_elements[:-1])


def from_bits(members: int, stop: int) -> NumericalSemigroup:
    """The semigroup with these membership bits below ``stop``, full from it."""
    c = (~members & _ones(stop)).bit_length()
    return NumericalSemigroup(c, members & _ones(c))


def oversemigroups(
    S: NumericalSemigroup, limit: int | None = None
) -> list[NumericalSemigroup]:
    """All numerical semigroups containing S, including S and N.

    They are S and the T of ``IdealTable.oversemigroup_walk``, in the order
    of ``sorted_oversemigroups``, so S comes first and N last.  Their number
    grows exponentially with the genus, so with a ``limit`` the walk stops,
    and ``BoundTooLarge`` is raised, as soon as the list would pass it; a
    ``limit`` that is not an int >= 0 is an ``InvalidInput``.
    """
    from .invariants import IdealTable  # invariants imports this module

    require_count(limit=limit)
    table = IdealTable(S, [])
    found = sorted_oversemigroups(table, table.oversemigroup_walk(limit))
    return [S] + [T for T, _, _ in found]


def sorted_oversemigroups(table, pairs) -> list[tuple[NumericalSemigroup, int, int]]:
    """(T, T's bits, S - T's bits) per (T, S - T) pair of window bits on ``table``.

    ``pairs`` is read to its end before any T is built; the list is sorted
    by descending genus, then by small elements.
    """
    offset, top = table.offset, table.top
    overs = [(from_bits(T >> offset, top), T, I) for T, I in list(pairs)]
    overs.sort(key=lambda over: (-over[0].genus, over[0].small_elements))
    return overs
