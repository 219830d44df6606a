"""Type sequences and the duality invariants a, b, d of proper ideals.

For a semigroup S with small elements s_0 < ... < s_n, the chain
R_i = {s in S : s >= s_i} interpolates between S and the tail gamma.
The i-th type is r_i = l((S - R_i) / (S - R_{i-1})); the same number is
the drop l(K + R_{i-1} / K + R_i) along the canonical-ideal products, which
the census re-derives as a named check.

The chain duals come from one backward walk.  For m >= n the extended
R_m is a tail, so S - R_m is the tail from c - s_m (N when m = n), and
R_{i-1} = R_i + {s_{i-1}} gives S - R_{i-1} = (S - R_i) & (-s_{i-1} + S):
one shift of S's bits and one AND per step.  With L_i the members of
S - R_i below c, r_i = L_i - L_{i-1}; ``type_sequence`` and
``extended_type_sequence`` read this one walk, and ``IdealTable`` reads
the cached ``type_sequence``.

For a proper integral ideal I with bidual I**, ideal conductor c_I and
n_I = c_I - genus, the marked indices are
V = {h >= 1 : s_{h-1} in I**} (extended small elements); every h > n_I is
marked, so V is stored through its complement W inside [1, n_I], as the
bits U = S & ~I** below c_I of the s_{h-1} with h in W.  Sums of r_h over
W or a cut of it are popcounts: with level masks L_k (k = 2, ..., r; not
the lengths above) holding the small elements s_{h-1} (h <= n) with
r_h >= k, and r_h = 1 from c on,
sum of r_h over U = popcount(U) + sum over k >= 2 of popcount(U & L_k).
The invariants are

    a(I) = l((S - I)/S) - l(S/I)
    b(I) = type * l(S/I) - l((S - I)/S)
    d(I) = l(tail(c - c_I) / (S - I)) - sum of r_h over marked h <= n_I

and ``decomposition_checks`` re-derives a and b from the type sequence
through the marked-index bookkeeping, together with every bound and
identity the theory provides, returning each as a plain check tuple
(id, passed, lhs, rhs) with both sides evaluated as ints.  Both it and
``decomposition_tally`` read one function that evaluates each side of
each check once, into a flat id, relation, lhs, rhs sequence; the tally
gives the census the row's signature (its sequence of check ids) and
builds the tuples only when a check fails.  ``decomposition_check`` is
the report over one ideal: a view of its row and of those checks as
``Check`` records, the public record type every report holds.
``overring_checks`` and the ``overring_check`` report stand in the same
relation; the census tallies those tuples as they are.

The row of an ``IdealTable`` is the one record of these per-ideal
quantities: a and b, the lengths, I**, K.I, the marks and d are computed
there and nowhere else.  a, b and the lengths are set with the row; I**
and K.I on first read; and everything that hangs off I** (the marks,
their r-sum, c_{I**}, l(I**/I), d of I and of I**, the principal and
closed flags) in one step on the first read of any of it.  Values are
stored in the row without a lock, and the facts of S that every row
reads are read once per table (``IdealTable.facts``).  d has a closed
form: every unmarked s_{h-1} lies below c_{I**} <= c_I, so the marked
sum up to n_I is prefix[n_I] less the unmarked r-sum (``IdealRow.d_for``).
Colons and K.I are one call each of the semigroup
module's kernels ``colon_bits`` and ``sum_bits``.  ``ab_invariants``,
``d_invariant``, ``decomposition_check`` and ``overring_check`` read the
row of a one-row table built for their ideal; no caller hands in a row.
The census builds one table per semigroup by ``IdealTable.family`` and
hands its rows to the ideals, pairs, colon_growth and equivalences
groups.  Its ideals and the oversemigroups T of S come from one reverse
search on the table's window (``IdealTable._reverse_search``), each dual
coming down by one AND per step; every conductor ideal S - T is proper
and integral with conductor c, so the walk's S - T is a row of
conductor c, whatever the window.  ``typeseq overrings`` makes one such
walk on the table of S alone and builds a row from each S - T.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from operator import attrgetter, eq, ge, le, sub
from typing import NamedTuple

from .errors import (
    BoundTooLarge,
    InternalInconsistency,
    InvalidInput,
    NotOversemigroup,
    ParentMismatch,
    require_count,
)
from .ideals import (
    RelativeIdeal,
    _normalized,
    canonical_ideal,
    dedekind_different,
    dual,
    length_between,
    require_proper,
    tail_ideal,
    unit_ideal,
)
from .semigroup import (
    NumericalSemigroup,
    _bit_positions,
    _ones,
    colon_bits,
    from_bits,
    is_arf,
    sum_bits,
)

try:
    from operator import call
except ImportError:  # Python 3.10

    def call(fn, *args):
        return fn(*args)


class Check(NamedTuple):
    """One verified relation with both evaluated sides, as an immutable tuple."""

    id: str
    passed: bool
    lhs: int
    rhs: int


# The producers build plain (id, passed, lhs, rhs) tuples, which the census
# tallies as they are; a ``Check`` costs about twice as much as the tuple.
CheckTuple = tuple[str, bool, int, int]


def _eq(cid: str, lhs: int, rhs: int) -> CheckTuple:
    return (cid, lhs == rhs, int(lhs), int(rhs))


def _le(cid: str, lhs: int, rhs: int) -> CheckTuple:
    return (cid, lhs <= rhs, int(lhs), int(rhs))


def _ge(cid: str, lhs: int, rhs: int) -> CheckTuple:
    return (cid, lhs >= rhs, int(lhs), int(rhs))


def _records(checks) -> tuple[Check, ...]:
    """The ``Check`` records of a public report, from its check tuples."""
    return tuple(map(Check._make, checks))


@dataclass(frozen=True)
class TypeSequence:
    """The sequence (r_1, ..., r_n); empty exactly for S = N."""

    parent: NumericalSemigroup
    values: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)


def _chain_dual_lengths(S: NumericalSemigroup, m: int) -> tuple[int, ...]:
    """(L_0, ..., L_m) for m >= n: L_i counts the members below c of S - R_i.

    Bit k of the walk stands for k - s_m: each S - R_i contains S and lies
    in S - R_m, so [-s_m, c) decides it.  For i >= n, S - R_i is the tail
    from -(i - n), so L_i = s_i and r_i = 1; the census checks these ones
    as ``sg_ts_extension_ones``, and ``IdealTable`` extends the cached
    ``type_sequence`` by them.
    """
    c, top = S.conductor, S.small_element(m)
    members = S.bits_below(c + top)
    acc = _ones(top) << c  # S - R_m, the tail from c - s_m
    lengths = [top]
    # s_{m-1}, ..., s_0: the extended small elements below s_m, backwards
    for s in reversed(S.small_elements[:-1] + tuple(range(c, top))):
        acc &= members << (top - s)
        lengths.append(acc.bit_count())
    lengths.reverse()
    return tuple(lengths)


@functools.lru_cache(maxsize=1)
def type_sequence(S: NumericalSemigroup) -> TypeSequence:
    """Compute (r_1, ..., r_n) as r_i = L_i - L_{i-1}.

    L_i counts the members below c of S - R_i, accumulated backwards from
    S - R_n = N by one shift and one AND per step, not by a colon each.
    The cache holds the last semigroup's: the census and the CLI read a
    semigroup's type sequence only while they visit it, so a larger cache
    hits no more often and keeps earlier semigroups alive.

    The census checks the entries: r_1 is the type (``sg_ts_first_is_type``),
    each lies in [1, r_1] (``sg_ts_entries_in_range``), they sum to the
    genus (``sg_ts_sum_is_genus``) and their excesses to l(K/S)
    (``sg_ts_deficit_sum``).
    """
    L = _chain_dual_lengths(S, S.n)
    return TypeSequence(S, tuple(map(sub, L[1:], L[:-1])))


def extended_type_sequence(S: NumericalSemigroup, m: int) -> tuple[int, ...]:
    """(r_1, ..., r_m) for m >= n; the entries beyond n are 1."""
    if m < S.n:
        raise InvalidInput(f"extension length {m} is below n = {S.n}")
    L = _chain_dual_lengths(S, m)
    return tuple(map(sub, L[1:], L[:-1]))


class _lazy:
    """A property computed on first read and stored in the instance dict.

    Later reads find the value there, before this non-data descriptor;
    unlike ``functools.cached_property`` on Python 3.11, no lock is taken.
    """

    def __init__(self, fn):
        self.fn, self.__doc__ = fn, fn.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


def ab_invariants(S: NumericalSemigroup, I: RelativeIdeal) -> tuple[int, int]:
    """(a, b) for a proper integral ideal I, read from its ``IdealTable`` row."""
    row = IdealTable(S, [I]).rows[0]
    return row.a, row.b


class _marked:
    """A row attribute that ``IdealRow._mark`` sets together with the others.

    The first read of any of them runs the step, which stores every mark in
    the row's dict; later reads find them there, before this descriptor.
    """

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        obj._mark()
        return obj.__dict__[self.name]


class IdealRow:
    """One ideal of an ``IdealTable``: the one record of its invariants.

    I's window bits, min(I) and c_I read off them, I* (``dual``, which the
    table hands in) with the popcounts, l(S/I), l(I*/S), a and b are set
    when the row is built.  I itself (``ideal``), l((I - M)/I)
    (``maximal_growth``), I** (``bidual``, the colon S - I*) and K.I
    (``omega``, from the table's ``canonical`` bits) are computed on first
    use, each alone.  Everything that hangs off I** is computed in one
    step, ``_mark``, on the first read of any of it: the unmarked bits
    (``unmarked_bits``, S & ~I** below c_I) and their r-sum, I**'s
    conductor (``bidual_conductor``), l(I**/I) (``bidual_drop``), d of I
    and of I**, and the flags ``principal`` (I = min(I) + S) and
    ``closed`` (I = S from min(I) on).  Values are stored in the row's
    dict without a lock, so every group reads the same ones, each computed
    once per ideal; a row read only for a, b and the lengths never takes
    the step.  The index tuple ``unmarked`` is only the view a report
    shows.  ``decomposition_check`` reports are views of
    ``decomposition_checks`` over the row, with its check tuples turned
    into ``Check`` records.
    """

    unmarked_bits = _marked()
    unmarked_sum = _marked()
    bidual_conductor = _marked()
    bidual_drop = _marked()
    d = _marked()
    bidual_d = _marked()
    principal = _marked()
    closed = _marked()

    def __init__(self, table: IdealTable, bits: int, dual: int):
        self.table = table
        self.bits = bits
        self.min_element = (bits & -bits).bit_length() - 1 - table.offset
        self.conductor = (bits ^ table.window).bit_length() - table.offset
        self.dual = dual
        self.length = self.bits.bit_count()
        self.dual_length = self.dual.bit_count()
        self.l_quotient = table.unit_length - self.length
        self.l_dual = self.dual_length - table.unit_length
        self.a = self.l_dual - self.l_quotient
        self.b = table.type * self.l_quotient - self.l_dual

    @_lazy
    def ideal(self) -> RelativeIdeal:
        """I itself, in normal form; a report or a violation names it."""
        table = self.table
        return _normalized(table.S, -table.offset, table.top, self.bits)

    @_lazy
    def bidual(self) -> int:
        """I** bits."""
        return self.table.colon(self.table.unit, self.dual)

    @_lazy
    def maximal_growth(self) -> int:
        """l((I - M)/I), M the maximal ideal S without 0."""
        table = self.table
        return table.colon(self.bits, table.maximal).bit_count() - self.length

    @_lazy
    def omega(self) -> int:
        """K.I bits, the product with the canonical ideal, cut to the window.

        One ``sum_bits`` call: K + g over I's generators g.  I is proper,
        so its bits shifted down by offset lose nothing and keep each shift
        of K narrow.  A generator at or past top adds nothing below top,
        where K.I is full anyway.
        """
        table = self.table
        gens = self.bits >> table.offset
        return sum_bits(table.canonical, gens, table.S.multiplicity) & table.window

    def _mark(self) -> None:
        """Set every ``_marked`` attribute of the row, in one step.

        They are the unmarked bits, their r-sum, c_{I**}, l(I**/I), d of I
        and of I** (``bidual_d``), and two flags.  I is the translate
        min(I) + S (``principal``) when its conductor is min(I) + c and,
        below it, its bits are S's shifted by min(I); it is integrally
        closed (``closed``) when its bits are S's from min(I) on.
        """
        table = self.table
        bidual, offset, unit = self.bidual, table.offset, table.unit
        m = self.min_element
        k = m + offset
        unmarked = table.unmarked_bits(bidual, self.conductor)
        c_bid = (bidual ^ table.window).bit_length() - offset
        marks = self.__dict__
        marks["unmarked_bits"] = unmarked
        marks["unmarked_sum"] = table.r_sum(unmarked)  # d_for reads it
        marks["bidual_conductor"] = c_bid
        marks["bidual_drop"] = bidual.bit_count() - self.length
        marks["d"] = self.d_for(self.conductor)
        marks["bidual_d"] = self.d_for(c_bid)
        marks["principal"] = (
            self.conductor == m + table.S.conductor
            and self.bits == (unit << m) & table.window
        )
        marks["closed"] = self.bits == unit >> k << k

    @_lazy
    def unmarked(self) -> tuple[int, ...]:
        """The h in [1, n_I] with s_{h-1} outside I**; the others are marked.

        s_{h-1} runs over the set bits of ``unmarked_bits``, and h - 1 is
        its index among the extended small elements.  The invariants read
        the bits; this is the view reports show.
        """
        table = self.table
        small_index = table.S.small_index
        bits = self.unmarked_bits >> table.offset
        out = [small_index(x) + 1 for x in _bit_positions(bits)]
        return tuple(out)

    def d_for(self, conductor: int) -> int:
        """d of I (at c_I) or of I** (at c_{I**}), which share I* and the marks.

        d(x) = l(tail(c - x) / I*) - (sum of r_h over the marked h <= m),
        m = x - genus, and that sum is prefix[m] less the r-sum of the
        unmarked h <= m.  Every unmarked h has s_{h-1} below c_{I**}, as I**
        holds every integer from its conductor on; and c <= c_{I**} <= c_I,
        as I <= I** <= S.  So for x = c_I or c_{I**}, s_m = c + (m - n) = x
        is at or past every unmarked s_{h-1}, every unmarked h is <= m, and

            d(x) = tail_length(c - x) - l(I*) - prefix[m] + unmarked_sum,

        with no r-sum of a cut of the marks.
        """
        facts = self.table.facts
        return (
            facts.tail_base
            - facts.conductor
            + conductor
            - self.dual_length
            - facts.prefix[conductor - facts.genus]
            + self.unmarked_sum
        )


class _Facts(NamedTuple):
    """S's facts on an ``IdealTable``, for ``_decomposition`` and ``d_for``."""

    type: int  # the table's, read from S once per table
    genus: int
    conductor: int
    n: int
    a_gamma: int  # a of the tail, 2 genus - c
    almost_gorenstein: bool  # type - 1 == a_gamma
    tail_c: int  # window bits of the tail from c
    theta: int  # window bits of the different S - K
    s_1: int  # the extended small element s_1
    tail_base: int  # tail_length(t) is tail_base - t
    prefix: tuple[int, ...]
    arf: bool


class IdealTable:
    """Proper integral ideals of S as membership bits on one absolute window.

    Bit k of a row stands for the integer k - offset, for k below
    offset + top (``window`` has these bits set), and every integer >= top
    is a member.  With both set to one past the largest conductor of S and
    the ideals, the window holds every set a row or the decomposition
    reads: I <= I** <= S and I <= K.I (minimum min(I), conductor at most
    c_I); I*, S (``unit``) and the different theta = S - K (each contains
    S or its tail, so has conductor at most S's; z in I* has
    z + min(I) >= 0, and theta is inside S); the chain duals S - R_i for
    s_i <= min(I) (they contain S and start at -s_i or above); the tail
    from any t >= -offset, whose window bits are ``tail_mask(t)``; and
    J - X for rows J and X (it starts above -offset and is full from top
    on).  On this layout E is inside F exactly when ``E & ~F == 0``, and
    l(F/E) is then the difference of the popcounts.  ``colon`` takes
    these colons on the window through ``colon_bits``, the kernel of
    ``ideals.colon`` and of the Apery pass.  The chain data read the
    cached ``type_sequence`` of S, extended by r_h = 1 past n: ``prefix``
    holds its running sums, ``chain_dual_length`` the lengths of the
    S - R_i, and the level masks L_2, ..., L_r (``levels``) the window
    bits of the small elements s_{h-1}, h <= n, with r_h >= k, so
    ``r_sum`` gives a sum of r_h over a set of S's window bits as
    popcounts.  A row's bits must lie in S without 0 (``maximal``): the
    ideal is proper and integral.  Building the table computes each dual
    once, as the colon S - I; the table of ``family`` carries it down its
    reverse search instead, one AND with S - x, a shift of ``filled``, per
    member x added.  S's type is read once per table, into ``type``, which
    each row's b and ``facts`` read.  Everything else, the masks included,
    is computed on first use; ``facts`` gathers, once per table, the facts
    of S that each row's marks and decomposition read.
    """

    def __init__(self, S: NumericalSemigroup, ideals):
        self._lay_out(S, max([S.conductor] + [E.conductor for E in ideals]) + 1)
        for E in ideals:
            if E.parent != S:
                raise ParentMismatch("the ideal belongs to another semigroup")
            if E.min_element < 1:
                require_proper(E)  # raises: 0 or less is a member
            bits = self.bits_of(E)
            if bits & ~self.maximal:
                require_proper(E)  # raises: a gap of S is a member
                raise InternalInconsistency("an improper ideal passed require_proper")
            self.rows.append(IdealRow(self, bits, self.colon(self.unit, bits)))

    def _lay_out(self, S: NumericalSemigroup, top: int) -> None:
        """S's fields on the window of the given top, with no rows yet."""
        self.S = S
        self.type = S.type
        self.top = top
        self.offset = top
        self.window = _ones(self.offset + self.top)
        self.unit = self.bits_of(unit_ideal(S))
        # The members past the window that ``colon`` fills in, on each side.
        e, span = S.multiplicity, self.offset + self.top
        self._fill_a = _ones(self.top + e) << span
        self._fill_b = _ones(e) << span
        self.filled = self.unit | self._fill_a  # S - x is filled >> x
        self._unit_a = self.filled << self.offset
        self.maximal = self.unit & ~(1 << self.offset)  # S without 0
        self.unit_length = self.unit.bit_count()
        self.rows: list[IdealRow] = []

    @classmethod
    def family(cls, S: NumericalSemigroup, window: int) -> IdealTable:
        """The table of every proper integral ideal within ``window`` of S.

        These are the ideals J that hold the tail from t = c + window: the
        nodes of ``_reverse_search`` from that tail, with I* from the tail
        from -window.  The parent of J is J minus m = min(J), again such an
        ideal: m < t, and y + s = m with y in J, s in S forces s = 0.  Every
        node is a row.  S = N at window 0 has no rows, its tail from 0 being
        S.  Rows are in ``RelativeIdeal.sort_key`` order; top is t + 1.
        A ``window`` that is not an int >= 0 is an ``InvalidInput``.
        """
        require_count(window=window)
        t = S.conductor + window
        table = cls.__new__(cls)
        table._lay_out(S, t + 1)
        if t:
            root, dual = table.tail_mask(t), table.tail_mask(-window)
            walk = table._reverse_search(0, table.maximal, 0, root, dual)
            table.rows = [IdealRow(table, bits, dual) for bits, dual in walk]
            # RelativeIdeal.sort_key: with min and c_E equal, bits order as masks
            table.rows.sort(key=attrgetter("min_element", "conductor", "bits"))
        return table

    def oversemigroup_walk(self, limit: int | None = None):
        """Each oversemigroup T != S once, as the window bits of T and S - T.

        The nodes of ``_reverse_search`` from S but S.  The parent of T is
        T minus m = min(T - S), again an oversemigroup: the nonzero members
        of T below m lie in S, and so do their sums.  S - T is proper and
        integral with conductor c, so on the table of ``family`` it is a row.
        Their number grows exponentially with the genus, so with a ``limit``
        the walk raises ``BoundTooLarge`` as soon as S and the T yielded so
        far pass it: at once for 0, else right after the limit-th T.
        """
        unit = self.unit
        gaps = self.tail_mask(0) & ~unit
        walk = self._reverse_search(unit, gaps, self.tail_mask(1), unit, unit)
        for found, pair in enumerate(walk):  # S itself is the root
            if found:
                yield pair
            if found == limit:
                raise BoundTooLarge(
                    f"more than {limit} oversemigroups (genus {self.S.genus})"
                )

    def _reverse_search(self, base: int, pool: int, own: int, root: int, dual: int):
        """Each node of a reverse search (Avis & Fukuda 1996) once, with its dual.

        Yields window bits (X, S - X) from ``root`` and its ``dual`` on.  The
        parent of X is X minus m = min(X - base); its children are the
        X + {x} for x in ``pool`` below m (any at X = base), with x + C in
        X + {x}, C being S - {0} and the members of X + {x} in ``own``.
        S - (X + {x}) = (S - X) & (S - x), one shift of ``filled``.  The test
        reads the sets shifted down by offset: no node has a negative member.
        The argument sets: ideals (base 0, pool S - {0}, own 0, root a tail),
        oversemigroups (base and root S, pool its gaps, own the integers from
        1) and classes E with S + E = E, S inside E (as for T, but own 0).
        """
        offset, filled, whole = self.offset, self.filled, _ones(self.top)
        maximal = self.maximal >> offset
        base, pool, own = base >> offset, pool >> offset, own >> offset
        stack = [(root, dual)]
        while stack:
            bits, dual = stack.pop()
            yield bits, dual
            node = bits >> offset
            holes, new = whole & ~node, node & ~base
            closure = maximal | (node & own)
            below = pool & ((new & -new) - 1)  # all of pool when new is 0
            while below:
                low = below & -below
                below ^= low
                x = low.bit_length() - 1
                if not ((closure | (low & own)) << x) & holes:
                    stack.append((bits | (low << offset), dual & (filled >> x)))

    def bits_of(self, E: RelativeIdeal) -> int:
        """E's members below top, placed on the absolute window."""
        return E.bits_below(self.top) << (E.min_element + self.offset)

    def colon(self, A: int, B: int) -> int:
        """Window bits of A - B, for window sets A and B whose colon fits.

        A is shifted up by offset, so that its bit k + j is the integer
        z + g for z at bit k of the result and g at bit j of B; the bits
        past the window, members of both, are filled in as far as the
        shifts read them (B to its conductor + e).  The fills, and the
        filled and shifted S of every dual, are computed once per table.
        """
        if A == self.unit:
            a = self._unit_a
        else:
            a = (A | self._fill_a) << self.offset
        return colon_bits(a, B | self._fill_b, self.S.multiplicity) & self.window

    def colons(self, A: int, B: int, C: int) -> tuple[int, int]:
        """Window bits of A - B and of A - C, with A filled and shifted once."""
        a = (A | self._fill_a) << self.offset
        e, fill, window = self.S.multiplicity, self._fill_b, self.window
        return colon_bits(a, B | fill, e) & window, colon_bits(a, C | fill, e) & window

    def unmarked_bits(self, bidual: int, conductor: int) -> int:
        """Window bits of S & ~I** below c_I: the s_{h-1} of the unmarked h.

        ``bidual`` holds I**'s bits and ``conductor`` is c_I.  A true I**
        holds every integer from c_{I**} <= c_I on, so the cut at c_I only
        matters when I** is wrong.
        """
        return self.unit & ~bidual & ((1 << (conductor + self.offset)) - 1)

    def tail_length(self, start: int) -> int:
        """Window members of the tail from ``start``."""
        return self.top - start

    def tail_mask(self, start: int) -> int:
        """Window bits of the tail from ``start``."""
        return _ones(self.top - start) << (start + self.offset)

    def chain_dual_length(self, i: int) -> int:
        """Window members of S - R_i (R_i: the members of S from s_i on).

        S - R_0 = S has c - genus members below c, and each step adds r_i.
        """
        return self.prefix[i] + self.top - self.S.genus

    @_lazy
    def facts(self) -> _Facts:
        """The facts of S that each row's d and decomposition read, read once."""
        S = self.S
        r, delta, c = self.type, S.genus, S.conductor
        a_gamma = 2 * delta - c
        return _Facts(
            r,
            delta,
            c,
            S.n,
            a_gamma,
            r - 1 == a_gamma,
            self.tail_mask(c),
            self.theta,
            S.small_element(1),
            self.tail_length(0),
            self.prefix,
            is_arf(S),
        )

    @_lazy
    def canonical(self) -> int:
        """Bits of the canonical ideal K."""
        return self.bits_of(canonical_ideal(self.S))

    @_lazy
    def theta(self) -> int:
        """Bits of the different S - K."""
        return self.bits_of(dedekind_different(self.S))

    @_lazy
    def levels(self) -> tuple[int, ...]:
        """(L_2, ..., L_r): L_k has the window bits of s_{h-1}, h <= n, r_h >= k.

        Built in one visit of each h <= n and of each unit of its excess
        r_h - 1, O(n + 2 genus - c) in all; see ``r_sum``.  The list is
        sized by the largest entry, which is r_1 = r, so an entry above the
        type shows as a failed check of the census, not as an error here.
        """
        S = self.S
        values = type_sequence(S).values
        levels = [0] * (max(values, default=1) - 1)
        for s, r in zip(S.small_elements, values):
            for k in range(r - 1):
                levels[k] |= 1 << s
        return tuple(level << self.offset for level in levels)

    def r_sum(self, bits: int) -> int:
        """Sum of r_h over the s_{h-1} at ``bits``, window bits of members of S.

        r_h is 1 plus the number of levels that hold s_{h-1} (none do from
        c on), so the sum is popcount(bits) plus each popcount(bits & L_k).
        """
        total = bits.bit_count()
        for level in self.levels:
            total += (bits & level).bit_count()
        return total

    @_lazy
    def prefix(self) -> tuple[int, ...]:
        """prefix[h] = r_1 + ... + r_h for h <= top - genus; r_h = 1 past n."""
        S = self.S
        r = type_sequence(S).values + (1,) * (self.top - S.conductor)
        return tuple(itertools.accumulate(r, initial=0))


def gamma_invariants(S: NumericalSemigroup) -> tuple[int, int]:
    """(a, b) of the tail ideal; (0, 0) for S = N where the tail is S itself."""
    if S.conductor == 0:
        return (0, 0)
    return ab_invariants(S, tail_ideal(S, S.conductor))


def sigma(S: NumericalSemigroup) -> int:
    """a of the tail minus l(S/different)."""
    if S.conductor == 0:
        return 0
    theta = dedekind_different(S)
    return (2 * S.genus - S.conductor) - length_between(unit_ideal(S), theta)


def d_invariant(S: NumericalSemigroup, I: RelativeIdeal) -> int:
    """d(I) for a proper integral ideal I, read from its ``IdealTable`` row."""
    return IdealTable(S, [I]).rows[0].d


@dataclass(frozen=True)
class IdealInvariantReport:
    """Full invariant record for one proper integral ideal."""

    semigroup: str
    ideal: str
    a: int
    b: int
    d: int
    ideal_conductor: int
    n_relative: int
    v_complement: tuple[int, ...]
    l_quotient: int
    l_dual: int
    l_bidual_drop: int
    reflexive: bool
    integrally_closed: bool
    omega_stable: bool
    principal: bool
    checks: tuple[Check, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def decomposition_check(
    S: NumericalSemigroup, I: RelativeIdeal
) -> IdealInvariantReport:
    """Evaluate every decomposition identity and bound for (S, I).

    I is a proper integral ideal of S.  The report is a view of I's row in
    a one-row table and of ``decomposition_checks(row)``, the one path that
    evaluates the checks.
    """
    row = IdealTable(S, [I]).rows[0]
    return IdealInvariantReport(
        semigroup=S.encode(),
        ideal=I.encode(),
        a=row.a,
        b=row.b,
        d=row.d,
        ideal_conductor=I.conductor,
        n_relative=I.conductor - S.genus,
        v_complement=row.unmarked,
        l_quotient=row.l_quotient,
        l_dual=row.l_dual,
        l_bidual_drop=row.bidual_drop,
        reflexive=row.bidual == row.bits,
        integrally_closed=row.closed,
        omega_stable=row.omega == row.bits,
        principal=row.principal,
        checks=_records(decomposition_checks(row)),
    )


def decomposition_checks(row: IdealRow) -> tuple[CheckTuple, ...]:
    """Every decomposition identity and bound for the ideal of ``row``.

    These are the check tuples of ``_decomposition(row)``, in its order.
    """
    return _tuples(_decomposition(row))


def decomposition_tally(
    row: IdealRow,
) -> tuple[tuple[str, ...], tuple[CheckTuple, ...]]:
    """(signature, checks): the row's check ids, and its tuples on a failure.

    The checks are those of ``decomposition_checks``, built only when one
    of them fails; when every check passes they are (), and the census
    needs nothing but the signature to tally the row.
    """
    checks = _decomposition(row)
    signature = tuple(checks[::4])
    if all(map(call, checks[1::4], checks[2::4], checks[3::4])):
        return signature, ()
    return signature, _tuples(checks)


def _tuples(checks: list) -> tuple[CheckTuple, ...]:
    """The check tuples of a flat id, relation, lhs, rhs, ... sequence."""
    lhs, rhs = checks[2::4], checks[3::4]
    passed = map(call, checks[1::4], lhs, rhs)
    return tuple(zip(checks[::4], passed, map(int, lhs), map(int, rhs)))


def _decomposition(row: IdealRow) -> list:
    """The decomposition checks of ``row``, flat: id, relation, lhs, rhs, ...

    Each check is one line, evaluated once; the relation is ``eq``, ``le``
    or ``ge`` of the two sides.  Conditional statements (those whose
    hypothesis is a property of S or I) are included only when the
    hypothesis holds, so tallies count genuine instances; the ids that a
    row includes, in order, are its signature.
    """
    table = row.table
    (
        r, delta, c, n, a_gamma, almost_gorenstein, tail_c, theta, s_1,
        tail_base, prefix, arf,
    ) = table.facts
    c_i = row.conductor
    n_i = c_i - delta

    unmarked = row.unmarked_bits
    n_unmarked = unmarked.bit_count()
    sum_unmarked = row.unmarked_sum
    sum_marked = prefix[n_i] - sum_unmarked  # every h <= n_I
    # r_h = 1 beyond n, so these sums over all h equal those over h <= n.
    excess_unmarked = sum_unmarked - n_unmarked
    excess_marked = sum_marked - (n_i - n_unmarked)
    defect_unmarked = r * n_unmarked - sum_unmarked
    a, b, d = row.a, row.b, row.d
    l_quot = row.l_quotient
    l_bid = row.bidual_drop
    bid_length = row.length + l_bid
    omega = row.omega
    omega_length = omega.bit_count()
    l_unit_bid = table.unit_length - bid_length
    l_tail_dual = tail_base - c + c_i - row.dual_length  # l(tail(c - c_I)/I*)
    l_bid_gamma = bid_length - tail_base + c_i  # l(I**/tail(c_I))
    l_omega_growth = omega_length - row.length
    refl = row.bidual == row.bits
    stable = omega == row.bits
    # Translates of S stand in for the ring itself, whose d depends on
    # the embedding; statements about almost-symmetric parents quantify
    # over the non-trivial ideals only.
    principal = row.principal
    m = row.min_element
    i0 = table.S.small_index(m)

    checks = [
        # The two headline decompositions.
        "a_from_type_sequence", eq, a, excess_unmarked - l_bid - d,
        "b_from_type_sequence", eq, b, defect_unmarked + r * l_bid + d,
        "a_plus_b_split", eq, a + b, (r - 1) * l_quot,
        "b_nonnegative", ge, b, 0,
        # a against the canonical growth and the tail value.
        "a_at_most_tail_value", le, a, a_gamma,
        "a_via_omega_growth", eq, a, a_gamma - l_omega_growth,
        "a_bidual_drop", eq, a, row.l_dual - l_unit_bid - l_bid,
        # Marked/unmarked sums against lengths.
        "marked_sum_lower", le, l_bid_gamma, sum_marked,
        "marked_sum_upper", le, sum_marked, l_tail_dual,
        "dual_length_bound", le, row.l_dual, sum_unmarked,
        "unmarked_sum_split", eq, sum_unmarked, l_unit_bid + excess_unmarked,
        "omega_growth_lower", ge, l_omega_growth, excess_marked,
        "marked_count_window", eq, n_i - n_unmarked, l_bid_gamma,
        # The unmarked h <= n are the unmarked s_{h-1} below c.
        "marked_count_small", eq,
        n - n_unmarked + (unmarked & tail_c).bit_count(),
        (row.bidual | tail_c).bit_count() - tail_base + c,
        # d and its windows.
        "d_nonnegative", ge, d, 0,
        "d_window_lower", ge, d, l_tail_dual - r * l_bid_gamma,
        "d_window_upper", le, d, l_tail_dual - l_bid_gamma,
        "d_via_omega_product", eq, d, omega_length - bid_length - excess_marked,
        "d_bidual_invariant", eq, d, row.bidual_d,
    ]
    if row.bits & ~theta == 0:
        checks += "d_inside_different", eq, d, omega_length - bid_length
    if stable:
        checks += "d_zero_when_omega_stable", eq, d, 0
    k = m + table.offset  # the unmarked bits from min(I) on
    checks += (
        "d_via_min_index", eq, d,
        table.r_sum(unmarked >> k << k)
        - (row.dual_length - table.chain_dual_length(i0)),
    )
    if row.closed:
        checks += "d_zero_when_integrally_closed", eq, d, 0
    if almost_gorenstein and not principal:
        checks += "d_zero_when_almost_gorenstein", eq, d, 0

    l_i_gamma = row.length - tail_base + c_i  # l(I/tail(c_I))
    join_length = (row.bidual | theta).bit_count()
    checks += (
        # Distance to the tail.  Every r_h >= 1, so no excess means
        # r_h = 1 on every marked h.
        "tail_length_bound", le, l_i_gamma, l_tail_dual,
        "tail_length_equality_iff", eq,
        l_i_gamma == l_tail_dual, refl and d == 0 and excess_marked == 0,
        # Two-sided bounds on a and b.
        "a_upper_bound", le,
        a, (r - 1) * (table.unit_length - join_length) - l_bid,
        "a_lower_bound", ge, a, r - 1 - l_bid - d,
        "b_upper_bound", le, b, (r - 1) * (l_quot - 1) + l_bid + d,
        "b_lower_bound", ge, b, (r - 1) * (join_length - row.length) + l_bid,
    )
    if stable:
        checks += "a_lower_when_omega_stable", ge, a, r - 1
    # Every r_h <= r, so no defect means r_h = r on every unmarked h.
    checks += (
        "b_at_least_reflexive_defect", ge, b, r * l_bid,
        "b_vanishing_iff", eq, b == 0, refl and d == 0 and defect_unmarked == 0,
    )

    # Special parents.  The subtrahend is the closed form of b on the
    # integral closure S cap tail(min): linear steps of r - 1 take over
    # once the index leaves the chain of small elements.
    if arf:
        if i0 <= n:
            b_floor = i0 * s_1 - m
        else:
            b_floor = n * s_1 - c + (i0 - n) * (r - 1)
        checks += "a_bound_when_arf", le, a, (r - 1) * l_quot - b_floor
    if almost_gorenstein and refl and not principal:
        checks += "a_constant_when_ag_reflexive", eq, a, a_gamma
    if r == 1:
        checks += "a_zero_when_type_one", eq, a, 0
    return checks


@dataclass(frozen=True)
class OverringReport:
    """Length of an oversemigroup T over S, verified two ways."""

    semigroup: str
    oversemigroup: str
    conductor_ideal: str
    length: int
    min_index: int
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def conductor_ideal(S: NumericalSemigroup, T: NumericalSemigroup) -> RelativeIdeal:
    """S - T for an oversemigroup T of S: the largest T-module inside S."""
    E_t = RelativeIdeal(S, 0, T.conductor, T.mask)
    if not unit_ideal(S).is_subset_of(E_t):
        raise NotOversemigroup(f"{T.encode()} does not contain {S.encode()}")
    return dual(E_t)


def overring_check(S: NumericalSemigroup, T: NumericalSemigroup) -> OverringReport:
    """Verify the formulas for l(T/S) via the conductor ideal I = S - T.

    T = S is allowed and yields the all-zeros record: the conductor ideal
    would be S itself, which is not proper, and every formula degenerates.
    Otherwise the report is a view of ``overring_checks`` on I's row in a
    one-row table, the one path that evaluates the checks; l(T/S) is the
    genus difference, which they verify on the row's bits.
    """
    if S.bits_below(T.conductor) & ~T.mask:
        raise NotOversemigroup(f"{T.encode()} does not contain {S.encode()}")
    if T == S:
        return OverringReport(S.encode(), T.encode(), "", 0, 0, ())
    row = IdealTable(S, [conductor_ideal(S, T)]).rows[0]
    members = T.bits_below(row.table.top) << row.table.offset
    return OverringReport(
        semigroup=S.encode(),
        oversemigroup=T.encode(),
        conductor_ideal=row.ideal.encode(),
        length=S.genus - T.genus,
        min_index=S.small_index(row.min_element),
        checks=_records(overring_checks(S, members, row)),
    )


def overring_checks(
    S: NumericalSemigroup, members: int, row: IdealRow
) -> tuple[CheckTuple, ...]:
    """The l(T/S) formulas for the row of I = S - T in a table of S.

    ``members`` holds T's bits on the row's table window, as
    ``IdealTable.oversemigroup_walk`` yields them.  I is proper and integral
    with conductor c, so it is a row of any table that holds S's ideals of
    conductor c, whatever its top.  The row is checked against T by one
    colon on its table, a second path to the intersections the walk took;
    the census and the CLI tally or show these tuples as they are.  A row
    that is not S - T is a fault of the program that chose it and raises
    ``InternalInconsistency``.
    """
    table = row.table
    if table.colon(table.unit, members) != row.bits:
        T = from_bits(members >> table.offset, table.top)
        raise InternalInconsistency(f"the row is not S - T for T = {T.encode()}")
    t_length = members.bit_count()
    L = t_length - table.unit_length
    # T** = S - (S - T) is I*.
    l_t_growth = row.dual_length - t_length
    i0 = S.small_index(row.min_element)
    return (
        _eq(
            "overring_length_split",
            L,
            row.unmarked_sum - l_t_growth - row.d,
        ),
        _le("overring_length_bound", L, S.type * row.l_quotient),
        _eq(
            "overring_length_by_min_index",
            L,
            table.prefix[i0]
            - l_t_growth
            + row.dual_length
            - table.chain_dual_length(i0),
        ),
    )
