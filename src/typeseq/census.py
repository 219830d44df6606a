"""Exhaustive enumeration of semigroups and ideals, with theorem censuses.

Semigroups are walked as a tree rooted at N: the children of S are the
sets S minus one minimal generator above the Frobenius number.  Every
numerical semigroup other than N arises exactly once this way (adjoining
the Frobenius number is the inverse step), genus grows by one per edge
and the conductor grows strictly, so pruning by either bound is complete.
A child inherits its facts from its parent (``NumericalSemigroup._child``):
its n, generator bits and pseudo-Frobenius bits come down the tree by a
few shifts, read against S's mask reversed about its conductor, which
comes down the tree too; no Apery pass, no bit reflection and no tuple.
Its type, the popcount of those bits, is stored on it.  A node's small
elements are built only if something reads them, and its children are
read off its generator bits and pushed onto the walk's stack as
``_children`` lists them, in stack order.

The census resolves the query's groups once, not per node: each group
but classification is one function, ``_tally_<group>``, and a node runs
those the query selected, with an ideal table only if one of them reads
it.  The classification group runs in the census loop, which reads each
node's tag, listing and check tuples from ``classification_group``,
counts the nodes that pass by signature in a local and keeps its other
counts in locals too; the report is built once.  Every group tallies
into one store, a count of objects per signature, the sequence of check
ids one object ran, and the signatures are expanded into per-id tallies
at the end.

The proper integral ideals with conductor in a window above that of S
come from one reverse search, ``IdealTable.family``: the parent of an
ideal J is J minus min(J), every node is a table row, and I* comes down
the tree by one AND per step, in place of a colon per ideal.  The ideals,
pairs, colon_growth, equivalences and overrings groups, and the
negative-a search, read this one table per semigroup; each row is the
one record of its ideal's invariants.  The ideals group takes each row's
signature and one pass flag from ``decomposition_tally``; the pairs group
counts the comparable pairs, which all run the same four checks, with one
pass flag each, and the colon_growth group its samples, which run one.
These three build check tuples only for an object with a failing check;
the other groups hand in their tuples, which the store counts by their
ids.  The rows hold membership bits of I, I*, I** and K.I on one
absolute window: bit k is the integer k - offset, and offset and top are
both c + window + 1, where c is S's conductor.  Every ideal here is
proper and integral with conductor at most c + window, so I* starts no
lower than -(c + window) and every set a row reads is full from
c + window on; a subset test is then one AND, a length one popcount
difference, and a colon J - X one call of the table's colon kernel.  The
colon_growth group samples rows and takes its intersections, unions and
colons on these bits: l((J - M)/J) once per row drawn, and the two
colons of a sample with J filled and shifted once.  The semigroup group
reads a, b and K.R_i of its chain, tail and shifted canonical ideals off
one table.  The overrings group walks the oversemigroups T of S by the
same reverse search on the same table (``IdealTable.oversemigroup_walk``),
each once, with the window bits of T and of S - T, a row of conductor c;
the group tallies the tuple ``overring_checks`` produces from that row
and T's bits.  The colon S - T it takes there is a second path to the
row, and a row it disagrees with, or an S - T that is no row, raises
``InternalInconsistency``.  Several T can share S - T, and then share
its row.  No report is built on the way, nor a semigroup for T: an
ideal or oversemigroup is encoded only when one of its checks fails, to
name it in the violation.  The classification's checks, the ids its
signature path counts and the tags it lists live beside the catalogue,
in the classification module; this module imports its entry points
only, and none of its tags.

``verify_theorems`` runs named groups of checks over every enumerated
semigroup (and ideal family); violations are collected, never raised, so
a census documents exactly which identities hold on which range.  With w
workers the selected semigroups are dealt out in turn: worker i walks the
tree itself and censuses the i-th, (i + w)-th, ... of them.  The parts
merge into one order-normalized report, so its bytes do not depend on w;
a serial run is share 0 of 1.
"""

from __future__ import annotations

import itertools
import os
import random
from _json import make_encoder
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from json import JSONEncoder
from json.encoder import encode_basestring_ascii
from operator import itemgetter, le

from .classification import (
    CLASSIFICATION_IDS,
    classification_group,
    ring_classification,
    window_profile,
)
from .errors import (
    BoundTooLarge,
    InternalInconsistency,
    InvalidInput,
    WindowTooLarge,
    require_count,
    require_flags,
)
from .ideals import (
    RelativeIdeal,
    canonical_ideal,
    dedekind_different,
    members_from,
    tail_ideal,
)
from .invariants import (
    CheckTuple,
    IdealTable,
    _eq,
    _le,
    decomposition_tally,
    extended_type_sequence,
    overring_checks,
    sigma,
    type_sequence,
)
from .semigroup import (
    NumericalSemigroup,
    from_bits,
    from_small_elements,
    is_arf,
    parse_encoding,
)

GROUPS = (
    "semigroup",
    "ideals",
    "pairs",
    "colon_growth",
    "equivalences",
    "overrings",
    "profile",
    "classification",
)

_DEFAULT_GENUS_GUARD = 12
_CONDUCTOR_GUARD = 30
_WINDOW_GUARD = 3
_WORKERS_GUARD = 64  # a pool forks all its workers at once


def _genus_guard() -> int:
    text = os.environ.get("TYPESEQ_MAX_GENUS", str(_DEFAULT_GENUS_GUARD))
    if not text.strip().isdecimal():
        raise InvalidInput(
            f"TYPESEQ_MAX_GENUS must be a non-negative integer, got {text!r}"
        )
    return int(text)


@dataclass(frozen=True)
class CensusQuery:
    """Range and options for one census run.

    Exactly one of ``max_genus``, ``max_conductor`` or ``semigroups``
    (explicit encodings, guarded from their text, then decoded here)
    selects the population.  Every bound is an int >= 0, checked before
    any guard compares it, and ``TYPESEQ_MAX_GENUS`` is read and checked
    on every query, ``allow_large`` or not.  The three flags are bools and
    ``checks`` is a non-empty tuple or list of group names or "all".
    """

    max_genus: int | None = None
    max_conductor: int | None = None
    semigroups: tuple[str, ...] | None = None
    window: int = 2
    multiplicity_range: tuple[int, int] | None = None
    gorenstein_only: bool = False
    non_gorenstein_only: bool = False
    checks: tuple[str, ...] = ("all",)
    workers: int = 1
    sample_limit: int = 64
    allow_large: bool = False

    def __post_init__(self):
        selectors = sum(
            x is not None
            for x in (self.max_genus, self.max_conductor, self.semigroups)
        )
        if selectors != 1:
            raise InvalidInput(
                "exactly one of max_genus, max_conductor, semigroups required"
            )
        require_flags(
            gorenstein_only=self.gorenstein_only,
            non_gorenstein_only=self.non_gorenstein_only,
            allow_large=self.allow_large,
        )
        if self.gorenstein_only and self.non_gorenstein_only:
            raise InvalidInput("gorenstein_only conflicts with non_gorenstein_only")
        if not (
            isinstance(self.checks, (tuple, list))
            and self.checks
            and all(isinstance(g, str) for g in self.checks)
        ):
            raise InvalidInput(
                f"checks must be a non-empty sequence of str, got {self.checks!r}"
            )
        bad = [g for g in self.checks if g != "all" and g not in GROUPS]
        if bad:
            raise InvalidInput(f"unknown check groups: {bad}")
        require_count(
            max_genus=self.max_genus,
            max_conductor=self.max_conductor,
            window=self.window,
            workers=self.workers,
            sample_limit=self.sample_limit,
        )
        if self.workers < 1:
            raise InvalidInput("workers must be positive")
        if self.sample_limit < 1:
            raise InvalidInput("sample_limit must be positive")
        if self.semigroups is not None and not (
            isinstance(self.semigroups, (tuple, list))
            and all(isinstance(text, str) for text in self.semigroups)
        ):
            raise InvalidInput(
                f"semigroups must be a sequence of str, got {self.semigroups!r}"
            )
        explicit = [parse_encoding(text) for text in self.semigroups or ()]
        guard = _genus_guard()  # a malformed value is refused under allow_large too
        if not self.allow_large:
            cond_guard = max(_CONDUCTOR_GUARD, 2 * guard)
            if self.max_genus is not None and self.max_genus > guard:
                raise BoundTooLarge(
                    f"max_genus {self.max_genus} above guard {guard}"
                )
            # The genus is read off the text, before decoding allocates c
            # bits: c minus the members listed below c.  c <= 2 * genus for
            # every semigroup, so this refuses every c past 2 * guard, and
            # an encoding that passes lists all but at most guard of its c.
            genus = max(
                (c - len({x for x in members if x < c}) for members, c in explicit),
                default=0,
            )
            if genus > guard:
                raise BoundTooLarge(f"a semigroup of genus {genus} above guard {guard}")
            if self.max_conductor is not None and self.max_conductor > cond_guard:
                raise BoundTooLarge(
                    f"max_conductor {self.max_conductor} above guard {cond_guard}"
                )
            if self.window > _WINDOW_GUARD:
                raise WindowTooLarge(
                    f"window {self.window} above guard {_WINDOW_GUARD}"
                )
            if self.workers > _WORKERS_GUARD:
                raise BoundTooLarge(
                    f"workers {self.workers} above guard {_WORKERS_GUARD}"
                )
        for members, c in explicit:
            from_small_elements(members, c)  # a bad encoding fails here
        if self.multiplicity_range is not None:
            bounds = self.multiplicity_range
            if not (
                isinstance(bounds, (tuple, list))
                and len(bounds) == 2
                and all(type(x) is int for x in bounds)
                and 1 <= bounds[0] <= bounds[1]
            ):
                raise InvalidInput(
                    "multiplicity_range must be two ints lo, hi with "
                    f"1 <= lo <= hi, got {bounds!r}"
                )

    def groups(self) -> tuple[str, ...]:
        if "all" in self.checks:
            return GROUPS
        return tuple(self.checks)

    def to_dict(self) -> dict:
        return {
            "max_genus": self.max_genus,
            "max_conductor": self.max_conductor,
            "semigroups": list(self.semigroups) if self.semigroups else None,
            "window": self.window,
            "multiplicity_range": (
                list(self.multiplicity_range) if self.multiplicity_range else None
            ),
            "gorenstein_only": self.gorenstein_only,
            "non_gorenstein_only": self.non_gorenstein_only,
            "checks": list(self.checks),
            "sample_limit": self.sample_limit,
        }


# -- enumeration -----------------------------------------------------------------


def _children(
    S: NumericalSemigroup,
    max_genus: int | None,
    max_conductor: int | None,
) -> list[NumericalSemigroup]:
    """S minus one minimal generator above the Frobenius number, each.

    Only children within the bounds are built: each has genus one more
    than S, and removing x gives conductor x + 1 >= c + 1, so an S with
    c + 1 past ``max_conductor`` has none, and otherwise x runs over the
    generators from c on, up to ``max_conductor`` - 1 if that is set.
    They are read off S's generator bits, shifted down by c and cut at
    that bound, from the lowest bit up.

    The list is in stack order: the walk pushes it as it is and visits the
    last child first.  Visited, siblings are in the order of their
    encodings, without a sort: T_x and T_y with x < y agree up to x - 1,
    then read str(x + 1) and str(x), of equal length, so T_x sorts after
    T_y, unless x + 1 = 10^j, where "1" < "9" puts T_x first.  So the
    generators are listed in ascending order, but for such an x, which
    goes last.  Only S = N has one child with c = 0; otherwise every x
    lies in [c, c + e) with e <= c, so with k the number of digits of c,
    10^(k-1) <= x < 2c < 10^(k+1) - 1, and x = 10^j - 1 only for j = k:
    there is at most one such x.
    """
    if max_genus is not None and S.genus + 1 > max_genus:
        return []
    c = S.conductor
    if max_conductor is None:
        bits = S._generator_bits() >> c
    elif c + 1 > max_conductor:
        return []
    else:
        bits = S._generator_bits() >> c & (1 << (max_conductor - c)) - 1
    nines = None
    if bits & (bits - 1):
        k = 10 ** len(str(c)) - 1 - c
        if bits >> k & 1:
            bits ^= 1 << k
            nines = c + k
    children = []
    while bits:
        low = bits & -bits
        children.append(S._child(c + low.bit_length() - 1))
        bits ^= low
    if nines is not None:
        children.append(S._child(nines))
    return children


def enumerate_semigroups(
    max_genus: int | None = None,
    max_conductor: int | None = None,
):
    """Depth-first stream of all semigroups within the given bounds.

    The bounds, ints >= 0, are checked on the call, before the stream is read.
    """
    if max_genus is None and max_conductor is None:
        raise InvalidInput("a genus or conductor bound is required")
    require_count(max_genus=max_genus, max_conductor=max_conductor)
    return _walk(max_genus, max_conductor)


def _walk(max_genus: int | None, max_conductor: int | None):
    """Depth first from N: each node's children go onto the stack as listed.

    ``_children`` lists them in stack order, so the pop after a push takes
    the first child in encoding order.  N is within any non-negative
    bounds, and ``_children`` builds no child past them.
    """
    stack = [NumericalSemigroup(0, 0)]
    pop = stack.pop
    while stack:
        S = pop()
        yield S
        stack += _children(S, max_genus, max_conductor)


def enumerate_ideals(S: NumericalSemigroup, window: int) -> list[RelativeIdeal]:
    """All proper integral ideals with conductor within ``window`` of S's.

    For S = N the window alone supplies the conductors (the tails from
    1 through ``window`` are the only proper integral ideals there).  They
    are the ideals of the rows of ``IdealTable.family``, in its order.
    """
    return [row.ideal for row in IdealTable.family(S, window).rows]


# -- reports ---------------------------------------------------------------------


def canonical_json(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``, byte for byte.

    The stdlib falls back to its pure-Python encoder whenever ``indent`` is
    set.  Here Python walks only the containers that hold containers.  A
    flat one, holding scalars only, is written by the C encoder in one
    call whose item separator breaks the line and indents it to its items'
    depth; the walk then puts its brackets on lines of their own.  Dict
    keys are sorted before they are converted, as the stdlib does.
    ``obj`` must be a tree: nothing checks for cycles.  Needs CPython's
    ``_json`` module, which every CPython 3.10+ ships.
    """
    if isinstance(obj, _CONTAINERS) and obj:
        out: list[str] = []
        _render(obj, 0, out)
        return "".join(out)
    return "".join(_level(0)[2](obj, 0))


# depth -> (newline and indent of that depth, the same after a comma, and
# the C encoder with that comma separator), each built once.
_LEVELS: dict[int, tuple] = {}
_CONTAINERS = (dict, list, tuple)
_SCALARS = frozenset((str, int, float, bool, type(None)))


def _level(depth: int) -> tuple:
    level = _LEVELS.get(depth)
    if level is None:
        newline = "\n" + "  " * depth
        encode = make_encoder(
            None, JSONEncoder().default, encode_basestring_ascii, None,
            ": ", "," + newline, True, False, True,
        )
        level = _LEVELS[depth] = (newline, "," + newline, encode)
    return level


def _key(key) -> str:
    """A dict key as the stdlib writes it: non-str keys in their JSON text."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if key is None or isinstance(key, (int, float)):
        return '"%s"' % "".join(_level(0)[2](key, 0))
    raise TypeError(
        f"keys must be str, int, float, bool or None, not {type(key).__name__}"
    )


def _render(obj, depth: int, out: list[str]) -> None:
    """Append the text of ``obj``, a non-empty container, at ``depth``."""
    newline, comma, encode = _level(depth + 1)
    is_dict = isinstance(obj, dict)
    if _SCALARS.issuperset(map(type, obj.values() if is_dict else obj)):
        text = "".join(encode(obj, 0))
        out += (text[0], newline, text[1:-1], _level(depth)[0], text[-1])
        return
    sep = newline
    out.append("{" if is_dict else "[")
    for item in sorted(obj.items()) if is_dict else obj:
        if is_dict:
            key, item = item
            out += (sep, _key(key), ": ")
        else:
            out.append(sep)
        if isinstance(item, _CONTAINERS) and item:
            _render(item, depth + 1, out)
        else:
            out += encode(item, 0)
        sep = comma
    out += (_level(depth)[0], "}" if is_dict else "]")


@dataclass(frozen=True)
class Violation:
    semigroup: str
    ideal: str
    check_id: str
    lhs: int
    rhs: int

    def to_dict(self) -> dict:
        return {
            "semigroup": self.semigroup,
            "ideal": self.ideal,
            "check_id": self.check_id,
            "lhs": self.lhs,
            "rhs": self.rhs,
        }

    def sort_key(self):
        return (self.semigroup, self.ideal, self.check_id, self.lhs, self.rhs)


@dataclass
class CensusReport:
    query: dict
    semigroup_count: int = 0
    ideal_count: int = 0
    semigroups_per_genus: dict[int, int] = field(default_factory=dict)
    check_tallies: dict[str, int] = field(default_factory=dict)
    violations: list[Violation] = field(default_factory=list)
    classification_tallies: dict[str, int] = field(default_factory=dict)
    classification_members: dict[str, list[str]] = field(default_factory=dict)
    wall_ms: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self, include_timing: bool = False) -> dict:
        out = {
            "query": self.query,
            "semigroup_count": self.semigroup_count,
            "ideal_count": self.ideal_count,
            "semigroups_per_genus": {
                str(g): self.semigroups_per_genus[g]
                for g in sorted(self.semigroups_per_genus)
            },
            "check_tallies": {
                k: self.check_tallies[k] for k in sorted(self.check_tallies)
            },
            "violations": [v.to_dict() for v in self.violations],
            "classification_tallies": {
                k: self.classification_tallies[k]
                for k in sorted(self.classification_tallies)
            },
            "classification_members": {
                k: sorted(self.classification_members[k])
                for k in sorted(self.classification_members)
            },
            "passed": self.passed,
        }
        if include_timing:
            out["wall_ms"] = self.wall_ms
        return out

    def to_json(self, include_timing: bool = False) -> str:
        return canonical_json(self.to_dict(include_timing=include_timing))


_ids = itemgetter(0)
_passes = itemgetter(1)


class _Collector:
    """Accumulates tallies and violations from named checks, by signature.

    Its one store counts objects per signature, the sequence of check ids
    one object ran.  A group hands in either an object's check tuples
    (``add``), counted by their ids, or k objects of one signature at once
    (``count``), with the tuples only of an object with a failing check
    (``fail``).  The signatures are few (85 in the genus-9 census), so
    ``check_tallies`` expands them into per-id tallies once, at the end.
    """

    def __init__(self):
        self.signatures: dict[tuple[str, ...], int] = {}
        self.violations: list[Violation] = []

    def add(self, sg, name, checks) -> None:
        """Tally a sequence of checks on an object of S, or on S for "".

        The checks are counted by their ids; the failures go to ``fail``.
        """
        self.count(tuple(map(_ids, checks)))
        if not all(map(_passes, checks)):
            self.fail(sg, name, checks)

    def count(self, signature: tuple[str, ...], k: int = 1) -> None:
        """Tally k objects that each ran the checks of ``signature``."""
        if k:
            self.signatures[signature] = self.signatures.get(signature, 0) + k

    def fail(self, sg, name, checks) -> None:
        """Record the failed ones of ``checks`` as violations.

        ``sg`` and ``name`` are the encodings of S and of the object, or
        functions that return them, called only here, when a check failed.
        """
        failed = [(cid, lhs, rhs) for cid, passed, lhs, rhs in checks if not passed]
        if failed:
            sg, name = (x if isinstance(x, str) else x() for x in (sg, name))
            self.violations += (Violation(sg, name, *check) for check in failed)

    def check_tallies(self) -> dict[str, int]:
        """The tally of each check id, expanded from the signature counts."""
        tallies: dict[str, int] = {}
        for signature, k in self.signatures.items():
            for cid in signature:
                tallies[cid] = tallies.get(cid, 0) + k
        return tallies


# -- per-semigroup check groups: one function per group but classification,
# each of (S, its ideal table, the sample limit, the collector);
# ``_census_part`` picks those of the query once.


def _tally_semigroup(S, table, sample_limit, col) -> None:
    """S's type sequence, and a and b of its chain, tail and shifted K ideals.

    Those ideals are read off a table of their own, not the family table.
    """
    r = S.type
    delta = S.genus
    c = S.conductor
    n = S.n
    small = S.small_elements
    ts = type_sequence(S)
    checks: list[CheckTuple] = [
        _eq("sg_ts_sum_is_genus", sum(ts.values), delta),
        _eq("sg_ts_deficit_sum", sum(v - 1 for v in ts.values), 2 * delta - c),
        _eq("sg_ts_extension_ones", sum(extended_type_sequence(S, n + 2)[n:]), 2),
    ]
    if n:
        checks.append(_eq("sg_ts_first_is_type", ts.values[0], r))
        checks.append(
            (
                "sg_ts_entries_in_range",
                all(1 <= v <= r for v in ts.values),
                min(ts.values),
                max(ts.values),
            )
        )
    if c:
        checks.append(_le("sg_type_bound", r, S.multiplicity - 1))
    checks.append(_eq("sg_gorenstein_iff_type_one", S.is_gorenstein, r == 1))
    arf = is_arf(S)
    # R_i, the members of S from s_i on, for i = 1, ..., n
    chain = [members_from(S, s) for s in small[1 : n + 1]]
    tails = [tail_ideal(S, c + k) for k in (1, 2)]
    shifts = []  # g + K, inside S, for each nonzero g of the different S - K
    if c:
        K = canonical_ideal(S)
        theta = dedekind_different(S)
        gs = theta.window_members + (theta.conductor,)
        shifts = [RelativeIdeal(S, g, g + K.conductor, K.mask) for g in gs if g]
    own = IdealTable(S, chain + tails + shifts)
    rows = own.rows
    acc_a = 0
    acc_b = 0
    for i in range(1, n + 1):
        acc_a += ts.values[i - 1] - 1
        acc_b += r - ts.values[i - 1]
        s_i = small[i]
        a_i, b_i = rows[i - 1].a, rows[i - 1].b
        checks.append(_eq("sg_chain_a_partial", a_i, acc_a))
        checks.append(_eq("sg_chain_b_partial", b_i, acc_b))
        if arf:
            checks.append(_eq("sg_arf_dual_length", a_i + i, s_i - i))
            checks.append(
                _eq("sg_arf_chain_b", b_i, i * small[1] - s_i)
            )
    for k, row in zip((1, 2), rows[n : n + 2]):
        checks.append(_eq("sg_tail_a_constant", row.a, 2 * delta - c))
        checks.append(_eq("sg_tail_b_linear", row.b, acc_b + k * (r - 1)))
    if c:
        sig = sigma(S)
        for row in rows[n + 2 :]:
            checks.append(_eq("sg_different_shift_a_is_sigma", row.a, sig))
        # second path: r_i = l((K + R_{i-1}) / (K + R_i)), from the window
        # counts of K and of the chain rows' K.I.  Counts need no containment,
        # so a walk that yields a non-semigroup fails the check, not the group.
        counts = [own.canonical.bit_count()]
        counts += [row.omega.bit_count() for row in rows[:n]]
        for i in range(1, n + 1):
            checks.append(
                _eq("sg_ts_two_paths", ts.values[i - 1], counts[i - 1] - counts[i])
            )
        # a small element inside the different forces the next entry to be 1
        for i in range(n):
            if small[i] in theta:
                checks.append(
                    _eq("sg_different_member_forces_one", ts.values[i], 1)
                )
    col.add(S.encode, "", checks)


def _tally_ideals(S, table, sample_limit, col) -> None:
    for row in table.rows:
        signature, checks = decomposition_tally(row)
        col.count(signature)
        if checks:
            col.fail(S.encode, row.ideal.encode(), checks)


# The checks every comparable pair runs, in the order of their sides.
_PAIR_IDS = (
    "pair_dual_growth_bound",
    "pair_b_antitone",
    "pair_a_upper",
    "pair_a_lower",
)


def _tally_pairs(S, table, sample_limit, col) -> None:
    """Count the comparable pairs of rows, which all run ``_PAIR_IDS``.

    Each comparable pair runs the ``le`` checks of ``_PAIR_IDS`` in one
    chained comparison; the lhs and rhs tuples are built only for a pair
    that fails one.  With at most ``sample_limit`` rows every pair is
    visited, else that many pairs are drawn; either way one at a time.
    """
    r = S.type
    rows = table.rows
    if len(rows) <= sample_limit:
        pairs = itertools.combinations(rows, 2)
    else:
        rng = random.Random("pairs:" + S.encode())
        pairs = (rng.sample(rows, 2) for _ in range(sample_limit))
    count = 0
    for X, Y in pairs:
        if Y.bits & ~X.bits == 0:
            big, small = X, Y
        elif X.bits & ~Y.bits == 0:
            big, small = Y, X
        else:
            continue
        count += 1
        gap = big.length - small.length
        growth = small.dual_length - big.dual_length
        up = big.a + (r - 1) * gap
        if growth <= r * gap and big.b <= small.b and big.a - gap <= small.a <= up:
            continue
        lhs = (growth, big.b, small.a, big.a - gap)
        rhs = (r * gap, small.b, up, small.a)
        col.fail(S.encode, "", zip(_PAIR_IDS, map(le, lhs, rhs), lhs, rhs))
    col.count(_PAIR_IDS, count)


def _tally_colon_growth(S, table, sample_limit, col) -> None:
    """Count up to ``sample_limit`` samples, each of rows J, X and Y drawn.

    A sample checks
    l((J - X cap Y)/(J - X cup Y)) <= l((J - M)/J) l(X cup Y / X cap Y).
    """
    rows = table.rows
    if not rows:
        return
    rng = random.Random("colon:" + S.encode())
    colons = table.colons
    samples = min(sample_limit, len(rows) ** 2)
    for _ in range(samples):
        J = rng.choice(rows)
        X = rng.choice(rows)
        Y = rng.choice(rows)
        inner = X.bits & Y.bits
        outer = X.bits | Y.bits
        at_inner, at_outer = colons(J.bits, inner, outer)
        lhs = at_inner.bit_count() - at_outer.bit_count()
        rhs = J.maximal_growth * (outer.bit_count() - inner.bit_count())
        if lhs > rhs:
            col.fail(S.encode, "", [_le("colon_growth_bound", lhs, rhs)])
    col.count(("colon_growth_bound",), samples)


def _tally_equivalences(S, table, sample_limit, col) -> None:
    col.add(S.encode, "", ring_classification(S, ideals=table).checks)


def _tally_overrings(S, table, sample_limit, col) -> None:
    c = S.conductor
    at_c = {row.bits: row for row in table.rows if row.conductor == c}
    offset, top = table.offset, table.top
    for members, ideal in table.oversemigroup_walk():
        row = at_c.get(ideal)
        if row is None:
            T = from_bits(members >> offset, top).encode()
            raise InternalInconsistency(f"S - T for T = {T} is not a table row")
        checks = overring_checks(S, members, row)
        col.add(S.encode, lambda: from_bits(members >> offset, top).encode(), checks)


def _tally_profile(S, table, sample_limit, col) -> None:
    if S.conductor:
        col.add(S.encode, "", window_profile(S).checks)


_TALLIES = {
    "semigroup": _tally_semigroup,
    "ideals": _tally_ideals,
    "pairs": _tally_pairs,
    "colon_growth": _tally_colon_growth,
    "equivalences": _tally_equivalences,
    "overrings": _tally_overrings,
    "profile": _tally_profile,
}
_IDEAL_GROUPS = ("ideals", "pairs", "colon_growth", "equivalences")


def _selected(query: CensusQuery):
    """The queried semigroups that pass the query's filters, in walk order.

    Each filter set wraps the population once; with none it is the walk.
    """
    if query.semigroups is not None:
        population = map(NumericalSemigroup.decode, query.semigroups)
    else:
        population = enumerate_semigroups(query.max_genus, query.max_conductor)
    if query.multiplicity_range is not None:
        lo, hi = query.multiplicity_range
        population = (S for S in population if lo <= S.multiplicity <= hi)
    if query.gorenstein_only:
        population = (S for S in population if S.is_gorenstein)
    if query.non_gorenstein_only:
        population = (S for S in population if not S.is_gorenstein)
    return population


def _census_part(query: CensusQuery, population) -> CensusReport:
    """Tallies over one part of the population, in walk order.

    The query's groups are resolved once, here: the functions of those
    other than classification, in ``GROUPS`` order, whether one of them
    reads the ideal table, and whether the rows are counted, which only
    the ideal groups do.  So a node pays only for the groups that run: it
    builds its table only if one reads it, and each function tallies into
    the one collector.  The classification group runs in the loop itself,
    as ``classification_group`` gives the node's tag, whether it is
    listed under it, and its check tuples, () when its signature is
    ``CLASSIFICATION_IDS`` and both checks pass; such a node adds one to a
    local count, handed to the collector once, at the end.  The other
    counts are kept in locals too, and the report is built once.
    """
    groups = query.groups()
    runs = [_TALLIES[g] for g in GROUPS if g in groups and g in _TALLIES]
    count_rows = any(g in groups for g in _IDEAL_GROUPS)
    need_table = count_rows or "overrings" in groups
    classify = "classification" in groups
    window, sample_limit = query.window, query.sample_limit
    col = _Collector()
    per_genus: dict[int, int] = {}
    tags: dict[str, int] = {}
    members: dict[str, list[str]] = {}
    ideal_count = 0
    by_signature = 0
    for S in population:
        genus = S.genus
        per_genus[genus] = per_genus.get(genus, 0) + 1
        if runs:
            table = IdealTable.family(S, window) if need_table else None
            for run in runs:
                run(S, table, sample_limit, col)
            if count_rows:
                ideal_count += len(table.rows)
            del table  # else it is alive while the next node builds its own
        if classify:
            tag, listed, checks = classification_group(S)
            if checks:
                col.add(S.encode, "", checks)
            else:
                by_signature += 1
            tags[tag] = tags.get(tag, 0) + 1
            if listed:
                members.setdefault(tag, []).append(S.encode())
    col.count(CLASSIFICATION_IDS, by_signature)
    return CensusReport(
        query=query.to_dict(),
        semigroup_count=sum(per_genus.values()),
        ideal_count=ideal_count,
        semigroups_per_genus=per_genus,
        check_tallies=col.check_tallies(),
        violations=col.violations,
        classification_tallies=tags,
        classification_members=members,
    )


def _add_counts(total: dict, part: dict) -> None:
    for key, k in part.items():
        total[key] = total.get(key, 0) + k


def _merge(query: CensusQuery, parts) -> CensusReport:
    """One order-normalized report from the parts of a census."""
    report = CensusReport(query=query.to_dict())
    for part in parts:
        report.semigroup_count += part.semigroup_count
        report.ideal_count += part.ideal_count
        _add_counts(report.semigroups_per_genus, part.semigroups_per_genus)
        _add_counts(report.check_tallies, part.check_tallies)
        _add_counts(report.classification_tallies, part.classification_tallies)
        report.violations.extend(part.violations)
        for tag, encs in part.classification_members.items():
            report.classification_members.setdefault(tag, []).extend(encs)
    report.violations.sort(key=Violation.sort_key)
    for members in report.classification_members.values():
        members.sort()
    return report


def _share(query: CensusQuery, i: int) -> CensusReport:
    """The census of every workers-th selected semigroup, from the i-th on."""
    return _census_part(
        query, itertools.islice(_selected(query), i, None, query.workers)
    )


def _census_parts(query: CensusQuery) -> list[CensusReport]:
    """One share per worker; a serial run is share 0 of 1."""
    if query.workers == 1:
        return [_share(query, 0)]
    with ProcessPoolExecutor(max_workers=query.workers) as pool:
        return list(pool.map(_share, [query] * query.workers, range(query.workers)))


def verify_theorems(query: CensusQuery) -> CensusReport:
    """Run the requested check groups over the whole queried population."""
    import time

    start = time.perf_counter()
    report = _merge(query, _census_parts(query))
    report.wall_ms = (time.perf_counter() - start) * 1000.0
    return report


def classification_census(
    max_conductor: int,
    workers: int = 1,
    allow_large: bool = False,
) -> CensusReport:
    """Classify every semigroup with conductor up to the bound."""
    return verify_theorems(
        CensusQuery(
            max_conductor=max_conductor,
            window=0,
            checks=("classification",),
            workers=workers,
            allow_large=allow_large,
        )
    )


@dataclass
class SearchReport:
    query: dict
    semigroup_count: int = 0
    ideal_count: int = 0
    examples: list[tuple[str, str, int]] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "query": self.query,
            "semigroup_count": self.semigroup_count,
            "ideal_count": self.ideal_count,
            "examples": [
                {"semigroup": s, "ideal": i, "a": a} for s, i, a in self.examples
            ],
        }

    def to_json(self) -> str:
        return canonical_json(self.to_dict())


def search_negative_a(query: CensusQuery) -> SearchReport:
    """Collect ideals with a < 0 over the queried range (serial only)."""
    if query.workers != 1:
        raise InvalidInput("search_negative_a runs serially; workers must be 1")
    report = SearchReport(query=query.to_dict())
    for S in _selected(query):
        report.semigroup_count += 1
        table = IdealTable.family(S, query.window)
        report.ideal_count += len(table.rows)
        for row in table.rows:
            if row.a < 0:
                report.examples.append((S.encode(), row.ideal.encode(), row.a))
    report.examples.sort()
    return report
