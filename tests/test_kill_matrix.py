"""Every census check can fail: one table of planted faults (a kill matrix).

Each fault breaks one rule of the program at the boundary of a function,
property, lazy row attribute or row mark, and is planted alone with
``pytest.MonkeyPatch.context()`` in every module that binds the name.  With
it in place the census runs serially at genus <= GENUS and window WINDOW,
one group at a time: the overrings group stops on purpose with
``InternalInconsistency`` (exit code 3) when a row is not S - T, and run
together with the others it would hide what they catch.  A fault is caught
when a group fails a check id, raises ``InternalInconsistency``, or moves
``semigroups_per_genus`` or ``check_tallies`` away from the clean run.  A
group that stops with another typed error, the exit code 2 of bad input,
fails the test: every set a group sees comes from the census's own walk,
even when a fault in the walk hands it a set that is not a semigroup.  Any
other exception fails the test as well.

This is mutation testing (DeMillo, Lipton & Sayward, 1978): the table
shows that every fault is caught and that every check id, apart from the
identities in ``IDENTITIES``, fails under at least one fault.

Run as a script, ``PYTHONPATH=src python tests/test_kill_matrix.py``, it
prints one line per fault with what caught it; ``kill_matrix_output.txt``
holds those lines as the program prints them now.
"""

from __future__ import annotations

import contextlib
import functools
from pathlib import Path

import pytest

import typeseq
from typeseq import (
    CensusQuery,
    InternalInconsistency,
    TypeseqError,
    census,
    classification,
    cli,
    ideals,
    invariants,
    semigroup,
    verify_theorems,
)
from typeseq.census import GROUPS
from typeseq.ideals import ideal_intersection, ideal_union, tail_ideal
from typeseq.invariants import IdealRow, IdealTable, TypeSequence
from typeseq.semigroup import NumericalSemigroup

GENUS, WINDOW = 6, 2

# The check ids no planted fault can fail, each with why: its two sides are
# computed from the same values in one place, so a fault at a boundary
# moves both alike.
IDENTITIES = {
    "a_bidual_drop": "l(I*/S) - l(S/I**) - l(I**/I) telescopes to a on one row",
    "a_plus_b_split": "IdealRow sets a and b from the same l(S/I), l(I*/S) and type",
    "profile_p_lower": "p = (c - 1) // e gives c - e <= pe for any c and e",
    "profile_p_upper": "p = (c - 1) // e gives pe <= c - 1 for any c and e",
    "profile_gap_count_lower": "(pe, c) holds the gap c - 1",
    "profile_gap_count_upper": "(pe, c) holds at most e - 1 integers",
}

# Every module that may bind a planted name, the package itself included.
MODULES = (typeseq, semigroup, ideals, invariants, classification, census, cli)

# The lru_caches a fault could fill with wrong values.
CACHED = (
    invariants.type_sequence,
    ideals.canonical_ideal,
    ideals.dedekind_different,
    semigroup.is_arf,
)

FAULTS = {}


def fault(plant):
    """Register ``plant(mp)``, which plants one fault, under its name."""
    FAULTS[plant.__name__] = plant
    return plant


def _rebind(mp, home, name, make):
    """Bind ``make(original)`` for ``home.name`` in every module that binds it."""
    original = getattr(home, name)
    faulty = make(original)
    for module in MODULES:
        if vars(module).get(name) is original:
            mp.setattr(module, name, faulty)


def _replace(mp, cls, name, make):
    """Replace the function behind a method, property or lazy attribute."""
    original = vars(cls)[name]
    if isinstance(original, property):
        faulty = property(make(original.fget))
    elif isinstance(original, invariants._lazy):
        faulty = invariants._lazy(make(original.fn))
        faulty.__set_name__(cls, name)
    else:
        faulty = make(original)
    mp.setattr(cls, name, faulty)


def _then(change):
    """A fault that passes the result through ``change(result, *args)``."""
    return lambda fn: lambda *args: change(fn(*args), *args)


def _shifted(k):
    return _then(lambda value, *args: value + k)


def _constant(value):
    return lambda fn: lambda *args: value


def _without_lowest(bits, *args):
    return bits & (bits - 1)


def _marks_edited(edit):
    """A fault in a row's marks: ``edit(marks)`` once ``IdealRow._mark`` set them."""
    return _then(lambda _, row: edit(vars(row)))


# -- the semigroup tree and its facts ------------------------------------------


def _never_append(T, S, x):
    if x != S.multiplicity:
        T._gens &= ~(1 << (x + S.multiplicity))
    return T


def _always_append(T, S, x):
    if x != S.multiplicity:
        T._gens |= 1 << (x + S.multiplicity)
    return T


def _n_one_high(T, S, x):
    T.n += 1
    return T


def _skip_pf_filter(T, S, x):
    T._pf_bits = (S._pf_bits or 0) | 1 << x
    T.type = T._pf_bits.bit_count()
    return T


def _reversal_one_high(T, S, x):
    T._rev <<= 1
    return T


@fault
def child_never_append(mp):
    """_child drops the new generator x + e when no split of it exists."""
    _replace(mp, NumericalSemigroup, "_child", _then(_never_append))


@fault
def child_always_append(mp):
    """_child adds x + e as a generator even when it splits."""
    _replace(mp, NumericalSemigroup, "_child", _then(_always_append))


@fault
def child_n_one_high(mp):
    """_child counts T's nonzero small elements as n_S + x - c + 1."""
    _replace(mp, NumericalSemigroup, "_child", _then(_n_one_high))


@fault
def child_skip_pf_filter(mp):
    """_child takes PF(S - {x}) as PF(S) + {x}, without the gap filter."""
    _replace(mp, NumericalSemigroup, "_child", _then(_skip_pf_filter))


@fault
def child_reversal_one_high(mp):
    """_child carries T's mask reversed about c_T + 1, one bit too high."""
    _replace(mp, NumericalSemigroup, "_child", _then(_reversal_one_high))


def _type_shifted(mp, k):
    """Shift the type by k where it is read and where ``_child`` stores it."""

    def shift(T, S, x):
        T.type += k
        return T

    _replace(mp, NumericalSemigroup, "type", _shifted(k))
    _replace(mp, NumericalSemigroup, "_child", _then(shift))


@fault
def type_plus_one(mp):
    """The type is one more than the count of pseudo-Frobenius bits."""
    _type_shifted(mp, 1)


@fault
def type_minus_one(mp):
    """The type is one less than the count of pseudo-Frobenius bits."""
    _type_shifted(mp, -1)


@fault
def arf_negated(mp):
    """is_arf answers the opposite."""
    _rebind(mp, semigroup, "is_arf", _then(lambda arf, S: not arf))


# -- ideals ----------------------------------------------------------------------


def _drop_top_generator(kernel):
    def faulty(a_bits, b_bits, e):
        gens = b_bits & ~(b_bits << e)
        if gens & (gens - 1):
            b_bits &= ~(1 << (gens.bit_length() - 1))
        return kernel(a_bits, b_bits, e)

    return faulty


@fault
def colon_kernel_drops_generator(mp):
    """The colon kernel forgets the highest generator of B."""
    _rebind(mp, semigroup, "colon_bits", _drop_top_generator)


@fault
def sum_kernel_drops_generator(mp):
    """The sum kernel forgets the highest generator of B."""
    _rebind(mp, semigroup, "sum_bits", _drop_top_generator)


def _with_frobenius(K, S):
    return ideal_union(K, tail_ideal(S, S.conductor - 1)) if S.conductor else K


@fault
def canonical_takes_frobenius(mp):
    """K takes in c - 1, which lies outside it."""
    _rebind(mp, ideals, "canonical_ideal", _then(_with_frobenius))


@fault
def different_is_the_tail(mp):
    """The different S - K loses its members below the conductor."""
    tail = _then(lambda theta, S: tail_ideal(S, S.conductor))
    _rebind(mp, ideals, "dedekind_different", tail)


@fault
def maximal_ideal_loses_multiplicity(mp):
    """The maximal ideal loses the multiplicity e."""
    above = _then(lambda M, S: ideal_intersection(M, tail_ideal(S, M.min_element + 1)))
    _rebind(mp, ideals, "maximal_ideal", above)


@fault
def product_is_union(mp):
    """The ideal product E + F is taken as the union of E and F."""
    _rebind(mp, ideals, "ideal_product", lambda fn: ideal_union)


# -- the type sequence ---------------------------------------------------------


def _lengths(change):
    """A fault in the chain walk's lengths (L_0, ..., L_m), edited in a list."""

    def edit(L, S, m):
        L = list(L)
        change(L, S)
        return tuple(L)

    return _then(edit)


def _first_plus_one(L, S):
    if S.n:
        L[1] += 1


def _last_step_skipped(L, S):
    if len(L) > 1:
        L[0] = L[1]


def _top_plus_one(L, S):
    L[-1] += 1


@fault
def chain_length_perturbed(mp):
    """The chain walk counts one member too many in L_1."""
    _rebind(mp, invariants, "_chain_dual_lengths", _lengths(_first_plus_one))


@fault
def chain_step_skipped(mp):
    """The chain walk skips the AND of its last step, so L_0 = L_1."""
    _rebind(mp, invariants, "_chain_dual_lengths", _lengths(_last_step_skipped))


@fault
def chain_top_plus_one(mp):
    """The chain walk starts from a tail one member too long, so L_m is off."""
    _rebind(mp, invariants, "_chain_dual_lengths", _lengths(_top_plus_one))


def _last_plus_one(ts, S):
    values = ts.values
    return TypeSequence(S, values[:-1] + (values[-1] + 1,)) if values else ts


@fault
def last_entry_plus_one(mp):
    """type_sequence adds one to r_n."""
    _rebind(mp, invariants, "type_sequence", _then(_last_plus_one))


# -- the ideal table and its rows ------------------------------------------------


def _next_ideal(pairs, *args):
    pairs = list(pairs)
    ideals = [ideal for _, ideal in pairs]
    shifted = ideals[1:] + ideals[:1]
    return [(members, ideal) for (members, _), ideal in zip(pairs, shifted)]


@fault
def oversemigroup_walk_pairs_next_ideal(mp):
    """The oversemigroup walk pairs each T with the next T's S - T."""
    _replace(mp, IdealTable, "oversemigroup_walk", _then(_next_ideal))


@fault
def oversemigroup_walk_yields_t_as_s_minus_t(mp):
    """The oversemigroup walk yields T's own bits for S - T."""
    own = _then(lambda pairs, *args: [(members, members) for members, _ in pairs])
    _replace(mp, IdealTable, "oversemigroup_walk", own)


def _forget_multiplicity(_, table, S, top):
    e = S.multiplicity

    class Forgetful(int):
        def __rshift__(self, x):
            return -1 if x == e else int(self) >> x

    table.filled = Forgetful(table.filled)


@fault
def translates_forget_multiplicity(mp):
    """The ideal walk forgets the translate S - e when it takes e."""
    _replace(mp, IdealTable, "_lay_out", _then(_forget_multiplicity))


def _dual_loses_minimum(init):
    def faulty(row, table, bits, dual):
        init(row, table, bits, dual)
        if row.conductor > table.S.conductor:
            init(row, table, bits, dual & (dual - 1))

    return faulty


@fault
def dual_loses_minimum_above_c(mp):
    """I* loses its least member on rows whose conductor is above c."""
    _replace(mp, IdealRow, "__init__", _dual_loses_minimum)


@fault
def levels_shifted(mp):
    """r_sum reads the level masks from L_3 on, one level short."""
    _replace(mp, IdealTable, "levels", _then(lambda levels, table: levels[1:]))


@fault
def prefix_off_by_one(mp):
    """The running sums of the type sequence start from r_1 + 1."""
    plus = _then(lambda sums, table: sums[:1] + tuple(x + 1 for x in sums[1:]))
    _replace(mp, IdealTable, "prefix", plus)


@fault
def chain_dual_length_plus_one(mp):
    """l(S - R_i) is counted one too large."""
    _replace(mp, IdealTable, "chain_dual_length", _shifted(1))


@fault
def tail_length_plus_one(mp):
    """A tail is counted one member too long."""
    _replace(mp, IdealTable, "tail_length", _shifted(1))


@fault
def omega_loses_minimum(mp):
    """K.I loses its least member min(I)."""
    _replace(mp, IdealRow, "omega", _then(_without_lowest))


def _with_frobenius_bit(bits, row):
    table = row.table
    gap = table.S.conductor - 1
    return bits | 1 << (gap + table.offset) if gap >= 0 else bits


@fault
def bidual_takes_a_gap(mp):
    """I** takes in the Frobenius number, a gap of S."""
    _replace(mp, IdealRow, "bidual", _then(_with_frobenius_bit))


@fault
def bidual_is_the_ideal(mp):
    """I** is read as I."""
    _replace(mp, IdealRow, "bidual", _then(lambda bidual, row: row.bits))


@fault
def maximal_growth_minus_one(mp):
    """l((I - M)/I) is counted one too small."""
    _replace(mp, IdealRow, "maximal_growth", _shifted(-1))


@fault
def principal_never(mp):
    """No ideal is found to be a translate of S."""
    _replace(mp, IdealRow, "_mark", _marks_edited(lambda m: m.update(principal=False)))


@fault
def closed_always(mp):
    """Every ideal is found to be integrally closed."""
    _replace(mp, IdealRow, "_mark", _marks_edited(lambda m: m.update(closed=True)))


@fault
def unmarked_loses_lowest(mp):
    """The least unmarked s_{h-1} is taken as marked."""
    _replace(mp, IdealTable, "unmarked_bits", _then(_without_lowest))


@fault
def sigma_plus_one(mp):
    """sigma, a of the tail minus l(S/different), is one too large."""
    _rebind(mp, invariants, "sigma", _shifted(1))


@fault
def d_plus_one(mp):
    """d is one too large."""
    _replace(mp, IdealRow, "_mark", _marks_edited(lambda m: m.update(d=m["d"] + 1)))


# -- classification ----------------------------------------------------------------


@fault
def quotient_length_plus_one(mp):
    """l(S / tail + (e + S)) is one too large."""
    _rebind(mp, classification, "quotient_length", _shifted(1))


@fault
def b_of_tail_plus_one(mp):
    """The closed count of b(tail) is one too large."""
    _rebind(mp, classification, "b_of_tail", _shifted(1))


@fault
def b_of_tail_minus_one(mp):
    """The closed count of b(tail) is one too small."""
    _rebind(mp, classification, "b_of_tail", _shifted(-1))


@fault
def multiples_pattern_never(mp):
    """No semigroup is found to have members 0, e, ..., pe below c."""
    never = _then(lambda found, S: (False, found[1]))
    _rebind(mp, classification, "_multiples_then_tail", never)


@fault
def multiples_p_plus_one(mp):
    """The count p of multiples of e below c is one too large."""
    plus = _then(lambda found, S: (found[0], found[1] + 1))
    _rebind(mp, classification, "_multiples_then_tail", plus)


@fault
def case_j_loses_one(mp):
    """The three b = r semigroups of type 2 lose their first member."""
    _rebind(mp, classification, "case_j_semigroups", _then(lambda found: found[1:]))


@fault
def case_g_shapes_missed(mp):
    """No semigroup matches a b = r shape of type e - 2."""
    _rebind(mp, classification, "_case_g_shapes", _constant(None))


# -- running the table -------------------------------------------------------------


def _clear() -> None:
    for fn in CACHED:
        fn.cache_clear()


@contextlib.contextmanager
def planted(*names: str):
    """Plant the named faults, with the caches cleared on the way in and out."""
    _clear()
    try:
        with pytest.MonkeyPatch.context() as mp:
            for name in names:
                FAULTS[name](mp)
            yield
    finally:
        _clear()


def _census(group: str):
    query = CensusQuery(max_genus=GENUS, window=WINDOW, checks=(group,))
    return verify_theorems(query)


def _counts(report):
    return report.semigroups_per_genus, report.check_tallies


@functools.lru_cache(maxsize=1)
def _clean() -> dict:
    _clear()
    return {group: _counts(_census(group)) for group in GROUPS}


def kills(name: str) -> tuple[frozenset[str], tuple[str, ...]]:
    """(ids failed, other signals) under the named fault, each group alone.

    A signal names a group that stopped with a typed error, by its CLI exit
    code ("exit 3 in overrings"), or moved its counts from the clean run.
    """
    clean = _clean()
    failed, signals = set(), []
    with planted(name):
        for group in GROUPS:
            try:
                report = _census(group)
            except TypeseqError as exc:
                code = 3 if isinstance(exc, InternalInconsistency) else 2
                signals.append(f"exit {code} in {group}")
                continue
            failed.update(v.check_id for v in report.violations)
            if _counts(report) != clean[group]:
                signals.append(f"counts moved in {group}")
    return frozenset(failed), tuple(signals)


@functools.lru_cache(maxsize=1)
def matrix() -> dict[str, tuple[frozenset[str], tuple[str, ...]]]:
    return {name: kills(name) for name in FAULTS}


def _all_ids() -> set[str]:
    return {cid for _, tallies in _clean().values() for cid in tallies}


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_planted_fault_is_caught(name):
    failed, signals = matrix()[name]
    assert failed or signals, name


def test_every_check_id_fails_under_some_fault():
    ids = _all_ids()
    assert len(ids) == 104
    killed = set().union(*(failed for failed, _ in matrix().values()))
    assert killed <= ids
    assert ids - killed == set(IDENTITIES)


@pytest.mark.parametrize(
    "name",
    [
        "chain_length_perturbed",
        "chain_step_skipped",
        "chain_top_plus_one",
        "last_entry_plus_one",
        "type_plus_one",
        "type_minus_one",
        "child_skip_pf_filter",
    ],
)
def test_wrong_type_sequence_fails_named_ids(name):
    # type_sequence checks nothing itself: a wrong entry is a violation the
    # census names, and no group stops on it.
    failed, signals = matrix()[name]
    assert "sg_ts_first_is_type" in failed
    assert not [s for s in signals if s.startswith("exit")]


def test_sum_kernel_fault_fails_the_product_checks():
    # A row's K.I and the semigroup group's K + R_i are sum_bits calls, so
    # a lost generator shows in the checks that read them.
    failed, _ = matrix()["sum_kernel_drops_generator"]
    assert {"a_via_omega_growth", "d_via_omega_product", "sg_ts_two_paths"} <= failed


def test_no_fault_stops_a_group_as_bad_input():
    stopped = [
        (name, signal)
        for name, (_, signals) in matrix().items()
        for signal in signals
        if signal.startswith("exit 2")
    ]
    assert stopped == []
    # A walk that yields non-semigroups is caught by the semigroup group's
    # second path to the type sequence, not refused as input.
    failed, _ = matrix()["child_always_append"]
    assert "sg_ts_two_paths" in failed


def test_printed_output_is_pinned(capsys):
    # A change to the program that moves a row of the table shows here; the
    # golden file is then rewritten from main() and the moved row named.
    golden = Path(__file__).with_name("kill_matrix_output.txt")
    main()
    assert capsys.readouterr().out.splitlines() == golden.read_text().splitlines()


def main() -> None:
    ids = _all_ids()
    killed = set()
    for name, (failed, signals) in matrix().items():
        killed |= failed
        caught = [f"{len(failed)} ids"] if failed else []
        caught += list(signals) + sorted(failed)
        print(f"{name}: {'; '.join(caught) or 'NOT CAUGHT'}")
    print(f"{len(FAULTS)} faults; {len(ids - killed)} of {len(ids)} ids never fail:")
    for cid in sorted(ids - killed):
        print(f"  {cid}: {IDENTITIES.get(cid, 'NOT AN IDENTITY')}")


if __name__ == "__main__":
    main()
