"""The a, b, d invariants, their decomposition, and overring lengths."""

import itertools
import pickle
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from conftest import negative_a_semigroup, semigroups_up_to, small_semigroup_st
from typeseq import (
    Check,
    IdealTable,
    InternalInconsistency,
    NotIntegralProper,
    NotOversemigroup,
    NumericalSemigroup,
    ParentMismatch,
    RelativeIdeal,
    ab_invariants,
    b_of_tail,
    bidual,
    classify_b,
    colon,
    d_invariant,
    decomposition_check,
    dual,
    enumerate_ideals,
    from_generators,
    gamma_invariants,
    ideal_from_generators,
    is_integrally_closed,
    is_principal,
    is_reflexive,
    length_between,
    overring_check,
    oversemigroups,
    ring_classification,
    tail_ideal,
    type_sequence,
    unit_ideal,
    window_profile,
)
from typeseq.census import _Collector
from typeseq.ideals import require_proper
from typeseq.invariants import (
    _chain_dual_lengths,
    _eq,
    _ge,
    _le,
    conductor_ideal,
    decomposition_checks,
    decomposition_tally,
    overring_checks,
)
from typeseq.semigroup import from_bits, is_arf


def brute_ab(S, I):
    """a and b from explicit quotient lengths on sets."""
    top = 2 * (S.conductor + I.conductor) + 8
    A = oracles.semigroup_set(S, top)
    B = oracles.ideal_set(I, top)
    dual_set = oracles.colon_set(A, B, -top, I.conductor + 2, top)
    # A has no negatives, so this counts gaps and negative duals exactly once
    l_dual = len([x for x in dual_set if x < S.conductor and x not in A])
    l_quot = len([x for x in A if x < I.conductor and x not in B])
    return l_dual - l_quot, S.type * l_quot - l_dual


class TestCheckRecord:
    def test_record_contract(self):
        c = Check("x", True, 1, 1)
        assert (c.id, c.passed, c.lhs, c.rhs) == ("x", True, 1, 1)
        with pytest.raises(AttributeError):
            c.passed = False
        assert repr(c) == "Check(id='x', passed=True, lhs=1, rhs=1)"
        back = pickle.loads(pickle.dumps(c))
        assert type(back) is Check and back == c
        for make, passed in ((_eq, False), (_le, False), (_ge, True)):
            rec = make("b", True, False)
            assert rec == Check("b", passed, 1, 0)
            assert type(rec[2]) is int and type(rec[3]) is int, make


class TestFrozenValues:
    def test_negative_a_example(self):
        S = negative_a_semigroup()
        I = ideal_from_generators(S, (38, 44, 50))
        assert I.encode() == "38|38,44,47,50,53,55,56,59,61,62,63,64,65|67"
        assert ab_invariants(S, I) == (-1, 69)
        assert d_invariant(S, I) == 0
        assert decomposition_check(S, I).passed

    def test_two_generator_ideal(self):
        S = from_generators((3, 4, 5))
        E = ideal_from_generators(S, (4, 5))
        assert ab_invariants(S, E) == (0, 3)
        assert d_invariant(S, E) == 0

    def test_d_is_not_translation_invariant(self):
        G = NumericalSemigroup.decode("0,4,8,9,12,13|16")
        R2 = RelativeIdeal(G, 8, 16, 0b110011)
        T = RelativeIdeal(G, 12, 20, 0b110011)
        assert d_invariant(G, R2) == 0
        assert d_invariant(G, T) == 1
        # a survives the translation, b and d do not
        assert ab_invariants(G, R2) == (2, 0)
        assert ab_invariants(G, T) == (2, 4)
        assert decomposition_check(G, R2).passed
        assert decomposition_check(G, T).passed

    def test_tail_invariants(self):
        S = from_generators((3, 4, 5))
        assert gamma_invariants(S) == (1, 0)
        assert gamma_invariants(negative_a_semigroup()) == (2, 34)
        assert gamma_invariants(from_generators((1,))) == (0, 0)
        assert b_of_tail(S) == 0
        assert b_of_tail(negative_a_semigroup()) == 34


class TestDecomposition:
    def test_a_plus_b_identity(self):
        for S in semigroups_up_to(6):
            if S.conductor == 0:
                continue
            unit = unit_ideal(S)
            for I in enumerate_ideals(S, window=2):
                a, b = ab_invariants(S, I)
                l_quot = length_between(unit, I)
                assert a + b == (S.type - 1) * l_quot, (S.encode(), I.encode())

    def test_report_checks_all_pass_on_enumerated_ideals(self):
        for S in semigroups_up_to(5):
            if S.conductor == 0:
                continue
            for I in enumerate_ideals(S, window=2):
                rep = decomposition_check(S, I)
                assert rep.passed, (S.encode(), I.encode())
                assert rep.a + rep.b == (S.type - 1) * rep.l_quotient

    def test_report_carries_named_checks(self):
        S = from_generators((3, 4, 5))
        rep = decomposition_check(S, ideal_from_generators(S, (4, 5)))
        ids = {c.id for c in rep.checks}
        assert "a_plus_b_split" in ids
        assert "d_via_omega_product" in ids
        assert "a_bound_when_arf" in ids
        assert rep.reflexive is False
        assert rep.principal is False

    @given(small_semigroup_st(max_genus=6))
    @settings(max_examples=40, deadline=None)
    def test_ab_match_set_oracle(self, S):
        if S.conductor == 0:
            return
        for I in list(enumerate_ideals(S, window=1))[:6]:
            assert ab_invariants(S, I) == brute_ab(S, I), I.encode()

    def test_d_of_bidual_matches(self):
        for S in semigroups_up_to(6):
            if S.conductor == 0:
                continue
            for I in enumerate_ideals(S, window=1):
                assert d_invariant(S, bidual(I)) == d_invariant(S, I)


class TestRecordAgainstSets:
    @given(small_semigroup_st(max_genus=6), st.integers(min_value=0, max_value=2))
    @example(from_generators((1,)), 2)
    @example(from_generators((3, 4, 5)), 2)
    @settings(max_examples=40, deadline=None)
    def test_decomposition_fields_match_set_oracles(self, S, window):
        c, delta = S.conductor, S.genus
        ideals = enumerate_ideals(S, window)
        # Every set is read on [lo, hi); each is full from c + window + 1 on.
        top = c + window + 1
        lo, hi = -top, 2 * top
        A = {x for x in range(lo, hi) if x in S}
        K = oracles.canonical_set(A, c, hi)
        ts = oracles.type_sequence_sets(A, c)
        r = len(oracles.pseudo_frobenius(A, c))
        members = sorted(A)

        def r_ext(h):
            return ts[h - 1] if h <= len(ts) else 1

        for E in ideals:
            I = {x for x in range(lo, hi) if x in E}
            I_dual = oracles.colon_set(A, I, lo, hi, hi)
            I_bid = oracles.colon_set(A, I_dual, lo, hi, hi)
            n_i = E.conductor - delta
            unmarked = tuple(
                h for h in range(1, n_i + 1) if members[h - 1] not in I_bid
            )
            marked_sum = sum(r_ext(h) for h in range(1, n_i + 1)) - sum(
                r_ext(h) for h in unmarked
            )
            # d of I** is d over I**'s conductor, from the same I* and marks.
            c_bid = oracles.conductor_of(I_bid, hi)
            marked_bid = sum(
                r_ext(h)
                for h in range(1, c_bid - delta + 1)
                if members[h - 1] in I_bid
            )
            d_bid = len(set(range(c - c_bid, hi)) - I_dual) - marked_bid
            l_quot = len(A - I)
            l_dual = len(I_dual - A)
            m = E.min_element
            want = (
                l_dual - l_quot,
                r * l_quot - l_dual,
                len(set(range(c - E.conductor, hi)) - I_dual) - marked_sum,
                l_quot,
                l_dual,
                len(I_bid - I),
                unmarked,
                I_bid == I,
                oracles.sum_set(K, I, hi) == I,
                I == {x for x in A if x >= m},
                I == {m + x for x in A if m + x < hi},
                c_bid,
                d_bid,
            )
            rep = decomposition_check(S, E)
            row = IdealTable(S, [E]).rows[0]
            got = (
                rep.a,
                rep.b,
                rep.d,
                rep.l_quotient,
                rep.l_dual,
                rep.l_bidual_drop,
                rep.v_complement,
                rep.reflexive,
                rep.omega_stable,
                rep.integrally_closed,
                rep.principal,
                row.bidual_conductor,
                row.d_for(row.bidual_conductor),
            )
            assert got == want, E.encode()
            # The closed form of d rests on c <= c_{I**} <= c_I and on every
            # unmarked bit lying below c_{I**}.
            assert c <= c_bid <= E.conductor, E.encode()
            assert row.unmarked_bits >> (c_bid + row.table.offset) == 0, E.encode()
        for T in oversemigroups(S):
            T_set = {x for x in range(lo, hi) if x in T}
            assert overring_check(S, T).length == len(T_set - A), T.encode()


def _bit_route_cases():
    """(S, ideals of conductor up to c + 3) for genus <= 7, and one wide ideal."""
    for S in semigroups_up_to(7):
        yield S, enumerate_ideals(S, window=3)
    S = negative_a_semigroup()
    yield S, [ideal_from_generators(S, (38, 44, 50))]


class TestBitRoute:
    """The rows' bit-level flags, marks and colons against objects and sets."""

    def test_flags_and_marks_match_object_route_and_sets(self):
        for S, ideals in _bit_route_cases():
            c, delta = S.conductor, S.genus
            # Every set is read on [lo, hi) and is full from top on.
            top = max(E.conductor for E in ideals) + 1
            lo, hi = -top, 2 * top
            A = {x for x in range(lo, hi) if x in S}
            members = sorted(A)
            want = {}
            for E in ideals:
                I = {x for x in range(lo, hi) if x in E}
                I_bid = oracles.colon_set(
                    A, oracles.colon_set(A, I, lo, hi, hi), lo, hi, hi
                )
                n_i = E.conductor - delta
                unmarked = tuple(
                    h for h in range(1, n_i + 1) if members[h - 1] not in I_bid
                )
                want[E] = (
                    is_principal(E),
                    is_integrally_closed(E),
                    bidual(E).conductor,
                    unmarked,
                )
            for window in range(4):
                family = [E for E in ideals if E.conductor <= c + window] or ideals
                for row in IdealTable(S, family).rows:
                    got = (row.principal, row.closed, row.bidual_conductor, row.unmarked)
                    assert got == want[row.ideal], (window, row.ideal.encode())

    def test_table_colon_matches_set_oracle(self):
        for S, ideals in _bit_route_cases():
            rng = random.Random("table colon:" + S.encode())
            for window in range(4):
                family = [E for E in ideals if E.conductor <= S.conductor + window]
                if not family:
                    continue
                table = IdealTable(S, family)
                # J - X starts above -top and is full from top on; the sets
                # are read below 3 * top, past which J holds everything.
                top = table.top
                for _ in range(6):
                    J, X = rng.choice(table.rows), rng.choice(table.rows)
                    J_set, X_set = (
                        {x for x in range(-top, 3 * top) if x in E.ideal}
                        for E in (J, X)
                    )
                    want = oracles.colon_set(J_set, X_set, -top, top, 3 * top)
                    got = table.colon(J.bits, X.bits)
                    assert got.bit_count() == len(want), (J.ideal, X.ideal)
                    assert _window_set(table, got) == want, (J.ideal, X.ideal)


class TestTailGrowth:
    def test_a_constant_b_linear_past_conductor(self):
        for S in semigroups_up_to(6):
            c, delta, r = S.conductor, S.genus, S.type
            if c == 0:
                continue
            for k in range(c, c + 4):
                a, b = ab_invariants(S, tail_ideal(S, k))
                assert a == 2 * delta - c
                assert b == b_of_tail(S) + (k - c) * (r - 1)

    def test_dual_of_tail_is_opposite_tail(self):
        for S in semigroups_up_to(5):
            c = S.conductor
            if c == 0:
                continue
            for k in range(c, c + 3):
                assert dual(tail_ideal(S, k)) == tail_ideal(S, c - k)


class TestOverrings:
    def test_chain_lengths_over_345(self):
        S = from_generators((3, 4, 5))
        rep = overring_check(S, from_generators((2, 3)))
        assert rep.length == 1
        assert rep.min_index == 1
        assert rep.conductor_ideal == "3||3"
        assert all(c.passed for c in rep.checks)
        rep_n = overring_check(S, from_generators((1,)))
        assert rep_n.length == 2
        assert rep_n.conductor_ideal == "3||3"

    def test_requires_containment(self):
        with pytest.raises(NotOversemigroup):
            overring_check(from_generators((2, 3)), from_generators((3, 4, 5)))

    def test_every_enumerated_overring_passes(self):
        for S in semigroups_up_to(6):
            for T in oversemigroups(S):
                if T == S:
                    continue
                rep = overring_check(S, T)
                assert all(c.passed for c in rep.checks), (
                    S.encode(),
                    T.encode(),
                )


    def test_row_route_matches_one_row_tables(self):
        # The census's route: S - T found by the walk's bits among the
        # family table's rows of conductor c, against the one-row table of
        # the public report.
        for S in semigroups_up_to(8):
            c = S.conductor
            want = {
                (T.bits_below(c), overring_check(S, T).checks)
                for T in oversemigroups(S)[1:]
            }
            for window in range(3):
                table = IdealTable.family(S, window)
                at_c = {row.bits: row for row in table.rows if row.conductor == c}
                got = set()
                for members, ideal in table.oversemigroup_walk():
                    T = from_bits(members >> table.offset, table.top)
                    checks = overring_checks(S, members, at_c[ideal])
                    got.add((T.bits_below(c), checks))
                assert got == want, (S.encode(), window)

    def test_row_must_be_the_conductor_ideal_of_t(self):
        S = from_generators((4, 5, 7))
        T = oversemigroups(S)[1]
        table = IdealTable.family(S, 0)
        own = table.bits_of(conductor_ideal(S, T))
        other = next(row for row in table.rows if row.bits != own)
        with pytest.raises(InternalInconsistency, match=T.encode()):
            overring_checks(S, T.bits_below(table.top) << table.offset, other)
        rep = overring_check(S, S)
        assert (rep.length, rep.min_index, rep.conductor_ideal) == (0, 0, "")
        assert rep.checks == ()
        with pytest.raises(NotOversemigroup):
            overring_check(S, from_generators((5, 6, 7, 8, 9)))


class TestDomainErrors:
    def test_invariants_need_proper_integral_ideals(self):
        S = from_generators((3, 4, 5))
        with pytest.raises(NotIntegralProper):
            ab_invariants(S, unit_ideal(S))
        with pytest.raises(NotIntegralProper):
            d_invariant(S, ideal_from_generators(S, (-1,)))
        with pytest.raises(NotIntegralProper):
            decomposition_check(S, tail_ideal(S, 0))


def _window_set(table, bits):
    """The integers a table row stands for below the table's top."""
    return {k - table.offset for k in range(bits.bit_length()) if bits >> k & 1}


class TestIdealTable:
    @given(small_semigroup_st(), st.integers(min_value=0, max_value=3))
    @example(from_generators((1,)), 0)
    @example(from_generators((1,)), 3)
    @example(from_generators((3, 4, 5)), 2)
    @settings(max_examples=30, deadline=None)
    def test_matches_generic_operations_and_set_oracles(self, S, window):
        table = IdealTable(S, enumerate_ideals(S, window))
        # Every set below is read on [-margin, margin).
        top, margin = table.top, 3 * table.top + 8
        A = {x for x in oracles.semigroup_set(S, margin) if x < margin}
        r = len(oracles.pseudo_frobenius(A, S.conductor))
        tail = set(range(top, margin))
        sets = {}
        for row in table.rows:
            E, bid = row.ideal, row.bidual
            I = {x for x in oracles.ideal_set(E, margin) if x < margin}
            I_dual = oracles.colon_set(A, I, -margin, margin, margin)
            I_bid = oracles.colon_set(A, I_dual, -margin, margin, margin)
            # Each set is its window bits plus everything from top on.
            for got, want in ((row.bits, I), (row.dual, I_dual), (bid, I_bid)):
                assert _window_set(table, got) | tail == want, E.encode()
            assert (bid == row.bits) == is_reflexive(E) == (I_bid == I)
            assert (row.length, row.dual_length) == (
                len(I - tail),
                len(I_dual - tail),
            )
            l_quot = len(A - I)
            l_dual = len(I_dual - A)
            assert (row.a, row.b) == ab_invariants(S, E)
            assert (row.a, row.b) == (l_dual - l_quot, r * l_quot - l_dual)
            sets[row] = I, I_dual
        for X, Y in itertools.permutations(table.rows, 2):
            (X_set, X_dual), (Y_set, Y_dual) = sets[X], sets[Y]
            inside = X.bits & ~Y.bits == 0
            assert inside == X.ideal.is_subset_of(Y.ideal) == (X_set <= Y_set)
            assert (Y.dual & ~X.dual == 0) == (Y_dual <= X_dual)
            if inside:
                assert (
                    Y.length - X.length
                    == length_between(Y.ideal, X.ideal)
                    == len(Y_set - X_set)
                )
                assert (
                    X.dual_length - Y.dual_length
                    == length_between(dual(X.ideal), dual(Y.ideal))
                    == len(X_dual - Y_dual)
                )

    @pytest.mark.parametrize("window", range(4))
    def test_walk_rows_match_the_colon_path(self, window):
        # The walk carries I* down by one AND per take; the generic table
        # takes the colon S - I.  S = N with window 0 has no rows.
        for S in semigroups_up_to(8):
            walk = IdealTable.family(S, window)
            got = [(row.bits, row.dual) for row in walk.rows]
            keys = [row.ideal.sort_key() for row in walk.rows]
            colon = IdealTable(S, [row.ideal for row in walk.rows])
            assert walk.top == colon.top == S.conductor + window + 1
            assert bool(got) == (S.conductor + window > 0)
            assert keys == sorted(keys), S.encode()
            assert got == [(row.bits, row.dual) for row in colon.rows], S.encode()
            if S.genus > 6:
                continue
            lo, hi = -walk.top, 2 * walk.top
            A = {x for x in range(lo, hi) if x in S}
            for row in walk.rows:
                I = {x for x in range(lo, hi) if x in row.ideal}
                want = oracles.colon_set(A, I, lo, walk.top, hi)
                assert _window_set(walk, row.dual) == want, row.ideal.encode()

    def test_colons_are_the_two_colons(self):
        # colon_growth takes J - (X cap Y) and J - (X cup Y) in one call.
        rng = random.Random(0)
        for S in semigroups_up_to(6):
            table = IdealTable.family(S, 2)
            rows = [row.bits for row in table.rows]
            for _ in range(40):
                J, X, Y = (rng.choice(rows) for _ in range(3))
                for A, B, C in ((J, X, Y), (J, X & Y, X | Y), (table.unit, X, Y)):
                    want = table.colon(A, B), table.colon(A, C)
                    assert table.colons(A, B, C) == want, S.encode()

    def test_type_is_read_once_per_table(self):
        for S in semigroups_up_to(6):
            tables = (
                IdealTable.family(S, 2),
                IdealTable(S, [tail_ideal(S, S.conductor + 1)]),
                IdealTable(S, []),
            )
            assert [table.type for table in tables] == [S.type] * 3, S.encode()

    def test_rejects_ideals_it_cannot_hold(self):
        S = from_generators((3, 4, 5))
        with pytest.raises(NotIntegralProper):
            IdealTable(S, [unit_ideal(S)])
        with pytest.raises(ParentMismatch):
            IdealTable(S, [tail_ideal(from_generators((2, 3)), 3)])

    def test_properness_on_bits_keeps_the_messages(self):
        # Ideals that hold 0, a gap of S or a negative fail in a table, where
        # properness is read off their window bits, as ``require_proper``
        # fails on them.
        S = from_generators((3, 4, 5))
        cases = [
            unit_ideal(S),
            ideal_from_generators(S, (1,)),
            tail_ideal(S, 2),
            ideal_from_generators(S, (-4,)),
            ideal_from_generators(S, (-1,)),
        ]
        for E in cases:
            with pytest.raises(NotIntegralProper) as want:
                require_proper(E)
            with pytest.raises(NotIntegralProper, match=str(want.value)):
                IdealTable(S, [E])


def _table_bits(table, members):
    """A table row for a set of integers, read below the table's top."""
    return sum(1 << (x + table.offset) for x in members if x < table.top)


def _omega_cases():
    """(S, ideals) for genus <= 7 up to window 3, and two wide ideals."""
    for S in semigroups_up_to(7):
        yield S, enumerate_ideals(S, window=3)
    S = from_generators((3, 4, 5))
    yield S, [ideal_from_generators(S, (120,))]
    S = negative_a_semigroup()
    yield S, [ideal_from_generators(S, (38, 44, 50))]


class TestOmegaOnBits:
    def test_omega_is_the_sumset_with_the_canonical_set(self):
        for S, ideals in _omega_cases():
            for window in range(4):
                family = [E for E in ideals if E.conductor <= S.conductor + window]
                if not family:
                    continue
                table = IdealTable(S, family)
                top = table.top
                A = {x for x in range(top) if x in S}
                K = oracles.canonical_set(A, S.conductor, top)
                for row in table.rows:
                    I = {x for x in range(top) if x in row.ideal}
                    want = _table_bits(table, oracles.sum_set(K, I, top))
                    assert row.omega == want, (S.encode(), row.ideal.encode())


def _popcount_sum_tables():
    """Tables over every row of genus <= 7 (windows 0-2), the overring
    tables, a wide ideal of <3,4,5> and the negative-a semigroup."""
    for S in semigroups_up_to(7):
        for window in range(3):
            yield IdealTable(S, enumerate_ideals(S, window))
        overs = oversemigroups(S)[1:]
        yield IdealTable(S, [conductor_ideal(S, T) for T in overs])
    S = from_generators((3, 4, 5))
    yield IdealTable(S, [ideal_from_generators(S, (2000,))])
    S = negative_a_semigroup()
    yield IdealTable(S, enumerate_ideals(S, 2))


class TestOnePath:
    """The reports are views of the check tuples; lazy fields run once."""

    def test_reports_carry_the_check_tuples(self):
        for S in semigroups_up_to(7):
            for window in range(3):
                for row in IdealTable(S, enumerate_ideals(S, window)).rows:
                    assert decomposition_check(S, row.ideal).checks == (
                        decomposition_checks(row)
                    ), (S.encode(), window, row.ideal.encode())
            overs = oversemigroups(S)[1:]
            table = IdealTable(S, [conductor_ideal(S, T) for T in overs])
            for T, row in zip(overs, table.rows):
                assert overring_check(S, T).checks == (
                    overring_checks(S, T.bits_below(table.top) << table.offset, row)
                ), (S.encode(), T.encode())

    def test_signature_expansion_matches_the_tuple_path(self):
        col, want, signatures = _Collector(), Counter(), set()
        for S in semigroups_up_to(8):
            for window in range(3):
                for row in IdealTable(S, enumerate_ideals(S, window)).rows:
                    checks = decomposition_checks(row)
                    signature, failed = decomposition_tally(row)
                    col.count(signature)
                    want.update(c[0] for c in checks)
                    signatures.add(signature)
                    name = (S.encode(), window, row.ideal.encode())
                    assert signature == tuple(c[0] for c in checks), name
                    assert failed == () and all(c[1] for c in checks), name
                    # The hypotheses of the conditional checks, read off the
                    # row apart from the check body.
                    ag = S.type - 1 == 2 * S.genus - S.conductor
                    refl = row.bidual == row.bits
                    hypotheses = {
                        "d_inside_different": row.bits & ~row.table.theta == 0,
                        "d_zero_when_omega_stable": row.omega == row.bits,
                        "a_lower_when_omega_stable": row.omega == row.bits,
                        "d_zero_when_integrally_closed": is_integrally_closed(
                            row.ideal
                        ),
                        "d_zero_when_almost_gorenstein": ag and not row.principal,
                        "a_bound_when_arf": is_arf(S),
                        "a_constant_when_ag_reflexive": ag
                        and refl
                        and not row.principal,
                        "a_zero_when_type_one": S.type == 1,
                    }
                    for cid, holds in hypotheses.items():
                        assert (cid in signature) == holds, (name, cid)
                    assert len(signature) == 28 + sum(hypotheses.values()), name
        assert col.check_tallies() == dict(want)
        assert 1 < len(signatures) <= 2 ** 7

    def test_popcount_sums_match_the_index_tuples(self):
        for table in _popcount_sum_tables():
            S = table.S
            ts = type_sequence(S)
            for row in table.rows:
                n_i = row.ideal.conductor - S.genus
                unmarked = set(row.unmarked)
                # r_h extended by 1 beyond the chain, indexed from 1.
                r = (0, *ts.values) + (1,) * max(0, n_i - len(ts.values))
                assert row.unmarked_sum == sum(r[h] for h in unmarked), (
                    row.ideal.encode()
                )
                # d is l(tail(c - c_I)/I*) less the r_h over the marked h <= n_I.
                marked = sum(r[h] for h in range(1, n_i + 1) if h not in unmarked)
                tail_dual = table.tail_length(S.conductor - row.conductor)
                assert row.d == tail_dual - row.dual_length - marked, (
                    row.ideal.encode()
                )

    def test_public_reports_hold_check_records(self):
        for S in semigroups_up_to(6):
            table = IdealTable(S, enumerate_ideals(S, 2))
            reports = [decomposition_check(S, row.ideal) for row in table.rows]
            reports += [overring_check(S, T) for T in oversemigroups(S)[1:]]
            reports += [classify_b(S), ring_classification(S, 2, table)]
            if S.conductor:
                reports.append(window_profile(S))
            for rep in reports:
                assert all(type(c) is Check for c in rep.checks), S.encode()

    def test_bidual_is_one_colon(self, monkeypatch):
        calls = []
        colon = IdealTable.colon

        def counted(self, A, B):
            calls.append(B)
            return colon(self, A, B)

        monkeypatch.setattr(IdealTable, "colon", counted)
        for S in semigroups_up_to(7):
            for window in range(3):
                for row in IdealTable(S, enumerate_ideals(S, window)).rows:
                    calls.clear()
                    first, second = row.bidual, row.bidual
                    assert first == second and calls == [row.dual], (
                        S.encode(),
                        row.ideal.encode(),
                    )

    def test_chain_lengths_match_the_full_walk(self):
        cases = [(S, enumerate_ideals(S, 2)) for S in semigroups_up_to(7)]
        S = from_generators((3, 4, 5))
        cases.append((S, [ideal_from_generators(S, (2000,))]))
        for S, ideals in cases:
            table = IdealTable(S, ideals)
            want = _chain_dual_lengths(S, table.top - S.genus)
            for i in range(table.top - S.genus + 1):
                assert table.prefix[i] == want[i] - want[0], (S.encode(), i)
                assert table.chain_dual_length(i) == (
                    want[i] + table.top - S.conductor
                ), (S.encode(), i)
