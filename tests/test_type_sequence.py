"""Type sequences of the chain of tail duals, and their aggregate laws."""

import pytest

import oracles
from conftest import negative_a_semigroup, semigroups_up_to
from typeseq import (
    NumericalSemigroup,
    b_of_tail,
    decomposition_check,
    extended_type_sequence,
    from_generators,
    gamma_invariants,
    ideal_from_generators,
    sigma,
    type_sequence,
)


class TestFrozenValues:
    CASES = {
        (2, 3): (1,),
        (3, 4, 5): (2,),
        (4, 5, 7): (2, 1, 1),
        (5, 6, 9): (1, 1, 1, 1, 1, 1, 1),
        (4, 6, 9, 11): (3, 1, 1),
        (6, 7, 8, 9, 10, 11): (5,),
        (9, 15, 17, 23, 25, 29, 31): (3,) + (1,) * 17,
    }

    def test_known_sequences(self):
        for gens, want in self.CASES.items():
            assert type_sequence(from_generators(gens)).values == want, gens

    def test_non_monotone_example(self):
        G = NumericalSemigroup.decode("0,4,8,9,12,13|16")
        assert type_sequence(G).values == (2, 2, 1, 2, 1, 2)

    def test_whole_numbers_is_empty(self):
        N = from_generators((1,))
        assert type_sequence(N).values == ()


class TestAggregateLaws:
    def test_sum_is_genus_first_is_type_entries_bounded(self):
        for S in semigroups_up_to(8):
            values = type_sequence(S).values
            assert len(values) == S.n
            assert sum(values) == S.genus
            if values:
                assert values[0] == S.type
            assert all(1 <= r <= S.type for r in values)

    def test_matches_set_oracle(self):
        for S in semigroups_up_to(7):
            members = oracles.semigroup_set(S, 2 * S.conductor + 4)
            want = oracles.type_sequence_sets(members, S.conductor)
            assert list(type_sequence(S).values) == want, S.encode()

    @pytest.mark.parametrize(
        "gens", [(16, 21, 26, 31), (17, 23, 29), (21, 25, 29, 33)]
    )
    def test_matches_set_oracle_on_wide_windows(self, gens):
        # Conductors 140-216: colon windows span several machine words.
        S = from_generators(gens)
        assert 100 <= S.conductor <= 300
        members = oracles.semigroup_set(S, 2 * S.conductor + 4)
        want = oracles.type_sequence_sets(members, S.conductor)
        assert list(type_sequence(S).values) == want

    def test_two_generator_wide_window_is_all_ones(self):
        # <e, e + 1> is symmetric with conductor (e - 1) * e.
        for e in (40, 80, 120):
            S = from_generators((e, e + 1))
            assert S.conductor == (e - 1) * e
            assert type_sequence(S).values == (1,) * ((e - 1) * e // 2), e

    def test_all_ones_iff_gorenstein(self):
        for S in semigroups_up_to(7):
            all_ones = set(type_sequence(S).values) <= {1}
            assert all_ones == (S.type == 1)

    def test_constant_type_iff_tail_b_vanishes(self):
        for S in semigroups_up_to(7):
            if S.conductor == 0:
                continue
            values = type_sequence(S).values
            constant = set(values) == {S.type}
            assert constant == (b_of_tail(S) == 0)
            assert constant == (
                S.type * (S.conductor - S.genus) == S.genus
            )


class TestExtension:
    def test_entries_past_the_chain_are_one(self):
        S = from_generators((3, 4, 5))
        assert extended_type_sequence(S, 4) == (2, 1, 1, 1)

    def test_extension_below_chain_length_raises(self):
        S = from_generators((4, 5, 7))
        with pytest.raises(ValueError):
            extended_type_sequence(S, S.n - 1)

    def test_extension_prefix_is_the_type_sequence(self):
        for S in semigroups_up_to(7):
            members = oracles.semigroup_set(S, 2 * S.conductor + 4)
            want = oracles.type_sequence_sets(members, S.conductor)
            got = extended_type_sequence(S, S.n + 3)
            assert got == tuple(want) + (1, 1, 1), S.encode()


class TestSigma:
    def test_frozen_values(self):
        assert sigma(from_generators((3, 4, 5))) == 0
        assert sigma(from_generators((6, 7, 8, 9, 10, 11))) == 3
        assert sigma(from_generators((4, 6, 9, 11))) == 1
        assert sigma(negative_a_semigroup()) == 1
        assert sigma(NumericalSemigroup.decode("0,4,8,9,12,13|16")) == 0
        assert sigma(from_generators((1,))) == 0

    def test_sigma_bounded_by_tail_a(self):
        for S in semigroups_up_to(7):
            assert 0 <= sigma(S) <= gamma_invariants(S)[0]


class TestUnmarkedIndices:
    def test_frozen_values(self):
        S = from_generators((3, 4, 5))
        I = ideal_from_generators(S, (4, 5))
        assert decomposition_check(S, I).v_complement == (1, 2)
        G = NumericalSemigroup.decode("0,4,8,9,12,13|16")
        from typeseq import RelativeIdeal

        R2 = RelativeIdeal(G, 8, 16, 0b110011)
        assert decomposition_check(G, R2).v_complement == (1, 2)
        T = RelativeIdeal(G, 12, 20, 0b110011)
        assert decomposition_check(G, T).v_complement == (1, 2, 3, 4, 9, 10)

    def test_negative_a_witness_ideal(self):
        S = negative_a_semigroup()
        I = ideal_from_generators(S, (38, 44, 50))
        W = decomposition_check(S, I).v_complement
        assert len(W) == 31
        assert W[:5] == (1, 2, 3, 4, 5)
        assert W[-4:] == (32, 33, 38, 39)

    def test_translate_complement_and_range(self):
        from typeseq import principal_ideal

        S = from_generators((3, 4, 5))
        P = principal_ideal(S, 3)
        W = decomposition_check(S, P).v_complement
        assert W == (1, 3, 4)
        n_p = P.conductor - S.genus
        assert all(1 <= h <= n_p for h in W)
