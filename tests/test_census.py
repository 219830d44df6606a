"""Exhaustive enumeration, the theorem census, and the negative-a search."""

import itertools
import json
import random
import tracemalloc
from collections import Counter

import pytest

import oracles
from test_kill_matrix import planted
from typeseq import (
    BoundTooLarge,
    CensusQuery,
    EncodingError,
    InvalidInput,
    NumericalSemigroup,
    WindowTooLarge,
    classification_census,
    classify_b,
    enumerate_ideals,
    enumerate_semigroups,
    from_generators,
    oversemigroups,
    search_negative_a,
    tail_ideal,
    verify_theorems,
)
from typeseq import (
    Violation,
    census,
    classification,
    cli,
    ideals,
    invariants,
    semigroup,
)
from typeseq.classification import (
    TAG_B_EQ_R_G,
    TAG_B_EQ_R_J,
    TAG_B_EQ_RM1_CASE1,
    TAG_B_EQ_RM1_CASE2,
    TAG_B_GT,
    TAG_GORENSTEIN,
)
from typeseq.census import _children
from typeseq.invariants import (
    IdealRow,
    IdealTable,
    _eq,
    _le,
    decomposition_checks,
)

# Explicit encodings of several genera, for the semigroups= selector.
EXPLICIT = (
    "0,3|3",
    "0,2,4,6,8,10|10",
    "0,3,6,8|8",
    "0,4,5,8,9,10,12|12",
    "0,6|6",
    "0,3,5|5",
)

S345 = from_generators((3, 4, 5))

# Semigroups per genus, n_g for g <= 12 (Bras-Amoros, Semigroup Forum 2008).
GENUS_COUNTS = {
    0: 1, 1: 1, 2: 2, 3: 4, 4: 7, 5: 12, 6: 23,
    7: 39, 8: 67, 9: 118, 10: 204, 11: 343, 12: 592,
}

# Check tallies of CensusQuery(max_genus=7, window=2, checks=(group,)),
# one group at a time, so a regression names the group that moved.
GROUP_TALLIES_GENUS_7 = {
    "semigroup": {
        "sg_arf_chain_b": 90,
        "sg_arf_dual_length": 90,
        "sg_chain_a_partial": 346,
        "sg_chain_b_partial": 346,
        "sg_different_member_forces_one": 250,
        "sg_different_shift_a_is_sigma": 314,
        "sg_gorenstein_iff_type_one": 89,
        "sg_tail_a_constant": 178,
        "sg_tail_b_linear": 178,
        "sg_ts_deficit_sum": 89,
        "sg_ts_entries_in_range": 88,
        "sg_ts_extension_ones": 89,
        "sg_ts_first_is_type": 88,
        "sg_ts_sum_is_genus": 89,
        "sg_ts_two_paths": 346,
        "sg_type_bound": 88,
    },
    "ideals": {
        "a_at_most_tail_value": 1909,
        "a_bidual_drop": 1909,
        "a_bound_when_arf": 300,
        "a_constant_when_ag_reflexive": 1202,
        "a_from_type_sequence": 1909,
        "a_lower_bound": 1909,
        "a_lower_when_omega_stable": 1337,
        "a_plus_b_split": 1909,
        "a_upper_bound": 1909,
        "a_via_omega_growth": 1909,
        "a_zero_when_type_one": 741,
        "b_at_least_reflexive_defect": 1909,
        "b_from_type_sequence": 1909,
        "b_lower_bound": 1909,
        "b_nonnegative": 1909,
        "b_upper_bound": 1909,
        "b_vanishing_iff": 1909,
        "d_bidual_invariant": 1909,
        "d_inside_different": 1759,
        "d_nonnegative": 1909,
        "d_via_min_index": 1909,
        "d_via_omega_product": 1909,
        "d_window_lower": 1909,
        "d_window_upper": 1909,
        "d_zero_when_almost_gorenstein": 1515,
        "d_zero_when_integrally_closed": 524,
        "d_zero_when_omega_stable": 1337,
        "dual_length_bound": 1909,
        "marked_count_small": 1909,
        "marked_count_window": 1909,
        "marked_sum_lower": 1909,
        "marked_sum_upper": 1909,
        "omega_growth_lower": 1909,
        "tail_length_bound": 1909,
        "tail_length_equality_iff": 1909,
        "unmarked_sum_split": 1909,
    },
    "pairs": {
        "pair_a_lower": 11197,
        "pair_a_upper": 11197,
        "pair_b_antitone": 11197,
        "pair_dual_growth_bound": 11197,
    },
    "colon_growth": {
        "colon_growth_bound": 5132,
    },
    "equivalences": {
        "almost_symmetric_product_vs_count": 89,
        "almost_symmetric_type_seq_vs_count": 89,
        "equiv_a_reflexive_defect": 89,
        "equiv_canonical_stable_max_ideal": 89,
        "equiv_length_symmetry": 89,
        "equiv_omega_mult_is_bidual": 89,
        "equiv_tail_dual_length": 89,
        "equiv_type_seq_pattern": 89,
        "maximal_length_iff_b_dies_above_tail": 89,
        "maximal_length_type_seq_vs_count": 89,
        "symmetric_iff_a_vanishes": 89,
        "symmetric_iff_canonical_trivial": 89,
    },
    "overrings": {
        "overring_length_bound": 1031,
        "overring_length_by_min_index": 1031,
        "overring_length_split": 1031,
    },
    "profile": {
        "profile_b_lower_bound": 88,
        "profile_b_split": 88,
        "profile_b_split_upper": 88,
        "profile_b_two_paths": 88,
        "profile_e_minus_r_positive": 88,
        "profile_gap_count_lower": 88,
        "profile_gap_count_upper": 88,
        "profile_late_count_is_quotient": 88,
        "profile_late_count_is_socle": 88,
        "profile_late_sum_bound": 88,
        "profile_mid_b_bounds_type": 3,
        "profile_mid_b_forces_quotient": 3,
        "profile_p_lower": 88,
        "profile_p_upper": 88,
        "profile_quotient_at_least_e_minus_r": 88,
        "profile_quotient_two_counts": 88,
        "profile_quotient_window_q1": 13,
        "profile_quotient_window_q2": 28,
        "profile_small_b_forces_quotient": 13,
        "profile_small_b_forces_type": 13,
        "profile_socle_two_counts": 88,
    },
    "classification": {
        "class_b_eq_r_family": 4,
        "class_b_eq_rm1_unique_pattern": 12,
        "class_b_lt_type_seq": 89,
        "class_b_lt_value_set": 89,
        "classify_conductor_value": 13,
        "classify_last_entry": 13,
        "classify_multiplicity_value": 2,
        "classify_quotient_length": 29,
        "classify_ts_pattern": 25,
        "classify_type_value": 21,
        "classify_value_pattern": 27,
    },
}

# (colon_bits, sum_bits) calls of the same runs, each with cold caches.  A
# change on a hot path that adds kernel calls moves them; the tracer of the
# benchmark does not see these kernels.
KERNEL_CALLS_GENUS_7 = {
    "semigroup": (926, 346),
    "ideals": (1998, 1909),
    "pairs": (0, 0),
    "colon_growth": (11817, 0),
    "equivalences": (1998, 1631),
    "overrings": (1563, 0),
    "profile": (88, 0),
    "classification": (0, 0),
}

# Check tuples of classification_census(max_conductor=20), 2,616 nodes: those
# ``_eq`` builds in the census and in the core, and those handed to the
# collector.  Only the 186 non-Gorenstein nodes with b <= r build any; the 2,430
# Gorenstein and b > r nodes are counted by their signature.
CLASSIFICATION_TUPLES_CONDUCTOR_20 = {
    "typeseq.census": 372,
    "typeseq.classification": 887,
    "added": 1337,
}


# Classification tallies of classification_census's query at conductor <= 16
# behind each population filter: (semigroups, check_tallies,
# classification_tallies).
FILTERED_CLASSIFICATION_CONDUCTOR_16 = {
    "gorenstein_only": (
        32,
        {"class_b_lt_type_seq": 32, "class_b_lt_value_set": 32},
        {"GORENSTEIN": 32},
    ),
    "non_gorenstein_only": (
        548,
        {
            "class_b_eq_r_family": 15,
            "class_b_eq_rm1_unique_pattern": 33,
            "class_b_lt_type_seq": 548,
            "class_b_lt_value_set": 548,
            "classify_conductor_value": 62,
            "classify_last_entry": 62,
            "classify_multiplicity_value": 3,
            "classify_quotient_length": 110,
            "classify_ts_pattern": 95,
            "classify_type_value": 90,
            "classify_value_pattern": 98,
        },
        {
            "B_EQ_R_CASE_G": 12,
            "B_EQ_R_CASE_J": 3,
            "B_EQ_R_MINUS_1_CASE1": 20,
            "B_EQ_R_MINUS_1_CASE2": 13,
            "B_GT_R": 438,
            "B_LT_R_MINUS_1": 62,
        },
    ),
    "multiplicity_range": (
        127,
        {
            "class_b_eq_r_family": 7,
            "class_b_eq_rm1_unique_pattern": 14,
            "class_b_lt_type_seq": 127,
            "class_b_lt_value_set": 127,
            "classify_conductor_value": 19,
            "classify_last_entry": 19,
            "classify_multiplicity_value": 3,
            "classify_quotient_length": 40,
            "classify_ts_pattern": 33,
            "classify_type_value": 31,
            "classify_value_pattern": 36,
        },
        {
            "B_EQ_R_CASE_G": 4,
            "B_EQ_R_CASE_J": 3,
            "B_EQ_R_MINUS_1_CASE1": 9,
            "B_EQ_R_MINUS_1_CASE2": 5,
            "B_GT_R": 71,
            "B_LT_R_MINUS_1": 19,
            "GORENSTEIN": 16,
        },
    ),
}
FILTERS = {
    "gorenstein_only": dict(gorenstein_only=True),
    "non_gorenstein_only": dict(non_gorenstein_only=True),
    "multiplicity_range": dict(multiplicity_range=(3, 5)),
}


# The census's classification check of a tag beyond ``_CLASS_IDS``.
CLASS_TAG_IDS = {
    TAG_B_EQ_RM1_CASE1: ("class_b_eq_rm1_unique_pattern",),
    TAG_B_EQ_RM1_CASE2: ("class_b_eq_rm1_unique_pattern",),
    TAG_B_EQ_R_G: ("class_b_eq_r_family",),
    TAG_B_EQ_R_J: ("class_b_eq_r_family",),
}


def _depth_first(S, max_genus=None, max_conductor=None):
    """S, then the subtree of each child, the children in encoding order."""
    yield S
    children = _children(S, max_genus, max_conductor)
    for T in sorted(children, key=NumericalSemigroup.encode):
        yield from _depth_first(T, max_genus, max_conductor)


class TestSemigroupEnumeration:
    @pytest.mark.parametrize(
        "bounds, count",
        [(dict(max_conductor=20), 2616), (dict(max_genus=9), 274)],
        ids=["conductor20", "genus9"],
    )
    def test_walk_is_the_recursive_depth_first_order(self, bounds, count):
        # The reference sorts each node's children itself, so it holds the
        # walk to encoding order among siblings whatever order _children
        # lists them in.
        walk = [S.encode() for S in enumerate_semigroups(**bounds)]
        want = [S.encode() for S in _depth_first(NumericalSemigroup(0, 0), **bounds)]
        assert walk == want
        assert len(walk) == count

    def test_walk_count_at_conductor_28(self):
        assert sum(1 for _ in enumerate_semigroups(max_conductor=28)) == 47511

    def test_counts_by_genus(self):
        seen: dict[int, int] = {}
        for S in enumerate_semigroups(max_genus=12):
            seen[S.genus] = seen.get(S.genus, 0) + 1
        assert seen == GENUS_COUNTS

    def test_matches_gap_set_oracle(self):
        got: dict[int, set] = {g: set() for g in range(8)}
        for S in enumerate_semigroups(max_genus=7):
            got[S.genus].add(S.encode())
        for g in range(8):
            want = {
                oracles.encode_gap_set(gaps)
                for gaps in oracles.gap_set_semigroups(g)
            }
            assert got[g] == want, g

    @pytest.mark.parametrize("c", range(1, 15))
    def test_pruned_walk_equals_filtered_walk(self, c):
        # Every semigroup with conductor c has genus at most c - 1.
        filtered = [
            S for S in enumerate_semigroups(max_genus=c - 1) if S.conductor <= c
        ]
        assert list(enumerate_semigroups(max_conductor=c)) == filtered

    def test_both_bounds_prune_together(self):
        filtered = [
            S for S in enumerate_semigroups(max_genus=6) if S.conductor <= 9
        ]
        got = list(enumerate_semigroups(max_genus=6, max_conductor=9))
        assert got == filtered
        assert 0 < len(got) < len(list(enumerate_semigroups(max_genus=6)))
        assert len(got) < len(list(enumerate_semigroups(max_conductor=9)))

    def test_conductor_bound(self):
        got = sorted(S.encode() for S in enumerate_semigroups(max_conductor=4))
        assert got == ["0,2,4|4", "0,2|2", "0,3|3", "0,4|4", "0|0"]

    def test_no_duplicates(self):
        seen = [S.encode() for S in enumerate_semigroups(max_genus=8)]
        assert len(seen) == len(set(seen))


class TestIdealEnumeration:
    @pytest.mark.parametrize(
        "gens,window",
        [
            ((2, 3), 0),
            ((2, 3), 2),
            ((3, 4, 5), 1),
            ((3, 4, 5), 2),
            ((4, 5, 7), 2),
            ((2, 5), 2),
            ((1,), 0),
            ((1,), 2),
        ],
    )
    def test_matches_brute_force(self, gens, window):
        S = from_generators(gens)
        got = {
            (E.min_element, E.conductor, E.window_members)
            for E in enumerate_ideals(S, window=window)
        }
        assert got == oracles.proper_ideals_brute(S, window)

    @pytest.mark.parametrize("window", range(4))
    def test_matches_brute_force_through_genus_six(self, window):
        for S in enumerate_semigroups(max_genus=6):
            ideals = enumerate_ideals(S, window)
            got = {(E.min_element, E.conductor, E.window_members) for E in ideals}
            assert len(got) == len(ideals), S.encode()
            assert got == oracles.proper_ideals_brute(S, window), S.encode()

    def test_whole_numbers_yields_tails(self):
        N = from_generators((1,))
        got = [E.encode() for E in enumerate_ideals(N, window=3)]
        assert got == ["1||1", "2||2", "3||3"]

    def test_stream_contains_the_named_ideals(self):
        S = from_generators((3, 4, 5))
        encs = {E.encode() for E in enumerate_ideals(S, window=2)}
        assert "3||3" in encs  # maximal ideal, also the conductor tail
        assert "4||4" in encs and "5||5" in encs
        wide = {E.encode() for E in enumerate_ideals(S, window=3)}
        assert "3|3|6" in wide  # the translate 3 + S needs its wider window

    def test_sorted_and_unique(self):
        S = from_generators((4, 5, 7))
        ideals = list(enumerate_ideals(S, window=2))
        keys = [E.sort_key() for E in ideals]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


class TestVerifyTheorems:
    def test_small_census_is_clean(self):
        rep = verify_theorems(CensusQuery(max_genus=6, window=2))
        assert rep.passed
        assert rep.violations == []
        assert rep.semigroups_per_genus == {
            g: n for g, n in GENUS_COUNTS.items() if g <= 6
        }
        assert rep.semigroup_count == 50

    def test_check_tallies_cover_all_groups(self):
        rep = verify_theorems(CensusQuery(max_genus=5, window=2))
        ids = set(rep.check_tallies)
        for probe in (
            "sg_ts_sum_is_genus",
            "a_plus_b_split",
            "pair_dual_growth_bound",
            "colon_growth_bound",
            "equiv_length_symmetry",
            "overring_length_split",
            "profile_b_two_paths",
            "classify_value_pattern",
        ):
            assert probe in ids, probe
        assert all(n > 0 for n in rep.check_tallies.values())

    def test_single_semigroup_selector(self):
        rep = verify_theorems(CensusQuery(semigroups=("0,3|3",)))
        assert rep.semigroup_count == 1
        assert rep.passed

    def test_gorenstein_filter(self):
        rep = verify_theorems(
            CensusQuery(max_genus=6, gorenstein_only=True, checks=("semigroup",))
        )
        assert rep.semigroup_count > 0
        rep2 = verify_theorems(
            CensusQuery(
                max_genus=6, non_gorenstein_only=True, checks=("semigroup",)
            )
        )
        assert rep.semigroup_count == 17
        assert rep2.semigroup_count == 33

    def test_multiplicity_filter(self):
        rep = verify_theorems(
            CensusQuery(
                max_genus=6, multiplicity_range=(3, 3), checks=("semigroup",)
            )
        )
        assert rep.semigroup_count == sum(
            1
            for S in enumerate_semigroups(max_genus=6)
            if S.multiplicity == 3
        )

    @pytest.mark.parametrize(
        "selection, workers",
        [
            (dict(max_genus=7, window=2), 3),
            (dict(max_conductor=16, window=0, checks=("classification",)), 2),
            (dict(semigroups=EXPLICIT), 2),
            (dict(max_genus=7, gorenstein_only=True), 2),
            (dict(max_genus=6, multiplicity_range=(3, 4)), 2),
            (dict(max_genus=1), 3),  # two semigroups: one share is empty
        ],
        ids=[
            "genus7",
            "conductor16",
            "explicit",
            "gorenstein",
            "multiplicity",
            "empty_share",
        ],
    )
    def test_parallel_report_is_byte_identical(self, selection, workers):
        query = CensusQuery(**selection)
        serial = verify_theorems(query)
        parallel = verify_theorems(CensusQuery(workers=workers, **selection))
        assert serial.semigroup_count == len(list(census._selected(query))) > 0
        assert parallel.to_json() == serial.to_json()

    def test_shares_deal_the_selection_in_turn(self):
        query = CensusQuery(semigroups=EXPLICIT, checks=("semigroup",), workers=4)
        for i in range(4):
            genera = [NumericalSemigroup.decode(e).genus for e in EXPLICIT[i::4]]
            share = census._share(query, i)
            assert share.semigroups_per_genus == dict(Counter(genera)), i

    def test_violations_keep_both_sides(self, monkeypatch):
        def failing(S, table, sample_limit, col):
            checks = [_eq("t_num", 3, 5), _eq("t_bool", True, False), _le("t_ok", 1, 2)]
            col.add(S.encode, "", checks)

        monkeypatch.setitem(census._TALLIES, "semigroup", failing)
        query = dict(max_genus=2, checks=("semigroup",))
        serial = verify_theorems(CensusQuery(**query))
        parallel = verify_theorems(CensusQuery(workers=2, **query))
        encs = sorted(S.encode() for S in enumerate_semigroups(max_genus=2))
        assert serial.check_tallies == {"t_num": 4, "t_bool": 4, "t_ok": 4}
        assert serial.violations == [
            v
            for enc in encs
            for v in (
                Violation(enc, "", "t_bool", 1, 0),
                Violation(enc, "", "t_num", 3, 5),
            )
        ]
        assert all(
            type(v.lhs) is int and type(v.rhs) is int for v in serial.violations
        )
        text = serial.to_json()
        assert '"lhs": 1,' in text and '"lhs": true' not in text
        assert parallel.to_json() == text
        assert cli.main(["census", "--max-genus", "2", "--checks", "semigroup"]) == 1

    def test_ideal_and_overring_violations_name_their_objects(self, monkeypatch):
        monkeypatch.setattr(
            census,
            "decomposition_tally",
            lambda row: (("t_ideal",), (_eq("t_ideal", 1, 2),)),
        )
        monkeypatch.setattr(
            census, "overring_checks", lambda S, T, row: (_eq("t_over", 1, 2),)
        )
        query = dict(max_genus=3, window=2, checks=("ideals", "overrings"))
        serial = verify_theorems(CensusQuery(**query))
        parallel = verify_theorems(CensusQuery(workers=2, **query))
        want = []
        for S in enumerate_semigroups(max_genus=3):
            enc = S.encode()
            for I in enumerate_ideals(S, 2):
                want.append(Violation(enc, I.encode(), "t_ideal", 1, 2))
            for T in oversemigroups(S)[1:]:
                want.append(Violation(enc, T.encode(), "t_over", 1, 2))
        assert serial.violations == sorted(want, key=Violation.sort_key)
        assert parallel.to_json() == serial.to_json()
        assert cli.main(["census", "--max-genus", "3", "--checks", "ideals"]) == 1

    @planted("colon_kernel_drops_generator", "dual_loses_minimum_above_c")
    def test_planted_fault_fails_as_the_tuple_path_says(self):
        query = dict(
            max_genus=5, window=2, checks=("ideals", "pairs", "colon_growth")
        )
        serial = verify_theorems(CensusQuery(sample_limit=10_000, **query))
        parallel = verify_theorems(
            CensusQuery(sample_limit=10_000, workers=2, **query)
        )
        tallies, want = Counter(), []
        for S in enumerate_semigroups(max_genus=5):
            enc = S.encode()
            table = IdealTable.family(S, 2)
            for row in table.rows:
                checks = decomposition_checks(row)
                tallies.update(c[0] for c in checks)
                want += [
                    Violation(enc, row.ideal.encode(), c[0], *c[2:])
                    for c in checks
                    if not c[1]
                ]
            for X, Y in itertools.combinations(table.rows, 2):
                if X.bits & ~Y.bits == 0:
                    X, Y = Y, X
                elif Y.bits & ~X.bits:
                    continue
                gap, r = X.length - Y.length, S.type
                checks = (
                    _le(
                        "pair_dual_growth_bound",
                        Y.dual_length - X.dual_length,
                        r * gap,
                    ),
                    _le("pair_b_antitone", X.b, Y.b),
                    _le("pair_a_upper", Y.a, X.a + (r - 1) * gap),
                    _le("pair_a_lower", X.a - gap, Y.a),
                )
                tallies.update(c[0] for c in checks)
                want += [Violation(enc, "", c[0], *c[2:]) for c in checks if not c[1]]
            # colon_growth on the same draws, every colon taken by table.colon
            rows, colon = table.rows, table.colon
            rng = random.Random("colon:" + enc)
            for _ in range(min(10_000, len(rows) ** 2)):
                J = rng.choice(rows)
                X = rng.choice(rows)
                Y = rng.choice(rows)
                inner, outer = X.bits & Y.bits, X.bits | Y.bits
                t_j = colon(J.bits, table.maximal).bit_count() - J.length
                check = _le(
                    "colon_growth_bound",
                    colon(J.bits, inner).bit_count() - colon(J.bits, outer).bit_count(),
                    t_j * (outer.bit_count() - inner.bit_count()),
                )
                tallies[check[0]] += 1
                if not check[1]:
                    want.append(Violation(enc, "", check[0], *check[2:]))
        failing = {v.check_id for v in want}
        assert "a_from_type_sequence" in failing and "pair_a_lower" in failing
        assert "colon_growth_bound" in failing
        assert serial.violations == sorted(want, key=Violation.sort_key)
        assert serial.check_tallies == dict(tallies)
        assert all(
            type(v.lhs) is int and type(v.rhs) is int for v in serial.violations
        )
        assert parallel.to_json() == serial.to_json()

    def test_census_tallies_int_tuples_without_the_index_view(self, monkeypatch):
        def refuse(row):
            raise AssertionError("the census read row.unmarked")

        monkeypatch.setattr(IdealRow, "unmarked", property(refuse))
        added, failed = [], []
        add, fail = census._Collector.add, census._Collector.fail

        def record_add(self, sg, obj, checks):
            added.extend(checks)
            add(self, sg, obj, checks)

        def record_fail(self, sg, obj, checks):
            failed.extend(checks)
            fail(self, sg, obj, checks)

        monkeypatch.setattr(census._Collector, "add", record_add)
        monkeypatch.setattr(census._Collector, "fail", record_fail)
        query = CensusQuery(max_genus=7, window=2)
        rep = verify_theorems(query)
        assert rep.passed
        seen = added + failed
        assert seen and all(type(c[2]) is int and type(c[3]) is int for c in seen)
        # The signature counts stand for every tuple the tuple path emits.
        # The classification ids are all recounted, from ``_classify`` and
        # the census's own, as the census hands in a signature for most nodes.
        monkeypatch.undo()
        tuples = Counter(c[0] for c in added if not c[0].startswith("class"))
        for S in census._selected(query):
            tag, *_, own = census._classify(S)
            tuples.update(c[0] for c in own)
            tuples.update(census._CLASS_IDS + CLASS_TAG_IDS.get(tag, ()))
            table = IdealTable(S, enumerate_ideals(S, 2))
            for row in table.rows:
                tuples.update(c[0] for c in decomposition_checks(row))
            col = census._Collector()
            census._tally_pairs(S, table, query.sample_limit, col)
            census._tally_colon_growth(S, table, query.sample_limit, col)
            assert col.violations == []
            assert set(col.signatures) <= {census._PAIR_IDS, ("colon_growth_bound",)}
            tuples.update(col.check_tallies())
        assert rep.check_tallies == dict(tuples)
        assert sum(rep.check_tallies.values()) == sum(tuples.values())

    def test_report_json_is_canonical(self):
        rep = verify_theorems(CensusQuery(max_genus=4, window=1))
        text = rep.to_json()
        data = json.loads(text)
        assert "wall_ms" not in text
        assert data["passed"] is True
        assert json.dumps(data, sort_keys=True, indent=2) == text
        timed = json.loads(rep.to_json(include_timing=True))
        assert "wall_ms" in timed

    @pytest.mark.parametrize("group", sorted(GROUP_TALLIES_GENUS_7))
    def test_group_tallies_are_pinned(self, group):
        rep = verify_theorems(CensusQuery(max_genus=7, window=2, checks=(group,)))
        assert rep.violations == []
        assert rep.check_tallies == GROUP_TALLIES_GENUS_7[group]

    def test_kernel_calls_are_pinned(self, monkeypatch):
        # Every module that binds a kernel gets the counted one, so the Apery
        # pass, the ideal operations and the table's colons are all seen.
        calls = dict.fromkeys(("colon_bits", "sum_bits"), 0)
        for name in calls:
            kernel = getattr(semigroup, name)

            def counted(a, b, e, kernel=kernel, name=name):
                calls[name] += 1
                return kernel(a, b, e)

            for module in (semigroup, ideals, invariants):
                monkeypatch.setattr(module, name, counted)
        got = {}
        for group in census.GROUPS:
            calls.update(dict.fromkeys(calls, 0))
            with planted():  # no fault: the caches start cold
                verify_theorems(CensusQuery(max_genus=7, window=2, checks=(group,)))
            got[group] = calls["colon_bits"], calls["sum_bits"]
        assert got == KERNEL_CALLS_GENUS_7

    def test_overrings_do_not_depend_on_the_window(self):
        # Every S - T has conductor c, so each window's table holds it; the
        # overrings group alone counts no ideals.
        reports = [
            verify_theorems(
                CensusQuery(max_genus=8, checks=("overrings",), window=window)
            )
            for window in range(4)
        ]
        assert reports[0].check_tallies["overring_length_split"] > 0
        for rep in reports:
            assert rep.ideal_count == 0
            assert rep.check_tallies == reports[0].check_tallies

    def test_overrings_take_one_colon_per_oversemigroup(self, monkeypatch):
        # The rows of S - T are the census's own rows, whose duals and
        # biduals the ideal groups already took; only the check's colon
        # S - T is new, once per oversemigroup.
        calls = []
        kernel = invariants.colon_bits

        def counted(a, b, e):
            calls.append(e)
            return kernel(a, b, e)

        monkeypatch.setattr(invariants, "colon_bits", counted)
        without = tuple(g for g in census.GROUPS if g != "overrings")
        counts = []
        for checks in (census.GROUPS, without):
            calls.clear()
            verify_theorems(CensusQuery(max_genus=7, window=2, checks=checks))
            counts.append(len(calls))
        overs = GROUP_TALLIES_GENUS_7["overrings"]["overring_length_split"]
        assert counts[0] - counts[1] == overs == 1031

    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_group_alone_tallies_its_ids_of_an_all_run(self, workers):
        # The groups are picked once per query; one run alone must count
        # what it counts among all the others.
        query = dict(max_genus=7, window=2, workers=workers)
        everything = verify_theorems(CensusQuery(**query))
        assert everything.passed
        ids = set()
        for group in census.GROUPS:
            alone = verify_theorems(CensusQuery(checks=(group,), **query))
            own = GROUP_TALLIES_GENUS_7[group]
            assert alone.check_tallies == {
                cid: everything.check_tallies[cid] for cid in own
            }, group
            assert alone.semigroups_per_genus == everything.semigroups_per_genus
            counts_rows = group in census._IDEAL_GROUPS
            assert alone.ideal_count == (everything.ideal_count if counts_rows else 0)
            tags = everything.classification_tallies if group == "classification" else {}
            assert alone.classification_tallies == tags, group
            ids |= set(own)
        assert ids == set(everything.check_tallies)

    def test_type_sequence_is_computed_once_per_semigroup(self):
        # Every group reads a semigroup's type sequence during its visit, so
        # the last one cached is all the census needs.
        invariants.type_sequence.cache_clear()
        rep = verify_theorems(CensusQuery(max_genus=7, window=2))
        info = invariants.type_sequence.cache_info()
        assert info.misses == rep.semigroup_count == 89
        assert info.hits > info.misses

    def test_wall_time_recorded(self):
        rep = verify_theorems(CensusQuery(max_genus=3, window=1))
        assert rep.wall_ms >= 0


class TestClassificationCensus:
    def test_conductor_16_tallies(self):
        rep = classification_census(max_conductor=16)
        assert rep.passed
        assert rep.semigroup_count == 580
        assert dict(rep.classification_tallies) == {
            "GORENSTEIN": 32,
            "B_LT_R_MINUS_1": 62,
            "B_EQ_R_MINUS_1_CASE1": 20,
            "B_EQ_R_MINUS_1_CASE2": 13,
            "B_EQ_R_CASE_G": 12,
            "B_EQ_R_CASE_J": 3,
            "B_GT_R": 438,
        }

    def test_tallies_equal_the_public_tags(self):
        # The census classifies through the core; its tallies are those of
        # classify_b's tags over the same walk.
        rep = classification_census(max_conductor=20)
        want = Counter(
            classify_b(S).tag for S in enumerate_semigroups(max_conductor=20)
        )
        assert rep.classification_tallies == dict(want)

    def test_members_are_recorded_for_small_tags(self):
        rep = classification_census(max_conductor=14)
        assert set(rep.classification_members["B_EQ_R_CASE_J"]) == {
            "0,5,6,7,10|10",
            "0,5,6,8,10|10",
            "0,5,8,9,10,13|13",
        }

    def test_flipped_pattern_fails_as_the_tuple_path_says(self, monkeypatch):
        # One node of each tag that the census counts by signature gets one
        # pattern flipped; it must fail with the tuple path's int sides.
        clean = classification_census(max_conductor=12)
        flips = (
            ("class_b_lt_value_set", "value", "0,4,6,8|8", TAG_B_GT),
            ("class_b_lt_type_seq", "ts", "0,3,4,6|6", TAG_GORENSTEIN),
        )
        want = []
        for cid, kind, enc, tag in flips:
            S = NumericalSemigroup.decode(enc)
            got, b, r, *_ = census._classify(S)
            assert got == tag
            name = f"matches_small_b_{kind}_pattern"
            pattern = getattr(census, name)

            def flipped(T, pattern=pattern, target=S):
                return pattern(T) != (T == target)

            monkeypatch.setattr(census, name, flipped)
            # the tuple path: the census's own check, with the flipped side
            check = _eq(cid, 0 <= b < r - 1, flipped(S))
            want.append(Violation(enc, "", cid, *check[2:]))
        serial = classification_census(max_conductor=12)
        parallel = classification_census(max_conductor=12, workers=2)
        assert serial.violations == sorted(want, key=Violation.sort_key)
        assert [(v.lhs, v.rhs) for v in serial.violations] == [(0, 1), (0, 1)]
        assert all(
            type(v.lhs) is int and type(v.rhs) is int for v in serial.violations
        )
        assert serial.check_tallies == clean.check_tallies
        assert serial.classification_tallies == clean.classification_tallies
        assert parallel.to_json() == serial.to_json()

    @pytest.mark.parametrize("name", sorted(FILTERS))
    @pytest.mark.parametrize("workers", [1, 2])
    def test_filtered_tallies_are_pinned(self, name, workers):
        query = CensusQuery(
            max_conductor=16,
            window=0,
            checks=("classification",),
            workers=workers,
            **FILTERS[name],
        )
        rep = verify_theorems(query)
        assert rep.passed
        got = (rep.semigroup_count, rep.check_tallies, rep.classification_tallies)
        assert got == FILTERED_CLASSIFICATION_CONDUCTOR_16[name]

    def test_check_tuples_are_built_only_off_the_signature_path(self, monkeypatch):
        # Tuples built by ``_eq`` in the census and in the core, and tuples
        # handed to the collector, over the conductor-20 walk: a node counted
        # by its signature builds none.
        built = Counter()
        for module in (census, classification):
            def counted(cid, lhs, rhs, module=module):
                built[module.__name__] += 1
                return _eq(cid, lhs, rhs)

            monkeypatch.setattr(module, "_eq", counted)
        add = census._Collector.add

        def record_add(self, sg, obj, checks):
            built["added"] += len(checks)
            add(self, sg, obj, checks)

        monkeypatch.setattr(census._Collector, "add", record_add)
        rep = classification_census(max_conductor=20)
        assert rep.passed and rep.semigroup_count == 2616
        assert dict(built) == CLASSIFICATION_TUPLES_CONDUCTOR_20


class TestNegativeASearch:
    def test_first_examples_at_genus_eight(self):
        rep = search_negative_a(CensusQuery(max_genus=8, window=2))
        assert rep.examples == [
            ("0,7,8,9,10,11,14|14", "7|7,9,11|14", -1),
            ("0,7,8,9,10,11,14|14", "9|9,11,14|16", -1),
            ("0,7,8,9,10,12,14|14", "8|8,9,12|15", -1),
            ("0,7,8,9,11,12,14|14", "7|7,8,9|14", -1),
        ]

    def test_none_below_genus_eight(self):
        rep = search_negative_a(CensusQuery(max_genus=7, window=2))
        assert rep.examples == []

    def test_gorenstein_rings_have_no_negative_a(self):
        query = CensusQuery(
            max_genus=8, window=2, gorenstein_only=True, checks=("semigroup",)
        )
        rep = search_negative_a(query)
        assert rep.examples == []
        # the search counts the filtered population, as the census does
        assert rep.semigroup_count == verify_theorems(query).semigroup_count

    def test_workers_are_refused(self, monkeypatch):
        def no_walk(query):
            raise AssertionError("the tree was walked")

        monkeypatch.setattr(census, "_selected", no_walk)
        with pytest.raises(InvalidInput):
            search_negative_a(CensusQuery(max_genus=8, workers=2))


class TestGuards:
    def test_genus_guard(self):
        with pytest.raises(BoundTooLarge):
            CensusQuery(max_genus=13)
        assert CensusQuery(max_genus=13, allow_large=True).max_genus == 13

    def test_conductor_guard(self):
        with pytest.raises(BoundTooLarge):
            CensusQuery(max_conductor=99)
        assert CensusQuery(max_conductor=30).max_conductor == 30

    def test_window_guard(self):
        with pytest.raises(WindowTooLarge):
            CensusQuery(max_genus=5, window=4)
        assert CensusQuery(max_genus=5, window=4, allow_large=True).window == 4

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("TYPESEQ_MAX_GENUS", "5")
        with pytest.raises(BoundTooLarge):
            CensusQuery(max_genus=6)
        assert CensusQuery(max_genus=5).max_genus == 5
        monkeypatch.setenv("TYPESEQ_MAX_GENUS", "14")
        assert CensusQuery(max_genus=14).max_genus == 14

    def test_negative_bounds_are_invalid_input(self):
        for bounds in ({"max_genus": -3}, {"max_conductor": -1}):
            with pytest.raises(InvalidInput, match="non-negative"):
                CensusQuery(**bounds)
            with pytest.raises(InvalidInput):
                CensusQuery(**bounds, allow_large=True)
        with pytest.raises(InvalidInput):
            classification_census(-1)
        assert CensusQuery(max_genus=0).max_genus == 0
        assert CensusQuery(max_conductor=0).max_conductor == 0

    def test_negative_walk_and_ideal_bounds_are_invalid_input(self):
        S = from_generators((3, 4, 5))
        for bounds in ({"max_genus": -1}, {"max_conductor": -5}):
            with pytest.raises(InvalidInput, match="non-negative"):
                enumerate_semigroups(**bounds)
        with pytest.raises(InvalidInput, match="non-negative"):
            enumerate_ideals(S, -2)
        assert list(enumerate_semigroups(max_genus=0)) == [NumericalSemigroup(0, 0)]
        assert list(enumerate_semigroups(max_conductor=0)) == [
            NumericalSemigroup(0, 0)
        ]
        assert [E.encode() for E in enumerate_ideals(S, 0)] == ["3||3"]

    @pytest.mark.parametrize(
        "call, kwargs",
        [
            pytest.param(CensusQuery, {"max_genus": 3.5}, id="max_genus-float"),
            pytest.param(CensusQuery, {"max_genus": True}, id="max_genus-bool"),
            pytest.param(CensusQuery, {"max_genus": "5"}, id="max_genus-str"),
            pytest.param(
                CensusQuery, {"max_genus": "5", "allow_large": True}, id="large-str"
            ),
            pytest.param(CensusQuery, {"max_conductor": 10.0}, id="max_conductor"),
            pytest.param(CensusQuery, {"max_genus": 3, "window": 1.5}, id="window"),
            pytest.param(CensusQuery, {"max_genus": 3, "workers": 1.0}, id="workers"),
            pytest.param(
                CensusQuery, {"max_genus": 3, "sample_limit": 2.5}, id="sample_limit"
            ),
            pytest.param(CensusQuery, {"semigroups": "0,3|3"}, id="semigroups-str"),
            pytest.param(CensusQuery, {"semigroups": ("0,3|3", 3)}, id="semigroups-int"),
            pytest.param(enumerate_semigroups, {"max_genus": 2.5}, id="walk-genus"),
            pytest.param(enumerate_semigroups, {"max_conductor": True}, id="walk-c"),
            pytest.param(enumerate_ideals, {"S": S345, "window": 1.5}, id="ideals"),
            pytest.param(IdealTable.family, {"S": S345, "window": True}, id="family"),
        ],
    )
    def test_bounds_must_be_ints(self, call, kwargs):
        # Refused on the call: before a guard compares the value, and before
        # the census or the walk starts.
        with pytest.raises(InvalidInput):
            call(**kwargs)

    def test_malformed_env_guard_is_invalid_input_under_allow_large(self, monkeypatch):
        for text in ("abc", "", "4.5", "-1"):
            monkeypatch.setenv("TYPESEQ_MAX_GENUS", text)
            with pytest.raises(InvalidInput, match="TYPESEQ_MAX_GENUS"):
                CensusQuery(max_genus=2, allow_large=True)

    def test_multiplicity_range_is_two_ordered_positive_ints(self):
        for bad in ((5, 3), (3,), (0, 2), (1, 2, 3), (2.0, 3), (True, 3), 4):
            with pytest.raises(InvalidInput, match="multiplicity_range"):
                CensusQuery(max_genus=5, multiplicity_range=bad)
        query = CensusQuery(
            max_genus=5, multiplicity_range=(3, 4), checks=("semigroup",)
        )
        want = [
            S for S in enumerate_semigroups(max_genus=5) if 3 <= S.multiplicity <= 4
        ]
        assert verify_theorems(query).semigroup_count == len(want) > 0

    def test_exactly_one_population_selector(self):
        with pytest.raises(ValueError):
            CensusQuery()
        with pytest.raises(ValueError):
            CensusQuery(max_genus=5, max_conductor=10)

    def test_worker_count_positive(self):
        with pytest.raises(ValueError):
            CensusQuery(max_genus=5, workers=0)

    def test_explicit_semigroups_are_decoded_and_guarded(self, monkeypatch):
        # Each encoding is decoded when the query is built, before any work
        # and outside any pool worker, and its genus meets max_genus's guard.
        with pytest.raises(EncodingError):
            CensusQuery(semigroups=("garbage",))
        with pytest.raises(EncodingError):
            CensusQuery(semigroups=("0,3|3", "0,3"), allow_large=True)
        with pytest.raises(BoundTooLarge, match="genus 39"):
            CensusQuery(semigroups=EXPLICIT + ("0,40|40",))
        query = CensusQuery(semigroups=("0,40|40",), allow_large=True)
        assert query.to_dict()["semigroups"] == ["0,40|40"]
        monkeypatch.setenv("TYPESEQ_MAX_GENUS", "5")
        with pytest.raises(BoundTooLarge, match="genus 6"):
            CensusQuery(semigroups=EXPLICIT)
        assert CensusQuery(semigroups=EXPLICIT[:3]).semigroups == EXPLICIT[:3]

    def test_huge_conductor_is_refused_from_the_text(self, monkeypatch):
        # The genus is read off the text, so a short encoding of a huge
        # conductor is refused before decoding allocates c bits.
        monkeypatch.delenv("TYPESEQ_MAX_GENUS", raising=False)
        tracemalloc.start()
        try:
            with pytest.raises(BoundTooLarge) as info:
                CensusQuery(semigroups=("0|100000000",))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert info.value.code == "BoundTooLarge"
        assert str(info.value) == "a semigroup of genus 99999999 above guard 12"
        assert peak < 1 << 20

    def test_worker_guard(self):
        with pytest.raises(BoundTooLarge):
            CensusQuery(max_genus=2, workers=65)
        assert CensusQuery(max_genus=2, workers=64).workers == 64
