"""Acceptance gate: one test per shipped guarantee, run with pytest -v.

Each test reads its slice of a single exhaustive run (genus <= 10, ideal
window 2, every check group) so the pass/fail line for a criterion means
"zero violations among its checks and the checks actually executed".
"""

import io
import contextlib
import hashlib
import time

import pytest

import oracles
from typeseq import (
    CensusQuery,
    classification_census,
    decomposition_check,
    enumerate_semigroups,
    from_generators,
    gamma_invariants,
    ideal_from_generators,
    type_sequence,
    verify_theorems,
)
from typeseq import cli


@pytest.fixture(scope="module")
def census():
    return verify_theorems(
        CensusQuery(max_genus=10, window=2, checks=("all",), workers=1)
    )


def _digest(report):
    """First 16 hex chars of the SHA-256 of the canonical report bytes."""
    return hashlib.sha256(report.to_json().encode()).hexdigest()[:16]


def _clean_slice(report, check_ids):
    """No violation carries one of these ids, and each id actually ran."""
    hit = [v for v in report.violations if v.check_id in check_ids]
    assert hit == [], hit[:10]
    missing = [cid for cid in check_ids if not report.check_tallies.get(cid)]
    assert missing == [], missing


def test_01_negative_a_example_is_exact_and_fast():
    t0 = time.perf_counter()
    S = from_generators((9, 15, 17, 23, 25, 29, 31))
    I = ideal_from_generators(S, (38, 44, 50))
    rep = decomposition_check(S, I)
    elapsed = time.perf_counter() - t0
    assert rep.a == -1
    assert rep.passed
    assert elapsed < 1.0


def test_02_decomposition_formulas_hold_with_exact_equality(census):
    assert census.passed
    assert census.semigroup_count == 478
    assert _digest(census) == "6aa51d47219226cb"
    _clean_slice(
        census,
        ("a_from_type_sequence", "b_from_type_sequence", "a_plus_b_split"),
    )
    assert census.wall_ms < 300_000


def test_03_inequality_suite_has_zero_violations(census):
    _clean_slice(
        census,
        (
            "b_nonnegative",
            "d_nonnegative",
            "a_at_most_tail_value",
            "a_via_omega_growth",
            "a_bidual_drop",
            "marked_sum_lower",
            "marked_sum_upper",
            "dual_length_bound",
            "unmarked_sum_split",
            "omega_growth_lower",
            "marked_count_window",
            "marked_count_small",
            "tail_length_bound",
            "tail_length_equality_iff",
            "a_upper_bound",
            "a_lower_bound",
            "b_upper_bound",
            "b_lower_bound",
            "b_at_least_reflexive_defect",
            "b_vanishing_iff",
            "a_bound_when_arf",
            "a_constant_when_ag_reflexive",
            "a_lower_when_omega_stable",
            "pair_dual_growth_bound",
            "pair_b_antitone",
            "pair_a_upper",
            "pair_a_lower",
            "colon_growth_bound",
            "sg_chain_a_partial",
            "sg_chain_b_partial",
            "sg_arf_dual_length",
            "sg_arf_chain_b",
            "sg_tail_a_constant",
            "sg_tail_b_linear",
            "sg_different_shift_a_is_sigma",
            "sg_type_bound",
        ),
    )


def test_04_d_invariant_properties_hold(census):
    _clean_slice(
        census,
        (
            "d_via_omega_product",
            "d_via_min_index",
            "d_bidual_invariant",
            "d_window_lower",
            "d_window_upper",
            "d_inside_different",
            "d_zero_when_integrally_closed",
            "d_zero_when_omega_stable",
            "d_zero_when_almost_gorenstein",
        ),
    )


def test_05_almost_gorenstein_equivalences_coincide(census):
    _clean_slice(
        census,
        (
            "equiv_type_seq_pattern",
            "equiv_omega_mult_is_bidual",
            "equiv_length_symmetry",
            "equiv_tail_dual_length",
            "equiv_a_reflexive_defect",
            "equiv_canonical_stable_max_ideal",
            "almost_symmetric_product_vs_count",
            "almost_symmetric_type_seq_vs_count",
            "maximal_length_type_seq_vs_count",
            "symmetric_iff_canonical_trivial",
            "maximal_length_iff_b_dies_above_tail",
            "symmetric_iff_a_vanishes",
        ),
    )


def test_06_type_sequence_identities_hold(census):
    _clean_slice(
        census,
        (
            "sg_ts_sum_is_genus",
            "sg_ts_deficit_sum",
            "sg_ts_first_is_type",
            "sg_ts_entries_in_range",
            "sg_ts_extension_ones",
            "sg_ts_two_paths",
            "sg_different_member_forces_one",
            "sg_gorenstein_iff_type_one",
        ),
    )


def test_07_small_b_classification_matches_frozen_catalogue():
    t0 = time.perf_counter()
    rep = classification_census(max_conductor=30)
    elapsed = time.perf_counter() - t0
    assert rep.passed
    assert rep.violations == []
    assert rep.classification_members["B_EQ_R_CASE_J"] == [
        "0,5,6,7,10|10",
        "0,5,6,8,10|10",
        "0,5,8,9,10,13|13",
    ]
    assert _digest(rep) == "6f11a909e4b21a02"
    assert elapsed < 600.0


def test_08_overring_length_formulas_hold(census):
    _clean_slice(
        census,
        (
            "overring_length_split",
            "overring_length_bound",
            "overring_length_by_min_index",
        ),
    )


def test_09_enumerator_matches_oracle_and_workers_agree(census):
    per_genus = {g: 0 for g in range(9)}
    for S in enumerate_semigroups(max_genus=8):
        per_genus[S.genus] += 1
    assert [per_genus[g] for g in range(9)] == [1, 1, 2, 4, 7, 12, 23, 39, 67]
    oracle = {g: len(oracles.gap_set_semigroups(g)) for g in range(9)}
    assert per_genus == oracle
    assert {g: n for g, n in census.semigroups_per_genus.items() if g <= 8} == {
        g: n for g, n in per_genus.items()
    }
    serial = verify_theorems(CensusQuery(max_genus=8, window=2, workers=1))
    parallel = verify_theorems(CensusQuery(max_genus=8, window=2, workers=4))
    assert serial.to_json() == parallel.to_json()


def test_10_whole_numbers_degenerate_and_cli_exit_zero():
    N = from_generators((1,))
    assert type_sequence(N).values == ()
    assert gamma_invariants(N) == (0, 0)
    for argv in (
        ["info", "--gens", "1"],
        ["ideal", "--gens", "1", "--ideal", "1"],
        ["overrings", "--gens", "1"],
        ["census", "--max-genus", "0"],
        ["classify", "--gens", "1"],
        ["search", "--negative-a", "--max-genus", "0"],
    ):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        assert code == 0, (argv, buf.getvalue())
