"""Ring classification by b of the tail, and the conductor-window profile."""

import hashlib

import pytest

from conftest import negative_a_semigroup, semigroups_up_to
from typeseq import (
    DegenerateDVR,
    IdealTable,
    NumericalSemigroup,
    b_of_tail,
    case_j_semigroups,
    classify_b,
    enumerate_ideals,
    enumerate_semigroups,
    from_generators,
    from_small_elements,
    gamma_invariants,
    is_principal,
    quotient_length,
    ring_classification,
    window_profile,
)
from typeseq.classification import _multiples_then_tail


class TestClassifyB:
    FROZEN = {
        "0,2|2": ("GORENSTEIN", None),
        "0,3|3": ("B_LT_R_MINUS_1", None),
        "0,10,12|12": ("B_EQ_R_MINUS_1_CASE1", None),
        "0,4,5,8|8": ("B_EQ_R_MINUS_1_CASE2", None),
        "0,6,10,12|16": ("B_EQ_R_CASE_G", "double_step"),
        "0,4,8,9,12,13|16": ("B_EQ_R_CASE_G", "sporadic_quad"),
        "0,4,8,11,12,15,16|19": ("B_EQ_R_CASE_G", "sporadic_quad_long"),
        "0,5,6|9": ("B_EQ_R_CASE_G", "short_third"),
        "0,5,6,7,10|10": ("B_EQ_R_CASE_J", None),
        "0,4,6,8|10": ("B_GT_R", None),
    }

    def test_frozen_tags(self):
        for enc, (tag, family) in self.FROZEN.items():
            out = classify_b(NumericalSemigroup.decode(enc))
            assert out.tag == tag, enc
            if family is not None:
                assert out.parameters.get("family") == family, enc

    def test_checks_pass_on_frozen(self):
        for enc in self.FROZEN:
            out = classify_b(NumericalSemigroup.decode(enc))
            assert all(c.passed for c in out.checks), enc

    def test_tag_matches_b_versus_type(self):
        for S in semigroups_up_to(8):
            if S.conductor == 0:
                continue
            out = classify_b(S)
            b, r = b_of_tail(S), S.type
            if out.tag == "GORENSTEIN":
                assert r == 1
            elif out.tag == "B_LT_R_MINUS_1":
                assert b < r - 1
            elif out.tag.startswith("B_EQ_R_MINUS_1"):
                assert b == r - 1
            elif out.tag.startswith("B_EQ_R_CASE"):
                assert b == r
            else:
                assert out.tag == "B_GT_R" and b > r

    def test_small_b_forces_multiples_pattern(self):
        # below r - 1 the small elements are exactly the multiples of e
        for S in semigroups_up_to(8):
            if S.conductor == 0 or classify_b(S).tag != "B_LT_R_MINUS_1":
                continue
            e = S.multiplicity
            assert all(s % e == 0 for s in S.small_elements[:-1]), S.encode()
            assert S.type == e - 1

    def test_double_step_family_small_multiplicity_is_excluded(self):
        # (0, e, 2e-2, 2e, .., 3e-2) lands in the b == r family only for e >= 5
        for e in (5, 6, 7, 8):
            S = NumericalSemigroup.decode(f"0,{e},{2 * e - 2},{2 * e}|{3 * e - 2}")
            out = classify_b(S)
            assert out.tag == "B_EQ_R_CASE_G"
            assert out.parameters["b"] == out.parameters["r"] == e - 2
        assert classify_b(NumericalSemigroup.decode("0,4,6,8|10")).tag == "B_GT_R"

    def test_case_j_is_exactly_three_semigroups(self):
        got = [T.encode() for T in case_j_semigroups()]
        assert got == [
            "0,5,6,7,10|10",
            "0,5,6,8,10|10",
            "0,5,8,9,10,13|13",
        ]
        for T in case_j_semigroups():
            out = classify_b(T)
            assert out.tag == "B_EQ_R_CASE_J"
            assert out.parameters["b"] == out.parameters["r"] == 2
            assert T.multiplicity == 5
            assert quotient_length(T) == 3

    def test_parameters_example(self):
        out = classify_b(from_generators((3, 4, 5)))
        assert out.parameters == {"b": 0, "r": 2, "e": 3, "p": 0}


    def test_public_view_is_pinned(self):
        # (tag, parameters, checks) of every semigroup with c <= 22, as
        # classify_b gave them before it became a view of _classify.
        h = hashlib.sha256()
        for S in enumerate_semigroups(max_conductor=22):
            out = classify_b(S)
            h.update(repr((out.tag, out.parameters, out.checks)).encode())
        assert h.hexdigest()[:16] == "4d046a97e481ad01"


def _multiples_by_scan(S):
    """(members below c are 0, e, ..., pe; p) by a scan of the members."""
    e = S.multiplicity
    below = S.small_elements[:-1]
    return all(s == i * e for i, s in enumerate(below)), len(below) - 1


class TestMultiplesThenTail:
    def test_bit_form_matches_a_scan(self):
        wide = from_generators((3, 4))  # 0, 3, 4 below c = 6: ne = c + e
        assert wide.n * wide.multiplicity >= wide.conductor + wide.multiplicity
        cases = [
            *enumerate_semigroups(max_conductor=20),
            from_generators((1,)),
            from_generators((2, 401)),
            from_small_elements([0, 7, 14, 21], 23),
            wide,
        ]
        for S in cases:
            assert _multiples_then_tail(S) == _multiples_by_scan(S), S.encode()

    def test_named_cases(self):
        assert _multiples_then_tail(from_generators((1,))) == (True, -1)
        assert _multiples_then_tail(from_generators((2, 401))) == (True, 199)
        assert _multiples_then_tail(from_small_elements([0, 7, 14, 21], 23)) == (
            True,
            3,
        )
        assert _multiples_then_tail(from_generators((3, 4))) == (False, 2)


class TestQuotientLength:
    def test_frozen_values(self):
        assert quotient_length(from_generators((3, 4, 5))) == 1
        assert quotient_length(NumericalSemigroup.decode("0,4,8,9,12,13|16")) == 2

    def test_counts_members_in_last_window(self):
        # l(S / (tail + e)) equals the members of [c - e, c)
        for S in semigroups_up_to(7):
            c, e = S.conductor, S.multiplicity
            if c == 0:
                continue
            want = sum(1 for x in range(max(0, c - e), c) if x in S)
            assert quotient_length(S) == want, S.encode()


class TestRingClassification:
    def test_almost_gorenstein_equivalences_hold(self):
        for S in (from_generators((3, 4, 5)), negative_a_semigroup()):
            rc = ring_classification(S, ideals=())
            assert rc.almost_gorenstein
        rc = ring_classification(from_generators((3, 4, 5)))
        assert all(rc.equivalences.values())
        assert all(c.passed for c in rc.checks)

    def test_non_almost_gorenstein_fails_every_condition(self):
        G = NumericalSemigroup.decode("0,4,8,9,12,13|16")
        rc = ring_classification(G)
        assert not rc.almost_gorenstein
        assert not any(rc.equivalences.values())
        assert all(c.passed for c in rc.checks)

    def test_gorenstein_flags(self):
        rc = ring_classification(from_generators((2, 3)))
        assert rc.gorenstein and rc.almost_gorenstein
        assert all(c.passed for c in rc.checks)

    def test_maximal_length_examples(self):
        assert ring_classification(from_generators((3, 4, 5))).maximal_length
        assert ring_classification(
            from_generators((6, 7, 8, 9, 10, 11)), ideals=()
        ).maximal_length
        assert not ring_classification(negative_a_semigroup(), ideals=()).maximal_length

    def test_equivalences_agree_across_small_census(self):
        for S in semigroups_up_to(6):
            if S.conductor == 0:
                continue
            rc = ring_classification(S)
            assert all(c.passed for c in rc.checks), S.encode()
            assert set(rc.equivalences.values()) <= {rc.almost_gorenstein}


    def test_length_symmetry_by_a_classes_matches_the_pair_loop(self):
        outcomes = set()
        for S in semigroups_up_to(9):
            table = IdealTable(S, enumerate_ideals(S, window=2))
            reflexive_np = [
                I
                for I in table.rows
                if not is_principal(I.ideal) and I.bidual == I.bits
            ]
            # Every ordered pair of distinct rows with J inside I.
            pair_loop = all(
                I.length - J.length == J.dual_length - I.dual_length
                for I in reflexive_np
                for J in reflexive_np
                if J is not I and J.bits & ~I.bits == 0
            )
            rc = ring_classification(S, ideals=table)
            assert rc.equivalences["length_symmetry"] == pair_loop, S.encode()
            outcomes.add(pair_loop)
        assert outcomes == {True, False}


class TestWindowProfile:
    def test_frozen_profile(self):
        p = window_profile(NumericalSemigroup.decode("0,4,8,9,12,13|16"))
        assert p.b == 2
        assert p.quotient_length == 2
        assert p.p == 3
        assert p.gap_count == 2
        assert p.z == 12
        assert p.late_indices == (5, 6)
        assert p.early_indices == (1, 2, 3, 4)
        assert p.classification_tag == "B_EQ_R_CASE_G"
        assert all(c.passed for c in p.checks)

    def test_whole_numbers_is_degenerate(self):
        with pytest.raises(DegenerateDVR):
            window_profile(from_generators((1,)))

    def test_profile_checks_pass_everywhere_small(self):
        for S in semigroups_up_to(8):
            if S.conductor == 0:
                continue
            p = window_profile(S)
            assert all(c.passed for c in p.checks), S.encode()

    def test_late_indices_partition(self):
        for S in semigroups_up_to(6):
            if S.conductor == 0:
                continue
            p = window_profile(S)
            assert sorted(p.late_indices + p.early_indices) == list(
                range(1, S.n + 1)
            )
            assert len(p.late_indices) == p.quotient_length


class TestTailB:
    def test_matches_gamma_invariants(self):
        for S in semigroups_up_to(7):
            assert b_of_tail(S) == gamma_invariants(S)[1]

    def test_closed_form(self):
        for S in semigroups_up_to(7):
            assert b_of_tail(S) == S.type * (S.conductor - S.genus) - S.genus
