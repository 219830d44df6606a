"""Relative ideals: normal form, codec, lattice and colon operations."""

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from conftest import small_semigroup_st
from typeseq import (
    EmptyGenerators,
    EncodingError,
    NotContained,
    NotIntegralProper,
    ParentMismatch,
    RelativeIdeal,
    bidual,
    canonical_ideal,
    colon,
    dedekind_different,
    dual,
    from_generators,
    ideal_from_generators,
    ideal_intersection,
    ideal_product,
    ideal_union,
    integral_closure,
    is_integrally_closed,
    is_omega_stable,
    is_principal,
    is_reflexive,
    length_between,
    maximal_ideal,
    principal_ideal,
    tail_ideal,
    unit_ideal,
)

S345 = from_generators((3, 4, 5))
S35 = from_generators((3, 5))
N = from_generators((1,))
# Conductors in the hundreds, past what the hypothesis strategies draw.
WIDE = [from_generators((2, 401)), from_generators((17, 23, 41))]


@st.composite
def ideal_st(draw, parent=None):
    """A relative ideal over a small semigroup, from random generators."""
    S = parent if parent is not None else draw(small_semigroup_st())
    gens = draw(
        st.lists(
            st.integers(min_value=-3, max_value=S.conductor + 4),
            min_size=1,
            max_size=3,
        )
    )
    return ideal_from_generators(S, gens)


@st.composite
def ideal_pair_st(draw):
    """Two independent ideals over the same small semigroup."""
    S = draw(small_semigroup_st())
    return draw(ideal_st(S)), draw(ideal_st(S))


class TestConstruction:
    def test_from_generators(self):
        E = ideal_from_generators(S345, (4, 5))
        assert E.min_element == 4
        assert E.conductor == 7
        assert E.encode() == "4|4,5|7"
        assert 4 in E and 5 in E and 6 not in E and 7 in E and 100 in E

    def test_redundant_generators_are_absorbed(self):
        assert ideal_from_generators(S345, (4, 5, 8, 9)) == ideal_from_generators(
            S345, (4, 5)
        )

    def test_empty_generators(self):
        with pytest.raises(EmptyGenerators):
            ideal_from_generators(S345, ())

    def test_negative_generator_gives_fractional_ideal(self):
        E = ideal_from_generators(S345, (-3,))
        assert E.encode() == "-3|-3|0"
        assert E.min_element == -3

    def test_named_ideals(self):
        assert unit_ideal(S345).encode() == "0|0|3"
        assert tail_ideal(S345, 3).encode() == "3||3"
        assert maximal_ideal(S345).encode() == "3||3"
        assert principal_ideal(S345, 3).encode() == "3|3|6"
        assert is_principal(principal_ideal(S345, 3))
        assert not is_principal(ideal_from_generators(S345, (4, 5)))

    def test_maximal_ideal_of_whole_numbers(self):
        N = from_generators((1,))
        assert maximal_ideal(N) == tail_ideal(N, 1)

    def test_width_zero_window(self):
        E = tail_ideal(S345, 3)
        assert E.min_element == E.conductor == 3
        assert E.mask == 0

    def test_conductor_must_be_tight(self):
        with pytest.raises(EncodingError):
            RelativeIdeal.decode(S345, "4|4,5|6")

    def test_normal_form_equality_and_hash(self):
        a = ideal_from_generators(S345, (4, 5))
        b = RelativeIdeal.decode(S345, "4|4,5|7")
        assert a == b and hash(a) == hash(b)
        assert a != tail_ideal(S345, 4)

    def test_sort_key_orders_by_min_then_conductor(self):
        ideals = [
            tail_ideal(S345, 4),
            ideal_from_generators(S345, (4, 5)),
            maximal_ideal(S345),
        ]
        ordered = sorted(ideals, key=lambda E: E.sort_key())
        assert [E.encode() for E in ordered] == ["3||3", "4||4", "4|4,5|7"]


class TestCodec:
    def test_roundtrip(self):
        for text in ("4|4,5|7", "4||4", "0|0|3", "3|3|6"):
            assert RelativeIdeal.decode(S345, text).encode() == text

    def test_rejects_garbage(self):
        for text in ("", "x", "4|5|7", "4|4,6|7"):
            with pytest.raises(EncodingError):
                RelativeIdeal.decode(S345, text)


class TestColonAndDual:
    def test_colon_unit_by_maximal_has_type_length(self):
        # l((S - M)/S) equals the type
        got = colon(unit_ideal(S345), maximal_ideal(S345))
        assert got.encode() == "0||0"
        assert length_between(got, unit_ideal(S345)) == S345.type

    def test_dual_of_conductor_tail_is_whole_numbers(self):
        gamma = tail_ideal(S345, S345.conductor)
        assert dual(gamma).encode() == "0||0"

    def test_bidual_examples(self):
        E = ideal_from_generators(S345, (4, 5))
        B = bidual(E)
        assert B == tail_ideal(S345, 4)
        assert length_between(B, E) == 1
        assert not is_reflexive(E)
        assert is_reflexive(B)

    def test_triple_dual_equals_dual(self):
        E = ideal_from_generators(S345, (4, 5))
        assert dual(bidual(E)) == dual(E)

    @given(ideal_st())
    @settings(max_examples=100, deadline=None)
    def test_colon_matches_set_oracle(self, E):
        S = E.parent
        got = dual(E)
        top = 4 * (abs(S.conductor) + abs(E.conductor) + 4)
        A = oracles.semigroup_set(S, top)
        B = oracles.ideal_set(E, top)
        lo = -top
        want = oracles.colon_set(A, B, lo, got.conductor + 3, top)
        window = set(range(lo, got.conductor + 3))
        assert {x for x in window if x in got} == want

    @given(ideal_pair_st())
    # S = N: conductor 0 and multiplicity 1, both ideals tails.
    @example((ideal_from_generators(N, (-2,)), ideal_from_generators(N, (3,))))
    # B's conductor (10) above A's (5), with a negative minimum in A.
    @example((ideal_from_generators(S35, (-3,)), ideal_from_generators(S35, (2,))))
    # Negative minimum in B, so the window starts above min(A).
    @example((ideal_from_generators(S35, (0, 1)), ideal_from_generators(S35, (-3, 4))))
    @settings(max_examples=150, deadline=None)
    def test_colon_of_pairs_matches_set_oracle(self, pair):
        A, B = pair
        S = A.parent
        got = colon(A, B)
        top = 4 * (
            S.conductor
            + abs(A.min_element)
            + abs(A.conductor)
            + abs(B.min_element)
            + abs(B.conductor)
            + 4
        )
        A_set = oracles.ideal_set(A, 2 * top)
        B_set = oracles.ideal_set(B, 3 * top)
        lo = -top
        want = oracles.colon_set(A_set, B_set, lo, got.conductor + 3, top)
        window = set(range(lo, got.conductor + 3))
        assert {x for x in window if x in got} == want

    @given(ideal_st())
    @settings(max_examples=60, deadline=None)
    def test_bidual_contains_and_is_reflexive(self, E):
        B = bidual(E)
        assert E.is_subset_of(B)
        assert bidual(B) == B


class TestCanonical:
    def test_canonical_of_345(self):
        K = canonical_ideal(S345)
        assert K.encode() == "0|0,1|3"
        assert 0 in K and 1 in K and 2 not in K

    def test_canonical_matches_set_oracle(self):
        # (2, 401) and (17, 23, 41) have conductors 400 and 176.
        for gens in ((3, 4, 5), (2, 3), (4, 5, 7), (5, 6, 9), (2, 401), (17, 23, 41)):
            S = from_generators(gens)
            K = canonical_ideal(S)
            top = S.conductor + 4
            members = oracles.semigroup_set(S, top)
            want = oracles.canonical_set(members, S.conductor, top)
            assert {x for x in range(0, top) if x in K} == want

    def test_canonical_is_trivial_iff_gorenstein(self):
        assert canonical_ideal(from_generators((2, 3))) == unit_ideal(
            from_generators((2, 3))
        )
        assert canonical_ideal(S345) != unit_ideal(S345)

    def test_dedekind_different(self):
        assert dedekind_different(S345).encode() == "3||3"

    def test_omega_stability(self):
        # K + M = M is the almost Gorenstein product criterion; S345 is AG
        assert is_omega_stable(maximal_ideal(S345))
        # K + S = K != S since S345 is not Gorenstein
        assert not is_omega_stable(unit_ideal(S345))


class TestProductLattice:
    @given(ideal_pair_st())
    @example(  # generator 5 of the first adds 11, the product window's last bit
        (
            RelativeIdeal.decode(from_generators((3, 7, 8)), "4|4,5,7,8|10"),
            RelativeIdeal.decode(from_generators((3, 7, 8)), "6|6|8"),
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_product_matches_sumset_oracle(self, pair):
        E, F = pair
        got = ideal_product(E, F)
        top = got.conductor + 5
        # any sum below top uses a <= top - F.min, so read that far into E
        A = oracles.ideal_set(E, top - E.conductor - F.min_element)
        B = oracles.ideal_set(F, top - F.conductor - E.min_element)
        want = {x for x in oracles.sum_set(A, B, top) if x < top}
        assert {x for x in range(got.min_element, top) if x in got} == want

    @pytest.mark.parametrize("S", [N, S345] + WIDE, ids=lambda S: f"c{S.conductor}")
    def test_wide_and_far_apart_products_match_sumset_oracle(self, S):
        c = S.conductor
        wide = ideal_from_generators(S, (S.multiplicity + 1, c // 2))
        negative = ideal_from_generators(S, (-7, 2))
        far = ideal_from_generators(S, (3 * c + 50, 3 * c + 53))
        for E, F in ((wide, wide), (wide, negative), (negative, far), (far, wide)):
            got = ideal_product(E, F)
            assert got.min_element == E.min_element + F.min_element
            top = got.conductor + 5
            A = oracles.ideal_set(E, top - E.conductor - F.min_element)
            B = oracles.ideal_set(F, top - F.conductor - E.min_element)
            want = oracles.sum_set(A, B, top)
            assert {x for x in range(got.min_element, top) if x in got} == want

    @given(ideal_st(parent=S345), ideal_st(parent=S345))
    @settings(max_examples=60, deadline=None)
    def test_product_commutes(self, E, F):
        assert ideal_product(E, F) == ideal_product(F, E)

    @given(ideal_st(parent=S345), ideal_st(parent=S345), ideal_st(parent=S345))
    @settings(max_examples=40, deadline=None)
    def test_product_associates(self, E, F, G):
        assert ideal_product(ideal_product(E, F), G) == ideal_product(
            E, ideal_product(F, G)
        )

    @given(ideal_st())
    @settings(max_examples=60, deadline=None)
    def test_unit_is_identity(self, E):
        assert ideal_product(unit_ideal(E.parent), E) == E

    def test_intersection_and_union(self):
        E = ideal_from_generators(S345, (4, 5))
        P = principal_ideal(S345, 3)
        assert ideal_intersection(maximal_ideal(S345), P) == P
        assert ideal_union(E, P) == maximal_ideal(S345)

    @given(ideal_st(parent=S345), ideal_st(parent=S345))
    @settings(max_examples=60, deadline=None)
    def test_lattice_ops_match_set_oracles(self, E, F):
        inter = ideal_intersection(E, F)
        union = ideal_union(E, F)
        top = max(inter.conductor, union.conductor) + 5
        lo = min(E.min_element, F.min_element)
        A = {x for x in range(lo, top) if x in E}
        B = {x for x in range(lo, top) if x in F}
        assert {x for x in range(lo, top) if x in inter} == A & B
        assert {x for x in range(lo, top) if x in union} == A | B

    @pytest.mark.parametrize("S", [N, S345, from_generators((5, 7, 9))])
    def test_far_apart_union_and_colon_match_set_oracles(self, S):
        # The union's raw window runs from the near ideal's minimum to the
        # far conductor, and all of it above the near conductor is one run
        # of members that the normal form strips.
        far = ideal_from_generators(S, (120, 122))
        top = far.conductor + 5
        lo = -top
        far_set = {x for x in range(lo, 2 * top) if x in far}
        for near in (
            unit_ideal(S),
            maximal_ideal(S),
            ideal_from_generators(S, (-2, 3)),
        ):
            near_set = {x for x in range(lo, 2 * top) if x in near}
            union = ideal_union(near, far)
            assert union.conductor == near.conductor
            assert {x for x in range(lo, top) if x in union} == {
                x for x in near_set | far_set if x < top
            }
            for A, B, A_set, B_set in (
                (near, far, near_set, far_set),
                (far, near, far_set, near_set),
                (union, far, near_set | far_set, far_set),
            ):
                got = colon(A, B)
                assert got.conductor <= top
                want = oracles.colon_set(A_set, B_set, lo, top, top)
                assert {x for x in range(lo, top) if x in got} == want

    def test_parent_mismatch(self):
        T = from_generators((2, 3))
        with pytest.raises(ParentMismatch):
            ideal_product(unit_ideal(S345), unit_ideal(T))
        with pytest.raises(ParentMismatch):
            colon(unit_ideal(S345), maximal_ideal(T))


class TestClosureAndLengths:
    def test_integral_closure(self):
        E = ideal_from_generators(S345, (4, 5))
        assert integral_closure(E) == tail_ideal(S345, 4)
        assert not is_integrally_closed(E)
        assert is_integrally_closed(maximal_ideal(S345))

    @pytest.mark.parametrize("S", [N, S345] + WIDE, ids=lambda S: f"c{S.conductor}")
    def test_maximal_ideal_and_closure_match_set_oracle(self, S):
        # S = N is all tail; from the conductor on, the closure is a tail.
        c = S.conductor
        members = oracles.semigroup_set(S, 8)
        top = c + 8

        def as_set(E):
            return {x for x in range(-1, top + 1) if x in E}

        assert as_set(maximal_ideal(S)) == members - {0}
        for m in {S.multiplicity, S.small_element(2), c, c + 1, c + 3} - {0}:
            closure = integral_closure(principal_ideal(S, m))
            assert as_set(closure) == {x for x in members if x >= m}
            if m >= c:
                assert closure == tail_ideal(S, m)

    def test_length_between_counts_members(self):
        E = ideal_from_generators(S345, (4, 5))
        assert length_between(integral_closure(E), E) == 1
        assert length_between(unit_ideal(S345), maximal_ideal(S345)) == 1

    def test_length_requires_containment(self):
        with pytest.raises(NotContained):
            length_between(ideal_from_generators(S345, (4, 5)), unit_ideal(S345))

    def test_require_proper_via_invariants(self):
        from typeseq import ab_invariants

        with pytest.raises(NotIntegralProper):
            ab_invariants(S345, unit_ideal(S345))
        with pytest.raises(NotIntegralProper):
            ab_invariants(S345, ideal_from_generators(S345, (-3,)))

    def test_require_proper_names_the_fault(self):
        from typeseq.ideals import require_proper

        # -1 + S = {-1, 2, 3, ...} misses 0 but leaves S; -4 + S holds 0.
        with pytest.raises(NotIntegralProper, match="sit inside its semigroup"):
            require_proper(ideal_from_generators(S345, (-1,)))
        with pytest.raises(NotIntegralProper, match="0 must not be a member"):
            require_proper(ideal_from_generators(S345, (-4,)))
        require_proper(ideal_from_generators(S345, (3,)))
