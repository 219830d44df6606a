"""Core semigroup model: constructors, codec, invariants, predicates."""

import itertools
import pickle

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from conftest import generator_tuples, negative_a_semigroup, semigroups_up_to
from typeseq import (
    BoundTooLarge,
    ConductorNotTight,
    EmptyGenerators,
    EncodingError,
    InternalInconsistency,
    InvalidInput,
    NotClosed,
    NotCoprime,
    NumericalSemigroup,
    TypeseqError,
    enumerate_semigroups,
    from_generators,
    from_small_elements,
    is_arf,
    oversemigroups,
    ring_classification,
)
from typeseq.census import _children
from typeseq.invariants import IdealTable
from typeseq.semigroup import _reflect, colon_bits, sum_bits


class TestConstruction:
    def test_three_four_five(self):
        S = from_generators((3, 4, 5))
        assert S.conductor == 3
        assert S.genus == 2
        assert S.multiplicity == 3
        assert S.type == 2
        assert S.small_elements == (0, 3)
        assert S.gaps == (1, 2)
        assert S.pseudo_frobenius == (1, 2)
        assert S.minimal_generators == (3, 4, 5)

    def test_two_generators(self):
        S = from_generators((2, 3))
        assert S.conductor == 2
        assert S.genus == 1
        assert S.type == 1

    def test_seven_generator_ring(self):
        S = negative_a_semigroup()
        assert S.conductor == 38
        assert S.genus == 20
        assert S.multiplicity == 9
        assert S.type == 3
        assert S.pseudo_frobenius == (16, 21, 37)
        assert S.minimal_generators == (9, 15, 17, 23, 25, 29, 31)

    def test_maximal_type(self):
        S = from_generators((6, 7, 8, 9, 10, 11))
        assert S.type == 5 == S.multiplicity - 1
        assert S.pseudo_frobenius == (1, 2, 3, 4, 5)

    def test_whole_numbers(self):
        N = from_generators((1,))
        assert N.conductor == 0
        assert N.genus == 0
        assert N.multiplicity == 1
        assert N.type == 1
        assert N.small_elements == (0,)
        assert N.pseudo_frobenius == (-1,)
        assert N.minimal_generators == (1,)

    def test_redundant_generators_are_dropped(self):
        S = from_generators((4, 5, 7, 9, 13))
        assert S.minimal_generators == (4, 5, 7)
        assert S == from_generators((4, 5, 7))

    def test_empty_generators(self):
        with pytest.raises(EmptyGenerators):
            from_generators(())

    def test_nonpositive_generators(self):
        with pytest.raises(ValueError):
            from_generators((0,))
        with pytest.raises(ValueError):
            from_generators((-2, 3))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: from_generators((0, 3)),
            lambda: NumericalSemigroup(-1, 0),
            lambda: NumericalSemigroup(3, 0b10),
            lambda: from_small_elements((3,), 4),
            lambda: from_generators((3, 4)).small_index(5),
        ],
    )
    def test_domain_errors_are_typed(self, build):
        with pytest.raises(InvalidInput) as exc:
            build()
        assert isinstance(exc.value, TypeseqError)
        assert isinstance(exc.value, ValueError)

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda: from_generators((3.5, 4)), id="float-generator"),
            pytest.param(lambda: from_generators([True, 2]), id="bool-generator"),
            pytest.param(lambda: from_generators("34"), id="str-generators"),
            pytest.param(lambda: from_small_elements([0, 3.0], 5), id="float-member"),
            pytest.param(lambda: from_small_elements([False, 3], 5), id="bool-member"),
            pytest.param(lambda: from_small_elements([0, 3], 5.0), id="conductor"),
        ],
    )
    def test_non_int_numbers_are_refused(self, build):
        # int() would truncate them: <3.5, 4> = <3, 4> and <True, 2> = N.
        with pytest.raises(InvalidInput, match="must be"):
            build()

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            from_generators((4, 6))
        with pytest.raises(NotCoprime):
            from_generators((6, 10))

    def test_from_small_elements(self):
        S = from_small_elements((0, 2, 4), 4)
        assert S == from_generators((2, 5))

    def test_small_elements_must_be_closed(self):
        with pytest.raises(NotClosed):
            from_small_elements((0, 2), 5)

    def test_conductor_must_be_tight(self):
        with pytest.raises(ConductorNotTight):
            from_small_elements((0, 2, 3), 3)
        with pytest.raises(ConductorNotTight):
            from_small_elements((0, 1), 1)


class TestCodec:
    def test_encode(self):
        assert from_generators((3, 4, 5)).encode() == "0,3|3"
        assert from_generators((1,)).encode() == "0|0"
        assert from_generators((2, 5)).encode() == "0,2,4|4"

    def test_decode(self):
        assert NumericalSemigroup.decode("0,3|3") == from_generators((3, 4, 5))
        assert NumericalSemigroup.decode("0|0") == from_generators((1,))

    def test_decode_rejects_garbage(self):
        for text in ("", "x", "0,3"):
            with pytest.raises(EncodingError):
                NumericalSemigroup.decode(text)

    def test_decode_rejects_missing_zero(self):
        with pytest.raises(ValueError):
            NumericalSemigroup.decode("3|3")

    def test_decode_rejects_loose_conductor(self):
        with pytest.raises(ConductorNotTight):
            NumericalSemigroup.decode("0,3|4")
        with pytest.raises(ConductorNotTight):
            NumericalSemigroup.decode("0,2|3")

    @given(generator_tuples())
    @settings(max_examples=150, deadline=None)
    def test_roundtrip(self, gens):
        S = from_generators(gens)
        assert NumericalSemigroup.decode(S.encode()) == S

    def test_encoding_is_cached_and_unchanged(self):
        for gens in ((3, 4, 5), (1,), (2, 5), (9, 15, 17, 23, 25, 29, 31)):
            S = from_generators(gens)
            want = ",".join(str(x) for x in S.small_elements) + f"|{S.conductor}"
            assert S.encode() == want
            assert S.encode() is S.encode()
            assert NumericalSemigroup.decode(S.encode()) == S

    def test_pickle_round_trip_leaves_caches_behind(self):
        for gens in ((3, 4, 5), (1,), (9, 15, 17, 23, 25, 29, 31)):
            S = from_generators(gens)
            S.encode(), S.type, S.pseudo_frobenius  # fill the caches
            assert S.__reduce__() == (NumericalSemigroup, (S.conductor, S.mask))
            T = pickle.loads(pickle.dumps(S))
            assert T == S
            assert (T.encode(), T.type, T.genus, T.n) == (
                S.encode(),
                S.type,
                S.genus,
                S.n,
            )

    def test_walk_order_matches_a_string_sorted_reference(self):
        # Reference walk: children of S remove one minimal generator x
        # above the Frobenius number; siblings are visited in the order of
        # their encodings, built here from small_elements.
        def text(T):
            return ",".join(str(x) for x in T.small_elements) + f"|{T.conductor}"

        bound = 14
        want = []
        stack = [NumericalSemigroup(0, 0)]
        while stack:
            S = stack.pop()
            want.append(text(S))
            children = []
            for x in S.minimal_generators:
                if S.conductor <= x < bound:
                    members = [m for m in S.small_elements if m < S.conductor]
                    members += range(S.conductor, x)
                    children.append(from_small_elements(members, x + 1))
            children.sort(key=text)
            stack.extend(reversed(children))
        got = [S.encode() for S in enumerate_semigroups(max_conductor=bound)]
        assert got == want

    def test_equality_and_hash_on_normal_form(self):
        a = from_generators((3, 4, 5))
        b = from_small_elements((0, 3), 3)
        assert a == b and hash(a) == hash(b)
        assert a != from_generators((3, 5, 7))


class TestMembership:
    @given(generator_tuples())
    @example((6, 10, 15))  # min and max share the factor 3
    @settings(max_examples=120, deadline=None)
    def test_members_match_sieve(self, gens):
        S = from_generators(gens)
        members, c, genus, mult = oracles.semigroup_facts(gens)
        assert S.conductor == c
        assert S.genus == genus
        assert S.multiplicity == mult
        bound = c + 5
        got = [x for x in range(bound) if x in S]
        want = sorted(m for m in members if m < bound)
        assert got == want

    @given(generator_tuples())
    @example((6, 10, 15))
    @settings(max_examples=80, deadline=None)
    def test_pseudo_frobenius_matches_oracle(self, gens):
        S = from_generators(gens)
        members, c, _, _ = oracles.semigroup_facts(gens)
        assert list(S.pseudo_frobenius) == oracles.pseudo_frobenius(members, c)
        assert S.type == len(S.pseudo_frobenius)

    @given(generator_tuples())
    @example((6, 10, 15))
    @settings(max_examples=80, deadline=None)
    def test_minimal_generators_match_oracle(self, gens):
        S = from_generators(gens)
        members, c, _, mult = oracles.semigroup_facts(gens)
        assert list(S.minimal_generators) == oracles.minimal_generators(
            members, c, mult
        )

    def test_sieve_at_the_schur_bound(self):
        # The set oracle's 2 * max(g)**2 margin is out of reach for
        # <2, 20001>; Sylvester's count decides it: the members below the
        # conductor (2 - 1)(20001 - 1) are the even numbers.
        S = from_generators((2, 20001))
        assert S.conductor == 20000
        assert S.small_elements == tuple(range(0, 20001, 2))
        assert S.minimal_generators == (2, 20001)

    def test_core_matches_oracles_on_every_small_conductor(self):
        for S in enumerate_semigroups(max_conductor=16):
            c, e = S.conductor, S.multiplicity
            members = oracles.semigroup_set(S, margin=c + e)
            want_pf = oracles.pseudo_frobenius(members, c)
            assert list(S.pseudo_frobenius) == want_pf, S
            assert S.type == len(want_pf), S
            assert list(S.minimal_generators) == oracles.minimal_generators(
                members, c, e
            ), S

    def test_two_generator_closed_form_from_mask(self):
        # x = 120a + 121b forces b = x mod 120, so x is a member exactly
        # when x >= 121 * (x mod 120); the conductor is 119 * 120.
        c = 119 * 120
        mask = sum(1 << x for x in range(c) if x >= 121 * (x % 120))
        S = NumericalSemigroup(c, mask)
        assert S.minimal_generators == (120, 121)
        assert S.pseudo_frobenius == (120 * 121 - 241,)
        assert S.type == 1

    def test_ordinary_closed_form_from_mask(self):
        S = NumericalSemigroup(300, 1)  # {0} and [300, oo)
        assert S.minimal_generators == tuple(range(300, 600))
        assert S.pseudo_frobenius == tuple(range(1, 300))
        assert S.type == 299

    def test_one_apery_pass_in_any_read_order(self):
        # type, pseudo_frobenius and minimal_generators share one pass, so
        # whichever is read first fills the others; each order must agree
        # with the set oracles.  The wide cases stay cheap for the oracles
        # because their all() and any() scans stop early.
        ordinary = NumericalSemigroup(300, 1)
        c = 119 * 120
        two_gen = NumericalSemigroup(
            c, sum(1 << x for x in range(c) if x >= 121 * (x % 120))
        )
        cases = list(enumerate_semigroups(max_conductor=16))
        cases += [from_generators((2, 20001)), two_gen, ordinary]
        names = ("type", "pseudo_frobenius", "minimal_generators")
        for S in cases:
            c, e = S.conductor, S.multiplicity
            members = oracles.semigroup_set(S, margin=c + e)
            want = {
                "pseudo_frobenius": tuple(oracles.pseudo_frobenius(members, c)),
                "minimal_generators": tuple(
                    oracles.minimal_generators(members, c, e)
                ),
            }
            want["type"] = len(want["pseudo_frobenius"])
            for order in itertools.permutations(names):
                fresh = NumericalSemigroup(S.conductor, S.mask)
                got = {name: getattr(fresh, name) for name in order}
                assert got == want, (S, order)
                assert fresh.type == len(fresh.pseudo_frobenius), (S, order)

    def test_small_element_extends_past_conductor(self):
        S = from_generators((3, 4, 5))
        assert [S.small_element(j) for j in range(5)] == [0, 3, 4, 5, 6]
        assert [S.small_index(v) for v in (0, 3, 4, 5)] == [0, 1, 2, 3]
        assert S.n == 1

    def test_small_element_rejects_a_negative_index(self):
        S = from_generators((3, 5, 7))
        for j in (-1, -2, -4, -100):
            with pytest.raises(InvalidInput):
                S.small_element(j)

    def test_small_index_is_the_position_in_small_elements(self):
        # Ranked off the mask, each walked node before its small elements
        # are built; past the conductor s_j = c + (j - n).
        count = 0
        for S in enumerate_semigroups(max_conductor=20):
            c, n = S.conductor, S.n
            got = [S.small_index(x) for x in range(c + 1) if x in S]
            assert got == [S.small_elements.index(x) for x in S.small_elements], S
            assert [S.small_index(c + k) for k in (1, 2, 7)] == [n + 1, n + 2, n + 7]
            count += 1
        assert count == 2616

    def test_small_index_rejects_a_gap_and_a_negative_number(self):
        S = from_generators((3, 5, 7))
        for x in (1, 2, 4, -1, -3, -100):
            with pytest.raises(InvalidInput):
                S.small_index(x)
        with pytest.raises(InvalidInput):
            NumericalSemigroup(0, 0).small_index(-1)

    def test_negative_numbers_are_not_members(self):
        S = from_generators((3, 4, 5))
        assert -1 not in S
        assert -100 not in S


class TestPredicates:
    def test_gorenstein_iff_type_one(self):
        for S in semigroups_up_to(7):
            assert S.is_gorenstein == (S.type == 1)
            assert S.is_gorenstein == (2 * S.genus == S.conductor)

    def test_almost_gorenstein_examples(self):
        # ideals=() keeps this to the numeric criteria; the quantified
        # equivalences get their own coverage in test_classification
        assert ring_classification(
            from_generators((3, 4, 5)), ideals=()
        ).almost_gorenstein
        assert ring_classification(
            negative_a_semigroup(), ideals=()
        ).almost_gorenstein
        G = NumericalSemigroup.decode("0,4,8,9,12,13|16")
        assert not ring_classification(G, ideals=()).almost_gorenstein

    def test_arf_matches_brute_force(self):
        for S in semigroups_up_to(7):
            c = S.conductor
            members = [x for x in range(2 * c + 3) if x in S]
            brute = all(
                2 * x - y in S
                for x in members
                for y in members
                if y <= x
            )
            assert is_arf(S) == brute, S.encode()

    def test_arf_matches_the_triple_scan(self):
        # The definition read literally: s + t - u in S for all members
        # s >= t >= u, with s below the conductor.
        def triple_scan(S):
            small = S.small_elements[:-1]
            return all(
                s + t - u in S
                for i, s in enumerate(small)
                for j, t in enumerate(small[: i + 1])
                for u in small[: j + 1]
            )

        walked = list(enumerate_semigroups(max_conductor=18))
        assert len(walked) == 1250
        for S in walked:
            assert is_arf(S) == triple_scan(S), S.encode()

    def test_arf_examples(self):
        assert is_arf(from_generators((2, 3)))
        assert is_arf(from_generators((3, 4, 5)))
        assert not is_arf(from_generators((4, 5, 7)))


def _facts(S):
    return (
        S.conductor,
        S.mask,
        S.small_elements,
        S.n,
        S.genus,
        S.multiplicity,
        S.minimal_generators,
        S.pseudo_frobenius,
        S.type,
        S.encode(),
    )


# The facts ``_child`` sets or leaves to be built on first read, in an
# order of reading; each order is also read reversed.
_READ_ORDERS = (
    ("small_elements", "n", "minimal_generators", "pseudo_frobenius", "type", "encode"),
    ("encode", "minimal_generators", "type", "small_elements", "pseudo_frobenius", "n"),
    ("type", "pseudo_frobenius", "n", "encode", "small_elements", "minimal_generators"),
)


def _read(S, names):
    return [S.encode() if name == "encode" else getattr(S, name) for name in names]


class TestTreeChildren:
    """``_child`` builds S - {x} from S's facts, with no Apery pass."""

    @pytest.mark.parametrize("built_first", [False, True])
    @pytest.mark.parametrize(
        "order", [o for order in _READ_ORDERS for o in (order, order[::-1])]
    )
    def test_lazy_facts_in_any_read_order(self, order, built_first):
        # Read during the walk, a node's facts are read before its children
        # are built from it; read after it, every node's children are built
        # before any of its facts is read.  Each case walks afresh.
        walk = enumerate_semigroups(max_conductor=20)
        if built_first:
            walk = list(walk)
        count = 0
        for S in walk:
            fresh = NumericalSemigroup(S.conductor, S.mask)
            assert _read(S, order) == _read(fresh, order), (S, order)
            count += 1
        assert count == 2616

    def test_child_n_is_checked_against_the_mask(self):
        T = from_generators((3, 4, 5))._child(4)
        T.n += 1
        with pytest.raises(InternalInconsistency):
            T.small_elements

    def test_pickle_round_trip_carries_no_lazy_field(self):
        slots = NumericalSemigroup.__slots__
        # N is left out: it keeps no pseudo-Frobenius bits.
        cases = [S for S in enumerate_semigroups(max_conductor=10) if S.conductor]
        cases += [from_generators((3, 4, 5)), NumericalSemigroup(0, 0)._child(1)]
        for S in cases:
            _facts(S), S._reversal()  # fill every lazy field
            assert None not in [getattr(S, slot) for slot in slots], S
            T = pickle.loads(pickle.dumps(S))
            fresh = NumericalSemigroup(S.conductor, S.mask)
            assert [getattr(T, slot) for slot in slots] == [
                getattr(fresh, slot) for slot in slots
            ], S
            assert T._small is None and T._mingens is None and T._enc is None

    def test_walk_facts_equal_the_constructor(self):
        walked = list(enumerate_semigroups(max_conductor=20))
        assert len(walked) == 2616
        for S in walked:
            fresh = NumericalSemigroup(S.conductor, S.mask)
            assert _facts(S) == _facts(fresh), S

    def test_child_of_n(self):
        T = NumericalSemigroup(0, 0)._child(1)
        assert _facts(T) == (2, 1, (0, 2), 1, 1, 2, (2, 3), (1,), 1, "0,2|2")

    def test_ordinary_chain(self):
        # x = e: {0, e, e + 1, ...} - {e} is ordinary with multiplicity e + 1
        S = NumericalSemigroup(0, 0)
        for e in range(1, 8):
            S = S._child(e)
            assert S.small_elements == (0, e + 1)
            assert S.minimal_generators == tuple(range(e + 1, 2 * e + 2))
            assert S.pseudo_frobenius == tuple(range(1, e + 1))
            assert _facts(S) == _facts(NumericalSemigroup(S.conductor, S.mask))

    @pytest.mark.parametrize(
        "x, small, gens, pf",
        [
            (4, (0, 3, 5), (3, 5, 7), (2, 4)),  # x + e = 7 is a new generator
            (5, (0, 3, 4, 6), (3, 4), (5,)),  # x + e = 8 = 4 + 4 splits
        ],
    )
    def test_children_of_345(self, x, small, gens, pf):
        S = from_generators((3, 4, 5))
        S.type  # the parent's Apery pass has run
        T = S._child(x)
        assert (T.small_elements, T.minimal_generators) == (small, gens)
        assert T.pseudo_frobenius == pf
        assert _facts(T) == _facts(NumericalSemigroup(T.conductor, T.mask))

    def test_parent_without_an_apery_pass(self):
        S = NumericalSemigroup(5, 0b1001)  # <3, 5, 7> from its mask
        assert S._pf_bits is None and S._gens is None and S._mingens is None
        for x, gens in ((5, (3, 7, 8)), (7, (3, 5))):
            T = S._child(x)
            assert T.minimal_generators == gens
            assert _facts(T) == _facts(NumericalSemigroup(x + 1, T.mask))

    def test_carried_reversal_is_the_reflected_mask(self):
        def reflected(S):
            return _reflect(S.mask, S.conductor)

        walked = list(enumerate_semigroups(max_conductor=20))
        assert len(walked) == 2616
        for S in walked:  # N's is filled on its children's first build
            assert S._rev == reflected(S), S
        S = NumericalSemigroup(0, 0)
        for e in range(1, 12):
            S = S._child(e)
            assert S._rev == reflected(S) == 1 << S.conductor, S
        S = NumericalSemigroup.decode("0,4,8,9,12,13|16")
        assert S._rev is None
        for T in _children(S, None, None):
            assert T._rev == reflected(T), T
            assert _facts(T) == _facts(NumericalSemigroup(T.conductor, T.mask))
        assert S._rev == reflected(S)

    @pytest.mark.parametrize(
        "S, first",
        [
            (NumericalSemigroup(9, 1), 9),
            (NumericalSemigroup(95, 1), 99),
            (NumericalSemigroup(99, 1), 99),
            (NumericalSemigroup(990, 1), 999),
            # Multiples of 7 below 93, then all: the children drop
            # 99, 97, 96, 95, 94, 93, skipping 98 = 14 * 7.
            (from_generators((7, 93, 94, 95, 96, 97, 99)), 99),
        ],
    )
    def test_siblings_at_a_power_of_ten_are_in_encoding_order(self, S, first):
        children = _children(S, None, None)[::-1]  # stack order, read as visited
        assert len(children) > 1 and children[0].frobenius == first
        encodings = [T.encode() for T in children]
        assert encodings == sorted(encodings)


def _members(bits):
    return {k for k in range(bits.bit_length()) if bits >> k & 1}


def _as_bits(members):
    return sum(1 << k for k in members)


@st.composite
def kernel_args(draw, width, max_e):
    """(a_bits, b_bits, e) below ``width``, B closed under + e there."""
    e = draw(st.integers(min_value=1, max_value=max_e))
    a_bits = draw(st.integers(min_value=0, max_value=(1 << width) - 1))
    seeds = draw(
        st.one_of(
            st.lists(st.integers(min_value=0, max_value=width - 1), max_size=6),
            st.integers(min_value=0, max_value=(1 << width) - 1).map(_members),
        )
    )
    B = {x for s in seeds for x in range(s, width, e)}
    return a_bits, _as_bits(B), e


class TestKernels:
    """The generator kernels against a reference on plain sets.

    The reference takes the least member of B in each residue class mod e,
    then the intersection (colon) or union (sum) of A shifted by each.
    """

    @staticmethod
    def _check(a_bits, b_bits, e):
        A, least = _members(a_bits), {}
        for x in sorted(_members(b_bits)):
            least.setdefault(x % e, x)
        shifted_down = [{x - g for x in A if x >= g} for g in least.values()]
        colon = _as_bits(set.intersection(*shifted_down)) if least else -1
        sum_ = _as_bits(set().union(*({x + g for x in A} for g in least.values())))
        assert colon_bits(a_bits, b_bits, e) == colon
        assert sum_bits(a_bits, b_bits, e) == sum_

    @given(kernel_args(width=80, max_e=10))
    @settings(max_examples=200, deadline=None)
    def test_census_widths(self, args):
        self._check(*args)

    @given(kernel_args(width=1300, max_e=60))
    @settings(max_examples=60, deadline=None)
    def test_query_widths(self, args):
        self._check(*args)

    @pytest.mark.parametrize("e", [1, 3, 10, 60])
    def test_one_class_minimum_and_empty_b(self, e):
        a_bits = 0b1011_0110_1101 << 40 | 0b111
        one = _as_bits(range(7, 200, e))
        assert colon_bits(a_bits, one, e) == a_bits >> 7
        assert sum_bits(a_bits, one, e) == a_bits << 7
        assert colon_bits(a_bits, 0, e) == -1
        assert sum_bits(a_bits, 0, e) == 0
        self._check(a_bits, one, e)
        self._check(a_bits, 0, e)


class TestOversemigroups:
    def test_chain_over_345(self):
        got = [T.encode() for T in oversemigroups(from_generators((3, 4, 5)))]
        assert got == ["0,3|3", "0,2|2", "0|0"]

    def test_count_is_monotone_sanity(self):
        # every oversemigroup of S other than N has its own oversemigroups
        # inside the list for S
        S = from_generators((4, 5, 7))
        overs = set(T.encode() for T in oversemigroups(S))
        for T in oversemigroups(S):
            assert set(U.encode() for U in oversemigroups(T)) <= overs

    def test_whole_numbers_has_only_itself(self):
        N = from_generators((1,))
        assert [T.encode() for T in oversemigroups(N)] == ["0|0"]

    def test_limit_stops_the_walk_past_it(self):
        S = from_generators((3, 4, 5))
        assert oversemigroups(S, limit=3) == oversemigroups(S)
        with pytest.raises(BoundTooLarge):
            oversemigroups(S, limit=2)

    def test_walk_yields_the_limit_th_t_then_raises(self):
        # <3,4,5> has two T besides S, so S and they pass any limit below 3.
        # The limit-th T comes out first, so a guard that reads each T the
        # walk yields (the listing guard of ``overrings``) sees it.
        table = IdealTable(from_generators((3, 4, 5)), [])
        assert len(list(table.oversemigroup_walk(3))) == 2
        for limit in (0, 1, 2):
            got = []
            with pytest.raises(BoundTooLarge, match=f"more than {limit} "):
                got.extend(table.oversemigroup_walk(limit))
            assert len(got) == limit

    def test_negative_limit_is_invalid_input(self):
        with pytest.raises(InvalidInput):
            oversemigroups(from_generators((3, 4, 5)), limit=-1)

    @pytest.mark.parametrize("limit", [2.5, True])
    def test_non_int_limit_is_invalid_input(self, limit):
        # <5,6,7,8,9> has 7 oversemigroups: 2.5 must not pass as no limit,
        # nor True as a limit of 1.
        with pytest.raises(InvalidInput, match="limit must be an int"):
            oversemigroups(from_generators((5, 6, 7, 8, 9)), limit)

    def test_walk_matches_gap_set_and_colon_oracles(self):
        # Genus <= 9: the walk yields each T != S with gaps(T) inside
        # gaps(S) once, and S - T equals the colon of the explicit sets.
        # The census's layout, the table of ``family`` at windows 0 to 2,
        # yields the same pairs as the table of top c + 1.
        gap_sets = set().union(*map(oracles.gap_set_semigroups, range(10)))
        for gaps in gap_sets:
            S = NumericalSemigroup.decode(oracles.encode_gap_set(gaps))
            c = S.conductor
            walk = _walk_below_c(IdealTable(S, []), c)
            census = [_walk_below_c(IdealTable.family(S, w), c) for w in range(3)]
            got = [frozenset(range(c)) - T for T, _ in walk]
            assert len(got) == len(set(got)), S.encode()
            assert set(got) == {g for g in gap_sets if g < gaps}, S.encode()
            top = 3 * c + 2
            A = set(range(top)) - gaps
            for T_gaps, (_, ideal) in zip(got, walk):
                want = oracles.colon_set(A, set(range(top)) - T_gaps, -c - 1, c, top)
                assert ideal == want, S.encode()
            for window, pairs in enumerate(census):
                assert set(pairs) == set(walk), (S.encode(), window)


def _walk_below_c(table: IdealTable, c: int) -> list[tuple[frozenset, frozenset]]:
    """The oversemigroup walk's pairs (T, S - T) as their members in [0, c)."""

    def below(bits: int) -> frozenset[int]:
        return frozenset(x for x in range(c) if bits >> (x + table.offset) & 1)

    return [(below(T), below(I)) for T, I in table.oversemigroup_walk()]
