"""Ring-level classification: distinguished classes and the small-b catalogue.

``ring_classification`` evaluates the symmetric, almost-symmetric and
maximal-length properties by several independent routes, plus the
seven-way equivalence that characterizes the almost-symmetric case by the
behaviour of duality on every non-principal ideal of a window family.

``window_profile`` analyses the quotient by the tail-plus-multiplicity
ideal and verifies the splitting of b = b(tail) it induces.

``classify_b`` buckets a non-symmetric semigroup by comparing b with the
type r and, for b <= r, verifies the complete list of member patterns,
type-sequence patterns, and quotient lengths that the classification
asserts for that bucket; any miss is reported as a failed check rather
than an exception.  One core, ``_classify``, does this work: it reads
r, e and b once, returns at b > r before any pattern is looked at, and
hands back the tag, the parameters and plain check tuples.
``classify_b`` is its public view, with a ``ClassificationOutcome`` and
``Check`` records; the census and ``window_profile`` call the core
itself and build neither.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import DegenerateDVR
from .ideals import (
    RelativeIdeal,
    canonical_ideal,
    colon,
    ideal_intersection,
    ideal_product,
    ideal_union,
    length_between,
    maximal_ideal,
    principal_ideal,
    tail_ideal,
    unit_ideal,
)
from .invariants import (
    Check,
    CheckTuple,
    IdealTable,
    _eq,
    _ge,
    _le,
    _records,
    type_sequence,
)
from .semigroup import NumericalSemigroup, from_small_elements


def b_of_tail(S: NumericalSemigroup) -> int:
    """b of the tail ideal by the closed count r*(c - genus) - genus."""
    if S.conductor == 0:
        return 0
    return S.type * (S.conductor - S.genus) - S.genus


# -- ring classification -------------------------------------------------------


@dataclass(frozen=True)
class RingClassification:
    semigroup: str
    gorenstein: bool
    almost_gorenstein: bool
    maximal_length: bool
    equivalences: dict[str, bool]
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def ring_classification(
    S: NumericalSemigroup,
    window: int = 2,
    ideals: list[RelativeIdeal] | IdealTable | None = None,
) -> RingClassification:
    """Classify S and verify the duality equivalences over an ideal family.

    The family defaults to every proper integral ideal whose conductor is
    within ``window`` of the conductor of S; a list of ideals is turned
    into an ``IdealTable``, on whose rows every ideal-family condition
    is evaluated.  Quantified conditions range over the non-principal
    members: translates of S satisfy none of the canonical-module
    identities except in the trivial direction, and the equivalence
    genuinely fails if they are included.
    """
    if ideals is None:
        ideals = IdealTable.family(S, window)
    table = ideals if isinstance(ideals, IdealTable) else IdealTable(S, ideals)
    r = S.type
    delta = S.genus
    c = S.conductor
    n = S.n
    ts = type_sequence(S).values
    unit = unit_ideal(S)
    K = canonical_ideal(S)
    m = maximal_ideal(S)

    gor = 2 * delta == c
    ag_numeric = r - 1 == 2 * delta - c
    ag_product = ideal_product(K, m) == m
    ag_ts = n == 0 or (ts[0] == r and all(v == 1 for v in ts[1:]))
    ml_numeric = r * (c - delta) == delta
    ml_ts = all(v == r for v in ts)

    checks: list[CheckTuple] = [
        _eq("almost_symmetric_product_vs_count", ag_product, ag_numeric),
        _eq("almost_symmetric_type_seq_vs_count", ag_ts, ag_numeric),
        _eq("maximal_length_type_seq_vs_count", ml_ts, ml_numeric),
        _eq("symmetric_iff_canonical_trivial", gor, K == unit),
    ]

    non_principal = [I for I in table.rows if not I.principal]
    reflexive_np = [I for I in non_principal if I.bidual == I.bits]

    cond_omega_bidual = all(I.omega == I.bidual for I in non_principal)
    # l(I/J) = l(J*/I*) for J inside I says a(I) = a(J), since every row
    # has length + dual_length = 2 * unit_length + a; so the condition
    # fails exactly on a comparable pair from two different a-classes.
    a_classes: dict[int, list[int]] = {}
    for I in reflexive_np:
        a_classes.setdefault(I.a, []).append(I.bits)
    cond_length_sym = not any(
        x & ~y == 0 or y & ~x == 0
        for xs, ys in itertools.combinations(a_classes.values(), 2)
        for x in xs
        for y in ys
    )
    cond_tail_dual = all(
        I.length - table.tail_length(I.conductor)
        == table.tail_length(c - I.conductor) - I.dual_length
        for I in reflexive_np
    )
    cond_a_formula = all(I.a == r - 1 - I.bidual_drop for I in non_principal)

    for cid, cond in (
        ("equiv_type_seq_pattern", ag_ts),
        ("equiv_omega_mult_is_bidual", cond_omega_bidual),
        ("equiv_length_symmetry", cond_length_sym),
        ("equiv_tail_dual_length", cond_tail_dual),
        ("equiv_a_reflexive_defect", cond_a_formula),
        ("equiv_canonical_stable_max_ideal", ag_product),
    ):
        checks.append(_eq(cid, cond, ag_numeric))

    # Maximal length happens exactly when b dies on every ideal above the tail.
    ml_by_b = all(I.b == 0 for I in table.rows if I.conductor == c)
    checks.append(_eq("maximal_length_iff_b_dies_above_tail", ml_by_b, ml_numeric))
    # Symmetric rings are exactly those with a = 0 everywhere.
    a_everywhere_zero = all(I.a == 0 for I in table.rows)
    checks.append(_eq("symmetric_iff_a_vanishes", a_everywhere_zero, gor))

    return RingClassification(
        semigroup=S.encode(),
        gorenstein=gor,
        almost_gorenstein=ag_numeric,
        maximal_length=ml_numeric,
        equivalences={
            "almost_symmetric_count": ag_numeric,
            "type_seq_pattern": ag_ts,
            "omega_mult_is_bidual": cond_omega_bidual,
            "length_symmetry": cond_length_sym,
            "tail_dual_length": cond_tail_dual,
            "a_reflexive_defect": cond_a_formula,
            "canonical_stable_max_ideal": ag_product,
        },
        checks=_records(checks),
    )


# -- tail-plus-multiplicity profile ---------------------------------------------


@dataclass(frozen=True)
class WindowProfile:
    """Data of the quotient by tail + (multiplicity + S) and the b split."""

    semigroup: str
    b: int
    quotient_length: int
    p: int
    gap_count: int
    z: int
    late_indices: tuple[int, ...]
    early_indices: tuple[int, ...]
    classification_tag: str
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def window_profile(S: NumericalSemigroup) -> WindowProfile:
    """Profile of l(S / tail + (e + S)) and the induced split of b.

    Undefined for S = N, where the tail is the whole semigroup.
    """
    if S.conductor == 0:
        raise DegenerateDVR("the profile needs a nonzero conductor")
    e = S.multiplicity
    c = S.conductor
    n = S.n
    r = S.type
    delta = S.genus
    small = S.small_elements
    ts = type_sequence(S)
    unit = unit_ideal(S)
    gamma = tail_ideal(S, c)

    # z = s_{h0 - 1} is the least member with z + e past the conductor; the
    # late indices are h0, ..., n (s_h > z) and the early ones 1, ..., h0 - 1.
    h0 = next(h for h, s in enumerate(small, 1) if s >= c - e)
    z = small[h0 - 1]
    late = tuple(range(h0, n + 1))
    early = tuple(range(1, h0))
    late_sum = sum(ts.values[h0 - 1 :])
    early_deficit = r * (h0 - 1) - sum(ts.values[: h0 - 1])

    l_quot = quotient_length(S)
    # Independent count: members below c whose difference with e is a gap.
    direct = sum(1 for s in small[:-1] if s - e not in S)
    socle = ideal_intersection(colon(gamma, maximal_ideal(S)), unit)
    l_socle = length_between(socle, gamma)
    direct_socle = sum(1 for s in small[:-1] if s >= c - e)

    b = b_of_tail(S)
    b_by_ts = sum(r - v for v in ts.values)
    p = (c - 1) // e
    gap_count = sum(1 for x in range(p * e + 1, c) if x not in S)

    checks = [
        _eq("profile_quotient_two_counts", l_quot, direct),
        _eq("profile_socle_two_counts", l_socle, direct_socle),
        _eq("profile_late_count_is_quotient", len(late), l_quot),
        _eq("profile_late_count_is_socle", len(late), l_socle),
        _ge("profile_quotient_at_least_e_minus_r", l_quot, e - r),
        _ge("profile_e_minus_r_positive", e - r, 1),
        _le("profile_late_sum_bound", late_sum, e - 1),
        _eq("profile_b_split", b + late_sum, early_deficit + r * l_quot),
        _le("profile_b_split_upper", b + late_sum, b + e - 1),
        _ge("profile_b_lower_bound", b, (r - 1) * (e - r - 1) + early_deficit),
        _le("profile_p_lower", c - e, p * e),
        _le("profile_p_upper", p * e, c - 1),
        _ge("profile_gap_count_lower", gap_count, 1),
        _le("profile_gap_count_upper", gap_count, e - 1),
        _eq("profile_b_two_paths", b, b_by_ts),
    ]
    for q in (1, 2):
        if b < q * (r - 1):
            checks.append(
                (f"profile_quotient_window_q{q}", e - r <= l_quot <= q, l_quot, q)
            )
    if 0 <= b < r - 1:
        checks.append(_eq("profile_small_b_forces_type", r, e - 1))
        checks.append(_eq("profile_small_b_forces_quotient", l_quot, 1))
    if r - 1 < b < 2 * (r - 1):
        checks.append(("profile_mid_b_bounds_type", e - 2 <= r <= e - 1, r, e))
        checks.append(_eq("profile_mid_b_forces_quotient", l_quot, 2))

    return WindowProfile(
        semigroup=S.encode(),
        b=b,
        quotient_length=l_quot,
        p=p,
        gap_count=gap_count,
        z=z,
        late_indices=late,
        early_indices=early,
        classification_tag=_classify(S)[0],
        checks=_records(checks),
    )


# -- the small-b catalogue -------------------------------------------------------


@dataclass(frozen=True)
class ClassificationOutcome:
    semigroup: str
    tag: str
    parameters: dict[str, int | str]
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _multiples_then_tail(S: NumericalSemigroup) -> tuple[bool, int]:
    """Whether the members below c are exactly 0, e, 2e, ..., pe; and p.

    There are n of them, so p = n - 1 and the pattern says that S.mask is
    the base-2^e repunit of n digits, (2^(ne) - 1) / (2^e - 1).  Its top
    member (n - 1)e is below c, so ne >= c + e rules the pattern out, and
    the repunit is built only below that.
    """
    e = S.multiplicity
    n = S.n
    ok = n * e < S.conductor + e and S.mask == ((1 << n * e) - 1) // ((1 << e) - 1)
    return ok, n - 1


def _head_constant_ts(S: NumericalSemigroup, value: int) -> bool:
    """Whether the type sequence reads (value, ..., value, r_n)."""
    ts = type_sequence(S).values
    return ts[:-1].count(value) == len(ts) - 1


def matches_small_b_value_pattern(S: NumericalSemigroup) -> bool:
    """Members 0, e, ..., pe with pe + 2 < c: the strict-b-deficit pattern."""
    ok, p = _multiples_then_tail(S)
    return ok and p * S.multiplicity + 2 < S.conductor


def matches_small_b_ts_pattern(S: NumericalSemigroup) -> bool:
    """Type sequence (e-1, ..., e-1, r_n) with a final entry above 1."""
    if S.conductor == 0:
        return False
    if S.type != S.multiplicity - 1:
        return False
    ts = type_sequence(S).values
    return _head_constant_ts(S, S.multiplicity - 1) and ts[-1] > 1


def _two_gen_doubles(e: int) -> NumericalSemigroup:
    return from_small_elements([0, e, 2 * e - 1, 2 * e], 3 * e - 1)


def _case_g_shapes(S: NumericalSemigroup):
    """Match against the four b = r shapes with type e - 2."""
    e = S.multiplicity
    small = S.small_elements
    if S == from_small_elements([0, 4, 8, 9, 12, 13], 16):
        return {"family": "sporadic_quad", "e": 4}
    if S == from_small_elements([0, 4, 8, 11, 12, 15, 16], 19):
        return {"family": "sporadic_quad_long", "e": 4}
    if (
        e >= 4
        and len(small) == 5
        and small == (0, e, 2 * e - 2, 2 * e, 3 * e - 2)
    ):
        return {"family": "double_step", "e": e}
    if e >= 4 and len(small) == 4 and small[3] == 2 * e - 1:
        z = small[2] - e
        if 1 <= z and 2 * z <= e - 2 and small == (0, e, e + z, 2 * e - 1):
            return {"family": "short_third", "e": e, "z": z}
    return None


_CASE_J_SETS = (
    ([0, 5, 6, 7], 10),
    ([0, 5, 6, 8], 10),
    ([0, 5, 8, 9, 10], 13),
)


def case_j_semigroups() -> tuple[NumericalSemigroup, ...]:
    """The three b = r semigroups of type 2 and multiplicity 5."""
    return tuple(from_small_elements(m, c) for m, c in _CASE_J_SETS)


def quotient_length(S: NumericalSemigroup) -> int:
    """l(S / tail + (e + S)), the pivot of the small-b classification."""
    gamma = tail_ideal(S, S.conductor)
    enlarged = ideal_union(gamma, principal_ideal(S, S.multiplicity))
    return length_between(unit_ideal(S), enlarged)


TAG_GORENSTEIN = "GORENSTEIN"
TAG_B_LT = "B_LT_R_MINUS_1"
TAG_B_EQ_RM1_CASE1 = "B_EQ_R_MINUS_1_CASE1"
TAG_B_EQ_RM1_CASE2 = "B_EQ_R_MINUS_1_CASE2"
TAG_B_EQ_R_G = "B_EQ_R_CASE_G"
TAG_B_EQ_R_J = "B_EQ_R_CASE_J"
TAG_B_GT = "B_GT_R"


def _classify(S: NumericalSemigroup):
    """The one classification: (tag, b, r, e, extra parameters, checks).

    Reads r = S.type, e = S.multiplicity and b = ``b_of_tail(S)`` once.
    The checks are plain tuples.  For S = N, a Gorenstein S and b > r
    there are none and the extra parameters are None: no pattern is
    looked at.
    """
    r = S.type
    e = S.multiplicity
    b = b_of_tail(S)
    if S.conductor == 0 or S.is_gorenstein:
        return TAG_GORENSTEIN, b, r, e, None, ()
    if b > r:
        return TAG_B_GT, b, r, e, None, ()
    c = S.conductor

    if b < r - 1:
        _, p = _multiples_then_tail(S)
        ts = type_sequence(S).values
        checks = [
            _eq("classify_value_pattern", matches_small_b_value_pattern(S), True),
            _eq("classify_ts_pattern", matches_small_b_ts_pattern(S), True),
            _eq("classify_quotient_length", quotient_length(S), 1),
            _eq("classify_conductor_value", c, (p + 1) * e - b),
            _eq("classify_type_value", r, e - 1),
            _eq("classify_last_entry", ts[-1], e - 1 - b),
        ]
        return TAG_B_LT, b, r, e, {"p": p}, checks

    if b == r - 1:
        if r == e - 1:
            mult_ok, p = _multiples_then_tail(S)
            ts = type_sequence(S).values
            value_ok = mult_ok and c == p * e + 2
            ts_ok = _head_constant_ts(S, e - 1) and ts[-1] == 1
            checks = [
                _eq("classify_value_pattern", value_ok, True),
                _eq("classify_ts_pattern", ts_ok, True),
                _eq("classify_quotient_length", quotient_length(S), 1),
            ]
            return TAG_B_EQ_RM1_CASE1, b, r, e, {"p": p}, checks
        checks = [_eq("classify_type_value", r, e - 2)]
        ts = type_sequence(S).values
        small = S.small_elements
        fam = None
        if len(small) == 5 and S == _two_gen_doubles(e):
            fam = {"family": "double_gap", "e": e}
            ts_ok = (
                len(ts) == 4
                and ts[0] == e - 2
                and ts[1] == e - 2
                and ts[2] + ts[3] == e - 1
            )
        elif len(small) == 4 and small[3] == 2 * e:
            y = small[2]
            if e < y and 2 * y <= 3 * e - 1 and small == (0, e, y, 2 * e):
                fam = {"family": "middle_member", "e": e, "y": y}
                ts_ok = len(ts) == 3 and ts[0] == e - 2 and ts[1] + ts[2] == e - 1
        if fam is None:
            checks.append(_eq("classify_value_pattern", False, True))
        else:
            checks.append(_eq("classify_value_pattern", True, True))
            checks.append(_eq("classify_ts_pattern", ts_ok, True))
        checks.append(_eq("classify_quotient_length", quotient_length(S), 2))
        return TAG_B_EQ_RM1_CASE2, b, r, e, fam, checks

    shape = _case_g_shapes(S)
    if shape is not None:
        checks = [
            _eq("classify_type_value", r, e - 2),
            _eq("classify_quotient_length", quotient_length(S), 2),
        ]
        return TAG_B_EQ_R_G, b, r, e, shape, checks
    checks = [
        _eq("classify_value_pattern", S in case_j_semigroups(), True),
        _eq("classify_type_value", r, 2),
        _eq("classify_multiplicity_value", e, 5),
        _eq("classify_quotient_length", quotient_length(S), 3),
    ]
    return TAG_B_EQ_R_J, b, r, e, None, checks


def classify_b(S: NumericalSemigroup) -> ClassificationOutcome:
    """Tag S by the position of b = b(tail) relative to the type.

    For every b <= r tag the asserted member pattern, type-sequence
    pattern and quotient length are verified independently; a pattern miss
    is reported as a failed check so censuses can surface it.  This is the
    public view of ``_classify``: its parameters are b, r and e (none for
    a Gorenstein S) and the tag's extra ones, its checks ``Check`` records.
    """
    tag, b, r, e, extra, checks = _classify(S)
    params: dict[str, int | str] = {}
    if tag != TAG_GORENSTEIN:
        params = {"b": b, "r": r, "e": e, **(extra or {})}
    return ClassificationOutcome(S.encode(), tag, params, _records(checks))
