"""Type sequences and the duality invariants a, b, d of proper ideals.

For a semigroup S with small elements s_0 < ... < s_n, the chain
R_i = {s in S : s >= s_i} interpolates between S and the tail gamma.
The i-th type is r_i = l((S - R_i) / (S - R_{i-1})); the same number is
the drop l(K + R_{i-1} / K + R_i) along the canonical-ideal products, which
the census re-derives as a named check.

For a proper integral ideal I with bidual I**, ideal conductor c_I and
n_I = c_I - genus, the marked indices are
V = {h >= 1 : s_{h-1} in I**} (extended small elements); every h > n_I is
marked, so V is stored through its complement W inside [1, n_I].  The
invariants are

    a(I) = l((S - I)/S) - l(S/I)
    b(I) = type * l(S/I) - l((S - I)/S)
    d(I) = l(tail(c - c_I) / (S - I)) - sum of r_h over marked h <= n_I

and ``decomposition_check`` re-derives a and b from the type sequence
through the marked-index bookkeeping, together with every bound and
identity the theory provides, reporting each as a named check with both
sides evaluated.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .errors import (
    InternalInconsistency,
    InvalidInput,
    NotOversemigroup,
    ParentMismatch,
)
from .ideals import (
    RelativeIdeal,
    bidual,
    canonical_ideal,
    dedekind_different,
    dual,
    ideal_product,
    ideal_union,
    is_integrally_closed,
    is_principal,
    length_between,
    require_proper,
    tail_ideal,
    unit_ideal,
)
from .semigroup import NumericalSemigroup, is_arf


@dataclass(frozen=True)
class Check:
    """One verified relation with both evaluated sides."""

    id: str
    passed: bool
    lhs: int
    rhs: int


def _eq(cid: str, lhs: int, rhs: int) -> Check:
    return Check(cid, lhs == rhs, int(lhs), int(rhs))


def _le(cid: str, lhs: int, rhs: int) -> Check:
    return Check(cid, lhs <= rhs, int(lhs), int(rhs))


def _ge(cid: str, lhs: int, rhs: int) -> Check:
    return Check(cid, lhs >= rhs, int(lhs), int(rhs))


@dataclass(frozen=True)
class TypeSequence:
    """The sequence (r_1, ..., r_n); empty exactly for S = N."""

    parent: NumericalSemigroup
    values: tuple[int, ...]

    def r(self, h: int) -> int:
        """r_h extended by 1 beyond the chain (tails of consecutive sets)."""
        if h < 1:
            raise InvalidInput("indices start at 1")
        return self.values[h - 1] if h <= len(self.values) else 1

    def sum_r(self, indices) -> int:
        return sum(self.r(h) for h in indices)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)


def _tail_members_ideal(S: NumericalSemigroup, s: int) -> RelativeIdeal:
    """R_i = members of S at or above the member s."""
    if s >= S.conductor:
        return tail_ideal(S, s)
    from .semigroup import _ones

    return RelativeIdeal(S, s, S.conductor, (S.mask >> s) & _ones(S.conductor - s))


@functools.lru_cache(maxsize=4096)
def _chain_dual(S: NumericalSemigroup, i: int) -> RelativeIdeal:
    """S - R_i for the extended chain (R_i is a plain tail for i > n)."""
    return dual(_tail_members_ideal(S, S.small_element(i)))


def _require(holds: bool, message: str) -> None:
    if not holds:
        raise InternalInconsistency(message)


@functools.lru_cache(maxsize=4096)
def type_sequence(S: NumericalSemigroup) -> TypeSequence:
    """Compute (r_1, ..., r_n) from the duals of the chain R_i.

    Always-on consistency: r_1 must equal the type, every entry lies in
    [1, r_1], the entries sum to the genus and the excesses sum to l(K/S).
    """
    small = S.small_elements
    values = []
    d_prev = unit_ideal(S)
    for i in range(1, S.n + 1):
        d_cur = dual(_tail_members_ideal(S, small[i]))
        values.append(length_between(d_cur, d_prev))
        d_prev = d_cur
    if values:
        _require(values[0] == S.type, "first entry must equal the type")
        _require(
            all(1 <= v <= values[0] for v in values),
            "entries must lie in [1, type]",
        )
    _require(sum(values) == S.genus, "entries must sum to the genus")
    _require(
        sum(v - 1 for v in values) == 2 * S.genus - S.conductor,
        "excesses must sum to 2 * genus - conductor",
    )
    return TypeSequence(S, tuple(values))


@functools.lru_cache(maxsize=4096)
def extended_type_sequence(S: NumericalSemigroup, m: int) -> tuple[int, ...]:
    """(r_1, ..., r_m) for m >= n; entries beyond n are verified to be 1."""
    ts = type_sequence(S)
    n = S.n
    if m < n:
        raise InvalidInput(f"extension length {m} is below n = {n}")
    out = list(ts.values)
    d_prev = _chain_dual(S, n)
    for i in range(n + 1, m + 1):
        d_cur = _chain_dual(S, i)
        r_i = length_between(d_cur, d_prev)
        _require(r_i == 1, "entries beyond the chain are tails and contribute 1")
        out.append(r_i)
        d_prev = d_cur
    return tuple(out)


def ab_invariants(S: NumericalSemigroup, I: RelativeIdeal) -> tuple[int, int]:
    """(a, b) for a proper integral ideal I."""
    require_proper(I)
    unit = unit_ideal(S)
    l_dual = length_between(dual(I), unit)
    l_quot = length_between(unit, I)
    return (l_dual - l_quot, S.type * l_quot - l_dual)


class IdealRow:
    """One ideal of an ``IdealTable``: I and I* as window bits, counts, a, b."""

    __slots__ = ("ideal", "bits", "dual", "length", "dual_length", "a", "b")

    def __init__(
        self, ideal: RelativeIdeal, bits: int, dual: int, unit_length: int, r: int
    ):
        self.ideal = ideal
        self.bits = bits
        self.dual = dual
        self.length = bits.bit_count()
        self.dual_length = dual.bit_count()
        l_quot = unit_length - self.length
        l_dual = self.dual_length - unit_length
        self.a = l_dual - l_quot
        self.b = r * l_quot - l_dual


class IdealTable:
    """Proper integral ideals of S as membership bits on one absolute window.

    Bit k of a row stands for the integer k - offset, for k below
    offset + top, and every integer >= top is a member.  With both set to
    one past the largest conductor of S and the ideals, the window covers
    I, I* and I**: I <= I** <= S, I* contains S (so its conductor is at
    most S's) and every z in I* has z + min(I) >= 0.  On this layout E is
    inside F exactly when ``E & ~F == 0``, and l(F/E) is then the
    difference of the popcounts.  Building the table computes each dual
    once, through the ``dual`` cache; biduals are read on first use.
    """

    def __init__(self, S: NumericalSemigroup, ideals):
        self.top = max([S.conductor] + [E.conductor for E in ideals]) + 1
        self.offset = self.top
        unit_length = self.bits_of(unit_ideal(S)).bit_count()
        self.rows: list[IdealRow] = []
        for E in ideals:
            if E.parent != S:
                raise ParentMismatch("the ideal belongs to another semigroup")
            require_proper(E)
            self.rows.append(
                IdealRow(
                    E, self.bits_of(E), self.bits_of(dual(E)), unit_length, S.type
                )
            )

    def bits_of(self, E: RelativeIdeal) -> int:
        """E's members below top, placed on the absolute window."""
        return E.bits_below(self.top) << (E.min_element + self.offset)

    def tail_length(self, start: int) -> int:
        """Window members of the tail from ``start``."""
        return self.top - start

    @functools.cached_property
    def biduals(self) -> tuple[int, ...]:
        """I** bits of each row, in row order."""
        return tuple(self.bits_of(bidual(row.ideal)) for row in self.rows)


def gamma_invariants(S: NumericalSemigroup) -> tuple[int, int]:
    """(a, b) of the tail ideal; (0, 0) for S = N where the tail is S itself."""
    if S.conductor == 0:
        return (0, 0)
    return ab_invariants(S, tail_ideal(S, S.conductor))


def sigma(S: NumericalSemigroup) -> int:
    """a of the tail minus l(S/different)."""
    if S.conductor == 0:
        return 0
    theta = dedekind_different(S)
    return (2 * S.genus - S.conductor) - length_between(unit_ideal(S), theta)


class _IdealContext:
    """Shared intermediate data for the invariant computations on (S, I)."""

    def __init__(self, S: NumericalSemigroup, I: RelativeIdeal):
        require_proper(I)
        self.S = S
        self.I = I
        self.unit = unit_ideal(S)
        self.r = S.type
        self.delta = S.genus
        self.c = S.conductor
        self.n = S.n
        self.c_i = I.conductor
        self.n_i = self.c_i - self.delta
        self.ts = type_sequence(S)
        self.K = canonical_ideal(S)
        self.theta = dedekind_different(S)
        self.i_star = dual(I)
        self.i_bid = bidual(I)
        self.omega_i = ideal_product(self.K, I)
        self.gamma_i = tail_ideal(S, self.c_i)
        self.colon_gamma = tail_ideal(S, self.c - self.c_i)
        self.unmarked = tuple(
            h
            for h in range(1, self.n_i + 1)
            if S.small_element(h - 1) not in self.i_bid
        )
        unmarked = set(self.unmarked)
        self.marked_below = tuple(
            h for h in range(1, self.n_i + 1) if h not in unmarked
        )
        self.l_quot = length_between(self.unit, I)
        self.l_dual = length_between(self.i_star, self.unit)
        self.l_bid = length_between(self.i_bid, I)
        self.a = self.l_dual - self.l_quot
        self.b = self.r * self.l_quot - self.l_dual
        self.i0 = S.small_index(I.min_element)
        self.d = length_between(self.colon_gamma, self.i_star) - self.sum_r(
            self.marked_below
        )

    def r_of(self, h: int) -> int:
        return self.ts.r(h)

    def sum_r(self, indices) -> int:
        return sum(self.ts.r(h) for h in indices)

    def d_of_bidual(self) -> int:
        """d recomputed for I**, whose own bidual and dual are already known."""
        c_b = self.i_bid.conductor
        n_b = c_b - self.delta
        marked = [
            h
            for h in range(1, n_b + 1)
            if self.S.small_element(h - 1) in self.i_bid
        ]
        return length_between(
            tail_ideal(self.S, self.c - c_b), self.i_star
        ) - self.sum_r(marked)


def d_invariant(S: NumericalSemigroup, I: RelativeIdeal) -> int:
    """d(I) for a proper integral ideal I."""
    return _IdealContext(S, I).d


@dataclass(frozen=True)
class IdealInvariantReport:
    """Full invariant record for one proper integral ideal."""

    semigroup: str
    ideal: str
    a: int
    b: int
    d: int
    ideal_conductor: int
    n_relative: int
    v_complement: tuple[int, ...]
    l_quotient: int
    l_dual: int
    l_bidual_drop: int
    reflexive: bool
    integrally_closed: bool
    omega_stable: bool
    principal: bool
    checks: tuple[Check, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def decomposition_check(
    S: NumericalSemigroup, I: RelativeIdeal
) -> IdealInvariantReport:
    """Evaluate every decomposition identity and bound for (S, I).

    Conditional statements (those whose hypothesis is a property of S or I)
    are included only when the hypothesis holds, so tallies count genuine
    instances.
    """
    ctx = _IdealContext(S, I)
    ts, r, n, n_i = ctx.ts, ctx.r, ctx.n, ctx.n_i
    checks: list[Check] = []

    unmarked = ctx.unmarked
    marked = ctx.marked_below
    sum_unmarked = ctx.sum_r(unmarked)
    sum_marked = ctx.sum_r(marked)
    excess_unmarked = sum(ctx.r_of(h) - 1 for h in unmarked)
    defect_unmarked = sum(r - ctx.r_of(h) for h in unmarked)
    d = ctx.d
    l_bid = ctx.l_bid
    l_tail_dual = length_between(ctx.colon_gamma, ctx.i_star)
    l_bid_gamma = length_between(ctx.i_bid, ctx.gamma_i)
    l_omega_growth = length_between(ctx.omega_i, I)
    refl = ctx.i_bid == I
    closed = is_integrally_closed(I)
    stable = ctx.omega_i == I
    # Translates of S stand in for the ring itself, whose d depends on
    # the embedding; statements about almost-symmetric parents quantify
    # over the non-trivial ideals only.
    principal = is_principal(I)

    # The two headline decompositions.
    checks.append(
        _eq("a_from_type_sequence", ctx.a, excess_unmarked - l_bid - d)
    )
    checks.append(
        _eq("b_from_type_sequence", ctx.b, defect_unmarked + r * l_bid + d)
    )
    checks.append(_eq("a_plus_b_split", ctx.a + ctx.b, (r - 1) * ctx.l_quot))
    checks.append(_ge("b_nonnegative", ctx.b, 0))

    # a against the canonical growth and the tail value.
    a_gamma = 2 * ctx.delta - ctx.c
    almost_gorenstein = r - 1 == a_gamma
    checks.append(_le("a_at_most_tail_value", ctx.a, a_gamma))
    checks.append(_eq("a_via_omega_growth", ctx.a, a_gamma - l_omega_growth))
    a_bid = ctx.l_dual - length_between(ctx.unit, ctx.i_bid)
    checks.append(_eq("a_bidual_drop", ctx.a, a_bid - l_bid))

    # Marked/unmarked sums against lengths.
    checks.append(_le("marked_sum_lower", l_bid_gamma, sum_marked))
    checks.append(_le("marked_sum_upper", sum_marked, l_tail_dual))
    checks.append(_le("dual_length_bound", ctx.l_dual, sum_unmarked))
    checks.append(
        _eq(
            "unmarked_sum_split",
            sum_unmarked,
            length_between(ctx.unit, ctx.i_bid)
            + sum(ctx.r_of(h) - 1 for h in unmarked if h <= n),
        )
    )
    checks.append(
        _ge(
            "omega_growth_lower",
            l_omega_growth,
            sum(ctx.r_of(h) - 1 for h in marked if h <= n),
        )
    )
    checks.append(_eq("marked_count_window", n_i - len(unmarked), l_bid_gamma))
    checks.append(
        _eq(
            "marked_count_small",
            sum(1 for h in marked if h <= n),
            length_between(
                ideal_union(ctx.i_bid, tail_ideal(S, ctx.c)),
                tail_ideal(S, ctx.c),
            ),
        )
    )

    # d and its windows.
    checks.append(_ge("d_nonnegative", d, 0))
    checks.append(_ge("d_window_lower", d, l_tail_dual - r * l_bid_gamma))
    checks.append(_le("d_window_upper", d, l_tail_dual - l_bid_gamma))
    checks.append(
        _eq(
            "d_via_omega_product",
            d,
            length_between(ctx.omega_i, ctx.i_bid)
            - sum(ctx.r_of(h) - 1 for h in marked if h <= n),
        )
    )
    checks.append(_eq("d_bidual_invariant", d, ctx.d_of_bidual()))
    if I.is_subset_of(ctx.theta):
        checks.append(
            _eq(
                "d_inside_different",
                d,
                length_between(ctx.omega_i, ctx.i_bid),
            )
        )
    if stable:
        checks.append(_eq("d_zero_when_omega_stable", d, 0))
    checks.append(
        _eq(
            "d_via_min_index",
            d,
            ctx.sum_r(h for h in unmarked if h > ctx.i0)
            - length_between(ctx.i_star, _chain_dual(S, ctx.i0)),
        )
    )
    if closed:
        checks.append(_eq("d_zero_when_integrally_closed", d, 0))
    if almost_gorenstein and not principal:
        checks.append(_eq("d_zero_when_almost_gorenstein", d, 0))

    # Distance to the tail.
    l_i_gamma = length_between(I, ctx.gamma_i)
    checks.append(_le("tail_length_bound", l_i_gamma, l_tail_dual))
    eq_holds = l_i_gamma == l_tail_dual
    cond = refl and d == 0 and all(ctx.r_of(h) == 1 for h in marked)
    checks.append(Check("tail_length_equality_iff", eq_holds == cond, int(eq_holds), int(cond)))

    # Two-sided bounds on a and b.
    upper_join = ideal_union(ctx.i_bid, ctx.theta)
    checks.append(
        _le(
            "a_upper_bound",
            ctx.a,
            (r - 1) * length_between(ctx.unit, upper_join) - l_bid,
        )
    )
    checks.append(_ge("a_lower_bound", ctx.a, r - 1 - l_bid - d))
    checks.append(
        _le(
            "b_upper_bound",
            ctx.b,
            (r - 1) * (ctx.l_quot - 1) + l_bid + d,
        )
    )
    checks.append(
        _ge(
            "b_lower_bound",
            ctx.b,
            (r - 1) * length_between(upper_join, I) + l_bid,
        )
    )
    if stable:
        checks.append(_ge("a_lower_when_omega_stable", ctx.a, r - 1))
    checks.append(_ge("b_at_least_reflexive_defect", ctx.b, r * l_bid))
    b_zero = ctx.b == 0
    b_zero_cond = refl and d == 0 and all(ctx.r_of(h) == r for h in unmarked)
    checks.append(
        Check("b_vanishing_iff", b_zero == b_zero_cond, int(b_zero), int(b_zero_cond))
    )

    # Special parents.  The subtrahend is the closed form of b on the
    # integral closure S cap tail(min): linear steps of r - 1 take over
    # once the index leaves the chain of small elements.
    if is_arf(S):
        s_1 = S.small_element(1)
        if ctx.i0 <= ctx.n:
            b_floor = ctx.i0 * s_1 - I.min_element
        else:
            b_floor = ctx.n * s_1 - ctx.c + (ctx.i0 - ctx.n) * (r - 1)
        checks.append(
            _le(
                "a_bound_when_arf",
                ctx.a,
                (r - 1) * ctx.l_quot - b_floor,
            )
        )
    if almost_gorenstein and refl and not principal:
        checks.append(_eq("a_constant_when_ag_reflexive", ctx.a, a_gamma))
    if r == 1:
        checks.append(_eq("a_zero_when_type_one", ctx.a, 0))

    return IdealInvariantReport(
        semigroup=S.encode(),
        ideal=I.encode(),
        a=ctx.a,
        b=ctx.b,
        d=d,
        ideal_conductor=ctx.c_i,
        n_relative=n_i,
        v_complement=unmarked,
        l_quotient=ctx.l_quot,
        l_dual=ctx.l_dual,
        l_bidual_drop=l_bid,
        reflexive=refl,
        integrally_closed=closed,
        omega_stable=stable,
        principal=principal,
        checks=tuple(checks),
    )


@dataclass(frozen=True)
class OverringReport:
    """Length of an oversemigroup T over S, verified two ways."""

    semigroup: str
    oversemigroup: str
    conductor_ideal: str
    length: int
    min_index: int
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def overring_check(S: NumericalSemigroup, T: NumericalSemigroup) -> OverringReport:
    """Verify the formulas for l(T/S) via the conductor ideal I = S - T.

    T = S is allowed and yields the all-zeros record: the conductor ideal
    would be S itself, which is not proper, and every formula degenerates.
    """
    E_t = RelativeIdeal(S, 0, T.conductor, T.mask)
    unit = unit_ideal(S)
    if not unit.is_subset_of(E_t):
        raise NotOversemigroup(f"{T.encode()} does not contain {S.encode()}")
    if T == S:
        return OverringReport(
            semigroup=S.encode(),
            oversemigroup=T.encode(),
            conductor_ideal="",
            length=0,
            min_index=0,
            checks=(),
        )
    I = dual(E_t)
    ctx = _IdealContext(S, I)
    L = length_between(E_t, unit)
    t_bid = bidual(E_t)
    l_t_growth = length_between(t_bid, E_t)
    checks = [
        _eq(
            "overring_length_split",
            L,
            ctx.sum_r(ctx.unmarked) - l_t_growth - ctx.d,
        ),
        _le("overring_length_bound", L, ctx.r * ctx.l_quot),
        _eq(
            "overring_length_by_min_index",
            L,
            ctx.sum_r(range(1, ctx.i0 + 1))
            - l_t_growth
            + length_between(ctx.i_star, _chain_dual(S, ctx.i0)),
        ),
    ]
    return OverringReport(
        semigroup=S.encode(),
        oversemigroup=T.encode(),
        conductor_ideal=I.encode(),
        length=L,
        min_index=ctx.i0,
        checks=tuple(checks),
    )
