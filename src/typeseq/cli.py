"""Command-line interface.

Subcommands::

    typeseq info       --gens 3,4,5
    typeseq ideal      --gens 9,15,17,23,25,29,31 --ideal 38,44,50
    typeseq overrings  --gens 3,4,5
    typeseq census     --max-genus 8 --window 2 --checks all
    typeseq classify   --max-conductor 30
    typeseq search     --negative-a --max-genus 8 --window 2

Semigroups are given either by generators (``--gens``) or by the members
below the conductor (``--elements ... --conductor N``).  Ideals are given
by generators (comma list) or in ``min|members|conductor`` form.

Output is deterministic: fixed key order, no timestamps or timings, so
identical runs produce identical bytes.  Exit status is 0 when every
reported check passed, 1 when any check failed, 2 for usage or domain
errors and 3 for an internal inconsistency (a bug); errors are reported
as a JSON object with an ``error`` key.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys

from .census import (
    GROUPS,
    CensusQuery,
    canonical_json,
    classification_census,
    search_negative_a,
    verify_theorems,
)
from .classification import ClassificationOutcome, classify_b, window_profile
from .errors import BoundTooLarge, InternalInconsistency, InvalidInput, TypeseqError
from .ideals import RelativeIdeal, ideal_from_generators, tail_ideal
from .invariants import (
    IdealRow,
    IdealTable,
    decomposition_check,
    overring_checks,
    sigma,
    type_sequence,
)
from .semigroup import (
    NumericalSemigroup, from_generators, from_small_elements, schur_bound,
    sorted_oversemigroups,
)


# Largest conductor bound a single-semigroup command accepts without
# --allow-large; checked before any membership table is allocated.
_CONDUCTOR_GUARD = 20_000
# Most oversemigroups ``overrings`` lists without --allow-large; their
# number grows exponentially with the genus, so the walk stops once past it.
_OVERSEMIGROUP_GUARD = 10_000
# Most numbers ``overrings`` lists without --allow-large: c_T - genus_T + 1
# for each T, its members below c_T and c_T itself.  Few T can still list
# about c^2 / 8 numbers (--gens 2,k: 2.0 million at k = 4,001, 8.0 million
# at k = 8,001), and time and memory grow with them.
_LISTING_GUARD = 3_000_000


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise InvalidInput(f"expected a comma-separated integer list: {text!r}") from exc


def _guard_conductor(bound: int, args) -> None:
    if bound > _CONDUCTOR_GUARD and not args.allow_large:
        raise BoundTooLarge(
            f"conductor bound {bound} above guard {_CONDUCTOR_GUARD}"
        )


def _semigroup_from_args(args) -> NumericalSemigroup:
    if args.gens is not None:
        if args.elements is not None or args.conductor is not None:
            raise InvalidInput("--gens conflicts with --elements/--conductor")
        gens = _parse_int_list(args.gens)
        if gens and min(gens) > 0 and math.gcd(*gens) == 1:
            _guard_conductor(schur_bound(gens), args)
        return from_generators(gens)
    if args.elements is not None:
        if args.conductor is None:
            raise InvalidInput("--elements needs --conductor")
        _guard_conductor(args.conductor, args)
        return from_small_elements(_parse_int_list(args.elements), args.conductor)
    raise InvalidInput("a semigroup is required: --gens or --elements/--conductor")


def _ideal_from_arg(S: NumericalSemigroup, text: str) -> RelativeIdeal:
    if "|" in text:
        return RelativeIdeal.decode(S, text)
    return ideal_from_generators(S, _parse_int_list(text))


def _check_rows(checks) -> list[dict]:
    """Rows of ``Check`` records or of plain (id, passed, lhs, rhs) tuples."""
    return [
        {"id": cid, "pass": passed, "lhs": lhs, "rhs": rhs}
        for cid, passed, lhs, rhs in checks
    ]


def _semigroup_payload(S: NumericalSemigroup) -> dict:
    return {
        "generators": list(S.minimal_generators),
        "small_elements": list(S.small_elements),
        "conductor": S.conductor,
        "genus": S.genus,
        "multiplicity": S.multiplicity,
        "type": S.type,
    }


def _classification_payload(outcome: ClassificationOutcome) -> dict:
    return {"tag": outcome.tag, "parameters": dict(outcome.parameters)}


def _report_payload(S, outcome, a, b, d, checks) -> dict:
    return {
        "semigroup": _semigroup_payload(S),
        "type_sequence": list(type_sequence(S).values),
        "invariants": {"a": a, "b": b, "d": d, "sigma": sigma(S)},
        "classification": _classification_payload(outcome),
        "checks": _check_rows(checks),
    }


# -- subcommand payload builders ------------------------------------------------


def _cmd_info(args) -> dict:
    S = _semigroup_from_args(args)
    outcome = classify_b(S)
    checks = list(outcome.checks)
    if S.conductor:
        row = IdealTable(S, [tail_ideal(S, S.conductor)]).rows[0]
        a, b, d = row.a, row.b, row.d
        checks.extend(window_profile(S).checks)
    else:
        a = b = d = 0
    return _report_payload(S, outcome, a, b, d, checks)


def _cmd_ideal(args) -> dict:
    S = _semigroup_from_args(args)
    I = _ideal_from_arg(S, args.ideal)
    # The invariants run Python loops over [1, c_I] on c_I-bit windows.
    _guard_conductor(I.conductor, args)
    report = decomposition_check(S, I)
    payload = _report_payload(
        S, classify_b(S), report.a, report.b, report.d, report.checks
    )
    payload["ideal"] = {
        "encoding": report.ideal,
        "min_element": I.min_element,
        "conductor": I.conductor,
        "reflexive": report.reflexive,
        "integrally_closed": report.integrally_closed,
        "omega_stable": report.omega_stable,
        "principal": report.principal,
    }
    return payload


def _cmd_overrings(args) -> dict:
    S = _semigroup_from_args(args)
    table = IdealTable(S, [])
    limit = None if args.allow_large else _OVERSEMIGROUP_GUARD
    # One walk; the listing guard reads each T's bits before any T is built.
    offset, whole = table.offset, (1 << table.top) - 1
    pairs, listed = [], 0
    for members, ideal in table.oversemigroup_walk(limit):
        bits = members >> offset
        c_T = (~bits & whole).bit_length()
        listed += (bits & ((1 << c_T) - 1)).bit_count() + 1
        if listed > _LISTING_GUARD and limit is not None:
            raise BoundTooLarge(
                f"the oversemigroups list more than {_LISTING_GUARD} numbers"
            )
        pairs.append((members, ideal))
    rows = []
    for T, members, ideal in sorted_oversemigroups(table, pairs):
        row = IdealRow(table, ideal, table.colon(table.unit, ideal))
        rows.append(
            {
                "overring": T.encode(),
                "genus": T.genus,
                "length": S.genus - T.genus,
                "checks": _check_rows(overring_checks(S, members, row)),
            }
        )
    return {"semigroup": _semigroup_payload(S), "overrings": rows}


def _cmd_census(args) -> dict:
    query = CensusQuery(
        max_genus=args.max_genus,
        max_conductor=args.max_conductor,
        window=args.window,
        checks=tuple(args.checks.split(",")),
        workers=args.workers,
        sample_limit=args.sample_limit,
        allow_large=args.allow_large,
        gorenstein_only=args.gorenstein_only,
        non_gorenstein_only=args.non_gorenstein_only,
    )
    return verify_theorems(query).to_dict()


def _cmd_classify(args) -> dict:
    if args.max_conductor is not None:
        if any(x is not None for x in (args.gens, args.elements, args.conductor)):
            raise InvalidInput("--max-conductor conflicts with a semigroup")
        return classification_census(
            args.max_conductor, workers=args.workers, allow_large=args.allow_large
        ).to_dict()
    if args.workers != 1:
        raise InvalidInput("--workers needs --max-conductor")
    S = _semigroup_from_args(args)
    outcome = classify_b(S)
    return {
        "semigroup": _semigroup_payload(S),
        "classification": _classification_payload(outcome),
        "checks": _check_rows(outcome.checks),
    }


def _cmd_search(args) -> dict:
    query = CensusQuery(
        max_genus=args.max_genus,
        max_conductor=args.max_conductor,
        window=args.window,
        allow_large=args.allow_large,
    )
    return search_negative_a(query).to_dict()


# -- rendering -------------------------------------------------------------------


def _all_checks_pass(payload: dict) -> bool:
    if "passed" in payload:
        return bool(payload["passed"])
    ok = True
    for row in payload.get("checks", []):
        ok = ok and row["pass"]
    for over in payload.get("overrings", []):
        for row in over["checks"]:
            ok = ok and row["pass"]
    return ok


def _render_csv(payload: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if "violations" in payload:
        writer.writerow(
            ["semigroup_encoding", "ideal_encoding", "check_id", "lhs", "rhs"]
        )
        for v in payload["violations"]:
            writer.writerow(
                [v["semigroup"], v["ideal"], v["check_id"], v["lhs"], v["rhs"]]
            )
    elif "examples" in payload:
        writer.writerow(["semigroup_encoding", "ideal_encoding", "a"])
        for ex in payload["examples"]:
            writer.writerow([ex["semigroup"], ex["ideal"], ex["a"]])
    elif "overrings" in payload:
        writer.writerow(["overring", "check_id", "pass", "lhs", "rhs"])
        for over in payload["overrings"]:
            for row in over["checks"]:
                writer.writerow(
                    [over["overring"], row["id"], int(row["pass"]), row["lhs"], row["rhs"]]
                )
    else:
        writer.writerow(["check_id", "pass", "lhs", "rhs"])
        for row in payload.get("checks", []):
            writer.writerow([row["id"], int(row["pass"]), row["lhs"], row["rhs"]])
    return buf.getvalue()


def _render_human(payload: dict) -> str:
    lines: list[str] = []
    sg = payload.get("semigroup")
    if sg:
        lines.append(
            "semigroup <%s>  conductor=%d genus=%d mult=%d type=%d"
            % (
                ",".join(str(g) for g in sg["generators"]),
                sg["conductor"],
                sg["genus"],
                sg["multiplicity"],
                sg["type"],
            )
        )
    if "type_sequence" in payload:
        lines.append(
            "type sequence: (%s)"
            % ", ".join(str(v) for v in payload["type_sequence"])
        )
    if "invariants" in payload:
        inv = payload["invariants"]
        lines.append(
            "a=%d b=%d d=%d sigma=%d" % (inv["a"], inv["b"], inv["d"], inv["sigma"])
        )
    if "ideal" in payload:
        ideal = payload["ideal"]
        flags = [
            k
            for k in ("reflexive", "integrally_closed", "omega_stable", "principal")
            if ideal[k]
        ]
        lines.append("ideal %s  [%s]" % (ideal["encoding"], ", ".join(flags)))
    if "classification" in payload:
        cls = payload["classification"]
        lines.append(
            "classification: %s %s" % (cls["tag"], cls["parameters"] or "")
        )
    if "overrings" in payload:
        for over in payload["overrings"]:
            bad = [r for r in over["checks"] if not r["pass"]]
            lines.append(
                "overring %s genus=%d length=%d checks=%d failed=%d"
                % (
                    over["overring"],
                    over["genus"],
                    over["length"],
                    len(over["checks"]),
                    len(bad),
                )
            )
    if "semigroup_count" in payload:
        lines.append("semigroups: %d" % payload["semigroup_count"])
        if "ideal_count" in payload:
            lines.append("ideals: %d" % payload["ideal_count"])
        if "classification_tallies" in payload and payload["classification_tallies"]:
            for tag in sorted(payload["classification_tallies"]):
                lines.append(
                    "  %s: %d" % (tag, payload["classification_tallies"][tag])
                )
        if "violations" in payload:
            lines.append("violations: %d" % len(payload["violations"]))
            for v in payload["violations"][:50]:
                lines.append(
                    "  %s %s %s lhs=%d rhs=%d"
                    % (v["semigroup"], v["ideal"], v["check_id"], v["lhs"], v["rhs"])
                )
        if "examples" in payload:
            lines.append("examples with a < 0: %d" % len(payload["examples"]))
            for ex in payload["examples"][:50]:
                lines.append(
                    "  %s %s a=%d" % (ex["semigroup"], ex["ideal"], ex["a"])
                )
    if "checks" in payload:
        bad = [r for r in payload["checks"] if not r["pass"]]
        lines.append(
            "checks: %d run, %d failed" % (len(payload["checks"]), len(bad))
        )
        for row in bad:
            lines.append(
                "  FAIL %s lhs=%d rhs=%d" % (row["id"], row["lhs"], row["rhs"])
            )
    return "\n".join(lines) + "\n"


def _add_semigroup_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gens", help="comma-separated generators, e.g. 3,4,5")
    p.add_argument(
        "--elements", help="comma-separated members below the conductor"
    )
    p.add_argument("--conductor", type=int, help="conductor for --elements")
    p.add_argument("--allow-large", action="store_true", help="lift the size guards")


def _add_output_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--format",
        choices=("human", "json", "csv"),
        default="human",
        dest="fmt",
    )
    p.add_argument("--out", help="write output to this path instead of stdout")


def _add_range_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-genus", type=int, default=None)
    p.add_argument("--max-conductor", type=int, default=None)
    p.add_argument("--window", type=int, default=2)
    p.add_argument("--allow-large", action="store_true")


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="typeseq",
        description="Type sequences and duality invariants of numerical semigroups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="invariants and type sequence of a semigroup")
    _add_semigroup_args(p)
    _add_output_args(p)
    p.set_defaults(fn=_cmd_info)

    p = sub.add_parser("ideal", help="a, b, d and all checks for one ideal")
    _add_semigroup_args(p)
    p.add_argument(
        "--ideal",
        required=True,
        help="ideal generators 'g1,g2,...' or encoding 'min|members|conductor'",
    )
    _add_output_args(p)
    p.set_defaults(fn=_cmd_ideal)

    p = sub.add_parser("overrings", help="length identities over all oversemigroups")
    _add_semigroup_args(p)
    _add_output_args(p)
    p.set_defaults(fn=_cmd_overrings)

    p = sub.add_parser("census", help="verify check groups over a range")
    _add_range_args(p)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument(
        "--checks",
        default="all",
        help=f"comma list of groups: {','.join(GROUPS)} or 'all'",
    )
    p.add_argument("--sample-limit", type=int, default=64)
    p.add_argument("--gorenstein-only", action="store_true")
    p.add_argument("--non-gorenstein-only", action="store_true")
    _add_output_args(p)
    p.set_defaults(fn=_cmd_census)

    p = sub.add_parser(
        "classify", help="small-b classification of one semigroup or a range"
    )
    _add_semigroup_args(p)
    p.add_argument("--max-conductor", type=int, default=None)
    p.add_argument("--workers", type=int, default=1)
    _add_output_args(p)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("search", help="scan for ideals with negative a")
    p.add_argument("--negative-a", action="store_true", required=True)
    _add_range_args(p)
    _add_output_args(p)
    p.set_defaults(fn=_cmd_search)

    return parser


def _report_error(code: str, message: str) -> None:
    error = {"error": {"code": code, "message": message}}
    sys.stdout.write(json.dumps(error, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # An unwritable --out is a usage error, found before any work is done.
    # Opening it to append changes nothing, and a run that ends in an error
    # leaves the path as it was found.
    created = bool(args.out) and not os.path.lexists(args.out)
    try:
        if args.out:
            open(args.out, "a").close()
    except OSError as exc:
        _report_error("InvalidInput", f"cannot write --out: {exc}")
        return 2
    try:
        payload = args.fn(args)
    except TypeseqError as exc:
        if created:
            os.remove(args.out)
        _report_error(exc.code, str(exc))
        return 3 if isinstance(exc, InternalInconsistency) else 2
    if args.fmt == "json":
        text = canonical_json(payload) + "\n"
    elif args.fmt == "csv":
        text = _render_csv(payload)
    else:
        text = _render_human(payload)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if _all_checks_pass(payload) else 1


if __name__ == "__main__":
    sys.exit(main())
