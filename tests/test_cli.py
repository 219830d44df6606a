"""Command line interface: schemas, exit codes, determinism."""

import hashlib
import json
import pathlib
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from test_kill_matrix import planted
from typeseq import InternalInconsistency, census, cli, ideals, semigroup
from typeseq.census import canonical_json

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def run(argv, capsys):
    code = cli.main(argv)
    return code, capsys.readouterr().out


class TestInfo:
    def test_json_schema(self, capsys):
        code, out = run(["info", "--gens", "3,4,5", "--format", "json"], capsys)
        assert code == 0
        d = json.loads(out)
        assert sorted(d) == [
            "checks",
            "classification",
            "invariants",
            "semigroup",
            "type_sequence",
        ]
        assert d["type_sequence"] == [2]
        assert d["invariants"] == {"a": 1, "b": 0, "d": 0, "sigma": 0}
        assert d["semigroup"]["conductor"] == 3
        assert d["semigroup"]["generators"] == [3, 4, 5]
        assert d["classification"]["tag"] == "B_LT_R_MINUS_1"
        assert all(c["pass"] for c in d["checks"])

    def test_elements_input(self, capsys):
        code, out = run(
            [
                "info",
                "--elements",
                "0,4,8,9,12,13",
                "--conductor",
                "16",
                "--format",
                "json",
            ],
            capsys,
        )
        assert code == 0
        d = json.loads(out)
        assert d["type_sequence"] == [2, 2, 1, 2, 1, 2]
        assert d["classification"]["tag"] == "B_EQ_R_CASE_G"

    def test_whole_numbers(self, capsys):
        code, out = run(["info", "--gens", "1", "--format", "json"], capsys)
        assert code == 0
        d = json.loads(out)
        assert d["type_sequence"] == []
        assert d["invariants"] == {"a": 0, "b": 0, "d": 0, "sigma": 0}

    def test_human_format_mentions_key_facts(self, capsys):
        code, out = run(["info", "--gens", "3,4,5"], capsys)
        assert code == 0
        assert "<3,4,5>" in out
        assert "type sequence" in out
        assert "a=1 b=0 d=0" in out

    def test_csv_format_is_check_table(self, capsys):
        code, out = run(["info", "--gens", "3,4,5", "--format", "csv"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "check_id,pass,lhs,rhs"


class TestIdeal:
    def test_negative_a_showcase(self, capsys):
        code, out = run(
            [
                "ideal",
                "--gens",
                "9,15,17,23,25,29,31",
                "--ideal",
                "38,44,50",
                "--format",
                "json",
            ],
            capsys,
        )
        assert code == 0
        d = json.loads(out)
        assert d["invariants"]["a"] == -1
        assert d["invariants"]["b"] == 69
        assert d["invariants"]["d"] == 0
        assert (
            d["ideal"]["encoding"]
            == "38|38,44,47,50,53,55,56,59,61,62,63,64,65|67"
        )
        assert d["ideal"]["principal"] is False
        assert all(c["pass"] for c in d["checks"])

    def test_ideal_accepts_encoded_form(self, capsys):
        code, out = run(
            ["ideal", "--gens", "3,4,5", "--ideal", "4|4,5|7", "--format", "json"],
            capsys,
        )
        assert code == 0
        d = json.loads(out)
        assert d["invariants"]["a"] == 0
        assert d["invariants"]["b"] == 3

    def test_ideal_outside_semigroup_is_domain_error(self, capsys):
        code, out = run(
            ["ideal", "--gens", "14,21,23", "--ideal", "38,44,50"], capsys
        )
        assert code == 2
        assert json.loads(out)["error"]["code"] == "NotIntegralProper"


    def test_ideal_with_a_negative_member_is_outside_the_semigroup(self, capsys):
        # -1 + S misses 0, so the fault named is the negative member.
        for text, message in (
            ("-1", "the ideal must sit inside its semigroup"),
            ("-4", "0 must not be a member"),
        ):
            argv = ["ideal", "--gens", "3,4,5", "--ideal", text, "--format", "json"]
            code, out = run(argv, capsys)
            assert code == 2, text
            error = json.loads(out)["error"]
            assert error == {"code": "NotIntegralProper", "message": message}, text


class TestOverrings:
    def test_chain_of_345(self, capsys):
        code, out = run(["overrings", "--gens", "3,4,5", "--format", "json"], capsys)
        assert code == 0
        d = json.loads(out)
        chain = [(o["overring"], o["length"]) for o in d["overrings"]]
        assert chain == [("0,2|2", 1), ("0|0", 2)]
        assert all(
            c["pass"] for o in d["overrings"] for c in o["checks"]
        )


    def test_oversemigroup_guard_refuses_during_the_walk(self, capsys):
        # Conductor 140 and genus 75: far inside the conductor guard, but
        # the oversemigroups never end.  The walk stops past 10,000.
        start = time.perf_counter()
        code, out = run(["overrings", "--gens", "16,21,26,31"], capsys)
        assert time.perf_counter() - start < 5
        assert code == 2
        assert json.loads(out)["error"]["code"] == "BoundTooLarge"

    def test_oversemigroup_guard_admits_the_showcase(self, capsys):
        argv = ["overrings", "--gens", "9,15,17,23,25,29,31", "--format", "json"]
        code, out = run(argv, capsys)
        assert code == 0
        assert len(json.loads(out)["overrings"]) == 521

    def test_listing_guard_refuses_before_any_t_is_built(self, capsys, monkeypatch):
        # <3,4,5> lists 0,2|2 and 0|0: c_T - genus_T + 1 numbers each, 3 in all.
        def refuse(*args):
            raise AssertionError("a T or its row was built")

        monkeypatch.setattr(cli, "_LISTING_GUARD", 3)
        code, _ = run(["overrings", "--gens", "3,4,5"], capsys)
        assert code == 0
        monkeypatch.setattr(cli, "_LISTING_GUARD", 2)
        code, _ = run(["overrings", "--gens", "3,4,5", "--allow-large"], capsys)
        assert code == 0
        monkeypatch.setattr(semigroup, "from_bits", refuse)
        monkeypatch.setattr(cli, "IdealRow", refuse)
        code, out = run(["overrings", "--gens", "3,4,5"], capsys)
        assert code == 2
        assert out == (
            '{"error": {"code": "BoundTooLarge", "message": '
            '"the oversemigroups list more than 2 numbers"}}\n'
        )

    @pytest.mark.parametrize(
        "gens, fmt, code, digest",
        [
            ("3,4,5", "json", 0, "161963a75960a0d9"),
            ("4,5,7", "json", 0, "861eda7312a0842c"),
            ("9,15,17,23,25,29,31", "json", 0, "2d1fda95f7bcab6c"),
            ("2,201", "json", 0, "c2c0edf6157a85c1"),
            ("13,19,23,29,31,37", "json", 0, "f9f30fdab34079ea"),
            ("1", "json", 0, "9cda0038508ea744"),
            ("2,3", "json", 0, "44ad6c479848dd77"),
            ("3,4,5", "csv", 0, "af849e0a3b9e901c"),
            ("9,15,17,23,25,29,31", "csv", 0, "f1666bff86a900bf"),
            ("3,4,5", "human", 0, "da3929af1c61cbc0"),
            ("9,15,17,23,25,29,31", "human", 0, "b1af112224031c9e"),
            ("16,21,26,31", "human", 2, "1113fa6a331fffb4"),  # the count guard
        ],
    )
    def test_output_bytes_are_pinned(self, capsys, gens, fmt, code, digest):
        # The first 16 hex digits of the SHA-256 of stdout.
        argv = ["overrings", "--gens", gens, "--format", fmt]
        got, out = run(argv, capsys)
        assert got == code
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest

    def test_one_walk_per_run(self, capsys, monkeypatch):
        walk = cli.IdealTable.oversemigroup_walk
        calls = []

        def counted(table, *args):
            calls.append(table)
            return walk(table, *args)

        monkeypatch.setattr(cli.IdealTable, "oversemigroup_walk", counted)
        code, _ = run(["overrings", "--gens", "9,15,17,23,25,29,31"], capsys)
        assert code == 0
        assert len(calls) == 1

    def test_allow_large_lifts_oversemigroup_guard(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_OVERSEMIGROUP_GUARD", 2)
        code, _ = run(["overrings", "--gens", "3,4,5"], capsys)
        assert code == 2
        code, _ = run(["overrings", "--gens", "3,4,5", "--allow-large"], capsys)
        assert code == 0


class TestCensus:
    def test_small_run_passes(self, capsys):
        code, out = run(
            ["census", "--max-genus", "5", "--window", "2", "--format", "json"],
            capsys,
        )
        assert code == 0
        d = json.loads(out)
        assert d["passed"] is True
        assert d["violations"] == []
        assert d["semigroup_count"] == 27

    def test_deterministic_bytes(self, capsys):
        argv = ["census", "--max-genus", "5", "--format", "json"]
        _, first = run(argv, capsys)
        _, second = run(argv, capsys)
        assert first == second

    def test_workers_flag_keeps_bytes(self, capsys):
        base = ["census", "--max-genus", "6", "--format", "json"]
        _, serial = run(base + ["--workers", "1"], capsys)
        _, parallel = run(base + ["--workers", "3"], capsys)
        assert serial == parallel

    def test_guard_refuses_large_runs(self, capsys):
        code, out = run(["census", "--max-genus", "44"], capsys)
        assert code == 2
        assert json.loads(out)["error"]["code"] == "BoundTooLarge"

    def test_worker_guard_refuses_before_forking(self, capsys, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(census, "ProcessPoolExecutor", no_pool)
        for argv in (
            ["census", "--max-genus", "2", "--workers", "65"],
            ["classify", "--max-conductor", "8", "--workers", "65"],
        ):
            code, out = run(argv, capsys)
            assert code == 2, argv
            assert json.loads(out)["error"]["code"] == "BoundTooLarge"

    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, _ = run(
            [
                "census",
                "--max-genus",
                "4",
                "--format",
                "json",
                "--out",
                str(target),
            ],
            capsys,
        )
        assert code == 0
        assert json.loads(target.read_text())["passed"] is True

    def test_unwritable_out_is_invalid_input_before_any_work(
        self, capsys, tmp_path, monkeypatch
    ):
        def untouched(args):
            raise AssertionError("the command ran")

        monkeypatch.setattr(cli, "_semigroup_from_args", untouched)
        target = tmp_path / "missing" / "x.json"
        argv = ["info", "--gens", "3,4,5", "--out", str(target)]
        code, out = run(argv, capsys)
        assert code == 2
        assert json.loads(out)["error"]["code"] == "InvalidInput"
        assert not target.parent.exists()

    @pytest.mark.parametrize("existing", [True, False], ids=["report", "missing"])
    def test_refused_run_leaves_out_as_found(
        self, capsys, tmp_path, monkeypatch, existing
    ):
        target = tmp_path / "report.json"
        if existing:
            argv = ["census", "--max-genus", "3", "--out", str(target)]
            assert run(argv, capsys)[0] == 0
            before = target.read_bytes()
            assert before
        argv = ["census", "--max-genus", "99", "--out", str(target)]
        code, out = run(argv, capsys)
        assert code == 2
        assert json.loads(out)["error"]["code"] == "BoundTooLarge"

        def broken(S):
            raise InternalInconsistency("paths disagree")

        monkeypatch.setattr(cli, "type_sequence", broken)
        code, _ = run(["info", "--gens", "3,4,5", "--out", str(target)], capsys)
        assert code == 3
        if existing:
            assert target.read_bytes() == before
        else:
            assert not target.exists()


class TestClassify:
    def test_single_semigroup(self, capsys):
        code, out = run(["classify", "--gens", "3,4,5", "--format", "json"], capsys)
        assert code == 0
        d = json.loads(out)
        assert d["classification"]["tag"] == "B_LT_R_MINUS_1"

    def test_census_mode_tallies(self, capsys):
        code, out = run(
            ["classify", "--max-conductor", "16", "--format", "json"], capsys
        )
        assert code == 0
        d = json.loads(out)
        assert d["classification_tallies"]["B_EQ_R_CASE_J"] == 3
        assert d["passed"] is True

    def test_range_conflicts_with_a_semigroup(self, capsys):
        for extra in (
            ["--gens", "3,4,5"],
            ["--elements", "0,3", "--conductor", "3"],
            ["--conductor", "3"],
        ):
            code, out = run(["classify", "--max-conductor", "6"] + extra, capsys)
            assert code == 2, extra
            assert json.loads(out)["error"]["code"] == "InvalidInput", extra

    def test_workers_need_a_range(self, capsys):
        code, out = run(["classify", "--gens", "3,4,5", "--workers", "4"], capsys)
        assert code == 2
        assert json.loads(out)["error"]["code"] == "InvalidInput"


class TestSearch:
    def test_negative_a_search(self, capsys):
        code, out = run(
            ["search", "--negative-a", "--max-genus", "8", "--format", "json"],
            capsys,
        )
        assert code == 0
        d = json.loads(out)
        assert len(d["examples"]) == 4
        assert d["examples"][0] == {
            "semigroup": "0,7,8,9,10,11,14|14",
            "ideal": "7|7,9,11|14",
            "a": -1,
        }

    def test_workers_flag_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["search", "--negative-a", "--workers", "2"])
        assert exc.value.code == 2

    def test_csv_table(self, capsys):
        code, out = run(
            ["search", "--negative-a", "--max-genus", "8", "--format", "csv"],
            capsys,
        )
        assert code == 0
        assert out.splitlines()[0] == "semigroup_encoding,ideal_encoding,a"
        assert len(out.splitlines()) == 5


class TestErrorsAndExitCodes:
    def test_usage_errors_are_json_with_exit_two(self, capsys):
        code, out = run(["info", "--gens", "4,6"], capsys)
        assert code == 2
        err = json.loads(out)["error"]
        assert err["code"] == "NotCoprime"
        assert "gcd" in err["message"]

    def test_gens_and_elements_conflict(self, capsys):
        code, out = run(
            ["info", "--gens", "3,4", "--elements", "0,3", "--conductor", "3"],
            capsys,
        )
        assert code == 2
        assert "error" in json.loads(out)

    def test_malformed_integers(self, capsys):
        code, out = run(["info", "--gens", "3,x"], capsys)
        assert code == 2
        assert "error" in json.loads(out)

    def test_violations_drive_exit_one(self):
        payload = {
            "checks": [{"id": "x", "pass": False, "lhs": 0, "rhs": 1}],
        }
        assert cli._all_checks_pass(payload) is False
        assert cli._all_checks_pass({"passed": False}) is False
        assert cli._all_checks_pass({"passed": True}) is True

    def test_internal_inconsistency_exits_three(self, capsys, monkeypatch):
        def broken(S):
            raise InternalInconsistency("paths disagree")

        monkeypatch.setattr(cli, "type_sequence", broken)
        code, out = run(["info", "--gens", "3,4,5"], capsys)
        assert code == 3
        assert json.loads(out)["error"] == {
            "code": "InternalInconsistency",
            "message": "paths disagree",
        }

    def test_census_names_a_perturbed_chain_walk(self, capsys):
        # type_sequence holds no check of its own: the census's sg_ts_* ids
        # catch a wrong entry as a violation, not as an internal error.
        argv = ["census", "--max-genus", "5", "--checks", "semigroup"]
        argv += ["--format", "json"]
        with planted("chain_length_perturbed"):
            code, out = run(argv, capsys)
        assert code == 1
        failed = {v["check_id"] for v in json.loads(out)["violations"]}
        assert "sg_ts_first_is_type" in failed

    def test_census_overring_row_mismatch_exits_three(self, capsys):
        # A walk that pairs each oversemigroup T with another T's S - T:
        # the census's own row disagrees with its colon, which is a bug.
        argv = ["census", "--max-genus", "4", "--checks", "overrings"]
        with planted("oversemigroup_walk_pairs_next_ideal"):
            code, out = run(argv, capsys)
        assert code == 3
        assert json.loads(out)["error"]["code"] == "InternalInconsistency"

    def test_census_overring_outside_the_table_exits_three(self, capsys):
        # A walk that yields T's own bits for S - T: they hold 0, so no row
        # of the ideal table has them, and the census names that a bug.
        argv = ["census", "--max-genus", "4", "--checks", "overrings"]
        with planted("oversemigroup_walk_yields_t_as_s_minus_t"):
            code, out = run(argv, capsys)
        assert code == 3
        assert json.loads(out)["error"]["code"] == "InternalInconsistency"

    def test_overrings_row_mismatch_exits_three(self, capsys):
        # A walk that pairs each T with the next T's S - T: the row the
        # command builds from it disagrees with the colon S - T that
        # ``overring_checks`` takes, which is a bug, not bad input.
        with planted("oversemigroup_walk_pairs_next_ideal"):
            code, out = run(["overrings", "--gens", "4,5,7"], capsys)
        assert code == 3
        assert json.loads(out)["error"]["code"] == "InternalInconsistency"

    def test_overrings_t_as_s_minus_t_exits_three(self, capsys):
        # A walk that yields T's own bits for S - T: they hold 0, so the
        # colon S - T disagrees with them as well.
        with planted("oversemigroup_walk_yields_t_as_s_minus_t"):
            code, out = run(["overrings", "--gens", "4,5,7"], capsys)
        assert code == 3
        assert json.loads(out)["error"]["code"] == "InternalInconsistency"

    def test_non_positive_generator_has_typed_code(self, capsys):
        code, out = run(["info", "--gens", "0,3"], capsys)
        assert code == 2
        assert json.loads(out)["error"]["code"] == "InvalidInput"

    def test_conductor_guard_refuses_before_sieving(self, capsys, monkeypatch):
        def sieve(gens):
            raise AssertionError("the sieve ran")

        monkeypatch.setattr(cli, "from_generators", sieve)
        for cmd in ("info", "ideal", "overrings", "classify"):
            argv = [cmd, "--gens", "400,401"]
            if cmd == "ideal":
                argv += ["--ideal", "400"]
            code, out = run(argv, capsys)
            assert code == 2, cmd
            assert json.loads(out)["error"]["code"] == "BoundTooLarge", cmd

    def test_conductor_guard_on_elements(self, capsys):
        code, out = run(["info", "--elements", "0", "--conductor", "20001"], capsys)
        assert code == 2
        assert json.loads(out)["error"]["code"] == "BoundTooLarge"

    def test_conductor_guard_admits_bounds_up_to_the_guard(self, capsys):
        # Schur bound 119 * 120 = 14,280.
        code, out = run(["info", "--gens", "120,121", "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["semigroup"]["conductor"] == 14280

    def test_schur_bound_at_the_guard_is_built(self, capsys):
        # Schur bound 1 * 20,000: admitted, and sieved once on that window.
        code, out = run(["info", "--gens", "2,20001", "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["semigroup"]["conductor"] == 20000

    def test_ideal_at_the_guard_runs_its_arf_test(self, capsys):
        # The decomposition reads is_arf(S), n = 10,000 members below c.
        argv = ["ideal", "--gens", "2,20001", "--ideal", "2,20001", "--format", "json"]
        code, out = run(argv, capsys)
        assert code == 0
        assert json.loads(out)["semigroup"]["conductor"] == 20000

    def test_allow_large_lifts_conductor_guard(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_CONDUCTOR_GUARD", 10)
        code, _ = run(["info", "--gens", "5,7"], capsys)
        assert code == 2
        code, _ = run(["info", "--gens", "5,7", "--allow-large"], capsys)
        assert code == 0

    def test_env_guard_respected(self, capsys, monkeypatch):
        monkeypatch.setenv("TYPESEQ_MAX_GENUS", "4")
        code, out = run(["census", "--max-genus", "5"], capsys)
        assert code == 2
        assert json.loads(out)["error"]["code"] == "BoundTooLarge"

    def test_malformed_env_guard_is_invalid_input(self, capsys, monkeypatch):
        for text in ("abc", "", "4.5", "-1"):
            monkeypatch.setenv("TYPESEQ_MAX_GENUS", text)
            code, out = run(["census", "--max-genus", "3"], capsys)
            assert code == 2, text
            assert json.loads(out)["error"]["code"] == "InvalidInput", text
            argv = ["census", "--max-genus", "2", "--allow-large"]
            code, out = run(argv, capsys)
            assert code == 2, text
            assert json.loads(out)["error"]["code"] == "InvalidInput", text

    def test_negative_walk_bounds_are_invalid_input(self, capsys):
        for argv in (
            ["classify", "--max-conductor", "-1"],
            ["census", "--max-genus", "-3"],
            ["census", "--max-conductor", "-1"],
            ["search", "--negative-a", "--max-genus", "-1"],
        ):
            code, out = run(argv, capsys)
            assert code == 2, argv
            assert json.loads(out)["error"]["code"] == "InvalidInput", argv

    def test_nonpositive_sample_limit_is_invalid_input(self, capsys):
        for limit in ("0", "-5"):
            argv = ["census", "--max-genus", "3", "--checks", "pairs"]
            code, out = run(argv + ["--sample-limit", limit], capsys)
            assert code == 2, limit
            assert json.loads(out)["error"]["code"] == "InvalidInput", limit


    def test_ideal_window_is_bounded_before_allocating(self, capsys, monkeypatch):
        def normalize(*args):
            raise AssertionError("the window was allocated")

        monkeypatch.setattr(ideals, "_normalized", normalize)
        for text in ("1||100000000", "1||5", "5||3"):
            code, out = run(["ideal", "--gens", "3,4,5", "--ideal", text], capsys)
            assert code == 2, text
            assert json.loads(out)["error"]["code"] == "EncodingError", text

    def test_ideal_conductor_guard_refuses_before_the_invariants(
        self, capsys, monkeypatch
    ):
        def check(S, I):
            raise AssertionError("the invariants ran")

        monkeypatch.setattr(cli, "decomposition_check", check)
        for text in ("100000", "100000|100000|100003"):
            code, out = run(["ideal", "--gens", "3,4,5", "--ideal", text], capsys)
            assert code == 2, text
            assert json.loads(out)["error"]["code"] == "BoundTooLarge", text
        monkeypatch.undo()
        argv = ["ideal", "--gens", "3,4,5", "--ideal", "100000", "--allow-large"]
        assert run(argv, capsys)[0] == 0


class TestParser:
    def test_parser_is_built_once_and_keeps_no_state(self, capsys):
        info = ["info", "--gens", "3,4,5", "--format", "json"]
        cli.build_parser.cache_clear()
        alone = run(info, capsys)
        cli.build_parser.cache_clear()
        census = ["census", "--max-genus", "3", "--window", "1", "--workers", "1"]
        assert run(census + ["--format", "csv", "--gorenstein-only"], capsys)[0] == 0
        assert run(info, capsys) == alone
        # Neither --format csv nor --gorenstein-only carries over: 8 of genus <= 3.
        assert run(census, capsys)[1].startswith("semigroups: 8\n")
        assert cli.build_parser.cache_info().misses == 1


def _stdlib_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


_text = st.text() | st.sampled_from(['", ', "}", "\n", "a\nb", "é ü 中", '{"k": [1]}'])
_scalar = (
    st.none() | st.booleans() | st.integers() | st.floats() | _text
    | st.integers(min_value=10**20, max_value=10**60)
)
# Keys of one dict must sort against each other, as for the stdlib.
_payload = st.recursive(
    _scalar,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(_text, inner, max_size=5)
    | st.dictionaries(st.integers() | st.booleans(), inner, max_size=5),
    max_leaves=40,
)


class TestCanonicalJson:
    @given(_payload)
    @example({10: [1, 2], 9: {"b": [], "a": {}}})
    @example({True: [[]], 2: {False: ()}, 0: {}})
    @example([{}, [], (), [[], {}], {"x": [[{}]]}])
    @example({"s": ['", ', "}", "\n", "é"], "f": [float("nan"), float("inf"), -0.0]})
    @example({"n": [None, True, False, 10**80, -(10**40), 1.5e300]})
    @example({None: [1]})
    @example({1.5: [1], 2: {"": [""]}, float("inf"): 3})
    @settings(max_examples=300, deadline=None)
    def test_renderer_matches_the_stdlib(self, payload):
        assert canonical_json(payload) == _stdlib_json(payload)

    def test_long_flat_containers_render_whole(self):
        # The C encoder may hand back its text in several chunks (before
        # CPython 3.12 a new one every 100,000 pieces, about 50,000 items).
        flat = list(range(120_000))
        wide = {f"k{i}": i for i in range(60_000)}
        for payload in (flat, {"a": flat}, [flat, [1]], wide, {"w": wide, "x": []}):
            assert canonical_json(payload) == _stdlib_json(payload)

    @pytest.mark.parametrize(
        "argv",
        [
            ["info", "--gens", "3,4,5"],
            ["ideal", "--gens", "9,15,17,23,25,29,31", "--ideal", "38,44,50"],
            ["overrings", "--gens", "5,7,9"],
            ["census", "--max-genus", "5", "--window", "1"],
            ["classify", "--max-conductor", "12"],
            ["search", "--negative-a", "--max-genus", "8"],
        ],
    )
    def test_json_output_is_the_stdlib_rendering(self, argv, capsys):
        args = cli.build_parser().parse_args(argv)
        payload = args.fn(args)
        code, out = run(argv + ["--format", "json"], capsys)
        assert code == 0
        assert out == _stdlib_json(payload) + "\n"


class TestDocumentedExamples:
    @staticmethod
    def _examples(text: str) -> list[list[str]]:
        """Argument lists of the single-semigroup `typeseq` lines in text."""
        found = []
        for line in text.splitlines():
            words = line.split()
            if words[:1] == ["typeseq"] and words[1:2] in (
                ["info"], ["ideal"], ["overrings"]
            ):
                found.append(words[1:])
        return found

    @pytest.mark.parametrize("source", ["cli docstring", "README"])
    def test_examples_exit_zero(self, source, capsys):
        if source == "README":
            text = README.read_text().split("## CLI", 1)[1].split("```", 2)[1]
        else:
            text = cli.__doc__
        examples = self._examples(text)
        assert len(examples) == 3
        for argv in examples:
            code, _ = run(argv, capsys)
            assert code == 0, argv


class TestInstalledEntryPoint:
    def test_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "typeseq.cli", "info", "--gens", "3,4,5"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        proc = subprocess.run(
            ["typeseq", "info", "--gens", "3,4,5", "--format", "json"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["type_sequence"] == [2]
