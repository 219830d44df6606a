"""The four benchmark workloads: their inputs, one timed run each, and the gate.

Every workload goes through ``typeseq.cli.main`` in-process with
``--format json``, the way a user drives the package, and captures stdout.

- ``census`` / ``census-w2``: ``typeseq census --max-genus 9 --window 2``
  with 1 and 2 workers, i.e. ``verify_theorems(CensusQuery(max_genus=9,
  window=2, workers=...))`` plus rendering.  Both must print the canonical
  report whose SHA-256 starts with ``CENSUS_DIGEST``.
- ``classify``: ``typeseq classify --max-conductor 28``, i.e.
  ``classification_census(28)``; digest ``CLASSIFY_DIGEST``.
- ``query``: a closed loop of ``QUERY_REQUESTS`` ``info``/``ideal``
  requests, one client, on fresh random semigroups drawn from the seed.

The census workloads have no random input: the seed changes nothing there.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import statistics
import time

NAMES = ("census", "census-w2", "classify", "query")

# First 16 hex digits of the SHA-256 of the canonical report (to_json()),
# recorded at the commit that introduced this benchmark.
CENSUS_DIGEST = "2400c26a12bbb443"
CLASSIFY_DIGEST = "3ad7aa769de1573c"

CENSUS_ARGV = ["census", "--max-genus", "9", "--window", "2", "--format", "json"]
CLASSIFY_ARGV = ["classify", "--max-conductor", "28", "--format", "json"]

QUERY_REQUESTS = 400
QUERY_CONDUCTOR = (40, 600)
QUERY_MAX_GENERATOR = 64
QUERY_BANDS = 20


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def call_cli(argv: list[str]) -> tuple[int, str]:
    """Run ``typeseq.cli.main(argv)`` in-process; returns (exit code, stdout)."""
    import typeseq.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = typeseq.cli.main(argv)
    return code, buf.getvalue()


# -- query stream --------------------------------------------------------------


def _members_and_conductor(gens: list[int]) -> tuple[int, int]:
    """Membership bits below the conductor, and the conductor, by a sieve.

    Independent of typeseq: it checks the program's answers.  For coprime
    generators the Frobenius number is below (min - 1)(max - 1), so a sieve
    of that length plus the least generator decides everything.
    """
    limit = (gens[0] - 1) * (gens[-1] - 1) + gens[0] + 1
    full = (1 << limit) - 1
    bits = 1
    while True:
        grown = bits
        for g in gens:
            grown |= bits << g
        grown &= full
        if grown == bits:
            break
        bits = grown
    conductor = (~bits & full).bit_length()
    return bits & ((1 << conductor) - 1), conductor


def query_stream(seed: int) -> tuple[list[dict], dict]:
    """Seeded requests, each on a semigroup not seen before in the stream.

    A semigroup comes from 2-4 random coprime generators.  The conductor
    range is cut into ``QUERY_BANDS`` log-spaced bands holding the same
    number of requests each, so every seed asks for the same mix of sizes
    (the cost of a request grows steeply with the conductor) while the
    semigroups themselves differ.  Requests alternate ``info`` and
    ``ideal``; an ideal is generated by 1-3 random nonzero members up to
    the conductor.  Each request carries the answers the program must
    reproduce: conductor, genus, and the least member of the ideal.
    """
    rng = random.Random(seed)
    lo, hi = QUERY_CONDUCTOR
    edges = [lo * (hi / lo) ** (k / QUERY_BANDS) for k in range(QUERY_BANDS + 1)]
    # Slot j falls in band j // (requests per band) and asks for kind j % 2.
    slots = [(j * QUERY_BANDS // QUERY_REQUESTS, j % 2) for j in range(QUERY_REQUESTS)]
    rng.shuffle(slots)
    seen: set[tuple[int, int]] = set()
    requests = []
    for band, kind in slots:
        while True:
            gens = sorted(rng.sample(range(3, QUERY_MAX_GENERATOR), rng.randint(2, 4)))
            if math.gcd(*gens) != 1 or (gens[0] - 1) * (gens[-1] - 1) < edges[band]:
                continue
            mask, conductor = _members_and_conductor(gens)
            if edges[band] <= conductor <= edges[band + 1] and (conductor, mask) not in seen:
                break
        seen.add((conductor, mask))
        genus = conductor - bin(mask).count("1")
        argv = ["info", "--gens", ",".join(map(str, gens))]
        req = {"kind": "info", "conductor": conductor, "genus": genus}
        if kind:
            nonzero = [x for x in range(1, conductor) if (mask >> x) & 1]
            ideal = sorted(rng.sample(nonzero + [conductor], rng.randint(1, 3)))
            argv = ["ideal", "--gens", argv[2], "--ideal", ",".join(map(str, ideal))]
            req.update(kind="ideal", ideal_min=ideal[0])
        req["argv"] = argv + ["--format", "json"]
        requests.append(req)
    conductors = [r["conductor"] for r in requests]
    stats = {
        "conductor_median": statistics.median(conductors),
        "conductor_max": max(conductors),
        "repeated_share": 1 - len(seen) / len(requests),
    }
    return requests, stats


def check_answer(req: dict, out: str) -> str | None:
    """Seed-independent identities every answer must satisfy; None if it does."""
    payload = json.loads(out)
    sg = payload["semigroup"]
    genus, conductor = sg["genus"], sg["conductor"]
    n = len(sg["small_elements"]) - 1
    ts = payload["type_sequence"]
    inv = payload["invariants"]
    if (conductor, genus) != (req["conductor"], req["genus"]):
        return f"conductor/genus {(conductor, genus)} != {(req['conductor'], req['genus'])}"
    if len(ts) != n or sum(ts) != genus:
        return "type sequence does not sum to the genus over n entries"
    if not all(row["pass"] for row in payload["checks"]):
        return "a returned check failed"
    if req["kind"] == "info":
        if inv["a"] != 2 * genus - conductor:
            return "a(tail) != 2 genus - conductor"
        if inv["b"] != sg["type"] * n - genus:
            return "b(tail) != type n - genus"
    elif payload["ideal"]["min_element"] != req["ideal_min"]:
        return "ideal minimum differs from its least generator"
    return None


# -- one timed run --------------------------------------------------------------


class Workload:
    """Inputs built at set-up; ``run()`` is the timed part, ``verify()`` the gate."""

    def __init__(self, name: str, seed: int):
        if name not in NAMES:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.stream_stats: dict = {}
        if name == "query":
            self.requests, self.stream_stats = query_stream(seed)
        elif name == "classify":
            self.requests = [{"argv": CLASSIFY_ARGV, "digest": CLASSIFY_DIGEST}]
        else:
            workers = "2" if name == "census-w2" else "1"
            argv = CENSUS_ARGV + ["--workers", workers]
            self.requests = [{"argv": argv, "digest": CENSUS_DIGEST}]

    def run(self) -> list[tuple[int, str, float, float]]:
        """(exit code, stdout, start, end) per request; a crash is code -1.

        Start and end are ``time.perf_counter()`` readings.
        """
        answers = []
        clock = time.perf_counter
        for req in self.requests:
            t0 = clock()
            try:
                code, out = call_cli(req["argv"])
            except Exception as exc:  # a crash fails the request, not the run
                code, out = -1, f"{type(exc).__name__}: {exc}"
            answers.append((code, out, t0, clock()))
        return answers

    def verify(self, answers) -> dict:
        """Gate every answer; counts operations, failures and checks run."""
        errors, checks, outputs = [], 0, hashlib.sha256()
        for req, (code, out, _, _) in zip(self.requests, answers):
            outputs.update(out.removesuffix("\n").encode())
            try:
                problem, ran = _gate(req, code, out)
            except (ValueError, KeyError, TypeError) as exc:
                problem, ran = f"unreadable answer: {exc!r}", 0
            checks += ran
            if problem is not None:
                errors.append(f"{' '.join(req['argv'])}: {problem}")
        return {
            "attempted": len(self.requests),
            "failed": len(errors),
            "errors": errors[:5],
            "digest": outputs.hexdigest()[:16],
            "checks": checks,
        }


def _gate(req: dict, code: int, out: str) -> tuple[str | None, int]:
    """(problem or None, checks the answer reports)."""
    if code != 0:
        return f"exit code {code}: {' '.join(out.split())[:200]}", 0
    if "digest" not in req:
        return check_answer(req, out), len(json.loads(out)["checks"])
    payload = json.loads(out)
    got = digest(out.removesuffix("\n"))
    if got != req["digest"]:
        return f"digest {got} != {req['digest']}", 0
    if not payload["passed"]:
        return "report did not pass", 0
    return None, sum(payload["check_tallies"].values())
