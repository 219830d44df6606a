"""typeseq benchmark: end-to-end metrics per workload, or a traced per-layer run.

    python3 perfbench/run.py --workload census --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, gate, table

Run it from the repository root; it imports the package from ``src/``.
Every repetition is a fresh interpreter (``rep.py``), because the
package's ``lru_cache``s would otherwise carry over.  The workloads and
their correctness gate live in ``workloads.py``; why each was chosen is in
``BENCHMARK.json``.

``--trace 0`` repeats the workload as often as fits in ``--seconds`` (at
least once) and reports medians over the repetitions.  Times are read on
the nominal clock of ``hostclock.py``: wall time rescaled by the speed the
shared host had at each moment, so that a slow or fast spell of the host
does not move them and a change to the program does.  The raw wall, CPU
and set-up times are printed on the summary line beside them.  ``--trace 1`` runs
it once plain and once under the tracer (``tracing.py``), then probes the
tree walk and each census check group in their own processes; it does a
fixed amount of work and ignores ``--seconds``.  Either way the last stdout
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REP = HERE / "rep.py"
TRACES = HERE / "traces"

sys.path.insert(0, str(HERE))
from workloads import NAMES  # noqa: E402  (no typeseq import at module level)

# typeseq.census.GROUPS, spelled out because this process never imports typeseq.
GROUPS = (
    "semigroup",
    "ideals",
    "pairs",
    "colon_growth",
    "equivalences",
    "overrings",
    "profile",
    "classification",
)
SETUP_SAMPLES = 8  # set-up-only spawns per run, on top of one per repetition
POOL_WORKERS = 2  # census-w2's pool size, the base of census.parallel.core_util
RUN_LIMIT_S = 170.0  # every child is killed past this point of the run

# (layer function, field) pairs reported from the traced repetition.  Self
# times are listed only for functions that run on every workload: an idle
# layer's time would read 0 on every run.
LAYER_FIELDS = [
    ("ideals.colon", "calls"),
    ("ideals.colon", "self_s"),
    ("ideals.colon", "window_bits"),
    ("ideals.dual", "calls"),
    ("ideals.dual", "self_s"),
    ("ideals.dual", "hit_ratio"),
    ("ideals.is_subset_of", "calls"),
    ("ideals.length_between", "calls"),
    ("ideals.length_between", "self_s"),
    ("ideals.ideal_product", "calls"),
    ("ideals.ideal_product", "self_s"),
    ("ideals.canonical_ideal", "hit_ratio"),
    ("invariants.type_sequence", "calls"),
    ("invariants.type_sequence", "self_s"),
    ("invariants.type_sequence", "hit_ratio"),
    ("invariants.ab_invariants", "calls"),
    ("invariants.d_invariant", "calls"),
    ("invariants.decomposition_check", "calls"),
    ("invariants.overring_check", "calls"),
    ("classification.ring_classification", "calls"),
    ("classification.window_profile", "calls"),
    ("classification.classify_b", "calls"),
    ("classification.classify_b", "self_s"),
    ("semigroup.from_generators", "calls"),
    ("semigroup.oversemigroups", "calls"),
    ("census.enumerate_ideals", "calls"),
    ("census.enumerate_ideals", "ideals"),
    ("cli.main", "calls"),
    ("cli.main", "self_s"),
]
UNITS = {"calls": "count", "self_s": "s", "window_bits": "count",
         "hit_ratio": "ratio", "ideals": "count"}


class BenchError(RuntimeError):
    """A repetition could not be run at all (not a failed operation)."""


class Run:
    """One benchmark invocation: spawns repetitions before a shared deadline."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        # Fixed hashing, and bytecode cached by the warm-up spawn whatever the
        # caller's environment says, so set-up time means the same everywhere.
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def spawn(self, *extra: str) -> dict:
        """Run rep.py in a new session; its last stdout line is the result."""
        spawned = time.perf_counter()
        cmd = [sys.executable, str(REP), "--workload", self.workload,
               "--seed", str(self.seed), "--spawned", repr(spawned), *extra]
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, start_new_session=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - spawned))
        except subprocess.TimeoutExpired:
            _kill_session(proc.pid)
            proc.communicate()
            raise BenchError(f"{' '.join(extra) or 'rep'} timed out") from None
        _kill_session(proc.pid)  # pool workers share the session; none may outlive it
        if proc.returncode != 0 or not out.strip():
            raise BenchError(f"{' '.join(extra) or 'rep'} failed: {err.strip()[-2000:]}")
        return json.loads(out.splitlines()[-1])

    def measure(self, seconds: float) -> dict:
        """Untraced repetitions for ``seconds``; end-to-end metrics."""
        self.spawn("--setup-only")  # warm-up: byte-compiles and fills the page cache
        setups = [self.spawn("--setup-only") for _ in range(SETUP_SAMPLES)]
        reps = []
        start = time.perf_counter()
        while True:
            reps.append(self.spawn())
            elapsed = time.perf_counter() - start
            if elapsed * (len(reps) + 1) / len(reps) > seconds:
                break  # one more repetition would overrun the measuring time
        setups += reps
        latencies = sorted(ms for r in reps for ms in r["norm_latencies_ms"])
        metrics = {
            "norm_wall_s": (statistics.median(r["norm_wall_s"] for r in reps), "s"),
            "norm_query_p50_ms": (percentile(latencies, 50), "ms"),
            "norm_query_p90_ms": (percentile(latencies, 90), "ms"),
            "setup_s": (statistics.median(r["setup_s"] for r in setups), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
        }
        info = {"repetitions": len(reps), "requests_timed": len(latencies),
                "wall_s": statistics.median(r["wall_s"] for r in reps),
                "cpu_s": statistics.median(r["cpu_s"] for r in reps),
                "raw_setup_s": statistics.median(r["raw_setup_s"] for r in setups),
                "stream": reps[0]["stream"], "digest": reps[0]["digest"]}
        return self._result(reps, metrics, info)

    def trace(self) -> dict:
        """One plain and one traced repetition, plus the layer probes."""
        self.spawn("--setup-only")
        plain = self.spawn()
        TRACES.mkdir(exist_ok=True)
        spans = TRACES / f"{self.workload}.spans"
        traced = self.spawn("--trace", str(spans))
        walk = self.spawn("--probe", "walk")
        groups = {g: self.spawn("--probe", g) for g in GROUPS}
        layers = traced["layers"]
        metrics = {}
        for fn, field in LAYER_FIELDS:
            metrics[f"{fn}.{field}"] = (layers[fn][field], UNITS[field])
        metrics["census.checks"] = (traced["checks"], "count")
        metrics["census.walk.nodes"] = (walk["nodes"], "count")
        metrics["census.walk.s"] = (walk["s"], "s")
        for g, probe in groups.items():
            metrics[f"census.group.{g}.s"] = (probe["s"], "s")
        metrics["census.parallel.core_util"] = (
            plain["cpu_s"] / (POOL_WORKERS * plain["wall_s"]), "ratio")
        metrics["trace.overhead_frac"] = (
            traced["norm_wall_s"] / plain["norm_wall_s"] - 1, "ratio")
        probes_failed = [name for name, p in [("walk", walk), *groups.items()]
                         if not p["passed"]]
        info = {"traced_digest": traced["digest"], "plain_digest": plain["digest"],
                "failed_probes": probes_failed, "spans": str(spans.relative_to(ROOT))}
        result = self._result([plain, traced], metrics, info)
        result["attempted"] += 1 + len(groups)
        result["failed"] += len(probes_failed)
        result["correct"] = result["correct"] and not probes_failed
        summary = {"workload": self.workload, "seed": self.seed, "layers": layers,
                   "probes": {"walk": walk, **groups}, **result}
        (TRACES / f"{self.workload}.json").write_text(json.dumps(summary, indent=1))
        return result

    def _result(self, reps: list[dict], metrics: dict, info: dict) -> dict:
        """Sum operations over repetitions; every repetition must agree."""
        attempted = sum(r["attempted"] for r in reps)
        failed = sum(r["failed"] for r in reps)
        errors = [e for r in reps for e in r["errors"]][:5]
        same = len({r["digest"] for r in reps}) == 1
        if not same:
            errors.append("repetitions of the same inputs printed different outputs")
        return {
            "correct": failed == 0 and same,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "info": dict(info, errors=errors),
        }


def _kill_session(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    k = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[k - 1]


def report_line(workload: str, result: dict) -> str:
    info = result["info"]
    parts = [f"{workload}:", f"fail_frac={result['failed']}/{result['attempted']}"]
    for key in ("repetitions", "requests_timed", "wall_s", "cpu_s", "raw_setup_s", "digest",
                "traced_digest"):
        if key in info:
            parts.append(f"{key}={info[key]}")
    if info.get("stream"):
        parts.append("stream=" + json.dumps(info["stream"], sort_keys=True))
    lines = [" ".join(parts)]
    lines += [f"  {name} = {m['value']:.6g} {m['unit']}" for name, m in result["metrics"].items()]
    lines += [f"  error: {e}" for e in info["errors"]]
    return "\n".join(lines)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=NAMES, help="default: every workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    names = [args.workload] if args.workload else list(NAMES)
    results = {}
    try:
        for name in names:
            run = Run(name, args.seed)
            results[name] = run.trace() if args.trace else run.measure(args.seconds)
            print(report_line(name, results[name]), flush=True)
    except BenchError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    if args.workload:
        out = {k: results[args.workload][k] for k in ("correct", "attempted", "failed", "metrics")}
        print(json.dumps(out))
        return 0
    all_ok = all(r["correct"] for r in results.values())
    print(json.dumps({"correct": all_ok, "workloads": {
        name: {k: r[k] for k in ("correct", "attempted", "failed", "metrics")}
        for name, r in results.items()}}))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
