"""One measured repetition of a workload, in a fresh interpreter.

    python3 perfbench/rep.py --workload census --seed 1 --spawned T
        [--setup-only | --trace SPANS_FILE | --probe walk|GROUP]

``T`` is the parent's ``time.perf_counter()`` just before it started this
process (a system-wide monotonic clock on Linux), so set-up time covers
interpreter start, ``import typeseq`` and input generation.  Set-up, the
whole timed run and each request are also read on the nominal clock of
``hostclock.py`` (the ``setup_s`` and ``norm_*`` fields).  Prints one
JSON object on stdout.  ``--probe`` times one layer on its own instead of
the workload: ``walk`` is a bare ``enumerate_semigroups`` to the
workload's bound, and a census check group name runs ``verify_theorems``
at the census size with only that group.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
TRACES = HERE / "traces"
sys.path[:0] = [str(SRC), str(HERE)]

from hostclock import HostClock  # noqa: E402


def _cpu_s() -> float:
    """User + system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def probe(workload: str, what: str) -> dict:
    """Time one layer in isolation; see the module docstring."""
    from typeseq import CensusQuery, enumerate_semigroups, verify_theorems

    t0 = time.perf_counter()
    if what == "walk":
        bound = {"max_conductor": 28} if workload == "classify" else {"max_genus": 9}
        nodes = sum(1 for _ in enumerate_semigroups(**bound))
        return {"s": time.perf_counter() - t0, "nodes": nodes, "passed": nodes > 0}
    report = verify_theorems(CensusQuery(max_genus=9, window=2, checks=(what,)))
    return {"s": time.perf_counter() - t0, "passed": report.passed}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", help="install the tracer and write spans here")
    ap.add_argument("--probe", help="'walk' or a census check group")
    args = ap.parse_args()
    if not (SRC / "typeseq").is_dir():
        sys.exit(f"no typeseq package under {SRC}")  # never measure an installed copy
    if args.probe:
        print(json.dumps(probe(args.workload, args.probe)))
        return 0

    # Set-up is timed on the nominal clock too, from the parent's spawn on.
    setup_clock = HostClock()
    setup_clock.start()
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    import typeseq.cli  # noqa: F401  (set-up includes the import)
    from workloads import Workload

    workload = Workload(args.workload, args.seed)
    ready = time.perf_counter()
    setup_clock.stop()
    setup = {"setup_s": setup_clock.nominal(args.spawned, ready),
             "raw_setup_s": ready - args.spawned}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    # Pool workers (census-w2) sample the host too and leave their samples here.
    clock = HostClock(TRACES / f"clock-{os.getpid()}")
    clock.start()
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    answers = workload.run()
    t1 = time.perf_counter()
    cpu_s = _cpu_s() - cpu0
    clock.stop()
    rss_kb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    result = {
        **setup,
        "wall_s": t1 - t0,
        "cpu_s": cpu_s,
        "norm_wall_s": clock.nominal(t0, t1),
        "peak_rss_mb": rss_kb / 1024.0,
        "norm_latencies_ms": [clock.nominal(a, b) * 1000.0 for _, _, a, b in answers],
        "stream": workload.stream_stats,
        **workload.verify(answers),
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        tracer.write(args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
