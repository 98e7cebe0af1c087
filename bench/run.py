#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload online_periods --seed 1 --seconds 15 --trace 0

Run from the repository root; the program is imported from ``src/``.
With ``--trace 0`` the last line carries the end-to-end metrics; with
``--trace 1`` every public function of each layer is wrapped and the
last line carries the per-layer metrics instead. The line before it
(``# diagnostics {...}``) holds per-run context that is not a metric:
host CPU steal, involuntary context switches, round counts.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"          # numpy's BLAS on one thread, set before import

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUPS = 5          # set-up repeats; setup_s is their median


def read_steal_s() -> float | None:
    """Host CPU steal so far, summed over CPUs, from /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def tail_index(n: int) -> int:
    """Index into the sorted samples of the highest percentile with ten beyond it.

    With ten samples or fewer no such percentile exists and the maximum
    stands in for it.
    """
    return n - 11 if n > 10 else n - 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "chargegame" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC / 'chargegame'})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import checks
    from probes import Probe
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](OUT_DIR)

    setup_times = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        state = workload.setup(args.seed)
        setup_times.append(time.perf_counter() - t0)

    steal0 = read_steal_s()
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    rounds = []
    with Probe(traced=bool(args.trace)) as probe:
        t_start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            rnd = workload.run_round(state, probe)
            rnd.seconds = time.perf_counter() - t0
            rounds.append(rnd)
            if time.perf_counter() - t_start >= args.seconds:
                break
        timed = time.perf_counter() - t_start
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    steal1 = read_steal_s()

    log = checks.CheckLog()
    workload.check(log, state, rounds)
    for message in log.errors[:20]:
        print(f"check failed: {message}", file=sys.stderr)

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    latencies = sorted(t for r in rounds for t in r.latencies)
    wall = statistics.median(r.seconds for r in rounds)
    if args.trace:
        metrics = probe.layer_metrics(len(rounds))
        probe.write_spans(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv", t_start)
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (wall, "s"),
            "period_p50_ms": (1000.0 * statistics.median(latencies), "ms"),
            "period_tail_ms": (1000.0 * latencies[tail_index(len(latencies))], "ms"),
            "peak_rss_mb": (ru1.ru_maxrss / 1024.0, "MB"),
        }

    diagnostics = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": len(rounds),
        "operations_per_round": len(rounds[0].latencies),
        "wall_s": wall,
        "timed_s": timed,
        "tail_percentile": round(100.0 * (tail_index(len(latencies)) + 1) / len(latencies), 1),
        "setup_s_each": setup_times,
        "host_steal_s": (None if steal0 is None or steal1 is None
                         else round(steal1 - steal0, 2)),
        "involuntary_ctx_switches": ru1.ru_nivcsw - ru0.ru_nivcsw,
        "checks_run": log.checks,
        "checks_failed": len(log.errors),
        "missing_probes": probe.missing,
    }
    print("# diagnostics " + json.dumps(diagnostics))
    print(json.dumps({
        "correct": not log.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
