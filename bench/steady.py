#!/usr/bin/env python3
"""Repeat every workload and report how steady each end-to-end metric is.

    python3 bench/steady.py --runs 10 --first-seed 1 [--workload NAME ...] [--traced N]

``--runs 1`` runs every workload once and prints its metrics and its
operations attempted and failed.

Runs ``bench/run.py`` once per seed (seeds first-seed, first-seed+1, ...),
one run at a time, with the run length from BENCHMARK.json. For every
workload and metric it prints the median, the quartiles, the spread
(interquartile distance over the median) and the metric's bound; a
spread at or above the bound is marked FAIL, one above a third of it
``wide``. It also checks that the share of failed operations is the same
in every run. With ``--traced N`` the first N seeds also get a traced run,
right after their untraced one, and the tracing overhead is reported as
the median over those pairs of traced wall_s minus untraced wall_s.
Everything it measured is written to ``.bench_out/steady.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run failed: {' '.join(cmd)} (exit {proc.returncode})")
    diag = next((json.loads(line[len("# diagnostics "):]) for line in lines
                 if line.startswith("# diagnostics ")), {})
    return {"seed": seed, "result": json.loads(lines[-1]), "diagnostics": diag}


def summarize(values):
    """Median, quartiles and spread; one run has no spread."""
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--traced", type=int, default=0, metavar="N")
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    report = {}
    ok = True
    for wl in workloads:
        runs, traced = [], []
        for k in range(args.runs):
            run = run_once(wl, args.first_seed + k, seconds, 0)
            d = run["diagnostics"]
            print(f"  {wl} seed={run['seed']} steal={d.get('host_steal_s')}s "
                  f"nivcsw={d.get('involuntary_ctx_switches')} "
                  f"wall_s={d['wall_s']:.4f}", flush=True)
            runs.append(run)
            if k < args.traced:
                traced.append(run_once(wl, args.first_seed + k, seconds, 1))
                print(f"  {wl} seed={run['seed']} traced "
                      f"wall_s={traced[-1]['diagnostics']['wall_s']:.4f}", flush=True)
        print(f"\n{wl}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}")
        print(f"  {'metric':16s} {'unit':4s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        rows = {}
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            med, q1, q3, spread = summarize(values)
            flag = "FAIL" if spread >= bound else ("wide" if spread > bound / 3 else "")
            if name != "setup_s" and spread >= bound:
                ok = False
            rows[name] = {"values": values, "median": med, "q1": q1, "q3": q3,
                          "spread": spread, "bound": bound}
            print(f"  {name:16s} {units[name]:4s} {med:12.4f} {q1:12.4f} {q3:12.4f} "
                  f"{spread:8.4f} {bound:6.2f} {flag}")
        shares = {(r["result"]["failed"], r["result"]["attempted"]) for r in runs}
        same_share = len({f / a for f, a in shares}) == 1
        ok = ok and same_share and all(r["result"]["correct"] for r in runs)
        print(f"  failed/attempted per run: {sorted(shares)}"
              f"{'' if same_share else '  (share differs between runs)'}")
        print(f"  correct in every run: {all(r['result']['correct'] for r in runs)}")
        entry = {"runs": runs, "metrics": rows}
        if traced:
            diffs = [t["diagnostics"]["wall_s"] - r["diagnostics"]["wall_s"]
                     for t, r in zip(traced, runs)]
            overhead = statistics.median(diffs)
            print(f"  tracing overhead: {overhead:+.3f} s on wall_s "
                  f"({100 * overhead / rows['wall_s']['median']:+.1f}%), "
                  f"median of {len(diffs)} pairs")
            entry["traced"] = traced
            entry["tracing_overhead_s"] = overhead
        report[wl] = entry
        print()

    out = ROOT / ".bench_out" / "steady.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"written: {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
