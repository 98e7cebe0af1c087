"""Command-line front end.

Exit codes: 0 success, 2 usage error (an option no run can use, a
scenario config that cannot be read, names a node outside its network or
has a per-station vector of another length than its station count, or a
``--price`` whose length is not the scenario's station count), 3
infeasible scenario (degenerate fleet, empty allocation set, unmatchable
target), 4 numerical failure, including a solve whose J_G the run writes
(the upper level or a comparison baseline) that stopped at ``--max-iter``
unconverged.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .errors import (DegenerateFleetError, EmptyPolytopeError,
                     InfeasibleTargetError, PipelineStageError)
from .harness import ExperimentConfig, run_pipeline
from .scenario import (Scenario, demo_scenario, load_scenario, simulate_period,
                       snapshot_rows, write_scenario)

EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4
INFEASIBLE = (DegenerateFleetError, EmptyPolytopeError, InfeasibleTargetError)


def _add_common(p):
    p.add_argument("--config", help="scenario config JSON (omit to use the packaged demo)")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p.add_argument("--max-iter", type=int, default=1000)
    p.add_argument("--tol", type=float, default=1e-8)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chargegame",
        description="Pricing-game coordination of electric fleet charging",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run the operating period, write the fleet snapshot")
    _add_common(p)

    p = sub.add_parser("solve-upper", help="solve the pricing game")
    _add_common(p)
    p.add_argument("--mechanism", default="rsg",
                   choices=["rsg", "fixed-price", "grid-search"])
    p.add_argument("--price", help="comma-separated fixed price vector")

    p = sub.add_parser("solve-lower", help="upper solve plus surge pricing")
    _add_common(p)

    p = sub.add_parser("baseline", help="fixed-price equilibrium")
    _add_common(p)
    p.add_argument("--price", help="comma-separated price vector (default 3,3,...)")

    p = sub.add_parser("grid-search", help="price grid search")
    _add_common(p)
    p.add_argument("--p-max", type=float, default=5.0)
    p.add_argument("--resolution", type=int, default=9)
    p.add_argument("--refine", type=int, default=1)

    p = sub.add_parser("robustness", help="noise sweep over demand estimates")
    _add_common(p)
    p.add_argument("--alphas", default="0,0.05,0.1,0.15,0.25,0.35")
    p.add_argument("--samples", type=int, default=100)

    p = sub.add_parser("pipeline", help="full chain with all artifacts")
    _add_common(p)
    p.add_argument("--robustness", action="store_true", dest="with_sweep")
    p.add_argument("--resolution", type=int, default=9)
    p.add_argument("--samples", type=int, default=100)

    p = sub.add_parser("make-demo", help="materialize the packaged demo scenario files")
    p.add_argument("--out", default="demo_scenario")
    p.add_argument("--seed", type=int, default=9)
    return parser


def _config(args) -> ExperimentConfig | None:
    """The pipeline config of a command; None for the commands that run no pipeline."""
    if args.command == "solve-upper":
        extra = dict(mechanism=args.mechanism, fixed_price=_parse_price(args.price),
                     compare=False)
    elif args.command == "solve-lower":
        extra = dict(compare=False)
    elif args.command == "baseline":
        extra = dict(mechanism="fixed-price", fixed_price=_parse_price(args.price))
    elif args.command == "grid-search":
        extra = dict(mechanism="grid-search", p_max=args.p_max,
                     resolution=args.resolution, refine=args.refine)
    elif args.command == "robustness":
        extra = dict(run_robustness=True, alphas=tuple(float(v) for v in args.alphas.split(",")),
                     samples=args.samples, compare=False)
    elif args.command == "pipeline":
        extra = dict(resolution=args.resolution, run_robustness=args.with_sweep,
                     samples=args.samples)
    else:
        return None
    return ExperimentConfig(out_dir=args.out, seed=args.seed, max_iter=args.max_iter,
                            tol=args.tol, **extra)


def _parse_price(text: str | None):
    if text is None:
        return None
    return np.array([float(v) for v in text.split(",")])


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config(args)
    except ValueError as exc:   # a value the parser accepts but a run cannot use
        parser.error(str(exc))
    scenario = None
    if args.command != "make-demo":
        try:
            scenario = load_scenario(args.config) if args.config else demo_scenario()
        except (OSError, KeyError, TypeError, ValueError) as exc:
            parser.error(f"cannot load scenario config {args.config}: "
                         f"{type(exc).__name__}: {exc}")
        price = cfg.fixed_price if cfg is not None else None
        if price is not None and price.size != scenario.n_stations:
            parser.error(f"--price has {price.size} entries, but the scenario "
                         f"has {scenario.n_stations} stations")
    try:
        return _dispatch(args, cfg, scenario)
    except (*INFEASIBLE, PipelineStageError, np.linalg.LinAlgError, RuntimeError,
            ValueError) as exc:
        cause = exc.cause if isinstance(exc, PipelineStageError) else exc
        if isinstance(cause, INFEASIBLE):
            print(f"infeasible scenario: {exc}", file=sys.stderr)
            return EXIT_INFEASIBLE
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def _dispatch(args, cfg: ExperimentConfig | None, scenario: Scenario | None) -> int:
    if args.command == "make-demo":
        path = write_scenario(demo_scenario(args.seed), args.out)
        print(path)
        return 0

    if args.command == "simulate":
        if args.seed is not None:   # a copy, as in run_pipeline
            scenario = dataclasses.replace(scenario, seed=args.seed)
        snap = simulate_period(scenario)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "snapshot.csv").write_text("\n".join(snapshot_rows(snap)) + "\n")
        print(f"charging fleet per company: {snap.charging_counts.tolist()}")
        return 0

    res = run_pipeline(cfg, scenario)
    tracking = sum(sol.j_m for sol in res.surge_solutions)
    if args.command == "solve-upper":
        print(f"j_g={res.upper.j_g!r} iterations={res.upper.iterations} "
              f"converged={res.upper.converged} seconds={res.upper_seconds:.2f}")
    elif args.command == "solve-lower":
        print(f"tracking cost across companies: {tracking!r} "
              f"modes={[sol.mode for sol in res.surge_solutions]}")
    elif args.command in ("baseline", "grid-search"):
        print(f"j_g={res.upper.j_g!r}")
    elif args.command == "robustness":
        ran = dict.fromkeys(r.mechanism for r in res.sweep.rows)
        means = {name: res.sweep.mean(name).tolist() for name in ran}
        print(json.dumps(means))
    else:
        print(f"j_g={res.upper.j_g!r} tracking={tracking!r} "
              f"artifacts={sorted(res.files)}")
    return 0 if res.converged else EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
