"""Experiment harness: baselines, price grid search, and the full pipeline.

The feedback-pricing mechanism is compared against Stackelberg-style
baselines in which the authority commits to a fixed price vector and the
companies play the resulting game. The best fixed vector is approximated
by an exhaustive grid over the price box with one local refinement pass
around the incumbent.

``run_pipeline`` chains simulation, estimation, the upper-level solve,
rounding, and the surge stage, and writes plot-ready CSV artifacts whose
bytes depend only on the configured seeds.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path

import numpy as np

from . import equilibrium, robustness, scenario as scenario_mod, surge
from .equilibrium import (SolveReport, fixed_price_f2, game_map, solve_nash,
                          solve_nash_batch, step_bound)
from .errors import PipelineStageError
from .feasible import discretize
from .model import GameInstance, government_cost, system_optimal_prices
from .scenario import GameBuild, Scenario, build_game, load_scenario

DEFAULT_FLAT_PRICE = np.array([3.0, 3.0, 3.0, 3.0])
REFERENCE_GRID_PRICES = {
    "p1": np.array([2.75, 1.625, 2.208, 1.0]),
    "p2": np.array([4.03, 2.8, 3.49, 2.24]),
}


@dataclass
class ExperimentConfig:
    """Everything a harness run needs."""

    scenario_path: str | None = None
    mechanism: str = "rsg"                  # rsg | fixed-price | grid-search
    fixed_price: np.ndarray | None = None
    p_max: float = 5.0
    resolution: int = 9
    refine: int = 1
    max_iter: int = 1000
    tol: float = 1e-8
    alphas: tuple = (0.0, 0.05, 0.1, 0.15, 0.25, 0.35)
    samples: int = 100
    out_dir: str = "out"
    seed: int | None = None
    run_robustness: bool = False
    compare: bool = True        # also solve the flat-price and grid baselines

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        raw = json.loads(Path(path).read_text())
        if "fixed_price" in raw and raw["fixed_price"] is not None:
            raw["fixed_price"] = np.asarray(raw["fixed_price"], dtype=float)
        if "alphas" in raw:
            raw["alphas"] = tuple(raw["alphas"])
        return cls(**raw)

    def __post_init__(self):
        if self.mechanism not in ("rsg", "fixed-price", "grid-search"):
            raise ValueError(f"unknown mechanism {self.mechanism!r}")
        if self.mechanism == "grid-search" and self.resolution < 2:
            raise ValueError("grid search needs at least 2 points per axis")


def fixed_price_nash(instance: GameInstance, prices: np.ndarray,
                     max_iter: int = 1000, tol: float = 1e-8,
                     x0: np.ndarray | None = None) -> SolveReport:
    """Equilibrium of the game with a committed price vector.

    Each company's cost keeps its quadratic queuing part, so the game map
    stays strongly monotone and the same averaged projected-gradient
    scheme applies with the fixed-price step bound.
    """
    prices = np.asarray(prices, dtype=float)
    if np.any(prices < 0):
        raise ValueError("prices must be nonnegative")
    return solve_nash(instance, prices=prices, max_iter=max_iter, tol=tol, x0=x0)


@dataclass
class GridSearchResult:
    best_price: np.ndarray
    report: SolveReport
    evaluated_prices: np.ndarray   # (n_evaluated, n_stations)
    evaluated_j_g: np.ndarray

    @property
    def j_g(self) -> float:
        return self.report.j_g


def grid_search(instance: GameInstance, p_max: float = 5.0, resolution: int = 9,
                refine: int = 1, max_iter: int = 1000, tol: float = 1e-8) -> GridSearchResult:
    """Exhaustive price-box search minimizing the authority loss at equilibrium.

    Evaluates the fixed-price game on a uniform grid over [0, p_max] per
    station, then re-grids inside the cell around the incumbent for each
    refinement pass. Deterministic traversal; ties keep the earliest
    evaluated point.
    """
    if p_max <= 0:
        raise ValueError("p_max must be positive")
    m = instance.n_stations
    f1, _ = game_map(instance, prices=np.zeros(m))
    gamma = 0.9 * step_bound(f1)

    axes = [np.linspace(0.0, p_max, resolution) for _ in range(m)]
    all_prices: list[np.ndarray] = []
    all_j: list[np.ndarray] = []
    best_price, best_j = None, np.inf

    for sweep in range(refine + 1):
        grid = np.array(list(product(*axes)))
        j_vals = _evaluate_price_rows(instance, grid, f1, gamma, max_iter, tol)
        all_prices.append(grid)
        all_j.append(j_vals)
        k = int(np.argmin(j_vals))
        if j_vals[k] < best_j:
            best_j = float(j_vals[k])
            best_price = grid[k].copy()
        if sweep < refine:
            cells = [axis[1] - axis[0] for axis in axes]
            axes = [
                np.linspace(max(0.0, best_price[d] - cells[d] / 2),
                            min(p_max, best_price[d] + cells[d] / 2), resolution)
                for d in range(m)
            ]

    report = fixed_price_nash(instance, best_price, max_iter=max_iter, tol=tol)
    return GridSearchResult(best_price, report,
                            np.vstack(all_prices), np.concatenate(all_j))


def _evaluate_price_rows(instance: GameInstance, price_rows: np.ndarray,
                         f1: np.ndarray, gamma: float, max_iter: int,
                         tol: float) -> np.ndarray:
    """Authority loss at the fixed-price equilibrium for every price row."""
    rows = price_rows.shape[0]
    out = solve_nash_batch(instance, fixed_price_f2(instance, price_rows), f1=f1,
                           gammas=np.full(rows, gamma),
                           max_iter=max_iter, tol=tol)
    return government_cost(out["sigma_final"], instance.government)


# ---------------------------------------------------------------------------
# pipeline

@dataclass
class PipelineResult:
    out_dir: Path
    build: GameBuild
    upper: SolveReport
    upper_seconds: float
    mechanism: str
    prices_at_equilibrium: list[np.ndarray]
    targets: list[np.ndarray]
    surge_solutions: list[surge.SurgeSolution]
    comparison: dict[str, tuple[float, np.ndarray]]
    grid_result: GridSearchResult | None = None
    sweep: robustness.SweepResult | None = None
    files: dict[str, Path] = field(default_factory=dict)


def _stage(name: str, seconds: dict[str, float]):
    """Run one pipeline stage: add its wall time to ``seconds[name]`` and
    tag any failure with the stage name."""
    def wrap(fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # tag the failing stage for the CLI
            raise PipelineStageError(name, exc) from exc
        finally:
            seconds[name] = seconds.get(name, 0.0) + time.perf_counter() - t0
    return wrap


def run_pipeline(config: ExperimentConfig,
                 scenario: Scenario | None = None) -> PipelineResult:
    """Simulation to surge prices, with CSV artifacts along the way."""
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files: dict[str, Path] = {}
    seconds: dict[str, float] = {}     # wall time per stage

    if scenario is None:
        if config.scenario_path is None:
            scenario = scenario_mod.demo_scenario()
        else:
            scenario = _stage("load-scenario", seconds)(load_scenario, config.scenario_path)
    if config.seed is not None:
        scenario.seed = config.seed

    build = _stage("simulate-and-estimate", seconds)(build_game, scenario)
    instance = build.instance
    _write(files, out_dir, "snapshot.csv", scenario_mod.snapshot_rows(build.snapshot))

    t0 = time.perf_counter()
    if config.mechanism == "rsg":
        upper = _stage("solve-upper", seconds)(
            solve_nash, instance, max_iter=config.max_iter, tol=config.tol)
    elif config.mechanism == "fixed-price":
        price = config.fixed_price
        if price is None:
            price = DEFAULT_FLAT_PRICE[: instance.n_stations]
        upper = _stage("solve-upper", seconds)(
            fixed_price_nash, instance, price, config.max_iter, config.tol)
    else:
        grid_res = _stage("grid-search", seconds)(
            grid_search, instance, config.p_max, config.resolution,
            config.refine, config.max_iter, config.tol)
        upper = grid_res.report
    upper_seconds = time.perf_counter() - t0

    grid_result = None
    comparison: dict[str, tuple[float, np.ndarray]] = {}
    if config.mechanism == "rsg" and config.compare:
        base_price = DEFAULT_FLAT_PRICE[: instance.n_stations]
        base = _stage("baseline", seconds)(fixed_price_nash, instance, base_price,
                                           config.max_iter, config.tol)
        grid_result = _stage("grid-search", seconds)(
            grid_search, instance, config.p_max, config.resolution,
            config.refine, config.max_iter, config.tol)
        comparison = {
            "p_base": (base.j_g, base.sigma),
            "grid": (grid_result.j_g, grid_result.report.sigma),
            "rsg": (upper.j_g, upper.sigma),
        }

    _write(files, out_dir, "convergence.csv", _convergence_rows(upper))

    blocks = upper.blocks
    prices_at_eq = []
    targets = []
    surge_solutions = []
    sigma = upper.sigma
    for i in range(instance.n_companies):
        sigma_others = sigma - instance.fleet_sizes[i] * blocks[i]
        prices_at_eq.append(system_optimal_prices(instance, i, blocks[i], sigma_others))
        target = _stage("discretize", seconds)(discretize, blocks[i], build.feas[i],
                                               instance.companies[i].fleet_size)
        targets.append(target)
        sol = _stage("solve-lower", seconds)(
            surge.two_step, target, build.drivers[i], prices_at_eq[i],
            seed=scenario.seed + 100 + i)
        surge_solutions.append(sol)

    _write(files, out_dir, "prices_table.csv",
           _prices_table_rows(instance, blocks, prices_at_eq, sigma))
    if comparison:
        _write(files, out_dir, "comparison.csv", _comparison_rows(comparison))
    _write(files, out_dir, "surge_prices.csv",
           surge.surge_price_rows(surge_solutions))
    _write(files, out_dir, "allocation.csv",
           _allocation_rows(instance, blocks, targets))

    sweep = None
    if config.run_robustness:
        baselines = {
            name: price[: instance.n_stations]
            for name, price in REFERENCE_GRID_PRICES.items()
        }
        baselines["base"] = DEFAULT_FLAT_PRICE[: instance.n_stations]
        sweep = _stage("robustness", seconds)(
            robustness.robustness_sweep, instance, config.alphas, config.samples,
            baselines, scenario.seed, config.max_iter, config.tol)
        _write(files, out_dir, "robustness.csv", sweep.to_csv_rows())

    meta = {
        "mechanism": config.mechanism,
        "upper_solve_seconds": upper_seconds,
        "iterations": upper.iterations,
        "converged": upper.converged,
        "j_g": upper.j_g,
        "charging_fleet": [int(c.fleet_size) for c in instance.companies],
        "stage_seconds": seconds,
        "projector_paths": [p.projector.path for p in instance.polytopes],
        "surge_modes": [{"mode": sol.mode, "solver_info": sol.solver_info}
                        for sol in surge_solutions],
    }
    if sweep is not None:
        meta["robustness_rows"] = len(sweep.rows)
        meta["robustness_unconverged"] = sum(not r.converged for r in sweep.rows)
    (out_dir / "run_meta.json").write_text(json.dumps(meta, indent=2) + "\n")

    return PipelineResult(out_dir, build, upper, upper_seconds, config.mechanism,
                          prices_at_eq, targets, surge_solutions, comparison,
                          grid_result, sweep, files)


def _write(files: dict, out_dir: Path, name: str, rows) -> None:
    path = out_dir / name
    path.write_text("\n".join(rows) + "\n")
    files[name] = path


def _convergence_rows(report: SolveReport):
    m = report.sigma_trace.shape[1]
    header = "iteration,j_g," + ",".join(f"sigma_{j + 1}" for j in range(m)) + ",residual"
    yield header
    for k in range(report.j_g_trace.size):
        res = report.residuals[k - 1] if k > 0 else np.nan
        sig = ",".join(repr(float(v)) for v in report.sigma_trace[k])
        yield f"{k},{float(report.j_g_trace[k])!r},{sig},{float(res)!r}"


def _prices_table_rows(instance: GameInstance, blocks, prices, sigma):
    m = instance.n_stations
    cols = []
    for j in range(m):
        cols += [f"x_{j + 1}", f"p_{j + 1}"]
    yield "row," + ",".join(cols)
    for i in range(instance.n_companies):
        cells = []
        for j in range(m):
            cells += [repr(float(blocks[i][j])), repr(float(prices[i][j]))]
        yield f"company_{i + 1}," + ",".join(cells)
    if instance.government.set_point is not None:
        cells = []
        for j in range(m):
            cells += [repr(float(instance.government.set_point[j])), ""]
        yield "target," + ",".join(cells)
    cells = []
    for j in range(m):
        cells += [repr(float(sigma[j])), ""]
    yield "sigma," + ",".join(cells)


def _comparison_rows(comparison: dict):
    first = next(iter(comparison.values()))
    m = first[1].size
    yield "mechanism,j_g," + ",".join(f"sigma_{j + 1}" for j in range(m))
    for name in ("p_base", "grid", "rsg"):
        if name in comparison:
            j_g, sigma = comparison[name]
            yield f"{name},{float(j_g)!r}," + ",".join(repr(float(v)) for v in sigma)


def _allocation_rows(instance: GameInstance, blocks, targets):
    yield "company,station,x,n"
    for i in range(instance.n_companies):
        for j in range(instance.n_stations):
            yield f"{i},{j},{float(blocks[i][j])!r},{int(targets[i][j])}"
