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

import dataclasses
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import robustness, scenario as scenario_mod, surge
from .equilibrium import (SolveReport, fixed_price_f2, game_map, solve_nash,
                          solve_nash_batch)
from .errors import PipelineStageError
from .feasible import discretize
from .model import GameInstance, government_cost, system_optimal_prices
from .scenario import GameBuild, Scenario, build_game

FLAT_PRICE = 3.0    # the flat baseline's price, at every station of the game
# the four-station case study's price vectors (bench/workloads.py reads
# them); the sweep runs p1 and p2 only on a 4-station game
DEFAULT_FLAT_PRICE = np.full(4, FLAT_PRICE)
REFERENCE_GRID_PRICES = {
    "p1": np.array([2.75, 1.625, 2.208, 1.0]),
    "p2": np.array([4.03, 2.8, 3.49, 2.24]),
}


@dataclass
class ExperimentConfig:
    """Everything a harness run needs."""

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

    def __post_init__(self):
        if self.mechanism not in ("rsg", "fixed-price", "grid-search"):
            raise ValueError(f"unknown mechanism {self.mechanism!r}")
        grid_runs = self.mechanism == "grid-search" or (self.mechanism == "rsg" and self.compare)
        if grid_runs and self.resolution < 2:
            raise ValueError("grid search needs at least 2 points per axis")
        if self.refine < 0:
            raise ValueError("refine must be a nonnegative number of passes")
        # "not >= 0" and "not > 0" also refuse NaN
        if not self.p_max > 0:
            raise ValueError("p_max must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not self.tol >= 0:
            raise ValueError("tol must be nonnegative")
        alphas = np.asarray(self.alphas, dtype=float)
        if not np.all(alphas >= 0):
            raise ValueError("noise magnitudes (alphas) must be nonnegative")
        if np.unique(alphas).size != alphas.size:
            raise ValueError("noise magnitudes (alphas) must be distinct")
        if self.fixed_price is not None and not np.all(np.asarray(self.fixed_price) >= 0):
            raise ValueError("fixed prices must be nonnegative")
        if self.run_robustness and self.samples < 1:
            raise ValueError("the robustness sweep needs at least one sample")


def price_grid(axes) -> np.ndarray:
    """Every point of the grid spanned by one price axis per station, one row
    each, the last station's axis varying fastest."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, len(axes))


@dataclass
class GridSearchResult:
    best_price: np.ndarray
    report: SolveReport
    pass_axes: list[list[np.ndarray]]   # each pass's price axis per station
    evaluated_j_g: np.ndarray
    evaluated_converged: np.ndarray  # bool: the row's solve met its tolerance

    @property
    def j_g(self) -> float:
        """J_G of the one-row re-solve at ``best_price``; its last bits can
        differ from the best row's ``evaluated_j_g`` (demo:
        1.643408328798136 against 1.643408328798152)."""
        return self.report.j_g

    @property
    def evaluated_prices(self) -> np.ndarray:
        """(n_evaluated, n_stations): every pass's grid in evaluation order,
        rebuilt from its axes rather than kept."""
        return np.vstack([price_grid(axes) for axes in self.pass_axes])


def grid_search(instance: GameInstance, p_max: float = 5.0, resolution: int = 9,
                refine: int = 1, max_iter: int = 1000, tol: float = 1e-8) -> GridSearchResult:
    """Exhaustive price-box search minimizing the authority loss at equilibrium.

    Evaluates the fixed-price game on a uniform grid over [0, p_max] per
    station, then re-grids inside the cell around the incumbent for each
    refinement pass. Rows rank by (unconverged, J_G), within a pass and
    across passes, so a converged incumbent wins whenever one exists.
    Deterministic traversal; ties keep the earliest evaluated point.
    """
    if p_max <= 0:
        raise ValueError("p_max must be positive")
    if refine < 0:
        raise ValueError("refine must be a nonnegative number of passes")
    if resolution < (2 if refine else 1):
        raise ValueError("grid search needs at least 1 point per axis, "
                         "and at least 2 to refine")
    m = instance.n_stations
    f1, _ = game_map(instance, prices=np.zeros(m))

    axes = [np.linspace(0.0, p_max, resolution) for _ in range(m)]
    pass_axes: list[list[np.ndarray]] = []
    all_j: list[np.ndarray] = []
    all_conv: list[np.ndarray] = []
    best_price, best_key = None, (True, np.inf)

    for sweep in range(refine + 1):
        grid = price_grid(axes)
        out = solve_nash_batch(instance, fixed_price_f2(instance, grid), f1=f1,
                               max_iter=max_iter, tol=tol)
        j_vals = government_cost(out["sigma_final"], instance.government)
        conv = out["converged"]
        pass_axes.append(axes)
        all_j.append(j_vals)
        all_conv.append(conv)
        del out                 # not held while the next pass solves
        k = int(np.lexsort((j_vals, ~conv))[0])
        key = (not conv[k], float(j_vals[k]))
        if key < best_key:
            best_key = key
            best_price = grid[k].copy()
        if sweep < refine:
            cells = [axis[1] - axis[0] for axis in axes]
            axes = [
                np.linspace(max(0.0, best_price[d] - cells[d] / 2),
                            min(p_max, best_price[d] + cells[d] / 2), resolution)
                for d in range(m)
            ]

    report = solve_nash(instance, prices=best_price, max_iter=max_iter, tol=tol)
    return GridSearchResult(best_price, report, pass_axes,
                            np.concatenate(all_j), np.concatenate(all_conv))


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
    comparison_converged: dict[str, bool]
    grid_result: GridSearchResult | None = None
    sweep: robustness.SweepResult | None = None
    written: list[str] = field(default_factory=list)   # artifact names, in order

    @property
    def files(self) -> dict[str, Path]:
        """Path of every artifact the run wrote, by name."""
        return {name: self.out_dir / name for name in self.written}

    @property
    def converged(self) -> bool:
        """Did every solve whose J_G this run writes meet its tolerance:
        the upper solve and each comparison row?"""
        return self.upper.converged and all(self.comparison_converged.values())


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
    """Simulation to surge prices on ``scenario`` (the packaged demo when
    None), with CSV artifacts along the way."""
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[str] = []
    seconds: dict[str, float] = {}     # wall time per stage

    if scenario is None:
        scenario = scenario_mod.demo_scenario()
    if config.seed is not None:     # a copy: the caller's scenario keeps its seed
        scenario = dataclasses.replace(scenario, seed=config.seed)

    snapshot = _stage("simulate", seconds)(scenario_mod.simulate_period, scenario)
    build = _stage("estimate", seconds)(build_game, scenario, snapshot)
    instance = build.instance
    flat = np.full(instance.n_stations, FLAT_PRICE)
    _write(written, out_dir, "snapshot.csv", scenario_mod.snapshot_rows(snapshot))

    t0 = time.perf_counter()
    grid_result = None
    charged = None      # the one price vector a fixed-price mechanism charges
    if config.mechanism == "rsg":
        upper = _stage("solve-upper", seconds)(
            solve_nash, instance, max_iter=config.max_iter, tol=config.tol)
    elif config.mechanism == "fixed-price":
        charged = flat if config.fixed_price is None else config.fixed_price
        upper = _stage("solve-upper", seconds)(
            solve_nash, instance, prices=charged, max_iter=config.max_iter,
            tol=config.tol)
    else:
        grid_result = _stage("grid-search", seconds)(
            grid_search, instance, config.p_max, config.resolution,
            config.refine, config.max_iter, config.tol)
        upper = grid_result.report
        charged = grid_result.best_price
    upper_seconds = time.perf_counter() - t0

    comparison: dict[str, tuple[float, np.ndarray]] = {}
    comparison_converged: dict[str, bool] = {}
    if config.mechanism == "rsg" and config.compare:
        base = _stage("baseline", seconds)(solve_nash, instance, prices=flat,
                                           max_iter=config.max_iter, tol=config.tol)
        grid_result = _stage("grid-search", seconds)(
            grid_search, instance, config.p_max, config.resolution,
            config.refine, config.max_iter, config.tol)
        reports = {"p_base": base, "grid": grid_result.report, "rsg": upper}
        comparison = {name: (r.j_g, r.sigma) for name, r in reports.items()}
        comparison_converged = {name: r.converged for name, r in reports.items()}

    _write(written, out_dir, "convergence.csv", _convergence_rows(upper))

    blocks = upper.blocks
    prices_at_eq = []
    targets = []
    surge_solutions = []
    sigma = upper.sigma
    for i in range(instance.n_companies):
        if charged is None:     # rsg: the feedback price aligned at company i's split
            sigma_others = sigma - instance.fleet_sizes[i] * blocks[i]
            prices_at_eq.append(system_optimal_prices(instance, i, blocks[i], sigma_others))
        else:
            prices_at_eq.append(np.asarray(charged, dtype=float))
        target = _stage("discretize", seconds)(discretize, blocks[i], build.feas[i])
        targets.append(target)
        sol = _stage("solve-lower", seconds)(
            surge.two_step, target, build.drivers[i], prices_at_eq[i])
        surge_solutions.append(sol)

    _write(written, out_dir, "prices_table.csv",
           _prices_table_rows(instance, blocks, prices_at_eq, sigma))
    if comparison:
        _write(written, out_dir, "comparison.csv", _comparison_rows(comparison))
    _write(written, out_dir, "surge_prices.csv",
           surge.surge_price_rows(surge_solutions))
    _write(written, out_dir, "allocation.csv",
           _allocation_rows(instance, blocks, targets))

    sweep = None
    if config.run_robustness:
        baselines = dict(REFERENCE_GRID_PRICES) if instance.n_stations == 4 else {}
        baselines["base"] = flat
        sweep = _stage("robustness", seconds)(
            robustness.robustness_sweep, instance, config.alphas, config.samples,
            baselines, scenario.seed, config.max_iter, config.tol)
        _write(written, out_dir, "robustness.csv", sweep.to_csv_rows())

    meta = {
        "mechanism": config.mechanism,
        "upper_solve_seconds": upper_seconds,
        "iterations": upper.iterations,
        "converged": upper.converged,
        "residual": float(upper.residuals[-1]),
        "j_g": upper.j_g,
        "charging_fleet": [int(c.fleet_size) for c in instance.companies],
        "stage_seconds": seconds,
        "projector_paths": [p.path for p in instance.polytopes],
        "surge_modes": [{"mode": sol.mode, "solver_info": sol.solver_info}
                        for sol in surge_solutions],
    }
    if comparison_converged:
        meta["comparison_converged"] = comparison_converged
    if grid_result is not None:
        meta["grid_rows"] = int(grid_result.evaluated_converged.size)
        meta["grid_unconverged"] = int(np.sum(~grid_result.evaluated_converged))
    if sweep is not None:
        meta["robustness_rows"] = len(sweep.rows)
        meta["robustness_unconverged"] = sum(not r.converged for r in sweep.rows)
    (out_dir / "run_meta.json").write_text(json.dumps(meta, indent=2) + "\n")

    return PipelineResult(out_dir, build, upper, upper_seconds, config.mechanism,
                          prices_at_eq, targets, surge_solutions, comparison,
                          comparison_converged, grid_result, sweep, written)


def _write(written: list, out_dir: Path, name: str, rows) -> None:
    (out_dir / name).write_text("\n".join(rows) + "\n")
    written.append(name)


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
