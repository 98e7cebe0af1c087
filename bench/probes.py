"""Call-boundary probes: operation accounting and the traced run's spans.

Every probe replaces a public function at the name its callers look up
(``harness.solve_nash_batch``, ``surge.hall_condition``, ...) and puts the
original back when the probe closes. Nothing inside the program changes.

* Untraced runs install only the accounting probes on the equilibrium
  boundaries: they read ``converged`` from each solve's return value, so a
  game that stopped at ``max_iter`` counts as failed.
* Traced runs install every probe. Each call becomes a span
  (name, start, end, parent) kept in memory; per-layer metrics are sums of
  span durations, self times (duration minus the direct children) and
  counters read from arguments and return values.
"""

from __future__ import annotations

import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from chargegame import feasible, harness, qp, robustness, scenario, surge

# (module or class, attribute, span name); the attribute is what callers look up
TRACED = [
    (harness, "run_pipeline", "harness.run_pipeline"),
    (harness, "build_game", "scenario.build_game"),
    (scenario, "simulate_period", "scenario.simulate_period"),
    (scenario, "admissible_polytope", "feasible.admissible_polytope"),
    (feasible, "hall_condition", "feasible.hall_condition"),
    (surge, "hall_condition", "feasible.hall_condition"),
    (harness, "discretize", "feasible.discretize"),
    (qp.PolytopeProjector, "project_batch", "qp.project_batch"),
    (qp, "project_polytope", "qp.project_weighted"),
    (harness, "grid_search", "harness.grid_search"),
    (robustness, "robustness_sweep", "robustness.sweep"),
    (robustness, "build_perturbation", "robustness.build_perturbation"),
    (robustness, "jg_gap_bound", "robustness.jg_gap_bound"),
    (robustness, "best_response_gap", "robustness.best_response_gap"),
    (surge, "two_step", "surge.two_step"),
    (surge, "equal_price_solve", "surge.equal_price_solve"),
    (surge, "assign_vehicles", "surge.assign_vehicles"),
    (surge, "verify_zero_cost", "surge.verify_zero_cost"),
]

# equilibrium boundaries, probed in every run for the failure accounting
SOLVES = [
    (harness, "solve_nash", "equilibrium.solve_nash"),
    (robustness, "solve_nash", "equilibrium.solve_nash"),
    (harness, "solve_nash_batch", "equilibrium.solve_nash_batch"),
    (robustness, "solve_nash_batch", "equilibrium.solve_nash_batch"),
]


class Probe:
    """Installs the wrappers, records spans and counters, restores on close."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.batches: list[dict] = []   # every solve_nash_batch return, in call order
        self._saved: list[tuple] = []
        self.missing: list[str] = []    # probe sites the program no longer has

    # -- installation ------------------------------------------------------

    def __enter__(self) -> "Probe":
        sites = SOLVES + (TRACED if self.traced else [])
        for owner, attr, name in sites:
            original = owner.__dict__.get(attr)
            if original is None:        # renamed or removed: its figures read 0
                self.missing.append(f"{owner.__name__}.{attr}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        if self.traced:
            original = qp.__dict__.get("_solve_kkt")
            if original is None:
                self.missing.append("chargegame.qp._solve_kkt")
            else:
                self._saved.append((qp, "_solve_kkt", original))
                setattr(qp, "_solve_kkt", self._count_kkt(original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        traced = self.traced

        def probe(*args, **kwargs):
            if not traced:
                result = fn(*args, **kwargs)
                after(args, kwargs, result)
                return result
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.starts.append(0.0)
            self.ends.append(0.0)
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = time.perf_counter()
                self.starts[idx] = start
                self._stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        probe.__wrapped__ = fn
        return probe

    def _count_kkt(self, fn):
        """Count KKT solves and the ones that fall back to least squares.

        The fallback is taken when ``np.linalg.solve`` rejects B B^T as
        singular. The probe repeats that factorization once per distinct
        B (a working set) to see it. No span: the solves are too small and
        too many.
        """
        counts = self.counts
        singular: dict[tuple, bool] = {}

        def probe(b_mat, rhs):
            counts["kkt_solves"] += 1
            key = (b_mat.shape, b_mat.tobytes())
            if key not in singular:
                try:
                    np.linalg.solve(b_mat @ b_mat.T, np.ones(b_mat.shape[0]))
                    singular[key] = False
                except np.linalg.LinAlgError:
                    singular[key] = True
            counts["kkt_lstsq"] += singular[key]
            return fn(b_mat, rhs)

        probe.__wrapped__ = fn
        return probe

    # -- counters read at the call boundary --------------------------------

    def _after_equilibrium_solve_nash(self, args, kwargs, report):
        self.counts["games"] += 1
        self.counts["games_failed"] += 0 if report.converged else 1
        self.counts["solve_nash_calls"] += 1
        self.counts["solve_nash_iterations"] += report.iterations

    def _after_equilibrium_solve_nash_batch(self, args, kwargs, out):
        iters = out["iterations"]
        rows = int(iters.size)
        self.batches.append({"per_row_f1": kwargs.get("f1_rows") is not None,
                             "converged": out["converged"].copy()})
        self.counts["games"] += rows
        failed = int(np.count_nonzero(~out["converged"]))
        self.counts["games_failed"] += failed
        self.counts["batch_unconverged"] += failed
        self.counts["batch_rows"] += rows
        self.counts["row_rounds_live"] += int(iters.sum())
        self.counts["row_rounds_projected"] += rows * int(iters.max(initial=0))

    def _after_qp_project_batch(self, args, kwargs, out):
        self.counts["project_batch_calls"] += 1
        self.counts["project_batch_rows"] += out.shape[0]

    def _after_qp_project_weighted(self, args, kwargs, out):
        self.counts["project_weighted_calls"] += 1

    def _after_feasible_hall_condition(self, args, kwargs, out):
        self.counts["hall_condition_calls"] += 1

    def _after_surge_two_step(self, args, kwargs, sol):
        self.counts["two_step_calls"] += 1
        self.counts["per_vehicle"] += sol.mode == "per-vehicle"

    def _after_surge_equal_price_solve(self, args, kwargs, sol):
        self.counts["equal_price_calls"] += 1
        self.counts["equal_price_search"] += sol.solver_info.startswith("local search")

    def _after_harness_grid_search(self, args, kwargs, res):
        self.counts["grid_games"] += res.evaluated_prices.shape[0]

    def games(self) -> tuple[int, int]:
        """Equilibrium games solved and failed so far."""
        return int(self.counts["games"]), int(self.counts["games_failed"])

    def games_since(self, before: tuple[int, int]) -> tuple[int, int]:
        now = self.games()
        return now[0] - before[0], now[1] - before[1]

    # -- span arithmetic ---------------------------------------------------

    def span_times(self) -> tuple[dict, dict]:
        """Total and self seconds per span name."""
        start = np.asarray(self.starts)
        dur = np.asarray(self.ends) - start
        parents = np.asarray(self.parents, dtype=int)
        child_sum = np.zeros(dur.size)
        has_parent = parents >= 0
        np.add.at(child_sum, parents[has_parent], dur[has_parent])
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for name, d, c in zip(self.names, dur, child_sum):
            total[name] += d
            own[name] += d - c
        return total, own

    def layer_metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-layer figures per round of the workload (value, unit)."""
        total, own = self.span_times()
        c = self.counts

        def per(v):
            return float(v) / rounds

        def ratio(a, b):
            return float(a) / b if b else 0.0

        return {
            "scenario.simulate_period_s": (per(total["scenario.simulate_period"]), "s"),
            "scenario.build_game_self_s": (per(own["scenario.build_game"]), "s"),
            "feasible.admissible_polytope_s": (per(total["feasible.admissible_polytope"]), "s"),
            "feasible.hall_condition_calls": (per(c["hall_condition_calls"]), "count"),
            "feasible.hall_condition_s": (per(total["feasible.hall_condition"]), "s"),
            "feasible.discretize_s": (per(total["feasible.discretize"]), "s"),
            "qp.project_batch_calls": (per(c["project_batch_calls"]), "count"),
            "qp.project_batch_rows": (per(c["project_batch_rows"]), "count"),
            "qp.rows_per_call": (ratio(c["project_batch_rows"], c["project_batch_calls"]),
                                 "rows/call"),
            "qp.project_batch_s": (per(total["qp.project_batch"]), "s"),
            "qp.kkt_solves": (per(c["kkt_solves"]), "count"),
            "qp.kkt_lstsq_share": (ratio(c["kkt_lstsq"], c["kkt_solves"]), "ratio"),
            "qp.project_weighted_calls": (per(c["project_weighted_calls"]), "count"),
            "qp.project_weighted_s": (per(total["qp.project_weighted"]), "s"),
            "equilibrium.solve_nash_calls": (per(c["solve_nash_calls"]), "count"),
            "equilibrium.solve_nash_iterations": (per(c["solve_nash_iterations"]), "count"),
            "equilibrium.solve_nash_self_s": (per(own["equilibrium.solve_nash"]), "s"),
            "equilibrium.batch_rows": (per(c["batch_rows"]), "count"),
            "equilibrium.batch_self_s": (per(own["equilibrium.solve_nash_batch"]), "s"),
            "equilibrium.row_rounds_live": (per(c["row_rounds_live"]), "count"),
            "equilibrium.row_rounds_projected": (per(c["row_rounds_projected"]), "count"),
            "equilibrium.live_round_ratio": (ratio(c["row_rounds_live"],
                                                   c["row_rounds_projected"]), "ratio"),
            "equilibrium.rows_unconverged": (per(c["batch_unconverged"]), "count"),
            "robustness.build_perturbation_s": (per(total["robustness.build_perturbation"]), "s"),
            "robustness.jg_gap_bound_s": (per(total["robustness.jg_gap_bound"]), "s"),
            "robustness.best_response_gap_s": (per(total["robustness.best_response_gap"]), "s"),
            "robustness.sweep_self_s": (per(own["robustness.sweep"]), "s"),
            "surge.two_step_calls": (per(c["two_step_calls"]), "count"),
            "surge.two_step_s": (per(total["surge.two_step"]), "s"),
            "surge.equal_price_search_share": (ratio(c["equal_price_search"],
                                                     c["equal_price_calls"]), "ratio"),
            "surge.per_vehicle_share": (ratio(c["per_vehicle"], c["two_step_calls"]), "ratio"),
            "surge.assign_vehicles_s": (per(total["surge.assign_vehicles"]), "s"),
            "surge.verify_zero_cost_s": (per(total["surge.verify_zero_cost"]), "s"),
            "harness.grid_search_s": (per(total["harness.grid_search"]), "s"),
            "harness.grid_games": (per(c["grid_games"]), "count"),
            "harness.pipeline_self_s": (per(own["harness.run_pipeline"]), "s"),
        }

    def write_spans(self, path: Path, origin: float) -> None:
        """One CSV row per span; times in seconds from ``origin``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write("span,name,start_s,end_s,parent\n")
            for k, (name, s, e, p) in enumerate(zip(self.names, self.starts,
                                                    self.ends, self.parents)):
                fh.write(f"{k},{name},{s - origin:.9f},{e - origin:.9f},{p}\n")
