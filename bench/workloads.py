"""The benchmark's three workloads.

Each workload builds its inputs in ``setup`` (plus one warm-up call), runs
one *round* of operations per ``run_round`` call, and checks the outputs of
all rounds in ``check``, outside the timed part. Rounds of one workload
are identical operations, so the share of failed operations is the same
in every run, however many rounds fit in it.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from chargegame import harness, robustness
from chargegame.errors import ChargeGameError
from chargegame.harness import DEFAULT_FLAT_PRICE, REFERENCE_GRID_PRICES, ExperimentConfig
from chargegame.scenario import demo_scenario, reference_game

import checks

# online_periods: the fleet seeds of the operating periods one round serves
PERIOD_FLEET_SEEDS = tuple(range(1000, 1040))
WARMUP_FLEET_SEED = 9            # the demo city's own seed, outside the pool

# sweep_partial_reach: fixed inputs; its unconverged solves repeat exactly
SWEEP_GAME_SEED = 0
SWEEP_SEED = 0
SWEEP_ALPHAS = (0.0, 0.05)
SWEEP_SAMPLES = 4


class Round:
    """What one round produced: per-operation latencies, outputs, and the
    operations attempted and failed."""

    def __init__(self):
        self.latencies: list[float] = []
        self.outputs: list = []
        self.attempted = 0
        self.failed = 0
        self.seconds = 0.0


class OnlinePeriods:
    """Per-period decisions: ``run_pipeline(compare=False)``, one fleet per period."""

    name = "online_periods"

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir / self.name

    def setup(self, seed: int):
        scenario = demo_scenario()
        order = np.random.default_rng(seed % 2**32).permutation(PERIOD_FLEET_SEEDS)
        harness.run_pipeline(self._config(WARMUP_FLEET_SEED), scenario)
        return scenario, [int(s) for s in order]

    def _config(self, fleet_seed: int) -> ExperimentConfig:
        return ExperimentConfig(compare=False, seed=fleet_seed, out_dir=str(self.out_dir))

    def run_round(self, state, probe) -> Round:
        scenario, order = state
        out = Round()
        for fleet_seed in order:
            out.attempted += 1
            t0 = time.perf_counter()
            try:
                result = harness.run_pipeline(self._config(fleet_seed), scenario)
            except ChargeGameError as exc:
                out.failed += 1
                out.outputs.append((fleet_seed, exc))
            else:
                out.outputs.append((fleet_seed, result))
            out.latencies.append(time.perf_counter() - t0)
        return out

    def check(self, log: checks.CheckLog, state, rounds) -> None:
        for rnd in rounds:
            for fleet_seed, result in rnd.outputs:
                if not isinstance(result, Exception):
                    checks.check_pipeline(log, result, None, f"period {fleet_seed}")


class PipelineFullReach:
    """The CLI pipeline: default ``run_pipeline`` with both baselines."""

    name = "pipeline_full_reach"

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir / self.name

    def setup(self, seed: int):
        scenario = demo_scenario()
        warm = ExperimentConfig(compare=False, out_dir=str(self.out_dir))
        harness.run_pipeline(warm, scenario)
        return scenario

    def run_round(self, scenario, probe) -> Round:
        out = Round()
        games = probe.games()
        t0 = time.perf_counter()
        result = harness.run_pipeline(ExperimentConfig(out_dir=str(self.out_dir)), scenario)
        out.latencies.append(time.perf_counter() - t0)
        out.attempted, out.failed = probe.games_since(games)
        out.outputs.append(result)
        return out

    def check(self, log: checks.CheckLog, scenario, rounds) -> None:
        flat = DEFAULT_FLAT_PRICE[: scenario.n_stations]
        for k, rnd in enumerate(rounds):
            checks.check_pipeline(log, rnd.outputs[0], flat, f"pipeline call {k}")


class SweepPartialReach:
    """Noise sweep on the partial-reach reference game, bounds checked."""

    name = "sweep_partial_reach"

    def __init__(self, out_dir: Path):
        pass

    def setup(self, seed: int):
        instance = reference_game(seed=SWEEP_GAME_SEED, generous=False)
        baselines = dict(REFERENCE_GRID_PRICES)
        baselines["base"] = DEFAULT_FLAT_PRICE
        baselines = {k: v[: instance.n_stations] for k, v in baselines.items()}
        robustness.robustness_sweep(instance, (0.0,), 1)
        return instance, baselines

    def run_round(self, state, probe) -> Round:
        instance, baselines = state
        out = Round()
        games = probe.games()
        first_batch = len(probe.batches)
        t0 = time.perf_counter()
        sweep = robustness.robustness_sweep(instance, SWEEP_ALPHAS, SWEEP_SAMPLES,
                                            baselines, seed=SWEEP_SEED)
        out.latencies.append(time.perf_counter() - t0)
        out.attempted, out.failed = probe.games_since(games)
        rsg = [b["converged"] for b in probe.batches[first_batch:] if b["per_row_f1"]]
        out.outputs.append((sweep, np.array(rsg)))
        return out

    def check(self, log: checks.CheckLog, state, rounds) -> None:
        instance, baselines = state
        for k, rnd in enumerate(rounds):
            sweep, rsg_converged = rnd.outputs[0]
            checks.check_sweep(log, sweep, instance, baselines, rsg_converged,
                               f"sweep call {k}")


WORKLOADS = {w.name: w for w in (OnlinePeriods, PipelineFullReach, SweepPartialReach)}
