"""Baselines, grid search, pipeline artifacts, and the CLI surface."""

import json

import numpy as np
import pytest

from chargegame.cli import main as cli_main
from chargegame.equilibrium import nash_residual, solve_nash
from chargegame.harness import (ExperimentConfig, fixed_price_nash,
                                grid_search, run_pipeline)
from chargegame.scenario import reference_game, small_scenario, write_scenario


@pytest.fixture(scope="module")
def demo_instance(demo_build):
    return demo_build.instance


class TestFixedPriceNash:
    def test_residual_at_solution(self, ref_game):
        prices = np.full(4, 3.0)
        rep = fixed_price_nash(ref_game, prices)
        assert rep.converged
        assert nash_residual(ref_game, rep.x, rep.gamma, prices=prices) <= 1e-8

    def test_constant_price_shift_invariance(self):
        # demand proportional to the identity and zero revenue: a uniform
        # price only adds a constant per company, so the split is unchanged
        inst = reference_game(seed=3)
        flat = inst.with_demand([np.full(4, 50.0) for _ in inst.companies])
        import dataclasses
        comps = tuple(dataclasses.replace(c, revenue=np.zeros(4))
                      for c in flat.companies)
        flat = dataclasses.replace(flat, companies=comps)
        a = fixed_price_nash(flat, np.zeros(4), tol=1e-11)
        b = fixed_price_nash(flat, np.full(4, 2.5), tol=1e-11)
        assert np.allclose(a.x, b.x, atol=1e-6)

    def test_rejects_negative_prices(self, ref_game):
        with pytest.raises(ValueError):
            fixed_price_nash(ref_game, np.array([1.0, -0.5, 1.0, 1.0]))

    def test_base_price_skews_to_attractive_stations(self, demo_instance):
        rep = fixed_price_nash(demo_instance, np.full(4, 3.0))
        sigma = rep.sigma
        target = demo_instance.government.set_point
        assert sigma[0] > target[0]          # most attractive region overloads
        assert sigma[3] < target[3]          # least attractive region starves


class TestGridSearch:
    def test_minimum_over_evaluated_set(self, demo_instance):
        res = grid_search(demo_instance, p_max=5.0, resolution=3, refine=1)
        assert res.j_g <= res.evaluated_j_g.min() + 1e-9

    def test_tie_break_first_in_deterministic_order(self, ref_game):
        # zero demand everywhere: prices never enter the game, every grid
        # point yields the same loss, and the first point (all zeros) wins
        inst = ref_game.with_demand([np.zeros(4) for _ in ref_game.companies])
        res = grid_search(inst, p_max=2.0, resolution=3, refine=0)
        assert np.allclose(res.best_price, 0.0)

    def test_refinement_never_hurts(self, demo_instance):
        coarse = grid_search(demo_instance, p_max=5.0, resolution=3, refine=0)
        fine = grid_search(demo_instance, p_max=5.0, resolution=3, refine=1)
        assert fine.j_g <= coarse.j_g + 1e-9

    def test_reproducible(self, demo_instance):
        a = grid_search(demo_instance, p_max=5.0, resolution=3, refine=1)
        b = grid_search(demo_instance, p_max=5.0, resolution=3, refine=1)
        assert np.array_equal(a.best_price, b.best_price)
        assert a.j_g == b.j_g


class TestMechanismOrdering:
    def test_rsg_beats_grid_beats_flat(self, demo_instance):
        rsg = solve_nash(demo_instance)
        grid = grid_search(demo_instance, resolution=5, refine=1)
        base = fixed_price_nash(demo_instance, np.full(4, 3.0))
        assert rsg.j_g <= grid.j_g <= base.j_g
        assert rsg.j_g < grid.j_g < base.j_g  # strict on the packaged scenario


@pytest.fixture(scope="module")
def pipe(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipe")
    cfg = ExperimentConfig(out_dir=str(out), resolution=3, refine=1)
    return run_pipeline(cfg)


class TestPipeline:
    def test_artifacts_exist(self, pipe):
        for name in ("snapshot.csv", "convergence.csv", "prices_table.csv",
                     "comparison.csv", "surge_prices.csv", "allocation.csv"):
            assert (pipe.out_dir / name).exists()
        meta = json.loads((pipe.out_dir / "run_meta.json").read_text())
        assert 0 < meta["upper_solve_seconds"] < 3.0
        modes = meta["surge_modes"]
        assert [m["mode"] for m in modes] == [s.mode for s in pipe.surge_solutions]
        assert [m["solver_info"] for m in modes] == [
            s.solver_info for s in pipe.surge_solutions]
        rows = (pipe.out_dir / "surge_prices.csv").read_text().splitlines()[1:]
        for row in rows:
            company, *_, mode = row.split(",")
            assert mode == modes[int(company)]["mode"]

    def test_run_meta_telemetry(self, pipe):
        meta = json.loads((pipe.out_dir / "run_meta.json").read_text())
        stages = meta["stage_seconds"]
        assert set(stages) == {"simulate-and-estimate", "solve-upper", "baseline",
                               "grid-search", "discretize", "solve-lower"}
        assert all(t > 0 for t in stages.values())
        assert meta["projector_paths"] == ["simplex"] * pipe.build.instance.n_companies

    def test_upper_converged_to_floor(self, pipe):
        trace = pipe.upper.j_g_trace
        assert trace[-1] <= 1e-6
        assert trace[0] > trace[-1]

    def test_lower_level_tracks_exactly(self, pipe):
        for sol, target in zip(pipe.surge_solutions, pipe.targets):
            assert sol.j_m == 0.0
            assert np.array_equal(
                np.bincount(sol.assignment, minlength=4), target)

    def test_comparison_ordering(self, pipe):
        assert (pipe.comparison["rsg"][0]
                < pipe.comparison["grid"][0]
                < pipe.comparison["p_base"][0])

    def test_rerun_byte_identical(self, pipe, tmp_path):
        cfg = ExperimentConfig(out_dir=str(tmp_path / "again"), resolution=3,
                               refine=1)
        res2 = run_pipeline(cfg)
        for name in ("snapshot.csv", "convergence.csv", "prices_table.csv",
                     "comparison.csv", "surge_prices.csv", "allocation.csv"):
            a = (pipe.out_dir / name).read_bytes()
            b = (res2.out_dir / name).read_bytes()
            assert a == b, name


def test_experiment_config_from_json(tmp_path):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({
        "mechanism": "fixed-price",
        "fixed_price": [3.0, 3.0, 3.0, 3.0],
        "alphas": [0.0, 0.1],
        "samples": 4,
        "out_dir": str(tmp_path / "o"),
    }))
    cfg = ExperimentConfig.from_json(cfg_path)
    assert cfg.mechanism == "fixed-price"
    assert np.allclose(cfg.fixed_price, 3.0)
    assert cfg.alphas == (0.0, 0.1)


def test_experiment_config_rejects_unknown_mechanism():
    with pytest.raises(ValueError):
        ExperimentConfig(mechanism="simulated-annealing")


class TestCLI:
    def test_make_demo_and_simulate(self, tmp_path):
        assert cli_main(["make-demo", "--out", str(tmp_path / "sc")]) == 0
        assert (tmp_path / "sc" / "scenario.json").exists()
        code = cli_main(["simulate", "--config", str(tmp_path / "sc" / "scenario.json"),
                         "--out", str(tmp_path / "sim")])
        assert code == 0
        assert (tmp_path / "sim" / "snapshot.csv").exists()

    def test_solve_upper_small(self, tmp_path):
        sc = small_scenario()
        path = write_scenario(sc, tmp_path / "sc")
        code = cli_main(["solve-upper", "--config", str(path),
                         "--out", str(tmp_path / "up")])
        assert code == 0

    def test_infeasible_scenario_exit_code(self, tmp_path):
        # drain the batteries so charging vehicles cannot reach any station
        sc = small_scenario()
        sc.params.battery_init = (3.0, 4.0)
        sc.params.threshold = (55.0, 60.0)
        path = write_scenario(sc, tmp_path / "sc")
        code = cli_main(["solve-upper", "--config", str(path),
                         "--out", str(tmp_path / "up")])
        assert code == 3

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as err:
            cli_main(["solve-upper", "--mechanism", "bogus"])
        assert err.value.code == 2

    def test_robustness_subcommand(self, tmp_path, capsys):
        sc = small_scenario()
        path = write_scenario(sc, tmp_path / "sc")
        code = cli_main(["robustness", "--config", str(path),
                         "--out", str(tmp_path / "rob"),
                         "--samples", "2", "--alphas", "0,0.1",
                         "--max-iter", "150"])
        assert code == 0
        rows = (tmp_path / "rob" / "robustness.csv").read_text().splitlines()[1:]
        meta = json.loads((tmp_path / "rob" / "run_meta.json").read_text())
        assert meta["robustness_rows"] == len(rows)
        assert meta["robustness_unconverged"] == sum(r.endswith(",0") for r in rows)
        means = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(means) == {"rsg", "p1", "p2", "base"}
        assert len(means["rsg"]) == 2
