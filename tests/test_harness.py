"""Baselines, grid search, pipeline artifacts, and the CLI surface."""

import dataclasses
import gc
import json
import tracemalloc
from itertools import product

import numpy as np
import pytest

from chargegame.cli import main as cli_main
from chargegame.equilibrium import solve_nash
from chargegame.harness import ExperimentConfig, grid_search, price_grid, run_pipeline
from chargegame.scenario import (demo_scenario, reference_game, simulate_period,
                                 small_scenario, snapshot_rows, write_scenario)

from conftest import nash_residual


@pytest.fixture(scope="module")
def demo_instance(demo_build):
    return demo_build.instance


class TestFixedPriceNash:
    def test_residual_at_solution(self, ref_game):
        prices = np.full(4, 3.0)
        rep = solve_nash(ref_game, prices=prices)
        assert rep.converged
        assert nash_residual(ref_game, rep.x, rep.gamma, prices=prices) <= 1e-8

    def test_constant_price_shift_invariance(self):
        # demand proportional to the identity and zero revenue: a uniform
        # price only adds a constant per company, so the split is unchanged
        inst = reference_game(seed=3)
        flat = inst.with_demand([np.full(4, 50.0) for _ in inst.companies])
        comps = tuple(dataclasses.replace(c, revenue=np.zeros(4))
                      for c in flat.companies)
        flat = dataclasses.replace(flat, companies=comps)
        a = solve_nash(flat, prices=np.zeros(4), tol=1e-11)
        b = solve_nash(flat, prices=np.full(4, 2.5), tol=1e-11)
        assert np.allclose(a.x, b.x, atol=1e-6)

    def test_rejects_negative_prices(self, ref_game):
        with pytest.raises(ValueError):
            solve_nash(ref_game, prices=np.array([1.0, -0.5, 1.0, 1.0]))

    def test_base_price_skews_to_attractive_stations(self, demo_instance):
        rep = solve_nash(demo_instance, prices=np.full(4, 3.0))
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

    def test_grid_rows_in_product_order(self, demo_instance):
        rng = np.random.default_rng(3)
        for sizes in ((1,), (3, 1), (2, 3, 4), (4, 4, 4, 4)):
            axes = [np.sort(rng.uniform(0, 5, k)) for k in sizes]
            assert np.array_equal(price_grid(axes), np.array(list(product(*axes))))
        res = grid_search(demo_instance, p_max=5.0, resolution=3, refine=1)
        want = np.vstack([np.array(list(product(*axes))) for axes in res.pass_axes])
        assert np.array_equal(res.evaluated_prices, want)
        assert want.shape == (2 * 3 ** 4, 4) == (res.evaluated_j_g.size, 4)

    @pytest.mark.parametrize("resolution,refine", [(1, 1), (0, 0), (3, -1), (9, -2)])
    def test_rejects_pass_counts_it_cannot_run(self, demo_instance, resolution, refine):
        with pytest.raises(ValueError):
            grid_search(demo_instance, resolution=resolution, refine=refine)

    def test_prefers_a_converged_incumbent(self, demo_instance):
        # at 60 rounds most rows stop unconverged, the lowest J_G among them
        res = grid_search(demo_instance, max_iter=60)
        conv, j_g = res.evaluated_converged, res.evaluated_j_g
        assert conv.any() and not conv[np.argmin(j_g)]
        best = np.flatnonzero(conv)[np.argmin(j_g[conv])]
        assert np.array_equal(res.evaluated_prices[best], res.best_price)
        assert res.report.converged

    def test_single_point_grid(self, demo_instance):
        res = grid_search(demo_instance, resolution=1, refine=0)
        assert np.array_equal(res.evaluated_prices, np.zeros((1, 4)))

    def test_memory_peak(self, demo_instance):
        # each pass drops the previous pass's engine output, and a round
        # holds no stacked copies of the (rows, companies, stations) iterate
        grid_search(demo_instance, resolution=2, refine=0)
        tracemalloc.start()
        try:
            grid_search(demo_instance)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5e6, f"{peak / 1e6:.2f} MB"


class TestMechanismOrdering:
    def test_rsg_beats_grid_beats_flat(self, demo_instance):
        rsg = solve_nash(demo_instance)
        grid = grid_search(demo_instance, resolution=5, refine=1)
        base = solve_nash(demo_instance, prices=np.full(4, 3.0))
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
        assert set(stages) == {"simulate", "estimate", "solve-upper", "baseline",
                               "grid-search", "discretize", "solve-lower"}
        assert all(t > 0 for t in stages.values())
        assert meta["projector_paths"] == ["simplex"] * pipe.build.instance.n_companies
        converged = pipe.grid_result.evaluated_converged
        assert meta["grid_rows"] == converged.size == 2 * 3**4
        assert meta["grid_unconverged"] == int(np.sum(~converged)) == 0
        assert meta["residual"] == pipe.upper.residuals[-1]
        assert meta["converged"] == pipe.upper.converged
        if meta["converged"]:
            assert meta["residual"] <= ExperimentConfig().tol

    def test_retained_period_size(self, demo, tmp_path):
        # a kept per-period result holds the game, the solve, the targets
        # and the surge prices: no fleet snapshot, no per-driver objects
        # and no tiled copy of a shared surge vector
        def period(seed):
            return run_pipeline(ExperimentConfig(compare=False, seed=seed,
                                                 out_dir=str(tmp_path)), demo)

        period(9)
        tracemalloc.start()
        try:
            period(9)               # allocations made once per process
            gc.collect()
            start = tracemalloc.get_traced_memory()[0]
            kept = [period(seed) for seed in range(1000, 1010)]
            gc.collect()
            per_period = (tracemalloc.get_traced_memory()[0] - start) / len(kept)
        finally:
            tracemalloc.stop()
        assert per_period <= 30e3, f"{per_period / 1e3:.1f} KB"

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

    def test_seed_override_leaves_scenario_unchanged(self, tmp_path):
        scenario = small_scenario()
        seed = scenario.seed
        cfg = ExperimentConfig(compare=False, seed=seed + 1,
                               out_dir=str(tmp_path / "override"))
        res = run_pipeline(cfg, scenario)
        assert scenario.seed == seed
        same = run_pipeline(ExperimentConfig(compare=False, out_dir=str(tmp_path / "copy")),
                            dataclasses.replace(scenario, seed=seed + 1))
        assert set(res.files) == set(same.files)
        for name, path in res.files.items():
            assert path.read_bytes() == same.files[name].read_bytes(), name


def test_experiment_config_rejects_unknown_mechanism():
    with pytest.raises(ValueError):
        ExperimentConfig(mechanism="simulated-annealing")


def test_experiment_config_rejects_zero_rounds():
    # a run with no round has no final residual to report
    with pytest.raises(ValueError):
        ExperimentConfig(max_iter=0)


def test_experiment_config_rejects_negative_refine():
    with pytest.raises(ValueError, match="refine"):
        ExperimentConfig(refine=-1)


def test_experiment_config_rejects_repeated_alphas():
    with pytest.raises(ValueError, match="distinct"):
        ExperimentConfig(alphas=(0.0, 0.0))


class TestCLI:
    def test_make_demo_and_simulate(self, tmp_path):
        assert cli_main(["make-demo", "--out", str(tmp_path / "sc")]) == 0
        assert (tmp_path / "sc" / "scenario.json").exists()
        code = cli_main(["simulate", "--config", str(tmp_path / "sc" / "scenario.json"),
                         "--out", str(tmp_path / "sim")])
        assert code == 0
        assert (tmp_path / "sim" / "snapshot.csv").exists()

    def test_simulate_seed_copies_the_scenario(self, tmp_path):
        assert cli_main(["simulate", "--seed", "5", "--out", str(tmp_path)]) == 0
        snap = simulate_period(dataclasses.replace(demo_scenario(), seed=5))
        want = "\n".join(snapshot_rows(snap)) + "\n"
        assert (tmp_path / "snapshot.csv").read_text() == want

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

    @pytest.mark.parametrize("argv", [
        ["solve-upper", "--mechanism", "bogus"],
        ["grid-search", "--resolution", "1"],
        ["solve-upper", "--max-iter", "0"],
        ["pipeline", "--resolution", "1"],
        ["grid-search", "--p-max", "-1"],
        ["grid-search", "--p-max", "nan"],
        ["robustness", "--samples", "0"],
        ["solve-upper", "--tol", "-1"],
        ["robustness", "--alphas=-0.1"],
        ["robustness", "--alphas", "0,nan"],
        ["robustness", "--alphas", "0,0"],
        ["baseline", "--price=-1,3,3,3"],
    ])
    def test_usage_error_exit_code(self, tmp_path, argv):
        # refused before any stage runs, so nothing is written
        with pytest.raises(SystemExit) as err:
            cli_main(argv + ["--out", str(tmp_path / "o")])
        assert err.value.code == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [
        ["baseline", "--price", "1,2,3"],
        ["solve-upper", "--mechanism", "fixed-price", "--price", "1,2,3,4,5"],
    ])
    def test_price_of_the_wrong_length_is_a_usage_error(self, tmp_path, argv):
        # the demo has 4 stations; refused once the scenario loads, before
        # the simulation runs or anything is written
        with pytest.raises(SystemExit) as err:
            cli_main(argv + ["--out", str(tmp_path / "o")])
        assert err.value.code == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["simulate", "pipeline"])
    @pytest.mark.parametrize("broken", ["missing file", "no network_file"])
    def test_unreadable_config_is_a_usage_error(self, tmp_path, command, broken):
        path = tmp_path / "absent.json"
        if broken == "no network_file":
            path = write_scenario(small_scenario(), tmp_path / "sc")
            cfg = json.loads(path.read_text())
            del cfg["network_file"]
            path.write_text(json.dumps(cfg))
        with pytest.raises(SystemExit) as err:
            cli_main([command, "--config", str(path), "--out", str(tmp_path / "o")])
        assert err.value.code == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["simulate", "pipeline"])
    @pytest.mark.parametrize("broken", ["demand origin 9999", "demand origin -1",
                                        "station node 49"])
    def test_node_index_outside_the_network_is_a_usage_error(self, tmp_path, command,
                                                            broken):
        # the 7 x 7 grid has nodes 0..48; refused at load, before anything is written
        sc = small_scenario()
        if broken == "station node 49":
            sc = dataclasses.replace(sc, station_nodes=np.array([8, 16, 30, 49]))
        else:
            demand = sc.demand.copy()
            demand[5, 1] = int(broken.split()[-1])
            sc = dataclasses.replace(sc, demand=demand)
        path = write_scenario(sc, tmp_path / "sc")
        with pytest.raises(SystemExit) as err:
            cli_main([command, "--config", str(path), "--out", str(tmp_path / "o")])
        assert err.value.code == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["simulate", "solve-upper"])
    @pytest.mark.parametrize("short", ["capacities", "queue_weight", "occupancy"])
    def test_per_station_vector_of_the_wrong_length_is_a_usage_error(self, tmp_path,
                                                                     command, short):
        # a fifth station, with one per-station vector left at four entries;
        # refused at load, before anything is written
        sc = small_scenario()
        five = dict(capacities=(10.0, 20.0, 15.0, 18.0, 12.0),
                    queue_weight=(0.4, 0.1, 0.3, 0.2, 0.25),
                    occupancy=(0.35, 0.1, 0.2, 0.15, 0.1))
        five[short] = five[short][:4]
        params = dataclasses.replace(sc.params, queue_weight=five["queue_weight"],
                                     occupancy=five["occupancy"])
        sc = dataclasses.replace(sc, station_nodes=np.array([8, 16, 30, 40, 24]),
                                 capacities=np.array(five["capacities"]), params=params)
        path = write_scenario(sc, tmp_path / "sc")
        with pytest.raises(SystemExit) as err:
            cli_main([command, "--config", str(path), "--out", str(tmp_path / "o")])
        assert err.value.code == 2
        assert not (tmp_path / "o").exists()

    def test_baseline_prices_the_drivers_at_the_price_charged(self, tmp_path, demo_build):
        assert cli_main(["baseline", "--price", "3,3,3,3", "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "prices_table.csv").read_text().splitlines()
        for row in rows[1:1 + demo_build.instance.n_companies]:
            assert row.split(",")[2::2] == ["3.0"] * 4
        targets = np.zeros((demo_build.instance.n_companies, 4), dtype=int)
        for row in (tmp_path / "allocation.csv").read_text().splitlines()[1:]:
            i, j, _, n = row.split(",")
            targets[int(i), int(j)] = int(n)
        surge = [np.zeros(fleet.demand.shape) for fleet in demo_build.drivers]
        for row in (tmp_path / "surge_prices.csv").read_text().splitlines()[1:]:
            i, v, k, rho, _ = row.split(",")
            surge[int(i)][int(v), int(k)] = float(rho)
        # every driver takes its cheapest reachable station at price 3 plus surge
        for fleet, rho, target in zip(demo_build.drivers, surge, targets):
            cost = fleet.demand * 3.0 + fleet.base_revenue - fleet.surge_gain * rho
            choice = np.argmin(np.where(fleet.demand > 0, cost, np.inf), axis=1)
            assert np.bincount(choice, minlength=4).tolist() == target.tolist()

    @pytest.mark.parametrize("command", [["pipeline", "--resolution", "2"], ["baseline"],
                                         ["robustness", "--samples", "2"]])
    def test_default_prices_fit_a_five_station_game(self, tmp_path, capsys, command):
        # the flat price covers every station; the four-station case study's
        # p1 and p2 do not run
        sc = small_scenario()
        params = dataclasses.replace(sc.params, queue_weight=(0.4, 0.1, 0.3, 0.2, 0.25),
                                     occupancy=(0.35, 0.1, 0.2, 0.15, 0.1))
        sc = dataclasses.replace(sc, station_nodes=np.array([8, 16, 30, 40, 24]),
                                 capacities=np.array([10.0, 20.0, 15.0, 18.0, 12.0]),
                                 params=params)
        path = write_scenario(sc, tmp_path / "sc")
        code = cli_main(command + ["--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 0
        if command[0] == "robustness":
            means = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
            assert set(means) == {"rsg", "base"}
            rows = (tmp_path / "o" / "robustness.csv").read_text().splitlines()[1:]
            assert {r.split(",")[2] for r in rows} == {"rsg", "base"}

    @pytest.mark.parametrize("command", [
        ["grid-search", "--resolution", "2", "--refine", "0"],
        ["solve-lower"],
        ["robustness", "--samples", "1", "--alphas", "0"],
    ])
    def test_unconverged_upper_solve_exit_code(self, tmp_path, command):
        path = write_scenario(small_scenario(), tmp_path / "sc")
        code = cli_main(command + ["--config", str(path), "--out", str(tmp_path / "o"),
                                   "--max-iter", "2"])
        assert code == 4
        meta = json.loads((tmp_path / "o" / "run_meta.json").read_text())
        assert meta["converged"] is False

    def test_unconverged_baseline_exit_code(self, tmp_path):
        # the upper solve converges in 31 rounds, the flat-price one needs 74
        code = cli_main(["pipeline", "--out", str(tmp_path), "--max-iter", "60"])
        assert code == 4
        meta = json.loads((tmp_path / "run_meta.json").read_text())
        assert meta["converged"] is True
        assert meta["comparison_converged"] == {"p_base": False, "grid": True,
                                                "rsg": True}

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
