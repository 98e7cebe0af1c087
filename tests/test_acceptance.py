"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS line per
criterion; any failure is a failed criterion.
"""

import time

import numpy as np
import pytest

from chargegame.equilibrium import (aggregates, default_start, game_map, solve_nash,
                                    step_bound)
from chargegame.harness import ExperimentConfig, grid_search, run_pipeline
from chargegame.model import government_cost, system_optimal_prices
from chargegame.robustness import robustness_sweep
from chargegame.scenario import mfd_speed
from chargegame.surge import two_step

from conftest import (dense_f1, driver_best_response, lambda_max_closed_form,
                      random_simplex, recorded_solve, reduced_cost)
from test_equilibrium import make_instance, qp_oracle
from test_feasible import hall_oracle_disagreements
from test_surge import make_driver, random_feasible_target


def _report(num, text):
    print(f"\nACCEPTANCE {num}: PASS — {text}")


def test_criterion_1_exact_potential_identity(ref_game):
    inst = ref_game
    rng = np.random.default_rng(10)
    h = 1e-6
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        blocks = np.stack([random_simplex(rng, 4) for _ in range(3)])
        i = int(rng.integers(3))
        sig_others = aggregates(inst, blocks)[0] - \
            inst.fleet_sizes[i] * blocks[i]
        for k in range(4):
            e = np.zeros(4)
            e[k] = h
            gi = (reduced_cost(inst, i, blocks[i] + e, sig_others)
                  - reduced_cost(inst, i, blocks[i] - e, sig_others)) / (2 * h)

            def j_g(xi):
                return government_cost(sig_others + inst.fleet_sizes[i] * xi,
                                       inst.government)

            gg = (j_g(blocks[i] + e) - j_g(blocks[i] - e)) / (2 * h)
            rel = abs(gi - gg) / max(1.0, abs(gg))
            worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-6
    assert elapsed < 1.0
    _report(1, f"potential gradients agree (worst rel err {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_2_equilibrium_minimizes_authority_loss(ref_game):
    t0 = time.perf_counter()
    rep = solve_nash(ref_game, max_iter=1000)
    elapsed = time.perf_counter() - t0
    assert rep.iterations <= 1000
    assert rep.j_g <= 1e-4
    _, j_oracle = qp_oracle(ref_game, default_start(ref_game))
    assert abs(rep.j_g - j_oracle) <= 1e-4 * max(1.0, abs(j_oracle))
    assert elapsed < 3.0
    _report(2, f"J_G={rep.j_g:.2e} in {rep.iterations} iterations "
               f"({elapsed:.2f}s), oracle gap {abs(rep.j_g - j_oracle):.2e}")


def test_criterion_3_equilibrium_unique_across_starts(ref_game):
    # corner-pinned game: the equilibrium is provably a single point
    inst = make_instance([24, 17], np.array([1.0, 0.7, 1.3]),
                         np.array([41.0, 0.0, 0.0]), seed=4)
    rng = np.random.default_rng(11)
    sols = []
    for _ in range(10):
        x0 = np.concatenate([
            poly.project(random_simplex(rng, 3)) for poly in inst.polytopes
        ])
        rep = solve_nash(inst, x0=x0, tol=1e-11, max_iter=4000)
        assert rep.converged
        sols.append(rep.x)
    spread = np.max(np.abs(np.stack(sols) - sols[0]))
    assert spread <= 1e-4

    # aggregate uniqueness also holds on the reference-scale game
    sigmas = []
    for _ in range(10):
        x0 = np.concatenate([
            poly.project(random_simplex(rng, 4)) for poly in ref_game.polytopes
        ])
        sigmas.append(solve_nash(ref_game, x0=x0).sigma)
    sigma_spread = np.max(np.abs(np.stack(sigmas) - sigmas[0]))
    assert sigma_spread <= 1e-4
    _report(3, f"10 starts agree componentwise (spread {spread:.2e}); "
               f"aggregate spread {sigma_spread:.2e}")


def test_criterion_4_step_bound_and_monotonicity(ref_game):
    dense = float(np.linalg.eigvalsh(dense_f1(ref_game))[-1])
    closed = lambda_max_closed_form(ref_game)
    rel = abs(closed - dense) / dense
    assert rel <= 1e-10

    gamma = 0.99 * step_bound(game_map(ref_game)[0])
    out = recorded_solve(ref_game, gammas=gamma, tol=1e-13, max_iter=4000)
    dists = np.linalg.norm(out["iterates"][:, 0] - out["x"], axis=1)
    worst_increase = float(np.diff(dists).max())
    assert worst_increase <= 1e-12
    _report(4, f"closed-form lambda rel err {rel:.1e}; distances nonincreasing "
               f"(worst step {worst_increase:.1e})")


def test_criterion_5_hall_equals_maxflow():
    subset_bad, maxflow_bad = hall_oracle_disagreements(np.random.default_rng(12))
    assert (subset_bad, maxflow_bad) == (0, 0)
    _report(5, "1000 random instances, targets summing to n, n - 1 and n + 1: "
               "assignment check == subset-enumeration oracle == max-flow oracle")


def test_criterion_6_surge_tracking_always_exact():
    rng = np.random.default_rng(13)
    for _ in range(50):
        m = 4
        n_v = int(rng.integers(5, 200))
        drivers = [make_driver(rng, m) for _ in range(n_v)]
        target = random_feasible_target(rng, drivers, m)
        prices = rng.uniform(0, 4, m)
        sol = two_step(target, drivers, prices)
        assert sol.j_m == 0.0
        responses = np.array([
            driver_best_response(d, sol.surge[v], prices)
            for v, d in enumerate(drivers)
        ])
        assert np.array_equal(responses, sol.assignment)
        assert np.array_equal(np.bincount(responses, minlength=m), target)
    _report(6, "50 random fleets: zero tracking cost, responses = assignments")


def test_criterion_7_mechanism_ordering(demo_build):
    inst = demo_build.instance
    rsg = solve_nash(inst)
    grid = grid_search(inst, p_max=5.0, resolution=5, refine=1)
    base = solve_nash(inst, prices=np.full(4, 3.0))
    assert rsg.j_g <= 1e-4
    assert rsg.j_g < grid.j_g < base.j_g
    _report(7, f"J_G: rsg {rsg.j_g:.2e} < grid {grid.j_g:.4g} "
               f"< flat {base.j_g:.4g}")


def test_criterion_8_price_ranking_follows_demand(demo_build):
    inst = demo_build.instance
    z = demo_build.share
    assert z[0] > z[2] > z[1] > z[3]  # demand-ranked regions
    rep = solve_nash(inst)
    blocks = rep.blocks
    for i in range(inst.n_companies):
        sig_others = rep.sigma - inst.fleet_sizes[i] * blocks[i]
        p = system_optimal_prices(inst, i, blocks[i], sig_others)
        assert p[0] > p[2] > p[1] > p[3], f"company {i}: {p}"
    _report(8, "equilibrium prices ranked station 1 > 3 > 2 > 4 for every company")


def test_criterion_9_robustness_sweep(demo_build):
    inst = demo_build.instance
    baselines = {
        "p1": np.array([2.75, 1.625, 2.208, 1.0]),
        "p2": np.array([4.03, 2.8, 3.49, 2.24]),
    }
    t0 = time.perf_counter()
    sweep = robustness_sweep(inst, (0.0, 0.05, 0.1, 0.15, 0.25, 0.35), 100,
                             baselines, seed=21)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0

    rsg_means = sweep.mean("rsg")
    worst_baseline = max(sweep.mean("p1").max(), sweep.mean("p2").max())
    span = worst_baseline - sweep.j_star
    for a_idx, alpha in enumerate(sweep.alphas):
        if alpha <= 0.15:
            assert rsg_means[a_idx] - sweep.j_star <= 0.10 * span

    ok = sweep.assumption_ok
    assert np.all(sweep.gap_observed[ok] <= sweep.gap_bounds[ok] + 1e-9)
    assert np.all(sweep.eps_observed[ok] <= sweep.eps_bound + 1e-9)
    _report(9, f"sweep {elapsed:.0f}s; RSG means {np.round(rsg_means, 3).tolist()}; "
               f"bounds hold on all {int(ok.sum())} assumption-satisfying samples")


def test_criterion_10_congestion_law_checkpoints():
    assert mfd_speed(0) == pytest.approx(36.0)
    assert mfd_speed(60_000) == 0.0
    gap = abs(mfd_speed(36_000) - 6.31)
    assert gap <= 0.02
    _report(10, f"v(0)=36, v(60000)=0, breakpoint gap {gap:.4f}")


def test_criterion_11_deterministic_artifacts(tmp_path):
    names = ("snapshot.csv", "convergence.csv", "prices_table.csv",
             "comparison.csv", "surge_prices.csv", "allocation.csv")
    outs = []
    for run in range(2):
        cfg = ExperimentConfig(out_dir=str(tmp_path / f"run{run}"),
                               resolution=3, refine=0)
        outs.append(run_pipeline(cfg))
    for name in names:
        a = (outs[0].out_dir / name).read_bytes()
        b = (outs[1].out_dir / name).read_bytes()
        assert a == b, f"{name} differs between identically seeded runs"
    _report(11, f"{len(names)} CSV artifacts byte-identical across reruns")
