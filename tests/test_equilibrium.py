"""Game map, step bound, and the averaged projected-gradient solver."""

import numpy as np
import pytest
from scipy.optimize import LinearConstraint, minimize

from chargegame.equilibrium import (aggregates, apply_map, default_start,
                                    fixed_price_f2, game_map,
                                    lambda_max_closed_form, nash_residual,
                                    solve_nash, solve_nash_batch, step_bound)
from chargegame.feasible import FeasibilityStructure, admissible_polytope
from chargegame.harness import price_grid
from chargegame.model import (CompanyParams, GameInstance, GovernmentObjective,
                              StationSet, government_cost, reduced_cost)
from chargegame.qp import project_blocks
from chargegame.robustness import build_perturbation
from chargegame.scenario import reference_game

from conftest import dense_f1, random_simplex, recorded_solve


def make_instance(fleet, weight, set_point, seed=0, n_stations=None):
    """Generous-feasibility instance with synthetic demand/revenue."""
    rng = np.random.default_rng(seed)
    m = weight.size if n_stations is None else n_stations
    stations = StationSet(rng.uniform(5, 60, m), np.maximum(weight / 2.5, 0.05))
    gov = GovernmentObjective.from_set_point(weight, set_point)
    comps, polys = [], []
    for n_i in fleet:
        comps.append(CompanyParams.build(
            int(n_i), stations, rng.uniform(20, 80, m) * n_i, rng.normal(0, 50, m)))
        polys.append(admissible_polytope(FeasibilityStructure.full(int(n_i), m)))
    return GameInstance(stations, gov, tuple(comps), tuple(polys))


def qp_oracle(instance, x0):
    """Independent solve of the stacked authority program via trust-constr."""
    m, mc = instance.n_stations, instance.n_companies
    f1 = dense_f1(instance)
    _, f2 = game_map(instance)

    def fun(x):
        sig = aggregates(instance, x)[0]
        return government_cost(sig, instance.government)

    def jac(x):
        return f1 @ x + f2

    cons = []
    for i, poly in enumerate(instance.polytopes):
        pad_l = np.zeros((poly.g_mat.shape[0], i * m))
        pad_r = np.zeros((poly.g_mat.shape[0], (mc - i - 1) * m))
        cons.append(LinearConstraint(np.hstack([pad_l, poly.g_mat, pad_r]),
                                     -np.inf, poly.h))
        row = np.zeros(mc * m)
        row[i * m:(i + 1) * m] = 1.0
        cons.append(LinearConstraint(row[None, :], 1.0, 1.0))
    res = minimize(fun, x0, jac=jac, method="trust-constr", constraints=cons,
                   options={"gtol": 1e-12, "xtol": 1e-14, "maxiter": 3000})
    return res.x, fun(res.x)


class TestGameMap:
    def test_f2_at_origin(self, ref_game):
        f1, f2 = game_map(ref_game)
        g = apply_map(f1, np.zeros(12)) + f2
        expected = np.concatenate([
            c.fleet_size * ref_game.government.linear for c in ref_game.companies
        ])
        assert np.allclose(g, expected)

    def test_kronecker_block_identity(self, ref_game):
        # company block (i, j) of the dense map is n_i n_j diag(w); the
        # station blocks hold its diagonal
        f1, _ = game_map(ref_game)
        n_vec = ref_game.fleet_sizes
        w = ref_game.government.weight
        assert f1.shape == (4, 3, 3)
        for i in range(3):
            for j in range(3):
                assert np.array_equal(f1[:, i, j], n_vec[i] * n_vec[j] * w)

    @pytest.mark.parametrize("case", ["aligned", "fixed", "alpha=0.05", "alpha=0.35"])
    def test_blocked_map_matches_dense(self, ref_game, case):
        rng = np.random.default_rng(7)
        pert, prices = None, None
        if case == "fixed":
            prices = np.full(4, 3.0)
        elif case.startswith("alpha"):
            pert = build_perturbation(ref_game, float(case[6:]), seed=4)
        f1, _ = game_map(ref_game, pert, prices)
        dense = dense_f1(ref_game, pert, prices)
        xs = rng.normal(0.0, 1.0, (5, 12))
        want = xs @ dense.T
        scale = 1e-12 * np.abs(want).max()
        assert np.allclose(apply_map(f1, xs), want, rtol=1e-12, atol=scale)
        per_row = np.broadcast_to(f1, (5,) + f1.shape)
        assert np.allclose(apply_map(per_row, xs), want, rtol=1e-12, atol=scale)
        assert np.allclose(apply_map(f1, xs[0]), want[0], rtol=1e-12, atol=scale)

    def test_fixed_price_f2_rows(self, ref_game):
        # one row per price vector, optionally with replaced demand, equal to
        # the per-company formula on a demand-replaced instance
        rng = np.random.default_rng(3)
        prices = rng.uniform(0.0, 5.0, (6, 4))
        demand = rng.uniform(1e3, 1e4, (6, 3, 4))
        rows = fixed_price_f2(ref_game, prices, demand)
        assert rows.shape == (6, 12)
        for r in range(6):
            want = np.concatenate([
                c.lin + c.demand * prices[r] + c.revenue
                for c in ref_game.with_demand(demand[r]).companies])
            assert np.allclose(rows[r], want, rtol=1e-14, atol=0.0)
            assert np.array_equal(fixed_price_f2(ref_game, prices[r], demand[r]), rows[r])
        _, f2 = game_map(ref_game, prices=prices[0])
        assert np.array_equal(f2, fixed_price_f2(ref_game, prices[:1])[0])

    def test_blocks_match_finite_differences(self, ref_game):
        rng = np.random.default_rng(0)
        inst = ref_game
        h = 1e-6
        blocks = np.stack([random_simplex(rng, 4) for _ in range(3)])
        x = blocks.reshape(-1)
        f1, f2 = game_map(inst)
        g = apply_map(f1, x) + f2
        for i in range(3):
            sig_others = aggregates(inst, blocks)[0] - \
                inst.fleet_sizes[i] * blocks[i]
            for k in range(4):
                e = np.zeros(4)
                e[k] = h
                fd = (reduced_cost(inst, i, blocks[i] + e, sig_others)
                      - reduced_cost(inst, i, blocks[i] - e, sig_others)) / (2 * h)
                assert np.isclose(g[i * 4 + k], fd, rtol=1e-6, atol=1e-5)

    def test_zero_perturbation_is_identity(self, ref_game):
        pert = build_perturbation(ref_game, 0.0, seed=0)
        x = np.tile(np.full(4, 0.25), 3)
        f1, f2 = game_map(ref_game)
        f1_p, f2_p = game_map(ref_game, perturbation=pert)
        assert np.allclose(apply_map(f1, x) + f2, apply_map(f1_p, x) + f2_p)

    def test_perturbed_blocks_match_finite_differences(self, ref_game):
        # gradient of the company cost under the shifted policy
        from chargegame.model import approximate_prices, company_cost

        rng = np.random.default_rng(1)
        inst = ref_game
        pert = build_perturbation(inst, 0.2, seed=3)
        blocks = np.stack([random_simplex(rng, 4) for _ in range(3)])
        f1, f2 = game_map(inst, perturbation=pert)
        g = apply_map(f1, blocks.reshape(-1)) + f2
        h = 1e-6
        for i in range(3):
            comp = inst.companies[i]
            sig_others = aggregates(inst, blocks)[0] - \
                inst.fleet_sizes[i] * blocks[i]

            def cost(xi):
                p = approximate_prices(inst, i, xi, sig_others,
                                       pert.demand_shift[i])
                return company_cost(comp, xi, sig_others, p)

            for k in range(4):
                e = np.zeros(4)
                e[k] = h
                fd = (cost(blocks[i] + e) - cost(blocks[i] - e)) / (2 * h)
                assert np.isclose(g[i * 4 + k], fd, rtol=5e-5, atol=2e-3)


class TestStepBound:
    def test_single_company_closed_form(self):
        inst = make_instance([9], np.array([0.5, 2.0, 1.0]),
                             np.array([4.0, 3.0, 2.0]))
        assert lambda_max_closed_form(inst) == pytest.approx(81 * 2.0)

    def test_two_company_dense_value(self):
        inst = make_instance([1, 1], np.array([2.0, 2.0]), np.array([1.0, 1.0]))
        lam = np.linalg.eigvalsh(dense_f1(inst))[-1]
        assert lam == pytest.approx(4.0)
        assert step_bound(game_map(inst)[0]) == pytest.approx(0.5)

    def test_case_study_closed_form_vs_eigensolver(self, ref_game):
        dense = np.linalg.eigvalsh(dense_f1(ref_game))[-1]
        closed = lambda_max_closed_form(ref_game)
        assert abs(closed - dense) <= 1e-10 * dense

    def test_step_rule_matches_dense(self, ref_game):
        # eigenvalue bound for symmetric maps, spectral norm otherwise
        cases = [(None, None), (None, np.full(4, 3.0))]
        cases += [(build_perturbation(ref_game, (0.0, 0.05, 0.35)[s % 3], seed=s), None)
                  for s in range(30)]
        rows = []
        for pert, prices in cases:
            dense = dense_f1(ref_game, pert, prices)
            if np.allclose(dense, dense.T, rtol=0.0, atol=1e-12):
                want = 2.0 / np.linalg.eigvalsh(dense)[-1]
            else:
                want = 2.0 / np.linalg.norm(dense, 2)
            got = step_bound(game_map(ref_game, pert, prices)[0])
            assert abs(got - want) <= 1e-12 * want
            rows.append((game_map(ref_game, pert, prices)[0], want))
        per_row = step_bound(np.stack([f1 for f1, _ in rows]))
        want = np.array([w for _, w in rows])
        assert np.all(np.abs(per_row - want) <= 1e-12 * want)


class TestSolver:
    def test_single_company_symmetric_minimizer(self):
        inst = make_instance([6], np.ones(3), np.zeros(3))
        gov = GovernmentObjective(np.ones(3), np.zeros(3))
        inst = GameInstance(inst.stations, gov, inst.companies, inst.polytopes)
        rep = solve_nash(inst, tol=1e-12, max_iter=3000)
        # quadratic 1/2 N^2 ||x||^2 over the admissible set: uniform point
        assert np.allclose(rep.x, np.full(3, 1 / 3), atol=1e-6)

    def test_reference_game_reaches_set_point(self, ref_game):
        rep = solve_nash(ref_game)
        assert rep.converged
        assert rep.j_g <= 1e-4
        assert np.allclose(rep.sigma, ref_game.government.set_point, atol=1e-3)

    def test_residual_recheck_at_solution(self, ref_game):
        rep = solve_nash(ref_game)
        assert nash_residual(ref_game, rep.x, rep.gamma) <= 1e-8

    def test_gamma_validation(self, ref_game):
        big = step_bound(game_map(ref_game)[0]) * 1.5
        with pytest.raises(ValueError):
            solve_nash(ref_game, gamma=big)

    def test_trace_is_read_from_iterates(self, ref_game):
        for prices in (None, np.full(4, 3.0)):
            rep = solve_nash(ref_game, prices=prices)
            iterates = recorded_solve(ref_game, prices=prices)["iterates"][:, 0]
            assert iterates.shape == (rep.iterations + 1, 12)
            assert np.array_equal(iterates[-1], rep.x)
            sigma = aggregates(ref_game, iterates)
            assert np.array_equal(rep.sigma_trace, sigma)
            assert np.array_equal(rep.j_g_trace,
                                  government_cost(sigma, ref_game.government))

    def test_interior_minimizer_has_tiny_residual(self, ref_game):
        # sigma == set point with every company splitting identically: the
        # game map vanishes there, so the fixed-point residual is ~0
        share = ref_game.government.set_point / ref_game.government.set_point.sum()
        x = np.tile(share, 3)
        assert nash_residual(ref_game, x) <= 1e-9

    def test_random_point_has_positive_residual(self, ref_game):
        rng = np.random.default_rng(2)
        x = np.concatenate([random_simplex(rng, 4) for _ in range(3)])
        assert nash_residual(ref_game, x) > 1e-6

    def test_matches_qp_oracle(self, ref_game):
        rep = solve_nash(ref_game)
        _, j_oracle = qp_oracle(ref_game, default_start(ref_game))
        assert rep.j_g - j_oracle <= 1e-4 * max(1.0, abs(j_oracle))

    @pytest.mark.parametrize("fraction", [0.3, 0.9, 0.99])
    def test_monotone_distance_to_limit(self, ref_game, fraction):
        gamma = fraction * step_bound(game_map(ref_game)[0])
        out = recorded_solve(ref_game, gammas=gamma, tol=1e-13, max_iter=4000)
        dists = np.linalg.norm(out["iterates"][:, 0] - out["x"], axis=1)
        assert np.all(np.diff(dists) <= 1e-12)

    def test_sigma_unique_across_starts(self, ref_game):
        rng = np.random.default_rng(3)
        sigmas = []
        for _ in range(10):
            x0 = np.concatenate([
                poly.project(random_simplex(rng, 4)) for poly in ref_game.polytopes
            ])
            rep = solve_nash(ref_game, x0=x0)
            sigmas.append(rep.sigma)
        sigmas = np.stack(sigmas)
        assert np.max(np.abs(sigmas - sigmas[0])) <= 1e-4


class TestEngineStepRule:
    """solve_nash_batch derives each row's step from its own map."""

    @staticmethod
    def _per_row_maps(instance):
        perts = [build_perturbation(instance, alpha, seed=s)
                 for s, alpha in enumerate((0.0, 0.05, 0.35))]
        maps = [game_map(instance, pert) for pert in perts]
        return np.stack([f1 for f1, _ in maps]), np.stack([f2 for _, f2 in maps])

    def test_default_step_shared_map(self, ref_game):
        f1, _ = game_map(ref_game, prices=np.zeros(4))
        f2_rows = fixed_price_f2(ref_game, np.full((3, 4), 2.0))
        out = solve_nash_batch(ref_game, f2_rows, f1=f1, max_iter=5)
        assert np.array_equal(out["gammas"], np.full(3, 0.9 * step_bound(f1)))

    def test_default_step_per_row_maps(self, ref_game):
        f1_rows, f2_rows = self._per_row_maps(ref_game)
        out = solve_nash_batch(ref_game, f2_rows, f1_rows=f1_rows, max_iter=5)
        assert np.array_equal(out["gammas"], 0.9 * step_bound(f1_rows))

    @pytest.mark.parametrize("fraction", [1.0, 1.5, 0.0, -0.5])
    def test_rejects_step_outside_bound(self, ref_game, fraction):
        f1_rows, f2_rows = self._per_row_maps(ref_game)
        bound = step_bound(f1_rows)
        gammas = 0.5 * bound
        gammas[1] = fraction * bound[1]
        with pytest.raises(ValueError):
            solve_nash_batch(ref_game, f2_rows, f1_rows=f1_rows, gammas=gammas)
        f1, f2 = game_map(ref_game)
        with pytest.raises(ValueError):
            solve_nash_batch(ref_game, f2[None, :], f1=f1,
                             gammas=fraction * step_bound(f1))


def full_width_engine(instance, f2_rows, f1, gammas, x0, max_iter, tol):
    """The engine's rounds as a standalone loop: the step, average and
    residual of every row each round, stopped rows included, and only the
    live rows projected. Reference for the live-row engine's bits."""
    rows = f2_rows.shape[0]
    gammas = np.broadcast_to(gammas, (rows,))
    x = np.broadcast_to(x0, f2_rows.shape).copy()
    live = np.ones(rows, dtype=bool)
    iterations = np.zeros(rows, dtype=int)
    residual = np.full(rows, np.inf)
    iterates, residuals = [x], []
    for k in range(max_iter):
        step = x - gammas[:, None] * (apply_map(f1, x) + f2_rows)
        proj = x.copy()
        proj[live] = project_blocks(instance.polytopes, step[live])
        res = np.linalg.norm(proj - x, axis=1)
        x = 0.5 * (x + proj)
        iterations[live] = k + 1
        residual[live] = res[live]
        iterates.append(x)
        residuals.append(res)
        live &= res > tol
        if not live.any():
            break
    return {"x": x, "iterations": iterations, "converged": residual <= tol,
            "residual": residual, "iterates": np.array(iterates),
            "residuals": np.array(residuals)}


class TestLiveRowRounds:
    """The engine runs everything after F1 x on live rows only, to the bit."""

    @staticmethod
    def assert_same(out, want, recorded):
        keys = ["x", "iterations", "converged", "residual"]
        for key in keys + (["iterates", "residuals"] if recorded else []):
            assert np.array_equal(out[key], want[key]), key

    def test_demo_grid_pass(self, demo_build):
        inst = demo_build.instance
        f1, _ = game_map(inst, prices=np.zeros(4))
        f2_rows = fixed_price_f2(inst, price_grid([np.linspace(0.0, 5.0, 9)] * 4))
        out = solve_nash_batch(inst, f2_rows, f1=f1)
        want = full_width_engine(inst, f2_rows, f1, out["gammas"],
                                 default_start(inst), 1000, 1e-8)
        self.assert_same(out, want, recorded=False)
        # rows stop at many different rounds
        assert np.unique(out["iterations"]).size > 50

    @pytest.mark.parametrize("recorded", [False, True])
    def test_per_row_maps_on_partial_reach(self, recorded):
        inst = reference_game(0, generous=False)
        perts = [build_perturbation(inst, alpha, seed=10 + s)
                 for s, alpha in enumerate((0.0, 0.05, 0.1, 0.15, 0.25, 0.35))]
        maps = [game_map(inst, pert) for pert in perts]
        f1_rows = np.stack([f1 for f1, _ in maps])
        f2_rows = np.stack([f2 for _, f2 in maps])
        out = solve_nash_batch(inst, f2_rows, f1_rows=f1_rows, max_iter=400,
                               record_iterates=recorded)
        want = full_width_engine(inst, f2_rows, f1_rows, out["gammas"],
                                 default_start(inst), 400, 1e-8)
        self.assert_same(out, want, recorded)
        assert {p.path for p in inst.polytopes} == {"chain"}
        assert np.unique(out["iterations"]).size >= 4

    def test_recorded_single_row(self, demo_build):
        inst = demo_build.instance
        f1, f2 = game_map(inst)
        out = solve_nash_batch(inst, f2[None, :], f1=f1, record_iterates=True)
        want = full_width_engine(inst, f2[None, :], f1, out["gammas"],
                                 default_start(inst), 1000, 1e-8)
        self.assert_same(out, want, recorded=True)
        rep = solve_nash(inst)
        assert np.array_equal(rep.x, want["x"][0])
        assert np.array_equal(rep.sigma_trace, aggregates(inst, want["iterates"][:, 0]))
        assert np.array_equal(rep.residuals, want["residuals"][:, 0])


class TestUniquePoint:
    """Game whose equilibrium is a single corner, checkable analytically.

    With the target concentrated on station 1, every company is pushed to
    the unique vertex maximizing its station-1 mass, which the pairwise
    caps pin at (1 - 4/N, 2/N, 2/N).
    """

    def make(self):
        fleet = [24, 17]
        return make_instance(fleet, np.array([1.0, 0.7, 1.3]),
                             np.array([41.0, 0.0, 0.0]), seed=4)

    def test_ten_starts_same_point(self):
        inst = self.make()
        rng = np.random.default_rng(5)
        sols = []
        for _ in range(10):
            x0 = np.concatenate([
                poly.project(random_simplex(rng, 3)) for poly in inst.polytopes
            ])
            rep = solve_nash(inst, x0=x0, tol=1e-11, max_iter=4000)
            assert rep.converged
            sols.append(rep.x)
        sols = np.stack(sols)
        assert np.max(np.abs(sols - sols[0])) <= 1e-4

    def test_matches_analytic_vertex(self):
        inst = self.make()
        rep = solve_nash(inst, tol=1e-11, max_iter=4000)
        expect = np.concatenate([
            np.array([1 - 4 / n, 2 / n, 2 / n])
            for n in (24.0, 17.0)
        ])
        assert np.allclose(rep.x, expect, atol=1e-5)
