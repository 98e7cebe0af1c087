"""Game map, step bound, and the averaged projected-gradient solver."""

import numpy as np
import pytest
from scipy.optimize import LinearConstraint, minimize

from chargegame.equilibrium import (apply_map, default_start, fixed_price_f2,
                                    game_map,
                                    lambda_max_closed_form, nash_residual,
                                    pseudo_gradient, solve_nash, step_bound,
                                    step_size_bound)
from chargegame.feasible import FeasibilityStructure, admissible_polytope
from chargegame.model import (CompanyParams, GameInstance, GovernmentObjective,
                              StationSet, aggregate, government_cost,
                              reduced_cost)
from chargegame.robustness import build_perturbation
from chargegame.scenario import reference_game

from conftest import dense_f1, random_simplex


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
        polys.append(admissible_polytope(FeasibilityStructure.full(int(n_i), m), int(n_i)))
    return GameInstance(stations, gov, tuple(comps), tuple(polys))


def qp_oracle(instance, x0):
    """Independent solve of the stacked authority program via trust-constr."""
    m, mc = instance.n_stations, instance.n_companies
    f1 = dense_f1(instance)
    _, f2 = game_map(instance)

    def fun(x):
        sig = aggregate(instance.fleet_sizes, x.reshape(mc, m))
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
        g = pseudo_gradient(ref_game, np.zeros(12))
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
        g = pseudo_gradient(inst, x)
        for i in range(3):
            sig_others = aggregate(inst.fleet_sizes, blocks) - \
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
        assert np.allclose(pseudo_gradient(ref_game, x),
                           pseudo_gradient(ref_game, x, perturbation=pert))

    def test_perturbed_blocks_match_finite_differences(self, ref_game):
        # gradient of the company cost under the shifted policy
        from chargegame.model import approximate_prices, company_cost

        rng = np.random.default_rng(1)
        inst = ref_game
        pert = build_perturbation(inst, 0.2, seed=3)
        blocks = np.stack([random_simplex(rng, 4) for _ in range(3)])
        g = pseudo_gradient(inst, blocks.reshape(-1), perturbation=pert)
        h = 1e-6
        for i in range(3):
            comp = inst.companies[i]
            sig_others = aggregate(inst.fleet_sizes, blocks) - \
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
        assert step_size_bound(inst) == pytest.approx(0.5)

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
            got = step_size_bound(ref_game, pert, prices)
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
        big = step_size_bound(ref_game) * 1.5
        with pytest.raises(ValueError):
            solve_nash(ref_game, gamma=big)

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
        gamma = fraction * step_size_bound(ref_game)
        rep = solve_nash(ref_game, gamma=gamma, tol=1e-13, max_iter=4000,
                         record_iterates=True)
        dists = np.linalg.norm(rep.iterates - rep.x[None, :], axis=1)
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
