"""Perturbations, convexity check, suboptimality and gap bounds, sweep."""

import dataclasses

import numpy as np
import pytest

from chargegame.equilibrium import aggregates, game_map, solve_nash, solve_nash_batch
from chargegame.model import GovernmentObjective, pseudo_inverse_diag
from chargegame.robustness import (_sample_seed, best_response_gap, build_perturbation,
                                   check_convexity_assumption, epsilon_bound,
                                   jg_gap_bound, lipschitz_bound, psi_values,
                                   robustness_sweep)
from chargegame.scenario import reference_game

from conftest import (contains, dense_f1, dense_perturbation, random_simplex,
                      recorded_solve, reduced_cost)


def _batch_perturbed_solve(instance, perts, max_iter=300, record_iterates=False):
    """Solve the perturbed game for every perturbation in one batch."""
    from chargegame.equilibrium import perturbation_map, solve_nash_batch

    f1, f2 = game_map(instance)
    n = f2.size
    f1_rows = np.empty((len(perts),) + f1.shape)
    f2_rows = np.empty((len(perts), n))
    gammas = np.empty(len(perts))
    for s, pert in enumerate(perts):
        phi_l1, phi_l2 = perturbation_map(instance, pert)
        f1_rows[s] = f1 + phi_l1
        f2_rows[s] = f2 + phi_l2
        gammas[s] = 0.9 * 2.0 / np.linalg.norm(dense_f1(instance, pert), 2)
    return solve_nash_batch(instance, f2_rows, f1_rows=f1_rows, gammas=gammas,
                            max_iter=max_iter, tol=1e-9,
                            record_iterates=record_iterates)


def _weak_authority(instance):
    """The game with authority weight 0.5 x the queue weights, below the
    2 x at which a large demand underestimate makes a company's curvature
    negative."""
    gov = GovernmentObjective.from_set_point(0.5 * instance.stations.queue_weight,
                                             instance.government.set_point)
    return dataclasses.replace(instance, government=gov)


def _sigma_others_gap(instance, x):
    """Reference deviation gain: each company's aligned cost at x minus at
    its best response, given the other companies' aggregate."""
    m = instance.n_stations
    blocks = x.reshape(instance.n_companies, m)
    sigma = aggregates(instance, x)[0]
    w, b = instance.government.weight, instance.government.linear
    gaps = np.zeros(instance.n_companies)
    for i, (comp, poly) in enumerate(zip(instance.companies, instance.polytopes)):
        n_i = float(comp.fleet_size)
        sigma_others = sigma - n_i * blocks[i]
        hess = n_i**2 * w
        best = poly.project(-(n_i * w * sigma_others + n_i * b) / hess, weights=hess)
        gaps[i] = (reduced_cost(instance, i, blocks[i], sigma_others)
                   - reduced_cost(instance, i, best, sigma_others))
    return gaps


def _gap_points(instance, seed):
    """Perturbed equilibria (alpha 0.05-0.35) and random admissible points."""
    rng = np.random.default_rng(seed)
    perts = [build_perturbation(instance, alpha, seed=seed + k)
             for k, alpha in enumerate((0.05, 0.1, 0.15, 0.25, 0.35))]
    eq = _batch_perturbed_solve(instance, perts, max_iter=300)["x"]
    rand = [np.concatenate([poly.project(random_simplex(rng, instance.n_stations))
                            for poly in instance.polytopes]) for _ in range(6)]
    return np.vstack([eq, rand])


class TestBuildPerturbation:
    def test_zero_alpha_gives_zero_shift(self, ref_game):
        pert = build_perturbation(ref_game, 0.0, seed=1)
        for shift in pert.demand_shift:
            assert np.all(shift == 0.0)

    def test_infeasible_stations_stay_zero(self, ref_game):
        demand = [c.demand.copy() for c in ref_game.companies]
        demand[0][3] = 0.0
        inst = ref_game.with_demand(demand)
        pert = build_perturbation(inst, 0.3, seed=2)
        assert pert.demand_estimate[0][3] == 0.0
        assert pert.demand_shift[0][3] == 0.0

    def test_shift_is_pinv_difference(self, ref_game):
        pert = build_perturbation(ref_game, 0.2, seed=3)
        for comp, est, shift in zip(ref_game.companies, pert.demand_estimate,
                                    pert.demand_shift):
            assert np.allclose(shift, pseudo_inverse_diag(est)
                               - pseudo_inverse_diag(comp.demand))

    def test_noise_variance_matches_scale(self, ref_game):
        # pool draws normalized by each company's scale; the target standard
        # deviation is alpha * (min nonzero demand) / 4
        alpha = 0.25
        scaled = []
        for seed in range(850):
            pert = build_perturbation(ref_game, alpha, seed=seed)
            for i, w in enumerate(pert.noise):
                demand = ref_game.companies[i].demand
                target = alpha * demand[demand > 0].min() / 4.0
                scaled.extend((w[demand > 0] / target).tolist())
        assert len(scaled) >= 10_000
        assert abs(np.std(scaled) - 1.0) <= 0.05

    def test_resampling_keeps_estimates_positive(self):
        # huge relative noise forces the resampling branch
        inst = reference_game(seed=5)
        demand = [c.demand * 1e-3 for c in inst.companies]
        tiny = inst.with_demand(demand)
        for seed in range(30):
            pert = build_perturbation(tiny, 8.0, seed=seed)
            for est in pert.demand_estimate:
                assert np.all(est[est != 0] > 0)

    def test_negative_alpha_rejected(self, ref_game):
        with pytest.raises(ValueError):
            build_perturbation(ref_game, -0.1, seed=0)


class TestConvexityAssumption:
    def test_zero_shift_always_true(self, ref_game):
        pert = build_perturbation(ref_game, 0.0, seed=0)
        assert check_convexity_assumption(ref_game, pert)

    def test_diagonal_rule_matches_dense_eigenvalues(self, ref_game):
        rng = np.random.default_rng(1)
        w = ref_game.government.weight
        q = ref_game.stations.queue_weight
        for seed in range(30):
            pert = build_perturbation(ref_game, 0.4, seed=seed)
            expected = True
            for comp, shift in zip(ref_game.companies, pert.demand_shift):
                mat = (comp.fleet_size**2
                       * np.diag((1 + comp.demand * shift) * w)
                       - np.diag(comp.demand * shift * 2 * comp.fleet_size**2 * q))
                if np.linalg.eigvalsh(mat).min() < -1e-12:
                    expected = False
            assert check_convexity_assumption(ref_game, pert) == expected

    def test_negative_curvature_is_flagged(self, ref_game):
        # with a weak authority weight, large noise makes some flags false;
        # each must equal the dense eigenvalue rule of the perturbed cost
        game = _weak_authority(ref_game)
        w = game.government.weight
        q = game.stations.queue_weight
        flags = []
        for seed in range(40):
            pert = build_perturbation(game, 2.0, seed=seed)
            expected = all(
                np.linalg.eigvalsh(np.diag(comp.fleet_size**2 * (1 + comp.demand * shift) * w
                                           - comp.demand * shift * 2 * comp.fleet_size**2 * q)
                                   ).min() >= -1e-12
                for comp, shift in zip(game.companies, pert.demand_shift))
            assert check_convexity_assumption(game, pert) == expected
            flags.append(expected)
        assert 0 < sum(flags) < len(flags)

    def test_holds_at_moderate_noise(self, ref_game):
        ok = sum(
            check_convexity_assumption(ref_game,
                                       build_perturbation(ref_game, 0.05, seed=s))
            for s in range(100)
        )
        assert ok >= 99


class TestEpsilonBound:
    def test_case_study_factor(self, ref_game):
        eta = lipschitz_bound(ref_game)
        assert epsilon_bound(ref_game) == pytest.approx(1814.0 * eta)

    def test_single_company_factor(self):
        inst = reference_game(seed=2)
        single = type(inst)(inst.stations, inst.government,
                            (inst.companies[0],), (inst.polytopes[0],))
        eta = lipschitz_bound(single)
        n = inst.companies[0].fleet_size
        assert epsilon_bound(single) == pytest.approx(2.0 * eta * n)

    def test_empirical_deviation_gain_below_bound(self, ref_game):
        # 50 perturbed equilibria at noise levels up to 0.3, solved in one
        # batch; no company may gain more than the analytic bound
        rng = np.random.default_rng(3)
        perts = [build_perturbation(ref_game, float(rng.uniform(0.0, 0.3)),
                                    seed=trial) for trial in range(50)]
        out = _batch_perturbed_solve(ref_game, perts, max_iter=400)
        bound = epsilon_bound(ref_game)
        for s, pert in enumerate(perts):
            if not check_convexity_assumption(ref_game, pert):
                continue
            gain = best_response_gap(ref_game, out["x"][s]).max()
            assert gain <= bound + 1e-6

    def test_best_response_gap_oracle(self, ref_game):
        # weighted-projection best response vs direct sampling
        rng = np.random.default_rng(4)
        x = np.concatenate([random_simplex(rng, 4) for _ in range(3)])
        gaps = best_response_gap(ref_game, x)
        blocks = x.reshape(3, 4)
        sigma = ref_game.fleet_sizes @ blocks
        for i in range(3):
            sig_others = sigma - ref_game.fleet_sizes[i] * blocks[i]
            base = reduced_cost(ref_game, i, blocks[i], sig_others)
            for _ in range(200):
                y = random_simplex(rng, 4)
                if contains(ref_game.polytopes[i], y):
                    val = reduced_cost(ref_game, i, y, sig_others)
                    assert base - val <= gaps[i] + 1e-6


class TestBestResponseGapFromMap:
    """The deviation gain read off F(x) and the own-block diagonal of F1."""

    @pytest.mark.parametrize("seed,generous", [(0, False), (1, True)],
                             ids=["chain", "simplex"])
    def test_rows_equal_single_calls(self, seed, generous):
        game = reference_game(seed, generous=generous)
        x = _gap_points(game, seed)
        rows = best_response_gap(game, x)
        assert rows.shape == (x.shape[0], game.n_companies)
        single = np.array([best_response_gap(game, row) for row in x])
        assert single.shape == rows.shape
        assert np.array_equal(rows, single)

    @pytest.mark.parametrize("seed,generous", [(0, False), (1, True)],
                             ids=["chain", "simplex"])
    def test_matches_sigma_others_reference(self, seed, generous):
        game = reference_game(seed, generous=generous)
        x = _gap_points(game, seed + 7)
        got = best_response_gap(game, x)
        want = np.array([_sigma_others_gap(game, row) for row in x])
        # a company already at its best response gains 0, which the
        # reference's cost difference reads as rounding (|gain| < 1e-11 on
        # costs of ~1e4): relative to the gain, floored at 1
        assert np.all(np.abs(got - want) <= 1e-9 * np.maximum(np.abs(want), 1.0))
        assert np.mean(want > 1.0) > 0.5

    def test_sweep_diagnostics_equal_per_sample_calls(self):
        game = _weak_authority(reference_game(0, generous=False))
        alphas, n = (0.0, 0.5, 2.0), 4
        sweep = robustness_sweep(game, alphas, n, seed=3, max_iter=200)
        for a_idx, alpha in enumerate(alphas):
            perts = [build_perturbation(game, alpha, _sample_seed(3, a_idx, s))
                     for s in range(n)]
            maps = [game_map(game, pert) for pert in perts]
            out = solve_nash_batch(game, np.array([f2 for _, f2 in maps]),
                                   f1_rows=np.array([f1 for f1, _ in maps]), max_iter=200)
            for s, pert in enumerate(perts):
                assert sweep.assumption_ok[a_idx, s] == check_convexity_assumption(game, pert)
                assert sweep.eps_observed[a_idx, s] == best_response_gap(game, out["x"][s]).max()
        assert 0 < sweep.assumption_ok.sum() < sweep.assumption_ok.size


class TestGapBound:
    def test_psi_is_quadratic_and_zero_at_star(self, ref_game):
        star = solve_nash(ref_game)
        pert = build_perturbation(ref_game, 0.15, seed=5)
        rng = np.random.default_rng(6)
        pts = np.stack([
            np.concatenate([random_simplex(rng, 4) for _ in range(3)])
            for _ in range(20)
        ] + [star.x])
        psi = psi_values(ref_game, pert, pts, star.x)
        # recompute from parts
        from chargegame.equilibrium import perturbation_map
        _, phi_l2 = perturbation_map(ref_game, pert)
        phi_l1 = dense_perturbation(ref_game, pert)
        for k, x in enumerate(pts):
            manual = (phi_l1 @ x + phi_l2) @ (x - star.x)
            assert np.isclose(psi[k], manual, rtol=1e-12, atol=1e-12)
        assert abs(psi[-1]) <= 1e-9 * max(1.0, np.abs(psi).max())

    def test_zero_perturbation_bound_nonbinding(self, ref_game):
        star = solve_nash(ref_game)
        pert = build_perturbation(ref_game, 0.0, seed=0)
        out = recorded_solve(ref_game, pert, max_iter=300)
        gb = jg_gap_bound(ref_game, pert, out["iterates"][:, 0], float(out["gammas"][0]),
                          star.x)
        assert np.all(gb.psi == 0.0)
        assert gb.holds

    def test_holds_across_50_seeded_runs(self, ref_game):
        star = solve_nash(ref_game)
        perts = [build_perturbation(ref_game, 0.1, seed=seed)
                 for seed in range(50)]
        out = _batch_perturbed_solve(ref_game, perts, max_iter=300,
                                     record_iterates=True)
        for s, pert in enumerate(perts):
            if not check_convexity_assumption(ref_game, pert):
                continue
            gb = jg_gap_bound(ref_game, pert, out["iterates"][:, s, :],
                              float(out["gammas"][s]), star.x)
            assert gb.holds

    def test_sweep_bound_covers_each_rows_own_iterates(self):
        # a row that stops before its alpha's slowest row is bounded over its
        # own iterates: the bound of a one-row solve of the same perturbation
        game = reference_game(0, generous=False)
        alphas, n = (0.0, 0.05), 4
        sweep = robustness_sweep(game, alphas, n, seed=0)
        star = solve_nash(game)
        stopped_early = 0
        for a_idx, alpha in enumerate(alphas):
            rounds = []
            for s in range(n):
                pert = build_perturbation(game, alpha, _sample_seed(0, a_idx, s))
                f1, f2 = game_map(game, pert)
                out = solve_nash_batch(game, f2[None], f1_rows=f1[None],
                                       record_iterates=True)
                gb = jg_gap_bound(game, pert, out["iterates"][:, 0],
                                  float(out["gammas"][0]), star.x)
                assert sweep.gap_bounds[a_idx, s] == gb.bound
                assert sweep.gap_observed[a_idx, s] == gb.observed
                rounds.append(int(out["iterations"][0]))
            stopped_early += sum(k < max(rounds) for k in rounds)
        assert stopped_early > 0

    def test_r_x_bound_respected(self, ref_game):
        star = solve_nash(ref_game)
        pert = build_perturbation(ref_game, 0.1, seed=1)
        out = recorded_solve(ref_game, pert, max_iter=100)
        iterates = out["iterates"][:, 0]
        gb = jg_gap_bound(ref_game, pert, iterates, float(out["gammas"][0]), star.x)
        assert gb.r_x <= ref_game.n_companies
        norms = np.linalg.norm(iterates, axis=1)
        assert np.all(norms <= gb.r_x + 1e-9)


class TestSweep:
    def test_small_sweep_structure_and_bounds(self, ref_game):
        sweep = robustness_sweep(ref_game, (0.0, 0.1), 5,
                                 {"p1": np.full(4, 2.0), "base": np.full(4, 3.0)},
                                 seed=11, max_iter=300)
        mechs = {r.mechanism for r in sweep.rows}
        assert mechs == {"rsg", "p1", "base"}
        assert len(sweep.rows) == 2 * 5 * 3
        assert sweep.mean("rsg")[0] <= 1e-6 + sweep.j_star
        assert np.all(sweep.gap_observed <= sweep.gap_bounds + 1e-9)
        assert np.all(sweep.eps_observed <= sweep.eps_bound + 1e-9)

    def test_csv_rows_well_formed(self, ref_game):
        sweep = robustness_sweep(ref_game, (0.0,), 2, {"base": np.full(4, 3.0)},
                                 seed=1, max_iter=100)
        rows = list(sweep.to_csv_rows())
        assert rows[0] == "alpha,sample_id,mechanism,j_g,assumption_ok,converged"
        assert len(rows) == 1 + 2 * 2
        for line, row in zip(rows[1:], sweep.rows):
            alpha, sample, mech, j_g, ok, conv = line.split(",")
            float(alpha), int(sample), float(j_g), int(ok)
            assert mech in ("rsg", "base")
            assert conv == str(int(row.converged))
            assert row.converged == (row.residual <= 1e-8)

    def test_sweep_deterministic_given_seed(self, ref_game):
        kw = dict(alphas=(0.1,), n_samples=2, seed=9, max_iter=150)
        a = robustness_sweep(ref_game, baseline_prices={"base": np.full(4, 3.0)}, **kw)
        b = robustness_sweep(ref_game, baseline_prices={"base": np.full(4, 3.0)}, **kw)
        assert list(a.to_csv_rows()) == list(b.to_csv_rows())

    def test_mean_over_converged_rows_only(self, ref_game):
        # at alpha = 0.1 some solves stop at max_iter = 600 and all at 100
        kw = dict(alphas=(0.0, 0.1), n_samples=5, seed=11)
        sweep = robustness_sweep(ref_game, max_iter=600, **kw)
        rows = [r for r in sweep.rows if r.alpha == 0.1]
        kept = [r.j_g for r in rows if r.converged]
        assert 0 < len(kept) < len(rows)
        assert sweep.mean("rsg")[1] == np.mean(kept)
        assert sweep.excluded("rsg").tolist() == [0, len(rows) - len(kept)]

        none = robustness_sweep(ref_game, max_iter=100, **kw)
        assert none.excluded("rsg").tolist() == [0, 5]
        assert np.isnan(none.mean("rsg")[1])
        assert none.mean("rsg")[0] == sweep.mean("rsg")[0]

    @pytest.mark.parametrize("alphas", [(0.1, 0.1), (0.0, 0.05, 0.0)])
    def test_rejects_repeated_alphas(self, ref_game, alphas):
        # rows are found by their alpha, so a repeat would pool two entries
        with pytest.raises(ValueError, match="distinct"):
            robustness_sweep(ref_game, alphas, 2)

    def test_engine_calls_one_per_alpha_and_one_for_all_baselines(self, monkeypatch):
        from chargegame import robustness
        from chargegame.equilibrium import fixed_price_f2, solve_nash_batch
        from chargegame.model import government_cost

        calls = []

        def recording(*args, **kwargs):
            out = solve_nash_batch(*args, **kwargs)
            calls.append((kwargs, out))
            return out

        monkeypatch.setattr(robustness, "solve_nash_batch", recording)
        game = reference_game(0, generous=False)         # chain-path polytopes
        alphas, n = (0.0, 0.1, 0.3), 3
        prices = {"p1": np.array([2.75, 1.625, 2.208, 1.0]), "base": np.full(4, 3.0)}
        sweep = robustness_sweep(game, alphas, n, prices, seed=5, max_iter=300)

        per_row = [out for kw, out in calls if kw.get("f1_rows") is not None]
        shared = [out for kw, out in calls if kw.get("f1") is not None]
        assert len(per_row) == len(alphas) and len(calls) == len(alphas) + 1
        assert all(out["converged"].shape == (n,) for out in per_row)
        assert len(shared) == 1
        assert shared[0]["converged"].shape == (len(alphas) * len(prices) * n,)

        # reference: one engine call per (alpha, price name), as separate games;
        # with a single sample, the shared-map product of one row may round apart
        f1, _ = game_map(game, prices=np.zeros(4))
        names = ["rsg", *prices]
        assert [(r.alpha, r.mechanism, r.sample) for r in sweep.rows] == [
            (a, name, s) for a in alphas for name in names for s in range(n)]
        for a_idx, alpha in enumerate(alphas):
            demand = np.array([build_perturbation(game, alpha, robustness._sample_seed(
                5, a_idx, s)).demand_estimate for s in range(n)])
            for name, price in prices.items():
                ref = solve_nash_batch(game, fixed_price_f2(game, price, demand), f1=f1,
                                       max_iter=300)
                j_ref = government_cost(ref["sigma_final"], game.government)
                got = [r for r in sweep.rows if r.alpha == alpha and r.mechanism == name]
                assert [r.j_g for r in got] == j_ref.tolist()
                assert [r.converged for r in got] == ref["converged"].tolist()
                assert [r.residual for r in got] == ref["residual"].tolist()

    def test_baseline_losses_vary_with_perturbed_demand(self, ref_game):
        # fixed prices stay fixed; the equilibria (and losses) move with the
        # sampled demand
        sweep = robustness_sweep(ref_game, (0.3,), 6, {"base": np.full(4, 3.0)},
                                 seed=2, max_iter=300)
        vals = [r.j_g for r in sweep.rows if r.mechanism == "base"]
        assert np.std(vals) > 0
