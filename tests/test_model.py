"""The queuing cost model, company data checks, and pricing-policy identities."""

import numpy as np
import pytest

from chargegame.equilibrium import aggregates
from chargegame.feasible import FeasibilityStructure, admissible_polytope
from chargegame.model import (CompanyParams, GameInstance, GovernmentObjective,
                              StationSet, government_cost, pseudo_inverse_diag,
                              queuing_terms, setpoint_from_distribution,
                              system_optimal_prices)
from chargegame.scenario import reference_game

from conftest import (approximate_prices, company_cost, queuing_cost,
                      random_simplex, reduced_cost)


def one_company_game(fleet_size, stations, demand, revenue):
    """A one-company game on ``stations``, for reading ``queuing_terms``."""
    gov = GovernmentObjective(np.ones(stations.n), np.zeros(stations.n))
    poly = admissible_polytope(FeasibilityStructure.full(fleet_size, stations.n))
    return GameInstance(stations, gov, (CompanyParams(fleet_size, demand, revenue),),
                        (poly,))


def own_terms(instance, i=0):
    """Company i's (quad, cross, lin): its own curvature read off the
    Hessian's diagonal, and its cross and linear rows."""
    hessian, cross, lin = queuing_terms(instance)
    return hessian[:, i, i], cross[i], lin[i]


class TestDerivedParams:
    def test_scalar_substitution(self):
        inst = one_company_game(1, StationSet(np.array([1.0]), np.array([1.0])),
                                np.zeros(1), np.zeros(1))
        quad, cross, lin = own_terms(inst)
        assert quad[0] == 2 and cross[0] == 1 and lin[0] == -1

    def test_case_study_values(self):
        q = 0.1 * np.array([4.0, 1.0, 3.0, 2.0])
        cap = np.array([15.0, 60, 35, 50])
        inst = one_company_game(194, StationSet(cap, q), np.ones(4), np.zeros(4))
        quad, cross, lin = own_terms(inst)
        assert np.allclose(quad, 2 * 194**2 * q)
        assert np.allclose(cross, 194 * q)
        assert np.allclose(lin, -194 * q * cap)

    def test_rejects_bad_inputs(self, ref_game):
        with pytest.raises(ValueError):
            ref_game.with_demand([-np.ones(4)] * 3)
        with pytest.raises(ValueError):
            CompanyParams(0, np.ones(4), np.zeros(4))
        with pytest.raises(ValueError):
            StationSet(np.array([1.0]), np.array([0.0]))
        with pytest.raises(ValueError):
            CompanyParams(3, np.array([1.0, -1.0]), np.zeros(2))
        with pytest.raises(ValueError):
            CompanyParams(3, np.ones((2, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            CompanyParams(3, np.ones(4), np.zeros(3))

    def test_quadratic_form_matches_direct_queuing_cost(self):
        # the generic form must reproduce N x' q (sigma - capacity) exactly
        rng = np.random.default_rng(0)
        for _ in range(100):
            m = int(rng.integers(1, 6))
            n_i = int(rng.integers(1, 300))
            q = rng.uniform(0.05, 2.0, m)
            cap = rng.uniform(1, 80, m)
            stations = StationSet(cap, q)
            inst = one_company_game(n_i, stations, rng.uniform(0, 5, m),
                                    rng.normal(0, 3, m))
            quad, cross, lin = own_terms(inst)
            x = random_simplex(rng, m)
            sig_others = rng.uniform(0, 200, m)
            generic = 0.5 * x @ (quad * x) + x @ (cross * sig_others) + lin @ x
            assert np.isclose(generic, queuing_cost(n_i, stations, x, sig_others),
                              rtol=1e-12, atol=1e-9)


class TestGovernmentCost:
    def test_zero_at_set_point(self):
        gov = GovernmentObjective.from_set_point(np.ones(3), np.array([5.0, 2, 1]))
        assert government_cost(np.array([5.0, 2, 1]), gov) == 0.0

    def test_identity_weight_example(self):
        gov = GovernmentObjective.from_set_point(np.ones(2), np.array([1.0, 0.0]))
        assert government_cost(np.array([0.0, 1.0]), gov) == pytest.approx(1.0)

    def test_case_study_table_row(self):
        # loss of the flat-price equilibrium; the published sigma values are
        # rounded to four significant digits, which moves the loss by up to
        # ~7 from the published 6677.9, so the check uses that interval
        gov = GovernmentObjective.from_set_point(
            0.25 * np.array([4.0, 1, 3, 2]), np.array([198.0, 103, 144, 87]))
        val = government_cost(np.array([283.9, 43.03, 196.0, 8.999]), gov)
        assert abs(val - 6677.9) <= 7.0

    def test_forms_differ_by_constant(self):
        rng = np.random.default_rng(1)
        w = rng.uniform(0.2, 2.0, 4)
        sp = rng.uniform(0, 100, 4)
        with_sp = GovernmentObjective.from_set_point(w, sp)
        quad_only = GovernmentObjective(w, -w * sp)
        const = 0.5 * sp @ (w * sp)
        for _ in range(20):
            sig = rng.uniform(0, 150, 4)
            assert np.isclose(government_cost(sig, with_sp),
                              government_cost(sig, quad_only) + const, rtol=1e-12)

    def test_dimension_mismatch(self):
        gov = GovernmentObjective(np.ones(3), np.zeros(3))
        with pytest.raises(ValueError):
            government_cost(np.ones(2), gov)


class TestSetPoint:
    def test_case_study_total(self):
        target = np.array([198.0, 103, 144, 87])
        share = target / target.sum()
        out = setpoint_from_distribution(np.array([194, 181, 157]), share)
        assert out.sum() == pytest.approx(532.0)
        assert np.allclose(out, target)

    def test_uniform(self):
        out = setpoint_from_distribution(np.array([4]), np.full(4, 0.25))
        assert np.allclose(out, np.ones(4))

    def test_mass_conservation_property(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = rng.integers(1, 400, size=rng.integers(1, 5))
            z = random_simplex(rng, int(rng.integers(1, 7)))
            assert setpoint_from_distribution(n, z).sum() == pytest.approx(float(n.sum()))

    def test_off_simplex_rejected(self):
        with pytest.raises(ValueError):
            setpoint_from_distribution(np.array([3]), np.array([0.6, 0.6]))


class TestCompanyCost:
    def test_single_station_mass(self):
        rng = np.random.default_rng(3)
        m = 4
        stations = StationSet(rng.uniform(5, 20, m), rng.uniform(0.1, 1.0, m))
        inst = one_company_game(7, stations, rng.uniform(1, 5, m), np.zeros(m))
        quad, _, lin = own_terms(inst)
        j = 2
        x = np.zeros(m)
        x[j] = 1.0
        val = company_cost(stations, inst.companies[0], x, np.zeros(m), np.zeros(m))
        assert val == pytest.approx(0.5 * quad[j] + lin[j])

    def test_unit_example(self):
        stations = StationSet(np.array([1.0]), np.array([1.0]))
        comp = CompanyParams(1, np.array([0.0]), np.array([0.0]))
        val = company_cost(stations, comp, np.array([1.0]), np.array([1.0]), np.array([0.0]))
        assert val == pytest.approx(1.0)

    def test_random_instances_match_expansion(self):
        # the generic form read off queuing_terms, plus charging and revenue
        rng = np.random.default_rng(4)
        for _ in range(100):
            m = int(rng.integers(1, 6))
            stations = StationSet(rng.uniform(1, 60, m), rng.uniform(0.05, 1.5, m))
            n_i = int(rng.integers(1, 250))
            inst = one_company_game(n_i, stations, rng.uniform(0, 8, m),
                                    rng.normal(0, 20, m))
            comp = inst.companies[0]
            quad, cross, lin = own_terms(inst)
            x = random_simplex(rng, m)
            sig = rng.uniform(0, 300, m)
            p = rng.uniform(0, 5, m)
            expansion = (0.5 * x @ (quad * x) + x @ (cross * sig) + lin @ x
                         + x @ (comp.demand * p) + comp.revenue @ x)
            assert np.isclose(company_cost(stations, comp, x, sig, p), expansion,
                              rtol=1e-12)


class TestPolicies:
    def test_zero_demand_station_has_zero_price(self, ref_game):
        rng = np.random.default_rng(5)
        inst = ref_game
        demand = [c.demand.copy() for c in inst.companies]
        demand[1][2] = 0.0
        inst2 = inst.with_demand(demand)
        x = random_simplex(rng, 4)
        p = system_optimal_prices(inst2, 1, x, rng.uniform(0, 300, 4))
        assert p[2] == 0.0

    def test_cost_under_policy_equals_reduced_cost(self, ref_game):
        rng = np.random.default_rng(6)
        inst = ref_game
        for _ in range(100):
            i = int(rng.integers(inst.n_companies))
            x = random_simplex(rng, inst.n_stations)
            others = [random_simplex(rng, inst.n_stations)
                      for _ in range(inst.n_companies - 1)]
            sig_others = np.sum([
                inst.companies[j].fleet_size * others[k]
                for k, j in enumerate(j for j in range(inst.n_companies) if j != i)
            ], axis=0)
            p = system_optimal_prices(inst, i, x, sig_others)
            full = company_cost(inst.stations, inst.companies[i], x, sig_others, p)
            red = reduced_cost(inst, i, x, sig_others)
            assert np.isclose(full, red, rtol=1e-10)

    def test_approximate_with_zero_shift_is_identity(self, ref_game):
        rng = np.random.default_rng(7)
        x = random_simplex(rng, 4)
        sig = rng.uniform(0, 200, 4)
        p0 = system_optimal_prices(ref_game, 0, x, sig)
        p1 = approximate_prices(ref_game, 0, x, sig, np.zeros(4))
        assert np.allclose(p0, p1)

    def test_approximate_policy_cost_identity(self, ref_game):
        # cost under the shifted policy = true-policy cost + x' D^2 shift p(x)
        rng = np.random.default_rng(8)
        inst = ref_game
        for _ in range(50):
            i = int(rng.integers(inst.n_companies))
            comp = inst.companies[i]
            x = random_simplex(rng, 4)
            sig = rng.uniform(0, 250, 4)
            shift = rng.normal(0, 1e-4, 4)
            p_true = system_optimal_prices(inst, i, x, sig)
            p_tilde = approximate_prices(inst, i, x, sig, shift)
            lhs = company_cost(inst.stations, comp, x, sig, p_tilde)
            rhs = (company_cost(inst.stations, comp, x, sig, p_true)
                   + x @ (comp.demand**2 * shift * p_true))
            assert np.isclose(lhs, rhs, rtol=1e-9, atol=1e-9)

    def test_reduced_cost_single_station(self, ref_game):
        inst = reference_game(seed=1)
        gov = GovernmentObjective(inst.government.weight,
                                  np.zeros(4))
        inst0 = GameInstance(inst.stations, gov, inst.companies, inst.polytopes)
        for j in range(4):
            x = np.zeros(4)
            x[j] = 1.0
            n_i = inst0.companies[0].fleet_size
            val = reduced_cost(inst0, 0, x, np.zeros(4))
            assert val == pytest.approx(0.5 * n_i**2 * inst0.government.weight[j])


class TestExactPotential:
    def test_gradients_match_by_finite_differences(self, ref_game):
        # company-cost gradient (with aligned prices inserted) vs the
        # authority-loss gradient, both by central differences
        rng = np.random.default_rng(9)
        inst = ref_game
        m, mc = inst.n_stations, inst.n_companies
        h = 1e-6
        for _ in range(100):
            blocks = np.stack([random_simplex(rng, m) for _ in range(mc)])
            i = int(rng.integers(mc))
            sig_others = aggregates(inst, blocks)[0] - \
                inst.fleet_sizes[i] * blocks[i]

            def j_i(xi):
                return reduced_cost(inst, i, xi, sig_others)

            def j_g(xi):
                sig = sig_others + inst.fleet_sizes[i] * xi
                return government_cost(sig, inst.government)

            for k in range(m):
                e = np.zeros(m)
                e[k] = h
                gi = (j_i(blocks[i] + e) - j_i(blocks[i] - e)) / (2 * h)
                gg = (j_g(blocks[i] + e) - j_g(blocks[i] - e)) / (2 * h)
                assert np.isclose(gi, gg, rtol=1e-6, atol=1e-6)


def test_pseudo_inverse_threshold():
    d = np.array([2.0, 0.0, 1e-13, -4.0])
    out = pseudo_inverse_diag(d)
    assert out[0] == 0.5 and out[1] == 0.0 and out[2] == 0.0 and out[3] == -0.25
