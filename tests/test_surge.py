"""Driver matching, best responses, and surge-price construction."""

from itertools import product

import numpy as np
import pytest

from chargegame.errors import InfeasibleTargetError, ZeroGainError
from chargegame.feasible import FeasibilityStructure
from chargegame.surge import (DEFAULT_MARGIN, DriverParams, assign_vehicles,
                              driver_best_response, equal_price_solve,
                              fleet_feasibility, per_vehicle_prices,
                              surge_price_rows, two_step, verify_zero_cost)


def make_driver(rng, m, reachable=None, gain_range=(5.0, 20.0)):
    if reachable is None:
        k = int(rng.integers(1, m + 1))
        reachable = frozenset(rng.choice(m, k, replace=False).tolist())
    demand = np.zeros(m)
    for j in reachable:
        demand[j] = rng.uniform(20, 80)
    return DriverParams(demand, rng.normal(0, 25, m),
                        rng.uniform(*gain_range, m), frozenset(reachable))


def random_feasible_target(rng, drivers, m):
    """Assign every driver a reachable station; counts are matchable by construction."""
    choice = np.array([
        int(rng.choice(sorted(d.reachable))) for d in drivers
    ])
    return np.bincount(choice, minlength=m)


class TestAssignVehicles:
    def test_counts_match_when_all_reach_all(self):
        feas = FeasibilityStructure.full(3, 2)
        out = assign_vehicles(np.array([2, 1]), feas)
        assert np.bincount(out, minlength=2).tolist() == [2, 1]

    def test_forced_unique_matching(self):
        feas = FeasibilityStructure(2, (frozenset([0]), frozenset([0, 1])))
        out = assign_vehicles(np.array([1, 1]), feas)
        assert out.tolist() == [0, 1]

    def test_infeasible_target_raises(self):
        feas = FeasibilityStructure(2, (frozenset([0]), frozenset([0])))
        with pytest.raises(InfeasibleTargetError):
            assign_vehicles(np.array([1, 1]), feas)

    def test_500_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            m = int(rng.integers(2, 5))
            n_v = int(rng.integers(1, 12))
            drivers = [make_driver(rng, m) for _ in range(n_v)]
            feas = fleet_feasibility(drivers, m)
            target = random_feasible_target(rng, drivers, m)
            out = assign_vehicles(target, feas)
            assert np.bincount(out, minlength=m).tolist() == target.tolist()
            for v, j in enumerate(out):
                assert j in drivers[v].reachable


class TestDriverBestResponse:
    def test_single_station(self):
        d = DriverParams(np.array([5.0, 0.0]), np.zeros(2), np.ones(2),
                         frozenset([0]))
        assert driver_best_response(d, np.zeros(2), np.array([1.0, 1.0])) == 0

    def test_surge_dominates_identical_stations(self):
        d = DriverParams(np.array([5.0, 5.0]), np.zeros(2), np.ones(2),
                         frozenset([0, 1]))
        assert driver_best_response(d, np.array([0.0, 1.0]), np.ones(2)) == 1

    def test_tie_breaks_to_lowest_index(self):
        d = DriverParams(np.array([5.0, 5.0]), np.zeros(2), np.ones(2),
                         frozenset([0, 1]))
        assert driver_best_response(d, np.zeros(2), np.ones(2)) == 0

    def test_matches_enumeration(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            m = int(rng.integers(2, 6))
            d = make_driver(rng, m)
            rho = rng.uniform(0, 5, m)
            prices = rng.uniform(0, 4, m)
            got = driver_best_response(d, rho, prices)
            by_hand = min(
                sorted(d.reachable),
                key=lambda k: (d.demand[k] * prices[k] + d.base_revenue[k]
                               - d.surge_gain[k] * rho[k], k),
            )
            assert got == by_hand


class TestPerVehiclePrices:
    def test_already_preferring_driver_keeps_floor(self):
        rng = np.random.default_rng(2)
        m = 3
        drivers = [make_driver(rng, m, reachable=frozenset(range(m)))
                   for _ in range(4)]
        prices = rng.uniform(0, 3, m)
        rho_min = np.zeros(m)
        assignment = np.array([
            driver_best_response(d, rho_min, prices) for d in drivers
        ])
        sol = per_vehicle_prices(assignment, drivers, prices, rho_min)
        assert np.all(sol.surge == 0.0)

    def test_cost_gap_threshold_plus_margin(self):
        # two stations, driver prefers 1 by a cost gap of 5, unit gains,
        # target 2: the lift lands exactly at gap + margin
        d = DriverParams(np.array([1.0, 1.0]), np.array([0.0, 5.0]),
                         np.array([1.0, 1.0]), frozenset([0, 1]))
        sol = per_vehicle_prices(np.array([1]), [d], np.zeros(2), np.zeros(2))
        assert sol.surge[0, 1] == pytest.approx(5.0 + DEFAULT_MARGIN)
        assert driver_best_response(d, sol.surge[0], np.zeros(2)) == 1

    def test_fifty_random_scenarios_verify(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            m = int(rng.integers(2, 5))
            n_v = int(rng.integers(2, 30))
            drivers = [make_driver(rng, m) for _ in range(n_v)]
            target = random_feasible_target(rng, drivers, m)
            feas = fleet_feasibility(drivers, m)
            assignment = assign_vehicles(target, feas)
            prices = rng.uniform(0, 4, m)
            sol = per_vehicle_prices(assignment, drivers, prices, np.zeros(m))
            assert verify_zero_cost(sol, target, drivers, prices)
            assert sol.j_m == 0.0

    def test_zero_gain_error(self):
        d = DriverParams(np.array([1.0, 1.0]), np.array([0.0, 5.0]),
                         np.array([1.0, 0.0]), frozenset([0, 1]))
        with pytest.raises(ZeroGainError):
            per_vehicle_prices(np.array([1]), [d], np.zeros(2), np.zeros(2))

    def test_floor_respected_and_margin_monotone(self):
        rng = np.random.default_rng(4)
        m = 4
        drivers = [make_driver(rng, m) for _ in range(12)]
        target = random_feasible_target(rng, drivers, m)
        feas = fleet_feasibility(drivers, m)
        assignment = assign_vehicles(target, feas)
        prices = rng.uniform(0, 4, m)
        rho_min = rng.uniform(0.0, 0.5, m)
        for margin in (1e-6, 1e-3, 0.5):
            sol = per_vehicle_prices(assignment, drivers, prices, rho_min,
                                     margin=margin)
            assert np.all(sol.surge >= rho_min[None, :] - 1e-12)
            induced = np.array([
                driver_best_response(d, sol.surge[v], prices)
                for v, d in enumerate(drivers)
            ])
            assert np.array_equal(induced, assignment)


class TestEqualPrice:
    def test_identical_drivers_single_station_target(self):
        rng = np.random.default_rng(5)
        m = 3
        proto = make_driver(rng, m, reachable=frozenset(range(m)))
        drivers = [proto for _ in range(5)]
        target = np.array([0, 5, 0])
        sol = equal_price_solve(target, drivers, np.zeros(m), np.zeros(m))
        assert sol.j_m == 0.0
        assert sol.mode == "equal-price"
        assert verify_zero_cost(sol, target, drivers, np.zeros(m))

    def test_two_identical_drivers_cannot_split(self):
        d = DriverParams(np.array([10.0, 10.0]), np.zeros(2),
                         np.array([1.0, 1.0]), frozenset([0, 1]))
        sol = equal_price_solve(np.array([1, 1]), [d, d], np.zeros(2),
                                np.zeros(2))
        # both drivers follow the same response: aggregate (2,0) or (0,2)
        assert sol.j_m == pytest.approx(1.0)

    def test_exact_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            m = int(rng.integers(2, 4))
            n_v = int(rng.integers(2, 8))
            drivers = [make_driver(rng, m) for _ in range(n_v)]
            prices = rng.uniform(0, 3, m)
            target = random_feasible_target(rng, drivers, m)
            sol = equal_price_solve(target, drivers, prices, np.zeros(m))

            # oracle: enumerate every per-driver choice combination and keep
            # the best aggregate inducible by some shared vector
            best = np.inf
            for combo in product(*[sorted(d.reachable) for d in drivers]):
                sigma = np.bincount(np.array(combo), minlength=m)
                j_m = 0.5 * float(np.sum((sigma - target) ** 2))
                if j_m >= best:
                    continue
                if _inducible(drivers, combo, prices, m):
                    best = j_m
            assert sol.j_m == pytest.approx(best)

    def test_local_search_not_better_than_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            m = 3
            drivers = [make_driver(rng, m) for _ in range(6)]
            prices = rng.uniform(0, 3, m)
            target = random_feasible_target(rng, drivers, m)
            exact = equal_price_solve(target, drivers, prices, np.zeros(m))
            search = _forced_search(target, drivers, prices, m, seed=0)
            assert search.j_m >= exact.j_m - 1e-9


def _inducible(drivers, combo, prices, m, margin=None, objective=None):
    """LP feasibility of a shared vector inducing the given choices.

    Without ``margin`` a tie only needs breaking against lower-indexed
    stations; with it every alternative must be worse by ``margin``. With
    an ``objective`` the LP optimum is returned (None when infeasible).
    """
    from scipy.optimize import linprog

    rows, rhs = [], []
    for d, j_c in zip(drivers, combo):
        alpha = d.demand * prices + d.base_revenue
        for j in d.reachable:
            if j == j_c:
                continue
            row = np.zeros(m)
            row[j] = d.surge_gain[j]
            row[j_c] -= d.surge_gain[j_c]
            if margin is None:
                slack = alpha[j] - alpha[j_c] - (1e-7 if j < j_c else 0.0)
            else:
                slack = alpha[j] - alpha[j_c] - margin
            rows.append(row)
            rhs.append(slack)
    c = np.zeros(m) if objective is None else objective
    if not rows:
        return True if objective is None else 0.0
    res = linprog(c, A_ub=np.array(rows), b_ub=np.array(rhs),
                  bounds=[(0.0, None)] * m, method="highs")
    if objective is None:
        return res.status == 0
    return res.fun if res.status == 0 else None


def _forced_search(target, drivers, prices, m, seed):
    """Run the stochastic path by making every driver its own class budget-buster."""
    return equal_price_solve(target, drivers, prices, np.zeros(m), budget=1,
                             seed=seed)


ASSIGNMENT_PATH = "least vector of the min-cost assignment"


def shared_gain_fleet(rng, m, n_v, n_distinct):
    """``n_v`` drivers sharing one gain vector, copies of ``n_distinct``
    distinct drivers, some of which reach a single station."""
    gain = rng.uniform(5.0, 20.0, m)
    distinct = []
    for _ in range(n_distinct):
        reach = frozenset([int(rng.integers(m))]) if rng.random() < 0.25 else None
        d = make_driver(rng, m, reachable=reach)
        distinct.append(DriverParams(d.demand, d.base_revenue, gain, d.reachable))
    copies = [distinct[int(rng.integers(n_distinct))] for _ in range(n_v - n_distinct)]
    return [(distinct + copies)[v] for v in rng.permutation(n_v)]


def brute_force_vector(drivers, target, prices, m):
    """The per-driver choice hitting the target that a shared vector induces
    with every alternative worse by the margin, or None."""
    for combo in product(*[sorted(d.reachable) for d in drivers]):
        if not np.array_equal(np.bincount(np.array(combo), minlength=m), target):
            continue
        if _inducible(drivers, combo, prices, m, margin=DEFAULT_MARGIN):
            return combo
    return None


class TestEqualPriceAssignment:
    def test_matches_brute_force_on_shared_gain_fleets(self):
        rng = np.random.default_rng(11)
        found = 0
        for case in range(90):
            m = int(rng.integers(2, 5))
            n_v = int(rng.integers(1, 9 if m < 4 else 7))
            n_distinct = int(rng.integers(1, n_v + 1))
            drivers = shared_gain_fleet(rng, m, n_v, n_distinct)
            prices = rng.uniform(0, 3, m)
            if case % 3:
                target = random_feasible_target(rng, drivers, m)
            else:   # the responses to some shared vector: often inducible
                rho = rng.uniform(0, 6, m)
                target = np.bincount([driver_best_response(d, rho, prices)
                                      for d in drivers], minlength=m)
            sol = equal_price_solve(target, drivers, prices, np.zeros(m))
            combo = brute_force_vector(drivers, target, prices, m)
            assert (sol.solver_info == ASSIGNMENT_PATH) == (combo is not None)
            if combo is None:
                continue
            found += 1
            assert sol.j_m == 0.0 and sol.mode == "equal-price"
            rho = sol.surge[0]
            assert np.all(sol.surge == rho[None, :])
            assert np.all(rho >= 0.0)
            induced = [driver_best_response(d, rho, prices) for d in drivers]
            assert induced == list(combo) == sol.assignment.tolist()
            assert verify_zero_cost(sol, target, drivers, prices)
            for k in range(m):
                lp_min = _inducible(drivers, combo, prices, m,
                                    margin=DEFAULT_MARGIN, objective=np.eye(m)[k])
                assert rho[k] <= lp_min + 1e-9
        assert min(found, 90 - found) >= 10    # both outcomes are exercised

    def test_floor_and_cap(self):
        rng = np.random.default_rng(12)
        m = 3
        drivers = shared_gain_fleet(rng, m, 6, 6)
        prices = rng.uniform(0, 3, m)
        rho = rng.uniform(0, 6, m)
        target = np.bincount([driver_best_response(d, rho, prices)
                              for d in drivers], minlength=m)
        free = equal_price_solve(target, drivers, prices, np.zeros(m))
        assert free.solver_info == ASSIGNMENT_PATH
        assert np.min(free.surge[0]) == 0.0     # one station stays at its floor

        rho_min = np.array([0.5, 1.0, 1.5])
        floored = equal_price_solve(target, drivers, prices, rho_min)
        assert floored.solver_info == ASSIGNMENT_PATH
        assert np.all(floored.surge[0] >= rho_min)
        assert verify_zero_cost(floored, target, drivers, prices)

        capped = equal_price_solve(target, drivers, prices, np.zeros(m),
                                   rho_cap=0.5 * float(np.max(free.surge[0])))
        assert capped.solver_info != ASSIGNMENT_PATH

    def test_zero_or_unshared_gain_takes_previous_path(self):
        rng = np.random.default_rng(13)
        m = 3
        proto = make_driver(rng, m, reachable=frozenset(range(m)))
        drivers = [proto] * 5
        target = np.array([0, 5, 0])
        shared = equal_price_solve(target, drivers, np.zeros(m), np.zeros(m))
        assert shared.solver_info == ASSIGNMENT_PATH

        gain = proto.surge_gain.copy()
        gain[0] = 0.0
        zero = DriverParams(proto.demand, proto.base_revenue, gain, proto.reachable)
        sol = equal_price_solve(target, [zero] * 5, np.zeros(m), np.zeros(m))
        assert sol.solver_info == "exact class enumeration"

        unshared = [DriverParams(proto.demand, proto.base_revenue,
                                 proto.surge_gain * (1.0 + 0.01 * v), proto.reachable)
                    for v in range(5)]
        sol = equal_price_solve(target, unshared, np.zeros(m), np.zeros(m))
        assert sol.solver_info == "exact class enumeration"
        sol = equal_price_solve(target, unshared, np.zeros(m), np.zeros(m),
                                budget=1)
        assert sol.solver_info == "local search (1 evaluations)"

    def test_demo_companies_take_assignment_path(self, demo_build):
        from chargegame.equilibrium import solve_nash
        from chargegame.feasible import discretize
        from chargegame.model import system_optimal_prices

        instance = demo_build.instance
        report = solve_nash(instance)
        for i in range(instance.n_companies):
            x_i = report.blocks[i]
            prices = system_optimal_prices(
                instance, i, x_i, report.sigma - instance.fleet_sizes[i] * x_i)
            drivers = demo_build.drivers[i]
            target = discretize(x_i, fleet_feasibility(drivers, instance.n_stations),
                                instance.companies[i].fleet_size)
            sol = equal_price_solve(target, drivers, prices,
                                    np.zeros(instance.n_stations))
            assert sol.solver_info == ASSIGNMENT_PATH
            assert sol.j_m == 0.0
            assert verify_zero_cost(sol, target, drivers, prices)
            assert two_step(target, drivers, prices).solver_info == ASSIGNMENT_PATH


class TestTwoStep:
    def test_equal_price_sufficient_case(self):
        rng = np.random.default_rng(8)
        m = 3
        proto = make_driver(rng, m, reachable=frozenset(range(m)))
        drivers = [proto] * 4
        target = np.array([0, 0, 4])
        sol = two_step(target, drivers, np.zeros(m))
        assert sol.mode == "equal-price"
        assert sol.j_m == 0.0

    def test_falls_back_to_per_vehicle(self):
        d = DriverParams(np.array([10.0, 10.0]), np.zeros(2),
                         np.array([1.0, 1.0]), frozenset([0, 1]))
        sol = two_step(np.array([1, 1]), [d, d], np.zeros(2))
        assert sol.mode == "per-vehicle"
        assert sol.j_m == 0.0
        assert verify_zero_cost(sol, np.array([1, 1]), [d, d], np.zeros(2))

    def test_zero_cost_on_50_random_scenarios(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            m = 4
            n_v = int(rng.integers(5, 200))
            drivers = [make_driver(rng, m) for _ in range(n_v)]
            target = random_feasible_target(rng, drivers, m)
            prices = rng.uniform(0, 4, m)
            sol = two_step(target, drivers, prices, seed=int(rng.integers(10_000)),
                           equal_budget=500)
            assert sol.j_m == 0.0
            check = verify_zero_cost(sol, target, drivers, prices)
            assert check.ok and not check.infeasible_target

    def test_propagates_infeasible_target(self):
        d = DriverParams(np.array([5.0, 0.0]), np.zeros(2), np.ones(2),
                         frozenset([0]))
        with pytest.raises(InfeasibleTargetError):
            two_step(np.array([0, 1]), [d], np.zeros(2))


class TestVerifyZeroCost:
    def test_detects_reduced_surge(self):
        d = DriverParams(np.array([1.0, 1.0]), np.array([0.0, 5.0]),
                         np.array([1.0, 1.0]), frozenset([0, 1]))
        sol = per_vehicle_prices(np.array([1]), [d], np.zeros(2), np.zeros(2))
        assert verify_zero_cost(sol, np.array([0, 1]), [d], np.zeros(2))
        sol.surge[0, 1] = 4.0  # below the preference threshold
        assert not verify_zero_cost(sol, np.array([0, 1]), [d], np.zeros(2))

    def test_infeasible_target_flagged(self):
        d = DriverParams(np.array([5.0, 0.0]), np.zeros(2), np.ones(2),
                         frozenset([0]))
        sol = per_vehicle_prices(np.array([0]), [d], np.zeros(2), np.zeros(2))
        check = verify_zero_cost(sol, np.array([0, 1]), [d], np.zeros(2))
        assert not check
        assert check.infeasible_target


def test_surge_csv_rows_nonzero_only():
    d = DriverParams(np.array([1.0, 1.0]), np.array([0.0, 5.0]),
                     np.array([1.0, 1.0]), frozenset([0, 1]))
    sol = per_vehicle_prices(np.array([1]), [d], np.zeros(2), np.zeros(2))
    rows = list(surge_price_rows([sol, sol]))
    assert rows[0] == "company,vehicle_id,station,rho,mode"
    assert len(rows) == 3
    assert rows[1].startswith("0,0,1,") and rows[1].endswith(",per-vehicle")
    assert rows[2].startswith("1,0,1,")
