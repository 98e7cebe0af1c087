"""Driver matching, best responses, and surge-price construction."""

from itertools import product

import numpy as np
import pytest

from chargegame import surge
from chargegame.errors import DegenerateFleetError, InfeasibleTargetError, ZeroGainError
from chargegame.feasible import FeasibilityStructure
from chargegame.surge import (DEFAULT_MARGIN, DriverParams, Fleet, assign_vehicles,
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
    return DriverParams(demand, rng.normal(0, 25, m), rng.uniform(*gain_range, m))


@pytest.fixture
def matchings(monkeypatch):
    """Counts the matching solves ``two_step`` runs: ``len(matchings)``."""
    calls = []

    def counted(target, feas):
        calls.append(target)
        return assign_vehicles(target, feas)

    monkeypatch.setattr(surge, "assign_vehicles", counted)
    return calls


def random_feasible_target(rng, drivers, m):
    """Assign every driver a reachable station; counts are matchable by construction."""
    choice = np.array([
        int(rng.choice(sorted(d.reachable))) for d in drivers
    ])
    return np.bincount(choice, minlength=m)


class TestFleet:
    def test_stacks_a_driver_list_once(self):
        rng = np.random.default_rng(0)
        drivers = [make_driver(rng, 3) for _ in range(5)]
        fleet = Fleet.of(drivers, 3)
        assert Fleet.of(fleet, 3) is fleet
        assert len(fleet) == 5 and len(fleet[1:4]) == 3
        for d, item in zip(drivers, fleet):
            for attr in ("demand", "base_revenue", "surge_gain"):
                assert np.array_equal(getattr(item, attr), getattr(d, attr))
            assert item.reachable == d.reachable
        with pytest.raises(ValueError):
            fleet.demand[0, 0] = 1.0
        assert Fleet.of([], 3).demand.shape == (0, 3)

    def test_shared_vectors_are_stored_once(self):
        gain = np.array([1.0, 2.0])
        fleet = Fleet(np.ones((4, 2)), np.zeros(2), gain)
        assert fleet.surge_gain.shape == (4, 2) and fleet.surge_gain.strides[0] == 0
        assert all(d.surge_gain is fleet[0].surge_gain for d in fleet)
        assert gain.flags.writeable     # the fleet's view is read-only, not the caller's array

    @pytest.mark.parametrize("shape", [(3,), (1, 2), (4, 2)])
    def test_rejects_vectors_of_another_shape(self, shape):
        with pytest.raises(ValueError, match="shared"):
            Fleet(np.ones((3, 2)), np.zeros(shape), np.ones(2))

    def test_rejects_negative_gains(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Fleet(np.ones((2, 2)), np.zeros(2), np.array([1.0, -1.0]))


class TestAssignVehicles:
    def test_counts_match_when_all_reach_all(self):
        feas = FeasibilityStructure.full(3, 2)
        out = assign_vehicles(np.array([2, 1]), feas)
        assert np.bincount(out, minlength=2).tolist() == [2, 1]

    def test_forced_unique_matching(self):
        feas = FeasibilityStructure(np.array([[True, False], [True, True]]))
        out = assign_vehicles(np.array([1, 1]), feas)
        assert out.tolist() == [0, 1]

    def test_infeasible_target_raises(self):
        feas = FeasibilityStructure(np.array([[True, False], [True, False]]))
        for target in ([1, 1], [1, 0], [3, 0]):     # unmatchable, short, over
            with pytest.raises(InfeasibleTargetError):
                assign_vehicles(np.array(target), feas)

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
        d = DriverParams(np.array([5.0, 0.0]), np.zeros(2), np.ones(2))
        assert driver_best_response(d, np.zeros(2), np.array([1.0, 1.0])) == 0

    def test_surge_dominates_identical_stations(self):
        d = DriverParams(np.array([5.0, 5.0]), np.zeros(2), np.ones(2))
        assert driver_best_response(d, np.array([0.0, 1.0]), np.ones(2)) == 1

    def test_tie_breaks_to_lowest_index(self):
        d = DriverParams(np.array([5.0, 5.0]), np.zeros(2), np.ones(2))
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


def loop_thresholds(assignment, drivers, prices, rho_min, margin=DEFAULT_MARGIN):
    """Reference surge rows, one driver at a time: the floor, with the
    target entry lifted past every other reachable station's cost."""
    surge = np.tile(rho_min, (len(drivers), 1))
    for v, d in enumerate(drivers):
        t = int(assignment[v])
        if driver_best_response(d, surge[v], prices) == t:
            continue
        costs = d.demand * prices + d.base_revenue
        needed = max((costs[t] - costs[j] + d.surge_gain[j] * rho_min[j]) / d.surge_gain[t]
                     for j in d.reachable if j != t)
        surge[v, t] = max(rho_min[t], needed + margin)
    return surge


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
                         np.array([1.0, 1.0]))
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
                         np.array([1.0, 0.0]))
        with pytest.raises(ZeroGainError):
            per_vehicle_prices(np.array([1]), [d], np.zeros(2), np.zeros(2))

    def test_thresholds_match_per_driver_loop(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            m = int(rng.integers(2, 6))
            drivers = [make_driver(rng, m) for _ in range(int(rng.integers(1, 30)))]
            target = random_feasible_target(rng, drivers, m)
            assignment = assign_vehicles(target, fleet_feasibility(drivers, m))
            prices = rng.uniform(0, 4, m)
            rho_min = rng.uniform(0.0, 0.5, m)
            sol = per_vehicle_prices(assignment, drivers, prices, rho_min)
            assert np.array_equal(sol.surge,
                                  loop_thresholds(assignment, drivers, prices, rho_min))

    def test_first_failing_vehicle_raises(self):
        # every driver prefers station 0 at zero surge; vehicle 2 needs a
        # lift at a zero gain and vehicle 4 cannot reach its target
        reaches_both = DriverParams(np.array([1.0, 1.0]), np.array([0.0, 5.0]),
                                    np.ones(2))
        zero_gain = DriverParams(np.array([1.0, 1.0]), np.array([0.0, 5.0]),
                                 np.array([1.0, 0.0]))
        stranded = DriverParams(np.array([1.0, 0.0]), np.zeros(2), np.ones(2))
        assignment = np.array([0, 1, 1, 0, 1])
        drivers = [reaches_both, reaches_both, zero_gain, reaches_both, stranded]
        with pytest.raises(ZeroGainError, match="vehicle 2 "):
            per_vehicle_prices(assignment, drivers, np.zeros(2), np.zeros(2))
        drivers[2], drivers[4] = stranded, zero_gain
        with pytest.raises(InfeasibleTargetError, match="vehicle 2 "):
            per_vehicle_prices(assignment, drivers, np.zeros(2), np.zeros(2))

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
                         np.array([1.0, 1.0]))
        sol = equal_price_solve(np.array([1, 1]), [d, d], np.zeros(2),
                                np.zeros(2))
        # both drivers follow the same response: aggregate (2,0) or (0,2)
        assert sol.j_m == pytest.approx(1.0)


def _inducible(drivers, combo, prices, m, objective=None):
    """LP feasibility of a shared vector inducing the given choices, every
    alternative worse by the margin. With an ``objective`` the LP optimum
    is returned (None when infeasible).
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
            rows.append(row)
            rhs.append(alpha[j] - alpha[j_c] - DEFAULT_MARGIN)
    c = np.zeros(m) if objective is None else objective
    if not rows:
        return True if objective is None else 0.0
    res = linprog(c, A_ub=np.array(rows), b_ub=np.array(rhs),
                  bounds=[(0.0, None)] * m, method="highs")
    if objective is None:
        return res.status == 0
    return res.fun if res.status == 0 else None


ASSIGNMENT_PATH = "least vector of the min-cost assignment"


def shared_gain_fleet(rng, m, n_v, n_distinct, zero_gain=False):
    """``n_v`` drivers sharing one gain vector, copies of ``n_distinct``
    distinct drivers, some of which reach a single station. With
    ``zero_gain`` one or more stations of the shared vector gain nothing."""
    gain = rng.uniform(5.0, 20.0, m)
    if zero_gain:
        gain[rng.choice(m, int(rng.integers(1, m)), replace=False)] = 0.0
    distinct = []
    for _ in range(n_distinct):
        reach = frozenset([int(rng.integers(m))]) if rng.random() < 0.25 else None
        d = make_driver(rng, m, reachable=reach)
        distinct.append(DriverParams(d.demand, d.base_revenue, gain))
    copies = [distinct[int(rng.integers(n_distinct))] for _ in range(n_v - n_distinct)]
    return [(distinct + copies)[v] for v in rng.permutation(n_v)]


def brute_force_vector(drivers, target, prices, m):
    """The per-driver choice hitting the target that a shared vector induces
    with every alternative worse by the margin, or None."""
    for combo in product(*[sorted(d.reachable) for d in drivers]):
        if not np.array_equal(np.bincount(np.array(combo), minlength=m), target):
            continue
        if _inducible(drivers, combo, prices, m):
            return combo
    return None


class TestEqualPriceAssignment:
    def test_matches_brute_force_on_shared_gain_fleets(self):
        rng = np.random.default_rng(11)
        found = zero_found = 0
        for case in range(120):
            m = int(rng.integers(2, 5))
            n_v = int(rng.integers(1, 9 if m < 4 else 7))
            n_distinct = int(rng.integers(1, n_v + 1))
            zero_gain = case % 4 == 3
            drivers = shared_gain_fleet(rng, m, n_v, n_distinct, zero_gain)
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
                assert sol.solver_info == "floor vector: no supporting vector"
                assert np.all(sol.surge == 0.0)
                continue
            found += 1
            zero_found += zero_gain
            assert sol.j_m == 0.0 and sol.mode == "equal-price"
            rho = sol.surge[0]
            assert np.all(sol.surge == rho[None, :])
            assert np.all(rho >= 0.0)
            induced = [driver_best_response(d, rho, prices) for d in drivers]
            assert induced == list(combo) == sol.assignment.tolist()
            assert verify_zero_cost(sol, target, drivers, prices)
            for k in range(m):
                lp_min = _inducible(drivers, combo, prices, m, objective=np.eye(m)[k])
                assert rho[k] <= lp_min + 1e-9
        # both outcomes are exercised, with and without zero gains
        assert min(found, 120 - found) >= 10
        assert min(zero_found, 30 - zero_found) >= 5

    def test_floor_respected(self):
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

    def test_zero_gain_shares_and_unshared_gain_floors(self):
        rng = np.random.default_rng(13)
        m = 3
        proto = make_driver(rng, m, reachable=frozenset(range(m)))
        target = np.array([0, 5, 0])
        shared = equal_price_solve(target, [proto] * 5, np.zeros(m), np.zeros(m))
        assert shared.solver_info == ASSIGNMENT_PATH

        # station 0 gains nothing, so it stays at its floor: drivers can be
        # lifted to station 1 but never pulled back to station 0
        zero = DriverParams(np.ones(2), np.array([0.0, 5.0]), np.array([0.0, 1.0]))
        floor = np.array([0.25, 0.0])
        to_one = equal_price_solve(np.array([0, 3]), [zero] * 3, np.zeros(2), floor)
        assert to_one.solver_info == ASSIGNMENT_PATH and to_one.j_m == 0.0
        assert to_one.surge[0].tolist() == [0.25, 5.0 + DEFAULT_MARGIN]
        back = DriverParams(np.ones(2), np.array([5.0, 0.0]), np.array([0.0, 1.0]))
        to_zero = equal_price_solve(np.array([3, 0]), [back] * 3, np.zeros(2), floor)
        assert to_zero.solver_info == "floor vector: no supporting vector"
        assert to_zero.assignment.tolist() == [1, 1, 1] and to_zero.j_m == 9.0

        rho_min = np.array([0.25, 0.0, 0.0])
        unshared = [DriverParams(proto.demand, proto.base_revenue,
                                 proto.surge_gain * (1.0 + 0.01 * v))
                    for v in range(5)]
        prices = np.zeros(m)
        sol = equal_price_solve(target, unshared, prices, rho_min)
        assert sol.solver_info == "floor vector: surge gains differ"
        assert np.all(sol.surge == rho_min)
        responses = [driver_best_response(d, rho_min, prices) for d in unshared]
        assert sol.assignment.tolist() == responses
        sigma = np.bincount(responses, minlength=m)
        assert sol.j_m == 0.5 * float(np.sum((sigma - target) ** 2))

    def test_demo_companies_take_assignment_path(self, demo_build, matchings):
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
            target = discretize(x_i, fleet_feasibility(drivers, instance.n_stations))
            sol = equal_price_solve(target, drivers, prices,
                                    np.zeros(instance.n_stations))
            assert sol.solver_info == ASSIGNMENT_PATH
            assert sol.j_m == 0.0
            assert verify_zero_cost(sol, target, drivers, prices)
            assert two_step(target, drivers, prices).solver_info == ASSIGNMENT_PATH
        assert len(matchings) == 0      # the shared vector is the matching


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

    def test_falls_back_to_per_vehicle(self, matchings):
        d = DriverParams(np.array([10.0, 10.0]), np.zeros(2),
                         np.array([1.0, 1.0]))
        sol = two_step(np.array([1, 1]), [d, d], np.zeros(2))
        assert sol.mode == "per-vehicle"
        assert len(matchings) == 1
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
            rng.integers(10_000)    # unused draw: keeps the generated fleets
            sol = two_step(target, drivers, prices)
            assert sol.j_m == 0.0
            check = verify_zero_cost(sol, target, drivers, prices)
            assert check.ok and not check.infeasible_target

    def test_propagates_infeasible_target(self, matchings):
        d = DriverParams(np.array([5.0, 0.0]), np.zeros(2), np.ones(2))
        with pytest.raises(InfeasibleTargetError):
            two_step(np.array([0, 1]), [d], np.zeros(2))
        assert len(matchings) == 1

    def test_rejects_a_driver_without_reach(self):
        # the floor responses would count the stranded driver at station 0
        stranded = DriverParams(np.zeros(2), np.zeros(2), np.ones(2))
        with pytest.raises(DegenerateFleetError):
            two_step(np.array([1, 0]), [stranded], np.zeros(2))


class TestVerifyZeroCost:
    def test_detects_reduced_surge(self):
        d = DriverParams(np.array([1.0, 1.0]), np.array([0.0, 5.0]),
                         np.array([1.0, 1.0]))
        sol = per_vehicle_prices(np.array([1]), [d], np.zeros(2), np.zeros(2))
        assert verify_zero_cost(sol, np.array([0, 1]), [d], np.zeros(2))
        sol.surge[0, 1] = 4.0  # below the preference threshold
        assert not verify_zero_cost(sol, np.array([0, 1]), [d], np.zeros(2))

    def test_infeasible_target_flagged(self):
        d = DriverParams(np.array([5.0, 0.0]), np.zeros(2), np.ones(2))
        sol = per_vehicle_prices(np.array([0]), [d], np.zeros(2), np.zeros(2))
        check = verify_zero_cost(sol, np.array([0, 1]), [d], np.zeros(2))
        assert not check
        assert check.infeasible_target


def test_surge_csv_rows_nonzero_only():
    d = DriverParams(np.array([1.0, 1.0]), np.array([0.0, 5.0]),
                     np.array([1.0, 1.0]))
    sol = per_vehicle_prices(np.array([1]), [d], np.zeros(2), np.zeros(2))
    rows = list(surge_price_rows([sol, sol]))
    assert rows[0] == "company,vehicle_id,station,rho,mode"
    assert len(rows) == 3
    assert rows[1].startswith("0,0,1,") and rows[1].endswith(",per-vehicle")
    assert rows[2].startswith("1,0,1,")
