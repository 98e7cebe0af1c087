"""Congestion law, battery model, simulation, parameter estimation, I/O."""

import dataclasses
import heapq

import numpy as np
import pytest

from chargegame.errors import DegenerateFleetError
from chargegame.network import (RoadNetwork, grid_network, read_demand,
                                read_network, write_demand, write_network)
from chargegame.scenario import (HOURS, Scenario, ScenarioParams, build_game,
                                 demand_share, discharge, load_scenario,
                                 mfd_speed, simulate_period, small_scenario,
                                 snapshot_rows, voronoi_regions, write_scenario)


def loop_simulate_reference(scenario, steps=None):
    """(node, battery, needs_charge) from a per-request loop that keeps a
    separate destination array and selects among the idle vehicles only.

    Independent oracle for ``simulate_period``: the same RNG draws, speed
    law, private-trip heap and nearest-idle rule, written one request at a
    time without a pickup matrix. A served trip of total length 0 leaves
    its vehicle idle at the destination at once. ``steps``, if given,
    receives (requests, idle vehicles) of every step with a request.
    """
    p = scenario.params
    rng = np.random.default_rng(scenario.seed)
    net = scenario.network
    dist = net.distances_km()
    n_total = int(np.sum(scenario.fleet_sizes))
    node = rng.integers(0, net.n_nodes, size=n_total)
    battery = rng.uniform(*p.battery_init, size=n_total)
    threshold = rng.uniform(*p.threshold, size=n_total)
    max_range = rng.uniform(*p.max_range_km, size=n_total)
    remaining_km = np.zeros(n_total)
    dest = node.copy()
    demand = scenario.demand[np.argsort(scenario.demand[:, 0], kind="stable")]
    pointer = 0
    private_expiry = []
    for step in range(int(round(p.horizon_h * HOURS / p.dt_s))):
        t_now = step * p.dt_s
        while private_expiry and private_expiry[0] <= t_now:
            heapq.heappop(private_expiry)
        accumulation = (p.base_accumulation + float(np.sum(remaining_km > 0))
                        + len(private_expiry))
        speed = mfd_speed(accumulation)
        if steps is not None:
            arriving = int(np.sum(demand[pointer:, 0] < t_now + p.dt_s))
            if arriving:
                steps.append((arriving, int(np.sum(remaining_km <= 0))))
        while pointer < demand.shape[0] and demand[pointer, 0] < t_now + p.dt_s:
            _, origin, destination = demand[pointer]
            origin, destination = int(origin), int(destination)
            pointer += 1
            idle = np.flatnonzero(remaining_km <= 0)
            served = False
            if idle.size and speed > 0:
                pickup = dist[node[idle], origin]
                ok = pickup <= speed * p.pickup_limit_s / HOURS
                if np.any(ok):
                    chosen = idle[ok][int(np.argmin(pickup[ok]))]
                    remaining_km[chosen] = pickup[ok].min() + dist[origin, destination]
                    dest[chosen] = destination
                    if remaining_km[chosen] <= 0:
                        node[chosen] = destination
                    served = True
            if not served:
                trip_h = dist[origin, destination] / max(speed, 1e-9)
                heapq.heappush(private_expiry, t_now + trip_h * HOURS)
        driving = remaining_km > 0
        if np.any(driving):
            travelled = np.minimum(remaining_km[driving], speed * p.dt_s / HOURS)
            battery[driving] = discharge(battery[driving], max_range[driving], travelled)
            remaining_km[driving] -= travelled
            arrived = driving.copy()
            arrived[driving] = remaining_km[driving] <= 1e-12
            node[arrived] = dest[arrived]
            remaining_km[arrived] = 0.0
    node = np.where(remaining_km > 0, dest, node)
    return node, battery, battery < threshold


def zero_length_city(seed):
    """Two nodes joined by a 0 m edge one way and a 1 km edge back. In the
    first step two requests go from the first vehicle's start node A to the
    other node B, a trip of length 0, and a third goes from B back to A."""
    params = ScenarioParams(horizon_h=0.5)
    fleet = np.array([2, 2])
    a = int(np.random.default_rng(seed).integers(0, 2, size=fleet.sum())[0])
    b = 1 - a
    net = RoadNetwork(np.arange(2), np.array([[0.0, 0.0], [1000.0, 0.0]]),
                      np.array([[a, b, 0.0], [b, a, 1000.0]]))
    demand = np.array([[0.0, a, b], [1.0, a, b], [2.0, b, a]])
    return Scenario(net, np.array([0, 1]), np.array([5.0, 5.0]), fleet, demand,
                    params, seed=seed)


class TestMFD:
    def test_free_flow_value(self):
        assert mfd_speed(0) == pytest.approx(36.0)

    def test_gridlock(self):
        assert mfd_speed(60_000) == 0.0
        assert mfd_speed(75_000) == 0.0

    def test_continuity_at_first_breakpoint(self):
        below = mfd_speed(36_000)
        above = 6.31  # linear branch value at the breakpoint
        assert abs(below - above) <= 0.02

    def test_linear_branch_clamped_before_end(self):
        # the linear branch hits zero near 58.5k, before its nominal end
        assert mfd_speed(59_000) == 0.0

    def test_nonnegative_and_monotone_on_grid(self):
        ns = np.linspace(0, 80_000, 400)
        vals = mfd_speed(ns)
        assert np.all(vals >= 0)
        assert np.all(np.diff(vals) <= 1e-9)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            mfd_speed(-1)


class TestDischarge:
    def test_substitution_example(self):
        assert discharge(90.0, 360.0, 36.0) == pytest.approx(80.0)

    def test_zero_speed_no_drain(self):
        assert discharge(50.0, 200.0, 0.0) == pytest.approx(50.0)

    def test_floors_at_zero(self):
        assert discharge(1.0, 100.0, 50.0) == 0.0

    def test_energy_accounting_over_trace(self):
        rng = np.random.default_rng(0)
        d_max = 240.0
        s = 95.0
        km_total = 0.0
        for _ in range(200):
            v = float(rng.uniform(0, 30))
            dt = float(rng.uniform(0.001, 0.02))
            s = discharge(s, d_max, v * dt)
            km_total += v * dt
        assert s == pytest.approx(95.0 - (100.0 / d_max) * km_total, abs=1e-9)


class TestSimulation:
    def test_deterministic_given_seed(self):
        sc = small_scenario()
        a = simulate_period(sc)
        b = simulate_period(sc)
        assert np.array_equal(a.battery, b.battery)
        assert np.array_equal(a.node, b.node)
        assert np.array_equal(a.needs_charge, b.needs_charge)

    def test_different_seed_differs(self):
        sc = small_scenario()
        a = simulate_period(dataclasses.replace(sc, seed=1))
        b = simulate_period(dataclasses.replace(sc, seed=2))
        assert not np.array_equal(a.battery, b.battery)

    def test_zero_demand_nobody_needs_charge(self):
        sc = small_scenario()
        sc = Scenario(sc.network, sc.station_nodes, sc.capacities,
                      sc.fleet_sizes, np.array([[1e9, 0, 1]]), sc.params,
                      seed=sc.seed)
        snap = simulate_period(sc)
        assert snap.charging_counts.tolist() == [0, 0]
        assert np.all(snap.battery >= 89.9)

    def test_demo_scale_charging_band(self, demo_snapshot, demo):
        frac = demo_snapshot.charging_counts / demo.fleet_sizes
        assert np.all(frac > 0.3) and np.all(frac < 0.6)

    def test_threshold_monotone_on_fixed_trace(self, demo_snapshot):
        base = demo_snapshot.battery < demo_snapshot.threshold
        raised = demo_snapshot.battery < (demo_snapshot.threshold + 5.0)
        assert np.all(base <= raised)

    @pytest.mark.parametrize("city, seed", [("demo", 9), ("demo", 1000), ("demo", 1001),
                                            ("small", 3), ("small", 4), ("small", 5),
                                            ("crowded", 3), ("zero-length", 0)])
    def test_matches_loop_reference(self, demo, city, seed):
        if city == "demo":
            sc = dataclasses.replace(demo, seed=seed)
        elif city == "zero-length":
            sc = zero_length_city(seed)
        else:
            sc = small_scenario(seed)
        if city == "crowded":       # 3 vehicles for ~12 requests a step
            sc = dataclasses.replace(sc, fleet_sizes=np.array([2, 1]))
        snap = simulate_period(sc)
        steps = []
        node, battery, needs = loop_simulate_reference(sc, steps)
        assert np.array_equal(snap.node, node)
        assert np.array_equal(snap.battery, battery)
        assert np.array_equal(snap.needs_charge, needs)
        if city == "crowded":
            assert any(0 < idle < arriving for arriving, idle in steps)
            assert any(idle == 0 for _, idle in steps)
        if city == "zero-length":
            # vehicles 0-2 start at node 1, vehicle 3 at node 0; vehicles 0
            # and 1 each serve a 0 m trip 1 -> 0 and stay idle at node 0,
            # where vehicle 0 (lowest index, pickup 0) takes the 1 km trip back
            assert steps == [(3, 4)]
            assert np.array_equal(snap.node, [1, 0, 1, 0])
            rng = np.random.default_rng(seed)     # the simulation's first two draws
            rng.integers(0, 2, size=4)
            start_battery = rng.uniform(*sc.params.battery_init, size=4)
            assert np.flatnonzero(snap.battery != start_battery).tolist() == [0]

    def test_no_dispatch_at_zero_speed(self):
        # accumulation never falls below 60k, so the network stands still
        sc = small_scenario()
        sc.params = dataclasses.replace(sc.params, base_accumulation=60_000)
        snap = simulate_period(sc)
        rng = np.random.default_rng(sc.seed)
        n_total = int(sc.fleet_sizes.sum())
        assert np.array_equal(snap.node, rng.integers(0, sc.network.n_nodes, size=n_total))
        assert np.array_equal(snap.battery, rng.uniform(*sc.params.battery_init, size=n_total))

    def test_tie_goes_to_the_lowest_index(self):
        # two nodes 1 km apart, one request: every idle vehicle at the
        # origin has pickup 0, and only the first of them may serve it
        net = RoadNetwork(np.arange(2), np.array([[0.0, 0.0], [1000.0, 0.0]]),
                          np.array([[0, 1, 1000.0], [1, 0, 1000.0]]))
        params = ScenarioParams(horizon_h=0.5)
        fleet = np.array([4, 4])
        rng = np.random.default_rng(0)      # the simulation's first two draws
        start = rng.integers(0, 2, size=fleet.sum())
        initial = rng.uniform(*params.battery_init, size=fleet.sum())
        origin = int(np.bincount(start).argmax())
        sc = Scenario(net, np.array([0, 1]), np.array([5.0, 5.0]), fleet,
                      np.array([[0.0, origin, 1 - origin]]), params, seed=0)
        snap = simulate_period(sc)
        first = int(np.flatnonzero(start == origin)[0])
        drained = np.flatnonzero(snap.battery != initial)
        assert drained.tolist() == [first]
        assert snap.node[first] == 1 - origin


class TestFeasibility:
    def test_full_battery_reaches_everything(self, demo, demo_snapshot):
        snap = demo_snapshot
        boosted = type(snap)(snap.company, snap.node,
                             np.full_like(snap.battery, 100.0),
                             snap.max_range_km, snap.threshold,
                             snap.needs_charge, snap.charge_per_pct)
        for feas in build_game(demo, boosted).feas:
            assert feas.reach.all()

    def test_reach_formula_example(self):
        # battery 10, range 300 km, distance 31 km: 10 - 10.33 < 0
        assert 10.0 - (100.0 / 300.0) * 31.0 < 0
        assert 10.0 - (100.0 / 300.0) * 29.0 > 0

    def test_views_consistent(self, demo, demo_build):
        for f, drivers in zip(demo_build.feas, demo_build.drivers):
            assert [frozenset(np.flatnonzero(row).tolist()) for row in f.reach] \
                == [d.reachable for d in drivers]

    def test_more_battery_never_shrinks_reach(self, demo, demo_snapshot):
        snap = demo_snapshot
        boosted = type(snap)(snap.company, snap.node,
                             np.minimum(snap.battery + 10.0, 100.0),
                             snap.max_range_km, snap.threshold,
                             snap.needs_charge, snap.charge_per_pct)
        base = build_game(demo, snap).feas
        more = build_game(demo, boosted).feas
        for f0, f1 in zip(base, more):
            assert np.all(f0.reach <= f1.reach)

    @pytest.mark.parametrize("fleet_seed", [None, 1000, 1013, 1039])
    def test_build_carries_one_reach_matrix(self, demo, demo_build, demo_snapshot,
                                            fleet_seed):
        if fleet_seed is None:
            build, snap = demo_build, demo_snapshot
        else:
            sc = dataclasses.replace(demo, seed=fleet_seed)
            snap = simulate_period(sc)
            build = build_game(sc, snap)
        # straight from the formula: battery - (100 / range) * distance > 0
        dist = demo.network.distances_km()[:, demo.station_nodes]
        expected = []
        for i in range(demo.n_companies):
            sel = np.flatnonzero(snap.needs_charge & (snap.company == i))
            left = (snap.battery[sel, None]
                    - (100.0 / snap.max_range_km[sel, None]) * dist[snap.node[sel]])
            expected.append(left > 0)
        assert len(build.feas) == len(build.drivers) == demo.n_companies
        for feas, want, drivers in zip(build.feas, expected, build.drivers):
            assert not feas.reach.flags.writeable
            assert np.array_equal(feas.reach, want)
            demand = np.array([d.demand for d in drivers])
            assert np.array_equal(feas.reach, demand > 0)

    def test_degenerate_fleet_detected(self, demo, demo_snapshot):
        snap = demo_snapshot
        drained = type(snap)(snap.company, snap.node,
                             np.full_like(snap.battery, 1e-6),
                             snap.max_range_km, snap.threshold,
                             snap.needs_charge, snap.charge_per_pct)
        with pytest.raises(DegenerateFleetError):
            build_game(demo, drained)


class TestEstimation:
    def test_charging_demand_substitution(self):
        # battery 90, range 300, distance 30: demand = 100 - (90 - 10) = 20
        beta, s_start, d_max, d = 1.0, 90.0, 300.0, 30.0
        delta = beta * (100.0 - (s_start - (100.0 / d_max) * d))
        assert delta == pytest.approx(20.0)

    def test_company_params_independent_recomputation(self, demo, demo_build,
                                                      demo_snapshot):
        # straight-from-formula second pass over the snapshot
        snap = demo_snapshot
        p = demo.params
        dist = demo.network.distances_km()
        companies, extras = demo_build.instance.companies, demo_build.extras
        for i, comp in enumerate(companies):
            sel = np.flatnonzero(snap.needs_charge & (snap.company == i))
            n_i = sel.size
            for k in range(demo.n_stations):
                deltas, dists = [], []
                for v in sel:
                    d_vk = dist[snap.node[v], demo.station_nodes[k]]
                    if snap.battery[v] - (100.0 / snap.max_range_km[v]) * d_vk > 0:
                        deltas.append(
                            snap.charge_per_pct[v]
                            * (100.0 - (snap.battery[v]
                                        - (100.0 / snap.max_range_km[v]) * d_vk)))
                        dists.append(d_vk)
                if deltas:
                    want_d = n_i * float(np.mean(deltas))
                    want_e = p.idle_cost_per_km * p.occupancy[k] * float(np.mean(dists))
                else:
                    want_d, want_e = 0.0, 0.0
                assert np.isclose(comp.demand[k], want_d, rtol=1e-12, atol=1e-12)
                assert np.isclose(extras[i]["e_arr"][k], want_e, rtol=1e-12,
                                  atol=1e-12)
            want_f = n_i * (extras[i]["e_arr"] - extras[i]["e_pro"])
            assert np.allclose(comp.revenue, want_f, rtol=1e-12)

    def test_driver_params_formulas(self, demo, demo_build):
        p = demo.params
        extras = demo_build.extras
        for i, fleet in enumerate(demo_build.drivers):
            g_want = (extras[i]["e_arr"]
                      - (p.driver_hours / p.daily_hours) * extras[i]["e_pro"])
            for d in fleet[:10]:
                assert np.allclose(d.base_revenue, g_want)
                assert np.allclose(
                    d.surge_gain,
                    p.driver_hours * p.speed_estimate * np.asarray(p.occupancy))

    def test_drivers_share_read_only_vectors(self, demo_build):
        for fleet in demo_build.drivers:
            gain = fleet[0].surge_gain
            assert all(d.surge_gain is gain for d in fleet)
            assert all(d.base_revenue is fleet[0].base_revenue for d in fleet)
            with pytest.raises(ValueError):
                gain[0] = 1.0
            with pytest.raises(ValueError):
                fleet[0].demand[0] = 1.0

    def test_surge_gain_values(self):
        # 2 h horizon, 20 km/h estimate, occupancy 0.35: gain 14
        assert 2.0 * 20.0 * 0.35 == pytest.approx(14.0)

    def test_zero_occupancy_zero_gain(self, demo, demo_snapshot):
        import dataclasses
        p2 = dataclasses.replace(demo.params, occupancy=(0.0, 0.1, 0.2, 0.15))
        sc2 = Scenario(demo.network, demo.station_nodes, demo.capacities,
                       demo.fleet_sizes, demo.demand, p2, demo.seed)
        drivers = build_game(sc2, demo_snapshot).drivers
        assert drivers[0][0].surge_gain[0] == 0.0

    def test_profit_noise_seeded(self, demo, demo_build, demo_snapshot):
        share = demo_build.share
        ex_a = build_game(dataclasses.replace(demo, seed=4), demo_snapshot).extras
        ex_b = build_game(dataclasses.replace(demo, seed=4), demo_snapshot).extras
        ex_c = build_game(dataclasses.replace(demo, seed=5), demo_snapshot).extras
        assert np.array_equal(ex_a[0]["e_pro"], ex_b[0]["e_pro"])
        assert not np.array_equal(ex_a[0]["e_pro"], ex_c[0]["e_pro"])
        for ex in ex_a:
            noise = ex["e_pro"] - 300.0 * share
            assert np.all(np.abs(noise) <= 10.0)


class TestRegions:
    def test_share_on_simplex_and_ranked(self, demo):
        z = demand_share(demo)
        assert z.sum() == pytest.approx(1.0)
        assert z[0] > z[2] > z[1] > z[3]

    def test_regions_cover_all_nodes(self, demo):
        regions = voronoi_regions(demo.network, demo.station_nodes)
        assert regions.shape == (demo.network.n_nodes,)
        assert set(np.unique(regions)) <= set(range(demo.n_stations))


class TestIO:
    def test_network_round_trip(self, tmp_path):
        net = grid_network(4, 3, seed=1)
        write_network(tmp_path / "net.txt", net)
        back = read_network(tmp_path / "net.txt")
        assert np.array_equal(back.node_ids, net.node_ids)
        assert np.allclose(back.coords, net.coords)
        assert np.allclose(back.edges, net.edges)

    def test_demand_round_trip(self, tmp_path):
        demand = np.array([[0.0, 1, 2], [30.5, 4, 0]])
        write_demand(tmp_path / "d.csv", demand)
        back = read_demand(tmp_path / "d.csv")
        assert np.allclose(back, demand)

    def test_scenario_round_trip(self, tmp_path):
        sc = small_scenario()
        path = write_scenario(sc, tmp_path)
        back = load_scenario(path)
        assert np.array_equal(back.station_nodes, sc.station_nodes)
        assert np.array_equal(back.fleet_sizes, sc.fleet_sizes)
        assert back.params == sc.params
        a = simulate_period(sc)
        b = simulate_period(back)
        assert np.array_equal(a.battery, b.battery)

    def test_snapshot_rows_format(self, demo_snapshot):
        rows = list(snapshot_rows(demo_snapshot))
        assert rows[0] == "company,vehicle_id,node,battery,needs_charge"
        assert len(rows) == demo_snapshot.company.size + 1


def test_build_game_assembles_consistent_instance(demo_build, demo_snapshot):
    inst = demo_build.instance
    assert inst.n_companies == 3
    counts = demo_snapshot.charging_counts
    assert [c.fleet_size for c in inst.companies] == counts.tolist()
    assert inst.government.set_point.sum() == pytest.approx(counts.sum())
    for i, fleet in enumerate(demo_build.drivers):
        assert len(fleet) == counts[i]
