"""Congestion law, battery model, simulation, parameter estimation, I/O."""

import dataclasses

import numpy as np
import pytest

from chargegame.errors import DegenerateFleetError
from chargegame.network import (grid_network, read_demand, read_network,
                                write_demand, write_network)
from chargegame.scenario import (Scenario, build_game, compute_feasibility,
                                 demand_share, discharge_step,
                                 estimate_company_params,
                                 estimate_driver_params, load_scenario,
                                 mfd_speed, simulate_period, small_scenario,
                                 snapshot_rows, voronoi_regions,
                                 write_scenario)


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
        assert discharge_step(90.0, 360.0, 36.0, 1.0) == pytest.approx(80.0)

    def test_zero_speed_no_drain(self):
        assert discharge_step(50.0, 200.0, 0.0, 1.0) == pytest.approx(50.0)

    def test_floors_at_zero(self):
        assert discharge_step(1.0, 100.0, 50.0, 1.0) == 0.0

    def test_energy_accounting_over_trace(self):
        rng = np.random.default_rng(0)
        d_max = 240.0
        s = 95.0
        km_total = 0.0
        for _ in range(200):
            v = float(rng.uniform(0, 30))
            dt = float(rng.uniform(0.001, 0.02))
            s = discharge_step(s, d_max, v, dt)
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
        a = simulate_period(sc, seed=1)
        b = simulate_period(sc, seed=2)
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


class TestFeasibility:
    def test_full_battery_reaches_everything(self, demo, demo_snapshot):
        snap = demo_snapshot
        boosted = type(snap)(snap.company, snap.node,
                             np.full_like(snap.battery, 100.0),
                             snap.max_range_km, snap.threshold,
                             snap.needs_charge, snap.charge_per_pct)
        for feas in compute_feasibility(boosted, demo):
            assert feas.reach.all()

    def test_reach_formula_example(self):
        # battery 10, range 300 km, distance 31 km: 10 - 10.33 < 0
        assert 10.0 - (100.0 / 300.0) * 31.0 < 0
        assert 10.0 - (100.0 / 300.0) * 29.0 > 0

    def test_views_consistent(self, demo, demo_build):
        feas = compute_feasibility(demo_build.snapshot, demo)
        for f, drivers in zip(feas, demo_build.drivers):
            assert [frozenset(np.flatnonzero(row).tolist()) for row in f.reach] \
                == [d.reachable for d in drivers]

    def test_more_battery_never_shrinks_reach(self, demo, demo_snapshot):
        snap = demo_snapshot
        boosted = type(snap)(snap.company, snap.node,
                             np.minimum(snap.battery + 10.0, 100.0),
                             snap.max_range_km, snap.threshold,
                             snap.needs_charge, snap.charge_per_pct)
        base = compute_feasibility(snap, demo)
        more = compute_feasibility(boosted, demo)
        for f0, f1 in zip(base, more):
            assert np.all(f0.reach <= f1.reach)

    @pytest.mark.parametrize("fleet_seed", [None, 1000, 1013, 1039])
    def test_build_carries_one_reach_matrix(self, demo, demo_build, fleet_seed):
        build = (demo_build if fleet_seed is None
                 else build_game(dataclasses.replace(demo, seed=fleet_seed)))
        expected = compute_feasibility(build.snapshot, demo)
        assert len(build.feas) == len(build.drivers) == demo.n_companies
        for feas, want, drivers in zip(build.feas, expected, build.drivers):
            assert not feas.reach.flags.writeable
            assert np.array_equal(feas.reach, want.reach)
            demand = np.array([d.demand for d in drivers])
            assert np.array_equal(feas.reach, demand > 0)

    def test_degenerate_fleet_detected(self, demo, demo_snapshot):
        snap = demo_snapshot
        drained = type(snap)(snap.company, snap.node,
                             np.full_like(snap.battery, 1e-6),
                             snap.max_range_km, snap.threshold,
                             snap.needs_charge, snap.charge_per_pct)
        with pytest.raises(DegenerateFleetError):
            compute_feasibility(drained, demo)


class TestEstimation:
    def test_charging_demand_substitution(self):
        # battery 90, range 300, distance 30: demand = 100 - (90 - 10) = 20
        beta, s_start, d_max, d = 1.0, 90.0, 300.0, 30.0
        delta = beta * (100.0 - (s_start - (100.0 / d_max) * d))
        assert delta == pytest.approx(20.0)

    def test_company_params_independent_recomputation(self, demo, demo_build):
        # straight-from-formula second pass over the snapshot
        snap = demo_build.snapshot
        share = demo_build.share
        p = demo.params
        dist = demo.network.distances_km()
        companies, extras = estimate_company_params(snap, demo, share)
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
        drivers = estimate_driver_params(demo_build.snapshot, demo,
                                         demo_build.extras)
        for i, fleet in enumerate(drivers):
            g_want = (demo_build.extras[i]["e_arr"]
                      - (p.driver_hours / p.daily_hours) * demo_build.extras[i]["e_pro"])
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

    def test_zero_occupancy_zero_gain(self, demo, demo_build):
        import dataclasses
        p2 = dataclasses.replace(demo.params, occupancy=(0.0, 0.1, 0.2, 0.15))
        sc2 = Scenario(demo.network, demo.station_nodes, demo.capacities,
                       demo.fleet_sizes, demo.demand, p2, demo.seed)
        drivers = estimate_driver_params(demo_build.snapshot, sc2,
                                         demo_build.extras)
        assert drivers[0][0].surge_gain[0] == 0.0

    def test_profit_noise_seeded(self, demo, demo_build):
        share = demo_build.share
        _, ex_a = estimate_company_params(demo_build.snapshot, demo, share,
                                          seed=5)
        _, ex_b = estimate_company_params(demo_build.snapshot, demo, share,
                                          seed=5)
        _, ex_c = estimate_company_params(demo_build.snapshot, demo, share,
                                          seed=6)
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


def test_build_game_assembles_consistent_instance(demo_build):
    inst = demo_build.instance
    assert inst.n_companies == 3
    counts = demo_build.snapshot.charging_counts
    assert [c.fleet_size for c in inst.companies] == counts.tolist()
    assert inst.government.set_point.sum() == pytest.approx(counts.sum())
    for i, fleet in enumerate(demo_build.drivers):
        assert len(fleet) == counts[i]
