"""Matching feasibility, admissible polytopes, rounding."""

import numpy as np
import pytest

from chargegame.errors import DegenerateFleetError, EmptyPolytopeError
from chargegame.feasible import (FeasibilityStructure, admissible_polytope,
                                 discretize, hall_condition)


def maxflow_feasible(target, reach):
    """Independent oracle: BFS max-flow on the station-clone bipartite graph.

    Source -> vehicle (cap 1), vehicle -> station clone (cap 1),
    station -> sink (cap target). Feasible iff max flow == n_vehicles.
    """
    n_v, m = reach.shape
    # node ids: 0 source, 1..n_v vehicles, n_v+1..n_v+m stations, last sink
    n_nodes = n_v + m + 2
    sink = n_nodes - 1
    cap = np.zeros((n_nodes, n_nodes), dtype=int)
    for v in range(n_v):
        cap[0, 1 + v] = 1
        for j in range(m):
            if reach[v, j]:
                cap[1 + v, 1 + n_v + j] = 1
    for j in range(m):
        cap[1 + n_v + j, sink] = int(target[j])

    flow = 0
    while True:
        # BFS for an augmenting path
        parent = np.full(n_nodes, -1)
        parent[0] = 0
        queue = [0]
        while queue:
            u = queue.pop(0)
            if u == sink:
                break
            for w in np.flatnonzero(cap[u] > 0):
                if parent[w] < 0:
                    parent[w] = u
                    queue.append(w)
        if parent[sink] < 0:
            break
        # trace back, push one unit
        w = sink
        while w != 0:
            u = parent[w]
            cap[u, w] -= 1
            cap[w, u] += 1
            w = u
        flow += 1
    return flow == n_v


def random_fleet(rng, n_v, m):
    reach = rng.random((n_v, m)) < rng.uniform(0.3, 0.9)
    reach[~reach.any(axis=1), rng.integers(0, m, size=(~reach.any(axis=1)).sum())] = True
    return reach


class TestHallCondition:
    def test_two_vehicles_one_station(self):
        feas = FeasibilityStructure(2, (frozenset([0]), frozenset([0])))
        assert hall_condition(np.array([2, 0]), feas)

    def test_unreachable_station_demand(self):
        feas = FeasibilityStructure(2, (frozenset([0]), frozenset([0])))
        assert not hall_condition(np.array([1, 1]), feas)

    def test_agrees_with_maxflow_on_1000_random_instances(self):
        rng = np.random.default_rng(42)
        disagreements = 0
        for _ in range(1000):
            m = int(rng.integers(2, 5))
            n_v = int(rng.integers(1, 9))
            reach = random_fleet(rng, n_v, m)
            feas = FeasibilityStructure.from_matrix(reach)
            target = rng.multinomial(n_v, np.ones(m) / m)
            if hall_condition(target, feas) != maxflow_feasible(target, reach):
                disagreements += 1
        assert disagreements == 0

    def test_station_limit_guard(self):
        feas = FeasibilityStructure(2, (frozenset([0, 1]),))
        big = FeasibilityStructure(21, (frozenset(range(21)),))
        with pytest.raises(ValueError):
            hall_condition(np.zeros(21, dtype=int), big)


class TestAdmissiblePolytope:
    def test_subset_inequality_count(self):
        feas = FeasibilityStructure.full(6, 4)
        poly = admissible_polytope(feas, 6)
        assert poly.subset_masks.size == 2**4 - 2

    def test_full_reach_matches_formula_bounds(self):
        # vertex-style check on m=3, fleet 5: membership must coincide with
        # the subset caps (fleet - |S|)/fleet intersected with the simplex
        feas = FeasibilityStructure.full(5, 3)
        poly = admissible_polytope(feas, 5)
        rng = np.random.default_rng(0)
        for _ in range(300):
            v = rng.exponential(1.0, 3)
            x = v / v.sum()
            manual = all(
                x[list(s)].sum() <= max(0, 5 - len(s)) / 5 + 1e-12
                for s in [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]
            )
            assert poly.contains(x, tol=1e-12) == manual

    def test_single_station_is_point(self):
        feas = FeasibilityStructure.full(3, 1)
        poly = admissible_polytope(feas, 3)
        assert poly.contains(np.array([1.0]))
        assert not poly.contains(np.array([0.9]))

    def test_zero_cap_forces_zero_allocation(self):
        # station 2 reachable by nobody: its singleton cap is 0, the row
        # pins x_2 = 0, and the complement cap leaves no room for the rest,
        # so the whole fleet state is degenerate
        reach = np.array([[True, False], [True, False], [True, False]])
        feas = FeasibilityStructure.from_matrix(reach)
        poly = admissible_polytope(feas, 3)
        assert poly.forced_zero.tolist() == [False, True]
        row = int(np.flatnonzero(poly.subset_masks == 0b10)[0])
        assert poly.h[row] == 0.0
        assert poly.is_empty

    def test_empty_polytope_detected(self):
        # two stations, one vehicle: every singleton cap is 0, so no mass fits
        feas = FeasibilityStructure(2, (frozenset([0, 1]),))
        poly = admissible_polytope(feas, 1)
        assert poly.is_empty
        with pytest.raises(EmptyPolytopeError):
            poly.project(np.array([0.5, 0.5]))

    def test_degenerate_vehicle_rejected(self):
        with pytest.raises(DegenerateFleetError):
            FeasibilityStructure(2, (frozenset(),))


class TestProject:
    def test_already_inside(self):
        feas = FeasibilityStructure.full(8, 3)
        poly = admissible_polytope(feas, 8)
        x = np.array([0.3, 0.3, 0.4])
        assert np.allclose(poly.project(x), x, atol=1e-10)

    def test_station_consistency_both_views(self):
        rng = np.random.default_rng(1)
        reach = random_fleet(rng, 7, 3)
        feas = FeasibilityStructure.from_matrix(reach)
        for j in range(3):
            for v in range(7):
                assert (v in feas.station_vehicles(j)) == (j in feas.vehicle_stations[v])


class TestDiscretize:
    def test_integral_input(self):
        feas = FeasibilityStructure.full(3, 3)
        out = discretize(np.array([1 / 3, 1 / 3, 1 / 3]), feas, 3)
        assert out.tolist() == [1, 1, 1]

    def test_half_split(self):
        feas = FeasibilityStructure.full(3, 2)
        out = discretize(np.array([0.5, 0.5]), feas, 3)
        assert sorted(out.tolist()) == [1, 2]
        assert out.sum() == 3

    def test_500_random_admissible_points_round_matchable(self):
        rng = np.random.default_rng(2)
        checked = 0
        while checked < 500:
            m = int(rng.integers(2, 5))
            n_v = int(rng.integers(m, 12))
            reach = random_fleet(rng, n_v, m)
            feas = FeasibilityStructure.from_matrix(reach)
            poly = admissible_polytope(feas, n_v)
            if poly.is_empty:
                continue
            raw = rng.exponential(1.0, m)
            x = poly.project(raw / raw.sum())
            target = discretize(x, feas, n_v)
            assert hall_condition(target, feas)
            assert target.sum() == n_v
            scaled = n_v * x
            assert np.all(target >= np.floor(scaled + 1e-9) - 0)
            assert np.all(target <= np.ceil(scaled - 1e-9) + 0)
            checked += 1
