"""Matching feasibility, admissible polytopes, rounding."""

from itertools import combinations

import numpy as np
import pytest

from chargegame.errors import (DegenerateFleetError, EmptyPolytopeError,
                               InfeasibleTargetError)
from chargegame.feasible import (FeasibilityStructure, admissible_polytope,
                                 discretize, hall_condition)
from chargegame.qp import MAX_STATIONS_FOR_SUBSETS
from chargegame.surge import assign_vehicles

from conftest import contains


def subset_hall(target, reach):
    """Independent oracle: the marriage condition over every station subset.

    Every slot can get its own vehicle iff no subset S of stations needs
    more vehicles than reach into S. Enumerates all 2^m - 1 subsets.
    """
    target = np.asarray(target)
    if np.any(target < 0):
        return False
    m = reach.shape[1]
    for mask in range(1, 1 << m):
        stations = [j for j in range(m) if mask >> j & 1]
        if target[stations].sum() > reach[:, stations].any(axis=1).sum():
            return False
    return True


def maxflow_feasible(target, reach):
    """Independent oracle: BFS max-flow on the station-clone bipartite graph.

    Source -> vehicle (cap 1), vehicle -> station clone (cap 1),
    station -> sink (cap target). Feasible iff the max flow fills every
    slot, i.e. equals sum(target).
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
    return flow == int(np.sum(target))


def random_fleet(rng, n_v, m):
    reach = rng.random((n_v, m)) < rng.uniform(0.3, 0.9)
    reach[~reach.any(axis=1), rng.integers(0, m, size=(~reach.any(axis=1)).sum())] = True
    return reach


def hall_oracle_disagreements(rng, n_instances=1000):
    """(disagreements with subset_hall, with maxflow_feasible) on random fleets.

    Each instance checks one target summing to the fleet size, drawn from
    ``rng``, and one each summing to one less and one more, drawn from a
    separate generator so the first targets stay the same stream.
    """
    extra, = rng.spawn(1)           # leaves the stream of rng untouched
    subset_bad = maxflow_bad = 0
    for _ in range(n_instances):
        m = int(rng.integers(2, 5))
        n_v = int(rng.integers(1, 9))
        reach = random_fleet(rng, n_v, m)
        feas = FeasibilityStructure(reach)
        targets = [rng.multinomial(n_v, np.ones(m) / m)]
        targets += [extra.multinomial(total, np.ones(m) / m)
                    for total in (n_v - 1, n_v + 1)]
        for target in targets:
            got = hall_condition(target, feas)
            subset_bad += got != subset_hall(target, reach)
            maxflow_bad += got != maxflow_feasible(target, reach)
    return subset_bad, maxflow_bad


def sparse_fleet(rng, n_v, m):
    """Every vehicle reaches between one and four of the m stations."""
    reach = np.zeros((n_v, m), dtype=bool)
    for v in range(n_v):
        reach[v, rng.choice(m, int(rng.integers(1, 5)), replace=False)] = True
    return reach


def matched_choice(rng, reach):
    """One reachable station per vehicle, chosen at random."""
    return np.array([rng.choice(np.flatnonzero(row)) for row in reach])


def lattice_shift(rng, counts):
    """A zero-sum shift, each entry in (-1, 1), that keeps counts + shift >= 0.

    ``counts`` then stays on the floor/ceil lattice of ``counts + shift``.
    """
    shift = np.zeros(counts.size)
    donors = rng.permutation(np.flatnonzero(counts > 0))
    for i, j in zip(donors, rng.permutation(counts.size)):
        if i != j and shift[i] == 0.0 and shift[j] == 0.0:
            delta = rng.uniform(0.05, 0.95)
            shift[i] -= delta
            shift[j] += delta
    return shift


def largest_remainder(x, fleet_size):
    """Floors plus one unit at the largest fractional parts, ties to the lower index."""
    scaled = fleet_size * np.asarray(x)
    floors = np.floor(scaled + 1e-9).astype(int)
    fracs = scaled - floors
    order = sorted(np.flatnonzero(fracs > 1e-9), key=lambda j: (-fracs[j], j))
    target = floors.copy()
    target[order[:fleet_size - floors.sum()]] += 1
    return target


class TestHallCondition:
    def test_two_vehicles_one_station(self):
        feas = FeasibilityStructure(np.array([[True, False], [True, False]]))
        assert hall_condition(np.array([2, 0]), feas)

    def test_unreachable_station_demand(self):
        feas = FeasibilityStructure(np.array([[True, False], [True, False]]))
        assert not hall_condition(np.array([1, 1]), feas)

    def test_agrees_with_maxflow_on_1000_random_instances(self):
        assert hall_oracle_disagreements(np.random.default_rng(42)) == (0, 0)

    def test_no_station_limit_at_24_stations(self):
        rng = np.random.default_rng(24)
        m = 24
        outcomes = set()
        for _ in range(20):
            n_v = int(rng.integers(20, 50))
            reach = sparse_fleet(rng, n_v, m)
            feas = FeasibilityStructure(reach)
            counts = np.bincount(matched_choice(rng, reach), minlength=m)
            unit = np.eye(m, dtype=int)[rng.choice(np.flatnonzero(counts))]
            targets = [counts, rng.multinomial(n_v, np.ones(m) / m),
                       counts - unit, rng.multinomial(n_v - 1, np.ones(m) / m),
                       counts + unit]
            for target in targets:
                expected = maxflow_feasible(target, reach)
                assert hall_condition(target, feas) == expected
                outcomes.add((int(target.sum()) - n_v, expected))
                if target.sum() != n_v:
                    continue
                if expected:
                    out = assign_vehicles(target, feas)
                    assert np.bincount(out, minlength=m).tolist() == target.tolist()
                    assert reach[np.arange(n_v), out].all()
                else:
                    with pytest.raises(InfeasibleTargetError):
                        assign_vehicles(target, feas)

            # a split whose floor/ceil lattice holds a known matching
            x = (counts + lattice_shift(rng, counts)) / n_v
            lr = largest_remainder(x, n_v)
            target = discretize(x, feas)
            assert target.sum() == n_v
            assert np.all(np.abs(target - n_v * x) < 1)
            assert maxflow_feasible(target, reach)
            if maxflow_feasible(lr, reach):
                assert target.tolist() == lr.tolist()
            # nobody reaches station 0, yet its floor needs a vehicle
            blocked = reach.copy()
            blocked[:, 0] = False
            blocked[~blocked.any(axis=1), 1] = True
            y = np.full(m, 1.0 / m)
            y[0] += 1.0 / n_v
            y[1:] -= 1.0 / (n_v * (m - 1))
            with pytest.raises(InfeasibleTargetError):
                discretize(y, FeasibilityStructure(blocked))
        # both answers occur at every target sum but n_v + 1, always False
        assert outcomes == {(-1, True), (-1, False), (0, True), (0, False),
                            (1, False)}


class TestAdmissiblePolytope:
    def test_subset_inequality_count(self):
        feas = FeasibilityStructure.full(6, 4)
        poly = admissible_polytope(feas)
        assert poly.caps[1:-1].size == 2**4 - 2

    def test_full_reach_matches_formula_bounds(self):
        # vertex-style check on m=3, fleet 5: membership must coincide with
        # the subset caps (fleet - |S|)/fleet intersected with the simplex
        feas = FeasibilityStructure.full(5, 3)
        poly = admissible_polytope(feas)
        rng = np.random.default_rng(0)
        for _ in range(300):
            v = rng.exponential(1.0, 3)
            x = v / v.sum()
            manual = all(
                x[list(s)].sum() <= max(0, 5 - len(s)) / 5 + 1e-12
                for s in [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]
            )
            assert contains(poly, x, tol=1e-12) == manual

    def test_single_station_is_point(self):
        feas = FeasibilityStructure.full(3, 1)
        poly = admissible_polytope(feas)
        assert contains(poly, np.array([1.0]))
        assert not contains(poly, np.array([0.9]))

    def test_zero_cap_forces_zero_allocation(self):
        # station 2 reachable by nobody: its singleton cap is 0, the row
        # pins x_2 = 0, and the complement cap leaves no room for the rest,
        # so the whole fleet state is degenerate
        reach = np.array([[True, False], [True, False], [True, False]])
        feas = FeasibilityStructure(reach)
        poly = admissible_polytope(feas)
        assert poly.forced_zero.tolist() == [False, True]
        assert poly.caps[0b10] == 0
        assert poly.is_empty

    def test_empty_polytope_detected(self):
        # two stations, one vehicle: every singleton cap is 0, so no mass fits
        feas = FeasibilityStructure(np.array([[True, True]]))
        poly = admissible_polytope(feas)
        assert poly.is_empty
        with pytest.raises(EmptyPolytopeError):
            poly.project(np.array([0.5, 0.5]))

    def test_station_limit_guard(self):
        # the H-representation has 2^m - 2 subset rows
        m = MAX_STATIONS_FOR_SUBSETS + 1
        big = FeasibilityStructure.full(3, m)
        with pytest.raises(ValueError):
            admissible_polytope(big)

    def test_degenerate_vehicle_rejected(self):
        with pytest.raises(DegenerateFleetError):
            FeasibilityStructure(np.zeros((1, 2), dtype=bool))


class TestProject:
    def test_already_inside(self):
        feas = FeasibilityStructure.full(8, 3)
        poly = admissible_polytope(feas)
        x = np.array([0.3, 0.3, 0.4])
        assert np.allclose(poly.project(x), x, atol=1e-10)

    def test_station_consistency_both_views(self):
        rng = np.random.default_rng(1)
        reach = random_fleet(rng, 7, 3)
        feas = FeasibilityStructure(reach)
        assert feas.n_vehicles == 7 and feas.n_stations == 3
        assert np.array_equal(feas.reach, reach)
        with pytest.raises(ValueError):
            feas.reach[0, 0] = not feas.reach[0, 0]
        reach[0] = ~reach[0]        # the structure keeps its own copy
        assert not np.array_equal(feas.reach, reach)


class TestDiscretize:
    def test_integral_input(self):
        feas = FeasibilityStructure.full(3, 3)
        out = discretize(np.array([1 / 3, 1 / 3, 1 / 3]), feas)
        assert out.tolist() == [1, 1, 1]

    def test_half_split(self):
        feas = FeasibilityStructure.full(3, 2)
        out = discretize(np.array([0.5, 0.5]), feas)
        assert sorted(out.tolist()) == [1, 2]
        assert out.sum() == 3

    def test_500_random_admissible_points_round_matchable(self):
        rng = np.random.default_rng(2)
        checked = 0
        while checked < 500:
            m = int(rng.integers(2, 5))
            n_v = int(rng.integers(m, 12))
            reach = random_fleet(rng, n_v, m)
            feas = FeasibilityStructure(reach)
            poly = admissible_polytope(feas)
            assert poly.total == feas.n_vehicles == n_v     # read off the reach matrix
            if poly.is_empty:
                continue
            raw = rng.exponential(1.0, m)
            x = poly.project(raw / raw.sum())
            target = discretize(x, feas)
            assert hall_condition(target, feas)
            assert target.sum() == feas.n_vehicles == n_v
            scaled = n_v * x
            assert np.all(target >= np.floor(scaled + 1e-9) - 0)
            assert np.all(target <= np.ceil(scaled - 1e-9) + 0)
            checked += 1

    def test_off_simplex_input_rejected(self):
        # [0.4, 0.4, 0] leaves a unit with no fractional station to take it
        feas = FeasibilityStructure.full(5, 3)
        for x in ([0.4, 0.4, 0.0], [0.6, 0.6, -0.2], [0.8, 0.8, 0.2]):
            with pytest.raises(ValueError):
                discretize(np.array(x), feas)

    def test_unmatchable_largest_remainder(self):
        # LR gives [1, 2, 0]: only vehicle 1 reaches station 0, and station
        # 1 then needs two of the others. [0, 2, 1] and [1, 1, 1] match;
        # [0, 2, 1] keeps the largest remainder (station 1, 0.8)
        reach = np.array([[0, 1, 0], [1, 1, 0], [0, 0, 1]], dtype=bool)
        feas = FeasibilityStructure(reach)
        x = np.array([0.2, 0.6, 0.2])
        assert largest_remainder(x, 3).tolist() == [1, 2, 0]
        assert discretize(x, feas).tolist() == [0, 2, 1]

    def test_300_random_points_against_lattice_brute_force(self):
        rng = np.random.default_rng(3)
        kinds = {"largest remainder": 0, "repaired": 0, "none": 0}
        for _ in range(300):
            m = int(rng.integers(2, 7))
            n_v = int(rng.integers(1, 10))
            reach = random_fleet(rng, n_v, m)
            feas = FeasibilityStructure(reach)
            x = rng.dirichlet(np.full(m, 0.7))
            scaled = n_v * x
            floors = np.floor(scaled + 1e-9).astype(int)
            fracs = scaled - floors
            candidates = np.flatnonzero(fracs > 1e-9)
            # rank 0 is the largest remainder; ties go to the lower index
            rank = {j: r for r, j in enumerate(sorted(candidates,
                                                      key=lambda j: (-fracs[j], j)))}
            matchable = []
            for combo in combinations(candidates.tolist(), n_v - floors.sum()):
                target = floors.copy()
                target[list(combo)] += 1
                if subset_hall(target, reach):
                    matchable.append((sorted(rank[j] for j in combo), target))
            lr = largest_remainder(x, n_v)
            if not matchable:
                kinds["none"] += 1
                with pytest.raises(InfeasibleTargetError):
                    discretize(x, feas)
                continue
            out = discretize(x, feas)
            best = min(matchable, key=lambda item: item[0])[1]
            assert out.tolist() == best.tolist()
            if subset_hall(lr, reach):
                kinds["largest remainder"] += 1
                assert out.tolist() == lr.tolist()
            else:
                kinds["repaired"] += 1
        assert min(kinds.values()) >= 20, kinds
