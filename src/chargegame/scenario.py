"""Operating-period simulation and game-input estimation.

A scenario bundles a road network, charging stations, ride-hailing fleets,
a demand profile, and the scalar parameters of the case study. Simulating
one peak period produces the fleet state the games are built from: which
vehicles need to charge, where they are, and what reaching each station
would cost them.

The congestion model is a network-level speed law (speed as a decreasing
function of total vehicle accumulation), batteries discharge linearly in
distance driven, and passengers are matched greedily to the nearest idle
vehicle subject to a maximum pickup wait. Only the aggregate fleet state
feeds the games, so the matching rule stays deliberately simple.

All randomness is drawn from explicit seeds; identical seeds reproduce
identical snapshots and identical downstream game instances.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import DegenerateFleetError
from .feasible import FeasibilityStructure, admissible_polytope
from .model import (CompanyParams, GameInstance, GovernmentObjective,
                    StationSet)
from .network import RoadNetwork, grid_network, read_demand, read_network
from .surge import DriverParams

HOURS = 3600.0


def mfd_speed(accumulation):
    """Network space-mean speed (km/h) at a vehicle accumulation.

    Exponential decay up to 36k vehicles, then a linear tail clamped at
    zero (the printed linear branch reaches zero slightly before its
    nominal end), zero beyond 60k. The exponential rate is per thousand
    vehicles, which makes the two branches meet at the 36k breakpoint.
    """
    n = np.asarray(accumulation, dtype=float)
    if np.any(n < 0):
        raise ValueError("accumulation must be nonnegative")
    thousands = n / 1000.0
    exp_branch = 36.0 * np.exp(-29.0 * thousands / 600.0)
    lin_branch = np.maximum(6.31 - 0.28 * (thousands - 36.0), 0.0)
    out = np.where(thousands <= 36.0, exp_branch,
                   np.where(thousands <= 60.0, lin_branch, 0.0))
    return float(out) if np.isscalar(accumulation) else out


def discharge_step(battery_pct, max_range_km, speed_kmh, dt_h):
    """Linear battery drain for time driven at a given speed, floored at 0."""
    if dt_h <= 0:
        raise ValueError("time step must be positive")
    drained = battery_pct - (100.0 / max_range_km) * speed_kmh * dt_h
    return np.maximum(drained, 0.0)


@dataclass
class ScenarioParams:
    """Scalar knobs of the case study."""

    charge_per_pct: float = 1.0          # units of charge per battery percent
    queue_weight: tuple = (0.4, 0.1, 0.3, 0.2)
    authority_weight_scale: float = 2.5  # authority weight = scale * queue weight
    profit_scale: float = 300.0          # expected-profit magnitude
    profit_noise: float = 10.0           # uniform half-width on expected profit
    occupancy: tuple = (0.35, 0.1, 0.2, 0.15)
    idle_cost_per_km: float = 1.0
    driver_hours: float = 2.0
    daily_hours: float = 8.0
    speed_estimate: float = 20.0
    horizon_h: float = 3.0
    dt_s: float = 30.0
    pickup_limit_s: float = 600.0
    base_accumulation: float = 9000.0
    battery_init: tuple = (90.0, 95.0)
    threshold: tuple = (55.0, 60.0)
    max_range_km: tuple = (150.0, 220.0)


@dataclass
class Scenario:
    network: RoadNetwork
    station_nodes: np.ndarray       # node indices of the stations
    capacities: np.ndarray
    fleet_sizes: np.ndarray         # total vehicles per company
    demand: np.ndarray              # rows (time_s, origin_index, dest_index)
    params: ScenarioParams
    seed: int = 0

    @property
    def n_stations(self) -> int:
        return len(self.station_nodes)

    @property
    def n_companies(self) -> int:
        return len(self.fleet_sizes)

    @property
    def stations(self) -> StationSet:
        return StationSet(np.asarray(self.capacities, dtype=float),
                          np.asarray(self.params.queue_weight, dtype=float))


@dataclass
class FleetSnapshot:
    """Fleet state after the simulated period (only what the games need)."""

    company: np.ndarray          # company index per vehicle
    node: np.ndarray             # node index per vehicle
    battery: np.ndarray          # percent
    max_range_km: np.ndarray
    threshold: np.ndarray
    needs_charge: np.ndarray     # bool
    charge_per_pct: np.ndarray

    @property
    def charging_counts(self) -> np.ndarray:
        n_companies = int(self.company.max()) + 1 if self.company.size else 0
        out = np.zeros(n_companies, dtype=int)
        for i in range(n_companies):
            out[i] = int(np.sum(self.needs_charge & (self.company == i)))
        return out


def voronoi_regions(network: RoadNetwork, station_nodes) -> np.ndarray:
    """Nearest station per node by graph distance (ties to the lowest index)."""
    dist = network.distances_km(np.asarray(station_nodes, dtype=int))
    return np.argmin(dist, axis=0)


def demand_share(scenario: Scenario) -> np.ndarray:
    """Desired distribution: share of requests originating in each region."""
    regions = voronoi_regions(scenario.network, scenario.station_nodes)
    origin_regions = regions[scenario.demand[:, 1].astype(int)]
    counts = np.bincount(origin_regions, minlength=scenario.n_stations).astype(float)
    return counts / counts.sum()


def simulate_period(scenario: Scenario, seed: int | None = None) -> FleetSnapshot:
    """Run the operating period and flag vehicles that need to charge.

    Per time step: serve new requests with the nearest idle vehicle able
    to arrive within the pickup limit (unserved requests become private
    trips that add to congestion), advance driving vehicles at the current
    network speed, and drain batteries in proportion to distance driven.
    Idle vehicles do not drain. After the horizon, vehicles below their
    personal threshold opt for charging.
    """
    p = scenario.params
    rng = np.random.default_rng(scenario.seed if seed is None else seed)
    net = scenario.network
    dist = net.distances_km()

    n_total = int(np.sum(scenario.fleet_sizes))
    company = np.repeat(np.arange(scenario.n_companies), scenario.fleet_sizes)
    node = rng.integers(0, net.n_nodes, size=n_total)
    battery = rng.uniform(*p.battery_init, size=n_total)
    threshold = rng.uniform(*p.threshold, size=n_total)
    max_range = rng.uniform(*p.max_range_km, size=n_total)
    remaining_km = np.zeros(n_total)
    dest = node.copy()

    demand = scenario.demand[np.argsort(scenario.demand[:, 0], kind="stable")]
    pointer = 0
    private_expiry: list[float] = []     # heap of private-trip end times

    n_steps = int(round(p.horizon_h * HOURS / p.dt_s))
    for step in range(n_steps):
        t_now = step * p.dt_s
        t_next = t_now + p.dt_s
        while private_expiry and private_expiry[0] <= t_now:   # t_now only grows
            heapq.heappop(private_expiry)
        n_private = len(private_expiry)
        accumulation = p.base_accumulation + float(np.sum(remaining_km > 0)) + n_private
        speed = mfd_speed(accumulation)
        step_km = speed * p.dt_s / HOURS

        while pointer < demand.shape[0] and demand[pointer, 0] < t_next:
            _, origin, destination = demand[pointer]
            origin, destination = int(origin), int(destination)
            pointer += 1
            idle = np.flatnonzero(remaining_km <= 0)
            served = False
            if idle.size and speed > 0:
                pickup = dist[node[idle], origin]
                reach_km = speed * p.pickup_limit_s / HOURS
                ok = pickup <= reach_km
                if np.any(ok):
                    chosen = idle[ok][int(np.argmin(pickup[ok]))]
                    remaining_km[chosen] = pickup[ok].min() + dist[origin, destination]
                    dest[chosen] = destination
                    served = True
            if not served:
                trip_h = dist[origin, destination] / max(speed, 1e-9)
                heapq.heappush(private_expiry, t_now + trip_h * HOURS)

        driving = remaining_km > 0
        if np.any(driving):
            travelled = np.minimum(remaining_km[driving], step_km)
            battery[driving] = np.maximum(
                battery[driving] - (100.0 / max_range[driving]) * travelled, 0.0)
            remaining_km[driving] -= travelled
            arrived = driving.copy()
            arrived[driving] = remaining_km[driving] <= 1e-12
            node[arrived] = dest[arrived]
            remaining_km[arrived] = 0.0

    node = np.where(remaining_km > 0, dest, node)  # mid-trip vehicles end at dest
    needs = battery < threshold
    return FleetSnapshot(company, node, battery,
                         max_range, threshold, needs,
                         np.full(n_total, p.charge_per_pct))


def compute_feasibility(snapshot: FleetSnapshot, scenario: Scenario):
    """Stations each charging vehicle can still reach, per company.

    Station k is reachable for a vehicle at battery s iff
    s - (100 / max_range) * distance > 0. Raises when some charging
    vehicle cannot reach any station.
    """
    return _feasibility(_charging_demand(snapshot, scenario))


def _feasibility(passes) -> list[FeasibilityStructure]:
    """One structure per company from its reach mask; the first company
    with a vehicle that reaches no station raises, naming those vehicles."""
    for sel, _, reach, _ in passes:
        dead = sel[~reach.any(axis=1)]
        if dead.size:
            raise DegenerateFleetError(
                f"vehicles {dead.tolist()} cannot reach any charging station")
    return [FeasibilityStructure(reach) for _, _, reach, _ in passes]


def _charging_demand(snapshot: FleetSnapshot, scenario: Scenario):
    """Per company: the charging vehicles, their distance to each station,
    the reach mask and the per-vehicle charging demand at each station."""
    dist = scenario.network.distances_km()
    station_idx = np.asarray(scenario.station_nodes, dtype=int)
    passes = []
    for i in range(scenario.n_companies):
        sel = np.flatnonzero(snapshot.needs_charge & (snapshot.company == i))
        d_vk = dist[snapshot.node[sel]][:, station_idx]
        batt = snapshot.battery[sel][:, None]
        rng_km = snapshot.max_range_km[sel][:, None]
        reach = batt - (100.0 / rng_km) * d_vk > 0
        beta = snapshot.charge_per_pct[sel][:, None]
        demand = beta * (100.0 - (batt - (100.0 / rng_km) * d_vk))
        passes.append((sel, d_vk, reach, demand))
    return passes


def estimate_company_params(snapshot: FleetSnapshot, scenario: Scenario,
                            share: np.ndarray, seed: int | None = None):
    """Company demand diagonals and net-revenue vectors from the fleet state.

    Demand per station is the fleet-to-charge size times the mean per-
    vehicle charging demand over the vehicles able to reach that station
    (zero when none can). The revenue vector combines the idle-travel
    cost to each station with the expected regional profit, which carries
    a seeded uniform noise term.
    """
    return _company_params(_charging_demand(snapshot, scenario), scenario,
                           share, seed)


def _company_params(passes, scenario: Scenario, share: np.ndarray,
                    seed: int | None):
    p = scenario.params
    rng = np.random.default_rng(scenario.seed + 1 if seed is None else seed)
    share = np.asarray(share, dtype=float)
    stations = scenario.stations
    occupancy = np.asarray(p.occupancy, dtype=float)

    companies = []
    extras = []
    for sel, d_vk, reach, demand in passes:
        n_i = sel.size
        mean_demand = np.zeros(scenario.n_stations)
        mean_dist = np.zeros(scenario.n_stations)
        for k in range(scenario.n_stations):
            members = reach[:, k]
            if members.any():
                mean_demand[k] = demand[members, k].mean()
                mean_dist[k] = d_vk[members, k].mean()
        d_i = n_i * mean_demand
        e_arr = p.idle_cost_per_km * occupancy * mean_dist
        e_arr[mean_demand == 0] = 0.0
        e_pro = p.profit_scale * share + rng.uniform(-p.profit_noise,
                                                     p.profit_noise,
                                                     scenario.n_stations)
        f_i = n_i * (e_arr - e_pro)
        companies.append(CompanyParams.build(n_i, stations, d_i, f_i))
        extras.append({"e_arr": e_arr, "e_pro": e_pro})
    return companies, extras


def estimate_driver_params(snapshot: FleetSnapshot, scenario: Scenario,
                           extras: list[dict]) -> list[list[DriverParams]]:
    """Per-vehicle cost data for the surge game, one list per company.

    The drivers of a company share one read-only revenue vector and one
    read-only surge-gain vector, and their demand vectors are rows of one
    read-only array, zero exactly where the vehicle cannot reach.
    """
    return _driver_params(_charging_demand(snapshot, scenario), scenario, extras)


def _driver_params(passes, scenario: Scenario, extras: list[dict]):
    p = scenario.params
    occupancy = np.asarray(p.occupancy, dtype=float)
    out = []
    for (_, _, reach, demand), ex in zip(passes, extras):
        g_v = ex["e_arr"] - (p.driver_hours / p.daily_hours) * ex["e_pro"]
        surge_gain = p.driver_hours * p.speed_estimate * occupancy
        d_rows = np.where(reach, demand, 0.0)
        for arr in (g_v, surge_gain, d_rows):
            arr.flags.writeable = False
        out.append([DriverParams(row, g_v, surge_gain) for row in d_rows])
    return out


@dataclass
class GameBuild:
    """Game instance plus the scenario-side data the lower level needs.

    ``feas[i]`` is company i's reach matrix, the one its polytope, rounding
    and matching read.
    """

    instance: GameInstance
    drivers: list[list[DriverParams]]
    share: np.ndarray
    snapshot: FleetSnapshot
    extras: list[dict]
    feas: list[FeasibilityStructure]


def build_game(scenario: Scenario, snapshot: FleetSnapshot | None = None,
               seed: int | None = None) -> GameBuild:
    """Simulate (if needed), estimate all parameters, and assemble the game.

    One charging-demand pass per company feeds the reach matrices, the
    company parameters and the driver data.
    """
    if snapshot is None:
        snapshot = simulate_period(scenario)
    share = demand_share(scenario)
    passes = _charging_demand(snapshot, scenario)
    feas = _feasibility(passes)
    companies, extras = _company_params(passes, scenario, share, seed)
    drivers = _driver_params(passes, scenario, extras)

    polytopes = tuple(
        admissible_polytope(f, c.fleet_size) for f, c in zip(feas, companies)
    )
    weight = (scenario.params.authority_weight_scale
              * np.asarray(scenario.params.queue_weight, dtype=float))
    counts = np.array([c.fleet_size for c in companies], dtype=float)
    government = GovernmentObjective.from_distribution(weight, counts, share)
    instance = GameInstance(scenario.stations, government, tuple(companies),
                            polytopes)
    return GameBuild(instance, drivers, share, snapshot, extras, feas)


# ---------------------------------------------------------------------------
# packaged scenarios

def demo_scenario(seed: int = 9) -> Scenario:
    """Synthetic city mirroring the structure of the case study.

    Four stations with heterogeneous capacities and demand attraction
    ranked station 1 > 3 > 2 > 4, three fleets, and a three-hour evening
    peak. Sized so that roughly forty percent of each fleet ends the
    period below its charging threshold.
    """
    net = grid_network(13, 13, spacing_m=700.0, jitter_m=120.0, seed=seed)
    params = ScenarioParams()
    fractions = np.array([[0.25, 0.72], [0.72, 0.70], [0.30, 0.28], [0.72, 0.20]])
    span = net.coords.max(axis=0) - net.coords.min(axis=0)
    targets = net.coords.min(axis=0) + fractions * span
    station_nodes = np.array([
        int(np.argmin(np.linalg.norm(net.coords - t, axis=1))) for t in targets
    ])
    fleet_sizes = np.array([120, 110, 100])
    demand = generate_demand(net, station_nodes,
                             region_weights=(0.37, 0.19, 0.27, 0.17),
                             rate_per_h=2600.0, horizon_h=params.horizon_h,
                             seed=seed + 1)
    return Scenario(net, station_nodes, np.array([15.0, 60.0, 35.0, 50.0]),
                    fleet_sizes, demand, params, seed=seed)


def small_scenario(seed: int = 3) -> Scenario:
    """Compact variant for fast tests."""
    net = grid_network(7, 7, spacing_m=800.0, jitter_m=100.0, seed=seed)
    params = ScenarioParams(base_accumulation=8000.0, dt_s=60.0)
    station_nodes = np.array([8, 16, 30, 40])
    fleet_sizes = np.array([40, 35])
    demand = generate_demand(net, station_nodes,
                             region_weights=(0.4, 0.2, 0.25, 0.15),
                             rate_per_h=700.0, horizon_h=params.horizon_h,
                             seed=seed + 1)
    return Scenario(net, station_nodes, np.array([10.0, 20.0, 15.0, 18.0]),
                    fleet_sizes, demand, params, seed=seed)


def generate_demand(net: RoadNetwork, station_nodes, region_weights,
                    rate_per_h: float, horizon_h: float, seed: int) -> np.ndarray:
    """Synthetic request stream with origins weighted by station region."""
    rng = np.random.default_rng(seed)
    regions = voronoi_regions(net, station_nodes)
    weights = np.asarray(region_weights, dtype=float)
    node_w = weights[regions]
    node_w = node_w / node_w.sum()
    n_req = rng.poisson(rate_per_h * horizon_h)
    times = np.sort(rng.uniform(0.0, horizon_h * HOURS, n_req))
    origins = rng.choice(net.n_nodes, size=n_req, p=node_w)
    dests = rng.integers(0, net.n_nodes, size=n_req)
    same = dests == origins
    dests[same] = (dests[same] + 1) % net.n_nodes
    return np.column_stack([times, origins, dests]).astype(float)


# ---------------------------------------------------------------------------
# config and snapshot I/O

def scenario_to_json(scenario: Scenario, network_path: str,
                     demand_path: str) -> str:
    cfg = {
        "network_file": network_path,
        "demand_file": demand_path,
        "station_nodes": [int(v) for v in scenario.station_nodes],
        "capacities": [float(v) for v in scenario.capacities],
        "fleet_sizes": [int(v) for v in scenario.fleet_sizes],
        "seed": scenario.seed,
        "params": asdict(scenario.params),
    }
    return json.dumps(cfg, indent=2, sort_keys=True)


def scenario_from_json(text: str, base_dir: str | Path = ".") -> Scenario:
    cfg = json.loads(text)
    base = Path(base_dir)
    net = read_network(base / cfg["network_file"])
    demand = read_demand(base / cfg["demand_file"])
    raw = dict(cfg.get("params", {}))
    for key in ("queue_weight", "occupancy", "battery_init", "threshold",
                "max_range_km"):
        if key in raw:
            raw[key] = tuple(raw[key])
    params = ScenarioParams(**raw)
    return Scenario(net, np.array(cfg["station_nodes"], dtype=int),
                    np.array(cfg["capacities"], dtype=float),
                    np.array(cfg["fleet_sizes"], dtype=int),
                    demand, params, seed=int(cfg.get("seed", 0)))


def write_scenario(scenario: Scenario, directory: str | Path) -> Path:
    """Materialize a scenario as config + network + demand files."""
    from .network import write_demand, write_network

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_network(directory / "network.txt", scenario.network)
    demand_ids = scenario.demand.copy()
    write_demand(directory / "demand.csv", demand_ids)
    cfg = scenario_to_json(scenario, "network.txt", "demand.csv")
    path = directory / "scenario.json"
    path.write_text(cfg + "\n")
    return path


def load_scenario(config_path: str | Path) -> Scenario:
    config_path = Path(config_path)
    return scenario_from_json(config_path.read_text(), config_path.parent)


def snapshot_rows(snapshot: FleetSnapshot):
    """CSV rows (company, vehicle, node, battery, needs_charge)."""
    yield "company,vehicle_id,node,battery,needs_charge"
    for v in range(snapshot.company.size):
        yield (f"{snapshot.company[v]},{v},{snapshot.node[v]},"
               f"{float(snapshot.battery[v])!r},{int(snapshot.needs_charge[v])}")


# ---------------------------------------------------------------------------
# reference game used throughout tests and demos

def reference_game(seed: int = 0, generous: bool = True) -> GameInstance:
    """Synthetic instance at the scale of the published case study.

    Charging-fleet sizes [194, 181, 157], station capacities
    [15, 60, 35, 50], queue weights 0.1*(4, 1, 3, 2), authority weight
    2.5x the queue weights, and target counts (198, 103, 144, 87).
    Demand diagonals and revenue vectors are drawn from a seeded generator
    at magnitudes consistent with the estimation formulas. With
    ``generous`` feasibility every vehicle reaches every station.
    """
    rng = np.random.default_rng(seed)
    queue_weight = 0.1 * np.array([4.0, 1.0, 3.0, 2.0])
    stations = StationSet(np.array([15.0, 60.0, 35.0, 50.0]), queue_weight)
    weight = 2.5 * queue_weight
    fleet = np.array([194, 181, 157])
    set_point = np.array([198.0, 103.0, 144.0, 87.0])
    government = GovernmentObjective.from_set_point(weight, set_point)

    share = set_point / set_point.sum()
    companies = []
    polytopes = []
    for n_i in fleet:
        mean_demand = rng.uniform(45.0, 60.0, 4)
        d_i = n_i * mean_demand
        e_arr = rng.uniform(1.0, 8.0, 4) * np.array([0.35, 0.1, 0.2, 0.15])
        # profit pull strong enough that popular stations would overcrowd
        # without price pressure, as in the published tables
        e_pro = 900.0 * share + rng.uniform(-10.0, 10.0, 4)
        f_i = n_i * (e_arr - e_pro)
        companies.append(CompanyParams.build(int(n_i), stations, d_i, f_i))
        if generous:
            feas = FeasibilityStructure.full(int(n_i), 4)
        else:
            reach = rng.random((n_i, 4)) < 0.8
            reach[~reach.any(axis=1), 0] = True
            feas = FeasibilityStructure(reach)
        polytopes.append(admissible_polytope(feas, int(n_i)))
    return GameInstance(stations, government, tuple(companies), tuple(polytopes))
