"""Operating-period simulation and game-input estimation.

A scenario bundles a road network, charging stations, ride-hailing fleets,
a demand profile, and the scalar parameters of the case study. Simulating
one peak period produces the fleet state the games are built from: which
vehicles need to charge, where they are, and what reaching each station
would cost them.

The congestion model is a network-level speed law (speed as a decreasing
function of total vehicle accumulation), batteries discharge linearly in
distance driven, and passengers are matched greedily, in arrival order, to
the nearest idle vehicle within the pickup limit (lowest index on ties; no
dispatch at zero speed). Only the aggregate fleet state feeds the games,
so the matching rule stays deliberately simple.

The simulation dispatches one time step at a time: the step's idle set and
one (requests x idle) pickup matrix are gathered once, and the step's
requests are served in arrival order on that matrix. A vehicle whose trip
has total length 0 stays idle at its destination and can serve again in
the same step. The speed law is tabulated once per period over every
accumulation the period can reach.

All randomness is drawn from ``Scenario.seed`` (the revenue noise from the
seed plus one); identical seeds reproduce identical snapshots and identical
downstream game instances.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import DegenerateFleetError
from .feasible import FeasibilityStructure, admissible_polytope
from .model import (CompanyParams, GameInstance, GovernmentObjective,
                    StationSet)
from .network import RoadNetwork, grid_network, read_demand, read_network
from .surge import Fleet

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


def discharge(battery_pct, max_range_km, km):
    """Battery percent left after driving ``km``: linear drain of 100% per
    ``max_range_km``, floored at 0."""
    return np.maximum(battery_pct - (100.0 / max_range_km) * km, 0.0)


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
        return np.bincount(self.company[self.needs_charge], minlength=n_companies)


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


def simulate_period(scenario: Scenario) -> FleetSnapshot:
    """Run the operating period and flag vehicles that need to charge.

    Per time step: serve the step's new requests in arrival order, each
    with the nearest idle vehicle able to arrive within the pickup limit,
    the lowest vehicle index on a tie in pickup distance. At zero speed,
    or with no idle vehicle, no request is served. Unserved requests
    become private trips that add to congestion. Then advance driving
    vehicles at the current network speed and drain batteries in
    proportion to distance driven; idle vehicles do not drain. After the
    horizon, vehicles below their personal threshold opt for charging.

    ``node`` holds where each vehicle is or, while it drives, where its
    trip ends: a dispatch moves it to the request's destination at once,
    and pickups are measured from it for idle vehicles only.

    Dispatch runs once per step on one (requests x idle) pickup matrix
    (see ``_dispatch_step``). The speed law is tabulated once per period
    over every accumulation the period can reach: ``base_accumulation``
    plus the driving vehicles and the private trips, formed as
    ``base + (driving + private)``, which is exact for an integer-valued
    base. Private trips are a running count: each ends at the first later
    step whose start time reaches its expiry, found by ``searchsorted`` on
    the step times the loop uses.
    """
    p = scenario.params
    rng = np.random.default_rng(scenario.seed)
    net = scenario.network
    dist = net.distances_km()

    n_total = int(np.sum(scenario.fleet_sizes))
    company = np.repeat(np.arange(scenario.n_companies), scenario.fleet_sizes)
    node = rng.integers(0, net.n_nodes, size=n_total)
    battery = rng.uniform(*p.battery_init, size=n_total)
    threshold = rng.uniform(*p.threshold, size=n_total)
    max_range = rng.uniform(*p.max_range_km, size=n_total)
    remaining_km = np.zeros(n_total)

    demand = scenario.demand[np.argsort(scenario.demand[:, 0], kind="stable")]
    origins = demand[:, 1].astype(int)
    dests = demand[:, 2].astype(int)
    trip_km = dist[origins, dests]
    # at most every vehicle drives and every request is a private trip
    speeds = mfd_speed(p.base_accumulation + np.arange(n_total + len(demand) + 1))

    n_steps = int(round(p.horizon_h * HOURS / p.dt_s))
    times = np.arange(n_steps) * p.dt_s     # t_now of every step, to the bit
    # the requests of step s are ends[s - 1]:ends[s], those before its end
    ends = np.searchsorted(demand[:, 0], times + p.dt_s)
    # private trips running, and how many of them end by each step's start
    private, ending = 0, np.zeros(n_steps + 1, dtype=int)
    first = 0
    for step in range(n_steps):
        t_now = step * p.dt_s
        private -= ending[step]
        speed = float(speeds[np.count_nonzero(remaining_km > 0) + private])
        step_km = speed * p.dt_s / HOURS

        unserved = range(first, ends[step])
        first = ends[step]
        if unserved and speed > 0:
            unserved = _dispatch_step(unserved, dist, node, remaining_km, origins,
                                      dests, trip_km, speed * p.pickup_limit_s / HOURS)
        if unserved:
            trip_h = trip_km[unserved] / max(speed, 1e-9)
            # a trip ends at the first later step whose time reaches its expiry
            end_step = np.searchsorted(times, t_now + trip_h * HOURS, side="left")
            np.add.at(ending, np.maximum(end_step, step + 1), 1)
            private += len(unserved)

        driving = remaining_km > 0
        travelled = np.minimum(remaining_km[driving], step_km)
        battery[driving] = discharge(battery[driving], max_range[driving], travelled)
        remaining_km[driving] -= travelled
        remaining_km[remaining_km <= 1e-12] = 0.0

    needs = battery < threshold
    return FleetSnapshot(company, node, battery,
                         max_range, threshold, needs,
                         np.full(n_total, p.charge_per_pct))


def _dispatch_step(requests: range, dist, node, remaining_km, origins, dests,
                   trip_km, reach_km: float) -> list[int]:
    """Serve one step's ``requests`` in arrival order; return the unserved.

    The idle set and the (requests x idle) pickup matrix are gathered
    once. Each request takes the nearest vehicle of its row (``argmin``,
    so the lowest index on a tie) if that pickup is within ``reach_km``.
    A served vehicle's column is retired (+inf), unless its trip has
    total length 0: the vehicle then stays idle at the destination, and
    its column is refreshed from there, since a later request of the
    step can take it again.
    """
    idle = np.flatnonzero(remaining_km <= 0)
    if not idle.size:
        return list(requests)
    req = origins[requests]
    pickup = dist.T[req[:, None], node[idle]]     # [r, j]: from idle[j] to req[r]
    unserved = []
    for r, k in enumerate(requests):
        row = pickup[r]
        j = row.argmin()
        if row[j] > reach_km:
            unserved.append(k)
            continue
        v = idle[j]
        remaining_km[v] = row[j] + trip_km[k]
        node[v] = dests[k]
        pickup[:, j] = np.inf if remaining_km[v] > 0 else dist[dests[k], req]
    return unserved


@dataclass
class GameBuild:
    """Game instance plus the scenario-side data the lower level needs.

    ``feas[i]`` is company i's reach matrix, the one its polytope, rounding
    and matching read; ``drivers[i]`` its charging drivers.
    """

    instance: GameInstance
    drivers: list[Fleet]
    share: np.ndarray
    feas: list[FeasibilityStructure]


def build_game(scenario: Scenario, snapshot: FleetSnapshot | None = None) -> GameBuild:
    """Estimate all parameters from ``snapshot`` (simulated when None) and
    assemble the game.

    One pass per company takes its charging vehicles and their distance to
    each station. Station k is reachable for a vehicle at battery s iff
    s - (100 / max_range) * distance > 0; the first company with a vehicle
    that reaches no station raises, naming those vehicles by snapshot
    index. Company demand per station is the fleet-to-charge size times
    the mean per-vehicle charging demand over the vehicles able to reach
    that station (zero when none can). The revenue vector combines the
    idle-travel cost to each station with the expected regional profit,
    which carries a uniform noise term drawn from the seed plus one, in
    company order. The company's drivers share one revenue vector and one
    surge-gain vector, and their demand rows are zero exactly where the
    vehicle cannot reach.
    """
    if snapshot is None:
        snapshot = simulate_period(scenario)
    p = scenario.params
    share = demand_share(scenario)
    rng = np.random.default_rng(scenario.seed + 1)
    stations = scenario.stations
    m = scenario.n_stations
    dist = scenario.network.distances_km()[:, np.asarray(scenario.station_nodes, dtype=int)]
    occupancy = np.asarray(p.occupancy, dtype=float)
    surge_gain = p.driver_hours * p.speed_estimate * occupancy
    surge_gain.flags.writeable = False

    companies, polytopes, drivers, feas = [], [], [], []
    for i in range(scenario.n_companies):
        sel = np.flatnonzero(snapshot.needs_charge & (snapshot.company == i))
        d_vk = dist[snapshot.node[sel]]
        left = discharge(snapshot.battery[sel][:, None],
                         snapshot.max_range_km[sel][:, None], d_vk)
        reach = left > 0
        dead = sel[~reach.any(axis=1)]
        if dead.size:
            raise DegenerateFleetError(
                f"vehicles {dead.tolist()} cannot reach any charging station")
        demand = snapshot.charge_per_pct[sel][:, None] * (100.0 - left)

        n_i = sel.size
        mean_demand, mean_dist = np.zeros(m), np.zeros(m)
        for k in range(m):
            members = reach[:, k]
            if members.any():
                mean_demand[k] = demand[members, k].mean()
                mean_dist[k] = d_vk[members, k].mean()
        e_arr = p.idle_cost_per_km * occupancy * mean_dist
        e_arr[mean_demand == 0] = 0.0
        e_pro = p.profit_scale * share + rng.uniform(-p.profit_noise, p.profit_noise, m)
        companies.append(CompanyParams(n_i, n_i * mean_demand, n_i * (e_arr - e_pro)))

        feas.append(FeasibilityStructure(reach))
        polytopes.append(admissible_polytope(feas[-1]))
        d_rows = np.where(reach, demand, 0.0)
        g_v = e_arr - (p.driver_hours / p.daily_hours) * e_pro
        for arr in (d_rows, g_v):   # read-only already, so a Fleet keeps them as they are
            arr.flags.writeable = False
        drivers.append(Fleet(d_rows, g_v, surge_gain))

    weight = p.authority_weight_scale * np.asarray(p.queue_weight, dtype=float)
    counts = np.array([c.fleet_size for c in companies], dtype=float)
    government = GovernmentObjective.from_distribution(weight, counts, share)
    instance = GameInstance(stations, government, tuple(companies), tuple(polytopes))
    return GameBuild(instance, drivers, share, feas)


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
    station_nodes = np.array(cfg["station_nodes"], dtype=int)
    for what, nodes in (("station node", station_nodes), ("demand origin", demand[:, 1]),
                        ("demand destination", demand[:, 2])):
        outside = (nodes < 0) | (nodes >= net.n_nodes)
        if outside.any():
            raise ValueError(f"{what} {int(nodes[outside][0])} is not a node index "
                             f"of the network (0..{net.n_nodes - 1})")
    for what, values in (("capacities", cfg["capacities"]),
                         ("params.queue_weight", params.queue_weight),
                         ("params.occupancy", params.occupancy)):
        if np.shape(values) != station_nodes.shape:
            raise ValueError(f"{what} needs one entry per station node "
                             f"({station_nodes.size}), not shape {np.shape(values)}")
    return Scenario(net, station_nodes, np.array(cfg["capacities"], dtype=float),
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
        companies.append(CompanyParams(int(n_i), d_i, f_i))
        if generous:
            feas = FeasibilityStructure.full(int(n_i), 4)
        else:
            reach = rng.random((n_i, 4)) < 0.8
            reach[~reach.any(axis=1), 0] = True
            feas = FeasibilityStructure(reach)
        polytopes.append(admissible_polytope(feas))
    return GameInstance(stations, government, tuple(companies), tuple(polytopes))
