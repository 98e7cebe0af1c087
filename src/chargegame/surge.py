"""Lower-level control: steering drivers to an integer station target.

Once a company knows how many of its vehicles should charge at each
station, it must make revenue-maximizing drivers pick those stations
voluntarily. Each driver minimizes

    charging cost + base negative revenue - surge gain * surge price

over its reachable stations. The operator first tries a single surge
vector shared by all drivers (a fairness-friendly variant that may leave
a tracking error) and, if the target is missed, falls back to per-vehicle
surge vectors, which always achieve the target exactly whenever the
target is matchable at all. Only the fallback solves the matching of
drivers onto the target's slots: responses that hit the target are one.

When every driver has the same (nonnegative) surge gain, the shared
vector is an assignment-market question (Shapley & Shubik, 1971): a
vector making every driver strictly prefer its own station exists iff it
supports the min-cost assignment of drivers to the target's slots, and
the least such vector solves a system of difference constraints
(Bellman-Ford). That path is exact and polynomial. Fleets whose drivers
have different gains get the floor vector and its tracking cost, so they
go straight to per-vehicle vectors.

The public functions take a company's drivers as a ``Fleet``: three
read-only (n_vehicles, n_stations) arrays whose items are ``DriverParams``
built on access. A plain list of ``DriverParams`` is stacked into a
``Fleet`` once, at entry (``Fleet.of``); every step after that reads the
arrays.

Tie-breaking everywhere is deterministic: the lowest station index among
minimizers. A small strictness margin is added to binding surge prices so
the intended choice survives floating-point noise.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleTargetError, ZeroGainError
from .feasible import FeasibilityStructure, _assign_slots, hall_condition

DEFAULT_MARGIN = 1e-6


@dataclass(frozen=True, slots=True)
class DriverParams:
    """One driver's station-choice cost data.

    ``demand[k]`` is the vehicle's charging demand if it picks station k;
    it is positive exactly on the stations the vehicle can reach, which
    is how ``reachable`` is read. ``base_revenue`` is the negative
    expected revenue of operating near each station and ``surge_gain[k]``
    the extra profit per unit of surge price there.
    """

    demand: np.ndarray
    base_revenue: np.ndarray
    surge_gain: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.demand, dtype=float)
        g = np.asarray(self.base_revenue, dtype=float)
        h = np.asarray(self.surge_gain, dtype=float)
        if not (d.shape == g.shape == h.shape) or d.ndim != 1:
            raise ValueError("driver vectors must share one shape")
        if np.any(h < 0):
            raise ValueError("surge gains must be nonnegative")
        object.__setattr__(self, "demand", d)
        object.__setattr__(self, "base_revenue", g)
        object.__setattr__(self, "surge_gain", h)

    @property
    def reachable(self) -> frozenset[int]:
        """Stations the driver can reach: those with positive demand."""
        return frozenset(np.flatnonzero(self.demand > 0).tolist())


@dataclass
class SurgeSolution:
    """Result of a surge-pricing computation for one company."""

    assignment: np.ndarray          # chosen station per vehicle
    # (n_vehicles, n_stations) surge vectors; equal-price solutions hold
    # their one vector as a read-only broadcast view
    surge: np.ndarray
    j_m: float                      # tracking cost 1/2 ||sigma(mu) - target||^2
    mode: str                       # "equal-price" or "per-vehicle"
    solver_info: str = ""


@dataclass
class VerifyResult:
    ok: bool
    infeasible_target: bool = False

    def __bool__(self) -> bool:
        return self.ok


def _read_only(a) -> np.ndarray:
    """``a`` as a float array that cannot be written: itself if it already is
    one, else a read-only view."""
    a = np.asarray(a, dtype=float)
    if a.flags.writeable:
        a = a.view()
        a.flags.writeable = False
    return a


class Fleet(Sequence):
    """A company's drivers as read-only (n_vehicles, n_stations) arrays.

    ``demand``, ``base_revenue`` and ``surge_gain`` hold one row per
    driver. A vector every driver shares is given as one (n_stations,)
    vector and stored once; its attribute is a ``np.broadcast_to`` view.
    Items are ``DriverParams`` built on access, so every driver of a
    shared vector holds that one vector object.
    """

    __slots__ = ("demand", "_base", "_gain")

    def __init__(self, demand, base_revenue, surge_gain):
        self.demand = _read_only(demand)
        if self.demand.ndim != 2:
            raise ValueError("fleet demand must be (n_vehicles, n_stations)")
        self._base, self._gain = _read_only(base_revenue), _read_only(surge_gain)
        for vec in (self._base, self._gain):
            if vec.shape not in (self.demand.shape, self.demand.shape[1:]):
                raise ValueError("driver vectors must be shared (n_stations,) "
                                 "or one row per driver")
        if np.any(self._gain < 0):
            raise ValueError("surge gains must be nonnegative")

    @classmethod
    def of(cls, drivers, n_stations: int) -> "Fleet":
        """``drivers`` itself if it is a Fleet, else its drivers' vectors stacked."""
        if isinstance(drivers, Fleet):
            return drivers
        return cls(*(np.array([getattr(d, attr) for d in drivers],
                              dtype=float).reshape(-1, n_stations)
                     for attr in ("demand", "base_revenue", "surge_gain")))

    @property
    def base_revenue(self) -> np.ndarray:
        return np.broadcast_to(self._base, self.demand.shape)

    @property
    def surge_gain(self) -> np.ndarray:
        return np.broadcast_to(self._gain, self.demand.shape)

    def __len__(self) -> int:
        return self.demand.shape[0]

    def __getitem__(self, v):
        if isinstance(v, slice):
            return [self[k] for k in range(*v.indices(len(self)))]
        demand = self.demand[v]         # raises IndexError past the last driver
        return DriverParams(demand, *(vec if vec.ndim == 1 else vec[v]
                                      for vec in (self._base, self._gain)))


def _stack(fleet: Fleet, prices: np.ndarray):
    """The fleet's base cost ``a = demand * prices + base_revenue``, its
    surge gains, and its reach (positive demand)."""
    return fleet.demand * prices + fleet.base_revenue, fleet.surge_gain, fleet.demand > 0


def _best_responses(a, gains, reach, surge) -> np.ndarray:
    """Each driver's cheapest reachable station, ties to the lowest index.

    Driver v pays ``a[v, k] - gains[v, k] * surge[k]`` at a reachable
    station k; ``surge`` is one shared vector or one row per driver.
    """
    return np.argmin(np.where(reach, a - gains * surge, np.inf), axis=1)


def fleet_feasibility(drivers: Sequence[DriverParams], n_stations: int) -> FeasibilityStructure:
    """Reachability structure induced by the drivers' positive demand."""
    return FeasibilityStructure(Fleet.of(drivers, n_stations).demand > 0)


def assign_vehicles(target: np.ndarray, feas: FeasibilityStructure) -> np.ndarray:
    """Station per vehicle, with exactly ``target[j]`` vehicles at station j.

    One assignment solve of the vehicles onto the target's slots; raises
    ``InfeasibleTargetError`` when no such matching exists, including when
    the target does not sum to the fleet size.
    """
    target = np.asarray(target, dtype=int)
    n_v = feas.n_vehicles
    if np.any(target < 0) or int(target.sum()) != n_v:
        raise InfeasibleTargetError("target does not split the fleet")
    slots = np.repeat(np.arange(feas.n_stations), target)
    match = _assign_slots(np.where(feas.reach[:, slots], 0.0, np.inf))
    if match is None:
        raise InfeasibleTargetError("target violates the matching condition")
    assigned = np.empty(n_v, dtype=int)
    assigned[match[0]] = slots[match[1]]
    return assigned


def per_vehicle_prices(assignment: np.ndarray, drivers: Sequence[DriverParams],
                       prices: np.ndarray, rho_min: np.ndarray,
                       margin: float = DEFAULT_MARGIN) -> SurgeSolution:
    """Individual surge vectors making every driver pick its assigned station.

    Off-target stations sit at the per-station floor; the target entry is
    lifted just past the level at which the target becomes the strict
    best response. Drivers that already prefer their target at the floor
    keep the floor vector unchanged. The first vehicle that cannot reach
    its target, or needs a lift at a zero gain, raises.
    """
    prices = np.asarray(prices, dtype=float)
    rho_min = np.asarray(rho_min, dtype=float)
    a, gains, reach = _stack(Fleet.of(drivers, prices.size), prices)
    target = np.asarray(assignment, dtype=int)
    rows = np.arange(len(drivers))
    unreachable = ~reach[rows, target]
    lift = _best_responses(a, gains, reach, rho_min) != target
    bad = np.flatnonzero(unreachable | (lift & (gains[rows, target] <= 0)))
    if bad.size:
        v = int(bad[0])
        if unreachable[v]:
            raise InfeasibleTargetError(f"vehicle {v} cannot reach its target station")
        raise ZeroGainError(f"vehicle {v} has zero surge gain at station {target[v]}")

    surge = np.tile(rho_min, (len(drivers), 1))
    v, t = np.flatnonzero(lift), target[lift]
    # want: a[v, t] - gain_t * rho_t <= a[v, j] - gain_j * rho_min_j, j != t
    level = (a[v, t][:, None] - a[v] + gains[v] * rho_min) / gains[v, t][:, None]
    level[~reach[v]] = -np.inf
    level[np.arange(v.size), t] = -np.inf
    surge[v, t] = np.maximum(rho_min[t], level.max(axis=1) + margin)
    return SurgeSolution(target, surge, 0.0, "per-vehicle",
                         "floor-plus-threshold construction")


def equal_price_solve(target: np.ndarray, drivers: Sequence[DriverParams],
                      prices: np.ndarray, rho_min: np.ndarray) -> SurgeSolution:
    """Single surge vector shared by every driver.

    When every driver has the same surge-gain vector, the solver returns
    the componentwise-least vector (at or above ``rho_min``) that makes
    every driver prefer the station of the min-cost target assignment by
    at least ``DEFAULT_MARGIN``, with zero tracking cost (see
    ``_least_shared_vector``). This is exact: it finds a vector whenever
    one exists with that margin.

    Otherwise (the gains differ between drivers, or no such vector
    exists) it returns the floor vector ``rho_min`` with the drivers'
    responses to it and their tracking cost. ``solver_info`` names which
    of these happened.
    """
    target = np.asarray(target, dtype=int)
    rho_min = np.asarray(rho_min, dtype=float)
    prices = np.asarray(prices, dtype=float)
    a, gains, reach = _stack(Fleet.of(drivers, prices.size), prices)
    n, m = a.shape
    shared = n > 0 and bool(np.all(gains == gains[0]))
    rho = _least_shared_vector(target, a, gains[0], reach, rho_min) if shared else None
    if rho is not None:
        mu = _best_responses(a, gains, reach, rho)
        if _hits_target(mu, target, m):
            return SurgeSolution(mu, np.broadcast_to(rho, (n, m)), 0.0, "equal-price",
                                 "least vector of the min-cost assignment")
    mu = _best_responses(a, gains, reach, rho_min)
    j_m = 0.5 * float(np.sum((np.bincount(mu, minlength=m) - target) ** 2))
    reason = "no supporting vector" if shared else "surge gains differ"
    return SurgeSolution(mu, np.broadcast_to(rho_min.copy(), (n, m)), j_m, "equal-price",
                         f"floor vector: {reason}")


def _least_shared_vector(target, a, gain, reach, rho_min) -> np.ndarray | None:
    """Least shared vector supporting the min-cost target assignment, or None.

    With one gain vector, driver v pays ``a[v, k] - pi_k`` at station k,
    where ``a = demand * prices + base_revenue`` and ``pi = gain * rho``.
    Every assignment with the target's counts pays the same total of pi,
    so a vector under which every driver strictly prefers its station
    supports the unique min-cost assignment: solving that one assignment
    decides existence (Shapley & Shubik, *The assignment game*, 1971).
    Its supporting vectors solve the difference constraints
    ``pi_j >= pi_k + w[j, k] + DEFAULT_MARGIN``, where ``w[j, k]`` is the
    largest advantage of k over j among the drivers at j that reach k.
    Relaxing them upward from the floor gives the least solution in at
    most m - 1 rounds; a change in round m means a positive cycle, so no
    vector exists (Bellman-Ford; CLRS 24.4). A zero-gain station keeps
    pi_k = 0 whatever its price, so it stays at its floor, and a least
    solution that lifts it has no admissible vector above it. Returns
    None whenever no assignment hits the target, a cycle exists, or a
    zero-gain station would be lifted.
    """
    n, m = a.shape
    if np.any(target < 0) or int(target.sum()) != n:
        return None
    cost = np.where(reach, a, np.inf)

    slots = np.repeat(np.arange(m), target)
    match = _assign_slots(cost[:, slots])
    if match is None:           # no assignment hits the target
        return None
    station = slots[match[1]]

    rows = np.arange(n)
    advantage = a[rows, station][:, None] - cost   # -inf where unreachable
    advantage[rows, station] = -np.inf
    w = np.full((m, m), -np.inf)
    np.maximum.at(w, station, advantage)
    w += DEFAULT_MARGIN

    pi = gain * rho_min
    for _ in range(m):
        lifted = np.maximum(pi, np.max(pi[None, :] + w, axis=1))
        if np.array_equal(lifted, pi):
            break
        pi = lifted
    else:
        return None             # positive cycle: no vector with this margin
    pinned = gain == 0
    if np.any(pi[pinned] > 0):
        return None             # a zero-gain station cannot be lifted
    rho = np.divide(pi, gain, out=rho_min.copy(), where=~pinned)
    return np.maximum(rho, rho_min)


def two_step(target: np.ndarray, drivers: Sequence[DriverParams],
             prices: np.ndarray) -> SurgeSolution:
    """Shared surge vector first; per-vehicle vectors if the target is missed.

    Both stages price above a zero floor. Always returns a zero tracking
    cost for matchable targets, at the expense of individualized surge
    prices when the shared vector cannot split identical drivers. Only the
    fallback solves the matching; it raises ``InfeasibleTargetError`` when
    none exists, and a driver without reach raises ``DegenerateFleetError``.
    """
    prices = np.asarray(prices, dtype=float)
    rho_min = np.zeros(prices.size)
    drivers = Fleet.of(drivers, prices.size)
    feas = fleet_feasibility(drivers, prices.size)
    eq = equal_price_solve(target, drivers, prices, rho_min)
    if eq.j_m == 0.0:       # its drivers' counts were checked against the target
        return eq
    # the one matchability decision: raises InfeasibleTargetError
    return per_vehicle_prices(assign_vehicles(target, feas), drivers, prices, rho_min)


def verify_zero_cost(solution: SurgeSolution, target: np.ndarray,
                     drivers: Sequence[DriverParams], prices: np.ndarray) -> VerifyResult:
    """Recompute every best response and compare the aggregate to the target."""
    target = np.asarray(target, dtype=int)
    prices = np.asarray(prices, dtype=float)
    a, gains, reach = _stack(Fleet.of(drivers, prices.size), prices)
    if not hall_condition(target, FeasibilityStructure(reach)):
        return VerifyResult(False, infeasible_target=True)
    mu = _best_responses(a, gains, reach, solution.surge)
    return VerifyResult(_hits_target(mu, target, prices.size))


def _hits_target(mu, target, n_stations: int) -> bool:
    """Do the drivers' chosen stations ``mu`` give the target counts?"""
    return bool(np.array_equal(np.bincount(mu, minlength=n_stations), target))


def surge_price_rows(solutions: list[SurgeSolution]):
    """CSV rows (company, vehicle_id, station, rho, mode) for nonzero surge
    prices, one solution per company."""
    yield "company,vehicle_id,station,rho,mode"
    for i, sol in enumerate(solutions):
        n_v, m = sol.surge.shape
        for v in range(n_v):
            for k in range(m):
                if sol.surge[v, k] > 0:
                    yield f"{i},{v},{k},{float(sol.surge[v, k])!r},{sol.mode}"
