"""Lower-level control: steering drivers to an integer station target.

Once a company knows how many of its vehicles should charge at each
station, it must make revenue-maximizing drivers pick those stations
voluntarily. Each driver minimizes

    charging cost + base negative revenue - surge gain * surge price

over its reachable stations. The operator first tries a single surge
vector shared by all drivers (a fairness-friendly variant that may leave
a tracking error) and, if the target is missed, falls back to per-vehicle
surge vectors, which always achieve the target exactly whenever the
target is matchable at all.

When every driver has the same strictly positive surge gain, the shared
vector is an assignment-market question (Shapley & Shubik, 1971): a
vector making every driver strictly prefer its own station exists iff it
supports the min-cost assignment of drivers to the target's slots, and
the least such vector solves a system of difference constraints
(Bellman-Ford). That path is exact and polynomial; other fleets take a
class enumeration or a seeded local search.

Tie-breaking everywhere is deterministic: the lowest station index among
minimizers. A small strictness margin is added to binding surge prices so
the intended choice survives floating-point noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np
from scipy.optimize import linprog

from .errors import InfeasibleTargetError, ZeroGainError
from .feasible import FeasibilityStructure, _assign_slots, hall_condition

DEFAULT_MARGIN = 1e-6
_STRICT_EPS = 1e-7


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
    surge: np.ndarray               # (n_vehicles, n_stations) surge vectors
    j_m: float                      # tracking cost 1/2 ||sigma(mu) - target||^2
    mode: str                       # "equal-price" or "per-vehicle"
    solver_info: str = ""


@dataclass
class VerifyResult:
    ok: bool
    infeasible_target: bool = False

    def __bool__(self) -> bool:
        return self.ok


def _stack(drivers: list[DriverParams], prices: np.ndarray):
    """The fleet as three (n_vehicles, n_stations) arrays: the base cost
    ``a = demand * prices + base_revenue``, the surge gains, and the reach
    (positive demand)."""
    m = prices.size
    demand = np.array([d.demand for d in drivers], dtype=float).reshape(-1, m)
    base = np.array([d.base_revenue for d in drivers], dtype=float).reshape(-1, m)
    gains = np.array([d.surge_gain for d in drivers], dtype=float).reshape(-1, m)
    return demand * prices + base, gains, demand > 0


def _best_responses(a, gains, reach, surge) -> np.ndarray:
    """Each driver's cheapest reachable station, ties to the lowest index.

    Driver v pays ``a[v, k] - gains[v, k] * surge[k]`` at a reachable
    station k; ``surge`` is one shared vector or one row per driver.
    """
    return np.argmin(np.where(reach, a - gains * surge, np.inf), axis=1)


def fleet_feasibility(drivers: list[DriverParams], n_stations: int) -> FeasibilityStructure:
    """Reachability structure induced by the drivers' positive demand."""
    return FeasibilityStructure(_stack(drivers, np.zeros(n_stations))[2])


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


def driver_best_response(driver: DriverParams, surge: np.ndarray,
                         prices: np.ndarray) -> int:
    """Cost-minimizing station; ties broken toward the lowest index."""
    a, gains, reach = _stack([driver], np.asarray(prices, dtype=float))
    if not reach.any():
        raise ValueError("driver has no reachable station")
    return int(_best_responses(a, gains, reach, np.asarray(surge, dtype=float))[0])


def per_vehicle_prices(assignment: np.ndarray, drivers: list[DriverParams],
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
    a, gains, reach = _stack(drivers, prices)
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


def _driver_class_key(driver: DriverParams) -> tuple:
    return (tuple(np.round(driver.demand, 12)),
            tuple(np.round(driver.base_revenue, 12)),
            tuple(np.round(driver.surge_gain, 12)),
            tuple(sorted(driver.reachable)))


def equal_price_solve(target: np.ndarray, drivers: list[DriverParams],
                      prices: np.ndarray, rho_min: np.ndarray,
                      budget: int = 100_000, seed: int = 0,
                      rho_cap: float | None = None) -> SurgeSolution:
    """Best single surge vector shared by every driver.

    When every driver has the same surge-gain vector, strictly positive on
    every station, the solver first returns the componentwise-least vector
    (at or above ``rho_min``) that makes every driver prefer the station
    of the min-cost target assignment by at least ``DEFAULT_MARGIN``, with
    zero tracking cost (see ``_equal_price_assignment``). This path is
    exact: it finds a vector whenever one exists with that margin and
    within ``rho_cap``.

    Otherwise, or when no such vector exists: identical drivers react
    identically to a shared vector, so reachable aggregates are determined
    by a station choice per driver class. When the class-choice space fits
    the budget the solver enumerates it and checks each candidate with a
    linear feasibility program (exact); otherwise it falls back to a
    seeded local search over surge vectors. The optimum may be a strictly
    positive tracking cost. ``solver_info`` names the path that ran.
    """
    target = np.asarray(target, dtype=int)
    prices = np.asarray(prices, dtype=float)
    rho_min = np.asarray(rho_min, dtype=float)
    fleet = _stack(drivers, prices)

    sol = _equal_price_assignment(target, *fleet, rho_min, rho_cap)
    if sol is not None:
        return sol

    classes: dict[tuple, list[int]] = {}
    for v, d in enumerate(drivers):
        classes.setdefault(_driver_class_key(d), []).append(v)
    keys = sorted(classes.keys())
    members = [classes[k] for k in keys]
    reach_sets = [sorted(set(k[3])) for k in keys]

    n_candidates = 1
    for r in reach_sets:
        n_candidates *= len(r)
        if n_candidates > budget:
            break

    if n_candidates <= budget:
        sol = _equal_price_exact(target, fleet, members, reach_sets, rho_min,
                                 rho_cap)
        if sol is not None:
            return sol

    return _equal_price_search(target, fleet, rho_min, budget, seed, rho_cap)


def _equal_price_assignment(target, a, gains, reach, rho_min,
                            rho_cap) -> SurgeSolution | None:
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
    vector exists (Bellman-Ford; CLRS 24.4). Returns None whenever the
    gains are not shared and positive, no assignment hits the target, a
    cycle exists, or the least vector exceeds ``rho_cap``.
    """
    n, m = a.shape
    if (n == 0 or not np.all(gains[0] > 0) or not np.all(gains == gains[0])
            or np.any(target < 0) or int(target.sum()) != n):
        return None
    gain = gains[0]
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
    rho = np.maximum(pi / gain, rho_min)
    if rho_cap is not None and np.any(rho > rho_cap):
        return None             # the least vector already breaks the cap

    mu = _best_responses(a, gains, reach, rho)
    if not np.array_equal(np.bincount(mu, minlength=m), target):
        return None
    return SurgeSolution(mu, np.tile(rho, (n, 1)), 0.0, "equal-price",
                         "least vector of the min-cost assignment")


def _equal_price_exact(target, fleet, members, reach_sets, rho_min,
                       rho_cap) -> SurgeSolution | None:
    """Enumerate class-to-station choices; keep the best feasible aggregate."""
    a, gains, _ = fleet
    n, m = a.shape
    reps = [rows[0] for rows in members]
    sizes = np.array([len(rows) for rows in members])

    best: tuple[float, np.ndarray, tuple[int, ...]] | None = None
    for choice in product(*reach_sets):
        sigma = np.zeros(m)
        for c, j in enumerate(choice):
            sigma[j] += sizes[c]
        j_m = 0.5 * float(np.sum((sigma - target) ** 2))
        if best is not None and j_m >= best[0]:
            continue
        rho = _common_rho_feasible(choice, a[reps], gains[reps], reach_sets,
                                   rho_min, rho_cap)
        if rho is None:
            continue
        best = (j_m, rho, choice)
        if j_m == 0.0:
            break

    if best is None:
        return None
    j_m, rho, choice = best
    assignment = np.empty(n, dtype=int)
    for c, rows in enumerate(members):
        assignment[rows] = choice[c]
    surge = np.tile(rho, (n, 1))
    return SurgeSolution(assignment, surge, j_m, "equal-price",
                         "exact class enumeration")


def _common_rho_feasible(choice, alphas, gains, reach_sets, rho_min, rho_cap):
    """Linear feasibility: does a shared vector induce these class choices?

    ``alphas`` and ``gains`` hold one row per class representative.
    """
    m = rho_min.size
    rows_a, rows_b = [], []
    for c, j_c in enumerate(choice):
        alpha = alphas[c]
        for j in reach_sets[c]:
            if j == j_c:
                continue
            # cost(j_c) <= cost(j) (strict if j has tie-break priority)
            row = np.zeros(m)
            row[j] = gains[c, j]
            row[j_c] -= gains[c, j_c]
            slack = alpha[j] - alpha[j_c]
            if j < j_c:
                slack -= _STRICT_EPS
            rows_a.append(row)
            rows_b.append(slack)
    bounds = [(float(rho_min[k]), rho_cap) for k in range(m)]
    if not rows_a:
        return rho_min.copy()
    res = linprog(np.zeros(m), A_ub=np.array(rows_a), b_ub=np.array(rows_b),
                  bounds=bounds, method="highs")
    return res.x if res.status == 0 else None


def _equal_price_search(target, fleet, rho_min, budget, seed,
                        rho_cap) -> SurgeSolution:
    """Seeded stochastic local search over a shared surge vector."""
    rng = np.random.default_rng(seed)
    a, gains, reach = fleet
    m = a.shape[1]

    def evaluate(rho):
        mu = _best_responses(a, gains, reach, rho)
        sigma = np.bincount(mu, minlength=m)
        return 0.5 * float(np.sum((sigma - target) ** 2)), mu

    rho = rho_min.copy()
    j_m, mu = evaluate(rho)
    best = (j_m, rho.copy(), mu)
    step = 1.0 + float(np.abs(a).max() / max(gains.max(), 1e-9)) / 10.0
    for it in range(budget):
        if best[0] == 0.0:
            break
        k = int(rng.integers(m))
        cand = rho.copy()
        cand[k] = max(rho_min[k], cand[k] + rng.normal(0.0, step))
        if rho_cap is not None:
            cand[k] = min(cand[k], rho_cap)
        j_c, mu_c = evaluate(cand)
        if j_c <= j_m:
            rho, j_m, mu = cand, j_c, mu_c
            if j_c < best[0]:
                best = (j_c, cand.copy(), mu_c)
        if it % 500 == 499:
            step = max(step * 0.7, 1e-3)

    j_m, rho, mu = best
    surge = np.tile(rho, (a.shape[0], 1))
    return SurgeSolution(mu, surge, j_m, "equal-price",
                         f"local search ({budget} evaluations)")


def two_step(target: np.ndarray, drivers: list[DriverParams],
             prices: np.ndarray, rho_min: np.ndarray | None = None,
             margin: float = DEFAULT_MARGIN, equal_budget: int = 20_000,
             seed: int = 0) -> SurgeSolution:
    """Shared surge vector first; per-vehicle vectors if the target is missed.

    Always returns a zero tracking cost for matchable targets, at the
    expense of individualized surge prices when the shared vector cannot
    split identical drivers. Raises ``InfeasibleTargetError`` up front when
    no matching of the drivers onto the target exists.
    """
    prices = np.asarray(prices, dtype=float)
    if rho_min is None:
        rho_min = np.zeros(prices.size)
    rho_min = np.asarray(rho_min, dtype=float)
    target = np.asarray(target, dtype=int)
    fleet = _stack(drivers, prices)
    # the one matchability decision: raises InfeasibleTargetError
    assignment = assign_vehicles(target, FeasibilityStructure(fleet[2]))

    eq = equal_price_solve(target, drivers, prices, rho_min,
                           budget=equal_budget, seed=seed)
    if eq.j_m == 0.0 and _hits_target(eq.surge, target, *fleet):
        return eq
    return per_vehicle_prices(assignment, drivers, prices, rho_min, margin)


def verify_zero_cost(solution: SurgeSolution, target: np.ndarray,
                     drivers: list[DriverParams], prices: np.ndarray) -> VerifyResult:
    """Recompute every best response and compare the aggregate to the target."""
    target = np.asarray(target, dtype=int)
    fleet = _stack(drivers, np.asarray(prices, dtype=float))
    if not hall_condition(target, FeasibilityStructure(fleet[2])):
        return VerifyResult(False, infeasible_target=True)
    return VerifyResult(_hits_target(solution.surge, target, *fleet))


def _hits_target(surge, target, a, gains, reach) -> bool:
    """Do the drivers' best responses to ``surge`` give the target counts?"""
    mu = _best_responses(a, gains, reach, surge)
    return bool(np.array_equal(np.bincount(mu, minlength=a.shape[1]), target))


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
