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

    ``demand[k]`` is the vehicle's charging demand if it picks station k
    (zero exactly on unreachable stations), ``base_revenue`` the negative
    expected revenue of operating near each station, ``surge_gain[k]``
    the extra profit per unit of surge price there, and ``horizon`` the
    number of operating hours the revenue terms were scaled for.
    """

    demand: np.ndarray
    base_revenue: np.ndarray
    surge_gain: np.ndarray
    reachable: frozenset[int]
    horizon: float = 2.0

    def __post_init__(self):
        d = np.asarray(self.demand, dtype=float)
        g = np.asarray(self.base_revenue, dtype=float)
        h = np.asarray(self.surge_gain, dtype=float)
        if not (d.shape == g.shape == h.shape) or d.ndim != 1:
            raise ValueError("driver vectors must share one shape")
        if np.any(h < 0):
            raise ValueError("surge gains must be nonnegative")
        for k in range(d.size):
            if (d[k] > 0) != (k in self.reachable):
                raise ValueError("demand must be positive exactly on reachable stations")
        object.__setattr__(self, "demand", d)
        object.__setattr__(self, "base_revenue", g)
        object.__setattr__(self, "surge_gain", h)


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


def fleet_feasibility(drivers: list[DriverParams], n_stations: int) -> FeasibilityStructure:
    """Reachability structure induced by the drivers' reachable sets."""
    return FeasibilityStructure(n_stations, tuple(d.reachable for d in drivers))


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


def driver_choice_costs(driver: DriverParams, surge: np.ndarray,
                        prices: np.ndarray) -> np.ndarray:
    """Cost of each station for a driver; unreachable stations read +inf."""
    surge = np.asarray(surge, dtype=float)
    prices = np.asarray(prices, dtype=float)
    costs = driver.demand * prices + driver.base_revenue - driver.surge_gain * surge
    out = np.full(costs.shape, np.inf)
    idx = sorted(driver.reachable)
    out[idx] = costs[idx]
    return out


def driver_best_response(driver: DriverParams, surge: np.ndarray,
                         prices: np.ndarray) -> int:
    """Cost-minimizing station; ties broken toward the lowest index."""
    if not driver.reachable:
        raise ValueError("driver has no reachable station")
    return int(np.argmin(driver_choice_costs(driver, surge, prices)))


def per_vehicle_prices(assignment: np.ndarray, drivers: list[DriverParams],
                       prices: np.ndarray, rho_min: np.ndarray,
                       margin: float = DEFAULT_MARGIN) -> SurgeSolution:
    """Individual surge vectors making every driver pick its assigned station.

    Off-target stations sit at the per-station floor; the target entry is
    lifted just past the level at which the target becomes the strict
    best response. Drivers that already prefer their target at the floor
    keep the floor vector unchanged.
    """
    prices = np.asarray(prices, dtype=float)
    rho_min = np.asarray(rho_min, dtype=float)
    n_v = len(drivers)
    m = prices.size
    surge = np.tile(rho_min, (n_v, 1))

    for v, driver in enumerate(drivers):
        t = int(assignment[v])
        if t not in driver.reachable:
            raise InfeasibleTargetError(f"vehicle {v} cannot reach its target station")
        if driver_best_response(driver, surge[v], prices) == t:
            continue
        gain_t = driver.surge_gain[t]
        if gain_t <= 0:
            raise ZeroGainError(
                f"vehicle {v} has zero surge gain at station {t}")
        costs = driver.demand * prices + driver.base_revenue
        needed = -np.inf
        for j in driver.reachable:
            if j == t:
                continue
            # want: costs[t] - gain_t * rho_t <= costs[j] - gain_j * rho_min_j
            level = (costs[t] - costs[j] + driver.surge_gain[j] * rho_min[j]) / gain_t
            needed = max(needed, level)
        surge[v, t] = max(rho_min[t], needed + margin)

    return SurgeSolution(np.asarray(assignment, dtype=int), surge, 0.0,
                         "per-vehicle", "floor-plus-threshold construction")


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

    sol = _equal_price_assignment(target, drivers, prices, rho_min, rho_cap)
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
        sol = _equal_price_exact(target, drivers, members, reach_sets, prices,
                                 rho_min, rho_cap)
        if sol is not None:
            return sol

    return _equal_price_search(target, drivers, prices, rho_min, budget, seed,
                               rho_cap)


def _shared_gain(drivers: list[DriverParams]) -> np.ndarray | None:
    """The surge-gain vector all drivers share, if it is strictly positive."""
    if not drivers:
        return None
    gain = drivers[0].surge_gain
    if not np.all(gain > 0):
        return None
    for d in drivers[1:]:
        if d.surge_gain is not gain and not np.array_equal(d.surge_gain, gain):
            return None
    return gain


def _equal_price_assignment(target, drivers, prices, rho_min,
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
    gain = _shared_gain(drivers)
    n, m = len(drivers), prices.size
    if gain is None or np.any(target < 0) or int(target.sum()) != n:
        return None
    reach = np.zeros((n, m), dtype=bool)
    for v, d in enumerate(drivers):
        reach[v, list(d.reachable)] = True
    a = (np.stack([d.demand for d in drivers]) * prices
         + np.stack([d.base_revenue for d in drivers]))
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

    mu = np.argmin(cost - gain * rho, axis=1)
    if not np.array_equal(np.bincount(mu, minlength=m), target):
        return None
    return SurgeSolution(mu, np.tile(rho, (n, 1)), 0.0, "equal-price",
                         "least vector of the min-cost assignment")


def _class_costs(drivers, members, prices):
    reps = [drivers[rows[0]] for rows in members]
    return [rep.demand * prices + rep.base_revenue for rep in reps], reps


def _equal_price_exact(target, drivers, members, reach_sets, prices, rho_min,
                       rho_cap) -> SurgeSolution | None:
    """Enumerate class-to-station choices; keep the best feasible aggregate."""
    m = prices.size
    alphas, reps = _class_costs(drivers, members, prices)
    sizes = np.array([len(rows) for rows in members])

    best: tuple[float, np.ndarray, tuple[int, ...]] | None = None
    for choice in product(*reach_sets):
        sigma = np.zeros(m)
        for c, j in enumerate(choice):
            sigma[j] += sizes[c]
        j_m = 0.5 * float(np.sum((sigma - target) ** 2))
        if best is not None and j_m >= best[0]:
            continue
        rho = _common_rho_feasible(choice, reps, alphas, reach_sets, rho_min,
                                   rho_cap)
        if rho is None:
            continue
        best = (j_m, rho, choice)
        if j_m == 0.0:
            break

    if best is None:
        return None
    j_m, rho, choice = best
    assignment = np.empty(len(drivers), dtype=int)
    for c, rows in enumerate(members):
        assignment[rows] = choice[c]
    surge = np.tile(rho, (len(drivers), 1))
    return SurgeSolution(assignment, surge, j_m, "equal-price",
                         "exact class enumeration")


def _common_rho_feasible(choice, reps, alphas, reach_sets, rho_min, rho_cap):
    """Linear feasibility: does a shared vector induce these class choices?"""
    m = rho_min.size
    rows_a, rows_b = [], []
    for c, j_c in enumerate(choice):
        rep = reps[c]
        alpha = alphas[c]
        for j in reach_sets[c]:
            if j == j_c:
                continue
            # cost(j_c) <= cost(j) (strict if j has tie-break priority)
            row = np.zeros(m)
            row[j] = rep.surge_gain[j]
            row[j_c] -= rep.surge_gain[j_c]
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


def _equal_price_search(target, drivers, prices, rho_min, budget, seed,
                        rho_cap) -> SurgeSolution:
    """Seeded stochastic local search over a shared surge vector."""
    rng = np.random.default_rng(seed)
    m = prices.size
    alphas = np.stack([d.demand * prices + d.base_revenue for d in drivers])
    gains = np.stack([d.surge_gain for d in drivers])
    blocked = np.stack([
        np.array([k not in d.reachable for k in range(m)]) for d in drivers
    ])

    def responses(rho):
        costs = alphas - gains * rho[None, :]
        costs = np.where(blocked, np.inf, costs)
        return np.argmin(costs, axis=1)

    def evaluate(rho):
        mu = responses(rho)
        sigma = np.bincount(mu, minlength=m)
        return 0.5 * float(np.sum((sigma - target) ** 2)), mu

    rho = rho_min.copy()
    j_m, mu = evaluate(rho)
    best = (j_m, rho.copy(), mu)
    step = 1.0 + float(np.abs(alphas).max() / max(gains.max(), 1e-9)) / 10.0
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
    surge = np.tile(rho, (len(drivers), 1))
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
    # the one matchability decision: raises InfeasibleTargetError
    assignment = assign_vehicles(target, fleet_feasibility(drivers, prices.size))

    eq = equal_price_solve(target, drivers, prices, rho_min,
                           budget=equal_budget, seed=seed)
    if eq.j_m == 0.0 and _hits_target(eq, target, drivers, prices):
        return eq
    return per_vehicle_prices(assignment, drivers, prices, rho_min, margin)


def verify_zero_cost(solution: SurgeSolution, target: np.ndarray,
                     drivers: list[DriverParams], prices: np.ndarray) -> VerifyResult:
    """Recompute every best response and compare the aggregate to the target."""
    target = np.asarray(target, dtype=int)
    prices = np.asarray(prices, dtype=float)
    feas = fleet_feasibility(drivers, prices.size)
    if not hall_condition(target, feas):
        return VerifyResult(False, infeasible_target=True)
    return VerifyResult(_hits_target(solution, target, drivers, prices))


def _hits_target(solution: SurgeSolution, target: np.ndarray,
                 drivers: list[DriverParams], prices: np.ndarray) -> bool:
    """Do the drivers' best responses to the solution's surge give the target?"""
    mu = np.array([
        driver_best_response(d, solution.surge[v], prices)
        for v, d in enumerate(drivers)
    ])
    return bool(np.array_equal(np.bincount(mu, minlength=prices.size), target))


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
