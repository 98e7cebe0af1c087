"""Output checks computed apart from the program.

Nothing here calls the program's solvers, projectors, matching or cost
functions. Each check rebuilds what it needs from the game data (fleet
sizes, weights, demand and revenue vectors, reach sets, driver data) and
answers the question with scipy: ``trust-constr`` for the continuous
optima and ``scipy.sparse.csgraph`` for matchability. No check compares
against a stored copy of an earlier output.

Every check appends a message to a :class:`CheckLog` when it fails; the
benchmark reports ``correct`` as ``not log.errors``.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, minimize
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

J_REL_TOL = 1e-6     # relative agreement of two optimal authority losses
J_ABS_TOL = 1e-6     # absolute agreement (losses that are ~0 at the optimum)
FEAS_TOL = 1e-7      # constraint violation allowed on a returned allocation
BOUND_TOL = 1e-9     # slack on the sweep's inequality bounds


class CheckLog:
    def __init__(self):
        self.errors: list[str] = []
        self.checks = 0

    def expect(self, ok: bool, message: str) -> None:
        self.checks += 1
        if not ok:
            self.errors.append(message)

    def agree(self, a: float, b: float, what: str) -> None:
        self.expect(abs(a - b) <= J_ABS_TOL + J_REL_TOL * max(abs(a), abs(b)),
                    f"{what}: {a!r} != {b!r}")


# ---------------------------------------------------------------------------
# admissible polytopes and the continuous optima

def caps_from_reach(reach_sets, n_stations: int, fleet: int):
    """(G, h) of one company's admissible set, from its vehicles' reach sets.

    For every proper nonempty station subset S the fleet share sent into S
    is capped at max(0, |vehicles reaching S| - |S|) / fleet.
    """
    rows, rhs = [], []
    for size in range(1, n_stations):
        for subset in combinations(range(n_stations), size):
            reaching = sum(1 for r in reach_sets if not r.isdisjoint(subset))
            row = np.zeros(n_stations)
            row[list(subset)] = 1.0
            rows.append(row)
            rhs.append(max(0, reaching - size) / fleet)
    return np.array(rows).reshape(-1, n_stations), np.array(rhs)


def _stacked_constraints(polys, m: int):
    """Unit-sum and cap constraints of the product of per-company sets."""
    mc = len(polys)
    n = mc * m
    g_rows, h_all = [], []
    for i, (g_mat, h) in enumerate(polys):
        block = np.zeros((g_mat.shape[0], n))
        block[:, i * m:(i + 1) * m] = g_mat
        g_rows.append(block)
        h_all.append(h)
    unit = np.kron(np.eye(mc), np.ones((1, m)))
    cons = [LinearConstraint(unit, 1.0, 1.0)]
    g_all = np.vstack(g_rows)
    if g_all.shape[0]:
        h_vec = np.concatenate(h_all)
        cons.append(LinearConstraint(g_all, np.full(h_vec.size, -np.inf), h_vec))
    return cons, Bounds(np.zeros(n), np.full(n, np.inf))


def _minimize_quadratic(hess: np.ndarray, lin: np.ndarray, polys, m: int):
    """argmin 1/2 x'Hx + lin'x over the product of the sets, by trust-constr."""
    cons, bounds = _stacked_constraints(polys, m)
    x0 = np.full(hess.shape[0], 1.0 / m)
    res = minimize(lambda x: 0.5 * x @ hess @ x + lin @ x, x0,
                   jac=lambda x: hess @ x + lin, hess=lambda x: hess,
                   method="trust-constr", constraints=cons, bounds=bounds,
                   options={"gtol": 1e-12, "xtol": 1e-14, "maxiter": 5000})
    return res.x


def authority_loss(sigma: np.ndarray, gov) -> float:
    """Authority loss, in set-point form when the objective has a set point."""
    if gov.set_point is not None:
        d = sigma - gov.set_point
        return float(0.5 * np.sum(gov.weight * d * d))
    return float(0.5 * sigma @ (gov.weight * sigma) + gov.linear @ sigma)


def _aggregation(fleet: np.ndarray, m: int) -> np.ndarray:
    """Matrix A with sigma = A x for the stacked allocation x."""
    return np.kron(np.asarray(fleet, dtype=float)[None, :], np.eye(m))


def authority_optimum(instance, polys) -> tuple[float, np.ndarray]:
    """min J_G(sigma(x)) over the product of admissible sets: (J, sigma)."""
    m = instance.n_stations
    fleet = np.array([c.fleet_size for c in instance.companies], dtype=float)
    agg = _aggregation(fleet, m)
    gov = instance.government
    hess = agg.T @ (gov.weight[:, None] * agg)
    lin = agg.T @ gov.linear          # linear = -weight * set_point when a set point exists
    x = _minimize_quadratic(hess, lin, polys, m)
    sigma = agg @ x
    return authority_loss(sigma, gov), sigma


def fixed_price_optimum(instance, prices, polys) -> tuple[float, np.ndarray]:
    """Authority loss at the fixed-price equilibrium, via the game's potential.

    With a committed price p, company i pays the queuing cost
    N_i x_i' Q (N_i x_i + sigma_-i - cap) plus x_i'(d_i p + r_i). The game has
    the exact potential 1/2 sum_i N_i^2 x_i'Qx_i + 1/2 sigma'Q sigma
    + sum_i (d_i p + r_i - N_i Q cap)'x_i, which is strictly convex, so the
    equilibrium is its unique minimizer.
    """
    m = instance.n_stations
    q = np.asarray(instance.stations.queue_weight, dtype=float)
    cap = np.asarray(instance.stations.capacity, dtype=float)
    prices = np.asarray(prices, dtype=float)
    fleet = np.array([c.fleet_size for c in instance.companies], dtype=float)
    agg = _aggregation(fleet, m)
    hess = agg.T @ (q[:, None] * agg) + np.diag(np.concatenate([n * n * q for n in fleet]))
    lin = np.concatenate([
        c.demand * prices + c.revenue - n * q * cap
        for c, n in zip(instance.companies, fleet)
    ])
    x = _minimize_quadratic(hess, lin, polys, m)
    sigma = agg @ x
    return authority_loss(sigma, instance.government), sigma


def check_allocation(log: CheckLog, x_blocks, polys, what: str) -> None:
    """Every company block lies in its admissible set."""
    for i, (x_i, (g_mat, h)) in enumerate(zip(x_blocks, polys)):
        viol = max(abs(float(x_i.sum()) - 1.0), -float(x_i.min()),
                   float(np.max(g_mat @ x_i - h, initial=0.0)))
        log.expect(viol <= FEAS_TOL, f"{what}: company {i} block outside its set ({viol:.2e})")


# ---------------------------------------------------------------------------
# lower level: rounding, matching, surge prices

def matchable(target: np.ndarray, reach_sets) -> bool:
    """Does a vehicle-to-slot matching fill every station slot exactly?"""
    target = np.asarray(target, dtype=int)
    if np.any(target < 0) or int(target.sum()) != len(reach_sets):
        return False
    offsets = np.concatenate(([0], np.cumsum(target)))
    rows, cols = [], []
    for v, reach in enumerate(reach_sets):
        for j in reach:
            slots = np.arange(offsets[j], offsets[j + 1])
            rows.extend([v] * slots.size)
            cols.extend(slots.tolist())
    graph = csr_matrix((np.ones(len(rows)), (rows, cols)),
                       shape=(len(reach_sets), int(offsets[-1])))
    match = maximum_bipartite_matching(graph, perm_type="column")
    return bool(np.all(match >= 0))


def check_target(log: CheckLog, target, x_i, reach_sets, fleet: int, what: str) -> None:
    target = np.asarray(target)
    log.expect(int(target.sum()) == fleet,
               f"{what}: target sums to {int(target.sum())}, fleet is {fleet}")
    scaled = fleet * np.asarray(x_i, dtype=float)
    lo = np.floor(scaled - 1e-6)
    hi = np.ceil(scaled + 1e-6)
    log.expect(bool(np.all((target >= lo) & (target <= hi))),
               f"{what}: target {target.tolist()} outside floor/ceil of {scaled.tolist()}")
    log.expect(matchable(target, reach_sets), f"{what}: target {target.tolist()} not matchable")


def best_responses(drivers, surge: np.ndarray, prices: np.ndarray) -> np.ndarray:
    """Each driver's cheapest reachable station, ties to the lowest index."""
    choice = np.empty(len(drivers), dtype=int)
    for v, d in enumerate(drivers):
        best_k, best_cost = -1, np.inf
        for k in range(prices.size):
            if k not in d.reachable:
                continue
            cost = d.demand[k] * prices[k] + d.base_revenue[k] - d.surge_gain[k] * surge[v, k]
            if cost < best_cost:
                best_k, best_cost = k, cost
        choice[v] = best_k
    return choice


def check_surge(log: CheckLog, solution, drivers, prices, target, what: str) -> None:
    prices = np.asarray(prices, dtype=float)
    log.expect(bool(np.all(solution.surge >= 0)), f"{what}: negative surge price")
    counts = np.bincount(best_responses(drivers, solution.surge, prices),
                         minlength=prices.size)
    log.expect(np.array_equal(counts, np.asarray(target)),
               f"{what}: best responses give {counts.tolist()}, target {list(target)}")


# ---------------------------------------------------------------------------
# whole outputs

def reach_polytopes(build):
    """Independent admissible sets of every company of a built game."""
    m = build.instance.n_stations
    return [caps_from_reach([d.reachable for d in drivers], m, len(drivers))
            for drivers in build.drivers]


def check_pipeline(log: CheckLog, result, flat_price, what: str) -> None:
    """RSG optimality, baselines, rounding and surge prices of one run."""
    build = result.build
    inst = build.instance
    polys = reach_polytopes(build)
    upper = result.upper

    j_opt, sigma_opt = authority_optimum(inst, polys)
    log.expect(bool(upper.converged), f"{what}: upper-level solve did not converge")
    log.agree(upper.j_g, j_opt, f"{what}: RSG J_G vs authority optimum")
    log.agree(authority_loss(upper.sigma, inst.government), upper.j_g,
              f"{what}: RSG J_G vs its aggregate")
    check_allocation(log, upper.blocks, polys, f"{what}: RSG allocation")

    if result.comparison:
        j_base, _ = result.comparison["p_base"]
        log.agree(j_base, fixed_price_optimum(inst, flat_price, polys)[0],
                  f"{what}: flat-price J_G vs potential minimum")
        grid = result.grid_result
        log.agree(grid.j_g, fixed_price_optimum(inst, grid.best_price, polys)[0],
                  f"{what}: grid best-price J_G vs potential minimum")
        log.expect(grid.j_g >= j_opt - J_ABS_TOL,
                   f"{what}: grid J_G {grid.j_g!r} below the RSG optimum {j_opt!r}")
        log.expect(grid.evaluated_prices.shape[0] == grid.evaluated_j_g.size,
                   f"{what}: grid price and loss counts differ")

    for i, comp in enumerate(inst.companies):
        drivers = build.drivers[i]
        reach = [d.reachable for d in drivers]
        tag = f"{what}: company {i}"
        check_target(log, result.targets[i], upper.blocks[i], reach, comp.fleet_size, tag)
        check_surge(log, result.surge_solutions[i], drivers,
                    result.prices_at_equilibrium[i], result.targets[i], tag)


def check_sweep(log: CheckLog, sweep, instance, baselines, rsg_converged, what: str) -> None:
    """Sweep rows against j_star, certified rows, and the theoretical bounds.

    ``rsg_converged`` is (n_alphas, n_samples), read from the perturbed
    solves' return values; only certified rows enter the J_G >= j_star check.
    """
    shape = (sweep.alphas.size, sweep.n_samples)
    if np.shape(rsg_converged) != shape:
        log.expect(False, f"{what}: perturbed solves not seen at the solve boundary")
        rsg_converged = np.zeros(shape, dtype=bool)
    polys = [(p.g_mat, p.h) for p in instance.polytopes]
    j_opt, _ = authority_optimum(instance, polys)
    log.agree(sweep.j_star, j_opt, f"{what}: j_star vs authority optimum")
    tol = J_ABS_TOL + J_REL_TOL * abs(sweep.j_star)

    n_mech = 1 + len(baselines)
    log.expect(len(sweep.rows) == sweep.alphas.size * sweep.n_samples * n_mech,
               f"{what}: {len(sweep.rows)} rows")
    base_at_zero = {}
    for row in sweep.rows:
        a_idx = int(np.flatnonzero(sweep.alphas == row.alpha)[0])
        tag = f"{what}: alpha={row.alpha} sample={row.sample} {row.mechanism}"
        if row.mechanism == "rsg":
            if row.alpha == 0.0:
                log.agree(row.j_g, sweep.j_star, f"{tag}: J_G vs j_star")
            if rsg_converged[a_idx, row.sample]:
                log.expect(row.j_g >= sweep.j_star - tol, f"{tag}: J_G below j_star")
        elif row.alpha == 0.0:
            if row.mechanism not in base_at_zero:
                base_at_zero[row.mechanism] = fixed_price_optimum(
                    instance, baselines[row.mechanism], polys)[0]
            log.agree(row.j_g, base_at_zero[row.mechanism], f"{tag}: J_G vs potential minimum")

    log.expect(bool(np.all(sweep.gap_observed <= sweep.gap_bounds + BOUND_TOL)),
               f"{what}: gap_observed above gap_bounds")
    log.expect(bool(np.all(sweep.eps_observed <= sweep.eps_bound + BOUND_TOL)),
               f"{what}: eps_observed above eps_bound")
