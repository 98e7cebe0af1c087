import numpy as np
import pytest

from chargegame import build_game, demo_scenario, reference_game, simulate_period
from chargegame.equilibrium import apply_map, game_map, solve_nash_batch, step_bound
from chargegame.model import pseudo_inverse_diag


@pytest.fixture(scope="session")
def ref_game():
    return reference_game(seed=0)


@pytest.fixture(scope="session")
def demo():
    return demo_scenario()


@pytest.fixture(scope="session")
def demo_snapshot(demo):
    return simulate_period(demo)


@pytest.fixture(scope="session")
def demo_build(demo, demo_snapshot):
    return build_game(demo, demo_snapshot)


def random_simplex(rng, n):
    v = rng.exponential(1.0, n)
    return v / v.sum()


def recorded_solve(instance, perturbation=None, prices=None, **kwargs):
    """The one-row engine call ``solve_nash`` makes, with every iterate kept:
    ``out["iterates"][:, 0]`` is the trace of ``solve_nash``'s rounds."""
    f1, f2 = game_map(instance, perturbation, prices)
    return solve_nash_batch(instance, f2[None, :], f1=f1, record_iterates=True, **kwargs)


def dense_perturbation(instance, perturbation):
    """Dense (n, n) perturbation of F1, block row by block row."""
    m, mc = instance.n_stations, instance.n_companies
    n_vec = instance.fleet_sizes
    phi = np.zeros((mc * m, mc * m))
    for i, comp in enumerate(instance.companies):
        a_bar, b_bar, _ = policy_terms(instance, i)
        d_shift = np.asarray(perturbation.demand_shift[i], dtype=float) * comp.demand
        rows = slice(i * m, (i + 1) * m)
        for j in range(mc):
            cols = slice(j * m, (j + 1) * m)
            if i == j:
                phi[rows, cols] = np.diag(d_shift * a_bar)
            else:
                phi[rows, cols] = np.diag(d_shift * b_bar * n_vec[j])
    return phi


def dense_f1(instance, perturbation=None, prices=None):
    """Dense (n, n) F1 over the stacked allocation, built with Kronecker products.

    Oracle for the station-blocked F1 of ``chargegame.equilibrium.game_map``.
    """
    n_vec = instance.fleet_sizes
    if prices is not None:
        return np.kron(np.outer(n_vec, n_vec) + np.diag(n_vec**2),
                       np.diag(instance.stations.queue_weight))
    f1 = np.kron(np.outer(n_vec, n_vec), np.diag(instance.government.weight))
    if perturbation is not None:
        f1 = f1 + dense_perturbation(instance, perturbation)
    return f1


# Scalar oracles of the cost model, written in the paper's direct form
# rather than from ``chargegame.model.queuing_terms``.

def queuing_cost(fleet_size, stations, x_i, sigma_others):
    """N x' q (N x + sigma_others - capacity)."""
    x_i = np.asarray(x_i, dtype=float)
    load = fleet_size * x_i + np.asarray(sigma_others, dtype=float) - stations.capacity
    return float(fleet_size * x_i @ (stations.queue_weight * load))


def company_cost(stations, company, x_i, sigma_others, prices):
    """Queuing + charging cost minus revenue: N x' q (N x + sigma_others - cap)
    + x' (d * p) + r' x."""
    x_i = np.asarray(x_i, dtype=float)
    prices = np.asarray(prices, dtype=float)
    return (queuing_cost(company.fleet_size, stations, x_i, sigma_others)
            + float(x_i @ (company.demand * prices)) + float(company.revenue @ x_i))


def policy_terms(instance, i):
    """Company i's (a_bar, b_bar, delta) of the feedback policies: the
    authority's terms minus the queuing cost's, N^2 w - 2 N^2 q,
    N w - N q and N b + N q cap - r."""
    c, st, gov = instance.companies[i], instance.stations, instance.government
    n_i = float(c.fleet_size)
    q = st.queue_weight
    return (n_i**2 * gov.weight - 2.0 * n_i**2 * q,
            n_i * gov.weight - n_i * q,
            n_i * gov.linear + n_i * q * st.capacity - c.revenue)


def approximate_prices(instance, i, x_i, sigma_others, demand_shift):
    """Feedback prices built from the demand inverse plus ``demand_shift``."""
    a_bar, b_bar, delta = policy_terms(instance, i)
    scale = pseudo_inverse_diag(instance.companies[i].demand) + demand_shift
    return scale * (0.5 * a_bar * np.asarray(x_i, dtype=float)
                    + b_bar * np.asarray(sigma_others, dtype=float) + delta)


def reduced_cost(instance, i, x_i, sigma_others):
    """Company cost under the aligned feedback prices,
    1/2 N^2 x' W x + N x' W sigma_others + N b' x."""
    n_i = float(instance.companies[i].fleet_size)
    w, b = instance.government.weight, instance.government.linear
    x_i = np.asarray(x_i, dtype=float)
    sigma_others = np.asarray(sigma_others, dtype=float)
    return float(0.5 * n_i**2 * x_i @ (w * x_i) + n_i * x_i @ (w * sigma_others)
                 + n_i * b @ x_i)


def lambda_max_closed_form(instance):
    """Largest eigenvalue of the aligned F1: ||N||^2 max weight."""
    n_vec = instance.fleet_sizes
    return float(n_vec @ n_vec) * float(instance.government.weight.max())


def nash_residual(instance, x, gamma=None, perturbation=None, prices=None):
    """||x - Pi(x - gamma F(x))||, each company block projected onto its own
    polytope; zero exactly at a Nash equilibrium. ``gamma`` defaults to the
    engine's 0.9 of the step bound."""
    f1, f2 = game_map(instance, perturbation, prices)
    if gamma is None:
        gamma = 0.9 * step_bound(f1)
    x = np.asarray(x, dtype=float)
    y = (x - gamma * (apply_map(f1, x) + f2)).reshape(instance.n_companies, -1)
    proj = np.concatenate([poly.project(y_i) for poly, y_i in zip(instance.polytopes, y)])
    return float(np.linalg.norm(x - proj))


def contains(poly, x, tol=1e-9):
    """Is x in the polytope: unit sum and every row of its H-representation?"""
    x = np.asarray(x, dtype=float)
    if poly.is_empty or x.shape != (poly.n,):
        return False
    return abs(x.sum() - 1.0) <= tol and bool(np.all(poly.g_mat @ x <= poly.h + tol))


def driver_best_response(driver, surge, prices):
    """The driver's cheapest reachable station, d * p + base - gain * surge;
    ties go to the lowest index."""
    cost = (driver.demand * np.asarray(prices, dtype=float) + driver.base_revenue
            - driver.surge_gain * np.asarray(surge, dtype=float))
    reach = driver.demand > 0
    if not reach.any():
        raise ValueError("driver has no reachable station")
    return int(np.argmin(np.where(reach, cost, np.inf)))
