import numpy as np
import pytest

from chargegame import build_game, demo_scenario, reference_game, simulate_period
from chargegame.equilibrium import game_map, solve_nash_batch


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
    from chargegame.model import _policy_terms

    m, mc = instance.n_stations, instance.n_companies
    n_vec = instance.fleet_sizes
    phi = np.zeros((mc * m, mc * m))
    for i, comp in enumerate(instance.companies):
        a_bar, b_bar, _ = _policy_terms(instance, i)
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
