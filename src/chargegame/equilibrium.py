"""Nash equilibrium computation for the pricing game.

The game map (stacked per-company gradients of own costs) is affine,
F(x) = F1 x + F2. Companies interact only through each station's
aggregate, so F1 is block-diagonal by station and is stored as one
(n_companies, n_companies) block per station. Under the aligned feedback
prices block k is weight_k N N', which is symmetric positive semidefinite
but not definite, so a plain fixed-point (Picard) iteration on the
projected step need not converge. The averaged variant

    x^i  <-  1/2 ( x^i + project_i( x^i - gamma * grad_i ) )

is guaranteed to converge for any step below 2 / lambda_max(F1), the
maximum over the station blocks (`step_bound`). Each
company only ever reads the shared aggregate sigma(x) plus its own block,
so the iteration runs with the information pattern of a decentralized
scheme; updates within a round are synchronous, making the result
independent of company evaluation order.

A batched front end iterates many game variants at once (price grids,
perturbation sweeps); it is the exact same update applied row-wise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import GameInstance, government_cost


@dataclass
class SolveReport:
    """Trace and outcome of one equilibrium computation."""

    x: np.ndarray                    # final stacked allocation
    gamma: float
    iterations: int
    converged: bool
    residuals: np.ndarray            # fixed-point residual per iteration
    j_g_trace: np.ndarray            # authority loss per iterate (incl. start)
    sigma_trace: np.ndarray          # aggregate per iterate (incl. start)
    iterates: np.ndarray | None = None   # optional (iterations+1, n) trace

    @property
    def blocks(self) -> np.ndarray:
        m = self.sigma_trace.shape[1]
        return self.x.reshape(-1, m)

    @property
    def sigma(self) -> np.ndarray:
        return self.sigma_trace[-1]

    @property
    def j_g(self) -> float:
        return float(self.j_g_trace[-1])


def game_map(instance: GameInstance, perturbation=None, prices: np.ndarray | None = None):
    """Station-blocked (F1, F2) of the affine game map F(x) = F1 x + F2.

    Companies interact only through each station's aggregate, so F1 is
    block-diagonal by station: ``F1[k]`` is the (n_companies, n_companies)
    block coupling the companies' allocations at station k, and F2 is
    stacked like x.

    * default: the game under the aligned feedback prices,
      F1[k] = weight_k N N', F2 = stack_i(N_i * linear);
    * ``prices`` given: the fixed-price game, whose gradient uses the raw
      queuing coefficients plus the constant charging/revenue term;
    * ``perturbation`` given: feedback prices built from a perturbed
      demand inverse; adds the blocks of ``perturbation_map``.
    """
    if perturbation is not None and prices is not None:
        raise ValueError("perturbation applies to feedback prices only")
    n_vec = instance.fleet_sizes
    outer = np.outer(n_vec, n_vec)

    if prices is not None:
        prices = np.asarray(prices, dtype=float)
        f1 = instance.stations.queue_weight[:, None, None] * (outer + np.diag(n_vec**2))
        f2 = np.concatenate([
            c.lin + c.demand * prices + c.revenue for c in instance.companies
        ])
        return f1, f2

    f1 = instance.government.weight[:, None, None] * outer
    f2 = np.concatenate([n_i * instance.government.linear for n_i in n_vec])

    if perturbation is not None:
        phi_l1, phi_l2 = perturbation_map(instance, perturbation)
        f1 = f1 + phi_l1
        f2 = f2 + phi_l2
    return f1, f2


def perturbation_map(instance: GameInstance, perturbation):
    """Additive game-map change caused by a perturbed demand inverse.

    Company i's row of station block k is shift_ik * demand_ik times its
    policy coefficients: b_bar_ik * N_j off the diagonal, a_bar_ik on it,
    matching the gradient of the perturbed company cost.
    """
    from .model import _policy_terms  # local import to keep module surfaces small

    mc = instance.n_companies
    a_bar, b_bar, delta = (np.stack(t) for t in
                           zip(*[_policy_terms(instance, i) for i in range(mc)]))
    d_shift = np.stack([
        np.asarray(shift, dtype=float) * comp.demand
        for comp, shift in zip(instance.companies, perturbation.demand_shift)
    ])
    phi_l1 = (d_shift * b_bar).T[:, :, None] * instance.fleet_sizes[None, None, :]
    diag = np.arange(mc)
    phi_l1[:, diag, diag] = (d_shift * a_bar).T
    return phi_l1, (d_shift * delta).reshape(-1)


def apply_map(f1: np.ndarray, x: np.ndarray) -> np.ndarray:
    """F1 x for station-blocked F1 (..., m, mc, mc) and stacked x (..., mc*m).

    A single map (m, mc, mc) is shared by every row of x; per-row maps
    (rows, m, mc, mc) pair with x of shape (rows, mc*m).
    """
    m, mc = f1.shape[-3], f1.shape[-1]
    x = np.asarray(x, dtype=float)
    blocks = x.reshape(*x.shape[:-1], mc, m)
    if f1.ndim == 3:    # one (mc, mc) @ (mc, rows) product per station
        cols = blocks.reshape(-1, mc, m).transpose(2, 1, 0)
        out = np.matmul(f1, cols).transpose(2, 1, 0)
    else:               # one (mc, mc) @ (mc, 1) product per row and station
        out = np.matmul(f1, blocks.swapaxes(-1, -2)[..., None])[..., 0].swapaxes(-1, -2)
    return out.reshape(x.shape)


def pseudo_gradient(instance: GameInstance, x: np.ndarray, perturbation=None,
                    prices: np.ndarray | None = None) -> np.ndarray:
    """Stacked per-company gradients of own cost at the stacked point x."""
    x = np.asarray(x, dtype=float)
    n = instance.n_companies * instance.n_stations
    if x.shape != (n,):
        raise ValueError(f"expected stacked vector of length {n}")
    f1, f2 = game_map(instance, perturbation, prices)
    return apply_map(f1, x) + f2


def lambda_max_closed_form(instance: GameInstance) -> float:
    """Largest eigenvalue of the aligned F1: ||N||^2 max weight."""
    n_vec = instance.fleet_sizes
    return float(n_vec @ n_vec) * float(instance.government.weight.max())


def step_bound(f1: np.ndarray):
    """Supremum 2 / L of admissible step sizes for station-blocked F1.

    L is lambda_max(F1) when the whole map is symmetric and the spectral
    norm otherwise (a perturbed map may lose symmetry). For a
    block-diagonal map both are the maximum over the station blocks.
    Per-row maps (rows, m, mc, mc) give one bound per row.
    """
    f1 = np.asarray(f1, dtype=float)
    symmetric = np.all(np.abs(f1 - f1.swapaxes(-1, -2)) <= 1e-12, axis=(-3, -2, -1))
    lam = np.where(symmetric,
                   np.linalg.eigvalsh(f1)[..., -1].max(axis=-1),
                   np.linalg.norm(f1, 2, axis=(-2, -1)).max(axis=-1))
    if np.any(lam <= 0):
        raise ValueError("game map has nonpositive curvature bound")
    bound = 2.0 / lam
    return float(bound) if f1.ndim == 3 else bound


def step_size_bound(instance: GameInstance, perturbation=None,
                    prices: np.ndarray | None = None) -> float:
    """Supremum of admissible step sizes, 2 / lambda_max, of one game."""
    return step_bound(game_map(instance, perturbation, prices)[0])


def default_start(instance: GameInstance) -> np.ndarray:
    """Uniform over each company's usable stations, projected to admissibility."""
    blocks = []
    for poly in instance.polytopes:
        usable = ~poly.forced_zero
        if not usable.any():
            usable = np.ones(instance.n_stations, dtype=bool)
        x0 = usable.astype(float) / usable.sum()
        blocks.append(poly.project(x0))
    return np.concatenate(blocks)


def solve_nash(instance: GameInstance, x0: np.ndarray | None = None,
               gamma: float | None = None, max_iter: int = 1000,
               tol: float = 1e-8, perturbation=None,
               prices: np.ndarray | None = None,
               record_iterates: bool = False) -> SolveReport:
    """Averaged projected-gradient iteration to the Nash equilibrium.

    Stops when the fixed-point residual ||x - project(x - gamma F(x))||
    drops below ``tol`` or after ``max_iter`` rounds. ``gamma`` defaults
    to 0.9 times the admissible supremum.
    """
    f1, f2 = game_map(instance, perturbation, prices)
    gamma_max = step_bound(f1)
    if gamma is None:
        gamma = 0.9 * gamma_max
    if not 0.0 < gamma < gamma_max:
        raise ValueError(f"step size must lie in (0, {gamma_max:.3e})")

    if x0 is None:
        x0 = default_start(instance)
    x0 = np.asarray(x0, dtype=float)

    out = _iterate_batch(
        instance, f1, x0[None, :], f2[None, :], np.array([gamma]),
        max_iter=max_iter, tol=tol, record_iterates=record_iterates,
        record_trace=True,
    )
    return SolveReport(
        x=out["x"][0],
        gamma=float(gamma),
        iterations=int(out["iterations"][0]),
        converged=bool(out["converged"][0]),
        residuals=out["residuals"][:, 0],
        j_g_trace=out["j_g"][:, 0],
        sigma_trace=out["sigma"][:, 0, :],
        iterates=out["iterates"][:, 0, :] if record_iterates else None,
    )


def nash_residual(instance: GameInstance, x: np.ndarray, gamma: float | None = None,
                  perturbation=None, prices: np.ndarray | None = None) -> float:
    """Fixed-point residual; zero exactly at a Nash equilibrium."""
    if gamma is None:
        gamma = 0.9 * step_size_bound(instance, perturbation, prices)
    x = np.asarray(x, dtype=float)
    g = pseudo_gradient(instance, x, perturbation, prices)
    m = instance.n_stations
    proj = np.concatenate([
        poly.project(x[i * m:(i + 1) * m] - gamma * g[i * m:(i + 1) * m])
        for i, poly in enumerate(instance.polytopes)
    ])
    return float(np.linalg.norm(proj - x))


def solve_nash_batch(instance: GameInstance, f2_rows: np.ndarray,
                     f1: np.ndarray | None = None,
                     f1_rows: np.ndarray | None = None,
                     gammas: np.ndarray | None = None,
                     x0: np.ndarray | None = None, max_iter: int = 1000,
                     tol: float = 1e-8, record_iterates: bool = False) -> dict:
    """Solve many variants of the game that share polytopes and fleet sizes.

    Either a shared blocked ``f1`` (m, mc, mc) or per-row ``f1_rows``
    (rows, m, mc, mc) must be given; ``f2_rows`` is (rows, n). Used by the
    price grid search (shared F1, per-price F2) and the perturbation sweep
    (per-sample F1).
    """
    if (f1 is None) == (f1_rows is None):
        raise ValueError("pass exactly one of f1 or f1_rows")
    if gammas is None:
        raise ValueError("gammas required")
    if x0 is None:
        x0 = np.broadcast_to(default_start(instance), f2_rows.shape).copy()
    return _iterate_batch(instance, f1 if f1 is not None else f1_rows,
                          x0, f2_rows, np.asarray(gammas, dtype=float),
                          max_iter=max_iter, tol=tol,
                          record_iterates=record_iterates, record_trace=False)


def _iterate_batch(instance: GameInstance, f1: np.ndarray, x0: np.ndarray,
                   f2: np.ndarray, gammas: np.ndarray, max_iter: int, tol: float,
                   record_iterates: bool, record_trace: bool) -> dict:
    """Shared engine: averaged projected-gradient rounds over row batches.

    Rows stop moving once their residual drops to ``tol``; only live rows
    are projected. ``record_trace`` keeps the per-round residual, sigma
    and authority loss of every row.
    """
    rows = x0.shape[0]
    m = instance.n_stations
    mc = instance.n_companies
    fleet = instance.fleet_sizes
    gov = instance.government

    x = x0.astype(float).copy()
    live = np.ones(rows, dtype=bool)
    iterations = np.zeros(rows, dtype=int)
    residual = np.full(rows, np.inf)
    residual_hist: list[np.ndarray] = []
    j_hist: list[np.ndarray] = []
    sigma_hist: list[np.ndarray] = []
    iter_hist: list[np.ndarray] = [x.copy()] if record_iterates else []

    def sigma_of(xr):
        return xr.reshape(rows, mc, m).transpose(0, 2, 1) @ fleet

    if record_trace:
        sig = sigma_of(x)
        sigma_hist.append(sig)
        j_hist.append(government_cost(sig, gov))

    for k in range(max_iter):
        grad = apply_map(f1, x) + f2
        proj = x.copy()
        for i, poly in enumerate(instance.polytopes):
            sl = slice(i * m, (i + 1) * m)
            proj[live, sl] = poly.project_batch(
                x[live, sl] - gammas[live, None] * grad[live, sl])
        res = np.linalg.norm(proj - x, axis=1)
        x = 0.5 * (x + proj)    # exact no-op on stopped rows, where proj == x
        iterations[live] = k + 1
        residual[live] = res[live]
        if record_trace:
            sig = sigma_of(x)
            sigma_hist.append(sig)
            j_hist.append(government_cost(sig, gov))
            residual_hist.append(res)
        if record_iterates:
            iter_hist.append(x.copy())
        live &= res > tol
        if not live.any():
            break

    return {
        "x": x,
        "iterations": iterations,
        "converged": residual <= tol,
        "residual": residual,
        "residuals": np.array(residual_hist).reshape(-1, rows) if record_trace else None,
        "j_g": np.array(j_hist) if record_trace else None,
        "sigma": np.array(sigma_hist) if record_trace else None,
        "sigma_final": sigma_of(x),
        "iterates": np.array(iter_hist) if record_iterates else None,
    }
