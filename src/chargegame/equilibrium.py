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

One engine, `solve_nash_batch`, runs this update row-wise over many game
variants at once (price grids, perturbation sweeps) and owns the one step
rule: 0.9 times each row's `step_bound` unless a step inside the bound is
given. A row stops once its residual meets the tolerance. Each round
computes F1 x for every row (`apply_map`), and then adds F2, steps,
projects every company block in one call of a `qp.BlockProjector` built
once per solve, and takes the residual and the average on the live rows
only. Every row gets the bits it would get alone among all rows.

A call allocates one workspace, four arrays the size of x, and every
round writes into it through ``out=`` and ``scratch=`` (`apply_map`,
the projector, ``np.take`` gathers of the live rows). So after the first
round no round allocates an array the size of x: freed and re-faulted
every round, such arrays cost a grid search tens of thousands of page
faults. What a round still allocates are row-length vectors and, for
chain polytopes, the chain walk's arrays.

`solve_nash` is the engine's one-row case with the aggregate trace kept,
and `nash_residual` its first-round residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import GameInstance, government_cost
from .qp import BlockProjector, carve


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
        f1 = instance.stations.queue_weight[:, None, None] * (outer + np.diag(n_vec**2))
        return f1, fixed_price_f2(instance, prices)

    f1 = instance.government.weight[:, None, None] * outer
    f2 = np.concatenate([n_i * instance.government.linear for n_i in n_vec])

    if perturbation is not None:
        phi_l1, phi_l2 = perturbation_map(instance, perturbation)
        f1 = f1 + phi_l1
        f2 = f2 + phi_l2
    return f1, f2


def fixed_price_f2(instance: GameInstance, price_rows,
                   demand_rows=None) -> np.ndarray:
    """F2 of the fixed-price game, stack_i((lin_i + revenue_i) + prices * demand_i).

    ``price_rows`` is one price vector (m,) or an array of them (..., m);
    ``demand_rows`` replaces the companies' demand diagonals, as one
    (mc, m) array or an array of them (..., mc, m). The leading axes of the
    two broadcast, and the result is stacked like x behind them. Prices
    must be nonnegative.
    """
    prices = np.asarray(price_rows, dtype=float)
    if np.any(prices < 0):
        raise ValueError("prices must be nonnegative")
    base = np.stack([c.lin + c.revenue for c in instance.companies])
    demand = (np.stack([c.demand for c in instance.companies])
              if demand_rows is None else np.asarray(demand_rows, dtype=float))
    f2 = base + prices[..., None, :] * demand
    return f2.reshape(*f2.shape[:-2], -1)


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


def apply_map(f1: np.ndarray, x: np.ndarray, out: np.ndarray | None = None,
              scratch: np.ndarray | None = None) -> np.ndarray:
    """F1 x for station-blocked F1 (..., m, mc, mc) and stacked x (..., mc*m).

    A single map (m, mc, mc) is shared by every row of x; per-row maps
    (rows, m, mc, mc) pair with x of shape (rows, mc*m). The shared-map
    product may round a row differently with the number of rows (a row
    alone can differ from the same row among three), so the engine
    always passes every row, stopped ones included.

    The product is taken into a C-contiguous array laid out as numpy
    would allocate it, and then copied transposed into ``out``, a
    C-contiguous array shaped like x (allocated when None). ``scratch``,
    a C-contiguous float array of at least x.size cells that shares no
    memory with x or ``out``, holds that product; it is allocated when
    None. Per-row maps take a scratch only with one map per row of x.
    """
    m, mc = f1.shape[-3], f1.shape[-1]
    x = np.asarray(x, dtype=float)
    blocks = x.reshape(*x.shape[:-1], mc, m)
    if out is None:
        out = np.empty(x.shape)
    if f1.ndim == 3:    # one (mc, mc) @ (mc, rows) product per station
        cols = blocks.reshape(-1, mc, m).transpose(2, 1, 0)
        prod = np.matmul(f1, cols, out=carve(scratch, cols.shape)[0])
        np.copyto(out.reshape(-1, mc, m), prod.transpose(2, 1, 0))
    else:               # one (mc, mc) @ (mc, 1) product per row and station
        cols = blocks.swapaxes(-1, -2)[..., None]
        prod = np.matmul(f1, cols, out=carve(scratch, f1.shape[:-1] + (1,))[0])
        np.copyto(out.reshape(blocks.shape), prod[..., 0].swapaxes(-1, -2))
    return out


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
               prices: np.ndarray | None = None) -> SolveReport:
    """Averaged projected-gradient iteration to the Nash equilibrium.

    One row of ``solve_nash_batch``: stops when the fixed-point residual
    ||x - project(x - gamma F(x))|| drops below ``tol`` or after
    ``max_iter`` rounds, with ``gamma`` defaulting to the engine's step.
    The report keeps the aggregate and authority-loss trace of the
    recorded iterates, not the iterates themselves.
    """
    f1, f2 = game_map(instance, perturbation, prices)
    out = solve_nash_batch(
        instance, f2[None, :], f1=f1, gammas=gamma, x0=x0,
        max_iter=max_iter, tol=tol, record_iterates=True)
    sigma_trace = aggregates(instance, out["iterates"][:, 0, :])
    return SolveReport(
        x=out["x"][0],
        gamma=float(out["gammas"][0]),
        iterations=int(out["iterations"][0]),
        converged=bool(out["converged"][0]),
        residuals=out["residuals"][:, 0],
        j_g_trace=government_cost(sigma_trace, instance.government),
        sigma_trace=sigma_trace,
    )


def nash_residual(instance: GameInstance, x: np.ndarray, gamma: float | None = None,
                  perturbation=None, prices: np.ndarray | None = None) -> float:
    """Fixed-point residual; zero exactly at a Nash equilibrium.

    The first-round residual of a one-round solve started at x.
    """
    f1, f2 = game_map(instance, perturbation, prices)
    out = solve_nash_batch(instance, f2[None, :], f1=f1, gammas=gamma, x0=x,
                           max_iter=1)
    return float(out["residual"][0])


def aggregates(instance: GameInstance, x: np.ndarray) -> np.ndarray:
    """sigma = sum_i N_i x^i for every stacked row of x (rows, mc*m)."""
    mc, m = instance.n_companies, instance.n_stations
    return x.reshape(-1, mc, m).transpose(0, 2, 1) @ instance.fleet_sizes


def solve_nash_batch(instance: GameInstance, f2_rows: np.ndarray,
                     f1: np.ndarray | None = None,
                     f1_rows: np.ndarray | None = None,
                     gammas: float | np.ndarray | None = None,
                     x0: np.ndarray | None = None,
                     max_iter: int = 1000, tol: float = 1e-8,
                     record_iterates: bool = False) -> dict:
    """The equilibrium engine: averaged projected-gradient rounds over
    many variants of the game that share polytopes and fleet sizes.

    Either a shared blocked ``f1`` (m, mc, mc) or per-row ``f1_rows``
    (rows, m, mc, mc) must be given; ``f2_rows`` is (rows, n). Row r steps
    with ``gammas[r]`` (a scalar is shared), which must lie in
    (0, step_bound) of its map and defaults to 0.9 times that bound; ``x0``
    is one start for every row or one per row, ``default_start`` if
    omitted. Rows stop moving once their residual drops to ``tol``; after
    the full-width F1 product, a round works on the live rows only, and
    projects all their companies in one `qp.BlockProjector` call.
    ``record_iterates`` keeps every round's iterate (start included) and
    residual (0 for stopped rows).

    The rounds run in one workspace allocated per call: x; the step,
    which trades places with x on rounds where every row is live; and
    two buffers that hold in turn the full-width F1 x and its product,
    the gathers of the live rows, the projection's scratch and the move.
    Rows run in row prefixes of it. The returned ``x`` is one whole
    array that shares no memory with the other returned arrays.

    Returns ``x``, ``iterations``, ``converged``, the final ``residual``,
    ``sigma_final``, the ``gammas`` used and, when recorded, ``iterates``
    (rounds+1, rows, n) and ``residuals`` (rounds, rows).
    """
    if (f1 is None) == (f1_rows is None):
        raise ValueError("pass exactly one of f1 or f1_rows")
    f1 = f1 if f1 is not None else f1_rows
    rows = f2_rows.shape[0]
    bound = np.broadcast_to(step_bound(f1), (rows,))
    if gammas is None:
        gammas = 0.9 * bound
    gammas = np.broadcast_to(np.asarray(gammas, dtype=float), (rows,))
    bad = ~((gammas > 0.0) & (gammas < bound))
    if bad.any():
        r = int(np.argmax(bad))
        raise ValueError(f"step size of row {r} must lie in (0, {bound[r]:.3e})")
    if x0 is None:
        x0 = default_start(instance)

    # the workspace (see above); np.take reads f2_rows in place when it is
    # C-contiguous, and writes into out= unbuffered with mode="clip"
    f2_rows = np.ascontiguousarray(f2_rows, dtype=float)
    x = np.broadcast_to(np.asarray(x0, dtype=float), f2_rows.shape).copy()
    step = np.empty_like(x)
    work = np.empty((2,) + x.shape)
    project = BlockProjector(instance.polytopes)
    live = np.arange(rows)
    iterations = np.zeros(rows, dtype=int)
    residual = np.full(rows, np.inf)
    iter_hist: list[np.ndarray] = [x.copy()] if record_iterates else []
    residual_hist: list[np.ndarray] = []

    for k in range(max_iter):
        # F1 x at full width: matmul may round a row differently by row count;
        # everything after it runs on the live rows only, in row prefixes
        # of the workspace
        n_live = live.size
        every = n_live == rows
        s, gathered, move = step[:n_live], work[1][:n_live], work[0][:n_live]
        if every:
            apply_map(f1, x, out=s, scratch=work[1])
            s += f2_rows
            s *= gammas[:, None]
            x_live = x
        else:
            apply_map(f1, x, out=work[0], scratch=work[1])
            np.take(work[0], live, axis=0, out=s, mode="clip")
            np.take(f2_rows, live, axis=0, out=gathered, mode="clip")
            s += gathered
            s *= gammas[live][:, None]
            x_live = np.take(x, live, axis=0, out=gathered, mode="clip")
        np.subtract(x_live, s, out=s)       # x - gamma F(x)
        project(s, out=s, scratch=work)
        if not every:                       # gathered again: the projection used it
            np.take(x, live, axis=0, out=x_live, mode="clip")
        np.subtract(s, x_live, out=move)
        s += x_live
        s *= 0.5                            # x <- (x + proj) / 2
        if every:
            x, step = step, x
        else:
            x[live] = s
        move *= move                        # np.linalg.norm(move, axis=1), term for term
        res = np.add.reduce(move, axis=1, out=work[1].reshape(-1)[:n_live])
        np.sqrt(res, out=res)
        iterations[live] = k + 1
        residual[live] = res
        if record_iterates:     # stopped rows stay put: their residual is 0
            iter_hist.append(x.copy())
            residual_hist.append(np.zeros(rows))
            residual_hist[-1][live] = res
        live = live[res > tol]
        del s, gathered, move, x_live, res  # views: the workspace goes with the loop
        if not live.size:
            break
    del step, work

    out = {
        "x": x,
        "iterations": iterations,
        "converged": residual <= tol,
        "residual": residual,
        "sigma_final": aggregates(instance, x),
        "gammas": gammas,
    }
    if record_iterates:
        out["iterates"] = np.array(iter_hist)
        out["residuals"] = np.array(residual_hist).reshape(-1, rows)
    return out
