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
computes F1 x for every row, and then adds F2, steps, projects every
company block in one call of a `qp.BlockProjector` built once per solve,
and takes the residual and the average on the live rows only. Every row
gets the bits it would get alone among all rows.

The rounds keep x station-major, an (m, mc, rows) array with one
contiguous row vector per station and company: F1 x is then one BLAS
product per station straight into the step, and the projector's sorting
network runs on the step in place. x is converted from and to the
row-major (rows, mc*m) layout of the engine's inputs and outputs once
per call. The residual sums each row's squared move in the order
``np.add.reduce`` takes along a row-major row (`_pairwise_sum`), so it
keeps the bits of the row-major norm; below `PAIRWISE_ROWS` live rows it
reduces a row-major copy of the move instead, which costs fewer calls.

A call allocates one workspace: x, the step and one buffer of at least
twice the size of x, or more at 2-3 stations, where the projector's
sorting wires outgrow x. Every round writes into it (``out=`` of the
product and of ``np.take`` gathers of the live rows, the projector's
scratch). So after the first round no round allocates an array the size
of x: freed and re-faulted every round, such arrays cost a grid search
tens of thousands of page faults. What a round still allocates are
row-length vectors, the residual's copy of fewer than `PAIRWISE_ROWS`
rows and, for chain polytopes, the chain walk's arrays.

`solve_nash` is the engine's one-row case with the aggregate trace kept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import GameInstance, _policy_terms, government_cost, queuing_terms
from .qp import BlockProjector, carve

# Live rows from which the residual sums the squared move where it lies
# (`_pairwise_sum`, one ufunc call per term) instead of reducing a
# row-major copy of it. On the demo game (12 terms, 2-core VM) the two
# cost the same, ~8.5 us, at ~150 rows; the copy grows with the rows.
PAIRWISE_ROWS = 128


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
    * ``prices`` given: the fixed-price game, F1 the queuing Hessian of
      `model.queuing_terms` and F2 from `fixed_price_f2`;
    * ``perturbation`` given: feedback prices built from a perturbed
      demand inverse; adds the blocks of ``perturbation_map``.
    """
    if perturbation is not None and prices is not None:
        raise ValueError("perturbation applies to feedback prices only")
    if prices is not None:
        return queuing_terms(instance)[0], fixed_price_f2(instance, prices)

    n_vec = instance.fleet_sizes
    f1 = instance.government.weight[:, None, None] * np.outer(n_vec, n_vec)
    f2 = np.concatenate([n_i * instance.government.linear for n_i in n_vec])

    if perturbation is not None:
        phi_l1, phi_l2 = perturbation_map(instance, perturbation)
        f1 = f1 + phi_l1
        f2 = f2 + phi_l2
    return f1, f2


def fixed_price_f2(instance: GameInstance, price_rows,
                   demand_rows=None) -> np.ndarray:
    """F2 of the fixed-price game, stack_i((lin_i + revenue_i) + prices * demand_i),
    with lin the queuing term of `model.queuing_terms`.

    ``price_rows`` is one price vector (m,) or an array of them (..., m);
    ``demand_rows`` replaces the companies' demand diagonals, as one
    (mc, m) array or an array of them (..., mc, m). The leading axes of the
    two broadcast, and the result is stacked like x behind them. Prices
    must be nonnegative.
    """
    prices = np.asarray(price_rows, dtype=float)
    if np.any(prices < 0):
        raise ValueError("prices must be nonnegative")
    base = queuing_terms(instance)[2] + np.stack([c.revenue for c in instance.companies])
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
    mc = instance.n_companies
    a_bar, b_bar, delta = _policy_terms(instance)
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
    (rows, m, mc, mc) pair with x of shape (rows, mc*m). The shared-map
    product may round a row differently with the number of rows (a row
    alone can differ from the same row among three), so the engine
    always passes every row, stopped ones included. The engine's
    station-major product (`_station_product`) gives the same bits.
    """
    m, mc = f1.shape[-3], f1.shape[-1]
    x = np.asarray(x, dtype=float)
    blocks = x.reshape(*x.shape[:-1], mc, m)
    if f1.ndim == 3:    # one (mc, mc) @ (mc, rows) product per station
        prod = np.matmul(f1, blocks.reshape(-1, mc, m).transpose(2, 1, 0))
        return prod.transpose(2, 1, 0).reshape(x.shape)
    # one (mc, mc) @ (mc, 1) product per row and station
    prod = np.matmul(f1, blocks.swapaxes(-1, -2)[..., None])
    return prod[..., 0].swapaxes(-1, -2).reshape(x.shape)


def _station_product(f1: np.ndarray, x: np.ndarray, out: np.ndarray) -> None:
    """F1 x into ``out`` for station-major x and ``out`` (m, mc, rows),
    both C-contiguous: `apply_map`'s bits, without its transposed copies."""
    if f1.ndim == 3:
        np.matmul(f1, x, out=out)
    else:
        np.matmul(f1, x.transpose(2, 0, 1)[..., None], out=out.transpose(2, 0, 1)[..., None])


def _pairwise_sum(terms: list, out: np.ndarray) -> np.ndarray:
    """``np.add.reduce`` along each row of the columns ``terms``, to the bit.

    ``terms`` are equal-shaped arrays, column j of the rows in order, and
    are used up; the sums go into ``out``. numpy 2.4 reduces a
    contiguous row from the identity 0.0 with its pairwise sum: below 8
    terms left to right, up to 128 eight accumulators combined as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) and then the rest in order, and
    above that the two halves at a multiple of 8. The engine's residual
    keeps the bits of a row-major reduce this way; a test pins the order.
    """
    np.add(_pairwise_terms(terms), 0.0, out=out)
    return out


def _pairwise_terms(terms: list) -> np.ndarray:
    """numpy's pairwise sum of ``terms``, accumulated into one of them."""
    n = len(terms)
    if n > 128:
        half = n // 2 - n // 2 % 8
        acc = _pairwise_terms(terms[:half])
        acc += _pairwise_terms(terms[half:])
        return acc
    acc = terms[0]
    if n < 8:
        for term in terms[1:]:
            acc += term
        return acc
    r = terms[:8]
    for q in range(8, n - n % 8, 8):
        for j in range(8):
            r[j] += terms[q + j]
    r[0] += r[1]
    r[2] += r[3]
    r[0] += r[2]
    r[4] += r[5]
    r[6] += r[7]
    r[4] += r[6]
    r[0] += r[4]
    for term in terms[n - n % 8:]:
        acc += term
    return acc


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

    The rounds keep every array station-major, (m, mc, rows) and
    C-contiguous: the layout of the F1 product and of the projector's
    sorting wires, so x moves between layouts only on entry and exit. They
    run in one workspace allocated per call: x; the step, which trades
    places with x on rounds where every row is live; and one buffer that
    holds in turn the full-width F1 x, the gathers of the live rows, the
    projection's scratch and the move. Live rows run in prefixes of it.
    The returned arrays are row-major, and ``x`` is one whole array that
    shares no memory with the other returned arrays.

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
    mc, m = instance.n_companies, instance.n_stations
    f2_rows = np.ascontiguousarray(f2_rows, dtype=float)
    by_row = (rows, mc, m)      # splits a row-major row into its blocks
    f2_view = f2_rows.reshape(by_row).transpose(2, 1, 0)    # a copy would add one x
    x = np.empty((m, mc, rows))
    np.copyto(x, np.broadcast_to(np.asarray(x0, dtype=float),
                                 f2_rows.shape).reshape(by_row).transpose(2, 1, 0))
    step = np.empty_like(x)
    project = BlockProjector(instance.polytopes)
    work = np.empty(max(2 * x.size, project.scratch_size(rows)))
    prod = work[:x.size].reshape(x.shape)
    live = np.arange(rows)
    iterations = np.zeros(rows, dtype=int)
    residual = np.full(rows, np.inf)
    iter_hist: list[np.ndarray] = [x.copy()] if record_iterates else []
    residual_hist: list[np.ndarray] = []

    for k in range(max_iter):
        # F1 x at full width: matmul may round a row differently by row count;
        # everything after it runs on the live rows only, in prefixes of
        # the workspace
        n_live = live.size
        every = n_live == rows
        shape = (m, mc, n_live)
        s = carve(step, shape)[0]
        front, back = carve(work, shape)
        if every:
            _station_product(f1, x, out=s)
            s += f2_view
            s *= gammas
            x_live, move = x, front
        else:
            _station_product(f1, x, out=prod)
            np.take(prod, live, axis=2, out=s, mode="clip")
            # F2 of the live rows, gathered row-major and added transposed
            s += np.take(f2_rows.reshape(by_row), live, axis=0, mode="clip",
                         out=front.reshape(n_live, mc, m)).transpose(2, 1, 0)
            s *= gammas[live]
            x_live = np.take(x, live, axis=2, out=front, mode="clip")
            move = carve(back, shape)[0]
        np.subtract(x_live, s, out=s)       # x - gamma F(x)
        project(s, scratch=work)
        if not every:                       # gathered again: the projection used it
            np.take(x, live, axis=2, out=x_live, mode="clip")
        np.subtract(s, x_live, out=move)
        s += x_live
        s *= 0.5                            # x <- (x + proj) / 2
        if every:
            x, step = step, x
        else:
            x[:, :, live] = s
        # np.linalg.norm(move, axis=1) of the row-major move, term for term,
        # into the step, which is free again. On few rows one transposed
        # copy costs less than the pairwise sum's mc*m calls
        move *= move
        res = step.reshape(-1)[:n_live]
        if n_live < PAIRWISE_ROWS:
            np.add.reduce(move.transpose(2, 1, 0).reshape(n_live, mc * m), axis=1, out=res)
        else:
            _pairwise_sum([move[j, i] for i in range(mc) for j in range(m)], out=res)
        np.sqrt(res, out=res)
        iterations[live] = k + 1
        residual[live] = res
        if record_iterates:     # stopped rows stay put: their residual is 0
            iter_hist.append(x.copy())
            residual_hist.append(np.zeros(rows))
            residual_hist[-1][live] = res
        live = live[res > tol]
        del s, front, back, move, x_live, res   # views: the workspace goes with the loop
        if not live.size:
            break
    del step, work, prod

    x_rows = np.empty(f2_rows.shape)
    np.copyto(x_rows.reshape(by_row), x.transpose(2, 1, 0))
    out = {
        "x": x_rows,
        "iterations": iterations,
        "converged": residual <= tol,
        "residual": residual,
        "sigma_final": aggregates(instance, x_rows),
        "gammas": gammas,
    }
    if record_iterates:
        rounds = len(residual_hist)
        out["iterates"] = np.stack(iter_hist).transpose(0, 3, 2, 1).reshape(
            rounds + 1, rows, mc * m)
        out["residuals"] = np.array(residual_hist).reshape(rounds, rows)
    return out
