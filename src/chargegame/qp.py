"""Small dense quadratic-programming kernels.

Everything in this module solves instances of

    min_x  1/2 (x - y)^T W (x - y)    s.t.   1^T x = s,   G x <= h,

with W a positive diagonal weight matrix. Euclidean projection onto an
allocation polytope is the W = I special case; per-company best responses
of the pricing game reduce to the weighted case because their Hessians are
diagonal.

The method is a textbook primal active-set loop. Problem sizes are tiny
(a handful of variables, a few dozen constraints), so every working-set
change costs one small dense solve of the normal equations

    B W^-1 B^T nu = B y - [s; h_W],      x = y - W^-1 B^T nu,

where B stacks the equality row on top of the active inequality rows.

`PolytopeProjector.project_batch` is the one implementation: it runs many
projections at once by grouping rows that share the same working set, so
thousands of rows (grid searches, robustness sweeps) amortize each
factorization. A single projection, weighted or not, is a batch of one row.
"""

from __future__ import annotations

import numpy as np

_CONV_TOL = 1e-11      # step considered zero below this
_MULT_TOL = 1e-10      # multiplier considered nonnegative above -this
_BLOCK_TOL = 1e-13     # direction considered to approach a constraint


def _solve_kkt(b_mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (B B^T) nu = rhs for one or many right-hand sides.

    Weighted projections pass B W^-1/2, so that B B^T is the weighted
    normal matrix B W^-1 B^T.

    Falls back to least squares when the active rows are linearly
    dependent (e.g. a subset constraint together with its complement and
    the simplex equality).
    """
    k_mat = b_mat @ b_mat.T
    try:
        return np.linalg.solve(k_mat, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(k_mat, rhs, rcond=None)[0]


class PolytopeProjector:
    """Projector onto ``{x : sum(x) = total, G x <= h}`` with batch support."""

    def __init__(self, g_mat: np.ndarray, h: np.ndarray, feasible_point: np.ndarray,
                 total: float = 1.0):
        self.g_mat = np.asarray(g_mat, dtype=float)
        self.h = np.asarray(h, dtype=float)
        self.feasible_point = np.asarray(feasible_point, dtype=float)
        self.total = float(total)
        self.n = self.g_mat.shape[1]
        self._ones = np.ones(self.n)

    def project(self, y: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        return self.project_batch(y[None, :], weights)[0]

    def project_batch(self, y_rows: np.ndarray,
                      weights: np.ndarray | None = None) -> np.ndarray:
        """Project every row of ``y_rows``; rows sharing a working set share solves.

        ``weights`` (positive, one per variable, shared by all rows) turns
        the Euclidean distance into ``1/2 sum(w * (x - y)**2)``.
        """
        y_rows = np.asarray(y_rows, dtype=float)
        n_rows, n = y_rows.shape
        g_mat, h = self.g_mat, self.h
        n_ineq = g_mat.shape[0]
        w = self._ones if weights is None else np.asarray(weights, dtype=float)
        if np.any(w <= 0):
            raise ValueError("weights must be positive")
        w_inv_sqrt = np.sqrt(1.0 / w)

        x = np.broadcast_to(self.feasible_point, (n_rows, n)).copy()
        active = np.abs(x @ g_mat.T - h[None, :]) <= 1e-10
        done = np.zeros(n_rows, dtype=bool)
        out = np.empty_like(y_rows)

        max_sweeps = 50 * (n + n_ineq + 1)
        for _ in range(max_sweeps):
            todo = np.flatnonzero(~done)
            if todo.size == 0:
                return out
            # group rows by identical working sets
            keys = np.packbits(active[todo], axis=1)
            order = np.lexsort(keys.T[::-1])
            todo = todo[order]
            keys = keys[order]
            boundaries = np.flatnonzero(np.any(np.diff(keys, axis=0) != 0, axis=1)) + 1
            groups = np.split(todo, boundaries)

            for rows in groups:
                idx = np.flatnonzero(active[rows[0]])
                b_mat = np.vstack([self._ones[None, :], g_mat[idx]])
                rhs = y_rows[rows] @ b_mat.T - np.concatenate(([self.total], h[idx]))[None, :]
                nu = _solve_kkt(b_mat * w_inv_sqrt, rhs.T).T
                x_hat = y_rows[rows] - nu @ (b_mat / w)
                p = x_hat - x[rows]
                small = np.abs(p).max(axis=1) <= _CONV_TOL

                # converged candidates: accept or drop the worst multiplier
                conv_rows = rows[small]
                if conv_rows.size:
                    mu = nu[small][:, 1:]
                    if mu.shape[1] == 0:
                        out[conv_rows] = x_hat[small]
                        done[conv_rows] = True
                    else:
                        worst = np.argmin(mu, axis=1)
                        ok = mu[np.arange(mu.shape[0]), worst] >= -_MULT_TOL
                        acc = conv_rows[ok]
                        out[acc] = x_hat[small][ok]
                        done[acc] = True
                        rej = conv_rows[~ok]
                        active[rej, idx[worst[~ok]]] = False

                # stepping rows: move until a blocking constraint activates
                step_rows = rows[~small]
                if step_rows.size:
                    p_s = p[~small]
                    inact = ~active[step_rows[0]]
                    cols = np.flatnonzero(inact)
                    alpha = np.ones(step_rows.size)
                    block = np.full(step_rows.size, -1, dtype=int)
                    if cols.size:
                        g_p = p_s @ g_mat[cols].T
                        slack = np.maximum(h[cols][None, :] - x[step_rows] @ g_mat[cols].T, 0.0)
                        with np.errstate(divide="ignore", invalid="ignore"):
                            ratios = np.where(g_p > _BLOCK_TOL, slack / g_p, np.inf)
                        j = np.argmin(ratios, axis=1)
                        best = ratios[np.arange(step_rows.size), j]
                        hit = best < alpha
                        alpha[hit] = best[hit]
                        block[hit] = cols[j[hit]]
                    x[step_rows] = x[step_rows] + alpha[:, None] * p_s
                    add = block >= 0
                    active[step_rows[add], block[add]] = True

        raise RuntimeError("batched active-set projection did not converge")
