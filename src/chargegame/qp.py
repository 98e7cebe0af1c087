"""Small dense quadratic-programming kernels.

Everything in this module solves instances of

    min_x  1/2 (x - y)^T W (x - y)    s.t.   1^T x = s,   G x <= h,

with W a positive diagonal weight matrix. Euclidean projection onto an
allocation polytope is the W = I special case; per-company best responses
of the pricing game reduce to the weighted case because their Hessians are
diagonal.

`PolytopeProjector.project_batch` is the one entry point; a single
projection, weighted or not, is a batch of one row. It has two paths,
chosen once per polytope when the projector is built:

* Lower-bounded simplex. When the rows of G x <= h only restate
  x >= l (nonnegativity rows, caps on all stations but one, and rows the
  simplex {1^T x = s, x >= l} already implies), the projection is exact
  and closed form: a sort of the breakpoints w (y - l) per row (Duchi et
  al., ICML 2008; Condat, Math. Prog. 2016). Full-reach fleets give such
  polytopes.
* Everything else runs a textbook primal active-set loop. Problem sizes
  are tiny (a handful of variables, a few dozen constraints), so every
  working-set change costs one small dense solve of the normal equations

      B W^-1 B^T nu = B y - [s; h_W],      x = y - W^-1 B^T nu,

  where B stacks the equality row on top of the active inequality rows.
  Rows that share a working set share the solve, so thousands of rows
  (grid searches, robustness sweeps) amortize each factorization.
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


def _simplex_lower_bound(g_mat: np.ndarray, h: np.ndarray, total: float) -> np.ndarray | None:
    """The l with {1^T x = total, G x <= h} = {1^T x = total, x >= l}, or None.

    A row -e_k bounds x_k >= -h; a row summing every entry but x_k bounds
    x_k >= total - h through the equality. l_k is the largest such bound,
    so those rows are implied by construction. The two sets are equal
    exactly when every l_k is bounded, sum(l) <= total, and every other
    row holds at its maximum over the simplex,
    g.l + (total - sum(l)) max_j g_j <= h. No tolerance enters the test.
    """
    n = g_mat.shape[1]
    n_zero = np.count_nonzero(g_mat == 0, axis=1)
    neg_unit = (n_zero == n - 1) & (g_mat.min(axis=1) == -1)
    complement = (n_zero == 1) & (np.count_nonzero(g_mat == 1, axis=1) == n - 1)
    lower = np.full(n, -np.inf)
    np.maximum.at(lower, np.argmin(g_mat[neg_unit], axis=1), -h[neg_unit])
    np.maximum.at(lower, np.argmax(g_mat[complement] == 0, axis=1), total - h[complement])
    slack = total - lower.sum()
    if not slack >= 0:      # also refuses an unbounded l (slack is nan or inf)
        return None
    rest = ~(neg_unit | complement)
    g_rest = g_mat[rest]
    if g_rest.size and np.any(g_rest @ lower + slack * g_rest.max(axis=1) > h[rest]):
        return None
    return lower


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
        self.lower = _simplex_lower_bound(self.g_mat, self.h, self.total)

    def project(self, y: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        return self.project_batch(y[None, :], weights)[0]

    def project_batch(self, y_rows: np.ndarray,
                      weights: np.ndarray | None = None) -> np.ndarray:
        """Project every row of ``y_rows``.

        A lower-bounded simplex (``lower`` set) is projected in closed form;
        otherwise rows sharing an active-set working set share solves.

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
        if self.lower is not None:
            return self._project_simplex(y_rows, w)
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

    def _project_simplex(self, y_rows: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Exact projection onto {sum(x) = total, x >= lower}.

        x = l + max(0, z - tau / w) with z = y - l, where tau solves
        sum(max(0, z - tau / w)) = total - sum(l). With the breakpoints w z
        sorted in decreasing order, the first j of them active give
        tau_j = (cumsum(z)_j - slack) / cumsum(1 / w)_j; the active ones are
        the prefix whose breakpoints lie above their tau_j.
        """
        lower = self.lower
        slack = self.total - lower.sum()
        if slack == 0:      # the set is the single point l
            return np.broadcast_to(lower, y_rows.shape).copy()
        z = y_rows - lower
        order = np.argsort(-(z * w), axis=1)
        z_sorted = np.take_along_axis(z, order, axis=1)
        w_sorted = w[order]
        taus = (np.cumsum(z_sorted, axis=1) - slack) / np.cumsum(1.0 / w_sorted, axis=1)
        # at least one breakpoint is active when slack > 0, even if rounding hides it
        count = np.maximum(np.count_nonzero(w_sorted * z_sorted > taus, axis=1), 1)
        tau = taus[np.arange(y_rows.shape[0]), count - 1]
        return lower + np.maximum(z - tau[:, None] / w, 0.0)
