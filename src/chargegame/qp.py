"""Exact weighted projection onto allocation polytopes.

Everything in this module solves instances of

    min_x  1/2 (x - y)^T W (x - y)    s.t.   1^T x = s,   G x <= h,

with W a positive diagonal weight matrix and every row of G the indicator
of a station subset, or its negation. Euclidean projection onto an
allocation polytope is the W = I special case; per-company best responses
of the pricing game reduce to the weighted case because their Hessians are
diagonal.

`PolytopeProjector.project_batch` is the one entry point; a single
projection, weighted or not, is a batch of one row. It has two exact
paths, chosen once per polytope when the projector is built:

* Lower-bounded simplex. When the rows of G x <= h only restate
  x >= l (nonnegativity rows, caps on all stations but one, and rows the
  simplex {1^T x = s, x >= l} already implies), the projection is a sort
  of the breakpoints w (y - l) per row (Duchi et al., ICML 2008; Condat,
  Math. Prog. 2016). Full-reach fleets give such polytopes.
* Every other polytope is the base polytope of its rank vector
  f(S) = max{x(S) : x in P}, computed once by one LP per station subset
  and certified submodular. The projection then follows a chain of tight
  sets: with g = f - y and W(S) = sum of 1/w_j over S, the chain walks
  the lower convex hull of the points (W(S), g(S)) from the empty set to
  all stations, and each block B it adds gets x_B = y_B + slope / w_B
  (Fujishige, *Submodular Functions and Optimization*, 2nd ed. 2005,
  sections 3 and 8.2; Bach, *Learning with Submodular Functions*,
  FnT ML 2013, section 9). At most m rounds, each over all 2^m subsets.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog


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


def _rank_vector(g_mat: np.ndarray, h: np.ndarray, total: float,
                 members: np.ndarray) -> np.ndarray | None:
    """f(S) = max{x(S) : x in P} for every subset S (row of ``members``).

    Returns None when P is empty. Refuses a polytope that is not the base
    polytope of a submodular f: a row of G that is not a subset indicator
    (or its negation), an unbounded P, or a failed local submodularity test
    f(S+i) + f(S+j) >= f(S+i+j) + f(S).
    """
    if not np.all(np.isin(g_mat, (0.0, 1.0)).all(axis=1) | np.isin(g_mat, (0.0, -1.0)).all(axis=1)):
        raise ValueError("every row of G must be a station-subset indicator or its negation")
    n = g_mat.shape[1]
    rank = np.zeros(members.shape[0])
    for mask in range(1, members.shape[0]):
        res = linprog(-1.0 * members[mask], A_ub=g_mat, b_ub=h, A_eq=np.ones((1, n)),
                      b_eq=[total], bounds=[(None, None)] * n, method="highs")
        if res.status == 2:
            return None
        if res.status != 0:
            raise ValueError(f"rank LP failed on subset {mask}: {res.message}")
        rank[mask] = -res.fun
    masks = np.arange(members.shape[0])
    # HiGHS returns vertex values to within rounding, far below this slack
    slack = 1e-9 * max(1.0, abs(total))
    for i in range(n):
        for j in range(i + 1, n):
            s = masks[(masks >> i & 1 == 0) & (masks >> j & 1 == 0)]
            si, sj = s | 1 << i, s | 1 << j
            if np.any(rank[si] + rank[sj] < rank[si | 1 << j] + rank[s] - slack):
                raise ValueError("the polytope is not a submodular base polytope: "
                                 f"its rank vector fails the exchange test at stations {i}, {j}")
    return rank


class PolytopeProjector:
    """Projector onto ``{x : sum(x) = total, G x <= h}`` with batch support.

    ``lower`` is set when the polytope is a lower-bounded simplex; otherwise
    ``rank`` holds f over all 2^n subsets (bit j of the index is station
    j), or is None when the polytope is empty.
    """

    def __init__(self, g_mat: np.ndarray, h: np.ndarray, total: float = 1.0):
        self.g_mat = np.asarray(g_mat, dtype=float)
        self.h = np.asarray(h, dtype=float)
        self.total = float(total)
        self.n = self.g_mat.shape[1]
        self.lower = _simplex_lower_bound(self.g_mat, self.h, self.total)
        self.members = self.rank = None
        if self.lower is None:
            masks = np.arange(1 << self.n)
            self.members = (masks[:, None] >> np.arange(self.n) & 1).astype(bool)
            self.rank = _rank_vector(self.g_mat, self.h, self.total, self.members)

    @property
    def is_empty(self) -> bool:
        return self.lower is None and self.rank is None

    def project(self, y: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        return self.project_batch(y[None, :], weights)[0]

    def project_batch(self, y_rows: np.ndarray,
                      weights: np.ndarray | None = None) -> np.ndarray:
        """Project every row of ``y_rows``.

        ``weights`` (positive, one per variable, shared by all rows) turns
        the Euclidean distance into ``1/2 sum(w * (x - y)**2)``.
        """
        y_rows = np.asarray(y_rows, dtype=float)
        w = np.ones(self.n) if weights is None else np.asarray(weights, dtype=float)
        if np.any(w <= 0):
            raise ValueError("weights must be positive")
        if self.is_empty:
            raise ValueError("cannot project onto an empty polytope")
        if self.lower is not None:
            return self._project_simplex(y_rows, w)
        return self._project_chain(y_rows, w)

    def _project_chain(self, y_rows: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Exact projection onto the base polytope of ``rank``.

        Each round moves every row from its tight set S to the superset T
        of least slope (g(T) - g(S)) / (W(T) - W(S)), the largest W on
        ties, and gives the new block T \\ S the multiplier w_j (x_j - y_j)
        equal to that slope. Rows are independent; they share the rounds.
        """
        members = self.members
        g = self.rank[None, :] - y_rows @ members.T        # (rows, 2^n)
        width = members @ (1.0 / w)                         # W(S)
        masks = np.arange(members.shape[0])
        full = masks[-1]
        tight = np.zeros(y_rows.shape[0], dtype=int)
        slope = np.zeros_like(y_rows)
        live = np.arange(y_rows.shape[0])
        while live.size:
            s = tight[live]
            superset = ((masks[None, :] & s[:, None]) == s[:, None]) & (masks[None, :] != s[:, None])
            with np.errstate(divide="ignore", invalid="ignore"):
                rise = np.where(superset, (g[live] - g[live, s][:, None])
                                / (width[None, :] - width[s][:, None]), np.inf)
            least = rise.min(axis=1)
            nxt = np.argmax(np.where(rise == least[:, None], width[None, :], -np.inf), axis=1)
            block = members[nxt] & ~members[s]
            slope[live] = np.where(block, least[:, None], slope[live])
            tight[live] = nxt
            live = live[nxt != full]
        return y_rows + slope / w

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
