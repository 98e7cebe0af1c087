"""Exact weighted projection onto admissible allocation polytopes.

Everything in this module solves instances of

    min_x  1/2 (x - y)^T W (x - y)    s.t.   x in P,
    P = {x >= 0 : sum(x) = 1,  N x(S) <= caps[S] for every station subset S},

with W a positive diagonal weight matrix and caps integer vehicle counts
out of a fleet of N. Euclidean projection is the W = I special case;
per-company best responses of the pricing game reduce to the weighted case
because their Hessians are diagonal.

P is built once from its caps: its rank f(S) = max{N x(S) : x in P} is
computed and certified in int64 counts (``_rank_vector``), which makes P
the base polytope of f (Fujishige, *Submodular Functions and Optimization*,
2nd ed. 2005, sections 2-3). `PolytopeProjector` is the one object per
polytope: it keeps the caps and N, decides emptiness and membership, and
exposes the H-representation the caps stand for. Its `project_batch` is
the one projection entry point; a single projection, weighted or not, is
a batch of one row. The projection has two exact paths, read off f once
per polytope:

* Lower-bounded simplex. When f(S) = N - l(V \\ S) for every nonempty S,
  with l_k = N - f(V \\ k), P is {sum(x) = 1, x >= l / N} and the
  projection is a sort of the breakpoints w (y - l) per row (Duchi et
  al., ICML 2008; Condat, Math. Prog. 2016). Full-reach fleets give such
  polytopes.
* Every other polytope is projected along a chain of tight sets: with
  g = f / N - y and W(S) = sum of 1/w_j over S, the chain walks the lower
  convex hull of the points (W(S), g(S)) from the empty set to all
  stations, and each block B it adds gets x_B = y_B + slope / w_B
  (Fujishige 2005, section 8.2; Bach, *Learning with Submodular
  Functions*, FnT ML 2013, section 9). At most m rounds, each over all
  2^m subsets.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyPolytopeError


def _split_min(v: np.ndarray) -> None:
    """Lower v(S) in place to v(A) + v(S \\ A) over splits into nonempty A, S \\ A.

    Each unordered split is visited once; a pass need not reach the
    partition minimum, the caller repeats it until nothing changes.
    """
    masks = np.arange(v.size)
    for a in range(1, v.size // 2):         # a larger a has no disjoint b above it
        b = masks[(masks & a == 0) & (masks > a)]
        v[a | b] = np.minimum(v[a | b], v[a] + v[b])


def _rank_vector(caps: np.ndarray, total: int, members: np.ndarray) -> np.ndarray | None:
    """f(S) = max{y(S) : y in P} in counts, for every subset S (row of ``members``).

    P = {y >= 0 : y(V) = total, y(S) <= caps[S]}. Starting from the caps,
    f is lowered to the least fixpoint of three bounds every y in P obeys:
    y(S) <= y(T) for T containing S, y(S) <= f(A) + f(S \\ A), and
    y(S) = total - y(V \\ S) where y(U) is at least the block-wise sum of
    the lower bounds total - f(V \\ B). Returns None when a lower bound
    passes an upper one, so P is empty. Refuses f unless it passes the
    exchange test f(S+i) + f(S+j) >= f(S+i+j) + f(S) and every subset's
    greedy vertex lies in P.
    """
    n = members.shape[1]
    masks = np.arange(caps.size)
    f = caps.copy()
    f[0] = min(f[0], 0)
    f[-1] = min(f[-1], total)
    while True:
        before = f.copy()
        for j in range(n):
            f = np.minimum(f, f[masks | 1 << j])
        _split_min(f)
        # u(U) = -(lower bound of y(U)); V \ U is the reversed index
        u = f[::-1] - total
        _split_min(u)
        if np.any(f + u < 0):
            return None
        f = np.minimum(f, total + u[::-1])
        if np.array_equal(f, before):
            break
    for i in range(n):
        for j in range(i + 1, n):
            s = masks[(masks >> i & 1 == 0) & (masks >> j & 1 == 0)]
            si, sj = s | 1 << i, s | 1 << j
            if np.any(f[si] + f[sj] < f[si | 1 << j] + f[s]):
                raise ValueError("the polytope is not a submodular base polytope: "
                                 f"its rank vector fails the exchange test at stations {i}, {j}")
    # row S: the greedy vertex of f over S's stations, then the others
    order = np.argsort(~members, axis=1, kind="stable")
    prefix = np.bitwise_or.accumulate(1 << order, axis=1)
    vertex = np.zeros_like(order)
    np.put_along_axis(vertex, order, np.diff(f[prefix], axis=1, prepend=0), axis=1)
    outside = np.any(vertex < 0)
    for start in range(0, caps.size, n):     # (2^n, n) subset sums at a time
        cut = slice(start, start + n)
        outside |= np.any(vertex @ members[cut].T > caps[cut])
    if outside:
        raise ValueError("a greedy vertex of the closed caps leaves the polytope")
    return f


class PolytopeProjector:
    """The polytope ``{x >= 0 : sum(x) = 1, total * x(S) <= caps[S]}`` and its projector.

    ``caps`` holds one int64 count per station subset, indexed by bitmask
    (bit j of the index is station j), and ``total`` is the count the unit
    sum stands for. ``rank`` holds f / total over all 2^n subsets, or is
    None when the polytope is empty; ``lower`` is set when the polytope is
    a lower-bounded simplex.
    """

    def __init__(self, caps: np.ndarray, total: int):
        caps = np.asarray(caps)
        self.n = max(caps.size.bit_length(), 2) - 1
        if caps.dtype.kind not in "iu" or caps.shape != (1 << self.n,) or total < 1:
            raise ValueError("caps must hold one integer count per station subset, "
                             "out of a positive total")
        self.caps = caps.astype(np.int64)
        self.total = int(total)
        masks = np.arange(caps.size)
        self.members = (masks[:, None] >> np.arange(self.n) & 1).astype(bool)
        f = _rank_vector(self.caps, self.total, self.members)
        self.rank = self.lower = None
        if f is not None:
            self.rank = f / total
            rest = f[masks[-1] ^ 1 << np.arange(self.n)]      # f(V \ k)
            if np.array_equal(f[1:], total - ~self.members[1:] @ (total - rest)):
                self.lower = 1.0 - rest / total

    @property
    def is_empty(self) -> bool:
        return self.rank is None

    @property
    def path(self) -> str:
        """The exact projection that runs: "simplex" (a sort) or "chain"."""
        return "simplex" if self.lower is not None else "chain"

    @property
    def g_mat(self) -> np.ndarray:
        """Rows of the H-representation: every proper subset, then -I (x >= 0)."""
        return np.vstack([self.members[1:-1], -np.eye(self.n)])

    @property
    def h(self) -> np.ndarray:
        """Right-hand sides of ``g_mat``: the proper-subset caps / total, then zeros."""
        return np.concatenate([self.caps[1:-1] / self.total, np.zeros(self.n)])

    @property
    def forced_zero(self) -> np.ndarray:
        """Stations pinned to zero by a proper subset of cap 0; defined when empty too."""
        return self.members[1:-1][self.caps[1:-1] <= 0].any(axis=0)

    def contains(self, x: np.ndarray, tol: float = 1e-9) -> bool:
        x = np.asarray(x, dtype=float)
        if self.is_empty or x.shape != (self.n,):
            return False
        if abs(x.sum() - 1.0) > tol:
            return False
        return bool(np.all(self.g_mat @ x <= self.h + tol))

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
            raise EmptyPolytopeError("cannot project onto an empty polytope")
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
        """Exact projection onto {sum(x) = 1, x >= lower}.

        x = l + max(0, z - tau / w) with z = y - l, where tau solves
        sum(max(0, z - tau / w)) = 1 - sum(l). With the breakpoints w z
        sorted in decreasing order, the first j of them active give
        tau_j = (cumsum(z)_j - slack) / cumsum(1 / w)_j; the active ones are
        the prefix whose breakpoints lie above their tau_j.
        """
        lower = self.lower
        slack = 1.0 - lower.sum()
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
