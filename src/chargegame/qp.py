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
exposes the H-representation the caps stand for. Its `project_batch`
projects rows onto that one polytope, weighted or not; a single
projection is a batch of one row. A `BlockProjector` projects stacked
company blocks, block i onto polytope i, in one call: the equilibrium
engine's projection step. It reads its per-polytope constants once and
works in the engine's station-major layout, an (n, k, rows) array with
one contiguous row vector per station and block: it projects that array
in place, and takes its sorting scratch from a buffer it is given
(`carve` cuts it), so the engine's rounds reuse one workspace.
`project_blocks` is the row-major (rows, k * n) form, one call of a
fresh one on a station-major copy. The projection has two exact paths,
read off f once per polytope:

* Lower-bounded simplex. When f(S) = N - l(V \\ S) for every nonempty S,
  with l_k = N - f(V \\ k), P is {sum(x) = 1, x >= l / N} and the
  projection is a sort of the breakpoints w (y - l) per row (Duchi et
  al., ICML 2008; Condat, Math. Prog. 2016). Full-reach fleets give such
  polytopes. With unit weights the sort is a fixed compare-exchange
  network (Batcher's odd-even merge sort; Knuth, TAOCP vol. 3, section
  5.3.4) run on whole columns, one per station, for every simplex block
  of a call at once; it gives the sort's bits. Weighted projections sort
  per row.
* Every other polytope is projected along a chain of tight sets: with
  g = f / N - y and W(S) = sum of 1/w_j over S, the chain walks the lower
  convex hull of the points (W(S), g(S)) from the empty set to all
  stations, and each block B it adds gets x_B = y_B + slope / w_B
  (Fujishige 2005, section 8.2; Bach, *Learning with Submodular
  Functions*, FnT ML 2013, section 9). At most m rounds, each over all
  2^m subsets. `_chain_walk` is the one loop: it takes a rank vector per
  row, so the blocks of every chain polytope in a `BlockProjector` call
  share its rounds. Its unit-weight tables are built once per station
  count; weighted projections build theirs per call.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import EmptyPolytopeError


# Subset tables hold 2^m entries and the chain walk's 4^m: at 12 stations
# the float walk table alone is 134 MB, and it grows 4x per station.
MAX_STATIONS_FOR_SUBSETS = 12


@functools.cache
def _members(n: int) -> np.ndarray:
    """(2^n, n) bool: row S marks the stations of bitmask S (bit j is station j).

    One read-only table per station count, shared by every polytope. Every
    subset table starts here, so more stations than the ceiling are
    refused before any of them is allocated.
    """
    if n > MAX_STATIONS_FOR_SUBSETS:
        raise ValueError(f"subset enumeration supports at most "
                         f"{MAX_STATIONS_FOR_SUBSETS} stations, got {n}")
    members = (np.arange(1 << n)[:, None] >> np.arange(n) & 1).astype(bool)
    members.flags.writeable = False
    return members


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
    a lower-bounded simplex, and ``single_point`` when that simplex is the
    one point ``lower``.
    """

    def __init__(self, caps: np.ndarray, total: int):
        caps = np.asarray(caps)
        self.n = max(caps.size.bit_length(), 2) - 1
        if caps.dtype.kind not in "iu" or caps.shape != (1 << self.n,) or total < 1:
            raise ValueError("caps must hold one integer count per station subset, "
                             "out of a positive total")
        self.members = _members(self.n)
        self.caps = caps.astype(np.int64)
        self.total = int(total)
        masks = np.arange(caps.size)
        f = _rank_vector(self.caps, self.total, self.members)
        self.rank = self.lower = None
        self.single_point = False
        if f is not None:
            self.rank = f / total
            rest = f[masks[-1] ^ 1 << np.arange(self.n)]      # f(V \ k)
            if np.array_equal(f[1:], total - ~self.members[1:] @ (total - rest)):
                self.lower = 1.0 - rest / total
                # decided in counts: the float sum of lower can miss 1 by an ulp
                self.single_point = bool((total - rest).sum() == total)

    @property
    def is_empty(self) -> bool:
        return self.rank is None

    @property
    def path(self) -> str:
        """The exact projection that runs: "simplex" (a sort, or a sorting
        network for unit weights) or "chain"."""
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

    def project(self, y: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        return self.project_batch(y[None, :], weights)[0]

    def project_batch(self, y_rows: np.ndarray,
                      weights: np.ndarray | None = None) -> np.ndarray:
        """Project every row of ``y_rows``.

        ``weights`` (positive, one per variable, shared by all rows) turns
        the Euclidean distance into ``1/2 sum(w * (x - y)**2)``.
        """
        if weights is None:
            return project_blocks((self,), y_rows)
        y_rows = np.asarray(y_rows, dtype=float)
        w = np.asarray(weights, dtype=float)
        if np.any(w <= 0):
            raise ValueError("weights must be positive")
        self._require_nonempty()
        if self.lower is not None:
            return self._project_simplex(y_rows, w)
        return _chain_walk(self.rank[None], y_rows, w, _walk_tables(self.members, w))

    def _require_nonempty(self) -> None:
        if self.is_empty:
            raise EmptyPolytopeError("cannot project onto an empty polytope")

    def _project_simplex(self, y_rows: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Exact weighted projection onto {sum(x) = 1, x >= lower}.

        x = l + max(0, z - tau / w) with z = y - l, where tau solves
        sum(max(0, z - tau / w)) = 1 - sum(l). With the breakpoints w z
        sorted in decreasing order, the first j of them active give
        tau_j = (cumsum(z)_j - slack) / cumsum(1 / w)_j; the active ones are
        the prefix whose breakpoints lie above their tau_j.
        """
        lower = self.lower
        if self.single_point:
            return np.broadcast_to(lower, y_rows.shape).copy()
        slack = 1.0 - lower.sum()
        z = y_rows - lower
        order = np.argsort(-(z * w), axis=1)
        z_sorted = np.take_along_axis(z, order, axis=1)
        w_sorted = w[order]
        taus = (np.cumsum(z_sorted, axis=1) - slack) / np.cumsum(1.0 / w_sorted, axis=1)
        # at least one breakpoint is active when slack > 0, even if rounding hides it
        count = np.maximum(np.count_nonzero(w_sorted * z_sorted > taus, axis=1), 1)
        tau = taus[np.arange(y_rows.shape[0]), count - 1]
        return lower + np.maximum(z - tau[:, None] / w, 0.0)


class BlockProjector:
    """Euclidean projection of stacked company blocks, block i onto
    ``polytopes[i]``, with every per-polytope constant built once.

    The polytopes must be nonempty and share their n stations. A call
    takes a station-major (n, k, rows) array: ``y[j, i, r]`` is station j
    of block i in row r. The blocks of all lower-bounded simplices share
    one sorting network (`_simplex_tau`), and the blocks of all chain
    polytopes one `_chain_walk`. Every row gets the same bits as the
    sort-based projection with unit weights, whatever the other rows and
    blocks of the call. The equilibrium engine builds one per solve and
    calls it every round.
    """

    def __init__(self, polytopes: tuple[PolytopeProjector, ...]):
        self.n = n = polytopes[0].n
        self.k = len(polytopes)
        simplex, self.chain, self.fixed = [], [], []
        for i, poly in enumerate(polytopes):
            poly._require_nonempty()
            if poly.lower is None:
                self.chain.append(i)
            elif poly.single_point:
                self.fixed.append((i, poly.lower[:, None]))
            else:
                simplex.append(i)
        self.chain_ranks = np.array([polytopes[i].rank for i in self.chain])
        self.n_simplex = len(simplex)
        lowers = [polytopes[i].lower for i in simplex]
        # station-major (n, blocks, 1) and (blocks, 1), like the wires
        self.lower = np.array(lowers).reshape(-1, n).T[:, :, None]
        self.slack = np.array([1.0 - lower.sum() for lower in lowers])[:, None]
        # runs [wire block, block, length] of adjacent simplex blocks, each
        # read and written as one slice
        self.runs = []
        for b, i in enumerate(simplex):
            if b and simplex[b - 1] == i - 1:
                self.runs[-1][2] += 1
            else:
                self.runs.append([b, i, 1])

    def scratch_size(self, rows: int) -> int:
        """Cells of scratch a call on ``rows`` rows uses: the simplex
        blocks' z (n per row and block) and the four sorting wires."""
        return (self.n + 4) * self.n_simplex * rows

    def __call__(self, y: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
        """Project the station-major (n, k, rows) float array ``y`` in place
        and return it.

        ``scratch``, a C-contiguous float array that shares no memory with
        ``y``, holds the simplex blocks' z = y - l and then the sorting
        wires (`scratch_size` cells); what does not fit in it is
        allocated. Its contents are never read.
        """
        n, rows = self.n, y.shape[-1]
        for i, lower in self.fixed:
            y[:, i] = lower
        if self.chain:
            # polytope-major stack of row-major blocks: block i of every
            # row, then the next polytope's
            stacked = np.concatenate([y[:, i].T for i in self.chain])
            walked = _chain_walk(self.chain_ranks, stacked, np.ones(n), _unit_walk_tables(n))
            for c, i in enumerate(self.chain):
                y[:, i] = walked[c * rows:(c + 1) * rows].T
        if self.n_simplex:
            # one contiguous wire per station
            z, scratch = carve(scratch, (n, self.n_simplex, rows))
            for b, i, c in self.runs:
                np.subtract(y[:, i:i + c], self.lower[:, b:b + c], out=z[:, b:b + c])
            tau = _simplex_tau(z, self.slack, scratch)
            for b, i, c in self.runs:     # x = l + max(0, (y - l) - tau)
                block, lower = y[:, i:i + c], self.lower[:, b:b + c]
                block -= lower
                block -= tau[b:b + c]
                np.maximum(block, 0.0, out=block)
                block += lower
        return y


def project_blocks(polytopes: tuple[PolytopeProjector, ...],
                   y_rows: np.ndarray) -> np.ndarray:
    """Euclidean projection of every row's company blocks, block i onto
    ``polytopes[i]``: a `BlockProjector` of the polytopes, called once on a
    station-major copy.

    ``y_rows`` is (rows, k * n) for k polytopes on n stations each; block i
    of a row is its columns i * n to (i + 1) * n. Returns a new array
    shaped like ``y_rows``.
    """
    y_rows = np.asarray(y_rows, dtype=float)
    project = BlockProjector(polytopes)
    shape = (y_rows.shape[0], project.k, project.n)
    y = project(y_rows.reshape(shape).transpose(2, 1, 0).copy())
    out = np.empty(y_rows.shape)
    np.copyto(out.reshape(shape), y.transpose(2, 1, 0))
    return out


def carve(scratch: np.ndarray | None, shape: tuple) -> tuple:
    """An array of ``shape`` on the front of the C-contiguous float buffer
    ``scratch`` and the 1-D rest of it, or a fresh array and ``scratch``
    itself when it is missing or too small."""
    size = math.prod(shape)
    if scratch is None or scratch.size < size:
        return np.empty(shape), scratch
    flat = scratch.reshape(-1)
    return flat[:size].reshape(shape), flat[size:]


@functools.cache
def _sorting_network(n: int) -> tuple[tuple[int, int], ...]:
    """Comparators (i, j), i < j, of Batcher's odd-even merge sort on n wires.

    The network of the next power of two with every comparator that
    touches a wire >= n dropped: padding wires that hold the smallest
    values never move (Knuth, TAOCP vol. 3, section 5.3.4).
    """
    pairs = []
    p = 1
    while p < n:
        k = p
        while k:
            for j in range(k % p, n - k, 2 * k):
                for i in range(j, j + min(k, n - j - k)):
                    if i // (2 * p) == (i + k) // (2 * p):
                        pairs.append((i, i + k))
            k //= 2
        p *= 2
    return tuple(pairs)


def _simplex_tau(z: np.ndarray, slack: np.ndarray,
                 scratch: np.ndarray | None = None) -> np.ndarray:
    """The threshold tau of x = l + max(0, z - tau) on {sum(x) = 1, x >= l}.

    ``z`` = y - l is (n, blocks, rows), C-contiguous, station j of block b
    in row r at ``z[j, b, r]``, and is used up as scratch; ``slack`` =
    1 - sum(l) is (blocks, 1). Four (blocks, rows) arrays ``low``,
    ``run``, ``tau`` and ``count`` are carved from ``scratch`` when it
    holds them, and allocated otherwise; tau is returned in ``run``.
    This is ``PolytopeProjector._project_simplex`` with unit weights, to
    the bit: the breakpoints are sorted in decreasing order by a
    compare-exchange network on whole wires, and with w = 1 the running
    sums, the divisors j + 1 and tau / w are those of the sort.
    """
    low, run, tau, count = carve(scratch, (4,) + z.shape[1:])[0]
    count = count.view(np.int64)
    # the array of each wire: a compare-exchange and a stored tau hand an
    # array over instead of copying it
    wires = list(z)
    for i, j in _sorting_network(len(wires)):
        np.minimum(wires[i], wires[j], out=low)
        np.maximum(wires[i], wires[j], out=wires[i])
        wires[j], low = low, wires[j]
    count.fill(0)
    np.copyto(run, wires[0])
    for j, wire in enumerate(wires):
        if j:
            run += wire
        np.subtract(run, slack, out=tau)
        tau /= j + 1
        count += wire > tau
        wires[j], tau = tau, wire   # the sorted breakpoint is not read again
    # tau = taus[count - 1], into run: every other array may be a row of z.
    # At least one breakpoint is active when slack > 0, even if rounding hides it
    np.copyto(run, wires[0])
    for j in range(1, len(wires)):
        np.copyto(run, wires[j], where=count > j)
    return run


def _subset_sums(y_rows: np.ndarray) -> np.ndarray:
    """y(S) for every station subset S (column = bitmask), summed in station order.

    A row's sums do not depend on which other rows share the call, which a
    BLAS product with a 0/1 matrix does not promise for every row count.
    """
    rows, n = y_rows.shape
    sums = np.zeros((rows, 1 << n))
    for j in range(n):
        np.add(sums[:, :1 << j], y_rows[:, j:j + 1], out=sums[:, 1 << j:2 << j])
    return sums


def _walk_tables(members: np.ndarray, w: np.ndarray) -> tuple:
    """`_chain_walk`'s tables for weights w: ``members``, W(S) per subset, and
    for row S the strict supersets T and W(T) - W(S) there (1 elsewhere)."""
    masks = np.arange(members.shape[0])
    width = members @ (1.0 / w)
    superset = ((masks[None, :] & masks[:, None]) == masks[:, None]) & (masks[None, :] != masks[:, None])
    return members, width, superset, np.where(superset, width[None, :] - width[:, None], 1.0)


@functools.cache
def _unit_walk_tables(n: int) -> tuple:
    """`_walk_tables` for unit weights on n stations, shared read-only."""
    tables = _walk_tables(_members(n), np.ones(n))
    for table in tables:
        table.flags.writeable = False
    return tables


def _chain_walk(ranks: np.ndarray, y_rows: np.ndarray, w: np.ndarray,
                tables: tuple) -> np.ndarray:
    """Exact projection of each row onto the base polytope of its group's rank vector.

    ``y_rows`` (groups * rows, n) stacks the rows group by group, and row
    g of ``ranks`` (groups, 2^n) holds f / total of the polytope group g's
    rows are projected onto; ``w`` weights every row alike, and
    ``tables`` are `_walk_tables` of w.
    Each round moves every row from its tight set S to the superset T of
    least slope (g(T) - g(S)) / (W(T) - W(S)), the largest W on ties, and
    gives the new block T \\ S the multiplier w_j (x_j - y_j) equal to that
    slope. Rows are independent; they share the rounds.
    """
    members, width, superset, run = tables
    g = _subset_sums(y_rows)                            # (rows, 2^n)
    by_group = g.reshape(len(ranks), len(g) // len(ranks), g.shape[1])
    np.subtract(ranks[:, None, :], by_group, out=by_group)
    full = members.shape[0] - 1
    tight = np.zeros(y_rows.shape[0], dtype=int)
    slope = np.zeros_like(y_rows)
    live = np.arange(y_rows.shape[0])
    while live.size:
        s = tight[live]
        rise = np.where(superset[s], (g[live] - g[live, s][:, None]) / run[s], np.inf)
        least = rise.min(axis=1)
        nxt = np.argmax(np.where(rise == least[:, None], width[None, :], -np.inf), axis=1)
        block = members[nxt] & ~members[s]
        slope[live] = np.where(block, least[:, None], slope[live])
        tight[live] = nxt
        live = live[nxt != full]
    return y_rows + slope / w
