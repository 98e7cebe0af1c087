"""Projection kernel against a brute-force active-set enumeration oracle,
and the integer rank vector against one LP per station subset."""

import copy
from itertools import combinations

import numpy as np
import pytest
from scipy.optimize import linprog

from chargegame.errors import EmptyPolytopeError
from chargegame.feasible import FeasibilityStructure, admissible_polytope
from chargegame.qp import (MAX_STATIONS_FOR_SUBSETS, PolytopeProjector,
                          _sorting_network, project_blocks)


def oracle_project(y, g_mat, h, weights=None, total=1.0):
    """Enumerate candidate active sets; keep the best feasible KKT point.

    Independent of the production solver: solves every equality-constrained
    subproblem for active sets up to full dimension and returns the feasible
    candidate with the smallest objective.
    """
    n = y.size
    w = np.ones(n) if weights is None else weights
    ones = np.ones(n)
    best, best_val = None, np.inf
    idx_all = range(g_mat.shape[0])
    for k in range(0, n + 1):
        for combo in combinations(idx_all, k):
            b_mat = np.vstack([ones[None, :], g_mat[list(combo)]])
            k_mat = (b_mat / w[None, :]) @ b_mat.T
            rhs = b_mat @ y - np.concatenate(([total], h[list(combo)]))
            nu, *_ = np.linalg.lstsq(k_mat, rhs, rcond=None)
            x = y - (b_mat.T @ nu) / w
            if abs(x.sum() - total) > 1e-8:
                continue
            if np.any(g_mat @ x > h + 1e-8):
                continue
            val = 0.5 * np.sum(w * (x - y) ** 2)
            if val < best_val - 1e-12:
                best_val, best = val, x
    return best


def random_polytope(rng, m):
    while True:
        n_v = int(rng.integers(2 * m, 6 * m + 2))
        reach = rng.random((n_v, m)) < 0.85
        reach[~reach.any(axis=1), rng.integers(0, m)] = True
        feas = FeasibilityStructure(reach)
        poly = admissible_polytope(feas)
        if not poly.is_empty:
            return poly


def kkt_residual(x, y, g_mat, h, weights=None):
    """Stationarity residual of the projection KKT system at x."""
    n = x.size
    w = np.ones(n) if weights is None else weights
    active = np.abs(g_mat @ x - h) <= 1e-7
    b_mat = np.vstack([np.ones(n)[None, :], g_mat[active]])
    nu, *_ = np.linalg.lstsq(b_mat.T, -w * (x - y), rcond=None)
    mu = nu[1:]
    stat = np.linalg.norm(w * (x - y) + b_mat.T @ nu, np.inf)
    return stat, mu


def h_rep(caps, total):
    """(G, h) of the projector's polytope: the caps below ``total``, then x >= 0."""
    caps = np.asarray(caps)
    m = caps.size.bit_length() - 1
    masks = np.arange(1, caps.size - 1)
    masks = masks[caps[masks] < total]
    rows = (masks[:, None] >> np.arange(m) & 1).astype(float)
    return np.vstack([rows, -np.eye(m)]), np.concatenate([caps[masks] / total, np.zeros(m)])


def lp_rank(g_mat, h):
    """max{x(S) : sum(x) = 1, G x <= h} for every subset S, one LP each; None if empty."""
    m = g_mat.shape[1]
    members = (np.arange(1 << m)[:, None] >> np.arange(m) & 1).astype(float)
    rank = np.zeros(1 << m)
    for mask in range(1, 1 << m):
        res = linprog(-members[mask], A_ub=g_mat, b_ub=h, A_eq=np.ones((1, m)), b_eq=[1.0],
                      bounds=[(None, None)] * m, method="highs")
        if res.status == 2:
            return None
        assert res.status == 0, res.message
        rank[mask] = -res.fun
    return rank


def test_simplex_projection_matches_hand_value():
    proj = PolytopeProjector([0, 1, 1, 1], 1)
    out = proj.project(np.array([2.0, 0.0]))
    assert np.allclose(out, [1.0, 0.0], atol=1e-12)


def test_idempotence_inside_point():
    rng = np.random.default_rng(0)
    poly = random_polytope(rng, 3)
    inside = poly.project(rng.normal(0, 1.5, 3))
    assert np.allclose(poly.project(inside), inside, atol=1e-9)


def test_matches_enumeration_oracle_small():
    rng = np.random.default_rng(1)
    for trial in range(40):
        m = int(rng.integers(2, 4))
        poly = random_polytope(rng, m)
        y = rng.normal(0, 1.5, m)
        got = poly.project(y)
        want = oracle_project(y, poly.g_mat, poly.h)
        assert want is not None
        assert np.linalg.norm(got - want) <= 1e-8, f"trial {trial}"


def test_matches_enumeration_oracle_m4():
    rng = np.random.default_rng(2)
    for trial in range(10):
        poly = random_polytope(rng, 4)
        y = rng.normal(0, 2.0, 4)
        got = poly.project(y)
        want = oracle_project(y, poly.g_mat, poly.h)
        d_got = np.linalg.norm(got - y)
        d_want = np.linalg.norm(want - y)
        assert d_got <= d_want + 1e-8


def test_kkt_residual_small():
    rng = np.random.default_rng(3)
    for _ in range(25):
        m = int(rng.integers(2, 5))
        poly = random_polytope(rng, m)
        y = rng.normal(0, 2.0, m)
        x = poly.project(y)
        stat, mu = kkt_residual(x, y, poly.g_mat, poly.h)
        assert stat <= 1e-9
        assert abs(x.sum() - 1.0) <= 1e-9
        assert np.all(poly.g_mat @ x <= poly.h + 1e-9)


def test_nonexpansive_on_random_pairs():
    rng = np.random.default_rng(4)
    poly = random_polytope(rng, 4)
    for _ in range(50):
        a = rng.normal(0, 2, 4)
        b = rng.normal(0, 2, 4)
        pa, pb = poly.project(a), poly.project(b)
        assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-10


def test_batch_equals_single():
    rng = np.random.default_rng(5)
    poly = random_polytope(rng, 4)
    ys = rng.normal(0, 2, (200, 4))
    batch = poly.project_batch(ys)
    for r in range(0, 200, 17):
        single = poly.project(ys[r])
        assert np.allclose(batch[r], single, atol=1e-9)


def test_weighted_projection_matches_oracle():
    rng = np.random.default_rng(6)
    for _ in range(20):
        m = int(rng.integers(2, 4))
        poly = random_polytope(rng, m)
        ys = rng.normal(0, 2, (50, m))
        w = rng.uniform(0.5, 4.0, m)
        got = poly.project_batch(ys, w)
        assert np.allclose(poly.project(ys[0], weights=w), got[0], atol=1e-9)
        for y, x in zip(ys, got):
            want = oracle_project(y, poly.g_mat, poly.h, weights=w)
            assert np.linalg.norm(x - want) <= 1e-7


def test_weighted_rejects_nonpositive_weights():
    rng = np.random.default_rng(7)
    poly = random_polytope(rng, 3)
    with pytest.raises(ValueError):
        poly.project(np.zeros(3), weights=np.array([1.0, -1.0, 1.0]))


def test_refuses_caps_above_the_station_ceiling():
    caps = np.zeros(1 << (MAX_STATIONS_FOR_SUBSETS + 1), dtype=np.int8)
    with pytest.raises(ValueError, match="at most 12 stations"):
        PolytopeProjector(caps, 3)


def lower_bounded_simplex(rng, m, tight=False, with_zero=False):
    """Caps of {sum(x) = 1, x >= l} in units of 1/32, one per station subset.

    l is dyadic so that sum(l) = 1 holds exactly when ``tight``. The cap on
    all stations but k is 32 (1 - l_k); every other proper cap is at or
    above its maximum over the simplex, 32 (sum(l over S) + 1 - sum(l)).
    """
    units = rng.integers(0, 5, m)
    if with_zero:
        units[rng.integers(0, m)] = 0
    if tight:
        units[-1] = 32 - units[:-1].sum()
    slack = 32 - units.sum()
    caps = np.zeros(1 << m, dtype=int)
    caps[-1] = 32
    for mask in range(1, (1 << m) - 1):
        subset = np.array([mask >> j & 1 for j in range(m)], dtype=bool)
        if subset.sum() == m - 1:
            caps[mask] = 32 - units[~subset][0]
        else:
            caps[mask] = units[subset].sum() + slack + rng.choice([0, 8])
    return caps, units / 32.0


def chain_projector(proj):
    """The same polytope, forced onto the chain-of-tight-sets path."""
    chain = copy.copy(proj)
    chain.lower = None
    return chain


class TestLowerBoundedSimplex:
    @pytest.mark.parametrize("tight,with_zero", [(False, False), (False, True),
                                                 (True, False), (True, True)])
    def test_matches_oracle_and_active_set(self, tight, with_zero):
        rng = np.random.default_rng(11 + 2 * tight + with_zero)
        for trial in range(8):
            m = int(rng.integers(2, 5))
            caps, lower = lower_bounded_simplex(rng, m, tight, with_zero)
            proj = PolytopeProjector(caps, 32)
            assert np.array_equal(proj.lower, lower)
            g_mat, h = h_rep(caps, 32)
            ys = rng.normal(0, 1.5, (8, m))
            for w in (None, rng.uniform(0.5, 4.0, m)):
                fast = proj.project_batch(ys, w)
                if tight:   # the set is the point l
                    assert np.array_equal(fast, np.tile(lower, (8, 1)))
                else:
                    chain = chain_projector(proj).project_batch(ys, w)
                    assert np.abs(fast - chain).max() <= 1e-10, f"trial {trial}"
                    assert np.all(fast >= lower)
                    assert np.abs(fast.sum(axis=1) - 1.0).max() <= 1e-12
                for y, x in zip(ys, fast):
                    assert np.array_equal(proj.project(y, w), x)
                for y, x in zip(ys[:2], fast):
                    want = oracle_project(y, g_mat, h, weights=w)
                    assert np.abs(x - want).max() <= 1e-10, f"trial {trial}"

    def test_single_point_set_returns_the_point(self):
        # l = counts / total with sum(counts) = total; the float sum of
        # 1 - (total - counts) / total can miss 1 by an ulp, the counts cannot
        rng = np.random.default_rng(31)
        masks = np.arange(16)
        members = masks[:, None] >> np.arange(4) & 1
        for trial in range(300):
            total = int(rng.integers(3, 400))
            counts = rng.multinomial(total, rng.dirichlet(np.ones(4)))
            proj = PolytopeProjector(members @ counts, total)
            assert proj.single_point, f"trial {trial}"
            ys = rng.normal(0, 1.5, (3, 4))
            for w in (None, rng.uniform(0.5, 4.0, 4)):
                assert np.array_equal(proj.project_batch(ys, w), np.tile(proj.lower, (3, 1)))
            assert np.abs(proj.lower - counts / total).max() <= 1e-15

    def test_chain_on_single_point_set(self):
        # every cap but {2}'s is tight at l = (0, 3, 29) / 32, the set's only point
        chain = chain_projector(PolytopeProjector([0, 0, 3, 3, 37, 29, 32, 32], 32))
        lower = np.array([0.0, 3.0, 29.0]) / 32
        y = np.array([-0.4036594304354752, 0.40560184483093675, -1.0132865658167611])
        w = np.array([0.9835799018839195, 1.3233156479422865, 1.5986567703183105])
        assert np.abs(chain.project(y, w) - lower).max() <= 1e-12

    def test_exact_when_a_cap_is_tight_at_the_bound(self):
        # cap {0} = 5 = 11 - l_1 - l_2 is tight at l; float caps miss that by an ulp
        caps = [0, 5, 8, 7, 9, 9, 9, 11]
        proj = PolytopeProjector(caps, 11)
        assert np.array_equal(proj.lower, 1.0 - np.array([9, 9, 7]) / 11)
        assert np.allclose(proj.lower, np.array([2, 2, 4]) / 11, rtol=0, atol=1e-16)
        g_mat, h = h_rep(caps, 11)
        assert np.abs(proj.rank - lp_rank(g_mat, h)).max() <= 1e-12
        y = np.array([0.9, -0.3, 0.2])
        assert np.abs(proj.project(y) - oracle_project(y, g_mat, h)).max() <= 1e-10

    def test_accepts_demo_fleet_polytopes(self, demo_build):
        for poly in demo_build.instance.polytopes:
            lower = poly.lower
            assert lower is not None
            # full reach: each cap on all stations but one is (N - m + 1) / N
            assert np.allclose(lower, (poly.n - 1) / poly.total,
                               rtol=0, atol=1e-15)

    def test_refuses_partial_reach_reference_polytopes(self):
        from chargegame import reference_game
        for poly in reference_game(0, generous=False).polytopes:
            assert poly.lower is None

    def test_refuses_binding_pair_cap(self):
        # x0 + x1 <= 1/2 cuts the simplex {x >= 0}; projection must honour it
        caps = np.full(16, 2)
        caps[0], caps[0b0011] = 0, 1
        proj = PolytopeProjector(caps, 2)
        assert proj.lower is None
        assert proj.rank is not None    # certified submodular
        y = np.array([0.9, 0.6, -0.2, 0.1])
        x = proj.project(y)
        assert x[0] + x[1] <= 0.5 + 1e-12
        assert np.abs(x - oracle_project(y, *h_rep(caps, 2))).max() <= 1e-10


def first_order_gap(x, y, w, g_mat, h):
    """min over z in P of <w (x - y), z - x>; x is the projection iff >= 0."""
    c = w * (x - y)
    res = linprog(c, A_ub=g_mat, b_ub=h, A_eq=np.ones((1, x.size)), b_eq=[1.0],
                  bounds=[(None, None)] * x.size, method="highs")
    assert res.status == 0
    return res.fun - c @ x


class TestChainOfTightSets:
    @pytest.mark.parametrize("seed,row", [(229, 0), (49, 11)])
    def test_weighted_partial_reach_regression(self, seed, row):
        # a primal active-set loop ran out of sweeps on exactly these inputs;
        # the polytopes are exact simplices, so both paths must agree
        rng = np.random.default_rng(seed)
        reach = rng.random((30, 5)) < 0.4
        reach[~reach.any(1), 0] = True
        poly = admissible_polytope(FeasibilityStructure(reach))
        w = rng.uniform(0.5, 4, 5)
        y = rng.normal(0, 1.5, (20, 5))[row]
        assert poly.lower is not None
        x = poly.project(y, weights=w)
        x_chain = chain_projector(poly).project(y, w)
        assert np.abs(x - x_chain).max() <= 1e-10
        for point in (x, x_chain):
            assert poly.contains(point, tol=1e-12)
            assert first_order_gap(point, y, w, poly.g_mat, poly.h) >= -1e-10

    def test_certifies_random_partial_reach_polytopes(self):
        rng = np.random.default_rng(17)
        certified = 0
        while certified < 100:
            m = 3 + certified % 5
            n_v = int(rng.integers(8 * m, 16 * m))
            reach = rng.random((n_v, m)) < 0.3
            reach[~reach.any(axis=1), rng.integers(0, m)] = True
            poly = admissible_polytope(FeasibilityStructure(reach))
            if poly.is_empty:
                continue
            proj = chain_projector(poly)
            y = rng.normal(0, 1.5, m)
            w = rng.uniform(0.5, 4.0, m)
            x = proj.project(y, w)
            assert poly.contains(x, tol=1e-10)
            assert first_order_gap(x, y, w, poly.g_mat, poly.h) >= -1e-10
            certified += 1

    def test_rank_matches_lp_oracle(self):
        rng = np.random.default_rng(23)
        seen = set()
        for trial in range(100):
            m = 2 + trial % 5
            density = rng.uniform(0.15, 0.95)
            n_v = int(rng.integers(4 * m, 16 * m))
            reach = rng.random((n_v, m)) < density
            reach[~reach.any(axis=1), rng.integers(0, m)] = True
            poly = admissible_polytope(FeasibilityStructure(reach))
            want = lp_rank(poly.g_mat, poly.h)
            assert poly.is_empty == (want is None), f"trial {trial}"
            if want is not None:
                assert np.abs(poly.rank - want).max() <= 1e-12, f"trial {trial}"
            seen.add("empty" if poly.is_empty else poly.path)
        assert seen == {"empty", "simplex", "chain"}

    def test_refuses_non_submodular_caps(self):
        # f({0,1}) + f({1,2}) = 6 < f({0,1,2}) + f({1}) = 9, out of N = 10
        caps = np.full(16, 10)
        caps[0], caps[0b0011], caps[0b0110] = 0, 3, 3
        with pytest.raises(ValueError, match="submodular"):
            PolytopeProjector(caps, 10)

    def test_empty_polytope_is_reported(self):
        # x0 + x1 <= 2/10 and x2 <= 3/10 leave no room for a unit of mass
        proj = PolytopeProjector([0, 10, 10, 2, 3, 10, 10, 10], 10)
        assert proj.is_empty
        with pytest.raises(EmptyPolytopeError, match="empty"):
            proj.project(np.zeros(3))


def loop_chain_reference(proj, y_rows, w):
    """One polytope's chain walk as a standalone loop: the superset mask and
    W(T) - W(S) rebuilt in every round, y(S) by a product with the 0/1
    subset matrix. Reference for the shared walk's bits."""
    members = proj.members
    g = proj.rank[None, :] - y_rows @ members.T
    width = members @ (1.0 / w)
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


def reach_polytope(rng, m, density):
    """A nonempty admissible polytope of a random reach matrix on m stations."""
    while True:
        n_v = int(rng.integers(4 * m, 12 * m))
        reach = rng.random((n_v, m)) < density
        reach[~reach.any(axis=1), rng.integers(0, m)] = True
        poly = admissible_polytope(FeasibilityStructure(reach))
        if not poly.is_empty:
            return poly


class TestProjectBlocks:
    @pytest.mark.parametrize("rows", [0, 1, 3, 40])
    def test_equals_per_polytope_projection_bit_for_bit(self, rows):
        rng = np.random.default_rng(41 + rows)
        mixed = 0
        for trial in range(30):
            m = int(rng.integers(2, 8))
            polys = [reach_polytope(rng, m, rng.choice([0.3, 0.6, 1.0]))
                     for _ in range(int(rng.integers(1, 5)))]
            y = rng.normal(0, 1.5, (rows, len(polys) * m))
            got = project_blocks(polys, y)
            want = np.hstack([poly.project_batch(y[:, i * m:(i + 1) * m])
                              for i, poly in enumerate(polys)])
            assert got.shape == y.shape
            assert np.array_equal(got, want), f"trial {trial}"
            mixed += len({poly.path for poly in polys}) == 2
        assert mixed >= 5

    def test_refuses_an_empty_polytope(self):
        rng = np.random.default_rng(43)
        empty = PolytopeProjector([0, 10, 10, 2, 3, 10, 10, 10], 10)
        with pytest.raises(EmptyPolytopeError, match="empty"):
            project_blocks([reach_polytope(rng, 3, 0.5), empty], np.zeros((2, 6)))

    @pytest.mark.parametrize("rows", [1, 3, 25])
    def test_chain_walk_matches_loop_reference(self, rows):
        # up to 5 stations, where the reference's 0/1 matrix product sums
        # every subset in station order whatever the row count
        rng = np.random.default_rng(47 + rows)
        for trial in range(40):
            m = int(rng.integers(2, 6))
            proj = chain_projector(reach_polytope(rng, m, rng.choice([0.3, 1.0])))
            y = rng.normal(0, 1.5, (rows, m))
            for w in (np.ones(m), rng.uniform(0.5, 4.0, m)):
                want = loop_chain_reference(proj, y, w)
                assert np.array_equal(proj.project_batch(y, w), want), f"trial {trial}"
                assert np.array_equal(proj.project(y[0], weights=w), want[0])


def sort_simplex_reference(proj, y_rows):
    """The unit-weight simplex projection by a per-row sort, as a standalone
    copy of the sort-based formula: reference for the network's bits."""
    lower = proj.lower
    if proj.single_point:
        return np.broadcast_to(lower, y_rows.shape).copy()
    w = np.ones(proj.n)
    slack = 1.0 - lower.sum()
    z = y_rows - lower
    order = np.argsort(-(z * w), axis=1)
    z_sorted = np.take_along_axis(z, order, axis=1)
    w_sorted = w[order]
    taus = (np.cumsum(z_sorted, axis=1) - slack) / np.cumsum(1.0 / w_sorted, axis=1)
    count = np.maximum(np.count_nonzero(w_sorted * z_sorted > taus, axis=1), 1)
    tau = taus[np.arange(y_rows.shape[0]), count - 1]
    return lower + np.maximum(z - tau[:, None] / w, 0.0)


class TestSimplexNetwork:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_network_sorts_every_zero_one_input(self, n):
        # the 0-1 principle: a comparator network that sorts every 0/1
        # input sorts every input (Knuth, TAOCP vol. 3, 5.3.4)
        wires = (np.arange(1 << n)[:, None] >> np.arange(n) & 1).T.copy()
        for i, j in _sorting_network(n):
            wires[i], wires[j] = np.maximum(wires[i], wires[j]), np.minimum(wires[i], wires[j])
        assert np.all(np.diff(wires, axis=0) <= 0)

    @pytest.mark.parametrize("rows", [0, 1, 3, 6561])
    def test_equals_the_sort_bit_for_bit(self, rows):
        rng = np.random.default_rng(53 + rows)
        kinds = set()
        for trial in range(24):
            m = 2 + trial % 6
            tight, with_zero = trial % 4 == 3, trial % 3 == 1
            polys = [PolytopeProjector(lower_bounded_simplex(rng, m, tight, with_zero)[0], 32)
                     for _ in range(1 + trial % 3)]
            # ties: coarse values repeat within and across rows
            y = rng.normal(0, 1.5, (rows, len(polys) * m))
            if trial % 2:
                y = np.round(y * 2) / 8
            got = project_blocks(polys, y)
            for i, proj in enumerate(polys):
                block = y[:, i * m:(i + 1) * m]
                want = sort_simplex_reference(proj, block)
                assert np.array_equal(got[:, i * m:(i + 1) * m], want), f"trial {trial}"
                assert np.array_equal(proj.project_batch(block), want), f"trial {trial}"
                kinds.add((proj.single_point, bool(np.any(proj.lower == 0))))
        assert kinds == {(False, False), (False, True), (True, False), (True, True)}

    def test_shares_a_call_with_chain_blocks(self):
        rng = np.random.default_rng(59)
        m = 4
        polys = [PolytopeProjector(lower_bounded_simplex(rng, m)[0], 32),
                 reach_polytope(rng, m, 0.4),
                 PolytopeProjector(lower_bounded_simplex(rng, m, with_zero=True)[0], 32)]
        assert [p.path for p in polys] == ["simplex", "chain", "simplex"]
        y = rng.normal(0, 1.5, (50, 3 * m))
        got = project_blocks(polys, y)
        for i in (0, 2):
            want = sort_simplex_reference(polys[i], y[:, i * m:(i + 1) * m])
            assert np.array_equal(got[:, i * m:(i + 1) * m], want)
        assert np.array_equal(got[:, m:2 * m], polys[1].project_batch(y[:, m:2 * m]))

    def test_writes_into_its_input(self):
        rng = np.random.default_rng(61)
        polys = [PolytopeProjector(lower_bounded_simplex(rng, 4)[0], 32),
                 reach_polytope(rng, 4, 0.4)]
        y = rng.normal(0, 1.5, (20, 8))
        want = project_blocks(polys, y)
        assert project_blocks(polys, y, out=y) is y
        assert np.array_equal(y, want)
