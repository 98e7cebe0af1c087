"""Projection kernel against a brute-force active-set enumeration oracle."""

from itertools import combinations

import numpy as np
import pytest
from scipy.optimize import linprog

from chargegame import qp
from chargegame.feasible import FeasibilityStructure, admissible_polytope
from chargegame.qp import PolytopeProjector, _rank_vector


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
        poly = admissible_polytope(feas, n_v)
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


def test_simplex_projection_matches_hand_value():
    proj = PolytopeProjector(-np.eye(2), np.zeros(2))
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
        got = poly.projector.project_batch(ys, w)
        assert np.allclose(poly.project(ys[0], weights=w), got[0], atol=1e-9)
        for y, x in zip(ys, got):
            want = oracle_project(y, poly.g_mat, poly.h, weights=w)
            assert np.linalg.norm(x - want) <= 1e-7


def test_weighted_rejects_nonpositive_weights():
    rng = np.random.default_rng(7)
    poly = random_polytope(rng, 3)
    with pytest.raises(ValueError):
        poly.project(np.zeros(3), weights=np.array([1.0, -1.0, 1.0]))


def lower_bounded_simplex(rng, m, tight=False, with_zero=False):
    """Rows of {sum(x) = 1, x >= l}, laid out as an admissible polytope is.

    l is dyadic so that sum(l) = 1 holds exactly when ``tight``. There is
    one cap per proper station subset S, followed by the nonnegativity
    rows. The cap on all stations but k is 1 - l_k; every other cap is at
    or above its maximum over the simplex, sum(l over S) + 1 - sum(l).
    """
    units = rng.integers(0, 5, m)
    if with_zero:
        units[rng.integers(0, m)] = 0
    if tight:
        units[-1] = 32 - units[:-1].sum()
    lower = units / 32.0
    slack = 1.0 - lower.sum()
    rows, rhs = [], []
    for mask in range(1, (1 << m) - 1):
        subset = np.array([mask >> j & 1 for j in range(m)], dtype=bool)
        rows.append(subset.astype(float))
        if subset.sum() == m - 1:
            rhs.append(1.0 - lower[~subset][0])
        else:
            rhs.append(lower[subset].sum() + slack + rng.choice([0.0, 0.25]))
    g_mat = np.vstack(rows + [-np.eye(m)])
    h = np.concatenate([rhs, np.zeros(m)])
    return g_mat, h, lower


def chain_projector(proj):
    """The same polytope, forced onto the chain-of-tight-sets path."""
    chain = PolytopeProjector(proj.g_mat, proj.h, proj.total)
    chain.lower = None
    chain.members = (np.arange(1 << chain.n)[:, None] >> np.arange(chain.n) & 1).astype(bool)
    chain.rank = _rank_vector(chain.g_mat, chain.h, chain.total, chain.members)
    return chain


class TestLowerBoundedSimplex:
    @pytest.mark.parametrize("tight,with_zero", [(False, False), (False, True),
                                                 (True, False), (True, True)])
    def test_matches_oracle_and_active_set(self, tight, with_zero):
        rng = np.random.default_rng(11 + 2 * tight + with_zero)
        for trial in range(8):
            m = int(rng.integers(2, 5))
            g_mat, h, lower = lower_bounded_simplex(rng, m, tight, with_zero)
            proj = PolytopeProjector(g_mat, h)
            assert np.array_equal(proj.lower, lower)
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

    def test_chain_on_single_point_set(self):
        # every cap is tight at l, the set's only point
        g_mat, h = [], []
        lower = np.array([0.0, 3.0, 29.0]) / 32
        for mask, slack in zip(range(1, 7), (0, 0, 0, 0.25, 0, 0)):
            subset = np.array([mask >> j & 1 for j in range(3)], dtype=bool)
            g_mat.append(subset.astype(float))
            h.append(lower[subset].sum() + slack)
        g_mat = np.vstack(g_mat + [-np.eye(3)])
        h = np.concatenate([h, np.zeros(3)])
        chain = chain_projector(PolytopeProjector(g_mat, h))
        y = np.array([-0.4036594304354752, 0.40560184483093675, -1.0132865658167611])
        w = np.array([0.9835799018839195, 1.3233156479422865, 1.5986567703183105])
        assert np.abs(chain.project(y, w) - lower).max() <= 1e-12

    def test_accepts_demo_fleet_polytopes(self, demo_build):
        for poly in demo_build.instance.polytopes:
            lower = poly.projector.lower
            assert lower is not None
            # full reach: each cap on all stations but one is (N - m + 1) / N
            assert np.allclose(lower, (poly.n_stations - 1) / poly.fleet_size,
                               rtol=0, atol=1e-15)

    def test_refuses_partial_reach_reference_polytopes(self):
        from chargegame import reference_game
        for poly in reference_game(0, generous=False).polytopes:
            assert poly.projector.lower is None

    def test_refuses_binding_pair_cap(self):
        # x0 + x1 <= 1/2 cuts the simplex {x >= 0}; projection must honour it
        g_mat = np.vstack([[1.0, 1.0, 0.0, 0.0], -np.eye(4)])
        h = np.array([0.5, 0.0, 0.0, 0.0, 0.0])
        proj = PolytopeProjector(g_mat, h)
        assert proj.lower is None
        assert proj.rank is not None    # certified submodular
        y = np.array([0.9, 0.6, -0.2, 0.1])
        x = proj.project(y)
        assert x[0] + x[1] <= 0.5 + 1e-12
        assert np.abs(x - oracle_project(y, g_mat, h)).max() <= 1e-10


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
        # a primal active-set loop ran out of sweeps on exactly these inputs
        rng = np.random.default_rng(seed)
        reach = rng.random((30, 5)) < 0.4
        reach[~reach.any(1), 0] = True
        poly = admissible_polytope(FeasibilityStructure(reach), 30)
        w = rng.uniform(0.5, 4, 5)
        y = rng.normal(0, 1.5, (20, 5))[row]
        x = poly.project(y, weights=w)
        assert poly.projector.lower is None
        assert poly.contains(x, tol=1e-12)
        assert first_order_gap(x, y, w, poly.g_mat, poly.h) >= -1e-10

    def test_certifies_random_partial_reach_polytopes(self):
        # two stations always give a lower-bounded simplex, so m runs 3..7
        rng = np.random.default_rng(17)
        certified = 0
        while certified < 100:
            m = 3 + certified % 5
            n_v = int(rng.integers(8 * m, 16 * m))
            reach = rng.random((n_v, m)) < 0.3
            reach[~reach.any(axis=1), rng.integers(0, m)] = True
            poly = admissible_polytope(FeasibilityStructure(reach), n_v)
            if poly.is_empty or poly.projector.lower is not None:
                continue
            proj = poly.projector
            y = rng.normal(0, 1.5, m)
            w = rng.uniform(0.5, 4.0, m)
            x = proj.project(y, w)
            assert poly.contains(x, tol=1e-10)
            assert first_order_gap(x, y, w, poly.g_mat, poly.h) >= -1e-10
            certified += 1

    def test_refuses_non_submodular_caps(self):
        # f({0,1}) + f({1,2}) = 0.6 < f({0,1,2}) + f({1}) = 0.9
        g_mat = np.vstack([[1.0, 1.0, 0.0, 0.0], [0.0, 1.0, 1.0, 0.0], -np.eye(4)])
        h = np.array([0.3, 0.3, 0.0, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="submodular"):
            PolytopeProjector(g_mat, h)

    def test_refuses_non_subset_rows(self):
        g_mat = np.vstack([[1.0, 2.0, 0.0], -np.eye(3)])
        with pytest.raises(ValueError, match="indicator"):
            PolytopeProjector(g_mat, np.array([0.5, 0.0, 0.0, 0.0]))

    def test_empty_polytope_is_reported(self):
        # x0 + x1 <= 0.2 and x2 <= 0.3 leave no room for a unit of mass
        g_mat = np.vstack([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0], -np.eye(3)])
        proj = PolytopeProjector(g_mat, np.array([0.2, 0.3, 0.0, 0.0, 0.0]))
        assert proj.is_empty
        with pytest.raises(ValueError, match="empty"):
            proj.project(np.zeros(3))

    def test_simplex_builds_without_lp(self, monkeypatch):
        def no_lp(*args, **kwargs):
            raise AssertionError("a lower-bounded simplex needs no LP")
        monkeypatch.setattr(qp, "linprog", no_lp)
        poly = admissible_polytope(FeasibilityStructure.full(20, 4), 20)
        assert poly.projector.lower is not None
        assert not poly.is_empty
