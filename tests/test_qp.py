"""Projection kernel against a brute-force active-set enumeration oracle."""

from itertools import combinations

import numpy as np
import pytest

from chargegame.feasible import FeasibilityStructure, admissible_polytope
from chargegame.qp import PolytopeProjector


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
        feas = FeasibilityStructure.from_matrix(reach)
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
    proj = PolytopeProjector(-np.eye(2), np.zeros(2), np.array([0.5, 0.5]))
    out = proj.project(np.array([2.0, 0.0]))
    assert np.allclose(out, [1.0, 0.0], atol=1e-12)


def test_idempotence_inside_point():
    rng = np.random.default_rng(0)
    poly = random_polytope(rng, 3)
    inside = poly.feasible_point
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
        assert np.allclose(poly.project_weighted(ys[0], w), got[0], atol=1e-9)
        for y, x in zip(ys, got):
            want = oracle_project(y, poly.g_mat, poly.h, weights=w)
            assert np.linalg.norm(x - want) <= 1e-7


def test_weighted_rejects_nonpositive_weights():
    rng = np.random.default_rng(7)
    poly = random_polytope(rng, 3)
    with pytest.raises(ValueError):
        poly.project_weighted(np.zeros(3), np.array([1.0, -1.0, 1.0]))
