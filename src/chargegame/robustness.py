"""Robustness of the pricing mechanism to demand-estimate errors.

The aligned feedback prices need each company's demand diagonal. When the
authority only has a noisy estimate, the policies it announces are built
from the perturbed demand inverse, the perturbed game may lose convexity
(checked explicitly), its equilibrium is only an approximate equilibrium
of the true game (with an explicit suboptimality bound), and the attained
authority loss carries a quantifiable gap versus the unperturbed optimum.

The diagnostics read the station-blocked map (F1, F2) the engine solves:
convexity is the sign of each company's diagonal entries in the perturbed
F1 blocks, and the deviation gain in the true game is read off F(x).

The sweep protocol fixes the fleet scenario and redraws only the
estimation noise: for every noise magnitude ``alpha`` it samples the
perturbed estimate many times, solves the perturbed game, and evaluates
fixed-price baselines on the same perturbed demand for comparison. The
perturbed games of one alpha run in one engine call, and their deviation
gains in one ``best_response_gap`` call; the baselines of all alphas share
the true fixed-price map and run in one call after them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .equilibrium import (aggregates, apply_map, fixed_price_f2, game_map,
                          perturbation_map, solve_nash, solve_nash_batch)
from .model import GameInstance, government_cost, pseudo_inverse_diag


@dataclass(frozen=True)
class Perturbation:
    """Noisy demand estimate for every company.

    ``demand_estimate[i]`` is the perturbed diagonal the authority works
    with; ``demand_shift[i]`` is the induced change of the demand inverse
    (zero at stations the company cannot use).
    """

    alpha: float
    seed: int
    demand_estimate: tuple[np.ndarray, ...]
    demand_shift: tuple[np.ndarray, ...]
    noise: tuple[np.ndarray, ...]


def build_perturbation(instance: GameInstance, alpha: float, seed: int) -> Perturbation:
    """Sample a demand estimate: true demand plus Gaussian noise.

    The noise scale is alpha/4 times the smallest nonzero demand entry of
    the company. Draws that would push an entry nonpositive are resampled
    (clipping would flip the station to "unusable" and change the
    pseudo-inverse structure). Stations with zero true demand stay zero.
    """
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    rng = np.random.default_rng(seed)
    estimates, shifts, noises = [], [], []
    for comp in instance.companies:
        d = comp.demand
        feasible = d > 0
        w = np.zeros_like(d)
        if alpha > 0 and feasible.any():
            scale = alpha * d[feasible].min() / 4.0
            for k in np.flatnonzero(feasible):
                draw = rng.normal(0.0, scale)
                while d[k] + draw <= 0.0:
                    draw = rng.normal(0.0, scale)
                w[k] = draw
        est = d + w
        shift = pseudo_inverse_diag(est) - pseudo_inverse_diag(d)
        estimates.append(est)
        shifts.append(shift)
        noises.append(w)
    return Perturbation(float(alpha), int(seed), tuple(estimates),
                        tuple(shifts), tuple(noises))


def _own_curvature_ok(f1: np.ndarray) -> np.ndarray:
    """One flag per leading index of station-blocked F1 (..., m, mc, mc):
    are all diagonal entries, each company's own (diagonal) Hessian, >= -1e-12?"""
    return np.all(np.diagonal(f1, axis1=-2, axis2=-1) >= -1e-12, axis=(-2, -1))


def check_convexity_assumption(instance: GameInstance, perturbation: Perturbation) -> bool:
    """Does every company's perturbed cost stay convex in its own block?
    Read off the diagonal of the perturbed F1 station blocks."""
    return bool(_own_curvature_ok(game_map(instance, perturbation)[0]))


def lipschitz_bound(instance: GameInstance) -> float:
    """Gradient-norm bound of the company cost over the joint range.

    The cost is quadratic in the stacked (own-mass, rest-aggregate) pair,
    whose 1-norm is at most the total charging fleet; the bound is
    ||H||_2 * R + ||g||_2 for the quadratic's Hessian H and linear term g.
    """
    w = instance.government.weight
    m = instance.n_stations
    h_mat = np.block([[np.diag(w), np.diag(w)],
                      [np.diag(w), np.zeros((m, m))]])
    g_vec = np.concatenate([instance.government.linear, np.zeros(m)])
    radius = float(instance.fleet_sizes.sum())
    return float(np.linalg.norm(h_mat, 2) * radius + np.linalg.norm(g_vec))


def epsilon_bound(instance: GameInstance) -> float:
    """Suboptimality bound for perturbed equilibria in the true game.

    4 * eta_bar * (sum_i N_i - min_i N_i / 2) with eta_bar the Lipschitz
    bound above.
    """
    n_vec = instance.fleet_sizes
    eta = lipschitz_bound(instance)
    return float(4.0 * eta * (n_vec.sum() - 0.5 * n_vec.min()))


def psi_values(instance: GameInstance, perturbation: Perturbation,
               iterates: np.ndarray, x_star: np.ndarray) -> np.ndarray:
    """Inner products (Delta F)(x_k) . (x_k - x*) along an iterate trace."""
    phi_l1, phi_l2 = perturbation_map(instance, perturbation)
    delta_f = apply_map(phi_l1, iterates) + phi_l2
    return np.einsum("ki,ki->k", delta_f, iterates - x_star[None, :])


@dataclass
class GapBound:
    """Authority-loss gap bound for a perturbed run and its observed value."""

    bound: float
    observed: float
    r_map: float          # norm bound of the perturbed game map over the set
    r_x: float            # norm bound of stacked allocations
    psi: np.ndarray
    holds: bool = field(init=False)

    def __post_init__(self):
        self.holds = bool(self.observed <= self.bound + 1e-9)


def jg_gap_bound(instance: GameInstance, perturbation: Perturbation,
                 iterates: np.ndarray, gamma: float,
                 x_star: np.ndarray) -> GapBound:
    """Bound on (best attained authority loss) - (unperturbed optimum).

    With K+1 recorded iterates x_0..x_K of the perturbed averaged scheme:

        gap <= ||x_0 - x*||^2 / (gamma (K+1)) + gamma R^2 / 2
               - sum_k psi(x_k) / (K+1),

    where R bounds the perturbed game map over the admissible set and
    psi(x) = (Delta F)(x) . (x - x*).
    """
    if iterates.size == 0:
        raise ValueError("empty iterate trace")
    f1, f2 = game_map(instance, perturbation)
    r_x = float(np.sqrt(instance.n_companies))
    r_map = float(np.linalg.norm(f1, 2, axis=(-2, -1)).max() * r_x
                  + np.linalg.norm(f2))
    psi = psi_values(instance, perturbation, iterates, x_star)
    k_plus_1 = iterates.shape[0]
    dist0 = float(np.linalg.norm(iterates[0] - x_star) ** 2)
    bound = dist0 / (gamma * k_plus_1) + gamma * r_map**2 / 2.0 - psi.sum() / k_plus_1

    gov = instance.government
    j_vals = government_cost(aggregates(instance, iterates), gov)
    j_star = government_cost(aggregates(instance, x_star)[0], gov)
    observed = float(j_vals.min() - j_star)
    return GapBound(float(bound), observed, r_map, r_x, psi)


def best_response_gap(instance: GameInstance, x: np.ndarray) -> np.ndarray:
    """Per-company improvement available by deviating in the true game.

    Company i's cost is quadratic in its own block x_i, with gradient F_i,
    its block of F(x) = F1 x + F2 under the true aligned map, and diagonal
    Hessian h_i, the diagonal of its entries in the F1 station blocks. Its
    best response is the h_i-weighted projection of x_i - F_i / h_i onto its
    polytope, and with d = x_i - best the gain is F_i . d - 1/2 d' h_i d,
    elementwise nonnegative up to solver tolerance.

    ``x`` is one stacked allocation, giving one gain per company, or rows
    of them, giving (rows, n_companies); a row gets the bits it would get
    alone.
    """
    f1, f2 = game_map(instance)
    x = np.asarray(x, dtype=float)
    x_rows = x.reshape(-1, x.shape[-1])
    # per-row product: the shared-map one may round a row apart by row count
    grad = apply_map(np.broadcast_to(f1, (len(x_rows),) + f1.shape), x_rows) + f2
    m = instance.n_stations
    own = np.diagonal(f1, axis1=-2, axis2=-1)       # (m, mc): h_i is column i
    gaps = np.empty((len(x_rows), instance.n_companies))
    for i, poly in enumerate(instance.polytopes):
        block = slice(i * m, (i + 1) * m)
        h, g, x_i = own[:, i], grad[:, block], x_rows[:, block]
        d = x_i - poly.project_batch(x_i - g / h, weights=h)
        gaps[:, i] = np.sum(g * d, axis=1) - 0.5 * np.sum(d * h * d, axis=1)
    return gaps.reshape(x.shape[:-1] + gaps.shape[-1:])


@dataclass
class SweepSample:
    alpha: float
    sample: int
    mechanism: str
    j_g: float
    assumption_ok: bool
    converged: bool         # the solve met its residual tolerance
    residual: float         # final fixed-point residual of the solve


@dataclass
class SweepResult:
    """All rows of a robustness sweep plus per-sample diagnostic bounds."""

    rows: list[SweepSample]
    alphas: np.ndarray
    n_samples: int
    eps_bound: float
    eps_observed: np.ndarray        # (n_alphas, n_samples) worst deviation gain
    gap_bounds: np.ndarray          # (n_alphas, n_samples)
    gap_observed: np.ndarray
    assumption_ok: np.ndarray       # (n_alphas, n_samples) bool
    j_star: float

    def mean(self, mechanism: str) -> np.ndarray:
        """Mean J_G per alpha over the mechanism's converged rows only; NaN
        where none converged (``excluded`` counts the rows left out)."""
        out = np.full(self.alphas.size, np.nan)
        for a_idx, alpha in enumerate(self.alphas):
            vals = [r.j_g for r in self.rows if r.mechanism == mechanism
                    and r.alpha == alpha and r.converged]
            if vals:
                out[a_idx] = float(np.mean(vals))
        return out

    def excluded(self, mechanism: str) -> np.ndarray:
        """Unconverged rows per alpha, left out of ``mean``."""
        return np.array([sum(r.mechanism == mechanism and r.alpha == alpha
                             and not r.converged for r in self.rows)
                         for alpha in self.alphas])

    def to_csv_rows(self):
        yield "alpha,sample_id,mechanism,j_g,assumption_ok,converged"
        for r in self.rows:
            yield (f"{r.alpha!r},{r.sample},{r.mechanism},{r.j_g!r},"
                   f"{int(r.assumption_ok)},{int(r.converged)}")


def robustness_sweep(instance: GameInstance, alphas, n_samples: int,
                     baseline_prices: dict[str, np.ndarray] | None = None,
                     seed: int = 0, max_iter: int = 1000,
                     tol: float = 1e-8) -> SweepResult:
    """Fix the scenario, redraw estimation noise, and compare mechanisms.

    For every noise magnitude and sample: solve the game under policies
    built from the perturbed demand inverse (mechanism ``rsg``) and, when
    fixed baseline price vectors are supplied, solve the fixed-price game
    on the same perturbed demand. Emits one row per (alpha, sample,
    mechanism): per alpha, the rsg rows, then each baseline's rows. The
    magnitudes must be distinct, since ``SweepResult`` finds an alpha's
    rows by its value.

    The rsg games of one alpha run in one engine call with per-row maps;
    their convexity flags are read from those maps and their deviation
    gains in one call, and each row's gap bound covers its own iterates.
    Every baseline game, for all alphas and price vectors, shares the true
    fixed-price map, so all of them run in one engine call after the loop.
    """
    alphas = np.asarray(list(alphas), dtype=float)
    if np.unique(alphas).size != alphas.size:
        raise ValueError("noise magnitudes (alphas) must be distinct")
    if n_samples < 1:
        raise ValueError("need at least one sample per alpha")
    baseline_prices = baseline_prices or {}

    star = solve_nash(instance, max_iter=max_iter, tol=tol)
    n = instance.n_companies * instance.n_stations
    gov = instance.government

    shape = (alphas.size, n_samples)
    eps_obs, gap_b, gap_o = np.zeros(shape), np.zeros(shape), np.zeros(shape)
    ass_ok = np.zeros(shape, dtype=bool)
    rsg, estimates = [], []     # rsg: (j_g, converged, residual) per alpha

    for a_idx, alpha in enumerate(alphas):
        perts = [build_perturbation(instance, alpha, _sample_seed(seed, a_idx, s))
                 for s in range(n_samples)]
        f1_rows, f2_rows = (np.array(v) for v in
                            zip(*(game_map(instance, pert) for pert in perts)))
        ass_ok[a_idx] = _own_curvature_ok(f1_rows)
        out = solve_nash_batch(instance, f2_rows, f1_rows=f1_rows,
                               max_iter=max_iter, tol=tol, record_iterates=True)
        rsg.append((government_cost(out["sigma_final"], gov), out["converged"],
                    out["residual"]))
        eps_obs[a_idx] = best_response_gap(instance, out["x"]).max(axis=1)
        for s, pert in enumerate(perts):
            gb = jg_gap_bound(instance, pert, out["iterates"][: out["iterations"][s] + 1, s],
                              float(out["gammas"][s]), star.x)
            gap_b[a_idx, s], gap_o[a_idx, s] = gb.bound, gb.observed
        estimates.append([pert.demand_estimate for pert in perts])

    # per mechanism: (j_g, converged, residual), each (n_alphas, n_samples)
    mechanisms = {"rsg": [np.array(v) for v in zip(*rsg)]}
    if baseline_prices:
        # engine row (a_idx, b, s): price vector b on alpha a_idx's sample s
        prices = np.array(list(baseline_prices.values()))
        f2_base = fixed_price_f2(instance, prices[None, :, None, :],
                                 np.asarray(estimates)[:, None])
        f1_fixed_true, _ = game_map(instance, prices=np.zeros(instance.n_stations))
        base = solve_nash_batch(instance, f2_base.reshape(-1, n), f1=f1_fixed_true,
                                max_iter=max_iter, tol=tol)
        cols = [v.reshape(alphas.size, len(baseline_prices), n_samples) for v in
                (government_cost(base["sigma_final"], gov), base["converged"],
                 base["residual"])]
        for b, name in enumerate(baseline_prices):
            mechanisms[name] = tuple(v[:, b] for v in cols)

    rows = [SweepSample(float(alpha), s, name, float(j_g[a_idx, s]), bool(ass_ok[a_idx, s]),
                        bool(conv[a_idx, s]), float(res[a_idx, s]))
            for a_idx, alpha in enumerate(alphas)
            for name, (j_g, conv, res) in mechanisms.items()
            for s in range(n_samples)]
    return SweepResult(rows, alphas, n_samples, epsilon_bound(instance), eps_obs,
                       gap_b, gap_o, ass_ok, star.j_g)


def _sample_seed(master: int, alpha_idx: int, sample: int) -> int:
    return int(np.random.SeedSequence((master, alpha_idx, sample)).generate_state(1)[0])
