"""Robustness of the pricing mechanism to demand-estimate errors.

The aligned feedback prices need each company's demand diagonal. When the
authority only has a noisy estimate, the policies it announces are built
from the perturbed demand inverse, the perturbed game may lose convexity
(checked explicitly), its equilibrium is only an approximate equilibrium
of the true game (with an explicit suboptimality bound), and the attained
authority loss carries a quantifiable gap versus the unperturbed optimum.

The sweep protocol fixes the fleet scenario and redraws only the
estimation noise: for every noise magnitude ``alpha`` it samples the
perturbed estimate many times, solves the perturbed game, and evaluates
fixed-price baselines on the same perturbed demand for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .equilibrium import (apply_map, fixed_price_f2, game_map,
                          perturbation_map, solve_nash, solve_nash_batch,
                          step_bound)
from .model import (GameInstance, aggregate, government_cost,
                    pseudo_inverse_diag)


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


def check_convexity_assumption(instance: GameInstance, perturbation: Perturbation) -> bool:
    """Per-company curvature check of the perturbed cost.

    All matrices are diagonal, so positive semidefiniteness reduces to an
    entrywise inequality.
    """
    w = instance.government.weight
    for comp, shift in zip(instance.companies, perturbation.demand_shift):
        n2 = float(comp.fleet_size) ** 2
        dd = comp.demand * shift
        vals = n2 * (1.0 + dd) * w - dd * comp.quad
        if np.any(vals < -1e-12):
            return False
    return True


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
    fleet = instance.fleet_sizes
    mc, m = instance.n_companies, instance.n_stations
    sig = iterates.reshape(-1, mc, m).transpose(0, 2, 1) @ fleet
    j_vals = government_cost(sig, gov)
    j_star = government_cost(aggregate(fleet, x_star.reshape(mc, m)), gov)
    observed = float(j_vals.min() - j_star)
    return GapBound(float(bound), observed, r_map, r_x, psi)


def best_response_gap(instance: GameInstance, x: np.ndarray) -> np.ndarray:
    """Per-company improvement available by deviating in the true game.

    Solves each company's convex best response over its polytope (diagonal
    Hessian, so a weighted projection) and returns cost(current) -
    cost(best response), elementwise nonnegative up to solver tolerance.
    """
    from .model import reduced_cost

    m = instance.n_stations
    blocks = x.reshape(instance.n_companies, m)
    sigma = aggregate(instance.fleet_sizes, blocks)
    gaps = np.zeros(instance.n_companies)
    w = instance.government.weight
    for i, (comp, poly) in enumerate(zip(instance.companies, instance.polytopes)):
        n_i = float(comp.fleet_size)
        sigma_others = sigma - n_i * blocks[i]
        hess = n_i**2 * w
        lin = n_i * w * sigma_others + n_i * instance.government.linear
        best = poly.project(-lin / hess, weights=hess)
        gaps[i] = (reduced_cost(instance, i, blocks[i], sigma_others)
                   - reduced_cost(instance, i, best, sigma_others))
    return gaps


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
        out = np.zeros(self.alphas.size)
        for a_idx, alpha in enumerate(self.alphas):
            vals = [r.j_g for r in self.rows
                    if r.mechanism == mechanism and r.alpha == alpha]
            out[a_idx] = float(np.mean(vals))
        return out

    def to_csv_rows(self):
        yield "alpha,sample_id,mechanism,j_g,assumption_ok,converged"
        for r in self.rows:
            yield (f"{r.alpha!r},{r.sample},{r.mechanism},{r.j_g!r},"
                   f"{int(r.assumption_ok)},{int(r.converged)}")


def robustness_sweep(instance: GameInstance, alphas, n_samples: int,
                     baseline_prices: dict[str, np.ndarray] | None = None,
                     seed: int = 0, max_iter: int = 1000, tol: float = 1e-8,
                     check_bounds: bool = True) -> SweepResult:
    """Fix the scenario, redraw estimation noise, and compare mechanisms.

    For every noise magnitude and sample: solve the game under policies
    built from the perturbed demand inverse (mechanism ``rsg``) and, when
    fixed baseline price vectors are supplied, solve the fixed-price game
    on the same perturbed demand. Emits one row per (alpha, sample,
    mechanism).
    """
    alphas = np.asarray(list(alphas), dtype=float)
    if n_samples < 1:
        raise ValueError("need at least one sample per alpha")
    baseline_prices = baseline_prices or {}

    star = solve_nash(instance, max_iter=max_iter, tol=tol)
    j_star = star.j_g
    x_star = star.x
    n = instance.n_companies * instance.n_stations

    f1_fixed_true, _ = game_map(instance, prices=np.zeros(instance.n_stations))
    g_fixed = np.full(n_samples, 0.9 * step_bound(f1_fixed_true))

    rows: list[SweepSample] = []
    eps = epsilon_bound(instance)
    eps_obs = np.zeros((alphas.size, n_samples))
    gap_b = np.zeros((alphas.size, n_samples))
    gap_o = np.zeros((alphas.size, n_samples))
    ass_ok = np.zeros((alphas.size, n_samples), dtype=bool)

    for a_idx, alpha in enumerate(alphas):
        perts = [build_perturbation(instance, alpha, _sample_seed(seed, a_idx, s))
                 for s in range(n_samples)]
        f1_rows = np.empty((n_samples,) + f1_fixed_true.shape)
        f2_rows = np.empty((n_samples, n))
        for s, pert in enumerate(perts):
            f1_rows[s], f2_rows[s] = game_map(instance, pert)
            ass_ok[a_idx, s] = check_convexity_assumption(instance, pert)
        gammas = 0.9 * step_bound(f1_rows)

        out = solve_nash_batch(instance, f2_rows, f1_rows=f1_rows, gammas=gammas,
                               max_iter=max_iter, tol=tol,
                               record_iterates=check_bounds)
        j_rsg = government_cost(out["sigma_final"], instance.government)
        for s, pert in enumerate(perts):
            rows.append(SweepSample(float(alpha), s, "rsg", float(j_rsg[s]),
                                    bool(ass_ok[a_idx, s]), bool(out["converged"][s]),
                                    float(out["residual"][s])))
            if check_bounds:
                trace = out["iterates"][:, s, :]
                gb = jg_gap_bound(instance, pert, trace, float(gammas[s]), x_star)
                gap_b[a_idx, s] = gb.bound
                gap_o[a_idx, s] = gb.observed
                eps_obs[a_idx, s] = float(best_response_gap(instance, out["x"][s]).max())

        estimates = np.array([pert.demand_estimate for pert in perts])
        for name, price in baseline_prices.items():
            f2_base = fixed_price_f2(instance, price, estimates)
            base_out = solve_nash_batch(instance, f2_base, f1=f1_fixed_true,
                                        gammas=g_fixed, max_iter=max_iter, tol=tol)
            j_base = government_cost(base_out["sigma_final"], instance.government)
            for s in range(n_samples):
                rows.append(SweepSample(float(alpha), s, name, float(j_base[s]),
                                        bool(ass_ok[a_idx, s]),
                                        bool(base_out["converged"][s]),
                                        float(base_out["residual"][s])))

    return SweepResult(rows, alphas, n_samples, eps, eps_obs, gap_b, gap_o,
                       ass_ok, j_star)


def _sample_seed(master: int, alpha_idx: int, sample: int) -> int:
    return int(np.random.SeedSequence((master, alpha_idx, sample)).generate_state(1)[0])
