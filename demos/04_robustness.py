"""How much does the mechanism lose when demand is only estimated?

The feedback prices need each company's demand diagonal. Here the
authority works from noisy estimates at increasing noise levels; for each
level the noise is redrawn many times and the attained authority loss is
compared against two fixed-price baselines evaluated on the same samples,
together with the theoretical suboptimality and loss-gap bounds.
"""

import numpy as np

from chargegame import build_game, demo_scenario, epsilon_bound, robustness_sweep

instance = build_game(demo_scenario()).instance
baselines = {
    "p1": np.array([2.75, 1.625, 2.208, 1.0]),
    "p2": np.array([4.03, 2.8, 3.49, 2.24]),
}

alphas = (0.0, 0.05, 0.1, 0.15, 0.25, 0.35)
sweep = robustness_sweep(instance, alphas, 30, baselines, seed=5)

print("unperturbed optimum:", f"{sweep.j_star:.2e}")
print("deviation-gain bound (any company, any sample):",
      f"{epsilon_bound(instance):.3g}")
print("\nmeans over converged solves; unconverged ones are excluded")
print("\n  alpha |  feedback |        p1 |        p2 | excluded (feedback/p1/p2)")
excluded = {name: sweep.excluded(name) for name in ("rsg", "p1", "p2")}
for k, alpha in enumerate(alphas):
    print(f"  {alpha:5.2f} | {sweep.mean('rsg')[k]:9.3f}"
          f" | {sweep.mean('p1')[k]:9.1f} | {sweep.mean('p2')[k]:9.1f}"
          f" | {excluded['rsg'][k]}/{excluded['p1'][k]}/{excluded['p2'][k]}")

ok = sweep.assumption_ok
print("\nconvexity assumption held on "
      f"{int(ok.sum())}/{ok.size} samples")
print("loss-gap bound held on every such sample:",
      bool(np.all(sweep.gap_observed[ok] <= sweep.gap_bounds[ok] + 1e-9)))
print("worst observed best-response gain:",
      f"{sweep.eps_observed[ok].max():.3g} (bound {sweep.eps_bound:.3g})")
