"""Upper-level pricing game on the reference-scale instance.

Three companies with 194/181/157 vehicles to charge split themselves over
four stations. The authority announces feedback prices that turn its own
loss into the game's potential, so the decentralized iteration drives the
aggregate straight to the target counts.
"""

import numpy as np

from chargegame import (game_map, reference_game, solve_nash, step_bound,
                        system_optimal_prices)

game = reference_game(seed=0)
print("stations:", game.n_stations, "| companies:", game.n_companies)
print("target counts per station:", game.government.set_point)
print("admissible step sizes: (0, %.3e)" % step_bound(game_map(game)[0]))

report = solve_nash(game)
print(f"\nconverged in {report.iterations} iterations "
      f"(fixed-point residual {report.residuals[-1]:.2e})")
print("authority loss along the run:",
      " -> ".join(f"{v:.3g}" for v in report.j_g_trace[:: max(1, report.iterations // 6)]))
print("aggregate at equilibrium:", np.round(report.sigma, 3))

print("\nper-company splits and the prices they see at equilibrium:")
for i in range(game.n_companies):
    x_i = report.blocks[i]
    sigma_others = report.sigma - game.fleet_sizes[i] * x_i
    prices = system_optimal_prices(game, i, x_i, sigma_others)
    print(f"  company {i + 1}: x = {np.round(x_i, 3)}  p = {np.round(prices, 2)}")

flat = solve_nash(game, prices=np.full(4, 3.0))
print("\nflat 3.0 price for comparison: loss",
      f"{flat.j_g:.1f} at aggregate {np.round(flat.sigma, 1)}")
print("feedback prices reach loss", f"{report.j_g:.2e}")
