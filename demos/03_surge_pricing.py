"""Lower level: from a continuous split to actual drivers at stations.

Takes the equilibrium split of each company, rounds it to a matchable
integer target, and picks surge prices so that every revenue-maximizing
driver chooses its intended station voluntarily. The shared-price variant
is tried first; individualized prices are the exact fallback.
"""

import numpy as np

from chargegame import (build_game, demo_scenario, discretize, solve_nash,
                        system_optimal_prices, two_step, verify_zero_cost)
from chargegame.surge import surge_price_rows

build = build_game(demo_scenario())
instance = build.instance
report = solve_nash(instance)
print("upper level done: loss", f"{report.j_g:.2e}")

solutions = []

for i in range(instance.n_companies):
    x_i = report.blocks[i]
    sigma_others = report.sigma - instance.fleet_sizes[i] * x_i
    prices = system_optimal_prices(instance, i, x_i, sigma_others)
    drivers = build.drivers[i]
    target = discretize(x_i, build.feas[i])

    solution = two_step(target, drivers, prices)
    solutions.append(solution)
    check = verify_zero_cost(solution, target, drivers, prices)
    nonzero = solution.surge[solution.surge > 0]
    print(f"\ncompany {i + 1}: target {target.tolist()} via {solution.mode}"
          f" ({solution.solver_info})")
    print(f"  tracking cost {solution.j_m}, responses verified: {bool(check)}")
    if nonzero.size:
        print(f"  nonzero surge prices: {nonzero.size} "
              f"(median {np.median(nonzero):.2f}, max {nonzero.max():.2f})")
    else:
        print("  no surge needed: drivers already prefer their targets")

rows = list(surge_price_rows(solutions))
print(f"\nsurge_prices.csv preview ({len(rows) - 1} nonzero rows):")
for line in rows[:4]:
    print(" ", line)
