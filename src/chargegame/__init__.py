"""Pricing-game coordination of electric ride-hailing fleet charging.

A numpy/scipy library covering:

* cost model and feedback pricing policies (:mod:`chargegame.model`),
* admissible allocation sets, matching feasibility, projection, and
  rounding (:mod:`chargegame.feasible`),
* decentralized Nash computation (:mod:`chargegame.equilibrium`),
* robustness to demand-estimate noise (:mod:`chargegame.robustness`),
* driver-side surge pricing (:mod:`chargegame.surge`),
* fleet/traffic simulation and parameter estimation
  (:mod:`chargegame.scenario`, :mod:`chargegame.network`),
* baselines, grid search, and the end-to-end pipeline
  (:mod:`chargegame.harness`).
"""

from .errors import (ChargeGameError, DegenerateFleetError, EmptyPolytopeError,
                     InfeasibleTargetError, PipelineStageError, ZeroGainError)
from .feasible import (FeasibilityStructure, admissible_polytope, discretize,
                       hall_condition)
from .qp import PolytopeProjector
from .model import (CompanyParams, GameInstance, GovernmentObjective,
                    StationSet, government_cost, pseudo_inverse_diag,
                    queuing_terms, setpoint_from_distribution,
                    system_optimal_prices)
from .equilibrium import (SolveReport, aggregates, apply_map, default_start,
                          game_map, solve_nash, step_bound)
from .robustness import (GapBound, Perturbation, SweepResult,
                         best_response_gap, build_perturbation,
                         check_convexity_assumption, epsilon_bound,
                         jg_gap_bound, lipschitz_bound, psi_values,
                         robustness_sweep)
from .surge import (DriverParams, Fleet, SurgeSolution, assign_vehicles,
                    equal_price_solve, per_vehicle_prices, two_step,
                    verify_zero_cost)
from .scenario import (FleetSnapshot, Scenario, ScenarioParams, build_game,
                       demo_scenario, discharge, mfd_speed, reference_game,
                       simulate_period)
from .network import RoadNetwork, grid_network, read_network, write_network
from .harness import (ExperimentConfig, GridSearchResult, grid_search,
                      run_pipeline)

__version__ = "0.1.0"
