"""Reachability structures and admissible allocation sets.

A company has to split a fleet of vehicles over charging stations while
every vehicle can only reach a subset of the stations (battery range).
An integer station target is realizable exactly when its vehicle-to-slot
matching exists: each station j offers ``target[j]`` slots, and every
slot must get its own vehicle able to reach that station (a bipartite
b-matching; Gale, *A theorem on flows in networks*, 1957). Every
matching question in the package, and the min-cost assignment of the
shared surge price, is one ``linear_sum_assignment`` on a
vehicles x slots cost matrix (``_assign_slots``).

The continuous counterpart is a polytope on the allocation simplex: for
every proper station subset S the fraction of the fleet sent into S is
capped so that rounding the continuous split up or down always leaves a
realizable integer target. ``admissible_polytope`` returns it as one
``qp.PolytopeProjector`` holding those caps as vehicle counts, which
answers emptiness, membership and projection. Rounding itself is a
largest-remainder apportionment; when that target is not matchable, one
assignment solve picks the matchable floor/ceil point that keeps the
largest remainders.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import DegenerateFleetError, InfeasibleTargetError
from .qp import PolytopeProjector, _members


@dataclass(frozen=True, eq=False)
class FeasibilityStructure:
    """Which vehicles can reach which stations, for one company.

    ``reach`` is a read-only boolean (n_vehicles, n_stations) matrix:
    ``reach[v, j]`` says vehicle ``v`` can reach station ``j``. It is the
    only stored form of the relation; every vehicle reaches some station.
    """

    reach: np.ndarray

    def __post_init__(self):
        reach = np.array(self.reach, dtype=bool)
        if reach.ndim != 2:
            raise ValueError("reach must be a (n_vehicles, n_stations) matrix")
        dead = np.flatnonzero(~reach.any(axis=1))
        if dead.size:
            raise DegenerateFleetError(f"vehicle {dead[0]} cannot reach any station")
        reach.flags.writeable = False
        object.__setattr__(self, "reach", reach)

    @property
    def n_vehicles(self) -> int:
        return self.reach.shape[0]

    @property
    def n_stations(self) -> int:
        return self.reach.shape[1]

    @classmethod
    def full(cls, n_vehicles: int, n_stations: int) -> "FeasibilityStructure":
        return cls(np.ones((n_vehicles, n_stations), dtype=bool))


def _assign_slots(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Min-cost assignment of vehicles (rows) to station slots (columns).

    A slot is one unit of one station; ``cost`` is +inf where the vehicle
    cannot reach the slot's station. The assignment fills the smaller side:
    every slot when there are no more slots than vehicles, every vehicle
    otherwise. Returns the (vehicle, slot) index pairs, or None when no
    assignment fills that side.
    """
    try:
        return linear_sum_assignment(cost)
    except ValueError:          # scipy: the cost matrix is infeasible
        return None


def hall_condition(target: np.ndarray, feas: FeasibilityStructure) -> bool:
    """True iff every slot of the integer target can get its own vehicle.

    Station j needs ``target[j]`` distinct vehicles that reach it; this is
    the marriage condition (no station group needs more vehicles than reach
    into it), decided by one assignment solve. A target summing to less
    than the fleet passes when its slots fill; a negative target fails.
    """
    target = np.asarray(target)
    if np.any(target < 0) or target.sum() > feas.n_vehicles:
        return False
    slots = np.repeat(np.arange(feas.n_stations), target.astype(int))
    return _assign_slots(np.where(feas.reach[:, slots], 0.0, np.inf)) is not None


def admissible_polytope(feas: FeasibilityStructure, fleet_size: int) -> PolytopeProjector:
    """Build the admissible polytope for a company.

    One inequality per proper nonempty station subset S:

        sum_{j in S} x_j  <=  max(0, |union of reach sets over S| - |S|) / fleet_size

    plus nonnegativity and the unit-sum equality. Membership guarantees
    that rounding to an integer target within the floor/ceil lattice stays
    matchable. The caps are kept as vehicle counts; the returned projector
    is the polytope, and decides its emptiness (a degenerate fleet state).
    """
    if fleet_size <= 0:
        raise ValueError("fleet_size must be positive")
    if feas.n_vehicles != fleet_size:
        raise ValueError("fleet_size does not match the feasibility structure")

    members = _members(feas.n_stations)     # refuses too many stations
    # distinct vehicles reaching into each subset, less one per station in it
    caps = np.maximum((members @ feas.reach.T).sum(axis=1) - members.sum(axis=1), 0)
    caps[-1] = fleet_size
    return PolytopeProjector(caps, fleet_size)


def discretize(x: np.ndarray, feas: FeasibilityStructure, fleet_size: int) -> np.ndarray:
    """Round an admissible continuous split to a matchable integer target.

    Candidates are the floor/ceil lattice points summing to the fleet size:
    the floors plus one extra unit at some of the stations with a
    fractional part. One assignment solve over the floors' slots (cost -1
    each) and one optional slot per fractional station (cost -2^-(r+2) for
    the station of remainder rank r, largest remainder first) finds a
    point whose slots all fill. The optional costs sum to less than a
    half, so filling every floor slot comes first; among those points the
    solve keeps the largest remainders. The result is the largest-remainder
    apportionment whenever that is matchable, otherwise the matchable
    lattice point that keeps the largest remainders. For splits inside the
    admissible polytope a matchable point always exists; raising
    ``InfeasibleTargetError`` therefore signals a bug upstream.
    """
    x = np.asarray(x, dtype=float)
    scaled = fleet_size * x
    floors = np.floor(scaled + 1e-9).astype(int)
    fracs = scaled - floors
    missing = int(fleet_size - floors.sum())
    candidates = np.flatnonzero(fracs > 1e-9)
    if np.any(floors < 0) or missing < 0 or missing > candidates.size:
        raise ValueError("input is not on the allocation simplex")

    order = candidates[np.argsort(-fracs[candidates], kind="stable")]
    mandatory = np.repeat(np.arange(x.size), floors)
    stations = np.concatenate([mandatory, order])
    slot_cost = np.concatenate([np.full(mandatory.size, -1.0),
                                -0.5 ** (np.arange(order.size) + 2.0)])
    match = _assign_slots(np.where(feas.reach[:, stations], slot_cost, np.inf))
    if match is None or np.count_nonzero(match[1] < mandatory.size) < mandatory.size:
        raise InfeasibleTargetError(
            "no matchable rounding exists; the input split was not admissible"
        )
    return np.bincount(stations[match[1]], minlength=x.size)
