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
realizable integer target. Rounding itself is a largest-remainder
apportionment; when that target is not matchable, one assignment solve
picks the matchable floor/ceil point that keeps the largest remainders.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import DegenerateFleetError, EmptyPolytopeError, InfeasibleTargetError
from .qp import PolytopeProjector

MAX_STATIONS_FOR_SUBSETS = 20


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


def _check_subset_count(n_stations: int):
    if n_stations > MAX_STATIONS_FOR_SUBSETS:
        raise ValueError(
            f"subset enumeration supports at most {MAX_STATIONS_FOR_SUBSETS} "
            f"stations, got {n_stations}"
        )


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


@dataclass
class AdmissiblePolytope:
    """H-representation of one company's admissible continuous allocations.

    Rows of ``g_mat``/``h`` hold the proper-subset caps followed by the
    nonnegativity rows; membership additionally requires the entries to sum
    to one. ``projector`` is built with the polytope and decides emptiness
    (degenerate fleet state); every other operation refuses to run on an
    empty set.
    """

    n_stations: int
    fleet_size: int
    subset_masks: np.ndarray       # bitmask per subset row
    g_mat: np.ndarray              # (n_sub + n_stations, n_stations)
    h: np.ndarray
    projector: PolytopeProjector = field(repr=False)

    @property
    def is_empty(self) -> bool:
        return self.projector.is_empty

    @property
    def forced_zero(self) -> np.ndarray:
        """Stations whose allocation is pinned to zero by a zero subset cap."""
        zero = self.subset_masks[self.h[:self.subset_masks.size] <= 1e-15]
        return (zero[:, None] >> np.arange(self.n_stations) & 1).astype(bool).any(axis=0)

    def _require_nonempty(self):
        if self.is_empty:
            raise EmptyPolytopeError("admissible allocation set is empty")

    def contains(self, x: np.ndarray, tol: float = 1e-9) -> bool:
        x = np.asarray(x, dtype=float)
        if self.is_empty or x.shape != (self.n_stations,):
            return False
        if abs(x.sum() - 1.0) > tol:
            return False
        return bool(np.all(self.g_mat @ x <= self.h + tol))

    def project(self, y: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
        self._require_nonempty()
        return self.projector.project(y, weights)

    def project_batch(self, y_rows: np.ndarray) -> np.ndarray:
        self._require_nonempty()
        return self.projector.project_batch(y_rows)


def admissible_polytope(feas: FeasibilityStructure, fleet_size: int) -> AdmissiblePolytope:
    """Build the admissible polytope for a company.

    One inequality per proper nonempty station subset S:

        sum_{j in S} x_j  <=  max(0, |union of reach sets over S| - |S|) / fleet_size

    plus nonnegativity and the unit-sum equality. Membership guarantees
    that rounding to an integer target within the floor/ceil lattice stays
    matchable.
    """
    m = feas.n_stations
    _check_subset_count(m)
    if fleet_size <= 0:
        raise ValueError("fleet_size must be positive")
    if feas.n_vehicles != fleet_size:
        raise ValueError("fleet_size does not match the feasibility structure")

    masks = np.arange(1, 1 << m, dtype=np.int64)
    masks = masks[masks != (1 << m) - 1]  # proper subsets only
    members = (masks[:, None] >> np.arange(m) & 1).astype(bool)
    # distinct vehicles reaching into each subset, less one per station in it
    caps = (members @ feas.reach.T).sum(axis=1) - members.sum(axis=1)
    rows = members.astype(float)
    rhs = np.maximum(caps, 0) / fleet_size

    g_mat = np.vstack([rows, -np.eye(m)]) if masks.size else -np.eye(m)
    h = np.concatenate([rhs, np.zeros(m)]) if masks.size else np.zeros(m)
    return AdmissiblePolytope(m, fleet_size, masks, g_mat, h, PolytopeProjector(g_mat, h))


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
