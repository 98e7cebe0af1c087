"""Reachability structures and admissible allocation sets.

A company has to split a fleet of vehicles over charging stations while
every vehicle can only reach a subset of the stations (battery range).
An integer station target is realizable exactly when, for every group of
stations, the group's total target does not exceed the number of vehicles
able to reach at least one station in the group (the classic marriage
condition for many-to-one matchings).

The continuous counterpart is a polytope on the allocation simplex: for
every proper station subset S the fraction of the fleet sent into S is
capped so that rounding the continuous split up or down always leaves a
realizable integer target. Rounding itself is a largest-remainder
apportionment with a repair search over the floor/ceil lattice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
from scipy.optimize import linprog

from .errors import DegenerateFleetError, EmptyPolytopeError, InfeasibleTargetError
from .qp import PolytopeProjector

MAX_STATIONS_FOR_SUBSETS = 20


@dataclass(frozen=True)
class FeasibilityStructure:
    """Which vehicles can reach which stations, for one company.

    ``vehicle_stations[v]`` is the set of station indices vehicle ``v``
    can reach. The station-side view (set of vehicles that can reach a
    station) is derived; the two views always stay consistent.
    """

    n_stations: int
    vehicle_stations: tuple[frozenset[int], ...]
    _station_bits: tuple[int, ...] = field(init=False, repr=False, compare=False, default=())

    def __post_init__(self):
        for v, omega in enumerate(self.vehicle_stations):
            if not omega:
                raise DegenerateFleetError(f"vehicle {v} cannot reach any station")
            if min(omega) < 0 or max(omega) >= self.n_stations:
                raise ValueError(f"vehicle {v} has out-of-range station index")
        bits = [0] * self.n_stations
        for v, omega in enumerate(self.vehicle_stations):
            for j in omega:
                bits[j] |= 1 << v
        object.__setattr__(self, "_station_bits", tuple(bits))

    @property
    def n_vehicles(self) -> int:
        return len(self.vehicle_stations)

    def station_vehicles(self, j: int) -> frozenset[int]:
        """Vehicles able to reach station ``j``."""
        bits = self._station_bits[j]
        return frozenset(v for v in range(self.n_vehicles) if bits >> v & 1)

    def union_size(self, stations) -> int:
        """Number of distinct vehicles able to reach any station in the set."""
        acc = 0
        for j in stations:
            acc |= self._station_bits[j]
        return acc.bit_count()

    @classmethod
    def full(cls, n_vehicles: int, n_stations: int) -> "FeasibilityStructure":
        omega = frozenset(range(n_stations))
        return cls(n_stations, tuple(omega for _ in range(n_vehicles)))

    @classmethod
    def from_matrix(cls, reachable: np.ndarray) -> "FeasibilityStructure":
        """Build from a boolean (n_vehicles, n_stations) reachability matrix."""
        reachable = np.asarray(reachable, dtype=bool)
        sets = tuple(frozenset(np.flatnonzero(row).tolist()) for row in reachable)
        return cls(reachable.shape[1], sets)


def _check_subset_count(n_stations: int):
    if n_stations > MAX_STATIONS_FOR_SUBSETS:
        raise ValueError(
            f"subset enumeration supports at most {MAX_STATIONS_FOR_SUBSETS} "
            f"stations, got {n_stations}"
        )


def hall_condition(target: np.ndarray, feas: FeasibilityStructure) -> bool:
    """True iff the integer target admits a perfect vehicle-station matching.

    Enumerates all station subsets S and checks that the target mass inside
    S never exceeds the number of vehicles reaching into S.
    """
    target = np.asarray(target)
    m = feas.n_stations
    _check_subset_count(m)
    if np.any(target < 0):
        return False
    bits = feas._station_bits
    for mask in range(1, 1 << m):
        need = 0
        acc = 0
        for j in range(m):
            if mask >> j & 1:
                need += int(target[j])
                acc |= bits[j]
        if need > acc.bit_count():
            return False
    return True


@dataclass
class AdmissiblePolytope:
    """H-representation of one company's admissible continuous allocations.

    Rows of ``g_mat``/``h`` hold the proper-subset caps followed by the
    nonnegativity rows; membership additionally requires the entries to sum
    to one. ``feasible_point`` is None when the set is empty (degenerate
    fleet state); every other operation refuses to run on an empty set.
    """

    n_stations: int
    fleet_size: int
    subset_masks: np.ndarray       # bitmask per subset row
    g_mat: np.ndarray              # (n_sub + n_stations, n_stations)
    h: np.ndarray
    feasible_point: np.ndarray | None
    _projector: PolytopeProjector | None = field(default=None, repr=False)

    @property
    def is_empty(self) -> bool:
        return self.feasible_point is None

    @property
    def forced_zero(self) -> np.ndarray:
        """Stations whose allocation is pinned to zero by a zero subset cap."""
        out = np.zeros(self.n_stations, dtype=bool)
        n_sub = self.subset_masks.shape[0]
        for row in range(n_sub):
            if self.h[row] <= 1e-15:
                for j in range(self.n_stations):
                    if self.subset_masks[row] >> j & 1:
                        out[j] = True
        return out

    def _require_nonempty(self):
        if self.is_empty:
            raise EmptyPolytopeError("admissible allocation set is empty")

    @property
    def projector(self) -> PolytopeProjector:
        self._require_nonempty()
        if self._projector is None:
            self._projector = PolytopeProjector(self.g_mat, self.h, self.feasible_point)
        return self._projector

    def contains(self, x: np.ndarray, tol: float = 1e-9) -> bool:
        x = np.asarray(x, dtype=float)
        if self.is_empty or x.shape != (self.n_stations,):
            return False
        if abs(x.sum() - 1.0) > tol:
            return False
        return bool(np.all(self.g_mat @ x <= self.h + tol))

    def project(self, y: np.ndarray) -> np.ndarray:
        self._require_nonempty()
        return self.projector.project(y)

    def project_batch(self, y_rows: np.ndarray) -> np.ndarray:
        self._require_nonempty()
        return self.projector.project_batch(y_rows)

    def project_weighted(self, y: np.ndarray, weights: np.ndarray) -> np.ndarray:
        self._require_nonempty()
        return self.projector.project(y, weights=weights)


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
    rows = np.zeros((masks.size, m))
    rhs = np.zeros(masks.size)
    for r, mask in enumerate(masks):
        stations = [j for j in range(m) if mask >> j & 1]
        rows[r, stations] = 1.0
        cap = max(0, feas.union_size(stations) - len(stations))
        rhs[r] = cap / fleet_size

    g_mat = np.vstack([rows, -np.eye(m)]) if masks.size else -np.eye(m)
    h = np.concatenate([rhs, np.zeros(m)]) if masks.size else np.zeros(m)

    res = linprog(np.zeros(m), A_ub=g_mat, b_ub=h,
                  A_eq=np.ones((1, m)), b_eq=[1.0],
                  bounds=[(None, None)] * m, method="highs")
    feasible_point = res.x if res.status == 0 else None
    return AdmissiblePolytope(m, fleet_size, masks, g_mat, h, feasible_point)


def discretize(x: np.ndarray, feas: FeasibilityStructure, fleet_size: int) -> np.ndarray:
    """Round an admissible continuous split to a matchable integer target.

    Starts from largest-remainder apportionment (floor everything, hand the
    leftover units to the largest fractional parts) and, if the marriage
    condition fails, searches the floor/ceil lattice for a combination that
    passes. For splits inside the admissible polytope a valid combination
    always exists; exhausting the lattice therefore signals a bug upstream.
    """
    x = np.asarray(x, dtype=float)
    scaled = fleet_size * x
    floors = np.floor(scaled + 1e-9).astype(int)
    fracs = scaled - floors
    missing = int(fleet_size - floors.sum())
    if missing < 0 or missing > x.size:
        raise ValueError("input is not on the allocation simplex")

    candidates = np.flatnonzero(fracs > 1e-9)
    if missing == 0:
        # the floors are the only lattice point summing to the fleet size
        target = floors.copy()
        if hall_condition(target, feas):
            return target

    # largest-remainder order first, then the rest of the lattice
    if missing > 0:
        order = candidates[np.argsort(-fracs[candidates], kind="stable")]
        target = floors.copy()
        target[order[:missing]] += 1
        if hall_condition(target, feas):
            return target
        tried = 0
        for combo in combinations(sorted(candidates.tolist()), missing):
            target = floors.copy()
            target[list(combo)] += 1
            if hall_condition(target, feas):
                return target
            tried += 1
            if tried > 1_000_000:
                break

    raise InfeasibleTargetError(
        "no matchable rounding exists; the input split was not admissible"
    )
