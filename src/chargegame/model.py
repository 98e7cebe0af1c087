"""Game data, the queuing cost model, and the aligned feedback prices.

The upper-level game: a central authority announces per-company station
price *functions* of the joint fleet split; each company then minimizes

    N x' q (N x + sigma_others - capacity)  +  x' (demand * prices)  +  revenue' x,

queuing cost plus charging cost minus expected revenue, over its
admissible allocation polytope. All matrices involved are diagonal and
are stored as 1-D arrays of their diagonals throughout. `CompanyParams`
holds a company's data only; `queuing_terms` is the one place the
queuing cost becomes coefficients, and the game map
(`equilibrium.game_map`) and the policies read them from it.

Conventions:
  * ``sigma`` is the aggregate vehicle count per station, sum_i N_i x^i.
  * Diagonal pseudo-inverses map zero entries to zero, which pins the
    price of stations a company cannot use at exactly zero.
  * The authority's loss has a canonical quadratic form
    1/2 sigma' W sigma + b' sigma; when it was built from a target count
    per station it is reported in the equivalent shifted form
    1/2 ||sigma - target||^2_W so that the attainable optimum reads 0.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .qp import PolytopeProjector

PSEUDO_INVERSE_TOL = 1e-12


def pseudo_inverse_diag(d: np.ndarray) -> np.ndarray:
    """Reciprocal of nonzero diagonal entries, zero elsewhere."""
    d = np.asarray(d, dtype=float)
    out = np.zeros_like(d)
    mask = np.abs(d) >= PSEUDO_INVERSE_TOL
    out[mask] = 1.0 / d[mask]
    return out


@dataclass(frozen=True)
class StationSet:
    """Charging stations: capacities and congestion weights.

    ``capacity[j]`` is the number of simultaneous charging spots at
    station j; ``queue_weight[j]`` scales the cost of exceeding it.
    """

    capacity: np.ndarray
    queue_weight: np.ndarray

    def __post_init__(self):
        cap = np.asarray(self.capacity, dtype=float)
        qw = np.asarray(self.queue_weight, dtype=float)
        if cap.ndim != 1 or qw.shape != cap.shape:
            raise ValueError("capacity and queue_weight must be matching 1-D arrays")
        if cap.size < 1:
            raise ValueError("need at least one station")
        if np.any(cap <= 0) or np.any(qw <= 0):
            raise ValueError("capacities and queue weights must be positive")
        object.__setattr__(self, "capacity", cap)
        object.__setattr__(self, "queue_weight", qw)

    @property
    def n(self) -> int:
        return self.capacity.size


@dataclass(frozen=True)
class CompanyParams:
    """One company's cost data.

    ``demand[k]`` is the company's charging demand served at station k
    (zero for stations no vehicle of the company can reach) and
    ``revenue`` the net idle-travel-minus-expected-profit vector. The
    queuing cost is not stored: :func:`queuing_terms` forms it from the
    fleet sizes and the station set.
    """

    fleet_size: int
    demand: np.ndarray
    revenue: np.ndarray

    def __post_init__(self):
        demand = np.asarray(self.demand, dtype=float)
        revenue = np.asarray(self.revenue, dtype=float)
        if self.fleet_size <= 0:
            raise ValueError("fleet_size must be positive")
        if demand.ndim != 1 or revenue.shape != demand.shape:
            raise ValueError("demand and revenue must be matching 1-D arrays")
        if np.any(demand < 0):
            raise ValueError("demand entries must be nonnegative")
        object.__setattr__(self, "demand", demand)
        object.__setattr__(self, "revenue", revenue)

    @property
    def demand_pinv(self) -> np.ndarray:
        return pseudo_inverse_diag(self.demand)


@dataclass(frozen=True)
class GovernmentObjective:
    """Authority loss 1/2 sigma' diag(weight) sigma + linear' sigma.

    When built from a target vehicle count per station, ``set_point``
    holds the target and ``linear`` equals ``-weight * set_point``.
    """

    weight: np.ndarray
    linear: np.ndarray
    set_point: np.ndarray | None = None

    def __post_init__(self):
        w = np.asarray(self.weight, dtype=float)
        b = np.asarray(self.linear, dtype=float)
        if w.ndim != 1 or b.shape != w.shape:
            raise ValueError("weight and linear must be matching 1-D arrays")
        if np.any(w <= 0):
            raise ValueError("weight diagonal must be positive")
        object.__setattr__(self, "weight", w)
        object.__setattr__(self, "linear", b)
        if self.set_point is not None:
            sp = np.asarray(self.set_point, dtype=float)
            if sp.shape != w.shape:
                raise ValueError("set_point must match the station count")
            object.__setattr__(self, "set_point", sp)

    @classmethod
    def from_set_point(cls, weight: np.ndarray, set_point: np.ndarray) -> "GovernmentObjective":
        weight = np.asarray(weight, dtype=float)
        set_point = np.asarray(set_point, dtype=float)
        return cls(weight, -weight * set_point, set_point)

    @classmethod
    def from_distribution(cls, weight: np.ndarray, fleet_sizes,
                          share: np.ndarray) -> "GovernmentObjective":
        set_point = setpoint_from_distribution(fleet_sizes, share)
        return cls.from_set_point(weight, set_point)


def setpoint_from_distribution(fleet_sizes, share: np.ndarray) -> np.ndarray:
    """Target count per station: total charging fleet times desired share."""
    share = np.asarray(share, dtype=float)
    fleet_sizes = np.asarray(fleet_sizes, dtype=float)
    if np.any(fleet_sizes <= 0):
        raise ValueError("fleet sizes must be positive")
    if np.any(share < -1e-9) or abs(share.sum() - 1.0) > 1e-9:
        raise ValueError("share must lie on the probability simplex")
    return float(fleet_sizes.sum()) * share


def government_cost(sigma: np.ndarray, objective: GovernmentObjective):
    """Authority loss at an aggregate allocation, or at a stack of them.

    ``sigma`` is (..., n_stations); a single aggregate gives a float, a
    stack gives one loss per aggregate. Reported in set-point form when a
    set point exists (so the attainable optimum reads 0); the two forms
    differ by the constant 1/2 set_point' W set_point.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape[-1:] != objective.weight.shape:
        raise ValueError("sigma has the wrong length")
    w = objective.weight
    if objective.set_point is not None:
        diff = sigma - objective.set_point
        loss = 0.5 * np.sum(w * diff * diff, axis=-1)
    else:
        loss = 0.5 * np.sum(sigma * (w * sigma), axis=-1) + sigma @ objective.linear
    return float(loss) if sigma.ndim == 1 else loss


@dataclass(frozen=True)
class GameInstance:
    """Everything that defines the pricing game for a fixed fleet state."""

    stations: StationSet
    government: GovernmentObjective
    companies: tuple[CompanyParams, ...]
    polytopes: tuple[PolytopeProjector, ...]

    def __post_init__(self):
        if len(self.companies) != len(self.polytopes):
            raise ValueError("one polytope per company required")
        for c in self.companies:
            if c.demand.shape != (self.stations.n,):
                raise ValueError("company data does not match the station count")

    @property
    def n_companies(self) -> int:
        return len(self.companies)

    @property
    def n_stations(self) -> int:
        return self.stations.n

    @property
    def fleet_sizes(self) -> np.ndarray:
        return np.array([c.fleet_size for c in self.companies], dtype=float)

    def with_demand(self, demand_per_company) -> "GameInstance":
        """Copy of the instance with replaced company demand diagonals."""
        new = tuple(replace(c, demand=d) for c, d in zip(self.companies, demand_per_company))
        return replace(self, companies=new)


def queuing_terms(instance: GameInstance):
    """The queuing cost of every company, as coefficients of its gradient.

    Company i's queuing cost N_i x_i' q (N_i x_i + sigma_others - capacity)
    has the gradient 2 N_i^2 q x_i + cross_i sigma_others + lin_i, which is
    block row i of hessian x plus lin_i for the stacked x. Returns

    * ``hessian`` (m, mc, mc): station block k is q_k (N N' + diag(N^2)),
      so company i's own curvature is 2 N_i^2 q on the diagonal;
    * ``cross`` (mc, m): N_i q, the weight of the other companies' aggregate;
    * ``lin`` (mc, m): -N_i q capacity.
    """
    q = instance.stations.queue_weight
    n_vec = instance.fleet_sizes
    hessian = q[:, None, None] * (np.outer(n_vec, n_vec) + np.diag(n_vec**2))
    cross = n_vec[:, None] * q
    lin = -n_vec[:, None] * q * instance.stations.capacity
    return hessian, cross, lin


def _policy_terms(instance: GameInstance):
    """Affine coefficients (a_bar, b_bar, delta) of the feedback policies,
    each (mc, m) with one row per company."""
    hessian, cross, lin = queuing_terms(instance)
    n_vec = instance.fleet_sizes[:, None]
    w = instance.government.weight
    revenue = np.stack([c.revenue for c in instance.companies])
    a_bar = n_vec**2 * w - np.diagonal(hessian, axis1=1, axis2=2).T
    b_bar = n_vec * w - cross
    delta = n_vec * instance.government.linear - lin - revenue
    return a_bar, b_bar, delta


def system_optimal_prices(instance: GameInstance, i: int, x_i: np.ndarray,
                          sigma_others: np.ndarray) -> np.ndarray:
    """Feedback prices that align the company's incentives with the authority.

    The company's inverse demand times 1/2 a_bar x_i + b_bar sigma_others +
    delta. Under them its cost is 1/2 N^2 x' W x + N x' W sigma_others +
    N b' x, whose gradient is the authority-loss gradient, so the game
    admits the authority loss as an exact potential. Stations with zero
    company demand get price exactly zero through the diagonal
    pseudo-inverse.
    """
    a_bar, b_bar, delta = (t[i] for t in _policy_terms(instance))
    x_i = np.asarray(x_i, dtype=float)
    sigma_others = np.asarray(sigma_others, dtype=float)
    bracket = 0.5 * a_bar * x_i + b_bar * sigma_others + delta
    return instance.companies[i].demand_pinv * bracket
