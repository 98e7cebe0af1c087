"""Cost functions, game parameters, and the two pricing-policy families.

The upper-level game: a central authority announces per-company station
price *functions* of the joint fleet split; each company then minimizes

    queuing cost + charging cost + negative expected revenue

over its admissible allocation polytope. All matrices involved are
diagonal and are stored as 1-D arrays of their diagonals throughout.

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


def derive_queuing_params(fleet_size: int, queue_weight: np.ndarray,
                          capacity: np.ndarray):
    """Coefficients of the queuing cost in its generic quadratic form.

    Returns (quad, cross, lin) with quad = 2 N^2 q, cross = N q and
    lin = -N q m, so that

        1/2 x' quad x + x' cross sigma_others + lin' x
            ==  N x' q (N x + sigma_others - m).
    """
    queue_weight = np.asarray(queue_weight, dtype=float)
    capacity = np.asarray(capacity, dtype=float)
    if fleet_size <= 0:
        raise ValueError("fleet_size must be positive")
    if np.any(queue_weight <= 0):
        raise ValueError("queue weights must be positive")
    quad = 2.0 * fleet_size**2 * queue_weight
    cross = float(fleet_size) * queue_weight
    lin = -float(fleet_size) * queue_weight * capacity
    return quad, cross, lin


@dataclass(frozen=True)
class CompanyParams:
    """One company's cost data.

    ``demand[k]`` is the company's charging demand served at station k
    (zero for stations no vehicle of the company can reach) and
    ``revenue`` the net idle-travel-minus-expected-profit vector. The
    queuing coefficients are derived from the fleet size and the station
    set and satisfy the identities in :func:`derive_queuing_params`.
    """

    fleet_size: int
    demand: np.ndarray
    revenue: np.ndarray
    quad: np.ndarray
    cross: np.ndarray
    lin: np.ndarray

    @classmethod
    def build(cls, fleet_size: int, stations: StationSet,
              demand: np.ndarray, revenue: np.ndarray) -> "CompanyParams":
        demand = np.asarray(demand, dtype=float)
        revenue = np.asarray(revenue, dtype=float)
        if demand.shape != (stations.n,) or revenue.shape != (stations.n,):
            raise ValueError("demand and revenue must have one entry per station")
        if np.any(demand < 0):
            raise ValueError("demand entries must be nonnegative")
        quad, cross, lin = derive_queuing_params(
            fleet_size, stations.queue_weight, stations.capacity)
        return cls(fleet_size, demand, revenue, quad, cross, lin)

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
        new = tuple(
            replace(c, demand=np.asarray(d, dtype=float))
            for c, d in zip(self.companies, demand_per_company)
        )
        return replace(self, companies=new)


def queuing_cost(company: CompanyParams, x_i: np.ndarray,
                 sigma_others: np.ndarray) -> float:
    """Expected queuing cost in the generic quadratic form."""
    x_i = np.asarray(x_i, dtype=float)
    sigma_others = np.asarray(sigma_others, dtype=float)
    return float(0.5 * x_i @ (company.quad * x_i)
                 + x_i @ (company.cross * sigma_others)
                 + company.lin @ x_i)


def company_cost(company: CompanyParams, x_i: np.ndarray, sigma_others: np.ndarray,
                 prices: np.ndarray) -> float:
    """Total company cost: queuing + charging + negative expected revenue."""
    x_i = np.asarray(x_i, dtype=float)
    prices = np.asarray(prices, dtype=float)
    if prices.shape != x_i.shape:
        raise ValueError("prices must have one entry per station")
    return (queuing_cost(company, x_i, sigma_others)
            + float(x_i @ (company.demand * prices))
            + float(company.revenue @ x_i))


def _policy_terms(instance: GameInstance, i: int):
    """Per-company affine coefficients used by both policy families."""
    c = instance.companies[i]
    n_i = float(c.fleet_size)
    w = instance.government.weight
    a_bar = n_i**2 * w - c.quad
    b_bar = n_i * w - c.cross
    delta = n_i * instance.government.linear - c.lin - c.revenue
    return a_bar, b_bar, delta


def policy_bracket(instance: GameInstance, i: int, x_i: np.ndarray,
                   sigma_others: np.ndarray) -> np.ndarray:
    """The affine expression both policies scale by a demand inverse."""
    a_bar, b_bar, delta = _policy_terms(instance, i)
    x_i = np.asarray(x_i, dtype=float)
    sigma_others = np.asarray(sigma_others, dtype=float)
    return 0.5 * a_bar * x_i + b_bar * sigma_others + delta


def system_optimal_prices(instance: GameInstance, i: int, x_i: np.ndarray,
                          sigma_others: np.ndarray) -> np.ndarray:
    """Feedback prices that align the company's incentives with the authority.

    Stations with zero company demand get price exactly zero through the
    diagonal pseudo-inverse.
    """
    return instance.companies[i].demand_pinv * policy_bracket(instance, i, x_i, sigma_others)


def approximate_prices(instance: GameInstance, i: int, x_i: np.ndarray,
                       sigma_others: np.ndarray, demand_shift: np.ndarray) -> np.ndarray:
    """Policy built from a perturbed demand inverse (estimation error)."""
    demand_shift = np.asarray(demand_shift, dtype=float)
    scale = instance.companies[i].demand_pinv + demand_shift
    return scale * policy_bracket(instance, i, x_i, sigma_others)


def reduced_cost(instance: GameInstance, i: int, x_i: np.ndarray,
                 sigma_others: np.ndarray) -> float:
    """Company cost after substituting the aligned feedback prices.

    Equals 1/2 N^2 x' W x + N x' W sigma_others + N b' x, whose per-company
    gradient coincides with the authority-loss gradient (the game admits
    the authority loss as an exact potential).
    """
    c = instance.companies[i]
    n_i = float(c.fleet_size)
    w = instance.government.weight
    b = instance.government.linear
    x_i = np.asarray(x_i, dtype=float)
    sigma_others = np.asarray(sigma_others, dtype=float)
    return float(0.5 * n_i**2 * x_i @ (w * x_i)
                 + n_i * x_i @ (w * sigma_others)
                 + n_i * b @ x_i)
