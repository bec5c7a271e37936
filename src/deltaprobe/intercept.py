"""Linear model of the fixed-delay intercept across paths.

The intercept of the delay-vs-size line grows with the number of routers on
the path (per-hop processing) and with its geographic length (propagation),
so it is modeled as a = alpha * n + beta * l with no constant term. Fitting
many (path features, measured intercept) observations yields coefficients
that predict the intercept of unmeasured paths.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import estimator
from .errors import InsufficientObservations, NonFiniteModel, RankDeficient
from .estimator import BandwidthEstimate, SizeDelayPoint
from .records import check_fields


@dataclass(frozen=True)
class PathFeatures:
    """Per-path covariates: router count (from TTL probing) and route length."""

    path_id: str
    hop_count_n: int
    route_length_l_km: float

    def __post_init__(self):
        check_fields(self)
        if self.hop_count_n < 1:
            raise ValueError(f"hop_count_n must be >= 1, got {self.hop_count_n}")
        if not 0 <= self.route_length_l_km < math.inf:
            raise ValueError(f"route_length_l_km must be >= 0 and finite, got {self.route_length_l_km}")


class InvalidObservation(ValueError):
    """An observation column breaks a rule; `index` is the first offending row."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


class Observations:
    """(path features, measured intercept) observations as columns.

    `path_id` is a tuple of str, `hop_count_n` an int64 array and
    `route_length_l_km` and `a_s` float64 arrays. The constructor checks
    every PathFeatures rule at once, plus finite route lengths and
    intercepts; a failed check raises InvalidObservation naming the first
    bad row.
    """

    __slots__ = ("path_id", "hop_count_n", "route_length_l_km", "a_s")

    def __init__(self, path_id, hop_count_n, route_length_l_km, a_s):
        self.path_id = tuple(path_id)
        self.hop_count_n = np.asarray(hop_count_n, dtype=np.int64)
        self.route_length_l_km = np.asarray(route_length_l_km, dtype=np.float64)
        self.a_s = np.asarray(a_s, dtype=np.float64)
        columns = (self.hop_count_n, self.route_length_l_km, self.a_s)
        if any(c.shape != (len(self.path_id),) for c in columns):
            raise ValueError("observation columns differ in length or are not 1-D")
        n, l_km, a_s = columns
        # min and max propagate NaN, so these reductions pass exactly the
        # valid columns; only a failure reads the rules row by row
        if (n.min(initial=1) >= 1 and 0 <= l_km.min(initial=0) and l_km.max(initial=0) < np.inf
                and -np.inf < a_s.min(initial=0) and a_s.max(initial=0) < np.inf):
            return
        rules = (
            (n >= 1, "hop_count_n must be >= 1", n),
            ((l_km >= 0) & (l_km < np.inf), "route_length_l_km must be >= 0 and finite", l_km),
            (np.isfinite(a_s), "a_s must be finite", a_s),
        )
        bad = np.flatnonzero(~np.logical_and.reduce([ok for ok, _, _ in rules]))
        if bad.size:
            index = int(bad[0])
            message, values = next((m, v) for ok, m, v in rules if not ok[index])
            raise InvalidObservation(index, f"{message}, got {values[index]}")

    @classmethod
    def from_rows(cls, rows: Sequence[tuple[PathFeatures, float]]) -> "Observations":
        """The batch itself, or a batch of (PathFeatures, a_s) rows."""
        if isinstance(rows, cls):
            return rows
        return cls([f.path_id for f, _ in rows], [f.hop_count_n for f, _ in rows],
                   [f.route_length_l_km for f, _ in rows], [a for _, a in rows])

    def __len__(self) -> int:
        return len(self.path_id)


@dataclass(frozen=True)
class InterceptModel:
    """Fitted coefficients of the intercept model."""

    alpha_s_per_hop: float
    beta_s_per_km: float
    residual_rms_s: float
    n_observations: int
    const_s: float = 0.0  # nonzero only when fitted with include_constant

    def __post_init__(self):
        if self.n_observations < 2:
            raise ValueError("n_observations must be >= 2")
        if self.residual_rms_s < 0:
            raise ValueError("residual_rms_s must be nonnegative")


def fit_intercept_model(
    observations: Observations | Sequence[tuple[PathFeatures, float]],
    *,
    include_constant: bool = False,
) -> InterceptModel:
    """Least-squares alpha, beta minimizing sum (a_i - alpha*n_i - beta*l_i)^2.

    The model has no constant term by default; `include_constant` adds one
    for experimentation. Raises RankDeficient when the (n, l) rows are
    collinear, InsufficientObservations below two observations and
    NonFiniteModel when the fit overflows float64.
    """
    obs = Observations.from_rows(observations)
    if len(obs) < 2:
        raise InsufficientObservations(f"need >= 2 observations, got {len(obs)}")
    columns = [obs.hop_count_n, obs.route_length_l_km]
    if include_constant:
        columns.append(np.ones(len(obs)))
    design = np.column_stack(columns)
    targets = obs.a_s

    coef, _, rank, _ = np.linalg.lstsq(design, targets, rcond=None)
    if rank < design.shape[1]:
        raise RankDeficient(
            "hop-count/route-length rows are collinear; cannot separate "
            "alpha from beta"
        )
    residuals = targets - design @ coef
    with np.errstate(over="ignore"):
        rms = float(np.sqrt(np.mean(residuals**2)))
    coef = coef.tolist()
    if not all(map(math.isfinite, [*coef, rms])):
        raise NonFiniteModel(f"the fitted model overflows float64: coefficients {coef}, "
                             f"residual rms {rms}")
    return InterceptModel(
        alpha_s_per_hop=coef[0],
        beta_s_per_km=coef[1],
        residual_rms_s=rms,
        n_observations=len(obs),
        const_s=coef[2] if include_constant else 0.0,
    )


def predict_intercept(model: InterceptModel, features: PathFeatures) -> float:
    """Predicted fixed-delay intercept (seconds) for a path."""
    return (
        model.alpha_s_per_hop * features.hop_count_n
        + model.beta_s_per_km * features.route_length_l_km
        + model.const_s
    )


def estimate_with_model(
    point: SizeDelayPoint, model: InterceptModel, features: PathFeatures
) -> BandwidthEstimate:
    """Single-point bandwidth estimate using the model-predicted intercept."""
    return estimator.estimate_from_intercept(point, predict_intercept(model, features))
