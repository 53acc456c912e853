"""Performance Estimators.

"The Performance Estimator generates a performance estimate for candidate
schedules according to the user's performance metric" (§4.1).  §3.1 lists
the common criteria — execution time, speedup, cost — and stresses that
*distinct users optimise the same resources for different metrics at the
same time*.  Every estimator here returns an **objective to minimise** so
the Coordinator can compare candidates uniformly; the human-readable value
of the metric is available separately.
"""

from __future__ import annotations

from typing import Callable, Protocol, Sequence

import numpy as np

from repro.core.infopool import InformationPool
from repro.core.planner import ordered_sum
from repro.core.schedule import Schedule

__all__ = [
    "PerformanceEstimator",
    "ExecutionTimeEstimator",
    "SpeedupEstimator",
    "CostEstimator",
    "make_estimator",
]


class PerformanceEstimator(Protocol):
    """Protocol: score a candidate schedule (lower objective = better).

    Estimators may optionally implement two array hooks, each scoring a
    whole candidate space at once with the same IEEE operations as the
    Schedule-based :meth:`objective`:

    - ``objective_lower_bounds(time_lbs, members, names, info) -> ndarray``
      — admissible objective bounds given lower bounds on predicted time,
      one per candidate set, with the sets' ``(m, n)`` membership mask
      over ``names`` (any order), used by the Coordinator's pruning.
      Estimators without it disable pruning (never changing any decision).
    - ``objectives_from_predictions(predicted, kept, names, info) ->
      ndarray`` — the objective of each batched plan from its predicted
      time and kept-member mask over ``names`` (the strip order), used by
      batched decisions.  Without it a decision does not batch, and its
      sweep plans every row it reaches.
    """

    def objective(self, schedule: Schedule, info: InformationPool) -> float:
        """The quantity the Coordinator minimises."""
        ...

    def metric_value(self, schedule: Schedule, info: InformationPool) -> float:
        """The user-facing value of the metric (e.g. actual speedup)."""
        ...


class ExecutionTimeEstimator:
    """Minimise predicted execution time — the Jacobi2D paper metric (§5)."""

    name = "execution_time"

    def objective(self, schedule: Schedule, info: InformationPool) -> float:
        return schedule.predicted_time

    def metric_value(self, schedule: Schedule, info: InformationPool) -> float:
        return schedule.predicted_time

    def objective_lower_bounds(
        self,
        time_lbs: np.ndarray,
        members: np.ndarray,
        names: Sequence[str],
        info: InformationPool,
    ) -> np.ndarray:
        """Objective is the time itself, so the time bounds are the bounds."""
        return time_lbs

    def objectives_from_predictions(
        self,
        predicted: np.ndarray,
        kept: np.ndarray,
        names: Sequence[str],
        info: InformationPool,
    ) -> np.ndarray:
        """:meth:`objective` for many batched plans, without Schedules.

        ``predicted`` holds each plan's predicted time and ``kept`` its
        ``(k, n)`` kept-member mask over ``names``, listed in allocation
        order — what :attr:`Schedule.resource_set` would be.  The batched
        sweeps score candidates from predicted times alone, so every
        estimator mirrors its objective here with the exact same
        arithmetic.
        """
        return predicted


class SpeedupEstimator:
    """Maximise predicted speedup over the best single-machine run (§3.1).

    ``baseline`` supplies the single-machine reference time; by default it
    is computed lazily as the best predicted time over all singleton
    resource sets using a caller-provided planner.
    """

    name = "speedup"

    def __init__(self, baseline: float | Callable[[InformationPool], float]) -> None:
        self._baseline = baseline
        self._cached: float | None = None

    def _baseline_time(self, info: InformationPool) -> float:
        if self._cached is None:
            self._cached = (
                self._baseline(info) if callable(self._baseline) else float(self._baseline)
            )
            if self._cached <= 0:
                raise ValueError("speedup baseline must be positive")
        return self._cached

    def objective(self, schedule: Schedule, info: InformationPool) -> float:
        # Maximising speedup == minimising time/baseline.
        return schedule.predicted_time / self._baseline_time(info)

    def metric_value(self, schedule: Schedule, info: InformationPool) -> float:
        if schedule.predicted_time <= 0:
            return float("inf")
        return self._baseline_time(info) / schedule.predicted_time

    def objective_lower_bounds(
        self,
        time_lbs: np.ndarray,
        members: np.ndarray,
        names: Sequence[str],
        info: InformationPool,
    ) -> np.ndarray:
        """Monotone in time: bound / baseline bounds the objective below."""
        return time_lbs / self._baseline_time(info)

    def objectives_from_predictions(
        self,
        predicted: np.ndarray,
        kept: np.ndarray,
        names: Sequence[str],
        info: InformationPool,
    ) -> np.ndarray:
        """:meth:`objective` without Schedules (same division, same floats)."""
        return predicted / self._baseline_time(info)


class CostEstimator:
    """Minimise monetary cost of cycles (§3.1's "cost of execution cycles").

    Cost = predicted time × sum of the per-second rates of the machines
    used (from the User Specifications); machines without a listed rate are
    free.  ``time_weight`` blends execution time back in so ties break
    toward faster schedules.
    """

    name = "cost"

    def __init__(self, time_weight: float = 0.0) -> None:
        if time_weight < 0:
            raise ValueError("time_weight must be >= 0")
        self.time_weight = time_weight

    def _cost(self, schedule: Schedule, info: InformationPool) -> float:
        rates = info.userspec.cost_per_cpu_second
        # Plain left-to-right addition, as objectives_from_predictions.
        rate_sum = ordered_sum(rates.get(m, 0.0) for m in schedule.resource_set)
        return schedule.predicted_time * rate_sum

    def objective(self, schedule: Schedule, info: InformationPool) -> float:
        return self._cost(schedule, info) + self.time_weight * schedule.predicted_time

    def metric_value(self, schedule: Schedule, info: InformationPool) -> float:
        return self._cost(schedule, info)

    def objective_lower_bounds(
        self,
        time_lbs: np.ndarray,
        members: np.ndarray,
        names: Sequence[str],
        info: InformationPool,
    ) -> np.ndarray:
        """Admissible bound: the schedule uses at least one machine of the
        candidate set (possibly fewer after planner drops), so its rate sum
        is at least the cheapest member's rate."""
        rates = info.userspec.cost_per_cpu_second
        rate = np.array([rates.get(m, 0.0) for m in names])
        min_rate = np.where(members, rate, np.inf).min(axis=1)
        with np.errstate(invalid="ignore"):  # inf * 0.0, as in Python floats
            weighted = self.time_weight * time_lbs
            bounds = time_lbs * min_rate + weighted
        return np.where(members.any(axis=1), bounds, weighted)

    def objectives_from_predictions(
        self,
        predicted: np.ndarray,
        kept: np.ndarray,
        names: Sequence[str],
        info: InformationPool,
    ) -> np.ndarray:
        """:meth:`objective` without Schedules.

        The rate sum is a left-to-right ``cumsum`` over each row's kept
        machines in allocation order (non-members add an exact ``0.0``):
        the same additions, in the same order, as the
        :func:`~repro.core.planner.ordered_sum` over
        :attr:`Schedule.resource_set` in :meth:`objective`.
        """
        rates = info.userspec.cost_per_cpu_second
        rate = np.array([rates.get(m, 0.0) for m in names])
        rate_sum = np.cumsum(np.where(kept, rate, 0.0), axis=1)[:, -1]
        return predicted * rate_sum + self.time_weight * predicted


def make_estimator(metric: str, **kwargs) -> PerformanceEstimator:
    """Factory mapping a User Specification metric name to an estimator.

    ``speedup`` requires a ``baseline`` keyword (seconds, or a callable).
    """
    if metric == "execution_time":
        return ExecutionTimeEstimator()
    if metric == "speedup":
        if "baseline" not in kwargs:
            raise ValueError("speedup estimator requires a baseline")
        return SpeedupEstimator(kwargs["baseline"])
    if metric == "cost":
        return CostEstimator(kwargs.get("time_weight", 0.0))
    raise ValueError(f"unknown performance metric {metric!r}")
