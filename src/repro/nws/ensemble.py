"""Adaptive minimum-error forecaster ensemble.

The distinguishing trick of the Network Weather Service: instead of picking
one statistical model per resource, run *all* of them, score each by the
error of its past one-step-ahead predictions, and report the prediction of
whichever model is currently winning, together with an error estimate.
"A schedule is only as good as the accuracy of its underlying predictions"
(§3.6) — the error estimate is what lets a scheduler know how much to trust
the number.

The ensemble folds measurements in blocks: :meth:`AdaptiveEnsemble.update_many`
hands a block to every member's ``update_many`` once, then scores the
block value by value with the per-value arithmetic, so a block and the same
values one at a time give bit-identical winners and error estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.nws.forecasters import Forecaster, default_forecaster_family, finite_values

__all__ = ["Forecast", "AdaptiveEnsemble", "NOMINAL_FORECAST"]


@dataclass(frozen=True)
class Forecast:
    """A prediction with provenance.

    Attributes
    ----------
    value:
        The predicted next measurement.
    error:
        RMS of the winning forecaster's past one-step errors (0.0 until two
        predictions have been scored).
    method:
        Name of the forecaster that produced the value.
    observations:
        Number of measurements behind the prediction.
    """

    value: float
    error: float
    method: str
    observations: int


#: The degradation-mode answer for a sensor with no data yet: nominal full
#: availability with no uncertainty.  ``Forecast`` is frozen, so one shared
#: instance serves every cold query instead of an allocation per call.
NOMINAL_FORECAST = Forecast(value=1.0, error=0.0, method="nominal", observations=0)


class AdaptiveEnsemble:
    """Run a forecaster family in parallel; answer with the current best.

    Scoring uses exponentially-discounted squared error (``decay`` per
    observation) so the winner can change as the series' character changes —
    a mean-like predictor wins on stationary stretches, last-value wins on
    random-walk stretches.

    Parameters
    ----------
    members:
        The forecaster family; defaults to
        :func:`repro.nws.forecasters.default_forecaster_family`.
    decay:
        Error-discount factor in (0, 1]; 1.0 reduces to cumulative MSE.
    """

    def __init__(self, members: list[Forecaster] | None = None, decay: float = 0.98) -> None:
        self.members = members if members is not None else default_forecaster_family()
        if not self.members:
            raise ValueError("ensemble needs at least one member")
        names = [m.name for m in self.members]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate forecaster names in ensemble: {names}")
        if not (0.0 < decay <= 1.0):
            raise ValueError(f"decay must be in (0, 1], got {decay}")
        self.decay = decay
        self._index = {n: i for i, n in enumerate(names)}
        # Discounted squared error per member, in member order.  Every
        # member is scored on every value, so all share one discounted
        # weight.
        self._err = [0.0] * len(names)
        self._weight = 0.0
        # Each member's staged prediction for the next value to score.
        self._pending: Sequence[float] | None = None
        self.observations = 0
        # The winner after the latest value, chosen inside update_many():
        # index, predicted value and error estimate.  forecast() wraps it in
        # a Forecast on first query and memoises that until the next update.
        self.best_index = 0
        self.best_value = 0.0
        self.best_error = 0.0
        self._cached_forecast: Forecast | None = None

    def update_many(
        self, values: Iterable[float]
    ) -> tuple[list[float], list[float], list[int]]:
        """Fold ``values`` in order; after each, the best member's forecast.

        Every member folds the block in one :meth:`Forecaster.update_many`
        call; then each value scores the predictions staged before it and
        the winner is chosen by :meth:`best_member`'s rule.  Returns three
        lists with one entry per value: the winner's forecast, its error
        estimate and its index in :attr:`members`.  A NaN or infinite
        value raises ``ValueError`` before any state changes.
        """
        values = finite_values("ensemble", values)
        if not values:
            return [], [], []
        decay = self.decay
        errs, weight, pending = self._err, self._weight, self._pending
        best_values: list[float] = []
        best_errors: list[float] = []
        best_indices: list[int] = []
        staged = zip(*[member.update_many(values) for member in self.members])
        for value, row in zip(values, staged):
            if pending is not None:
                errs = [
                    decay * err + (predicted - value) ** 2
                    for err, predicted in zip(errs, pending)
                ]
                weight = decay * weight + 1.0
            # Each member's prediction for the next value, to score then.
            pending = row
            if weight > 0:
                # min() keeps the first of equal values and index() finds
                # the first equal one: first-listed wins ties, as in
                # best_member().
                mses = [err / weight for err in errs]
                mse = min(mses)
                best = mses.index(mse)
                best_errors.append(math.sqrt(mse) if math.isfinite(mse) else 0.0)
            else:
                best = 0
                best_errors.append(0.0)
            best_indices.append(best)
            best_values.append(row[best])
        self._err, self._weight, self._pending = errs, weight, pending
        self.observations += len(values)
        self.best_index = best_indices[-1]
        self.best_value = best_values[-1]
        self.best_error = best_errors[-1]
        self._cached_forecast = None
        return best_values, best_errors, best_indices

    def update(self, value: float) -> None:
        """Fold one measurement (:meth:`update_many` of one value)."""
        self.update_many((value,))

    def mse(self, name: str) -> float:
        """Discounted mean squared error of member ``name`` (inf if unscored)."""
        i = self._index.get(name)
        if i is None:
            raise KeyError(f"no forecaster named {name!r}")
        w = self._weight
        return self._err[i] / w if w > 0 else math.inf

    def best_member(self) -> Forecaster:
        """The member with the lowest discounted MSE (first-listed wins ties,
        so earlier members act as priors before any scoring happens)."""
        best = self.members[0]
        best_mse = self.mse(best.name)
        for member in self.members[1:]:
            m = self.mse(member.name)
            if m < best_mse:
                best, best_mse = member, m
        return best

    def forecast(self) -> Forecast:
        """Predict the next measurement using the current best member."""
        if self.observations == 0:
            raise RuntimeError("ensemble: forecast requested before any update")
        cached = self._cached_forecast
        if cached is None:
            cached = self._cached_forecast = Forecast(
                value=self.best_value,
                error=self.best_error,
                method=self.members[self.best_index].name,
                observations=self.observations,
            )
        return cached

    def leaderboard(self) -> list[tuple[str, float]]:
        """All members with their discounted MSE, best first."""
        rows = [(m.name, self.mse(m.name)) for m in self.members]
        rows.sort(key=lambda pair: pair[1])
        return rows
