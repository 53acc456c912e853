"""Adaptive minimum-error forecaster ensemble.

The distinguishing trick of the Network Weather Service: instead of picking
one statistical model per resource, run *all* of them, score each by the
error of its past one-step-ahead predictions, and report the prediction of
whichever model is currently winning, together with an error estimate.
"A schedule is only as good as the accuracy of its underlying predictions"
(§3.6) — the error estimate is what lets a scheduler know how much to trust
the number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.nws.forecasters import Forecaster, default_forecaster_family

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
        # member is scored on every update, so all share one discounted
        # weight.
        self._err = [0.0] * len(names)
        self._weight = 0.0
        # Each member's staged prediction for the next update to score.
        self._pending: list[float] | None = None
        self.observations = 0
        # The winner of the latest update, chosen inside update(): index,
        # predicted value and error estimate.  forecast() wraps it in a
        # Forecast on first query and memoises that until the next update.
        self.best_index = 0
        self.best_value = 0.0
        self.best_error = 0.0
        self._cached_forecast: Forecast | None = None

    def update(self, value: float) -> None:
        """Score outstanding predictions against ``value``, refit members,
        and choose the new best member (:meth:`best_member`'s rule)."""
        value = float(value)
        members = self.members
        pending = self._pending
        if pending is not None:
            decay = self.decay
            self._err = [
                decay * err + (predicted - value) ** 2
                for err, predicted in zip(self._err, pending)
            ]
            self._weight = decay * self._weight + 1.0
        for member in members:
            member.update(value)
        self.observations += 1
        # Stage each member's next prediction for scoring on the next update.
        self._pending = pending = [m.forecast() for m in members]
        weight = self._weight
        if weight > 0:
            # min() keeps the first of equal values and index() finds the
            # first equal one: first-listed wins ties, as in best_member().
            mses = [err / weight for err in self._err]
            mse = min(mses)
            best = mses.index(mse)
            self.best_error = math.sqrt(mse) if math.isfinite(mse) else 0.0
        else:
            best = 0
            self.best_error = 0.0
        self.best_index = best
        self.best_value = pending[best]
        self._cached_forecast = None

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
