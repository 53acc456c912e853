"""Offline forecaster evaluation (backtesting).

"Developing useful predictive models is key to the success of any
scheduling strategy" (§3.6).  Before trusting a forecaster family on a
new resource class, the NWS operator backtests it on recorded traces;
this module provides that workflow: replay a trace through any forecaster
(or the whole family plus the adaptive ensemble) and score the one-step
predictions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.nws.ensemble import AdaptiveEnsemble
from repro.nws.forecasters import Forecaster, default_forecaster_family
from repro.obs.trace import get_tracer

__all__ = ["BacktestResult", "evaluate_forecaster", "backtest_family"]


@dataclass(frozen=True)
class BacktestResult:
    """Scores of one predictor over one trace.

    Attributes
    ----------
    name:
        Forecaster name.
    mse / mae:
        Mean squared / absolute one-step error.
    bias:
        Mean signed error (prediction − actual); positive = optimistic
        for availability traces.
    predictions:
        The one-step predictions, aligned with ``trace[1:]``.
    """

    name: str
    mse: float
    mae: float
    bias: float
    predictions: tuple[float, ...]

    @property
    def rmse(self) -> float:
        """Root mean squared error."""
        return float(np.sqrt(self.mse))


def _score(name: str, preds: list[float], actual: Sequence[float]) -> BacktestResult:
    p = np.asarray(preds, dtype=float)
    a = np.asarray(actual, dtype=float)
    err = p - a
    result = BacktestResult(
        name=name,
        mse=float(np.mean(err**2)),
        mae=float(np.mean(np.abs(err))),
        bias=float(np.mean(err)),
        predictions=tuple(preds),
    )
    tracer = get_tracer()
    if tracer.enabled:
        # Per-forecaster error used to exist only inside one experiment;
        # recording it here makes every backtest observable.
        tracer.event(
            "nws.backtest", layer="nws",
            forecaster=name, rmse=result.rmse, mae=result.mae,
            bias=result.bias, n=len(preds),
        )
        tracer.metrics.counter("nws.backtests").inc()
        tracer.metrics.gauge(f"nws.rmse.{name}").set(result.rmse)
        tracer.metrics.histogram("nws.backtest_rmse").observe(result.rmse)
    return result


def evaluate_forecaster(forecaster: Forecaster, trace: Sequence[float]) -> BacktestResult:
    """Replay ``trace`` through ``forecaster``, scoring one-step predictions.

    The forecaster predicts ``trace[k]`` after seeing ``trace[:k]``; the
    first element is never predicted (there is nothing to predict it
    from).  Requires at least two points.
    """
    trace = list(trace)
    if len(trace) < 2:
        raise ValueError("backtest needs a trace of at least 2 points")
    # The forecast staged after each value predicts the next one.
    preds = forecaster.update_many(trace)[:-1]
    return _score(forecaster.name, preds, trace[1:])


def backtest_family(
    trace: Sequence[float],
    family_factory=default_forecaster_family,
    include_ensemble: bool = True,
) -> list[BacktestResult]:
    """Backtest a whole family plus the adaptive ensemble over one trace.

    ``family_factory`` is a zero-argument callable returning *fresh*
    forecaster instances (forecasters are stateful, and the ensemble needs
    its own copies).  Returns results sorted by MSE, best first — the
    leaderboard an operator reads before deploying.
    """
    trace = list(trace)
    if len(trace) < 2:
        raise ValueError("backtest needs a trace of at least 2 points")
    results = [evaluate_forecaster(m, trace) for m in family_factory()]
    if include_ensemble:
        best_values, _, _ = AdaptiveEnsemble(family_factory()).update_many(trace)
        results.append(_score("ensemble", best_values[:-1], trace[1:]))
    results.sort(key=lambda r: r.mse)
    return results
