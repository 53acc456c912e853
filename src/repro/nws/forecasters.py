"""The NWS forecaster family.

"Predictions can come from a variety of sources: ... statistical analysis,
sensed or sampled data, analytical models" (§3.6).  The Network Weather
Service ran a battery of inexpensive statistical predictors over every
measurement stream — last value, running and windowed means, medians,
trimmed means, exponential smoothing with several gains, and autoregressive
fits — and let an adaptive layer (:mod:`repro.nws.ensemble`) pick among
them.  All of those predictors are implemented here behind one interface.

Every forecaster is *online* and folds measurements in blocks:
``update_many(values)`` folds a block in order and returns the forecast
staged after each value; ``update(value)`` folds one and ``forecast()``
predicts the next.  ``forecast()`` before any update raises
``RuntimeError`` — the ensemble guards against that — and a NaN or
infinite value is refused with ``ValueError`` before any state changes.

The predictors are on the simulator's hottest path (the ensemble scores
every member's forecast on every sensor sample), so each folds a block in
one local-variable loop and maintains incremental state — running sums, a
sorted mirror of the window — instead of rescanning its buffer per
forecast.  The loop body is the per-value arithmetic, operation for
operation (the same ``** 2``, the same builtin ``sum``, the same
resynchronisation and refit schedule), so any split of a series into
blocks gives bit-identical forecasts.  The regression tests rescan the
window buffer themselves as the reference, and keep the per-value
implementation as the oracle for the blocks.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import deque
from typing import Iterable

import numpy as np

from repro.util.validation import check_fraction, check_positive

__all__ = [
    "Forecaster",
    "LastValue",
    "RunningMean",
    "SlidingWindowMean",
    "MedianWindow",
    "TrimmedMeanWindow",
    "AdaptiveWindowMean",
    "ExponentialSmoothing",
    "ARForecaster",
    "default_forecaster_family",
]

#: Recompute incremental sums exactly from the buffer every this many
#: updates, bounding floating-point drift of the running-sum fast paths.
_RESYNC_EVERY = 512


class _Finite(list):
    """A block :func:`finite_values` has already checked and converted."""

    __slots__ = ()


def finite_values(name: str, values: Iterable[float]) -> list[float]:
    """``values`` as floats, refused whole if any is NaN or infinite.

    One such value would poison every later forecast of a running
    statistic, so the ``ValueError`` (naming ``name``) comes before any
    state changes.  The returned list passes through unchecked, so the
    ensemble checks a block once for all its members.
    """
    if type(values) is _Finite:
        return values
    values = _Finite(map(float, values))
    if not math.isfinite(sum(values)):  # an overflowing sum is re-checked
        for value in values:
            if not math.isfinite(value):
                raise ValueError(f"{name}: measurement {value} is not finite")
    return values


class Forecaster:
    """Interface for online one-step-ahead predictors.

    A subclass implements :meth:`update_many`, folding a block of values
    in one local-variable loop, checked by :func:`finite_values` and
    recorded by :meth:`_stage`; :meth:`update` and :meth:`forecast` wrap
    it.
    """

    #: Human-readable name, set by subclasses.
    name: str = "forecaster"

    def __init__(self) -> None:
        self.observations = 0
        # The forecast staged after the latest value (what forecast() says).
        self._staged = 0.0

    def update_many(self, values: Iterable[float]) -> list[float]:
        """Fold ``values`` in order; return the forecast staged after each.

        Raises ``ValueError`` naming the forecaster, before any state
        changes, if a value is NaN or infinite.
        """
        raise NotImplementedError

    def update(self, value: float) -> None:
        """Fold one measurement into the model."""
        self.update_many((value,))

    def forecast(self) -> float:
        """Predict the next measurement."""
        if self.observations == 0:
            raise RuntimeError(f"{self.name}: forecast requested before any update")
        return self._staged

    # -- block bookkeeping -----------------------------------------------------
    def _stage(self, staged: list[float]) -> list[float]:
        """Record a folded block whose forecasts are ``staged``."""
        if staged:
            self.observations += len(staged)
            self._staged = staged[-1]
        return staged

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(n={self.observations})"


class LastValue(Forecaster):
    """Predict the most recent measurement (optimal for random walks)."""

    name = "last"

    def update_many(self, values: Iterable[float]) -> list[float]:
        values = finite_values(self.name, values)
        return self._stage(values[:])


class RunningMean(Forecaster):
    """Predict the mean of the whole history (optimal for i.i.d. series)."""

    name = "run_mean"

    def __init__(self) -> None:
        super().__init__()
        self._sum = 0.0

    def update_many(self, values: Iterable[float]) -> list[float]:
        values = finite_values(self.name, values)
        total, n = self._sum, self.observations
        staged = []
        for value in values:
            total += value
            n += 1
            staged.append(total / n)
        self._sum = total
        return self._stage(staged)


class SlidingWindowMean(Forecaster):
    """Predict the mean of the last ``window`` measurements.

    A running sum is maintained on update (adding the new value, subtracting
    the evicted one), making a full-window forecast O(1) instead of an
    O(window) rescan.  The sum is resynchronised from the buffer every
    :data:`_RESYNC_EVERY` updates to bound floating-point drift.
    """

    def __init__(self, window: int = 16) -> None:
        super().__init__()
        check_positive("window", window)
        self.window = int(window)
        self.name = f"sw_mean({self.window})"
        self._buf: deque[float] = deque(maxlen=self.window)
        self._sum = 0.0

    def update_many(self, values: Iterable[float]) -> list[float]:
        values = finite_values(self.name, values)
        buf, window = self._buf, self.window
        total, n = self._sum, self.observations
        staged = []
        for value in values:
            n += 1
            if len(buf) == window:
                total -= buf[0]
            buf.append(value)
            total += value
            if n % _RESYNC_EVERY == 0:
                total = sum(buf)
            staged.append(total / len(buf))
        self._sum = total
        return self._stage(staged)


class MedianWindow(Forecaster):
    """Predict the median of the last ``window`` measurements.

    Robust to the load spikes that wreck mean-based predictors.  A sorted
    mirror of the window, maintained by bisection, makes the median a
    slice read instead of a per-forecast sort.
    """

    def __init__(self, window: int = 16) -> None:
        super().__init__()
        check_positive("window", window)
        self.window = int(window)
        self.name = f"median({self.window})"
        self._buf: deque[float] = deque(maxlen=self.window)
        self._sorted: list[float] = []

    def update_many(self, values: Iterable[float]) -> list[float]:
        values = finite_values(self.name, values)
        buf, data, window = self._buf, self._sorted, self.window
        staged = []
        for value in values:
            if len(buf) == window:
                del data[bisect_left(data, buf[0])]
            buf.append(value)
            insort(data, value)
            m = len(data)
            half = m // 2
            if m % 2:
                staged.append(data[half])
            else:
                staged.append((data[half - 1] + data[half]) / 2.0)
        return self._stage(staged)


class TrimmedMeanWindow(Forecaster):
    """Windowed mean after discarding a fraction of each tail.

    The sorted mirror of the window (as in :class:`MedianWindow`) makes
    the trimmed core a slice instead of a per-forecast sort.
    """

    def __init__(self, window: int = 16, trim: float = 0.25) -> None:
        super().__init__()
        check_positive("window", window)
        check_fraction("trim", trim)
        if trim >= 0.5:
            raise ValueError(f"trim must be < 0.5, got {trim}")
        self.window = int(window)
        self.trim = trim
        self.name = f"trim_mean({self.window},{trim:g})"
        self._buf: deque[float] = deque(maxlen=self.window)
        self._sorted: list[float] = []

    def update_many(self, values: Iterable[float]) -> list[float]:
        values = finite_values(self.name, values)
        buf, data, window, trim = self._buf, self._sorted, self.window, self.trim
        staged = []
        for value in values:
            if len(buf) == window:
                del data[bisect_left(data, buf[0])]
            buf.append(value)
            insort(data, value)
            m = len(data)
            k = int(m * trim)
            core = data[k : m - k] if m > 2 * k else data
            staged.append(sum(core) / len(core))
        return self._stage(staged)


class ExponentialSmoothing(Forecaster):
    """EWMA predictor: ``s <- (1-g)*s + g*x``.

    The NWS ran several gains simultaneously and let the ensemble choose;
    :func:`default_forecaster_family` does the same.
    """

    def __init__(self, gain: float = 0.3) -> None:
        super().__init__()
        check_fraction("gain", gain)
        if gain == 0.0:
            raise ValueError("gain must be > 0")
        self.gain = gain
        self.name = f"exp_smooth({gain:g})"
        self._state = 0.0

    def update_many(self, values: Iterable[float]) -> list[float]:
        values = finite_values(self.name, values)
        gain = self.gain
        keep = 1.0 - gain
        state, n = self._state, self.observations
        staged = []
        for value in values:
            n += 1
            if n == 1:
                state = value
            else:
                state = keep * state + gain * value
            staged.append(state)
        self._state = state
        return self._stage(staged)


class ARForecaster(Forecaster):
    """Autoregressive AR(p) predictor fit over a sliding window.

    Coefficients are refit by least squares every ``refit_every`` updates
    (fitting per-update would dominate sensor cost, as it did in the real
    NWS, which is why its AR models were also refit lazily).  Falls back to
    the window mean until enough data has accumulated or if the fit is
    ill-conditioned.
    """

    def __init__(self, order: int = 4, window: int = 64, refit_every: int = 8) -> None:
        super().__init__()
        check_positive("order", order)
        check_positive("window", window)
        check_positive("refit_every", refit_every)
        if window < 3 * order:
            raise ValueError("window must be at least 3x the AR order")
        self.order = int(order)
        self.window = int(window)
        self.refit_every = int(refit_every)
        self.name = f"ar({self.order})"
        self._buf: deque[float] = deque(maxlen=self.window)
        self._coef: np.ndarray | None = None
        self._intercept = 0.0
        self._since_fit = 0

    def update_many(self, values: Iterable[float]) -> list[float]:
        values = finite_values(self.name, values)
        buf, order, refit_every = self._buf, self.order, self.refit_every
        min_fit = 2 * order + 2
        lags = range(-1, -order - 1, -1)  # most recent first
        since_fit = self._since_fit
        staged = []
        for value in values:
            buf.append(value)
            since_fit += 1
            if since_fit >= refit_every and len(buf) >= min_fit:
                self._fit()
                since_fit = 0
            coef = self._coef
            if coef is None or len(buf) < order:
                staged.append(float(np.mean(buf)))
            else:
                recent = [buf[lag] for lag in lags]
                staged.append(self._intercept + float(np.dot(coef, recent)))
        self._since_fit = since_fit
        return self._stage(staged)

    def _fit(self) -> None:
        data = np.asarray(self._buf, dtype=float)
        p = self.order
        # Design matrix of lagged values: rows predict data[p:].
        rows = len(data) - p
        x = np.empty((rows, p + 1))
        x[:, 0] = 1.0
        for lag in range(1, p + 1):
            x[:, lag] = data[p - lag : p - lag + rows]
        y = data[p:]
        try:
            theta, *_ = np.linalg.lstsq(x, y, rcond=None)
        except np.linalg.LinAlgError:  # pragma: no cover - lstsq rarely raises
            return
        if not np.all(np.isfinite(theta)):
            return
        self._intercept = float(theta[0])
        self._coef = theta[1:]


class AdaptiveWindowMean(Forecaster):
    """Windowed mean whose window size adapts to the series.

    The production NWS shipped adaptive-window mean/median predictors:
    several window sizes are scored continuously by their one-step squared
    error (exponentially discounted) and the current best window's mean is
    reported.  Long windows win on stationary stretches, short ones after
    regime changes.

    One running sum per window size replaces the per-update slice-and-sum
    over every window; sums are resynchronised from the buffer every
    :data:`_RESYNC_EVERY` updates to bound floating-point drift.  Every
    window is scored on every update, so all share one discounted weight.
    """

    def __init__(self, windows: tuple[int, ...] = (4, 8, 16, 32), decay: float = 0.95) -> None:
        super().__init__()
        if not windows:
            raise ValueError("need at least one window size")
        for w in windows:
            check_positive("window", w)
        if not (0.0 < decay <= 1.0):
            raise ValueError(f"decay must be in (0, 1], got {decay}")
        self.windows = tuple(int(w) for w in sorted(set(windows)))
        self.decay = decay
        self.name = f"adapt_mean({','.join(str(w) for w in self.windows)})"
        self._buf: deque[float] = deque(maxlen=max(self.windows))
        # Per window, in window order: discounted squared error, running sum.
        self._err = [0.0] * len(self.windows)
        self._sums = [0.0] * len(self.windows)
        self._weight = 0.0

    def update_many(self, values: Iterable[float]) -> list[float]:
        values = finite_values(self.name, values)
        buf, windows, decay = self._buf, self.windows, self.decay
        errs, sums, weight = self._err, self._sums, self._weight
        slots = range(len(windows))
        n = self.observations
        staged = []
        for value in values:
            length = len(buf)
            if length:
                for i in slots:
                    err = (sums[i] / min(length, windows[i]) - value) ** 2
                    errs[i] = decay * errs[i] + err
                weight = decay * weight + 1.0
            # Each window-w running sum gains the new value and loses the
            # element that was w-th from the right before the append.
            for i in slots:
                w = windows[i]
                if length >= w:
                    sums[i] += value - buf[length - w]
                else:
                    sums[i] += value
            buf.append(value)
            n += 1
            if n % _RESYNC_EVERY == 0:
                data = list(buf)
                for i in slots:
                    sums[i] = sum(data[-windows[i]:])
            best = _best_slot(errs, weight)
            staged.append(sums[best] / min(len(buf), windows[best]))
        self._weight = weight
        return self._stage(staged)

    def best_window(self) -> int:
        """The window size currently winning (smallest on ties/unscored)."""
        return self.windows[_best_slot(self._err, self._weight)]


def _best_slot(errs: list[float], weight: float) -> int:
    """Index of the lowest discounted MSE, the first on ties; 0 while
    unscored (``weight`` 0)."""
    best, best_mse = 0, math.inf
    if weight > 0:
        for i, err in enumerate(errs):
            mse = err / weight
            if mse < best_mse:
                best, best_mse = i, mse
    return best


def default_forecaster_family() -> list[Forecaster]:
    """The default NWS battery: one instance of each predictor style.

    Mirrors the mix the production NWS shipped: last value, running mean,
    sliding means/medians/trimmed means at two window sizes, exponential
    smoothing at three gains, and a windowed AR fit.
    """
    return [
        LastValue(),
        RunningMean(),
        SlidingWindowMean(8),
        SlidingWindowMean(32),
        MedianWindow(8),
        MedianWindow(32),
        TrimmedMeanWindow(16, 0.25),
        AdaptiveWindowMean(),
        ExponentialSmoothing(0.1),
        ExponentialSmoothing(0.3),
        ExponentialSmoothing(0.6),
        ARForecaster(order=4, window=64),
    ]
