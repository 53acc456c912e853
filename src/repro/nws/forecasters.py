"""The NWS forecaster family.

"Predictions can come from a variety of sources: ... statistical analysis,
sensed or sampled data, analytical models" (§3.6).  The Network Weather
Service ran a battery of inexpensive statistical predictors over every
measurement stream — last value, running and windowed means, medians,
trimmed means, exponential smoothing with several gains, and autoregressive
fits — and let an adaptive layer (:mod:`repro.nws.ensemble`) pick among
them.  All of those predictors are implemented here behind one interface.

Every forecaster is *online*: ``update(value)`` folds in a new measurement,
``forecast()`` predicts the next one.  ``forecast()`` before any update
raises ``RuntimeError`` — the ensemble guards against that.

The windowed predictors are on the simulator's hottest path (the ensemble
stages every member's forecast on every sensor sample), so each maintains
incremental state — running sums, a sorted mirror of the window — instead
of rescanning its buffer per forecast.  The regression tests rescan the
window buffer themselves as the reference.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque

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


class Forecaster:
    """Interface for online one-step-ahead predictors."""

    #: Human-readable name, set by subclasses.
    name: str = "forecaster"

    def __init__(self) -> None:
        self.observations = 0

    def update(self, value: float) -> None:
        """Fold one measurement into the model."""
        self.observations += 1
        self._update(float(value))

    def forecast(self) -> float:
        """Predict the next measurement."""
        if self.observations == 0:
            raise RuntimeError(f"{self.name}: forecast requested before any update")
        return self._forecast()

    # -- subclass hooks ------------------------------------------------------
    def _update(self, value: float) -> None:
        raise NotImplementedError

    def _forecast(self) -> float:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(n={self.observations})"


class LastValue(Forecaster):
    """Predict the most recent measurement (optimal for random walks)."""

    name = "last"

    def __init__(self) -> None:
        super().__init__()
        self._last = 0.0

    def _update(self, value: float) -> None:
        self._last = value

    def _forecast(self) -> float:
        return self._last


class RunningMean(Forecaster):
    """Predict the mean of the whole history (optimal for i.i.d. series)."""

    name = "run_mean"

    def __init__(self) -> None:
        super().__init__()
        self._sum = 0.0

    def _update(self, value: float) -> None:
        self._sum += value

    def _forecast(self) -> float:
        return self._sum / self.observations


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

    def _update(self, value: float) -> None:
        buf = self._buf
        if len(buf) == self.window:
            self._sum -= buf[0]
        buf.append(value)
        self._sum += value
        if self.observations % _RESYNC_EVERY == 0:
            self._sum = sum(buf)

    def _forecast(self) -> float:
        return self._sum / len(self._buf)


class _SortedWindowMixin:
    """Window buffer plus an incrementally-maintained sorted mirror.

    Order statistics (median, trimmed mean) over the window become slice
    reads of ``self._sorted`` instead of per-forecast sorts.
    """

    def _init_window(self, window: int) -> None:
        self._buf: deque[float] = deque(maxlen=window)
        self._sorted: list[float] = []

    def _push(self, value: float) -> None:
        buf = self._buf
        if len(buf) == buf.maxlen:
            evicted = buf[0]
            del self._sorted[bisect_left(self._sorted, evicted)]
        buf.append(value)
        insort(self._sorted, value)


class MedianWindow(_SortedWindowMixin, Forecaster):
    """Predict the median of the last ``window`` measurements.

    Robust to the load spikes that wreck mean-based predictors.
    """

    def __init__(self, window: int = 16) -> None:
        super().__init__()
        check_positive("window", window)
        self.window = int(window)
        self.name = f"median({self.window})"
        self._init_window(self.window)

    def _update(self, value: float) -> None:
        self._push(value)

    def _forecast(self) -> float:
        data = self._sorted
        m = len(data)
        half = m // 2
        if m % 2:
            return data[half]
        return (data[half - 1] + data[half]) / 2.0


class TrimmedMeanWindow(_SortedWindowMixin, Forecaster):
    """Windowed mean after discarding a fraction of each tail.

    The sorted mirror of the window makes the trimmed core a slice instead
    of a per-forecast sort.
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
        self._init_window(self.window)

    def _update(self, value: float) -> None:
        self._push(value)

    def _forecast(self) -> float:
        data = self._sorted
        m = len(data)
        k = int(m * self.trim)
        core = data[k : m - k] if m > 2 * k else data
        return sum(core) / len(core)


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

    def _update(self, value: float) -> None:
        if self.observations == 1:
            self._state = value
        else:
            self._state = (1.0 - self.gain) * self._state + self.gain * value

    def _forecast(self) -> float:
        return self._state


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

    def _update(self, value: float) -> None:
        self._buf.append(value)
        self._since_fit += 1
        if self._since_fit >= self.refit_every and len(self._buf) >= 2 * self.order + 2:
            self._fit()
            self._since_fit = 0

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

    def _forecast(self) -> float:
        if self._coef is None or len(self._buf) < self.order:
            return float(np.mean(self._buf))
        recent = list(self._buf)[-self.order :][::-1]  # most recent first
        return self._intercept + float(np.dot(self._coef, recent))


class AdaptiveWindowMean(Forecaster):
    """Windowed mean whose window size adapts to the series.

    The production NWS shipped adaptive-window mean/median predictors:
    several window sizes are scored continuously by their one-step squared
    error (exponentially discounted) and the current best window's mean is
    reported.  Long windows win on stationary stretches, short ones after
    regime changes.

    One running sum per window size replaces the per-update slice-and-sum
    over every window; sums are resynchronised from the buffer every
    :data:`_RESYNC_EVERY` updates to bound floating-point drift.
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
        self._err = {w: 0.0 for w in self.windows}
        self._weight = {w: 0.0 for w in self.windows}
        self._sums = {w: 0.0 for w in self.windows}

    def _window_mean(self, w: int) -> float:
        return self._sums[w] / min(len(self._buf), w)

    def _update(self, value: float) -> None:
        buf = self._buf
        if buf:
            decay = self.decay
            for w in self.windows:
                err = (self._window_mean(w) - value) ** 2
                self._err[w] = decay * self._err[w] + err
                self._weight[w] = decay * self._weight[w] + 1.0
        # Each window-w running sum gains the new value and loses the
        # element that was w-th from the right before the append.
        length = len(buf)
        for w in self.windows:
            if length >= w:
                self._sums[w] += value - buf[length - w]
            else:
                self._sums[w] += value
        buf.append(value)
        if self.observations % _RESYNC_EVERY == 0:
            data = list(buf)
            for w in self.windows:
                self._sums[w] = sum(data[-w:])

    def best_window(self) -> int:
        """The window size currently winning (smallest on ties/unscored)."""
        best, best_mse = self.windows[0], float("inf")
        for w in self.windows:
            if self._weight[w] > 0:
                mse = self._err[w] / self._weight[w]
                if mse < best_mse:
                    best, best_mse = w, mse
        return best

    def _forecast(self) -> float:
        return self._window_mean(self.best_window())


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
