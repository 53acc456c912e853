"""The per-value NWS code: the oracle for block updates.

Production forecasters, the ensemble and the sensors fold measurements in
blocks (``update_many``, a sensor's one-pass ``advance_to``).  This module
keeps the per-value implementation they replaced, unchanged: the
forecaster classes with their ``_update``/``_forecast`` hooks,
``AdaptiveEnsemble.update`` scoring one value at a time, and the sensor
loop that measures, records and folds one sample per iteration.  The
block code must reproduce it bit for bit — every staged forecast, error
estimate, winner and recorded history — for any split of a series into
blocks (``tests/test_nws_block.py``).

Names mirror :mod:`repro.nws`; ``Forecast`` is the production dataclass.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right, insort
from collections import deque

import numpy as np

from repro.nws.ensemble import Forecast
from repro.nws.series import TimeSeries
from repro.sim.host import Host
from repro.sim.link import Link
from repro.util.rng import RngStream
from repro.util.validation import (
    check_fraction,
    check_nonnegative,
    check_positive,
)

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


class _PeriodicSensor:
    """Shared machinery: fixed-period sampling with clock state.

    ``series`` and ``ensemble`` hold the measurements and forecaster state
    at the sampling frontier (the newest sample ever taken), not at the
    clock: after :meth:`rewind_to` they still describe the frontier, and
    only :meth:`forecast` and :attr:`ready` follow the clock.
    """

    def __init__(self, name: str, period: float, noise_std: float, rng: RngStream) -> None:
        check_positive("period", period)
        check_nonnegative("noise_std", noise_std)
        self.name = name
        self.period = float(period)
        self.noise_std = float(noise_std)
        self.rng = rng
        self.series = TimeSeries(name)
        self.ensemble = AdaptiveEnsemble()
        self._next_sample = 0.0
        # Forecast history, one entry per sample in parallel arrays: the
        # sample time, then the ensemble's forecast after it (value, error
        # estimate, index of the winning member).  Entries past the
        # retention bound are dropped in chunks; ``_dropped`` counts them,
        # so entry ``i`` is sample number ``_dropped + i``.
        self._retain = self.series.maxlen
        self._times = array("d")
        self._values = array("d")
        self._errors = array("d")
        self._methods = array("B")
        self._dropped = 0
        # The clock: index of the newest entry at or before it (-1 = none).
        self._at = -1
        self._current: Forecast | None = None

    def _measure(self, t: float) -> float:
        raise NotImplementedError

    def advance_to(self, t: float) -> int:
        """Move the clock forward to ``t``, measuring every sample due in
        ``(frontier, t]``; returns how many were measured.

        Recorded samples between the clock and the frontier are crossed
        without measuring.  A ``t`` behind the clock leaves it in place.
        """
        times = self._times
        at = bisect_right(times, t, self._at + 1) - 1
        if at > self._at:
            self._at = at
            self._current = None
        if at < len(times) - 1:
            return 0
        taken = 0
        ensemble = self.ensemble
        while self._next_sample <= t:
            ts = self._next_sample
            value = self._measure(ts)
            self.series.append(ts, value)
            ensemble.update(value)
            times.append(ts)
            self._values.append(ensemble.best_value)
            self._errors.append(ensemble.best_error)
            self._methods.append(ensemble.best_index)
            self._next_sample += self.period
            taken += 1
        if taken:
            if len(times) >= 2 * self._retain:
                self._trim()
            self._at = len(times) - 1
            self._current = None
        return taken

    def _trim(self) -> None:
        """Drop the entries beyond the retention bound (amortised)."""
        drop = len(self._times) - self._retain
        for column in (self._times, self._values, self._errors, self._methods):
            del column[:drop]
        self._dropped += drop

    @property
    def history_start(self) -> float:
        """The earliest instant :meth:`rewind_to` can serve.

        0.0 while every sample is retained (the first is taken at 0.0);
        once older samples fall out of the history, the time of the oldest
        retained one.
        """
        oldest = len(self._times) - self._retain
        return self._times[oldest] if oldest >= 0 else 0.0

    def rewind_to(self, t: float) -> None:
        """Move the clock back to ``t`` (at most the clock) over the history.

        Raises ``ValueError`` when ``t`` lies behind :attr:`history_start`
        (the answer would need a sample that is no longer retained).
        """
        start = self.history_start
        if not t >= start:
            raise ValueError(
                f"{self.name}: cannot rewind to {t}: the history starts at "
                f"{start}"
            )
        at = bisect_right(self._times, t, 0, self._at + 1) - 1
        if at != self._at:
            self._at = at
            self._current = None

    def forecast(self) -> Forecast:
        """The one-step-ahead forecast after the newest sample at or
        before the clock."""
        current = self._current
        if current is None:
            i = self._at
            if i < 0:
                raise RuntimeError(f"{self.name}: forecast requested before any sample")
            current = self._current = Forecast(
                value=self._values[i],
                error=self._errors[i],
                method=self.ensemble.members[self._methods[i]].name,
                observations=self._dropped + i + 1,
            )
        return current

    @property
    def ready(self) -> bool:
        """True once a measurement at or before the clock exists."""
        return self._at >= 0


class CpuSensor(_PeriodicSensor):
    """Measures a host's CPU availability.

    Noise models the jitter of load-average probes; measurements are clipped
    to [0, 1] like real availability fractions.
    """

    def __init__(
        self,
        host: Host,
        period: float = 10.0,
        noise_std: float = 0.02,
        rng: RngStream | None = None,
    ) -> None:
        super().__init__(
            name=f"cpu:{host.name}",
            period=period,
            noise_std=noise_std,
            rng=rng if rng is not None else RngStream(0, f"cpu:{host.name}"),
        )
        self.host = host

    def _measure(self, t: float) -> float:
        value = self.host.availability(t) + self.rng.normal(0.0, self.noise_std)
        return min(1.0, max(0.0, value))


class LinkSensor(_PeriodicSensor):
    """Measures a link's deliverable-bandwidth *fraction* (availability).

    Probing the fraction rather than absolute bytes/s lets one forecast
    serve every path through the link: the path forecast recombines each
    link's predicted fraction with its nominal bandwidth.
    """

    def __init__(
        self,
        link: Link,
        period: float = 15.0,
        noise_std: float = 0.03,
        rng: RngStream | None = None,
    ) -> None:
        super().__init__(
            name=f"net:{link.name}",
            period=period,
            noise_std=noise_std,
            rng=rng if rng is not None else RngStream(0, f"net:{link.name}"),
        )
        self.link = link

    def _measure(self, t: float) -> float:
        value = self.link.load.availability(t) + self.rng.normal(0.0, self.noise_std)
        return min(1.0, max(0.0, value))
