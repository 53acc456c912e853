"""Bounded measurement time series.

Sensors record ``(time, value)`` pairs a block at a time (``extend``, one
monotonicity check per block); forecasters and diagnostics read windows off
the tail.  The store is bounded (the real NWS kept a fixed-size history per
resource) and enforces monotonically non-decreasing timestamps.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator, Sequence

from repro.util.validation import check_positive

__all__ = ["TimeSeries"]


class TimeSeries:
    """A bounded series of timestamped measurements."""

    def __init__(self, name: str = "", maxlen: int = 4096) -> None:
        check_positive("maxlen", maxlen)
        self.name = name
        self._times: deque[float] = deque(maxlen=int(maxlen))
        self._values: deque[float] = deque(maxlen=int(maxlen))
        self.total_observations = 0

    def append(self, t: float, value: float) -> None:
        """Record one measurement; timestamps must not decrease."""
        self.extend((t,), (value,))

    def extend(self, times: Sequence[float], values: Sequence[float]) -> None:
        """Record a block of measurements, ``times[i]`` with ``values[i]``.

        Timestamps must not decrease, within the block or from the latest
        recorded one; a block that breaks this is refused whole.
        """
        times = list(map(float, times))
        if len(times) != len(values):
            raise ValueError(f"{len(times)} timestamps for {len(values)} values")
        if not times:
            return
        last = self._times[-1] if self._times else times[0]
        if times[0] < last or times != sorted(times):
            for t in times:
                if t < last:
                    raise ValueError(
                        f"timestamps must be non-decreasing: {t} < {last}"
                    )
                last = t
        self._times.extend(times)
        self._values.extend(map(float, values))
        self.total_observations += len(times)

    def __len__(self) -> int:
        return len(self._values)

    @property
    def maxlen(self) -> int:
        """How many measurements the series retains."""
        return self._values.maxlen

    def __iter__(self) -> Iterator[tuple[float, float]]:
        return iter(zip(self._times, self._values))

    @property
    def last_time(self) -> float:
        """Timestamp of the latest measurement."""
        if not self._times:
            raise IndexError(f"series {self.name!r} is empty")
        return self._times[-1]

    @property
    def last_value(self) -> float:
        """Latest measurement value."""
        if not self._values:
            raise IndexError(f"series {self.name!r} is empty")
        return self._values[-1]

    def values(self, window: int | None = None) -> list[float]:
        """The last ``window`` values (all values if None)."""
        if window is None:
            return list(self._values)
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        if window >= len(self._values):
            return list(self._values)
        return list(self._values)[-window:]

    def times(self, window: int | None = None) -> list[float]:
        """The last ``window`` timestamps (all if None)."""
        if window is None:
            return list(self._times)
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        if window >= len(self._times):
            return list(self._times)
        return list(self._times)[-window:]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TimeSeries({self.name!r}, n={len(self)})"
