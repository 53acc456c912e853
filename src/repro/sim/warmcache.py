"""LRU cache of warmed-up (testbed, NWS) state.

Every experiment driver starts the same way: build a testbed, attach a
Network Weather Service, and simulate a warm-up window so the sensors have
history before the first schedule.  Back-to-back experiments — and the
per-trial tasks of the parallel runner — repeat that identical warm-up
again and again.

Because every load process and sensor stream is a deterministic function of
``(seed, time)``, a warmed service advanced from ``t0`` to ``t1`` is
bit-identical to a fresh one built and advanced straight to ``t1``.  That
makes warmed state safely reusable: this module keeps a small LRU of
``(builder, seed, warmup)``-keyed pairs and hands them out as long as the
requested instant is not in the cached service's past.  A request behind
the cached clock rebuilds from scratch even though the NWS can rewind
(:meth:`~repro.nws.service.NetworkWeatherService.rewind_to`): the cache
hands the same live objects to several callers, and rewinding one
caller's service would move the clock under every other holder.

Only experiments that never *mutate* their testbed may use the cache;
drivers that inject load (e.g. the multi-application experiment) must keep
building private instances.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable

from repro.nws.service import NetworkWeatherService
from repro.sim.testbeds import Testbed

__all__ = ["warmed_state", "clear_warm_cache", "warm_cache_stats"]

_MAX_ENTRIES = 8

_cache: "OrderedDict[tuple, tuple[Testbed, NetworkWeatherService]]" = OrderedDict()
_stats = {"hits": 0, "misses": 0}


def warmed_state(
    builder: Callable[..., Testbed],
    seed: int,
    warmup_s: float,
    at: float | None = None,
    nws_seed: int | None = None,
    builder_kwargs: dict | None = None,
) -> tuple[Testbed, NetworkWeatherService]:
    """A testbed plus NWS warmed to ``warmup_s`` and advanced to ``at``.

    Parameters
    ----------
    builder:
        Testbed factory accepting a ``seed`` keyword
        (e.g. :func:`repro.sim.testbeds.sdsc_pcl_testbed`).
    seed:
        Testbed load seed, forwarded to ``builder``.
    warmup_s:
        Sensor warm-up before the first schedule.
    at:
        Simulated instant to advance the NWS to (default ``warmup_s``).
        Must be ``>= warmup_s``.
    nws_seed:
        Measurement-noise seed (default ``seed + 1``, the convention of
        every experiment driver).
    builder_kwargs:
        Extra keyword arguments for ``builder`` (hashable values only;
        they are part of the cache key).

    Results are deterministic regardless of cache hits: a reused service is
    advanced forward, which replays exactly the samples a fresh build would
    take.  Requests behind the cached clock rebuild from scratch.
    """
    if at is None:
        at = warmup_s
    if at < warmup_s:
        raise ValueError(f"at={at} precedes warmup_s={warmup_s}")
    if nws_seed is None:
        nws_seed = seed + 1
    extra = tuple(sorted((builder_kwargs or {}).items()))
    key = (
        getattr(builder, "__module__", ""),
        getattr(builder, "__qualname__", repr(builder)),
        extra,
        int(seed),
        int(nws_seed),
        float(warmup_s),
    )
    entry = _cache.get(key)
    if entry is not None and entry[1].now <= at:
        _stats["hits"] += 1
        _cache.move_to_end(key)
        testbed, nws = entry
    else:
        _stats["misses"] += 1
        testbed = builder(seed=seed, **(builder_kwargs or {}))
        nws = NetworkWeatherService.for_testbed(testbed, seed=nws_seed)
        nws.warmup(warmup_s)
        _cache[key] = (testbed, nws)
        _cache.move_to_end(key)
        while len(_cache) > _MAX_ENTRIES:
            _cache.popitem(last=False)
    if at > nws.now:
        nws.advance_to(at)
    return testbed, nws


def clear_warm_cache() -> None:
    """Drop all cached state (used by benchmarks for cold-start timings)."""
    _cache.clear()


def warm_cache_stats() -> dict[str, int]:
    """Cache effectiveness counters: ``{"hits": ..., "misses": ..., "size": ...}``."""
    return {"hits": _stats["hits"], "misses": _stats["misses"], "size": len(_cache)}
