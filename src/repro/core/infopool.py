"""The Information Pool.

"Application-specific, system-specific, and dynamic information used by
these subsystems constitute an Information Pool which all subsystems
share" (§4.1).  Four sources feed it: the Network Weather Service (via the
:class:`~repro.core.resources.ResourcePool`), the HAT, the Models, and the
User Specifications.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.core.hat import HeterogeneousApplicationTemplate
from repro.core.resources import MachineInfo, ResourcePool
from repro.core.userspec import UserSpecification

__all__ = ["InformationPool", "DecisionCache"]


class DecisionCache:
    """Scratch state shared by all subsystems for one scheduling decision.

    The Coordinator opens a decision with
    :meth:`InformationPool.begin_decision`, which takes one
    :class:`~repro.nws.snapshot.ForecastSnapshot` of the pool and hands
    every Planner/Estimator a shared ``memo`` dict for per-decision
    memoisation (cost models, locality orders, per-machine rates).  Because
    the snapshot is a pure cache over the pool, anything derived from it is
    bit-identical to the reference oracle that re-queries per candidate.

    Planners namespace their memo keys (e.g. ``("jacobi-model", id(self))``)
    so several planners can share one cache without collisions.

    A cache may outlive a single decision: the always-on scheduling
    daemon reuses one cache across every request of one pool state,
    because everything memoised is a pure function of the snapshot.  The
    reuse contract is :attr:`stale` — the moment the underlying NWS
    advances, the snapshot (and with it every memo derived from it) stops
    describing the pool, and :meth:`InformationPool.begin_decision`
    refuses to reuse the cache.
    """

    __slots__ = ("snapshot", "memo")

    def __init__(self, snapshot: Any) -> None:
        self.snapshot = snapshot
        self.memo: dict[Any, Any] = {}

    @property
    def stale(self) -> bool:
        """True when the snapshot no longer describes the pool's state."""
        return bool(getattr(self.snapshot, "stale", False))


@dataclass
class InformationPool:
    """Shared state for one AppLeS agent's subsystems.

    Attributes
    ----------
    pool:
        The resource pool (wraps the topology and, when present, the NWS —
        the *dynamic* information source).
    hat:
        The Heterogeneous Application Template (*application-specific*).
    userspec:
        The User Specifications (*user-specific* — the ingredient the paper
        singles out as distinguishing AppLeS from Mars et al., §4.2).
    models:
        Named performance models registered by the application (e.g. the
        Jacobi strip cost model, the 3D-REACT pipeline model).  Planners and
        Estimators look their models up here so experiments can swap them.
    """

    pool: ResourcePool
    hat: HeterogeneousApplicationTemplate
    userspec: UserSpecification = field(default_factory=UserSpecification)
    models: dict[str, Any] = field(default_factory=dict)
    _decision: DecisionCache | None = field(default=None, init=False, repr=False)

    # -- per-decision state ---------------------------------------------------
    def begin_decision(
        self, snapshot: Any | None = None, reuse: DecisionCache | None = None
    ) -> DecisionCache:
        """Open a scheduling decision: snapshot the pool, reset the memo.

        Called by the Coordinator before the candidate loop;
        planners pick the cache up via :attr:`decision_cache`.  Re-entrant
        calls replace the previous cache (one decision at a time) — a fresh
        ``DecisionCache`` with an *empty* memo, so nothing computed for one
        request can leak into the next.

        Parameters
        ----------
        snapshot:
            An existing :class:`~repro.nws.snapshot.ForecastSnapshot` to
            reuse (the scheduling service shares one snapshot across the
            requests of a batch taken at the same instant).  It must not be
            stale: a snapshot is a pure cache only while the NWS sits at
            the instant it was taken.  ``None`` takes a fresh snapshot.
        reuse:
            A :class:`DecisionCache` from an earlier decision over the
            *same* pool state (the always-on daemon keeps one per request
            configuration).  It is adopted — memo and all — only while it
            is provably still current: its snapshot must be the exact
            object ``snapshot`` passes (or ``snapshot`` must be ``None``)
            and must not be stale.  A cache that fails either check is
            silently discarded and a fresh one opened — reuse is an
            optimisation, never a semantic.
        """
        if reuse is not None:
            current = (
                not reuse.stale
                and (snapshot is None or reuse.snapshot is snapshot)
            )
            if current:
                self._decision = reuse
                return reuse
        if snapshot is None:
            snapshot = self.pool.snapshot()
        elif getattr(snapshot, "stale", False):
            raise ValueError(
                "refusing to open a decision on a stale ForecastSnapshot; "
                "take a new snapshot after advancing the NWS"
            )
        self._decision = DecisionCache(snapshot)
        return self._decision

    def end_decision(self) -> None:
        """Close the current decision and drop its cached state."""
        self._decision = None

    @contextmanager
    def decision_scope(
        self, snapshot: Any | None = None, reuse: DecisionCache | None = None
    ) -> Iterator[DecisionCache]:
        """Explicit per-request decision scope: ``with info.decision_scope():``.

        Guarantees the :class:`DecisionCache` (snapshot + memo) opened for
        one request is dropped when the request ends, even on error — two
        back-to-back decisions at different simulated times can never see
        each other's memoised rates, plans, or forecasts.  On exit the
        previous cache (if the scope was nested inside another decision) is
        restored, so a service evaluating a request inside a shared batch
        scope does not tear the batch scope down.
        """
        previous = self._decision
        cache = self.begin_decision(snapshot, reuse=reuse)
        try:
            yield cache
        finally:
            self._decision = previous

    @property
    def decision_cache(self) -> DecisionCache | None:
        """The active decision's shared cache (None outside a decision)."""
        return self._decision

    def machine_info(self, name: str) -> MachineInfo:
        """``pool.machine_info(name)``, from the decision's snapshot
        inside a decision."""
        cache = self._decision
        if cache is None:
            return self.pool.machine_info(name)
        return cache.snapshot.machine_info(name)

    def register_model(self, name: str, model: Any) -> None:
        """Add or replace a named performance model."""
        if not name:
            raise ValueError("model name must be non-empty")
        self.models[name] = model

    def model(self, name: str) -> Any:
        """Look up a model registered by the application."""
        try:
            return self.models[name]
        except KeyError:
            raise KeyError(
                f"no model {name!r} registered (have: {sorted(self.models)})"
            ) from None

    @property
    def has_dynamic_information(self) -> bool:
        """True when an NWS feeds this pool (§3.2's dynamic system state)."""
        return self.pool.nws is not None
