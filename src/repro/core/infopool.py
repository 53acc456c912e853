"""The Information Pool.

"Application-specific, system-specific, and dynamic information used by
these subsystems constitute an Information Pool which all subsystems
share" (§4.1).  Four sources feed it: the Network Weather Service (via the
:class:`~repro.core.resources.ResourcePool`), the HAT, the Models, and the
User Specifications.

Every forecast a subsystem reads comes through one attribute,
:attr:`InformationPool.forecasts`: inside a decision scope it is the
decision's :class:`~repro.nws.snapshot.ForecastSnapshot`, outside one
the :class:`~repro.core.resources.ResourcePool` itself.  The snapshot
answers the pool's read interface under the pool's own names, and
every value derived from a pool state comes through
:meth:`InformationPool.derived`, memoised on the scope's snapshot or,
outside a scope, built afresh.  So this module is the only place that
knows where a forecast comes from and whether a derived value is
memoised; the decision oracle, which runs outside any scope, re-queries
the pool for every value.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Hashable, Iterator

from repro.core.hat import HeterogeneousApplicationTemplate
from repro.core.resources import MachineInfo, ResourcePool
from repro.core.userspec import UserSpecification

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (nws imports core)
    from repro.nws.snapshot import ForecastSnapshot

__all__ = ["InformationPool"]


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
    _snapshot: "ForecastSnapshot | None" = field(default=None, init=False, repr=False)

    # -- per-decision state ---------------------------------------------------
    @contextmanager
    def decision_scope(
        self, snapshot: "ForecastSnapshot | None" = None
    ) -> Iterator["ForecastSnapshot"]:
        """Pin one forecast snapshot for a decision and yield it.

        ``None`` takes a fresh snapshot; a given one (the scheduling
        service shares one per instant) must not be stale.  On exit, even
        on error, the enclosing scope's snapshot (or none) is restored, so
        decisions at different simulated times never read each other's
        forecasts or derived values.
        """
        if snapshot is None:
            snapshot = self.pool.snapshot()
        elif snapshot.stale:
            raise ValueError(
                "refusing to open a decision on a stale ForecastSnapshot; "
                "take a new snapshot after advancing the NWS"
            )
        previous = self._snapshot
        self._snapshot = snapshot
        try:
            yield snapshot
        finally:
            self._snapshot = previous

    @property
    def forecasts(self) -> "ResourcePool | ForecastSnapshot":
        """Where every forecast is read: the decision's snapshot inside a
        decision scope, :attr:`pool` outside one.  Both answer the pool's
        read interface with the same floats."""
        snapshot = self._snapshot
        return self.pool if snapshot is None else snapshot

    def derived(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """``build()``, memoised under ``key`` on the scope's snapshot
        (:meth:`ForecastSnapshot.derived`), or built afresh outside a scope.

        ``key`` names by value (never by ``id``) everything ``build`` reads
        besides :attr:`forecasts`, since every configuration at the pool
        state shares the memo.  The value must not hold the snapshot: that
        cycle would keep a stale pool state alive past reference counting.
        """
        snapshot = self._snapshot
        return build() if snapshot is None else snapshot.derived(key, build)

    def machine_info(self, name: str) -> MachineInfo:
        """``forecasts.machine_info(name)``: one shared descriptor per
        machine inside a decision."""
        return self.forecasts.machine_info(name)

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
