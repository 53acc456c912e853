"""The Resource Selector.

"Using information from the HAT and US to guide the selection process, the
Resource Selector routines identify promising sets of resources for the
Coordinator to consider.  Access rights, resource capacities, user
directives, and other constraints are used to 'filter' infeasible resource
sets.  The Resource Selector uses an application-specific notion of logical
'distance' between resources to prioritize them." (§4.2)

For pools up to :attr:`ResourceSelector.exhaustive_limit` machines every
non-empty subset is generated (the paper's Jacobi prototype considered
"all subsets" of its eight hosts).  Larger pools fall back to a greedy
ladder: machines ranked by predicted deliverable speed, then locality-
tightened prefixes per site.

For a communication-coupled application, a list of at most 1024 sets is
then stably sorted by (logical diameter, size), so tight sets come first.
The diameters are read from one pair table of the forecast snapshot
(:meth:`~repro.nws.snapshot.ForecastSnapshot.transfer_matrix`), a masked
maximum per set, and the order is one ``np.lexsort``.  Larger lists, and
uncoupled applications, keep enumeration order.
"""

from __future__ import annotations

from itertools import chain, combinations, islice, repeat
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.infopool import InformationPool
from repro.obs.trace import get_tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.coordinator import PruningStats

__all__ = [
    "ResourceSelector",
    "SeededSelector",
    "LocalitySelector",
    "member_masks_over",
]

_REGIMES = ("auto", "exhaustive", "greedy")


def member_masks_over(
    candidate_sets: Sequence[Sequence[str]], names: Sequence[str]
) -> np.ndarray:
    """``(m, n)`` membership matrix of ``candidate_sets`` over ``names``.

    One flat scatter instead of a per-set Python loop — with thousands of
    candidate sets the loop is a measurable slice of a whole batched
    decision, so the name lookups run as C-level ``map`` calls.  Unknown
    machine names are simply absent from the mask, matching the per-set
    lookup the planners do themselves.
    """
    index = {m: j for j, m in enumerate(names)}
    m_sets = len(candidate_sets)
    masks = np.zeros((m_sets, len(names)), dtype=bool)
    lens = np.fromiter(map(len, candidate_sets), dtype=np.int64, count=m_sets)
    total = int(lens.sum())
    if total == 0:
        return masks
    rows = np.repeat(np.arange(m_sets), lens)
    cols = np.fromiter(
        map(index.get, chain.from_iterable(candidate_sets), repeat(-1)),
        dtype=np.int64,
        count=total,
    )
    known = cols >= 0
    masks[rows[known], cols[known]] = True
    return masks


def _tight_first(
    sets: list[tuple[str, ...]],
    feasible: Sequence[str],
    info: InformationPool,
    coupling: float,
) -> list[tuple[str, ...]]:
    """``sets`` stably sorted by (logical diameter, size).

    A set's diameter is its largest pairwise logical distance
    (:func:`repro.core.distance.set_diameter`, the oracle the tests sort
    by), read from one pair table of the forecast snapshot — the open
    decision's, else a fresh one — instead of re-queried per set.  Each
    member pair ``p < q`` in the tuple's own order reads ``D[t_p, t_q]``
    and an ``fmax`` reduction from ``0.0`` takes their maximum: exactly
    the running ``max()`` of the oracle, since a maximum never rounds.
    ``np.lexsort`` is stable, like ``list.sort``, so ties keep
    enumeration order.  Members must be ``feasible`` machines.
    """
    cache = info.decision_cache
    snapshot = cache.snapshot if cache is not None else info.pool.snapshot(feasible)
    dist = snapshot.transfer_matrix(feasible, coupling)
    index = {m: j for j, m in enumerate(feasible)}
    count = len(sets)
    sizes = np.fromiter(map(len, sets), dtype=np.int64, count=count)
    width = int(sizes.max())
    # Member positions, tuple order, left-aligned: slot k of row i holds
    # the k-th member of sets[i]; slots past its size stay 0 (masked).
    members = np.zeros((count, width), dtype=np.int64)
    slots = np.arange(width)[None, :] < sizes[:, None]
    members[slots] = np.fromiter(
        map(index.__getitem__, chain.from_iterable(sets)),
        dtype=np.int64, count=int(sizes.sum()),
    )
    p, q = np.triu_indices(width, k=1)
    pairs = np.where(slots[:, q], dist[members[:, p], members[:, q]], 0.0)
    diameters = np.fmax.reduce(pairs, axis=1, initial=0.0)
    return list(map(sets.__getitem__, np.lexsort((sizes, diameters)).tolist()))


class ResourceSelector:
    """Enumerate and prioritise candidate resource sets.

    Parameters
    ----------
    exhaustive_limit:
        Enumerate all *non-empty* subsets when the feasible pool has at
        most this many machines: ``2^n - 1`` candidate sets for an
        ``n``-machine pool, i.e. 2^12 - 1 = 4095 at the default limit (the
        empty set is never a candidate — see :meth:`exhaustive_count`).
    max_sets:
        Hard cap on the number of candidate sets returned.  Truncation is
        deterministic: enumeration emits sizes ascending and, within a
        size, machines in feasible-pool order (``itertools.combinations``),
        so the same pool always keeps the same prefix.
    regime:
        ``"auto"`` (default) enumerates exhaustively up to
        ``exhaustive_limit`` machines and falls back to the greedy ladder
        beyond it.  ``"greedy"`` always uses the ladder.  ``"exhaustive"``
        demands full enumeration and raises ``ValueError`` — naming the
        machine count — when the feasible pool exceeds the limit, instead
        of silently degrading to the ladder (the arena's exhaustive oracle
        must never quietly stop being an oracle).
    """

    def __init__(
        self,
        exhaustive_limit: int = 12,
        max_sets: int = 8192,
        regime: str = "auto",
    ) -> None:
        if exhaustive_limit < 1:
            raise ValueError("exhaustive_limit must be >= 1")
        if max_sets < 1:
            raise ValueError("max_sets must be >= 1")
        if regime not in _REGIMES:
            raise ValueError(f"regime must be one of {_REGIMES}, got {regime!r}")
        self.exhaustive_limit = exhaustive_limit
        self.max_sets = max_sets
        self.regime = regime

    @staticmethod
    def exhaustive_count(n_machines: int) -> int:
        """Candidate sets exhaustive enumeration yields for ``n`` machines.

        ``2^n - 1``: every subset except the empty one, which can run
        nothing.  (At the default ``exhaustive_limit`` of 12 this is 4095,
        not 4096 — a historical off-by-one in this class's docs.)
        """
        if n_machines < 0:
            raise ValueError("n_machines must be >= 0")
        return 2 ** n_machines - 1

    # -- filtering -------------------------------------------------------------
    def feasible_machines(self, info: InformationPool) -> list[str]:
        """Machines that pass the User Specification filter and can run at
        least one HAT task on their architecture."""
        names = []
        for name in info.pool.machine_names():
            m = info.machine_info(name)
            if not info.userspec.permits(m):
                continue
            if not any(t.can_run_on(m.arch) for t in info.hat.tasks):
                continue
            names.append(m.name)
        return names

    # -- enumeration ----------------------------------------------------------
    def candidate_sets(self, info: InformationPool) -> list[tuple[str, ...]]:
        """Prioritised candidate resource sets for the Coordinator.

        Ordering: the base enumeration (exhaustive or greedy ladder) with
        any :meth:`_extra_sets` appended.  When the application is coupled
        (stencil or pipeline traffic) and there are at most 1024 sets, the
        whole list is then stably sorted by (logical diameter, size):
        tightest sets first, smaller sets first among equal diameters,
        enumeration order among full ties.  Otherwise enumeration order is
        kept.  Truncated at ``max_sets``.  Inside a decision scope the
        distances come from the scope's forecast snapshot.
        """
        feasible = self.feasible_machines(info)
        if not feasible:
            return []
        max_machines = info.userspec.max_machines or len(feasible)
        max_machines = min(max_machines, len(feasible))

        if self.regime == "exhaustive" and len(feasible) > self.exhaustive_limit:
            raise ValueError(
                f"exhaustive selection requested for {len(feasible)} feasible "
                f"machines, above the 2^{self.exhaustive_limit} - 1 bound "
                f"(exhaustive_limit={self.exhaustive_limit}); raise "
                f"exhaustive_limit explicitly or use regime='greedy'"
            )
        exhaustive = self.regime == "exhaustive" or (
            self.regime == "auto" and len(feasible) <= self.exhaustive_limit
        )
        if exhaustive:
            regime = "exhaustive"
            sets = self._exhaustive(feasible, max_machines)
        else:
            regime = "greedy"
            sets = self._greedy(feasible, info, max_machines)

        extras = self._extra_sets(feasible, info, max_machines)
        if extras:
            seen = set(sets)
            for candidate in extras:
                if candidate and candidate not in seen:
                    seen.add(candidate)
                    sets.append(candidate)

        coupling = self._coupling_bytes(info)
        if coupling > 0.0 and len(sets) <= 1024:
            # Coupled applications try tight sets first.  The 1024-set gate
            # is part of the order's definition, not a cost cut-off: larger
            # enumerations keep enumeration order, and their bounds' pruning
            # statistics depend on it.
            sets = _tight_first(sets, feasible, info, coupling)
        sets = sets[: self.max_sets]
        tracer = get_tracer()
        if tracer.enabled:
            nws = info.pool.nws
            tracer.event(
                "core.selector.candidates", layer="core",
                t=float(nws.now) if nws is not None else None,
                feasible=len(feasible), sets=len(sets), regime=regime,
            )
            tracer.metrics.counter("core.selector.calls").inc()
            tracer.metrics.counter("core.selector.candidate_sets").inc(len(sets))
            tracer.metrics.counter(f"core.selector.regime.{regime}").inc()
        return sets

    def _extra_sets(
        self, feasible: Sequence[str], info: InformationPool, max_machines: int
    ) -> list[tuple[str, ...]]:
        """Additional candidate sets appended (deduplicated) to the base
        enumeration.  Subclasses — the arena's portfolio generators — add
        their learned or locality-expanded sets here; the base selector
        adds none."""
        return []

    def _coupling_bytes(self, info: InformationPool) -> float:
        comm = info.hat.communication
        if comm.pattern == "stencil":
            return comm.bytes_per_border_unit
        if comm.pattern == "pipeline":
            return comm.pipeline_unit_bytes
        return 0.0

    def _exhaustive(self, feasible: Sequence[str], max_machines: int) -> list[tuple[str, ...]]:
        subsets = chain.from_iterable(
            combinations(feasible, size) for size in range(1, max_machines + 1)
        )
        return list(islice(subsets, self.max_sets))

    def _greedy(
        self, feasible: Sequence[str], info: InformationPool, max_machines: int
    ) -> list[tuple[str, ...]]:
        """Speed-ranked prefixes plus per-site prefixes.

        O(n log n) candidate generation for big pools: the ladder of the
        globally fastest k machines for each k, and the same ladder
        restricted to each site (locality-tight sets).
        """
        by_speed = sorted(
            feasible, key=lambda n: info.pool.predicted_speed(n), reverse=True
        )
        sets: list[tuple[str, ...]] = []
        seen: set[tuple[str, ...]] = set()

        def push(candidate: tuple[str, ...]) -> None:
            if candidate and candidate not in seen:
                seen.add(candidate)
                sets.append(candidate)

        for k in range(1, max_machines + 1):
            push(tuple(by_speed[:k]))
        sites: dict[str, list[str]] = {}
        for name in by_speed:
            sites.setdefault(info.pool.machine_info(name).site, []).append(name)
        for members in sites.values():
            for k in range(1, min(len(members), max_machines) + 1):
                push(tuple(members[:k]))
        return sets[: self.max_sets]


class _AdaptiveSelector(ResourceSelector):
    """Greedy-ladder selector with a :class:`PruningStats` feedback loop.

    The ROADMAP's "selector learning" direction: the Coordinator's
    candidate-search statistics (how much of the last candidate space the
    admissible bounds pruned) plus the winning resource set are fed back
    via :meth:`observe`, and the generator adapts how *wide* it casts its
    extra candidate sets.  A heavily-pruned search means bounds are strong
    and extra candidates are nearly free, so breadth grows; a search that
    planned almost everything means candidates are expensive, so breadth
    shrinks.

    The base enumeration is always the greedy ladder (``regime="greedy"``),
    so on any pool these generators cost O(n log n) + O(breadth) planner
    calls — and because every extra set is *appended* to the ladder, their
    best objective can never be worse than the plain ladder's.
    """

    #: Breadth bounds for the PruningStats adaptation.  The floor keeps
    #: three sites in play — cross-site unions need at least the strongest
    #: site *pairs* even when pruning feedback argues for a narrow cast.
    min_breadth = 3
    max_breadth = 8

    def __init__(
        self,
        exhaustive_limit: int = 12,
        max_sets: int = 8192,
        breadth: int = 4,
        memory: int = 4,
    ) -> None:
        super().__init__(exhaustive_limit, max_sets, regime="greedy")
        if breadth < 1:
            raise ValueError("breadth must be >= 1")
        if memory < 1:
            raise ValueError("memory must be >= 1")
        self.breadth = breadth
        self.memory = memory
        self._winners: list[tuple[str, ...]] = []  # most recent first

    def observe(
        self, winner: Sequence[str], stats: "PruningStats | None" = None
    ) -> None:
        """Feed back one decision's winning resource set and search stats."""
        key = tuple(sorted(winner))
        if key:
            self._winners = [key] + [w for w in self._winners if w != key]
            del self._winners[self.memory:]
        if stats is not None and stats.bounded:
            if stats.pruned_fraction > 0.5:
                self.breadth = min(self.max_breadth, self.breadth + 1)
            else:
                self.breadth = max(self.min_breadth, self.breadth - 1)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.metrics.counter("core.selector.observed_winners").inc()

    def _conservative_ranked(
        self, feasible: Sequence[str], info: InformationPool
    ) -> list[str]:
        """Feasible machines by *conservative* deliverable speed, fastest
        first.  The greedy ladder ranks by the mean forecast; under volatile
        loads the error-discounted ranking the planner actually budgets
        with can differ — which is exactly the gap these generators mine."""
        return sorted(
            feasible,
            key=lambda n: info.pool.predicted_speed_conservative(n),
            reverse=True,
        )

    def _risk_ordered(
        self, feasible: Sequence[str], info: InformationPool
    ) -> list[str]:
        """Feasible machines by ascending forecast risk.

        Risk is the relative availability-forecast error
        (``error / availability``) — the exact per-member term whose
        maximum multiplies a schedule's objective.  Ties break toward
        higher conservative speed.
        """
        pool = info.pool

        def risk(name: str) -> float:
            avail = pool.predicted_availability(name)
            err = pool.predicted_availability_error(name)
            return err / max(avail, 0.05) if avail > 0 else float("inf")

        return sorted(
            feasible,
            key=lambda n: (risk(n), -pool.predicted_speed_conservative(n), n),
        )

    def _risk_ladder(
        self, feasible: Sequence[str], info: InformationPool, max_machines: int
    ) -> list[tuple[str, ...]]:
        """Prefixes of the pool ordered by ascending forecast risk.

        A schedule's objective is multiplied by ``1 + aversion × worst
        member risk``, so the best set at a given risk tolerance is drawn
        from the machines *below* that risk.  Each prefix of the
        risk-ascending order is exactly the pool at one risk cutoff; the
        planner's own drop/re-balance pass then discards members whose
        border cost outweighs their rate, so one candidate per cutoff lets
        the planner explore the whole speed-vs-volatility frontier — sets
        the mean-speed ladder cannot express.
        """
        ordered = self._risk_ordered(feasible, info)
        return [
            tuple(ordered[:k])
            for k in range(1, min(len(ordered), max_machines) + 1)
        ]


class SeededSelector(_AdaptiveSelector):
    """Previous-winner seeding: the greedy ladder plus remembered winners
    and single-machine variations around them.

    Scheduling decisions over one slowly-drifting pool tend to keep
    choosing near-identical resource sets; re-proposing recent winners (and
    their add-one/drop-one neighbourhood, strongest machines first) lets a
    big pool benefit from yesterday's search without exhaustive cost.
    """

    def _extra_sets(
        self, feasible: Sequence[str], info: InformationPool, max_machines: int
    ) -> list[tuple[str, ...]]:
        pool = set(feasible)
        ranked = self._conservative_ranked(feasible, info)
        extras: list[tuple[str, ...]] = []
        for k in range(1, max_machines + 1):
            extras.append(tuple(ranked[:k]))
        extras.extend(self._risk_ladder(feasible, info, max_machines))
        for winner in self._winners:
            members = [m for m in winner if m in pool]
            if not members:
                continue
            extras.append(tuple(members))
            member_set = set(members)
            added = 0
            if len(members) < max_machines:
                for m in ranked:  # add-one, strongest candidates first
                    if m in member_set:
                        continue
                    extras.append(tuple(members + [m]))
                    added += 1
                    if added >= self.breadth:
                        break
            if len(members) > 1:
                for dropped in members[: self.breadth]:  # drop-one
                    extras.append(tuple(m for m in members if m != dropped))
        return extras


class LocalitySelector(_AdaptiveSelector):
    """Locality-neighbourhood expansion: conservative-speed prefixes per
    site and unions of the strongest sites' prefixes.

    Site-restricted sets keep every strip border on a fast local segment;
    expanding the best site's prefix with its strongest neighbours explores
    the boundary where adding remote rate stops paying for WAN borders —
    candidate shapes the global ladder never proposes.
    """

    def _extra_sets(
        self, feasible: Sequence[str], info: InformationPool, max_machines: int
    ) -> list[tuple[str, ...]]:
        ranked = self._conservative_ranked(feasible, info)
        extras: list[tuple[str, ...]] = []
        for k in range(1, max_machines + 1):
            extras.append(tuple(ranked[:k]))
        extras.extend(self._risk_ladder(feasible, info, max_machines))
        # Two within-site orderings: by conservative speed (pure rate) and
        # by ascending risk (the multiplier the balance cannot see).  The
        # risk ordering matters because the planner never drops a member to
        # lower the set's risk multiplier — only candidates that already
        # exclude the volatile machines can reach low-risk optima.
        orderings = (ranked, self._risk_ordered(feasible, info))
        for ordering in orderings:
            sites: dict[str, list[str]] = {}
            for name in ordering:
                sites.setdefault(info.pool.machine_info(name).site, []).append(name)
            for members in sites.values():
                for k in range(1, min(len(members), max_machines) + 1):
                    extras.append(tuple(members[:k]))
            # Unions of the strongest sites' prefixes, widest pairing first.
            site_order = sorted(
                sites,
                key=lambda s: info.pool.predicted_speed_conservative(sites[s][0]),
                reverse=True,
            )
            # Small-subset unions dig deeper than prefixes: the best
            # two-site set often pairs each site's workhorse with a slow
            # *edge* machine that absorbs the WAN border cost on a tiny
            # strip — a member no prefix of either ordering reaches.  The
            # subset depth is fixed: breadth governs how many sites pair,
            # not how deep each site's roster goes.
            depth = 4
            for i, first in enumerate(site_order[: self.breadth]):
                for second in site_order[i + 1 : self.breadth]:
                    a, b = sites[first], sites[second]
                    for ka in range(1, len(a) + 1):
                        for kb in range(1, len(b) + 1):
                            if ka + kb <= max_machines:
                                extras.append(tuple(a[:ka] + b[:kb]))
                    for na in range(1, depth + 1):
                        for sub_a in combinations(a[:depth], na):
                            for nb in range(1, depth + 1):
                                if na + nb > max_machines:
                                    continue
                                for sub_b in combinations(b[:depth], nb):
                                    extras.append(sub_a + sub_b)
        return extras
