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

Candidate sets live in index space: :class:`CandidateSets` holds them as
rows of positions into the feasible machines, and tuples of names are
built only where a set is read.  The exhaustive rows depend on nothing
but the machine count, the cap and ``max_sets``, so each such table is
built once per process; the greedy ladder is index prefixes.

For a communication-coupled application, a list of at most 1024 sets is
then stably sorted by (logical diameter, size), so tight sets come first.
The diameters are read from one pair table of the forecast snapshot
(:meth:`~repro.nws.snapshot.ForecastSnapshot.transfer_matrix`), gathered
by the index rows, a maximum per set, and the order is one
``np.lexsort``.  Larger lists, and uncoupled applications, keep
enumeration order.

Inside a decision scope the feasible machines (per filter and HAT) and
the enumeration are memoised on the forecast snapshot, the latter keyed
by the selector's value, the feasible machines, the cap and the
coupling: every configuration with that key at one pool state shares one
:class:`CandidateSets`, and with it the membership masks
:meth:`CandidateSets.masks_over` builds.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator, Sequence
from functools import lru_cache
from itertools import chain, combinations, islice
from math import comb
from typing import TYPE_CHECKING

import numpy as np

from repro.core.infopool import InformationPool
from repro.obs.trace import get_tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.coordinator import PruningStats

__all__ = [
    "CandidateSets",
    "ResourceSelector",
    "SeededSelector",
    "LocalitySelector",
]

_REGIMES = ("auto", "exhaustive", "greedy")


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class CandidateSets(Sequence[tuple[str, ...]]):
    """An immutable list of candidate resource sets, held as index rows.

    ``names`` are the machines the sets are drawn from.  ``rows`` is a
    read-only ``(m, w)`` matrix of positions into ``names`` in the
    narrowest unsigned dtype that holds ``len(names)``: row ``i`` lists set
    ``i``'s members in tuple order, left-aligned, and is padded with
    ``len(names)``; ``sizes[i]`` is its member count.  As a sequence it
    reads like the list of name tuples it stands for: indexing builds one
    tuple, a slice is another ``CandidateSets``, and it compares equal to
    any sequence of the same tuples.
    """

    __slots__ = ("names", "rows", "sizes", "_masks")

    def __init__(
        self, names: Sequence[str], rows: np.ndarray, sizes: np.ndarray
    ) -> None:
        self.names = tuple(names)
        self.rows = _read_only(rows)
        self.sizes = _read_only(sizes)
        self._masks: dict[tuple[str, ...], np.ndarray] = {}

    @classmethod
    def of(
        cls, sets: Iterable[Sequence[str]], names: Sequence[str]
    ) -> "CandidateSets":
        """``sets`` (tuples of machine names) as index rows over ``names``.

        A :class:`CandidateSets` is returned unchanged.  Raises
        ``ValueError`` for a member that is not in ``names``.
        """
        if isinstance(sets, CandidateSets):
            return sets
        position = {name: i for i, name in enumerate(names)}
        try:
            index = [tuple(map(position.__getitem__, s)) for s in sets]
        except KeyError as err:
            raise ValueError(
                f"candidate set member {err.args[0]!r} is not one of the "
                f"{len(position)} machines {tuple(names)!r}"
            ) from None
        return cls._from_index(names, index)

    @classmethod
    def _from_index(
        cls, names: Sequence[str], index: Sequence[tuple[int, ...]]
    ) -> "CandidateSets":
        """Sets given as tuples of positions into ``names``."""
        dtype = np.min_scalar_type(len(names))  # len(names) pads
        sizes = np.fromiter(map(len, index), dtype=dtype, count=len(index))
        width = int(sizes.max(initial=0))
        rows = np.full((len(index), width), len(names), dtype=dtype)
        rows[np.arange(width) < sizes[:, None]] = np.fromiter(
            chain.from_iterable(index), dtype=dtype, count=int(sizes.sum())
        )
        return cls(names, rows, sizes)

    def __len__(self) -> int:
        return len(self.sizes)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return CandidateSets(self.names, self.rows[index], self.sizes[index])
        row = self.rows[index]
        return tuple(map(self.names.__getitem__, row[: self.sizes[index]].tolist()))

    def __iter__(self) -> Iterator[tuple[str, ...]]:
        names = self.names.__getitem__
        for row, size in zip(self.rows.tolist(), self.sizes.tolist()):
            yield tuple(map(names, row[:size]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other)
        )

    def __repr__(self) -> str:
        return f"CandidateSets({list(self)!r})"

    def masks_over(self, order: Sequence[str]) -> np.ndarray:
        """Read-only ``(m, len(order))`` membership matrix over ``order``.

        Entry ``[i, j]`` is whether ``order[j]`` is a member of set ``i``;
        a member absent from ``order`` has no column.  One permutation
        gather maps the index rows to ``order``'s columns; the matrix is
        memoised per ``order``, so configurations that share these sets
        share their masks too.
        """
        key = tuple(order)
        masks = self._masks.get(key)
        if masks is None:
            n = len(key)
            column = {name: j for j, name in enumerate(key)}
            # Position in names -> column in order; absent members and the
            # padding land in a spare column n that is cut off.
            perm = np.array(
                [column.get(name, n) for name in self.names] + [n], dtype=np.intp
            )
            full = np.zeros((len(self), n + 1), dtype=bool)
            np.put_along_axis(full, perm[self.rows], True, axis=1)
            masks = self._masks[key] = _read_only(full[:, :n])
        return masks


@lru_cache(maxsize=32)
def _exhaustive_rows(n: int, cap: int, limit: int) -> tuple[np.ndarray, np.ndarray]:
    """Index rows of the first ``limit`` non-empty subsets of ``range(n)``
    with at most ``cap`` members: sizes ascending, ``itertools.combinations``
    order within a size.  A pure function of its arguments, so each table
    is built once per process and shared read-only."""
    counts = []
    for size in range(1, cap + 1):
        take = min(comb(n, size), limit - sum(counts))
        if take <= 0:
            break
        counts.append(take)
    dtype = np.min_scalar_type(n)  # n pads
    rows = np.full((sum(counts), len(counts)), n, dtype=dtype)
    sizes = np.repeat(np.arange(1, len(counts) + 1, dtype=dtype), counts)
    start = 0
    for size, take in enumerate(counts, start=1):
        subsets = islice(combinations(range(n), size), take)
        rows[start:start + take, :size] = np.fromiter(
            chain.from_iterable(subsets), dtype=dtype, count=take * size
        ).reshape(take, size)
        start += take
    return _read_only(rows), _read_only(sizes)


def _union(base: CandidateSets, extra: CandidateSets) -> CandidateSets:
    """``base`` followed by each set of ``extra`` it lacks, once, in
    order.  Sets are equal as exact tuples (member order counts); ``base``
    holds no duplicates."""
    pad = len(base.names)
    width = max(base.rows.shape[1], extra.rows.shape[1])
    rows = np.full((len(base) + len(extra), width), pad, dtype=base.rows.dtype)
    rows[: len(base), : base.rows.shape[1]] = base.rows
    rows[len(base):, : extra.rows.shape[1]] = extra.rows
    keys = rows.view(np.dtype((np.void, rows.itemsize * width))).ravel()
    first = np.sort(np.unique(keys, return_index=True)[1])
    sizes = np.concatenate([base.sizes, extra.sizes])
    return CandidateSets(base.names, rows[first], sizes[first])


def _tight_first(
    sets: CandidateSets, info: InformationPool, coupling: float
) -> np.ndarray:
    """The order that stably sorts ``sets`` by (logical diameter, size).

    A set's diameter is its largest pairwise logical distance
    (:func:`repro.core.distance.set_diameter`, the oracle the tests sort
    by), read from one pair table of ``info.forecasts.snapshot()`` — the
    open decision's snapshot, else a fresh one of the pool — over
    ``sets.names``.  Each member pair ``p < q`` in the tuple's own order
    reads ``D[rows[:, p], rows[:, q]]``, the padding reading ``0.0``, and
    an ``fmax`` reduction from ``0.0`` takes their maximum: exactly the
    running ``max()`` of the oracle, since a maximum never rounds.
    ``np.lexsort`` is stable, like ``list.sort``, so ties keep
    enumeration order.
    """
    names = sets.names
    dist = info.forecasts.snapshot(names).transfer_matrix(names, coupling)
    dist = np.pad(dist, ((0, 1), (0, 1)))  # row and column len(names): 0.0
    p, q = np.triu_indices(sets.rows.shape[1], k=1)
    diameters = np.fmax.reduce(
        dist[sets.rows[:, p], sets.rows[:, q]], axis=1, initial=0.0
    )
    return np.lexsort((sets.sizes, diameters))


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
        least one HAT task on their architecture.  Inside a decision scope
        the tuple is memoised on the snapshot, keyed by the fields
        :meth:`UserSpecification.permits` reads and the tasks'
        implementation maps."""
        us, tasks = info.userspec, info.hat.tasks

        def build() -> tuple[str, ...]:
            return tuple(
                m.name
                for m in map(info.machine_info, info.forecasts.machine_names())
                if us.permits(m) and any(t.can_run_on(m.arch) for t in tasks)
            )

        key = ("feasible-machines", us.excluded_machines, us.accessible_machines,
               us.required_capabilities,
               tuple(tuple(sorted(t.implementations.items())) for t in tasks))
        return list(info.derived(key, build))

    # -- enumeration ----------------------------------------------------------
    def candidate_sets(self, info: InformationPool) -> CandidateSets:
        """Prioritised candidate resource sets for the Coordinator.

        Ordering: the base enumeration (exhaustive or greedy ladder) with
        any :meth:`_extra_sets` appended.  When the application is coupled
        (stencil or pipeline traffic) and there are at most 1024 sets, the
        whole list is then stably sorted by (logical diameter, size):
        tightest sets first, smaller sets first among equal diameters,
        enumeration order among full ties.  Otherwise enumeration order is
        kept.  Truncated at ``max_sets``.  Inside a decision scope the
        distances come from the scope's forecast snapshot, and the result
        is memoised on it: another call there with an equal selector, the
        same feasible machines, cap and coupling returns the same object.
        """
        feasible = tuple(self.feasible_machines(info))
        if not feasible:
            return CandidateSets.of([], feasible)
        max_machines = info.userspec.max_machines or len(feasible)
        max_machines = min(max_machines, len(feasible))

        if self.regime == "exhaustive" and len(feasible) > self.exhaustive_limit:
            raise ValueError(
                f"exhaustive selection requested for {len(feasible)} feasible "
                f"machines, above the 2^{self.exhaustive_limit} - 1 bound "
                f"(exhaustive_limit={self.exhaustive_limit}); raise "
                f"exhaustive_limit explicitly or use regime='greedy'"
            )
        coupling = self._coupling_bytes(info)
        built = []

        def build() -> tuple[CandidateSets, str]:
            built.append(True)
            return self._enumerate(feasible, info, max_machines, coupling)

        key = ("candidate-sets", self._enumeration_key(), feasible,
               max_machines, coupling)
        sets, regime = info.derived(key, build)
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
            if not built:
                tracer.metrics.counter("core.selector.shared_hits").inc()
        return sets

    def _enumeration_key(self) -> Hashable:
        """Everything of this selector's value that its enumeration reads:
        equal selectors share enumerations inside a decision scope."""
        return (type(self), self.exhaustive_limit, self.max_sets, self.regime)

    def _enumerate(
        self,
        feasible: tuple[str, ...],
        info: InformationPool,
        max_machines: int,
        coupling: float,
    ) -> tuple[CandidateSets, str]:
        """The ordered, truncated candidate sets, and the regime's name."""
        exhaustive = self.regime == "exhaustive" or (
            self.regime == "auto" and len(feasible) <= self.exhaustive_limit
        )
        if exhaustive:
            regime = "exhaustive"
            sets = self._exhaustive(feasible, max_machines)
        else:
            regime = "greedy"
            sets = self._greedy(feasible, info, max_machines)

        extras = [s for s in self._extra_sets(feasible, info, max_machines) if s]
        if extras:
            sets = _union(sets, CandidateSets.of(extras, feasible))

        if coupling > 0.0 and len(sets) <= 1024:
            # Coupled applications try tight sets first.  The 1024-set gate
            # is part of the order's definition, not a cost cut-off: larger
            # enumerations keep enumeration order, and their bounds' pruning
            # statistics depend on it.
            order = _tight_first(sets, info, coupling)
            sets = CandidateSets(feasible, sets.rows[order], sets.sizes[order])
        return sets[: self.max_sets], regime

    def _extra_sets(
        self, feasible: Sequence[str], info: InformationPool, max_machines: int
    ) -> list[tuple[str, ...]]:
        """Additional candidate sets appended (deduplicated) to the base
        enumeration.  Subclasses — the arena's portfolio generators — add
        their learned or locality-expanded sets here, as tuples of
        ``feasible`` names; the base selector adds none."""
        return []

    def _coupling_bytes(self, info: InformationPool) -> float:
        comm = info.hat.communication
        if comm.pattern == "stencil":
            return comm.bytes_per_border_unit
        if comm.pattern == "pipeline":
            return comm.pipeline_unit_bytes
        return 0.0

    def _exhaustive(self, feasible: Sequence[str], max_machines: int) -> CandidateSets:
        rows, sizes = _exhaustive_rows(len(feasible), max_machines, self.max_sets)
        return CandidateSets(feasible, rows, sizes)

    def _greedy(
        self, feasible: Sequence[str], info: InformationPool, max_machines: int
    ) -> CandidateSets:
        """Speed-ranked prefixes plus per-site prefixes.

        O(n log n) candidate generation for big pools: the ladder of the
        globally fastest k machines for each k, and the same ladder
        restricted to each site (locality-tight sets), as index prefixes.
        """
        speed = info.forecasts.predicted_speed
        by_speed = sorted(
            range(len(feasible)), key=lambda i: speed(feasible[i]), reverse=True
        )
        sets: dict[tuple[int, ...], None] = {}  # insertion-ordered, unique
        for k in range(1, max_machines + 1):
            sets.setdefault(tuple(by_speed[:k]))
        sites: dict[str, list[int]] = {}
        for i in by_speed:
            sites.setdefault(info.machine_info(feasible[i]).site, []).append(i)
        for members in sites.values():
            for k in range(1, min(len(members), max_machines) + 1):
                sets.setdefault(tuple(members[:k]))
        return CandidateSets._from_index(feasible, list(sets)[: self.max_sets])


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

    def _enumeration_key(self) -> Hashable:
        """The base key plus the breadth and the remembered winners, the
        state :meth:`observe` changes."""
        return (*super()._enumeration_key(), self.breadth, tuple(self._winners))

    def _conservative_ranked(
        self, feasible: Sequence[str], info: InformationPool
    ) -> list[str]:
        """Feasible machines by *conservative* deliverable speed, fastest
        first.  The greedy ladder ranks by the mean forecast; under volatile
        loads the error-discounted ranking the planner actually budgets
        with can differ — which is exactly the gap these generators mine."""
        return sorted(
            feasible,
            key=info.forecasts.predicted_speed_conservative,
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
        forecasts = info.forecasts

        def risk(name: str) -> float:
            avail = forecasts.predicted_availability(name)
            err = forecasts.predicted_availability_error(name)
            return err / max(avail, 0.05) if avail > 0 else float("inf")

        return sorted(
            feasible,
            key=lambda n: (risk(n), -forecasts.predicted_speed_conservative(n), n),
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
                sites.setdefault(info.machine_info(name).site, []).append(name)
            for members in sites.values():
                for k in range(1, min(len(members), max_machines) + 1):
                    extras.append(tuple(members[:k]))
            # Unions of the strongest sites' prefixes, widest pairing first.
            site_order = sorted(
                sites,
                key=lambda s: info.forecasts.predicted_speed_conservative(sites[s][0]),
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
