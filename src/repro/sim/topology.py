"""Network topology: hosts, segments and routed paths.

The topology is an undirected multigraph whose vertices are host names plus
infrastructure nodes (gateways, switches) and whose edges are
:class:`~repro.sim.link.Link` objects.  Routing minimises hop count with
latency as a tie-break (Dijkstra on ``(hops, latency)``), which matches the
flat 1996 testbed where every pair had an obvious single route.

Path metrics follow the usual composition rules: latency adds, bandwidth is
the bottleneck (minimum deliverable bandwidth along the path).
"""

from __future__ import annotations

import heapq
from typing import Iterable, Sequence

import numpy as np

from repro.sim.host import Host
from repro.sim.link import Link
from repro.sim.load import epoch_cached
from repro.util.validation import check_nonnegative

__all__ = ["Topology", "RouteError"]


class RouteError(KeyError):
    """Raised when no route exists between two nodes."""


class Topology:
    """An undirected network graph over hosts and infrastructure nodes."""

    def __init__(self) -> None:
        self.hosts: dict[str, Host] = {}
        # Vertex -> registration index: path sums run from the
        # earlier-registered end (see :meth:`path_latency`).
        self._nodes: dict[str, int] = {}
        # adjacency: node -> list of (neighbor, link)
        self._adj: dict[str, list[tuple[str, Link]]] = {}
        self.links: dict[str, Link] = {}
        self._route_cache: dict[tuple[str, str], list[Link]] = {}
        self._latency_cache: dict[tuple[str, str], float] = {}
        self._route_tables: dict[tuple[str, ...], tuple[np.ndarray, np.ndarray]] = {}

    # -- construction --------------------------------------------------------
    def add_host(self, host: Host) -> Host:
        """Register a host vertex."""
        if host.name in self.hosts:
            raise ValueError(f"duplicate host {host.name!r}")
        self.hosts[host.name] = host
        self._add_node(host.name)
        return host

    def add_node(self, name: str) -> None:
        """Register an infrastructure vertex (gateway, switch, segment hub)."""
        self._add_node(name)

    def _add_node(self, name: str) -> None:
        if not name:
            raise ValueError("node name must be non-empty")
        self._nodes.setdefault(name, len(self._nodes))
        self._adj.setdefault(name, [])

    def connect(self, a: str, b: str, link: Link) -> None:
        """Attach ``a`` and ``b`` with ``link`` (undirected)."""
        for node in (a, b):
            if node not in self._nodes:
                raise KeyError(f"unknown node {node!r}; add hosts/nodes first")
        if a == b:
            raise ValueError("cannot connect a node to itself")
        if link.name in self.links and self.links[link.name] is not link:
            raise ValueError(f"distinct link reuses name {link.name!r}")
        self.links[link.name] = link
        self._adj[a].append((b, link))
        self._adj[b].append((a, link))
        self._route_cache.clear()
        self._latency_cache.clear()
        self._route_tables.clear()

    def attach_segment(self, link: Link, members: Iterable[str]) -> None:
        """Model a broadcast segment as a hub node all members connect to.

        Each member reaches the hub over the *same* :class:`Link` object, so
        segment bandwidth/availability is shared by construction.  The hub
        vertex is named ``"seg:" + link.name``.
        """
        hub = f"seg:{link.name}"
        self._add_node(hub)
        members = list(members)
        if len(members) < 2:
            raise ValueError("a segment needs at least two members")
        for m in members:
            self.connect(m, hub, link)

    # -- queries ------------------------------------------------------------
    @property
    def nodes(self) -> set[str]:
        """All vertex names (hosts + infrastructure)."""
        return set(self._nodes)

    def host(self, name: str) -> Host:
        """Look up a host by name."""
        try:
            return self.hosts[name]
        except KeyError:
            raise KeyError(f"unknown host {name!r}") from None

    def route(self, a: str, b: str) -> list[Link]:
        """The sequence of links on the route from ``a`` to ``b``.

        Minimises ``(hop count, total latency)``.  A host's route to itself
        is the empty list (local communication is free).
        """
        if a not in self._nodes or b not in self._nodes:
            missing = a if a not in self._nodes else b
            raise KeyError(f"unknown node {missing!r}")
        if a == b:
            return []
        cached = self._route_cache.get((a, b))
        if cached is not None:
            return cached
        # Dijkstra on (hops, latency).
        dist: dict[str, tuple[int, float]] = {a: (0, 0.0)}
        prev: dict[str, tuple[str, Link]] = {}
        heap: list[tuple[int, float, str]] = [(0, 0.0, a)]
        while heap:
            hops, lat, node = heapq.heappop(heap)
            if (hops, lat) > dist.get(node, (1 << 30, float("inf"))):
                continue
            if node == b:
                break
            for nbr, link in self._adj[node]:
                cand = (hops + 1, lat + link.latency_s)
                if cand < dist.get(nbr, (1 << 30, float("inf"))):
                    dist[nbr] = cand
                    prev[nbr] = (node, link)
                    heapq.heappush(heap, (cand[0], cand[1], nbr))
        if b not in dist:
            raise RouteError(f"no route between {a!r} and {b!r}")
        path: list[Link] = []
        node = b
        while node != a:
            parent, link = prev[node]
            path.append(link)
            node = parent
        path.reverse()
        self._route_cache[(a, b)] = path
        self._route_cache[(b, a)] = list(reversed(path))
        return path

    def path_latency(self, a: str, b: str) -> float:
        """Sum of link latencies along the route.

        Cached per pair (latencies are construction-time constants, so the
        sum never changes while the topology stands; ``connect`` clears it).
        Both directions sum the route that starts at the earlier-registered
        end: float addition is not associative, so summing whichever
        direction happened to be asked first would make the value depend
        on query history.
        """
        cached = self._latency_cache.get((a, b))
        if cached is not None:
            return cached
        order = self._nodes
        first, second = (b, a) if order.get(b, -1) < order.get(a, -1) else (a, b)
        latency = sum(link.latency_s for link in self.route(first, second))
        self._latency_cache[(a, b)] = latency
        self._latency_cache[(b, a)] = latency
        return latency

    def route_table(self, names: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        """Every route between ``names`` as link positions, and its latency.

        Returns read-only ``(links, latency)``.  ``links[i, j]`` lists the
        positions, in :attr:`links` order, of the links on the route from
        ``names[i]`` to ``names[j]``, padded with ``len(self.links)`` to
        the longest route; a host's route to itself is all padding.
        ``latency[i, j]`` is :meth:`path_latency`.  Gathering a per-link
        vector through ``links`` (with one extra entry for the padding) and
        taking the minimum along the last axis gives every bottleneck at
        once, exactly.  Cached per name order; :meth:`connect` clears it.
        """
        key = tuple(names)
        cached = self._route_tables.get(key)
        if cached is None:
            n = len(key)
            position = {name: k for k, name in enumerate(self.links)}
            pairs = [(a, b) for a in key for b in key]
            routes = [[position[link.name] for link in self.route(a, b)]
                      for a, b in pairs]
            width = max(map(len, routes), default=0)
            links = np.full((n * n, width), len(self.links), dtype=np.intp)
            for k, route in enumerate(routes):
                links[k, : len(route)] = route
            links = links.reshape(n, n, width)
            latency = np.array([self.path_latency(a, b) for a, b in pairs],
                               dtype=float).reshape(n, n)
            links.flags.writeable = False
            latency.flags.writeable = False
            cached = self._route_tables[key] = (links, latency)
        return cached

    def pair_bandwidth_table(
        self, a: str, b: str, n: int, flows: dict[str, int] | None = None
    ) -> tuple[np.ndarray, float] | None:
        """Per-epoch bottleneck bandwidth table for the ``a``→``b`` route.

        Array-export hook for the vectorised executor: stacks every route
        link's :meth:`~repro.sim.link.Link.bandwidth_table` (at its flow
        count from ``flows``) and min-reduces across links with NumPy, so
        element ``k`` is exactly the ``min(...)`` bottleneck the reference
        executor computes at any instant inside epoch ``k`` (min is exact —
        no rounding — hence order-free and bit-identical).

        Returns ``(table, dt)`` or ``None`` when the route cannot be
        compiled to a single epoch grid: no links (local), a mutable
        (non-:func:`~repro.sim.load.epoch_cached`) link load, or mixed
        epoch lengths along the route.
        """
        links = self.route(a, b)
        if not links:
            return None
        flows = flows or {}
        if any(not epoch_cached(link.load) for link in links):
            return None
        dts = {link.load.dt for link in links}
        if len(dts) != 1:
            return None
        tables = [
            link.bandwidth_table(n, max(1, flows.get(link.name, 1)))
            for link in links
        ]
        return np.minimum.reduce(tables), dts.pop()

    def path_bandwidth(self, a: str, b: str, t: float = 0.0, flows: int = 1) -> float:
        """Bottleneck deliverable bandwidth (bytes/s) along the route at ``t``.

        Returns ``inf`` for local (same-node) communication.
        """
        links = self.route(a, b)
        if not links:
            return float("inf")
        return min(link.deliverable_bandwidth(t, flows) for link in links)

    def transfer_time(self, a: str, b: str, nbytes: float, t: float = 0.0, flows: int = 1) -> float:
        """Seconds to move ``nbytes`` from ``a`` to ``b`` starting at ``t``.

        Store-and-forward effects are ignored (messages here are large
        relative to per-hop buffers): time = path latency + bytes over the
        bottleneck bandwidth.  Local transfers are free.
        """
        nbytes = check_nonnegative("nbytes", nbytes)
        links = self.route(a, b)
        if not links:
            return 0.0
        bw = min(link.deliverable_bandwidth(t, flows) for link in links)
        if bw <= 0.0:
            return float("inf")
        return self.path_latency(a, b) + nbytes / bw

    def same_segment(self, a: str, b: str) -> bool:
        """True if hosts ``a`` and ``b`` share a direct broadcast segment."""
        hubs_a = {nbr for nbr, _ in self._adj.get(a, ()) if nbr.startswith("seg:")}
        hubs_b = {nbr for nbr, _ in self._adj.get(b, ()) if nbr.startswith("seg:")}
        return bool(hubs_a & hubs_b)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Topology(hosts={len(self.hosts)}, nodes={len(self._nodes)}, "
            f"links={len(self.links)})"
        )
