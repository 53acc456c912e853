"""Application-specific resource locality (§3.3).

"Two resources can be thought of as *close* if they can effectively be
coupled to promote the application's performance" — closeness is a function
of what the application *requires* from the coupling, not of the wire
between the machines.  The operational definition used here: the logical
distance between machines A and B is the predicted time to move the
application's characteristic data volume between them.  Machines on
opposite ends of a slow link are still "close" to an application that
barely communicates.
"""

from __future__ import annotations

from repro.core.resources import ResourcePool

__all__ = ["logical_distance", "rank_by_distance", "set_diameter"]


def logical_distance(
    pool: ResourcePool,
    a: str,
    b: str,
    coupling_bytes: float,
) -> float:
    """Predicted seconds to satisfy the app's coupling between ``a`` and ``b``.

    ``coupling_bytes`` is the application-specific per-step data movement
    between the two machines (from the HAT's communication
    characteristics).  Zero coupling means every pair is at distance 0 —
    embarrassingly-parallel applications see a flat metacomputer, exactly
    the CLEO/NILE observation that "the speed of the network link between
    [sites] is not critical" (§3.3).
    """
    if coupling_bytes < 0:
        raise ValueError(f"coupling_bytes must be >= 0, got {coupling_bytes}")
    if a == b or coupling_bytes == 0.0:
        return 0.0
    return pool.predicted_transfer_time(a, b, coupling_bytes)


def rank_by_distance(
    pool: ResourcePool,
    anchor: str,
    candidates: list[str],
    coupling_bytes: float,
) -> list[str]:
    """Candidates sorted by logical distance from ``anchor`` (closest first).

    Ties (including the all-zero case) preserve the input order, keeping
    the ranking deterministic.
    """
    return sorted(
        candidates,
        key=lambda c: logical_distance(pool, anchor, c, coupling_bytes),
    )


def set_diameter(pool: ResourcePool, machines: list[str], coupling_bytes: float) -> float:
    """Largest pairwise logical distance within a machine set.

    The Resource Selector prefers candidate sets with small diameter when
    the application is communication-coupled.  It reads the same
    distances from a forecast snapshot's pair table in one array pass;
    this per-pair loop is the reference its order is tested against.
    """
    if len(machines) < 2:
        return 0.0
    worst = 0.0
    for i, a in enumerate(machines):
        for b in machines[i + 1 :]:
            worst = max(worst, logical_distance(pool, a, b, coupling_bytes))
    return worst
