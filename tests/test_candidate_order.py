"""Candidate order and enumeration: index rows against name-space oracles.

The Resource Selector stably sorts a coupled application's candidate sets
by (logical diameter, size).  Production reads every diameter from one
pair table of the forecast snapshot, gathered by the sets' index rows (a
maximum per set, then one ``np.lexsort``); the oracle is the plain Python
sort keyed on :func:`repro.core.distance.set_diameter`, which re-queries
the pool per pair.  Drawn pools carry a dead link (``inf`` distances) and
repeated link shapes (tied distances), so the order of ties is checked
too.  The enumeration itself — exhaustive index tables, the greedy
ladder as index prefixes, the subclasses' extra sets — is held to a
name-space reference, and :class:`CandidateSets` to the sequence protocol
and to the name-lookup membership oracle.
"""

from __future__ import annotations

from itertools import chain, combinations, islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distance import set_diameter
from repro.core.hat import (
    CommunicationCharacteristics,
    HeterogeneousApplicationTemplate,
    StructureInfo,
    TaskCharacteristics,
)
from repro.core.infopool import InformationPool
from repro.core.resources import ResourcePool
from repro.core.selector import (
    CandidateSets,
    LocalitySelector,
    ResourceSelector,
    SeededSelector,
)
from repro.core.userspec import UserSpecification
from repro.nws.service import NetworkWeatherService
from repro.sim.host import Host
from repro.sim.link import Link
from repro.sim.load import ConstantLoad
from repro.sim.topology import Topology
from strip_bounds_reference import member_masks_over


def _hat(coupling: float) -> HeterogeneousApplicationTemplate:
    return HeterogeneousApplicationTemplate(
        name="drawn", paradigm="data-parallel",
        tasks=(TaskCharacteristics("work", flop_per_unit=1e-3),),
        communication=CommunicationCharacteristics(
            pattern="stencil" if coupling > 0 else "none",
            bytes_per_border_unit=coupling,
        ),
        structure=StructureInfo(total_units=1e6, iterations=1),
    )


@st.composite
def _pools(draw):
    """A drawn pool of 1-8 hosts around one hub.

    Every host reaches the hub over its own link; bandwidths and
    latencies come from two-value menus, so many pairs tie.  Optional
    direct links shortcut the hub (one hop beats two).  With two or more
    hosts, the first two are joined directly over a dead link.
    """
    n = draw(st.integers(min_value=1, max_value=8))
    topo = Topology()
    topo.add_node("hub")
    names = [f"h{i}" for i in range(n)]
    for name in names:
        topo.add_host(Host(
            name,
            speed_mflops=draw(st.sampled_from([20.0, 40.0])),
            site=draw(st.sampled_from(["east", "west"])),
        ))
        topo.connect(name, "hub", Link(
            f"up:{name}",
            bandwidth_mbit=draw(st.sampled_from([10.0, 100.0])),
            latency_s=draw(st.sampled_from([0.001, 0.002])),
        ))
    if n >= 2:
        topo.connect("h0", "h1", Link("dead", bandwidth_mbit=10.0,
                                      load=ConstantLoad(0.0)))
        pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
        for a, b in draw(st.lists(st.sampled_from(pairs[1:] or pairs),
                                  max_size=3, unique=True)):
            if (a, b) != ("h0", "h1"):
                topo.connect(a, b, Link(f"{a}-{b}", bandwidth_mbit=100.0,
                                        latency_s=0.001))
    nws = None
    if draw(st.booleans()):
        nws = NetworkWeatherService(topo, noise_std=0.0)
        nws.advance_to(90.0)
    return ResourcePool(topo, nws), names


@settings(max_examples=40, deadline=None)
@given(
    drawn=_pools(),
    coupling=st.sampled_from([8.0, 64_000.0]),
    cap=st.one_of(st.none(), st.integers(min_value=1, max_value=8)),
    data=st.data(),
)
def test_candidate_order_matches_set_diameter_sort(drawn, coupling, cap, data):
    pool, names = drawn
    userspec = UserSpecification(max_machines=cap)
    seeded = SeededSelector()
    locality = LocalitySelector()
    for winner in data.draw(st.lists(
        st.lists(st.sampled_from(names), min_size=1, unique=True), max_size=3
    )):
        seeded.observe(winner)
        locality.observe(winner)
    selectors = (
        ResourceSelector(regime="exhaustive"),
        ResourceSelector(regime="greedy"),
        seeded,
        locality,
    )
    coupled = InformationPool(pool=pool, hat=_hat(coupling), userspec=userspec)
    # Same pool and User Specification, no coupling: enumeration order.
    flat = InformationPool(pool=pool, hat=_hat(0.0), userspec=userspec)
    for selector in selectors:
        enumerated = selector.candidate_sets(flat)
        assert len(enumerated) <= 1024
        expected = sorted(
            enumerated,
            key=lambda s: (set_diameter(pool, list(s), coupling), len(s)),
        )
        assert selector.candidate_sets(coupled) == expected
        with coupled.decision_scope():
            assert selector.candidate_sets(coupled) == expected


# -- the index enumeration against a name-space reference ----------------------
def _reference(selector, info, coupling):
    """The candidate list enumerated and ordered name by name.

    ``itertools.combinations`` over the feasible machines (sizes
    ascending), or the greedy ladder of speed-ranked and per-site
    prefixes; the subclass's extra sets appended once each; sorted by
    ``set_diameter`` when coupled with at most 1024 sets; cut at
    ``max_sets``.
    """
    pool = info.pool
    feasible = selector.feasible_machines(info)
    if not feasible:
        return []
    cap = min(info.userspec.max_machines or len(feasible), len(feasible))
    exhaustive = selector.regime == "exhaustive" or (
        selector.regime == "auto" and len(feasible) <= selector.exhaustive_limit
    )
    if exhaustive:
        sets = list(islice(chain.from_iterable(
            combinations(feasible, k) for k in range(1, cap + 1)
        ), selector.max_sets))
    else:
        by_speed = sorted(feasible, key=pool.predicted_speed, reverse=True)
        ladder = [tuple(by_speed[:k]) for k in range(1, cap + 1)]
        sites = {}
        for name in by_speed:
            sites.setdefault(pool.machine_info(name).site, []).append(name)
        for members in sites.values():
            ladder += [tuple(members[:k])
                       for k in range(1, min(len(members), cap) + 1)]
        sets = list(dict.fromkeys(ladder))[: selector.max_sets]
    for extra in selector._extra_sets(feasible, info, cap):
        if extra and extra not in sets:
            sets.append(extra)
    if coupling > 0 and len(sets) <= 1024:
        sets.sort(key=lambda s: (set_diameter(pool, list(s), coupling), len(s)))
    return sets[: selector.max_sets]


@settings(max_examples=40, deadline=None)
@given(
    drawn=_pools(),
    coupling=st.sampled_from([0.0, 8.0, 64_000.0]),
    cap=st.one_of(st.none(), st.integers(min_value=1, max_value=8)),
    max_sets=st.one_of(st.just(8192), st.integers(min_value=1, max_value=60)),
    data=st.data(),
)
def test_index_enumeration_matches_name_space_reference(
    drawn, coupling, cap, max_sets, data
):
    """Every selector's index enumeration lists the reference's tuples,
    with ``max_sets`` cuts inside a size, inside a decision scope and
    outside one."""
    pool, names = drawn
    info = InformationPool(
        pool=pool, hat=_hat(coupling),
        userspec=UserSpecification(max_machines=cap),
    )
    seeded = SeededSelector(max_sets=max_sets)
    locality = LocalitySelector(max_sets=max_sets)
    for winner in data.draw(st.lists(
        st.lists(st.sampled_from(names), min_size=1, unique=True), max_size=3
    )):
        seeded.observe(winner)
        locality.observe(winner)
    for selector in (
        ResourceSelector(regime="exhaustive", max_sets=max_sets),
        ResourceSelector(regime="greedy", max_sets=max_sets),
        seeded,
        locality,
    ):
        expected = _reference(selector, info, coupling)
        assert list(selector.candidate_sets(info)) == expected
        with info.decision_scope():
            assert list(selector.candidate_sets(info)) == expected


# -- CandidateSets ---------------------------------------------------------------
_NAMES = ("a", "b", "c", "d")
_SETS = [("a",), ("c", "b"), ("d", "a", "c"), ("b",), ("a", "b", "c", "d")]


def test_candidate_sets_is_a_sequence_of_name_tuples():
    sets = CandidateSets.of(_SETS, _NAMES)
    assert len(sets) == len(_SETS)
    assert [sets[i] for i in range(len(sets))] == _SETS
    assert sets[-1] == _SETS[-1] and sets[-len(_SETS)] == _SETS[0]
    with pytest.raises(IndexError):
        sets[len(_SETS)]
    assert list(sets) == _SETS
    assert list(reversed(sets)) == _SETS[::-1]
    assert ("c", "b") in sets and ("b", "c") not in sets
    assert sets == _SETS and sets == tuple(_SETS)
    assert sets != _SETS[:-1] and sets != [list(s) for s in _SETS]
    assert sets[1:3] == _SETS[1:3] and isinstance(sets[1:3], CandidateSets)
    assert sets.index(("b",)) == 3 and sets.count(("a",)) == 1
    assert CandidateSets.of([], _NAMES) == []
    assert sets.rows.dtype == np.uint8
    assert sets.sizes.tolist() == [len(s) for s in _SETS]


def test_candidate_sets_arrays_and_masks_are_read_only():
    sets = CandidateSets.of(_SETS, _NAMES)
    masks = sets.masks_over(_NAMES)
    for array in (sets.rows, sets.sizes, masks):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0


@pytest.mark.parametrize("order", [
    _NAMES, _NAMES[::-1], ("c", "a"), ("d", "x", "b", "a", "c", "y"), (),
])
def test_masks_over_equals_name_lookup(order):
    """Members outside ``order`` have no column, as in the oracle, and a
    repeated call returns the same matrix."""
    sets = CandidateSets.of(_SETS, _NAMES)
    masks = sets.masks_over(order)
    assert masks.shape == (len(_SETS), len(order))
    assert np.array_equal(masks, member_masks_over(_SETS, order))
    assert sets.masks_over(list(order)) is masks


def test_of_rejects_a_name_outside_the_machines():
    with pytest.raises(ValueError, match="'z'"):
        CandidateSets.of([("a",), ("b", "z")], _NAMES)
    sets = CandidateSets.of(_SETS, _NAMES)
    assert CandidateSets.of(sets, ("other",)) is sets
