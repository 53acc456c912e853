"""Candidate order: the array ordering equals the ``set_diameter`` sort.

The Resource Selector stably sorts a coupled application's candidate sets
by (logical diameter, size).  Production reads every diameter from one
pair table of the forecast snapshot (a masked maximum per set, then one
``np.lexsort``); the oracle is the plain Python sort keyed on
:func:`repro.core.distance.set_diameter`, which re-queries the pool per
pair.  Drawn pools carry a dead link (``inf`` distances) and repeated
link shapes (tied distances), so the order of ties is checked too.
"""

from __future__ import annotations

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
from repro.core.selector import LocalitySelector, ResourceSelector, SeededSelector
from repro.core.userspec import UserSpecification
from repro.nws.service import NetworkWeatherService
from repro.sim.host import Host
from repro.sim.link import Link
from repro.sim.load import ConstantLoad
from repro.sim.topology import Topology


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
