"""Tests for the decomposition-preference dispatch (§5's user directive)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.coordinator import AppLeSAgent
from repro.core.userspec import UserSpecification
from repro.jacobi.apples import (
    ApplesBlockedPlanner,
    JacobiPlanner,
    PreferencePlanner,
    make_jacobi_agent,
)
from repro.jacobi.grid import JacobiProblem

from strip_bounds_reference import planner_bounds


class TestPreferencePlanner:
    def test_empty_planner_map_rejected(self):
        with pytest.raises(ValueError):
            PreferencePlanner({})

    def test_strip_only_default(self, testbed, warmed_nws):
        problem = JacobiProblem(n=800, iterations=10)
        agent = make_jacobi_agent(testbed, problem, warmed_nws)
        best = agent.schedule().best
        assert best.decomposition == "apples-strip"

    def test_blocked_only_preference(self, testbed, warmed_nws):
        problem = JacobiProblem(n=800, iterations=10)
        us = UserSpecification(decomposition_preference=("blocked",))
        agent = make_jacobi_agent(testbed, problem, warmed_nws, userspec=us)
        best = agent.schedule().best
        assert best.decomposition == "apples-blocked"

    def test_both_families_picks_better_prediction(self, testbed, warmed_nws):
        problem = JacobiProblem(n=800, iterations=10)
        us = UserSpecification(decomposition_preference=("strip", "blocked"))
        agent = make_jacobi_agent(testbed, problem, warmed_nws, userspec=us)
        decision = agent.schedule()
        assert decision.best.decomposition in ("apples-strip", "apples-blocked")
        # The winner must not be beaten by the other family on the same
        # resource set.
        from repro.jacobi.apples import ApplesBlockedPlanner, JacobiPlanner

        rset = decision.best.resource_set
        strip = JacobiPlanner(problem).plan(rset, agent.info)
        blocked = ApplesBlockedPlanner(problem).plan(rset, agent.info)
        alternatives = [s.predicted_time for s in (strip, blocked) if s is not None]
        assert decision.best.predicted_time <= min(alternatives) + 1e-9

    def test_several_families_bound_by_the_per_family_minimum(
        self, testbed, warmed_nws
    ):
        """With both families active the configuration does not batch, and
        its pruning bound is the element-wise minimum of the strip bound —
        the name-space oracle's floats — and the blocked planner's, inside
        a decision scope and outside one.  A more conservative blocked
        family makes each family's bound the lower one on some sets."""
        problem = JacobiProblem(n=800, iterations=10)
        us = UserSpecification(decomposition_preference=("strip", "blocked"))
        info = make_jacobi_agent(testbed, problem, warmed_nws, userspec=us).info
        strip = JacobiPlanner(problem)
        blocked = ApplesBlockedPlanner(problem, conservatism_sigmas=3.0)
        planner = PreferencePlanner({"strip": strip, "blocked": blocked})
        agent = AppLeSAgent(info, planner=planner)
        csets = agent.candidate_sets()
        strip_lbs = planner_bounds(strip, csets, info)
        blocked_lbs = blocked.lower_bounds(csets, info)
        assert (strip_lbs < blocked_lbs).any() and (blocked_lbs < strip_lbs).any()
        want = np.minimum(strip_lbs, blocked_lbs)
        assert np.array_equal(planner.lower_bounds(csets, info), want)
        with info.decision_scope():
            staged = agent.stage(csets)
            assert staged.job is None
            assert np.array_equal(planner.lower_bounds(csets, info), want)
            assert np.array_equal(staged.bounds, want)

    def test_unknown_preference_rejected(self, testbed):
        us = UserSpecification(decomposition_preference=("hilbert-curve",))
        with pytest.raises(ValueError, match="hilbert-curve"):
            make_jacobi_agent(testbed, JacobiProblem(n=100), userspec=us)
