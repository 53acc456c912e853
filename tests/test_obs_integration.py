"""Integration tests for repro.obs: traced runs, CLI plumbing, metrics.

Covers the subsystem's acceptance contract: a traced experiment emits a
valid JSONL trace spanning the decision, runner, simulation and NWS
layers; the same run with tracing disabled is bit-identical; the ``all``
subcommand forwards every shared flag; and PruningStats flow into the
metrics registry with the counts the 12-machine exhaustive pool demands.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import threading
from unittest import mock

import pytest

import repro
import repro.jacobi.apples as apples
from repro.cli import main
from repro.core.coordinator import AppLeSAgent, PruningStats, record_pruning_stats
from repro.core.hat import (
    CommunicationCharacteristics,
    HeterogeneousApplicationTemplate,
    StructureInfo,
    TaskCharacteristics,
)
from repro.core.infopool import InformationPool
from repro.core.planner import TimeBalancedPlanner
from repro.core.resources import ResourcePool
from repro.core.selector import ResourceSelector
from repro.core.userspec import UserSpecification
from repro.experiments import run_fig5
from repro.jacobi.grid import JacobiProblem
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import read_trace
from repro.obs.trace import Tracer, load_records, tracing
from repro.service import DecisionRequest, SchedulingService
from repro.sim.testbeds import synthetic_metacomputer

SRC_DIR = str(pathlib.Path(repro.__file__).resolve().parents[1])


def run_cli(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600,
    )


class TestTracedRun:
    @pytest.fixture(scope="class")
    def traced_fig5(self, tmp_path_factory):
        """One traced quick fig5 run in a fresh interpreter (cold caches)."""
        tmp = tmp_path_factory.mktemp("traced")
        trace_path = tmp / "fig5.jsonl"
        proc = run_cli(
            ["fig5", "--quick", "--sizes", "600,800", "--iterations", "5",
             "--repeats", "1", "--trace", str(trace_path)],
            cwd=tmp,
        )
        assert proc.returncode == 0, proc.stderr
        return trace_path, proc.stdout

    def test_trace_validates_and_roundtrips(self, traced_fig5, tmp_path):
        trace_path, _ = traced_fig5
        records = load_records(trace_path)  # load_records validates
        copy = tmp_path / "copy.jsonl"
        from repro.obs.trace import save_records

        save_records(copy, records)
        assert load_records(copy) == records

    def test_trace_covers_four_layers(self, traced_fig5):
        trace_path, _ = traced_fig5
        data = read_trace(trace_path)
        assert {"core", "runner", "sim", "nws"} <= data.layers

    def test_decision_spans_carry_pruning_attrs(self, traced_fig5):
        trace_path, _ = traced_fig5
        data = read_trace(trace_path)
        decisions = [s for s in data.spans if s["name"] == "core.decision"]
        assert decisions
        for span in decisions:
            attrs = span["attrs"]
            assert attrs["candidates"] > 0
            assert attrs["planned"] + attrs["pruned"] == attrs["candidates"]
            assert span["clock"] == "sim"

    def test_metrics_cover_every_layer(self, traced_fig5):
        trace_path, _ = traced_fig5
        metrics = read_trace(trace_path).metrics
        for prefix in ("core.", "runner.", "sim.", "nws."):
            assert any(name.startswith(prefix) for name in metrics), prefix

    def test_tracing_does_not_change_output(self, traced_fig5, tmp_path):
        _, traced_stdout = traced_fig5
        plain = run_cli(
            ["fig5", "--quick", "--sizes", "600,800", "--iterations", "5",
             "--repeats", "1"],
            cwd=tmp_path,
        )
        assert plain.returncode == 0, plain.stderr
        assert plain.stdout == traced_stdout


class TestBitIdentical:
    def test_library_run_identical_with_tracing(self):
        base = run_fig5(sizes=(600,), iterations=5, repeats=1, seed=1996)
        with tracing() as tr:
            traced = run_fig5(sizes=(600,), iterations=5, repeats=1, seed=1996)
        assert traced.table().render() == base.table().render()
        # ... and the run actually recorded something.
        assert any(r["kind"] == "span" for r in tr.records())

    def test_parallel_traced_matches_serial_untraced(self):
        base = run_fig5(sizes=(600,), iterations=5, repeats=2,
                        seed=1996, workers=1)
        with tracing():
            traced = run_fig5(sizes=(600,), iterations=5, repeats=2,
                              seed=1996, workers=2)
        assert traced.table().render() == base.table().render()


class TestObsReportCli:
    def make_trace(self, tmp_path, name="a.jsonl", extra=0):
        tr = Tracer()
        with tr.span("core.decision", layer="core", t=0.0):
            pass
        tr.metrics.counter("core.pruned").inc(10 + extra)
        path = tmp_path / name
        tr.export(path)
        return path

    def test_report(self, tmp_path, capsys):
        path = self.make_trace(tmp_path)
        assert main(["obs-report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Trace report" in out
        assert "core.decision" in out
        assert "core.pruned" in out

    def test_diff(self, tmp_path, capsys):
        a = self.make_trace(tmp_path, "a.jsonl")
        b = self.make_trace(tmp_path, "b.jsonl", extra=5)
        assert main(["obs-report", str(a), "--diff", str(b)]) == 0
        out = capsys.readouterr().out
        assert "Trace diff" in out
        assert "metric:core.pruned" in out

    def test_report_rejects_malformed_trace(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{}\n")
        with pytest.raises(ValueError):
            main(["obs-report", str(bad)])


class TestAllForwarding:
    """Regression: `all` must forward every shared flag, not just --workers."""

    def run_all(self, monkeypatch, argv):
        import repro.cli as cli

        seen: dict[str, object] = {}

        def make(name):
            def cmd(args):
                seen[name] = args
                return f"<{name}>"

            return cmd

        monkeypatch.setattr(
            cli, "_COMMANDS", {name: make(name) for name in cli._COMMANDS}
        )
        assert cli.main(argv) == 0
        return seen

    def test_forwards_seed_workers_quick(self, monkeypatch, capsys):
        seen = self.run_all(
            monkeypatch, ["all", "--seed", "7", "--workers", "3", "--quick"]
        )
        import repro.cli as cli

        assert set(seen) == set(cli._COMMANDS)
        for name, ns in seen.items():
            assert ns.seed == 7, name
            assert ns.workers == 3, name
        # Quick presets applied per subcommand on top of forwarded flags.
        assert seen["fig5"].sizes == (1000, 1400)
        assert seen["fig5"].iterations == 10
        assert seen["fig5"].repeats == 2
        assert seen["nile"].events == 50_000
        assert seen["contention"].apps == 3

    def test_defaults_without_quick(self, monkeypatch, capsys):
        seen = self.run_all(monkeypatch, ["all"])
        assert seen["fig5"].sizes == (1000, 1200, 1400, 1600, 1800, 2000)
        assert seen["fig5"].repeats == 3
        assert seen["contention"].apps == 5
        for ns in seen.values():
            assert ns.seed == 1996
            assert ns.workers == 1

    def test_all_with_trace_merges_one_file(self, monkeypatch, capsys, tmp_path):
        path = tmp_path / "all.jsonl"
        import repro.cli as cli

        def fake(args):
            from repro.obs.trace import get_tracer

            tracer = get_tracer()
            assert tracer.enabled  # the central tracer is installed
            with tracer.span("fake.cmd", layer="core"):
                pass
            return "<fake>"

        monkeypatch.setattr(cli, "_COMMANDS", {"fig34": fake, "nile": fake})
        assert cli.main(["all", "--trace", str(path)]) == 0
        data = read_trace(path)
        assert len([s for s in data.spans if s["name"] == "fake.cmd"]) == 2

    def test_explicit_flag_beats_quick_preset(self, monkeypatch, capsys):
        import repro.cli as cli

        seen = {}

        def cmd(args):
            seen["fig5"] = args
            return "<fig5>"

        monkeypatch.setattr(cli, "_COMMANDS", dict(cli._COMMANDS, fig5=cmd))
        assert cli.main(["fig5", "--quick", "--repeats", "9"]) == 0
        assert seen["fig5"].repeats == 9          # explicit wins
        assert seen["fig5"].sizes == (1000, 1400)  # preset fills the rest

    def test_forwards_replicates_to_ensemble_subcommands(self, monkeypatch, capsys):
        """--replicates rides the generic forwarding, like --trace/--quick."""
        seen = self.run_all(monkeypatch, ["all", "--replicates", "3"])
        import repro.cli as cli

        assert set(seen) == set(cli._COMMANDS)
        # Only the simulation-backed figure sweeps understand the flag.
        assert seen["fig5"].replicates == 3
        assert seen["fig6"].replicates == 3
        for name in set(seen) - {"fig5", "fig6"}:
            assert not hasattr(seen[name], "replicates"), name

    def test_replicates_default_is_point_estimate(self, monkeypatch, capsys):
        seen = self.run_all(monkeypatch, ["all"])
        assert seen["fig5"].replicates == 1
        assert seen["fig6"].replicates == 1


class TestEnsembleObs:
    """EnsembleExecution instrumentation mirrors CompiledExecution's."""

    def _specs(self, n=3):
        from repro.sim.execution_ensemble import replicated

        return replicated(n, n_hosts=6, seed=5)

    def test_traced_untraced_bit_identical(self):
        from repro.sim.execution_ensemble import run_ensemble

        base = run_ensemble(self._specs(), 8)
        with tracing() as tr:
            traced = run_ensemble(self._specs(), 8)
        for a, b in zip(base, traced):
            assert a.total_time == b.total_time
            assert a.iteration_times == b.iteration_times
            assert a.host_busy_time == b.host_busy_time
        assert any(r["kind"] == "span" and r["name"] == "sim.ensemble.execute"
                   for r in tr.records())

    def test_compile_event_and_counters(self):
        from repro.sim.execution_ensemble import run_ensemble
        from repro.sim.jobs import make_injectable
        from repro.sim.execution_ensemble import ReplicaSpec, ring_assignments
        from repro.sim.testbeds import sdsc_pcl_testbed

        testbed = sdsc_pcl_testbed(seed=9)
        for injector in make_injectable(testbed).values():
            injector.occupy(5.0, 100.0, 0.5)
        specs = self._specs(2) + [
            ReplicaSpec(testbed.topology, ring_assignments(testbed))
        ]
        with tracing() as tr:
            run_ensemble(specs, 5)
        events = [r for r in tr.records()
                  if r["kind"] == "event" and r["name"] == "sim.ensemble.compile"]
        assert len(events) == 1
        fields = events[0]["fields"]
        assert fields["replicas"] == 3
        assert fields["vectorised"] == 2
        assert fields["surrendered"] == 1
        assert fields["entries"] > 0
        metrics = tr.metrics.as_dict()
        assert metrics["sim.ensemble.compiles"]["value"] == 1
        assert metrics["sim.ensemble.replicas_vectorised"]["value"] == 2
        assert metrics["sim.ensemble.replicas_surrendered"]["value"] == 1
        assert metrics["sim.ensemble.runs"]["value"] == 1
        assert metrics["sim.ensemble.replica_iterations"]["value"] == 15
        # The surrendered replica runs through CompiledExecution, whose own
        # instrumentation must fire under the same tracer.
        assert metrics["sim.compiles"]["value"] >= 1

    def test_compile_report_without_tracing(self):
        from repro.sim.execution_ensemble import EnsembleExecution

        ex = EnsembleExecution(self._specs(), 5)
        assert ex.compile_report["replicas"] == 3
        assert ex.compile_report["vectorised"] == 3
        assert ex.compile_report["surrendered"] == 0


class TestPruningMetrics:
    """PruningStats wired into the metrics registry (12-machine pool)."""

    def make_agent(self, nile_bed):
        hat = HeterogeneousApplicationTemplate(
            name="toy", paradigm="data-parallel",
            tasks=(TaskCharacteristics("work", flop_per_unit=1e-3),),
            communication=CommunicationCharacteristics(
                pattern="stencil", bytes_per_border_unit=8.0
            ),
            structure=StructureInfo(total_units=1e6, iterations=1),
        )
        info = InformationPool(
            pool=ResourcePool(nile_bed.topology, None),
            hat=hat,
            userspec=UserSpecification(),
        )
        return AppLeSAgent(info, planner=TimeBalancedPlanner())

    def test_twelve_machine_exhaustive_counts(self, nile_bed):
        agent = self.make_agent(nile_bed)
        with tracing() as tr:
            decision = agent.schedule()
        total = ResourceSelector.exhaustive_count(12)
        assert total == 4095
        stats = decision.pruning
        assert stats is not None
        assert stats.candidates == total
        assert stats.planned + stats.pruned == total
        assert len(decision.evaluations) == total
        metrics = tr.metrics.as_dict()
        assert metrics["core.decisions"]["value"] == 1
        assert metrics["core.candidates"]["value"] == total
        assert metrics["core.planned"]["value"] == stats.planned
        assert metrics["core.pruned"]["value"] == stats.pruned
        assert metrics["core.selector.regime.exhaustive"]["value"] == 1
        assert metrics["core.selector.candidate_sets"]["value"] == total

    def test_configurations_share_enumerations_at_one_instant(
        self, testbed, warmed_nws
    ):
        """One traced instant of 3 caps x 2 grid sizes x 2 memory
        policies: every configuration asks the selector (12 calls, each
        with its event), and the coupling is the same for both sizes, so
        each cap enumerates once and 9 calls share an enumeration."""
        with tracing() as tr:
            SchedulingService(testbed, warmed_nws).decide(
                _twelve_configurations(warmed_nws.now)
            )
        metrics = tr.metrics.as_dict()
        assert metrics["core.selector.calls"]["value"] == 12
        assert metrics["core.selector.shared_hits"]["value"] == 9
        events = [r for r in tr.records()
                  if r["kind"] == "event" and r["name"] == "core.selector.candidates"]
        assert len(events) == 12

    def test_the_kernel_plans_shared_rows_once(self, testbed, warmed_nws):
        """The same instant's one kernel call: memory-blind twins and the
        capped spaces inside the uncapped ones take rows another
        configuration computed, the two counters add up to the call's
        rows, and traced answers equal untraced ones."""
        requests = _twelve_configurations(warmed_nws.now)
        apples._structures.clear()
        with tracing() as tr:
            traced = SchedulingService(testbed, warmed_nws).decide(requests)
        untraced = SchedulingService(testbed, warmed_nws).decide(requests)
        metrics = tr.metrics.as_dict()
        rows = sum(metrics[f"service.rows_{kind}"]["value"]
                   for kind in ("vectorised", "surrendered"))
        computed = metrics["apples.rows_computed"]["value"]
        shared = metrics["apples.rows_shared"]["value"]
        assert computed + shared == rows
        assert shared > 0
        assert [(a.best_objective, a.machines, a.pruning) for a in traced] == [
            (a.best_objective, a.machines, a.pruning) for a in untraced
        ]

    @pytest.mark.parametrize("cpus", [1, 2], ids=["one-thread", "helper"])
    def test_kernel_blocks_on_fourteen_machines(self, cpus):
        """A traced exhaustive decision on 14 machines makes one kernel
        call: 16,383 distinct rows, none shared, whose one pass runs in 8
        width-ordered blocks.  ``apples.helper_blocks`` counts the blocks
        that ran off the calling thread — none on one usable CPU."""
        selector = ResourceSelector(
            exhaustive_limit=14, max_sets=2**14 - 1, regime="exhaustive"
        )
        agent = apples.make_jacobi_agent(
            synthetic_metacomputer(14, 3, seed=1996),
            JacobiProblem(n=1000, iterations=50), selector=selector,
        )
        caller, lock, elsewhere = threading.get_ident(), threading.Lock(), []
        strip_pass = apples._strip_pass

        def counted(*args, **kwargs):
            if threading.get_ident() != caller:
                with lock:
                    elsewhere.append(1)
            return strip_pass(*args, **kwargs)

        apples._structures.clear()
        with tracing() as tr, mock.patch.object(
            apples, "usable_cpus", return_value=cpus
        ), mock.patch.object(apples, "_strip_pass", counted):
            agent.schedule()
        metrics = tr.metrics.as_dict()
        assert metrics["apples.rows_computed"]["value"] == 2**14 - 1
        assert metrics["apples.rows_shared"]["value"] == 0
        assert metrics["apples.blocks"]["value"] == 8
        assert metrics["apples.helper_blocks"]["value"] == len(elsewhere)
        assert cpus > 1 or not elsewhere

    def test_a_pool_builds_its_kernel_row_structure_once(self):
        """Three traced solo decisions over one exhaustive 14-machine pool
        build the kernel's row structure once and read it back twice.
        The rows, blocks and helper blocks they count, and their answers,
        equal those of the same decisions made with the memo cleared
        before each."""
        testbed = synthetic_metacomputer(14, 3, seed=1996)
        selector = ResourceSelector(
            exhaustive_limit=14, max_sets=2**14 - 1, regime="exhaustive"
        )
        problems = [JacobiProblem(n=n, iterations=i)
                    for n, i in ((800, 40), (1000, 50), (1200, 60))]
        counters = ("apples.rows_computed", "apples.rows_shared",
                    "apples.blocks", "apples.helper_blocks")
        runs = []
        for cold in (False, True):
            apples._structures.clear()
            answers = []
            # One usable CPU: which thread runs a block is then fixed.
            with tracing() as tr, mock.patch.object(
                apples, "usable_cpus", return_value=1
            ):
                for problem in problems:
                    if cold:
                        apples._structures.clear()
                    decision = apples.make_jacobi_agent(
                        testbed, problem, selector=selector
                    ).schedule()
                    answers.append((decision.best_objective, decision.best.resource_set))
            metrics = tr.metrics.as_dict()
            runs.append((answers, [metrics[c]["value"] for c in counters]))
            built = metrics["apples.structures_built"]["value"]
            hits = metrics.get("apples.structure_hits", {}).get("value", 0)
            assert (built, hits) == ((3, 0) if cold else (1, 2))
        assert runs[0] == runs[1]

    def test_record_pruning_stats_direct(self):
        reg = MetricsRegistry()
        stats = PruningStats(candidates=10, planned=4, pruned=6, bounded=True)
        record_pruning_stats(reg, stats)
        record_pruning_stats(reg, stats)
        d = reg.as_dict()
        assert d["core.decisions"]["value"] == 2
        assert d["core.candidates"]["value"] == 20
        assert d["core.pruned"]["value"] == 12
        assert d["core.pruned_fraction"]["count"] == 2

    def test_incumbent_events_lead_to_best(self, nile_bed):
        agent = self.make_agent(nile_bed)
        with tracing() as tr:
            decision = agent.schedule()
        events = [r for r in tr.records()
                  if r["kind"] == "event" and r["name"] == "core.incumbent"]
        assert events
        objectives = [e["fields"]["objective"] for e in events]
        assert objectives == sorted(objectives, reverse=True)
        assert objectives[-1] == pytest.approx(decision.best_objective)


def _twelve_configurations(at):
    """3 caps x 2 grid sizes x 2 memory policies at one instant."""
    return [
        DecisionRequest(
            problem=JacobiProblem(n=n, iterations=20),
            userspec=UserSpecification(max_machines=cap),
            account_memory=memory,
            at=at,
        )
        for cap in (2, 4, None)
        for n in (600, 900)
        for memory in (True, False)
    ]
