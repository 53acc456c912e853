"""Documentation consistency: the docs must reference real artifacts.

DESIGN.md's experiment index, README's benchmark table and EXPERIMENTS.md
all name bench targets; these tests keep them honest against the actual
files, and verify every benchmark file is documented somewhere.
"""

from __future__ import annotations

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).parent.parent
BENCH_DIR = ROOT / "benchmarks"


def _bench_names_on_disk() -> set[str]:
    return {p.stem for p in BENCH_DIR.glob("bench_*.py")}


def _referenced_benches(text: str) -> set[str]:
    names = set(re.findall(r"bench_[a-z0-9_]+", text))
    return names - {"bench_output"}  # the captured-output file, not a bench


class TestDocsReferenceRealBenches:
    @pytest.mark.parametrize("doc", ["README.md", "DESIGN.md", "EXPERIMENTS.md"])
    def test_no_phantom_bench_references(self, doc):
        text = (ROOT / doc).read_text()
        on_disk = _bench_names_on_disk()
        for name in _referenced_benches(text):
            # Strip trailing artifacts of markdown (e.g. bench_x.py).
            stem = name.removesuffix("_py")
            assert stem in on_disk, f"{doc} references missing {name}"

    def test_every_bench_documented_in_readme(self):
        text = (ROOT / "README.md").read_text()
        documented = _referenced_benches(text)
        for stem in _bench_names_on_disk():
            assert stem in documented, f"{stem} missing from README benchmark table"

    def test_every_bench_in_design_index(self):
        text = (ROOT / "DESIGN.md").read_text()
        documented = _referenced_benches(text)
        for stem in _bench_names_on_disk():
            assert stem in documented, f"{stem} missing from DESIGN.md"


class TestExamplesListedInReadme:
    def test_every_example_listed(self):
        text = (ROOT / "README.md").read_text()
        for example in (ROOT / "examples").glob("*.py"):
            assert example.name in text, f"{example.name} missing from README"


class TestObservabilityDocumented:
    """README/TUTORIAL must document the tracing flags the CLI exposes."""

    @pytest.mark.parametrize("doc", ["README.md", "docs/TUTORIAL.md"])
    def test_docs_mention_trace_flag_and_report(self, doc):
        text = (ROOT / doc).read_text()
        for needle in ("--trace", "obs-report", "repro.obs"):
            assert needle in text, f"{doc} does not document {needle}"

    def test_every_experiment_subcommand_accepts_trace_and_quick(self):
        from repro.cli import _COMMANDS, build_parser

        parser = build_parser()
        for name in list(_COMMANDS) + ["all"]:
            args = parser.parse_args([name])
            assert hasattr(args, "trace"), f"{name} lacks --trace"
            assert hasattr(args, "quick"), f"{name} lacks --quick"

    def test_obs_report_subcommand_exists(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["obs-report", "some.jsonl"])
        assert args.experiment == "obs-report"
        assert args.trace == "some.jsonl"
        assert args.diff is None


class TestDaemonDocumented:
    """The always-on daemon and its load generator must stay documented."""

    @pytest.mark.parametrize("doc", ["README.md", "docs/TUTORIAL.md", "DESIGN.md"])
    def test_docs_cover_daemon_and_loadgen(self, doc):
        text = (ROOT / doc).read_text()
        for needle in ("SchedulingDaemon", "MicroBatcher", "loadgen",
                       "serve --smoke", "bench_service_daemon"):
            assert needle in text, f"{doc} does not document {needle}"

    def test_serve_subcommand_exists(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve", "--smoke"])
        assert args.experiment == "serve"
        assert args.smoke is True
        assert args.queue_capacity == 256
        assert hasattr(args, "trace") and hasattr(args, "workers")


class TestArenaDocumented:
    """The scheduler arena must stay documented wherever schedulers are."""

    @pytest.mark.parametrize("doc", ["README.md", "docs/TUTORIAL.md", "DESIGN.md"])
    def test_docs_cover_arena(self, doc):
        text = (ROOT / doc).read_text()
        for needle in ("repro.arena", "bench_arena_regret", "verifier",
                       "exhaustive oracle"):
            assert needle in text, f"{doc} does not document {needle}"

    @pytest.mark.parametrize("doc", ["README.md", "docs/TUTORIAL.md"])
    def test_walkthrough_covers_every_action(self, doc):
        text = (ROOT / doc).read_text()
        for needle in ("arena generate", "arena score", "arena verify",
                       "arena report", "arena --smoke"):
            assert needle in text, f"{doc} does not document {needle}"

    def test_design_states_verifier_independence(self):
        text = (ROOT / "DESIGN.md").read_text()
        assert "Independence is the design" in text
        assert "repro.arena.instance/v1" in text

    def test_arena_subcommand_exists(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["arena", "--smoke"])
        assert args.experiment == "arena"
        assert args.smoke is True
        assert hasattr(args, "trace") and hasattr(args, "quick")


class TestSoloVectorDocumented:
    """The unified vectorised decision core and its oracle."""

    @pytest.mark.parametrize("doc", ["README.md", "docs/TUTORIAL.md", "DESIGN.md"])
    def test_docs_cover_vectorised_solo_decision(self, doc):
        text = (ROOT / doc).read_text()
        for needle in ("repro.core.sweep", "schedule_reference"):
            assert needle in text, f"{doc} does not document {needle}"

    def test_readme_names_the_counters_and_suite(self):
        text = (ROOT / "README.md").read_text()
        for needle in ("service.solo_vectorised", "service.solo_scalar",
                       "test_solo_vector_equivalence"):
            assert needle in text, f"README does not document {needle}"

    def test_design_tables_every_oracle(self):
        """DESIGN.md names each layer's oracle next to the test holding
        the production path equal to it."""
        text = (ROOT / "DESIGN.md").read_text()
        for needle in ("schedule_reference", "_balance_reference",
                       "simulate_iterations_reference", "rebuild_on_every_rewind",
                       "test_solo_vector_equivalence", "test_core_planner",
                       "test_execution_equivalence",
                       "test_ensemble_equivalence", "test_reserve_repair",
                       "test_nws_rewind", "test_perf_fastpaths"):
            assert needle in text, f"DESIGN.md does not name {needle}"


class TestReserveDocumented:
    """The reservation layer must stay documented wherever it is used."""

    @pytest.mark.parametrize("doc", ["README.md", "docs/TUTORIAL.md", "DESIGN.md"])
    def test_docs_cover_the_reservation_layer(self, doc):
        text = (ROOT / doc).read_text()
        for needle in ("ReservationRequest", "ReservationLedger",
                       "repro.reserve", "reserve --smoke",
                       "bench_request_repair"):
            assert needle in text, f"{doc} does not document {needle}"

    @pytest.mark.parametrize("doc", ["README.md", "docs/TUTORIAL.md"])
    def test_walkthrough_covers_every_action(self, doc):
        text = (ROOT / doc).read_text()
        for needle in ("reserve submit", "reserve plan", "reserve repair",
                       "reserve report"):
            assert needle in text, f"{doc} does not document {needle}"

    def test_design_names_the_repair_ladder(self):
        text = (ROOT / "DESIGN.md").read_text()
        for needle in ("shift-within-window", "shrink-toward-min",
                       "re-expand", "bump-by-priority"):
            assert needle in text, f"DESIGN.md does not name {needle}"

    def test_reserve_subcommand_exists(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["reserve", "--smoke"])
        assert args.experiment == "reserve"
        assert args.smoke is True
        assert hasattr(args, "pool") and hasattr(args, "invalidate")


class TestModulesReferencedExist:
    @pytest.mark.parametrize("doc", ["DESIGN.md", "docs/PAPER_MAP.md"])
    def test_repro_module_paths_resolve(self, doc):
        import importlib

        text = (ROOT / doc).read_text()
        modules = set(re.findall(r"`(repro(?:\.[a-z_0-9]+)+)`", text))
        assert modules, f"no module references found in {doc}?"
        for dotted in sorted(modules):
            parts = dotted.split(".")
            # Try importing the longest importable prefix; the tail may be
            # an attribute (class/function).
            for cut in range(len(parts), 0, -1):
                try:
                    mod = importlib.import_module(".".join(parts[:cut]))
                    break
                except ImportError:
                    continue
            else:
                pytest.fail(f"{doc}: cannot import any prefix of {dotted}")
            for attr in parts[cut:]:
                assert hasattr(mod, attr), f"{doc}: {dotted} has no {attr}"
                mod = getattr(mod, attr)


class TestPoolStateMemosDocumented:
    """Values derived from a pool state have one home, the forecast
    snapshot, reached through ``InformationPool.derived``; the docs must
    not describe the per-decision cache it replaced."""

    @pytest.mark.parametrize("doc", ["README.md", "DESIGN.md", "docs/TUTORIAL.md"])
    def test_deleted_scope_api_not_named(self, doc):
        text = (ROOT / doc).read_text()
        for gone in ("DecisionCache", "begin_decision", "end_decision", "decision_cache"):
            assert gone not in text, f"{doc} still names {gone}"

    def test_design_names_the_one_home(self):
        assert "InformationPool.derived" in (ROOT / "DESIGN.md").read_text()


class TestKernelBlocksDocumented:
    """The strip kernel bounds its peak memory with width-ordered blocks
    per pass, run by the caller and at most one helper thread, while
    continuation spans the call, and builds each candidate space's row
    structure once, kept in the structure memo; the docs must name the
    helper thread and the memo and must not describe the call-level row
    chunks the blocks replaced."""

    @pytest.mark.parametrize("doc", ["README.md", "DESIGN.md", "docs/TUTORIAL.md"])
    def test_chunk_rows_not_named(self, doc):
        assert "chunk_rows" not in (ROOT / doc).read_text(), f"{doc} still names chunk_rows"

    @pytest.mark.parametrize("doc", ["README.md", "DESIGN.md"])
    def test_helper_thread_named(self, doc):
        assert "helper thread" in (ROOT / doc).read_text(), f"{doc} omits the helper thread"

    @pytest.mark.parametrize("doc", ["README.md", "DESIGN.md"])
    def test_structure_memo_named(self, doc):
        assert "structure memo" in (ROOT / doc).read_text(), f"{doc} omits the structure memo"
