"""Tests for the differential fuzzer and shrinker (repro.verify)."""

import pytest

from repro.catalog import load
from repro.model.fingerprint import schemas_equal
from repro.ops.base import FREE_CONTEXT
from repro.ops.type_ops import AddTypeDefinition
from repro.repository.workspace import Workspace
from repro.verify.fuzzer import FuzzStep, fuzz, replay
from repro.verify.shrinker import emit_pytest, shrink
from repro.workload.generator import WorkloadSpec, generate_schema


class TestCleanFuzzing:
    @pytest.mark.parametrize("name", ["university", "company"])
    def test_catalog_run_is_clean(self, name):
        report = fuzz(load(name), seed=7, steps=60)
        assert report.ok, report.failure.render()
        assert report.accepted > 0

    def test_generated_run_is_clean(self):
        schema = generate_schema(WorkloadSpec(types=10, seed=3))
        report = fuzz(schema, seed=3, steps=60)
        assert report.ok, report.failure.render()

    def test_rejections_are_counted_not_fatal(self):
        # enough steps that at least one generated operation is
        # inadmissible in the current state
        report = fuzz(load("sacchdb"), seed=1, steps=120)
        assert report.ok, report.failure.render()
        assert report.rejected > 0

    def test_trace_is_concrete_and_replayable(self):
        reference = load("lumber_yard")
        report = fuzz(reference, seed=5, steps=50)
        assert report.ok
        assert len(report.trace) == 50
        assert replay(load("lumber_yard"), report.trace) is None


class TestDeterminism:
    def test_same_seed_same_trace(self):
        first = fuzz(load("company"), seed=11, steps=40)
        second = fuzz(load("company"), seed=11, steps=40)
        assert [s.describe() for s in first.trace] == [
            s.describe() for s in second.trace
        ]
        assert (first.accepted, first.rejected) == (
            second.accepted, second.rejected
        )

    def test_different_seed_different_trace(self):
        first = fuzz(load("company"), seed=11, steps=40)
        second = fuzz(load("company"), seed=12, steps=40)
        assert [s.describe() for s in first.trace] != [
            s.describe() for s in second.trace
        ]


class TestHarnessCatchesMutations:
    """Mutation smoke-check: break an operation on purpose and prove the
    fuzzer finds it, the shrinker reduces it to a handful of steps, and
    the emitted reproducer is a valid failing test."""

    @pytest.fixture
    def broken_add_type_undo(self, monkeypatch):
        """AddTypeDefinition whose undo forgets to remove the type."""
        original = AddTypeDefinition.apply

        def broken(self, schema, context=FREE_CONTEXT):
            original(self, schema, context)
            return lambda: None

        monkeypatch.setattr(AddTypeDefinition, "apply", broken)

    def test_fuzzer_detects_broken_undo(self, broken_add_type_undo):
        report = fuzz(load("university"), seed=7, steps=60)
        assert not report.ok
        violated = {v.invariant for v in report.failure.violations}
        # fork-rewind-differential round-trips undo_to/redo internally,
        # so it is a legitimate (and often the first) detector here.
        assert violated & {
            "undo-identity", "undo-redo-identity", "log-replay",
            "fork-rewind-differential",
        }

    def test_shrinker_produces_tiny_reproducer(self, broken_add_type_undo):
        report = fuzz(load("university"), seed=7, steps=60)
        assert not report.ok
        result = shrink(load("university"), report.trace, report.failure)
        assert len(result.steps) <= 5, result.summary()
        # and the shrunk trace still reproduces on its own
        wanted = {v.invariant for v in result.failure.violations}
        assert replay(
            load("university"), result.steps,
            check_every=1, invariant_filter=wanted,
        ) is not None

    def test_emitted_reproducer_is_a_failing_test(
        self, broken_add_type_undo
    ):
        report = fuzz(load("university"), seed=7, steps=60)
        result = shrink(load("university"), report.trace, report.failure)
        source = emit_pytest(
            "load('university')", result.steps, result.failure,
            test_name="test_generated",
        )
        namespace: dict = {}
        exec(compile(source, "<reproducer>", "exec"), namespace)
        with pytest.raises(AssertionError):
            namespace["test_generated"]()

    def test_emitted_reproducer_passes_once_fixed(self):
        # Same trace as above, but with the real (unbroken) operation:
        # the reproducer must pass, i.e. it is checked-in-able.
        report = fuzz(load("university"), seed=7, steps=60)
        assert report.ok
        steps = report.trace[:5]
        source = emit_pytest(
            "load('university')",
            steps,
            # fabricate a failure record just for the header comment
            type(
                "F", (), {"violations": []}
            )(),
            test_name="test_generated",
        )
        namespace: dict = {}
        exec(compile(source, "<reproducer>", "exec"), namespace)
        namespace["test_generated"]()


class TestReplaySemantics:
    def test_undo_redo_reset_steps_execute(self):
        reference = load("university")
        trace = [
            FuzzStep("apply", operation=AddTypeDefinition("Alpha")),
            FuzzStep("apply", operation=AddTypeDefinition("Beta")),
            FuzzStep("undo"),
            FuzzStep("redo"),
            FuzzStep("undo"),
            FuzzStep("undo"),
            FuzzStep("reset"),
        ]
        assert replay(reference, trace) is None

    def test_subsequence_of_a_trace_is_a_valid_trace(self):
        # The shrinker's soundness argument: removing steps can only
        # turn later applies into rejections, never into crashes.
        reference = load("emsl_software")
        report = fuzz(reference, seed=2, steps=40)
        assert report.ok
        thinned = report.trace[::3]
        assert replay(load("emsl_software"), thinned) is None


class TestLargeProfile:
    """The large-schema profile: sparse invariant cadence + subjects."""

    def test_cheap_every_spaces_out_the_invariant_sweeps(self):
        dense = fuzz(load("company"), seed=11, steps=40)
        sparse = fuzz(
            load("company"), seed=11, steps=40,
            check_every=20, cheap_every=20,
        )
        assert sparse.ok, sparse.failure.render()
        # Same trace (the cadence only gates checking, not generation),
        # but only 2 sweeps instead of one per step.
        assert [s.describe() for s in sparse.trace] == [
            s.describe() for s in dense.trace
        ]
        assert sparse.checks == 2
        assert dense.checks == 40

    def test_large_subjects_ladder_through_sizes(self):
        from repro.verify.runner import LARGE_SIZES, large_subjects

        pairs = large_subjects(len(LARGE_SIZES))
        assert [subject.name for subject, _ in pairs] == [
            f"large_{size}_{seed}"
            for seed, size in enumerate(LARGE_SIZES)
        ]
        assert [seed for _, seed in pairs] == list(range(len(LARGE_SIZES)))

    def test_large_subject_source_is_self_contained(self):
        # The reproducer header embeds ``subject.source`` verbatim; it
        # must rebuild exactly the schema the campaign fuzzed.
        from repro.verify.runner import large_subject

        subject = large_subject(0, types=60)
        rebuilt = eval(  # noqa: S307 - the expression under test
            subject.source,
            {"generate_schema": generate_schema, "WorkloadSpec": WorkloadSpec},
        )
        assert schemas_equal(rebuilt, subject.build())

    def test_campaign_wires_the_large_profile(self, monkeypatch):
        import io

        from repro.verify import runner

        # Shrink the ladder so the wiring test stays tier-1 fast.
        monkeypatch.setattr(runner, "LARGE_SIZES", (20,))
        out = io.StringIO()
        reports = runner.run_campaign(
            seeds=0, steps=0, large_seeds=1,
            large_steps=10, large_check_every=5, out=out,
        )
        assert [report.subject for report in reports] == ["large_20_0"]
        assert all(report.ok for report in reports)


class TestShrinkWrapPin:
    """The workspace shares the shrink wrap's interfaces copy-on-write,
    so every fuzz step also checks that the shrink wrap did not move."""

    def test_write_through_a_shared_interface_is_reported(self):
        from repro.verify.fuzzer import DifferentialHarness

        reference = load("university")
        harness = DifferentialHarness(reference)
        shared = harness.workspace.schema.interfaces["Person"]
        assert shared is reference.interfaces["Person"]
        shared.set_extent("leaked")
        violations = harness.execute(FuzzStep("undo"), 0)
        assert "reference-pinned" in {v.invariant for v in violations}

    def test_fuzzer_catches_a_fetch_that_skips_the_cow_fault(
        self, monkeypatch
    ):
        from repro.model.schema import Schema

        # ``Schema.get`` handing out the shared object unmaterialised:
        # every op's write then lands in the shrink wrap.
        monkeypatch.setattr(Schema, "get", Schema._lookup)
        report = fuzz(load("university"), seed=7, steps=20)
        assert not report.ok
        violated = {v.invariant for v in report.failure.violations}
        assert "reference-pinned" in violated
