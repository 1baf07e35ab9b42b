"""One-pass plan application and plan-analysis memoization.

Pins the two workspace-level contracts of whole-plan application:

* :meth:`Workspace.apply_plan` runs a plan in one pass and validates
  once, and is behaviourally identical to applying the ops one at a
  time with :meth:`Workspace.apply` -- same final schema, same
  per-entry plans and feedback, same ``MutationRecord`` stream.
* :meth:`Workspace.apply_plan` memoizes its static pre-flight analysis
  on (plan fingerprint, spine seq): retrying a rejected plan on an
  unchanged schema is a cache hit, visible in ``Schema.stats()``.
"""

import pytest

from repro.analysis.plan import PlanPreflightError
from repro.model.fingerprint import schema_fingerprint
from repro.model.types import scalar
from repro.ops.attribute_ops import AddAttribute
from repro.ops.base import OperationError
from repro.repository.workspace import Workspace
from repro.workload.generator import (
    WorkloadSpec,
    generate_operations,
    generate_schema,
)


@pytest.fixture
def workspace(small):
    return Workspace(small, name="compact_ws")


def _generated_corpus():
    spec = WorkloadSpec(types=24, seed=7, isa_fraction=0.4,
                        part_of_chain=5, instance_of_chain=4)
    schema = generate_schema(spec)
    plan = generate_operations(schema, 60, seed=3)
    return schema, plan


def _stream(log, since):
    return [(r.kind, r.interface, r.aspects) for r in log.records_since(since)]


class TestCompiledPlanParity:
    def test_matches_per_op_application(self):
        schema, plan = _generated_corpus()
        naive_schema = schema.copy("naive")
        naive = Workspace(naive_schema, name="naive")
        naive_base = naive.schema.log.seq
        for operation in plan:
            naive.apply(operation)
        whole_schema = schema.copy("whole")
        whole = Workspace(whole_schema, name="whole")
        whole_base = whole.schema.log.seq
        entries = whole.apply_plan(list(plan))
        assert schema_fingerprint(naive.schema) == schema_fingerprint(
            whole.schema
        )
        assert len(entries) == whole.undo_depth
        # Record-for-record identical mutation stream: both run every op
        # through the same engine; only the validation cadence differs.
        assert _stream(whole.schema.log, whole_base) == _stream(
            naive.schema.log, naive_base
        )

    def test_entry_plans_match_per_op_path(self):
        schema, plan = _generated_corpus()
        naive = Workspace(schema.copy("n"), name="n")
        whole = Workspace(schema.copy("w"), name="w")
        naive_entries = [naive.apply(operation) for operation in plan]
        whole_entries = whole.apply_plan(list(plan))
        assert [
            [step.to_text() for step in entry.plan]
            for entry in naive_entries
        ] == [
            [step.to_text() for step in entry.plan]
            for entry in whole_entries
        ]
        assert [entry.feedback for entry in naive_entries] == [
            entry.feedback for entry in whole_entries
        ]

    def test_undo_reverses_compiled_entries(self):
        schema, plan = _generated_corpus()
        workspace = Workspace(schema, name="undoable")
        before = schema_fingerprint(workspace.schema)
        entries = workspace.apply_plan(list(plan))
        assert entries
        for _ in entries:
            workspace.undo_last()
        assert schema_fingerprint(workspace.schema) == before

    def test_preflight_rejection_leaves_workspace_untouched(self, workspace):
        before = schema_fingerprint(workspace.schema)
        with pytest.raises(PlanPreflightError):
            workspace.apply_plan([
                AddAttribute("Person", scalar("long"), "ok"),
                AddAttribute("Ghost", scalar("long"), "x"),
            ])
        assert schema_fingerprint(workspace.schema) == before
        assert workspace.undo_depth == 0

    def test_dynamic_failure_rolls_back_everything(self, workspace):
        before = schema_fingerprint(workspace.schema)
        generation = workspace.schema.generation
        plan = [
            AddAttribute("Person", scalar("long"), "fresh"),
            # Statically clean (the analyzer does not model
            # attribute-level state) but dynamically a duplicate.
            AddAttribute("Person", scalar("long"), "id"),
        ]
        with pytest.raises(OperationError):
            workspace.apply_plan(plan)
        assert schema_fingerprint(workspace.schema) == before
        assert workspace.undo_depth == 0
        assert workspace.redo_depth == 0
        # The rollback mutated and un-mutated; the spine moved forward.
        assert workspace.schema.generation > generation


class TestAnalysisMemoization:
    def test_retry_of_rejected_plan_is_a_cache_hit(self, workspace):
        plan = [
            AddAttribute("Person", scalar("long"), "ok"),
            AddAttribute("Ghost", scalar("long"), "x"),
        ]
        with pytest.raises(PlanPreflightError):
            workspace.apply_plan(plan)
        stats = workspace.schema.stats()
        assert stats["analysis.misses"] == 1
        assert stats["analysis.hits"] == 0
        # Nothing mutated, so the retry reuses the whole analysis.
        with pytest.raises(PlanPreflightError):
            workspace.apply_plan(plan)
        stats = workspace.schema.stats()
        assert stats["analysis.misses"] == 1
        assert stats["analysis.hits"] == 1

    def test_any_mutation_invalidates_the_memo(self, workspace):
        plan = [
            AddAttribute("Person", scalar("long"), "ok"),
            AddAttribute("Ghost", scalar("long"), "x"),
        ]
        with pytest.raises(PlanPreflightError):
            workspace.apply_plan(plan)
        workspace.apply(AddAttribute("Person", scalar("long"), "bump"))
        with pytest.raises(PlanPreflightError):
            workspace.apply_plan(plan)
        stats = workspace.schema.stats()
        assert stats["analysis.misses"] == 2
        assert stats["analysis.hits"] == 0

    def test_different_plan_is_a_miss(self, workspace):
        plan = [AddAttribute("Ghost", scalar("long"), "x")]
        with pytest.raises(PlanPreflightError):
            workspace.apply_plan(plan)
        with pytest.raises(PlanPreflightError):
            workspace.apply_plan([AddAttribute("Ghost", scalar("long"), "y")])
        stats = workspace.schema.stats()
        assert stats["analysis.misses"] == 2
        assert stats["analysis.hits"] == 0
