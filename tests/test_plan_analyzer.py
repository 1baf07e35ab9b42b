"""Tests for the static plan analyzer (:mod:`repro.analysis.plan`).

These pin the analyzer's contract: effect signatures stay consistent
with each operation's declared affected types and aspects, pre-flight
diagnostics are exact (every one reproduces as a dynamic failure), the
conflict graph has the expected edges, and ``Workspace.apply_plan``
applies the plan verbatim and all-or-nothing.
"""

import pytest

from repro.analysis.plan import (
    PlanPreflightError,
    analyze_plan,
    conflict_edges,
    main as plan_main,
)
from repro.concepts.base import ConceptKind
from repro.model.errors import SchemaError
from repro.model.fingerprint import schema_fingerprint
from repro.model.types import scalar
from repro.ops.attribute_ops import AddAttribute, DeleteAttribute
from repro.ops.base import OperationError
from repro.ops.effects import footprints_overlap
from repro.ops.type_ops import AddTypeDefinition, DeleteTypeDefinition
from repro.ops.type_property_ops import (
    AddExtentName,
    AddKeyList,
    AddSupertype,
    DeleteExtentName,
    ModifyExtentName,
)
from repro.repository.workspace import Workspace
from repro.workload.generator import (
    WorkloadSpec,
    generate_operations,
    generate_schema,
)


@pytest.fixture
def workspace(small):
    return Workspace(small, name="plan_ws")


def _generated_corpus():
    spec = WorkloadSpec(types=24, seed=7, isa_fraction=0.4,
                        part_of_chain=5, instance_of_chain=4)
    schema = generate_schema(spec)
    plan = generate_operations(schema, 60, seed=3)
    return schema, plan


class TestEffectSignatures:
    def test_signatures_consistent_with_validation_scope(self):
        """No declared write may escape ``affected_types()`` x
        ``touched_aspects``."""
        from repro.ops.effects import signature_scope_violations

        _, plan = _generated_corpus()
        for operation in plan:
            assert signature_scope_violations(operation) == []

    def test_conflicts_with_is_symmetric(self):
        _, plan = _generated_corpus()
        signatures = [operation.effect_signature() for operation in plan]
        for first in signatures[:30]:
            for second in signatures[:30]:
                assert (
                    (first.conflicts_with(second) is None)
                    == (second.conflicts_with(first) is None)
                )

    def test_indexed_overlap_matches_quadratic_reference(self):
        """conflicts_with must agree with the footprints_overlap reference."""
        _, plan = _generated_corpus()
        signatures = [operation.effect_signature() for operation in plan]
        for first in signatures[:30]:
            for second in signatures[:30]:
                reference = bool(
                    footprints_overlap(first.writes, second.writes)
                    or footprints_overlap(first.writes, second.reads)
                    or footprints_overlap(first.reads, second.writes)
                    or (first.binding_names() & second.mentioned_names())
                    or (second.binding_names() & first.mentioned_names())
                )
                assert (
                    first.conflicts_with(second) is not None
                ) == reference

    def test_membership_overlaps_every_aspect(self):
        delete = DeleteTypeDefinition("Person").effect_signature()
        add = AddAttribute(
            "Person", scalar("long"), "extra"
        ).effect_signature()
        assert delete.conflicts_with(add) is not None

    def test_disjoint_ops_commute(self):
        first = AddAttribute("Person", scalar("long"), "a")
        second = AddAttribute("Department", scalar("long"), "b")
        assert first.effect_signature().conflicts_with(
            second.effect_signature()
        ) is None


class TestPreflight:
    def test_unknown_type(self, small):
        analysis = analyze_plan(
            [AddAttribute("Ghost", scalar("long"), "x")], small
        )
        assert [d.code for d in analysis.diagnostics] == ["unknown-type"]
        assert analysis.diagnostics[0].index == 0
        assert not analysis.is_clean()

    def test_use_after_delete_names_the_deleting_op(self, small):
        plan = [
            DeleteTypeDefinition("Department"),
            AddAttribute("Department", scalar("long"), "x"),
        ]
        analysis = analyze_plan(plan, small)
        codes = {(d.index, d.code) for d in analysis.diagnostics}
        assert (1, "use-after-delete") in codes
        assert "op[0]" in analysis.diagnostics[0].message

    def test_create_then_use_is_clean(self, small):
        plan = [
            AddTypeDefinition("Fresh"),
            AddAttribute("Fresh", scalar("long"), "x"),
        ]
        assert analyze_plan(plan, small).is_clean()

    def test_duplicate_type(self, small):
        analysis = analyze_plan([AddTypeDefinition("Person")], small)
        assert [d.code for d in analysis.diagnostics] == ["duplicate-type"]

    def test_extent_state_add_over_existing(self, small):
        analysis = analyze_plan([AddExtentName("Person", "folk")], small)
        assert [d.code for d in analysis.diagnostics] == ["extent-state"]

    def test_extent_state_modify_wrong_old_name(self, small):
        analysis = analyze_plan(
            [ModifyExtentName("Person", "wrong", "folk")], small
        )
        assert [d.code for d in analysis.diagnostics] == ["extent-state"]

    def test_extent_state_delete_wrong_name(self, small):
        analysis = analyze_plan([DeleteExtentName("Person", "wrong")], small)
        assert [d.code for d in analysis.diagnostics] == ["extent-state"]

    def test_extent_clash_globally_unique(self, small):
        analysis = analyze_plan(
            [ModifyExtentName("Person", "people", "departments")], small
        )
        assert [d.code for d in analysis.diagnostics] == ["extent-clash"]

    def test_extent_add_on_extentless_type_is_clean(self, small):
        assert analyze_plan(
            [AddExtentName("Employee", "workers")], small
        ).is_clean()

    def test_failed_op_contributes_no_effects(self, small):
        """Skip-on-failure keeps the simulation exact for later ops."""
        plan = [
            AddExtentName("Person", "extra"),        # fails: has an extent
            ModifyExtentName("Person", "extra", "other"),  # still 'people'
        ]
        analysis = analyze_plan(plan, small)
        assert [(d.index, d.code) for d in analysis.diagnostics] == [
            (0, "extent-state"), (1, "extent-state"),
        ]

    def test_inadmissible_by_kind(self, small):
        analysis = analyze_plan(
            [AddSupertype("Department", "Person")],
            small,
            kind=ConceptKind.WAGON_WHEEL,
        )
        assert [d.code for d in analysis.diagnostics] == ["inadmissible"]
        assert analyze_plan(
            [AddSupertype("Department", "Person")],
            small,
            kind=ConceptKind.GENERALIZATION,
        ).is_clean()

    def test_every_diagnostic_is_a_real_dynamic_failure(self, small):
        """No false positives: diagnosed ops fail when actually applied."""
        plans = [
            [AddAttribute("Ghost", scalar("long"), "x")],
            [DeleteTypeDefinition("Department"),
             AddAttribute("Department", scalar("long"), "x")],
            [AddTypeDefinition("Person")],
            [AddExtentName("Person", "folk")],
            [ModifyExtentName("Person", "people", "departments")],
        ]
        for plan in plans:
            analysis = analyze_plan(plan, small)
            diagnosed = {d.index for d in analysis.diagnostics}
            assert diagnosed
            workspace = Workspace(small.copy(), name="dyncheck")
            for index, operation in enumerate(plan):
                if index in diagnosed:
                    with pytest.raises((OperationError, SchemaError)):
                        workspace.apply(operation)
                else:
                    workspace.apply(operation)

    def test_no_schema_checks_admissibility_only(self):
        analysis = analyze_plan(
            [AddAttribute("Nowhere", scalar("long"), "x")], schema=None
        )
        assert analysis.is_clean()


class TestConflictGraphAndBatches:
    def test_write_write_edge(self):
        plan = [
            AddAttribute("Person", scalar("long"), "a"),
            AddAttribute("Person", scalar("long"), "b"),
        ]
        edges = conflict_edges(
            [operation.effect_signature() for operation in plan]
        )
        assert len(edges) == 1
        assert edges[0].earlier == 0 and edges[0].later == 1
        assert "write-write" in edges[0].reason

    def test_wildcard_read_edge(self):
        plan = [
            AddAttribute("Person", scalar("long"), "a"),
            AddKeyList("Employee", ("name",)),
        ]
        edges = conflict_edges(
            [operation.effect_signature() for operation in plan]
        )
        assert any("read-after-write" in edge.reason for edge in edges)

    def test_edges_skippable(self, small):
        analysis = analyze_plan(
            [AddAttribute("Person", scalar("long"), "a")], small,
            edges=False,
        )
        assert analysis.edges == []
        assert analysis.is_clean()


class TestApplyPlan:
    def test_matches_per_op_application(self, small):
        schema, plan = _generated_corpus()
        naive = Workspace(schema, name="naive")
        for operation in plan:
            naive.apply(operation)
        batched = Workspace(schema, name="batched")
        entries = batched.apply_plan(plan)
        assert schema_fingerprint(naive.schema) == schema_fingerprint(
            batched.schema
        )
        assert len(entries) == batched.undo_depth

    def test_preflight_rejection_leaves_workspace_untouched(self, workspace):
        before = schema_fingerprint(workspace.schema)
        with pytest.raises(PlanPreflightError) as excinfo:
            workspace.apply_plan([
                AddAttribute("Person", scalar("long"), "ok"),
                AddAttribute("Ghost", scalar("long"), "x"),
            ])
        assert excinfo.value.diagnostics[0].code == "unknown-type"
        assert schema_fingerprint(workspace.schema) == before
        assert workspace.undo_depth == 0

    def test_dynamic_failure_rolls_back_everything(self, workspace):
        before = schema_fingerprint(workspace.schema)
        plan = [
            AddAttribute("Person", scalar("long"), "fresh"),
            # Statically clean (the analyzer does not model
            # attribute-level state) but dynamically a duplicate.
            AddAttribute("Person", scalar("long"), "id"),
        ]
        assert analyze_plan(plan, workspace.schema).is_clean()
        with pytest.raises(OperationError):
            workspace.apply_plan(plan)
        assert schema_fingerprint(workspace.schema) == before
        assert workspace.undo_depth == 0
        assert workspace.redo_depth == 0

    def test_applies_plan_verbatim(self, workspace):
        plan = [
            AddAttribute("Person", scalar("long"), "tmp"),
            DeleteAttribute("Person", "tmp"),
        ]
        entries = workspace.apply_plan(plan)
        assert [entry.requested for entry in entries] == plan


class TestCLI:
    def test_clean_script_exits_zero(self, tmp_path, capsys):
        from tests.conftest import SMALL_ODL

        schema_file = tmp_path / "small.odl"
        schema_file.write_text(SMALL_ODL, encoding="utf-8")
        script = tmp_path / "plan.txt"
        script.write_text(
            "add_attribute(Person, long, extra);\n"
            "add_attribute(Department, long, floor);\n",
            encoding="utf-8",
        )
        code = plan_main([
            "--schema", str(schema_file), "--script", str(script),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "pre-flight: clean" in out

    def test_diagnosed_script_exits_nonzero(self, tmp_path, capsys):
        from tests.conftest import SMALL_ODL

        schema_file = tmp_path / "small.odl"
        schema_file.write_text(SMALL_ODL, encoding="utf-8")
        script = tmp_path / "plan.txt"
        script.write_text(
            "add_attribute(Ghost, long, x);\n", encoding="utf-8"
        )
        code = plan_main([
            "--schema", str(schema_file), "--script", str(script),
            "--edges",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "unknown-type" in out
