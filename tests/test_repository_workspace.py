"""Unit tests for the workspace (apply / undo / redo / log)."""

import pytest

from repro.concepts.base import ConceptKind
from repro.concepts.decompose import decompose
from repro.model.attributes import Attribute
from repro.model.fingerprint import schema_fingerprint, schemas_equal
from repro.model.types import NamedType, scalar
from repro.ops.attribute_ops import AddAttribute, DeleteAttribute
from repro.ops.base import ConstraintViolation, InadmissibleOperationError
from repro.ops.registry import check_admissible
from repro.ops.type_ops import DeleteTypeDefinition
from repro.ops.type_property_ops import AddSupertype
from repro.repository.workspace import Workspace


@pytest.fixture
def workspace(small):
    return Workspace(small, name="small_custom")


class TestApply:
    def test_apply_changes_workspace_not_reference(self, workspace):
        workspace.apply(AddAttribute("Person", scalar("date"), "dob"))
        assert "dob" in workspace.schema.get("Person").attributes
        assert "dob" not in workspace.reference.get("Person").attributes

    def test_propagation_by_default(self, workspace):
        entry = workspace.apply(DeleteTypeDefinition("Department"))
        assert len(entry.plan) == 2
        workspace.schema.validate()

    def test_propagation_disabled_fails_on_referenced_type(self, workspace):
        with pytest.raises(ConstraintViolation):
            workspace.apply(DeleteTypeDefinition("Department"), propagate=False)
        # The failed apply must leave the workspace untouched.
        assert schemas_equal(workspace.schema, workspace.reference)
        assert workspace.log == []

    def test_concept_admissibility_enforced(self, workspace):
        wheel = decompose(workspace.reference).by_identifier("ww:Person")
        with pytest.raises(InadmissibleOperationError):
            workspace.apply(AddSupertype("Department", "Person"), concept=wheel)
        assert workspace.log == []

    def test_concept_admissible_operation_passes(self, workspace):
        wheel = decompose(workspace.reference).by_identifier("ww:Person")
        entry = workspace.apply(
            AddAttribute("Person", scalar("date"), "dob"), concept=wheel
        )
        assert entry.concept_id == "ww:Person"

    def test_apply_kind_checked(self, workspace):
        operation = AddSupertype("Department", "Person")
        with pytest.raises(InadmissibleOperationError):
            check_admissible(operation, ConceptKind.WAGON_WHEEL)
        check_admissible(operation, ConceptKind.GENERALIZATION)
        workspace.apply(operation)
        assert "Person" in workspace.schema.get("Department").supertypes

    def test_feedback_collected(self, workspace):
        entry = workspace.apply(DeleteTypeDefinition("Person"))
        assert any(m.code == "delete-supertype-of" for m in entry.feedback)
        assert any(m.code == "cascaded" for m in entry.feedback)

    def test_mid_plan_failure_rolls_back(self, workspace, monkeypatch):
        """If a later plan step fails, earlier steps are undone."""
        from repro.ops import type_ops

        original_apply = type_ops.DeleteTypeDefinition.apply

        def exploding_apply(self, schema, context=None):
            raise ConstraintViolation("injected failure")

        monkeypatch.setattr(
            type_ops.DeleteTypeDefinition, "apply", exploding_apply
        )
        before = schema_fingerprint(workspace.schema)
        with pytest.raises(ConstraintViolation):
            workspace.apply(DeleteTypeDefinition("Department"))
        monkeypatch.setattr(
            type_ops.DeleteTypeDefinition, "apply", original_apply
        )
        assert schema_fingerprint(workspace.schema) == before


class TestHistory:
    def test_undo_last(self, workspace):
        before = schema_fingerprint(workspace.schema)
        workspace.apply(DeleteTypeDefinition("Department"))
        entry = workspace.undo_last()
        assert entry is not None
        assert schema_fingerprint(workspace.schema) == before
        assert workspace.log == []

    def test_undo_empty(self, workspace):
        assert workspace.undo_last() is None

    def test_redo(self, workspace):
        workspace.apply(AddAttribute("Person", scalar("date"), "dob"))
        after = schema_fingerprint(workspace.schema)
        workspace.undo_last()
        workspace.redo()
        assert schema_fingerprint(workspace.schema) == after
        assert len(workspace.log) == 1

    def test_redo_preserves_propagated_flag(self, workspace):
        workspace.apply(
            AddAttribute("Person", scalar("date"), "dob"), propagate=False
        )
        workspace.undo_last()
        entry = workspace.redo()
        assert entry is not None
        assert entry.propagated is False

    def test_failed_redo_rolls_back_and_keeps_redo_stack(self, workspace):
        """A step that fails mid-redo must not leave earlier steps applied."""
        # Deleting Department cascades: plan is [delete relationship ends,
        # delete type].  After the undo, wire in a *new* reference to
        # Department so the final plan step fails validation while the
        # cascade step has already been applied.
        workspace.apply(DeleteTypeDefinition("Department"))
        assert len(workspace.log[-1].plan) > 1
        workspace.undo_last()
        workspace.schema.get("Person").add_attribute(
            Attribute("dept_ref", NamedType("Department"))
        )
        before = schema_fingerprint(workspace.schema)
        with pytest.raises(ConstraintViolation):
            workspace.redo()
        assert schema_fingerprint(workspace.schema) == before
        assert workspace.log == []
        # The entry stays redoable: clear the blocker and redo succeeds.
        workspace.schema.get("Person").remove_attribute("dept_ref")
        entry = workspace.redo()
        assert entry is not None
        assert "Department" not in workspace.schema

    def test_redo_cleared_by_new_apply(self, workspace):
        workspace.apply(AddAttribute("Person", scalar("date"), "dob"))
        workspace.undo_last()
        workspace.apply(AddAttribute("Person", scalar("date"), "hired"))
        assert workspace.redo() is None

    def test_reset(self, workspace):
        workspace.apply(AddAttribute("Person", scalar("date"), "dob"))
        workspace.reset()
        assert schemas_equal(workspace.schema, workspace.reference)
        assert workspace.log == []

    def test_script_round_trips_through_language(self, workspace):
        from repro.ops.language import parse_script

        workspace.apply(AddAttribute("Person", scalar("date"), "dob"))
        workspace.apply(DeleteAttribute("Employee", "salary"))
        script = workspace.script()
        assert parse_script(script) == workspace.applied_operations()

    def test_history_describes_cascades(self, workspace):
        workspace.apply(DeleteTypeDefinition("Department"))
        assert "(+1 cascaded)" in workspace.history()
