"""Tests for additional wagon wheel views (several wheels per type)."""

import pytest

from repro.concepts.wagon_wheel import extract_wagon_wheel_view
from repro.model.errors import SchemaError
from repro.repository.repository import SchemaRepository
from repro.ops.language import parse_operation


class TestExtraction:
    def test_view_identifier_carries_name(self, university):
        view = extract_wagon_wheel_view(
            university, "Course_Offering", "scheduling",
            spoke_paths=("offered_during", "duration_of"),
        )
        assert view.identifier == "ww:Course_Offering#scheduling"
        assert view.view == "scheduling"

    def test_spoke_filtering(self, university):
        view = extract_wagon_wheel_view(
            university, "Course_Offering", "scheduling",
            spoke_paths=("offered_during", "duration_of"),
        )
        assert {s.target_type for s in view.spokes} == {"Time_Slot", "Length"}
        assert "Book" not in view.members
        assert "Time_Slot" in view.members

    def test_attribute_filtering_preserves_consistent_keys(self, university):
        view = extract_wagon_wheel_view(
            university, "Course", "naming", spoke_paths=(),
            attribute_names=("number", "title"),
        )
        assert list(view.focal_interface.attributes) == ["number", "title"]
        assert view.focal_interface.keys == [("number",)]
        narrower = extract_wagon_wheel_view(
            university, "Course", "untitled", spoke_paths=(),
            attribute_names=("title",),
        )
        # The key on number cannot survive a view without number.
        assert narrower.focal_interface.keys == []

    def test_none_keeps_everything(self, university):
        from repro.concepts.wagon_wheel import extract_wagon_wheel

        full = extract_wagon_wheel(university, "Course_Offering")
        view = extract_wagon_wheel_view(
            university, "Course_Offering", "everything"
        )
        assert view.spokes == full.spokes
        assert view.members == full.members

    def test_unknown_spoke_rejected(self, university):
        with pytest.raises(SchemaError):
            extract_wagon_wheel_view(
                university, "Course_Offering", "bad", spoke_paths=("ghost",)
            )

    def test_unknown_attribute_rejected(self, university):
        with pytest.raises(SchemaError):
            extract_wagon_wheel_view(
                university, "Course_Offering", "bad",
                attribute_names=("ghost",),
            )

    def test_empty_view_name_rejected(self, university):
        with pytest.raises(SchemaError):
            extract_wagon_wheel_view(university, "Course_Offering", "")


class TestRepositoryIntegration:
    def test_view_addressable_like_any_concept(self, university):
        repository = SchemaRepository(university)
        repository.create_wagon_wheel_view(
            "Course_Offering", "scheduling",
            spoke_paths=("offered_during", "duration_of"),
        )
        concept = repository.concept("ww:Course_Offering#scheduling")
        assert concept.covers_type("Time_Slot")

    def test_duplicate_view_rejected(self, university):
        repository = SchemaRepository(university)
        repository.create_wagon_wheel_view("Course", "v1", spoke_paths=())
        with pytest.raises(SchemaError):
            repository.create_wagon_wheel_view("Course", "v1", spoke_paths=())

    def test_operations_through_a_view_are_restricted(self, university):
        from repro.ops.base import InadmissibleOperationError

        repository = SchemaRepository(university)
        repository.create_wagon_wheel_view("Course", "v1", spoke_paths=())
        with pytest.raises(InadmissibleOperationError):
            repository.apply(
                parse_operation("add_supertype(Course, Person)"),
                concept_id="ww:Course#v1",
            )
        repository.apply(
            parse_operation("add_attribute(Course, short, level)"),
            concept_id="ww:Course#v1",
        )
        assert "level" in repository.workspace.schema.get("Course").attributes

    def test_view_reflects_workspace_state(self, university):
        repository = SchemaRepository(university)
        repository.apply(
            parse_operation("add_attribute(Course, short, level)")
        )
        view = repository.create_wagon_wheel_view(
            "Course", "levels", spoke_paths=(), attribute_names=("level",)
        )
        assert "level" in view.focal_interface.attributes


class TestViewPersistence:
    def test_views_survive_save_and_load(self, university, tmp_path):
        from repro.repository.persistence import (
            load_repository,
            save_repository,
        )

        repository = SchemaRepository(university, custom_name="viewed")
        repository.create_wagon_wheel_view(
            "Course_Offering", "scheduling",
            spoke_paths=("offered_during", "duration_of"),
        )
        repository.apply(
            parse_operation("delete_attribute(Course_Offering, room)"),
            concept_id="ww:Course_Offering#scheduling",
        )
        path = tmp_path / "repo.json"
        save_repository(repository, path)
        restored = load_repository(path)
        concept = restored.concept("ww:Course_Offering#scheduling")
        assert {s.target_type for s in concept.spokes} == {
            "Time_Slot", "Length"
        }
        assert restored.workspace.log[0].concept_id == (
            "ww:Course_Offering#scheduling"
        )

    def test_view_created_mid_script_sees_same_state(self, university, tmp_path):
        from repro.repository.persistence import (
            load_repository,
            save_repository,
        )

        repository = SchemaRepository(university, custom_name="viewed")
        # The spoke this view filters on only exists after the first op.
        repository.apply(
            parse_operation(
                "add_relationship(Course_Offering, Department, hosted_by, "
                "Department::hosts)"
            )
        )
        repository.create_wagon_wheel_view(
            "Course_Offering", "hosting", spoke_paths=("hosted_by",)
        )
        path = tmp_path / "repo.json"
        save_repository(repository, path)
        restored = load_repository(path)
        concept = restored.concept("ww:Course_Offering#hosting")
        assert {s.path_name for s in concept.spokes} == {"hosted_by"}


class TestModuleWrapper:
    def test_module_sets_schema_name(self):
        from repro.odl.parser import parse_schema

        schema = parse_schema(
            "module Univ { interface A {}; interface B : A {}; };"
        )
        assert schema.name == "Univ"
        assert schema.type_names() == ["A", "B"]

    def test_module_requires_closing_brace(self):
        from repro.odl.lexer import OdlSyntaxError
        from repro.odl.parser import parse_schema

        with pytest.raises(OdlSyntaxError):
            parse_schema("module Univ { interface A {};")

    def test_unwrapped_schemas_still_parse(self):
        from repro.odl.parser import parse_schema

        assert parse_schema("interface A {};", name="n").name == "n"


class TestViewsLeaveNoClaims:
    def test_views_of_a_shared_focal_add_no_claims(self, university):
        """A view copies the focal interface, so it registers no snapshot
        claim on the interface the workspace shares with the shrink wrap
        (one that never mutates would hold the claim for ever)."""
        repository = SchemaRepository(university)
        course = repository.shrink_wrap.interfaces["Course"]
        assert repository.workspace.schema.interfaces["Course"] is course
        before = list(course._claims or ())
        for name in ("a", "b", "c"):
            extract_wagon_wheel_view(
                repository.workspace.schema, "Course", name
            )
        assert list(course._claims or ()) == before
