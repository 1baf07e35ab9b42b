"""Unit tests for the schema repository lifecycle."""

import pytest

from repro.analysis.diff import ChangeStatus
from repro.model.errors import SchemaError, ValidationError
from repro.ops.attribute_ops import AddAttribute
from repro.ops.base import InadmissibleOperationError
from repro.ops.language import parse_operation
from repro.ops.type_ops import DeleteTypeDefinition
from repro.repository.repository import SchemaRepository, require_custom_schema
from repro.model.types import scalar


@pytest.fixture
def repository(small):
    return SchemaRepository(small, custom_name="small_custom")


class TestConstruction:
    def test_decomposition_generated_immediately(self, repository):
        identifiers = {c.identifier for c in repository.concept_schemas()}
        assert {"ww:Person", "ww:Employee", "ww:Department", "gh:Person"} <= (
            identifiers
        )

    def test_invalid_shrink_wrap_rejected(self):
        from repro.odl.parser import parse_schema

        broken = parse_schema("interface A : Ghost {};", name="broken")
        with pytest.raises(ValidationError):
            SchemaRepository(broken)

    @pytest.mark.parametrize(
        "odl",
        [
            # a dangling supertype
            "interface A : Ghost {}; interface B { attribute long x; };",
            # a missing inverse
            "interface A { relationship B b inverse B::a; };"
            "interface B { attribute long x; };",
            # an ISA cycle
            "interface A : C {}; interface B : A {}; interface C : B {};",
        ],
    )
    def test_rejection_matches_the_reference_scan(self, odl):
        """The workspace's first validation gates the open: same error
        message (naming the shrink wrap) and the same issues."""
        from repro.model.validation import validate_schema
        from repro.odl.parser import parse_schema

        broken = parse_schema(odl, name="broken")
        with pytest.raises(ValidationError) as expected:
            validate_schema(broken, raise_on_error=True)
        with pytest.raises(ValidationError) as raised:
            SchemaRepository(broken, custom_name="custom")
        assert str(raised.value) == str(expected.value)
        assert "'broken'" in str(raised.value)
        assert raised.value.issues == expected.value.issues

    def test_open_runs_no_reference_scan(self, small, monkeypatch):
        """One validation per open: the workspace's, not a second full
        ``validate_schema`` pass over the shrink wrap."""
        import repro.model.validation as validation

        calls = []
        scan = validation.validate_schema
        monkeypatch.setattr(
            validation,
            "validate_schema",
            lambda *args, **kwargs: calls.append(args) or scan(*args, **kwargs),
        )
        repository = SchemaRepository(small)
        assert calls == []
        assert repository.workspace.issues == scan(small)
        SchemaRepository.from_odl("interface A { attribute long x; };")
        assert calls == []

    def test_from_odl(self):
        repository = SchemaRepository.from_odl(
            "interface A { attribute long x; };", name="demo"
        )
        assert "A" in repository.shrink_wrap

    def test_concept_lookup(self, repository):
        assert repository.concept("gh:Person").anchor == "Person"
        with pytest.raises(SchemaError):
            repository.concept("gh:Ghost")


class TestCustomization:
    def test_apply_and_undo(self, repository):
        repository.apply(parse_operation("add_attribute(Person, date, dob)"))
        assert "dob" in repository.workspace.schema.get("Person").attributes
        repository.undo()
        assert "dob" not in repository.workspace.schema.get("Person").attributes

    def test_apply_in_concept_context(self, repository):
        entry = repository.apply(
            AddAttribute("Person", scalar("date"), "dob"),
            concept_id="ww:Person",
        )
        assert entry.concept_id == "ww:Person"

    def test_apply_rejects_inadmissible_in_context(self, repository):
        with pytest.raises(InadmissibleOperationError):
            repository.apply(
                parse_operation("add_supertype(Department, Person)"),
                concept_id="ww:Department",
            )

    def test_impact_preview(self, repository):
        report = repository.impact(DeleteTypeDefinition("Department"))
        assert len(report.cascades) == 1
        # Previewing never changes the workspace.
        assert repository.workspace.log == []

    def test_impact_checks_concept_admissibility(self, repository):
        with pytest.raises(InadmissibleOperationError):
            repository.impact(
                parse_operation("add_supertype(Department, Person)"),
                concept_id="ww:Department",
            )


class TestDeliverables:
    def test_generate_custom_schema(self, repository):
        repository.apply(parse_operation("add_attribute(Person, date, dob)"))
        custom = repository.generate_custom_schema("tailored")
        assert custom.name == "tailored"
        assert "dob" in custom.get("Person").attributes
        assert repository.custom_schema is custom

    @pytest.mark.parametrize("name", [None, "tailored"])
    def test_custom_schema_gate_rejects_structural_errors(
        self, repository, name
    ):
        """The gate reads the workspace's issues: an error-severity issue
        raises the reference scan's error, naming the custom schema, and
        leaves no custom schema behind."""
        from repro.model.validation import validate_schema

        workspace = repository.workspace
        workspace.schema.get("Person").add_supertype("Ghost")  # dangling
        with pytest.raises(ValidationError) as expected:
            validate_schema(
                workspace.schema.fork(name or workspace.schema.name),
                raise_on_error=True,
            )
        with pytest.raises(ValidationError) as raised:
            repository.generate_custom_schema(name)
        assert str(raised.value) == str(expected.value)
        assert raised.value.issues == expected.value.issues
        assert repository.custom_schema is None

    def test_custom_schema_is_frozen_copy(self, repository):
        custom = repository.generate_custom_schema()
        repository.apply(parse_operation("add_attribute(Person, date, dob)"))
        assert "dob" not in custom.get("Person").attributes

    def test_generate_mapping(self, repository):
        repository.apply(parse_operation("delete_attribute(Employee, salary)"))
        mapping = repository.generate_mapping()
        deleted = [entry.path for entry in mapping.deleted()]
        assert "Employee.salary" in deleted

    def test_mapping_invalidated_by_new_operations(self, repository):
        repository.generate_mapping()
        repository.apply(parse_operation("add_attribute(Person, date, dob)"))
        assert repository.mapping is None
        assert repository.custom_schema is None

    def test_diff_reflects_workspace(self, repository):
        repository.apply(parse_operation("add_type_definition(Extra)"))
        diff = repository.diff()
        added = [e.path for e in diff.of_status(ChangeStatus.ADDED)]
        assert "Extra" in added

    def test_consistency_report(self, repository):
        repository.apply(parse_operation("add_type_definition(Orphan)"))
        report = repository.consistency()
        assert any(m.code == "empty-interface" for m in report)

    def test_customization_script(self, repository):
        repository.apply(parse_operation("add_attribute(Person, date, dob)"))
        assert repository.customization_script() == (
            "add_attribute(Person, date, dob)"
        )

    def test_require_custom_schema(self, repository):
        with pytest.raises(SchemaError):
            require_custom_schema(repository)
        repository.generate_custom_schema()
        assert require_custom_schema(repository) is repository.custom_schema

    def test_summary(self, repository):
        assert "concept schemas" in repository.summary()
