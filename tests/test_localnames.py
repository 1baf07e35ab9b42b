"""Tests for the local-name mapping (the Section 5 naming extension)."""

import pytest

from repro.model.errors import SchemaError
from repro.odl.printer import print_schema
from repro.repository.localnames import LocalNameMap, apply_local_names
from repro.repository.repository import SchemaRepository


class TestLocalNameMap:
    def test_alias_type(self, small):
        names = LocalNameMap()
        names.set_alias("Person", "Kunde", small)
        assert names.local_type_name("Person") == "Kunde"
        assert names.local_type_name("Employee") == "Employee"
        assert names.canonical("Kunde") == "Person"

    def test_alias_member(self, small):
        names = LocalNameMap()
        names.set_alias("Person.name", "full_name", small)
        assert names.local_member_name("Person", "name") == "full_name"
        assert names.local_member_name("Person", "id") == "id"

    def test_unknown_path_rejected(self, small):
        names = LocalNameMap()
        with pytest.raises(SchemaError):
            names.set_alias("Person.ghost", "x", small)
        from repro.model.errors import UnknownTypeError

        with pytest.raises(UnknownTypeError):
            names.set_alias("Ghost", "x", small)

    def test_type_collision_rejected(self, small):
        names = LocalNameMap()
        with pytest.raises(SchemaError):
            names.set_alias("Person", "Employee", small)

    def test_member_collision_rejected(self, small):
        names = LocalNameMap()
        with pytest.raises(SchemaError):
            names.set_alias("Person.name", "id", small)

    def test_local_name_collision_rejected(self, small):
        names = LocalNameMap()
        names.set_alias("Person", "Kunde", small)
        with pytest.raises(SchemaError):
            names.set_alias("Department", "Kunde", small)

    def test_re_alias_same_path_allowed(self, small):
        names = LocalNameMap()
        names.set_alias("Person", "Kunde", small)
        names.set_alias("Person", "Klient", small)
        assert names.local_type_name("Person") == "Klient"

    def test_remove_alias(self, small):
        names = LocalNameMap()
        names.set_alias("Person", "Kunde", small)
        names.remove_alias("Person")
        assert names.local_type_name("Person") == "Person"
        with pytest.raises(SchemaError):
            names.remove_alias("Person")

    def test_render(self, small):
        names = LocalNameMap()
        assert "no local names" in names.render()
        names.set_alias("Person", "Kunde", small)
        assert "Person -> Kunde" in names.render()


class TestApplyLocalNames:
    def test_type_rename_propagates_everywhere(self, small):
        names = LocalNameMap()
        names.set_alias("Person", "Kunde", small)
        display = apply_local_names(small, names)
        assert "Kunde" in display and "Person" not in display
        assert display.get("Employee").supertypes == ["Kunde"]
        display.validate()

    def test_relationship_rename_fixes_inverse(self, small):
        names = LocalNameMap()
        names.set_alias("Employee.works_in", "arbeitet_in", small)
        display = apply_local_names(small, names)
        end = display.get("Employee").get_relationship("arbeitet_in")
        assert end.target_type == "Department"
        inverse = display.get("Department").get_relationship("staff")
        assert inverse.inverse_name == "arbeitet_in"
        display.validate()

    def test_attribute_rename_fixes_keys_and_order_by(self, small):
        names = LocalNameMap()
        names.set_alias("Person.id", "ident", small)
        names.set_alias("Person.name", "full_name", small)
        display = apply_local_names(small, names)
        assert display.get("Person").keys == [("ident",)]
        # Department.staff orders by Employee's *inherited* name; the
        # provider is Person, so the alias applies.
        end = display.get("Department").get_relationship("staff")
        assert end.order_by == ("full_name",)
        display.validate()

    def test_shadowing_attribute_not_renamed(self, small):
        from repro.model.attributes import Attribute
        from repro.model.types import scalar

        small.get("Employee").add_attribute(Attribute("name", scalar("long")))
        names = LocalNameMap()
        names.set_alias("Person.name", "full_name", small)
        display = apply_local_names(small, names)
        # Employee's own shadowing attribute keeps its name, and the
        # ordering on staff (targeting Employee) resolves to the shadow.
        assert "name" in display.get("Employee").attributes
        end = display.get("Department").get_relationship("staff")
        assert end.order_by == ("name",)

    def test_display_round_trips_as_odl(self, small):
        names = LocalNameMap()
        names.set_alias("Person", "Kunde", small)
        names.set_alias("Employee.works_in", "arbeitet_in", small)
        from repro.odl.parser import parse_schema

        display = apply_local_names(small, names)
        reparsed = parse_schema(print_schema(display), name="display")
        reparsed.validate()


class TestRepositoryIntegration:
    def test_display_schema(self, small):
        repository = SchemaRepository(small)
        repository.local_names.set_alias(
            "Person", "Kunde", repository.workspace.schema
        )
        display = repository.display_schema()
        assert "Kunde" in display

    def test_aliases_persist(self, small, tmp_path):
        from repro.repository.persistence import (
            load_repository,
            save_repository,
        )

        repository = SchemaRepository(small)
        repository.local_names.set_alias(
            "Person", "Kunde", repository.workspace.schema
        )
        path = tmp_path / "repo.json"
        save_repository(repository, path)
        restored = load_repository(path)
        assert restored.local_names.local_type_name("Person") == "Kunde"

    def test_cli_alias_commands(self, small):
        from repro.designer.cli import execute
        from repro.designer.session import DesignSession

        session = DesignSession(SchemaRepository(small))
        assert "locally known as Kunde" in execute(session, "alias Person Kunde")
        assert "Person -> Kunde" in execute(session, "aliases")
        localized = execute(session, "odl local Person")
        assert localized.startswith("interface Kunde")
        canonical = execute(session, "odl Person")
        assert canonical.startswith("interface Person")


class TestLocalNamesKeepSharing:
    """Local names only read the workspace: they must leave every
    interface it shares with the shrink wrap shared."""

    def test_display_and_alias_copy_nothing(self, university):
        repository = SchemaRepository(university)
        workspace = repository.workspace.schema
        shrink_wrap = repository.shrink_wrap

        def shared():
            return sum(
                workspace.interfaces[name] is interface
                for name, interface in shrink_wrap.interfaces.items()
            )

        assert shared() == len(shrink_wrap.interfaces) == 16
        repository.display_schema()
        repository.local_names.set_alias("Person", "Individual", workspace)
        assert shared() == 16
        assert "Individual" in repository.display_schema()
