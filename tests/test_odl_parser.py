"""Unit tests for the extended-ODL parser (repro.odl.parser)."""

import pytest

from repro.model.errors import DuplicateNameError, InvalidModelError
from repro.model.relationships import RelationshipKind
from repro.model.types import named, scalar, set_of
from repro.odl.lexer import OdlSyntaxError
from repro.odl.parser import parse_interface, parse_schema, parse_type


class TestParseType:
    def test_scalar(self):
        assert parse_type("long") == scalar("long")

    def test_sized_scalar(self):
        assert parse_type("string(30)") == scalar("string", 30)

    def test_named(self):
        assert parse_type("Course") == named("Course")

    def test_collection(self):
        assert parse_type("set<Course>") == set_of("Course")

    def test_sized_array(self):
        assert str(parse_type("array<long, 8>")) == "array<long, 8>"

    def test_nested(self):
        assert str(parse_type("list<set<Course>>")) == "list<set<Course>>"

    def test_trailing_garbage_rejected(self):
        with pytest.raises(OdlSyntaxError):
            parse_type("long long")


class TestParseInterface:
    def test_empty(self):
        interface = parse_interface("interface A {};")
        assert interface.name == "A"
        assert interface.supertypes == []

    def test_trailing_semicolon_optional(self):
        assert parse_interface("interface A {}").name == "A"

    def test_supertypes(self):
        interface = parse_interface("interface A : B, C {};")
        assert interface.supertypes == ["B", "C"]

    def test_extent(self):
        interface = parse_interface("interface A { extent as_; };")
        assert interface.extent == "as_"

    def test_keys_simple_and_compound(self):
        interface = parse_interface(
            "interface A { keys id, (name, dob); "
            "attribute long id; attribute long name; attribute long dob; };"
        )
        assert interface.keys == [("id",), ("name", "dob")]

    def test_key_singular_keyword(self):
        interface = parse_interface(
            "interface A { key (id); attribute long id; };"
        )
        assert interface.keys == [("id",)]

    def test_attribute(self):
        interface = parse_interface(
            "interface A { attribute string(30) name; };"
        )
        assert interface.get_attribute("name").type == scalar("string", 30)

    def test_association_relationship(self):
        interface = parse_interface(
            "interface A { relationship set<B> bs inverse B::a; };"
        )
        end = interface.get_relationship("bs")
        assert end.kind is RelationshipKind.ASSOCIATION
        assert end.inverse_type == "B"
        assert end.inverse_name == "a"

    def test_part_of_relationship(self):
        interface = parse_interface(
            "interface A { part_of relationship set<B> parts inverse B::whole; };"
        )
        assert interface.get_relationship("parts").kind is RelationshipKind.PART_OF

    def test_instance_of_relationship(self):
        interface = parse_interface(
            "interface A { instance_of relationship B gen inverse B::insts; };"
        )
        end = interface.get_relationship("gen")
        assert end.kind is RelationshipKind.INSTANCE_OF
        assert not end.is_to_many

    def test_order_by(self):
        interface = parse_interface(
            "interface A { relationship set<B> bs inverse B::a "
            "order_by (name, id); };"
        )
        assert interface.get_relationship("bs").order_by == ("name", "id")

    def test_niladic_operation(self):
        interface = parse_interface("interface A { short count(); };")
        assert interface.get_operation("count").signature() == "short count()"

    def test_operation_with_params_and_raises(self):
        interface = parse_interface(
            "interface A { float f(in short x, inout long y) raises (E1, E2); };"
        )
        operation = interface.get_operation("f")
        assert [p.direction for p in operation.parameters] == ["in", "inout"]
        assert operation.exceptions == ("E1", "E2")

    def test_void_operation(self):
        interface = parse_interface("interface A { void go(); };")
        assert str(interface.get_operation("go").return_type) == "void"

    def test_missing_parameter_direction_rejected(self):
        with pytest.raises(OdlSyntaxError) as info:
            parse_interface("interface A { float f(short x); };")
        assert "direction" in str(info.value)

    def test_duplicate_property_rejected(self):
        with pytest.raises(DuplicateNameError):
            parse_interface(
                "interface A { attribute long x; attribute short x; };"
            )


class TestParseSchema:
    def test_multiple_interfaces(self):
        schema = parse_schema(
            "interface A {}; interface B : A {};", name="demo"
        )
        assert schema.type_names() == ["A", "B"]
        assert schema.name == "demo"

    def test_forward_references_allowed(self):
        schema = parse_schema(
            """
            interface A { relationship B to_b inverse B::to_a; };
            interface B { relationship set<A> to_a inverse A::to_b; };
            """,
            name="s",
        )
        schema.validate()

    def test_empty_text(self):
        assert len(parse_schema("", name="empty")) == 0

    def test_trailing_garbage_rejected(self):
        with pytest.raises(OdlSyntaxError):
            parse_schema("interface A {}; stray", name="s")

    def test_error_position_reported(self):
        with pytest.raises(OdlSyntaxError) as info:
            parse_schema("interface A {\n  attribute ;\n};", name="s")
        assert "line 2" in str(info.value)

    def test_comments_everywhere(self):
        schema = parse_schema(
            """
            // header comment
            interface A { /* inline */ attribute long x; // trailing
            };
            """,
            name="s",
        )
        assert "x" in schema.get("A").attributes

    def test_duplicate_interface_rejected(self):
        with pytest.raises(DuplicateNameError):
            parse_schema("interface A {}; interface A {};", name="s")


class TestSharedValues:
    """One parse stores each distinct name, and each scalar type, once."""

    TEXT = """
        interface Person {
            extent people;
            attribute string(40) attr0;
            attribute long years;
            relationship Office works_in inverse Office::occupant;
            void rename(in string(40) attr0);
        };
        interface Office {
            attribute string(40) attr0;
            attribute long years;
            relationship Person occupant inverse Person::works_in;
        };
    """

    def test_equal_identifiers_are_one_string(self):
        schema = parse_schema(self.TEXT)
        person, office = schema.interfaces["Person"], schema.interfaces["Office"]
        assert person.attributes["attr0"].name is office.attributes["attr0"].name
        end = person.relationships["works_in"]
        assert end.inverse_type is office.name
        assert end.target_type is office.name
        assert office.relationships["occupant"].inverse_name is end.name
        parameter = person.operations["rename"].parameters[0]
        assert parameter.name is office.attributes["attr0"].name

    def test_equal_scalar_types_are_one_object(self):
        schema = parse_schema(self.TEXT)
        person, office = schema.interfaces["Person"], schema.interfaces["Office"]
        assert person.attributes["attr0"].type is office.attributes["attr0"].type
        assert person.attributes["years"].type is office.attributes["years"].type
        parameter = person.operations["rename"].parameters[0]
        assert parameter.type is person.attributes["attr0"].type
        assert parse_type("string(40)") is person.attributes["attr0"].type

    @pytest.mark.parametrize("text, message", [
        ("string(0)", "size of 'string' must be positive, got 0"),
        ("long(5)", "scalar type 'long' does not accept a size"),
    ])
    def test_a_bad_size_still_raises_every_time(self, text, message):
        for _ in range(2):  # the failure is not memoized
            with pytest.raises(InvalidModelError, match=message):
                parse_type(text)
