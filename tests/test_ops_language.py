"""Unit tests for the Appendix A operation language parser."""

import pytest

from repro.model.operations import Parameter
from repro.model.types import named, scalar, set_of
from repro.odl.lexer import OdlSyntaxError
from repro.ops.language import (
    parse_composite,
    parse_operation,
    parse_script,
)
from repro.ops.attribute_ops import AddAttribute, ModifyAttributeSize
from repro.ops.operation_ops import AddOperation
from repro.ops.registry import OPERATION_CLASSES
from repro.ops.relationship_ops import (
    AddRelationship,
    ModifyRelationshipTargetType,
)
from repro.ops.type_property_ops import ModifySupertype


class TestBasicForms:
    def test_add_type_definition(self):
        operation = parse_operation("add_type_definition(Course)")
        assert operation.op_name == "add_type_definition"
        assert operation.typename == "Course"

    def test_add_attribute(self):
        operation = parse_operation("add_attribute(Course, string(30), title)")
        assert operation == AddAttribute("Course", scalar("string", 30), "title")

    def test_add_attribute_with_explicit_size(self):
        """The grammar's optional [ <size> ] argument."""
        operation = parse_operation("add_attribute(Course, string, 30, title)")
        assert operation == AddAttribute("Course", scalar("string", 30), "title")

    def test_add_attribute_size_on_named_type_rejected(self):
        with pytest.raises(OdlSyntaxError):
            parse_operation("add_attribute(Course, Dept, 30, title)")

    def test_add_relationship(self):
        operation = parse_operation(
            "add_relationship(Department, set<Employee>, has, "
            "Employee::works_in_a)"
        )
        assert operation == AddRelationship(
            "Department", set_of("Employee"), "has", "Employee", "works_in_a"
        )

    def test_add_relationship_with_order_by(self):
        operation = parse_operation(
            "add_relationship(D, set<E>, has, E::w, (name, id))"
        )
        assert operation.order_by == ("name", "id")

    def test_modify_target_type_three_args(self):
        operation = parse_operation(
            "modify_relationship_target_type(Employee, works_in_a, Person)"
        )
        assert operation == ModifyRelationshipTargetType(
            "Employee", "works_in_a", "Person"
        )
        assert operation.old_target_type is None

    def test_modify_target_type_four_args(self):
        operation = parse_operation(
            "modify_relationship_target_type(Department, has, Employee, Person)"
        )
        assert operation.old_target_type == "Employee"
        assert operation.new_target_type == "Person"

    def test_modify_supertype(self):
        operation = parse_operation("modify_supertype(TA, (Student), ())")
        assert operation == ModifySupertype("TA", ("Student",), ())

    def test_modify_attribute_size_zero_means_none(self):
        operation = parse_operation("modify_attribute_size(A, name, 30, 0)")
        assert operation == ModifyAttributeSize("A", "name", 30, None)

    def test_add_operation_full(self):
        operation = parse_operation(
            "add_operation(Employee, float, salary, (in short month), "
            "(NoSuchMonth))"
        )
        assert operation == AddOperation(
            "Employee", scalar("float"), "salary",
            (Parameter("in", scalar("short"), "month"),), ("NoSuchMonth",),
        )

    def test_add_operation_exceptions_only(self):
        """An identifier list in fourth position is the raises clause."""
        operation = parse_operation("add_operation(A, void, f, (E1, E2))")
        assert operation.parameters == ()
        assert operation.exceptions == ("E1", "E2")

    def test_add_operation_empty_params(self):
        operation = parse_operation("add_operation(A, void, f, ())")
        assert operation.parameters == ()
        assert operation.exceptions == ()

    def test_add_part_of(self):
        operation = parse_operation(
            "add_part_of_relationship(House, set<Wall>, walls, Wall::of_house)"
        )
        assert operation.op_name == "add_part_of_relationship"

    def test_modify_cardinality(self):
        operation = parse_operation(
            "modify_relationship_cardinality(D, has, set<E>, list<E>)"
        )
        assert operation.old_target == set_of("E")
        assert str(operation.new_target) == "list<E>"

    def test_modify_order_by_empty_lists(self):
        operation = parse_operation(
            "modify_relationship_order_by(D, has, (name), ())"
        )
        assert operation.old_order_by == ("name",)
        assert operation.new_order_by == ()


class TestErrors:
    def test_unknown_operation(self):
        with pytest.raises(OdlSyntaxError) as info:
            parse_operation("rename_type(A, B)")
        assert "unknown operation" in str(info.value)

    def test_trailing_garbage(self):
        with pytest.raises(OdlSyntaxError):
            parse_operation("add_type_definition(A) extra")

    def test_missing_comma(self):
        with pytest.raises(OdlSyntaxError):
            parse_operation("add_attribute(A string, x)")

    def test_missing_close_paren(self):
        with pytest.raises(OdlSyntaxError):
            parse_operation("add_type_definition(A")

    def test_bad_parameter_direction(self):
        with pytest.raises(OdlSyntaxError):
            parse_operation("add_operation(A, void, f, (byref short x))")

    def test_bad_lift_flag_points_at_the_flag(self):
        """The flag's own position, not the token after it."""
        with pytest.raises(OdlSyntaxError) as info:
            parse_composite("introduce_abstract_supertype(S, (A, B),\n   maybe   )")
        assert str(info.value) == (
            "expected 'lift' or 'nolift', found 'maybe' (line 2, column 4)"
        )
        assert (info.value.line, info.value.column) == (2, 4)

    def test_size_on_collection_points_at_the_size(self):
        """The size argument's position, not the attribute name's."""
        with pytest.raises(OdlSyntaxError) as info:
            parse_operation("add_attribute(A, set<long>, 5, x)")
        assert str(info.value) == (
            "a size argument requires a scalar type (line 1, column 29)"
        )
        assert (info.value.line, info.value.column) == (1, 29)


class TestScripts:
    def test_newline_separated(self):
        script = parse_script(
            """
            add_type_definition(A)
            add_attribute(A, long, x)
            """
        )
        assert [op.op_name for op in script] == [
            "add_type_definition", "add_attribute",
        ]

    def test_semicolon_separated(self):
        script = parse_script(
            "add_type_definition(A); add_type_definition(B);"
        )
        assert len(script) == 2

    def test_comments_allowed(self):
        script = parse_script(
            """
            // introduce the schedule
            add_type_definition(Schedule)
            """
        )
        assert len(script) == 1

    def test_empty_script(self):
        assert parse_script("") == []


def _example_instance(cls):
    """Build a representative instance of each operation class."""
    from repro.model.types import list_of

    samples = {
        "add_type_definition": lambda: cls("A"),
        "delete_type_definition": lambda: cls("A"),
        "add_supertype": lambda: cls("A", "B"),
        "delete_supertype": lambda: cls("A", "B"),
        "modify_supertype": lambda: cls("A", ("B",), ("C", "D")),
        "add_extent_name": lambda: cls("A", "as_"),
        "delete_extent_name": lambda: cls("A", "as_"),
        "modify_extent_name": lambda: cls("A", "old", "new"),
        "add_key_list": lambda: cls("A", ("x", "y")),
        "delete_key_list": lambda: cls("A", ("x",)),
        "modify_key_list": lambda: cls("A", ("x",), ("x", "y")),
        "add_attribute": lambda: cls("A", scalar("string", 9), "x"),
        "delete_attribute": lambda: cls("A", "x"),
        "modify_attribute": lambda: cls("A", "x", "B"),
        "modify_attribute_type": lambda: cls(
            "A", "x", scalar("long"), named("B")
        ),
        "modify_attribute_size": lambda: cls("A", "x", 3, 9),
        "add_relationship": lambda: cls(
            "A", set_of("B"), "bs", "B", "a", ("x",)
        ),
        "delete_relationship": lambda: cls("A", "bs"),
        "modify_relationship_target_type": lambda: cls("A", "bs", "C", "B"),
        "modify_relationship_cardinality": lambda: cls(
            "A", "bs", set_of("B"), list_of("B")
        ),
        "modify_relationship_order_by": lambda: cls("A", "bs", ("x",), ()),
        "add_operation": lambda: cls(
            "A", scalar("float"), "f",
            (Parameter("in", scalar("short"), "x"),), ("E",),
        ),
        "delete_operation": lambda: cls("A", "f"),
        "modify_operation": lambda: cls("A", "f", "B"),
        "modify_operation_return_type": lambda: cls(
            "A", "f", scalar("float"), scalar("double")
        ),
        "modify_operation_arg_list": lambda: cls(
            "A", "f", (), (Parameter("in", scalar("short"), "x"),)
        ),
        "modify_operation_exceptions_raised": lambda: cls(
            "A", "f", ("E",), ()
        ),
        "add_part_of_relationship": lambda: cls(
            "A", set_of("B"), "parts", "B", "whole"
        ),
        "delete_part_of_relationship": lambda: cls("A", "parts"),
        "modify_part_of_target_type": lambda: cls("A", "parts", "C", "B"),
        "modify_part_of_cardinality": lambda: cls(
            "A", "parts", set_of("B"), list_of("B")
        ),
        "modify_part_of_order_by": lambda: cls("A", "parts", (), ("x",)),
        "add_instance_of_relationship": lambda: cls(
            "A", set_of("B"), "insts", "B", "gen"
        ),
        "delete_instance_of_relationship": lambda: cls("A", "insts"),
        "modify_instance_of_target_type": lambda: cls("A", "insts", "C", "B"),
        "modify_instance_of_cardinality": lambda: cls(
            "A", "insts", set_of("B"), list_of("B")
        ),
        "modify_instance_of_order_by": lambda: cls("A", "insts", (), ("x",)),
    }
    return samples[cls.op_name]()


@pytest.mark.parametrize(
    "cls", OPERATION_CLASSES, ids=[c.op_name for c in OPERATION_CLASSES]
)
def test_every_operation_round_trips_through_the_language(cls):
    """``parse_operation(op.to_text()) == op`` for every operation kind."""
    operation = _example_instance(cls)
    assert parse_operation(operation.to_text()) == operation
