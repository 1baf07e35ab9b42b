"""The textual modification language of Appendix A.

"The language that is created for specifying modifications formalizes
the modification choices for implementation in a system" (Section 5).
:func:`parse_operation` turns one textual operation like::

    modify_relationship_target_type(Employee, works_in_a, Person)
    add_attribute(Course_Offering, string(30), room)
    add_operation(Employee, float, salary, (in short month), (NoSuchMonth))

into the corresponding :class:`~repro.ops.base.SchemaOperation` command
object; :meth:`~repro.ops.base.SchemaOperation.to_text` is its inverse
(``parse_operation(op.to_text()) == op`` is a tested property).

:func:`parse_script` parses a sequence of operations -- one per line or
separated by semicolons -- which is how example customization scripts
and the genome case study express their modification sequences.
"""

from __future__ import annotations

from typing import Callable

from repro.model.operations import Parameter
from repro.model.types import ScalarType, TypeRef
from repro.odl.lexer import IDENT, NUMBER, TokenStream
from repro.odl.parser import parse_type_from
from repro.ops.base import SchemaOperation
from repro.ops.instance_of_ops import (
    AddInstanceOfRelationship,
    DeleteInstanceOfRelationship,
    ModifyInstanceOfCardinality,
    ModifyInstanceOfOrderBy,
    ModifyInstanceOfTargetType,
)
from repro.ops.operation_ops import (
    AddOperation,
    DeleteOperation,
    ModifyOperation,
    ModifyOperationArgList,
    ModifyOperationExceptionsRaised,
    ModifyOperationReturnType,
)
from repro.ops.part_of_ops import (
    AddPartOfRelationship,
    DeletePartOfRelationship,
    ModifyPartOfCardinality,
    ModifyPartOfOrderBy,
    ModifyPartOfTargetType,
)
from repro.ops.relationship_ops import (
    AddRelationship,
    DeleteRelationship,
    ModifyRelationshipCardinality,
    ModifyRelationshipOrderBy,
    ModifyRelationshipTargetType,
)
from repro.ops.attribute_ops import (
    AddAttribute,
    DeleteAttribute,
    ModifyAttribute,
    ModifyAttributeSize,
    ModifyAttributeType,
)
from repro.ops.type_ops import AddTypeDefinition, DeleteTypeDefinition
from repro.ops.type_property_ops import (
    AddExtentName,
    AddKeyList,
    AddSupertype,
    DeleteExtentName,
    DeleteKeyList,
    DeleteSupertype,
    ModifyExtentName,
    ModifyKeyList,
    ModifySupertype,
)

_DIRECTIONS = ("in", "out", "inout")


def parse_operation(text: str) -> SchemaOperation:
    """Parse one operation written in the Appendix A language."""
    stream = TokenStream(text)
    operation = _parse_one(stream)
    stream.accept_punct(";")
    stream.expect_end()
    return operation


def parse_composite(text: str):
    """Parse one composite (macro) operation.

    Accepted forms::

        introduce_abstract_supertype(Name, (Sub1, Sub2[, ...])[, nolift])
        extract_supertype(Source, Supertype, (attrs)[, (operations)])
        split_by_subtyping(Source, NewSubtype, (attrs)[, (operations)])
    """
    from repro.ops.composite import (
        ExtractSupertype,
        IntroduceAbstractSupertype,
        SplitBySubtyping,
    )

    stream = TokenStream(text)
    name_start = stream.start
    name = stream.expect_ident()
    stream.expect_punct("(")
    if name == "introduce_abstract_supertype":
        supertype = stream.expect_ident()
        _comma(stream)
        subtypes = _name_list(stream)
        lift = True
        if stream.accept_punct(","):
            flag_start = stream.start
            flag = stream.expect_ident()
            if flag not in ("lift", "nolift"):
                raise stream.error(
                    f"expected 'lift' or 'nolift', found {flag!r}", flag_start
                )
            lift = flag == "lift"
        composite = IntroduceAbstractSupertype(supertype, subtypes, lift)
    elif name in ("extract_supertype", "split_by_subtyping"):
        source = stream.expect_ident()
        _comma(stream)
        other = stream.expect_ident()
        _comma(stream)
        attributes = _name_list(stream)
        operations: tuple[str, ...] = ()
        if stream.accept_punct(","):
            operations = _name_list(stream)
        cls = (
            ExtractSupertype if name == "extract_supertype" else SplitBySubtyping
        )
        composite = cls(source, other, attributes, operations)
    else:
        raise stream.error(f"unknown composite operation {name!r}", name_start)
    stream.expect_punct(")")
    stream.accept_punct(";")
    stream.expect_end()
    return composite


def parse_script(text: str) -> list[SchemaOperation]:
    """Parse a whole modification script (``;`` or newline separated)."""
    stream = TokenStream(text)
    operations: list[SchemaOperation] = []
    while stream.kind == IDENT:
        operations.append(_parse_one(stream))
        stream.accept_punct(";")
    stream.expect_end()
    return operations


def _parse_one(stream: TokenStream) -> SchemaOperation:
    name_start = stream.start
    name = stream.expect_ident()
    builder = _BUILDERS.get(name)
    if builder is None:
        raise stream.error(f"unknown operation {name!r}", name_start)
    stream.expect_punct("(")
    operation = builder(stream)
    stream.expect_punct(")")
    return operation


# ----------------------------------------------------------------------
# Argument micro-parsers
# ----------------------------------------------------------------------

def _comma(stream: TokenStream) -> None:
    stream.expect_punct(",")


def _type(stream: TokenStream) -> TypeRef:
    return parse_type_from(stream)


def _name_list(stream: TokenStream) -> tuple[str, ...]:
    """A parenthesised identifier list, possibly empty: ``(a, b)`` / ``()``."""
    stream.expect_punct("(")
    names: list[str] = []
    if not stream.at_punct(")"):
        names.append(stream.expect_ident())
        while stream.accept_punct(","):
            names.append(stream.expect_ident())
    stream.expect_punct(")")
    return tuple(names)


def _param_list(stream: TokenStream) -> tuple[Parameter, ...]:
    """A parenthesised ODL parameter list: ``(in short month, ...)``."""
    stream.expect_punct("(")
    parameters: list[Parameter] = []
    if not stream.at_punct(")"):
        parameters.append(_parameter(stream))
        while stream.accept_punct(","):
            parameters.append(_parameter(stream))
    stream.expect_punct(")")
    return tuple(parameters)


def _parameter(stream: TokenStream) -> Parameter:
    if stream.value not in _DIRECTIONS:
        raise stream.error(
            f"expected a parameter direction (in/out/inout), found "
            f"{stream.current}"
        )
    direction = stream.advance()
    param_type = _type(stream)
    param_name = stream.expect_ident()
    return Parameter(direction, param_type, param_name)


def _inverse_path(stream: TokenStream) -> tuple[str, str]:
    """``Type::path``."""
    inverse_type = stream.expect_ident()
    stream.expect_punct("::")
    inverse_name = stream.expect_ident()
    return inverse_type, inverse_name


def _size(stream: TokenStream) -> int | None:
    """A size argument where 0 denotes "no size"."""
    value = stream.expect_number()
    return value if value else None


# ----------------------------------------------------------------------
# Per-operation builders
# ----------------------------------------------------------------------

def _build_add_attribute(stream: TokenStream) -> SchemaOperation:
    typename = stream.expect_ident()
    _comma(stream)
    domain = _type(stream)
    _comma(stream)
    if stream.kind == NUMBER:
        # The optional explicit [ <size> ] argument of the grammar.
        size_start = stream.start
        size = stream.expect_number()
        _comma(stream)
        if not isinstance(domain, ScalarType):
            raise stream.error(
                "a size argument requires a scalar type", size_start
            )
        domain = ScalarType(domain.name, size)
    attribute_name = stream.expect_ident()
    return AddAttribute(typename, domain, attribute_name)


def _build_add_relationship(cls: type) -> Callable[[TokenStream], SchemaOperation]:
    def build(stream: TokenStream) -> SchemaOperation:
        typename = stream.expect_ident()
        _comma(stream)
        target = _type(stream)
        _comma(stream)
        path = stream.expect_ident()
        _comma(stream)
        inverse_type, inverse_name = _inverse_path(stream)
        order_by: tuple[str, ...] = ()
        if stream.accept_punct(","):
            order_by = _name_list(stream)
        return cls(typename, target, path, inverse_type, inverse_name, order_by)

    return build


def _build_modify_target_type(cls: type) -> Callable[[TokenStream], SchemaOperation]:
    def build(stream: TokenStream) -> SchemaOperation:
        typename = stream.expect_ident()
        _comma(stream)
        path = stream.expect_ident()
        _comma(stream)
        first = stream.expect_ident()
        if stream.accept_punct(","):
            return cls(typename, path, stream.expect_ident(), old_target_type=first)
        return cls(typename, path, first)

    return build


def _build_modify_cardinality(cls: type) -> Callable[[TokenStream], SchemaOperation]:
    def build(stream: TokenStream) -> SchemaOperation:
        typename = stream.expect_ident()
        _comma(stream)
        path = stream.expect_ident()
        _comma(stream)
        old_target = _type(stream)
        _comma(stream)
        new_target = _type(stream)
        return cls(typename, path, old_target, new_target)

    return build


def _build_modify_order_by(cls: type) -> Callable[[TokenStream], SchemaOperation]:
    def build(stream: TokenStream) -> SchemaOperation:
        typename = stream.expect_ident()
        _comma(stream)
        path = stream.expect_ident()
        _comma(stream)
        old_list = _name_list(stream)
        _comma(stream)
        new_list = _name_list(stream)
        return cls(typename, path, old_list, new_list)

    return build


def _build_two_idents(cls: type) -> Callable[[TokenStream], SchemaOperation]:
    def build(stream: TokenStream) -> SchemaOperation:
        first = stream.expect_ident()
        _comma(stream)
        return cls(first, stream.expect_ident())

    return build


def _build_three_idents(cls: type) -> Callable[[TokenStream], SchemaOperation]:
    def build(stream: TokenStream) -> SchemaOperation:
        first = stream.expect_ident()
        _comma(stream)
        second = stream.expect_ident()
        _comma(stream)
        return cls(first, second, stream.expect_ident())

    return build


def _build_add_operation(stream: TokenStream) -> SchemaOperation:
    typename = stream.expect_ident()
    _comma(stream)
    return_type = _type(stream)
    _comma(stream)
    operation_name = stream.expect_ident()
    parameters: tuple[Parameter, ...] = ()
    exceptions: tuple[str, ...] = ()
    if stream.accept_punct(","):
        # The next list is the argument list when its first element opens
        # with a parameter direction (or the list is empty); otherwise it
        # is the exceptions-raised list with the argument list omitted.
        following = stream.peek_value()
        checkpoint_is_params = following in _DIRECTIONS or (
            stream.at_punct("(") and following == ")"
        )
        if checkpoint_is_params:
            parameters = _param_list(stream)
            if stream.accept_punct(","):
                exceptions = _name_list(stream)
        else:
            exceptions = _name_list(stream)
    return AddOperation(typename, return_type, operation_name, parameters, exceptions)


def _build_modify_arg_list(stream: TokenStream) -> SchemaOperation:
    typename = stream.expect_ident()
    _comma(stream)
    operation_name = stream.expect_ident()
    _comma(stream)
    old_parameters = _param_list(stream)
    _comma(stream)
    new_parameters = _param_list(stream)
    return ModifyOperationArgList(
        typename, operation_name, old_parameters, new_parameters
    )


def _build_one_ident(cls: type) -> Callable[[TokenStream], SchemaOperation]:
    def build(stream: TokenStream) -> SchemaOperation:
        return cls(stream.expect_ident())

    return build


def _build_ident_then_lists(
    cls: type, list_count: int
) -> Callable[[TokenStream], SchemaOperation]:
    """``op(Typename, (list) [, (list)])`` shapes (keys, supertype lists)."""

    def build(stream: TokenStream) -> SchemaOperation:
        typename = stream.expect_ident()
        lists = []
        for _ in range(list_count):
            _comma(stream)
            lists.append(_name_list(stream))
        return cls(typename, *lists)

    return build


def _build_modify_attribute_type(stream: TokenStream) -> SchemaOperation:
    typename = stream.expect_ident()
    _comma(stream)
    attribute_name = stream.expect_ident()
    _comma(stream)
    old_type = _type(stream)
    _comma(stream)
    new_type = _type(stream)
    return ModifyAttributeType(typename, attribute_name, old_type, new_type)


def _build_modify_attribute_size(stream: TokenStream) -> SchemaOperation:
    typename = stream.expect_ident()
    _comma(stream)
    attribute_name = stream.expect_ident()
    _comma(stream)
    old_size = _size(stream)
    _comma(stream)
    new_size = _size(stream)
    return ModifyAttributeSize(typename, attribute_name, old_size, new_size)


def _build_modify_return_type(stream: TokenStream) -> SchemaOperation:
    typename = stream.expect_ident()
    _comma(stream)
    operation_name = stream.expect_ident()
    _comma(stream)
    old_type = _type(stream)
    _comma(stream)
    new_type = _type(stream)
    return ModifyOperationReturnType(typename, operation_name, old_type, new_type)


def _build_modify_exceptions(stream: TokenStream) -> SchemaOperation:
    typename = stream.expect_ident()
    _comma(stream)
    operation_name = stream.expect_ident()
    _comma(stream)
    old_exceptions = _name_list(stream)
    _comma(stream)
    new_exceptions = _name_list(stream)
    return ModifyOperationExceptionsRaised(
        typename, operation_name, old_exceptions, new_exceptions
    )


_BUILDERS: dict[str, Callable[[TokenStream], SchemaOperation]] = {
    "add_type_definition": _build_one_ident(AddTypeDefinition),
    "delete_type_definition": _build_one_ident(DeleteTypeDefinition),
    "add_supertype": _build_two_idents(AddSupertype),
    "delete_supertype": _build_two_idents(DeleteSupertype),
    "modify_supertype": _build_ident_then_lists(ModifySupertype, 2),
    "add_extent_name": _build_two_idents(AddExtentName),
    "delete_extent_name": _build_two_idents(DeleteExtentName),
    "modify_extent_name": _build_three_idents(ModifyExtentName),
    "add_key_list": _build_ident_then_lists(AddKeyList, 1),
    "delete_key_list": _build_ident_then_lists(DeleteKeyList, 1),
    "modify_key_list": _build_ident_then_lists(ModifyKeyList, 2),
    "add_attribute": _build_add_attribute,
    "delete_attribute": _build_two_idents(DeleteAttribute),
    "modify_attribute": _build_three_idents(ModifyAttribute),
    "modify_attribute_type": _build_modify_attribute_type,
    "modify_attribute_size": _build_modify_attribute_size,
    "add_relationship": _build_add_relationship(AddRelationship),
    "delete_relationship": _build_two_idents(DeleteRelationship),
    "modify_relationship_target_type": _build_modify_target_type(
        ModifyRelationshipTargetType
    ),
    "modify_relationship_cardinality": _build_modify_cardinality(
        ModifyRelationshipCardinality
    ),
    "modify_relationship_order_by": _build_modify_order_by(
        ModifyRelationshipOrderBy
    ),
    "add_operation": _build_add_operation,
    "delete_operation": _build_two_idents(DeleteOperation),
    "modify_operation": _build_three_idents(ModifyOperation),
    "modify_operation_return_type": _build_modify_return_type,
    "modify_operation_arg_list": _build_modify_arg_list,
    "modify_operation_exceptions_raised": _build_modify_exceptions,
    "add_part_of_relationship": _build_add_relationship(AddPartOfRelationship),
    "delete_part_of_relationship": _build_two_idents(DeletePartOfRelationship),
    "modify_part_of_target_type": _build_modify_target_type(
        ModifyPartOfTargetType
    ),
    "modify_part_of_cardinality": _build_modify_cardinality(
        ModifyPartOfCardinality
    ),
    "modify_part_of_order_by": _build_modify_order_by(ModifyPartOfOrderBy),
    "add_instance_of_relationship": _build_add_relationship(
        AddInstanceOfRelationship
    ),
    "delete_instance_of_relationship": _build_two_idents(
        DeleteInstanceOfRelationship
    ),
    "modify_instance_of_target_type": _build_modify_target_type(
        ModifyInstanceOfTargetType
    ),
    "modify_instance_of_cardinality": _build_modify_cardinality(
        ModifyInstanceOfCardinality
    ),
    "modify_instance_of_order_by": _build_modify_order_by(
        ModifyInstanceOfOrderBy
    ),
}
