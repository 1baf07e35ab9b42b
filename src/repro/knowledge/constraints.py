"""Cautionary checks the knowledge component runs before an operation.

Beyond each operation's own hard constraints (``validate``), the
interactive designer warns about legal-but-consequential changes --
the paper's "cautionary statements to the user in the form of feedback"
(Section 5, activity 9).  Each check inspects one proposed operation
against the current workspace schema and returns zero or more
:class:`~repro.knowledge.feedback.Feedback` messages; none of them block
the operation.
"""

from __future__ import annotations

from typing import Callable

from repro.model.schema import Schema
from repro.model.types import CollectionType
from repro.knowledge.feedback import Feedback, caution, info
from repro.ops.attribute_ops import (
    DeleteAttribute,
    ModifyAttribute,
    ModifyAttributeSize,
    ModifyAttributeType,
)
from repro.ops.base import SchemaOperation
from repro.ops.relationship_common import ModifyCardinalityBase
from repro.ops.type_ops import DeleteTypeDefinition
from repro.ops.type_property_ops import DeleteSupertype, ModifySupertype

Check = Callable[[Schema, SchemaOperation], list[Feedback]]


def check_delete_type_with_subtypes(
    schema: Schema, operation: SchemaOperation
) -> list[Feedback]:
    """Deleting a supertype severs inheritance for its subtypes."""
    if not isinstance(operation, DeleteTypeDefinition):
        return []
    if operation.typename not in schema:
        return []
    # ``descendants`` is answered from the columnar ISA rows in
    # O(result); ``subtypes`` rebuilds the whole subtype map after any
    # ISA change, so it only runs for a type that has subtypes.
    if not schema.descendants(operation.typename):
        return []
    subtypes = schema.subtypes(operation.typename)
    return [
        caution(
            "delete-supertype-of", operation.typename,
            f"{operation.typename!r} is the supertype of "
            f"{', '.join(subtypes)}; deleting it removes their inherited "
            "information",
        )
    ]


def check_delete_type_connectivity(
    schema: Schema, operation: SchemaOperation
) -> list[Feedback]:
    """Report how many constructs the delete will cascade through."""
    if not isinstance(operation, DeleteTypeDefinition):
        return []
    if operation.typename not in schema:
        return []
    references = schema.index.referencers_of(operation.typename) - {
        operation.typename
    }
    if not references:
        return []
    return [
        info(
            "delete-cascade-extent", operation.typename,
            f"deleting {operation.typename!r} cascades into "
            f"{len(references)} other type(s): {', '.join(sorted(references))}",
        )
    ]


def check_attribute_narrowing(
    schema: Schema, operation: SchemaOperation
) -> list[Feedback]:
    """Shrinking a sized scalar can truncate existing data."""
    if not isinstance(operation, ModifyAttributeSize):
        return []
    if operation.old_size is None or operation.new_size is None:
        return []
    if operation.new_size >= operation.old_size:
        return []
    return [
        caution(
            "attribute-narrowing",
            f"{operation.typename}.{operation.attribute_name}",
            f"size shrinks from {operation.old_size} to "
            f"{operation.new_size}; existing values may be truncated",
        )
    ]


def check_attribute_type_change(
    schema: Schema, operation: SchemaOperation
) -> list[Feedback]:
    """Changing an attribute's domain changes its semantics."""
    if not isinstance(operation, ModifyAttributeType):
        return []
    return [
        caution(
            "attribute-retype",
            f"{operation.typename}.{operation.attribute_name}",
            f"domain changes from {operation.old_type} to "
            f"{operation.new_type}; dependent applications must convert",
        )
    ]


def check_downward_move_narrows_visibility(
    schema: Schema, operation: SchemaOperation
) -> list[Feedback]:
    """Moving an attribute down the hierarchy hides it from siblings."""
    if not isinstance(operation, ModifyAttribute):
        return []
    if (
        operation.typename not in schema
        or operation.new_typename not in schema.descendants(operation.typename)
    ):
        return []
    losers = sorted(
        ({operation.typename} | schema.descendants(operation.typename))
        - ({operation.new_typename} | schema.descendants(operation.new_typename))
    )
    return [
        caution(
            "downward-move",
            f"{operation.typename}.{operation.attribute_name}",
            f"moving down to {operation.new_typename!r} hides the "
            f"attribute from {', '.join(losers)}",
        )
    ]


def check_cardinality_narrowing(
    schema: Schema, operation: SchemaOperation
) -> list[Feedback]:
    """A to-many end becoming to-one can lose relationship instances."""
    if not isinstance(operation, ModifyCardinalityBase):
        return []
    was_many = isinstance(operation.old_target, CollectionType)
    stays_many = isinstance(operation.new_target, CollectionType)
    if not was_many or stays_many:
        return []
    return [
        caution(
            "cardinality-narrowing",
            f"{operation.typename}.{operation.traversal_path}",
            "the end becomes to-one; existing many-valued links would "
            "need to be reduced to a single target",
        )
    ]


def check_delete_inherited_dependencies(
    schema: Schema, operation: SchemaOperation
) -> list[Feedback]:
    """Deleting an attribute also affects every subtype inheriting it."""
    if not isinstance(operation, DeleteAttribute):
        return []
    if operation.typename not in schema:
        return []
    inheritors = [
        name
        for name in sorted(schema.descendants(operation.typename))
        if operation.attribute_name not in schema.get(name).attributes
    ]
    if not inheritors:
        return []
    return [
        info(
            "delete-inherited",
            f"{operation.typename}.{operation.attribute_name}",
            f"subtypes {', '.join(inheritors)} inherit this attribute and "
            "lose it too",
        )
    ]


def check_isa_rewiring(
    schema: Schema, operation: SchemaOperation
) -> list[Feedback]:
    """Removing ISA links changes what the subtree inherits."""
    messages: list[Feedback] = []
    removed: list[tuple[str, str]] = []
    if isinstance(operation, DeleteSupertype):
        removed.append((operation.typename, operation.supertype))
    if isinstance(operation, ModifySupertype):
        removed.extend(
            (operation.typename, supertype)
            for supertype in operation.old_supertypes
            if supertype not in operation.new_supertypes
        )
    for typename, supertype in removed:
        if typename not in schema or supertype not in schema:
            continue
        lost = set(schema.get(supertype).attributes) | set(
            schema.inherited_attributes(supertype)
        )
        lost -= set(schema.get(typename).attributes)
        if lost:
            messages.append(
                caution(
                    "isa-rewiring", f"{typename} ISA {supertype}",
                    f"{typename!r} stops inheriting: "
                    f"{', '.join(sorted(lost))}",
                )
            )
    return messages


#: Every cautionary check, in reporting order.
CAUTION_CHECKS: tuple[Check, ...] = (
    check_delete_type_with_subtypes,
    check_delete_type_connectivity,
    check_attribute_narrowing,
    check_attribute_type_change,
    check_downward_move_narrows_visibility,
    check_cardinality_narrowing,
    check_delete_inherited_dependencies,
    check_isa_rewiring,
)


def cautions_for(
    schema: Schema, operation: SchemaOperation
) -> list[Feedback]:
    """Run every cautionary check for one proposed operation."""
    messages: list[Feedback] = []
    for check in CAUTION_CHECKS:
        messages.extend(check(schema, operation))
    return messages
