"""Interface-definition operations: add / delete whole object types.

Both operations are admissible in every concept schema type: wagon wheels
own most modifications, and the prose of Section 3.4 explicitly grants
adding/deleting object types to the generalization, aggregation, and
instance-of hierarchies as part of re-wiring them.

``delete_type_definition`` removes only the interface itself; the
cascading effects on the rest of the schema (relationship ends targeting
the type, supertype references, signature uses) are produced as explicit
follow-up operations by the propagation rules of
:mod:`repro.knowledge.propagation`, so the designer sees the full impact.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.concepts.base import ConceptKind
from repro.model.interface import InterfaceDef
from repro.model.mutation import ALL_ASPECTS, Aspect
from repro.model.schema import Schema
from repro.ops.base import (
    FREE_CONTEXT,
    ConstraintViolation,
    OperationContext,
    SchemaOperation,
    Undo,
)
from repro.ops.effects import WILDCARD

_ALL_KINDS = frozenset(ConceptKind)


@dataclass(frozen=True, eq=False)
class AddTypeDefinition(SchemaOperation):
    """``add_type_definition(typename)`` -- introduce a new object type."""

    op_name = "add_type_definition"
    touched_aspects = frozenset({Aspect.MEMBERSHIP})
    candidate = "Interface Definition"
    sub_candidate = "Type name"
    action = "add"
    admissible_in = _ALL_KINDS

    typename: str

    def validate(self, schema: Schema, context: OperationContext = FREE_CONTEXT) -> None:
        if self.typename in schema:
            raise ConstraintViolation(
                f"type {self.typename!r} already exists in {schema.name!r}"
            )

    def apply(self, schema: Schema, context: OperationContext = FREE_CONTEXT) -> Undo:
        self.validate(schema, context)
        schema.add_interface(InterfaceDef(self.typename))

        def undo() -> None:
            schema.remove_interface(self.typename)

        return undo

    def arguments(self) -> tuple[str, ...]:
        return (self.typename,)

    def affected_types(self) -> tuple[str, ...]:
        return (self.typename,)

    def created_names(self) -> tuple[str, ...]:
        return (self.typename,)

    def required_names(self) -> tuple[str, ...]:
        return ()

    def read_footprint(self) -> frozenset[tuple[str, Aspect]]:
        return frozenset({(self.typename, Aspect.MEMBERSHIP)})


@dataclass(frozen=True, eq=False)
class DeleteTypeDefinition(SchemaOperation):
    """``delete_type_definition(typename)`` -- remove an object type.

    The type must no longer be referenced anywhere else in the schema;
    run the operation through a :class:`~repro.repository.Workspace` with
    propagation enabled to have the referencing constructs removed first
    (and reported in the impact report).
    """

    op_name = "delete_type_definition"
    touched_aspects = frozenset({Aspect.MEMBERSHIP})
    candidate = "Interface Definition"
    sub_candidate = "Type name"
    action = "delete"
    admissible_in = _ALL_KINDS

    typename: str

    def validate(self, schema: Schema, context: OperationContext = FREE_CONTEXT) -> None:
        schema.get(self.typename)
        users = self._referencing_types(schema)
        if users:
            raise ConstraintViolation(
                f"type {self.typename!r} is still referenced by "
                f"{', '.join(sorted(users))}; delete or re-wire those "
                "constructs first (propagation does this automatically)"
            )

    def _referencing_types(self, schema: Schema) -> set[str]:
        # Served by the index's incremental reverse-reference map:
        # O(|referencers|) instead of re-deriving every interface's
        # reference set (O(N * properties)) per validation.
        users = schema.index.referencers_of(self.typename)
        users.discard(self.typename)
        return users

    def apply(self, schema: Schema, context: OperationContext = FREE_CONTEXT) -> Undo:
        self.validate(schema, context)
        position = schema.index.declaration_rank(self.typename)
        removed = schema.remove_interface(self.typename)

        def undo() -> None:
            schema.add_interface(removed, position)

        return undo

    def arguments(self) -> tuple[str, ...]:
        return (self.typename,)

    def affected_types(self) -> tuple[str, ...]:
        return (self.typename,)

    def deleted_names(self) -> tuple[str, ...]:
        return (self.typename,)

    def written_footprint(self) -> frozenset[tuple[str, Aspect]]:
        # Bare, the op only removes the interface; under propagation its
        # cascades may rewrite any construct that referenced the type.
        return frozenset({(self.typename, Aspect.MEMBERSHIP)}) | frozenset(
            (WILDCARD, aspect) for aspect in ALL_ASPECTS
        )

    def read_footprint(self) -> frozenset[tuple[str, Aspect]]:
        # The reference check scans every interface for uses of the name.
        return frozenset((WILDCARD, aspect) for aspect in ALL_ASPECTS)
