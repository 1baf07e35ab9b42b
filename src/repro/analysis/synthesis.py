"""Operation-sequence synthesis: derive a customization script by diff.

Given a shrink wrap schema and a desired custom schema, synthesise a
sequence of Appendix A operations transforming one into the other.  This
is the tool-side converse of the ACEDB case study: Section 4 argues that
the manually produced descendants "could have been created using our
technology"; :func:`synthesize_operations` produces such a script
mechanically from the two schemas, preferring targeted modify operations
(including MOVED-entry attribute/operation moves) over blunt delete+add
pairs.

The synthesizer *simulates as it plans*: every emitted operation is
immediately applied -- with propagation -- to a scratch copy of the
source schema, so operations whose validation depends on current values
(old key lists, old order-by lists, old sizes) are always emitted against
the true intermediate state, and interference from cascades (a type
deletion trimming an order-by list, an ISA re-wire dropping an inherited
key) is repaired by the final fix-up phases rather than guessed at.

:func:`repro.analysis.completeness.full_rebuild_script` is the naive
baseline (delete everything, add everything); the synthesis bench
compares the two on script length and reuse.
"""

from __future__ import annotations

from repro.analysis.diff import ChangeStatus, diff_schemas
from repro.knowledge.propagation import expand_applying
from repro.model.errors import SchemaError
from repro.model.fingerprint import schemas_equal
from repro.model.relationships import RelationshipEnd, RelationshipKind
from repro.model.schema import Schema
from repro.model.types import CollectionType, ScalarType
from repro.ops.attribute_ops import (
    AddAttribute,
    DeleteAttribute,
    ModifyAttribute,
    ModifyAttributeSize,
    ModifyAttributeType,
)
from repro.ops.base import OperationContext, SchemaOperation
from repro.ops.instance_of_ops import (
    AddInstanceOfRelationship,
    DeleteInstanceOfRelationship,
    ModifyInstanceOfCardinality,
    ModifyInstanceOfOrderBy,
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
)
from repro.ops.relationship_ops import (
    AddRelationship,
    DeleteRelationship,
    ModifyRelationshipCardinality,
    ModifyRelationshipOrderBy,
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
)

_ADD_END = {
    RelationshipKind.ASSOCIATION: AddRelationship,
    RelationshipKind.PART_OF: AddPartOfRelationship,
    RelationshipKind.INSTANCE_OF: AddInstanceOfRelationship,
}
_DELETE_END = {
    RelationshipKind.ASSOCIATION: DeleteRelationship,
    RelationshipKind.PART_OF: DeletePartOfRelationship,
    RelationshipKind.INSTANCE_OF: DeleteInstanceOfRelationship,
}
_CARDINALITY = {
    RelationshipKind.ASSOCIATION: ModifyRelationshipCardinality,
    RelationshipKind.PART_OF: ModifyPartOfCardinality,
    RelationshipKind.INSTANCE_OF: ModifyInstanceOfCardinality,
}
_ORDER_BY = {
    RelationshipKind.ASSOCIATION: ModifyRelationshipOrderBy,
    RelationshipKind.PART_OF: ModifyPartOfOrderBy,
    RelationshipKind.INSTANCE_OF: ModifyInstanceOfOrderBy,
}


class SynthesisError(SchemaError):
    """The synthesised script failed to reproduce the target schema."""


def synthesize_operations(
    source: Schema, target: Schema, verify: bool = True
) -> list[SchemaOperation]:
    """Synthesise a script turning *source* into *target*.

    The script is expressed at the requested-operation level; applying
    it through a workspace with propagation enabled yields a schema
    content-equal to *target* (checked when ``verify`` is set -- the
    check is cheap and the simulation makes failures unexpected, but the
    guarantee is part of the function's contract).
    """
    synthesizer = _Synthesizer(source, target)
    plan = synthesizer.build()
    if verify and not schemas_equal(synthesizer.scratch, target):
        raise SynthesisError(
            f"synthesised script does not reproduce {target.name!r} from "
            f"{source.name!r}"
        )
    return plan


class _Synthesizer:
    """Simulating builder: emit an operation, apply it, keep planning."""

    def __init__(self, source: Schema, target: Schema) -> None:
        self.source = source
        self.target = target
        self.scratch = source.copy("synthesis_scratch")
        self.context = OperationContext(reference=source)
        self.diff = diff_schemas(source, target)
        self.plan: list[SchemaOperation] = []

    def _emit(self, operation: SchemaOperation) -> None:
        expand_applying(self.scratch, operation, self.context)
        self.plan.append(operation)

    def build(self) -> list[SchemaOperation]:
        self._add_new_types()
        self._delete_obsolete_isa_links()
        self._add_new_isa_links()
        self._emit_moves()
        self._reconcile_extents()
        self._reconcile_attributes()
        self._reconcile_operations()
        # Deleting obsolete types before touching relationships lets the
        # deletion cascade clear the ends that referenced them, freeing
        # their traversal-path names for re-use by new relationships.
        self._delete_removed_types()
        self._reconcile_relationships()
        self._fix_up_keys()
        self._fix_up_order_by()
        return self.plan

    # -- types and ISA ---------------------------------------------------

    def _surviving(self) -> list[str]:
        return [
            name for name in self.target.type_names() if name in self.scratch
        ]

    def _add_new_types(self) -> None:
        for name in self.target.type_names():
            if name not in self.scratch:
                self._emit(AddTypeDefinition(name))

    def _delete_obsolete_isa_links(self) -> None:
        # All removals across the schema first: re-wirings that reverse
        # an edge can never trip the cycle check this way.
        for name in self._surviving():
            if name not in self.source:
                continue
            target_supertypes = self.target.get(name).supertypes
            for supertype in list(self.scratch.get(name).supertypes):
                if supertype not in target_supertypes:
                    self._emit(DeleteSupertype(name, supertype))

    def _add_new_isa_links(self) -> None:
        for name in self.target.type_names():
            current = self.scratch.get(name).supertypes
            for supertype in self.target.get(name).supertypes:
                if supertype not in current:
                    self._emit(AddSupertype(name, supertype))

    # -- moves -----------------------------------------------------------

    def _emit_moves(self) -> None:
        """Claim at most one MOVED diff entry per (destination, member).

        A move is only claimed when its endpoints lie on one ISA path of
        the *source* hierarchy (the operation's semantic-stability rule)
        or involve a freshly added type, whose ISA links were just wired
        from the target; unclaimed entries fall back to delete + add in
        the later phases.
        """
        claimed: set[tuple[str, str, str]] = set()
        for entry in self.diff.of_status(ChangeStatus.MOVED):
            owner, _, member = entry.path.partition(".")
            destination = entry.moved_to
            assert destination is not None
            key = (entry.category, destination, member)
            if key in claimed:
                continue
            if entry.category not in ("attribute", "operation"):
                continue  # relationship moves are re-created, not moved
            if owner in self.source and destination in self.source:
                if not self.source.isa_related(owner, destination):
                    continue
            if owner not in self.scratch or destination not in self.scratch:
                continue
            members = (
                self.scratch.get(owner).attributes
                if entry.category == "attribute"
                else self.scratch.get(owner).operations
            )
            if member not in members:
                continue
            claimed.add(key)
            if entry.category == "attribute":
                self._emit(ModifyAttribute(owner, member, destination))
            else:
                self._emit(ModifyOperation(owner, member, destination))

    # -- simple members ----------------------------------------------------

    def _reconcile_extents(self) -> None:
        for name in self._surviving():
            old = self.scratch.get(name).extent
            new = self.target.get(name).extent
            if old == new:
                continue
            if old is None:
                self._emit(AddExtentName(name, new))
            elif new is None:
                self._emit(DeleteExtentName(name, old))
            else:
                self._emit(ModifyExtentName(name, old, new))

    def _reconcile_attributes(self) -> None:
        for name in self._surviving():
            scratch_attrs = self.scratch.get(name).attributes
            target_attrs = self.target.get(name).attributes
            for attr_name in list(scratch_attrs):
                if attr_name not in target_attrs:
                    self._emit(DeleteAttribute(name, attr_name))
            for attr_name, new_value in target_attrs.items():
                old_value = self.scratch.get(name).attributes.get(attr_name)
                if old_value is None:
                    self._emit(AddAttribute(name, new_value.type, attr_name))
                elif old_value != new_value:
                    for operation in _attribute_value_ops(
                        name, attr_name, old_value, new_value
                    ):
                        self._emit(operation)

    def _reconcile_operations(self) -> None:
        for name in self._surviving():
            scratch_ops = self.scratch.get(name).operations
            target_ops = self.target.get(name).operations
            for op_name in list(scratch_ops):
                if op_name not in target_ops:
                    self._emit(DeleteOperation(name, op_name))
            for op_name, new_value in target_ops.items():
                old_value = self.scratch.get(name).operations.get(op_name)
                if old_value is None:
                    self._emit(
                        AddOperation(
                            name, new_value.return_type, op_name,
                            new_value.parameters, new_value.exceptions,
                        )
                    )
                    continue
                if old_value.return_type != new_value.return_type:
                    self._emit(
                        ModifyOperationReturnType(
                            name, op_name,
                            old_value.return_type, new_value.return_type,
                        )
                    )
                if old_value.parameters != new_value.parameters:
                    self._emit(
                        ModifyOperationArgList(
                            name, op_name,
                            old_value.parameters, new_value.parameters,
                        )
                    )
                if old_value.exceptions != new_value.exceptions:
                    self._emit(
                        ModifyOperationExceptionsRaised(
                            name, op_name,
                            old_value.exceptions, new_value.exceptions,
                        )
                    )

    # -- relationships -----------------------------------------------------

    def _target_end(self, owner: str, end: RelationshipEnd) -> RelationshipEnd | None:
        """The compatible counterpart of *end* in the target, if any."""
        if owner not in self.target:
            return None
        counterpart = self.target.get(owner).relationships.get(end.name)
        if counterpart is None:
            return None
        compatible = (
            counterpart.kind is end.kind
            and counterpart.target_type == end.target_type
            and counterpart.inverse_type == end.inverse_type
            and counterpart.inverse_name == end.inverse_name
        )
        return counterpart if compatible else None

    def _reconcile_relationships(self) -> None:
        handled: set[frozenset[tuple[str, str]]] = set()
        # Deletions and reshapes over the scratch pairs.
        for owner, end in list(self.scratch.relationship_pairs()):
            pair = frozenset(
                {(owner, end.name), (end.inverse_type, end.inverse_name)}
            )
            if pair in handled:
                continue
            handled.add(pair)
            if owner not in self.target or end.target_type not in self.target:
                continue  # the type deletion cascade removes the pair
            counterpart = self._target_end(owner, end)
            inverse = self.scratch.find_inverse(owner, end)
            inverse_counterpart = (
                self.target.find_inverse(owner, counterpart)
                if counterpart is not None
                else None
            )
            if counterpart is None or inverse_counterpart is None:
                self._emit(_DELETE_END[end.kind](owner, end.name))
                continue
            self._reshape_end(owner, end, counterpart)
            if inverse is not None:
                self._reshape_end(
                    end.inverse_type, inverse, inverse_counterpart
                )
        # Additions over the target pairs.
        for owner, end in self.target.relationship_pairs():
            pair = frozenset(
                {(owner, end.name), (end.inverse_type, end.inverse_name)}
            )
            if pair in handled:
                continue
            handled.add(pair)
            self._emit(
                _ADD_END[end.kind](
                    owner, end.target, end.name,
                    end.inverse_type, end.inverse_name, end.order_by,
                )
            )
            inverse = self.target.find_inverse(owner, end)
            if inverse is None:
                continue
            created = self.scratch.get(end.inverse_type).relationships[
                inverse.name
            ]
            self._reshape_end(end.inverse_type, created, inverse)

    def _reshape_end(
        self, owner: str, current: RelationshipEnd, wanted: RelationshipEnd
    ) -> None:
        """Cardinality/order-by adjustments for one surviving end."""
        if current.target != wanted.target:
            if current.order_by and not isinstance(wanted.target, CollectionType):
                # Becoming to-one: the ordering must be dropped first.
                self._emit(
                    _ORDER_BY[current.kind](
                        owner, current.name, current.order_by, ()
                    )
                )
                current = self.scratch.get(owner).relationships[current.name]
            self._emit(
                _CARDINALITY[current.kind](
                    owner, current.name, current.target, wanted.target
                )
            )
            current = self.scratch.get(owner).relationships[current.name]
        if current.order_by != wanted.order_by:
            self._emit(
                _ORDER_BY[current.kind](
                    owner, current.name, current.order_by, wanted.order_by
                )
            )

    # -- deletions and fix-ups ----------------------------------------------

    def _delete_removed_types(self) -> None:
        for entry in self.diff.of_status(ChangeStatus.DELETED):
            if entry.category == "type" and entry.path in self.scratch:
                self._emit(DeleteTypeDefinition(entry.path))

    def _fix_up_keys(self) -> None:
        """Reconcile keys last: every supporting attribute now exists,
        and any cascade that dropped a still-wanted key is repaired."""
        for name in self.target.type_names():
            scratch_keys = list(self.scratch.get(name).keys)
            target_keys = self.target.get(name).keys
            for key in scratch_keys:
                if key not in target_keys:
                    self._emit(DeleteKeyList(name, key))
            for key in target_keys:
                if key not in self.scratch.get(name).keys:
                    self._emit(AddKeyList(name, tuple(key)))

    def _fix_up_order_by(self) -> None:
        """Repair order-by lists trimmed by late cascades."""
        for owner, end in list(self.scratch.relationship_pairs()):
            if owner not in self.target:
                continue
            wanted = self.target.get(owner).relationships.get(end.name)
            if wanted is None:
                continue
            if end.order_by != wanted.order_by and end.target == wanted.target:
                self._emit(
                    _ORDER_BY[end.kind](
                        owner, end.name, end.order_by, wanted.order_by
                    )
                )


def _attribute_value_ops(
    name: str, attr_name: str, old_value, new_value
) -> list[SchemaOperation]:
    """Targeted modify operations for a changed attribute value."""
    both_scalar_same_base = (
        isinstance(old_value.type, ScalarType)
        and isinstance(new_value.type, ScalarType)
        and old_value.type.name == new_value.type.name
    )
    if both_scalar_same_base:
        return [
            ModifyAttributeSize(
                name, attr_name, old_value.type.size, new_value.type.size
            )
        ]
    return [
        ModifyAttributeType(name, attr_name, old_value.type, new_value.type)
    ]


