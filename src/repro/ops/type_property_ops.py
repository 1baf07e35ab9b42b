"""Type-property operations: supertypes (ISA), extent names, key lists.

Per Table 1, the supertype operations belong to generalization hierarchy
concept schemas ("supertype relationships can be added, deleted, and
modified for re-wiring the generalization hierarchy"), while extent and
key operations belong to wagon wheels ("the complete set of operations
for the type properties, extent name and key list, are allowed").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.concepts.base import ConceptKind
from repro.model.mutation import Aspect
from repro.model.schema import Schema
from repro.ops.base import (
    FREE_CONTEXT,
    ConstraintViolation,
    OperationContext,
    SchemaOperation,
    Undo,
    render_list,
)
from repro.ops.effects import WILDCARD

_GH = frozenset({ConceptKind.GENERALIZATION})
_WW = frozenset({ConceptKind.WAGON_WHEEL})

#: Cells the supertype re-wiring family may rewrite via propagation:
#: keys and relationship order-by lists stranded in any descendant.
_STRAND_CASCADES = frozenset({
    (WILDCARD, Aspect.KEYS),
    (WILDCARD, Aspect.REL_ASSOCIATION),
    (WILDCARD, Aspect.REL_PART_OF),
    (WILDCARD, Aspect.REL_INSTANCE_OF),
})

#: Cells :func:`_check_nothing_stranded` inspects.
_STRAND_READS = _STRAND_CASCADES | frozenset({
    (WILDCARD, Aspect.ISA),
    (WILDCARD, Aspect.ATTRS),
})


def attributes_visible_with_supertypes(
    schema: Schema,
    name: str,
    override_type: str,
    override_supertypes: tuple[str, ...],
) -> set[str]:
    """Attribute names *name* would see were *override_type* re-wired.

    Equivalent to forking the schema, giving *override_type* the
    supertype list *override_supertypes*, and unioning *name*'s own and
    inherited attribute names -- but computed as a plain ancestry walk,
    so the ISA re-wiring family and its propagation cascades never pay
    for a scratch schema copy.  Dangling supertype names are skipped,
    matching ``Schema.ancestors``.
    """
    interfaces = schema.interfaces
    seen: set[str] = set()
    attrs: set[str] = set()
    stack = [name]
    while stack:
        current = stack.pop()
        if current in seen or current not in interfaces:
            continue
        seen.add(current)
        attrs.update(interfaces[current].attributes)
        supertypes = (
            override_supertypes
            if current == override_type
            else interfaces[current].supertypes
        )
        stack.extend(supertypes)
    return attrs


def _check_nothing_stranded(
    schema: Schema, typename: str, resulting_supertypes: list[str]
) -> None:
    """Re-wiring ISA links must not strand keys or order-by lists.

    Keys and order-by lists may name attributes the type only sees
    through supertypes the re-wiring drops (directly or in descendants).
    Propagation cascades the dependent deletions first
    (:func:`repro.knowledge.propagation._cascades_for_lost_supertype`);
    applied bare, the operation must refuse instead of leaving the
    schema unresolvable -- the language stays closed either way.
    """
    current = tuple(schema.get(typename).supertypes)
    resulting = tuple(resulting_supertypes)
    affected = {typename} | schema.descendants(typename)
    ends_by_target: dict[str, list] | None = None
    for name in sorted(affected):
        interface = schema.get(name)
        before = attributes_visible_with_supertypes(
            schema, name, typename, current
        )
        after = attributes_visible_with_supertypes(
            schema, name, typename, resulting
        )
        lost = before - after
        if not lost:
            continue
        for key in interface.keys:
            stranded = sorted(set(key) & lost)
            if stranded:
                raise ConstraintViolation(
                    f"removing supertype(s) of {typename!r} would strand "
                    f"key {tuple(key)!r} of {name!r} (attribute(s) "
                    f"{', '.join(stranded)} become unresolvable); delete "
                    "the key list first"
                )
        if ends_by_target is None:
            ends_by_target = {}
            for owner, end in schema.index.ends_targeting(affected):
                ends_by_target.setdefault(end.target_type, []).append(
                    (owner, end)
                )
        for owner, end in ends_by_target.get(name, ()):
            stranded = sorted(set(end.order_by) & lost)
            if stranded:
                raise ConstraintViolation(
                    f"removing supertype(s) of {typename!r} would strand "
                    f"order-by {end.order_by!r} of {owner}.{end.name} "
                    f"(attribute(s) {', '.join(stranded)} become "
                    "unresolvable); modify the order-by list first"
                )


def _check_no_isa_cycle(schema: Schema, subtype: str, supertype: str) -> None:
    """Adding subtype -> supertype must not close a generalization cycle."""
    if subtype == supertype:
        raise ConstraintViolation(
            f"{subtype!r} cannot be its own supertype"
        )
    if supertype in schema and subtype in schema.ancestors(supertype):
        raise ConstraintViolation(
            f"making {supertype!r} a supertype of {subtype!r} would create "
            "a generalization cycle"
        )


@dataclass(frozen=True, eq=False)
class AddSupertype(SchemaOperation):
    """``add_supertype(typename, supertype)`` -- add one ISA link."""

    op_name = "add_supertype"
    touched_aspects = frozenset({Aspect.ISA})
    candidate = "Type Properties"
    sub_candidate = "Supertype (ISA)"
    action = "add"
    admissible_in = _GH

    typename: str
    supertype: str

    def validate(self, schema: Schema, context: OperationContext = FREE_CONTEXT) -> None:
        interface = schema.get(self.typename)
        schema.get(self.supertype)
        if self.supertype in interface.supertypes:
            raise ConstraintViolation(
                f"{self.typename!r} already has supertype {self.supertype!r}"
            )
        _check_no_isa_cycle(schema, self.typename, self.supertype)

    def apply(self, schema: Schema, context: OperationContext = FREE_CONTEXT) -> Undo:
        self.validate(schema, context)
        schema.edit(self.typename).add_supertype(self.supertype)

        def undo() -> None:
            schema.edit(self.typename).remove_supertype(self.supertype)

        return undo

    def arguments(self) -> tuple[str, ...]:
        return (self.typename, self.supertype)

    def affected_types(self) -> tuple[str, ...]:
        return (self.typename, self.supertype)

    def written_footprint(self) -> frozenset[tuple[str, Aspect]]:
        return frozenset({(self.typename, Aspect.ISA)})

    def read_footprint(self) -> frozenset[tuple[str, Aspect]]:
        # The cycle check walks the whole generalization graph.
        return frozenset(
            {(self.typename, Aspect.ISA), (WILDCARD, Aspect.ISA)}
        )


@dataclass(frozen=True, eq=False)
class DeleteSupertype(SchemaOperation):
    """``delete_supertype(typename, supertype)`` -- remove one ISA link."""

    op_name = "delete_supertype"
    touched_aspects = frozenset({Aspect.ISA})
    candidate = "Type Properties"
    sub_candidate = "Supertype (ISA)"
    action = "delete"
    admissible_in = _GH

    typename: str
    supertype: str

    def validate(self, schema: Schema, context: OperationContext = FREE_CONTEXT) -> None:
        interface = schema.get(self.typename)
        if self.supertype not in interface.supertypes:
            raise ConstraintViolation(
                f"{self.typename!r} has no supertype {self.supertype!r}"
            )
        _check_nothing_stranded(
            schema,
            self.typename,
            [s for s in interface.supertypes if s != self.supertype],
        )

    def apply(self, schema: Schema, context: OperationContext = FREE_CONTEXT) -> Undo:
        self.validate(schema, context)
        interface = schema.edit(self.typename)
        position = interface.supertypes.index(self.supertype)
        interface.remove_supertype(self.supertype)

        def undo() -> None:
            schema.edit(self.typename).add_supertype(self.supertype, position)

        return undo

    def arguments(self) -> tuple[str, ...]:
        return (self.typename, self.supertype)

    def affected_types(self) -> tuple[str, ...]:
        return (self.typename, self.supertype)

    def required_names(self) -> tuple[str, ...]:
        # The supertype link may dangle; only the subtype must exist.
        return (self.typename,)

    def written_footprint(self) -> frozenset[tuple[str, Aspect]]:
        return frozenset({(self.typename, Aspect.ISA)}) | _STRAND_CASCADES

    def read_footprint(self) -> frozenset[tuple[str, Aspect]]:
        return frozenset({(self.typename, Aspect.ISA)}) | _STRAND_READS


@dataclass(frozen=True, eq=False)
class ModifySupertype(SchemaOperation):
    """``modify_supertype(typename, old_list, new_list)`` -- re-wire ISA.

    Replaces the full supertype list in one step (the grammar's comment:
    "re-wiring isa").  ``old_supertypes`` must match the current list so
    the designer's view of the schema is up to date.
    """

    op_name = "modify_supertype"
    touched_aspects = frozenset({Aspect.ISA})
    candidate = "Type Properties"
    sub_candidate = "Supertype (ISA)"
    action = "modify"
    admissible_in = _GH

    typename: str
    old_supertypes: tuple[str, ...]
    new_supertypes: tuple[str, ...]

    def validate(self, schema: Schema, context: OperationContext = FREE_CONTEXT) -> None:
        interface = schema.get(self.typename)
        if tuple(interface.supertypes) != self.old_supertypes:
            raise ConstraintViolation(
                f"supertypes of {self.typename!r} are "
                f"{tuple(interface.supertypes)!r}, not {self.old_supertypes!r}"
            )
        if len(set(self.new_supertypes)) != len(self.new_supertypes):
            raise ConstraintViolation("new supertype list has duplicates")
        for supertype in self.new_supertypes:
            schema.get(supertype)
            if supertype in interface.supertypes:
                continue  # keeping an existing link cannot add a cycle
            _check_no_isa_cycle(schema, self.typename, supertype)
        if any(
            supertype not in self.new_supertypes
            for supertype in self.old_supertypes
        ):
            _check_nothing_stranded(
                schema, self.typename, list(self.new_supertypes)
            )

    def apply(self, schema: Schema, context: OperationContext = FREE_CONTEXT) -> Undo:
        self.validate(schema, context)
        interface = schema.edit(self.typename)
        previous = list(interface.supertypes)
        interface.set_supertypes(list(self.new_supertypes))

        def undo() -> None:
            schema.edit(self.typename).set_supertypes(previous)

        return undo

    def arguments(self) -> tuple[str, ...]:
        return (
            self.typename,
            render_list(self.old_supertypes),
            render_list(self.new_supertypes),
        )

    def affected_types(self) -> tuple[str, ...]:
        return (self.typename, *self.old_supertypes, *self.new_supertypes)

    def required_names(self) -> tuple[str, ...]:
        # validate resolves the type and each *new* supertype; the old
        # list only has to match the (possibly dangling) current links.
        return (self.typename, *self.new_supertypes)

    def written_footprint(self) -> frozenset[tuple[str, Aspect]]:
        return frozenset({(self.typename, Aspect.ISA)}) | _STRAND_CASCADES

    def read_footprint(self) -> frozenset[tuple[str, Aspect]]:
        return frozenset({(self.typename, Aspect.ISA)}) | _STRAND_READS


@dataclass(frozen=True, eq=False)
class AddExtentName(SchemaOperation):
    """``add_extent_name(typename, extent_name)``."""

    op_name = "add_extent_name"
    touched_aspects = frozenset({Aspect.EXTENT})
    instance_neutral = True
    candidate = "Type Properties"
    sub_candidate = "Extent name"
    action = "add"
    admissible_in = _WW

    typename: str
    extent_name: str

    def validate(self, schema: Schema, context: OperationContext = FREE_CONTEXT) -> None:
        interface = schema.get(self.typename)
        if interface.extent is not None:
            raise ConstraintViolation(
                f"{self.typename!r} already has extent {interface.extent!r}; "
                "use modify_extent_name"
            )
        owners = schema.index.extent_owners(self.extent_name)
        if owners:
            raise ConstraintViolation(
                f"extent name {self.extent_name!r} is already used by "
                f"{owners[0]!r}"
            )

    def apply(self, schema: Schema, context: OperationContext = FREE_CONTEXT) -> Undo:
        self.validate(schema, context)
        schema.edit(self.typename).set_extent(self.extent_name)

        def undo() -> None:
            schema.edit(self.typename).set_extent(None)

        return undo

    def arguments(self) -> tuple[str, ...]:
        return (self.typename, self.extent_name)

    def affected_types(self) -> tuple[str, ...]:
        return (self.typename,)

    def read_footprint(self) -> frozenset[tuple[str, Aspect]]:
        # Name equivalence: the clash check scans every extent.
        return frozenset({(WILDCARD, Aspect.EXTENT)})


@dataclass(frozen=True, eq=False)
class DeleteExtentName(SchemaOperation):
    """``delete_extent_name(typename, extent_name)``."""

    op_name = "delete_extent_name"
    touched_aspects = frozenset({Aspect.EXTENT})
    instance_neutral = True
    candidate = "Type Properties"
    sub_candidate = "Extent name"
    action = "delete"
    admissible_in = _WW

    typename: str
    extent_name: str

    def validate(self, schema: Schema, context: OperationContext = FREE_CONTEXT) -> None:
        interface = schema.get(self.typename)
        if interface.extent != self.extent_name:
            raise ConstraintViolation(
                f"{self.typename!r} has extent {interface.extent!r}, "
                f"not {self.extent_name!r}"
            )

    def apply(self, schema: Schema, context: OperationContext = FREE_CONTEXT) -> Undo:
        self.validate(schema, context)
        schema.edit(self.typename).set_extent(None)

        def undo() -> None:
            schema.edit(self.typename).set_extent(self.extent_name)

        return undo

    def arguments(self) -> tuple[str, ...]:
        return (self.typename, self.extent_name)

    def affected_types(self) -> tuple[str, ...]:
        return (self.typename,)


@dataclass(frozen=True, eq=False)
class ModifyExtentName(SchemaOperation):
    """``modify_extent_name(typename, old_extent_name, new_extent_name)``."""

    op_name = "modify_extent_name"
    touched_aspects = frozenset({Aspect.EXTENT})
    instance_neutral = True
    candidate = "Type Properties"
    sub_candidate = "Extent name"
    action = "modify"
    admissible_in = _WW

    typename: str
    old_extent_name: str
    new_extent_name: str

    def validate(self, schema: Schema, context: OperationContext = FREE_CONTEXT) -> None:
        interface = schema.get(self.typename)
        if interface.extent != self.old_extent_name:
            raise ConstraintViolation(
                f"{self.typename!r} has extent {interface.extent!r}, "
                f"not {self.old_extent_name!r}"
            )
        owners = [
            name
            for name in schema.index.extent_owners(self.new_extent_name)
            if name != self.typename
        ]
        if owners:
            raise ConstraintViolation(
                f"extent name {self.new_extent_name!r} is already used by "
                f"{owners[0]!r}"
            )

    def apply(self, schema: Schema, context: OperationContext = FREE_CONTEXT) -> Undo:
        self.validate(schema, context)
        schema.edit(self.typename).set_extent(self.new_extent_name)

        def undo() -> None:
            schema.edit(self.typename).set_extent(self.old_extent_name)

        return undo

    def arguments(self) -> tuple[str, ...]:
        return (self.typename, self.old_extent_name, self.new_extent_name)

    def affected_types(self) -> tuple[str, ...]:
        return (self.typename,)

    def read_footprint(self) -> frozenset[tuple[str, Aspect]]:
        # Name equivalence: the clash check scans every extent.
        return frozenset({(WILDCARD, Aspect.EXTENT)})


@dataclass(frozen=True, eq=False)
class AddKeyList(SchemaOperation):
    """``add_key_list(typename, (attr, ...))`` -- declare one key."""

    op_name = "add_key_list"
    touched_aspects = frozenset({Aspect.KEYS})
    candidate = "Type Properties"
    sub_candidate = "Key list"
    action = "add"
    admissible_in = _WW

    typename: str
    key: tuple[str, ...]

    def validate(self, schema: Schema, context: OperationContext = FREE_CONTEXT) -> None:
        interface = schema.get(self.typename)
        if not self.key:
            raise ConstraintViolation("a key must name at least one attribute")
        if tuple(self.key) in interface.keys:
            raise ConstraintViolation(
                f"{self.typename!r} already declares key {self.key!r}"
            )
        available = set(interface.attributes)
        available.update(schema.inherited_attributes(self.typename))
        for attr_name in self.key:
            if attr_name not in available:
                raise ConstraintViolation(
                    f"key names unknown attribute {attr_name!r} of "
                    f"{self.typename!r}"
                )

    def apply(self, schema: Schema, context: OperationContext = FREE_CONTEXT) -> Undo:
        self.validate(schema, context)
        schema.edit(self.typename).add_key(self.key)

        def undo() -> None:
            schema.edit(self.typename).remove_key(self.key)

        return undo

    def arguments(self) -> tuple[str, ...]:
        return (self.typename, render_list(self.key))

    def affected_types(self) -> tuple[str, ...]:
        return (self.typename,)

    def read_footprint(self) -> frozenset[tuple[str, Aspect]]:
        # Key attributes resolve through the inheritance closure.
        return frozenset({
            (self.typename, Aspect.KEYS),
            (WILDCARD, Aspect.ATTRS),
            (WILDCARD, Aspect.ISA),
        })


@dataclass(frozen=True, eq=False)
class DeleteKeyList(SchemaOperation):
    """``delete_key_list(typename, (attr, ...))`` -- drop one key."""

    op_name = "delete_key_list"
    touched_aspects = frozenset({Aspect.KEYS})
    candidate = "Type Properties"
    sub_candidate = "Key list"
    action = "delete"
    admissible_in = _WW

    typename: str
    key: tuple[str, ...]

    def validate(self, schema: Schema, context: OperationContext = FREE_CONTEXT) -> None:
        interface = schema.get(self.typename)
        if tuple(self.key) not in interface.keys:
            raise ConstraintViolation(
                f"{self.typename!r} does not declare key {self.key!r}"
            )

    def apply(self, schema: Schema, context: OperationContext = FREE_CONTEXT) -> Undo:
        self.validate(schema, context)
        interface = schema.edit(self.typename)
        position = interface.keys.index(tuple(self.key))
        interface.remove_key(self.key)

        def undo() -> None:
            schema.edit(self.typename).insert_key(tuple(self.key), position)

        return undo

    def arguments(self) -> tuple[str, ...]:
        return (self.typename, render_list(self.key))

    def affected_types(self) -> tuple[str, ...]:
        return (self.typename,)


@dataclass(frozen=True, eq=False)
class ModifyKeyList(SchemaOperation):
    """``modify_key_list(typename, (old...), (new...))`` -- replace a key."""

    op_name = "modify_key_list"
    touched_aspects = frozenset({Aspect.KEYS})
    candidate = "Type Properties"
    sub_candidate = "Key list"
    action = "modify"
    admissible_in = _WW

    typename: str
    old_key: tuple[str, ...]
    new_key: tuple[str, ...]

    def validate(self, schema: Schema, context: OperationContext = FREE_CONTEXT) -> None:
        DeleteKeyList(self.typename, self.old_key).validate(schema, context)
        if tuple(self.new_key) != tuple(self.old_key):
            interface = schema.get(self.typename)
            if tuple(self.new_key) in interface.keys:
                raise ConstraintViolation(
                    f"{self.typename!r} already declares key {self.new_key!r}"
                )
        available = set(schema.get(self.typename).attributes)
        available.update(schema.inherited_attributes(self.typename))
        for attr_name in self.new_key:
            if attr_name not in available:
                raise ConstraintViolation(
                    f"new key names unknown attribute {attr_name!r} of "
                    f"{self.typename!r}"
                )

    def apply(self, schema: Schema, context: OperationContext = FREE_CONTEXT) -> Undo:
        self.validate(schema, context)
        interface = schema.edit(self.typename)
        position = interface.keys.index(tuple(self.old_key))
        interface.replace_key_at(position, tuple(self.new_key))

        def undo() -> None:
            schema.edit(self.typename).replace_key_at(
                position, tuple(self.old_key)
            )

        return undo

    def arguments(self) -> tuple[str, ...]:
        return (self.typename, render_list(self.old_key), render_list(self.new_key))

    def affected_types(self) -> tuple[str, ...]:
        return (self.typename,)

    def read_footprint(self) -> frozenset[tuple[str, Aspect]]:
        # The new key's attributes resolve through the inheritance closure.
        return frozenset({
            (self.typename, Aspect.KEYS),
            (WILDCARD, Aspect.ATTRS),
            (WILDCARD, Aspect.ISA),
        })
