"""Local names: the paper's sanctioned extension to name equivalence.

Section 5: "We acknowledge that database designers are very likely to
want to introduce local names for constructs that appear in the schema.
The extension of our work to handle this possibility requires that the
user indicate a change of name, and that the system maintain the mapping
from shrink wrap schema names to local names."

A :class:`LocalNameMap` is exactly that maintained mapping.  It is *not*
part of the operation language -- canonical names still identify every
construct, the workspace and mapping still operate on them -- but the
designer can view the schema through the map
(:func:`apply_local_names`) and the repository keeps the map alongside
its other artifacts.

Aliased paths:

* ``"Type"`` -- a local name for an object type;
* ``"Type.member"`` -- a local name for an attribute, relationship
  traversal path, or operation of ``Type``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.concepts.base import read_interface
from repro.model.attributes import Attribute
from repro.model.errors import SchemaError
from repro.model.interface import InterfaceDef
from repro.model.operations import Operation, Parameter
from repro.model.relationships import RelationshipEnd
from repro.model.schema import Schema
from repro.model.types import CollectionType, NamedType, TypeRef


@dataclass
class LocalNameMap:
    """The maintained mapping from canonical names to local names."""

    aliases: dict[str, str] = field(default_factory=dict)

    def set_alias(self, path: str, local_name: str, schema: Schema) -> None:
        """Record a local name for a construct of *schema*.

        The path must exist; the local name must not collide with a
        canonical or local name already in use at the same scope.
        """
        if not local_name or not local_name[0].isalpha():
            raise SchemaError(f"invalid local name {local_name!r}")
        owner, _, member = path.partition(".")
        interface = read_interface(schema, owner)
        if member:
            known = (
                member in interface.attributes
                or member in interface.relationships
                or member in interface.operations
            )
            if not known:
                raise SchemaError(
                    f"{owner!r} has no member {member!r} to alias"
                )
            taken = (
                set(interface.attributes)
                | set(interface.relationships)
                | set(interface.operations)
            )
            taken |= {
                existing_local
                for existing_path, existing_local in self.aliases.items()
                if existing_path.startswith(f"{owner}.")
                and existing_path != path
            }
            if local_name in taken:
                raise SchemaError(
                    f"local name {local_name!r} collides within {owner!r}"
                )
        else:
            taken = set(schema.type_names()) - {owner}
            taken |= {
                existing_local
                for existing_path, existing_local in self.aliases.items()
                if "." not in existing_path and existing_path != path
            }
            if local_name in taken:
                raise SchemaError(
                    f"local name {local_name!r} collides with another type"
                )
        self.aliases[path] = local_name

    def remove_alias(self, path: str) -> None:
        """Forget the local name of one construct."""
        try:
            del self.aliases[path]
        except KeyError:
            raise SchemaError(f"no local name recorded for {path!r}") from None

    def local_type_name(self, canonical: str) -> str:
        """The display name of a type."""
        return self.aliases.get(canonical, canonical)

    def local_member_name(self, owner: str, member: str) -> str:
        """The display name of a member of *owner*."""
        return self.aliases.get(f"{owner}.{member}", member)

    def canonical(self, local_name: str) -> str | None:
        """Reverse lookup: the canonical path carrying *local_name*."""
        for path, local in self.aliases.items():
            if local == local_name:
                return path
        return None

    def render(self) -> str:
        """The shrink-wrap-to-local name mapping, one line per alias."""
        if not self.aliases:
            return "(no local names recorded)"
        width = max(len(path) for path in self.aliases)
        return "\n".join(
            f"{path.ljust(width)} -> {local}"
            for path, local in sorted(self.aliases.items())
        )


def apply_local_names(schema: Schema, names: LocalNameMap) -> Schema:
    """A display copy of *schema* with every alias applied consistently.

    Type renames propagate into supertype lists, attribute and signature
    types, relationship targets, and inverse declarations; member renames
    propagate into inverse path names, key lists, and order-by lists
    (resolving inherited attributes to their providing type).  The
    returned schema is for presentation and export -- the repository
    keeps operating on canonical names.
    """
    display = Schema(schema.name)
    display.add_interfaces(
        _rename_interface(schema, interface, names) for interface in schema
    )
    return display


def _rename_type_ref(type_ref: TypeRef, names: LocalNameMap) -> TypeRef:
    if isinstance(type_ref, NamedType):
        return NamedType(names.local_type_name(type_ref.name))
    if isinstance(type_ref, CollectionType):
        return CollectionType(
            type_ref.kind, _rename_type_ref(type_ref.element, names),
            type_ref.size,
        )
    return type_ref


def _attribute_provider(schema: Schema, owner: str, attr_name: str) -> str:
    """The type whose declaration of *attr_name* is visible on *owner*."""
    if attr_name in read_interface(schema, owner).attributes:
        return owner
    return schema.inherited_attributes(owner).get(attr_name, owner)


def _rename_interface(
    schema: Schema, interface: InterfaceDef, names: LocalNameMap
) -> InterfaceDef:
    renamed = InterfaceDef(
        names.local_type_name(interface.name),
        supertypes=[
            names.local_type_name(supertype)
            for supertype in interface.supertypes
        ],
        extent=interface.extent,
    )
    for key in interface.keys:
        renamed.add_key(
            tuple(
                names.local_member_name(
                    _attribute_provider(schema, interface.name, attr_name),
                    attr_name,
                )
                for attr_name in key
            )
        )
    for attribute in interface.attributes.values():
        renamed.add_attribute(
            Attribute(
                names.local_member_name(interface.name, attribute.name),
                _rename_type_ref(attribute.type, names),
            )
        )
    for end in interface.relationships.values():
        renamed.add_relationship(_rename_end(schema, interface.name, end, names))
    for operation in interface.operations.values():
        renamed.add_operation(
            Operation(
                names.local_member_name(interface.name, operation.name),
                _rename_type_ref(operation.return_type, names),
                tuple(
                    Parameter(
                        parameter.direction,
                        _rename_type_ref(parameter.type, names),
                        parameter.name,
                    )
                    for parameter in operation.parameters
                ),
                operation.exceptions,
            )
        )
    return renamed


def _rename_end(
    schema: Schema, owner: str, end: RelationshipEnd, names: LocalNameMap
) -> RelationshipEnd:
    order_by = tuple(
        names.local_member_name(
            _attribute_provider(schema, end.target_type, attr_name)
            if end.target_type in schema
            else end.target_type,
            attr_name,
        )
        for attr_name in end.order_by
    )
    return RelationshipEnd(
        names.local_member_name(owner, end.name),
        _rename_type_ref(end.target, names),
        names.local_type_name(end.inverse_type),
        names.local_member_name(end.inverse_type, end.inverse_name),
        end.kind,
        order_by,
    )
