"""Wagon wheel concept schemas.

"A wagon wheel concept schema consists of one object type that serves as
the focal point of the wagon wheel and supporting attributes and
relationships that emanate from the focal point. ... Structurally, the
wagon wheel concept schema type, in addition to the focal point, includes
objects that are just one relationship away from the focal point."
(Section 3.3.1)

At least one wagon wheel exists for every object type of a shrink wrap
schema; the wagon wheel carries the focal type's complete interface
definition (its spokes) plus the names of the distance-1 neighbour types
(its rim).  Generalization, aggregation, and instance-of links of
distance one are included as rim links.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.concepts.base import ConceptKind, ConceptSchema
from repro.model.errors import SchemaError
from repro.model.interface import InterfaceDef, _SnapshotClaim
from repro.model.relationships import RelationshipKind
from repro.model.schema import Schema


@dataclass(frozen=True)
class Spoke:
    """One relationship spoke of the wheel: focal type -> neighbour."""

    path_name: str
    target_type: str
    kind: RelationshipKind
    to_many: bool

    def describe(self) -> str:
        many = "*" if self.to_many else "1"
        return f"--{self.path_name}[{self.kind.value},{many}]--> {self.target_type}"


@dataclass(frozen=True)
class WagonWheel(ConceptSchema):
    """The basic building block of schemas: one focal type + its spokes."""

    focal_interface: InterfaceDef | None = None
    spokes: tuple[Spoke, ...] = field(default_factory=tuple)
    supertype_rim: tuple[str, ...] = field(default_factory=tuple)
    subtype_rim: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", ConceptKind.WAGON_WHEEL)

    @property
    def focal(self) -> str:
        """Name of the focal object type (alias of ``anchor``)."""
        return self.anchor

    def attribute_names(self) -> list[str]:
        """The attribute spokes, in declaration order."""
        if self.focal_interface is None:
            return []
        return list(self.focal_interface.attributes)

    def neighbour_types(self) -> set[str]:
        """Every type exactly one link away from the focal point."""
        neighbours = {spoke.target_type for spoke in self.spokes}
        neighbours.update(self.supertype_rim)
        neighbours.update(self.subtype_rim)
        neighbours.discard(self.focal)
        return neighbours


def extract_wagon_wheel(schema: Schema, focal: str) -> WagonWheel:
    """Extract the wagon wheel concept schema centred on *focal*.

    The wheel includes the focal interface itself and, as rim members,
    every type one relationship link (association, part-of, instance-of,
    or generalization) away.  Inbound links are followed through the
    inverse declarations that pair each relationship's two ends, so the
    wheel is the same whichever end declares the path.
    """
    interface = schema.get(focal)
    spokes = tuple(
        Spoke(end.name, end.target_type, end.kind, end.is_to_many)
        for end in interface.relationships.values()
    )
    supertype_rim = tuple(s for s in interface.supertypes if s in schema)
    subtype_rim = tuple(schema.subtypes(focal))
    members = {focal}
    members.update(
        spoke.target_type for spoke in spokes if spoke.target_type in schema
    )
    members.update(supertype_rim)
    members.update(subtype_rim)
    # The wheel shares the live interface copy-on-write: a snapshot
    # claim swaps in a private copy the moment the schema mutates the
    # focal type, so extracting all N wheels costs no interface copies.
    wheel = WagonWheel(
        anchor=focal,
        members=frozenset(members),
        focal_interface=interface,
        spokes=spokes,
        supertype_rim=supertype_rim,
        subtype_rim=subtype_rim,
    )
    interface.register_claim(_SnapshotClaim(wheel, "focal_interface"))
    return wheel


def extract_wagon_wheel_view(
    schema: Schema,
    focal: str,
    view_name: str,
    spoke_paths: tuple[str, ...] | None = None,
    attribute_names: tuple[str, ...] | None = None,
) -> WagonWheel:
    """Extract an additional, narrower point of view on *focal*.

    Section 3.3.1 allows several wagon wheels per object type; a view
    keeps only the named relationship spokes and attributes (``None``
    keeps everything of that category).  The view's identifier carries
    its name: ``ww:Course_Offering#scheduling``.
    """
    if not view_name:
        raise SchemaError("a wagon wheel view needs a non-empty name")
    full = extract_wagon_wheel(schema, focal)
    assert full.focal_interface is not None
    # The full wheel shares the live schema interface; the view narrows
    # it destructively below, so it must work on a private copy (the
    # copy is spineless and claim-free -- mutating it emits nowhere).
    interface = full.focal_interface.copy()
    if spoke_paths is not None:
        unknown = set(spoke_paths) - set(interface.relationships)
        if unknown:
            raise SchemaError(
                f"{focal!r} has no relationship(s) "
                f"{', '.join(sorted(unknown))}"
            )
        for path in list(interface.relationships):
            if path not in spoke_paths:
                interface.remove_relationship(path)
    if attribute_names is not None:
        unknown = set(attribute_names) - set(interface.attributes)
        if unknown:
            raise SchemaError(
                f"{focal!r} has no attribute(s) {', '.join(sorted(unknown))}"
            )
        for key in list(interface.keys):
            if not set(key) <= set(attribute_names):
                interface.remove_key(key)
        for attr_name in list(interface.attributes):
            if attr_name not in attribute_names:
                interface.remove_attribute(attr_name)
    spokes = tuple(
        spoke
        for spoke in full.spokes
        if spoke_paths is None or spoke.path_name in spoke_paths
    )
    members = {focal}
    members.update(
        spoke.target_type for spoke in spokes if spoke.target_type in schema
    )
    members.update(full.supertype_rim)
    members.update(full.subtype_rim)
    return WagonWheel(
        anchor=focal,
        members=frozenset(members),
        view=view_name,
        focal_interface=interface,
        spokes=spokes,
        supertype_rim=full.supertype_rim,
        subtype_rim=full.subtype_rim,
    )


def extract_all_wagon_wheels(schema: Schema) -> list[WagonWheel]:
    """One wagon wheel per object type, in declaration order.

    This is the initial decomposition; a designer may later create
    additional wheels for different points of view of the same focal type
    (the paper allows several wheels per type).
    """
    return [extract_wagon_wheel(schema, name) for name in schema.type_names()]
