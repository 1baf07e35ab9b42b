"""Algorithmic decomposition of a schema into concept schemas.

"It is possible to algorithmically decompose a schema defined in extended
ODL into concept schemas" and "the union of all the initial concept
schemas gives the original shrink wrap schema" (Section 3.3).  This
module implements both directions:

* :func:`decompose` yields one wagon wheel per object type plus one
  generalization / aggregation / instance-of hierarchy per root, each
  extracted the first time it is asked for;
* :func:`reconstruct` unions a decomposition back into a schema, and the
  round-trip is the identity (verified by property tests).
"""

from __future__ import annotations

import weakref

from repro.concepts.aggregation import (
    AggregationHierarchy,
    extract_all_aggregation_hierarchies,
)
from repro.concepts.base import ConceptKind, ConceptSchema
from repro.concepts.generalization import (
    GeneralizationHierarchy,
    extract_all_generalization_hierarchies,
)
from repro.concepts.instance_of import (
    InstanceOfHierarchy,
    extract_all_instance_of_hierarchies,
)
from repro.concepts.wagon_wheel import WagonWheel, extract_wagon_wheel
from repro.model.errors import SchemaError
from repro.model.interface import InterfaceDef
from repro.model.schema import Schema


#: ``all_concepts()`` lists the families in this order.
_RANK = {kind: rank for rank, kind in enumerate(ConceptKind)}
_FAMILIES = (
    WagonWheel,
    GeneralizationHierarchy,
    AggregationHierarchy,
    InstanceOfHierarchy,
)


class Decomposition:
    """The complete concept-schema view of one schema, extracted on demand.

    Built by :func:`decompose` over a copy-on-write snapshot of the
    schema.  A wagon wheel is extracted the first time it is asked for
    and cached; the three hierarchy families are extracted together on
    first need.  :meth:`all_concepts`, :meth:`of_kind`, :meth:`summary`
    and the four family lists force every concept; the point lookups,
    :meth:`by_identifier` and :meth:`concepts_covering`, extract only
    the wheels they can return (and the hierarchies, when they need
    one).
    """

    def __init__(self, snapshot: Schema) -> None:
        #: Owned by the decomposition: nothing may mutate it.  When the
        #: decomposition dies the snapshot leaves its sources' spines at
        #: once, not at the next cycle collection, so a dead snapshot
        #: is never handed copies (a wheel it gave out holds its own
        #: claim on its interface).
        self._snapshot = snapshot
        weakref.finalize(self, snapshot.release_cow)
        self.schema_name = snapshot.name
        self._wheels: dict[str, WagonWheel] = {}
        #: Concepts registered by :meth:`add_concept`, in order.
        self._added: dict[str, ConceptSchema] = {}
        #: The initial hierarchies once extracted, in family order ...
        self._hierarchies: dict[str, ConceptSchema] | None = None
        #: ... and, per member type, those that cover it.
        self._hierarchy_cover: dict[str, list[ConceptSchema]] = {}

    # ------------------------------------------------------------------
    # Extraction on demand
    # ------------------------------------------------------------------

    def _wheel(self, focal: str) -> WagonWheel:
        wheel = self._wheels.get(focal)
        if wheel is None:
            wheel = extract_wagon_wheel(self._snapshot, focal)
            self._wheels[focal] = wheel
        return wheel

    def _initial_hierarchies(self) -> dict[str, ConceptSchema]:
        if self._hierarchies is None:
            snapshot = self._snapshot
            hierarchies: list[ConceptSchema] = [
                *extract_all_generalization_hierarchies(snapshot),
                *extract_all_aggregation_hierarchies(snapshot),
                *extract_all_instance_of_hierarchies(snapshot),
            ]
            for hierarchy in hierarchies:
                for member in hierarchy.members:
                    self._hierarchy_cover.setdefault(member, []).append(
                        hierarchy
                    )
            self._hierarchies = {h.identifier: h for h in hierarchies}
        return self._hierarchies

    def _initial(self, identifier: str) -> ConceptSchema | None:
        """The initial concept called *identifier*, or ``None``.

        Initial concepts carry no view name, and an initial wheel is
        ``ww:`` plus a type of the snapshot; only a hierarchy
        identifier needs the hierarchies.
        """
        prefix, _, anchor = identifier.partition(":")
        if "#" in anchor:
            return None
        if prefix == "ww":
            if anchor in self._snapshot.interfaces:
                return self._wheel(anchor)
            return None
        return self._initial_hierarchies().get(identifier)

    # ------------------------------------------------------------------
    # The full view
    # ------------------------------------------------------------------

    def all_concepts(self) -> list[ConceptSchema]:
        """Every concept schema: the wagon wheels (one per type in
        declaration order, then the added ones), then each hierarchy
        family in turn, initial before added."""
        concepts = [
            *map(self._wheel, self._snapshot.interfaces),
            *self._initial_hierarchies().values(),
            *self._added.values(),
        ]
        concepts.sort(key=lambda concept: _RANK[concept.kind])
        return concepts

    def of_kind(self, kind: ConceptKind) -> list[ConceptSchema]:
        """All concept schemas of one kind."""
        return [c for c in self.all_concepts() if c.kind is kind]

    @property
    def wagon_wheels(self) -> list[ConceptSchema]:
        """One wheel per type in declaration order, then the added ones."""
        return self.of_kind(ConceptKind.WAGON_WHEEL)

    @property
    def generalizations(self) -> list[ConceptSchema]:
        """One hierarchy per generalization root, then the added ones."""
        return self.of_kind(ConceptKind.GENERALIZATION)

    @property
    def aggregations(self) -> list[ConceptSchema]:
        """One hierarchy per aggregation root, then the added ones."""
        return self.of_kind(ConceptKind.AGGREGATION)

    @property
    def instance_ofs(self) -> list[ConceptSchema]:
        """One hierarchy per instance-of root, then the added ones."""
        return self.of_kind(ConceptKind.INSTANCE_OF)

    def count(self) -> int:
        """How many concept schemas :meth:`all_concepts` lists, counted
        from the snapshot's roots without extracting any."""
        snapshot = self._snapshot
        return (
            len(snapshot)
            + len(snapshot.generalization_roots())
            + len(snapshot.aggregation_roots())
            + len(snapshot.instance_of_roots())
            + len(self._added)
        )

    def summary(self) -> str:
        """Multi-line listing of every concept schema."""
        lines = [f"decomposition of {self.schema_name}:"]
        lines.extend("  " + c.describe() for c in self.all_concepts())
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Point lookups
    # ------------------------------------------------------------------

    def add_concept(self, concept: ConceptSchema) -> None:
        """Register an additional concept schema (e.g. a wagon wheel view).

        Identifiers must stay unique across the decomposition.
        """
        if not isinstance(concept, ConceptSchema):
            raise SchemaError(
                f"not a concept schema: {type(concept).__name__!r}"
            )
        if not isinstance(concept, _FAMILIES):
            raise SchemaError(
                f"unknown concept schema type {type(concept).__name__!r}"
            )
        identifier = concept.identifier
        if identifier in self._added or self._initial(identifier):
            raise SchemaError(
                f"decomposition already has a concept schema "
                f"{identifier!r}"
            )
        self._added[identifier] = concept

    def by_identifier(self, identifier: str) -> ConceptSchema:
        """Look a concept schema up by its ``ww:Type``-style identifier."""
        concept = self._added.get(identifier) or self._initial(identifier)
        if concept is None:
            raise SchemaError(
                f"decomposition of {self.schema_name!r} has no concept "
                f"schema {identifier!r}"
            )
        return concept

    def concepts_covering(self, type_name: str) -> list[ConceptSchema]:
        """Every concept schema in which *type_name* participates.

        The knowledge component uses this to warn the designer about
        interactions: a change made through one concept schema touches a
        type that other concept schemas also present.

        A wheel's members are its focal type, the types it references
        and its direct subtypes, so only the wheels of *type_name*, of
        its referencers and of its declared supertypes can hold it;
        those are extracted and filtered, and the result comes in
        :meth:`all_concepts` order.
        """
        snapshot = self._snapshot
        interfaces = snapshot.interfaces
        candidates = {type_name, *snapshot.index.referencers_of(type_name)}
        if type_name in interfaces:
            candidates.update(interfaces[type_name].supertypes)
        wheels = map(
            self._wheel,
            snapshot.index.in_declaration_order(candidates & interfaces.keys()),
        )
        self._initial_hierarchies()
        covering = [
            *(wheel for wheel in wheels if wheel.covers_type(type_name)),
            *self._hierarchy_cover.get(type_name, ()),
            *(c for c in self._added.values() if c.covers_type(type_name)),
        ]
        covering.sort(key=lambda concept: _RANK[concept.kind])
        return covering


def decompose(schema: Schema) -> Decomposition:
    """Decompose *schema* into its initial concept schemas, on demand.

    One wagon wheel per object type guarantees full coverage; hierarchy
    concept schemas add the integrated generalization / aggregation /
    instance-of points of view wherever those structures exist.  The
    decomposition keeps a copy-on-write fork of *schema* (O(types)
    pointer work) and extracts each concept the first time it is
    needed, so a later mutation of *schema* never reaches it.
    """
    return Decomposition(schema.fork())


def reconstruct(decomposition: Decomposition, name: str | None = None) -> Schema:
    """Union the concept schemas back into a global schema.

    Wagon wheels contribute each focal type's complete interface
    definition (instance properties, extent, keys); generalization
    hierarchies contribute the ISA links.  Because every object type has
    a wagon wheel and every ISA edge lies in the hierarchy of its root,
    the union equals the decomposed schema exactly (the paper's
    Section 3.3.1 property).
    """
    schema = Schema(name or decomposition.schema_name)
    for wheel in decomposition.wagon_wheels:
        if wheel.focal_interface is None:
            raise SchemaError(
                f"wagon wheel {wheel.identifier} carries no interface; "
                "cannot reconstruct"
            )
        if wheel.focal in schema:
            _merge_interface(schema.get(wheel.focal), wheel.focal_interface)
        else:
            # Stays an eager copy: the next line mutates ``supertypes``
            # by direct assignment (no mutator, no CoW barrier), which
            # would corrupt a shared wheel interface silently.
            contribution = wheel.focal_interface.copy()
            contribution.supertypes = []  # ISA comes from the hierarchies
            schema.add_interface(contribution)
    for hierarchy in decomposition.generalizations:
        for edge in hierarchy.edges:
            if edge.subtype not in schema:
                schema.add_interface(InterfaceDef(edge.subtype))
            if edge.supertype not in schema:
                schema.add_interface(InterfaceDef(edge.supertype))
            subtype = schema.get(edge.subtype)
            if edge.supertype not in subtype.supertypes:
                subtype.add_supertype(edge.supertype)
    return schema


def _merge_interface(existing: InterfaceDef, incoming: InterfaceDef) -> None:
    """Union a second wagon wheel's view of a type into *existing*.

    Several wheels may share a focal point ("different points of view of
    an object type [may] result in more than one concept schema having
    the same focal point"); their union must agree wherever they overlap.
    """
    if incoming.extent is not None:
        if existing.extent is not None and existing.extent != incoming.extent:
            raise SchemaError(
                f"conflicting extents for {existing.name!r}: "
                f"{existing.extent!r} vs {incoming.extent!r}"
            )
        existing.set_extent(incoming.extent)
    for key in incoming.keys:
        if key not in existing.keys:
            existing.add_key(key)
    for attr_name, attribute in incoming.attributes.items():
        if attr_name in existing.attributes:
            if existing.attributes[attr_name] != attribute:
                raise SchemaError(
                    f"conflicting definitions of {existing.name}.{attr_name}"
                )
        else:
            existing.add_attribute(attribute)
    for end_name, end in incoming.relationships.items():
        if end_name in existing.relationships:
            if existing.relationships[end_name] != end:
                raise SchemaError(
                    f"conflicting definitions of {existing.name}.{end_name}"
                )
        else:
            existing.add_relationship(end)
    for op_name, operation in incoming.operations.items():
        if op_name in existing.operations:
            if existing.operations[op_name] != operation:
                raise SchemaError(
                    f"conflicting definitions of {existing.name}.{op_name}()"
                )
        else:
            existing.add_operation(operation)
