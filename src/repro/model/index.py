"""Full-scan reference specifications of the schema graph queries.

``Schema.index`` is the columnar graph store
(:class:`~repro.model.columnar.ColumnarAdjacency`): it answers every
link-graph query from state the mutation spine keeps current.  This
module holds what that store is judged against: the ``scan_*``
functions, the original full-scan query bodies, kept as the executable
specification the store is validated against (property tests and the
``index-*-vs-scan`` invariants) and benchmarked against
(``benchmarks/test_bench_index_scaling.py``), plus
:func:`scan_adjacency`, the specification of the store's exported maps
(the ``columnar-vs-scan`` invariant).  They read only the interfaces:
the ``independence`` lint pass roots its closure here and fails if any
of them reaches the store or the validation cache.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.model.relationships import RelationshipEnd, RelationshipKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.model.schema import Schema

#: (one-side owner, many-side target, to-many end) of one hierarchy link.
Edge = tuple[str, str, RelationshipEnd]


# ----------------------------------------------------------------------
# Full-scan reference implementations
# ----------------------------------------------------------------------
#
# These are the pre-index query bodies, preserved verbatim in behaviour.
# The invalidation property tests assert that after any operation stream
# (including undo / redo / reset) every store query still equals its
# scan counterpart, and the scaling bench quantifies what the store buys
# over them.


def scan_link_edges(schema: "Schema", kind: RelationshipKind) -> list[Edge]:
    """Directed edges (one-side -> many-side) for part-of/instance-of.

    Only the to-many end contributes an edge so each relationship is
    counted once; the edge runs from the owner of the to-many end (the
    whole / the generic entity) to its target (the part / instance).
    """
    edges: list[Edge] = []
    for interface in schema:
        for end in interface.relationships_of_kind(kind):
            if end.is_to_many:
                edges.append((interface.name, end.target_type, end))
    return edges


def scan_subtypes(schema: "Schema", name: str) -> list[str]:
    """Direct subtypes of *name* by scanning every interface."""
    return [
        interface.name
        for interface in schema
        if name in interface.supertypes
    ]


def scan_descendants(schema: "Schema", name: str) -> set[str]:
    """Transitive subtypes of *name* via repeated full scans."""
    schema.get(name)  # raise for unknown types
    result: set[str] = set()
    frontier = scan_subtypes(schema, name)
    while frontier:
        current = frontier.pop()
        if current in result:
            continue
        result.add(current)
        frontier.extend(scan_subtypes(schema, current))
    return result


def scan_ancestors(schema: "Schema", name: str) -> set[str]:
    """Transitive *resolved* supertypes of *name* (dangling names are
    not types and are excluded, mirroring ``Schema.ancestors``)."""
    result: set[str] = set()
    frontier = [
        supertype
        for supertype in schema.get(name).supertypes
        if supertype in schema.interfaces
    ]
    while frontier:
        current = frontier.pop()
        if current in result:
            continue
        result.add(current)
        frontier.extend(
            supertype
            for supertype in schema.interfaces[current].supertypes
            if supertype in schema.interfaces
        )
    return result


def scan_generalization_roots(schema: "Schema") -> list[str]:
    """Types with subtypes but no *resolved* supertypes."""
    return [
        interface.name
        for interface in schema
        if not any(s in schema.interfaces for s in interface.supertypes)
        and scan_subtypes(schema, interface.name)
    ]


def scan_parts(schema: "Schema", name: str) -> list[str]:
    """Direct components of *name* by rebuilding the edge list."""
    edges = scan_link_edges(schema, RelationshipKind.PART_OF)
    return [part for whole, part, _ in edges if whole == name]


def scan_wholes(schema: "Schema", name: str) -> list[str]:
    """Direct wholes of *name* by rebuilding the edge list."""
    edges = scan_link_edges(schema, RelationshipKind.PART_OF)
    return [whole for whole, part, _ in edges if part == name]


def scan_aggregation_roots(schema: "Schema") -> list[str]:
    """Wholes that are not themselves parts of anything."""
    edges = scan_link_edges(schema, RelationshipKind.PART_OF)
    wholes = {whole for whole, _, _ in edges}
    parts = {part for _, part, _ in edges}
    return [name for name in schema.type_names() if name in wholes - parts]


def scan_instance_of_roots(schema: "Schema") -> list[str]:
    """Generic entities that are not instances of anything."""
    edges = scan_link_edges(schema, RelationshipKind.INSTANCE_OF)
    generics = {generic for generic, _, _ in edges}
    instances = {inst for _, inst, _ in edges}
    return [name for name in schema.type_names() if name in generics - instances]


def scan_adjacency(
    schema: "Schema",
) -> tuple[
    dict[str, tuple[str, ...]],
    dict[str, set[str]],
    dict[str, frozenset[str]],
    dict[str, set[str]],
]:
    """The four maps the columnar store exports, derived from the
    interfaces: defined name -> its supertypes (declaration order),
    supertype name -> its subtypes, defined name -> the names it
    references (``InterfaceDef.referenced_type_names``), and referenced
    name -> the names referencing it.  The two reverse maps key
    dangling names too and hold no empty sets."""
    parents: dict[str, tuple[str, ...]] = {}
    children: dict[str, set[str]] = {}
    refs: dict[str, frozenset[str]] = {}
    referencers: dict[str, set[str]] = {}
    for interface in schema:
        name = interface.name
        parents[name] = tuple(interface.supertypes)
        for supertype in interface.supertypes:
            children.setdefault(supertype, set()).add(name)
        refs[name] = targets = frozenset(interface.referenced_type_names())
        for target in targets:
            referencers.setdefault(target, set()).add(name)
    return parents, children, refs, referencers
