"""Spine-fed graph state behind every link-graph query a schema answers.

Every concept-schema extraction, propagation expansion, and consistency
pass bottoms out in :class:`~repro.model.schema.Schema`'s graph queries,
and the paper's designer re-validates after every single edit.
Answering them by scanning all interfaces makes one edit cost
O(types).  :class:`SchemaIndex` answers them from state the mutation
spine keeps current instead (the columnar store,
:class:`~repro.model.columnar.ColumnarAdjacency`):

* ``subtypes_of`` / ``descendants_of`` / ``ancestors_of`` /
  ``generalization_roots`` -- the ISA parent and child rows;
* ``referencers_of`` / ``ends_targeting`` -- the reverse-reference rows;
* ``part_of_edges`` / ``instance_of_edges``, ``parts_of`` /
  ``wholes_of`` / ``instances_of`` / ``generics_of`` and the link
  roots -- the owners of to-many part-of / instance-of ends;
* ``in_declaration_order`` / ``declaration_rank`` -- a declaration
  position per name;
* ``extent_owners`` -- who declares an extent name.

Each record re-derives only its own owner, so an edit costs O(changed).
Results that must come out in declaration order sort their few names
by position; no query filters the whole type list.  The whole maps the
verification differentials compare (``subtype_map``,
``declaration_order``) are built from the same state on demand, and
never cached.  The one remaining stamped cache is
``relationship_pairs``, a whole-schema listing stamped per aspect with
:class:`~repro.model.mutation.AspectClock`.

**Invalidation contract.**  The index is a subscriber of the schema's
mutation spine (:mod:`repro.model.mutation`).  A lossy record
(``Schema.touch()`` or an unknown kind) makes the columnar store rescan
the schema on the next query; code that mutates schema content without
going through a mutator must call ``Schema.touch()`` itself -- see
DESIGN.md §5e.

The module also ships the ``scan_*`` reference implementations: the
original full-scan queries, kept as the executable specification the
index is validated against (property tests and the ``index-*-vs-scan``
invariants) and benchmarked against
(``benchmarks/test_bench_index_scaling.py``), plus
:func:`scan_adjacency`, the specification of the columnar store's
exports (the ``columnar-vs-scan`` invariant).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.model.columnar import ColumnarAdjacency
from repro.model.mutation import ORDER_CLOCK, Aspect, AspectClock, MutationRecord
from repro.model.relationships import RelationshipEnd, RelationshipKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.model.schema import Schema

#: (one-side owner, many-side target, to-many end) of one hierarchy link.
Edge = tuple[str, str, RelationshipEnd]

_PART_OF = RelationshipKind.PART_OF
_INSTANCE_OF = RelationshipKind.INSTANCE_OF

# The relationship-pair listing rebuilds only when a record carrying one
# of these clocks has landed on the spine since it was built.
_PAIR_DEPS = (
    Aspect.REL_ASSOCIATION,
    Aspect.REL_PART_OF,
    Aspect.REL_INSTANCE_OF,
    Aspect.MEMBERSHIP,
    ORDER_CLOCK,
)


class SchemaIndex:
    """The columnar store behind the graph queries, plus one stamped listing.

    The columnar store (:class:`~repro.model.columnar.
    ColumnarAdjacency`) is folded record by record from the spine:
    interned-name integer ids over flat ``array('i')`` rows with
    free-list id reuse for ISA and references, plus positions, link
    owners and extent owners.  Queries answer in O(result).
    ``relationship_pairs`` is the one whole-schema listing still built
    by scan; it stamps the :class:`~repro.model.mutation.AspectClock`
    counters of the aspects that can change it.

    ``scope`` records are declarative annotations (belt-and-suspenders
    for the validation journal's dirty-name set); actual content changes
    always land as mutator records (the ``spine`` lint pass and the
    spine differentials enforce this), so they advance no clock here.
    """

    __slots__ = (
        "_schema",
        "_pairs",
        "_clock",
        "_answered",
        "adjacency",
        "hits",
        "misses",
        "rebuilds",
    )

    def __init__(self, schema: "Schema") -> None:
        self._schema = schema
        self._pairs: tuple[tuple[int, ...], list] | None = None
        self._clock = AspectClock()
        #: Whether the columnar store has answered a query yet: a scan
        #: after that is a rescan (counted in ``rebuilds``), the first
        #: one a cold build (a miss).
        self._answered = False
        #: The columnar store; the ``columnar-vs-scan`` differential
        #: holds its exports to :func:`scan_adjacency`.
        self.adjacency = ColumnarAdjacency(schema)
        self.hits = 0
        self.misses = 0
        self.rebuilds = 0
        schema.log.subscribe(self._observe)

    # ------------------------------------------------------------------
    # Spine subscriber
    # ------------------------------------------------------------------

    def _observe(self, record: MutationRecord) -> None:
        """Fold one mutation record into the clock and the columnar store."""
        if record.kind == "scope":
            return
        self._clock.observe(record)
        self.adjacency.observe(record)

    def adopt_base_adjacency(self, parent: "SchemaIndex") -> None:
        """Overlay the parent's columnar store instead of rebuilding.

        Called by ``Schema.fork`` right after the fork's fresh index is
        wired: replaces the cold (dirty) columnar store with a CoW
        overlay of the parent's -- ISA and reference rows, positions,
        link and extent owners as of the fork -- so the fork's first
        graph query costs no O(types) scan.  The overlay pins the
        parent's version: a later parent mutation makes the fork rescan
        its own schema, so it never sees that mutation.  ``_observe``
        looks ``self.adjacency`` up dynamically, so swapping the store
        here keeps the spine subscription intact.
        """
        self.adjacency = parent.adjacency.fork_view(self._schema)
        self._answered = True

    def _fresh(self) -> ColumnarAdjacency:
        """The columnar store, rescanned first if it went stale."""
        adjacency = self.adjacency
        if adjacency.ensure_fresh():
            self.misses += 1
            if self._answered:
                self.rebuilds += 1
        else:
            self.hits += 1
        self._answered = True
        return adjacency

    def invalidate(self) -> None:
        """Drop all derived state (normally the spine feed suffices)."""
        self._pairs = None
        self.adjacency.mark_dirty()

    def stats(self) -> dict[str, int]:
        """Hit / miss / rebuild counters plus columnar-store sizes.

        ``rebuilds`` counts every whole-schema rebuild the index still
        does: a stale ``relationship_pairs`` listing, or a rescan of the
        columnar store after a lossy record or a base mutation under a
        fork.
        """
        adjacency = self.adjacency.stats()
        return {
            "hits": self.hits,
            "misses": self.misses,
            "rebuilds": self.rebuilds,
            "generation": self._schema.generation,
            "adjacency_ids": adjacency["ids"],
            "adjacency_capacity": adjacency["capacity"],
            "adjacency_free_ids": adjacency["free_ids"],
            "adjacency_rebuilds": adjacency["rebuilds"],
        }

    def reset_stats(self) -> None:
        """Zero the counters (benchmarks measure phases separately)."""
        self.hits = 0
        self.misses = 0
        self.rebuilds = 0

    # ------------------------------------------------------------------
    # Declaration order
    # ------------------------------------------------------------------

    def in_declaration_order(self, names) -> list[str]:
        """Defined *names* sorted by declaration position."""
        return self._fresh().in_declaration_order(names)

    def position_of(self, name: str) -> int:
        """Declaration sort key of defined *name*: ordered like the
        declaration, but not contiguous."""
        return self._fresh().position_of(name)

    def declaration_rank(self, name: str) -> int:
        """Index of defined *name* in ``Schema.type_names()``."""
        return self._fresh().declaration_rank(name)

    def declaration_order(self) -> dict[str, int]:
        """Interface name -> position in declaration order (on demand)."""
        return self._fresh().declaration_order()

    # ------------------------------------------------------------------
    # Generalization hierarchy
    # ------------------------------------------------------------------

    def subtypes_of(self, name: str) -> list[str]:
        """Direct subtypes of *name* (defined or dangling), in
        declaration order."""
        adjacency = self._fresh()
        return adjacency.in_declaration_order(adjacency.children_of(name))

    def children_of(self, name: str) -> list[str]:
        """Direct subtypes of *name* in no particular order."""
        return self._fresh().children_of(name)

    def ancestors_of(self, name: str) -> set[str]:
        """Transitive resolved supertypes of *name*."""
        return self._fresh().ancestors_of(name)

    def descendants_of(self, name: str) -> set[str]:
        """Transitive subtypes of *name*; excludes *name* itself.

        Answered from the columnar store: an integer BFS over the flat
        ISA-children rows, folded record-by-record from the spine, so a
        100-op plan pays O(ops) maintenance instead of O(N) rebuilds.
        """
        return self._fresh().descendants_of(name)

    def descendants_closure(self, seeds: set[str]) -> set[str]:
        """Every descendant of any seed, the seeds themselves excluded
        unless reachable from another seed."""
        return self._fresh().descendants_closure(seeds)

    def generalization_roots(self) -> list[str]:
        """Types with subtypes but no resolved supertypes."""
        return self._fresh().generalization_roots()

    def subtype_map(self) -> dict[str, list[str]]:
        """Supertype name -> direct subtypes, in declaration order.

        Built on demand from the child rows (keys include dangling
        supertype names); for whole-map callers, not for edits.
        """
        adjacency = self._fresh()
        return {
            parent: adjacency.in_declaration_order(children)
            for parent, children in adjacency.isa_children_map().items()
        }

    # ------------------------------------------------------------------
    # Reverse references (who mentions type X?)
    # ------------------------------------------------------------------

    def referencers_of(self, target: str) -> set[str]:
        """Names of interfaces whose definition references *target*.

        Reference = supertype entry, attribute domain, relationship
        target/inverse type, or operation signature type — exactly
        :meth:`InterfaceDef.referenced_type_names`.  Maintained
        incrementally: a mutator record only marks its owner pending,
        and pending owners re-derive their reference rows lazily.
        """
        return self._fresh().referencers_of(target)

    def ends_targeting(
        self, targets: set[str]
    ) -> list[tuple[str, RelationshipEnd]]:
        """(owner, end) pairs with ``end.target_type`` in *targets*.

        Same relative order as :meth:`relationship_pairs`, but computed
        from the incremental reverse-reference rows: an end targeting X
        implies its owner references X (``referenced_type_names``
        includes every end's target type), so only referencing owners'
        end lists are inspected, sorted by declaration position.
        """
        adjacency = self._fresh()
        interfaces = self._schema.interfaces
        owners: set[str] = {name for name in targets if name in interfaces}
        for target in targets:
            owners.update(adjacency.referencers_of(target))
        return [
            (owner, end)
            for owner in adjacency.in_declaration_order(owners)
            for end in interfaces[owner].relationships.values()
            if end.target_type in targets
        ]

    def extent_owners(self, extent: str) -> list[str]:
        """Interfaces declaring the extent name, in declaration order."""
        return self._fresh().extent_owners(extent)

    # ------------------------------------------------------------------
    # Part-of / instance-of hierarchies
    # ------------------------------------------------------------------

    def part_of_edges(self) -> list[Edge]:
        """(whole, part, to-parts end) triples, in declaration order."""
        return self._fresh().link_edges(_PART_OF)

    def instance_of_edges(self) -> list[Edge]:
        """(generic, instance, to-instances end) triples."""
        return self._fresh().link_edges(_INSTANCE_OF)

    def part_of_edge_count(self) -> int:
        """Number of part-of edges without listing them."""
        return self._fresh().link_edge_count(_PART_OF)

    def instance_of_edge_count(self) -> int:
        """Number of instance-of edges without listing them."""
        return self._fresh().link_edge_count(_INSTANCE_OF)

    def parts_of(self, name: str) -> list[str]:
        """Direct parts of *name*, in end order (one per edge)."""
        return self._fresh().link_targets(_PART_OF, name)

    def wholes_of(self, name: str) -> list[str]:
        """Direct wholes of *name*, in declaration order (one per edge)."""
        return self._fresh().link_sources(_PART_OF, name)

    def instances_of(self, name: str) -> list[str]:
        """Direct instances of the generic *name* (one per edge)."""
        return self._fresh().link_targets(_INSTANCE_OF, name)

    def generics_of(self, name: str) -> list[str]:
        """Direct generics of *name*, in declaration order."""
        return self._fresh().link_sources(_INSTANCE_OF, name)

    def aggregation_roots(self) -> list[str]:
        """Wholes that are not themselves parts of anything."""
        return self._fresh().link_roots(_PART_OF)

    def instance_of_roots(self) -> list[str]:
        """Generic entities that are not instances of anything."""
        return self._fresh().link_roots(_INSTANCE_OF)

    # ------------------------------------------------------------------
    # Whole-schema listings
    # ------------------------------------------------------------------

    def relationship_pairs(self) -> list[tuple[str, RelationshipEnd]]:
        """Every (owner name, end) pair in declaration order."""
        stamp = self._clock.stamp(_PAIR_DEPS)
        cached = self._pairs
        if cached is not None:
            if cached[0] == stamp:
                self.hits += 1
                return cached[1]
            self.rebuilds += 1
        self.misses += 1
        pairs = scan_relationship_pairs(self._schema)
        self._pairs = (stamp, pairs)
        return pairs


# ----------------------------------------------------------------------
# Full-scan reference implementations
# ----------------------------------------------------------------------
#
# These are the pre-index query bodies, preserved verbatim in behaviour.
# The invalidation property tests assert that after any operation stream
# (including undo / redo / reset) every indexed query still equals its
# scan counterpart, and the scaling bench quantifies what the index buys
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


def scan_relationship_pairs(
    schema: "Schema",
) -> list[tuple[str, RelationshipEnd]]:
    """Every (owner name, end) pair in declaration order."""
    return [
        (interface.name, end)
        for interface in schema
        for end in interface.relationships.values()
    ]


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
