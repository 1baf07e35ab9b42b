"""Memoized reverse-adjacency indexes over a schema's link graphs.

Every concept-schema extraction, propagation expansion, and consistency
pass bottoms out in :class:`~repro.model.schema.Schema`'s graph queries.
Answering them by scanning all interfaces makes ``descendants`` O(N^2)
and rebuilds the complete part-of edge list on every ``parts`` call.
:class:`SchemaIndex` maintains the reverse direction of each link family
once and answers from dictionaries instead:

* ``subtype_map``     -- supertype name -> direct subtype names,
* ``parts_map``       -- whole name -> direct part names,
* ``wholes_map``      -- part name -> direct whole names,
* ``instance_map``    -- generic name -> direct instance names,
* ``generic_map``     -- instance name -> direct generic names,
* ``part_of_edges`` / ``instance_of_edges`` -- the cached edge triples,
* ``relationship_pairs`` -- the cached (owner, end) listing,
* ``declaration_order``  -- interface name -> declaration position.

**Invalidation contract.**  The index is a subscriber of the schema's
mutation spine (:mod:`repro.model.mutation`): ``Schema.generation`` is
the spine's monotonic ``seq``, bumped by every emitted
:class:`~repro.model.mutation.MutationRecord` -- i.e. by every mutator
on :class:`~repro.model.schema.Schema` and
:class:`~repro.model.interface.InterfaceDef`.  Each cache family is
stamped with the generation it was built at; a query whose stamp no
longer matches rebuilds that family lazily.  Code that mutates schema
content without going through a mutator (direct container assignment)
must call ``Schema.touch()`` itself -- see DESIGN.md §5e.

The module also ships the ``scan_*`` reference implementations: the
original full-scan queries, kept as the executable specification the
index is validated against (property tests) and benchmarked against
(``benchmarks/test_bench_index_scaling.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.model.columnar import ColumnarAdjacency
from repro.model.mutation import ORDER_CLOCK, Aspect, AspectClock, MutationRecord
from repro.model.relationships import RelationshipEnd, RelationshipKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.model.schema import Schema

#: (one-side owner, many-side target, to-many end) of one hierarchy link.
Edge = tuple[str, str, RelationshipEnd]


# Aspect-sharded stamp dependencies per cache family.  A family rebuilds
# only when a record carrying one of its dependency clocks has landed on
# the spine since it was built (membership and declaration order affect
# every listing's content or ordering).
_ISA_DEPS = (Aspect.ISA, Aspect.MEMBERSHIP, ORDER_CLOCK)
_PART_DEPS = (Aspect.REL_PART_OF, Aspect.MEMBERSHIP, ORDER_CLOCK)
_INSTANCE_DEPS = (Aspect.REL_INSTANCE_OF, Aspect.MEMBERSHIP, ORDER_CLOCK)
_PAIR_DEPS = (
    Aspect.REL_ASSOCIATION,
    Aspect.REL_PART_OF,
    Aspect.REL_INSTANCE_OF,
    Aspect.MEMBERSHIP,
    ORDER_CLOCK,
)
_ORDER_DEPS = (Aspect.MEMBERSHIP, ORDER_CLOCK)


class SchemaIndex:
    """Aspect-stamped caches plus the columnar incremental adjacency.

    Two complementary mechanisms keep graph queries fast at 100k types:

    * **Aspect-sharded stamps** -- each scan-built cache family stamps
      the :class:`~repro.model.mutation.AspectClock` counters of only
      the aspects whose records can change it, so an attribute edit no
      longer forces an O(N) subtype-map rebuild.
    * **Columnar adjacency** -- ISA parents/children and the reverse
      reference map live in :class:`~repro.model.columnar.
      ColumnarAdjacency`: interned-name integer ids over flat
      ``array('i')`` rows with free-list id reuse, folded
      record-by-record from the spine, so ``descendants`` and "who
      references type X" answer in O(result) with no per-mutation
      rebuild at all and no per-edge container overhead.  The previous
      dict implementation survives as :class:`~repro.model.columnar.
      DictAdjacency`, the differential reference spec.

    ``scope`` records are declarative annotations (belt-and-suspenders
    for the validation journal's dirty-name set); actual content changes
    always land as mutator records (the ``spine`` lint pass and the
    spine differentials enforce this), so they advance no clock here.
    Lossy records (``touch`` / unknown kinds) invalidate everything.
    """

    __slots__ = (
        "_schema",
        "_caches",
        "_clock",
        "adjacency",
        "hits",
        "misses",
        "rebuilds",
    )

    def __init__(self, schema: "Schema") -> None:
        self._schema = schema
        self._caches: dict[str, tuple[object, object]] = {}
        self._clock = AspectClock()
        #: The columnar (struct-of-arrays) ISA / reverse-reference store:
        #: interned-name ids, flat ``array('i')`` rows, free-list reuse.
        #: The dict implementation it replaced survives as
        #: :class:`repro.model.columnar.DictAdjacency`, the reference
        #: spec the ``columnar-vs-dict-adjacency`` differential holds
        #: this store to.
        self.adjacency = ColumnarAdjacency(schema)
        self.hits = 0
        self.misses = 0
        self.rebuilds = 0
        schema.log.subscribe(self._observe)

    # ------------------------------------------------------------------
    # Spine subscriber
    # ------------------------------------------------------------------

    def _observe(self, record: MutationRecord) -> None:
        """Fold one mutation record into clocks and the columnar store."""
        if record.kind == "scope":
            return
        self._clock.observe(record)
        self.adjacency.observe(record)

    def adopt_base_adjacency(self, parent: "SchemaIndex") -> None:
        """Overlay the parent's columnar store instead of rebuilding.

        Called by ``Schema.fork`` right after the fork's fresh index is
        wired: replaces the cold (dirty) columnar store with a CoW
        overlay of the parent's, so the fork's first graph query costs
        O(ids) pointer copies instead of an O(types) scan rebuild.  The
        sharded dict caches stay cold -- they are already lazy and
        per-family.  ``_observe`` looks ``self.adjacency`` up
        dynamically, so swapping the store here keeps the spine
        subscription intact.
        """
        self.adjacency = parent.adjacency.fork_view(self._schema)

    def _count_adjacency(self, rebuilt: bool) -> None:
        """Keep the hit/miss counters honest for columnar answers."""
        if rebuilt:
            self.misses += 1
        else:
            self.hits += 1

    # ------------------------------------------------------------------
    # Cache machinery
    # ------------------------------------------------------------------

    def _get(self, family: str, builder: Callable[[], object]) -> object:
        generation = self._schema.generation
        cached = self._caches.get(family)
        if cached is not None:
            if cached[0] == generation:
                self.hits += 1
                return cached[1]
            self.rebuilds += 1
        self.misses += 1
        value = builder()
        self._caches[family] = (generation, value)
        return value

    def _get_sharded(
        self,
        family: str,
        deps: tuple[object, ...],
        builder: Callable[[], object],
    ) -> object:
        """Like :meth:`_get` but stamped with per-aspect clocks."""
        stamp = self._clock.stamp(deps)
        cached = self._caches.get(family)
        if cached is not None:
            if cached[0] == stamp:
                self.hits += 1
                return cached[1]
            self.rebuilds += 1
        self.misses += 1
        value = builder()
        self._caches[family] = (stamp, value)
        return value

    def invalidate(self) -> None:
        """Drop every cache family (normally the stamps suffice)."""
        self._caches.clear()
        self.adjacency.mark_dirty()

    def memo(self, family: str, builder: Callable[[], object]) -> object:
        """Generation-stamped memoization for derived whole-schema values.

        Callers own the *family* namespace (prefix it); the cached value
        is dropped automatically when the schema's generation moves, so
        the value must be a pure function of schema content.  Used by
        the verification engine to avoid re-fingerprinting an unchanged
        schema between differential checks.
        """
        return self._get(family, builder)

    def stats(self) -> dict[str, int]:
        """Hit / miss / rebuild counters plus current cache residency."""
        adjacency = self.adjacency.stats()
        return {
            "hits": self.hits,
            "misses": self.misses,
            "rebuilds": self.rebuilds,
            "cached_families": len(self._caches),
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
    # Generalization hierarchy
    # ------------------------------------------------------------------

    def subtype_map(self) -> dict[str, list[str]]:
        """Supertype name -> direct subtypes, in declaration order.

        Keys include dangling supertype names (a subtype may reference a
        type the schema does not define); resolution against the schema
        is the caller's concern.
        """
        return self._get_sharded(  # type: ignore[return-value]
            "subtypes", _ISA_DEPS, self._build_subtype_map
        )

    def _build_subtype_map(self) -> dict[str, list[str]]:
        result: dict[str, list[str]] = {}
        for interface in self._schema:
            for supertype in interface.supertypes:
                result.setdefault(supertype, []).append(interface.name)
        return result

    def descendants_of(self, name: str) -> set[str]:
        """Transitive subtypes of *name*; excludes *name* itself.

        Answered from the columnar store: an integer BFS over the flat
        ISA-children rows, folded record-by-record from the spine, so a
        100-op plan pays O(ops) maintenance instead of O(N) rebuilds.
        """
        self._count_adjacency(self.adjacency.ensure_fresh())
        return self.adjacency.descendants_of(name)

    def descendants_closure(self, seeds: set[str]) -> set[str]:
        """Every descendant of any seed, the seeds themselves excluded
        unless reachable from another seed."""
        self._count_adjacency(self.adjacency.ensure_fresh())
        return self.adjacency.descendants_closure(seeds)

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
        self._count_adjacency(self.adjacency.ensure_fresh())
        return self.adjacency.referencers_of(target)

    def ends_targeting(
        self, targets: set[str]
    ) -> list[tuple[str, RelationshipEnd]]:
        """(owner, end) pairs with ``end.target_type`` in *targets*.

        Same relative order as :meth:`relationship_pairs`, but computed
        from the incremental reverse-reference rows: an end targeting X
        implies its owner references X (``referenced_type_names``
        includes every end's target type), so only referencing owners'
        end lists are inspected — no whole-schema pair listing rebuild.
        """
        self._count_adjacency(self.adjacency.ensure_fresh())
        owners: set[str] = set(targets)
        for target in targets:
            owners.update(self.adjacency.referencers_of(target))
        pairs: list[tuple[str, RelationshipEnd]] = []
        if not owners:
            return pairs
        for name in self._schema.interfaces:
            if name not in owners:
                continue
            for end in self._schema.interfaces[name].relationships.values():
                if end.target_type in targets:
                    pairs.append((name, end))
        return pairs

    # ------------------------------------------------------------------
    # Part-of / instance-of hierarchies
    # ------------------------------------------------------------------

    def part_of_edges(self) -> list[Edge]:
        """(whole, part, to-parts end) triples, in declaration order."""
        return self._get_sharded(  # type: ignore[return-value]
            "part_edges",
            _PART_DEPS,
            lambda: scan_link_edges(self._schema, RelationshipKind.PART_OF),
        )

    def instance_of_edges(self) -> list[Edge]:
        """(generic, instance, to-instances end) triples."""
        return self._get_sharded(  # type: ignore[return-value]
            "instance_edges",
            _INSTANCE_DEPS,
            lambda: scan_link_edges(self._schema, RelationshipKind.INSTANCE_OF),
        )

    def part_of_edge_count(self) -> int:
        """Number of part-of edges without copying the edge list.

        ``Schema.stats()`` used to materialise a fresh edge-list copy
        just to ``len()`` it; this answers from the cached family in
        O(1) once built.
        """
        return len(self.part_of_edges())

    def instance_of_edge_count(self) -> int:
        """Number of instance-of edges without copying the edge list."""
        return len(self.instance_of_edges())

    def parts_map(self) -> dict[str, list[str]]:
        """Whole name -> direct part names."""
        return self._get_sharded(  # type: ignore[return-value]
            "parts", _PART_DEPS, lambda: _forward_map(self.part_of_edges())
        )

    def wholes_map(self) -> dict[str, list[str]]:
        """Part name -> direct whole names."""
        return self._get_sharded(  # type: ignore[return-value]
            "wholes", _PART_DEPS, lambda: _reverse_map(self.part_of_edges())
        )

    def instance_map(self) -> dict[str, list[str]]:
        """Generic name -> direct instance names."""
        return self._get_sharded(  # type: ignore[return-value]
            "instances",
            _INSTANCE_DEPS,
            lambda: _forward_map(self.instance_of_edges()),
        )

    def generic_map(self) -> dict[str, list[str]]:
        """Instance name -> direct generic names."""
        return self._get_sharded(  # type: ignore[return-value]
            "generics",
            _INSTANCE_DEPS,
            lambda: _reverse_map(self.instance_of_edges()),
        )

    # ------------------------------------------------------------------
    # Whole-schema listings
    # ------------------------------------------------------------------

    def relationship_pairs(self) -> list[tuple[str, RelationshipEnd]]:
        """Every (owner name, end) pair in declaration order."""
        return self._get_sharded(  # type: ignore[return-value]
            "pairs", _PAIR_DEPS, lambda: scan_relationship_pairs(self._schema)
        )

    def declaration_order(self) -> dict[str, int]:
        """Interface name -> position in declaration order."""
        return self._get_sharded(  # type: ignore[return-value]
            "order",
            _ORDER_DEPS,
            lambda: {name: i for i, name in enumerate(self._schema.interfaces)},
        )


def _forward_map(edges: list[Edge]) -> dict[str, list[str]]:
    result: dict[str, list[str]] = {}
    for owner, target, _ in edges:
        result.setdefault(owner, []).append(target)
    return result


def _reverse_map(edges: list[Edge]) -> dict[str, list[str]]:
    result: dict[str, list[str]] = {}
    for owner, target, _ in edges:
        result.setdefault(target, []).append(owner)
    return result


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
