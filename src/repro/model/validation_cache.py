"""Incremental structural validation.

The paper's interactive tool validates the custom schema after every
single modification operation (Section 3, Figure 1).  The reference
implementation, :func:`repro.model.validation.validate_schema`, re-runs
all nine structural rules over the whole schema on each call — O(schema)
per operation, O(schema · ops) per session.  :class:`ValidationCache`
makes per-op validation O(dirty set): it keeps the issues of every
interface (for the five per-interface rules) and of every link-graph
component (for the three cycle rules and the multi-root warning), and
after each batch of mutations re-checks only what the batch could have
changed.

Dirty-set derivation
--------------------

Mutations reach the cache through one channel: the schema's mutation
spine.  The :class:`~repro.model.mutation.DirtyJournal` is a spine
subscriber that folds every emitted
:class:`~repro.model.mutation.MutationRecord` into its dirty set —
interface-level mutator records carry the owner name plus the
:class:`~repro.model.mutation.Aspect` members they changed, membership
records mark added/removed names, and operations additionally declare
their scope via :meth:`Schema.note_validation_scope` (a ``scope``
record on the same spine).

From the journal the cache closes over the rule scopes declared in
:data:`repro.model.validation.RULE_SCOPES`:

1. seeds = touched names (aspects intersecting some rule's scope)
   plus every added/removed name;
2. inheritance closure: seeds touched in an aspect of
   :data:`~repro.model.validation.DESCEND_ASPECTS` spread to their
   transitive subtypes (inherited attributes feed key and order-by
   resolution), walked over the graph store's ISA child rows — which
   dangling supertype names keep, so adding or removing a type reaches
   the subtrees that (un)resolved under it;
3. reference closure: interfaces that reference any closed-over name
   are re-checked too (inverse declarations, order-by targets, and
   dangling references all read other interfaces).  The referencers come
   from the graph store's reverse-reference rows
   (``Schema.index.referencers_of``) and so reflect the current schema;
   an interface that referenced a name at the previous validation but
   no longer does was itself mutated, so it is a seed already.

Everything outside the closure provably yields the same issues as
before, so its cached tuples are reused verbatim.

Cycle and component rules
-------------------------

A cycle rule reports at most one issue: the first cycle found by a DFS
over interfaces in declaration order.  When the cached result is *empty*
the graph was acyclic, edges only change at touched/removed owners, and
a new cycle must run through a changed edge — so the cache re-runs the
DFS only over the weak components containing the seeds (directed
reachability never crosses a weak-component boundary, hence visiting
those nodes in declaration order reproduces the full scan's answer
exactly).  When the cached result is *non-empty* the rule is recomputed
in full — a transient state the interactive loop leaves immediately.
The multi-root warning is cached per weak component of the
generalization graph; touched components (plus members of cached
entries they split from or merge into) are recomputed and the report is
re-sorted by first-member declaration order, matching the full scan.

Assembly
--------

The issue list is rebuilt after every validation, but only from the
interfaces that hold issues: the cache tracks the names whose slot
tuples are non-empty and emits their slots sorted by declaration
position (the graph store keeps one per name), then the cycle findings, then
keys and order-by, then the multi-root findings by their members'
smallest position.  An edit therefore costs O(changed + issues), never
a walk over every type name.

The full scan stays the byte-for-byte reference: the
``incremental-vs-full-validation`` invariant in
:mod:`repro.verify.invariants` asserts list equality after every fuzzer
step.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from repro.model.mutation import Aspect
from repro.model.relationships import RelationshipKind
from repro.model.validation import (
    DESCEND_ASPECTS,
    INTERFACE_RULES,
    VALIDATION_ASPECTS,
    Issue,
    _find_cycle,
    component_roots,
    instance_of_cycle_issue,
    isa_cycle_issue,
    isa_successors,
    multi_root_issue,
    part_of_cycle_issue,
    raise_on_errors,
)

if TYPE_CHECKING:
    from repro.model.schema import Schema

_PART_OF = RelationshipKind.PART_OF
_INSTANCE_OF = RelationshipKind.INSTANCE_OF

#: Issue tuples of one interface, slot-aligned with ``INTERFACE_RULES``.
_Slots = tuple[tuple[Issue, ...], ...]

#: One cached multi-root finding: the component's members, its issue,
#: and its members' smallest declaration position (the report's order).
_ComponentEntry = tuple[frozenset[str], Issue, int]


class _CycleFamily:
    """Static description of one cycle rule (graph + issue builder)."""

    __slots__ = ("name", "aspect", "successors", "issue", "adjacency")

    def __init__(
        self,
        name: str,
        aspect: str,
        successors: Callable[["Schema"], Callable[[str], Iterable[str]]],
        issue: Callable[[list[str]], Issue],
        adjacency: Callable[["Schema", str], Iterable[str]],
    ) -> None:
        self.name = name
        self.aspect = aspect
        self.successors = successors
        self.issue = issue
        self.adjacency = adjacency


def _isa_adjacency(schema: "Schema", name: str) -> Iterable[str]:
    """Undirected neighbours of *name* in the resolved ISA graph."""
    interfaces = schema.interfaces
    for supertype in interfaces[name].supertypes:
        if supertype in interfaces:
            yield supertype
    yield from schema.index.children_of(name)


def _part_of_adjacency(schema: "Schema", name: str) -> Iterable[str]:
    """Undirected neighbours in the aggregation graph."""
    index = schema.index
    yield from index.link_targets(_PART_OF, name)
    yield from index.link_sources(_PART_OF, name)


def _instance_of_adjacency(schema: "Schema", name: str) -> Iterable[str]:
    """Undirected neighbours in the instance-of graph."""
    index = schema.index
    yield from index.link_targets(_INSTANCE_OF, name)
    yield from index.link_sources(_INSTANCE_OF, name)


def _part_of_successors_fast(
    schema: "Schema",
) -> Callable[[str], Iterable[str]]:
    """Store-backed twin of ``validation.link_successors`` for part-of.

    The reference spec reads a node's to-many ends off its interface
    (it must stay cache-independent); the cache reads one node's parts
    off the store's link state, which lists a whole's parts in the same
    end order, so the two successor functions agree entry for entry.
    """
    return partial(schema.index.link_targets, _PART_OF)


def _instance_of_successors_fast(
    schema: "Schema",
) -> Callable[[str], Iterable[str]]:
    """Store-backed twin of ``validation.link_successors`` for
    instance-of."""
    return partial(schema.index.link_targets, _INSTANCE_OF)


_CYCLE_FAMILIES: tuple[_CycleFamily, ...] = (
    _CycleFamily(
        "isa", Aspect.ISA, isa_successors, isa_cycle_issue, _isa_adjacency
    ),
    _CycleFamily(
        "part-of",
        Aspect.REL_PART_OF,
        _part_of_successors_fast,
        part_of_cycle_issue,
        _part_of_adjacency,
    ),
    _CycleFamily(
        "instance-of",
        Aspect.REL_INSTANCE_OF,
        _instance_of_successors_fast,
        instance_of_cycle_issue,
        _instance_of_adjacency,
    ),
)


class ValidationCache:
    """Per-interface / per-component issue cache over one schema.

    Create via :attr:`Schema.validation` (lazily, one per schema).
    :meth:`validate` returns exactly what
    :func:`~repro.model.validation.validate_schema` would, re-checking
    only the dirty set accumulated in the schema's journal since the
    previous call.
    """

    __slots__ = (
        "_schema",
        "_stamp",
        "_interface_issues",
        "_flagged",
        "_cycle_issues",
        "_components",
        "_assembled",
        "clean_hits",
        "full_validations",
        "incremental_validations",
        "interfaces_revalidated",
        "interfaces_reused",
    )

    def __init__(self, schema: "Schema") -> None:
        self._schema = schema
        #: Generation at the last (re)validation; ``None`` = never ran.
        self._stamp: int | None = None
        self._interface_issues: dict[str, _Slots] = {}
        #: Names whose slot tuples hold at least one issue.
        self._flagged: set[str] = set()
        self._cycle_issues: dict[str, tuple[Issue, ...]] = {}
        self._components: list[_ComponentEntry] = []
        self._assembled: list[Issue] = []
        # Counters surfaced through Schema.stats().
        self.clean_hits = 0
        self.full_validations = 0
        self.incremental_validations = 0
        self.interfaces_revalidated = 0
        self.interfaces_reused = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def validate(self, raise_on_error: bool = False) -> list[Issue]:
        """All current issues, in the reference scan's order.

        Semantics match :func:`~repro.model.validation.validate_schema`
        exactly, including the :class:`~repro.model.errors.
        ValidationError` raised (and its message) under
        ``raise_on_error``.
        """
        schema = self._schema
        generation = schema.generation
        if self._stamp == generation:
            self.clean_hits += 1
        elif self._stamp is None or schema.journal.full:
            self.full_validations += 1
            self._rebuild_all()
            schema.journal.clear()
            self._assembled = self._assemble()
            self._stamp = generation
        else:
            self.incremental_validations += 1
            self._apply_dirty()
            schema.journal.clear()
            self._assembled = self._assemble()
            self._stamp = generation
        issues = list(self._assembled)
        if raise_on_error:
            raise_on_errors(schema.name, issues)
        return issues

    def recheck_interfaces(self, names: Iterable[str]) -> Iterator[str]:
        """Differential over the cached per-interface issue slots.

        For each *name*, recompute the ``INTERFACE_RULES`` slots from
        the live interface and compare them with what the cache holds
        (removed names must hold nothing); yield one message per
        mismatch.  Callers fold pending dirt first with
        :meth:`validate`.  This is the O(changed) form of the
        ``incremental-vs-full-validation`` invariant (DESIGN 5i): cost
        is O(names x rules), never O(schema).
        """
        schema = self._schema
        for name in names:
            interface = schema.interfaces.get(name)
            cached = self._interface_issues.get(name)
            if interface is None:
                if cached is not None:
                    yield (
                        f"validation cache still holds issue slots for "
                        f"removed interface {name!r}"
                    )
                continue
            if cached is None:
                yield (
                    f"validation cache has no issue slots for live "
                    f"interface {name!r}"
                )
                continue
            fresh = tuple(
                tuple(rule(schema, interface)) for rule in INTERFACE_RULES
            )
            if fresh != cached:
                for slot, (want, got) in enumerate(zip(fresh, cached)):
                    if want != got:
                        yield (
                            f"cached issues for {name!r} slot {slot} "
                            f"({INTERFACE_RULES[slot].__name__}) are stale: "
                            f"cache {[str(i) for i in got]!r} != fresh "
                            f"{[str(i) for i in want]!r}"
                        )

    def stats(self) -> dict[str, int]:
        """Hit/miss counters (also folded into ``Schema.stats()``)."""
        return {
            "clean_hits": self.clean_hits,
            "full_validations": self.full_validations,
            "incremental_validations": self.incremental_validations,
            "interfaces_revalidated": self.interfaces_revalidated,
            "interfaces_reused": self.interfaces_reused,
        }

    def reset_stats(self) -> None:
        """Zero the counters (benchmarks measure phases separately)."""
        self.clean_hits = 0
        self.full_validations = 0
        self.incremental_validations = 0
        self.interfaces_revalidated = 0
        self.interfaces_reused = 0

    # ------------------------------------------------------------------
    # Full rebuild
    # ------------------------------------------------------------------

    def _rebuild_all(self) -> None:
        schema = self._schema
        self._interface_issues.clear()
        self._flagged.clear()
        for interface in schema:
            self._revalidate_interface(interface.name)
        for family in _CYCLE_FAMILIES:
            cycle = _find_cycle(
                schema.type_names(), family.successors(schema)
            )
            self._cycle_issues[family.name] = (
                (family.issue(cycle),) if cycle is not None else ()
            )
        self._components, _ = self._scan_components(schema.type_names())

    # ------------------------------------------------------------------
    # Incremental update
    # ------------------------------------------------------------------

    def _apply_dirty(self) -> None:
        schema = self._schema
        journal = schema.journal
        interfaces = schema.interfaces

        membership = journal.added | journal.removed
        gone = [
            name
            for name in (membership | set(journal.touched))
            if name not in interfaces
        ]
        touched = {
            name: aspects
            for name, aspects in journal.touched.items()
            if name in interfaces and aspects & VALIDATION_ASPECTS
        }

        # 1. Seeds: touched (in a rule-relevant aspect) + membership.
        seeds = set(touched) | (membership & interfaces.keys())

        # 2. Inheritance closure over the new subtype graph.  Walk from
        # membership changes too: dangling names keep their child rows,
        # so subtrees that (un)resolved under an added/removed
        # supertype are reached through it.
        descend_from = set(membership)
        descend_from.update(
            name
            for name, aspects in touched.items()
            if aspects & DESCEND_ASPECTS
        )
        closed = seeds | self._descendants_of(descend_from)

        # 3. Reference closure over the current references (interfaces
        # whose own references changed are seeds already).
        dirty = set(closed)
        for name in closed | membership:
            dirty.update(schema.index.referencers_of(name))
        dirty &= interfaces.keys()

        for name in gone:
            self._interface_issues.pop(name, None)
            self._flagged.discard(name)
        for name in dirty:
            self._revalidate_interface(name)
        self.interfaces_revalidated += len(dirty)
        self.interfaces_reused += len(interfaces) - len(dirty)

        for family in _CYCLE_FAMILIES:
            self._update_cycle_family(family, touched, membership, journal)
        self._update_components(touched, membership)
        if journal.order_changed:
            # Positions were renumbered: re-key every cached finding.
            first = self._first_position
            self._components = [
                (members, issue, first(members))
                for members, issue, _ in self._components
            ]

    def _descendants_of(self, roots: set[str]) -> set[str]:
        """Transitive subtypes of *roots* (roots excluded) via the store.

        Uses the graph store's incrementally maintained ISA child rows,
        so seeding the dirty closure never forces an O(N) subtype-map
        rebuild mid-plan.
        """
        if not roots:
            return set()
        return self._schema.index.descendants_closure(roots)

    # ------------------------------------------------------------------
    # Per-interface slots
    # ------------------------------------------------------------------

    def _revalidate_interface(self, name: str) -> None:
        schema = self._schema
        interface = schema.interfaces[name]
        slots = tuple(
            tuple(rule(schema, interface)) for rule in INTERFACE_RULES
        )
        self._interface_issues[name] = slots
        if any(slots):
            self._flagged.add(name)
        else:
            self._flagged.discard(name)

    # ------------------------------------------------------------------
    # Cycle rules
    # ------------------------------------------------------------------

    def _update_cycle_family(
        self,
        family: _CycleFamily,
        touched: dict[str, set[str]],
        membership: set[str],
        journal,
    ) -> None:
        schema = self._schema
        seeds = set(membership)
        seeds.update(
            name
            for name, aspects in touched.items()
            if family.aspect in aspects
        )
        cached = self._cycle_issues[family.name]
        if not seeds:
            # Declaration order moved but no edge changed: an acyclic
            # graph stays acyclic, yet *which* cycle the scan reports
            # depends on the order, so a cyclic result is recomputed.
            if journal.order_changed and cached:
                self._recompute_cycle_family(family)
            return
        if cached:
            # A reported cycle may pass far from the touched edges, and
            # fixing it can unmask a different one anywhere; the state
            # is transient (the designer is told to fix it), so pay the
            # full DFS.
            self._recompute_cycle_family(family)
            return
        # Acyclic before: any new cycle runs through a changed edge, and
        # every changed edge has a seed endpoint, so checking the seeds'
        # weak components in declaration order replicates the full scan
        # (directed reachability cannot leave a weak component).
        component = self._weak_component(family, seeds)
        if not component:
            return
        nodes = schema.index.in_declaration_order(
            component & schema.interfaces.keys()
        )
        cycle = _find_cycle(nodes, family.successors(schema))
        self._cycle_issues[family.name] = (
            (family.issue(cycle),) if cycle is not None else ()
        )

    def _recompute_cycle_family(self, family: _CycleFamily) -> None:
        schema = self._schema
        cycle = _find_cycle(schema.type_names(), family.successors(schema))
        self._cycle_issues[family.name] = (
            (family.issue(cycle),) if cycle is not None else ()
        )

    def _weak_component(
        self, family: _CycleFamily, seeds: set[str]
    ) -> set[str]:
        """Union of the seeds' weak components in the family's graph."""
        schema = self._schema
        interfaces = schema.interfaces
        component: set[str] = set()
        frontier = [name for name in seeds if name in interfaces]
        while frontier:
            current = frontier.pop()
            if current in component:
                continue
            component.add(current)
            frontier.extend(family.adjacency(schema, current))
        return component

    # ------------------------------------------------------------------
    # Multi-root components
    # ------------------------------------------------------------------

    def _update_components(
        self,
        touched: dict[str, set[str]],
        membership: set[str],
    ) -> None:
        schema = self._schema
        seeds = set(membership)
        seeds.update(
            name
            for name, aspects in touched.items()
            if Aspect.ISA in aspects
        )
        if not seeds:
            return  # order changes only re-key entries (_apply_dirty)
        # Members of cached entries a seed belonged to must be re-walked
        # too: an edge removal can strand the rest of a component away
        # from every seed.
        walk_seeds = set(seeds)
        kept: list[_ComponentEntry] = []
        for entry in self._components:
            members = entry[0]
            if members & seeds:
                walk_seeds.update(members)
            else:
                kept.append(entry)
        # A removed interface is no walk start, but unresolving the ISA
        # links under it can re-root its former subtrees; a dangling
        # name keeps its child row, so start from those children.
        starts: set[str] = set()
        for name in walk_seeds:
            if name in schema.interfaces:
                starts.add(name)
            else:
                starts.update(schema.index.children_of(name))
        fresh, visited = self._scan_components(starts)
        # A merge can absorb an untouched cached component (its members
        # sit inside a freshly walked one, which may even have become
        # single-root); drop every kept entry the walk reached.
        self._components = [
            entry for entry in kept if not entry[0] & visited
        ] + fresh

    def _scan_components(
        self, starts: Iterable[str]
    ) -> tuple[list[_ComponentEntry], set[str]]:
        """Multi-root entries of the ISA components containing *starts*.

        Also returns every member visited, including members of
        components that turned out single-root — the caller must drop
        any cached entry the walk reached.
        """
        schema = self._schema
        entries: list[_ComponentEntry] = []
        seen: set[str] = set()
        for start in starts:
            if start in seen:
                continue
            component: set[str] = set()
            frontier = [start]
            while frontier:
                node = frontier.pop()
                if node in component:
                    continue
                component.add(node)
                frontier.extend(_isa_adjacency(schema, node))
            seen |= component
            if len(component) < 2:
                continue  # no resolved edges: the full scan skips it
            roots = component_roots(schema, component)
            if len(roots) > 1:
                members = frozenset(component)
                entries.append((
                    members,
                    multi_root_issue(roots),
                    self._first_position(members),
                ))
        return entries, seen

    def _first_position(self, members: frozenset[str]) -> int:
        return min(map(self._schema.index.position_of, members))

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------

    def _assemble(self) -> list[Issue]:
        """Concatenate cached tuples in the reference scan's order.

        Only flagged interfaces hold per-interface issues, so only they
        are visited, sorted by declaration position: O(issues), not
        O(types).
        """
        names = self._schema.index.in_declaration_order(self._flagged)
        slots = self._interface_issues
        issues: list[Issue] = []
        for slot in (0, 1, 2):  # dangling, inverses, cardinality
            for name in names:
                issues.extend(slots[name][slot])
        for family in _CYCLE_FAMILIES:
            issues.extend(self._cycle_issues[family.name])
        for slot in (3, 4):  # keys, order-by
            for name in names:
                issues.extend(slots[name][slot])
        ranked = sorted(self._components, key=lambda entry: entry[2])
        issues.extend(issue for _, issue, _ in ranked)
        return issues
