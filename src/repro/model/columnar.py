"""The columnar (struct-of-arrays) graph store behind ``Schema.index``.

Every concept-schema extraction, propagation expansion, and consistency
pass bottoms out in :class:`~repro.model.schema.Schema`'s graph
queries, and the paper's designer re-validates after every single edit.
Answering them by scanning all interfaces makes one edit cost
O(types); this store answers them from state the mutation spine keeps
current instead, and stores that state column-wise so 100k-type
schemas pay no Python-object overhead per node and per edge:

* :class:`NameTable` interns every type *name* (defined or dangling)
  to a dense integer id, refcounted with a free list so ids are reused
  after deletes -- but only once nothing references the name anymore
  (a deleted interface's name may legally live on as another type's
  dangling supertype).
* :class:`ColumnarAdjacency` keeps four parallel columns of flat
  ``array('i')`` rows indexed by id -- supertype parents, ISA children,
  outgoing references, and incoming references -- fed incrementally
  from the schema's mutation spine (it is the spine's subscriber).
  Beside them it keeps the rest of the state an edit queries: a
  declaration position per id, the owners of to-many part-of /
  instance-of ends with their reverse map, and the owners of each
  extent name.

Each record re-derives only its own owner, so an edit costs
O(changed), and every query answers in O(result): results that must
come out in declaration order sort their few names by position, and no
query filters the whole type list.

**Invalidation contract.**  A lossy record (``Schema.touch()`` or an
unknown kind) makes the store rescan the schema on the next query;
code that mutates schema content without going through a mutator must
call ``Schema.touch()`` itself -- see DESIGN.md §5e.

Its specifications are the ``scan_*`` functions of
:mod:`repro.model.index`: :func:`~repro.model.index.scan_adjacency`
derives the four exported maps from the interfaces (the
``columnar-vs-scan`` invariant and the property tests in
``tests/test_columnar_adjacency.py`` require the store to equal it
after every operation), and the other scans are the per-query
references of the ``index-*-vs-scan`` invariants.

**Id / free-list lifecycle.**  An id's refcount is the number of
reasons its name must stay resolvable: +1 while an interface of that
name is defined, +1 per occurrence in any parents row, +1 per
occurrence in any outgoing-reference row.  ``release`` returns the id
to the free list only at zero, which makes reuse safe under dangling
references; :meth:`ColumnarAdjacency.check_integrity` re-derives every
refcount from the rows and is part of the differential contract.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import TYPE_CHECKING, Iterable

from repro.model.mutation import Aspect, MutationRecord, replayable_kind
from repro.model.relationships import RelationshipEnd, RelationshipKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.model.interface import InterfaceDef
    from repro.model.schema import Schema

#: Mutator kinds that change the ISA adjacency incrementally.
ISA_KINDS = frozenset({"add_supertype", "remove_supertype", "set_supertypes"})

#: The implicit 1:N hierarchies, with the aspect their end records carry.
LINK_KINDS = {
    RelationshipKind.PART_OF: Aspect.REL_PART_OF,
    RelationshipKind.INSTANCE_OF: Aspect.REL_INSTANCE_OF,
}


class NameTable:
    """Interned name <-> dense integer id with refcounted free-list reuse."""

    __slots__ = ("_ids", "_names", "_refs", "_free")

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self._names: list[str | None] = []
        self._refs: list[int] = []
        self._free: list[int] = []

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def capacity(self) -> int:
        """Total ids ever allocated (live + free-listed)."""
        return len(self._names)

    @property
    def free_ids(self) -> int:
        return len(self._free)

    def acquire(self, name: str) -> int:
        """Intern *name*, bump its refcount, return its id."""
        ident = self._ids.get(name)
        if ident is None:
            if self._free:
                ident = self._free.pop()
                self._names[ident] = name
                self._refs[ident] = 1
            else:
                ident = len(self._names)
                self._names.append(name)
                self._refs.append(1)
            self._ids[name] = ident
        else:
            self._refs[ident] += 1
        return ident

    def release(self, ident: int) -> bool:
        """Drop one reference; True when the id was freed for reuse."""
        refs = self._refs[ident] - 1
        if refs < 0:
            raise RuntimeError(
                f"NameTable refcount underflow for id {ident} "
                f"({self._names[ident]!r})"
            )
        self._refs[ident] = refs
        if refs:
            return False
        name = self._names[ident]
        assert name is not None
        del self._ids[name]
        self._names[ident] = None
        self._free.append(ident)
        return True

    def id_of(self, name: str) -> int | None:
        """Current id of *name*, or None if not interned (no refcount)."""
        return self._ids.get(name)

    def name_of(self, ident: int) -> str:
        name = self._names[ident]
        if name is None:
            raise KeyError(f"id {ident} is on the free list")
        return name

    def refcount(self, ident: int) -> int:
        return self._refs[ident]

    def names(self) -> Iterable[str]:
        return self._ids.keys()

    def copy(self) -> "NameTable":
        """An independent copy (fresh containers, same id assignment)."""
        dup = NameTable.__new__(NameTable)
        dup._ids = dict(self._ids)
        dup._names = list(self._names)
        dup._refs = list(self._refs)
        dup._free = list(self._free)
        return dup


class ColumnarAdjacency:
    """Flat-array ISA / reverse-reference adjacency over one schema.

    Four columns of per-id ``array('i')`` rows (None = empty):

    * ``_parents[i]``  -- name-ids of interface *i*'s supertypes, in
      declaration order with multiplicity (mirrors the supertype list);
    * ``_children[i]`` -- interface ids of defined types listing name
      *i* as a supertype (deduplicated; set semantics);
    * ``_refs_out[i]`` -- name-ids referenced by interface *i*
      (set semantics; ``InterfaceDef.referenced_type_names``);
    * ``_refs_in[i]``  -- interface ids of definitions referencing
      name *i* (deduplicated).

    Fed record-by-record through :meth:`observe` -- ISA kinds update the
    parent/child columns eagerly, every other interface record marks
    its owner pending so the reference columns re-derive lazily, and a
    lossy record marks the whole store dirty for a scan rebuild --
    exactly the protocol of the dict maps it replaces.

    The same feed keeps the rest of what an edit asks about the link
    graphs, each re-derived for the record's own owner only:

    * ``_position[i]`` -- declaration sort key of defined id *i*:
      appended on ``add_interface``, dropped on ``remove_interface``,
      renumbered on ``reorder_interfaces`` (a record that is O(types)
      itself); ``_order`` holds the live keys ascending, so a rank is
      one bisect;
    * ``_links[kind]`` -- owner -> targets of its to-many ends of a
      part-of / instance-of kind (the owners are the keys), with
      ``_linked_from[kind]`` the reverse (target -> owners, one entry
      per edge), refreshed by ``add/remove/replace_relationship``
      records carrying that kind's aspect and by membership records;
    * ``_extent[i]`` / ``_extent_owners`` -- each interface's extent
      name and the owners of every extent name (``set_extent``).

    Queries that must answer in declaration order sort their few names
    by position; none of them walks the schema.  Each public query
    checks freshness exactly once (:meth:`ensure_fresh`, which also
    keeps the hit / miss / rebuild counters); the helpers it calls
    (``_sorted`` and the other underscore methods) do not re-check.

    **Copy-on-write fork views (DESIGN.md 5j).**  :meth:`fork_view`
    hands a CoW fork an overlay copy: the outer columns, name table,
    and defined bits are copied (pointer-sized work per id, no schema
    scan), while the inner ``array('i')`` rows and the position, link
    and extent state stay shared with the base.  The view privatises a
    row the first time it mutates it (:meth:`_own`), the other state on
    its first write to it (:meth:`_own_state`), and pins the base's
    :attr:`version` at fork time -- any later mutation of the base, or
    of the base's own base for a fork of a fork, trips the pin in
    :meth:`ensure_fresh` (and in :meth:`observe`) and the view falls
    back to its own scan rebuild, so in-place writes on shared state by
    either side are never observable across the fork.
    """

    __slots__ = (
        "_schema",
        "table",
        "_parents",
        "_children",
        "_refs_out",
        "_refs_in",
        "_defined",
        "_position",
        "_order",
        "_next_position",
        "_links",
        "_linked_from",
        "_extent",
        "_extent_owners",
        "_shares_state",
        "_pending",
        "_dirty",
        "_answered",
        "hits",
        "misses",
        "rebuilds",
        "version",
        "_owned",
        "_base",
        "_base_version",
    )

    def __init__(self, schema: "Schema") -> None:
        self._schema = schema
        self.table = NameTable()
        self._parents: list[array | None] = []
        self._children: list[array | None] = []
        self._refs_out: list[array | None] = []
        self._refs_in: list[array | None] = []
        self._defined = bytearray()
        self._position = array("q")
        self._order = array("q")
        self._next_position = 0
        self._links: dict[RelationshipKind, dict[str, tuple[str, ...]]] = {
            kind: {} for kind in LINK_KINDS
        }
        self._linked_from: dict[
            RelationshipKind, dict[str, tuple[str, ...]]
        ] = {kind: {} for kind in LINK_KINDS}
        self._extent: list[str | None] = []
        #: extent name -> its owner, or a tuple of owners when several
        #: interfaces declare it (an invalid but representable state).
        self._extent_owners: dict[str, str | tuple[str, ...]] = {}
        #: True while a fork view still shares the position, link and
        #: extent state with its base (see :meth:`_own_state`).
        self._shares_state = False
        self._pending: set[str] = set()
        self._dirty = True
        #: Whether the store has answered a query yet: a scan after that
        #: is a rescan (counted in ``rebuilds``), the first one a cold
        #: build (a miss).
        self._answered = False
        self.hits = 0
        self.misses = 0
        self.rebuilds = 0
        #: Bumped on every content-bearing record (and on mark_dirty);
        #: fork views pin it to detect base divergence.
        self.version = 0
        #: Ids whose rows this fork view has privatised; None when this
        #: store owns all its rows (the non-fork fast path).
        self._owned: set[int] | None = None
        #: The base store a fork view overlays, with its pinned version.
        self._base: "ColumnarAdjacency | None" = None
        self._base_version = 0

    # ------------------------------------------------------------------
    # Spine feed
    # ------------------------------------------------------------------

    def observe(self, record: MutationRecord) -> None:
        """Fold one spine record (this store is the spine's subscriber)."""
        kind = record.kind
        if kind == "scope":
            return
        self.version += 1
        if self._base is not None and not self._dirty and self._overlay_stale():
            self.mark_dirty()  # never fold into rows the base has edited
        if self._dirty:
            return
        name = record.interface
        if name is None:
            if kind == "reorder_interfaces":
                self._renumber(record.payload["order"])
            elif not replayable_kind(kind):
                self.mark_dirty()
            return
        if kind == "add_interface":
            self._define(self._schema.interfaces[name])
            self._pending.add(name)
            return
        if kind == "remove_interface":
            self._undefine(name)
            return
        if kind in ISA_KINDS:
            self._isa_update(name, record)
        elif kind == "set_extent":
            self._set_extent(name, record.payload["extent"])
        else:
            kinds = [
                link for link, aspect in LINK_KINDS.items()
                if aspect in record.aspects
            ]
            if kinds:
                self._set_links(name, self._schema.interfaces[name], kinds)
        self._pending.add(name)

    def mark_dirty(self) -> None:
        """Forget everything; the next query rebuilds from a scan."""
        self._dirty = True
        self.version += 1
        self.table = NameTable()
        self._parents = []
        self._children = []
        self._refs_out = []
        self._refs_in = []
        self._defined = bytearray()
        self._position = array("q")
        self._order = array("q")
        self._next_position = 0
        self._links = {kind: {} for kind in LINK_KINDS}
        self._linked_from = {kind: {} for kind in LINK_KINDS}
        self._extent = []
        self._extent_owners = {}
        self._shares_state = False
        self._pending = set()
        # A rebuild re-derives everything from this store's own schema,
        # so a fork view stops overlaying its base and owns all rows.
        self._base = None
        self._owned = None

    # ------------------------------------------------------------------
    # Column maintenance
    # ------------------------------------------------------------------

    def _own(self, ident: int) -> None:
        """Privatise *ident*'s rows before an in-place mutation.

        Fork views share inner ``array('i')`` rows with their base; the
        first write to any of an id's rows copies all four so the base
        never sees the edit.  Non-fork stores take the ``None`` fast
        path.
        """
        owned = self._owned
        if owned is None or ident in owned:
            return
        owned.add(ident)
        for column in (self._parents, self._children, self._refs_out, self._refs_in):
            row = column[ident]
            if row is not None:
                column[ident] = array("i", row)

    def _own_state(self) -> None:
        """Privatise the shared position, link and extent state.

        A fork view starts out sharing these containers with its base
        (:meth:`fork_view`); its first write to any of them copies all
        of them, so the base never sees the edit.  The values inside
        are immutable, so shallow copies suffice.
        """
        if not self._shares_state:
            return
        self._shares_state = False
        self._position = array("q", self._position)
        self._order = array("q", self._order)
        self._links = {kind: dict(m) for kind, m in self._links.items()}
        self._linked_from = {
            kind: dict(m) for kind, m in self._linked_from.items()
        }
        self._extent = list(self._extent)
        self._extent_owners = dict(self._extent_owners)

    def _ensure_row(self, ident: int) -> None:
        grow = ident + 1 - len(self._parents)
        if grow > 0:
            self._own_state()
            self._parents.extend([None] * grow)
            self._children.extend([None] * grow)
            self._refs_out.extend([None] * grow)
            self._refs_in.extend([None] * grow)
            self._defined.extend(b"\0" * grow)
            self._position.extend(array("q", (-1,)) * grow)
            self._extent.extend([None] * grow)

    def _release(self, ident: int) -> None:
        if self.table.release(ident):
            # Freed for reuse: every row must already be empty -- a
            # non-empty children/refs_in row would itself hold refs.
            self._parents[ident] = None
            self._children[ident] = None
            self._refs_out[ident] = None
            self._refs_in[ident] = None

    def _link_parent(
        self, ident: int, parent: str, position: int | None = None
    ) -> None:
        """Add *parent* to *ident*'s parents row: appended, or inserted at
        *position* exactly as ``InterfaceDef.add_supertype`` inserts it
        (an undone supertype deletion restores its original slot)."""
        pid = self.table.acquire(parent)
        self._ensure_row(pid)
        self._own(ident)
        self._own(pid)
        row = self._parents[ident]
        if row is None:
            self._parents[ident] = array("i", (pid,))
        elif position is None:
            row.append(pid)
        else:
            row.insert(position, pid)
        bucket = self._children[pid]
        if bucket is None:
            self._children[pid] = array("i", (ident,))
        elif ident not in bucket:
            bucket.append(ident)

    def _unlink_parent(self, ident: int, parent: str) -> None:
        """Drop every occurrence of *parent* from *ident*'s parents."""
        pid = self.table.id_of(parent)
        if pid is None or self._parents[ident] is None:
            return
        self._own(ident)
        self._own(pid)
        row = self._parents[ident]
        occurrences = 0
        while True:
            try:
                row.remove(pid)
            except ValueError:
                break
            occurrences += 1
        if not occurrences:
            return
        bucket = self._children[pid]
        if bucket is not None and ident in bucket:
            bucket.remove(ident)
        for _ in range(occurrences):
            self._release(pid)

    def _define(self, interface: "InterfaceDef") -> None:
        """Wire a newly defined interface: id, position, links, extent."""
        self._own_state()
        name = interface.name
        ident = self.table.acquire(name)  # the "defined" reference
        self._ensure_row(ident)
        self._defined[ident] = 1
        position = self._next_position
        self._next_position = position + 1
        self._position[ident] = position
        self._order.append(position)
        for parent in tuple(interface.supertypes):
            self._link_parent(ident, parent)
        self._set_links(name, interface, LINK_KINDS)
        self._set_extent(name, interface.extent)

    def _undefine(self, name: str) -> None:
        ident = self.table.id_of(name)
        if ident is None or not self._defined[ident]:
            self.mark_dirty()  # stream out of sync with the store
            return
        self._own_state()
        order = self._order
        del order[bisect_left(order, self._position[ident])]
        self._set_links(name, None, LINK_KINDS)
        self._set_extent(name, None)
        row = self._parents[ident]
        if row:
            for pid in row:
                self._own(pid)
                bucket = self._children[pid]
                if bucket is not None and ident in bucket:
                    bucket.remove(ident)
            released = list(row)
            self._parents[ident] = None
            for pid in released:
                self._release(pid)
        else:
            self._parents[ident] = None
        # Fold the reference column eagerly: refcounts must reflect the
        # rows before the "defined" reference drops, or a still-wired id
        # could hit the free list and be reused under stale rows.
        self._clear_refs(ident)
        self._pending.discard(name)
        self._defined[ident] = 0
        self._release(ident)

    def _isa_update(self, name: str, record: MutationRecord) -> None:
        ident = self.table.id_of(name)
        if ident is None or not self._defined[ident]:
            self.mark_dirty()
            return
        kind = record.kind
        if kind == "add_supertype":
            payload = record.payload
            self._link_parent(ident, payload["supertype"], payload["position"])
        elif kind == "remove_supertype":
            self._unlink_parent(ident, record.payload["supertype"])
        else:  # set_supertypes
            old = self._parents[ident]
            released = list(old) if old else []
            for pid in released:
                self._own(pid)
                bucket = self._children[pid]
                if bucket is not None and ident in bucket:
                    bucket.remove(ident)
            self._parents[ident] = None
            for parent in record.payload["supertypes"]:
                self._link_parent(ident, parent)
            for pid in released:
                self._release(pid)

    def _renumber(self, order: Iterable[str]) -> None:
        """Positions 0..n-1 in *order* (the reorder record's payload)."""
        self._own_state()
        position = self._position
        id_of = self.table.id_of
        count = 0
        for rank, name in enumerate(order):
            ident = id_of(name)
            if ident is None or not self._defined[ident]:
                self.mark_dirty()  # stream out of sync with the store
                return
            position[ident] = rank
            count = rank + 1
        self._order = array("q", range(count))
        self._next_position = count

    def _set_links(
        self,
        name: str,
        interface: "InterfaceDef | None",
        kinds: Iterable[RelationshipKind],
    ) -> None:
        """Re-derive *name*'s to-many ends of each kind (None: removed)."""
        for kind in kinds:
            new = (
                tuple(
                    end.target_type
                    for end in interface.relationships.values()
                    if end.kind is kind and end.is_to_many
                )
                if interface is not None
                else ()
            )
            old = self._links[kind].get(name, ())
            if new == old:
                continue
            self._own_state()
            links = self._links[kind]
            if new:
                links[name] = new
            else:
                del links[name]
            linked_from = self._linked_from[kind]
            for target in old:
                owners = list(linked_from[target])
                owners.remove(name)
                if owners:
                    linked_from[target] = tuple(owners)
                else:
                    del linked_from[target]
            for target in new:
                linked_from[target] = linked_from.get(target, ()) + (name,)

    def _set_extent(self, name: str, extent: str | None) -> None:
        ident = self.table.id_of(name)
        if ident is None or not self._defined[ident]:
            self.mark_dirty()
            return
        old = self._extent[ident]
        if old == extent:
            return
        self._own_state()
        owners = self._extent_owners
        if old is not None:
            held = owners.pop(old)
            if not isinstance(held, str):
                rest = tuple(owner for owner in held if owner != name)
                owners[old] = rest[0] if len(rest) == 1 else rest
        self._extent[ident] = extent
        if extent is not None:
            held = owners.get(extent)
            if held is None:
                owners[extent] = name
            elif isinstance(held, str):
                owners[extent] = (held, name)
            else:
                owners[extent] = held + (name,)

    def _clear_refs(self, ident: int) -> None:
        row = self._refs_out[ident]
        if not row:
            self._refs_out[ident] = None
            return
        released = list(row)
        self._refs_out[ident] = None
        for tid in released:
            self._own(tid)
            bucket = self._refs_in[tid]
            if bucket is not None and ident in bucket:
                bucket.remove(ident)
        for tid in released:
            self._release(tid)

    def _set_refs(self, ident: int, targets: Iterable[str]) -> None:
        old = self._refs_out[ident]
        old_ids = set(old) if old else set()
        new_row = array("i")
        new_ids: set[int] = set()
        for target in targets:
            tid = self.table.acquire(target)
            self._ensure_row(tid)
            new_row.append(tid)
            new_ids.add(tid)
            if tid not in old_ids:
                self._own(tid)
                bucket = self._refs_in[tid]
                if bucket is None:
                    self._refs_in[tid] = array("i", (ident,))
                elif ident not in bucket:
                    bucket.append(ident)
        self._refs_out[ident] = new_row
        stale = [tid for tid in old_ids if tid not in new_ids]
        for tid in stale:
            self._own(tid)
            bucket = self._refs_in[tid]
            if bucket is not None and ident in bucket:
                bucket.remove(ident)
        # Old row held one reference per occurrence; it was a set, so
        # one per id.  Release after the new row's acquires so a target
        # referenced by both never transits the free list.
        if old:
            for tid in old:
                self._release(tid)

    def _flush(self) -> None:
        """Re-derive the reference columns of every pending owner."""
        if not self._pending:
            return
        interfaces = self._schema.interfaces
        pending, self._pending = self._pending, set()
        for name in pending:
            interface = interfaces.get(name)
            if interface is None:
                continue  # removed later in the stream; already cleared
            ident = self.table.id_of(name)
            if ident is None or not self._defined[ident]:
                self.mark_dirty()
                return
            self._set_refs(ident, interface.referenced_type_names())

    def _rebuild(self) -> None:
        self.mark_dirty()
        self._dirty = False
        for interface in self._schema:
            self._define(interface)
        for interface in self._schema:
            ident = self.table.id_of(interface.name)
            assert ident is not None
            self._set_refs(ident, interface.referenced_type_names())

    def ensure_fresh(self) -> bool:
        """Rebuild if dirty; True when a scan rebuild happened.

        The one freshness check of every public query, and the one
        place the counters move: an answer from the live state is a
        hit, a scan is a miss, and a scan after the store first
        answered (a lossy record, or a base mutation under a fork
        view) is also a rebuild -- a cold build is not.
        """
        if self._base is not None and self._overlay_stale():
            self.mark_dirty()
        if self._dirty:
            self._rebuild()
            self.misses += 1
            if self._answered:
                self.rebuilds += 1
            self._answered = True
            return True
        self.hits += 1
        return False

    def _overlay_stale(self) -> bool:
        """Whether a store this view overlays mutated after the fork.

        That is the base, or the base's own base for a fork of a fork:
        every store up the chain edits its own rows (and the state
        shared with it) in place, so any such write makes the overlay
        unsound, and the view must rebuild from its own schema.
        """
        view, base = self, self._base
        while base is not None:
            if base.version != view._base_version:
                return True
            view, base = base, base._base
        return False

    def fork_view(self, schema: "Schema") -> "ColumnarAdjacency":
        """An overlay copy of this store for a CoW fork of the schema.

        O(ids) pointer work: the name table, outer column lists, and
        defined bits are copied; the inner ``array('i')`` rows are
        shared and privatised lazily by :meth:`_own`, and the position,
        link and extent state is shared until the view first writes it
        (:meth:`_own_state`).  The view pins
        :attr:`version` so any later base mutation invalidates it
        (see :meth:`ensure_fresh`); while the base stays unmutated the
        fork answers queries with zero scan rebuilds.
        """
        self.ensure_fresh()
        self._flush()
        if self._dirty:  # _flush found the stream out of sync
            self._rebuild()
        dup = ColumnarAdjacency.__new__(ColumnarAdjacency)
        dup._schema = schema
        dup.table = self.table.copy()
        dup._parents = list(self._parents)
        dup._children = list(self._children)
        dup._refs_out = list(self._refs_out)
        dup._refs_in = list(self._refs_in)
        dup._defined = bytearray(self._defined)
        dup._position = self._position
        dup._order = self._order
        dup._next_position = self._next_position
        dup._links = self._links
        dup._linked_from = self._linked_from
        dup._extent = self._extent
        dup._extent_owners = self._extent_owners
        dup._shares_state = True
        dup._pending = set()
        dup._dirty = False
        dup._answered = True
        dup.hits = 0
        dup.misses = 0
        dup.rebuilds = 0
        dup.version = 0
        dup._owned = set()
        dup._base = self
        dup._base_version = self.version
        return dup

    # ------------------------------------------------------------------
    # Unchecked helpers (the caller has checked freshness)
    # ------------------------------------------------------------------

    def _sorted(self, names: Iterable[str]) -> list[str]:
        """Defined *names* sorted by declaration position."""
        position = self._position
        id_of = self.table.id_of
        return sorted(names, key=lambda name: position[id_of(name)])

    def _children_of(self, name: str) -> list[str]:
        ident = self.table.id_of(name)
        if ident is None:
            return []
        row = self._children[ident]
        if not row:
            return []
        name_of = self.table.name_of
        return [name_of(child) for child in row]

    def _referencers_of(self, target: str) -> set[str]:
        self._flush()
        tid = self.table.id_of(target)
        if tid is None:
            return set()
        bucket = self._refs_in[tid]
        if not bucket:
            return set()
        name_of = self.table.name_of
        return {name_of(i) for i in bucket}

    # ------------------------------------------------------------------
    # Queries: each checks freshness exactly once
    # ------------------------------------------------------------------

    def parents_of(self, name: str) -> tuple[str, ...]:
        """Declared supertypes of *name*, in declaration order.

        Dangling supertype names are included -- the parents row mirrors
        the interface's declaration, not the resolved hierarchy.
        """
        self.ensure_fresh()
        ident = self.table.id_of(name)
        if ident is None or not self._defined[ident]:
            return ()
        row = self._parents[ident]
        if not row:
            return ()
        name_of = self.table.name_of
        return tuple(name_of(i) for i in row)

    def children_of(self, name: str) -> list[str]:
        """Defined interfaces listing *name* as a supertype, unordered.

        *name* may be dangling: its children row lives on as long as a
        subtype still lists it.
        """
        self.ensure_fresh()
        return self._children_of(name)

    def subtypes_of(self, name: str) -> list[str]:
        """Direct subtypes of *name* (defined or dangling), in
        declaration order."""
        self.ensure_fresh()
        return self._sorted(self._children_of(name))

    def descendants_of(self, name: str) -> set[str]:
        """Transitive subtypes of *name*; excludes *name* itself."""
        self.ensure_fresh()
        ident = self.table.id_of(name)
        if ident is None:
            return set()
        return self._descend([ident])

    def descendants_closure(self, seeds: Iterable[str]) -> set[str]:
        """Every descendant of any seed (seeds excluded unless reached)."""
        self.ensure_fresh()
        id_of = self.table.id_of
        roots = [i for i in map(id_of, seeds) if i is not None]
        return self._descend(roots)

    def _descend(self, roots: list[int]) -> set[str]:
        children = self._children
        seen: set[int] = set()
        frontier: list[int] = []
        for root in roots:
            bucket = children[root]
            if bucket:
                frontier.extend(bucket)
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            bucket = children[current]
            if bucket:
                frontier.extend(bucket)
        name_of = self.table.name_of
        return {name_of(i) for i in seen}

    def ancestors_of(self, name: str) -> set[str]:
        """Transitive *resolved* supertypes of *name* (parent rows)."""
        self.ensure_fresh()
        ident = self.table.id_of(name)
        if ident is None or not self._defined[ident]:
            return set()
        parents = self._parents
        defined = self._defined
        seen: set[int] = set()
        frontier = [ident]
        while frontier:
            row = parents[frontier.pop()]
            if not row:
                continue
            for parent in row:
                if defined[parent] and parent not in seen:
                    seen.add(parent)
                    frontier.append(parent)
        name_of = self.table.name_of
        return {name_of(i) for i in seen}

    def generalization_roots(self) -> list[str]:
        """Defined types with subtypes but no resolved supertype."""
        self.ensure_fresh()
        parents = self._parents
        defined = self._defined
        name_of = self.table.name_of
        return self._sorted(
            name_of(ident)
            for ident, row in enumerate(self._children)
            if row
            and defined[ident]
            and not any(defined[p] for p in parents[ident] or ())
        )

    # -- reverse references ----------------------------------------------

    def referencers_of(self, target: str) -> set[str]:
        """Names of defined interfaces whose definition mentions *target*.

        Reference = supertype entry, attribute domain, relationship
        target/inverse type, or operation signature type -- exactly
        :meth:`InterfaceDef.referenced_type_names`.  A mutator record
        only marks its owner pending, and pending owners re-derive their
        reference rows lazily, here.
        """
        self.ensure_fresh()
        return self._referencers_of(target)

    def refs_of(self, name: str) -> frozenset[str]:
        """Names referenced by interface *name* (empty if undefined)."""
        self.ensure_fresh()
        self._flush()
        ident = self.table.id_of(name)
        if ident is None or not self._defined[ident]:
            return frozenset()
        row = self._refs_out[ident]
        if not row:
            return frozenset()
        name_of = self.table.name_of
        return frozenset(name_of(i) for i in row)

    def ends_targeting(
        self, targets: set[str]
    ) -> list[tuple[str, RelationshipEnd]]:
        """(owner, end) pairs with ``end.target_type`` in *targets*.

        In ``Schema.relationship_pairs`` order, but read off the reverse
        reference rows: an end targeting X implies its owner references
        X (``referenced_type_names`` includes every end's target type),
        so only referencing owners' end lists are inspected, sorted by
        declaration position.
        """
        self.ensure_fresh()
        interfaces = self._schema.interfaces
        owners: set[str] = {name for name in targets if name in interfaces}
        for target in targets:
            owners.update(self._referencers_of(target))
        return [
            (owner, end)
            for owner in self._sorted(owners)
            for end in interfaces[owner].relationships.values()
            if end.target_type in targets
        ]

    # -- declaration order ----------------------------------------------

    def in_declaration_order(self, names: Iterable[str]) -> list[str]:
        """Defined *names* sorted by declaration position."""
        self.ensure_fresh()
        return self._sorted(names)

    def position_of(self, name: str) -> int:
        """Declaration sort key of defined *name* (ordered, not dense)."""
        self.ensure_fresh()
        return self._position[self.table.id_of(name)]

    def declaration_rank(self, name: str) -> int:
        """Index of defined *name* in declaration order: one bisect."""
        self.ensure_fresh()
        return bisect_left(self._order, self._position[self.table.id_of(name)])

    def declaration_order(self) -> dict[str, int]:
        """Defined name -> contiguous declaration rank (built on demand)."""
        self.ensure_fresh()
        name_of = self.table.name_of
        names = self._sorted(
            name_of(ident)
            for ident, defined in enumerate(self._defined)
            if defined
        )
        return {name: rank for rank, name in enumerate(names)}

    # -- part-of / instance-of links ------------------------------------

    def link_edges(
        self, kind: RelationshipKind
    ) -> list[tuple[str, str, RelationshipEnd]]:
        """(owner, target, to-many end) triples in declaration order.

        The owners come from the link state; their ends are read off
        the live interfaces, so the listing is ``scan_link_edges``'s,
        list for list, at O(owners + edges).
        """
        self.ensure_fresh()
        interfaces = self._schema.interfaces
        return [
            (owner, end.target_type, end)
            for owner in self._sorted(self._links[kind])
            for end in interfaces[owner].relationships.values()
            if end.kind is kind and end.is_to_many
        ]

    def link_edge_count(self, kind: RelationshipKind) -> int:
        """Number of *kind* edges without listing them."""
        self.ensure_fresh()
        return sum(map(len, self._links[kind].values()))

    def link_targets(self, kind: RelationshipKind, name: str) -> list[str]:
        """Targets of *name*'s to-many ends of *kind*, in end order
        (one per edge): its parts or its instances."""
        self.ensure_fresh()
        return list(self._links[kind].get(name, ()))

    def link_sources(self, kind: RelationshipKind, name: str) -> list[str]:
        """Owners of to-many *kind* ends targeting *name*, one per edge,
        in declaration order: its wholes or its generics."""
        self.ensure_fresh()
        return self._sorted(self._linked_from[kind].get(name, ()))

    def link_roots(self, kind: RelationshipKind) -> list[str]:
        """Owners of *kind* edges that are no edge's target."""
        self.ensure_fresh()
        linked_from = self._linked_from[kind]
        return self._sorted(
            owner for owner in self._links[kind] if owner not in linked_from
        )

    def extent_owners(self, extent: str) -> list[str]:
        """Interfaces declaring *extent*, in declaration order."""
        self.ensure_fresh()
        held = self._extent_owners.get(extent, ())
        if isinstance(held, str):
            return [held]
        return self._sorted(held)

    # ------------------------------------------------------------------
    # Differential exports (dict-shaped views of the columns)
    # ------------------------------------------------------------------

    def isa_parents_map(self) -> dict[str, tuple[str, ...]]:
        self.ensure_fresh()
        name_of = self.table.name_of
        result: dict[str, tuple[str, ...]] = {}
        for ident, row in enumerate(self._parents):
            if self._defined[ident]:
                result[name_of(ident)] = (
                    tuple(name_of(p) for p in row) if row else ()
                )
        return result

    def isa_children_map(self) -> dict[str, set[str]]:
        """Parent name -> subtype-name set (non-empty buckets only)."""
        self.ensure_fresh()
        name_of = self.table.name_of
        result: dict[str, set[str]] = {}
        for ident, row in enumerate(self._children):
            if row:
                result[name_of(ident)] = {name_of(c) for c in row}
        return result

    def refs_of_map(self) -> dict[str, frozenset[str]]:
        self.ensure_fresh()
        self._flush()
        name_of = self.table.name_of
        result: dict[str, frozenset[str]] = {}
        for ident, row in enumerate(self._refs_out):
            if self._defined[ident]:
                result[name_of(ident)] = (
                    frozenset(name_of(t) for t in row) if row else frozenset()
                )
        return result

    def referencers_map(self) -> dict[str, set[str]]:
        """Target name -> referencing-owner set (non-empty buckets only)."""
        self.ensure_fresh()
        self._flush()
        name_of = self.table.name_of
        result: dict[str, set[str]] = {}
        for ident, row in enumerate(self._refs_in):
            if row:
                result[name_of(ident)] = {name_of(o) for o in row}
        return result

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> dict[str, int]:
        """Hit / miss / rebuild counters plus the store's sizes."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "rebuilds": self.rebuilds,
            "ids": len(self.table),
            "capacity": self.table.capacity,
            "free_ids": self.table.free_ids,
            "pending": len(self._pending),
        }

    def reset_stats(self) -> None:
        """Zero the counters (benchmarks measure phases separately)."""
        self.hits = 0
        self.misses = 0
        self.rebuilds = 0

    def check_integrity(self) -> list[str]:
        """Re-derive every refcount / row invariant; [] when sound.

        Part of the differential contract: the property tests and the
        ``columnar-vs-scan`` invariant call this so a
        refcount drift surfaces at the op that caused it, not at the
        eventual use-after-free.
        """
        self.ensure_fresh()
        self._flush()
        problems: list[str] = []
        expected: dict[int, int] = {}
        for ident in range(self.table.capacity):
            if self._defined[ident]:
                expected[ident] = expected.get(ident, 0) + 1
        for column in (self._parents, self._refs_out):
            for row in column:
                if row:
                    for target in row:
                        expected[target] = expected.get(target, 0) + 1
        for ident in range(self.table.capacity):
            want = expected.get(ident, 0)
            try:
                name = self.table.name_of(ident)
            except KeyError:
                name = None
            if name is None:
                if want:
                    problems.append(
                        f"freed id {ident} still has {want} row references"
                    )
                continue
            have = self.table.refcount(ident)
            if have != want:
                problems.append(
                    f"id {ident} ({name!r}): refcount {have}, rows say {want}"
                )
            if self.table.id_of(name) != ident:
                problems.append(f"name {name!r} does not map back to {ident}")
        live = sorted(
            self._position[ident]
            for ident in range(self.table.capacity)
            if self._defined[ident]
        )
        if array("q", live) != self._order:
            problems.append("live declaration positions != the sorted order")
        # refs_in must be exactly the transpose of refs_out.
        transpose: dict[int, set[int]] = {}
        for owner, row in enumerate(self._refs_out):
            if row:
                for target in row:
                    transpose.setdefault(target, set()).add(owner)
        for target in range(len(self._refs_in)):
            bucket = self._refs_in[target]
            have_set = set(bucket) if bucket else set()
            if have_set != transpose.get(target, set()):
                problems.append(
                    f"refs_in[{target}] is not the transpose of refs_out"
                )
        return problems
