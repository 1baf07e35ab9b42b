"""The mutation spine: one structured change-event stream per schema.

Three earlier layers each bolted a private invalidation channel onto the
model: the graph index's generation counter, the memoized fingerprints,
and the validation cache's aspect-tagged dirty journal, every one fed
by ad-hoc hooks a new mutator had to remember to call.  This module
reifies mutations instead — the description-driven move of Le Goff &
Kovacs — so the model layer has a single source of change truth:

* every mutator on :class:`~repro.model.interface.InterfaceDef` and
  :class:`~repro.model.schema.Schema` emits one structured
  :class:`MutationRecord` (kind, interface, aspects, payload, monotonic
  seq) onto the schema's :class:`MutationLog`;
* cache layers are *subscribers* of that stream — the columnar graph
  store (:class:`~repro.model.columnar.ColumnarAdjacency`) folds each
  record into its rows, the validation cache's :class:`DirtyJournal`
  folds records into its dirty set, and fingerprint memos stamp against
  :attr:`MutationLog.seq` (:meth:`MutationLog.memo`);
* records are **replayable**: :meth:`MutationLog.replay` rebuilds the
  schema from an empty one, which the ``spine-replay`` invariant checks
  against the live fingerprint after fuzz steps, and which gives
  snapshots (a seq watermark) and record-level diffs
  (:func:`repro.analysis.diff.schema_diff`) for free.

Adding a cache layer no longer touches any mutator: subscribe to the
log (or stamp against ``seq``) and derive your state from the records —
see DESIGN.md §5e for the subscriber contract.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from repro.model.relationships import RelationshipKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.model.schema import Schema


class Aspect(enum.StrEnum):
    """One facet of an interface definition a mutation can change.

    The single vocabulary shared by mutator emissions, the validation
    rules' read scopes (:data:`repro.model.validation.RULE_SCOPES`) and
    the operations' declared write scopes
    (:meth:`repro.ops.base.SchemaOperation.validation_scope`).  Being an
    enum, a typo'd aspect is an ``AttributeError`` at import time, not a
    silently stale cache; being a ``StrEnum``, members compare and hash
    like their legacy string values.
    """

    ISA = "isa"  # the supertype list
    ATTRS = "attrs"  # attribute definitions
    KEYS = "keys"  # key lists
    EXTENT = "extent"  # the extent name (no validation rule reads it)
    OPS = "ops"  # operation signatures
    REL_ASSOCIATION = "rel-association"  # association ends
    REL_PART_OF = "rel-part-of"  # part-of ends
    REL_INSTANCE_OF = "rel-instance-of"  # instance-of ends
    #: Operation-level pseudo-aspect: whole interfaces added/removed.
    MEMBERSHIP = "membership"


#: Every interface-level aspect; the conservative scope for operations
#: without finer metadata (``membership`` is operation-level only).
ALL_ASPECTS: frozenset[Aspect] = frozenset(Aspect) - {Aspect.MEMBERSHIP}

_KIND_ASPECTS = {
    RelationshipKind.ASSOCIATION: Aspect.REL_ASSOCIATION,
    RelationshipKind.PART_OF: Aspect.REL_PART_OF,
    RelationshipKind.INSTANCE_OF: Aspect.REL_INSTANCE_OF,
}


def aspect_for_kind(kind: RelationshipKind) -> Aspect:
    """The aspect covering relationship ends of *kind*."""
    return _KIND_ASPECTS[kind]


#: Empty aspect set, shared so bookkeeping records allocate nothing.
NO_ASPECTS: frozenset[Aspect] = frozenset()


@dataclass(frozen=True, slots=True)
class MutationRecord:
    """One reified schema mutation.

    ``kind`` names the mutator that ran (``"add_attribute"``,
    ``"remove_interface"``, ...), ``interface`` the owning type for
    interface-level mutations (``None`` for whole-schema bookkeeping),
    ``aspects`` the facets it changed, ``payload`` the arguments needed
    to replay it, and ``seq`` its position on the spine.
    """

    seq: int
    kind: str
    interface: str | None
    aspects: frozenset[Aspect]
    payload: dict

    def names(self) -> Iterator[str]:
        """Every interface name this record may have changed.

        ISA mutations also name the supertypes involved: adding or
        removing a parent changes that parent's derived state (its
        subtree), so O(changed) verification sweeps must treat it as
        touched.  ``remove_interface`` carries no payload; the parents
        it detached from are only covered by the final full sweep.
        """
        if self.interface is not None:
            yield self.interface
        kind = self.kind
        if kind == "scope":
            yield from self.payload.get("names", ())
        elif kind in ("add_supertype", "remove_supertype"):
            supertype = self.payload.get("supertype")
            if supertype is not None:
                yield supertype
        elif kind == "set_supertypes":
            yield from self.payload.get("supertypes", ())
        elif kind == "add_interface":
            definition = self.payload.get("interface")
            if definition is not None:
                yield from definition.supertypes

    def __str__(self) -> str:
        where = f" {self.interface}" if self.interface else ""
        return f"#{self.seq} {self.kind}{where}"


Subscriber = Callable[[MutationRecord], None]


class MutationLog:
    """The per-schema spine of :class:`MutationRecord` events.

    ``seq`` is the monotonic mutation counter derived-value caches
    stamp against (it *is* ``Schema.generation``); ``subscribe`` registers
    a callback run synchronously on every append.  ``origin`` /
    ``origin_seq`` / ``base_seq`` record fork lineage so record-level
    diffs can find the suffix two schemas diverged by.
    """

    __slots__ = (
        "_seq",
        "_records",
        "_subscribers",
        "_memos",
        "_cow_borrows",
        "lossy",
        "origin",
        "origin_seq",
        "base_seq",
    )

    def __init__(self) -> None:
        self._seq = 0
        self._records: list[MutationRecord] = []
        self._subscribers: list[Subscriber] = []
        self._memos: dict[str, tuple[int, object]] = {}
        #: Live CoW forks borrowing interfaces owned by this spine's
        #: schema (``interface._SchemaShare`` entries, held weakly).  The
        #: per-mutator barrier settles them before any interface this
        #: schema owns changes (see ``InterfaceDef._cow_barrier``).
        self._cow_borrows: list = []
        #: True once a non-replayable record (out-of-band ``touch``) was
        #: emitted; replay and record-level diff then refuse the log.
        self.lossy = False
        #: The parent spine this log was forked from, if any.
        self.origin: "MutationLog | None" = None
        #: Seq on the *parent* spine at fork time.
        self.origin_seq = 0
        #: Own seq right after fork population; records above it are the
        #: fork's divergence suffix.  A copy-on-write fork emits *no*
        #: population records, so its ``base_seq`` stays 0 while
        #: ``origin`` is set -- that combination marks a log whose
        #: initial state is the origin prefix up to ``origin_seq``
        #: rather than the empty schema.
        self.base_seq = 0

    # ------------------------------------------------------------------
    # The stream
    # ------------------------------------------------------------------

    @property
    def seq(self) -> int:
        """Monotonic mutation counter (the schema's generation)."""
        return self._seq

    @property
    def records(self) -> tuple[MutationRecord, ...]:
        """Every record emitted so far, in seq order."""
        return tuple(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def emit(
        self,
        kind: str,
        *,
        interface: str | None = None,
        aspects: frozenset[Aspect] = NO_ASPECTS,
        payload: dict | None = None,
    ) -> MutationRecord:
        """Append one record and notify every subscriber."""
        self._seq += 1
        record = MutationRecord(
            seq=self._seq,
            kind=kind,
            interface=interface,
            aspects=aspects,
            payload=payload if payload is not None else {},
        )
        self._records.append(record)
        if kind not in _REPLAYERS:
            self.lossy = True
        for subscriber in self._subscribers:
            subscriber(record)
        return record

    def subscribe(self, subscriber: Subscriber) -> None:
        """Register a callback invoked on every emitted record."""
        self._subscribers.append(subscriber)

    def unsubscribe(self, subscriber: Subscriber) -> None:
        """Drop a callback registered with :meth:`subscribe`."""
        self._subscribers.remove(subscriber)

    @property
    def subscriber_count(self) -> int:
        return len(self._subscribers)

    def records_since(self, seq: int) -> list[MutationRecord]:
        """Records with ``seq`` strictly greater than the watermark.

        Seqs are dense (every emit appends exactly one record), so the
        suffix is a slice, not a scan.
        """
        if seq >= self._seq:
            return []
        return self._records[seq:]

    # ------------------------------------------------------------------
    # Derived-value memoization (the fingerprint subscriber)
    # ------------------------------------------------------------------

    def memo(self, key: str, builder: Callable[[], object]) -> object:
        """Seq-stamped memoization of a pure function of schema content.

        The cached value is dropped as soon as any mutation lands on the
        spine; :func:`repro.model.fingerprint.memoized_schema_fingerprint`
        derives its invalidation from this instead of a private counter.
        """
        cached = self._memos.get(key)
        if cached is not None and cached[0] == self._seq:
            return cached[1]
        value = builder()
        self._memos[key] = (self._seq, value)
        return value

    # ------------------------------------------------------------------
    # Fork lineage
    # ------------------------------------------------------------------

    def link_origin(self, origin: "MutationLog") -> None:
        """Mark this log as forked off *origin* at its current seq.

        Called by :meth:`Schema.fork` right after populating the copy;
        every record already on this log is fork population, everything
        after is divergence.
        """
        self.origin = origin
        self.origin_seq = origin.seq
        self.base_seq = self._seq

    def lineage(self) -> list[tuple["MutationLog", int]]:
        """(log, exit seq) pairs from this log up the origin chain.

        The exit seq of the head entry is the current seq; for ancestors
        it is the seq at which the chain forked off them.
        """
        chain: list[tuple[MutationLog, int]] = [(self, self._seq)]
        log, seq = self.origin, self.origin_seq
        while log is not None:
            chain.append((log, seq))
            log, seq = log.origin, log.origin_seq
        return chain

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------

    @property
    def replayable(self) -> bool:
        """Whether :meth:`replay` can reproduce the schema exactly.

        A copy-on-write fork (``base_seq == 0`` with an origin) carries
        no population records; its replay starts from the origin's
        prefix, so the whole chain of record-free forks must be
        loss-free too.  An eagerly populated log only depends on its own
        records.
        """
        log: "MutationLog | None" = self
        while log is not None:
            if log.lossy:
                return False
            if log.origin is None or log.base_seq != 0:
                return True
            log = log.origin
        return True

    def replay(self, name: str = "replay") -> "Schema":
        """Rebuild the schema this log describes, from empty.

        Replays every record through the ordinary mutators -- for a
        copy-on-write fork the origin chain's prefixes come first, since
        the fork's own log starts at the shared state, not at empty.
        The ``spine-replay`` invariant asserts the result's fingerprint
        equals the live schema's.  Raises :class:`ValueError` on a lossy
        log (an out-of-band ``Schema.touch()`` was recorded).
        """
        if not self.replayable:
            raise ValueError("cannot replay a lossy mutation log")
        from repro.model.schema import Schema

        target = Schema(name)
        self._replay_prefix(target, self._seq)
        return target

    def _replay_prefix(self, target: "Schema", upto: int) -> None:
        """Replay this log's records with seq <= *upto* onto *target*.

        Record-free forks first replay the origin prefix they branched
        from; seqs are dense, so the prefix is a slice.
        """
        if self.origin is not None and self.base_seq == 0:
            self.origin._replay_prefix(target, self.origin_seq)
        for record in self._records[:upto]:
            _REPLAYERS[record.kind](target, record)


# ----------------------------------------------------------------------
# Replayers: kind -> how to re-apply the record on a fresh schema
# ----------------------------------------------------------------------


def _replay_add_interface(schema: "Schema", record: MutationRecord) -> None:
    schema.add_interface(record.payload["interface"].copy())


def _replay_remove_interface(schema: "Schema", record: MutationRecord) -> None:
    schema.remove_interface(record.interface)


def _replay_reorder_interfaces(schema: "Schema", record: MutationRecord) -> None:
    schema.reorder_interfaces(list(record.payload["order"]))


def _replay_noop(schema: "Schema", record: MutationRecord) -> None:
    """Bookkeeping records (declared op scopes) change no content."""


def _interface_replayer(method: str, *arg_keys: str):
    def replay(schema: "Schema", record: MutationRecord) -> None:
        target = schema.get(record.interface)
        getattr(target, method)(*(record.payload[key] for key in arg_keys))

    return replay


_REPLAYERS: dict[str, Callable[["Schema", MutationRecord], None]] = {
    "add_interface": _replay_add_interface,
    "remove_interface": _replay_remove_interface,
    "reorder_interfaces": _replay_reorder_interfaces,
    "scope": _replay_noop,
    "add_supertype": _interface_replayer("add_supertype", "supertype", "position"),
    "remove_supertype": _interface_replayer("remove_supertype", "supertype"),
    "set_supertypes": _interface_replayer("set_supertypes", "supertypes"),
    "set_extent": _interface_replayer("set_extent", "extent"),
    "add_key": _interface_replayer("add_key", "key"),
    "remove_key": _interface_replayer("remove_key", "key"),
    "insert_key": _interface_replayer("insert_key", "key", "position"),
    "replace_key_at": _interface_replayer("replace_key_at", "position", "key"),
    "add_attribute": _interface_replayer("add_attribute", "attribute"),
    "remove_attribute": _interface_replayer("remove_attribute", "name"),
    "replace_attribute": _interface_replayer("replace_attribute", "attribute"),
    "reorder_attributes": _interface_replayer("reorder_attributes", "order"),
    "add_relationship": _interface_replayer("add_relationship", "end"),
    "remove_relationship": _interface_replayer("remove_relationship", "name"),
    "replace_relationship": _interface_replayer("replace_relationship", "end"),
    "add_operation": _interface_replayer("add_operation", "operation"),
    "remove_operation": _interface_replayer("remove_operation", "name"),
    "replace_operation": _interface_replayer("replace_operation", "operation"),
    "reorder_operations": _interface_replayer("reorder_operations", "order"),
}


def replayable_kind(kind: str) -> bool:
    """Whether records of *kind* re-apply through a known mutator.

    Spine subscribers that maintain incremental state use this to tell
    structured mutator records apart from lossy out-of-band ones
    (``touch`` or any future unregistered kind), which force a rebuild.
    """
    return kind in _REPLAYERS


# ----------------------------------------------------------------------
# The dirty journal: the validation cache's subscriber state
# ----------------------------------------------------------------------


class DirtyJournal:
    """What changed in a schema since the validation cache last looked.

    Pure derived bookkeeping over the mutation stream: interface names
    changed (with the aspects that moved), names added/removed, whether
    declaration order moved, and whether an out-of-band
    ``Schema.touch()`` forced a full invalidation.  The journal is a
    :class:`MutationLog` subscriber — :meth:`observe` folds each record
    in — so every note accompanies a seq bump and a schema whose
    generation matches the cache's stamp always has an irrelevant
    (possibly non-empty) journal.
    """

    __slots__ = ("touched", "added", "removed", "order_changed", "full")

    def __init__(self) -> None:
        self.touched: dict[str, set[Aspect]] = {}
        self.added: set[str] = set()
        self.removed: set[str] = set()
        self.order_changed = False
        self.full = False

    # -- subscriber entry point ----------------------------------------

    def observe(self, record: MutationRecord) -> None:
        """Fold one mutation record into the dirty set."""
        kind = record.kind
        if kind == "add_interface":
            self.added.add(record.interface)
        elif kind == "remove_interface":
            self.removed.add(record.interface)
        elif kind == "reorder_interfaces":
            self.order_changed = True
        elif kind == "touch":
            self.full = True
        elif kind == "scope":
            payload = record.payload
            for name in payload["added"]:
                self.added.add(name)
            for name in payload["removed"]:
                self.removed.add(name)
            aspects = payload["aspects"]
            if aspects:
                for name in payload["names"]:
                    self.touched.setdefault(name, set()).update(aspects)
        elif record.interface is not None:
            self.touched.setdefault(record.interface, set()).update(
                record.aspects
            )

    def clear(self) -> None:
        self.touched.clear()
        self.added.clear()
        self.removed.clear()
        self.order_changed = False
        self.full = False


# ----------------------------------------------------------------------
# Record-level lineage diffing support
# ----------------------------------------------------------------------


def touched_names_between(a: "Schema", b: "Schema") -> set[str] | None:
    """Interface names that may differ between two lineage-related schemas.

    Walks both spines' origin chains to the closest common log and
    collects every name the divergence suffixes mention.  Returns
    ``None`` when the schemas share no spine lineage or any relevant
    segment is lossy — callers must then fall back to a structural walk
    (:func:`repro.analysis.diff.diff_schemas`).
    """
    chain_a = {id(log): (log, seq) for log, seq in a.log.lineage()}
    common: tuple[MutationLog, int, int] | None = None
    below_b: list[tuple[MutationLog, int]] = []
    for log, seq in b.log.lineage():
        entry = chain_a.get(id(log))
        if entry is not None:
            common = (log, entry[1], seq)
            break
        below_b.append((log, seq))
    if common is None:
        return None
    common_log, exit_a, exit_b = common
    below_a: list[tuple[MutationLog, int]] = []
    for log, seq in a.log.lineage():
        if log is common_log:
            break
        below_a.append((log, seq))

    names: set[str] = set()

    def collect(segments: Iterable[tuple[MutationLog, int, int]]) -> bool:
        for log, lo, hi in segments:
            for record in log.records_since(lo):
                if record.seq > hi:
                    break
                if record.kind == "touch":
                    return False
                names.update(record.names())
        return True

    segments = [(log, log.base_seq, seq) for log, seq in below_a]
    segments += [(log, log.base_seq, seq) for log, seq in below_b]
    lo, hi = sorted((exit_a, exit_b))
    segments.append((common_log, lo, hi))
    if not collect(segments):
        return None
    return names
