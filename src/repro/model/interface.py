"""Interface definitions (object types) of the extended object model.

An :class:`InterfaceDef` gathers the *type properties* (supertypes, extent
name, key lists) and *instance properties* (attributes, relationship ends,
operations) of one object type, mirroring the candidates-for-modification
breakdown of the paper's Tables 2 and 3.

Interfaces are mutable containers, but every individual property value is
an immutable dataclass; mutation happens by replacing whole entries.  All
edits in a design session should go through :mod:`repro.ops` operations so
that they are validated, logged, and reversible -- the methods here are
the primitive storage layer those operations use.

Every mutator emits one :class:`~repro.model.mutation.MutationRecord`
onto each owning schema's mutation spine (the ``spine`` lint pass,
``python -m repro.lint``, enforces this), so cache layers never hear
about changes through any other channel.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from sys import intern
from typing import TYPE_CHECKING

from repro.model.attributes import Attribute
from repro.model.errors import (
    DuplicateNameError,
    InvalidModelError,
    UnknownPropertyError,
)
from repro.model.mutation import Aspect, aspect_for_kind
from repro.model.operations import Operation
from repro.model.relationships import RelationshipEnd, RelationshipKind
from repro.model.types import referenced_interfaces

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.model.mutation import MutationLog

# Shared singleton aspect sets so the emit path allocates nothing.
_ISA = frozenset({Aspect.ISA})
_EXTENT = frozenset({Aspect.EXTENT})
_KEYS = frozenset({Aspect.KEYS})
_ATTRS = frozenset({Aspect.ATTRS})
_OPS = frozenset({Aspect.OPS})
_REL = {
    kind: frozenset({aspect_for_kind(kind)}) for kind in RelationshipKind
}


# ----------------------------------------------------------------------
# Copy-on-write claims (DESIGN.md 5j)
#
# A *claim* is a borrower of a live interface: something that holds a
# reference to it and needs the contents as of claim time, but has not
# paid for a copy.  The first mutation of the interface settles every
# claim (see InterfaceDef._cow_barrier) by materialising the copy then,
# against the still-unmutated state.  Claims are duck-typed: anything
# with ``settle(original) -> bool`` works; a False return means the
# borrower is dead and the claim can be pruned.
# ----------------------------------------------------------------------


class _PayloadClaim:
    """An ``add_interface`` record payload borrowing the live interface.

    ``Schema.add_interface`` stores the adopted interface itself in the
    record payload instead of an eager copy; settling swaps the live
    reference for a copy of the pre-mutation state, so replay and
    delete-undo still see the interface exactly as it was added.  A
    single add only: a bulk add's members share one
    :class:`_PopulationClaim`.
    """

    __slots__ = ("_payload",)

    def __init__(self, payload: dict) -> None:
        self._payload = payload

    def settle(self, original: "InterfaceDef") -> bool:
        if self._payload.get("interface") is original:
            self._payload["interface"] = original.copy()
        return True


class _PopulationClaim:
    """An ``add_interfaces`` record payload borrowing its live members.

    The payload is the name -> interface map ``Schema.add_interfaces``
    adopted.  One claim serves the whole population: it sits once on the
    owning spine's ``_cow_borrows`` (settled by the barrier of every
    member the spine owns) and is registered per interface only on a
    borrowed member, whose mutations run on another spine.  Settling
    swaps the live member for a copy of its pre-mutation state, so
    replay still sees the population exactly as it was added.
    """

    __slots__ = ("_payload",)

    def __init__(self, payload: dict) -> None:
        self._payload = payload

    def settle(self, original: "InterfaceDef") -> bool:
        payload = self._payload
        if payload.get(original.name) is original:
            payload[original.name] = original.copy()
        return True


class _CowAnchor:
    """Weakly referenceable handle onto a slotted Schema.

    ``Schema`` is a slots dataclass without a ``__weakref__`` slot (and
    ``dataclass(weakref_slot=True)`` needs 3.12), so CoW shares weakly
    reference this anchor instead.  The anchor and its schema form a
    reference cycle, which the cycle collector reclaims together once
    the schema is otherwise unreachable -- at that point every share's
    weakref clears and the borrower is pruned.
    """

    __slots__ = ("schema", "__weakref__")

    def __init__(self, schema) -> None:
        self.schema = schema


class _SchemaShare:
    """A whole schema (CoW fork or projection) borrowing interfaces.

    Held weakly (via the schema's :class:`_CowAnchor`): a dead fork must
    neither be kept alive by its parent's spine nor make the parent pay
    for copies nobody can observe.  Settling privatises the interface
    into the borrowing schema -- the fork keeps a frozen copy of the
    pre-mutation state, attached to its own spine, while the owner's
    object changes underneath.
    """

    __slots__ = ("_ref",)

    def __init__(self, anchor: _CowAnchor) -> None:
        self._ref = weakref.ref(anchor)

    def settle(self, original: "InterfaceDef") -> bool:
        anchor = self._ref()
        if anchor is None:
            return False
        schema = anchor.schema
        if schema.interfaces.get(original.name) is original:
            snap = original.copy()
            schema.interfaces[original.name] = snap
            snap._attach_spine(schema._log)
        return True


class _SnapshotClaim:
    """A frozen holder (e.g. a WagonWheel) borrowing a live interface.

    Settling replaces ``holder.<attr>`` with a copy of the pre-mutation
    state via ``object.__setattr__`` (the holders are frozen
    dataclasses), so the snapshot keeps the contents it was taken with.
    """

    __slots__ = ("_ref", "_attr")

    def __init__(self, holder, attr: str) -> None:
        self._ref = weakref.ref(holder)
        self._attr = attr

    def settle(self, original: "InterfaceDef") -> bool:
        holder = self._ref()
        if holder is None:
            return False
        if getattr(holder, self._attr, None) is original:
            object.__setattr__(holder, self._attr, original.copy())
        return True


@dataclass(slots=True)
class InterfaceDef:
    """One object type of a schema.

    ``attributes`` and ``relationships`` share a property namespace (a
    traversal path may not collide with an attribute name); operations
    live in their own namespace because ODL signatures are syntactically
    distinct.  Insertion order is preserved so printed ODL is stable.

    Storage is slotted and all graph-bearing strings (interface name,
    supertype entries, property dict keys) are interned, so identity
    comparison and set membership on them stay cheap at 10k+ types.
    """

    name: str
    supertypes: list[str] = field(default_factory=list)
    extent: str | None = None
    keys: list[tuple[str, ...]] = field(default_factory=list)
    attributes: dict[str, Attribute] = field(default_factory=dict)
    relationships: dict[str, RelationshipEnd] = field(default_factory=dict)
    operations: dict[str, Operation] = field(default_factory=dict)
    # Owning schemas attach their mutation spine here so every mutator
    # below lands one record on it (see repro.model.mutation).  Spines
    # carry identity, not value, and must not take part in __eq__/repr.
    _spines: list["MutationLog"] = field(
        default_factory=list, init=False, repr=False, compare=False
    )
    # Copy-on-write claims directly against this interface (payload
    # live-references, projection shares, concept snapshots); usually
    # None so the per-mutation barrier costs one attribute load.
    _claims: list | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.name or not self.name[0].isalpha():
            raise InvalidModelError(f"invalid interface name {self.name!r}")
        if len(set(self.supertypes)) != len(self.supertypes):
            raise InvalidModelError(
                f"interface {self.name!r} lists a duplicate supertype"
            )
        self.name = intern(self.name)
        self.supertypes = [intern(name) for name in self.supertypes]
        self.keys = [tuple(intern(part) for part in key) for key in self.keys]
        self.attributes = {
            intern(name): value for name, value in self.attributes.items()
        }
        self.relationships = {
            intern(name): value for name, value in self.relationships.items()
        }
        self.operations = {
            intern(name): value for name, value in self.operations.items()
        }

    # ------------------------------------------------------------------
    # Owner notification (the mutation spine)
    # ------------------------------------------------------------------

    def _attach_spine(self, log: "MutationLog") -> None:
        """Register an owning schema's mutation log."""
        self._spines.append(log)

    def _detach_spine(self, log: "MutationLog") -> None:
        """Drop one registration of *log* (no-op when absent)."""
        try:
            self._spines.remove(log)
        except ValueError:
            pass

    def _emit(
        self, kind: str, aspects: frozenset[Aspect], payload: dict
    ) -> None:
        """Emit one mutation record onto every owning schema's spine."""
        for log in self._spines:
            log.emit(
                kind, interface=self.name, aspects=aspects, payload=payload
            )

    # ------------------------------------------------------------------
    # Copy-on-write barrier (DESIGN.md 5j)
    # ------------------------------------------------------------------

    def register_claim(self, claim) -> None:
        """Register a CoW claim, settled on this interface's next mutation."""
        if self._claims is None:
            self._claims = [claim]
        else:
            self._claims.append(claim)

    def _cow_barrier(self) -> None:
        """Materialise every borrower before this interface changes.

        The first statement of every mutator (AST-enforced by the
        ``spine`` lint pass): per-interface claims freeze their
        copy against the still-unmutated state, and schema-level borrows
        (CoW forks) registered on the owning spines privatise the
        interface into any live fork still sharing it.  Dead borrowers
        are pruned; with no borrowers this is one attribute load per
        spine.  The barrier runs before the mutator's own validation --
        settling ahead of a rejected mutation is harmless (the copy is
        identical to the shared original).
        """
        claims = self._claims
        if claims is not None:
            self._claims = None
            for claim in claims:
                claim.settle(self)
        for log in self._spines:
            borrows = log._cow_borrows
            if borrows:
                dead = [b for b in borrows if not b.settle(self)]
                for borrow in dead:
                    try:
                        borrows.remove(borrow)
                    except ValueError:
                        pass

    # ------------------------------------------------------------------
    # Type properties
    # ------------------------------------------------------------------

    def add_supertype(self, supertype: str, position: int | None = None) -> None:
        """Append *supertype* to the ISA list (or insert at *position*)."""
        self._cow_barrier()
        if supertype == self.name:
            raise InvalidModelError(
                f"interface {self.name!r} cannot be its own supertype"
            )
        if supertype in self.supertypes:
            raise DuplicateNameError(
                f"{self.name!r} already has supertype {supertype!r}"
            )
        supertype = intern(supertype)
        if position is None:
            self.supertypes.append(supertype)
        else:
            self.supertypes.insert(position, supertype)
        self._emit(
            "add_supertype",
            _ISA,
            {"supertype": supertype, "position": position},
        )

    def remove_supertype(self, supertype: str) -> None:
        """Remove *supertype* from the ISA list."""
        self._cow_barrier()
        try:
            self.supertypes.remove(supertype)
        except ValueError:
            raise UnknownPropertyError(
                f"{self.name!r} has no supertype {supertype!r}"
            ) from None
        self._emit("remove_supertype", _ISA, {"supertype": supertype})

    def set_supertypes(self, supertypes: list[str]) -> None:
        """Replace the whole ISA list (``modify_supertype`` re-wiring)."""
        self._cow_barrier()
        supertypes = [intern(name) for name in supertypes]
        if self.name in supertypes:
            raise InvalidModelError(
                f"interface {self.name!r} cannot be its own supertype"
            )
        if len(set(supertypes)) != len(supertypes):
            raise InvalidModelError(
                f"interface {self.name!r} lists a duplicate supertype"
            )
        self.supertypes = supertypes
        self._emit("set_supertypes", _ISA, {"supertypes": tuple(supertypes)})

    def set_extent(self, extent: str | None) -> None:
        """Set or clear the extent name (spine-emitting mutator)."""
        self._cow_barrier()
        self.extent = extent
        self._emit("set_extent", _EXTENT, {"extent": extent})

    def add_key(self, key: tuple[str, ...]) -> None:
        """Add a key (a tuple of attribute names)."""
        self._cow_barrier()
        key = tuple(intern(part) for part in key)
        if not key:
            raise InvalidModelError("a key must name at least one attribute")
        if key in self.keys:
            raise DuplicateNameError(
                f"{self.name!r} already declares key {key!r}"
            )
        self.keys.append(key)
        self._emit("add_key", _KEYS, {"key": key})

    def remove_key(self, key: tuple[str, ...]) -> None:
        """Remove a previously declared key."""
        self._cow_barrier()
        key = tuple(key)
        try:
            self.keys.remove(key)
        except ValueError:
            raise UnknownPropertyError(
                f"{self.name!r} has no key {key!r}"
            ) from None
        self._emit("remove_key", _KEYS, {"key": key})

    def insert_key(self, key: tuple[str, ...], position: int) -> None:
        """Insert a key at *position* (undo of a key deletion)."""
        self._cow_barrier()
        key = tuple(intern(part) for part in key)
        if not key:
            raise InvalidModelError("a key must name at least one attribute")
        if key in self.keys:
            raise DuplicateNameError(
                f"{self.name!r} already declares key {key!r}"
            )
        self.keys.insert(position, key)
        self._emit("insert_key", _KEYS, {"key": key, "position": position})

    def replace_key_at(self, position: int, key: tuple[str, ...]) -> tuple[str, ...]:
        """Swap the key at *position* for *key*, returning the old one."""
        self._cow_barrier()
        key = tuple(intern(part) for part in key)
        if not key:
            raise InvalidModelError("a key must name at least one attribute")
        try:
            old = self.keys[position]
        except IndexError:
            raise UnknownPropertyError(
                f"{self.name!r} has no key at position {position}"
            ) from None
        self.keys[position] = key
        self._emit(
            "replace_key_at", _KEYS, {"position": position, "key": key}
        )
        return old

    # ------------------------------------------------------------------
    # Instance properties
    # ------------------------------------------------------------------

    def _check_property_name_free(self, name: str) -> None:
        if name in self.attributes or name in self.relationships:
            raise DuplicateNameError(
                f"interface {self.name!r} already has a property {name!r}"
            )

    def add_attribute(self, attribute: Attribute) -> None:
        """Add an attribute; its name must be free in the property namespace."""
        self._cow_barrier()
        self._check_property_name_free(attribute.name)
        self.attributes[intern(attribute.name)] = attribute
        self._emit("add_attribute", _ATTRS, {"attribute": attribute})

    def remove_attribute(self, name: str) -> Attribute:
        """Remove and return the attribute called *name*."""
        self._cow_barrier()
        try:
            removed = self.attributes.pop(name)
        except KeyError:
            raise UnknownPropertyError(
                f"{self.name!r} has no attribute {name!r}"
            ) from None
        self._emit("remove_attribute", _ATTRS, {"name": name})
        return removed

    def get_attribute(self, name: str) -> Attribute:
        """Return the attribute called *name*."""
        try:
            return self.attributes[name]
        except KeyError:
            raise UnknownPropertyError(
                f"{self.name!r} has no attribute {name!r}"
            ) from None

    def replace_attribute(self, attribute: Attribute) -> Attribute:
        """Swap in a new value for an existing attribute, returning the old."""
        self._cow_barrier()
        old = self.get_attribute(attribute.name)
        self.attributes[attribute.name] = attribute
        self._emit("replace_attribute", _ATTRS, {"attribute": attribute})
        return old

    def reorder_attributes(self, order: list[str]) -> None:
        """Rebuild the attribute dict in *order* (undo of a deletion).

        *order* must be a permutation of the current attribute names.
        """
        self._cow_barrier()
        self.attributes = self._reordered(
            self.attributes, order, "attribute"
        )
        self._emit("reorder_attributes", _ATTRS, {"order": tuple(order)})

    def add_relationship(self, end: RelationshipEnd) -> None:
        """Add a relationship end; its path name must be free."""
        self._cow_barrier()
        self._check_property_name_free(end.name)
        self.relationships[intern(end.name)] = end
        self._emit("add_relationship", _REL[end.kind], {"end": end})

    def remove_relationship(self, name: str) -> RelationshipEnd:
        """Remove and return the relationship end called *name*."""
        self._cow_barrier()
        try:
            removed = self.relationships.pop(name)
        except KeyError:
            raise UnknownPropertyError(
                f"{self.name!r} has no relationship {name!r}"
            ) from None
        self._emit(
            "remove_relationship", _REL[removed.kind], {"name": name}
        )
        return removed

    def get_relationship(self, name: str) -> RelationshipEnd:
        """Return the relationship end called *name*."""
        try:
            return self.relationships[name]
        except KeyError:
            raise UnknownPropertyError(
                f"{self.name!r} has no relationship {name!r}"
            ) from None

    def replace_relationship(self, end: RelationshipEnd) -> RelationshipEnd:
        """Swap in a new value for an existing end, returning the old."""
        self._cow_barrier()
        old = self.get_relationship(end.name)
        self.relationships[end.name] = end
        self._emit(
            "replace_relationship",
            _REL[old.kind] | _REL[end.kind],
            {"end": end},
        )
        return old

    def add_operation(self, operation: Operation) -> None:
        """Add an operation; its name must be free among operations."""
        self._cow_barrier()
        if operation.name in self.operations:
            raise DuplicateNameError(
                f"interface {self.name!r} already has operation "
                f"{operation.name!r}"
            )
        self.operations[intern(operation.name)] = operation
        self._emit("add_operation", _OPS, {"operation": operation})

    def remove_operation(self, name: str) -> Operation:
        """Remove and return the operation called *name*."""
        self._cow_barrier()
        try:
            removed = self.operations.pop(name)
        except KeyError:
            raise UnknownPropertyError(
                f"{self.name!r} has no operation {name!r}"
            ) from None
        self._emit("remove_operation", _OPS, {"name": name})
        return removed

    def get_operation(self, name: str) -> Operation:
        """Return the operation called *name*."""
        try:
            return self.operations[name]
        except KeyError:
            raise UnknownPropertyError(
                f"{self.name!r} has no operation {name!r}"
            ) from None

    def replace_operation(self, operation: Operation) -> Operation:
        """Swap in a new value for an existing operation, returning the old."""
        self._cow_barrier()
        old = self.get_operation(operation.name)
        self.operations[operation.name] = operation
        self._emit("replace_operation", _OPS, {"operation": operation})
        return old

    def reorder_operations(self, order: list[str]) -> None:
        """Rebuild the operation dict in *order* (undo of a deletion)."""
        self._cow_barrier()
        self.operations = self._reordered(
            self.operations, order, "operation"
        )
        self._emit("reorder_operations", _OPS, {"order": tuple(order)})

    def _reordered(self, members: dict, order: list[str], noun: str) -> dict:
        """*members* rebuilt in *order*; must be an exact permutation."""
        if set(order) != set(members) or len(order) != len(members):
            raise UnknownPropertyError(
                f"{self.name!r}: {noun} reorder {list(order)!r} is not a "
                f"permutation of {list(members)!r}"
            )
        return {name: members[name] for name in order}

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def relationships_of_kind(
        self, kind: RelationshipKind
    ) -> list[RelationshipEnd]:
        """All ends of the given kind, in declaration order."""
        return [end for end in self.relationships.values() if end.kind is kind]

    def referenced_type_names(self) -> set[str]:
        """Every interface name referenced by this definition.

        Includes supertypes, attribute domains, relationship targets and
        inverse types, and operation signatures.  Used for dangling-
        reference validation and for delete propagation.
        """
        names: set[str] = set(self.supertypes)
        for attribute in self.attributes.values():
            names |= referenced_interfaces(attribute.type)
        for end in self.relationships.values():
            names.add(end.target_type)
            names.add(end.inverse_type)
        for operation in self.operations.values():
            names |= referenced_interfaces(operation.return_type)
            for parameter in operation.parameters:
                names |= referenced_interfaces(parameter.type)
        return names

    def copy(self) -> "InterfaceDef":
        """Deep-enough copy: containers are fresh, values are immutable."""
        return InterfaceDef(
            name=self.name,
            supertypes=list(self.supertypes),
            extent=self.extent,
            keys=[tuple(key) for key in self.keys],
            attributes=dict(self.attributes),
            relationships=dict(self.relationships),
            operations=dict(self.operations),
        )

    def __str__(self) -> str:
        isa = f" : {', '.join(self.supertypes)}" if self.supertypes else ""
        return f"interface {self.name}{isa}"
