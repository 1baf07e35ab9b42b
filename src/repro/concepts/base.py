"""Concept schema base machinery.

A *concept schema* is "a subset of an application schema that addresses
one particular point of view" (Section 1.2).  Four generic structure
patterns exist (Section 3.3), one per modeling abstraction of the extended
data model:

==================  =============================================
kind                point of view
==================  =============================================
``WAGON_WHEEL``     one object type and everything emanating from it
``GENERALIZATION``  one rooted ISA hierarchy and its inheritance paths
``AGGREGATION``     one rooted part-of explosion
``INSTANCE_OF``     one chain/tree of instance-of links
==================  =============================================

Concept schemas are *value snapshots extracted from* a schema: they name
their member types and carry the structural facts of their point of view.
They do not hold live references into the workspace schema, so a designer
can compare the concept schema as originally extracted against the
current workspace (the knowledge component does exactly that when
reporting interactions among concept schemas).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.model.errors import UnknownTypeError
from repro.model.interface import InterfaceDef
from repro.model.schema import Schema


def read_interface(schema: Schema, name: str) -> InterfaceDef:
    """*name*'s interface as *schema* holds it, shared or not.

    Extraction only reads, so unlike ``Schema.get`` this never
    materialises a copy-on-write share: concepts extracted from a fork
    (the decomposition's snapshot) leave it sharing every interface.
    Raises ``UnknownTypeError`` for an undefined name, as ``get`` does.
    """
    interface = schema.interfaces.get(name)
    if interface is None:
        raise UnknownTypeError(
            f"schema {schema.name!r} does not define {name!r}"
        )
    return interface


class ConceptKind(enum.Enum):
    """The four generic concept schema types of Section 3.3."""

    WAGON_WHEEL = "wagon_wheel"
    GENERALIZATION = "generalization"
    AGGREGATION = "aggregation"
    INSTANCE_OF = "instance_of"

    def label(self) -> str:
        """Human-readable label used in reports and the designer UI."""
        return {
            ConceptKind.WAGON_WHEEL: "wagon wheel",
            ConceptKind.GENERALIZATION: "generalization hierarchy",
            ConceptKind.AGGREGATION: "aggregation hierarchy",
            ConceptKind.INSTANCE_OF: "instance-of hierarchy",
        }[self]


@dataclass(frozen=True)
class ConceptSchema:
    """Common shape of every concept schema.

    ``anchor`` is the focal point (wagon wheel) or root (hierarchies);
    ``members`` is the set of object type names participating in this
    point of view.  Subclasses add the structural payload.
    """

    anchor: str
    members: frozenset[str] = field(default_factory=frozenset)
    #: Optional view name: "different points of view of an object type
    #: [may] result in more than one concept schema having the same
    #: focal point" (Section 3.3.1). The initial decomposition uses "".
    view: str = ""

    #: Overridden by each subclass.
    kind: ConceptKind = field(init=False, repr=False)

    @property
    def identifier(self) -> str:
        """Stable id used by the repository, e.g. ``ww:Course_Offering``.

        Additional points of view carry their view name after a ``#``:
        ``ww:Course_Offering#scheduling``.
        """
        prefix = {
            ConceptKind.WAGON_WHEEL: "ww",
            ConceptKind.GENERALIZATION: "gh",
            ConceptKind.AGGREGATION: "ah",
            ConceptKind.INSTANCE_OF: "ih",
        }[self.kind]
        base = f"{prefix}:{self.anchor}"
        return f"{base}#{self.view}" if self.view else base

    def covers_type(self, type_name: str) -> bool:
        """Whether *type_name* participates in this point of view."""
        return type_name in self.members

    def project(self, schema: Schema) -> Schema:
        """Project this concept's member types out of *schema*.

        Returns a fresh sub-schema that *shares* the member interfaces
        with *schema* copy-on-write (types no longer present in *schema*
        are skipped -- the concept schema may have been extracted before
        a deletion): adding a still-spined interface borrows it, and the
        first mutation on either side privatises a copy into the
        projection, so projecting never pays an eager interface copy.
        Useful for rendering and for exporting one point of view as ODL.
        """
        projection = Schema(f"{schema.name}#{self.identifier}")
        projection.add_interfaces(
            schema.get(name) for name in sorted(self.members) if name in schema
        )
        return projection

    def describe(self) -> str:
        """One-line description for concept schema listings."""
        return (
            f"{self.identifier}: {self.kind.label()} anchored at "
            f"{self.anchor} ({len(self.members)} types)"
        )
