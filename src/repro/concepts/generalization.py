"""Generalization hierarchy concept schemas.

"A generalization hierarchy specifies the object types that participate
in subtype/supertype relationships ... Each generalization concept schema
describes all subclasses of the root type and allows the schema designer
to consider the inheritance patterns, distinctly from the various wagon
wheels." (Section 3.3.2)

One concept schema is extracted per hierarchy *root* (a type with
subtypes but no supertypes).  The paper's single-root assumption
(Section 3.2) is honoured softly: a multi-root ISA component yields one
concept schema per root, and schema validation emits a
``multi-root-hierarchy`` warning suggesting an abstract supertype.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.concepts.base import ConceptKind, ConceptSchema
from repro.model.schema import Schema


@dataclass(frozen=True)
class IsaEdge:
    """One subtype -> supertype link of the hierarchy."""

    subtype: str
    supertype: str

    def describe(self) -> str:
        return f"{self.subtype} ISA {self.supertype}"


@dataclass(frozen=True)
class GeneralizationHierarchy(ConceptSchema):
    """A rooted view of one inheritance hierarchy."""

    edges: tuple[IsaEdge, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", ConceptKind.GENERALIZATION)

    @property
    def root(self) -> str:
        """The unique root type of this hierarchy (alias of ``anchor``)."""
        return self.anchor

    def children(self, type_name: str) -> list[str]:
        """Direct subtypes of *type_name* within this hierarchy."""
        return [e.subtype for e in self.edges if e.supertype == type_name]

    def parents(self, type_name: str) -> list[str]:
        """Direct supertypes of *type_name* within this hierarchy."""
        return [e.supertype for e in self.edges if e.subtype == type_name]

    def depth(self) -> int:
        """Longest root-to-leaf path length (0 for a lone root)."""

        def walk(node: str, seen: frozenset[str]) -> int:
            subtypes = [c for c in self.children(node) if c not in seen]
            if not subtypes:
                return 0
            return 1 + max(walk(c, seen | {c}) for c in subtypes)

        return walk(self.root, frozenset({self.root}))

    def inheritance_paths(self) -> list[list[str]]:
        """All root-to-leaf paths, each listed root first.

        These are the "inheritance paths between object types" the
        concept schema exists to make visible.
        """
        paths: list[list[str]] = []

        def walk(node: str, path: list[str]) -> None:
            subtypes = [c for c in self.children(node) if c not in path]
            if not subtypes:
                paths.append(list(path))
                return
            for child in subtypes:
                walk(child, path + [child])

        walk(self.root, [self.root])
        return paths


def extract_generalization_hierarchy(
    schema: Schema, root: str
) -> GeneralizationHierarchy:
    """Extract the hierarchy rooted at *root*.

    Members are the root and all its transitive subtypes; edges are every
    ISA link between two members.  (With multiple inheritance a member
    may also have supertypes outside this hierarchy -- those edges belong
    to the hierarchy of their own root.)
    """
    members = {root} | schema.descendants(root)
    # Visit only the members (declaration order preserved via the index)
    # instead of scanning every interface per root.
    edges = tuple(
        IsaEdge(name, supertype)
        for name in schema.index.in_declaration_order(members)
        for supertype in schema.interfaces[name].supertypes
        if supertype in members
    )
    return GeneralizationHierarchy(
        anchor=root, members=frozenset(members), edges=edges
    )


def extract_all_generalization_hierarchies(
    schema: Schema,
) -> list[GeneralizationHierarchy]:
    """One hierarchy per generalization root, in declaration order."""
    return [
        extract_generalization_hierarchy(schema, root)
        for root in schema.generalization_roots()
    ]
