"""Instance-of hierarchy concept schemas.

"There is a benefit to viewing a sequence of several instance-of
relationships between object types as a concept schema."  The paper's
example (Figure 6) is the EMSL software-version chain: Application ->
Version -> Compiled Version -> Installed Version.  "In our experience,
the instance-of hierarchy has been linear with no branches.  However, we
are not claiming that a branched structure is not possible."
(Section 3.3.4)

One concept schema is extracted per instance-of *root* -- a generic
entity that is not itself an instance of anything.  Branching is
supported; :meth:`InstanceOfHierarchy.is_linear` reports whether the
common linear shape holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.concepts.base import ConceptKind, ConceptSchema, read_interface
from repro.model.schema import Schema


@dataclass(frozen=True)
class InstanceEdge:
    """One generic -> instance link, named by the to-instances path."""

    generic: str
    instance: str
    path_name: str

    def describe(self) -> str:
        return f"{self.instance} instance-of {self.generic} (via {self.path_name})"


@dataclass(frozen=True)
class InstanceOfHierarchy(ConceptSchema):
    """A rooted sequence (or tree) of instance-of links."""

    edges: tuple[InstanceEdge, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", ConceptKind.INSTANCE_OF)

    @property
    def root(self) -> str:
        """The most generic entity of the chain (alias of ``anchor``)."""
        return self.anchor

    def instances_of(self, generic: str) -> list[str]:
        """Direct instance types of *generic* within this hierarchy."""
        return [e.instance for e in self.edges if e.generic == generic]

    def is_linear(self) -> bool:
        """True when the hierarchy is a simple chain (the common case)."""
        return all(
            len(self.instances_of(member)) <= 1 for member in self.members
        )

    def chain(self) -> list[str]:
        """Root-first member sequence for a linear hierarchy.

        Raises ``ValueError`` when the hierarchy branches; callers should
        check :meth:`is_linear` first.
        """
        if not self.is_linear():
            raise ValueError(
                f"instance-of hierarchy {self.identifier} branches; "
                "it has no single chain"
            )
        sequence = [self.root]
        seen = {self.root}
        while True:
            nexts = [
                n for n in self.instances_of(sequence[-1]) if n not in seen
            ]
            if not nexts:
                return sequence
            sequence.append(nexts[0])
            seen.add(nexts[0])


def extract_instance_of_hierarchy(
    schema: Schema, root: str
) -> InstanceOfHierarchy:
    """Extract the instance-of hierarchy rooted at *root*."""
    read_interface(schema, root)  # raise early on unknown types
    members = {root}
    frontier = [root]
    edges: list[InstanceEdge] = []
    instance_edges = schema.instance_of_edges()
    while frontier:
        generic = frontier.pop()
        for edge_generic, instance, end in instance_edges:
            if edge_generic != generic:
                continue
            edges.append(InstanceEdge(generic, instance, end.name))
            if instance not in members:
                members.add(instance)
                frontier.append(instance)
    return InstanceOfHierarchy(
        anchor=root, members=frozenset(members), edges=tuple(edges)
    )


def extract_all_instance_of_hierarchies(
    schema: Schema,
) -> list[InstanceOfHierarchy]:
    """One hierarchy per instance-of root, in declaration order."""
    return [
        extract_instance_of_hierarchy(schema, root)
        for root in schema.instance_of_roots()
    ]
