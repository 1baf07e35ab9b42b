"""The significant-example generator: one witness + near-miss per site.

A *site* is one instance-level constraint of the schema: a relationship
end (cardinality / inverse / order-by / isa-extent / part-of /
instance-of) or a declared key.  For each site the generator builds two
minimal populations -- one the constraint admits, one it rejects -- and
self-filters against :func:`repro.instances.check.check_population`:
pairs whose witness is not admitted, or whose near-miss does not
provoke the site's constraint kind, are dropped.  That filter is what
makes the generator safe to run on arbitrary (fuzz-evolved but
structurally valid) schemas: it never emits a claim the checker does
not back.

Everything is deterministic in the schema: object ids, attribute
values, and site order depend only on declaration order, so the same
schema always yields the same examples (the fuzzer and the preview
differ rely on this).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.instances.check import check_population
from repro.instances.population import Population
from repro.model.relationships import RelationshipEnd, RelationshipKind
from repro.model.schema import Schema
from repro.model.types import ScalarType

#: Constraint families the generator covers, in reporting order.
CONSTRAINT_KINDS = (
    "cardinality",
    "inverse",
    "key",
    "order-by",
    "isa-extent",
    "part-of",
    "instance-of",
)


@dataclass(frozen=True)
class ExamplePair:
    """One constraint site with its admitted and rejected population."""

    kind: str
    subject: str  # e.g. "Department.staff" or "Person key (id)"
    description: str
    witness: Population
    near_miss: Population

    def render(self) -> str:
        lines = [
            f"{self.kind} at {self.subject}: {self.description}",
            "  admitted " + self.witness.render().replace("\n", "\n  "),
            "  rejected " + self.near_miss.render().replace("\n", "\n  "),
        ]
        return "\n".join(lines)


class _Builder:
    """Deterministic object factory: fills key closures with fresh values."""

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self.counter = 0

    def scalar_value(self, domain: ScalarType) -> object | None:
        self.counter += 1
        count = self.counter
        name = domain.name
        if name in ("short", "long", "octet"):
            return count
        if name in ("float", "double"):
            return count + 0.5
        if name == "boolean":
            return count % 2 == 1
        if name == "char":
            return chr(ord("a") + (count - 1) % 26)
        if name == "string":
            text = f"v{count:03d}"
            if domain.size is not None:
                text = text[-domain.size:] if domain.size < len(text) else text
            return text
        if name == "date":
            return f"2000-01-{(count - 1) % 28 + 1:02d}"
        if name == "time":
            return f"12:{(count - 1) % 60:02d}:00"
        if name in ("timestamp", "interval"):
            return f"t{count:03d}"
        return None  # void

    def key_attributes(self, type_name: str) -> list[str] | None:
        """Attributes an object of *type_name* must value to satisfy every
        key whose extent contains it; ``None`` when any is not scalar."""
        schema = self.schema
        if type_name not in schema.interfaces:
            return None
        available = schema.inherited_attributes(type_name)
        needed: list[str] = []
        for interface in (type_name, *sorted(schema.ancestors(type_name))):
            for key in schema.interfaces[interface].keys:
                for attr in key:
                    owner = available.get(attr)
                    if owner is None:
                        return None  # structurally broken key; unfillable
                    domain = schema.interfaces[owner].attributes[attr].type
                    if not isinstance(domain, ScalarType):
                        return None
                    if domain.name == "void":
                        return None
                    if attr not in needed:
                        needed.append(attr)
        return needed

    def make(
        self,
        pop: Population,
        type_name: str,
        oid: str,
        presets: dict[str, object] | None = None,
    ) -> bool:
        """Add one key-satisfying object; ``False`` when unfillable."""
        needed = self.key_attributes(type_name)
        if needed is None:
            return False
        available = self.schema.inherited_attributes(type_name)
        values: dict[str, object] = {}
        for attr in needed:
            owner = available[attr]
            domain = self.schema.interfaces[owner].attributes[attr].type
            values[attr] = self.scalar_value(domain)
        if presets:
            for attr, value in presets.items():
                values[attr] = value
        pop.add(oid, type_name, **values)
        return True

    def fill_attributes(
        self, pop: Population, oid: str, type_name: str, attrs: Iterable[str]
    ) -> bool:
        """Give *oid* fresh scalar values for *attrs* (e.g. order-by)."""
        available = self.schema.inherited_attributes(type_name)
        obj = pop.get(oid)
        for attr in attrs:
            if attr in obj.attributes:
                continue
            owner = available.get(attr)
            if owner is None:
                return False
            domain = self.schema.interfaces[owner].attributes[attr].type
            if not isinstance(domain, ScalarType):
                return False
            obj.attributes[attr] = self.scalar_value(domain)
        return True


def _end_sites(
    schema: Schema, interfaces: set[str] | None
) -> list[tuple[str, RelationshipEnd]]:
    return [
        (owner, end)
        for owner, end in schema.relationship_pairs()
        if interfaces is None or owner in interfaces
    ]


def _cardinality_pair(
    schema: Schema, owner: str, end: RelationshipEnd
) -> ExamplePair | None:
    subject = f"{owner}.{end.name}"
    arity = 2 if end.is_to_many else 1
    witness = Population(f"{subject}_witness")
    builder = _Builder(schema)
    if not builder.make(witness, owner, "o1"):
        return None
    for index in range(arity):
        oid = f"t{index + 1}"
        if not builder.make(witness, end.target_type, oid):
            return None
        witness.wire(schema, "o1", end.name, oid)
    near = Population(f"{subject}_near_miss")
    builder = _Builder(schema)
    if not builder.make(near, owner, "o1"):
        return None
    if end.is_to_many:
        if end.collection_kind != "set":
            return None  # list/bag ends admit duplicates; no near-miss here
        if not builder.make(near, end.target_type, "t1"):
            return None
        near.wire(schema, "o1", end.name, "t1")
        near.wire(schema, "o1", end.name, "t1")
        description = (
            f"a set-valued {end.role} end admits many distinct targets "
            "but rejects a repeated one"
        )
    else:
        for index in range(2):
            oid = f"t{index + 1}"
            if not builder.make(near, end.target_type, oid):
                return None
            near.wire(schema, "o1", end.name, oid)
        description = (
            "a to-one end admits a single target but rejects two"
        )
    return ExamplePair("cardinality", subject, description, witness, near)


def _inverse_pair(
    schema: Schema, owner: str, end: RelationshipEnd
) -> ExamplePair | None:
    if schema.find_inverse(owner, end) is None:
        return None
    subject = f"{owner}.{end.name}"
    witness = Population(f"{subject}_witness")
    builder = _Builder(schema)
    if not builder.make(witness, owner, "o1"):
        return None
    if not builder.make(witness, end.target_type, "t1"):
        return None
    witness.wire(schema, "o1", end.name, "t1")
    near = Population(f"{subject}_near_miss")
    builder = _Builder(schema)
    if not builder.make(near, owner, "o1"):
        return None
    if not builder.make(near, end.target_type, "t1"):
        return None
    near.wire(schema, "o1", end.name, "t1", mirror=False)
    return ExamplePair(
        "inverse", subject,
        f"a link is admitted only when mirrored on "
        f"{end.inverse_type}::{end.inverse_name}",
        witness, near,
    )


def _key_pairs(
    schema: Schema, interfaces: set[str] | None
) -> list[ExamplePair]:
    pairs: list[ExamplePair] = []
    for interface in schema:
        if interfaces is not None and interface.name not in interfaces:
            continue
        for key in interface.keys:
            subject = f"{interface.name} key ({', '.join(key)})"
            witness = Population(f"{interface.name}_key_witness")
            builder = _Builder(schema)
            if not builder.make(witness, interface.name, "o1"):
                continue
            if not builder.make(witness, interface.name, "o2"):
                continue
            near = Population(f"{interface.name}_key_near_miss")
            builder = _Builder(schema)
            if not builder.make(near, interface.name, "o1"):
                continue
            presets = {
                attr: near.get("o1").attributes[attr] for attr in key
            }
            if not builder.make(near, interface.name, "o2", presets):
                continue
            pairs.append(ExamplePair(
                "key", subject,
                "two objects of the extent are admitted with distinct "
                "key values and rejected with equal ones",
                witness, near,
            ))
    return pairs


def _order_by_pair(
    schema: Schema, owner: str, end: RelationshipEnd
) -> ExamplePair | None:
    if not end.order_by or not end.is_to_many:
        return None
    subject = f"{owner}.{end.name}"

    def build(reverse: bool) -> Population | None:
        pop = Population(
            f"{subject}_{'near_miss' if reverse else 'witness'}"
        )
        builder = _Builder(schema)
        if not builder.make(pop, owner, "o1"):
            return None
        for oid in ("t1", "t2"):
            if not builder.make(pop, end.target_type, oid):
                return None
            if not builder.fill_attributes(
                pop, oid, end.target_type, end.order_by
            ):
                return None
        keyed = sorted(
            ("t1", "t2"),
            key=lambda oid: tuple(
                pop.get(oid).attributes[attr] for attr in end.order_by
            ),
            reverse=reverse,
        )
        for oid in keyed:
            pop.wire(schema, "o1", end.name, oid)
        return pop

    witness = build(reverse=False)
    near = build(reverse=True)
    if witness is None or near is None:
        return None
    return ExamplePair(
        "order-by", subject,
        f"targets are admitted in ({', '.join(end.order_by)}) order "
        "and rejected out of it",
        witness, near,
    )


def _isa_extent_pair(
    schema: Schema, owner: str, end: RelationshipEnd
) -> ExamplePair | None:
    descendants = sorted(schema.descendants(end.target_type))
    if not descendants:
        return None
    subject = f"{owner}.{end.name}"
    witness = Population(f"{subject}_witness")
    builder = _Builder(schema)
    if not builder.make(witness, owner, "o1"):
        return None
    sub = next(
        (d for d in descendants if builder.make(witness, d, "t1")), None
    )
    if sub is None:
        return None
    witness.wire(schema, "o1", end.name, "t1")
    excluded = {end.target_type, *schema.descendants(end.target_type)}
    near = Population(f"{subject}_near_miss")
    builder = _Builder(schema)
    if not builder.make(near, owner, "o1"):
        return None
    alien = next(
        (
            name for name in schema.type_names()
            if name not in excluded and builder.make(near, name, "t1")
        ),
        None,
    )
    if alien is None:
        return None
    near.wire(schema, "o1", end.name, "t1")
    return ExamplePair(
        "isa-extent", subject,
        f"a {sub} (subtype) target is in the extent of "
        f"{end.target_type}; a {alien} is not",
        witness, near,
    )


def _hierarchy_pair(
    schema: Schema, owner: str, end: RelationshipEnd, kind: str
) -> ExamplePair | None:
    if not end.is_to_many:
        return None
    subject = f"{owner}.{end.name}"
    member = "part" if kind == "part-of" else "instance"
    witness = Population(f"{subject}_witness")
    builder = _Builder(schema)
    if not builder.make(witness, owner, "w1"):
        return None
    for oid in ("p1", "p2"):
        if not builder.make(witness, end.target_type, oid):
            return None
        witness.wire(schema, "w1", end.name, oid)
    near = Population(f"{subject}_near_miss")
    builder = _Builder(schema)
    if not builder.make(near, owner, "w1"):
        return None
    if not builder.make(near, owner, "w2"):
        return None
    if not builder.make(near, end.target_type, "p1"):
        return None
    near.wire(schema, "w1", end.name, "p1")
    near.wire(schema, "w2", end.name, "p1")
    return ExamplePair(
        kind, subject,
        f"the implicit 1:N admits one {owner} with many {member}s and "
        f"rejects one {member} shared by two",
        witness, near,
    )


def significant_examples(
    schema: Schema,
    interfaces: Iterable[str] | None = None,
    kinds: Iterable[str] | None = None,
) -> list[ExamplePair]:
    """Witness + near-miss pairs for every instantiable constraint site.

    ``interfaces`` restricts to sites owned by those interfaces (keys
    declared there, relationship ends declared there); ``kinds``
    restricts the constraint families.  Every returned pair is verified:
    the witness is admitted by :func:`check_population` and the
    near-miss provokes at least one issue of the pair's kind.
    """
    interface_set = None if interfaces is None else set(interfaces)
    kind_set = set(kinds) if kinds is not None else set(CONSTRAINT_KINDS)
    candidates: list[ExamplePair] = []
    ends = _end_sites(schema, interface_set)
    if "cardinality" in kind_set:
        candidates.extend(
            pair for owner, end in ends
            if (pair := _cardinality_pair(schema, owner, end)) is not None
        )
    if "inverse" in kind_set:
        candidates.extend(
            pair for owner, end in ends
            if (pair := _inverse_pair(schema, owner, end)) is not None
        )
    if "key" in kind_set:
        candidates.extend(_key_pairs(schema, interface_set))
    if "order-by" in kind_set:
        candidates.extend(
            pair for owner, end in ends
            if (pair := _order_by_pair(schema, owner, end)) is not None
        )
    if "isa-extent" in kind_set:
        candidates.extend(
            pair for owner, end in ends
            if (pair := _isa_extent_pair(schema, owner, end)) is not None
        )
    for kind, rel_kind in (
        ("part-of", RelationshipKind.PART_OF),
        ("instance-of", RelationshipKind.INSTANCE_OF),
    ):
        if kind in kind_set:
            candidates.extend(
                pair for owner, end in ends
                if end.kind is rel_kind
                and (pair := _hierarchy_pair(schema, owner, end, kind))
                is not None
            )
    return [
        pair for pair in candidates
        if not check_population(schema, pair.witness)
        and any(
            issue.kind == pair.kind
            for issue in check_population(schema, pair.near_miss)
        )
    ]
