"""Deterministic synthetic schema and operation workloads.

The paper reports no performance numbers; the scaling and throughput
benches characterise this implementation on generated shrink wrap
schemas.  Generation is seeded and fully deterministic so bench runs are
comparable.

:func:`generate_schema` builds a structurally valid schema with a
configurable mix of the extended model's features: generalization trees,
association webs with proper inverse pairs, part-of explosions, and
instance-of chains.  :func:`generate_operations` derives a stream of
valid modification operations against a schema (applying each to its
private copy so later operations remain valid).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.model.attributes import Attribute
from repro.model.interface import InterfaceDef
from repro.model.relationships import RelationshipKind
from repro.model.schema import Schema
from repro.model.types import NamedType, ScalarType, set_of
from repro.ops.attribute_ops import (
    AddAttribute,
    DeleteAttribute,
    ModifyAttributeSize,
)
from repro.ops.base import OperationContext, SchemaOperation
from repro.ops.composite import (
    CompositeOperation,
    ExtractSupertype,
    IntroduceAbstractSupertype,
    SplitBySubtyping,
)
from repro.ops.instance_of_ops import (
    AddInstanceOfRelationship,
    DeleteInstanceOfRelationship,
)
from repro.ops.operation_ops import AddOperation, DeleteOperation
from repro.ops.part_of_ops import (
    AddPartOfRelationship,
    DeletePartOfRelationship,
)
from repro.ops.relationship_ops import AddRelationship, DeleteRelationship
from repro.ops.type_ops import AddTypeDefinition, DeleteTypeDefinition
from repro.ops.type_property_ops import (
    AddExtentName,
    AddKeyList,
    AddSupertype,
    DeleteExtentName,
    DeleteKeyList,
    DeleteSupertype,
    ModifyExtentName,
)
from repro.knowledge.propagation import expand_applying

_SCALARS = (
    ScalarType("short"),
    ScalarType("long"),
    ScalarType("float"),
    ScalarType("boolean"),
    ScalarType("date"),
    ScalarType("string", 20),
    ScalarType("string", 60),
)


@dataclass(frozen=True, slots=True)
class WorkloadSpec:
    """Size and shape parameters of a generated schema."""

    types: int = 20
    attributes_per_type: int = 4
    operations_per_type: int = 1
    association_density: float = 0.8  # associations per type, on average
    isa_fraction: float = 0.3  # fraction of types placed under a parent
    part_of_chain: int = 4  # length of the generated parts explosion
    instance_of_chain: int = 3  # length of the generated version chain
    isa_chain: int = 0  # depth of one dedicated supertype chain
    hub_fanout: int = 0  # spokes of one wide wagon-wheel hub type
    seed: int = 0


def generate_schema(spec: WorkloadSpec, name: str | None = None) -> Schema:
    """Build a deterministic, structurally valid schema from *spec*.

    Valid by construction; the generator does not validate what it
    built (``tests/test_workload.py`` checks every generated shape).
    """
    rng = random.Random(spec.seed)
    schema = Schema(name or f"synthetic_{spec.types}_{spec.seed}")

    type_names = [f"Type{i:03d}" for i in range(spec.types)]
    # Built and wired detached, then added as one population: wiring an
    # added interface would land one spine record per write and settle
    # the population claim with a copy.
    interfaces: dict[str, InterfaceDef] = {}
    for type_name in type_names:
        interface = InterfaceDef(type_name)
        interface.set_extent(f"{type_name.lower()}_extent")
        for attr_index in range(spec.attributes_per_type):
            interface.add_attribute(
                Attribute(f"attr{attr_index}", rng.choice(_SCALARS))
            )
        if interface.attributes:
            interface.add_key((next(iter(interface.attributes)),))
        for op_index in range(spec.operations_per_type):
            interface.add_operation(
                _make_operation(f"op{op_index}", rng)
            )
        interfaces[type_name] = interface

    _wire_isa_chain(interfaces, type_names, spec)
    _wire_generalization(interfaces, type_names, spec, rng)
    _wire_hub_fanout(interfaces, type_names, spec)
    _wire_associations(interfaces, type_names, spec, rng)
    _wire_part_of_chain(interfaces, type_names, spec)
    _wire_instance_of_chain(interfaces, type_names, spec)
    schema.add_interfaces(interfaces.values())
    return schema


def _make_operation(op_name: str, rng: random.Random):
    from repro.model.operations import Operation, Parameter

    parameters = tuple(
        Parameter("in", rng.choice(_SCALARS), f"p{i}")
        for i in range(rng.randint(0, 2))
    )
    return Operation(op_name, rng.choice(_SCALARS), parameters)


def _wire_isa_chain(interfaces, type_names, spec) -> None:
    """One deep supertype chain across the first ``isa_chain`` types.

    Models the degenerate-depth hierarchies that exposed the recursive
    ancestry/cycle walks (they overflowed the interpreter stack beyond
    ~1 000 levels); the large-schema fuzz profile and the deep-chain
    regression tests generate through this.
    """
    chain = type_names[: max(0, min(spec.isa_chain, len(type_names)))]
    for parent, child in zip(chain, chain[1:]):
        interfaces[child].add_supertype(parent)


def _wire_generalization(interfaces, type_names, spec, rng) -> None:
    """Attach a fraction of types under earlier types (guaranteed acyclic)."""
    for index, type_name in enumerate(type_names[1:], start=1):
        if rng.random() < spec.isa_fraction:
            parent = type_names[rng.randrange(0, index)]
            interface = interfaces[type_name]
            if parent not in interface.supertypes:
                interface.add_supertype(parent)


def _wire_hub_fanout(interfaces, type_names, spec) -> None:
    """One wide wagon-wheel hub: the first type linked to the next N.

    Stresses the fan-out shape of Figure 3's wagon wheel at scale -- a
    single interface owning hundreds of association ends, each with its
    inverse on a distinct rim type.
    """
    if spec.hub_fanout <= 0 or len(type_names) < 2:
        return
    hub_name = type_names[0]
    hub = interfaces[hub_name]
    for spoke, target_name in enumerate(
        type_names[1 : spec.hub_fanout + 1]
    ):
        path = f"spoke{spoke}_to"
        inverse_path = f"spoke{spoke}_from"
        hub.add_relationship(
            _end(path, set_of(target_name), target_name, inverse_path)
        )
        interfaces[target_name].add_relationship(
            _end(inverse_path, NamedType(hub_name), hub_name, path)
        )


def _wire_associations(interfaces, type_names, spec, rng) -> None:
    """Create inverse-paired association ends between random types."""
    count = int(len(type_names) * spec.association_density)
    for link_index in range(count):
        owner_name = rng.choice(type_names)
        target_name = rng.choice(type_names)
        owner = interfaces[owner_name]
        target = interfaces[target_name]
        path = f"rel{link_index}_to"
        inverse_path = f"rel{link_index}_from"
        if (
            path in owner.attributes or path in owner.relationships
            or inverse_path in target.attributes
            or inverse_path in target.relationships
        ):
            continue
        to_many = rng.random() < 0.5
        owner_target = set_of(target_name) if to_many else NamedType(target_name)
        owner.add_relationship(
            _end(path, owner_target, target_name, inverse_path)
        )
        target.add_relationship(
            _end(inverse_path, NamedType(owner_name), owner_name, path)
        )


def _end(name, target, inverse_type, inverse_name,
         kind=RelationshipKind.ASSOCIATION):
    from repro.model.relationships import RelationshipEnd

    return RelationshipEnd(name, target, inverse_type, inverse_name, kind)


def _wire_part_of_chain(interfaces, type_names, spec) -> None:
    """A parts explosion across the first ``part_of_chain`` types."""
    chain = type_names[: max(0, min(spec.part_of_chain, len(type_names)))]
    for whole_name, part_name in zip(chain, chain[1:]):
        interfaces[whole_name].add_relationship(
            _end(
                "has_parts", set_of(part_name), part_name, "part_of_whole",
                RelationshipKind.PART_OF,
            )
        )
        interfaces[part_name].add_relationship(
            _end(
                "part_of_whole", NamedType(whole_name), whole_name, "has_parts",
                RelationshipKind.PART_OF,
            )
        )


def _wire_instance_of_chain(interfaces, type_names, spec) -> None:
    """A version chain across the last ``instance_of_chain`` types."""
    if spec.instance_of_chain <= 1:
        return
    chain = type_names[-spec.instance_of_chain:]
    for generic_name, instance_name in zip(chain, chain[1:]):
        interfaces[generic_name].add_relationship(
            _end(
                "instances", set_of(instance_name), instance_name, "generic",
                RelationshipKind.INSTANCE_OF,
            )
        )
        interfaces[instance_name].add_relationship(
            _end(
                "generic", NamedType(generic_name), generic_name, "instances",
                RelationshipKind.INSTANCE_OF,
            )
        )


def generate_operations(
    schema: Schema, count: int, seed: int = 0
) -> list[SchemaOperation]:
    """Derive *count* valid operations against (an evolving copy of) *schema*.

    Each generated operation is applied -- with propagation, in one
    :func:`~repro.knowledge.propagation.expand_applying` pass -- to a
    private scratch copy so that subsequent operations stay valid; an
    operation or composite that fails leaves the scratch as it was.
    The returned list therefore replays cleanly against a fresh copy of
    *schema* in a workspace with propagation enabled.

    The stream covers the whole Appendix A language: attribute,
    relationship, type, operation, part-of, instance-of, and
    type-property operations, plus composites (which contribute their
    expanded primitive plans, so the returned list stays a list of
    primitive operations).
    """
    rng = random.Random(seed)
    # A CoW fork, not an eager copy: only the types the generated stream
    # actually touches materialise, so generation cost tracks *count*
    # rather than schema size (the dominant cost at 100k types).
    scratch = schema.fork("workload_scratch")
    try:
        context = OperationContext(reference=schema)
        operations: list[SchemaOperation] = []
        attempts = 0
        while len(operations) < count and attempts < count * 50:
            attempts += 1
            if rng.random() < _COMPOSITE_SHARE:
                composite = random_composite(scratch, rng, len(operations))
                if composite is None:
                    continue
                # All or nothing: a composite whose k-th op fails leaves
                # no trace of ops 1..k-1, which the stream drops too.
                undos: list = []
                try:
                    plan = composite.expand_plan(scratch, context)
                    for operation in plan:
                        undos.extend(
                            expand_applying(scratch, operation, context)[1]
                        )
                except Exception:
                    for undo in reversed(undos):
                        undo()
                    continue
                operations.extend(plan)
                continue
            operation = random_operation(scratch, rng, len(operations))
            if operation is None:
                continue
            try:
                expand_applying(scratch, operation, context)
            except Exception:
                continue
            operations.append(operation)
        if len(operations) < count:
            raise RuntimeError(
                f"could only generate {len(operations)} of {count} operations"
            )
        del operations[count:]
        return operations
    finally:
        scratch.release_cow()


#: Fraction of generation draws that attempt a composite operation.
_COMPOSITE_SHARE = 0.04


def random_operation(
    schema: Schema, rng: random.Random, index: int
) -> SchemaOperation | None:
    """One randomly chosen candidate operation against *schema*.

    The operation is built from the current state of *schema* but not
    applied; it may still fail validation (e.g. a part-of edge that
    would close a cycle) -- callers decide whether to skip or to treat
    the rejection itself as part of the workload.  ``None`` means the
    chosen operation family has no candidate in this schema (e.g. no
    relationship left to delete).  Deterministic for a given *rng*
    state, *schema*, and *index*.
    """
    maker = rng.choice(_PRIMITIVE_MAKERS)
    return maker(schema, rng, index)


def random_composite(
    schema: Schema, rng: random.Random, index: int
) -> CompositeOperation | None:
    """One randomly chosen composite operation against *schema*."""
    maker = rng.choice(_COMPOSITE_MAKERS)
    return maker(schema, rng, index)


def _random_type(scratch: Schema, rng: random.Random) -> str | None:
    names = scratch.type_names()
    return rng.choice(names) if names else None


def _make_add_attribute(scratch, rng, index):
    owner = _random_type(scratch, rng)
    if owner is None:
        return None
    return AddAttribute(owner, rng.choice(_SCALARS), f"gen_attr{index}")


def _make_delete_attribute(scratch, rng, index):
    owner = _random_type(scratch, rng)
    if owner is None:
        return None
    attrs = list(scratch.get(owner).attributes)
    if not attrs:
        return None
    return DeleteAttribute(owner, rng.choice(attrs))


def _make_resize_attribute(scratch, rng, index):
    owner = _random_type(scratch, rng)
    if owner is None:
        return None
    sized = [
        a for a in scratch.get(owner).attributes.values()
        if isinstance(a.type, ScalarType) and a.type.size is not None
    ]
    if not sized:
        return None
    attribute = rng.choice(sized)
    return ModifyAttributeSize(
        owner, attribute.name, attribute.size, attribute.size + 10
    )


def _make_add_type(scratch, rng, index):
    return AddTypeDefinition(f"GenType{index:04d}")


def _make_delete_type(scratch, rng, index):
    # Deleting types keeps the workload from growing without bound; the
    # cascade is exercised as part of the stream.
    name = _random_type(scratch, rng)
    if name is None or len(scratch) < 5:
        return None
    return DeleteTypeDefinition(name)


def _make_add_relationship(scratch, rng, index):
    owner = _random_type(scratch, rng)
    target = _random_type(scratch, rng)
    if owner is None or target is None:
        return None
    return AddRelationship(
        owner, set_of(target), f"gen_rel{index}_to", target, f"gen_rel{index}_from"
    )


def _make_delete_relationship(scratch, rng, index):
    owner = _random_type(scratch, rng)
    if owner is None:
        return None
    ends = [
        end for end in scratch.get(owner).relationships.values()
        if end.kind is RelationshipKind.ASSOCIATION
    ]
    if not ends:
        return None
    return DeleteRelationship(owner, rng.choice(ends).name)


def _make_add_operation(scratch, rng, index):
    owner = _random_type(scratch, rng)
    if owner is None:
        return None
    return AddOperation(owner, rng.choice(_SCALARS), f"gen_op{index}")


def _make_delete_operation(scratch, rng, index):
    owner = _random_type(scratch, rng)
    if owner is None:
        return None
    names = list(scratch.get(owner).operations)
    if not names:
        return None
    return DeleteOperation(owner, rng.choice(names))


# ----------------------------------------------------------------------
# Part-of / instance-of operations
# ----------------------------------------------------------------------


def _make_add_part_of(scratch, rng, index):
    whole = _random_type(scratch, rng)
    part = _random_type(scratch, rng)
    if whole is None or part is None or whole == part:
        return None
    return AddPartOfRelationship(
        whole, set_of(part), f"gen_part{index}_to", part, f"gen_part{index}_from"
    )


def _make_delete_part_of(scratch, rng, index):
    edges = scratch.part_of_edges()
    if not edges:
        return None
    whole, _, end = edges[rng.randrange(len(edges))]
    return DeletePartOfRelationship(whole, end.name)


def _make_add_instance_of(scratch, rng, index):
    generic = _random_type(scratch, rng)
    instance = _random_type(scratch, rng)
    if generic is None or instance is None or generic == instance:
        return None
    return AddInstanceOfRelationship(
        generic, set_of(instance), f"gen_inst{index}_to",
        instance, f"gen_inst{index}_from",
    )


def _make_delete_instance_of(scratch, rng, index):
    edges = scratch.instance_of_edges()
    if not edges:
        return None
    generic, _, end = edges[rng.randrange(len(edges))]
    return DeleteInstanceOfRelationship(generic, end.name)


# ----------------------------------------------------------------------
# Type-property operations (supertypes, extents, keys)
# ----------------------------------------------------------------------


def _make_add_supertype(scratch, rng, index):
    subtype = _random_type(scratch, rng)
    supertype = _random_type(scratch, rng)
    if subtype is None or supertype is None or subtype == supertype:
        return None
    return AddSupertype(subtype, supertype)


def _make_delete_supertype(scratch, rng, index):
    candidates = [
        interface.name for interface in scratch if interface.supertypes
    ]
    if not candidates:
        return None
    name = rng.choice(candidates)
    return DeleteSupertype(name, rng.choice(scratch.get(name).supertypes))


def _make_add_extent(scratch, rng, index):
    candidates = [
        interface.name for interface in scratch if interface.extent is None
    ]
    if not candidates:
        return None
    return AddExtentName(rng.choice(candidates), f"gen_extent{index}")


def _make_modify_extent(scratch, rng, index):
    candidates = [
        interface for interface in scratch if interface.extent is not None
    ]
    if not candidates:
        return None
    interface = candidates[rng.randrange(len(candidates))]
    return ModifyExtentName(
        interface.name, interface.extent, f"gen_extent{index}"
    )


def _make_delete_extent(scratch, rng, index):
    candidates = [
        interface for interface in scratch if interface.extent is not None
    ]
    if not candidates:
        return None
    interface = candidates[rng.randrange(len(candidates))]
    return DeleteExtentName(interface.name, interface.extent)


def _make_add_key(scratch, rng, index):
    owner = _random_type(scratch, rng)
    if owner is None:
        return None
    available = sorted(
        set(scratch.get(owner).attributes)
        | set(scratch.inherited_attributes(owner))
    )
    if not available:
        return None
    return AddKeyList(owner, (rng.choice(available),))


def _make_delete_key(scratch, rng, index):
    candidates = [interface for interface in scratch if interface.keys]
    if not candidates:
        return None
    interface = candidates[rng.randrange(len(candidates))]
    return DeleteKeyList(
        interface.name, tuple(interface.keys[rng.randrange(len(interface.keys))])
    )


# ----------------------------------------------------------------------
# Composite operations (macros expanding to primitive plans)
# ----------------------------------------------------------------------


def _make_introduce_abstract_supertype(scratch, rng, index):
    names = scratch.type_names()
    if len(names) < 2:
        return None
    subtypes = tuple(rng.sample(names, 2))
    return IntroduceAbstractSupertype(
        f"GenSuper{index:04d}", subtypes, lift_common=rng.random() < 0.5
    )


def _make_extract_supertype(scratch, rng, index):
    # "Has an ancestor" is "some supertype resolves": test that instead
    # of building every interface's ancestor set.
    interfaces = scratch.interfaces
    candidates = [
        interface.name
        for interface in scratch
        if interface.attributes
        and any(supertype in interfaces for supertype in interface.supertypes)
    ]
    if not candidates:
        return None
    source = rng.choice(candidates)
    supertype = rng.choice(sorted(scratch.ancestors(source)))
    attribute = rng.choice(list(scratch.get(source).attributes))
    return ExtractSupertype(source, supertype, (attribute,))


def _make_split_by_subtyping(scratch, rng, index):
    candidates = [
        interface.name for interface in scratch if interface.attributes
    ]
    if not candidates:
        return None
    source = rng.choice(candidates)
    attribute = rng.choice(list(scratch.get(source).attributes))
    return SplitBySubtyping(source, f"GenSub{index:04d}", (attribute,))


#: Every primitive operation family the generator can draw from.
_PRIMITIVE_MAKERS = (
    _make_add_attribute,
    _make_delete_attribute,
    _make_resize_attribute,
    _make_add_type,
    _make_add_relationship,
    _make_delete_relationship,
    _make_add_operation,
    _make_delete_operation,
    _make_delete_type,
    _make_add_part_of,
    _make_delete_part_of,
    _make_add_instance_of,
    _make_delete_instance_of,
    _make_add_supertype,
    _make_delete_supertype,
    _make_add_extent,
    _make_modify_extent,
    _make_delete_extent,
    _make_add_key,
    _make_delete_key,
)

#: Composite (macro) operation families.
_COMPOSITE_MAKERS = (
    _make_introduce_abstract_supertype,
    _make_extract_supertype,
    _make_split_by_subtyping,
)
