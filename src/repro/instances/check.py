"""``check_population``: does a schema admit a population?

This module is the *specification* of the instance layer: every
constraint family the extended object model implies for instances is
enforced here, mirroring the structural rules of
:mod:`repro.model.validation` at the object level:

* **object-type** -- every object instantiates a defined interface;
* **attribute** -- attribute values name attributes available on the
  object's type (local or inherited) and conform to their domain type
  (scalar domains by Python type and declared size, interface domains
  by ISA extent membership, collections element-wise);
* **link** -- links follow traversal paths available on the owner's
  type and point at objects of the population;
* **isa-extent** -- a link target must be in the extent of the end's
  target type: its direct type is that interface or a descendant (the
  subtype-substitutability half of ISA extent containment; the other
  half, supertype keys constraining subtype objects, lives in the key
  check's extent closure);
* **cardinality** -- a to-one end holds at most one target; a ``set``
  end holds no duplicates; an ``array<T, n>`` end holds at most ``n``;
* **inverse** -- every link is mirrored on the declared inverse
  traversal path (checked only when the schema-level inverse is itself
  well formed -- a broken schema inverse is the schema's issue, not the
  population's);
* **key** -- over each interface's extent (objects whose direct type is
  the interface or a descendant), every declared key is total (all key
  attributes carry values) and unique;
* **order-by** -- the target sequence of an ordered to-many end is
  non-decreasing under the declared order-by attributes of the targets;
* **part-of / instance-of** -- the implicit 1:N at the object level:
  per relationship, no part (instance) belongs to two wholes
  (generics), and the object-level part-of / instance-of graphs are
  acyclic (the type graphs being DAGs does not imply this once
  subtyping lets an object appear on both sides).

Issues are reported deterministically: object checks in population
insertion order, extent and hierarchy checks in schema declaration
order.
"""

from __future__ import annotations

from repro.instances.population import (
    InstanceObject,
    Population,
    PopulationIssue,
)
from repro.model.relationships import RelationshipEnd, RelationshipKind
from repro.model.schema import Schema
from repro.model.types import (
    CollectionType,
    NamedType,
    ScalarType,
    TypeRef,
)

#: Scalar domains by the Python types their values may take.  ``bool``
#: is deliberately excluded from the numeric rows (it is an ``int``
#: subclass but ``boolean`` is its own ODL domain).
_TEXT_SCALARS = frozenset(
    {"string", "char", "date", "time", "timestamp", "interval"}
)
_INT_SCALARS = frozenset({"short", "long", "octet"})
_FLOAT_SCALARS = frozenset({"float", "double"})


def available_relationships(
    schema: Schema, type_name: str
) -> dict[str, tuple[str, RelationshipEnd]]:
    """path -> (defining type, end) for *type_name*, walking supertypes.

    The relationship-end analogue of ``Schema.inherited_attributes``:
    local declarations win, then nearest-first depth-first ancestry.
    """
    result: dict[str, tuple[str, RelationshipEnd]] = {}
    for owner in schema._linearised_ancestry(type_name):
        for path, end in schema.interfaces[owner].relationships.items():
            result.setdefault(path, (owner, end))
    return result


def _in_extent(schema: Schema, obj_type: str, interface: str) -> bool:
    """Is an object of direct type *obj_type* in *interface*'s extent?"""
    return obj_type == interface or interface in schema.ancestors(obj_type)


def _scalar_conforms(domain: ScalarType, value: object) -> bool:
    name = domain.name
    if name == "boolean":
        return isinstance(value, bool)
    if name in _INT_SCALARS:
        return isinstance(value, int) and not isinstance(value, bool)
    if name in _FLOAT_SCALARS:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if name in _TEXT_SCALARS:
        if not isinstance(value, str):
            return False
        if name == "char":
            return len(value) <= (domain.size or 1)
        if domain.size is not None:
            return len(value) <= domain.size
        return True
    return False  # void and friends admit no attribute values


def _value_issues(
    schema: Schema,
    pop: Population,
    obj: InstanceObject,
    attr_name: str,
    domain: TypeRef,
    value: object,
) -> list[PopulationIssue]:
    location = f"{obj.oid}.{attr_name}"
    if isinstance(domain, ScalarType):
        if not _scalar_conforms(domain, value):
            return [PopulationIssue(
                "attribute", location,
                f"value {value!r} does not conform to domain {domain}",
            )]
        return []
    if isinstance(domain, NamedType):
        if not isinstance(value, str) or value not in pop:
            return [PopulationIssue(
                "attribute", location,
                f"value {value!r} is not the id of a population object "
                f"(domain {domain})",
            )]
        target = pop.get(value)
        if target.type_name not in schema.interfaces or not _in_extent(
            schema, target.type_name, domain.name
        ):
            return [PopulationIssue(
                "attribute", location,
                f"object {value} of type {target.type_name} is not in the "
                f"extent of {domain.name}",
            )]
        return []
    # CollectionType: element-wise, plus set/array shape constraints.
    if not isinstance(value, (list, tuple)):
        return [PopulationIssue(
            "attribute", location,
            f"value {value!r} is not a collection (domain {domain})",
        )]
    issues: list[PopulationIssue] = []
    if domain.kind == "set" and len(set(map(repr, value))) != len(value):
        issues.append(PopulationIssue(
            "attribute", location, "set-valued attribute holds duplicates",
        ))
    if domain.kind == "array" and domain.size is not None:
        if len(value) > domain.size:
            issues.append(PopulationIssue(
                "attribute", location,
                f"array holds {len(value)} elements, size is {domain.size}",
            ))
    for element in value:
        issues.extend(
            _value_issues(schema, pop, obj, attr_name, domain.element, element)
        )
    return issues


def _attribute_issues(
    schema: Schema, pop: Population, obj: InstanceObject
) -> list[PopulationIssue]:
    issues: list[PopulationIssue] = []
    available = schema.inherited_attributes(obj.type_name)
    for attr_name, value in obj.attributes.items():
        owner = available.get(attr_name)
        if owner is None:
            issues.append(PopulationIssue(
                "attribute", f"{obj.oid}.{attr_name}",
                f"type {obj.type_name} has no attribute {attr_name!r}",
            ))
            continue
        domain = schema.interfaces[owner].attributes[attr_name].type
        issues.extend(
            _value_issues(schema, pop, obj, attr_name, domain, value)
        )
    return issues


def _link_issues(
    schema: Schema,
    pop: Population,
    obj: InstanceObject,
    ends: dict[str, tuple[str, RelationshipEnd]],
) -> list[PopulationIssue]:
    issues: list[PopulationIssue] = []
    for path, targets in obj.links.items():
        location = f"{obj.oid}.{path}"
        found = ends.get(path)
        if found is None:
            issues.append(PopulationIssue(
                "link", location,
                f"type {obj.type_name} has no relationship {path!r}",
            ))
            continue
        defining_owner, end = found
        resolved: list[InstanceObject] = []
        for target_oid in targets:
            if target_oid not in pop:
                issues.append(PopulationIssue(
                    "link", location,
                    f"target {target_oid!r} is not in the population",
                ))
                continue
            resolved.append(pop.get(target_oid))
        for target in resolved:
            if target.type_name not in schema.interfaces or not _in_extent(
                schema, target.type_name, end.target_type
            ):
                issues.append(PopulationIssue(
                    "isa-extent", location,
                    f"object {target.oid} of type {target.type_name} is "
                    f"not in the extent of {end.target_type}",
                ))
        # Cardinality: to-one arity, set duplicates, array size.
        if not end.is_to_many and len(targets) > 1:
            issues.append(PopulationIssue(
                "cardinality", location,
                f"to-one end holds {len(targets)} targets "
                f"({', '.join(targets)})",
            ))
        if end.collection_kind == "set" and len(set(targets)) != len(targets):
            issues.append(PopulationIssue(
                "cardinality", location,
                "set-valued end lists the same target twice",
            ))
        if (
            isinstance(end.target, CollectionType)
            and end.target.kind == "array"
            and end.target.size is not None
            and len(targets) > end.target.size
        ):
            issues.append(PopulationIssue(
                "cardinality", location,
                f"array end holds {len(targets)} targets, size is "
                f"{end.target.size}",
            ))
        # Inverse pairing, when the schema-level inverse is well formed.
        if schema.find_inverse(defining_owner, end) is not None:
            for target in resolved:
                if obj.oid not in target.links.get(end.inverse_name, ()):
                    issues.append(PopulationIssue(
                        "inverse", location,
                        f"link to {target.oid} is not mirrored on "
                        f"{target.oid}.{end.inverse_name}",
                    ))
        # Order-by: the stored sequence must already be sorted.
        if end.order_by and resolved:
            issues.extend(
                _order_by_issues(location, end, resolved)
            )
    return issues


def _order_by_issues(
    location: str, end: RelationshipEnd, targets: list[InstanceObject]
) -> list[PopulationIssue]:
    keys = []
    for target in targets:
        key = []
        for attr in end.order_by:
            if attr not in target.attributes:
                return [PopulationIssue(
                    "order-by", location,
                    f"target {target.oid} carries no value for order-by "
                    f"attribute {attr!r}",
                )]
            key.append(target.attributes[attr])
        keys.append(tuple(key))
    try:
        ordered = all(a <= b for a, b in zip(keys, keys[1:]))
    except TypeError:
        return [PopulationIssue(
            "order-by", location,
            "order-by values are not comparable across targets",
        )]
    if not ordered:
        return [PopulationIssue(
            "order-by", location,
            "targets are not ordered by "
            f"({', '.join(end.order_by)})",
        )]
    return []


def _hashable(value: object) -> object:
    if isinstance(value, (list, tuple)):
        return tuple(_hashable(element) for element in value)
    return value


def _key_issues(
    schema: Schema, members: dict[str, list[InstanceObject]]
) -> list[PopulationIssue]:
    """Key totality and uniqueness over each interface's extent."""
    issues: list[PopulationIssue] = []
    for interface_name, extent in members.items():
        interface = schema.interfaces[interface_name]
        for key in interface.keys:
            seen: dict[object, str] = {}
            for obj in extent:
                values = []
                missing = False
                for attr in key:
                    if attr not in obj.attributes:
                        issues.append(PopulationIssue(
                            "key", obj.oid,
                            f"no value for key attribute {attr!r} of "
                            f"{interface_name} key ({', '.join(key)})",
                        ))
                        missing = True
                        break
                    values.append(_hashable(obj.attributes[attr]))
                if missing:
                    continue
                value_key = tuple(values)
                other = seen.get(value_key)
                if other is not None:
                    issues.append(PopulationIssue(
                        "key", obj.oid,
                        f"duplicates {interface_name} key "
                        f"({', '.join(key)}) value of {other}",
                    ))
                else:
                    seen[value_key] = obj.oid
    return issues


_HIERARCHY_KINDS = (
    (RelationshipKind.PART_OF, "part-of", "part", "whole"),
    (RelationshipKind.INSTANCE_OF, "instance-of", "instance", "generic"),
)


def _hierarchy_issues(
    schema: Schema,
    pop: Population,
    ends_by_type: dict[str, dict[str, tuple[str, RelationshipEnd]]],
) -> list[PopulationIssue]:
    """Object-level implicit 1:N: exclusive membership and acyclicity."""
    issues: list[PopulationIssue] = []
    for kind, label, member_noun, owner_noun in _HIERARCHY_KINDS:
        # Directed object edges owner -> member over every to-many end
        # of this kind; membership is tracked per relationship (the
        # defining end), matching the per-relationship 1:N of the paper.
        edges: dict[str, set[str]] = {}
        owners_of: dict[tuple[str, str, str], list[tuple[str, str]]] = {}
        for obj in pop:
            ends = ends_by_type.get(obj.type_name, {})
            for path, targets in obj.links.items():
                found = ends.get(path)
                if found is None:
                    continue
                defining_owner, end = found
                if end.kind is not kind or not end.is_to_many:
                    continue
                for target_oid in targets:
                    if target_oid not in pop:
                        continue
                    edges.setdefault(obj.oid, set()).add(target_oid)
                    owners_of.setdefault(
                        (defining_owner, path, target_oid), []
                    ).append((obj.oid, path))
        for (_, path, member_oid), owners in owners_of.items():
            distinct = sorted({owner for owner, _ in owners})
            if len(distinct) > 1:
                issues.append(PopulationIssue(
                    label, f"{member_oid}",
                    f"{member_noun} belongs to {len(distinct)} "
                    f"{owner_noun}s via {path!r} "
                    f"({', '.join(distinct)})",
                ))
        cycle = _find_cycle(edges)
        if cycle is not None:
            issues.append(PopulationIssue(
                label, cycle[0],
                f"object-level {label} cycle: {' -> '.join(cycle)}",
            ))
    return issues


def _find_cycle(edges: dict[str, set[str]]) -> list[str] | None:
    """One directed cycle in *edges* as an oid path, or ``None``."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {node: WHITE for node in edges}
    for root in edges:
        if color[root] is not WHITE:
            continue
        stack: list[tuple[str, list[str]]] = [(root, [root])]
        while stack:
            node, path = stack.pop()
            if node not in edges:
                continue
            if color.get(node) == BLACK:
                continue
            color[node] = GRAY
            for successor in sorted(edges.get(node, ())):
                if successor in path:
                    return path[path.index(successor):] + [successor]
                if color.get(successor, WHITE) is WHITE:
                    stack.append((successor, path + [successor]))
            color[node] = BLACK
    return None


def check_population(
    schema: Schema, pop: Population
) -> list[PopulationIssue]:
    """Every way *pop* violates *schema*'s instance-level constraints.

    An empty list means the schema admits the population.  The cost is
    O(population size x ancestry depth), independent of schema size --
    only interfaces the population instantiates are visited.
    """
    issues: list[PopulationIssue] = []
    ends_by_type: dict[str, dict[str, tuple[str, RelationshipEnd]]] = {}
    members: dict[str, list[InstanceObject]] = {}
    for obj in pop:
        if obj.type_name not in schema.interfaces:
            issues.append(PopulationIssue(
                "object-type", obj.oid,
                f"type {obj.type_name!r} is not defined in the schema",
            ))
            continue
        if obj.type_name not in ends_by_type:
            ends_by_type[obj.type_name] = available_relationships(
                schema, obj.type_name
            )
        issues.extend(_attribute_issues(schema, pop, obj))
        issues.extend(
            _link_issues(schema, pop, obj, ends_by_type[obj.type_name])
        )
        # ISA extent containment: the object is a member of its own
        # type's extent and of every ancestor's.
        for interface_name in (
            obj.type_name, *sorted(schema.ancestors(obj.type_name))
        ):
            members.setdefault(interface_name, []).append(obj)
    issues.extend(_key_issues(schema, members))
    issues.extend(_hierarchy_issues(schema, pop, ends_by_type))
    return issues
