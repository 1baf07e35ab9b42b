"""Structural validation of schemas.

Each rule inspects one aspect of the extended object model and yields
:class:`Issue` records.  The knowledge component of the interactive
designer (:mod:`repro.knowledge`) layers designer-facing consistency
checks on top of these structural rules; here we only enforce what must
hold for a schema to *be* a schema of the extended ODMG model:

* every referenced type name is defined (``dangling-type``);
* relationship ends pair up with their declared inverses
  (``inverse-missing`` / ``inverse-mismatch``);
* relationship kinds agree across the two ends (``kind-mismatch``);
* part-of and instance-of relationships honour the implicit 1:N
  cardinality (``cardinality-role``);
* the generalization, aggregation, and instance-of graphs are acyclic
  (``isa-cycle`` / ``part-of-cycle`` / ``instance-of-cycle``);
* keys name attributes that exist, locally or inherited (``key-unknown``);
* order-by lists name attributes of the target type (``order-by-unknown``).

Severity ``warning`` marks conditions the paper treats as design smells
rather than errors (e.g. a multi-rooted generalization component, which
Section 3.2 says should be fixed by adding an abstract supertype).

The rules come in two shapes.  Five are *per-interface*: their output for
one interface depends only on that interface and the types it reaches
(supertypes for inheritance, targets for order-by), so they are exposed
both as full-scan generators (``check_*``) and as per-interface workers
(``*_issues``) that :mod:`repro.model.validation_cache` re-runs only for
dirty interfaces.  The other four are *graph* rules (three cycle checks
and the multi-root warning) whose unit of work is a connected component
rather than an interface; the cache re-checks only touched components.
Each rule declares its read scope in :data:`RULE_SCOPES` so the cache can
derive the dirty closure from an operation's touch aspects.

:func:`validate_schema` remains the reference specification: the
incremental engine must reproduce its output byte for byte, and the
``incremental-vs-full-validation`` differential invariant in
:mod:`repro.verify.invariants` holds it to that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from repro.model.errors import ValidationError
from repro.model.interface import InterfaceDef
from repro.model.mutation import Aspect
from repro.model.relationships import RelationshipKind
from repro.model.schema import Schema
from repro.model.types import referenced_interfaces

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"


@dataclass(frozen=True, slots=True)
class Issue:
    """One validation finding.

    ``rule`` is a stable identifier (e.g. ``"dangling-type"``),
    ``location`` a dotted construct path (``Type.property``), and
    ``message`` human-readable text for designer feedback.
    """

    rule: str
    severity: str
    location: str
    message: str

    def __str__(self) -> str:
        return f"[{self.severity}] {self.rule} at {self.location}: {self.message}"


Rule = Callable[[Schema], Iterator[Issue]]
InterfaceRule = Callable[[Schema, InterfaceDef], Iterator[Issue]]


# ----------------------------------------------------------------------
# Rule scopes
# ----------------------------------------------------------------------

#: Dirt stays on the touched interface itself (plus interfaces that
#: reference it, which every reach level implies for membership changes).
REACH_LOCAL = "local"
#: Dirt also spreads to interfaces that *reference* the touched one
#: (inverse declarations read the other end's owner).
REACH_REFERENCERS = "referencers"
#: Dirt also spreads down the generalization hierarchy (inherited
#: attributes feed key and order-by resolution on every descendant).
REACH_DESCENDANTS = "descendants"
#: The rule's unit of work is a connected component of one link graph;
#: dirt re-checks the touched component, not the touched interface.
REACH_COMPONENT = "component"


@dataclass(frozen=True, slots=True)
class RuleScope:
    """What one rule reads, for dirty-set derivation.

    ``aspects`` lists the :class:`~repro.model.mutation.Aspect` members
    whose change can alter the rule's output; ``reach`` says how far a
    touch propagates before the rule's output is stable again.
    """

    rule: str
    aspects: frozenset[Aspect]
    reach: str


_REL_ASPECTS = frozenset(
    {Aspect.REL_ASSOCIATION, Aspect.REL_PART_OF, Aspect.REL_INSTANCE_OF}
)

#: Read scopes of every structural rule.  ``Aspect.EXTENT`` appears in
#: no scope: no structural rule reads the extent name, so extent-only
#: touches are validation no-ops.
RULE_SCOPES: tuple[RuleScope, ...] = (
    RuleScope(
        "dangling-type",
        frozenset({Aspect.ISA, Aspect.ATTRS, Aspect.OPS}) | _REL_ASPECTS,
        REACH_REFERENCERS,
    ),
    RuleScope("inverse-missing", _REL_ASPECTS, REACH_REFERENCERS),
    RuleScope("inverse-mismatch", _REL_ASPECTS, REACH_REFERENCERS),
    RuleScope("kind-mismatch", _REL_ASPECTS, REACH_REFERENCERS),
    RuleScope(
        "cardinality-role",
        frozenset({Aspect.REL_PART_OF, Aspect.REL_INSTANCE_OF}),
        REACH_REFERENCERS,
    ),
    RuleScope("isa-cycle", frozenset({Aspect.ISA}), REACH_COMPONENT),
    RuleScope(
        "part-of-cycle", frozenset({Aspect.REL_PART_OF}), REACH_COMPONENT
    ),
    RuleScope(
        "instance-of-cycle",
        frozenset({Aspect.REL_INSTANCE_OF}),
        REACH_COMPONENT,
    ),
    RuleScope(
        "key-unknown",
        frozenset({Aspect.KEYS, Aspect.ATTRS, Aspect.ISA}),
        REACH_DESCENDANTS,
    ),
    RuleScope(
        "order-by-unknown",
        frozenset({Aspect.ATTRS, Aspect.ISA}) | _REL_ASPECTS,
        REACH_DESCENDANTS,
    ),
    RuleScope(
        "multi-root-hierarchy", frozenset({Aspect.ISA}), REACH_COMPONENT
    ),
)

#: Every aspect some rule reads; touches outside this set cannot change
#: any validation output.
VALIDATION_ASPECTS: frozenset[Aspect] = frozenset().union(
    *(scope.aspects for scope in RULE_SCOPES)
)

#: Aspects whose change can alter what an interface's *descendants*
#: inherit, so dirt must close over the subtype graph.
DESCEND_ASPECTS: frozenset[Aspect] = frozenset({Aspect.ISA, Aspect.ATTRS})


# ----------------------------------------------------------------------
# Per-interface rules
# ----------------------------------------------------------------------


def dangling_type_issues(
    schema: Schema, interface: InterfaceDef
) -> Iterator[Issue]:
    """Dangling-reference findings of one interface."""
    for supertype in interface.supertypes:
        if supertype not in schema:
            yield Issue(
                "dangling-type", SEVERITY_ERROR, interface.name,
                f"supertype {supertype!r} is not defined",
            )
    for attribute in interface.attributes.values():
        for used in sorted(referenced_interfaces(attribute.type)):
            if used not in schema:
                yield Issue(
                    "dangling-type", SEVERITY_ERROR,
                    f"{interface.name}.{attribute.name}",
                    f"attribute type references undefined {used!r}",
                )
    for end in interface.relationships.values():
        if end.target_type not in schema:
            yield Issue(
                "dangling-type", SEVERITY_ERROR,
                f"{interface.name}.{end.name}",
                f"relationship targets undefined {end.target_type!r}",
            )
        if end.inverse_type not in schema:
            yield Issue(
                "dangling-type", SEVERITY_ERROR,
                f"{interface.name}.{end.name}",
                f"inverse names undefined {end.inverse_type!r}",
            )
    for operation in interface.operations.values():
        used_names: set[str] = set(
            referenced_interfaces(operation.return_type)
        )
        for parameter in operation.parameters:
            used_names |= referenced_interfaces(parameter.type)
        for used in sorted(used_names):
            if used not in schema:
                yield Issue(
                    "dangling-type", SEVERITY_ERROR,
                    f"{interface.name}.{operation.name}",
                    f"operation signature references undefined {used!r}",
                )


def inverse_issues(schema: Schema, interface: InterfaceDef) -> Iterator[Issue]:
    """Inverse-pairing findings of one interface's relationship ends."""
    owner = interface.name
    for end in interface.relationships.values():
        if end.inverse_type not in schema:
            continue  # reported by check_dangling_types
        other = schema.interfaces[end.inverse_type]
        inverse = other.relationships.get(end.inverse_name)
        location = f"{owner}.{end.name}"
        if inverse is None:
            yield Issue(
                "inverse-missing", SEVERITY_ERROR, location,
                f"declared inverse {end.inverse_type}::{end.inverse_name} "
                "does not exist",
            )
            continue
        if inverse.target_type != owner or inverse.inverse_name != end.name:
            yield Issue(
                "inverse-mismatch", SEVERITY_ERROR, location,
                f"inverse {end.inverse_type}::{end.inverse_name} does not "
                f"point back at {owner}::{end.name}",
            )
        if inverse.kind is not end.kind:
            yield Issue(
                "kind-mismatch", SEVERITY_ERROR, location,
                f"this end is {end.kind.value} but its inverse is "
                f"{inverse.kind.value}",
            )
        if end.inverse_type != end.target_type:
            yield Issue(
                "inverse-mismatch", SEVERITY_ERROR, location,
                f"target type {end.target_type!r} differs from inverse "
                f"owner {end.inverse_type!r}",
            )


def cardinality_issues(
    schema: Schema, interface: InterfaceDef
) -> Iterator[Issue]:
    """Implicit-1:N findings of one interface's part-of/instance-of ends."""
    owner = interface.name
    for end in interface.relationships.values():
        if end.kind is RelationshipKind.ASSOCIATION:
            continue
        inverse = schema.find_inverse(owner, end)
        if inverse is None:
            continue  # reported by check_inverses
        if end.is_to_many == inverse.is_to_many:
            shape = "to-many" if end.is_to_many else "to-one"
            yield Issue(
                "cardinality-role", SEVERITY_ERROR, f"{owner}.{end.name}",
                f"{end.kind.value} relationship has both ends {shape}; "
                "the implicit cardinality is 1:N",
            )


def key_issues(schema: Schema, interface: InterfaceDef) -> Iterator[Issue]:
    """Unknown-attribute findings of one interface's key lists."""
    available = set(interface.attributes)
    available.update(schema.inherited_attributes(interface.name))
    for key in interface.keys:
        for attr_name in key:
            if attr_name not in available:
                yield Issue(
                    "key-unknown", SEVERITY_ERROR,
                    f"{interface.name}.keys",
                    f"key {key!r} names unknown attribute {attr_name!r}",
                )


def order_by_issues(schema: Schema, interface: InterfaceDef) -> Iterator[Issue]:
    """Unknown-order-by findings of one interface's relationship ends."""
    owner = interface.name
    for end in interface.relationships.values():
        if not end.order_by or end.target_type not in schema:
            continue
        target = schema.interfaces[end.target_type]
        available = set(target.attributes)
        available.update(schema.inherited_attributes(target.name))
        for attr_name in end.order_by:
            if attr_name not in available:
                yield Issue(
                    "order-by-unknown", SEVERITY_ERROR,
                    f"{owner}.{end.name}",
                    f"order_by names unknown attribute {attr_name!r} of "
                    f"{end.target_type!r}",
                )


#: The five per-interface rules, in reporting order.  The incremental
#: cache stores one issue tuple per (interface, slot) and re-runs only
#: dirty interfaces; the full-scan ``check_*`` wrappers below iterate
#: these over the whole schema.
INTERFACE_RULES: tuple[InterfaceRule, ...] = (
    dangling_type_issues,
    inverse_issues,
    cardinality_issues,
    key_issues,
    order_by_issues,
)


# ----------------------------------------------------------------------
# Full-scan rules (the reference specification)
# ----------------------------------------------------------------------


def check_dangling_types(schema: Schema) -> Iterator[Issue]:
    """Every interface name used anywhere must be defined in the schema."""
    for interface in schema:
        yield from dangling_type_issues(schema, interface)


def check_inverses(schema: Schema) -> Iterator[Issue]:
    """Relationship ends must pair with a consistent declared inverse."""
    for interface in schema:
        yield from inverse_issues(schema, interface)


def check_cardinality_roles(schema: Schema) -> Iterator[Issue]:
    """Part-of and instance-of relationships are implicitly 1:N.

    Exactly one end of each such relationship may be to-many (the whole's
    to-parts end / the generic entity's to-instances end); the opposite
    end must be to-one.
    """
    for interface in schema:
        yield from cardinality_issues(schema, interface)


def _find_cycle(
    nodes: Iterable[str], successors: Callable[[str], Iterable[str]]
) -> list[str] | None:
    """Return one directed cycle as a node list, or ``None``.

    Iterative DFS (an explicit stack of successor iterators) with the
    exact traversal order — and therefore the exact reported cycle — of
    the recursive form it replaced, which hit the interpreter recursion
    limit on ISA chains a few thousand types deep.
    """
    visiting: set[str] = set()
    done: set[str] = set()
    stack: list[str] = []
    pending: list[Iterable[str]] = []

    for start in nodes:
        if start in done:
            continue
        visiting.add(start)
        stack.append(start)
        pending.append(iter(successors(start)))
        while pending:
            for nxt in pending[-1]:
                if nxt in done:
                    continue
                if nxt in visiting:
                    return stack[stack.index(nxt):] + [nxt]
                visiting.add(nxt)
                stack.append(nxt)
                pending.append(iter(successors(nxt)))
                break
            else:
                pending.pop()
                node = stack.pop()
                visiting.discard(node)
                done.add(node)
    return None


def isa_successors(schema: Schema) -> Callable[[str], Iterable[str]]:
    """Successor function of the resolved generalization graph."""
    def successors(name: str) -> Iterable[str]:
        if name not in schema:
            return ()
        return (
            supertype
            for supertype in schema.interfaces[name].supertypes
            if supertype in schema
        )

    return successors


def link_successors(
    schema: Schema, kind: RelationshipKind
) -> Callable[[str], Iterable[str]]:
    """Successor function of the part-of or instance-of graph of *kind*
    (whole -> part, generic -> instance).

    A node's successors are the targets of its to-many ends of *kind*,
    in :func:`~repro.model.index.scan_link_edges` order, read off the
    owner only when asked for: a search seeded at a few names never
    walks the whole schema.  It reads the interfaces, *not*
    ``schema.part_of_edges()``: the latter answers from the columnar
    graph store (:class:`~repro.model.columnar.ColumnarAdjacency`), and
    the reference specification must stay independent of the caches it
    verifies (the ``independence`` lint pass enforces this).  The cache
    layer keeps its own store-backed successor builders in
    :mod:`repro.model.validation_cache`.
    """
    interfaces = schema.interfaces

    def successors(name: str) -> Iterable[str]:
        interface = interfaces.get(name)
        if interface is None:
            return ()
        return [
            end.target_type
            for end in interface.relationships_of_kind(kind)
            if end.is_to_many
        ]

    return successors


def isa_cycle_issue(cycle: list[str]) -> Issue:
    """The issue :func:`check_isa_cycles` reports for *cycle*."""
    return Issue(
        "isa-cycle", SEVERITY_ERROR, cycle[0],
        "generalization cycle: " + " -> ".join(cycle),
    )


def part_of_cycle_issue(cycle: list[str]) -> Issue:
    """The issue :func:`check_part_of_cycles` reports for *cycle*."""
    return Issue(
        "part-of-cycle", SEVERITY_ERROR, cycle[0],
        "aggregation cycle: " + " -> ".join(cycle),
    )


def instance_of_cycle_issue(cycle: list[str]) -> Issue:
    """The issue :func:`check_instance_of_cycles` reports for *cycle*."""
    return Issue(
        "instance-of-cycle", SEVERITY_ERROR, cycle[0],
        "instance-of cycle: " + " -> ".join(cycle),
    )


def check_isa_cycles(schema: Schema) -> Iterator[Issue]:
    """The generalization graph must be acyclic."""
    cycle = _find_cycle(schema.type_names(), isa_successors(schema))
    if cycle is not None:
        yield isa_cycle_issue(cycle)


def check_part_of_cycles(schema: Schema) -> Iterator[Issue]:
    """The aggregation graph must be acyclic (no whole is its own part)."""
    successors = link_successors(schema, RelationshipKind.PART_OF)
    cycle = _find_cycle(schema.type_names(), successors)
    if cycle is not None:
        yield part_of_cycle_issue(cycle)


def check_instance_of_cycles(schema: Schema) -> Iterator[Issue]:
    """The instance-of graph must be acyclic."""
    successors = link_successors(schema, RelationshipKind.INSTANCE_OF)
    cycle = _find_cycle(schema.type_names(), successors)
    if cycle is not None:
        yield instance_of_cycle_issue(cycle)


def check_keys(schema: Schema) -> Iterator[Issue]:
    """Keys must name attributes available on the type (incl. inherited)."""
    for interface in schema:
        yield from key_issues(schema, interface)


def check_order_by(schema: Schema) -> Iterator[Issue]:
    """order_by lists must name attributes of the relationship target."""
    for interface in schema:
        yield from order_by_issues(schema, interface)


def component_roots(schema: Schema, component: set[str]) -> list[str]:
    """Sorted resolved-root names of one generalization component."""
    return sorted(
        name
        for name in component
        if not [
            s for s in schema.interfaces[name].supertypes if s in schema
        ]
    )


def multi_root_issue(roots: list[str]) -> Issue:
    """The warning :func:`check_multi_root_components` reports for *roots*."""
    return Issue(
        "multi-root-hierarchy", SEVERITY_WARNING, roots[0],
        "generalization component has several roots "
        f"({', '.join(roots)}); consider an abstract supertype",
    )


def check_multi_root_components(schema: Schema) -> Iterator[Issue]:
    """Warn about generalization components with more than one root.

    The paper's single-root assumption (Section 3.2) says any hierarchy
    with two or more roots should be transformed by adding an abstract
    supertype; we surface the condition as a warning rather than reject
    the schema.
    """
    neighbours: dict[str, set[str]] = {name: set() for name in schema.type_names()}
    for interface in schema:
        for supertype in interface.supertypes:
            if supertype in schema:
                neighbours[interface.name].add(supertype)
                neighbours[supertype].add(interface.name)
    seen: set[str] = set()
    for start in schema.type_names():
        if start in seen or not neighbours[start]:
            continue
        component: set[str] = set()
        frontier = [start]
        while frontier:
            node = frontier.pop()
            if node in component:
                continue
            component.add(node)
            frontier.extend(neighbours[node] - component)
        seen |= component
        roots = component_roots(schema, component)
        if len(roots) > 1:
            yield multi_root_issue(roots)


#: All structural rules, in reporting order.
STRUCTURAL_RULES: tuple[Rule, ...] = (
    check_dangling_types,
    check_inverses,
    check_cardinality_roles,
    check_isa_cycles,
    check_part_of_cycles,
    check_instance_of_cycles,
    check_keys,
    check_order_by,
    check_multi_root_components,
)


def validate_schema(schema: Schema, raise_on_error: bool = False) -> list[Issue]:
    """Run every structural rule over *schema* and return the issues.

    With ``raise_on_error`` set, raise
    :class:`~repro.model.errors.ValidationError` when any error-severity
    issue was found (warnings never raise).

    This full scan is the *reference specification* of validation; the
    incremental engine (:class:`repro.model.validation_cache.
    ValidationCache`) must return an identical issue list for any schema
    state, which the fuzzer checks differentially after every operation.
    """
    issues: list[Issue] = []
    for rule in STRUCTURAL_RULES:
        issues.extend(rule(schema))
    if raise_on_error:
        raise_on_errors(schema.name, issues)
    return issues


def raise_on_errors(name: str, issues: Iterable[Issue]) -> None:
    """Raise :class:`~repro.model.errors.ValidationError` for the
    error-severity *issues* of the schema called *name*, if there are any.

    The one place the error is built: the reference scan, the
    incremental cache and the repository's open all raise it.
    """
    errors = [issue for issue in issues if issue.severity == SEVERITY_ERROR]
    if errors:
        raise ValidationError(
            f"schema {name!r} has {len(errors)} structural "
            "error(s); first: " + str(errors[0]),
            issues=errors,
        )
