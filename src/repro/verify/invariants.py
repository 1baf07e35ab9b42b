"""The invariant registry: machine-checkable paper guarantees.

The paper's contract is that the modification-operation language is
*closed* and *consistency-preserving*: every admissible edit of a
concept schema leaves the workspace schema structurally valid (Table 1,
Appendix A), name-equivalent to its shrink wrap origin, and semantically
stable, while propagation and undo/redo are lossless.  Each
:class:`Invariant` here encodes one such clause as a whole-schema (or
whole-workspace) predicate; the differential fuzzer
(:mod:`repro.verify.fuzzer`) re-checks the full registry after every
operation of a randomized sequence.

Invariants come in two tiers:

* ``cheap`` -- structural predicates and index-vs-scan differentials,
  checked after every fuzz step;
* ``expensive`` -- whole-schema round trips (ODL, decomposition,
  mapping, log replay), checked every few steps and at sequence end.

Adding an invariant: write a generator function yielding one message
string per violation, decorate it with :func:`invariant`, and it is
checked everywhere automatically (fuzzer, CLI, tests).  Schema-level
checks receive ``(schema, context)``; workspace-level checks (decorated
with ``workspace_invariant``) receive the live
:class:`~repro.repository.workspace.Workspace`.  A schema-level check
that can judge its clause on a set of interfaces takes a third
parameter, ``names`` (``None`` means the whole schema), and registers
with ``scoped=True``.

**O(changed) sweeps.**  Passing ``touched`` (the interface names the
spine recorded since the previous sweep) to :func:`check_schema` /
:func:`check_workspace` switches to scoped mode.  Each invariant's
:attr:`Invariant.reach` says what it does there: a ``scoped`` check
receives the touched closure (touched + ISA descendants + referencers)
as ``names``; the O(1)/O(history) invariants in :data:`ALWAYS_FULL`
run ``whole``; everything else is ``deferred`` -- the caller owes one
full-registry sweep at sequence end (the fuzzer's ``final_check``).
That makes per-step verification cost proportional to the plan, not
the schema, which is what lets ``make fuzz --large-seeds`` keep both
tiers on at 10k types (DESIGN.md §5i).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from repro.concepts.decompose import decompose, reconstruct
from repro.knowledge.consistency import structural_feedback
from repro.knowledge.feedback import FeedbackLevel
from repro.model import index as index_module
from repro.model.fingerprint import schema_fingerprint, schemas_equal
from repro.model.schema import Schema
from repro.model.relationships import RelationshipKind
from repro.model.validation import (
    SEVERITY_ERROR,
    _find_cycle,
    cardinality_issues,
    dangling_type_issues,
    instance_of_cycle_issue,
    inverse_issues,
    isa_cycle_issue,
    isa_successors,
    key_issues,
    link_successors,
    order_by_issues,
    part_of_cycle_issue,
    validate_schema,
)
from repro.model.errors import SchemaError
from repro.ops.base import OperationContext, OperationError
from repro.repository.mapping import generate_mapping
from repro.repository.workspace import Workspace

TIER_CHEAP = "cheap"
TIER_EXPENSIVE = "expensive"


@dataclass(frozen=True)
class Violation:
    """One invariant failure: which contract broke and how."""

    invariant: str
    message: str

    def __str__(self) -> str:
        return f"[{self.invariant}] {self.message}"


SchemaCheck = Callable[..., Iterator[str]]
WorkspaceCheck = Callable[[Workspace], Iterator[str]]

#: What a scoped sweep does with an invariant (:attr:`Invariant.reach`).
REACH_CLOSURE = "closure"  # checks the touched closure only
REACH_WHOLE = "whole"  # checks the whole schema / workspace
REACH_DEFERRED = "deferred"  # skipped; the final full sweep covers it

#: Invariants that run in full even during a scoped sweep: they are
#: O(1)/O(history) in the schema size, so skipping them buys nothing
#: and they anchor the sweep (generation bookkeeping, history shape).
ALWAYS_FULL = frozenset({"spine-generation", "history-shape"})


@dataclass(frozen=True)
class Invariant:
    """One registered whole-schema / whole-workspace predicate."""

    name: str
    clause: str  # the paper clause this invariant encodes
    tier: str
    check: SchemaCheck | WorkspaceCheck
    scope: str  # "schema" | "workspace"
    #: Whether ``check`` takes ``names`` -- the sorted, defined touched
    #: closure in a scoped sweep -- and judges its clause on just those
    #: interfaces.
    scoped: bool = False

    @property
    def reach(self) -> str:
        """What a scoped sweep runs this invariant over."""
        if self.scoped:
            return REACH_CLOSURE
        return REACH_WHOLE if self.name in ALWAYS_FULL else REACH_DEFERRED


#: Every registered invariant, in registration order.
INVARIANTS: list[Invariant] = []


def touched_closure(schema: Schema, touched: Iterable[str]) -> list[str]:
    """The defined neighbourhood a change to *touched* can affect.

    Touched names plus their ISA descendants (inherited keys, order-by
    and extent visibility flow down the hierarchy) plus everything
    referencing them (dangling/inverse checks judge the *referencing*
    end), filtered to currently-defined interfaces and sorted for
    deterministic reporting.  Cost is O(closure), served by the
    columnar adjacency -- never O(schema).

    The sweep checks the ISA children rows, so its scope must not rest
    on them alone: each frontier type's children are the union of its
    row and of its referencers whose declared ``supertypes`` name it
    (:func:`_declared_children`).  A child dropped from a row behind
    the spine stays in the closure, and the row check reports it.
    """
    adjacency = schema.index
    seeds = set(touched)
    closure = set(seeds)
    frontier = list(seeds)
    while frontier:
        name = frontier.pop()
        children = set(adjacency.children_of(name))
        children |= _declared_children(schema, adjacency, name)
        for child in children - closure:
            closure.add(child)
            frontier.append(child)
    for name in seeds:
        closure.update(adjacency.referencers_of(name))
    return sorted(name for name in closure if name in schema.interfaces)


def _declared_children(schema: Schema, adjacency, name: str) -> set[str]:
    """Referencers of *name* whose declared supertypes list it: its
    direct subtypes read from the interfaces, not from the ISA rows."""
    interfaces = schema.interfaces
    return {
        referencer
        for referencer in adjacency.referencers_of(name)
        if referencer in interfaces
        and name in interfaces[referencer].supertypes
    }


def invariant(
    name: str, clause: str, tier: str = TIER_CHEAP, scoped: bool = False
):
    """Register a schema-level invariant check function; with *scoped*
    it takes ``(schema, context, names=None)``."""

    def decorator(check: SchemaCheck) -> SchemaCheck:
        INVARIANTS.append(
            Invariant(name, clause, tier, check, "schema", scoped)
        )
        return check

    return decorator


def workspace_invariant(name: str, clause: str, tier: str = TIER_CHEAP):
    """Register a workspace-level invariant check function."""

    def decorator(check: WorkspaceCheck) -> WorkspaceCheck:
        INVARIANTS.append(Invariant(name, clause, tier, check, "workspace"))
        return check

    return decorator


def check_schema(
    schema: Schema,
    context: OperationContext | None = None,
    tiers: Iterable[str] = (TIER_CHEAP, TIER_EXPENSIVE),
    names: Iterable[str] | None = None,
    touched: Iterable[str] | None = None,
) -> list[Violation]:
    """Run every (selected) schema-level invariant over *schema*.

    With *touched* (interface names the spine recorded since the last
    sweep) the run is *scoped*: each invariant runs as its
    :attr:`Invariant.reach` says -- ``scoped`` ones over the touched
    closure, :data:`ALWAYS_FULL` ones whole, the rest not at all (the
    caller owes a full sweep at sequence end).
    """
    context = context or OperationContext()
    wanted = None if names is None else set(names)
    tier_set = set(tiers)
    scoped_names: list[str] | None = None
    if touched is not None:
        scoped_names = touched_closure(schema, touched)
    violations: list[Violation] = []
    for inv in INVARIANTS:
        if inv.scope != "schema" or inv.tier not in tier_set:
            continue
        if wanted is not None and inv.name not in wanted:
            continue
        if scoped_names is None or inv.reach == REACH_WHOLE:
            messages = inv.check(schema, context)
        elif inv.reach == REACH_CLOSURE:
            messages = inv.check(schema, context, scoped_names)
        else:
            continue  # deferred to the caller's final full sweep
        violations.extend(Violation(inv.name, message) for message in messages)
    return violations


def check_workspace(
    workspace: Workspace,
    tiers: Iterable[str] = (TIER_CHEAP, TIER_EXPENSIVE),
    names: Iterable[str] | None = None,
    touched: Iterable[str] | None = None,
) -> list[Violation]:
    """Run schema invariants on the workspace schema plus history checks.

    *touched* scopes the sweep exactly as in :func:`check_schema`;
    there, workspace-level invariants run only if they are in
    :data:`ALWAYS_FULL`.
    """
    violations = check_schema(
        workspace.schema, workspace.context, tiers=tiers, names=names,
        touched=touched,
    )
    wanted = None if names is None else set(names)
    tier_set = set(tiers)
    for inv in INVARIANTS:
        if inv.scope != "workspace" or inv.tier not in tier_set:
            continue
        if wanted is not None and inv.name not in wanted:
            continue
        if touched is not None and inv.reach != REACH_WHOLE:
            continue
        violations.extend(
            Violation(inv.name, message) for message in inv.check(workspace)
        )
    return violations


def describe_registry() -> str:
    """One line per invariant: name, tier, scope, reach in a scoped
    sweep, paper clause."""
    lines = []
    for inv in INVARIANTS:
        lines.append(
            f"{inv.name:32s} {inv.tier:9s} {inv.scope:9s} {inv.reach:8s} "
            f"{inv.clause}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Structural invariants (Appendix A closure: ops keep the schema valid)
# ----------------------------------------------------------------------


def _rule_messages(
    rule, schema: Schema, names: Iterable[str] | None
) -> Iterator[str]:
    """Error messages of the per-interface *rule* over the interfaces
    named in *names* (every interface when ``None``)."""
    if names is None:
        interfaces: Iterable = schema
    else:
        defined = schema.interfaces
        interfaces = (defined[name] for name in names if name in defined)
    for interface in interfaces:
        for issue in rule(schema, interface):
            if issue.severity == SEVERITY_ERROR:
                yield str(issue)


def _cycle_messages(
    schema: Schema, names: Iterable[str] | None, successors, issue
) -> Iterator[str]:
    """The cycle issue of one graph, searched from *names* (every type
    when ``None``).  A mutation can only create a cycle passing through
    a touched node, and every cycle is reachable from each of its
    members, so a search seeded at the touched closure finds it."""
    seeds = schema.type_names() if names is None else names
    cycle = _find_cycle(seeds, successors)
    if cycle is not None:
        yield str(issue(cycle))


@invariant(
    "dangling-types",
    "Section 3.1: every type name used by a construct is defined",
    scoped=True,
)
def _check_dangling(schema, context, names=None):
    yield from _rule_messages(dangling_type_issues, schema, names)


@invariant(
    "inverse-pairing",
    "Section 3.1: relationship ends always pair with a declared inverse",
    scoped=True,
)
def _check_inverse_pairing(schema, context, names=None):
    yield from _rule_messages(inverse_issues, schema, names)


@invariant(
    "hierarchy-one-to-many",
    "Section 3.1: part-of / instance-of traversals are implicitly 1:N",
    scoped=True,
)
def _check_one_to_many(schema, context, names=None):
    yield from _rule_messages(cardinality_issues, schema, names)


@invariant(
    "isa-acyclic",
    "Section 3.2: the generalization hierarchy is a DAG",
    scoped=True,
)
def _check_isa_acyclic(schema, context, names=None):
    yield from _cycle_messages(
        schema, names, isa_successors(schema), isa_cycle_issue
    )


@invariant(
    "part-of-acyclic",
    "Section 3.1: the aggregation (parts explosion) graph is a DAG",
    scoped=True,
)
def _check_part_of_acyclic(schema, context, names=None):
    successors = link_successors(schema, RelationshipKind.PART_OF)
    yield from _cycle_messages(schema, names, successors, part_of_cycle_issue)


@invariant(
    "instance-of-acyclic",
    "Section 3.1: the instance-of (version) graph is a DAG",
    scoped=True,
)
def _check_instance_of_acyclic(schema, context, names=None):
    successors = link_successors(schema, RelationshipKind.INSTANCE_OF)
    yield from _cycle_messages(
        schema, names, successors, instance_of_cycle_issue
    )


@invariant(
    "keys-resolve",
    "Table 2: key lists name attributes available on the type",
    scoped=True,
)
def _check_keys_resolve(schema, context, names=None):
    yield from _rule_messages(key_issues, schema, names)


@invariant(
    "order-by-resolve",
    "Table 3: order-by lists name attributes of the target type",
    scoped=True,
)
def _check_order_by_resolve(schema, context, names=None):
    yield from _rule_messages(order_by_issues, schema, names)


@invariant(
    "extent-unique",
    "Table 2: extent names are globally unique across the schema",
)
def _check_extent_unique(schema, context):
    owners: dict[str, str] = {}
    for interface in schema:
        if interface.extent is None:
            continue
        if interface.extent in owners:
            yield (
                f"extent {interface.extent!r} is declared by both "
                f"{owners[interface.extent]!r} and {interface.name!r}"
            )
        else:
            owners[interface.extent] = interface.name


@invariant(
    "feedback-error-free",
    "Abstract: consistency checks report no error-level feedback",
)
def _check_feedback_clean(schema, context):
    for message in structural_feedback(schema):
        if message.level is FeedbackLevel.ERROR:
            yield f"designer feedback error: {message}"


# ----------------------------------------------------------------------
# Validation differential (incremental engine == full-scan reference)
# ----------------------------------------------------------------------


@invariant(
    "incremental-vs-full-validation",
    "DESIGN 5d: the incremental validation cache returns byte-for-byte "
    "the full scan's issue list",
    scoped=True,
)
def _check_incremental_validation(schema, context, names=None):
    incremental = schema.validation.validate()
    if names is not None:
        # The cache has folded its dirt (O(dirty)); recompute just the
        # named interfaces' issue slots against the cached ones.
        yield from schema.validation.recheck_interfaces(names)
        return
    full = validate_schema(schema)
    if incremental == full:
        return
    missing = [issue for issue in full if issue not in incremental]
    spurious = [issue for issue in incremental if issue not in full]
    if not missing and not spurious:
        yield (
            "incremental validation reports the full scan's issues in a "
            f"different order ({len(full)} issues)"
        )
        return
    for issue in missing[:3]:
        yield f"incremental validation missed: {issue}"
    for issue in spurious[:3]:
        yield f"incremental validation fabricated: {issue}"
    rest = len(missing) + len(spurious) - len(missing[:3]) - len(spurious[:3])
    if rest:
        yield f"... and {rest} more validation differences"


# ----------------------------------------------------------------------
# Index differentials (every indexed query == its scan_* reference)
# ----------------------------------------------------------------------

#: Default for :func:`set_differential_stride`.  Above this many types
#: the per-type differentials sample instead of sweeping exhaustively:
#: each per-type probe calls an O(types) scan_* reference, so the
#: exhaustive sweep is quadratic -- fine for catalog and test subjects,
#: prohibitive on the 1k-10k-type fuzz profile.
DIFFERENTIAL_STRIDE_DEFAULT = 256

_differential_stride = DIFFERENTIAL_STRIDE_DEFAULT
_sampling_events = 0


def set_differential_stride(threshold: int | None) -> int:
    """Set the per-type differential sampling threshold; return the old.

    ``0`` or ``None`` disables sampling entirely (exhaustive per-type
    probes at any size); the fuzzer CLI exposes this as
    ``--differential-stride``.
    """
    global _differential_stride
    previous = _differential_stride
    _differential_stride = int(threshold) if threshold else 0
    return previous


def differential_stride() -> int:
    """The active sampling threshold (0 means exhaustive)."""
    return _differential_stride


def consume_sampling_events() -> int:
    """Drain and return the count of sampled (non-exhaustive) sweeps.

    The fuzz runner reads this after each run to print a coverage note
    -- no silent caps: when probes were sampled, the summary says so.
    """
    global _sampling_events
    events, _sampling_events = _sampling_events, 0
    return events


def _stride_sample(names: list[str], phase: int) -> list[str]:
    """*names*, or a deterministic stride sample past the threshold.

    The stride phase rotates with *phase* (the schema generation), so
    successive sweeps of a fuzz run cross different residues of the
    declaration order while each individual sweep stays linear.  For a
    fixed schema state the sample is deterministic -- replaying a
    trace checks exactly the same types, which the shrinker relies on.
    """
    global _sampling_events
    count = len(names)
    threshold = _differential_stride
    if not threshold or count <= threshold:
        return names
    _sampling_events += 1
    stride = -(-count // threshold)
    return names[phase % stride :: stride]


def _sampled_type_names(
    schema: Schema, names: list[str] | None = None
) -> list[str]:
    """*names* (every type when ``None``), or a deterministic stride
    sample of them at scale."""
    return _stride_sample(
        schema.type_names() if names is None else names, schema.generation
    )


def _fold_edges(edges) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
    """(source -> targets, target -> sources) of scanned link *edges*,
    one entry per edge in edge order: what the per-name link queries
    answer, so each probe is one dict lookup."""
    forward: dict[str, list[str]] = {}
    backward: dict[str, list[str]] = {}
    for source, target, _ in edges:
        forward.setdefault(source, []).append(target)
        backward.setdefault(target, []).append(source)
    return forward, backward


def _scanned_subtypes(schema: Schema) -> dict[str, list[str]]:
    """Name -> direct subtypes in declaration order, as ``scan_subtypes``
    derives per call, built in one pass so a sweep costs O(types +
    probes), not O(probes x types)."""
    subtypes: dict[str, list[str]] = {}
    for interface in schema:
        for supertype in interface.supertypes:
            subtypes.setdefault(supertype, []).append(interface.name)
    return subtypes


@invariant(
    "index-generalization-vs-scan",
    "DESIGN 5b: indexed ISA queries equal the full-scan reference "
    "(per-type probes sampled past the differential stride threshold)",
    scoped=True,
)
def _check_index_generalization(schema, context, names=None):
    sample = _sampled_type_names(schema, names)
    scanned_subtypes = _scanned_subtypes(schema) if sample else {}
    for name in sample:
        indexed = schema.subtypes(name)
        scanned = scanned_subtypes.get(name, [])
        if indexed != scanned:
            yield f"subtypes({name!r}): index {indexed!r} != scan {scanned!r}"
        descendants: set[str] = set()
        frontier = list(scanned)
        while frontier:
            current = frontier.pop()
            if current not in descendants:
                descendants.add(current)
                frontier.extend(scanned_subtypes.get(current, ()))
        if schema.descendants(name) != descendants:
            yield f"descendants({name!r}): index != scan"
        if schema.ancestors(name) != index_module.scan_ancestors(schema, name):
            yield f"ancestors({name!r}): index != scan"
    if names is None and (
        schema.generalization_roots()
        != index_module.scan_generalization_roots(schema)
    ):
        yield "generalization_roots(): index != scan"


@invariant(
    "index-aggregation-vs-scan",
    "DESIGN 5b: indexed part-of queries equal the full-scan reference "
    "(per-type probes sampled past the differential stride threshold)",
    scoped=True,
)
def _check_index_aggregation(schema, context, names=None):
    sample = _sampled_type_names(schema, names)
    if names is not None and not sample:
        return  # an empty closure probes nothing; skip the O(types) scan
    edges = index_module.scan_link_edges(schema, RelationshipKind.PART_OF)
    if names is None and schema.part_of_edges() != edges:
        yield "part_of_edges(): index != scan"
    parts, wholes = _fold_edges(edges)
    for name in sample:
        if schema.parts(name) != parts.get(name, []):
            yield f"parts({name!r}): index != scan"
        if schema.wholes(name) != wholes.get(name, []):
            yield f"wholes({name!r}): index != scan"
    if names is None and (
        schema.aggregation_roots()
        != index_module.scan_aggregation_roots(schema)
    ):
        yield "aggregation_roots(): index != scan"


@invariant(
    "index-instance-of-vs-scan",
    "DESIGN 5b: indexed instance-of queries equal the full-scan reference "
    "(per-type probes sampled past the differential stride threshold)",
)
def _check_index_instance_of(schema, context):
    edges = index_module.scan_link_edges(schema, RelationshipKind.INSTANCE_OF)
    if schema.instance_of_edges() != edges:
        yield "instance_of_edges(): index != scan"
    instances, generics = _fold_edges(edges)
    index = schema.index
    kind = RelationshipKind.INSTANCE_OF
    for name in _sampled_type_names(schema):
        if index.link_targets(kind, name) != instances.get(name, []):
            yield f"instances_of({name!r}): index != scan"
        if index.link_sources(kind, name) != generics.get(name, []):
            yield f"generics_of({name!r}): index != scan"
    if schema.instance_of_roots() != index_module.scan_instance_of_roots(schema):
        yield "instance_of_roots(): index != scan"


@invariant(
    "columnar-vs-scan",
    "DESIGN 5i: the flat-array adjacency (ids, free list, parallel "
    "columns) is sound and exports exactly the maps a scan of the "
    "interfaces derives",
    scoped=True,
)
def _check_columnar(schema, context, names=None):
    adjacency = schema.index
    if names is not None:
        yield from _columnar_row_messages(schema, adjacency, names)
        return
    yield from adjacency.check_integrity()
    parents, children, refs, referencers = index_module.scan_adjacency(schema)
    pairs = (
        ("isa_parents", adjacency.isa_parents_map(), parents),
        ("isa_children", adjacency.isa_children_map(), children),
        ("refs_of", adjacency.refs_of_map(), refs),
        ("referencers", adjacency.referencers_map(), referencers),
    )
    for label, flat, spec in pairs:
        if flat == spec:
            continue
        missing = sorted(set(spec) - set(flat))[:3]
        spurious = sorted(set(flat) - set(spec))[:3]
        differing = sorted(
            key for key in set(flat) & set(spec) if flat[key] != spec[key]
        )[:3]
        yield (
            f"{label}: columnar != scan (missing {missing!r}, spurious "
            f"{spurious!r}, differing {differing!r})"
        )


def _columnar_row_messages(schema, adjacency, names) -> Iterator[str]:
    """Row-level check of the named interfaces: their columns match
    their live definitions, their children rows hold exactly the
    referencers declaring them as a supertype, and each
    reverse-reference bucket they point into holds them.  The
    whole-store comparison (plus free-list and refcount integrity) is
    left to the final full sweep."""
    for name in names:
        interface = schema.interfaces.get(name)
        if interface is None:
            continue
        parents = adjacency.parents_of(name)
        if parents != tuple(interface.supertypes):
            yield (
                f"parents_of({name!r}): columns {parents!r} != declared "
                f"{tuple(interface.supertypes)!r}"
            )
        children = set(adjacency.children_of(name))
        declared = _declared_children(schema, adjacency, name)
        if children != declared:
            yield (
                f"children_of({name!r}): columns {sorted(children)!r} != "
                f"declared {sorted(declared)!r}"
            )
        refs = frozenset(interface.referenced_type_names())
        if adjacency.refs_of(name) != refs:
            yield (
                f"refs_of({name!r}): columns {sorted(adjacency.refs_of(name))!r}"
                f" != derived {sorted(refs)!r}"
            )
        for target in refs:
            if name not in adjacency.referencers_of(target):
                yield (
                    f"referencers_of({target!r}) is missing the live "
                    f"referencer {name!r}"
                )


# ----------------------------------------------------------------------
# Mutation-spine invariants (the stream is complete and sufficient)
# ----------------------------------------------------------------------


@invariant(
    "spine-generation",
    "DESIGN 5e: the schema's generation is derived from the mutation "
    "spine (generation == log.seq, records dense in seq)",
)
def _check_spine_generation(schema, context):
    log = schema.log
    if schema.generation != log.seq:
        yield f"generation {schema.generation} != spine seq {log.seq}"
    if len(log) != log.seq:
        yield (
            f"spine holds {len(log)} records but seq is {log.seq}; "
            "records are no longer dense"
        )


@invariant(
    "spine-replay",
    "DESIGN 5e: replaying the mutation log from an empty schema "
    "reproduces the live schema's fingerprint (mutations are reified "
    "completely)",
    tier=TIER_EXPENSIVE,
)
def _check_spine_replay(schema, context):
    log = schema.log
    if not log.replayable:
        return  # an out-of-band touch is on the lineage; replay is undefined
    try:
        rebuilt = log.replay(schema.name)
    except Exception as error:  # noqa: BLE001 - any escape is the finding
        yield f"replaying the mutation log raised: {error}"
        return
    if schema_fingerprint(rebuilt) != schema_fingerprint(schema):
        yield (
            "replaying the mutation log from empty does not reproduce "
            "the live schema"
        )
    if rebuilt.type_names() != schema.type_names():
        yield (
            "replaying the mutation log does not reproduce declaration "
            "order"
        )


@invariant(
    "spine-subscribers-vs-rebuild",
    "DESIGN 5e: every subscriber's derived state equals a from-scratch "
    "rebuild -- fresh index maps and a fresh full validation match the "
    "live schema's",
    tier=TIER_EXPENSIVE,
)
def _check_spine_subscribers(schema, context):
    fresh = schema.copy(f"{schema.name}_rebuild")
    if _subtype_map(schema) != _subtype_map(fresh):
        yield "live subtype_map differs from a from-scratch rebuild"
    if schema.part_of_edges() != fresh.part_of_edges():
        yield "live part_of_edges differ from a from-scratch rebuild"
    if schema.instance_of_edges() != fresh.instance_of_edges():
        yield "live instance_of_edges differ from a from-scratch rebuild"
    if schema.index.declaration_order() != fresh.index.declaration_order():
        yield "live declaration_order differs from a from-scratch rebuild"
    live_issues = schema.validation.validate()
    fresh_issues = fresh.validation.validate()
    if live_issues != fresh_issues:
        yield (
            "live validation cache differs from a fresh cache's full "
            f"build ({len(live_issues)} vs {len(fresh_issues)} issues)"
        )


def _subtype_map(schema: Schema) -> dict[str, list[str]]:
    """Supertype name (dangling ones too) -> its direct subtypes, in
    declaration order, as the graph store answers them."""
    return {
        parent: schema.subtypes(parent)
        for parent in schema.index.isa_children_map()
    }


@invariant(
    "cow-vs-eager-copy",
    "DESIGN 5j: a copy-on-write fork is indistinguishable from the "
    "eager-copy reference spec -- structurally equal when fresh, and "
    "independently mutable in both directions after divergence",
    tier=TIER_EXPENSIVE,
)
def _check_cow_vs_eager_copy(schema, context):
    from repro.model.interface import InterfaceDef
    from repro.model.types import ScalarType
    from repro.ops.attribute_ops import AddAttribute

    # Everything below runs on a private eager copy; the live fuzzed
    # schema, its spine, and its undo history are never touched.
    base = schema.copy(f"{schema.name}_cow_base")
    eager = base.copy(f"{base.name}_eager")
    fork = base.fork(f"{base.name}_fork")
    if not schemas_equal(fork, eager):
        yield "a fresh CoW fork differs structurally from an eager copy"
        return
    if fork.type_names() != eager.type_names():
        yield "a fresh CoW fork does not preserve declaration order"
    names = base.type_names()
    if not names:
        return
    base_print = schema_fingerprint(base)

    # Fork-side divergence: an op-level apply/undo/redo cycle plus a
    # delete/re-add of the same type name (ident reuse in the columnar
    # free list) must leave the base -- and its eager copy -- untouched.
    victim = names[0]
    operation = AddAttribute(victim, ScalarType("long"), "cow_probe")
    undo = operation.apply(fork)
    undo()
    operation.apply(fork)
    if "cow_probe" not in fork.get(victim).attributes:
        yield "op-level undo/redo on a fork lost the redone attribute"
    fork.remove_interface(victim)
    fork.add_interface(InterfaceDef(victim))
    if schema_fingerprint(base) != base_print:
        yield (
            f"fork-side writes (attribute probe, undo/redo, delete/"
            f"re-add of {victim!r}) leaked into the base schema"
        )
    if not schemas_equal(base, eager):
        yield (
            "after fork-side divergence the base no longer equals its "
            "eager copy"
        )

    # Base-side divergence: parent writes must not reach the fork.
    victim = names[-1]
    fork_print = schema_fingerprint(fork)
    base.edit(victim).set_extent("cow_probe_extent")
    base.remove_interface(victim)
    base.add_interface(InterfaceDef(victim))
    if schema_fingerprint(fork) != fork_print:
        yield (
            f"base-side writes (extent probe, delete/re-add of "
            f"{victim!r}) leaked into the fork"
        )


# ----------------------------------------------------------------------
# Round-trip invariants (expensive tier)
# ----------------------------------------------------------------------


def _subject(schema: Schema, names: Iterable[str] | None) -> Schema:
    """*schema* itself, or a fresh schema holding copies of just *names*
    in declaration order.  References leaving the slice dangle, which
    the printer, parser, and mapper all accept -- dangling names are
    legal schema states (DESIGN 5i)."""
    if names is None:
        return schema
    sub = Schema(f"{schema.name}_closure")
    for name in schema.index.in_declaration_order(names):
        sub.add_interface(schema.interfaces[name].copy())
    return sub


@invariant(
    "odl-round-trip",
    "Section 3.1: printed extended ODL re-parses to the same schema",
    tier=TIER_EXPENSIVE,
    scoped=True,
)
def _check_odl_round_trip(schema, context, names=None):
    from repro.odl.parser import parse_schema
    from repro.odl.printer import print_schema

    subject = _subject(schema, names)
    text = print_schema(subject)
    try:
        parsed = parse_schema(text, name=subject.name)
    except Exception as error:  # noqa: BLE001 - any escape is the finding
        yield f"printed ODL does not re-parse: {error}"
        return
    if not schemas_equal(subject, parsed):
        yield "printer -> parser round trip changed the schema"
    elif print_schema(parsed) != text:
        yield "printer -> parser -> printer is not idempotent"


@invariant(
    "decomposition-union",
    "Section 3.3.1: the union of all concept schemas is the schema",
    tier=TIER_EXPENSIVE,
)
def _check_decomposition_union(schema, context):
    try:
        rebuilt = reconstruct(decompose(schema))
    except Exception as error:  # noqa: BLE001
        yield f"decompose/reconstruct raised: {error}"
        return
    if not schemas_equal(schema, rebuilt):
        yield "reconstruct(decompose(schema)) differs from schema"


@invariant(
    "name-equivalence-mapping",
    "Section 5: the mapping derives from name equivalence; a schema maps "
    "onto its copy with every construct unchanged",
    tier=TIER_EXPENSIVE,
    scoped=True,
)
def _check_name_equivalence(schema, context, names=None):
    subject = _subject(schema, names)
    mapping = generate_mapping(subject, subject.copy(f"{subject.name}_verify"))
    if mapping.added() or mapping.deleted():
        yield (
            "self-mapping reports "
            f"{len(mapping.added())} added / {len(mapping.deleted())} "
            "deleted constructs"
        )
    if mapping.entries and mapping.reuse_ratio() != 1.0:
        yield f"self-mapping reuse ratio is {mapping.reuse_ratio()}, not 1.0"
    partition = len(mapping.corresponding()) + len(mapping.added()) + len(
        mapping.deleted()
    )
    if partition != len(mapping.entries):
        yield (
            "mapping entries do not partition into corresponding/added/"
            f"deleted ({partition} != {len(mapping.entries)})"
        )


# ----------------------------------------------------------------------
# Workspace (history) invariants
# ----------------------------------------------------------------------


@workspace_invariant(
    "history-shape",
    "Figure 1: the workspace log mirrors exactly the undoable steps",
)
def _check_history_shape(workspace):
    if workspace.undo_depth != len(workspace.log):
        yield (
            f"undo_depth {workspace.undo_depth} != log length "
            f"{len(workspace.log)}"
        )
    for entry in workspace.log:
        if len(entry.undos) != len(entry.plan):
            yield (
                f"log entry {entry.describe()!r} has {len(entry.plan)} plan "
                f"steps but {len(entry.undos)} undo closures"
            )


@workspace_invariant(
    "log-replay",
    "Section 5 activity 8: the recorded script replays to the same "
    "custom schema (the log is the customization)",
    tier=TIER_EXPENSIVE,
)
def _check_log_replay(workspace):
    replay = workspace.reference.copy("verify_replay")
    context = OperationContext(reference=workspace.reference)
    try:
        for step in workspace.applied_operations():
            step.apply(replay, context)
    except Exception as error:  # noqa: BLE001
        yield f"replaying the applied plan steps raised: {error}"
        return
    if schema_fingerprint(replay) != schema_fingerprint(workspace.schema):
        yield "replaying the log does not reproduce the workspace schema"


@workspace_invariant(
    "undo-redo-identity",
    "Appendix A: undo restores the pre-operation schema and redo the "
    "post-operation schema, exactly (fingerprint identity)",
    tier=TIER_EXPENSIVE,
)
def _check_undo_redo_identity(workspace):
    if not workspace.log:
        return
    before = schema_fingerprint(workspace.schema)
    entry = workspace.undo_last()
    assert entry is not None
    try:
        redone = workspace.redo()
    except Exception as error:  # noqa: BLE001
        yield (
            f"redo of just-undone step {entry.describe()!r} raised: {error}"
        )
        return
    if redone is None:
        yield (
            f"redo after undo of {entry.describe()!r} found an empty redo "
            "stack"
        )
        return
    after = schema_fingerprint(workspace.schema)
    if after != before:
        yield (
            f"undo+redo of {entry.describe()!r} changed the schema "
            "fingerprint"
        )


@workspace_invariant(
    "plan-analyzer-differential",
    "DESIGN 5f: pre-flight diagnostics are exactly the dynamically "
    "failing ops -- valid plans analyze clean, apply_plan equals "
    "naive per-op application in schema and feedback, and every "
    "diagnostic on a perturbed plan reproduces as a real failure",
    tier=TIER_EXPENSIVE,
)
def _check_plan_analyzer(workspace):
    from repro.analysis.plan import analyze_plan
    from repro.workload.generator import generate_operations

    schema = workspace.schema
    if len(schema) < 2:
        return
    seed = schema.generation * 31 + len(schema)
    try:
        plan = generate_operations(schema, 4, seed=seed)
    except RuntimeError:
        return  # too constrained to derive a plan here; nothing to check
    analysis = analyze_plan(plan, schema)
    for diagnostic in analysis.diagnostics:
        yield (
            "generated (valid) plan drew a pre-flight diagnostic: "
            f"{diagnostic}"
        )
    if analysis.diagnostics:
        return
    naive = Workspace(schema, "plan_naive", validate_each_step=False)
    try:
        naive_entries = [naive.apply(operation) for operation in plan]
    except (OperationError, SchemaError) as error:
        yield f"pre-flight-clean generated plan failed to apply: {error}"
        return
    whole = Workspace(schema, "plan_whole", validate_each_step=False)
    entries = whole.apply_plan(plan)
    if schema_fingerprint(naive.schema) != schema_fingerprint(whole.schema):
        yield "apply_plan diverged from naive per-op application"
    if [entry.feedback for entry in entries] != [
        entry.feedback for entry in naive_entries
    ]:
        yield "apply_plan feedback differs from per-op apply feedback"
    if len(plan) < 2:
        return
    # Drop one op: whatever pre-flight then flags must actually fail
    # when the remaining ops run with skip-on-failure semantics.
    perturbed = list(plan)
    del perturbed[seed % len(plan)]
    verdict = analyze_plan(perturbed, schema)
    replay = Workspace(schema, "plan_perturbed", validate_each_step=False)
    failed: set[int] = set()
    for index, operation in enumerate(perturbed):
        try:
            replay.apply(operation)
        except (OperationError, SchemaError):
            failed.add(index)
    for diagnostic in verdict.diagnostics:
        if diagnostic.index not in failed:
            yield (
                "diagnostic on perturbed plan did not reproduce "
                f"dynamically: {diagnostic}"
            )


@workspace_invariant(
    "fork-rewind-differential",
    "Workspace docs: the fork(at=) lossy-log rewind fallback produces "
    "exactly the state a structural copy of the rewound workspace has, "
    "and leaves the workspace (history, redo stack, schema) untouched",
    tier=TIER_EXPENSIVE,
)
def _check_fork_rewind(workspace):
    import warnings

    from repro.repository.workspace import WorkspaceSnapshot

    if not workspace.log:
        return
    # Bookmark mid-history; rewinding only uses the snapshot's depth, so
    # a fabricated snapshot exercises the fallback without a lossy log.
    depth = len(workspace.log) // 2
    snapshot = WorkspaceSnapshot(
        log=workspace.schema.log,
        seq=workspace.schema.log.seq,
        depth=depth,
    )
    before = schema_fingerprint(workspace.schema)
    redo_before = workspace.redo_depth
    # The reference verdict: rewind the live workspace itself and
    # fingerprint the structural state the snapshot bookmarks.
    try:
        unwound = workspace.undo_to(snapshot)
        expected = schema_fingerprint(workspace.schema)
        for _ in range(unwound):
            workspace.redo()
    except (OperationError, SchemaError) as error:
        yield f"undo_to/redo round trip for the differential raised: {error}"
        return
    if schema_fingerprint(workspace.schema) != before:
        yield "undo_to + redo did not restore the workspace schema"
        return
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            branch = workspace._fork_by_rewind(
                "verify_rewind_fork", snapshot, "differential check"
            )
    except (OperationError, SchemaError) as error:
        yield f"fork(at=) rewind fallback raised: {error}"
        return
    if schema_fingerprint(branch.schema) != expected:
        yield (
            "fork(at=) rewind fallback diverges from a structural copy "
            "of the rewound state"
        )
    if branch.undo_depth != 0:
        yield "fork(at=) rewind fallback branch must start with no history"
    if schema_fingerprint(workspace.schema) != before:
        yield "fork(at=) rewind fallback did not restore the workspace"
    if workspace.redo_depth != redo_before:
        yield (
            "fork(at=) rewind fallback changed the redo stack "
            f"({redo_before} -> {workspace.redo_depth})"
        )



@workspace_invariant(
    "example-preservation",
    "DESIGN 5h: a behavior-preserving plan (instance-impact facet "
    "disjoint from an interface and its ancestry) keeps that "
    "interface's witness populations valid, and check_population "
    "agrees between the live evolved schema, a structural copy, and "
    "the state an undo/redo round trip restores",
    tier=TIER_EXPENSIVE,
)
def _check_example_preservation(workspace):
    from repro.examples.generator import significant_examples
    from repro.examples.preview import plan_instance_impact
    from repro.instances.check import check_population
    from repro.ops.effects import WILDCARD
    from repro.workload.generator import generate_operations
    from repro.workload.population import generate_population

    schema = workspace.schema
    if len(schema) < 2:
        return
    seed = schema.generation * 37 + len(schema)
    try:
        plan = generate_operations(schema, 3, seed=seed)
    except RuntimeError:
        return  # too constrained to derive a plan here; nothing to check
    impacted = plan_instance_impact(plan)
    if WILDCARD in impacted:
        return  # cascading family: the facet reserves the whole schema
    # An interface counts as untouched only when neither it nor any
    # ancestor is impacted -- a key or extent change on a supertype
    # legitimately re-judges the populations of every descendant.
    untouched = {
        name
        for name in schema.type_names()
        if name not in impacted and not (schema.ancestors(name) & impacted)
    }
    ordered = sorted(untouched)
    sample = ordered[:: max(1, len(ordered) // 4)][:4]
    pairs = [
        pair
        for pair in significant_examples(schema, interfaces=sample)
        if {obj.type_name for obj in pair.witness} <= untouched
    ][:4]
    scratch = Workspace(schema, "example_preservation",
                        validate_each_step=False)
    try:
        scratch.apply_plan(plan)
    except (OperationError, SchemaError):
        return  # the plan does not apply in this state; nothing to check
    after = scratch.schema
    for pair in pairs:
        issues = check_population(after, pair.witness)
        if issues:
            yield (
                f"plan with instance impact {sorted(impacted)} broke the "
                f"witness population of untouched {pair.subject}: "
                f"{issues[0]}"
            )
    pop = generate_population(after, seed=seed)
    live = [str(issue) for issue in check_population(after, pop)]
    if live:
        yield (
            "the evolved schema rejects its own generated population: "
            f"{live[0]}"
        )
    rebuilt = [str(issue) for issue in check_population(after.copy(), pop)]
    if rebuilt != live:
        yield (
            "check_population disagrees between the evolved schema and "
            "its structural copy"
        )
    undone = 0
    while scratch.log:
        scratch.undo_last()
        undone += 1
    for _ in range(undone):
        scratch.redo()
    replayed = [str(issue) for issue in check_population(scratch.schema, pop)]
    if replayed != live:
        yield (
            "check_population disagrees after an undo/redo round trip "
            "of the plan"
        )


#: Largest schema the preview-isolation invariant previews a
#: whole-schema (WILDCARD) plan on; larger ones check narrow plans only,
#: so the large fuzz profile stays cheap.
_WILDCARD_PREVIEW_TYPES = 200


@workspace_invariant(
    "preview-isolation",
    "DESIGN 5h: Workspace.preview mutates nothing -- fingerprint, log "
    "and redo depth, issue list and every live interface object stay "
    "as they were -- and its ok verdict is whether the plan applies",
    tier=TIER_EXPENSIVE,
)
def _check_preview_isolation(workspace):
    from repro.examples.preview import plan_instance_impact
    from repro.ops.effects import WILDCARD
    from repro.workload.generator import generate_operations

    schema = workspace.schema
    if len(schema) < 2:
        return
    seed = schema.generation * 41 + len(schema)
    try:
        plan = generate_operations(schema, 3, seed=seed)
    except RuntimeError:
        return  # too constrained to derive a plan here; nothing to check
    if (
        WILDCARD in plan_instance_impact(plan)
        and len(schema) > _WILDCARD_PREVIEW_TYPES
    ):
        return
    fingerprint = schema_fingerprint(schema)
    depths = (workspace.undo_depth, workspace.redo_depth)
    issues = list(workspace.issues)
    live = dict(schema.interfaces)
    preview = workspace.preview(plan)
    after = workspace.schema.interfaces
    if schema_fingerprint(workspace.schema) != fingerprint:
        yield "preview changed the workspace schema fingerprint"
    if (workspace.undo_depth, workspace.redo_depth) != depths:
        yield (
            f"preview moved the history: (undo, redo) {depths} -> "
            f"({workspace.undo_depth}, {workspace.redo_depth})"
        )
    if workspace.issues != issues:
        yield "preview changed the workspace issue list"
    replaced = sorted(
        name for name, interface in live.items()
        if after.get(name) is not interface
    )
    if replaced or len(after) != len(live):
        yield (
            "preview swapped live interface objects: "
            f"{', '.join(replaced[:5]) or 'membership changed'}"
        )
    try:
        workspace.fork("preview_isolation").apply_plan(plan)
        applies = True
    except (OperationError, SchemaError):
        applies = False
    if preview.ok != applies:
        yield (
            f"preview.ok is {preview.ok} but apply_plan on a fork "
            f"{'succeeds' if applies else 'fails'}"
        )
