"""Static analysis of operation plans: vet before you run.

The paper's methodology is plan-shaped -- a designer composes Appendix A
modification operations, constrained by Table 1 admissibility, semantic
stability, and name equivalence -- but every constraint in this repo was
checked dynamically, one op at a time, inside ``apply``.  This module
inspects a whole plan *without mutating the schema*, using the
:class:`~repro.ops.effects.EffectSignature` each operation class
declares:

* :func:`analyze_plan` builds a def-use/conflict graph over the plan and
  reports **pre-flight diagnostics** (operations that are statically
  guaranteed to fail: unknown or deleted names, duplicate type names,
  extent name-equivalence violations, Table 1 inadmissibility) with op
  indices before anything runs;
* :meth:`repro.repository.workspace.Workspace.apply_plan` runs the
  pre-flight and refuses a diagnosed plan before anything mutates;
* ``python -m repro.analysis.plan --schema file.odl --script plan.txt``
  prints the report from the command line.

Soundness contract (backed by the ``plan-analyzer-differential`` fuzzer
invariant): every diagnostic corresponds to a real dynamic failure of
that op -- the name/extent simulation mirrors exactly the checks the
operations themselves make, so there are no false positives.  A plan
that passes clean *may* still fail dynamically (the analyzer does not
model attribute- or relationship-level state); the plan is never
rewritten, so it then fails exactly where op-by-op application fails.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

from repro.concepts.base import ConceptKind
from repro.model.schema import Schema
from repro.ops.base import OperationError, SchemaOperation
from repro.ops.effects import EffectSignature
from repro.ops.registry import is_admissible
from repro.ops.type_ops import AddTypeDefinition
from repro.ops.type_property_ops import (
    AddExtentName,
    DeleteExtentName,
    ModifyExtentName,
)


@dataclass(frozen=True)
class Diagnostic:
    """One statically detected failure: plan op *index* will not apply."""

    index: int
    code: str
    message: str

    def __str__(self) -> str:
        return f"op[{self.index}] {self.code}: {self.message}"


@dataclass(frozen=True)
class ConflictEdge:
    """One ordering dependency between two plan ops (earlier < later)."""

    earlier: int
    later: int
    reason: str

    def __str__(self) -> str:
        return f"op[{self.earlier}] -> op[{self.later}]: {self.reason}"


class PlanPreflightError(OperationError):
    """A plan was rejected before execution; ``diagnostics`` says why."""

    def __init__(self, diagnostics: list[Diagnostic]) -> None:
        self.diagnostics = list(diagnostics)
        lines = "; ".join(str(d) for d in self.diagnostics[:5])
        more = len(self.diagnostics) - 5
        if more > 0:
            lines += f"; (+{more} more)"
        super().__init__(f"plan rejected by pre-flight analysis: {lines}")


@dataclass
class PlanAnalysis:
    """Everything :func:`analyze_plan` learned about one plan."""

    plan: list[SchemaOperation]
    signatures: list[EffectSignature]
    edges: list[ConflictEdge]
    diagnostics: list[Diagnostic]

    def is_clean(self) -> bool:
        """True when pre-flight found no guaranteed failure."""
        return not self.diagnostics

    def report(self) -> str:
        """Multi-line report for CLI / designer display."""
        lines = [
            f"plan: {len(self.plan)} operation(s), "
            f"{len(self.edges)} conflict edge(s)"
        ]
        if self.diagnostics:
            lines.append("pre-flight diagnostics:")
            lines.extend(f"  {diag}" for diag in self.diagnostics)
        else:
            lines.append("pre-flight: clean")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Pre-flight diagnostics: name-binding and extent simulation
# ----------------------------------------------------------------------


def _preflight(
    plan: list[SchemaOperation],
    signatures: list[EffectSignature],
    schema: Schema | None,
    kind: ConceptKind | None,
) -> list[Diagnostic]:
    """Simulate name bindings and extents; collect guaranteed failures.

    The simulation mirrors exactly the membership and extent checks the
    operations themselves make, and ops that get a diagnostic do not
    contribute their simulated effects (dynamically they would have
    failed and changed nothing) -- together this keeps every diagnostic
    a real failure, with no false positives.  Without a *schema* the
    membership/extent families are skipped (only admissibility remains).
    """
    diagnostics: list[Diagnostic] = []
    tracking = schema is not None
    live: set[str] = set(schema.type_names()) if tracking else set()
    extent_of: dict[str, str | None] = (
        {interface.name: interface.extent for interface in schema}
        if tracking
        else {}
    )
    deleted_at: dict[str, int] = {}

    for index, (operation, signature) in enumerate(zip(plan, signatures)):
        found: list[Diagnostic] = []
        if kind is not None and not is_admissible(operation, kind):
            found.append(Diagnostic(
                index, "inadmissible",
                f"{operation.op_name} is not allowed in a {kind.label()} "
                "concept schema (Table 1)",
            ))
        if tracking:
            for name in sorted(signature.requires):
                if name in live:
                    continue
                if name in deleted_at:
                    found.append(Diagnostic(
                        index, "use-after-delete",
                        f"{operation.to_text()} needs type {name!r}, "
                        f"deleted by op[{deleted_at[name]}]",
                    ))
                else:
                    found.append(Diagnostic(
                        index, "unknown-type",
                        f"{operation.to_text()} needs type {name!r}, "
                        "which no prior op creates and the schema lacks",
                    ))
            found.extend(_check_name_equivalence(
                index, operation, signature, live, extent_of
            ))
        diagnostics.extend(found)
        if found or not tracking:
            # A failing op leaves the schema unchanged; mirroring that
            # keeps the simulation exact for the ops after it.
            continue
        for name in signature.creates:
            live.add(name)
            extent_of[name] = None
            deleted_at.pop(name, None)
        for name in signature.deletes:
            live.discard(name)
            extent_of.pop(name, None)
            deleted_at[name] = index
        _apply_extent_effect(operation, extent_of)
    return diagnostics


def _check_name_equivalence(
    index: int,
    operation: SchemaOperation,
    signature: EffectSignature,
    live: set[str],
    extent_of: dict[str, str | None],
) -> list[Diagnostic]:
    """Duplicate type names and extent-name violations (name equivalence)."""
    found: list[Diagnostic] = []
    if signature.requires - live:
        # The op already fails on a missing type; the state checks below
        # would read simulated state for an interface that is not there.
        return found
    if isinstance(operation, AddTypeDefinition):
        if operation.typename in live:
            found.append(Diagnostic(
                index, "duplicate-type",
                f"type {operation.typename!r} already exists "
                "(type names are globally unique)",
            ))
    elif isinstance(operation, AddExtentName):
        if extent_of.get(operation.typename) is not None:
            found.append(Diagnostic(
                index, "extent-state",
                f"{operation.typename!r} already has extent "
                f"{extent_of[operation.typename]!r}; use modify_extent_name",
            ))
        found.extend(_extent_clash(
            index, operation.typename, operation.extent_name, extent_of
        ))
    elif isinstance(operation, ModifyExtentName):
        if extent_of.get(operation.typename) != operation.old_extent_name:
            found.append(Diagnostic(
                index, "extent-state",
                f"{operation.typename!r} has extent "
                f"{extent_of.get(operation.typename)!r}, not "
                f"{operation.old_extent_name!r}",
            ))
        found.extend(_extent_clash(
            index, operation.typename, operation.new_extent_name, extent_of
        ))
    elif isinstance(operation, DeleteExtentName):
        if extent_of.get(operation.typename) != operation.extent_name:
            found.append(Diagnostic(
                index, "extent-state",
                f"{operation.typename!r} has extent "
                f"{extent_of.get(operation.typename)!r}, not "
                f"{operation.extent_name!r}",
            ))
    return found


def _extent_clash(
    index: int, typename: str, extent_name: str,
    extent_of: dict[str, str | None],
) -> list[Diagnostic]:
    owners = sorted(
        owner
        for owner, extent in extent_of.items()
        if extent == extent_name and owner != typename
    )
    if owners:
        return [Diagnostic(
            index, "extent-clash",
            f"extent name {extent_name!r} is already used by "
            f"{owners[0]!r} (extent names are globally unique)",
        )]
    return []


def _apply_extent_effect(
    operation: SchemaOperation, extent_of: dict[str, str | None]
) -> None:
    if isinstance(operation, AddExtentName):
        extent_of[operation.typename] = operation.extent_name
    elif isinstance(operation, ModifyExtentName):
        extent_of[operation.typename] = operation.new_extent_name
    elif isinstance(operation, DeleteExtentName):
        extent_of[operation.typename] = None


# ----------------------------------------------------------------------
# Conflict graph
# ----------------------------------------------------------------------


def conflict_edges(
    signatures: list[EffectSignature],
) -> list[ConflictEdge]:
    """Def-use/conflict graph: one edge per non-commuting ordered pair."""
    edges: list[ConflictEdge] = []
    for later in range(len(signatures)):
        for earlier in range(later):
            reason = signatures[earlier].conflicts_with(signatures[later])
            if reason is not None:
                edges.append(ConflictEdge(earlier, later, reason))
    return edges


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def analyze_plan(
    plan: list[SchemaOperation],
    schema: Schema | None = None,
    kind: ConceptKind | None = None,
    edges: bool = True,
) -> PlanAnalysis:
    """Statically analyze *plan* against *schema* (never mutated).

    With *kind*, each op is additionally checked against the Table 1
    admissibility matrix for that concept-schema type.

    ``edges=False`` skips the O(n^2) conflict-edge graph; diagnostics
    are unaffected.  :meth:`Workspace.apply_plan` uses this -- it
    consumes only the diagnostics.
    """
    operations = list(plan)
    signatures = [operation.effect_signature() for operation in operations]
    return PlanAnalysis(
        plan=operations,
        signatures=signatures,
        edges=conflict_edges(signatures) if edges else [],
        diagnostics=_preflight(operations, signatures, schema, kind),
    )


def main(argv: list[str] | None = None) -> int:
    """CLI: analyze an operation-language script against an ODL schema."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.plan",
        description=(
            "Static pre-flight analysis of a modification plan: effect "
            "signatures, conflict edges, and diagnostics."
        ),
    )
    parser.add_argument(
        "--schema", help="ODL file with the schema the plan targets"
    )
    parser.add_argument(
        "--script",
        help="operation-language script ('-' or omitted: stdin)",
    )
    parser.add_argument(
        "--kind",
        choices=sorted(kind.value for kind in ConceptKind),
        help="concept-schema type for Table 1 admissibility checks",
    )
    parser.add_argument(
        "--edges", action="store_true",
        help="also list every conflict edge",
    )
    options = parser.parse_args(argv)

    from repro.ops.language import parse_script

    schema = None
    if options.schema:
        from repro.odl.parser import parse_schema

        with open(options.schema, encoding="utf-8") as handle:
            schema = parse_schema(handle.read(), name=options.schema)
    if options.script and options.script != "-":
        with open(options.script, encoding="utf-8") as handle:
            text = handle.read()
    else:
        text = sys.stdin.read()
    plan = parse_script(text)
    kind = ConceptKind(options.kind) if options.kind else None
    analysis = analyze_plan(plan, schema, kind=kind)
    print(analysis.report())
    if options.edges:
        for edge in analysis.edges:
            print(f"  {edge}")
    return 0 if analysis.is_clean() else 1


if __name__ == "__main__":
    raise SystemExit(main())
