"""Designer feedback: what data a pending plan newly admits or forbids.

``Workspace.preview(plan)`` delegates here.  The plan is applied to a
throw-away fork of the workspace, significant examples are generated on
both sides for the interfaces the plan's instance-impact facet names,
and each side's examples are cross-checked against the other side
through :func:`repro.instances.check.check_population`:

* a *before* witness the *after* schema rejects -- and an *after*
  near-miss the *before* schema admitted -- is data the plan **newly
  forbids**;
* an *after* witness the *before* schema rejects -- and a *before*
  near-miss the *after* schema admits -- is data the plan **newly
  admits**.

Findings surface as ordinary :mod:`repro.knowledge.feedback` messages
(cautions for forbidden data, infos for admitted data), so the designer
CLI and the session feedback log render them like any other caution.
The workspace itself is never mutated; a plan that fails pre-flight or
application reports that as error-level feedback instead.  Examples are
generated and checked a fixed-size chunk of interfaces at a time and
only the findings are kept, so a whole-schema preview holds one chunk
of pairs, not both sides' complete example lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.examples.generator import CONSTRAINT_KINDS, significant_examples
from repro.instances.check import check_population
from repro.instances.population import Population, PopulationIssue
from repro.knowledge.feedback import Feedback, caution, error, info
from repro.model.errors import SchemaError
from repro.ops.base import OperationError, SchemaOperation
from repro.ops.effects import WILDCARD

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.model.schema import Schema
    from repro.repository.workspace import Workspace

#: Cap per finding family; the rest is summarized in one info message.
_MAX_FINDINGS = 8

#: Impacted interfaces per ``significant_examples`` call: the preview
#: holds one chunk's example pairs at a time, never a whole side's.
_CHUNK = 64


@dataclass(frozen=True)
class PreviewFinding:
    """One population whose admission the pending plan flips."""

    subject: str  # the constraint site, e.g. "Department.staff"
    kind: str  # constraint family of the site
    population: Population
    issues: tuple[PopulationIssue, ...]  # why the rejecting side rejects

    def describe(self) -> str:
        reason = f" ({self.issues[0]})" if self.issues else ""
        return f"{self.subject}{reason}\n{self.population.render()}"


@dataclass
class PlanPreview:
    """Everything ``Workspace.preview(plan)`` learned."""

    ok: bool  # the plan pre-flights and applies on a fork
    impacted: tuple[str, ...]  # interfaces the instance facet names
    newly_forbidden: list[PreviewFinding] = field(default_factory=list)
    newly_admitted: list[PreviewFinding] = field(default_factory=list)
    feedback: list[Feedback] = field(default_factory=list)

    def render(self) -> str:
        lines = [str(message) for message in self.feedback]
        return "\n".join(lines) if lines else "preview: no instance impact"


def plan_instance_impact(plan: list[SchemaOperation]) -> frozenset[str]:
    """Union of the plan ops' instance-impact facets (may hold WILDCARD)."""
    impacted: set[str] = set()
    for operation in plan:
        impacted |= operation.effect_signature().instances
    return frozenset(impacted)


def _cross_check(
    side: "Schema", other: "Schema", impacted: frozenset[str]
) -> tuple[list[PreviewFinding], list[PreviewFinding]]:
    """*side*'s example pairs whose verdict flips on *other*.

    Returns the witnesses *other* rejects and the near-misses *other*
    admits, in ``significant_examples`` order (constraint kind, then
    declaration order).  The impacted interfaces are walked in
    declaration order one chunk at a time and each chunk's pairs are
    dropped once checked, so memory is one chunk plus the findings.
    """
    names = [name for name in side.interfaces if name in impacted]
    rejected: list[PreviewFinding] = []
    admitted: list[PreviewFinding] = []
    for start in range(0, len(names), _CHUNK):
        chunk = names[start:start + _CHUNK]
        for pair in significant_examples(side, interfaces=chunk):
            issues = check_population(other, pair.witness)
            if issues:
                rejected.append(PreviewFinding(
                    pair.subject, pair.kind, pair.witness, tuple(issues)
                ))
            if not check_population(other, pair.near_miss):
                admitted.append(PreviewFinding(
                    pair.subject, pair.kind, pair.near_miss, ()
                ))
    # Chunks follow declaration order, so a stable sort by kind
    # restores the order one whole-side call would have produced.
    rejected.sort(key=_kind_rank)
    admitted.sort(key=_kind_rank)
    return rejected, admitted


def _kind_rank(finding: PreviewFinding) -> int:
    return CONSTRAINT_KINDS.index(finding.kind)


def _emit(
    preview: PlanPreview,
    findings: list[PreviewFinding],
    code: str,
    level_constructor,
    verb: str,
) -> None:
    for finding in findings[:_MAX_FINDINGS]:
        preview.feedback.append(level_constructor(
            code, finding.subject,
            f"the plan {verb} this population:\n{finding.describe()}",
        ))
    rest = len(findings) - _MAX_FINDINGS
    if rest > 0:
        preview.feedback.append(info(
            code, "summary", f"... and {rest} more population(s) {verb}",
        ))


def preview_plan(
    workspace: "Workspace",
    plan: list[SchemaOperation],
    concept=None,
) -> PlanPreview:
    """Diff the populations a pending plan admits; mutates nothing."""
    from repro.analysis.plan import PlanPreflightError

    branch = workspace.fork(f"{workspace.schema.name}_preview")
    try:
        branch.apply_plan(plan, concept=concept)
    except PlanPreflightError as failure:
        preview = PlanPreview(ok=False, impacted=())
        preview.feedback.extend(
            error("plan-preflight", f"op[{diagnostic.index}]",
                  diagnostic.message)
            for diagnostic in failure.diagnostics
        )
        return preview
    except (OperationError, SchemaError) as failure:
        preview = PlanPreview(ok=False, impacted=())
        preview.feedback.append(
            error("plan-rejected", "plan", str(failure))
        )
        return preview
    before = workspace.schema
    after = branch.schema
    impacted = plan_instance_impact(plan)
    if WILDCARD in impacted:
        impacted = frozenset(before.type_names()) | frozenset(
            after.type_names()
        )
    preview = PlanPreview(ok=True, impacted=tuple(sorted(impacted)))
    if not impacted:
        preview.feedback.append(info(
            "instance-neutral", "plan",
            "the plan does not change which populations the schema admits",
        ))
        return preview
    before_rejected, before_admitted = _cross_check(before, after, impacted)
    after_rejected, after_admitted = _cross_check(after, before, impacted)
    forbidden = before_rejected + after_admitted
    admitted = after_rejected + before_admitted
    preview.newly_forbidden = forbidden
    preview.newly_admitted = admitted
    _emit(preview, forbidden, "forbids-examples", caution, "newly forbids")
    _emit(preview, admitted, "admits-examples", info, "newly admits")
    if not preview.feedback:
        preview.feedback.append(info(
            "examples-preserved", "plan",
            "every generated example keeps its admission verdict",
        ))
    return preview
