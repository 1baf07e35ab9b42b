"""Reference implementation of ``Workspace.preview``: the two-list diff.

Generates each side's complete significant-example list in one call and
diffs the two lists whole.  :func:`repro.examples.preview.preview_plan`
streams the same diff a chunk of interfaces at a time; the differential
tests in ``tests/test_preview.py`` require the two to return the same
:class:`~repro.examples.preview.PlanPreview` field for field.
"""

from __future__ import annotations

from repro.analysis.plan import PlanPreflightError
from repro.examples.generator import ExamplePair, significant_examples
from repro.examples.preview import (
    PlanPreview,
    PreviewFinding,
    _emit,
    plan_instance_impact,
)
from repro.instances.check import check_population
from repro.knowledge.feedback import caution, error, info
from repro.model.errors import SchemaError
from repro.ops.base import OperationError
from repro.ops.effects import WILDCARD


def _flips(
    pairs: list[ExamplePair],
    other_schema,
    *,
    witnesses_failing: bool,
) -> list[PreviewFinding]:
    """Pairs whose admission verdict flips on *other_schema*.

    ``witnesses_failing=True`` selects witnesses the other side rejects;
    ``False`` selects near-misses the other side admits.
    """
    findings: list[PreviewFinding] = []
    for pair in pairs:
        if witnesses_failing:
            issues = check_population(other_schema, pair.witness)
            if issues:
                findings.append(PreviewFinding(
                    pair.subject, pair.kind, pair.witness, tuple(issues)
                ))
        else:
            if not check_population(other_schema, pair.near_miss):
                findings.append(PreviewFinding(
                    pair.subject, pair.kind, pair.near_miss, ()
                ))
    return findings


def reference_preview(workspace, plan, concept=None) -> PlanPreview:
    """What ``workspace.preview(plan, concept)`` must return."""
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
    before_pairs = significant_examples(
        before, interfaces=impacted & set(before.type_names())
    )
    after_pairs = significant_examples(
        after, interfaces=impacted & set(after.type_names())
    )
    forbidden = _flips(before_pairs, after, witnesses_failing=True)
    forbidden += _flips(after_pairs, before, witnesses_failing=False)
    admitted = _flips(after_pairs, before, witnesses_failing=True)
    admitted += _flips(before_pairs, after, witnesses_failing=False)
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
