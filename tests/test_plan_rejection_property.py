"""Property test: a rejected plan is rejected exactly and atomically.

For randomly generated *rejected* plans:

* ``apply_plan`` and ``preview`` raise or report the same
  :class:`PlanPreflightError` diagnostics (same indices, codes, and
  messages);
* a rejected plan leaves the schema fingerprint, the op log, and the
  redo stack exactly as they were (atomicity);
* every pre-flight diagnostic reproduces as a real dynamic failure when
  the plan runs per-op with skip-on-failure semantics.

Plans are derived from the deterministic workload generator with a
hypothesis-chosen seed, then broken two ways: dropping one op (later
ops lose the names it created) and injecting an op against a type that
does not exist.  Plans the analyzer still considers clean are discarded
(`hypothesis` ``assume``) -- the property quantifies over rejected ones.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import HealthCheck, assume, given, settings

import pytest

from repro.analysis.plan import PlanPreflightError, analyze_plan
from repro.model.errors import SchemaError
from repro.model.fingerprint import schema_fingerprint
from repro.ops.base import OperationError
from repro.ops.language import parse_operation
from repro.repository.workspace import Workspace
from repro.workload.generator import (
    WorkloadSpec,
    generate_operations,
    generate_schema,
)

_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _rejected_plan(seed: int, style: int):
    """A (schema, plan) pair whose plan draws pre-flight diagnostics."""
    schema = generate_schema(WorkloadSpec(types=10 + seed % 6, seed=seed))
    try:
        plan = generate_operations(schema, 5, seed=seed)
    except RuntimeError:
        return schema, []
    if style % 2 == 0 and len(plan) >= 2:
        del plan[seed % len(plan)]  # orphan later ops' name dependencies
    else:
        plan.insert(
            seed % (len(plan) + 1),
            parse_operation(f"add_attribute(Ghost{seed:04d}, long, x)"),
        )
    return schema, plan


def _diagnostic_tuples(error: PlanPreflightError):
    return [
        (diagnostic.index, diagnostic.code, diagnostic.message)
        for diagnostic in error.diagnostics
    ]


@given(seed=st.integers(0, 5000), style=st.integers(0, 3))
@_SETTINGS
def test_rejected_plan_is_reported_identically_and_atomically(seed, style):
    schema, plan = _rejected_plan(seed, style)
    assume(plan)
    assume(analyze_plan(plan, schema).diagnostics)

    workspace = Workspace(schema, "rejected")
    before = schema_fingerprint(schema)

    with pytest.raises(PlanPreflightError) as error:
        workspace.apply_plan(plan)
    preview = workspace.preview(plan)

    assert not preview.ok
    assert [
        (feedback.subject, feedback.message) for feedback in preview.feedback
    ] == [
        (f"op[{diagnostic.index}]", diagnostic.message)
        for diagnostic in error.value.diagnostics
    ]
    assert schema_fingerprint(workspace.schema) == before
    assert workspace.log == []
    assert workspace.redo_depth == 0


@given(seed=st.integers(0, 5000), style=st.integers(0, 3))
@_SETTINGS
def test_diagnostics_reproduce_as_dynamic_failures(seed, style):
    schema, plan = _rejected_plan(seed, style)
    assume(plan)
    verdict = analyze_plan(plan, schema)
    assume(verdict.diagnostics)

    replay = Workspace(schema, "replay")
    failed: set[int] = set()
    for index, operation in enumerate(plan):
        try:
            replay.apply(operation)
        except (OperationError, SchemaError):
            failed.add(index)
    for diagnostic in verdict.diagnostics:
        assert diagnostic.index in failed, (
            f"diagnostic did not reproduce dynamically: {diagnostic}"
        )


@given(seed=st.integers(0, 5000))
@_SETTINGS
def test_repeated_rejection_is_stable(seed):
    """Rejecting the same plan twice gives byte-identical diagnostics
    (the second run exercises the analysis memo)."""
    schema, plan = _rejected_plan(seed, 1)
    assume(plan)
    assume(analyze_plan(plan, schema).diagnostics)
    workspace = Workspace(schema, "memo")
    outcomes = []
    for _ in range(2):
        with pytest.raises(PlanPreflightError) as error:
            workspace.apply_plan(plan)
        outcomes.append(_diagnostic_tuples(error.value))
    assert outcomes[0] == outcomes[1]
    assert workspace.schema.stats()["analysis.hits"] >= 1
