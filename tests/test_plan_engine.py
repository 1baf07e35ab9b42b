"""The workspace's one plan engine: ``apply``, ``apply_plan``,
``apply_composite``, ``redo`` and ``fork(at=)`` replay.

Pins what the single engine guarantees on every entry point:

* ``apply_plan`` gives the same designer feedback as ``apply`` run op by
  op, including the cautions of the requested op (judged before any
  cascade) and of each cascaded step (judged against the schema that
  step applies to);
* ``apply_plan`` and ``preview`` reject every plan ``apply`` rejects --
  the plan is never rewritten;
* any exception, including one that is not a ``ReproError``, leaves the
  fingerprint, the history and the issue list exactly as they were.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.catalog.university import university_schema
from repro.model.fingerprint import schema_fingerprint
from repro.odl.parser import parse_schema
from repro.ops.base import OperationError
from repro.ops.composite import CompositeOperation, IntroduceAbstractSupertype
from repro.ops.language import parse_operation
from repro.ops.registry import OPERATION_CLASSES
from repro.repository.workspace import Workspace
from repro.workload.generator import (
    WorkloadSpec,
    generate_operations,
    generate_schema,
)


def _ops(*texts):
    return [parse_operation(text) for text in texts]


def _feedback(entries):
    return [[str(message) for message in entry.feedback] for entry in entries]


def _state(workspace):
    return (
        schema_fingerprint(workspace.schema),
        workspace.undo_depth,
        workspace.redo_depth,
        list(workspace.issues),
    )


@contextmanager
def failing_apply(k):
    """Make the *k*-th operation ``apply`` call raise a RuntimeError.

    Yields the call counter: after a run with ``k=-1`` (nothing fails),
    ``next(counter)`` is the number of ``apply`` calls the run made.
    """
    calls = itertools.count()
    owners = {
        next(klass for klass in cls.__mro__ if "apply" in vars(klass))
        for cls in OPERATION_CLASSES
    }
    with pytest.MonkeyPatch.context() as patch:
        for owner in owners:
            original = vars(owner)["apply"]

            def apply(self, *args, _original=original, **kwargs):
                if next(calls) == k:
                    raise RuntimeError(f"injected failure at apply #{k}")
                return _original(self, *args, **kwargs)

            patch.setattr(owner, "apply", apply)
        yield calls


class TestFeedbackParity:
    def test_apply_plan_delete_feedback_matches_apply(self):
        plan = _ops("delete_type_definition(Student)")
        single = Workspace(university_schema()).apply(plan[0])
        entries = Workspace(university_schema()).apply_plan(plan)
        assert _feedback(entries) == _feedback([single])
        codes = {message.code for message in entries[0].feedback}
        assert {"delete-supertype-of", "delete-cascade-extent"} <= codes

    @given(seed=st.integers(0, 2000))
    @settings(
        max_examples=25, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_generated_plan_feedback_matches_per_op_apply(self, seed):
        schema = generate_schema(
            WorkloadSpec(types=14 + seed % 10, seed=seed, isa_fraction=0.5)
        )
        plan = generate_operations(schema, 30, seed=seed)
        naive = Workspace(schema, "naive")
        naive_entries = [naive.apply(operation) for operation in plan]
        entries = Workspace(schema, "whole").apply_plan(plan)
        assert _feedback(entries) == _feedback(naive_entries)
        assert [[s.to_text() for s in e.plan] for e in entries] == [
            [s.to_text() for s in e.plan] for e in naive_entries
        ]

    def test_cascaded_step_cautions_describe_the_state_it_applies_to(self):
        # Deleting T first drops Y's ISA link to T, then X.a (which
        # references T): by then only T still inherits from X.
        schema = parse_schema(
            """
            interface Y : T { };
            interface X { attribute T a; };
            interface T : X { };
            """,
            name="hand_built",
        )
        entry = Workspace(schema).apply(
            parse_operation("delete_type_definition(T)")
        )
        messages = [str(message) for message in entry.feedback]
        assert messages == [
            "[caution] isa-rewiring (Y ISA T): 'Y' stops inheriting: a",
            "[info] delete-inherited (X.a): subtypes T inherit this "
            "attribute and lose it too",
            "[caution] delete-supertype-of (T): 'T' is the supertype of Y; "
            "deleting it removes their inherited information",
            "[info] delete-cascade-extent (T): deleting 'T' cascades into "
            "2 other type(s): X, Y",
            "[info] cascaded (delete_supertype(Y, T)): performed "
            "automatically for delete_type_definition",
            "[info] cascaded (delete_attribute(X, a)): performed "
            "automatically for delete_type_definition",
        ]


class TestNoPlanRewriting:
    PLAN = (
        "add_attribute(Person, long, id)",
        "delete_attribute(Person, id)",
    )

    def test_apply_plan_rejects_what_apply_rejects(self):
        workspace = Workspace(university_schema())
        with pytest.raises(OperationError, match="already has a property"):
            workspace.apply(_ops(*self.PLAN)[0])
        before = _state(workspace)
        with pytest.raises(OperationError, match="already has a property"):
            workspace.apply_plan(_ops(*self.PLAN))
        assert _state(workspace) == before

    def test_preview_reports_the_rejection(self):
        workspace = Workspace(university_schema())
        preview = workspace.preview(_ops(*self.PLAN))
        assert preview.ok is False
        assert any(
            message.code == "plan-rejected" for message in preview.feedback
        )


@pytest.fixture
def with_redo(small):
    """A workspace with two applied steps and one undone (redo depth 1)."""
    workspace = Workspace(small, name="engine")
    workspace.apply(parse_operation("add_attribute(Person, long, age)"))
    workspace.apply(parse_operation("delete_type_definition(Department)"))
    workspace.undo_last()
    assert workspace.redo_depth == 1
    return workspace


class TestFailureKeepsHistory:
    def test_failed_apply_plan_keeps_redo_stack(self, with_redo):
        before = _state(with_redo)
        with pytest.raises(OperationError):
            with_redo.apply_plan(_ops(
                "add_attribute(Person, long, fresh)",
                "add_attribute(Person, long, id)",  # duplicate: fails
            ))
        assert _state(with_redo) == before

    def test_failed_apply_composite_keeps_redo_stack(self, with_redo):
        class FailsLate(CompositeOperation):
            composite_name = "fails_late"

            def expand_plan(self, schema, context=None):
                return _ops(
                    "add_attribute(Person, long, fresh)",
                    "add_attribute(Person, long, id)",  # duplicate: fails
                )

            def describe(self):
                return "a composite whose second primitive fails"

        before = _state(with_redo)
        with pytest.raises(OperationError):
            with_redo.apply_composite(FailsLate())
        assert _state(with_redo) == before


class TestInjectedFaults:
    """A RuntimeError at every apply call of a run leaves no trace."""

    def _sweep(self, make_workspace, run):
        workspace = make_workspace()
        with failing_apply(-1) as calls:
            run(workspace)
        total = next(calls)
        assert total >= 2
        for k in range(total):
            workspace = make_workspace()
            before = _state(workspace)
            with failing_apply(k):
                with pytest.raises(RuntimeError, match="injected"):
                    run(workspace)
            assert _state(workspace) == before, f"fault at apply #{k}"
            # The workspace stays fully usable after the fault.
            run(workspace)

    def test_apply_plan(self, small):
        plan = _ops(
            "add_attribute(Person, long, age)",
            "delete_type_definition(Department)",
            "add_type_definition(Office)",
        )
        self._sweep(
            lambda: Workspace(small, name="faults"),
            lambda workspace: workspace.apply_plan(plan),
        )

    def test_apply_composite(self, small):
        composite = IntroduceAbstractSupertype(
            "Staff", ("Employee", "Department")
        )
        self._sweep(
            lambda: Workspace(small, name="faults"),
            lambda workspace: workspace.apply_composite(composite),
        )

    def test_redo(self, small):
        def make():
            workspace = Workspace(small, name="faults")
            workspace.apply(parse_operation("add_attribute(Person, long, x)"))
            workspace.apply(
                parse_operation("delete_type_definition(Department)")
            )
            workspace.undo_last()
            return workspace

        self._sweep(make, lambda workspace: workspace.redo())
