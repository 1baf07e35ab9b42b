"""Tests for ``Workspace.preview(plan)`` and the instance-impact facet.

Designer feedback direction of the PR 7 tentpole: a pending plan is
applied to a throw-away fork, significant examples are diffed across
the two schemas, and what the plan newly admits or forbids surfaces as
ordinary feedback messages -- without mutating the workspace.
"""

import gc
import tracemalloc

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.catalog import SCHEMA_BUILDERS, load
from repro.examples.generator import significant_examples
from repro.examples.preview import _CHUNK, plan_instance_impact
from repro.knowledge.feedback import FeedbackLevel
from repro.model.fingerprint import schema_fingerprint
from repro.ops.effects import WILDCARD
from repro.ops.language import parse_operation
from repro.ops.type_ops import DeleteTypeDefinition
from repro.repository.workspace import Workspace
from repro.workload.generator import (
    WorkloadSpec,
    generate_operations,
    generate_schema,
)
from tests.preview_reference import reference_preview


@pytest.fixture
def workspace():
    return Workspace(load("university"), "university_custom")


def op(text):
    return parse_operation(text)


class TestInstanceImpactFacet:
    def test_default_impact_covers_written_names(self):
        operation = op("add_attribute(Person, long, badge)")
        assert operation.instance_impact() == {"Person"}
        assert operation.effect_signature().instances == {"Person"}

    def test_operation_signature_ops_are_neutral(self):
        operation = op("add_operation(Person, void, greet)")
        assert operation.instance_neutral
        assert operation.instance_impact() == frozenset()

    def test_extent_name_ops_are_neutral(self):
        operation = op("modify_extent_name(Person, persons, people2)")
        assert operation.instance_neutral
        assert operation.instance_impact() == frozenset()

    def test_cascading_ops_reserve_the_whole_schema(self):
        operation = op("delete_type_definition(Person)")
        assert WILDCARD in operation.instance_impact()

    def test_plan_impact_is_the_union(self):
        plan = [
            op("add_attribute(Person, long, badge)"),
            op("add_operation(Person, void, greet)"),
            op("add_attribute(Course, long, ects)"),
        ]
        assert plan_instance_impact(plan) == {"Person", "Course"}


class TestPreview:
    def test_preview_does_not_mutate_the_workspace(self, workspace):
        before = schema_fingerprint(workspace.schema)
        depth = len(workspace.log)
        workspace.preview([op("add_attribute(Person, long, badge)")])
        assert schema_fingerprint(workspace.schema) == before
        assert len(workspace.log) == depth

    def test_instance_neutral_plan_says_so(self, workspace):
        preview = workspace.preview([op("add_operation(Person, void, greet)")])
        assert preview.ok
        assert preview.impacted == ()
        assert [f.code for f in preview.feedback] == ["instance-neutral"]

    def test_tightening_a_cardinality_forbids_data(self, workspace):
        preview = workspace.preview([op(
            "modify_relationship_cardinality"
            "(Department, members, set<Faculty>, Faculty)"
        )])
        assert preview.ok
        assert preview.impacted == ("Department",)
        assert preview.newly_forbidden
        cautions = [f for f in preview.feedback
                    if f.level is FeedbackLevel.CAUTION]
        assert cautions
        assert any("forbids" in str(f) for f in cautions)
        # The feedback carries the witnessing population itself.
        assert any("members=[" in str(f) for f in cautions)

    def test_loosening_a_cardinality_admits_data(self, workspace):
        tightened = Workspace(load("university"), "tight")
        tightened.apply(op(
            "modify_relationship_cardinality"
            "(Department, members, set<Faculty>, Faculty)"
        ))
        preview = tightened.preview([op(
            "modify_relationship_cardinality"
            "(Department, members, Faculty, set<Faculty>)"
        )])
        assert preview.ok
        assert preview.newly_admitted
        assert not preview.newly_forbidden

    def test_preflight_failure_reports_error_feedback(self, workspace):
        preview = workspace.preview([op("delete_attribute(Nope, x)")])
        assert not preview.ok
        assert all(f.level is FeedbackLevel.ERROR for f in preview.feedback)
        assert preview.feedback[0].code == "plan-preflight"

    def test_render_is_nonempty_either_way(self, workspace):
        preview = workspace.preview([op("add_operation(Person, void, greet)")])
        assert preview.render().strip()


class TestDesignerCliCommands:
    @pytest.fixture
    def session(self):
        from repro.designer.session import DesignSession
        from repro.odl.printer import print_schema

        return DesignSession.from_odl(
            print_schema(load("university")), name="university"
        )

    def test_examples_command(self, session):
        from repro.designer.cli import execute

        out = execute(session, "examples Department key")
        assert "admitted" in out and "rejected" in out

    def test_examples_command_empty_selection(self, session):
        from repro.designer.cli import execute

        out = execute(session, "examples NoSuchType")
        assert "no example pairs" in out

    def test_preview_command(self, session):
        from repro.designer.cli import execute

        out = execute(session, (
            "preview modify_relationship_cardinality"
            "(Department, members, set<Faculty>, Faculty)"
        ))
        assert "forbids" in out

    def test_preview_command_usage(self, session):
        from repro.designer.cli import execute

        assert execute(session, "preview").startswith("usage:")

    def test_help_lists_the_new_commands(self, session):
        from repro.designer.cli import execute

        text = execute(session, "help")
        assert "preview" in text and "examples" in text


# ----------------------------------------------------------------------
# The streamed preview against the two-list reference
# ----------------------------------------------------------------------


def _fields(preview):
    """A ``PlanPreview`` as plain comparable values, field for field."""

    def finding(f):
        return (
            f.subject, f.kind, f.population.name, f.population.objects,
            f.issues,
        )

    return (
        preview.ok,
        preview.impacted,
        [finding(f) for f in preview.newly_forbidden],
        [finding(f) for f in preview.newly_admitted],
        preview.feedback,
    )


def assert_matches_reference(workspace, plan):
    before = schema_fingerprint(workspace.schema)
    streamed = workspace.preview(plan)
    assert _fields(streamed) == _fields(reference_preview(workspace, plan))
    assert schema_fingerprint(workspace.schema) == before
    return streamed


#: Generated-schema sizes around the chunk constant: inside one chunk,
#: exactly one, one past it, and several chunks.
_SIZES = (10, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 2)

_SHAPES = {
    "isa_chain": lambda n: {"isa_chain": n // 4},
    "hub_fanout": lambda n: {"hub_fanout": n // 2},
    "part_of": lambda n: {"part_of_chain": n // 3},
    "instance_of": lambda n: {"instance_of_chain": n // 3},
}


class TestStreamedPreviewMatchesReference:
    @settings(
        max_examples=24,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        size=st.sampled_from(_SIZES),
        shape=st.sampled_from(sorted(_SHAPES)),
        seed=st.integers(min_value=0, max_value=10_000),
        length=st.sampled_from((1, 1, 4)),
        applied=st.integers(min_value=0, max_value=2),
        delete=st.booleans(),
    )
    def test_generated_plans(self, size, shape, seed, length, applied,
                             delete):
        schema = generate_schema(
            WorkloadSpec(types=size, seed=seed, **_SHAPES[shape](size))
        )
        try:
            plan = generate_operations(schema, applied + length, seed=seed)
        except RuntimeError:
            return
        workspace = Workspace(schema, "differential")
        workspace.apply_plan(plan[:applied])
        plan = plan[applied:]
        if delete:
            # A WILDCARD facet: the whole schema is impacted on both
            # sides, and the deleted type exists on one side only.
            names = workspace.schema.type_names()
            plan = [DeleteTypeDefinition(names[seed % len(names)])] + plan
        assert_matches_reference(workspace, plan)

    @pytest.mark.parametrize("name", sorted(SCHEMA_BUILDERS))
    def test_catalog_schemas(self, name):
        schema = load(name)
        plan = generate_operations(schema, 6, seed=len(schema))
        workspace = Workspace(schema, "differential")
        preview = assert_matches_reference(workspace, plan)
        assert preview.ok
        for operation in plan:
            assert_matches_reference(workspace, [operation])
        workspace.apply_plan(plan[:3])
        assert_matches_reference(workspace, plan[3:])

    def test_whole_schema_delete_spans_several_chunks(self):
        schema = generate_schema(WorkloadSpec(
            types=2 * _CHUNK + 1, isa_chain=8, hub_fanout=_CHUNK, seed=7,
        ))
        workspace = Workspace(schema, "differential")
        plan = [DeleteTypeDefinition("Type005")]
        assert WILDCARD in plan_instance_impact(plan)
        preview = assert_matches_reference(workspace, plan)
        assert preview.ok
        assert len(preview.impacted) == 2 * _CHUNK + 1
        assert preview.newly_forbidden

    @pytest.mark.parametrize("text", [
        "add_type_definition(Person)",  # rejected by pre-flight
        "add_supertype(Person, Student)",  # rejected while applying
    ])
    def test_rejected_plans(self, workspace, text):
        preview = assert_matches_reference(workspace, [op(text)])
        assert not preview.ok


class TestPreviewMemoryIsBounded:
    def test_peak_is_a_fraction_of_one_sides_examples(self):
        schema = generate_schema(WorkloadSpec(types=300, seed=3))
        workspace = Workspace(schema, "memory")
        plan = [DeleteTypeDefinition("Type010")]
        assert WILDCARD in plan_instance_impact(plan)
        gc.collect()
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            pairs = significant_examples(workspace.schema)
            one_side = tracemalloc.get_traced_memory()[0] - baseline
            del pairs
            gc.collect()
            tracemalloc.reset_peak()
            baseline = tracemalloc.get_traced_memory()[0]
            preview = workspace.preview(plan)
            peak = tracemalloc.get_traced_memory()[1] - baseline
        finally:
            tracemalloc.stop()
        assert preview.ok and preview.newly_forbidden
        assert peak < one_side / 2, (peak, one_side)
