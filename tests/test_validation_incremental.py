"""The incremental validation engine vs the full-scan reference.

PR 3's tentpole: :class:`repro.model.validation_cache.ValidationCache`
re-checks only the dirty set each mutation leaves behind, but must stay
byte-for-byte equal to :func:`repro.model.validation.validate_schema`
(the preserved reference spec).  These tests pin that equality across
the workspace loop (apply / undo / redo / reset), direct mutator churn,
warning-severity rule transitions, cycle and membership transitions,
and the coarse fallbacks (``touch`` / an order-only record).
"""

from __future__ import annotations

import pytest

from repro.model.attributes import Attribute
from repro.model.errors import ValidationError
from repro.model.interface import InterfaceDef
from repro.model.relationships import RelationshipKind
from repro.model.types import scalar
from repro.model.validation import validate_schema
from repro.odl.parser import parse_schema
from repro.ops.attribute_ops import AddAttribute
from repro.ops.base import OperationContext
from repro.ops.type_property_ops import AddSupertype, DeleteSupertype
from repro.repository.workspace import Workspace
from repro.workload.generator import (
    WorkloadSpec,
    generate_operations,
    generate_schema,
)


def assert_matches_reference(schema):
    """The cache's issue list must equal the full scan's, byte for byte."""
    fast = schema.validation.validate()
    slow = validate_schema(schema)
    assert fast == slow
    return fast


class TestWorkspaceLoop:
    """Apply / undo / redo / reset all keep issues == reference scan."""

    def test_operation_stream_stays_equal(self):
        reference = generate_schema(WorkloadSpec(types=24, seed=5))
        workspace = Workspace(reference)
        for operation in generate_operations(reference, 40, seed=9):
            workspace.apply(operation)
            assert workspace.issues == validate_schema(workspace.schema)

    def test_undo_redo_reset_stay_equal(self):
        reference = generate_schema(WorkloadSpec(types=18, seed=3))
        workspace = Workspace(reference)
        for operation in generate_operations(reference, 25, seed=4):
            workspace.apply(operation)
        while workspace.undo_depth:
            workspace.undo_last()
            assert workspace.issues == validate_schema(workspace.schema)
        while workspace.redo_depth:
            workspace.redo()
            assert workspace.issues == validate_schema(workspace.schema)
        workspace.reset()
        assert workspace.issues == validate_schema(workspace.schema)

    def test_stream_runs_incrementally_not_by_rebuilds(self):
        reference = generate_schema(WorkloadSpec(types=24, seed=5))
        workspace = Workspace(reference)
        workspace.issues
        for operation in generate_operations(reference, 30, seed=9):
            workspace.apply(operation)
            workspace.issues
        stats = workspace.schema.stats()
        # one initial build, then dirty-set passes only
        assert stats["validation.full"] == 1
        assert stats["validation.incremental"] >= 30
        assert stats["validation.reused"] > stats["validation.revalidated"]


MULTI_ROOT_ODL = """
interface A {};
interface B {};
interface C : A {};
"""


class TestMultiRootTransitions:
    """The warning-severity component rule under incrementality."""

    def test_warning_appears_and_disappears(self):
        reference = parse_schema(MULTI_ROOT_ODL, name="mr")
        workspace = Workspace(reference)

        def rules():
            assert workspace.issues == validate_schema(workspace.schema)
            return {issue.rule for issue in workspace.issues}

        assert "multi-root-hierarchy" not in rules()
        workspace.apply(AddSupertype("C", "B"))  # component {A,B,C}, roots A+B
        assert "multi-root-hierarchy" in rules()
        workspace.undo_last()
        assert "multi-root-hierarchy" not in rules()
        workspace.redo()
        assert "multi-root-hierarchy" in rules()
        workspace.reset()
        assert "multi-root-hierarchy" not in rules()

    def test_warning_severity_and_anchor(self):
        reference = parse_schema(MULTI_ROOT_ODL, name="mr")
        workspace = Workspace(reference)
        workspace.apply(AddSupertype("C", "B"))
        issues = [
            issue for issue in workspace.issues
            if issue.rule == "multi-root-hierarchy"
        ]
        assert len(issues) == 1
        assert issues[0].severity == "warning"
        assert issues[0].location == "A"  # anchored at the first-declared root

    def test_component_split_via_delete_supertype(self):
        reference = parse_schema(
            """
            interface A {};
            interface B {};
            interface C : A, B {};
            """,
            name="mr",
        )
        workspace = Workspace(reference)
        assert {i.rule for i in workspace.issues} == {"multi-root-hierarchy"}
        workspace.apply(DeleteSupertype("C", "B"))  # back to one root
        assert workspace.issues == validate_schema(workspace.schema)
        assert workspace.issues == []
        workspace.undo_last()
        assert {i.rule for i in workspace.issues} == {"multi-root-hierarchy"}
        assert workspace.issues == validate_schema(workspace.schema)


ORDER_BY_ODL = """
interface A { relationship set<B> bs inverse B::a order_by (rank); };
interface B { relationship A a inverse A::bs; };
"""


class TestOrderByTransitions:
    """Cross-interface reach: fixing B must clear the issue anchored at A."""

    def test_fix_unfix_across_history(self):
        reference = parse_schema(ORDER_BY_ODL, name="ob")
        workspace = Workspace(reference)

        def rules():
            assert workspace.issues == validate_schema(workspace.schema)
            return {issue.rule for issue in workspace.issues}

        assert "order-by-unknown" in rules()
        # the dirty interface is B; the stale issue lives at referencer A
        workspace.apply(AddAttribute("B", scalar("long"), "rank"))
        assert "order-by-unknown" not in rules()
        workspace.undo_last()
        assert "order-by-unknown" in rules()
        workspace.redo()
        assert "order-by-unknown" not in rules()
        workspace.reset()
        assert "order-by-unknown" in rules()

    def test_inherited_fix_reaches_referencer(self):
        schema = parse_schema(
            ORDER_BY_ODL + "interface Base {};", name="ob"
        )
        assert_matches_reference(schema)
        # give B a supertype carrying the attribute: two hops from A
        schema.get("Base").add_attribute(Attribute("rank", scalar("long")))
        schema.get("B").add_supertype("Base")
        issues = assert_matches_reference(schema)
        assert "order-by-unknown" not in {i.rule for i in issues}
        schema.get("B").remove_supertype("Base")
        issues = assert_matches_reference(schema)
        assert "order-by-unknown" in {i.rule for i in issues}


class TestCycleTransitions:
    """Cycle rules re-check only the touched weak component."""

    def test_isa_cycle_appears_and_clears(self):
        schema = parse_schema(
            "interface A {};\ninterface B : A {};", name="cy"
        )
        assert assert_matches_reference(schema) == []
        # ops refuse cycles, so go through the raw mutators
        schema.get("A").add_supertype("B")
        issues = assert_matches_reference(schema)
        assert "isa-cycle" in {i.rule for i in issues}
        schema.get("A").remove_supertype("B")
        assert assert_matches_reference(schema) == []

    def test_cycle_in_untouched_component_is_reused(self):
        schema = parse_schema(
            """
            interface A {};
            interface B : A {};
            interface X {};
            interface Y {};
            """,
            name="cy",
        )
        schema.validation.validate()
        schema.get("A").add_supertype("B")
        before = assert_matches_reference(schema)
        assert "isa-cycle" in {i.rule for i in before}
        # touching the unrelated component keeps the cached cycle issue
        schema.get("X").add_attribute(Attribute("name", scalar("string")))
        after = assert_matches_reference(schema)
        assert [i for i in after if i.rule == "isa-cycle"] == [
            i for i in before if i.rule == "isa-cycle"
        ]

    def test_part_of_cycle_via_mutators(self, small):
        small.validation.validate()
        from repro.model.relationships import RelationshipEnd, RelationshipKind
        from repro.model.types import set_of

        small.get("Department").add_relationship(
            RelationshipEnd(
                "boxes",
                set_of("Department"),
                "Department",
                "box_of",
                RelationshipKind.PART_OF,
            )
        )
        issues = assert_matches_reference(small)
        assert "part-of-cycle" in {i.rule for i in issues}
        small.get("Department").remove_relationship("boxes")
        assert_matches_reference(small)


class TestMembershipTransitions:
    """Adding / removing interfaces re-roots danglers and components."""

    def test_remove_creates_dangling_then_restore(self, small):
        small.validation.validate()
        removed = small.remove_interface("Department")
        issues = assert_matches_reference(small)
        assert "dangling-type" in {i.rule for i in issues}
        small.add_interface(removed)
        issues = assert_matches_reference(small)
        assert "dangling-type" not in {i.rule for i in issues}

    def test_add_interface_resolves_dangler(self):
        schema = parse_schema("interface A : Ghost {};", name="m")
        issues = assert_matches_reference(schema)
        assert "dangling-type" in {i.rule for i in issues}
        schema.add_interface(InterfaceDef("Ghost"))
        issues = assert_matches_reference(schema)
        assert "dangling-type" not in {i.rule for i in issues}

    def test_removed_supertype_re_roots_component(self):
        schema = parse_schema(
            """
            interface R {};
            interface A : R {};
            interface B : R {};
            interface C : A, B {};
            """,
            name="m",
        )
        issues = assert_matches_reference(schema)
        assert "multi-root-hierarchy" not in {i.rule for i in issues}
        # removing R leaves {A,B,C} dangling-rooted at both A and B
        schema.remove_interface("R")
        issues = assert_matches_reference(schema)
        assert "multi-root-hierarchy" in {i.rule for i in issues}


class TestFallbacksAndApi:
    def test_touch_forces_full_revalidation(self, small):
        small.validation.validate()
        small.validation.reset_stats()
        small.touch()
        assert_matches_reference(small)
        assert small.validation.stats()["full_validations"] == 1

    def test_order_only_record_keeps_reference_order(self):
        schema = parse_schema(MULTI_ROOT_ODL, name="mr")
        schema.get("C").add_supertype("B")
        schema.validation.validate()
        schema.reorder_interfaces(schema.type_names())
        assert_matches_reference(schema)

    def test_reorder_re_sorts_cached_findings(self):
        """Two multi-root components and a dangling-type issue: after a
        reorder that reverses declaration order, every finding must come
        out in the new order without any of them being re-checked."""
        schema = parse_schema(
            "interface A {}; interface B {}; interface C : A, B {};"
            "interface D {}; interface E {}; interface F : D, E {};"
            "interface G : Ghost {}; interface H : Ghost {};",
            name="two_roots",
        )
        before = assert_matches_reference(schema)
        assert [i.rule for i in before].count("multi-root-hierarchy") == 2
        schema.reorder_interfaces(list(reversed(schema.type_names())))
        after = assert_matches_reference(schema)
        assert after != before
        assert sorted(after, key=str) == sorted(before, key=str)

    def test_positioned_insert_re_keys_cached_findings(self):
        """An insert before the end renumbers every position: a cached
        multi-root finding must be re-keyed, or one recomputed after the
        insert would sort ahead of it."""
        schema = parse_schema(
            "interface G1 {}; interface G2 {}; interface G3 {};"
            "interface G4 {}; interface G5 {};"
            "interface A {}; interface B {}; interface C : A, B {};"
            "interface D {}; interface E {}; interface F : D, E {};",
            name="insert",
        )
        assert_matches_reference(schema)
        for name in ("G1", "G2", "G3", "G4", "G5"):
            schema.remove_interface(name)  # leaves gaps in the positions
        assert_matches_reference(schema)
        schema.add_interface(InterfaceDef("Z", supertypes=["D"]), 3)
        issues = assert_matches_reference(schema)
        assert [i.rule for i in issues].count("multi-root-hierarchy") == 2

    def test_clean_hit_when_nothing_changed(self, small):
        small.validation.validate()
        small.validation.reset_stats()
        small.validation.validate()
        small.validation.validate()
        assert small.validation.stats()["clean_hits"] == 2

    def test_raise_on_error_matches_reference(self):
        schema = parse_schema("interface A : Ghost {};", name="r")
        with pytest.raises(ValidationError) as fast:
            schema.validation.validate(raise_on_error=True)
        with pytest.raises(ValidationError) as slow:
            validate_schema(schema, raise_on_error=True)
        assert str(fast.value) == str(slow.value)

    def test_extent_only_touch_is_validation_noop(self, small):
        small.validation.validate()
        small.validation.reset_stats()
        small.get("Person").set_extent("folks")
        small.validation.validate()
        stats = small.validation.stats()
        assert stats["interfaces_revalidated"] == 0

    def test_workspace_validates_only_when_issues_are_read(self, small):
        """No workspace step validates; reading ``issues`` validates once,
        folding every edit since the previous read."""

        def counts(workspace):
            stats = workspace.schema.stats()
            return stats["validation.full"], stats["validation.incremental"]

        workspace = Workspace(small)
        assert counts(workspace) == (0, 0)
        assert workspace.issues == validate_schema(workspace.schema)
        assert counts(workspace) == (1, 0)
        snap = workspace.snapshot()
        workspace.apply(AddAttribute("Person", scalar("date"), "dob"))
        assert counts(workspace) == (1, 0)
        workspace.apply(AddSupertype("Department", "Person"))
        assert counts(workspace) == (1, 0)
        workspace.undo_last()
        assert counts(workspace) == (1, 0)
        workspace.redo()
        assert counts(workspace) == (1, 0)
        branch = workspace.fork("branch")
        replayed = workspace.fork("replayed", at=snap)
        assert counts(workspace) == (1, 0)
        assert counts(branch) == (0, 0)
        assert counts(replayed) == (0, 0)
        assert workspace.issues == validate_schema(workspace.schema)
        assert counts(workspace) == (1, 1)
        assert workspace.issues == validate_schema(workspace.schema)
        assert counts(workspace) == (1, 1)  # nothing changed: a clean hit
        assert branch.issues == validate_schema(branch.schema)
        assert counts(branch) == (1, 0)
        assert replayed.issues == validate_schema(replayed.schema)
        assert counts(replayed) == (1, 0)
        workspace.reset()
        assert counts(workspace) == (0, 0)
        assert workspace.issues == validate_schema(workspace.schema)
        assert counts(workspace) == (1, 0)


class TestEdgeCountAccessors:
    """Satellite: O(1) edge counts feeding Schema.stats()."""

    def test_counts_match_edge_lists(self):
        schema = generate_schema(
            WorkloadSpec(types=30, seed=2, part_of_chain=8, instance_of_chain=5)
        )
        count = schema.index.link_edge_count
        part_of = count(RelationshipKind.PART_OF)
        instance_of = count(RelationshipKind.INSTANCE_OF)
        assert part_of == len(schema.part_of_edges())
        assert instance_of == len(schema.instance_of_edges())
        assert part_of > 0
        assert instance_of > 0

    def test_stats_report_edge_counts(self, small):
        stats = small.stats()
        assert stats["part_of_links"] == len(small.part_of_edges())
        assert stats["instance_of_links"] == len(small.instance_of_edges())
