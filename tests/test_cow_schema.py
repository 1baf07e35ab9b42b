"""Copy-on-write fork aliasing torture tests (DESIGN.md 5j).

``Schema.fork`` shares every ``InterfaceDef`` (and the columnar
adjacency) with its parent; divergence is paid per touched interface.
These tests hammer the aliasing boundary from every direction: parent
writes after fork, fork writes after parent, interleaved undo/redo on
both workspaces, fork-of-fork chains, ``fork(at=snapshot)`` on a CoW
child, delete/re-add name reuse, and the satellite regression that an
undone type deletion restores an object whose recorded history stays
independent of later mutations.  The repository's workspace and custom
schema are CoW branches of the shrink wrap, which must never move.
"""

from __future__ import annotations

import gc
import warnings

import pytest

from repro.catalog import SCHEMA_BUILDERS, load
from repro.examples.generator import significant_examples
from repro.instances.check import check_population
from repro.model.attributes import Attribute
from repro.model.fingerprint import schema_fingerprint, schemas_equal
from repro.model.errors import UnknownTypeError
from repro.model.index import scan_parts, scan_subtypes
from repro.model.interface import InterfaceDef
from repro.model.relationships import RelationshipEnd, RelationshipKind
from repro.model.schema import Schema
from repro.model.types import NamedType, ScalarType, set_of
from repro.model.validation import validate_schema
from repro.ops.attribute_ops import AddAttribute
from repro.ops.language import parse_operation
from repro.ops.type_ops import DeleteTypeDefinition
from repro.repository.repository import SchemaRepository
from repro.repository.workspace import Workspace
from repro.workload.generator import (
    WorkloadSpec,
    generate_operations,
    generate_schema,
)


def build_schema(name: str = "cow") -> Schema:
    schema = Schema(name)
    schema.add_interface(InterfaceDef("Person"))
    schema.add_interface(InterfaceDef("Student", supertypes=["Person"]))
    schema.add_interface(InterfaceDef("Course"))
    schema.get("Person").add_attribute(Attribute("name", ScalarType("string")))
    schema.get("Course").add_attribute(Attribute("title", ScalarType("string")))
    schema.get("Student").add_relationship(
        RelationshipEnd(
            "takes", set_of("Course"), "Course", "taken_by",
            RelationshipKind.ASSOCIATION,
        )
    )
    schema.get("Course").add_relationship(
        RelationshipEnd(
            "taken_by", set_of("Student"), "Student", "takes",
            RelationshipKind.ASSOCIATION,
        )
    )
    return schema


class TestForkSharing:
    def test_fork_shares_every_interface_object(self):
        parent = build_schema()
        fork = parent.fork("branch")
        for name in parent.type_names():
            assert fork.interfaces[name] is parent.interfaces[name]
        assert schemas_equal(parent, fork)
        assert fork.type_names() == parent.type_names()

    def test_fork_get_materialises_a_private_copy(self):
        parent = build_schema()
        fork = parent.fork("branch")
        fetched = fork.get("Person")
        assert fetched is not parent.interfaces["Person"]
        assert fork.interfaces["Person"] is fetched
        # the parent still owns its original, untouched
        assert parent.interfaces["Person"] is parent.get("Person")

    def test_fork_adjacency_answers_without_a_rebuild(self):
        parent = build_schema()
        parent.descendants("Person")  # warm the parent's columns
        fork = parent.fork("branch")
        assert fork.descendants("Person") == {"Student"}
        assert fork.index.referencers_of("Course") == {"Student"}
        assert fork.parts("Person") == scan_parts(fork, "Person")
        assert fork.index.rebuilds == 0

    def test_parent_mutation_trips_the_fork_overlay_pin(self):
        parent = build_schema()
        fork = parent.fork("branch")
        assert fork.subtypes("Person") == ["Student"]
        parent.add_interface(InterfaceDef("Staff", supertypes=["Person"]))
        # memoized answers stay valid (the fork's content did not move) ...
        assert fork.subtypes("Person") == ["Student"]
        # ... and a columnar query hits the overlay's base-version pin,
        # which privatises the columns with one full rebuild
        assert fork.descendants("Person") == {"Student"}
        assert fork.index.rebuilds == 1
        assert parent.subtypes("Person") == ["Student", "Staff"]


class TestParentWritesAfterFork:
    def test_attribute_write_is_invisible_to_the_fork(self):
        parent = build_schema()
        fork = parent.fork("branch")
        before = schema_fingerprint(fork)
        parent.get("Person").add_attribute(Attribute("age", ScalarType("long")))
        assert schema_fingerprint(fork) == before
        assert "age" not in fork.get("Person").attributes

    def test_delete_and_name_reuse_are_invisible_to_the_fork(self):
        parent = build_schema()
        fork = parent.fork("branch")
        parent.remove_interface("Course")
        replacement = InterfaceDef("Course")
        replacement.add_attribute(Attribute("code", ScalarType("long")))
        parent.add_interface(replacement)
        course = fork.get("Course")
        assert "title" in course.attributes
        assert "code" not in course.attributes
        assert "code" in parent.get("Course").attributes

    def test_sibling_forks_stay_mutually_isolated(self):
        parent = build_schema()
        left = parent.fork("left")
        right = parent.fork("right")
        parent.get("Person").add_attribute(Attribute("p", ScalarType("long")))
        left.get("Person").add_attribute(Attribute("l", ScalarType("long")))
        attrs = lambda s: set(s.get("Person").attributes)  # noqa: E731
        assert attrs(parent) == {"name", "p"}
        assert attrs(left) == {"name", "l"}
        assert attrs(right) == {"name"}

    def test_random_parent_workload_never_leaks_into_the_fork(self):
        parent = generate_schema(WorkloadSpec(types=20, seed=11))
        fork = parent.fork("branch")
        before = schema_fingerprint(fork)
        workspace = Workspace(parent)
        # the workspace copies; mutate the original schema directly too
        for operation in generate_operations(parent, count=12, seed=11):
            operation.apply(parent)
        assert schema_fingerprint(fork) == before
        for name in fork.type_names():
            assert fork.subtypes(name) == scan_subtypes(fork, name)
        del workspace


class TestForkWritesAfterParent:
    def test_fork_mutators_are_invisible_to_the_parent(self):
        parent = build_schema()
        fork = parent.fork("branch")
        before = schema_fingerprint(parent)
        fork.get("Person").add_attribute(Attribute("x", ScalarType("long")))
        fork.get("Student").remove_supertype("Person")
        assert schema_fingerprint(parent) == before
        assert parent.subtypes("Person") == ["Student"]
        assert fork.subtypes("Person") == []

    def test_fork_delete_and_name_reuse_are_invisible_to_the_parent(self):
        parent = build_schema()
        fork = parent.fork("branch")
        fork.remove_interface("Course")
        fork.add_interface(InterfaceDef("Course"))
        assert "title" in parent.get("Course").attributes
        assert "title" not in fork.get("Course").attributes

    def test_fork_replays_through_the_origin_prefix(self):
        parent = build_schema()
        fork = parent.fork("branch")
        fork.get("Person").add_attribute(Attribute("x", ScalarType("long")))
        assert fork.log.replayable
        rebuilt = fork.log.replay(fork.name)
        assert schemas_equal(rebuilt, fork)


class TestForkOfForkChains:
    def test_three_generation_chain_is_pairwise_isolated(self):
        grand = build_schema("grand")
        parent = grand.fork("parent")
        child = parent.fork("child")
        grand.get("Person").add_attribute(Attribute("g", ScalarType("long")))
        parent.get("Person").add_attribute(Attribute("p", ScalarType("long")))
        child.get("Person").add_attribute(Attribute("c", ScalarType("long")))
        attrs = lambda s: set(s.get("Person").attributes)  # noqa: E731
        assert attrs(grand) == {"name", "g"}
        assert attrs(parent) == {"name", "p"}
        assert attrs(child) == {"name", "c"}

    def test_grandchild_replays_through_both_origin_prefixes(self):
        grand = build_schema("grand")
        parent = grand.fork("parent")
        parent.get("Course").set_extent("courses")
        child = parent.fork("child")
        child.get("Person").add_attribute(Attribute("c", ScalarType("long")))
        rebuilt = child.log.replay(child.name)
        assert schemas_equal(rebuilt, child)

    def test_middle_deletion_leaves_both_neighbours_whole(self):
        grand = build_schema("grand")
        parent = grand.fork("parent")
        child = parent.fork("child")
        parent.remove_interface("Course")
        assert "Course" in grand
        assert "Course" in child
        assert "title" in child.get("Course").attributes


class TestInterleavedWorkspaceHistory:
    def _op(self, typename: str, attr: str) -> AddAttribute:
        return AddAttribute(typename, ScalarType("long"), attr)

    def test_undo_redo_interleaved_across_the_cow_boundary(self):
        workspace = Workspace(build_schema())
        workspace.apply(self._op("Person", "a"))
        branch = workspace.fork("branch")
        branch.apply(self._op("Person", "b"))
        workspace.apply(self._op("Course", "c"))
        parent_full = schema_fingerprint(workspace.schema)
        branch_full = schema_fingerprint(branch.schema)

        workspace.undo_last()  # drop "c"; branch must not move
        assert schema_fingerprint(branch.schema) == branch_full
        branch.undo_last()  # drop "b"; parent must not move
        assert "c" not in workspace.schema.get("Course").attributes
        assert "b" not in branch.schema.get("Person").attributes
        workspace.redo()
        branch.redo()
        assert schema_fingerprint(workspace.schema) == parent_full
        assert schema_fingerprint(branch.schema) == branch_full

    def test_branch_undo_of_shared_type_edit_stays_private(self):
        workspace = Workspace(build_schema())
        branch = workspace.fork("branch")
        parent_before = schema_fingerprint(workspace.schema)
        branch.apply(self._op("Person", "b"))
        branch.undo_last()
        branch.redo()
        branch.undo_last()
        assert schema_fingerprint(workspace.schema) == parent_before
        assert schemas_equal(branch.schema, workspace.schema)

    def test_fork_at_snapshot_on_a_cow_child_rewinds_with_warning(self):
        workspace = Workspace(build_schema())
        workspace.apply(self._op("Person", "a"))
        branch = workspace.fork("branch")
        bookmark = branch.snapshot()
        bookmarked = schema_fingerprint(branch.schema)
        branch.apply(self._op("Course", "c"))
        diverged = schema_fingerprint(branch.schema)
        with pytest.warns(RuntimeWarning, match="itself a fork"):
            rewound = branch.fork("rewound", at=bookmark)
        assert schema_fingerprint(rewound.schema) == bookmarked
        # the donor branch is rolled forward again afterwards
        assert schema_fingerprint(branch.schema) == diverged
        # and the new branch is itself isolated
        rewound.apply(self._op("Person", "r"))
        assert "r" not in branch.schema.get("Person").attributes


class TestDeleteUndoIndependence:
    """Satellite: delete-undo restores an object with frozen history."""

    def test_undone_deletion_restores_a_mutable_independent_object(self):
        schema = build_schema()
        schema.add_interface(InterfaceDef("Lonely"))
        workspace = Workspace(schema)
        workspace.apply(DeleteTypeDefinition("Lonely"))
        assert "Lonely" not in workspace.schema
        workspace.undo_last()
        restored = workspace.schema.get("Lonely")
        restored.add_attribute(Attribute("late", ScalarType("long")))
        # the add-record payload froze the as-added state, so replay
        # still reproduces the live schema exactly
        rebuilt = workspace.schema.log.replay(workspace.schema.name)
        assert schemas_equal(rebuilt, workspace.schema)

    def test_restored_object_is_independent_of_prior_forks(self):
        parent = build_schema()
        parent.add_interface(InterfaceDef("Lonely"))
        fork = parent.fork("branch")
        removed = parent.remove_interface("Lonely")
        parent.add_interface(removed)  # undo of the deletion
        parent.get("Lonely").add_attribute(Attribute("p", ScalarType("long")))
        assert "p" not in fork.get("Lonely").attributes


class TestBorrowLifecycle:
    def test_release_cow_withdraws_the_registrations(self):
        parent = build_schema()
        scratch = parent.fork("scratch")
        assert parent.log._cow_borrows
        scratch.release_cow()
        assert not parent.log._cow_borrows
        # idempotent
        scratch.release_cow()

    def test_dead_forks_are_pruned_by_the_barrier_after_gc(self):
        parent = build_schema()
        fork = parent.fork("branch")
        assert len(parent.log._cow_borrows) == 1
        del fork
        gc.collect()
        parent.get("Person").add_attribute(Attribute("a", ScalarType("long")))
        assert parent.log._cow_borrows == []

    def test_eager_copy_stays_fully_independent(self):
        parent = build_schema()
        duplicate = parent.copy("dup")
        duplicate.get("Person").add_attribute(Attribute("d", ScalarType("long")))
        parent.get("Person").add_attribute(Attribute("p", ScalarType("long")))
        assert "d" not in parent.get("Person").attributes
        assert "p" not in duplicate.get("Person").attributes


class TestReadOnlyLayersKeepSharing:
    """Validation, example generation, population checks and the
    hierarchy queries read a fork without materialising anything."""

    @pytest.mark.parametrize("source", [
        *sorted(SCHEMA_BUILDERS),
        "generated-isa-chain",
        "generated-hub",
    ])
    def test_every_fork_interface_stays_the_parents_object(self, source):
        if source == "generated-isa-chain":
            parent = generate_schema(
                WorkloadSpec(types=60, isa_chain=20, seed=5)
            )
        elif source == "generated-hub":
            parent = generate_schema(
                WorkloadSpec(types=60, hub_fanout=30, seed=5)
            )
        else:
            parent = load(source)
        fork = parent.fork("reader")
        fork.validation.validate()  # a fresh fork's first run: full rebuild
        assert fork.validation.stats()["full_validations"] == 1
        pairs = significant_examples(fork)
        assert pairs
        for pair in pairs:
            check_population(fork, pair.witness)
            check_population(fork, pair.near_miss)
        for name in fork.type_names():
            fork.ancestors(name)
            fork.descendants(name)
            fork.inherited_attributes(name)
        assert all(
            fork.interfaces[name] is parent.interfaces[name]
            for name in parent.type_names()
        )

    def test_hierarchy_queries_still_reject_unknown_types(self):
        fork = build_schema().fork("reader")
        with pytest.raises(UnknownTypeError):
            fork.ancestors("Ghost")
        with pytest.raises(UnknownTypeError):
            fork.descendants("Ghost")
        assert fork.inherited_attributes("Ghost") == {}


class TestRepositorySharesTheShrinkWrap:
    """The workspace and the custom schema are CoW branches: an opened
    repository stores each interface once, and nothing the workspace
    does ever writes the shrink wrap."""

    @staticmethod
    def _unshared(schema: Schema, shrink_wrap: Schema) -> set[str]:
        return {
            name
            for name, interface in schema.interfaces.items()
            if shrink_wrap.interfaces.get(name) is not interface
        }

    def test_a_fresh_workspace_shares_every_interface(self):
        repository = SchemaRepository(load("university"))
        workspace = repository.workspace.schema
        assert workspace.type_names() == repository.shrink_wrap.type_names()
        assert self._unshared(workspace, repository.shrink_wrap) == set()

    def test_one_op_unshares_only_the_names_it_touched(self):
        repository = SchemaRepository(load("university"))
        repository.apply(parse_operation("delete_type_definition(Syllabus)"))
        workspace = repository.workspace.schema
        touched = {
            record.interface
            for record in workspace.log.records
            if record.interface in workspace
        }
        assert touched == {"Course_Offering"}
        assert self._unshared(workspace, repository.shrink_wrap) == touched

    def test_the_shrink_wrap_never_moves(self):
        repository = SchemaRepository(load("university"))
        shrink_wrap = repository.shrink_wrap
        workspace = repository.workspace
        pinned = (schema_fingerprint(shrink_wrap), shrink_wrap.log.seq)

        def still() -> bool:
            return (
                schema_fingerprint(shrink_wrap), shrink_wrap.log.seq
            ) == pinned

        repository.apply(parse_operation("add_attribute(Person, date, dob)"))
        snapshot = workspace.snapshot()
        repository.apply(parse_operation("delete_type_definition(Syllabus)"))
        assert still()
        repository.undo()
        assert still()
        workspace.redo()
        assert still()
        branch = workspace.fork("branch", at=snapshot)
        branch.apply(parse_operation("delete_attribute(Person, name)"))
        assert still()
        repository.generate_custom_schema()
        assert still()
        workspace.reset()
        assert still()
        assert self._unshared(workspace.schema, shrink_wrap) == set()

    def test_fork_at_replays_on_a_plain_workspace(self):
        workspace = Workspace(load("university"))
        for _ in range(2):  # a fresh workspace, then after reset
            workspace.apply(parse_operation("add_attribute(Person, date, dob)"))
            snapshot = workspace.snapshot()
            workspace.apply(parse_operation("delete_type_definition(Syllabus)"))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                branch = workspace.fork("branch", at=snapshot)
            assert branch.undo_depth == 1
            assert "dob" in branch.schema.interfaces["Person"].attributes
            assert "Syllabus" in branch.schema
            branch.undo_last()
            assert schema_fingerprint(branch.schema) == schema_fingerprint(
                workspace.reference
            )
            workspace.reset()

    def test_the_custom_schema_stays_frozen(self):
        repository = SchemaRepository(load("university"))
        repository.apply(parse_operation("add_attribute(Person, date, dob)"))
        custom = repository.generate_custom_schema()
        workspace = repository.workspace.schema
        assert all(
            custom.interfaces[name] is workspace.interfaces[name]
            for name in workspace.type_names()
        )
        frozen = schema_fingerprint(custom)
        # an owned interface, then a shared one plus a deletion
        repository.apply(parse_operation("delete_attribute(Person, dob)"))
        repository.apply(parse_operation("delete_type_definition(Syllabus)"))
        repository.undo()
        repository.workspace.redo()
        assert schema_fingerprint(custom) == frozen
        assert "dob" in custom.interfaces["Person"].attributes
        assert "Syllabus" in custom

    def test_a_workspace_over_a_touched_shrink_wrap_verifies_clean(self):
        from repro.verify.invariants import check_workspace

        shrink_wrap = load("university")
        shrink_wrap.touch()  # lossy: the workspace's lineage cannot replay
        workspace = Workspace(shrink_wrap)
        workspace.apply(parse_operation("add_attribute(Person, date, dob)"))
        assert not workspace.schema.log.replayable
        assert check_workspace(workspace) == []

    def test_reference_closure_on_a_branch(self):
        branch = Workspace(load("university")).fork("branch")

        def agrees() -> bool:
            return branch.issues == validate_schema(branch.schema)

        branch.apply(parse_operation("delete_type_definition(Syllabus)"))
        assert agrees()
        branch.undo_last()
        assert agrees()
        branch.apply(parse_operation(
            "modify_relationship_target_type(Department, graduate_students, "
            "Doctoral)"
        ))
        assert agrees()
        # Book names an undefined type; defining it must revalidate
        # Book, which only the reference closure reaches.
        schema = branch.schema
        schema.edit("Book").add_attribute(Attribute("ghost", NamedType("Ghost")))
        dangling = schema.validation.validate()
        assert dangling == validate_schema(schema)
        assert any(issue.rule == "dangling-type" for issue in dangling)
        schema.add_interface(InterfaceDef("Ghost"))
        assert schema.validation.validate() == validate_schema(schema)
