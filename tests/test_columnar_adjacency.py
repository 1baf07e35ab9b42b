"""Differential tests: flat-array adjacency vs the scan reference spec.

The columnar store (``schema.index``) is folded record by
record from the mutation spine; :func:`scan_adjacency` derives the four
maps it exports from the interfaces.  These tests require the store to
be sound (``check_integrity``) and to equal the scan after *every*
operation of an apply / undo / redo / fork sequence -- including
interface deletes, dangling supertypes, and free-list id reuse.
"""

from __future__ import annotations

import pytest

from repro.model.columnar import ColumnarAdjacency
from repro.model.index import scan_adjacency
from repro.model.interface import InterfaceDef
from repro.model.schema import Schema
from repro.ops.type_ops import DeleteTypeDefinition
from repro.repository.workspace import Workspace
from repro.verify.invariants import check_schema
from repro.workload.generator import (
    WorkloadSpec,
    generate_operations,
    generate_schema,
)


def _assert_agreement(schema: Schema) -> None:
    """The columnar store is sound and exports what a scan derives."""
    columnar = schema.index
    assert columnar.check_integrity() == []
    parents, children, refs, referencers = scan_adjacency(schema)
    assert columnar.isa_parents_map() == parents
    assert columnar.isa_children_map() == children
    assert columnar.refs_of_map() == refs
    assert columnar.referencers_map() == referencers


class TestFuzzedSequence:
    """Generated 40-op plan, checked after every apply / undo / redo."""

    @pytest.fixture
    def subject(self):
        spec = WorkloadSpec(types=60, seed=7, isa_fraction=0.5)
        schema = generate_schema(spec)
        operations = generate_operations(schema, 40, seed=3)
        return Workspace(schema), operations

    def test_apply_undo_redo_agree_at_every_step(self, subject):
        workspace, operations = subject
        _assert_agreement(workspace.schema)
        applied = 0
        for operation in operations:
            workspace.apply(operation)
            applied += 1
            _assert_agreement(workspace.schema)
        for _ in range(applied):
            assert workspace.undo_last() is not None
            _assert_agreement(workspace.schema)
        for _ in range(applied):
            assert workspace.redo() is not None
            _assert_agreement(workspace.schema)

    def test_fork_carries_an_agreeing_store(self, subject):
        workspace, operations = subject
        for operation in operations[:10]:
            workspace.apply(operation)
        fork = workspace.fork("branch")
        _assert_agreement(fork.schema)
        # Diverge the fork; the parent's store must not see the records.
        for operation in generate_operations(fork.schema, 5, seed=9):
            fork.apply(operation)
            _assert_agreement(fork.schema)
        _assert_agreement(workspace.schema)


class TestDeleteAndIdReuse:
    """The free-list lifecycle of DESIGN 5i, one transition at a time."""

    @pytest.fixture
    def schema(self):
        schema = Schema("s")
        schema.add_interface(InterfaceDef("A"))
        schema.add_interface(InterfaceDef("B", supertypes=["A"]))
        schema.add_interface(InterfaceDef("C", supertypes=["B"]))
        _assert_agreement(schema)
        return schema

    def test_leaf_delete_frees_its_id_for_reuse(self, schema):
        adjacency = schema.index
        adjacency.ensure_fresh()
        freed = adjacency.table.id_of("C")
        capacity = adjacency.table.capacity
        schema.remove_interface("C")
        _assert_agreement(schema)
        assert adjacency.table.id_of("C") is None
        assert adjacency.table.free_ids == 1
        # The next interned name takes the freed slot: no growth.
        schema.add_interface(InterfaceDef("D", supertypes=["B"]))
        _assert_agreement(schema)
        assert adjacency.table.id_of("D") == freed
        assert adjacency.table.capacity == capacity

    def test_dangling_supertype_keeps_the_id_alive(self, schema):
        adjacency = schema.index
        adjacency.ensure_fresh()
        a_id = adjacency.table.id_of("A")
        schema.remove_interface("A")  # B still declares supertype A
        _assert_agreement(schema)
        assert adjacency.table.id_of("A") == a_id  # pinned by B's row
        assert adjacency.parents_of("A") == ()  # undefined -> no row
        assert adjacency.parents_of("B") == ("A",)  # declaration kept
        assert adjacency.descendants_of("A") == {"B", "C"}
        # Dropping the last dangling mention finally frees the id ...
        schema.get("B").remove_supertype("A")
        _assert_agreement(schema)
        assert adjacency.table.id_of("A") is None
        # ... and a new definition reuses it.
        schema.add_interface(InterfaceDef("E"))
        _assert_agreement(schema)
        assert adjacency.table.id_of("E") == a_id

    def test_set_supertypes_rewires_both_columns(self, schema):
        schema.add_interface(InterfaceDef("R"))
        schema.get("C").set_supertypes(["A", "R"])
        _assert_agreement(schema)
        adjacency = schema.index
        assert adjacency.parents_of("C") == ("A", "R")
        assert adjacency.descendants_of("B") == set()
        schema.get("C").set_supertypes([])
        _assert_agreement(schema)
        assert adjacency.parents_of("C") == ()

    def test_reused_id_does_not_leak_old_rows(self, schema):
        adjacency = schema.index
        adjacency.ensure_fresh()
        c_id = adjacency.table.id_of("C")
        schema.remove_interface("C")
        schema.add_interface(InterfaceDef("Z", supertypes=["A"]))
        _assert_agreement(schema)
        assert adjacency.table.id_of("Z") == c_id
        assert adjacency.parents_of("Z") == ("A",)
        assert adjacency.descendants_of("B") == set()  # C's edge is gone
        assert "Z" not in adjacency.descendants_of("B")


def _assert_declaration_order(schema: Schema) -> None:
    """Every order query of the store matches the schema's own order."""
    names = schema.type_names()
    index = schema.index
    assert [index.declaration_rank(name) for name in names] == list(
        range(len(names))
    )
    assert index.in_declaration_order(reversed(names)) == names
    assert index.declaration_order() == {
        name: rank for rank, name in enumerate(names)
    }
    assert all(index.position_of(name) >= 0 for name in names)
    assert check_schema(schema, names=["columnar-vs-scan"]) == []
    _assert_agreement(schema)


class TestPositionedInsertKeys:
    """A type re-inserted at its rank (the undo of a type deletion)
    takes a free sort key between its neighbours' keys, and the store
    renumbers only when the two keys are adjacent."""

    @pytest.fixture
    def renumbers(self, monkeypatch):
        calls = []
        renumber = ColumnarAdjacency._renumber

        def counting(store, order):
            calls.append(store)
            return renumber(store, order)

        monkeypatch.setattr(ColumnarAdjacency, "_renumber", counting)
        return calls

    @pytest.fixture
    def schema(self):
        schema = Schema("s")
        for name in "ABCDEFGH":
            schema.add_interface(InterfaceDef(name))
        schema.index.ensure_fresh()  # fold what follows incrementally
        return schema

    @pytest.mark.parametrize("rank", [0, 3, 6])
    def test_immediate_reinsert_takes_the_free_key(
        self, schema, renumbers, rank
    ):
        name = schema.type_names()[rank]
        removed = schema.remove_interface(name)
        schema.add_interface(removed, rank)
        assert renumbers == []
        assert schema.type_names() == list("ABCDEFGH")
        _assert_declaration_order(schema)

    def test_adjacent_deletions_renumber_only_without_a_free_key(
        self, schema, renumbers
    ):
        first = schema.remove_interface("C")
        second = schema.remove_interface("D")
        schema.add_interface(second, 2)  # the gap C and D left is free
        assert renumbers == []
        _assert_declaration_order(schema)
        schema.add_interface(first, 2)  # between B's key and D's: none
        assert len(renumbers) == 1
        assert schema.type_names() == list("ABCDEFGH")
        _assert_declaration_order(schema)

    def test_repeated_inserts_at_rank_zero(self, schema, renumbers):
        for name in ("X", "Y", "Z"):
            schema.add_interface(InterfaceDef(name), 0)
            _assert_declaration_order(schema)
        assert schema.type_names()[:3] == ["Z", "Y", "X"]
        assert len(renumbers) >= 1  # keys run out below A's key 0

    def test_a_fork_view_owns_its_keys_before_inserting(self, schema, renumbers):
        fork = schema.fork("branch")
        fork.index.ensure_fresh()
        removed = fork.remove_interface("E")
        fork.add_interface(removed, 4)
        assert renumbers == []
        _assert_declaration_order(fork)
        assert fork.index._base is schema.index  # still an overlay
        _assert_declaration_order(schema)

    def test_workspace_undo_of_a_type_deletion_makes_no_renumber(
        self, renumbers
    ):
        workspace = Workspace(generate_schema(WorkloadSpec(types=60, seed=7)))
        schema = workspace.schema
        names = schema.type_names()
        victim = next(
            name for name in names[len(names) // 2:]
            if not schema.index.referencers_of(name) - {name}
        )
        workspace.apply(DeleteTypeDefinition(victim))
        workspace.undo_last()
        assert renumbers == []
        assert schema.type_names() == names
        _assert_declaration_order(schema)

    def test_delete_undo_redo_chains_keep_the_order(self):
        workspace = Workspace(
            generate_schema(WorkloadSpec(types=60, seed=7, isa_fraction=0.5))
        )
        schema = workspace.schema
        names = schema.type_names()
        victims = [names[0], names[1], names[30], names[29], names[-1]]
        for victim in victims:
            if victim in schema:
                workspace.apply(DeleteTypeDefinition(victim))
                _assert_declaration_order(schema)
        for _ in range(2):
            while workspace.undo_last() is not None:
                _assert_declaration_order(schema)
            assert schema.type_names() == names
            while workspace.redo() is not None:
                _assert_declaration_order(schema)
