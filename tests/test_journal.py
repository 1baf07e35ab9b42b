"""What a workspace journals: only what its edits changed.

The mutator records on a schema's spine are the one source of dirt for
the validation cache, the graph store and the record-level
``schema_diff``; no record restates an operation's declared scope, and
undoing a type deletion re-inserts the type at its rank with one record
whose size does not depend on the schema's.  These tests hold that
journal to its references through whole workspace histories: the
incremental issues to ``validate_schema`` after every step, the
record-level diff to the structural ``diff_schemas``, and the log to
its own replay.
"""

import pytest

from repro.analysis.diff import diff_schemas, schema_diff
from repro.model.fingerprint import schema_fingerprint
from repro.model.interface import InterfaceDef
from repro.model.mutation import replayable_kind
from repro.model.schema import Schema
from repro.model.types import scalar
from repro.model.validation import validate_schema
from repro.ops.attribute_ops import AddAttribute
from repro.ops.base import OperationError
from repro.ops.type_ops import DeleteTypeDefinition
from repro.repository.workspace import Workspace
from repro.workload.generator import (
    WorkloadSpec,
    generate_operations,
    generate_schema,
)

STREAM = 150


def _generated(types: int, seed: int):
    return generate_schema(WorkloadSpec(
        types=types, seed=seed, isa_fraction=0.45,
        part_of_chain=min(100, types // 4),
        instance_of_chain=min(50, types // 8),
    ))


def _changed_keys(diff):
    return {
        (entry.category, entry.path, entry.status.value)
        for entry in diff.changed()
    }


def _is_mutator_kind(kind: str) -> bool:
    """A replayable kind named after a ``Schema`` / ``InterfaceDef``
    mutator: the record says what that mutator changed, nothing more."""
    return replayable_kind(kind) and any(
        callable(getattr(owner, kind, None)) for owner in (Schema, InterfaceDef)
    )


def _assert_journal_sound(workspace: Workspace, where: str) -> None:
    """Issues, record kinds and the record-level diff vs their specs."""
    schema = workspace.schema
    assert workspace.issues == validate_schema(schema), where
    kinds = {record.kind for record in schema.log.records}
    assert all(_is_mutator_kind(kind) for kind in kinds), (where, kinds)
    assert _changed_keys(schema_diff(workspace.reference, schema)) == (
        _changed_keys(diff_schemas(workspace.reference, schema))
    ), where
    rebuilt = schema.log.replay()
    assert schema_fingerprint(rebuilt) == schema_fingerprint(schema), where
    assert rebuilt.type_names() == schema.type_names(), where


def _unreferenced_middle_type(schema) -> str:
    """A type past the middle of the order that nothing references, so
    deleting it cascades nothing and its undo re-inserts before the end."""
    names = schema.type_names()
    for name in names[len(names) // 2:-1]:
        if not schema.index.referencers_of(name) - {name}:
            return name
    raise AssertionError("no unreferenced type past the middle")


@pytest.mark.parametrize("cadence", ["every-step", "after-each-sweep"])
@pytest.mark.parametrize("seed", [3, 8])
def test_history_keeps_issues_diff_and_replay_exact(seed, cadence):
    """Issues read after every step, or only after applying all, undoing
    all and redoing all -- then one read folds a whole sweep of 150
    steps, type deletions and their positioned re-inserts included."""
    reference = _generated(200, seed)
    operations = generate_operations(reference, STREAM, seed=seed)
    assert any(isinstance(op, DeleteTypeDefinition) for op in operations)
    workspace = Workspace(reference)
    every_step = cadence == "every-step"

    def check_issues(where: str) -> None:
        assert workspace.issues == validate_schema(workspace.schema), where

    check_issues("fresh workspace")
    snapshot = None
    for index, operation in enumerate(operations):
        workspace.apply(operation)
        if every_step:
            check_issues(f"apply #{index}: {operation.to_text()}")
        if index == STREAM // 2:
            snapshot = workspace.snapshot()
    check_issues("after applying all")
    while workspace.undo_last() is not None:
        if every_step:
            check_issues(f"undo at depth {workspace.undo_depth}")
    check_issues("after undoing all")
    assert schema_fingerprint(workspace.schema) == schema_fingerprint(
        reference
    )
    while workspace.redo() is not None:
        if every_step:
            check_issues(f"redo at depth {workspace.undo_depth}")
    _assert_journal_sound(workspace, "after apply, undo all, redo all")
    # One full build at the first read; every later read folded its edits.
    assert workspace.schema.stats()["validation.full"] == 1

    # A plan whose last op fails dynamically rolls back a cascading
    # type deletion (and its positioned re-insert) plus an add.
    victim = workspace.schema.type_names()[1]
    owner = next(
        name for name in workspace.schema.type_names()
        if name != victim and workspace.schema.interfaces[name].attributes
    )
    taken = next(iter(workspace.schema.interfaces[owner].attributes))
    before = schema_fingerprint(workspace.schema)
    issues = list(workspace.issues)
    depth = workspace.undo_depth
    seq = workspace.schema.log.seq
    with pytest.raises(OperationError):
        workspace.apply_plan([
            DeleteTypeDefinition(victim),
            AddAttribute(owner, scalar("long"), taken),
        ])
    rollback = workspace.schema.log.records_since(seq)
    assert {"remove_interface", "add_interface"} <= {
        record.kind for record in rollback
    }
    assert schema_fingerprint(workspace.schema) == before
    assert workspace.undo_depth == depth
    assert workspace.issues == issues
    _assert_journal_sound(workspace, "after a rolled-back plan")

    branch = workspace.fork(at=snapshot)
    assert branch.undo_depth == snapshot.depth
    _assert_journal_sound(branch, "fork(at=) replay")


def _delete_and_undo(types: int) -> tuple[list[str], int]:
    """Record kinds and the total tuple / list payload length emitted by
    applying and undoing one type deletion at *types* types."""
    reference = _generated(types, 5)
    workspace = Workspace(reference)
    victim = _unreferenced_middle_type(workspace.schema)
    rank = workspace.schema.type_names().index(victim)
    watermark = workspace.schema.log.seq
    workspace.apply(DeleteTypeDefinition(victim))
    workspace.undo_last()
    records = workspace.schema.log.records_since(watermark)
    assert records[-1].kind == "add_interface"
    assert records[-1].payload["position"] == rank
    assert workspace.schema.type_names() == reference.type_names()
    assert workspace.issues == validate_schema(workspace.schema)
    payload = sum(
        len(value)
        for record in records
        for value in record.payload.values()
        if isinstance(value, (tuple, list))
    )
    return [record.kind for record in records], payload


def test_undone_type_deletion_journals_o1():
    """The records an undone type deletion emits, and the tuple and list
    payload they hold, do not grow with the schema."""
    small = _delete_and_undo(200)
    large = _delete_and_undo(2_000)
    assert small == large == (["remove_interface", "add_interface"], 0)
