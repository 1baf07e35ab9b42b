"""Shrunk fuzzer reproducers, checked in as permanent regressions.

Each test here started life as a differential-fuzzer failure
(``python -m repro.verify``), was delta-debugged to a minimal trace by
:mod:`repro.verify.shrinker`, and is kept in the emitted-reproducer
idiom: drive a workspace through the offending steps, assert the
invariant registry stays clean, then drain the undo log and assert the
reference schema comes back exactly.
"""

import pytest

from repro.catalog import load
from repro.model.errors import SchemaError, UnknownTypeError
from repro.model.fingerprint import (
    memoized_schema_fingerprint,
    schema_fingerprint,
    schemas_equal,
)
from repro.model.interface import InterfaceDef
from repro.model.schema import Schema
from repro.ops.base import OperationError
from repro.ops.composite import ExtractSupertype, IntroduceAbstractSupertype
from repro.ops.language import parse_operation
from repro.repository.workspace import Workspace
from repro.verify.invariants import check_workspace
from repro.workload.generator import WorkloadSpec, generate_schema


def _apply(workspace, text, propagate=True):
    """Apply one operation; rejection is a legal no-op in a trace."""
    try:
        workspace.apply(parse_operation(text), propagate=propagate)
    except (OperationError, SchemaError):
        pass


def _drain_and_check(workspace):
    assert not check_workspace(workspace), check_workspace(workspace)
    while workspace.undo_depth:
        workspace.undo_last()
    assert schemas_equal(workspace.schema, workspace.reference), (
        "undoing every step must restore the reference schema"
    )


class TestPartOfCycleAdmission:
    """Fuzzer finding #1: mutually-inverse part-of links closed a cycle.

    ``add_part_of_relationship`` validated each link locally, so A
    part-of B followed by B part-of A was admitted and only noticed by
    ``schema.validate()`` afterwards -- an operation sequence escaping
    the closed language.  Ops now refuse any aggregation / instance-of
    link that would close a cycle (or a self-loop).
    """

    def test_two_step_cycle_rejected(self):
        workspace = Workspace(load("university"))
        # violated (pre-fix): part-of-acyclic
        _apply(workspace, "add_type_definition(A)")
        _apply(workspace, "add_type_definition(B)")
        _apply(
            workspace,
            "add_part_of_relationship(A, set<B>, parts, B::whole)",
        )
        _apply(
            workspace,
            "add_part_of_relationship(B, set<A>, parts, A::whole)",
        )
        _drain_and_check(workspace)

    def test_self_loop_rejected(self):
        workspace = Workspace(load("university"))
        _apply(workspace, "add_type_definition(A)")
        _apply(
            workspace,
            "add_part_of_relationship(A, set<A>, parts, A::whole)",
        )
        _drain_and_check(workspace)

    def test_instance_of_cycle_rejected(self):
        workspace = Workspace(load("university"))
        _apply(workspace, "add_type_definition(A)")
        _apply(workspace, "add_type_definition(B)")
        _apply(
            workspace,
            "add_instance_of_relationship(A, set<B>, versions, B::generic)",
        )
        _apply(
            workspace,
            "add_instance_of_relationship(B, set<A>, versions, A::generic)",
        )
        _drain_and_check(workspace)

    def test_legal_chain_still_admitted(self):
        workspace = Workspace(load("university"))
        for text in (
            "add_type_definition(A)",
            "add_type_definition(B)",
            "add_type_definition(C)",
            "add_part_of_relationship(A, set<B>, parts, B::whole)",
            "add_part_of_relationship(B, set<C>, parts, C::whole)",
        ):
            workspace.apply(parse_operation(text))
        assert workspace.schema.parts("A") == ["B"]
        _drain_and_check(workspace)


class TestExtentGenerationBump:
    """Fuzzer finding #2: extent edits bypassed index invalidation.

    The extent operations assigned ``interface.extent`` directly, so
    the schema's generation counter never moved and every
    generation-stamped cache (including the verification engine's
    memoized fingerprint) kept serving stale answers.
    """

    def test_extent_ops_invalidate_caches(self):
        workspace = Workspace(load("company"))
        memoized_schema_fingerprint(workspace.schema)  # prime the cache
        workspace.apply(parse_operation("delete_extent_name(Person, people)"))
        assert memoized_schema_fingerprint(workspace.schema) == (
            schema_fingerprint(workspace.schema)
        )
        _drain_and_check(workspace)

    def test_undo_of_extent_op_invalidates_too(self):
        workspace = Workspace(load("company"))
        workspace.apply(
            parse_operation("modify_extent_name(Person, people, persons)")
        )
        memoized_schema_fingerprint(workspace.schema)
        workspace.undo_last()
        assert memoized_schema_fingerprint(workspace.schema) == (
            schema_fingerprint(workspace.schema)
        )


class TestBareSupertypeDeleteStrandsKey:
    """Fuzzer finding #3 (shrunk from aatdb seed 22, 32 -> 3 steps).

    ``delete_supertype`` applied bare removed the ISA link even when a
    key or order-by resolved only through it, leaving ``keys-resolve``
    violated.  The op now refuses unless the dependents are gone --
    propagation still cascades them automatically.
    """

    def test_shrunk_reproducer(self):
        workspace = Workspace(load("aatdb"))
        # violated (pre-fix): keys-resolve, feedback-error-free
        try:
            workspace.apply_composite(
                IntroduceAbstractSupertype(
                    supertype_name="GenSuper0006",
                    subtype_names=("Lab", "Map"),
                    lift_common=False,
                )
            )
            workspace.apply_composite(
                ExtractSupertype(
                    source="Map",
                    supertype="GenSuper0006",
                    attribute_names=("name",),
                    operation_names=(),
                )
            )
        except (OperationError, SchemaError):
            pass
        _apply(workspace, "delete_supertype(Map, GenSuper0006)", propagate=False)
        _drain_and_check(workspace)

    def test_propagated_delete_still_works(self):
        workspace = Workspace(load("aatdb"))
        workspace.apply_composite(
            IntroduceAbstractSupertype(
                supertype_name="GenSuper0006",
                subtype_names=("Lab", "Map"),
                lift_common=False,
            )
        )
        workspace.apply_composite(
            ExtractSupertype(
                source="Map",
                supertype="GenSuper0006",
                attribute_names=("name",),
                operation_names=(),
            )
        )
        workspace.apply(parse_operation("delete_supertype(Map, GenSuper0006)"))
        assert not check_workspace(workspace)


class TestUndoneSupertypeDeleteKeepsParentOrder:
    """``make fuzz`` seed 20 (``synthetic_14_20``): undoing a bare
    supertype delete re-inserts the supertype at its old slot, and the
    columnar parents row appended it instead, so ``columnar-vs-scan``
    saw Type010's parents out of declaration order."""

    def test_shrunk_reproducer(self):
        workspace = Workspace(generate_schema(WorkloadSpec(
            types=14, attributes_per_type=4, operations_per_type=1,
            association_density=0.8, isa_fraction=0.3, part_of_chain=4,
            instance_of_chain=3, isa_chain=0, hub_fanout=0, seed=20,
        )))
        for name, subtypes, lift in (
            ("GenSuper0096", ("Type010", "Type006"), False),
            ("GenSuper0099", ("Type010", "Type011"), True),
        ):
            workspace.apply_composite(
                IntroduceAbstractSupertype(name, subtypes, lift)
            )
        _apply(workspace, "delete_supertype(Type010, GenSuper0096)",
               propagate=False)
        workspace.undo_last()
        schema = workspace.schema
        assert schema.index.parents_of("Type010") == tuple(
            schema.interfaces["Type010"].supertypes
        )
        _drain_and_check(workspace)

    def test_positioned_add_supertype_on_a_bare_schema(self):
        schema = Schema("s")
        for name in ("A", "B", "C"):
            schema.add_interface(InterfaceDef(name))
        schema.add_interface(InterfaceDef("D", supertypes=["A", "B"]))
        schema.index.parents_of("D")  # fold the next record incrementally
        schema.get("D").add_supertype("C", position=0)
        assert schema.index.parents_of("D") == ("C", "A", "B")
        assert schema.index.check_integrity() == []


class TestWorkspaceAtomicityOnSchemaError:
    """Fuzzer finding #4: model-layer errors skipped the rollback.

    The workspace rolled a failing plan back only for ``OperationError``;
    an op raising a model-layer ``SchemaError`` (e.g. ``UnknownTypeError``
    for a target created by a step that was later removed from a trace)
    escaped the except clause.  All apply/redo/composite paths now treat
    both branches as a rejection with full rollback.
    """

    def test_unknown_type_leaves_workspace_untouched(self):
        workspace = Workspace(load("university"))
        before = schema_fingerprint(workspace.schema)
        with pytest.raises(UnknownTypeError):
            workspace.apply(
                parse_operation("add_extent_name(NoSuchType, things)"),
                propagate=False,
            )
        assert schema_fingerprint(workspace.schema) == before
        assert workspace.undo_depth == 0
        assert not check_workspace(workspace)


class TestForkRewindFallback:
    """PR 6 differential: ``fork(at=)`` rewind fallback vs rewound state.

    The ``fork-rewind-differential`` invariant fabricates a mid-history
    snapshot and checks the lossy-log fallback (`_fork_by_rewind`)
    against a structural copy of the rewound workspace.  These traces
    pin the scenarios the differential exercises: a lossy log, a
    pending redo stack across the fallback, and an out-of-band edit
    landing after the snapshot (which the branch must still reflect --
    out-of-band edits are not position-tracked).
    """

    def _snapshot_after(self, workspace, texts, snapshot_index):
        snapshot = None
        for index, text in enumerate(texts):
            workspace.apply(parse_operation(text))
            if index == snapshot_index:
                snapshot = workspace.snapshot()
        assert snapshot is not None
        return snapshot

    def _rewound_fingerprint(self, workspace, snapshot):
        before = schema_fingerprint(workspace.schema)
        unwound = workspace.undo_to(snapshot)
        expected = schema_fingerprint(workspace.schema)
        for _ in range(unwound):
            workspace.redo()
        assert schema_fingerprint(workspace.schema) == before
        return expected

    def test_lossy_log_fork_matches_rewound_state(self):
        workspace = Workspace(load("university"))
        snapshot = self._snapshot_after(workspace, [
            "add_type_definition(A)",
            "add_attribute(A, long, x)",
            "add_type_definition(B)",
            "add_relationship(A, set<B>, friends, B::friend_of)",
            "delete_type_definition(B)",
        ], snapshot_index=1)
        expected = self._rewound_fingerprint(workspace, snapshot)
        before = schema_fingerprint(workspace.schema)
        workspace.schema.touch()  # out-of-band marker: the log is lossy
        with pytest.warns(RuntimeWarning, match="rewind-and-clone"):
            branch = workspace.fork(at=snapshot)
        assert schema_fingerprint(branch.schema) == expected
        assert branch.undo_depth == 0
        assert schema_fingerprint(workspace.schema) == before
        assert not check_workspace(workspace)

    def test_fallback_preserves_pending_redo_entries(self):
        workspace = Workspace(load("university"))
        snapshot = self._snapshot_after(workspace, [
            "add_type_definition(A)",
            "add_attribute(A, long, x)",
            "add_type_definition(B)",
            "add_attribute(B, long, y)",
        ], snapshot_index=1)
        workspace.undo_last()  # leave add_attribute(B, long, y) redoable
        expected = self._rewound_fingerprint(workspace, snapshot)
        before = schema_fingerprint(workspace.schema)
        workspace.schema.touch()
        with pytest.warns(RuntimeWarning):
            branch = workspace.fork(at=snapshot)
        assert schema_fingerprint(branch.schema) == expected
        assert schema_fingerprint(workspace.schema) == before
        assert workspace.redo_depth == 1
        redone = workspace.redo()
        assert redone is not None

    def test_out_of_band_edit_after_snapshot_reaches_branch(self):
        from repro.model.attributes import Attribute
        from repro.model.types import scalar

        workspace = Workspace(load("university"))
        snapshot = self._snapshot_after(workspace, [
            "add_type_definition(A)",
            "add_attribute(A, long, x)",
            "add_type_definition(B)",
        ], snapshot_index=1)
        # Out-of-band edit: direct container write plus touch().  It is
        # not position-tracked, so the branch reflects it even though it
        # landed after the snapshot (documented fallback semantics).
        workspace.schema.interfaces["A"].attributes["oob"] = Attribute(
            "oob", scalar("long")
        )
        workspace.schema.touch()
        expected = self._rewound_fingerprint(workspace, snapshot)
        with pytest.warns(RuntimeWarning):
            branch = workspace.fork(at=snapshot)
        assert schema_fingerprint(branch.schema) == expected
        assert "oob" in branch.schema.interfaces["A"].attributes


class TestAnalysisMemoAcrossFork:
    """PR 7 satellite: the apply_plan analysis memo must not leak
    across ``fork()`` -- each branch analyzes against its own schema
    after divergent edits.  ``fork()`` drops the memo outright (it is
    keyed to the parent's mutation-log identity), so these are plain
    behavior pins, not bug reproducers.
    """

    def test_fork_drops_the_memo(self):
        from repro.analysis.plan import PlanPreflightError

        workspace = Workspace(load("university"), "parent")
        bad_plan = [parse_operation("add_attribute(Ghost, long, x)")]
        with pytest.raises(PlanPreflightError):
            workspace.apply_plan(bad_plan)
        assert workspace._analysis_memo is not None
        branch = workspace.fork("branch")
        assert branch._analysis_memo is None

    def test_branches_analyze_their_own_schema_after_divergence(self):
        from repro.analysis.plan import PlanPreflightError

        workspace = Workspace(load("university"), "parent")
        bad_plan = [parse_operation("add_attribute(Ghost, long, x)")]
        with pytest.raises(PlanPreflightError):
            workspace.apply_plan(bad_plan)  # memoized rejection
        branch = workspace.fork("branch")
        # Diverge: the branch grows the missing type, the parent the
        # same-named attribute elsewhere.
        branch.apply(parse_operation("add_type_definition(Ghost)"))
        workspace.apply(parse_operation("add_attribute(Person, long, x)"))
        # The branch must now accept the very plan the parent memoized
        # as rejected...
        branch.apply_plan(bad_plan)
        assert "x" in branch.schema.get("Ghost").attributes
        # ...while the parent keeps rejecting it with a fresh analysis
        # of its own (divergently edited) schema.
        with pytest.raises(PlanPreflightError):
            workspace.apply_plan(bad_plan)
        assert "Ghost" not in workspace.schema

    def test_memo_hit_requires_same_log_and_seq(self):
        from repro.analysis.plan import PlanPreflightError

        workspace = Workspace(load("university"), "parent")
        bad_plan = [parse_operation("add_attribute(Ghost, long, x)")]
        for _ in range(2):
            with pytest.raises(PlanPreflightError):
                workspace.apply_plan(bad_plan)
        stats = workspace.schema.stats()
        assert stats["analysis.hits"] >= 1  # second rejection reused
        branch = workspace.fork("branch")
        with pytest.raises(PlanPreflightError):
            branch.apply_plan(bad_plan)
        # The branch recomputed: its first rejection is a miss, and its
        # memo is its own (parent memo object was not inherited).
        assert branch._analysis_memo is not None
        assert branch._analysis_memo is not workspace._analysis_memo
