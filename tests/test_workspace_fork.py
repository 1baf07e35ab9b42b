"""Tests for workspace snapshots, fork semantics, and record-level diff.

These pin the PR's satellite contract: fork-then-diverge isolation,
undo/redo across a snapshot watermark, forking a workspace that has
pending validation issues, and ``schema_diff`` agreeing with the
structural ``diff_schemas`` on the changed set.
"""

import pytest

from repro.analysis.diff import diff_schemas, schema_diff
from repro.model.fingerprint import schema_fingerprint, schemas_equal
from repro.model.types import scalar
from repro.ops.attribute_ops import AddAttribute, DeleteAttribute
from repro.ops.type_ops import AddTypeDefinition, DeleteTypeDefinition
from repro.ops.type_property_ops import AddSupertype
from repro.repository.workspace import Workspace


@pytest.fixture
def workspace(small):
    return Workspace(small, name="small_custom")


class TestSnapshot:
    def test_snapshot_is_a_watermark(self, workspace):
        snap = workspace.snapshot()
        assert snap.seq == workspace.schema.log.seq
        assert snap.depth == 0
        workspace.apply(AddAttribute("Person", scalar("date"), "dob"))
        later = workspace.snapshot()
        assert later.depth == 1
        assert later.seq > snap.seq

    def test_undo_to_rewinds_and_feeds_redo(self, workspace):
        before = schema_fingerprint(workspace.schema)
        snap = workspace.snapshot()
        workspace.apply(AddAttribute("Person", scalar("date"), "dob"))
        workspace.apply(AddSupertype("Department", "Person"))
        unwound = workspace.undo_to(snap)
        assert unwound == 2
        assert schema_fingerprint(workspace.schema) == before
        # The unwound steps sit on the redo stack: same history.
        assert workspace.redo_depth == 2
        workspace.redo()
        workspace.redo()
        assert "dob" in workspace.schema.get("Person").attributes
        assert "Person" in workspace.schema.get("Department").supertypes

    def test_undo_to_noop_at_watermark(self, workspace):
        workspace.apply(AddAttribute("Person", scalar("date"), "dob"))
        snap = workspace.snapshot()
        assert workspace.undo_to(snap) == 0

    def test_snapshot_rejected_after_reset(self, workspace):
        snap = workspace.snapshot()
        workspace.reset()
        with pytest.raises(ValueError):
            workspace.undo_to(snap)

    def test_snapshot_ahead_of_history_rejected(self, workspace):
        workspace.apply(AddAttribute("Person", scalar("date"), "dob"))
        snap = workspace.snapshot()
        workspace.undo_last()
        with pytest.raises(ValueError):
            workspace.undo_to(snap)

    def test_snapshot_of_an_overwritten_step_rejected(self, workspace):
        """Undone and overwritten at the same depth: the history is as
        deep as the snapshot, but its last step is not the bookmarked
        one."""
        workspace.apply(AddTypeDefinition("A"))
        workspace.apply(AddAttribute("A", scalar("long"), "x"))
        snap = workspace.snapshot()
        workspace.undo_last()
        workspace.apply(AddAttribute("A", scalar("long"), "y"))
        with pytest.raises(ValueError, match="undone and overwritten"):
            workspace.undo_to(snap)
        with pytest.raises(ValueError, match="undone and overwritten"):
            workspace.fork("branch", at=snap)
        assert workspace.undo_depth == 2
        assert "y" in workspace.schema.get("A").attributes

    def test_snapshot_survives_an_undo_redo_round_trip(self, workspace):
        workspace.apply(AddTypeDefinition("A"))
        workspace.apply(AddAttribute("A", scalar("long"), "x"))
        snap = workspace.snapshot()
        workspace.undo_last()
        workspace.undo_last()
        workspace.redo()
        workspace.redo()
        workspace.apply(AddAttribute("A", scalar("long"), "y"))
        branch = workspace.fork("branch", at=snap)
        assert set(branch.schema.get("A").attributes) == {"x"}
        assert workspace.undo_to(snap) == 1
        assert set(workspace.schema.get("A").attributes) == {"x"}

    def test_foreign_snapshot_rejected(self, workspace, small):
        other = Workspace(small, name="other")
        with pytest.raises(ValueError):
            workspace.undo_to(other.snapshot())


class TestFork:
    def test_fork_then_diverge_isolation(self, workspace):
        workspace.apply(AddAttribute("Person", scalar("date"), "dob"))
        branch = workspace.fork("branch")
        assert schemas_equal(branch.schema, workspace.schema)
        branch.apply(AddAttribute("Person", scalar("string"), "email"))
        workspace.apply(DeleteAttribute("Person", "dob"))
        assert "email" not in workspace.schema.get("Person").attributes
        assert "dob" in branch.schema.get("Person").attributes
        assert workspace.reference is branch.reference

    def test_fork_starts_with_empty_history(self, workspace):
        workspace.apply(AddAttribute("Person", scalar("date"), "dob"))
        branch = workspace.fork()
        assert branch.undo_depth == 0
        assert branch.redo_depth == 0
        assert branch.undo_last() is None

    def test_fork_with_pending_validation_issues(self, workspace):
        workspace.apply(AddSupertype("Employee", "Department"))
        # The hierarchy now has two roots -> a warning is pending.
        assert workspace.issues
        branch = workspace.fork("branch")
        assert branch.issues == workspace.issues
        # The fork revalidates independently: rooting the hierarchy in
        # the branch clears its warning but not the origin's.
        branch.apply(AddSupertype("Department", "Person"))
        assert branch.issues != workspace.issues
        assert workspace.issues

    def test_fork_at_snapshot_replays_prefix(self, workspace):
        workspace.apply(AddAttribute("Person", scalar("date"), "dob"))
        snap = workspace.snapshot()
        workspace.apply(AddSupertype("Department", "Person"))
        branch = workspace.fork("branch", at=snap)
        assert "dob" in branch.schema.get("Person").attributes
        assert "Person" not in branch.schema.get("Department").supertypes
        # The replayed prefix is live history: it can be undone.
        assert branch.undo_depth == 1
        branch.undo_last()
        assert "dob" not in branch.schema.get("Person").attributes
        # The origin workspace is untouched by the branch replay.
        assert "Person" in workspace.schema.get("Department").supertypes

    def test_fork_lineage_supports_record_diff(self, workspace):
        branch = workspace.fork("branch")
        branch.apply(AddAttribute("Person", scalar("date"), "dob"))
        diff = schema_diff(workspace.schema, branch.schema)
        assert _changed_keys(diff) == {
            ("type", "Person", "modified"),
            ("attribute", "Person.dob", "added"),
        }


def _changed_keys(diff):
    return {
        (entry.category, entry.path, entry.status.value)
        for entry in diff.changed()
    }


class TestSchemaDiff:
    def changed_sets_match(self, original, custom):
        fast = schema_diff(original, custom)
        slow = diff_schemas(original, custom)
        assert _changed_keys(fast) == _changed_keys(slow)
        return fast

    def test_matches_structural_diff_after_divergence(self, workspace):
        branch = workspace.fork("branch")
        branch.apply(AddAttribute("Person", scalar("date"), "dob"))
        branch.apply(DeleteAttribute("Department", "code"))
        workspace.apply(AddSupertype("Department", "Person"))
        self.changed_sets_match(workspace.schema, branch.schema)

    def test_membership_changes(self, workspace):
        branch = workspace.fork("branch")
        branch.apply(AddTypeDefinition("Project"))
        branch.apply(DeleteTypeDefinition("Employee"))
        diff = self.changed_sets_match(workspace.schema, branch.schema)
        keys = _changed_keys(diff)
        assert ("type", "Project", "added") in keys
        assert ("type", "Employee", "deleted") in keys

    def test_identical_forks_diff_empty(self, workspace):
        branch = workspace.fork("branch")
        diff = self.changed_sets_match(workspace.schema, branch.schema)
        assert diff.is_empty()

    def test_unrelated_schemas_fall_back(self, small, company):
        fast = schema_diff(small, company)
        slow = diff_schemas(small, company)
        assert _changed_keys(fast) == _changed_keys(slow)

    def test_lossy_divergence_falls_back(self, workspace):
        branch = workspace.fork("branch")
        branch.apply(AddAttribute("Person", scalar("date"), "dob"))
        branch.schema.touch()
        fast = schema_diff(workspace.schema, branch.schema)
        slow = diff_schemas(workspace.schema, branch.schema)
        assert _changed_keys(fast) == _changed_keys(slow)
        assert {e.path for e in fast.changed()} == {"Person", "Person.dob"}


class TestForkAtRewindFallback:
    """``fork(at=...)`` on a lossy log: warn, rewind-and-clone, restore."""

    def _diverge_with_out_of_band_edit(self, workspace):
        from repro.model.attributes import Attribute

        workspace.apply(AddAttribute("Person", scalar("date"), "dob"))
        snap = workspace.snapshot()
        workspace.apply(AddSupertype("Department", "Person"))
        # Out-of-band edit: a raw mutator call with no operation behind
        # it, then touch() -- the mutation log is now lossy, so the
        # branch-by-replay path cannot trust it.
        workspace.schema.get("Person").add_attribute(
            Attribute("oob", scalar("long"))
        )
        workspace.schema.touch()
        assert workspace.schema.log.lossy
        return snap

    def test_lossy_log_warns_and_falls_back(self, workspace):
        snap = self._diverge_with_out_of_band_edit(workspace)
        with pytest.warns(RuntimeWarning, match="rewind-and-clone"):
            branch = workspace.fork("branch", at=snap)
        # Pre-snapshot state is present, post-snapshot state is not.
        assert "dob" in branch.schema.get("Person").attributes
        assert "Person" not in branch.schema.get("Department").supertypes
        # Out-of-band edits are not position-tracked: they survive.
        assert "oob" in branch.schema.get("Person").attributes
        # The fallback branch starts with an empty undo history.
        assert branch.undo_depth == 0

    def test_fallback_branch_state_matches_rewound_original(self, workspace):
        snap = self._diverge_with_out_of_band_edit(workspace)
        with pytest.warns(RuntimeWarning):
            branch = workspace.fork("branch", at=snap)
        unwound = workspace.undo_to(snap)
        assert schema_fingerprint(branch.schema) == schema_fingerprint(
            workspace.schema
        )
        for _ in range(unwound):
            workspace.redo()

    def test_original_workspace_fully_restored(self, workspace):
        snap = self._diverge_with_out_of_band_edit(workspace)
        with pytest.warns(RuntimeWarning):
            branch = workspace.fork("branch", at=snap)
        assert workspace.undo_depth == 2
        assert workspace.redo_depth == 0
        assert "Person" in workspace.schema.get("Department").supertypes
        # Branch and original diverge independently afterwards.
        branch.apply(AddAttribute("Person", scalar("string"), "email"))
        assert "email" not in workspace.schema.get("Person").attributes

    def test_fallback_branch_still_diffs_against_original(self, workspace):
        snap = self._diverge_with_out_of_band_edit(workspace)
        with pytest.warns(RuntimeWarning):
            branch = workspace.fork("branch", at=snap)
        fast = schema_diff(workspace.schema, branch.schema)
        slow = diff_schemas(workspace.schema, branch.schema)
        assert _changed_keys(fast) == _changed_keys(slow)

    def test_replay_path_does_not_warn_on_clean_log(self, workspace):
        import warnings

        workspace.apply(AddAttribute("Person", scalar("date"), "dob"))
        snap = workspace.snapshot()
        workspace.apply(AddSupertype("Department", "Person"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            branch = workspace.fork("branch", at=snap)
        # The replay path keeps live history on the branch.
        assert branch.undo_depth == 1


class TestForkRewindUnderPopulations:
    """PR 7 satellite: the rewind-fallback branch judges populations
    exactly as the rewound original does -- admission verdicts are a
    behavioral fingerprint the lossy-log fallback must preserve.
    """

    def _lossy_snapshot(self, workspace):
        from repro.model.attributes import Attribute

        workspace.apply(AddAttribute("Person", scalar("date"), "dob"))
        snap = workspace.snapshot()
        workspace.apply(AddSupertype("Department", "Person"))
        workspace.schema.get("Person").add_attribute(
            Attribute("oob", scalar("long"))
        )
        workspace.schema.touch()
        assert workspace.schema.log.lossy
        return snap

    def test_branch_admits_the_generated_population(self, workspace):
        from repro.instances import check_population
        from repro.workload.population import generate_population

        snap = self._lossy_snapshot(workspace)
        with pytest.warns(RuntimeWarning):
            branch = workspace.fork("branch", at=snap)
        pop = generate_population(branch.schema, seed=11)
        assert len(pop) > 0
        assert check_population(branch.schema, pop) == []

    def test_branch_and_rewound_original_agree_on_admission(self, workspace):
        from repro.instances import Population, check_population

        snap = self._lossy_snapshot(workspace)
        with pytest.warns(RuntimeWarning):
            branch = workspace.fork("branch", at=snap)
        # A witness exercising the snapshot-time schema: Person has a
        # key on id, Department.staff is set<Employee> order_by (name).
        pop = Population("witness")
        pop.add("d1", "Department", code="d1")
        pop.add("e1", "Employee", id=1, name="ann")
        pop.wire(branch.schema, "e1", "works_in", "d1")
        # And a near-miss: duplicate key values.
        bad = pop.copy("near_miss")
        bad.add("p1", "Person", id=1)
        bad.add("p2", "Person", id=1)
        unwound = workspace.undo_to(snap)
        try:
            for candidate in (pop, bad):
                branch_issues = [
                    str(issue)
                    for issue in check_population(branch.schema, candidate)
                ]
                original_issues = [
                    str(issue)
                    for issue in check_population(
                        workspace.schema, candidate
                    )
                ]
                assert branch_issues == original_issues
        finally:
            for _ in range(unwound):
                workspace.redo()
        assert check_population(branch.schema, pop) == []
        assert any(
            issue.kind == "key"
            for issue in check_population(branch.schema, bad)
        )

    def test_post_snapshot_constraints_do_not_leak_into_branch(
        self, workspace
    ):
        from repro.instances import Population, check_population
        from repro.ops.language import parse_operation

        workspace.apply(AddAttribute("Person", scalar("date"), "dob"))
        snap = workspace.snapshot()
        # Post-snapshot: tighten Department.staff to a to-one end (the
        # order_by list must go first; to-one ends are unordered).
        workspace.apply(parse_operation(
            "modify_relationship_order_by(Department, staff, (name), ())"
        ))
        workspace.apply(parse_operation(
            "modify_relationship_cardinality"
            "(Department, staff, set<Employee>, Employee)"
        ))
        workspace.schema.get("Person").attributes.pop("dob")
        workspace.schema.touch()
        assert workspace.schema.log.lossy
        with pytest.warns(RuntimeWarning):
            branch = workspace.fork("branch", at=snap)
        pop = Population("two_staff")
        pop.add("d1", "Department", code="d1")
        pop.add("e1", "Employee", id=1, name="ann")
        pop.add("e2", "Employee", id=2, name="bob")
        pop.wire(branch.schema, "e1", "works_in", "d1")
        pop.wire(branch.schema, "e2", "works_in", "d1")
        # The branch still has the set-valued end: two staff are fine.
        assert check_population(branch.schema, pop) == []
        # The live workspace kept the tightened end: same data rejected.
        assert any(
            issue.kind == "cardinality"
            for issue in check_population(workspace.schema, pop)
        )
