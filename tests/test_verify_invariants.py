"""Tests for the invariant registry (repro.verify.invariants)."""

import pytest

from repro.catalog import SCHEMA_BUILDERS, load
from repro.model.attributes import Attribute
from repro.model.interface import InterfaceDef
from repro.model.relationships import RelationshipEnd
from repro.model.schema import Schema
from repro.model.types import NamedType, set_of
from repro.ops.language import parse_operation
from repro.repository.workspace import Workspace
from repro.verify.invariants import (
    INVARIANTS,
    TIER_CHEAP,
    TIER_EXPENSIVE,
    check_schema,
    check_workspace,
    describe_registry,
)
from repro.workload.generator import WorkloadSpec, generate_schema


class TestRegistry:
    def test_at_least_fifteen_invariants(self):
        assert len(INVARIANTS) >= 15

    def test_every_invariant_cites_a_clause(self):
        for inv in INVARIANTS:
            assert inv.clause, f"{inv.name} has no paper clause"
            assert inv.tier in (TIER_CHEAP, TIER_EXPENSIVE)
            assert inv.scope in ("schema", "workspace")

    def test_names_are_unique(self):
        names = [inv.name for inv in INVARIANTS]
        assert len(names) == len(set(names))

    def test_describe_registry_lists_every_name(self):
        text = describe_registry()
        for inv in INVARIANTS:
            assert inv.name in text


class TestCleanSchemas:
    @pytest.mark.parametrize("name", sorted(SCHEMA_BUILDERS))
    def test_catalog_schema_is_clean(self, name):
        assert check_schema(load(name)) == []

    @pytest.mark.parametrize("seed", range(5))
    def test_generated_schema_is_clean(self, seed):
        schema = generate_schema(WorkloadSpec(types=12, seed=seed))
        assert check_schema(schema) == []

    def test_fresh_workspace_is_clean(self):
        assert check_workspace(Workspace(load("university"))) == []

    def test_customized_workspace_is_clean(self):
        workspace = Workspace(load("company"))
        for text in (
            "add_type_definition(Project)",
            "add_attribute(Project, string(40), title)",
            "add_extent_name(Project, projects)",
        ):
            workspace.apply(parse_operation(text))
        workspace.undo_last()
        workspace.redo()
        assert check_workspace(workspace) == []


class TestBrokenSchemas:
    def _violated(self, schema):
        return {violation.invariant for violation in check_schema(schema)}

    def test_dangling_supertype_detected(self):
        schema = load("university")
        schema.get("Person").add_supertype("Ghost")
        assert "dangling-types" in self._violated(schema)

    def test_unpaired_relationship_detected(self):
        schema = load("university")
        schema.get("Person").add_relationship(
            RelationshipEnd(
                "solo", NamedType("Department"), "Department", "missing"
            )
        )
        assert "inverse-pairing" in self._violated(schema)

    def test_duplicate_extent_detected(self):
        schema = Schema("dup")
        first = InterfaceDef("A")
        second = InterfaceDef("B")
        schema.add_interface(first)
        schema.add_interface(second)
        first.set_extent("things")
        second.set_extent("things")
        assert "extent-unique" in self._violated(schema)

    def test_unknown_key_attribute_detected(self):
        schema = load("university")
        schema.get("Person").add_key(("no_such_attribute",))
        assert "keys-resolve" in self._violated(schema)

    def test_isa_cycle_detected(self):
        schema = Schema("cycle")
        schema.add_interface(InterfaceDef("A", supertypes=["B"]))
        schema.add_interface(InterfaceDef("B", supertypes=["A"]))
        assert "isa-acyclic" in self._violated(schema)

    def test_violations_identify_the_invariant(self):
        schema = load("university")
        schema.get("Person").add_key(("no_such_attribute",))
        violations = check_schema(schema, names=["keys-resolve"])
        assert violations
        assert all(v.invariant == "keys-resolve" for v in violations)
        assert "no_such_attribute" in str(violations[0])

    def test_tier_filter_skips_expensive_checks(self):
        schema = load("university")
        cheap_only = check_schema(schema, tiers=(TIER_CHEAP,))
        assert cheap_only == []


class TestIndexDifferentials:
    def test_stale_cache_is_reported(self):
        schema = load("university")
        schema.subtypes("Person")  # prime the index
        # Mutate behind the index's back: the differential invariants
        # must notice that indexed answers diverge from the full scans.
        new = InterfaceDef("Imposter", supertypes=["Person"])
        schema.interfaces[new.name] = new
        violated = {violation.invariant for violation in check_schema(schema)}
        assert "index-generalization-vs-scan" in violated


class TestDifferentialSampling:
    """Past _DIFFERENTIAL_SAMPLE types the per-type index differentials
    probe a deterministic stride sample -- exhaustive probing calls an
    O(types) scan per type, which the large fuzz profile cannot afford.
    """

    def test_small_schemas_are_swept_exhaustively(self):
        from repro.verify.invariants import _sampled_type_names

        schema = load("university")
        assert _sampled_type_names(schema) == schema.type_names()

    def test_large_schemas_sample_boundedly_and_deterministically(self):
        from repro.verify.invariants import (
            DIFFERENTIAL_STRIDE_DEFAULT,
            _sampled_type_names,
        )

        schema = generate_schema(WorkloadSpec(types=1_000, seed=1))
        sample = _sampled_type_names(schema)
        assert len(sample) <= DIFFERENTIAL_STRIDE_DEFAULT
        assert sample == _sampled_type_names(schema)
        assert set(sample) <= set(schema.type_names())

    def test_successive_generations_rotate_the_sample(self):
        from repro.verify.invariants import _sampled_type_names

        schema = generate_schema(WorkloadSpec(types=1_000, seed=1))
        seen: set[str] = set(_sampled_type_names(schema))
        stride = -(-len(schema.type_names()) // 256)
        for _ in range(stride - 1):
            schema.touch()
            seen.update(_sampled_type_names(schema))
        # One sweep per generation residue covers every declared type.
        assert seen == set(schema.type_names())

    def test_sampled_differential_still_detects_stale_caches(self):
        from repro.verify.invariants import _sampled_type_names

        schema = generate_schema(WorkloadSpec(types=1_000, seed=1))
        # Divergence planted on a type the current sample will probe.
        victim = _sampled_type_names(schema)[0]
        schema.subtypes(victim)  # prime the indexed answer
        new = InterfaceDef("Imposter", supertypes=[victim])
        schema.interfaces[new.name] = new
        violated = {v.invariant for v in check_schema(schema)}
        assert "index-generalization-vs-scan" in violated

    def test_instance_of_probes_detect_a_stale_reverse_map(self):
        import dataclasses

        schema = generate_schema(
            WorkloadSpec(types=60, seed=1, instance_of_chain=5)
        )
        generic, instance, end = schema.instance_of_edges()[0]
        assert check_schema(schema, names=["index-instance-of-vs-scan"]) == []
        # Retarget the end without a record: the edge listing reads the
        # live end, so only the per-name lookups still see the old
        # target.
        other = next(
            name for name in schema.type_names()
            if name not in (generic, instance)
        )
        schema.interfaces[generic].relationships[end.name] = (
            dataclasses.replace(end, target=set_of(other))
        )
        messages = [
            v.message
            for v in check_schema(schema, names=["index-instance-of-vs-scan"])
        ]
        assert f"instances_of({generic!r}): index != scan" in messages
        assert f"generics_of({other!r}): index != scan" in messages


class TestWorkspaceInvariants:
    def test_corrupted_undo_closures_detected(self):
        workspace = Workspace(load("university"))
        entry = workspace.apply(parse_operation("add_type_definition(Thing)"))
        entry.undos.clear()
        violated = {v.invariant for v in check_workspace(workspace)}
        assert "history-shape" in violated

    def test_broken_undo_closure_detected(self):
        workspace = Workspace(load("university"))
        entry = workspace.apply(
            parse_operation("add_attribute(Person, string(10), nick)")
        )
        entry.undos[0] = lambda: None
        violated = {v.invariant for v in check_workspace(workspace)}
        assert "undo-redo-identity" in violated

    def test_tampered_log_breaks_replay(self):
        workspace = Workspace(load("university"))
        workspace.apply(parse_operation("add_type_definition(Thing)"))
        workspace.apply(parse_operation("add_attribute(Thing, long, n)"))
        dropped = workspace.log.pop(0)
        # keep the schema as-is: the log no longer explains it
        violated = {v.invariant for v in check_workspace(workspace)}
        assert "log-replay" in violated
        assert dropped.requested.op_name == "add_type_definition"

    def test_preview_isolation_holds_on_a_cow_branch(self):
        branch = Workspace(load("university")).fork("branch")
        assert check_workspace(branch, names=["preview-isolation"]) == []

    @pytest.mark.parametrize("fault", ["swap-interface", "wrong-verdict"])
    def test_leaky_preview_detected(self, monkeypatch, fault):
        from repro.examples import preview as preview_module

        real = preview_module.preview_plan

        def leaky(workspace, plan, concept=None):
            result = real(workspace, plan, concept)
            if fault == "swap-interface":
                interfaces = workspace.schema.interfaces
                interfaces["Person"] = interfaces["Person"].copy()
            else:
                result.ok = not result.ok
            return result

        monkeypatch.setattr(preview_module, "preview_plan", leaky)
        workspace = Workspace(load("university"))
        violated = check_workspace(workspace, names=["preview-isolation"])
        assert [v.invariant for v in violated] == ["preview-isolation"]

    def test_mutated_attribute_breaks_nothing_when_logged(self):
        workspace = Workspace(load("university"))
        workspace.apply(
            parse_operation(
                "modify_attribute_type(Person, name, string(40), string(99))"
            )
        )
        assert check_workspace(workspace) == []
