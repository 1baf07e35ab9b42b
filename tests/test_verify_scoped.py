"""Tests for O(changed) verification sweeps (DESIGN 5i).

Scoped sweeps verify only the touched-interface closure the mutation
spine reports; everything else is deferred to the caller's final full
sweep.  These tests pin the closure computation, the detect / defer
split, that both sweep modes of one check fire on the same planted
faults, the configurable differential stride, the validation cache's
per-interface recheck, and the seed-sharded runner specs.
"""

from __future__ import annotations

import io
from dataclasses import replace

import pytest

from repro.catalog import load
from repro.model.interface import InterfaceDef
from repro.model.relationships import RelationshipEnd, RelationshipKind
from repro.model.types import CollectionType, NamedType
from repro.verify.fuzzer import fuzz
from repro.verify.invariants import (
    ALWAYS_FULL,
    DIFFERENTIAL_STRIDE_DEFAULT,
    INVARIANTS,
    check_schema,
    consume_sampling_events,
    differential_stride,
    set_differential_stride,
    touched_closure,
)
from repro.verify.runner import RunSpec, execute_run, run_campaign
from repro.workload.generator import WorkloadSpec, generate_schema


class TestTouchedClosure:
    def test_closure_adds_descendants_and_referencers(self):
        schema = load("university")
        closure = touched_closure(schema, {"Person"})
        assert "Person" in closure
        # Subtypes inherit the touched type's derived state ...
        assert "Student" in closure
        # ... and definitions referencing it can dangle or re-pair.
        assert set(schema.index.adjacency.referencers_of("Person")) <= set(
            closure
        )

    def test_closure_drops_undefined_names(self):
        schema = load("university")
        closure = touched_closure(schema, {"Person", "NoSuchType"})
        assert "NoSuchType" not in closure

    def test_closure_of_nothing_is_empty(self):
        assert touched_closure(load("university"), ()) == []


#: The invariants a scoped sweep runs over the touched closure.
SCOPED = {
    "dangling-types",
    "inverse-pairing",
    "hierarchy-one-to-many",
    "isa-acyclic",
    "part-of-acyclic",
    "instance-of-acyclic",
    "keys-resolve",
    "order-by-resolve",
    "index-generalization-vs-scan",
    "index-aggregation-vs-scan",
    "incremental-vs-full-validation",
    "columnar-vs-scan",
    "odl-round-trip",
    "name-equivalence-mapping",
}


class TestScopedSweeps:
    def test_registry_covers_the_split(self):
        names = {inv.name for inv in INVARIANTS}
        scoped = {inv.name for inv in INVARIANTS if inv.scoped}
        assert scoped == SCOPED
        assert ALWAYS_FULL <= names
        assert not ALWAYS_FULL & scoped
        reach = {inv.name: inv.reach for inv in INVARIANTS}
        assert {name for name, r in reach.items() if r == "closure"} == SCOPED
        assert {name for name, r in reach.items() if r == "whole"} == ALWAYS_FULL

    def test_clean_schema_scoped_sweep_is_clean(self):
        schema = load("university")
        assert check_schema(schema, touched={"Person"}) == []

    def test_violation_inside_the_closure_is_detected(self):
        schema = load("university")
        schema.get("Person").add_supertype("Ghost")
        violations = check_schema(schema, touched={"Person"})
        assert "dangling-types" in {v.invariant for v in violations}

    def test_violation_outside_the_closure_is_deferred(self):
        schema = load("university")
        schema.get("Department").add_key(("no_such_attribute",))
        # Undergraduate is unrelated to Department: the scoped sweep
        # defers the broken key to the final full sweep ...
        assert touched_closure(schema, {"Undergraduate"}) == ["Undergraduate"]
        scoped = check_schema(
            schema, touched={"Undergraduate"}, names=["keys-resolve"]
        )
        assert scoped == []
        # ... which does report it.
        full = check_schema(schema, names=["keys-resolve"])
        assert "no_such_attribute" in str(full[0])

    def test_isa_cycle_through_a_touched_type_is_detected(self):
        schema = load("university")
        schema.get("Person").add_supertype("Student")  # Student isa Person
        violations = check_schema(schema, touched={"Person"})
        assert "isa-acyclic" in {v.invariant for v in violations}


def _end(name, target, inverse_type, inverse_name, kind, many=False):
    target_ref = NamedType(target)
    if many:
        target_ref = CollectionType("set", target_ref)
    return RelationshipEnd(name, target_ref, inverse_type, inverse_name, kind)


def _link_both_ways(schema, kind, first, second, *, many_back=False):
    """A to-many *kind* end first -> second, paired with a to-one end
    back (to-many too with *many_back*)."""
    schema.get(first).add_relationship(
        _end("down", second, second, "up", kind, many=True)
    )
    schema.get(second).add_relationship(
        _end("up", first, first, "down", kind, many=many_back)
    )


def _plant_dangling_supertype(schema):
    schema.get("Undergraduate").add_supertype("Ghost")
    return {"Undergraduate"}


def _plant_unpaired_inverse(schema):
    schema.get("Syllabus").add_relationship(
        _end("reviewed_in", "Book", "Book", "reviews",
             RelationshipKind.ASSOCIATION)
    )
    return {"Syllabus"}


def _plant_part_of_many_to_many(schema):
    _link_both_ways(
        schema, RelationshipKind.PART_OF, "Book", "Syllabus", many_back=True
    )
    return {"Book", "Syllabus"}


def _plant_isa_cycle(schema):
    schema.get("Person").add_supertype("Doctoral")
    return {"Person"}


def _plant_part_of_cycle(schema):
    _link_both_ways(schema, RelationshipKind.PART_OF, "Time_Slot", "Length")
    _link_both_ways(schema, RelationshipKind.PART_OF, "Length", "Time_Slot")
    return {"Time_Slot", "Length"}


def _plant_instance_of_cycle(schema):
    # Course already lists its offerings as instances.
    _link_both_ways(
        schema, RelationshipKind.INSTANCE_OF, "Course_Offering", "Course"
    )
    return {"Course_Offering", "Course"}


def _plant_unknown_key(schema):
    schema.get("Department").add_key(("no_such_attribute",))
    return {"Department"}


def _plant_unknown_order_by(schema):
    offering = schema.get("Course_Offering")
    end = offering.get_relationship("book_for")
    offering.replace_relationship(replace(end, order_by=("no_such_attribute",)))
    return {"Course_Offering"}


PLANTS = [
    _plant_dangling_supertype,
    _plant_unpaired_inverse,
    _plant_part_of_many_to_many,
    _plant_isa_cycle,
    _plant_part_of_cycle,
    _plant_instance_of_cycle,
    _plant_unknown_key,
    _plant_unknown_order_by,
]

#: Invariants that report a found cycle; the two modes seed the search
#: differently, so the message may start at a different node.
CYCLE_CHECKS = {"isa-acyclic", "part-of-acyclic", "instance-of-acyclic"}


def _messages(violations) -> dict[str, list[str]]:
    fired: dict[str, list[str]] = {}
    for violation in violations:
        fired.setdefault(violation.invariant, []).append(violation.message)
    return fired


def _cycle_nodes(message: str) -> set[str]:
    return set(message.rsplit(": ", 1)[1].split(" -> "))


class TestBothSweepModes:
    """One planted violation per class on ``university``: a full sweep
    and a scoped sweep touching the planted names fire the same scoped
    invariants, with the same per-interface messages."""

    @pytest.mark.parametrize(
        "plant", PLANTS, ids=[p.__name__[len("_plant_"):] for p in PLANTS]
    )
    def test_full_and_scoped_sweeps_fire_alike(self, plant):
        schema = load("university")
        touched = plant(schema)
        full = _messages(check_schema(schema, names=SCOPED))
        scoped = _messages(check_schema(schema, names=SCOPED, touched=touched))
        assert full, "the planted violation fires no scoped invariant"
        assert set(scoped) == set(full)
        for name, messages in full.items():
            if name in CYCLE_CHECKS:
                assert [_cycle_nodes(m) for m in scoped[name]] == [
                    _cycle_nodes(m) for m in messages
                ]
            else:
                assert sorted(scoped[name]) == sorted(messages)


class TestColumnarCorruption:
    """Faults written into the columnar store behind the spine."""

    @staticmethod
    def _store(schema):
        adjacency = schema.index.adjacency
        adjacency.ensure_fresh()
        return adjacency, adjacency.table.id_of

    @staticmethod
    def _counts(schema, touched):
        wanted = ["columnar-vs-scan"]
        full = check_schema(schema, names=wanted)
        scoped = check_schema(schema, names=wanted, touched=touched)
        return len(full), len(scoped)

    def test_extra_isa_child_fails_both_sweeps(self):
        schema = load("university")
        adjacency, id_of = self._store(schema)
        adjacency._children[id_of("Person")].append(id_of("Book"))
        assert self._counts(schema, {"Person"}) == (1, 1)

    def test_missing_isa_child_fails_both_sweeps(self):
        schema = load("university")
        adjacency, id_of = self._store(schema)
        adjacency._children[id_of("Person")].remove(id_of("Student"))
        assert self._counts(schema, {"Person"}) == (1, 1)

    def test_closure_keeps_a_child_dropped_from_its_row(self):
        """The scope of a scoped sweep comes from the declared
        supertypes too, not only from the rows it is checking."""
        schema = load("university")
        adjacency, id_of = self._store(schema)
        sound = touched_closure(schema, {"Person"})
        assert len(sound) == 9
        adjacency._children[id_of("Person")].remove(id_of("Student"))
        assert touched_closure(schema, {"Person"}) == sound

    def test_cleared_parents_row_fails_both_sweeps(self):
        schema = load("university")
        adjacency, id_of = self._store(schema)
        adjacency._parents[id_of("Student")] = None
        # Full: Person's refcount no longer matches the rows, and the
        # parents export differs from the scan; scoped: the row check.
        assert self._counts(schema, {"Student"}) == (2, 1)


class TestDifferentialStride:
    def test_default_matches_the_documented_threshold(self):
        assert differential_stride() == DIFFERENTIAL_STRIDE_DEFAULT == 256

    def test_small_stride_samples_and_counts_events(self):
        schema = generate_schema(WorkloadSpec(types=30, seed=1))
        old = set_differential_stride(8)
        try:
            consume_sampling_events()
            assert check_schema(
                schema, names=["index-generalization-vs-scan"]
            ) == []
            assert consume_sampling_events() > 0
        finally:
            set_differential_stride(old)

    def test_zero_means_exhaustive(self):
        schema = generate_schema(WorkloadSpec(types=30, seed=1))
        old = set_differential_stride(0)
        try:
            consume_sampling_events()
            assert check_schema(
                schema, names=["index-generalization-vs-scan"]
            ) == []
            assert consume_sampling_events() == 0
        finally:
            assert set_differential_stride(old) == 0

    def test_consume_drains_the_counter(self):
        consume_sampling_events()
        assert consume_sampling_events() == 0


class TestRecheckInterfaces:
    def test_clean_cache_has_nothing_stale(self):
        schema = load("university")
        schema.validation.validate()
        assert list(
            schema.validation.recheck_interfaces(schema.type_names())
        ) == []

    def test_interface_added_behind_the_spine_is_flagged(self):
        schema = load("university")
        schema.validation.validate()
        imposter = InterfaceDef("Imposter")
        schema.interfaces["Imposter"] = imposter  # bypasses the spine
        messages = list(schema.validation.recheck_interfaces(["Imposter"]))
        assert messages
        assert "no issue slots" in messages[0]

    def test_interface_removed_behind_the_spine_is_flagged(self):
        schema = load("university")
        schema.validation.validate()
        del schema.interfaces["Doctoral"]  # bypasses the spine
        messages = list(schema.validation.recheck_interfaces(["Doctoral"]))
        assert messages
        assert "still holds issue slots" in messages[0]


class TestScopedFuzz:
    def test_scoped_run_is_clean_and_counts_sweeps(self):
        report = fuzz(
            load("university"), seed=5, steps=40, check_every=3,
            scoped_checks=True,
        )
        assert report.ok, report.failure
        assert report.scoped_sweeps > 0
        assert f"scoped={report.scoped_sweeps}" in report.summary()

    def test_full_mode_reports_no_scoped_sweeps(self):
        report = fuzz(load("university"), seed=5, steps=20, check_every=4)
        assert report.ok
        assert report.scoped_sweeps == 0
        assert "scoped=" not in report.summary()


class TestRunnerSpecs:
    def test_execute_run_round_trips_a_catalog_spec(self):
        spec = RunSpec(
            family="catalog", name="university", seed=0, steps=20,
            check_every=4,
        )
        text, report = execute_run(spec)
        assert report is not None and report.ok
        assert "ok subject=university" in text

    def test_execute_run_builds_large_subjects_scoped(self):
        spec = RunSpec(
            family="large", name="large_120_0", seed=0, steps=15,
            check_every=5, cheap_every=5, types=120, scoped=True,
        )
        text, report = execute_run(spec)
        assert report is not None and report.ok
        assert report.scoped_sweeps > 0

    def test_parallel_campaign_output_matches_sequential(self):
        def run(jobs):
            out = io.StringIO()
            reports = run_campaign(
                seeds=2, steps=12, check_every=4, jobs=jobs, out=out
            )
            return out.getvalue(), [r.summary() for r in reports]

        sequential = run(1)
        parallel = run(2)
        assert parallel == sequential

    def test_unknown_family_is_rejected(self):
        from repro.verify.runner import subject_for

        spec = RunSpec(
            family="nope", name="x", seed=0, steps=1, check_every=1
        )
        with pytest.raises(ValueError):
            subject_for(spec)
