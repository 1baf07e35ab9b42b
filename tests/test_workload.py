"""Tests for the synthetic workload generator."""

from repro.knowledge.propagation import expand
from repro.model.fingerprint import schema_fingerprint
from repro.model.interface import InterfaceDef
from repro.model.validation import validate_schema
from repro.ops.base import OperationContext
from repro.verify.runner import generated_subject, large_subject
from repro.workload.generator import (
    WorkloadSpec,
    generate_operations,
    generate_schema,
)


class TestGenerateSchema:
    def test_requested_size(self):
        schema = generate_schema(WorkloadSpec(types=25, seed=1))
        assert len(schema) == 25

    def test_schema_is_valid(self):
        # generate_schema promises validity by construction and does not
        # check it; every shape the program generates is checked here.
        schemas = [generate_schema(WorkloadSpec(types=40, seed=2))]
        # The session benchmark's shape.
        schemas += [
            generate_schema(WorkloadSpec(
                types=1_000, seed=seed, isa_fraction=0.45,
                part_of_chain=min(100, 1_000 // 4),
                instance_of_chain=min(50, 1_000 // 8),
            ))
            for seed in (1, 2, 3)
        ]
        # The fuzzer's large profile and synthetic subjects.
        schemas.append(large_subject(0, 1_000).build())
        schemas += [generated_subject(seed).build() for seed in range(20)]
        schemas += [
            generate_schema(WorkloadSpec(types=types, seed=seed))
            for types in (1, 2)
            for seed in range(4)
        ]
        for schema in schemas:
            validate_schema(schema, raise_on_error=True)

    def test_deterministic(self):
        first = generate_schema(WorkloadSpec(types=15, seed=3))
        second = generate_schema(WorkloadSpec(types=15, seed=3))
        assert schema_fingerprint(first) == schema_fingerprint(second)

    def test_seed_changes_output(self):
        first = generate_schema(WorkloadSpec(types=15, seed=3))
        second = generate_schema(WorkloadSpec(types=15, seed=4))
        assert schema_fingerprint(first) != schema_fingerprint(second)

    def test_features_present(self):
        schema = generate_schema(WorkloadSpec(types=30, seed=5))
        stats = schema.stats()
        assert stats["supertype_links"] > 0
        assert stats["part_of_links"] == 3
        assert stats["instance_of_links"] == 2
        assert stats["relationship_ends"] > 10

    def test_features_can_be_disabled(self):
        spec = WorkloadSpec(
            types=10, isa_fraction=0.0, association_density=0.0,
            part_of_chain=0, instance_of_chain=0, seed=0,
        )
        stats = generate_schema(spec).stats()
        assert stats["supertype_links"] == 0
        assert stats["relationship_ends"] == 0

    def test_wires_before_adding(self, monkeypatch):
        """Interfaces are wired detached, then added: no population
        claim is settled with a copy, and the spine holds one record for
        all the types."""
        copies = []
        copy = InterfaceDef.copy
        monkeypatch.setattr(
            InterfaceDef,
            "copy",
            lambda interface: copies.append(interface.name) or copy(interface),
        )
        spec = WorkloadSpec(types=200, isa_chain=5, hub_fanout=10, seed=1)
        stats = generate_schema(spec).stats()
        assert copies == []
        assert stats["spine.records"] == 1
        assert stats["supertype_links"] > 0
        assert stats["relationship_ends"] > 200


class TestGenerateOperations:
    def test_requested_count(self):
        schema = generate_schema(WorkloadSpec(types=20, seed=1))
        operations = generate_operations(schema, 40, seed=2)
        assert len(operations) == 40

    def test_operations_replay_cleanly(self):
        schema = generate_schema(WorkloadSpec(types=20, seed=1))
        operations = generate_operations(schema, 40, seed=2)
        scratch = schema.copy("replay")
        context = OperationContext(reference=schema)
        for operation in operations:
            for step in expand(scratch, operation, context):
                step.apply(scratch, context)
        scratch.validate()

    def test_deterministic(self):
        schema = generate_schema(WorkloadSpec(types=20, seed=1))
        first = generate_operations(schema, 25, seed=7)
        second = generate_operations(schema, 25, seed=7)
        assert [op.to_text() for op in first] == [
            op.to_text() for op in second
        ]

    def test_source_schema_untouched(self):
        schema = generate_schema(WorkloadSpec(types=20, seed=1))
        before = schema_fingerprint(schema)
        generate_operations(schema, 30, seed=2)
        assert schema_fingerprint(schema) == before

    def test_mix_includes_destructive_operations(self):
        schema = generate_schema(WorkloadSpec(types=20, seed=1))
        operations = generate_operations(schema, 80, seed=3)
        names = {op.op_name for op in operations}
        assert "delete_attribute" in names or "delete_relationship" in names


class _ScriptedComposite:
    """A composite stand-in: expands to a fixed plan and records whether
    the scratch it expanded against holds the type a failed composite
    created."""

    def __init__(self, plan, seen):
        self.plan = plan
        self.seen = seen

    def expand_plan(self, schema, context):
        self.seen.append("Injected" in schema)
        return list(self.plan)


class TestCompositesAreAllOrNothing:
    def test_failing_second_op_leaves_no_trace(self, monkeypatch):
        """A composite whose second op fails must not leave its first op
        applied on the scratch: the stream drops both, so later draws
        must not see the first op's effect either."""
        from repro.ops.attribute_ops import DeleteAttribute
        from repro.ops.type_ops import AddTypeDefinition
        from repro.workload import generator

        seen: list[bool] = []
        draws = iter(range(1000))

        def scripted(schema, rng, index):
            if next(draws) == 0:
                plan = [
                    AddTypeDefinition("Injected"),
                    DeleteAttribute("NoSuchType", "nothing"),
                ]
            else:
                plan = [AddTypeDefinition(f"Later{index}")]
            return _ScriptedComposite(plan, seen)

        monkeypatch.setattr(generator, "_COMPOSITE_SHARE", 1.0)
        monkeypatch.setattr(generator, "random_composite", scripted)
        schema = generate_schema(WorkloadSpec(types=10, seed=1))
        operations = generate_operations(schema, 3, seed=0)

        assert [op.to_text() for op in operations] == [
            "add_type_definition(Later0)",
            "add_type_definition(Later1)",
            "add_type_definition(Later2)",
        ]
        assert seen == [False, False, False, False]
