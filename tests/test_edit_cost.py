"""One edit costs O(changed): counted, not timed.

The paper's designer re-validates after every modification operation
(Section 3, Figure 1).  ``SchemaRepository.apply`` plus that validation
(a read of ``Workspace.issues``) must therefore visit only what the edit
changed: no whole-schema walk (``Schema.type_names``,
``Schema.__iter__`` -- which every ``scan_*`` reference and every index
(re)build goes through) may run on the edit path.  Counting the
interfaces those walks visit on generated schemas of two sizes guards
that without a timing assertion, in the style of
``tests/test_decompose.py::TestDecomposeIsLinear``.
"""

from __future__ import annotations

from repro.model.schema import Schema
from repro.model.types import ScalarType, set_of
from repro.model.validation import validate_schema
from repro.ops.attribute_ops import (
    AddAttribute,
    DeleteAttribute,
    ModifyAttributeSize,
)
from repro.ops.instance_of_ops import (
    AddInstanceOfRelationship,
    DeleteInstanceOfRelationship,
)
from repro.ops.operation_ops import AddOperation, DeleteOperation
from repro.ops.part_of_ops import (
    AddPartOfRelationship,
    DeletePartOfRelationship,
)
from repro.ops.relationship_ops import AddRelationship, DeleteRelationship
from repro.ops.type_ops import AddTypeDefinition, DeleteTypeDefinition
from repro.ops.type_property_ops import (
    AddExtentName,
    AddKeyList,
    AddSupertype,
    DeleteExtentName,
    DeleteKeyList,
    DeleteSupertype,
    ModifyExtentName,
)
from repro.repository.repository import SchemaRepository
from repro.workload.generator import WorkloadSpec, generate_schema


def _fixed_ops():
    """One op per generator op family, then a type deletion whose
    cascades drop a supertype link, a part-of pair and an association
    from an existing type."""
    label = ScalarType("string", 20)
    return [
        AddTypeDefinition("ProbeA"),
        AddTypeDefinition("ProbeB"),
        AddAttribute("ProbeA", label, "label"),
        ModifyAttributeSize("ProbeA", "label", 20, 30),
        AddAttribute("ProbeA", ScalarType("long"), "code"),
        DeleteAttribute("ProbeA", "code"),
        AddRelationship("ProbeA", set_of("ProbeB"), "to_b", "ProbeB", "from_a"),
        DeleteRelationship("ProbeA", "to_b"),
        AddOperation("ProbeA", ScalarType("long"), "probe_op"),
        DeleteOperation("ProbeA", "probe_op"),
        AddPartOfRelationship(
            "ProbeA", set_of("ProbeB"), "parts", "ProbeB", "whole"
        ),
        DeletePartOfRelationship("ProbeA", "parts"),
        AddInstanceOfRelationship(
            "ProbeB", set_of("ProbeA"), "instances", "ProbeA", "generic"
        ),
        DeleteInstanceOfRelationship("ProbeB", "instances"),
        AddSupertype("ProbeB", "ProbeA"),
        DeleteSupertype("ProbeB", "ProbeA"),
        AddExtentName("ProbeA", "probe_a_extent"),
        ModifyExtentName("ProbeA", "probe_a_extent", "probe_a_all"),
        DeleteExtentName("ProbeA", "probe_a_all"),
        AddKeyList("ProbeA", ("label",)),
        DeleteKeyList("ProbeA", ("label",)),
        AddSupertype("ProbeB", "ProbeA"),
        AddPartOfRelationship(
            "ProbeA", set_of("ProbeB"), "parts", "ProbeB", "whole"
        ),
        AddRelationship(
            "Type001", set_of("ProbeA"), "to_probe", "ProbeA", "from_t1"
        ),
        DeleteTypeDefinition("ProbeA"),
    ]


class TestApplyIsOChanged:
    @staticmethod
    def _visits(monkeypatch, types: int) -> int:
        schema = generate_schema(
            WorkloadSpec(
                types=types, seed=1, isa_fraction=0.45,
                part_of_chain=50, instance_of_chain=25,
            )
        )
        repository = SchemaRepository(schema)
        visited = [0]
        for method in ("type_names", "__iter__"):
            original = getattr(Schema, method)

            def counting(self, _original=original):
                visited[0] += len(self.interfaces)
                return _original(self)

            monkeypatch.setattr(Schema, method, counting)
        workspace = repository.workspace
        entries = []
        for op in _fixed_ops():
            entries.append(repository.apply(op))
            workspace.issues  # the designer's per-edit validation
        monkeypatch.undo()
        assert len(entries) == len(_fixed_ops())
        assert len(entries[-1].plan) > 1  # the deletion cascaded
        assert workspace.issues == validate_schema(workspace.schema)
        return visited[0]

    def test_interfaces_visited_do_not_grow_with_the_schema(
        self, monkeypatch
    ):
        small = self._visits(monkeypatch, 200)
        large = self._visits(monkeypatch, 400)
        assert small == large
