"""Reference implementation of ``decompose``: the eager decomposition.

Extracts every wagon wheel and every hierarchy up front into four lists
and answers each query by scanning them.
:class:`repro.concepts.decompose.Decomposition` extracts each concept
from a copy-on-write snapshot the first time it is asked for and serves
its point lookups from maps; the differential tests in
``tests/test_decompose_on_demand.py`` require the two to give the same
answer to every query, also after the source schema has mutated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.concepts.aggregation import (
    AggregationHierarchy,
    extract_all_aggregation_hierarchies,
)
from repro.concepts.base import ConceptKind, ConceptSchema
from repro.concepts.generalization import (
    GeneralizationHierarchy,
    extract_all_generalization_hierarchies,
)
from repro.concepts.instance_of import (
    InstanceOfHierarchy,
    extract_all_instance_of_hierarchies,
)
from repro.concepts.wagon_wheel import WagonWheel, extract_all_wagon_wheels
from repro.model.errors import SchemaError
from repro.model.schema import Schema


@dataclass
class ReferenceDecomposition:
    """Every concept schema of one schema, held in four lists."""

    schema_name: str
    wagon_wheels: list[WagonWheel] = field(default_factory=list)
    generalizations: list[GeneralizationHierarchy] = field(default_factory=list)
    aggregations: list[AggregationHierarchy] = field(default_factory=list)
    instance_ofs: list[InstanceOfHierarchy] = field(default_factory=list)

    def all_concepts(self) -> list[ConceptSchema]:
        return [
            *self.wagon_wheels,
            *self.generalizations,
            *self.aggregations,
            *self.instance_ofs,
        ]

    def add_concept(self, concept: ConceptSchema) -> None:
        if not isinstance(concept, ConceptSchema):
            raise SchemaError(
                f"not a concept schema: {type(concept).__name__!r}"
            )
        existing = {c.identifier for c in self.all_concepts()}
        if concept.identifier in existing:
            raise SchemaError(
                f"decomposition already has a concept schema "
                f"{concept.identifier!r}"
            )
        if isinstance(concept, WagonWheel):
            self.wagon_wheels.append(concept)
        elif isinstance(concept, GeneralizationHierarchy):
            self.generalizations.append(concept)
        elif isinstance(concept, AggregationHierarchy):
            self.aggregations.append(concept)
        elif isinstance(concept, InstanceOfHierarchy):
            self.instance_ofs.append(concept)
        else:
            raise SchemaError(
                f"unknown concept schema type {type(concept).__name__!r}"
            )

    def by_identifier(self, identifier: str) -> ConceptSchema:
        for concept in self.all_concepts():
            if concept.identifier == identifier:
                return concept
        raise SchemaError(
            f"decomposition of {self.schema_name!r} has no concept schema "
            f"{identifier!r}"
        )

    def of_kind(self, kind: ConceptKind) -> list[ConceptSchema]:
        return [c for c in self.all_concepts() if c.kind is kind]

    def concepts_covering(self, type_name: str) -> list[ConceptSchema]:
        return [c for c in self.all_concepts() if c.covers_type(type_name)]

    def summary(self) -> str:
        lines = [f"decomposition of {self.schema_name}:"]
        lines.extend("  " + c.describe() for c in self.all_concepts())
        return "\n".join(lines)


def reference_decompose(schema: Schema) -> ReferenceDecomposition:
    """Extract every initial concept schema of *schema* now."""
    return ReferenceDecomposition(
        schema_name=schema.name,
        wagon_wheels=extract_all_wagon_wheels(schema),
        generalizations=extract_all_generalization_hierarchies(schema),
        aggregations=extract_all_aggregation_hierarchies(schema),
        instance_ofs=extract_all_instance_of_hierarchies(schema),
    )
