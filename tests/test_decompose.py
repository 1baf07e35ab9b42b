"""Unit tests for schema decomposition and reconstruction."""

import pytest

from repro.catalog import SCHEMA_BUILDERS
from repro.concepts.base import ConceptKind
from repro.concepts.decompose import decompose, reconstruct
from repro.model.errors import SchemaError
from repro.model.fingerprint import schemas_equal
from repro.model.schema import Schema
from repro.workload.generator import WorkloadSpec, generate_schema


class TestDecompose:
    def test_one_wagon_wheel_per_type(self, university):
        decomposition = decompose(university)
        assert len(decomposition.wagon_wheels) == len(university)

    def test_hierarchies_detected(self, university):
        decomposition = decompose(university)
        assert [h.root for h in decomposition.generalizations] == ["Person"]
        assert [h.root for h in decomposition.instance_ofs] == ["Course"]
        assert decomposition.aggregations == []

    def test_house_has_aggregation_concept(self, house):
        decomposition = decompose(house)
        assert [h.root for h in decomposition.aggregations] == ["House"]

    def test_by_identifier(self, university):
        decomposition = decompose(university)
        concept = decomposition.by_identifier("gh:Person")
        assert concept.kind is ConceptKind.GENERALIZATION

    def test_by_identifier_unknown(self, university):
        with pytest.raises(SchemaError):
            decompose(university).by_identifier("gh:Ghost")

    def test_of_kind(self, university):
        decomposition = decompose(university)
        wheels = decomposition.of_kind(ConceptKind.WAGON_WHEEL)
        assert len(wheels) == len(university)

    def test_concepts_covering(self, university):
        decomposition = decompose(university)
        covering = {
            c.identifier for c in decomposition.concepts_covering("Student")
        }
        assert "gh:Person" in covering
        assert "ww:Student" in covering
        assert "ww:Course_Offering" in covering  # Student is on its rim

    def test_summary_lists_all(self, university):
        decomposition = decompose(university)
        summary = decomposition.summary()
        for concept in decomposition.all_concepts():
            assert concept.identifier in summary


class TestReconstruct:
    @pytest.mark.parametrize("name", sorted(SCHEMA_BUILDERS))
    def test_union_equals_original(self, name):
        """Section 3.3.1: the union of the initial concept schemas gives
        the original shrink wrap schema."""
        schema = SCHEMA_BUILDERS[name]()
        rebuilt = reconstruct(decompose(schema))
        assert schemas_equal(schema, rebuilt)

    def test_reconstruct_rename(self, small):
        rebuilt = reconstruct(decompose(small), name="renamed")
        assert rebuilt.name == "renamed"
        assert schemas_equal(small, rebuilt)

    def test_reconstruct_valid(self, university):
        reconstruct(decompose(university)).validate()


class TestDecomposeIsLinear:
    """Whole-schema walks during a full decomposition must not grow with N.

    One wheel per type is inherent; a walk over every type name per
    wheel (the old ``set(schema.type_names())`` intersection) makes the
    decomposition quadratic.  Counting the walks guards that without a
    timing assertion.  ``decompose`` itself extracts nothing, so the
    count covers forcing every concept with ``all_concepts()``.
    """

    @staticmethod
    def _walks(monkeypatch, types: int) -> int:
        schema = generate_schema(WorkloadSpec(types=types, seed=3))
        calls = []
        for method in ("type_names", "__iter__"):
            original = getattr(Schema, method)

            def counting(self, _original=original):
                calls.append(1)
                return _original(self)

            monkeypatch.setattr(Schema, method, counting)
        decompose(schema).all_concepts()
        monkeypatch.undo()
        return len(calls)

    def test_walk_count_independent_of_size(self, monkeypatch):
        small = self._walks(monkeypatch, 200)
        large = self._walks(monkeypatch, 400)
        assert small == large
        assert small < 50
