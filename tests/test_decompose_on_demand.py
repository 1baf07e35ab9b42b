"""The on-demand decomposition answers exactly like the eager one.

:func:`repro.concepts.decompose.decompose` extracts nothing up front; it
keeps a copy-on-write snapshot of the schema and extracts each concept
the first time a query needs it.  The differential below holds every
query to the eager reference in ``tests/decompose_reference.py`` on the
catalog schemas and on generated ones: with views added before and after
the first lookup, and after the source schema mutates behind the
decomposition.  The counting tests pin what the laziness buys: opening
a repository extracts no wagon wheel, and an impact report extracts only
the wheels that can hold an affected type.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import SCHEMA_BUILDERS, load
from repro.concepts import wagon_wheel
from repro.concepts.base import ConceptKind
from repro.concepts.decompose import decompose
from repro.concepts.generalization import extract_generalization_hierarchy
from repro.concepts.wagon_wheel import extract_wagon_wheel_view
from repro.knowledge.impact import impact_of
from repro.model.attributes import Attribute
from repro.model.errors import SchemaError
from repro.model.interface import InterfaceDef
from repro.model.schema import Schema
from repro.model.types import scalar
from repro.ops.language import parse_operation
from repro.repository.repository import SchemaRepository
from repro.workload.generator import WorkloadSpec, generate_schema
from tests.decompose_reference import reference_decompose

UNKNOWN_IDENTIFIERS = (
    "ww:NoSuchType", "gh:NoSuchType", "ah:NoSuchType", "ih:NoSuchType",
    "ww:NoSuchType#view", "nonsense",
)


def _identifiers(concepts) -> list[str]:
    return [concept.identifier for concept in concepts]


def _assert_point_lookups(lazy, reference, names) -> None:
    for name in (*names, "NoSuchType"):
        expected = reference.concepts_covering(name)
        covering = lazy.concepts_covering(name)
        assert _identifiers(covering) == _identifiers(expected), name
        assert covering == expected, name
    for concept in reference.all_concepts():
        assert lazy.by_identifier(concept.identifier) == concept
    for identifier in UNKNOWN_IDENTIFIERS:
        with pytest.raises(SchemaError):
            reference.by_identifier(identifier)
        with pytest.raises(SchemaError):
            lazy.by_identifier(identifier)


def _assert_full_view(lazy, reference) -> None:
    expected = reference.all_concepts()
    assert _identifiers(lazy.all_concepts()) == _identifiers(expected)
    assert lazy.all_concepts() == expected
    assert lazy.count() == len(expected)
    for kind in ConceptKind:
        assert lazy.of_kind(kind) == reference.of_kind(kind)
    assert lazy.wagon_wheels == reference.wagon_wheels
    assert lazy.generalizations == reference.generalizations
    assert lazy.aggregations == reference.aggregations
    assert lazy.instance_ofs == reference.instance_ofs
    assert lazy.summary() == reference.summary()
    assert lazy.schema_name == reference.schema_name


def assert_matches(lazy, reference, names) -> None:
    """Point lookups first (on whatever is extracted so far), then the
    forced full view, then the point lookups again."""
    _assert_point_lookups(lazy, reference, names)
    _assert_full_view(lazy, reference)
    _assert_point_lookups(lazy, reference, names)


def _extra_concepts(schema: Schema) -> list:
    """Concepts a designer might add: two views, a view on a type the
    schema lacks, and a sub-hierarchy below a real root."""
    names = schema.type_names()
    grown = schema.copy()
    grown.add_interface(InterfaceDef("Grafted", supertypes=[names[0]]))
    concepts = [
        extract_wagon_wheel_view(schema, names[0], "probe"),
        extract_wagon_wheel_view(schema, names[-1], "probe", spoke_paths=()),
        extract_wagon_wheel_view(grown, "Grafted", "probe"),
    ]
    inner = next(
        (
            name for name in names
            if schema.subtypes(name) and schema.ancestors(name)
        ),
        None,
    )
    if inner is not None:
        concepts.append(extract_generalization_hierarchy(schema, inner))
    return concepts


def _mutate(schema: Schema) -> None:
    """Edit the source through the spine: an attribute, a supertype
    list, a removal and a new subtype."""
    names = schema.type_names()
    schema.get(names[0]).add_attribute(Attribute("probe", scalar("long")))
    schema.get(names[1]).set_supertypes([])
    schema.remove_interface(names[-1])
    schema.add_interface(InterfaceDef("Newcomer", supertypes=[names[0]]))


def check_all_scenarios(build) -> None:
    names = build().type_names()
    probes = [*names, "Grafted", "Newcomer"]

    schema = build()
    assert_matches(decompose(schema), reference_decompose(schema), probes)

    # Views added before the first lookup.
    schema = build()
    lazy, reference = decompose(schema), reference_decompose(schema)
    for concept in _extra_concepts(schema):
        lazy.add_concept(concept)
        reference.add_concept(concept)
    assert_matches(lazy, reference, probes)

    # Views added after the first lookups.
    schema = build()
    lazy, reference = decompose(schema), reference_decompose(schema)
    lazy.concepts_covering(names[0])
    lazy.by_identifier(f"ww:{names[-1]}")
    for concept in _extra_concepts(schema):
        lazy.add_concept(concept)
        reference.add_concept(concept)
    assert_matches(lazy, reference, probes)

    # The source mutates after decompose: the answers stay as of then.
    schema = build()
    lazy, reference = decompose(schema), reference_decompose(schema)
    lazy.concepts_covering(names[1])
    _mutate(schema)
    for concept in _extra_concepts(build()):
        lazy.add_concept(concept)
        reference.add_concept(concept)
    assert_matches(lazy, reference, probes)


class TestMatchesTheEagerReference:
    @pytest.mark.parametrize("name", sorted(SCHEMA_BUILDERS))
    def test_catalog_schema(self, name):
        check_all_scenarios(lambda: load(name))

    @settings(max_examples=20, deadline=None)
    @given(
        types=st.integers(min_value=2, max_value=40),
        seed=st.integers(min_value=0, max_value=10_000),
        isa_chain=st.integers(min_value=0, max_value=6),
        hub_fanout=st.integers(min_value=0, max_value=8),
    )
    def test_generated_schema(self, types, seed, isa_chain, hub_fanout):
        spec = WorkloadSpec(
            types=types, seed=seed, isa_chain=min(isa_chain, types),
            hub_fanout=min(hub_fanout, types - 1),
        )
        check_all_scenarios(lambda: generate_schema(spec))

    @pytest.mark.parametrize("name", ["university", "lumber_yard", "acedb"])
    def test_impact_touches_the_same_concepts(self, name):
        repository = SchemaRepository(load(name))
        reference = reference_decompose(repository.shrink_wrap)
        workspace = repository.workspace
        for type_name in repository.shrink_wrap.type_names():
            operation = parse_operation(f"delete_type_definition({type_name})")
            expected = impact_of(
                workspace.schema, operation, workspace.context, reference
            )
            report = repository.impact(operation)
            assert report.touched_concepts == expected.touched_concepts


class TestSnapshot:
    def test_decompose_extracts_nothing(self, university):
        decomposition = decompose(university)
        assert decomposition._wheels == {}
        assert decomposition._hierarchies is None

    def test_full_build_keeps_sharing_the_source(self, university):
        """Wheels read the snapshot in place: forcing every concept
        materialises no interface copy in the snapshot."""
        decomposition = decompose(university)
        for wheel in decomposition.wagon_wheels:
            assert wheel.focal_interface is university.interfaces[wheel.focal]
        assert all(
            decomposition._snapshot.interfaces[name] is interface
            for name, interface in university.interfaces.items()
        )

    def test_extracted_wheel_keeps_its_pre_mutation_interface(self, university):
        decomposition = decompose(university)
        wheel = decomposition.by_identifier("ww:Person")
        university.get("Person").add_attribute(
            Attribute("nickname", scalar("string", 10))
        )
        assert "nickname" not in wheel.focal_interface.attributes
        later = decomposition.by_identifier("ww:Student")
        assert later.supertype_rim == ("Person",)

    def test_a_type_added_to_the_source_gets_no_wheel(self, university):
        decomposition = decompose(university)
        university.add_interface(InterfaceDef("Visitor", supertypes=["Person"]))
        with pytest.raises(SchemaError):
            decomposition.by_identifier("ww:Visitor")
        assert "Visitor" not in decomposition.by_identifier("gh:Person").members

    def test_duplicate_view_rejected(self, university):
        decomposition = decompose(university)
        view = extract_wagon_wheel_view(university, "Course", "naming")
        decomposition.add_concept(view)
        with pytest.raises(SchemaError):
            decomposition.add_concept(view)

    def test_duplicate_hierarchy_rejected(self, university):
        decomposition = decompose(university)
        with pytest.raises(SchemaError):
            decomposition.add_concept(
                extract_generalization_hierarchy(university, "Person")
            )


class TestExtractsOnDemand:
    """What opening a repository and asking for an impact report extract."""

    @staticmethod
    def _record_wheels(monkeypatch) -> list[str]:
        """Record the focal of every wheel extracted: the body shared by
        ``extract_wagon_wheel`` and ``extract_wagon_wheel_view``."""
        calls: list[str] = []
        original = wagon_wheel._share_wagon_wheel

        def counting(schema, focal):
            calls.append(focal)
            return original(schema, focal)

        monkeypatch.setattr(wagon_wheel, "_share_wagon_wheel", counting)
        return calls

    def test_open_and_one_view_extract_one_wheel(self, monkeypatch):
        schema = generate_schema(WorkloadSpec(types=200, seed=1))
        calls = self._record_wheels(monkeypatch)
        repository = SchemaRepository(schema)
        repository.create_wagon_wheel_view("Type007", "probe")
        assert calls == ["Type007"]

    def test_impact_extracts_only_candidate_wheels(self, monkeypatch):
        schema = generate_schema(WorkloadSpec(types=200, seed=1))
        target = max(
            schema.type_names(),
            key=lambda name: len(schema.index.referencers_of(name)),
        )
        calls = self._record_wheels(monkeypatch)
        repository = SchemaRepository(schema)
        report = repository.impact(
            parse_operation(f"delete_type_definition({target})")
        )
        candidates: set[str] = set()
        for name in report.affected_types:
            if name in schema.interfaces:
                candidates.add(name)
                candidates.update(schema.index.referencers_of(name))
                candidates.update(schema.interfaces[name].supertypes)
        assert calls
        assert set(calls) <= candidates
        assert len(calls) == len(set(calls))  # each wheel extracted once
