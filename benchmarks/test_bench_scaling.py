"""Scaling characterisation (no paper counterpart).

Decomposition, union reconstruction, structural validation, ODL
round-trip, and mapping generation as functions of schema size, on
synthetic shrink wrap schemas.  The paper reports no performance
numbers; this bench documents that the implementation stays interactive
at realistic schema sizes (the ACEDB schema family is ~10-60 classes; we
sweep far beyond).
"""

import pytest

from repro.analysis.diff import diff_schemas
from repro.concepts.base import ConceptKind
from repro.concepts.decompose import decompose, reconstruct
from repro.model.fingerprint import schemas_equal
from repro.model.validation import validate_schema
from repro.odl.parser import parse_schema
from repro.odl.printer import print_schema
from repro.workload.generator import WorkloadSpec, generate_schema

SIZES = (25, 100, 400)


def _schema(size: int):
    return generate_schema(WorkloadSpec(types=size, seed=42))


@pytest.mark.parametrize("size", SIZES)
def test_bench_decompose(benchmark, size):
    """Times the full extraction: ``decompose`` alone only forks the
    schema, and each concept is extracted when first asked for."""
    schema = _schema(size)
    concepts = benchmark(lambda: decompose(schema).all_concepts())
    wheels = [c for c in concepts if c.kind is ConceptKind.WAGON_WHEEL]
    assert len(wheels) == size


@pytest.mark.parametrize("size", SIZES)
def test_bench_reconstruct(benchmark, size):
    schema = _schema(size)
    decomposition = decompose(schema)
    rebuilt = benchmark(reconstruct, decomposition)
    assert schemas_equal(schema, rebuilt)


@pytest.mark.parametrize("size", SIZES)
def test_bench_validate(benchmark, size):
    schema = _schema(size)
    issues = benchmark(validate_schema, schema)
    assert not [issue for issue in issues if issue.severity == "error"]


@pytest.mark.parametrize("size", SIZES)
def test_bench_odl_round_trip(benchmark, size):
    schema = _schema(size)

    def round_trip():
        return parse_schema(print_schema(schema), name=schema.name)

    reparsed = benchmark(round_trip)
    assert schemas_equal(schema, reparsed)


@pytest.mark.parametrize("size", SIZES)
def test_bench_mapping_generation(benchmark, size):
    schema = _schema(size)
    custom = schema.copy("custom")
    custom.remove_interface(custom.type_names()[-1])
    diff = benchmark(diff_schemas, schema, custom)
    assert diff.counts()["deleted"] >= 1
