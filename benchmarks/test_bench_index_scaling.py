"""Index scaling: the graph store's queries vs the full-scan baseline.

The paper's pipeline (Figure 1) asks the schema graph the same questions
over and over -- subtypes for every wagon wheel, descendants for every
hierarchy root, parts explosions per aggregation root.  This bench
sweeps generated workload schemas at 20/60/200 interfaces and times an
all-types query sweep through the graph store behind ``Schema.index``
(:class:`~repro.model.columnar.ColumnarAdjacency`) against the
preserved ``scan_*`` full-scan reference implementations.

Acceptance floor (ISSUE 1): >= 5x on ``descendants`` and ``parts`` at
200 interfaces.  ``make bench-smoke`` runs the reduced configuration
(``REPRO_BENCH_SMOKE=1``: small sizes, relaxed floor) as a fast
regression tripwire; correctness of invalidation itself is tier-1
(``tests/test_schema_index.py``).
"""

from __future__ import annotations

import os
import time
from typing import Callable

import pytest

from repro.model.index import (
    scan_descendants,
    scan_parts,
    scan_subtypes,
    scan_wholes,
)
from repro.model.schema import Schema
from repro.workload.generator import WorkloadSpec, generate_schema

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
SIZES = (20, 60) if SMOKE else (20, 60, 200)
#: sizes at which the ISSUE's >= 5x floor is enforced
STRICT_SIZE = 200
REPEATS = 3 if SMOKE else 5


def _schema(size: int) -> Schema:
    # part_of/instance_of chains scale with the schema so the aggregation
    # queries have real work at every size.
    spec = WorkloadSpec(
        types=size,
        seed=42,
        isa_fraction=0.45,
        part_of_chain=max(4, size // 4),
        instance_of_chain=max(3, size // 8),
    )
    return generate_schema(spec)


def _best_of(fn: Callable[[], object], repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _sweep_cases(schema: Schema) -> dict[str, tuple[Callable, Callable]]:
    """query family -> (indexed sweep, full-scan sweep) over all types."""
    names = schema.type_names()
    return {
        "subtypes": (
            lambda: [schema.subtypes(n) for n in names],
            lambda: [scan_subtypes(schema, n) for n in names],
        ),
        "descendants": (
            lambda: [schema.descendants(n) for n in names],
            lambda: [scan_descendants(schema, n) for n in names],
        ),
        "parts": (
            lambda: [schema.parts(n) for n in names],
            lambda: [scan_parts(schema, n) for n in names],
        ),
        "wholes": (
            lambda: [schema.wholes(n) for n in names],
            lambda: [scan_wholes(schema, n) for n in names],
        ),
    }


def _measure(size: int) -> dict[str, tuple[float, float, float]]:
    """family -> (indexed seconds, scan seconds, speedup) at *size*."""
    schema = _schema(size)
    results: dict[str, tuple[float, float, float]] = {}
    for family, (indexed, scanned) in _sweep_cases(schema).items():
        indexed()  # warm the cache: steady-state queries are what recur
        indexed_time = _best_of(indexed)
        scan_time = _best_of(scanned)
        speedup = scan_time / indexed_time if indexed_time else float("inf")
        results[family] = (indexed_time, scan_time, speedup)
    return results


def test_bench_index_scaling(report):
    lines = [
        "schema-graph query scaling: graph store vs full-scan baseline",
        f"mode: {'smoke' if SMOKE else 'full'}; all-types sweep, "
        f"best of {REPEATS}",
        "",
        f"{'size':>5} {'query':<20} {'indexed':>12} {'full scan':>12} "
        f"{'speedup':>9}",
    ]
    floors_checked = []
    for size in SIZES:
        results = _measure(size)
        for family, (indexed_time, scan_time, speedup) in results.items():
            lines.append(
                f"{size:>5} {family:<20} {indexed_time * 1e3:>10.3f}ms "
                f"{scan_time * 1e3:>10.3f}ms {speedup:>8.1f}x"
            )
            if size >= STRICT_SIZE and family in ("descendants", "parts"):
                floors_checked.append((size, family, speedup))
                assert speedup >= 5.0, (
                    f"{family} at {size} interfaces: only {speedup:.1f}x "
                    "over the full-scan baseline (>= 5x required)"
                )
            elif SMOKE and size >= 60 and family in ("descendants", "parts"):
                # reduced configuration: regressions that erase the win
                # entirely should still trip the smoke run.  The
                # 20-interface point is excluded: queries there run in
                # single-digit microseconds, so the indexed-vs-scan
                # ratio is timer-noise-dominated and flaked around the
                # old floor on an idle machine.
                assert speedup >= 1.5, (
                    f"{family} at {size} interfaces: {speedup:.1f}x; the "
                    "index no longer beats the scan in the smoke sweep"
                )
        lines.append("")
    if floors_checked:
        lines.append(
            "floor: >= 5.0x enforced for "
            + ", ".join(f"{f}@{s}" for s, f, _ in floors_checked)
        )
    report("index_scaling", "\n".join(lines))


def test_bench_index_invalidation_cost(report):
    """Mutation-heavy sweep: invalidation must not erase the win.

    Alternates one mutation with a small query batch -- the worst case
    for a memoized index -- and reports the per-iteration cost against
    the scan baseline doing the same work.
    """
    size = SIZES[-1]
    schema = _schema(size)
    names = schema.type_names()
    probe = names[: max(4, len(names) // 10)]

    def churn_indexed() -> None:
        for i, name in enumerate(probe):
            interface = schema.get(name)
            interface.add_key((f"attr{1 + i % 3}",))
            interface.remove_key((f"attr{1 + i % 3}",))
            for other in probe:
                schema.descendants(other)
                schema.parts(other)

    def churn_scanned() -> None:
        for i, name in enumerate(probe):
            interface = schema.get(name)
            interface.add_key((f"attr{1 + i % 3}",))
            interface.remove_key((f"attr{1 + i % 3}",))
            for other in probe:
                scan_descendants(schema, other)
                scan_parts(schema, other)

    indexed_time = _best_of(churn_indexed)
    scan_time = _best_of(churn_scanned)
    ratio = scan_time / indexed_time if indexed_time else float("inf")
    report(
        "index_invalidation_cost",
        "\n".join(
            [
                "mutation-interleaved sweep (worst case for memoization)",
                f"size {size}: indexed {indexed_time * 1e3:.3f}ms, "
                f"full scan {scan_time * 1e3:.3f}ms, ratio {ratio:.1f}x",
            ]
        ),
    )
    # Even while churning, rebuild-per-generation must stay cheaper than
    # scanning per query.
    assert ratio >= 1.0


@pytest.mark.parametrize("size", SIZES)
def test_bench_index_counters_accumulate(size):
    """The instrumentation itself: counters move as queries run."""
    schema = _schema(size)
    schema.index.reset_stats()
    for name in schema.type_names():
        schema.descendants(name)
    stats = schema.index.stats()
    assert stats["misses"] >= 1
    assert stats["hits"] >= len(schema) - 1
    # ISA rows and declaration positions are folded incrementally from
    # the spine, so a mutation costs a fold, not a rebuild -- the
    # ordered subtype listing included; only a lossy record forces a
    # (counted) rescan.
    schema.subtypes(schema.type_names()[0])
    schema.get(schema.type_names()[0]).add_supertype("NoSuchSupertype")
    schema.descendants(schema.type_names()[-1])
    schema.subtypes(schema.type_names()[0])
    assert schema.index.stats()["rebuilds"] == 0
    schema.touch()
    schema.subtypes(schema.type_names()[0])
    assert schema.index.stats()["rebuilds"] == 1
