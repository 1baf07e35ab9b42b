"""Per-operation validation: incremental dirty-set engine vs full scan.

The paper's loop (Figure 1) validates the custom schema after *every*
operation.  At shrink-wrap scale that per-step full scan dominates the
workspace hot loop, so PR 3 adds the dirty-set engine
(:class:`repro.model.validation_cache.ValidationCache`): each operation's
declared scope plus the interface mutator hooks mark a dirty set, and
only that set (expanded by rule reach) is re-checked.

This bench replays a seeded operation stream against generated workload
schemas at 60-400 interfaces and times the validation call alone, per
step: ``schema.validation.validate()`` on one copy vs the preserved
``validate_schema`` reference on a twin copy applying the same stream.
Equality of the two issue lists is asserted at every step -- the bench
doubles as an end-to-end differential check (the fuzzer carries the same
comparison as the ``incremental-vs-full-validation`` invariant).

Acceptance floor (ISSUE 3): >= 10x at 200 interfaces.  ``make
bench-smoke`` runs the reduced configuration (``REPRO_BENCH_SMOKE=1``:
small sizes, relaxed floor) as a fast regression tripwire.
"""

from __future__ import annotations

import os
import time

from repro.knowledge.propagation import expand
from repro.model.schema import Schema
from repro.model.validation import validate_schema
from repro.ops.base import OperationContext
from repro.workload.generator import (
    WorkloadSpec,
    generate_operations,
    generate_schema,
)

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
SIZES = (20, 60) if SMOKE else (60, 200, 400)
#: sizes at which the ISSUE's >= 10x floor is enforced
STRICT_SIZE = 200
OPERATIONS = 30 if SMOKE else 120


def _schema(size: int) -> Schema:
    spec = WorkloadSpec(
        types=size,
        seed=42,
        isa_fraction=0.45,
        part_of_chain=max(4, size // 4),
        instance_of_chain=max(3, size // 8),
    )
    return generate_schema(spec)


def _measure(size: int) -> tuple[float, float, dict[str, int], int]:
    """(incremental s, full-scan s, validation counters, steps) at *size*.

    Both copies apply the identical expanded plan; only the validation
    call is timed, accumulated across the whole stream -- exactly the
    per-step cost the workspace loop pays.
    """
    reference = _schema(size)
    operations = generate_operations(reference, OPERATIONS, seed=11)

    incremental = reference.copy("incremental")
    scanned = reference.copy("scanned")
    context = OperationContext(reference=reference)

    incremental.validation.validate()  # build once; steady state is what recurs
    incremental.validation.reset_stats()

    incremental_time = 0.0
    scan_time = 0.0
    steps = 0
    for operation in operations:
        plan = expand(incremental, operation, context)
        for step in plan:
            step.apply(incremental, context)
            step.apply(scanned, context)
            steps += 1

            start = time.perf_counter()
            fast = incremental.validation.validate()
            incremental_time += time.perf_counter() - start

            start = time.perf_counter()
            slow = validate_schema(scanned)
            scan_time += time.perf_counter() - start

            assert fast == slow, (
                f"incremental validation diverged from the full scan after "
                f"{steps} steps at {size} interfaces"
            )
    return incremental_time, scan_time, incremental.validation.stats(), steps


def test_bench_validation_scaling(report, record_bench):
    lines = [
        "per-operation validation: dirty-set engine vs full-scan reference",
        f"mode: {'smoke' if SMOKE else 'full'}; {OPERATIONS} requested "
        "operations, validation timed per applied step",
        "",
        f"{'size':>5} {'steps':>6} {'incremental':>13} {'full scan':>12} "
        f"{'speedup':>9} {'revalidated':>12}",
    ]
    floors_checked = []
    for size in SIZES:
        incremental_time, scan_time, stats, steps = _measure(size)
        speedup = scan_time / incremental_time if incremental_time else float("inf")
        lines.append(
            f"{size:>5} {steps:>6} {incremental_time * 1e3:>11.3f}ms "
            f"{scan_time * 1e3:>10.3f}ms {speedup:>8.1f}x "
            f"{stats['interfaces_revalidated']:>12}"
        )
        lines.append(
            f"      counters: incremental={stats['incremental_validations']} "
            f"clean_hits={stats['clean_hits']} "
            f"full={stats['full_validations']} "
            f"reused={stats['interfaces_reused']}"
        )
        record_bench(
            f"validation_per_op_incremental[{size}]",
            incremental_time / steps,
            types=size,
        )
        record_bench(
            f"validation_per_op_full_scan[{size}]",
            scan_time / steps,
            types=size,
        )
        if size >= STRICT_SIZE:
            floors_checked.append((size, speedup))
            assert speedup >= 10.0, (
                f"validation at {size} interfaces: only {speedup:.1f}x over "
                "the full-scan reference (>= 10x required)"
            )
        elif SMOKE:
            # reduced configuration: regressions that erase the win
            # entirely should still trip the smoke run
            assert speedup >= 1.5, (
                f"validation at {size} interfaces: {speedup:.1f}x; the "
                "dirty-set engine no longer beats the scan in smoke mode"
            )
        # the engine must actually run incrementally: after the initial
        # build, the stream must never force a second full rebuild
        assert stats["full_validations"] == 0, stats
        assert stats["incremental_validations"] >= 1, stats
    lines.append("")
    if floors_checked:
        lines.append(
            "floor: >= 10.0x enforced at "
            + ", ".join(f"{s} types" for s, _ in floors_checked)
        )
    report("validation_scaling", "\n".join(lines))


def test_bench_validation_counters_surface():
    """Schema.stats() carries the hit/miss counters the report quotes."""
    schema = _schema(SIZES[0])
    schema.validation.validate()
    schema.get(schema.type_names()[0]).add_key(("attr1",))
    schema.validation.validate()
    schema.validation.validate()
    stats = schema.stats()
    assert stats["validation.full"] >= 1
    assert stats["validation.incremental"] >= 1
    assert stats["validation.clean_hits"] >= 1
    assert stats["validation.revalidated"] >= 1
