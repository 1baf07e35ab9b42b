"""Compact-representation scaling curve (ISSUE 6).

The compact model layer targets 10k+ type schemas: interned names,
``__slots__`` on the per-instance hot classes, and incremental
(record-folded) ISA / reverse-reference adjacency in the index.  This
bench records the types-axis curve of whole-plan application -- the
same 100-op seeded plan through :meth:`Workspace.apply_plan`
(pre-flight, one expand-and-apply pass with designer feedback, one
validation: a read of :attr:`Workspace.issues`) at 200 / 1 000 / 10 000
types -- and merges it into the current bench trajectory file.

Floor (enforced only at full scale): pre-flight + apply + validate of a
100-op plan on the 10 000-type schema in under 100 ms median.
"""

from __future__ import annotations

import os
import statistics
import time

from benchmarks.conftest import merge_bench_results
from repro.repository.workspace import Workspace
from repro.workload.generator import (
    WorkloadSpec,
    generate_operations,
    generate_schema,
)

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
#: the ISSUE floor is enforced only at full scale
STRICT = not SMOKE
SIZES = (60, 200) if SMOKE else (200, 1_000, 10_000)
PLAN_OPS = 20 if SMOKE else 100
REPEATS = 3 if SMOKE else 5
FLOOR_SECONDS = 0.100


def _subject(size: int) -> tuple[Workspace, list]:
    spec = WorkloadSpec(
        types=size,
        seed=42,
        isa_fraction=0.45,
        part_of_chain=min(100, max(4, size // 4)),
        instance_of_chain=min(50, max(3, size // 8)),
    )
    schema = generate_schema(spec)
    operations = list(generate_operations(schema, PLAN_OPS, seed=11))
    return Workspace(schema), operations


def _median_plan_time(apply_once, undo_all) -> float:
    """Median seconds of *apply_once*; state restored between reps.

    Both callables read the workspace's issues last: *apply_once* inside
    the timed region (the plan's one validation), *undo_all* outside it,
    so no rep folds an earlier rep's undos.
    """
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        entries = apply_once()
        times.append(time.perf_counter() - start)
        undo_all(entries)
    return statistics.median(times)


def test_bench_compact_plan_scaling(report):
    """200 / 1k / 10k curve of ``apply_plan`` on a 100-op plan."""
    rows = []
    results: dict[str, dict] = {}
    for size in SIZES:
        workspace, operations = _subject(size)

        def apply_once():
            entries = workspace.apply_plan(list(operations))
            workspace.issues
            return entries

        def undo_all(entries) -> None:
            for _ in range(len(entries)):
                workspace.undo_last()
            workspace.issues

        plan = _median_plan_time(apply_once, undo_all)
        rows.append((size, len(operations), plan))
        results[f"compact_plan[{size}]"] = {
            "median_seconds": plan,
            "types": size,
            "plan_ops": len(operations),
        }

    lines = [f"{'types':>7}  {'ops':>4}  {'apply_plan':>10}"]
    for size, ops, plan in rows:
        lines.append(f"{size:>7}  {ops:>4}  {plan * 1000:>8.1f}ms")
    report("compact_plan_scaling", "\n".join(lines))

    if not SMOKE:
        # The smoke tripwire must not clobber the full-scale curve.
        merge_bench_results(results)

    if STRICT:
        largest = rows[-1]
        assert largest[0] == 10_000
        assert largest[2] < FLOOR_SECONDS, (
            f"100-op plan at 10k types took "
            f"{largest[2] * 1000:.1f}ms median (floor {FLOOR_SECONDS * 1000:.0f}ms)"
        )
