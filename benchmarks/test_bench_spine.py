"""The mutation spine's costs and payoffs (ISSUE 4).

Three measurements, all merged into the bench trajectory JSON:

* **Per-op spine overhead** on the PR 3 validation workload: every
  mutator now lands a :class:`~repro.model.mutation.MutationRecord` on
  the schema's log and notifies the subscribers (dirty journal).  The
  bench replays the same seeded operation stream as
  ``test_bench_validation`` timing the full apply+validate hot loop,
  counts the records the stream emitted, and prices them with the
  median per-emit cost measured on a log with the same subscriber
  fan-out.  Floor (ISSUE 4): spine cost <= 10% of the per-op loop.
* **Fork vs deep-copy** at 200 types: :meth:`Schema.fork` is a shallow
  structural copy plus an O(1) lineage link; ``copy.deepcopy`` is the
  pre-spine way to branch.  Floor (ISSUE 4): >= 10x at 200 types.
* **Log-diff vs structural diff**: :func:`~repro.analysis.diff.
  schema_diff` walks only the types the divergence suffixes name;
  :func:`~repro.analysis.diff.diff_schemas` walks everything.  The two
  changed sets are asserted equal -- the bench doubles as the
  record-level diff's differential check.
"""

from __future__ import annotations

import copy
import os
import statistics
import time

from repro.analysis.diff import diff_schemas, schema_diff
from repro.knowledge.propagation import expand
from repro.model.attributes import Attribute
from repro.model.mutation import Aspect, DirtyJournal, MutationLog
from repro.model.schema import Schema
from repro.model.types import scalar
from repro.ops.base import OperationContext
from repro.workload.generator import (
    WorkloadSpec,
    generate_operations,
    generate_schema,
)

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
FORK_SIZE = 60 if SMOKE else 200
#: the ISSUE floors are enforced only at full scale
STRICT = not SMOKE
OPERATIONS = 20 if SMOKE else 80
REPEATS = 3 if SMOKE else 7


def _schema(size: int) -> Schema:
    spec = WorkloadSpec(
        types=size,
        seed=42,
        isa_fraction=0.45,
        part_of_chain=max(4, size // 4),
        instance_of_chain=max(3, size // 8),
    )
    return generate_schema(spec)


def _median_time(action, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        action()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _per_emit_cost(subscriber_count: int) -> float:
    """Median seconds per ``MutationLog.emit`` at the live fan-out."""
    log = MutationLog()
    for _ in range(subscriber_count):
        log.subscribe(DirtyJournal().observe)
    aspects = frozenset({Aspect.ATTRS})
    rounds = 2_000 if SMOKE else 10_000

    def burst() -> None:
        for index in range(rounds):
            log.emit(
                "add_attribute",
                interface="T",
                aspects=aspects,
                payload={"attribute": index},
            )

    return _median_time(burst) / rounds


def test_bench_spine_overhead_per_op(report, record_bench):
    """Record-emission cost as a fraction of the validation hot loop."""
    size = FORK_SIZE
    reference = _schema(size)
    operations = generate_operations(reference, OPERATIONS, seed=11)
    schema = reference.copy("spined")
    context = OperationContext(reference=reference)
    schema.validation.validate()

    records_before = len(schema.log)
    loop_time = 0.0
    steps = 0
    for operation in operations:
        plan = expand(schema, operation, context)
        for step in plan:
            start = time.perf_counter()
            step.apply(schema, context)
            schema.validation.validate()
            loop_time += time.perf_counter() - start
            steps += 1
    records = len(schema.log) - records_before

    per_emit = _per_emit_cost(schema.log.subscriber_count)
    spine_time = records * per_emit
    overhead = spine_time / loop_time if loop_time else 0.0

    record_bench(
        f"spine_overhead_fraction[{size}]", overhead, types=size
    )
    record_bench("spine_emit_seconds", per_emit)
    lines = [
        "mutation-spine overhead on the per-op validation loop",
        f"mode: {'smoke' if SMOKE else 'full'}; {steps} applied steps, "
        f"{records} records emitted ({records / steps:.1f}/step)",
        "",
        f"hot loop total:   {loop_time * 1e3:9.3f}ms "
        f"({loop_time / steps * 1e6:8.1f}us/step)",
        f"per-emit cost:    {per_emit * 1e6:9.3f}us "
        f"(at fan-out {schema.log.subscriber_count})",
        f"spine total:      {spine_time * 1e3:9.3f}ms",
        f"overhead:         {overhead * 100:9.2f}% (floor: <= 10%)",
    ]
    report("spine_overhead", "\n".join(lines))
    assert overhead <= 0.10, (
        f"spine emission is {overhead * 100:.1f}% of the per-op loop "
        "(<= 10% required)"
    )


def test_bench_fork_vs_deepcopy(report, record_bench):
    """Schema.fork vs copy.deepcopy at shrink-wrap scale."""
    schema = _schema(FORK_SIZE)
    fork_time = _median_time(lambda: schema.fork("branch"))
    deep_time = _median_time(lambda: copy.deepcopy(schema))
    speedup = deep_time / fork_time if fork_time else float("inf")

    record_bench(f"fork[{FORK_SIZE}]", fork_time, types=FORK_SIZE)
    record_bench(f"deepcopy[{FORK_SIZE}]", deep_time, types=FORK_SIZE)
    lines = [
        "workspace branching: Schema.fork vs copy.deepcopy",
        f"mode: {'smoke' if SMOKE else 'full'}; {FORK_SIZE} types",
        "",
        f"fork:     {fork_time * 1e3:9.3f}ms",
        f"deepcopy: {deep_time * 1e3:9.3f}ms",
        f"speedup:  {speedup:9.1f}x (floor at 200 types: >= 10x)",
    ]
    report("fork_vs_deepcopy", "\n".join(lines))
    if STRICT:
        assert speedup >= 10.0, (
            f"fork at {FORK_SIZE} types: only {speedup:.1f}x over deepcopy "
            "(>= 10x required)"
        )
    else:
        assert speedup >= 2.0, (
            f"fork no longer beats deepcopy in smoke mode ({speedup:.1f}x)"
        )


def test_bench_log_diff_vs_structural(report, record_bench):
    """Record-level schema_diff vs the full structural walk."""
    schema = _schema(FORK_SIZE)
    branch = schema.fork("branch")
    touched = branch.type_names()[:5]
    for position, name in enumerate(touched):
        branch.get(name).add_attribute(
            Attribute(f"spine_extra_{position}", scalar("long"))
        )

    def changed_keys(diff):
        return {(e.category, e.path, e.status.value) for e in diff.changed()}

    assert changed_keys(schema_diff(schema, branch)) == changed_keys(
        diff_schemas(schema, branch)
    )

    fast_time = _median_time(lambda: schema_diff(schema, branch))
    slow_time = _median_time(lambda: diff_schemas(schema, branch))
    speedup = slow_time / fast_time if fast_time else float("inf")

    record_bench(f"log_diff[{FORK_SIZE}]", fast_time, types=FORK_SIZE)
    record_bench(
        f"structural_diff[{FORK_SIZE}]", slow_time, types=FORK_SIZE
    )
    lines = [
        "branch diffing: record-level schema_diff vs structural walk",
        f"mode: {'smoke' if SMOKE else 'full'}; {FORK_SIZE} types, "
        f"{len(touched)} touched",
        "",
        f"schema_diff (log):     {fast_time * 1e3:9.3f}ms",
        f"diff_schemas (walk):   {slow_time * 1e3:9.3f}ms",
        f"speedup:               {speedup:9.1f}x",
    ]
    report("log_diff_vs_structural", "\n".join(lines))
    # The restricted walk must not lose to the full one.
    assert speedup >= 1.0, (
        f"schema_diff is slower than the structural walk ({speedup:.2f}x)"
    )
