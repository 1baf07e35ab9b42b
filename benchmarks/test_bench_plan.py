"""Whole-plan application and analyzer overhead.

Two measurements, merged into the bench trajectory JSON:

* **Per-op vs whole-plan application** at shrink-wrap scale: applying
  a 100-op plan through :meth:`Workspace.apply` and reading
  :attr:`Workspace.issues` after every op validates per op;
  :meth:`Workspace.apply_plan` runs the static analyzer once, applies
  every op through the same engine, and one read of the issues
  validates once at the end.  The two paths are asserted
  fingerprint-identical (the bench doubles as a differential), then
  timed.  Floor: parity (>= 0.9x) at 200 types / 100 ops.  The
  original floor was >= 2x, but most of that gap was the per-op path
  paying an *eager propagation scratch copy* per operation --
  copy-on-write forks collapsed that tax, so at 200 types the two paths
  now tie; the scaling floors of ``apply_plan`` live in
  ``test_bench_compact.py`` / ``test_bench_columnar.py``.
* **Analyzer overhead**: :func:`~repro.analysis.plan.analyze_plan` on
  the same plan, alone, as a fraction of the naive apply time -- the
  pre-flight must stay a small add-on, not a second apply loop.
"""

from __future__ import annotations

import os
import time

from repro.analysis.plan import analyze_plan
from repro.model.fingerprint import schema_fingerprint
from repro.repository.workspace import Workspace
from repro.workload.generator import (
    WorkloadSpec,
    generate_operations,
    generate_schema,
)

from benchmarks.test_bench_spine import _median_time

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
STRICT = not SMOKE
SIZE = 60 if SMOKE else 200
PLAN_OPS = 30 if SMOKE else 100
REPEATS = 3 if SMOKE else 5


def _workload():
    spec = WorkloadSpec(
        types=SIZE,
        seed=42,
        isa_fraction=0.45,
        part_of_chain=max(4, SIZE // 4),
        instance_of_chain=max(3, SIZE // 8),
    )
    schema = generate_schema(spec)
    plan = generate_operations(schema, PLAN_OPS, seed=11)
    return schema, plan


def test_bench_plan_whole_vs_naive(report, record_bench):
    """apply_plan (validate once) vs apply (validate per op)."""
    schema, plan = _workload()

    def naive():
        workspace = Workspace(schema, "naive")
        for operation in plan:
            workspace.apply(operation)
            workspace.issues
        return workspace

    def whole():
        workspace = Workspace(schema, "whole")
        workspace.apply_plan(plan)
        workspace.issues
        return workspace

    assert schema_fingerprint(naive().schema) == schema_fingerprint(
        whole().schema
    ), "apply_plan diverged from naive per-op application"

    naive_time = _median_time(naive, repeats=REPEATS)
    whole_time = _median_time(whole, repeats=REPEATS)
    speedup = naive_time / whole_time if whole_time else float("inf")

    record_bench(f"plan_naive[{SIZE}x{PLAN_OPS}]", naive_time, types=SIZE)
    record_bench(f"plan_whole[{SIZE}x{PLAN_OPS}]", whole_time, types=SIZE)
    lines = [
        "plan application: per-op validation vs one validation per plan",
        f"mode: {'smoke' if SMOKE else 'full'}; {SIZE} types, "
        f"{len(plan)}-op plan",
        "",
        f"naive (apply, validate/op):       {naive_time * 1e3:9.3f}ms",
        f"whole (apply_plan, validate/plan): {whole_time * 1e3:9.3f}ms",
        f"speedup:                          {speedup:9.2f}x "
        "(floor at 200 types / 100 ops: parity, >= 0.9x)",
    ]
    report("plan_batched_vs_naive", "\n".join(lines))
    # Parity guard: since CoW forks removed the per-op scratch-copy tax,
    # whole-plan application no longer wins at 200 types -- but it must
    # never *lose* to per-op application either.
    floor = 0.9 if STRICT else 0.75
    assert speedup >= floor, (
        f"apply_plan at {SIZE} types / {len(plan)} ops fell to "
        f"{speedup:.2f}x of per-op application (floor {floor:.2f}x)"
    )


def test_bench_plan_analyzer_overhead(report, record_bench):
    """Static analysis cost as a fraction of actually applying the plan."""
    schema, plan = _workload()

    analyze_time = _median_time(
        lambda: analyze_plan(plan, schema), repeats=REPEATS
    )

    def naive():
        workspace = Workspace(schema, "overhead_naive")
        for operation in plan:
            workspace.apply(operation)
            workspace.issues

    naive_time = _median_time(naive, repeats=REPEATS)
    fraction = analyze_time / naive_time if naive_time else 0.0

    record_bench(
        f"plan_analyze[{SIZE}x{PLAN_OPS}]", analyze_time, types=SIZE
    )
    record_bench("plan_analyze_fraction", fraction)
    lines = [
        "static plan analysis vs applying the plan",
        f"mode: {'smoke' if SMOKE else 'full'}; {SIZE} types, "
        f"{len(plan)}-op plan",
        "",
        f"analyze_plan: {analyze_time * 1e3:9.3f}ms",
        f"naive apply:  {naive_time * 1e3:9.3f}ms",
        f"fraction:     {fraction * 100:9.2f}%",
    ]
    report("plan_analyzer_overhead", "\n".join(lines))
    # Pre-flight must stay much cheaper than running the plan.
    assert fraction <= 0.5, (
        f"analyze_plan costs {fraction * 100:.0f}% of applying the plan"
    )
