"""Copy-on-write fork curve: shared-interface branches (ISSUE 9).

PR 9 turns ``Schema.fork`` into copy-on-write (DESIGN 5j): a fork
shares every ``InterfaceDef`` and the columnar adjacency with its
parent, and pays for divergence per *touched* interface instead of per
type.  This bench records the copy/fork/propagation-scratch curve the
ISSUE asks for at 200 / 1k / 10k / 100k types:

* ``copy_eager``     -- ``Schema.copy``, the O(types) executable
  reference spec the ``cow-vs-eager-copy`` invariant pins forks to;
* ``fork``           -- the CoW branch (shared interfaces dict +
  columnar overlay view), released after each rep;
* ``first_edit``     -- the first mutator on a fresh fork: one
  materialise-on-write fault plus the borrow barrier;
* ``scratch_expand`` -- one propagation expansion of a cascading
  delete, which pre-PR-9 paid an eager scratch copy per call (the
  dominant ``generate_operations`` cost at 100k types).

All points merge into ``BENCH_PR9.json`` (see the BENCH_* convention
in ``conftest.py``).

Floors: fork must beat eager copy >= 50x at 10k types in the smoke
configuration (``make bench-smoke`` / CI) and >= 100x at 100k types in
the full sweep, and a fork followed by columnar queries and a child
edit must never trigger an O(types) adjacency rebuild (the overlay's
rebuild counter stays at zero while the parent is quiescent).
"""

from __future__ import annotations

import os
import statistics
import time

from benchmarks.conftest import merge_bench_results
from repro.knowledge.propagation import expand
from repro.model.attributes import Attribute
from repro.model.types import ScalarType
from repro.ops.base import OperationContext
from repro.ops.type_ops import DeleteTypeDefinition
from repro.workload.generator import WorkloadSpec, generate_schema

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
SIZES = (200, 1_000, 10_000) if SMOKE else (200, 1_000, 10_000, 100_000)
#: bench-smoke floor: CoW fork vs eager copy at 10k types.
SMOKE_FORK_SPEEDUP = 50.0
#: full-sweep floor: CoW fork vs eager copy at 100k types.
FULL_FORK_SPEEDUP = 100.0


def _spec(size: int) -> WorkloadSpec:
    # Same shape as the columnar bench so curves are comparable.
    return WorkloadSpec(
        types=size,
        seed=42,
        isa_fraction=0.45,
        part_of_chain=min(100, max(4, size // 4)),
        instance_of_chain=min(50, max(3, size // 8)),
    )


def _copy_repeats(size: int) -> int:
    return 3 if size >= 10_000 else 5


def _median(times: list[float]) -> float:
    return statistics.median(times)


def _time_eager_copy(schema, size: int) -> float:
    times = []
    for _ in range(_copy_repeats(size)):
        start = time.perf_counter()
        duplicate = schema.copy("eager_dup")
        times.append(time.perf_counter() - start)
        del duplicate
    return _median(times)


def _time_fork(schema) -> float:
    times = []
    for _ in range(20):
        start = time.perf_counter()
        branch = schema.fork("bench_fork")
        times.append(time.perf_counter() - start)
        branch.release_cow()
        del branch
    return _median(times)


def _time_first_edit(schema, probe: str) -> float:
    """Median time of the first mutator on a fresh fork.

    This is the materialise-on-write fault: ``edit`` clones the one
    borrowed interface, re-keys it, and the mutator's CoW barrier
    settles the outstanding borrows -- O(touched), not O(types).
    """
    times = []
    for index in range(20):
        branch = schema.fork("bench_fault")
        start = time.perf_counter()
        branch.edit(probe).add_attribute(
            Attribute(f"cow_fault{index}", ScalarType("long"))
        )
        times.append(time.perf_counter() - start)
        branch.release_cow()
        del branch
    return _median(times)


def _time_scratch_expand(schema, probe: str) -> float:
    """One cascading-delete expansion (a CoW scratch fork per call)."""
    context = OperationContext(reference=schema)
    operation = DeleteTypeDefinition(probe)
    times = []
    for _ in range(10):
        start = time.perf_counter()
        plan = expand(schema, operation, context)
        times.append(time.perf_counter() - start)
        assert plan  # the delete itself is always the last step
    return _median(times)


def _assert_no_post_fork_rebuild(schema, probe: str) -> None:
    """Acceptance: fork + queries + a child edit never rebuild columns."""
    branch = schema.fork("rebuild_probe")
    try:
        assert branch.index.rebuilds == 0
        branch.descendants(probe)
        branch.index.referencers_of(probe)
        branch.edit(probe).add_attribute(
            Attribute("cow_rebuild_probe", ScalarType("long"))
        )
        branch.descendants(probe)
        assert branch.index.rebuilds == 0, (
            "CoW fork paid an O(types) columnar rebuild while its "
            "parent was quiescent"
        )
    finally:
        branch.release_cow()


def test_bench_cow_scaling(report, record_bench):
    """200 / 1k / 10k / 100k copy vs fork vs propagation-scratch curve."""
    rows = []
    results: dict[str, dict] = {}
    speedups: dict[int, float] = {}
    for size in SIZES:
        schema = generate_schema(_spec(size))
        names = schema.type_names()
        probe = names[len(names) // 2]
        schema.descendants(probe)  # warm the parent's columns

        copy_eager = _time_eager_copy(schema, size)
        fork = _time_fork(schema)
        first_edit = _time_first_edit(schema, probe)
        scratch = _time_scratch_expand(schema, probe)
        _assert_no_post_fork_rebuild(schema, probe)

        speedups[size] = copy_eager / fork
        rows.append((size, copy_eager, fork, first_edit, scratch))
        for metric, value in (
            ("copy_eager", copy_eager),
            ("fork", fork),
            ("first_edit", first_edit),
            ("scratch_expand", scratch),
        ):
            results[f"cow_{metric}[{size}]"] = {
                "median_seconds": value,
                "types": size,
            }
        results[f"cow_fork_speedup[{size}]"] = {
            "median_seconds": None,
            "types": size,
            "speedup_vs_eager_copy": round(speedups[size], 1),
        }
        record_bench(f"cow_fork[{size}]", fork, types=size)

    lines = [
        f"{'types':>7}  {'copy':>9}  {'fork':>9}  {'1st edit':>9}  "
        f"{'expand':>9}  {'copy/fork':>9}"
    ]
    for size, copy_eager, fork, first_edit, scratch in rows:
        lines.append(
            f"{size:>7}  {copy_eager * 1000:>7.1f}ms  {fork * 1000:>7.2f}ms  "
            f"{first_edit * 1000:>7.2f}ms  {scratch * 1000:>7.2f}ms  "
            f"{speedups[size]:>8.0f}x"
        )
    report("cow_scaling", "\n".join(lines))

    if not SMOKE:
        merge_bench_results(results)
        assert speedups[100_000] >= FULL_FORK_SPEEDUP, (
            f"Schema.fork at 100k types is only {speedups[100_000]:.1f}x "
            f"faster than eager copy (floor {FULL_FORK_SPEEDUP:.0f}x)"
        )
    else:
        assert speedups[10_000] >= SMOKE_FORK_SPEEDUP, (
            f"Schema.fork at 10k types is only {speedups[10_000]:.1f}x "
            f"faster than eager copy (floor {SMOKE_FORK_SPEEDUP:.0f}x)"
        )
