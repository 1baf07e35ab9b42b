"""Shared benchmark helpers.

Every bench regenerates one of the paper's tables or figures.  Timing is
handled by pytest-benchmark; the regenerated artifact itself (the rows /
series the paper reports) is written to ``benchmarks/reports/<id>.txt``
so it survives output capturing, and is also printed for ``-s`` runs.

On top of the human-readable reports, every bench session merges its
measurements into a machine-readable trajectory file at the repository
root (bench name -> median seconds + schema size) so the perf
trajectory can be compared across PRs.  pytest-benchmark timings are
harvested automatically; hand-timed series (the scaling and spine
benches) contribute through the ``record_bench`` fixture.  All writes go
through one shared helper, :func:`merge_bench_results`, which
*merge-updates* the file: a filtered run (``pytest benchmarks/ -k
spine``) refreshes only its own keys instead of clobbering the sweep.

BENCH_* naming convention
-------------------------

``BENCH_PR<n>.json`` at the repository root holds the measurements a
PR's headline claims rest on, frozen when that PR lands: ``BENCH_PR5``
(validation/spine), ``BENCH_PR6`` (compact core), ``BENCH_PR8``
(columnar core), ``BENCH_PR9`` (copy-on-write forks).  Earlier files
are never rewritten -- they are the
baselines later PRs' floors assert against (CI compares the columnar
1k-type plan point against the compiled-plan figure in
``BENCH_PR6.json``).  ``BENCH_JSON`` below
names the file the *current* PR's sessions write; bump it when a new
PR starts a new measurement set, and route any bench that belongs to a
prior set explicitly via ``merge_bench_results(..., path=...)``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

REPORTS_DIR = Path(__file__).parent / "reports"
#: The current PR's trajectory file (see the BENCH_* convention above).
BENCH_JSON = Path(__file__).parent.parent / "BENCH_PR9.json"

#: name -> {"median_seconds": float, "types": int | None} from hand-timed
#: benches, merged with pytest-benchmark's own stats at session end.
_MANUAL_RECORDS: dict[str, dict] = {}


def merge_bench_results(results: dict[str, dict], path: Path = BENCH_JSON) -> None:
    """Merge *results* into the trajectory file, keeping other keys.

    The single writer every bench measurement funnels through: reads the
    existing JSON (tolerating a missing or corrupt file), overlays the
    new measurements key by key, and writes the result back sorted.
    """
    existing: dict[str, dict] = {}
    if path.exists():
        try:
            existing = json.loads(path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, OSError):
            existing = {}
    existing.update(results)
    path.write_text(
        json.dumps(dict(sorted(existing.items())), indent=2) + "\n",
        encoding="utf-8",
    )


@pytest.fixture
def report():
    """Write one regenerated paper artifact to the reports directory.

    Smoke runs (``REPRO_BENCH_SMOKE``) only print it: their reduced
    sizes must not overwrite the checked-in full-sweep reports, just as
    :func:`pytest_sessionfinish` keeps them out of the trajectory file.
    """

    def write(artifact_id: str, text: str) -> None:
        if os.environ.get("REPRO_BENCH_SMOKE"):
            print(f"\n--- {artifact_id} (smoke run, not written) ---")
        else:
            REPORTS_DIR.mkdir(exist_ok=True)
            path = REPORTS_DIR / f"{artifact_id}.txt"
            path.write_text(text.rstrip() + "\n", encoding="utf-8")
            print(f"\n--- {artifact_id} (also at {path}) ---")
        print(text)

    return write


@pytest.fixture
def record_bench():
    """Record one hand-timed measurement for the bench trajectory JSON."""

    def record(name: str, median_seconds: float, types: int | None = None) -> None:
        _MANUAL_RECORDS[name] = {
            "median_seconds": median_seconds,
            "types": types,
        }

    return record


def _benchmark_median(bench) -> float | None:
    """Median seconds out of a pytest-benchmark stats object."""
    stats = getattr(bench, "stats", None)
    median = getattr(stats, "median", None)
    if median is None:
        inner = getattr(stats, "stats", None)
        median = getattr(inner, "median", None)
    return median


def pytest_sessionfinish(session, exitstatus):
    """Merge all measurements into the machine-readable trajectory file."""
    if os.environ.get("REPRO_BENCH_SMOKE"):
        return  # the smoke tripwire must not clobber full-sweep medians
    results: dict[str, dict] = dict(_MANUAL_RECORDS)
    bench_session = getattr(session.config, "_benchmarksession", None)
    for bench in getattr(bench_session, "benchmarks", []) or []:
        median = _benchmark_median(bench)
        if median is None:
            continue
        extra = getattr(bench, "extra_info", {}) or {}
        results[bench.name] = {
            "median_seconds": median,
            "types": extra.get("types"),
        }
    if not results:
        return  # collect-only / filtered runs must not touch real data
    merge_bench_results(results)
