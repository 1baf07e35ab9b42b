"""Smoke tests for the designer-session benchmark (``--quick`` sizes).

    pytest benchmarks/session

Every workload runs untraced and traced in its own interpreter at 200
types and 20 ops, one timed unit each.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.session import cli, run, trace, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, traced: bool, tmp_path: Path) -> tuple[dict, dict]:
    """(contract line, full result) of one quick run in a subprocess."""
    out = tmp_path / f"{workload}-{int(traced)}.json"
    done = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--quick", "--trace", str(int(traced)),
         "--out", str(out)],
        capture_output=True, text=True, timeout=120, check=False,
    )
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    return line, json.loads(out.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("session")
    return {
        (workload, traced): _run(workload, traced, tmp_path)
        for workload in WORKLOADS
        for traced in (False, True)
    }


def test_benchmark_json_names_the_workloads_this_code_runs():
    assert set(WORKLOADS) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_emitted_with_its_unit(results, workload):
    for traced, key in ((False, "end_to_end"), (True, "per_layer")):
        line, full = results[workload, traced]
        assert line["correct"] and line["failed"] == 0, full["failures"]
        assert line["attempted"] >= 1
        named = {m["name"]: m["unit"] for m in SPEC[key]}
        assert set(line["metrics"]) == set(named)
        for name, unit in named.items():
            assert line["metrics"][name]["unit"] == unit
            assert full["metrics"][name]["unit"] == unit
            assert isinstance(line["metrics"][name]["value"], float)


def test_listed_metrics_are_never_zero_and_listed_times_always_move(results):
    """The rule that decides what ``BENCHMARK.json`` lists.

    An end-to-end metric must never read 0, so ``failed_frac`` is not
    listed.  A time that reads the same on every run is refused, so a
    layer time is listed exactly when every workload reaches its layer;
    counts and ratios may read 0 where a workload never reaches theirs.
    """
    for entry in SPEC["end_to_end"]:
        for workload in WORKLOADS:
            line, _ = results[workload, False]
            assert line["metrics"][entry["name"]]["value"] > 0, (
                workload, entry["name"])
    listed = {m["name"] for m in SPEC["per_layer"] if m["unit"] == "s"}
    for name in run.LAYER_METRICS.values():
        reached = all(
            results[workload, True][1]["metrics"][name]["value"] > 0
            for workload in WORKLOADS
        )
        assert (name in listed) == reached, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_no_operation_or_check_fails(results, workload):
    _, full = results[workload, False]
    assert full["metrics"]["failed_frac"]["value"] == 0.0
    assert full["warmup_units"] == 1 and full["timed_units"] == 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_rows_sum_to_the_traced_wall_time(results, workload):
    _, full = results[workload, True]
    metrics = full["metrics"]
    layers = sum(
        metrics[name]["value"] for name in run.LAYER_METRICS.values()
    )
    wall = metrics["trace.wall_s"]["value"]
    assert layers == pytest.approx(wall, rel=0.01)
    assert metrics["untraced_s"]["value"] <= 0.10 * wall


def test_tracer_restores_every_wrapped_name():
    from repro.ops import language

    original = language.parse_script
    tracer = trace.Tracer()
    with tracer:
        assert language.parse_script is not original
        assert trace.leftover_wrappers()
    assert language.parse_script is original
    assert trace.leftover_wrappers() == []
    assert tracer.patches == []


def test_tracer_counts_only_inside_steps():
    from repro.ops import language

    tracer = trace.Tracer()
    with tracer:
        language.parse_script("add_type_definition(A)")
        with tracer.step("parse"):
            language.parse_script("add_type_definition(B)")
    target = "repro.ops.language:parse_script"
    assert tracer.calls[target] == 1
    times = tracer.layer_self_times()
    assert set(times) == {"bench", "language.parse"}


def test_tracer_counts_analysis_memo_hits_and_misses():
    from repro.analysis.plan import PlanPreflightError
    from repro.catalog.university import university_schema
    from repro.ops import language
    from repro.repository.workspace import Workspace

    workspace = Workspace(university_schema())
    plan = language.parse_script("delete_type_definition(Nope)")
    tracer = trace.Tracer()
    with tracer:
        with tracer.step("retry"):
            for _ in range(2):  # the retry reuses the memoized analysis
                with pytest.raises(PlanPreflightError):
                    workspace.apply_plan(plan)
    assert tracer.counters["analysis.memo_misses"] == 1
    assert tracer.counters["analysis.memo_hits"] == 1


@pytest.mark.parametrize("name", WORKLOADS)
def test_inputs_are_a_function_of_the_seed(name):
    workload = workloads.quick(workloads.WORKLOADS[name])
    first = workloads.make_inputs(workload, 5)
    again = workloads.make_inputs(workload, 5)
    other = workloads.make_inputs(workload, 6)
    assert (first.odl, first.plans) == (again.odl, again.plans)
    assert first.odl != other.odl
    assert first.plans != other.plans


def test_compare_verdicts():
    parent = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
    assert cli.verdict(parent, [v * 0.8 for v in parent], 0.1) == "improved"
    assert cli.verdict(parent, [v * 1.2 for v in parent], 0.1) == "worse"
    assert cli.verdict(parent, list(parent), 0.1) == "no worse"
    noisy = [0.7, 1.3, 0.8, 1.2, 1.0, 0.9, 1.1, 0.75, 1.25, 1.0]
    assert cli.verdict(parent, noisy, 0.1) == "unresolved"
    assert cli.verdict(parent, parent, None) == "-"


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    bench = tmp_path / "benchmarks" / "session"
    bench.mkdir(parents=True)
    for source in run.HERE.glob("*.py"):
        (bench / source.name).write_text(source.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    done = subprocess.run(
        [sys.executable, "benchmarks/session/run.py", "--workload",
         WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        check=False,
    )
    assert done.returncode != 0
    assert done.stdout == ""
