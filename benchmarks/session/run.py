"""Run one workload of the designer-session benchmark.

    python3 benchmarks/session/run.py --workload session-1k --seed 1 \
        --seconds 25 --trace 0 [--quick] [--out FILE]

Set-up generates the inputs from the seed at least five times and for
at least two seconds (``setup_s`` is their median); then one warm-up
unit runs, then timed units run until ``--seconds`` have passed (at
least one).  With ``--trace 1`` the untimed reference units are
followed by units traced through :mod:`trace`, and per-layer metrics
replace the end-to-end ones.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics named
in ``BENCHMARK.json`` (or its per-layer metrics under ``--trace 1``).
``--out`` also writes every metric the workload produced, with sample
counts, for :mod:`cli`.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import threading
import tracemalloc
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKDIR = HERE / ".work"
#: Set-up runs at least this many times ...
SETUP_REPEATS = 5
#: ... and for at least this long, so a short set-up gets more samples.
SETUP_SECONDS = 2.0


def _bootstrap() -> None:
    """Import the program from this checkout's ``src``; fail without it."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no program sources at {ROOT / 'src'}")
    if not (ROOT / "BENCHMARK.json").is_file():
        sys.exit(f"error: no BENCHMARK.json at {ROOT}")
    # The script's own directory would shadow the standard library
    # (``trace``); the benchmark is imported as a package instead.
    sys.path[:] = [
        entry for entry in sys.path if Path(entry or ".").resolve() != HERE
    ]
    for entry in (str(ROOT), str(ROOT / "src")):
        if entry not in sys.path:
            sys.path.insert(0, entry)


#: Self time of each traced layer -> its per-layer metric name.
LAYER_METRICS = {
    "odl.parse": "odl.parse_s",
    "odl.print": "odl.print_s",
    "concepts.decompose": "concepts.decompose_s",
    "concepts.view": "concepts.view_s",
    "examples.generate": "examples.generate_s",
    "instances.check": "instances.check_s",
    "analysis.analyze": "analysis.analyze_s",
    "propagation.expand": "propagation.expand_s",
    "knowledge.cautions": "knowledge.cautions_s",
    "knowledge.impact": "knowledge.impact_s",
    "ops.apply": "ops.apply_s",
    "language.parse": "language.parse_s",
    "language.print": "language.print_s",
    "columnar.ensure_fresh": "columnar.ensure_fresh_s",
    "cow.fork": "cow.fork_s",
    "cow.copy": "cow.copy_s",
    "validation.cache": "validation.cache_s",
    "validation.scan": "validation.scan_s",
    "persistence.to_dict": "persistence.to_dict_s",
    "persistence.replay": "persistence.replay_s",
    "verify.check": "verify.check_s",
    "workspace": "workspace.self_s",
    "bench": "untraced_s",
}


def _metric(value, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def _median_of(records, step: str):
    values = [r.steps[step] for r in records if step in r.steps]
    return (statistics.median(values), len(values)) if values else None


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _check_hygiene() -> None:
    """Refuse to time a rep under a profiler, tracer or wrapper."""
    from benchmarks.session.trace import leftover_wrappers

    problems = []
    if sys.gettrace() is not None:
        problems.append("a trace function is set")
    if tracemalloc.is_tracing():
        problems.append("tracemalloc is tracing")
    leftover = leftover_wrappers()
    if leftover:
        problems.append(f"trace wrappers still installed: {leftover[:3]}")
    if threading.active_count() != 1:
        problems.append(f"{threading.active_count()} threads running")
    if problems:
        raise RuntimeError("unclean timed rep: " + "; ".join(problems))
    gc.collect()


class Measurement:
    """Set-up, warm-up and timed units of one workload in this process."""

    def __init__(self, name: str, seed: int, seconds: float, quick: bool):
        from benchmarks.session import workloads

        self.name = name
        self.seed = seed
        self.seconds = seconds
        workload = workloads.WORKLOADS[name]
        self.workload = workloads.quick(workload) if quick else workload
        self.setup_s: list[float] = []
        self.open_s: list[float] = []
        self.inputs = None
        self.warmup = []
        self.timed = []
        self.traced = []
        self.live_fingerprint = None

    def setup(self, repeats: int, seconds: float = 0.0) -> None:
        from benchmarks.session import workloads

        started = perf_counter()
        while (
            len(self.setup_s) < repeats or perf_counter() - started < seconds
        ):
            self.inputs = None
            gc.collect()
            began = perf_counter()
            inputs = workloads.make_inputs(self.workload, self.seed)
            self.setup_s.append(perf_counter() - began)
            if inputs.open_s is not None:
                self.open_s.append(inputs.open_s)
            self.inputs = inputs
        if self.inputs.repository is not None:
            from repro.model.fingerprint import schema_fingerprint

            self.live_fingerprint = schema_fingerprint(
                self.inputs.repository.workspace.schema
            )

    def runner(self, tracer=None):
        from benchmarks.session import workloads

        WORKDIR.mkdir(exist_ok=True)
        return workloads.Runner(self.workload, self.inputs, WORKDIR, tracer)

    def run_units(self, runner, seconds: float, out: list) -> None:
        """Run clean timed units until *seconds* have passed (at least one)."""
        started = perf_counter()
        while True:
            _check_hygiene()
            out.append(runner.run())
            if perf_counter() - started >= seconds:
                return

    def outcome(self) -> tuple[int, int, list[str]]:
        """(attempted, failed, failure messages) over every unit run.

        Adds the one check that spans the whole run: the what-if rounds
        left the live workspace's fingerprint unchanged.
        """
        from benchmarks.session.workloads import UnitRecord

        final = UnitRecord()
        if self.live_fingerprint is not None:
            from repro.model.fingerprint import schema_fingerprint

            final.check(
                schema_fingerprint(self.inputs.repository.workspace.schema)
                == self.live_fingerprint,
                "what-if rounds changed the live workspace",
            )
        records = self.warmup + self.timed + self.traced + [final]
        attempted = sum(r.attempted for r in records)
        failed = sum(r.failed for r in records)
        failures = [f for r in records for f in r.failures]
        return attempted, failed, failures

    def end_to_end(self) -> dict:
        timed = self.timed
        metrics = {
            "setup_s": _metric(
                statistics.median(self.setup_s), "s", len(self.setup_s)
            ),
            "rep_s": _metric(
                statistics.median(r.wall_s for r in timed), "s", len(timed)
            ),
            "warmup_s": _metric(
                statistics.median(r.wall_s for r in self.warmup), "s",
                len(self.warmup),
            ),
        }
        opens = self.open_s or [r.steps["open"] for r in timed]
        metrics["open_s"] = _metric(statistics.median(opens), "s", len(opens))
        for name, step in (
            ("preview_s", "preview"),
            ("apply_plan_s", "apply_plan"),
            ("undo_redo_s", "undo_redo"),
            ("custom_schema_s", "custom_schema"),
            ("save_s", "save"),
            ("load_s", "load"),
            ("verify_s", "verify"),
        ):
            found = _median_of(timed, step)
            if found is not None:
                metrics[name] = _metric(found[0], "s", found[1])
        latencies = [ms * 1e3 for r in timed for ms in r.latencies]
        if latencies:
            n = len(latencies)
            metrics["step_ms_p50"] = _metric(
                statistics.median(latencies), "ms", n
            )
            # Report a percentile only when >= 10 samples lie beyond it.
            for q in (90, 99):
                if n * (100 - q) / 100 >= 10:
                    metrics[f"step_ms_p{q}"] = _metric(
                        _percentile(latencies, q), "ms", n
                    )
        metrics["peak_rss_mb"] = _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB", 1,
        )
        return metrics


def measure(name: str, seed: int, seconds: float, quick: bool = False) -> dict:
    """The untraced run: every end-to-end metric of one workload."""
    m = Measurement(name, seed, seconds, quick)
    m.setup(SETUP_REPEATS, SETUP_SECONDS)
    runner = m.runner()
    _check_hygiene()
    m.warmup.append(runner.run())
    m.run_units(runner, seconds, m.timed)
    result = _result(m, m.end_to_end())
    attempted = result["attempted"]
    result["metrics"]["failed_frac"] = _metric(
        result["failed"] / attempted, "ratio", attempted
    )
    return result


def measure_traced(
    name: str, seed: int, seconds: float, quick: bool = False,
    spans_path: Path | None = None,
) -> dict:
    """The traced run: per-layer metrics of one workload.

    One warm-up unit, untraced reference units for half the time, then
    traced units for the rest (at least one each).  Per-layer values are
    per-unit means over the traced units.
    """
    from benchmarks.session.trace import Tracer, leftover_wrappers

    m = Measurement(name, seed, seconds, quick)
    m.setup(1)
    runner = m.runner()
    _check_hygiene()
    m.warmup.append(runner.run())
    m.run_units(runner, seconds / 2, m.timed)
    traced = m.traced
    tracer = Tracer()
    with tracer:
        runner.tracer = tracer
        started = perf_counter()
        while True:
            gc.collect()
            tracer.unit = len(traced)
            traced.append(runner.run())
            if perf_counter() - started >= seconds / 2:
                break
        runner.tracer = None
    leftover = leftover_wrappers()
    if leftover:
        raise RuntimeError(f"trace wrappers not restored: {leftover[:3]}")
    if spans_path is not None:
        tracer.write_spans(spans_path)
    return _result(m, per_layer(tracer, traced, m.timed))


def per_layer(tracer, traced, untraced) -> dict:
    units = len(traced)
    metrics: dict[str, dict] = {}
    self_times = tracer.layer_self_times()
    for layer, metric in LAYER_METRICS.items():
        metrics[metric] = _metric(self_times.get(layer, 0.0) / units, "s", units)
    calls, counters = tracer.calls, tracer.counters

    def layer_calls(layer: str) -> int:
        return sum(
            count for target, count in calls.items()
            if tracer.layer_of(target) == layer
        )

    def per_unit(name: str, value, unit: str = "count") -> None:
        metrics[name] = _metric(value / units, unit, units)

    def ratio(name: str, numerator, denominator) -> None:
        value = numerator / denominator if denominator else 0.0
        metrics[name] = _metric(value, "ratio", units)

    per_unit("concepts.count", counters["concepts.count"])
    per_unit("examples.pairs", counters["examples.pairs"])
    per_unit("instances.checks", layer_calls("instances.check"))
    analyses = layer_calls("analysis.analyze")
    per_unit("analysis.calls", analyses)
    hits = counters["analysis.memo_hits"]
    ratio(
        "analysis.memo_hit_ratio", hits, hits + counters["analysis.memo_misses"]
    )
    ratio(
        "propagation.cascade_ratio", counters["propagation.steps"],
        layer_calls("propagation.expand"),
    )
    per_unit("ops.apply_calls", layer_calls("ops.apply"))
    per_unit("spine.records", layer_calls("spine.emit"))
    per_unit("columnar.rebuilds", counters["columnar.rebuilds"])
    per_unit("columnar.fork_views", layer_calls("columnar.fork_view"))
    per_unit("index.rebuilds", sum(r.index_rebuilds for r in traced))
    per_unit("cow.forks", layer_calls("cow.fork"))
    per_unit("cow.interface_copies", layer_calls("cow.interface_copy"))
    per_unit("validation.full", counters["validation.full_validations"])
    per_unit(
        "validation.incremental", counters["validation.incremental_validations"]
    )
    ratio(
        "validation.reuse_ratio", counters["validation.interfaces_reused"],
        counters["validation.interfaces_reused"]
        + counters["validation.interfaces_revalidated"],
    )
    per_unit("persistence.bytes", sum(r.persisted_bytes for r in traced), "B")
    per_unit("verify.closure_types", counters["verify.closure_types"])
    traced_wall = statistics.median(r.wall_s for r in traced)
    untraced_wall = statistics.median(r.wall_s for r in untraced)
    metrics["trace.overhead_frac"] = _metric(
        traced_wall / untraced_wall - 1.0, "ratio", units
    )
    metrics["trace.wall_s"] = _metric(
        sum(r.wall_s for r in traced) / units, "s", units
    )
    return metrics


def _result(m: Measurement, metrics: dict) -> dict:
    attempted, failed, failures = m.outcome()
    return {
        "workload": m.name,
        "seed": m.seed,
        "seconds": m.seconds,
        "types": m.workload.types,
        "ops": m.workload.ops,
        "warmup_units": len(m.warmup),
        "timed_units": len(m.timed),
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "metrics": metrics,
    }


def contract_line(result: dict, traced: bool) -> dict:
    """The last output line: the metrics named in ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if traced else "end_to_end"]
    metrics = {}
    for entry in wanted:
        measured = result["metrics"][entry["name"]]
        metrics[entry["name"]] = {
            "value": float(measured["value"]), "unit": entry["unit"]
        }
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="200 types, 20 ops, one timed unit")
    parser.add_argument("--out", type=Path,
                        help="also write every metric as JSON here")
    args = parser.parse_args(argv)
    _bootstrap()
    from benchmarks.session.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; "
            f"choose from {', '.join(WORKLOADS)}"
        )
    seconds = 0.0 if args.quick else args.seconds
    if args.trace:
        WORKDIR.mkdir(exist_ok=True)
        spans = WORKDIR / f"spans-{args.workload}.jsonl"
        result = measure_traced(
            args.workload, args.seed, seconds, args.quick, spans
        )
    else:
        result = measure(args.workload, args.seed, seconds, args.quick)
    result["traced"] = bool(args.trace)
    if args.out is not None:
        args.out.write_text(json.dumps(result, indent=2) + "\n",
                            encoding="utf-8")
    for name, metric in result["metrics"].items():
        print(f"{args.workload:14s} {name:26s} {metric['value']:14.6f} "
              f"{metric['unit']:6s} n={metric['samples']}")
    for failure in result["failures"]:
        print(f"FAILED: {failure}")
    print(json.dumps(contract_line(result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
