"""``python -m benchmarks.session``: run, compare and repeat the benchmark.

    PYTHONPATH=src python -m benchmarks.session run [--workload W] \
        [--seed N] [--runs K] [--seconds S] [--trace] [--quick] [--out F]
    python -m benchmarks.session compare PARENT.json CHANGE.json
    python -m benchmarks.session repeat [--runs K] [--seconds S]

``run`` starts one fresh interpreter per workload and run, one after
another (run ``i`` uses seed ``N + i``), prints every metric with its
unit and sample count, and writes all results as JSON.  ``compare``
gives a verdict per (workload, metric) from two such files, using the
bounds of :func:`bounds`.  ``repeat`` runs two full sets and fails
when any bounded end-to-end metric's medians differ by more than its
bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN_PY = HERE / "run.py"
WORKDIR = HERE / ".work"
#: A run may take this long before it counts as hung.
RUN_TIMEOUT_S = 900


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bounds() -> dict[str, float]:
    """End-to-end metric -> regression bound, from ``BENCHMARK.json``.

    Two metrics are held to a bound that ``BENCHMARK.json`` cannot list
    (see the README):

    * ``failed_frac`` may not get worse at all; a metric listed there
      must never read 0;
    * ``rep_s`` takes the timing bound that ``setup_s`` has there.  Its
      quartile spread over ten seeds exceeds that bound on a noisy
      machine, and a listed metric must spread less than its bound.
    """
    limits = {m["name"]: m["bound"] for m in benchmark_spec()["end_to_end"]}
    limits["failed_frac"] = 0.0
    limits["rep_s"] = limits["setup_s"]
    return limits


def workload_names() -> list[str]:
    return [w["name"] for w in benchmark_spec()["workloads"]]


# ----------------------------------------------------------------------
# run
# ----------------------------------------------------------------------


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            quick: bool) -> dict:
    """One workload in a fresh interpreter; returns its full result."""
    WORKDIR.mkdir(exist_ok=True)
    out = WORKDIR / f"result-{workload}-{int(trace)}.json"
    command = [
        sys.executable, str(RUN_PY), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(int(trace)), "--out", str(out),
    ]
    if quick:
        command.append("--quick")
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
        check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}"
        )
    try:
        return json.loads(out.read_text(encoding="utf-8"))
    finally:
        out.unlink(missing_ok=True)


def run_set(workloads, seed: int, runs: int, seconds: float, trace: bool,
            quick: bool) -> dict:
    results: dict = {
        "seconds": seconds, "quick": quick, "seed": seed,
        "workloads": {w: {"runs": [], "traced": []} for w in workloads},
    }
    for index in range(runs):
        for workload in workloads:
            entry = results["workloads"][workload]
            entry["runs"].append(
                run_one(workload, seed + index, seconds, False, quick)
            )
            if trace:
                entry["traced"].append(
                    run_one(workload, seed + index, seconds, True, quick)
                )
    return results


def _values(runs: list[dict], metric: str) -> list[float]:
    return [r["metrics"][metric]["value"] for r in runs if metric in r["metrics"]]


def _metric_names(runs: list[dict]) -> list[str]:
    names: dict[str, None] = {}
    for result in runs:
        names.update(dict.fromkeys(result["metrics"]))
    return list(names)


def print_set(results: dict) -> None:
    for workload, entry in results["workloads"].items():
        for kind in ("runs", "traced"):
            runs = entry[kind]
            if not runs:
                continue
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            print(f"== {workload} ({'traced' if kind == 'traced' else 'untraced'}"
                  f", {len(runs)} run(s), failed {failed}/{attempted})")
            for name in _metric_names(runs):
                values = _values(runs, name)
                unit = runs[0]["metrics"].get(name, {}).get("unit", "")
                samples = sum(
                    r["metrics"][name]["samples"] for r in runs
                    if name in r["metrics"]
                )
                print(f"  {name:26s} {statistics.median(values):14.6f} "
                      f"{unit:6s} runs={len(values)} samples={samples}")
            if kind == "traced":
                wall = statistics.median(_values(runs, "trace.wall_s"))
                rest = statistics.median(_values(runs, "untraced_s"))
                print(f"  untraced share of traced wall time: "
                      f"{rest / wall:.2%}")
            for result in runs:
                for failure in result["failures"]:
                    print(f"  FAILED seed {result['seed']}: {failure}")


def cmd_run(args) -> int:
    workloads = args.workload or workload_names()
    results = run_set(
        workloads, args.seed, args.runs, args.seconds, args.trace, args.quick
    )
    print_set(results)
    out = args.out or WORKDIR / "session.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    failed = sum(
        r["failed"] for e in results["workloads"].values()
        for r in e["runs"] + e["traced"]
    )
    return 1 if failed else 0


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float],
            bound: float | None) -> str:
    """Classify a lower-is-better metric from paired runs.

    * ``improved``: the change wins at least 9 of every 10 pairs (ties
      count for neither, at least ten pairs) and the medians differ by
      more than the parent's own quartile spread;
    * ``worse``: the change's median exceeds the parent's by more than
      the bound;
    * ``unresolved``: either side's quartile spread exceeds the bound,
      unless every change run beats every parent run;
    * ``no worse`` otherwise.  ``None`` bound: no verdict.
    """
    if bound is None:
        return "-"
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(c < p for p, c in pairs)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and pm - cm > p3 - p1:
        return "improved"
    if cm > pm * (1 + bound) or (bound == 0 and cm > pm):
        return "worse"
    spread = max((p3 - p1) / pm if pm else 0.0, (c3 - c1) / cm if cm else 0.0)
    if spread > bound and not max(change) < min(parent):
        return "unresolved"
    return "no worse"


def compare(parent: dict, change: dict) -> list[dict]:
    limits = bounds()
    rows = []
    for workload, entry in parent["workloads"].items():
        other = change["workloads"].get(workload)
        if other is None:
            continue
        for name in _metric_names(entry["runs"]):
            before = _values(entry["runs"], name)
            after = _values(other["runs"], name)
            if not before or not after:
                continue
            rows.append({
                "workload": workload,
                "metric": name,
                "unit": entry["runs"][0]["metrics"][name]["unit"],
                "parent": quartiles(before),
                "change": quartiles(after),
                "pairs": min(len(before), len(after)),
                "wins": sum(c < p for p, c in zip(before, after)),
                "verdict": verdict(before, after, limits.get(name)),
            })
    return rows


def cmd_compare(args) -> int:
    parent = json.loads(args.parent.read_text(encoding="utf-8"))
    change = json.loads(args.change.read_text(encoding="utf-8"))
    rows = compare(parent, change)
    print(f"{'workload':14s} {'metric':18s} {'unit':5s} "
          f"{'parent median [q1, q3]':>32s} {'change median [q1, q3]':>32s} "
          f"{'delta':>8s} {'wins':>6s}  verdict")
    for row in rows:
        p1, pm, p3 = row["parent"]
        c1, cm, c3 = row["change"]
        delta = (cm - pm) / pm if pm else 0.0
        print(f"{row['workload']:14s} {row['metric']:18s} {row['unit']:5s} "
              f"{pm:11.4f} [{p1:.4f}, {p3:.4f}] "
              f"{cm:11.4f} [{c1:.4f}, {c3:.4f}] {delta:+8.1%} "
              f"{row['wins']:>2d}/{row['pairs']:<3d}  {row['verdict']}")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


# ----------------------------------------------------------------------
# repeat
# ----------------------------------------------------------------------


def disagreements(first: dict, second: dict) -> list[str]:
    """Bounded metrics whose two medians differ by more than the bound."""
    problems = []
    for name, bound in bounds().items():
        for workload, entry in first["workloads"].items():
            a = _values(entry["runs"], name)
            b = _values(second["workloads"][workload]["runs"], name)
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            change = abs(mb - ma) / ma if ma else 0.0
            status = "ok" if change <= bound else "DIFFERS"
            print(f"{workload:14s} {name:14s} {ma:12.4f} {mb:12.4f} "
                  f"{change:7.1%} (bound {bound:.0%}) {status}")
            if change > bound:
                problems.append(f"{workload} {name}")
    return problems


def cmd_repeat(args) -> int:
    workloads = workload_names()
    sets = [
        run_set(workloads, args.seed, args.runs, args.seconds, False,
                args.quick)
        for _ in range(2)
    ]
    problems = disagreements(*sets)
    if problems:
        print("medians differ by more than the bound: " + ", ".join(problems))
        return 1
    print("both sets agree within every bound")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.session",
        description="Designer-session benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run workloads and print every metric")
    run.add_argument("--workload", action="append",
                     help="repeatable; default: every workload")
    repeat = sub.add_parser("repeat", help="run two sets; check agreement")
    for command in (run, repeat):
        command.add_argument("--seed", type=int, default=1)
        command.add_argument("--runs", type=int, default=1,
                             help="runs per workload (seeds N, N+1, ...)")
        command.add_argument("--seconds", type=float,
                             default=float(benchmark_spec()["run_seconds"]))
        command.add_argument("--quick", action="store_true",
                             help="200 types, 20 ops, one timed unit")
    run.add_argument("--trace", action="store_true",
                     help="also run each workload traced")
    run.add_argument("--out", type=Path, help="JSON results file")
    compare_cmd = sub.add_parser("compare", help="verdicts for two runs")
    compare_cmd.add_argument("parent", type=Path)
    compare_cmd.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    handler = {"run": cmd_run, "compare": cmd_compare, "repeat": cmd_repeat}
    return handler[args.command](args)
