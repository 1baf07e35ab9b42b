"""Campaign runner and CLI for the differential verification subsystem.

``python -m repro.verify`` sweeps the fuzzer over every catalog schema
plus a ladder of generated schemas, one seeded run per (subject, seed)
pair.  On a failure it delta-debugs the trace to a minimal reproducer
and prints it as a ready-to-paste pytest module, then exits non-zero --
the shrunk test is the bug report.

The smoke configuration (``make fuzz-smoke``) keeps the sweep around
half a minute; the acceptance configuration (``--seeds 25 --steps 200``)
is the deeper soak the ROADMAP's verification contract calls for.

Runs are declared as picklable :class:`RunSpec` values, so ``--jobs``
can shard them over a ``multiprocessing`` pool: each worker rebuilds
its subject from the spec, fuzzes (and shrinks) in isolation, and
returns its full printed output, which the parent emits strictly in
submission order -- byte-identical to a sequential sweep up to the
first failure.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from repro.catalog import SCHEMA_BUILDERS, load
from repro.model.schema import Schema
from repro.verify.fuzzer import FuzzReport, fuzz
from repro.verify.invariants import (
    DIFFERENTIAL_STRIDE_DEFAULT,
    check_schema,
    describe_registry,
    set_differential_stride,
)
from repro.verify.shrinker import emit_pytest, shrink
from repro.workload.generator import WorkloadSpec, generate_schema


@dataclass(frozen=True)
class Subject:
    """One reference schema the campaign fuzzes against.

    ``source`` is an expression rebuilding the schema -- it goes
    verbatim into emitted reproducers, so it must be self-contained
    given the catalog / workload imports.
    """

    name: str
    source: str
    build: Callable[[], Schema]


def generated_subject(seed: int, types: int = 14) -> Subject:
    """A deterministic synthetic schema (exercises generated shapes)."""
    spec = WorkloadSpec(types=types, seed=seed)
    return Subject(
        f"synthetic_{types}_{seed}",
        f"generate_schema({spec!r})",
        lambda: generate_schema(spec),
    )


# Sizes the large profile ladders through, cycled per seed.  Each step
# on these subjects is cheap, but every invariant sweep is a full scan,
# so run_campaign checks them sparsely (see large_check_every).
LARGE_SIZES = (1_000, 2_000, 5_000, 10_000)


def large_subject(seed: int, types: int) -> Subject:
    """A large synthetic schema: deep ISA chain plus a wide hub.

    These shapes (thousands of types, a supertype chain hundreds deep, a
    wagon-wheel hub with hundreds of spokes) are the ones that exposed
    the PR 6 scale bugs; the profile keeps fuzzing them.
    """
    spec = WorkloadSpec(
        types=types,
        seed=seed,
        isa_chain=types // 5,
        hub_fanout=min(200, types // 5),
        part_of_chain=min(100, types // 10),
        instance_of_chain=min(50, types // 20),
    )
    return Subject(
        f"large_{types}_{seed}",
        f"generate_schema({spec!r})",
        lambda: generate_schema(spec),
    )


def large_subjects(seeds: int) -> list[tuple[Subject, int]]:
    """(subject, fuzz seed) pairs laddering through LARGE_SIZES."""
    return [
        (large_subject(seed, LARGE_SIZES[seed % len(LARGE_SIZES)]), seed)
        for seed in range(seeds)
    ]


@dataclass(frozen=True)
class RunSpec:
    """One (subject, seed) run, declaratively -- picklable, so a
    ``--jobs`` worker process can rebuild the subject on its side.

    ``family`` selects the builder: ``"catalog"`` (``name`` is the
    catalog schema), ``"synthetic"`` or ``"large"`` (``types`` and
    ``seed`` parameterize the workload generator).
    """

    family: str
    name: str
    seed: int
    steps: int
    check_every: int
    cheap_every: int = 1
    types: int = 0
    scoped: bool = False
    with_populations: bool = False
    do_shrink: bool = True
    differential_stride: int | None = None


def subject_for(spec: RunSpec) -> Subject:
    """Rebuild the spec's subject (deterministic in the spec alone)."""
    if spec.family == "catalog":
        name = spec.name
        return Subject(name, f"load({name!r})", lambda: load(name))
    if spec.family == "synthetic":
        return generated_subject(spec.seed, spec.types)
    if spec.family == "large":
        return large_subject(spec.seed, spec.types)
    raise ValueError(f"unknown run family {spec.family!r}")


def execute_run(spec: RunSpec) -> tuple[str, FuzzReport | None]:
    """One full run: build, baseline check, fuzz, shrink on failure.

    Returns everything the run would have printed plus its report
    (``None`` when the reference schema was dirty and the run was
    skipped).  Workers call this; the sequential path calls it too, so
    both produce identical output.
    """
    if spec.differential_stride is not None:
        set_differential_stride(spec.differential_stride)
    out = io.StringIO()
    subject = subject_for(spec)
    reference = subject.build()
    baseline = check_schema(reference)
    if baseline:
        print(f"SKIP {subject.name}: reference schema is dirty", file=out)
        for violation in baseline:
            print(f"  {violation}", file=out)
        return out.getvalue(), None
    report = fuzz(
        reference,
        seed=spec.seed,
        steps=spec.steps,
        check_every=spec.check_every,
        subject_name=subject.name,
        cheap_every=spec.cheap_every,
        with_populations=spec.with_populations,
        scoped_checks=spec.scoped,
    )
    print(report.summary(), file=out)
    if report.sampled_sweeps:
        print(
            f"  note: {report.sampled_sweeps} sweep(s) stride-sampled the "
            "per-type index differentials instead of probing every type "
            "(tune with --differential-stride; 0 = exhaustive)",
            file=out,
        )
    if report.failure is not None:
        print(report.failure.render(), file=out)
        if spec.do_shrink:
            result = shrink(
                subject.build(),
                report.trace,
                report.failure,
                with_populations=spec.with_populations,
            )
            print(result.summary(), file=out)
            print("--- minimal reproducer ---", file=out)
            print(
                emit_pytest(
                    subject.source,
                    result.steps,
                    result.failure,
                    test_name=(
                        f"test_fuzz_{subject.name}_seed{spec.seed}"
                    ),
                ),
                file=out,
            )
    return out.getvalue(), report


def _resolve_jobs(jobs: int | str | None) -> int:
    """``--jobs`` value -> worker count (``auto``/``0`` = one per core)."""
    if jobs in (None, 1):
        return 1
    if jobs in ("auto", 0, "0"):
        return max(1, os.cpu_count() or 1)
    return max(1, int(jobs))


def run_campaign(
    seeds: int,
    steps: int,
    check_every: int = 4,
    only_schema: str | None = None,
    do_shrink: bool = True,
    fail_fast: bool = True,
    large_seeds: int = 0,
    large_steps: int = 60,
    large_check_every: int = 30,
    with_populations: bool = False,
    scoped_large: bool = True,
    differential_stride: int | None = None,
    jobs: int | str | None = 1,
    out=sys.stdout,
) -> list[FuzzReport]:
    """Run the sweep; prints one summary line per run, reproducers on
    failure.  Returns every report (failures included).

    ``large_seeds`` appends the large-schema profile: 1k-10k-type
    subjects fuzzed for ``large_steps`` steps with *both* invariant
    tiers spaced ``large_check_every`` steps apart.  With
    ``scoped_large`` (the default) those mid-run sweeps run in
    O(changed) scoped mode, so their cost tracks the steps between
    sweeps rather than the schema; each run still ends with a full
    sweep.  ``jobs`` > 1 shards the runs over a multiprocessing pool,
    one seed-sharded run per task, output merged in submission order.
    """
    catalog_names = list(SCHEMA_BUILDERS)
    specs: list[RunSpec] = []
    for seed in range(seeds):
        shared = dict(
            seed=seed,
            steps=steps,
            check_every=check_every,
            cheap_every=1,
            with_populations=with_populations,
            do_shrink=do_shrink,
            differential_stride=differential_stride,
        )
        specs.append(RunSpec(
            family="catalog",
            name=catalog_names[seed % len(catalog_names)],
            **shared,
        ))
        synthetic = generated_subject(seed)
        specs.append(RunSpec(
            family="synthetic", name=synthetic.name, types=14, **shared,
        ))
    specs.extend(
        RunSpec(
            family="large",
            name=subject.name,
            seed=seed,
            steps=large_steps,
            check_every=large_check_every,
            cheap_every=large_check_every,
            types=LARGE_SIZES[seed % len(LARGE_SIZES)],
            scoped=scoped_large,
            with_populations=with_populations,
            do_shrink=do_shrink,
            differential_stride=differential_stride,
        )
        for subject, seed in large_subjects(large_seeds)
    )
    if only_schema is not None:
        specs = [spec for spec in specs if spec.name == only_schema]
        if not specs:
            raise SystemExit(f"unknown subject {only_schema!r}")
    worker_count = _resolve_jobs(jobs)
    reports: list[FuzzReport] = []
    if worker_count == 1 or len(specs) <= 1:
        for spec in specs:
            text, report = execute_run(spec)
            out.write(text)
            if report is None:
                continue
            reports.append(report)
            if report.failure is not None and fail_fast:
                break
        return reports
    import multiprocessing

    with multiprocessing.Pool(min(worker_count, len(specs))) as pool:
        results = pool.imap(execute_run, specs)
        for text, report in results:
            out.write(text)
            if report is None:
                continue
            reports.append(report)
            if report.failure is not None and fail_fast:
                pool.terminate()
                break
    return reports


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description=(
            "Differential verification: fuzz operation sequences against "
            "the invariant registry, shrinking any failure to a minimal "
            "pytest reproducer."
        ),
    )
    parser.add_argument(
        "--seeds", type=int, default=10,
        help="fuzz seeds per subject family (default 10)",
    )
    parser.add_argument(
        "--steps", type=int, default=100,
        help="operations per fuzz run (default 100)",
    )
    parser.add_argument(
        "--check-every", type=int, default=4,
        help="run expensive-tier invariants every N steps (default 4)",
    )
    parser.add_argument(
        "--large-seeds", type=int, default=0,
        help=(
            "append N large-schema runs (1k-10k types, deep ISA chains, "
            "wide hubs); default 0 (off)"
        ),
    )
    parser.add_argument(
        "--large-steps", type=int, default=60,
        help="operations per large-schema run (default 60)",
    )
    parser.add_argument(
        "--large-check-every", type=int, default=30,
        help=(
            "invariant cadence (both tiers) on large subjects "
            "(default 30)"
        ),
    )
    parser.add_argument(
        "--schema", default=None,
        help="restrict the sweep to one subject name",
    )
    parser.add_argument(
        "--with-populations", action="store_true",
        help=(
            "carry witness populations alongside each schema: at the "
            "expensive-tier cadence, generate a population the current "
            "schema must admit and cross-check it against a structural "
            "copy (reproducers then include the witnessing data)"
        ),
    )
    parser.add_argument(
        "--jobs", default="1",
        help=(
            "shard runs over N worker processes ('auto' or 0 = one per "
            "core); output is merged in submission order (default 1)"
        ),
    )
    parser.add_argument(
        "--differential-stride", type=int, default=None,
        help=(
            "per-type index differentials sample past this many types "
            f"(default {DIFFERENTIAL_STRIDE_DEFAULT}; 0 probes every "
            "type exhaustively); sampled sweeps are flagged in the run "
            "summary"
        ),
    )
    parser.add_argument(
        "--full-sweeps-large", action="store_true",
        help=(
            "disable O(changed) scoped sweeps on the large profile and "
            "run every mid-run sweep over the whole schema"
        ),
    )
    parser.add_argument(
        "--no-shrink", action="store_true",
        help="report failures without delta-debugging them",
    )
    parser.add_argument(
        "--keep-going", action="store_true",
        help="continue the sweep past the first failure",
    )
    parser.add_argument(
        "--list-invariants", action="store_true",
        help="print the invariant registry and exit",
    )
    options = parser.parse_args(argv)
    if options.list_invariants:
        print(describe_registry())
        return 0
    if options.differential_stride is not None:
        set_differential_stride(options.differential_stride)
    reports = run_campaign(
        seeds=options.seeds,
        steps=options.steps,
        check_every=options.check_every,
        only_schema=options.schema,
        do_shrink=not options.no_shrink,
        fail_fast=not options.keep_going,
        large_seeds=options.large_seeds,
        large_steps=options.large_steps,
        large_check_every=options.large_check_every,
        with_populations=options.with_populations,
        scoped_large=not options.full_sweeps_large,
        differential_stride=options.differential_stride,
        jobs=options.jobs,
    )
    failures = [report for report in reports if not report.ok]
    accepted = sum(report.accepted for report in reports)
    rejected = sum(report.rejected for report in reports)
    scoped = sum(report.scoped_sweeps for report in reports)
    sampled = sum(report.sampled_sweeps for report in reports)
    line = (
        f"{len(reports)} runs, {accepted} operations accepted, "
        f"{rejected} rejected, {len(failures)} failing runs"
    )
    if scoped:
        line += f", {scoped} scoped sweeps"
    if sampled:
        line += (
            f" [note: {sampled} sweeps stride-sampled the per-type "
            "differentials; pass --differential-stride 0 for exhaustive]"
        )
    print(line)
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
