"""Designer-session workloads: seeded inputs, timed units, output checks.

Every workload is a closed loop with one client: the next unit starts
only after the previous one returned.  A unit is one designer session
(``session-*``), one edit-churn rep, or one what-if round.  Inputs are
generated from the seed by :mod:`repro.workload.generator` and reach the
program only as ODL text and operation-language text.

A unit runs as a sequence of named steps; only the steps are timed (and
traced), and every output check runs between them, untimed.
"""

from __future__ import annotations

import gc
import random
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

# Layer entry points called inside timed steps are reached through their
# modules, so the trace wrappers installed there see those calls too.
from repro.analysis.plan import analyze_plan
from repro.knowledge.propagation import expand_applying
from repro.model.errors import SchemaError
from repro.model.fingerprint import schema_fingerprint
from repro.model.validation import validate_schema
from repro.odl import parser as odl_parser
from repro.odl.printer import print_schema
from repro.ops import language
from repro.ops.base import OperationError
from repro.ops.effects import WILDCARD
from repro.repository import persistence
from repro.repository.repository import SchemaRepository
from repro.verify import invariants
from repro.workload.generator import (
    WorkloadSpec,
    generate_operations,
    generate_schema,
    random_operation,
)

#: Errors an operation or plan may raise when the program rejects it.
REJECTIONS = (OperationError, SchemaError)


@dataclass(frozen=True)
class Workload:
    """Shape of one workload: which unit it runs and at what size."""

    kind: str  # "session" | "churn" | "whatif"
    types: int
    ops: int  # plan length (session, churn) or ops per plan (whatif)
    plans: int = 1  # what-if plans drawn in setup


#: Why each workload exists is recorded in ``BENCHMARK.json`` and the
#: README.  Sizes keep one run of any workload under 40 s on a 2-core
#: machine (see the README's "Sizes" section).
WORKLOADS: dict[str, Workload] = {
    "session-1k": Workload("session", 1000, 100),
    "edit-churn-1k": Workload("churn", 1000, 1000),
    "whatif-2k": Workload("whatif", 2000, 10, plans=30),
}

#: A session undoes this many steps, then redoes as many.
UNDO_REDO = 10

#: ``--quick`` sizes: every workload at 200 types and 20 ops.
QUICK_TYPES = 200
QUICK_OPS = 20


def quick(workload: Workload) -> Workload:
    """The same workload shrunk for smoke tests."""
    if workload.kind == "whatif":
        return Workload("whatif", QUICK_TYPES, 10, plans=QUICK_OPS // 10)
    return Workload(workload.kind, QUICK_TYPES, QUICK_OPS)


def workload_spec(types: int, seed: int) -> WorkloadSpec:
    return WorkloadSpec(
        types=types,
        seed=seed,
        isa_fraction=0.45,
        part_of_chain=min(100, types // 4),
        instance_of_chain=min(50, types // 8),
    )


@dataclass
class Inputs:
    """The generated inputs: ODL text, operation text, a seeded focal."""

    odl: str
    focal: str
    plans: list[str]  # operation-language scripts, one op per line
    repository: SchemaRepository | None = None  # what-if: opened in setup
    open_s: float | None = None


def _script(operations) -> str:
    return "\n".join(operation.to_text() for operation in operations)


def open_repository(odl: str, focal: str) -> SchemaRepository:
    """ODL text to a ready repository with one wagon-wheel view."""
    repository = SchemaRepository(
        odl_parser.parse_schema(odl, name="shrink_wrap")
    )
    repository.create_wagon_wheel_view(focal, "bench")
    return repository


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """Generate a workload's inputs from *seed* (counted as set-up)."""
    schema = generate_schema(workload_spec(workload.types, seed))
    odl = print_schema(schema)
    focal = random.Random(seed).choice(schema.type_names())
    if workload.kind != "whatif":
        operations = generate_operations(schema, workload.ops, seed=seed)
        return Inputs(odl, focal, [_script(operations)])
    started = perf_counter()
    repository = open_repository(odl, focal)
    open_s = perf_counter() - started
    plans = draw_narrow_plans(repository, workload, seed)
    return Inputs(odl, focal, plans, repository, open_s)


def draw_narrow_plans(
    repository: SchemaRepository, workload: Workload, seed: int
) -> list[str]:
    """What-if plans: ops with a named instance facet that apply.

    Each plan is drawn with ``random_operation`` on a scratch fork of
    the live schema, keeping only operations whose instance-impact
    facet holds no ``WILDCARD`` (so preview stays narrow) and that
    apply with their cascades; a plan the static pre-flight of
    ``Workspace.apply_plan`` would reject is redrawn.
    """
    rng = random.Random(seed)
    live = repository.workspace
    plans: list[str] = []
    draws = 0
    while len(plans) < workload.plans:
        draws += 1
        if draws > workload.plans * 20:
            raise RuntimeError("could not draw enough narrow what-if plans")
        scratch = live.schema.fork()
        plan = []
        for attempt in range(workload.ops * 50):
            operation = random_operation(
                scratch, rng, len(plans) * 1000 + attempt
            )
            if operation is None:
                continue
            if WILDCARD in operation.effect_signature().instances:
                continue
            try:
                steps, _ = expand_applying(scratch, operation, live.context)
            except REJECTIONS:
                continue
            plan.append(operation)
            if len(plan) == workload.ops:
                break
        scratch.release_cow()
        if len(plan) < workload.ops:
            continue
        if analyze_plan(plan, live.schema, edges=False).diagnostics:
            continue
        plans.append(_script(plan))
    return plans


# ----------------------------------------------------------------------
# Timing and checks
# ----------------------------------------------------------------------


@dataclass
class UnitRecord:
    """Step times, per-op latencies and check outcomes of one unit."""

    steps: dict[str, float] = field(default_factory=dict)
    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    persisted_bytes: int = 0
    index_rebuilds: int = 0

    @property
    def wall_s(self) -> float:
        return sum(self.steps.values())

    def check(self, ok: bool, message: str) -> None:
        """Count one output check (run outside every timed step)."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(message)

    def rejected(self, message: str) -> None:
        """Count one operation or plan the program rejected."""
        self.failed += 1
        self.failures.append(message)


class Runner:
    """Runs units, timing steps and (optionally) opening trace steps."""

    def __init__(self, workload: Workload, inputs: Inputs, workdir: Path,
                 tracer=None) -> None:
        self.workload = workload
        self.inputs = inputs
        self.workdir = workdir
        self.tracer = tracer
        self.record = UnitRecord()
        self.round = 0  # what-if rounds cycle through the drawn plans

    @contextmanager
    def step(self, name: str):
        span = self.tracer.step(name) if self.tracer else nullcontext()
        with span:
            started = perf_counter()
            try:
                yield
            finally:
                elapsed = perf_counter() - started
                steps = self.record.steps
                steps[name] = steps.get(name, 0.0) + elapsed

    def run(self) -> UnitRecord:
        self.record = UnitRecord()
        unit = {"session": self.session, "churn": self.churn,
                "whatif": self.whatif_round}[self.workload.kind]
        unit()
        return self.record

    # -- shared steps --------------------------------------------------

    def _open(self):
        with self.step("open"):
            repository = open_repository(self.inputs.odl, self.inputs.focal)
            plan = language.parse_script(self.inputs.plans[0])
        return repository, plan

    def _apply_one_at_a_time(self, repository, operations) -> None:
        record = self.record
        with self.step("steps"):
            for operation in operations:
                record.attempted += 1
                started = perf_counter()
                try:
                    repository.apply(operation)
                except REJECTIONS as error:
                    record.rejected(f"{operation.to_text()}: {error}")
                record.latencies.append(perf_counter() - started)

    def _check_issues(self, workspace, where: str) -> None:
        self.record.check(
            workspace.issues == validate_schema(workspace.schema),
            f"{where}: workspace.issues differs from validate_schema",
        )

    def _persist(self, repository) -> None:
        path = self.workdir / f"repository-{id(self)}.json"
        try:
            with self.step("save"):
                persistence.save_repository(repository, path)
            self.record.persisted_bytes = path.stat().st_size
            with self.step("load"):
                loaded = persistence.load_repository(path)
        finally:
            path.unlink(missing_ok=True)
        live = repository.workspace
        self.record.check(
            schema_fingerprint(loaded.workspace.schema)
            == schema_fingerprint(live.schema),
            "loaded repository's fingerprint differs from the live one",
        )
        self.record.check(
            len(loaded.workspace.log) == len(live.log),
            "loaded repository's log length differs from the live one",
        )
        self.record.index_rebuilds += (
            loaded.workspace.schema.index.stats()["rebuilds"]
        )
        # The loaded copy is kept only for the checks above.  Free it
        # now, or whether a later step runs on top of it depends on when
        # the cycle collector happens to fire, and peak RSS with it.
        del loaded
        gc.collect()

    def _verify(self, workspace, watermark: int) -> None:
        touched: set[str] = set()
        for record in workspace.schema.log.records_since(watermark):
            touched.update(record.names())
        with self.step("verify"):
            violations = invariants.check_workspace(
                workspace, touched=touched
            )
        self.record.check(
            not violations,
            f"scoped check_workspace: {[str(v) for v in violations[:3]]}",
        )

    # -- units ---------------------------------------------------------

    def session(self) -> None:
        """Open, preview, apply, step, undo/redo, freeze, persist, verify."""
        record = self.record
        repository, plan = self._open()
        workspace = repository.workspace
        watermark = workspace.schema.log.seq
        before = schema_fingerprint(workspace.schema)
        with self.step("preview"):
            preview = workspace.preview(plan)
        record.check(preview.ok, "preview of the whole plan failed")
        record.check(
            schema_fingerprint(workspace.schema) == before,
            "preview changed the workspace",
        )
        half = len(plan) // 2
        record.attempted += 1
        with self.step("apply_plan"):
            try:
                workspace.apply_plan(plan[:half])
            except REJECTIONS as error:
                record.rejected(f"apply_plan: {error}")
        self._apply_one_at_a_time(repository, plan[half:])
        with self.step("undo_redo"):
            for _ in range(UNDO_REDO):
                repository.undo()
            for _ in range(UNDO_REDO):
                workspace.redo()
        self._check_issues(workspace, "session")
        with self.step("custom_schema"):
            repository.generate_custom_schema()
        self._persist(repository)
        self._verify(workspace, watermark)
        record.index_rebuilds += workspace.schema.index.stats()["rebuilds"]

    def churn(self) -> None:
        """Open, apply every op, undo all, redo all, persist, verify."""
        repository, plan = self._open()
        workspace = repository.workspace
        watermark = workspace.schema.log.seq
        self._apply_one_at_a_time(repository, plan)
        with self.step("undo_redo"):
            while repository.undo() is not None:
                pass
            while workspace.redo() is not None:
                pass
        self._check_issues(workspace, "churn")
        self._persist(repository)
        self._verify(workspace, watermark)
        self.record.index_rebuilds += (
            workspace.schema.index.stats()["rebuilds"]
        )

    def whatif_round(self) -> None:
        """Fork, preview, impact, apply on the branch, verify, drop it."""
        record = self.record
        repository = self.inputs.repository
        live = repository.workspace
        text = self.inputs.plans[self.round % len(self.inputs.plans)]
        self.round += 1
        rebuilds = live.schema.index.stats()["rebuilds"]
        with self.step("parse_plan"):
            plan = language.parse_script(text)
        with self.step("fork"):
            branch = live.fork()
        with self.step("preview"):
            preview = branch.preview(plan)
        record.check(preview.ok, "narrow preview failed")
        with self.step("impact"):
            for operation in plan[:3]:
                repository.impact(operation)
        record.attempted += 1
        with self.step("apply_plan"):
            try:
                branch.apply_plan(plan)
            except REJECTIONS as error:
                record.rejected(f"branch apply_plan: {error}")
        self._check_issues(branch, "what-if branch")
        self._verify(branch, 0)
        record.index_rebuilds += (
            branch.schema.index.stats()["rebuilds"]
            + live.schema.index.stats()["rebuilds"] - rebuilds
        )
        with self.step("drop"):
            branch.schema.release_cow()
            del branch
