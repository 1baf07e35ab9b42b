"""Seeded operation-sequence fuzzer with a differential history model.

The fuzzer drives a :class:`~repro.repository.workspace.Workspace`
through a randomized sequence of ``apply`` / ``apply_bare`` /
``composite`` / ``undo`` / ``redo`` / ``reset`` steps, drawing concrete
operations from :mod:`repro.workload.generator` against the *current*
workspace schema.  Alongside the workspace it maintains its own tiny
model of what the history must look like -- a stack of schema
fingerprints mirroring the log and the redo stack -- and after every
step it checks the workspace against both that model and the invariant
registry (:mod:`repro.verify.invariants`).

The paper's closure contract makes rejection normal: most generated
operations are inadmissible in the current state and must raise
:class:`~repro.ops.base.OperationError` (or a model-layer
:class:`~repro.model.errors.SchemaError`) *without changing anything*.
The harness therefore distinguishes three outcomes per step:

* accepted  -- the schema changed; fingerprints and redo model advance;
* rejected  -- ``OperationError``; the fingerprint, log, and redo stack
  must be exactly as before (atomicity);
* broken    -- any other exception, or any model/invariant mismatch.

Everything is deterministic in ``(subject, seed, steps)``; a failing run
reduces to a minimal trace via :mod:`repro.verify.shrinker`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.model.fingerprint import memoized_schema_fingerprint
from repro.model.mutation import replayable_kind
from repro.model.schema import Schema
from repro.model.errors import SchemaError
from repro.ops.base import OperationError, SchemaOperation
from repro.ops.composite import CompositeOperation
from repro.ops.type_ops import AddTypeDefinition
from repro.repository.workspace import Workspace
from repro.verify.invariants import (
    TIER_CHEAP,
    TIER_EXPENSIVE,
    Violation,
    check_workspace,
)
from repro.workload.generator import random_composite, random_operation

#: Exception types that mean "operation rejected, workspace untouched".
REJECTION_ERRORS = (OperationError, SchemaError)

#: Step kinds the fuzzer can execute.
ACTIONS = ("apply", "apply_bare", "composite", "undo", "redo", "reset")

#: Cumulative action weights: mostly applies, a healthy dose of history.
_ACTION_WEIGHTS = (
    ("apply", 0.60),
    ("apply_bare", 0.08),
    ("composite", 0.07),
    ("undo", 0.12),
    ("redo", 0.10),
    ("reset", 0.03),
)


@dataclass(frozen=True)
class FuzzStep:
    """One concrete step of a fuzz trace (replayable verbatim)."""

    action: str
    operation: SchemaOperation | None = None
    composite: CompositeOperation | None = None

    def describe(self) -> str:
        if self.operation is not None:
            return f"{self.action}: {self.operation.to_text()}"
        if self.composite is not None:
            return f"{self.action}: {self.composite.describe()}"
        return self.action


@dataclass
class FuzzFailure:
    """The first step at which the workspace broke its contract."""

    step_index: int
    step: FuzzStep
    violations: list[Violation]

    def render(self) -> str:
        lines = [f"step {self.step_index}: {self.step.describe()}"]
        lines.extend(f"  {violation}" for violation in self.violations)
        return "\n".join(lines)


@dataclass
class FuzzReport:
    """Outcome of one fuzz run."""

    subject: str
    seed: int
    trace: list[FuzzStep] = field(default_factory=list)
    accepted: int = 0
    rejected: int = 0
    checks: int = 0
    #: Mid-run sweeps that ran in O(changed) scoped mode (DESIGN 5i).
    scoped_sweeps: int = 0
    #: Sweeps whose per-type differentials stride-sampled instead of
    #: probing exhaustively (the runner surfaces these -- no silent
    #: coverage caps).
    sampled_sweeps: int = 0
    failure: FuzzFailure | None = None

    @property
    def ok(self) -> bool:
        return self.failure is None

    def summary(self) -> str:
        status = "ok" if self.ok else "FAIL"
        text = (
            f"{status} subject={self.subject} seed={self.seed} "
            f"steps={len(self.trace)} accepted={self.accepted} "
            f"rejected={self.rejected} checks={self.checks}"
        )
        if self.scoped_sweeps:
            text += f" scoped={self.scoped_sweeps}"
        return text


class DifferentialHarness:
    """A workspace plus the fingerprint model it is checked against.

    ``fps`` mirrors the workspace log: ``fps[0]`` is the reference
    fingerprint and ``fps[i]`` the schema fingerprint after log entry
    ``i``.  Composite steps log one entry per primitive but only the
    final state is observed, so intermediate entries carry ``None`` and
    are backfilled lazily when an undo exposes them.  ``redo_fps``
    mirrors the redo stack with the fingerprint each entry must restore.
    """

    def __init__(
        self,
        reference: Schema,
        check_every: int = 4,
        invariant_filter: set[str] | None = None,
        cheap_every: int = 1,
        with_populations: bool = False,
        scoped_checks: bool = False,
    ) -> None:
        self.workspace = Workspace(reference, f"{reference.name}_fuzz")
        self.base_fp = memoized_schema_fingerprint(reference)
        self.fps: list[str | None] = [self.base_fp]
        self.redo_fps: list[str] = []
        self.check_every = max(1, check_every)
        # The cheap tier carries the index-vs-scan differentials, which
        # are O(types * ends) per check: fine after every step on the
        # catalog subjects, prohibitive on 1k-10k-type subjects.  Large
        # profiles raise this to check sparsely; the O(1) model checks
        # (_check_shape, fingerprint identities) still run every step.
        self.cheap_every = max(1, cheap_every)
        # Carry populations alongside the schema: at the expensive-tier
        # cadence, generate a witness population for the current schema
        # and require (a) the schema admits it and (b) a structural copy
        # agrees -- so a shrunk reproducer shows concrete witnessing
        # data, not just the operation trace.
        self.with_populations = with_populations
        # O(changed) mode: mid-run sweeps pass the spine's
        # touched-interface set since the last sweep to check_workspace,
        # so their cost is proportional to the steps between sweeps,
        # not the schema.  final_check stays a full sweep -- that is
        # the deferred half of the scoped-verification contract
        # (DESIGN 5i).
        self.scoped_checks = scoped_checks
        self._watermark_log = self.workspace.schema.log
        self._watermark_seq = self._watermark_log.seq
        self.invariant_filter = invariant_filter
        self.accepted = 0
        self.rejected = 0
        self.checks = 0
        self.scoped_sweeps = 0

    # ------------------------------------------------------------------

    def _fingerprint(self) -> str:
        return memoized_schema_fingerprint(self.workspace.schema)

    def _model_violation(self, name: str, message: str) -> list[Violation]:
        if self.invariant_filter is not None and name not in self.invariant_filter:
            return []
        return [Violation(name, message)]

    def execute(self, step: FuzzStep, step_index: int) -> list[Violation]:
        """Run one step; returns every violation it provoked."""
        try:
            violations = self._execute_action(step)
        except Exception as error:  # noqa: BLE001 - escapes are findings
            return self._model_violation(
                "unexpected-exception",
                f"{step.describe()} raised {type(error).__name__}: {error}",
            )
        violations.extend(self._check_shape())
        violations.extend(self._check_reference())
        tiers = []
        if (step_index + 1) % self.cheap_every == 0:
            tiers.append(TIER_CHEAP)
        if (step_index + 1) % self.check_every == 0:
            tiers.append(TIER_EXPENSIVE)
        if tiers:
            self.checks += 1
            touched = self._touched_since_sweep() if self.scoped_checks else None
            if touched is not None:
                self.scoped_sweeps += 1
            violations.extend(
                check_workspace(
                    self.workspace, tiers=tiers, names=self.invariant_filter,
                    touched=touched,
                )
            )
            self._advance_watermark()
        if self.with_populations and TIER_EXPENSIVE in tiers:
            violations.extend(self._check_populations(step_index))
        return violations

    def _touched_since_sweep(self) -> set[str] | None:
        """Interface names the spine recorded since the last sweep.

        ``None`` forces a full sweep: the workspace swapped schemas
        (reset installs a fresh fork with its own log), or a lossy
        record (out-of-band ``touch``) hides what changed.
        """
        log = self.workspace.schema.log
        if log is not self._watermark_log:
            return None
        touched: set[str] = set()
        for record in log.records_since(self._watermark_seq):
            if record.interface is None and not replayable_kind(record.kind):
                return None
            touched.update(record.names())
        return touched

    def _advance_watermark(self) -> None:
        log = self.workspace.schema.log
        self._watermark_log = log
        self._watermark_seq = log.seq

    def _check_populations(self, step_index: int) -> list[Violation]:
        """The population differential (``with_populations`` runs only).

        :func:`~repro.workload.population.generate_population` guarantees
        its result is clean under the schema it generated against, so a
        live-schema rejection means the generator and
        :func:`~repro.instances.check.check_population` disagree about
        what the schema admits.  The structural-copy leg then re-checks
        the same population against ``schema.copy()``: a disagreement
        there means the verdict depended on the evolved schema's
        incremental caches rather than its structure.  Violation
        messages embed the rendered population -- the witnessing data a
        shrunk reproducer needs.
        """
        from repro.instances.check import check_population
        from repro.workload.population import generate_population

        schema = self.workspace.schema
        pop = generate_population(schema, seed=step_index)
        live = check_population(schema, pop)
        violations = []
        if live:
            violations.extend(self._model_violation(
                "population-admission",
                f"the schema rejects its own generated population: "
                f"{live[0]}\n{pop.render()}",
            ))
        rebuilt = check_population(schema.copy(), pop)
        if [str(issue) for issue in rebuilt] != [str(issue) for issue in live]:
            detail = rebuilt[0] if rebuilt else live[0]
            violations.extend(self._model_violation(
                "population-differential",
                "check_population disagrees between the live schema and "
                f"its structural copy: {detail}\n{pop.render()}",
            ))
        return violations

    def final_check(self) -> list[Violation]:
        """Full-tier check, then drain the undo stack back to base."""
        violations = list(
            check_workspace(self.workspace, names=self.invariant_filter)
        )
        while self.workspace.log:
            violations.extend(self._do_undo())
            if violations:
                return violations
        if self._fingerprint() != self.base_fp:
            violations.extend(
                self._model_violation(
                    "undo-identity",
                    "undoing every step did not restore the reference schema",
                )
            )
        return violations

    # ------------------------------------------------------------------
    # Step semantics
    # ------------------------------------------------------------------

    def _execute_action(self, step: FuzzStep) -> list[Violation]:
        if step.action in ("apply", "apply_bare"):
            return self._do_apply(step.operation, step.action == "apply")
        if step.action == "composite":
            return self._do_composite(step.composite)
        if step.action == "undo":
            return self._do_undo()
        if step.action == "redo":
            return self._do_redo()
        if step.action == "reset":
            return self._do_reset()
        raise ValueError(f"unknown fuzz action {step.action!r}")

    def _do_apply(
        self, operation: SchemaOperation | None, propagate: bool
    ) -> list[Violation]:
        assert operation is not None
        before_redo = len(self.redo_fps)
        try:
            self.workspace.apply(operation, propagate=propagate)
        except REJECTION_ERRORS:
            self.rejected += 1
            return self._check_unchanged(
                f"rejected {operation.to_text()}", before_redo
            )
        self.accepted += 1
        self.fps.append(self._fingerprint())
        self.redo_fps.clear()
        return []

    def _do_composite(
        self, composite: CompositeOperation | None
    ) -> list[Violation]:
        assert composite is not None
        before_redo = len(self.redo_fps)
        try:
            entries = self.workspace.apply_composite(composite)
        except REJECTION_ERRORS:
            self.rejected += 1
            violations = []
            fingerprint = self._fingerprint()
            if self.fps[-1] is not None and fingerprint != self.fps[-1]:
                violations.extend(
                    self._model_violation(
                        "atomicity",
                        f"failed composite {composite.describe()!r} changed "
                        "the schema",
                    )
                )
            # A failed composite clears the redo stack iff at least one
            # primitive succeeded before the failure (each success goes
            # through apply, which clears it).  Both depths are legal;
            # anything else is a history leak.
            if self.workspace.redo_depth == 0:
                self.redo_fps.clear()
            elif self.workspace.redo_depth != before_redo:
                violations.extend(
                    self._model_violation(
                        "history-shape",
                        "failed composite left redo depth "
                        f"{self.workspace.redo_depth}, expected 0 or "
                        f"{before_redo}",
                    )
                )
            return violations
        if not entries:
            self.rejected += 1
            return self._check_unchanged(
                f"empty composite {composite.describe()!r}", before_redo
            )
        self.accepted += 1
        self.fps.extend([None] * (len(entries) - 1))
        self.fps.append(self._fingerprint())
        self.redo_fps.clear()
        return []

    def _do_undo(self) -> list[Violation]:
        before = self._fingerprint()
        entry = self.workspace.undo_last()
        if entry is None:
            return self._check_unchanged("undo on empty log", len(self.redo_fps))
        popped = self.fps.pop()
        self.redo_fps.append(popped if popped is not None else before)
        fingerprint = self._fingerprint()
        if self.fps[-1] is None:
            # intermediate state of a composite, first time observed
            self.fps[-1] = fingerprint
            return []
        if fingerprint != self.fps[-1]:
            return self._model_violation(
                "undo-identity",
                f"undo of {entry.describe()!r} did not restore the "
                "pre-operation schema",
            )
        return []

    def _do_redo(self) -> list[Violation]:
        before_redo = len(self.redo_fps)
        try:
            entry = self.workspace.redo()
        except REJECTION_ERRORS:
            self.rejected += 1
            return self._check_unchanged("rejected redo", before_redo)
        if entry is None:
            if self.redo_fps:
                return self._model_violation(
                    "history-shape",
                    f"redo returned nothing with {len(self.redo_fps)} "
                    "undone steps outstanding",
                )
            return []
        expected = self.redo_fps.pop()
        fingerprint = self._fingerprint()
        self.fps.append(fingerprint)
        if fingerprint != expected:
            return self._model_violation(
                "redo-identity",
                f"redo of {entry.describe()!r} did not restore the "
                "post-operation schema",
            )
        return []

    def _do_reset(self) -> list[Violation]:
        self.workspace.reset()
        self.fps = [self.base_fp]
        self.redo_fps.clear()
        if self._fingerprint() != self.base_fp:
            return self._model_violation(
                "reset-identity", "reset did not restore the reference schema"
            )
        return []

    # ------------------------------------------------------------------
    # Model checks
    # ------------------------------------------------------------------

    def _check_unchanged(self, what: str, before_redo: int) -> list[Violation]:
        violations = []
        if self.fps[-1] is not None and self._fingerprint() != self.fps[-1]:
            violations.extend(
                self._model_violation("atomicity", f"{what} changed the schema")
            )
        if self.workspace.redo_depth != before_redo:
            violations.extend(
                self._model_violation(
                    "history-shape",
                    f"{what} moved redo depth from {before_redo} to "
                    f"{self.workspace.redo_depth}",
                )
            )
        return violations

    def _check_reference(self) -> list[Violation]:
        """The shrink wrap never changes: the workspace shares every
        interface it has not edited, so a write that bypassed
        ``Schema.edit`` would land here.  O(1) while its spine is still."""
        reference = self.workspace.reference
        if memoized_schema_fingerprint(reference) == self.base_fp:
            return []
        return self._model_violation(
            "reference-pinned", "the step changed the shrink wrap schema"
        )

    def _check_shape(self) -> list[Violation]:
        violations = []
        if len(self.workspace.log) != len(self.fps) - 1:
            violations.extend(
                self._model_violation(
                    "history-shape",
                    f"log length {len(self.workspace.log)} does not match "
                    f"the fingerprint model ({len(self.fps) - 1})",
                )
            )
        if self.workspace.redo_depth != len(self.redo_fps):
            violations.extend(
                self._model_violation(
                    "history-shape",
                    f"redo depth {self.workspace.redo_depth} does not match "
                    f"the redo model ({len(self.redo_fps)})",
                )
            )
        return violations


# ----------------------------------------------------------------------
# Trace generation and replay
# ----------------------------------------------------------------------


def _pick_action(rng: random.Random) -> str:
    roll = rng.random()
    total = 0.0
    for action, weight in _ACTION_WEIGHTS:
        total += weight
        if roll < total:
            return action
    return "apply"


def _make_step(schema: Schema, rng: random.Random, index: int) -> FuzzStep:
    action = _pick_action(rng)
    if action == "composite":
        composite = random_composite(schema, rng, index)
        if composite is not None:
            return FuzzStep("composite", composite=composite)
        action = "apply"
    if action in ("apply", "apply_bare"):
        operation = random_operation(schema, rng, index)
        if operation is None:
            operation = AddTypeDefinition(f"GenType{index:04d}")
        return FuzzStep(action, operation=operation)
    return FuzzStep(action)


def fuzz(
    reference: Schema,
    seed: int,
    steps: int = 100,
    check_every: int = 4,
    subject_name: str | None = None,
    cheap_every: int = 1,
    with_populations: bool = False,
    scoped_checks: bool = False,
) -> FuzzReport:
    """Run one seeded fuzz sequence against *reference*.

    Steps are generated lazily against the current workspace schema, so
    later operations can target types earlier operations created.  The
    resulting trace is concrete -- every step carries its exact
    operation -- and can be replayed (and shrunk) without the RNG.
    ``cheap_every`` spaces out the cheap invariant tier for large
    subjects where its full-scan differentials dominate the run;
    ``scoped_checks`` switches mid-run sweeps to the O(changed) scoped
    mode (the final sweep stays full).
    """
    from repro.verify.invariants import consume_sampling_events

    rng = random.Random(seed)
    harness = DifferentialHarness(
        reference,
        check_every=check_every,
        cheap_every=cheap_every,
        with_populations=with_populations,
        scoped_checks=scoped_checks,
    )
    report = FuzzReport(
        subject=subject_name or reference.name, seed=seed
    )
    consume_sampling_events()  # drain events left over from other runs
    for index in range(steps):
        step = _make_step(harness.workspace.schema, rng, index)
        report.trace.append(step)
        violations = harness.execute(step, index)
        if violations:
            report.failure = FuzzFailure(index, step, violations)
            break
    else:
        violations = harness.final_check()
        if violations:
            report.failure = FuzzFailure(
                len(report.trace),
                FuzzStep("undo"),
                violations,
            )
    report.accepted = harness.accepted
    report.rejected = harness.rejected
    report.checks = harness.checks
    report.scoped_sweeps = harness.scoped_sweeps
    report.sampled_sweeps = consume_sampling_events()
    return report


def replay(
    reference: Schema,
    trace: list[FuzzStep],
    check_every: int = 1,
    invariant_filter: set[str] | None = None,
    final: bool = True,
    with_populations: bool = False,
) -> FuzzFailure | None:
    """Re-run a concrete trace; returns the first failure, if any.

    This is the shrinker's test oracle: it must be deterministic for a
    fixed trace, and with ``invariant_filter`` it reproduces exactly the
    violation family under investigation (ignoring unrelated findings a
    mutated trace might provoke).  ``with_populations`` must match the
    original run when the failure under investigation is a population
    violation; ``invariant_filter`` keeps the oracle deterministic
    either way, since the population checks respect it by name.
    Replay always sweeps in full -- scoped mode exists to make *live*
    runs affordable; the oracle wants maximal sensitivity, and full
    sweeps check a superset of what any scoped sweep checked.
    """
    harness = DifferentialHarness(
        reference,
        check_every=check_every,
        invariant_filter=invariant_filter,
        with_populations=with_populations,
    )
    for index, step in enumerate(trace):
        violations = harness.execute(step, index)
        if violations:
            return FuzzFailure(index, step, violations)
    if final:
        violations = harness.final_check()
        if violations:
            return FuzzFailure(len(trace), FuzzStep("undo"), violations)
    return None
