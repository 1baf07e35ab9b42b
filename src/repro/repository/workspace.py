"""The designer's workspace: the schema under design plus its history.

Figure 1 places a "Workspace" data structure between the concept schemas
and the custom schema: modifications are applied there, one operation at
a time, each validated, optionally propagated, logged, and undoable.

The paper's loop validates the custom schema after *every* operation;
the workspace does that through the incremental validation engine
(:class:`repro.model.validation_cache.ValidationCache`), which re-checks
only the dirty set each step leaves behind, and keeps the current issue
list in :attr:`Workspace.issues`.

On top of the mutation spine the workspace offers cheap what-if
branches: :meth:`Workspace.snapshot` is an O(1) watermark (a seq on the
schema's mutation log plus an undo depth), :meth:`Workspace.fork` clones
the current state into an independent workspace whose spine remembers
its lineage (so :func:`repro.analysis.diff.schema_diff` can diff the two
branches from their divergence suffixes), and :meth:`Workspace.undo_to`
rewinds to a snapshot through the ordinary undo machinery.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

from repro.concepts.base import ConceptKind, ConceptSchema
from repro.knowledge.constraints import cautions_for
from repro.knowledge.feedback import Feedback, info
from repro.knowledge.propagation import expand, expand_applying
from repro.model.errors import SchemaError
from repro.model.mutation import MutationLog
from repro.model.schema import Schema
from repro.model.validation import Issue
from repro.ops.base import (
    OperationContext,
    OperationError,
    SchemaOperation,
    Undo,
)
from repro.ops.registry import check_admissible


@dataclass(frozen=True)
class WorkspaceSnapshot:
    """An O(1) bookmark of a workspace state.

    ``seq`` is the watermark on the schema's mutation log at snapshot
    time and ``depth`` the undo depth; ``log`` pins the identity of the
    spine the snapshot was taken on, so a snapshot is rejected after
    :meth:`Workspace.reset` (which replaces the schema and its log).
    Taking a snapshot copies nothing -- restoring one
    (:meth:`Workspace.undo_to`) or branching from one
    (:meth:`Workspace.fork` with ``at=``) pays only for the distance
    travelled.
    """

    log: MutationLog
    seq: int
    depth: int


@dataclass
class LogEntry:
    """One applied step: the requested operation and its full plan."""

    requested: SchemaOperation
    plan: list[SchemaOperation]
    undos: list[Undo]
    concept_id: str | None = None
    feedback: list[Feedback] = field(default_factory=list)
    propagated: bool = True

    def describe(self) -> str:
        prefix = f"[{self.concept_id}] " if self.concept_id else ""
        text = prefix + self.requested.to_text()
        extra = len(self.plan) - 1
        if extra:
            text += f" (+{extra} cascaded)"
        return text


class Workspace:
    """The schema under design, with apply / undo / redo over operations.

    ``reference`` is the shrink wrap schema; it anchors semantic
    stability checks and is never modified.  The workspace schema is a
    copy-on-write :meth:`~repro.model.schema.Schema.fork` of it, sharing
    every interface the designer has not edited.
    """

    def __init__(
        self,
        reference: Schema,
        name: str | None = None,
        validate_each_step: bool = True,
    ) -> None:
        self.reference = reference
        self.schema = reference.fork(name or f"{reference.name}_custom")
        self.context = OperationContext(reference=reference)
        self.log: list[LogEntry] = []
        self._redo_stack: list[LogEntry] = []
        #: Structural issues of the current custom schema, refreshed
        #: incrementally after every apply / undo / redo / reset (the
        #: paper's per-operation validation).  Empty when
        #: ``validate_each_step`` is off.
        self.validate_each_step = validate_each_step
        self.issues: list[Issue] = []
        #: Last plan analysis, keyed by (plan fingerprint, concept kind,
        #: normalize flag) and stamped with the spine it was computed
        #: against -- retrying a rejected plan reuses it instead of
        #: re-running the whole static analysis.
        self._analysis_memo: tuple | None = None
        self._refresh_issues()

    def _refresh_issues(self) -> None:
        if self.validate_each_step:
            self.issues = self.schema.validation.validate()

    def _note_scopes(self, plan: list[SchemaOperation]) -> None:
        """Feed each step's declared scope into the schema's journal.

        The interface-level mutator hooks already record precise dirt;
        the operations' declared (types, aspects) scopes are noted as
        well so out-of-band effects (undo closures, future operations
        that bypass a mutator) stay covered.
        """
        for step in plan:
            names, aspects = step.validation_scope()
            self.schema.note_validation_scope(names, aspects)

    # ------------------------------------------------------------------
    # Applying operations
    # ------------------------------------------------------------------

    def apply(
        self,
        operation: SchemaOperation,
        concept: ConceptSchema | None = None,
        propagate: bool = True,
    ) -> LogEntry:
        """Apply one operation (plus its cascades) to the workspace.

        When *concept* is given, the operation must be admissible in that
        concept schema's type (Table 1) -- this is how the interactive
        designer restricts "the possible modifications ... according to
        the concept schema type that is being modified" (Section 3).

        With ``propagate`` disabled, the operation is applied bare; it
        then fails whenever its own constraints require cascades first.
        The ablation bench uses this to quantify what the propagation
        rules buy.
        """
        return self._apply_entry(operation, concept, propagate, refresh=True)

    def _apply_entry(
        self,
        operation: SchemaOperation,
        concept: ConceptSchema | None,
        propagate: bool,
        refresh: bool,
    ) -> LogEntry:
        if concept is not None:
            check_admissible(operation, concept.kind)
        if propagate:
            plan = expand(self.schema, operation, self.context)
        else:
            plan = [operation]
        feedback: list[Feedback] = []
        for step in plan:
            feedback.extend(cautions_for(self.schema, step))
        undos: list[Undo] = []
        try:
            for step in plan:
                undos.append(step.apply(self.schema, self.context))
        except (OperationError, SchemaError):
            # Operations reject with OperationError; a model-layer
            # SchemaError (unknown type, duplicate name) escaping an
            # op's validate is the same verdict -- either way the
            # workspace must be left exactly as it was.
            for undo in reversed(undos):
                undo()
            raise
        for step in plan:
            if step is not operation:
                feedback.append(
                    info(
                        "cascaded", step.to_text(),
                        f"performed automatically for {operation.op_name}",
                    )
                )
        entry = LogEntry(
            requested=operation,
            plan=plan,
            undos=undos,
            concept_id=concept.identifier if concept else None,
            feedback=feedback,
            propagated=propagate,
        )
        self.log.append(entry)
        self._redo_stack.clear()
        self._note_scopes(plan)
        if refresh:
            self._refresh_issues()
        return entry

    def apply_plan(
        self,
        plan: list[SchemaOperation],
        concept: ConceptSchema | None = None,
        propagate: bool = True,
        normalize: bool = True,
    ) -> list[LogEntry]:
        """Pre-flight, normalize, and apply a whole plan at once.

        The plan is first vetted statically
        (:func:`repro.analysis.plan.analyze_plan` against the current
        schema and, when *concept* is given, its Table 1 kind); if any
        diagnostic fires, :class:`~repro.analysis.plan.PlanPreflightError`
        is raised before anything runs.  A clean plan is normalized
        (unless ``normalize`` is off) and applied batch by batch: every
        op still goes through the full :meth:`apply` machinery
        (admissibility, propagation, cautions, one log entry each), but
        the per-step validation runs once per *batch* of commuting ops
        instead of once per op -- the paper's validate-after-every-
        operation loop at a fraction of the cost.

        Returns one :class:`LogEntry` per *executed* (normalized) op.
        If any op fails dynamically mid-plan, everything applied so far
        is undone and the error re-raised, leaving the workspace as it
        was.
        """
        from repro.analysis.plan import PlanPreflightError

        kind = concept.kind if concept is not None else None
        analysis = self._analyzed(plan, kind, normalize)
        if analysis.diagnostics:
            raise PlanPreflightError(analysis.diagnostics)
        entries: list[LogEntry] = []
        try:
            for batch in analysis.batches:
                for operation in batch:
                    if propagate:
                        entries.append(self._apply_fast(operation, concept))
                    else:
                        entries.append(self._apply_entry(
                            operation, concept, propagate, refresh=False
                        ))
                self._refresh_issues()
        except (OperationError, SchemaError):
            for _ in entries:
                self.undo_last()
            self._redo_stack.clear()
            self._refresh_issues()
            raise
        return entries

    def _analyzed(self, plan, kind, normalize: bool):
        """Plan analysis, memoized on (plan fingerprint, spine seq).

        A rejected plan raises :class:`~repro.analysis.plan.
        PlanPreflightError` *before* anything mutates, so the schema's
        spine seq is unchanged on retry and the (deterministic) analysis
        can be reused wholesale -- it is ~19% of batched apply time
        (BENCH_PR5.json ``plan_analyze_fraction``).  Any mutation bumps
        the seq and naturally invalidates the memo.  Hits and misses are
        counted in ``Schema.stats()`` (``analysis.hits`` / ``.misses``).
        """
        from repro.analysis.plan import analyze_plan

        key = (tuple(op.to_text() for op in plan), kind, normalize)
        log = self.schema.log
        memo = self._analysis_memo
        if (
            memo is not None
            and memo[0] == key
            and memo[1] is log
            and memo[2] == log.seq
        ):
            self.schema.note_analysis_cache(True)
            return memo[3]
        self.schema.note_analysis_cache(False)
        analysis = analyze_plan(
            plan, self.schema, kind=kind, normalize=normalize, edges=False
        )
        self._analysis_memo = (key, log, log.seq, analysis)
        return analysis

    def apply_plan_compiled(
        self,
        plan: list[SchemaOperation],
        concept: ConceptSchema | None = None,
        normalize: bool = True,
    ) -> list[LogEntry]:
        """The fused compiled-plan path: one mutation pass, one validate.

        Same pre-flight and normalization as :meth:`apply_plan`, but the
        clean, batched plan is then *compiled down* to a single pass:
        every op (with its cascades) mutates the live schema through
        :func:`~repro.knowledge.propagation.expand_applying` exactly as
        the per-op path does, and validation runs once at the end
        instead of once per batch.  Designer feedback (cautions,
        cascade notes) is skipped -- this path is for bulk application
        where the pre-flight already vetted the plan, e.g. replaying a
        reviewed script onto a 10k-type schema.

        The emitted ``MutationRecord`` stream is identical to the
        per-op path's, record for record: all mutation flows through the
        same ``step.apply`` calls inside ``expand_applying`` followed by
        the same per-step scope notes (``tools/check_mutators.py``
        AST-checks this path mutates through no other channel).  On a
        dynamic failure mid-pass, every applied undo closure runs in
        reverse and the error is re-raised with the history untouched.
        """
        from repro.analysis.plan import PlanPreflightError

        kind = concept.kind if concept is not None else None
        analysis = self._analyzed(plan, kind, normalize)
        if analysis.diagnostics:
            raise PlanPreflightError(analysis.diagnostics)
        concept_id = concept.identifier if concept else None
        entries: list[LogEntry] = []
        try:
            for batch in analysis.batches:
                for operation in batch:
                    if concept is not None:
                        check_admissible(operation, concept.kind)
                    step_plan, undos = expand_applying(
                        self.schema, operation, self.context
                    )
                    entries.append(
                        LogEntry(
                            requested=operation,
                            plan=step_plan,
                            undos=undos,
                            concept_id=concept_id,
                            feedback=[],
                            propagated=True,
                        )
                    )
                    self._note_scopes(step_plan)
        except (OperationError, SchemaError):
            for entry in reversed(entries):
                for undo in reversed(entry.undos):
                    undo()
                self._note_scopes(entry.plan)
            self._refresh_issues()
            raise
        self.log.extend(entries)
        self._redo_stack.clear()
        self._refresh_issues()
        return entries

    def _apply_fast(
        self, operation: SchemaOperation, concept: ConceptSchema | None
    ) -> LogEntry:
        """:meth:`apply` minus the scratch-copy expansion and validation.

        Used by :meth:`apply_plan` only: cascades are computed against
        the live schema and applied in the same breath
        (:func:`~repro.knowledge.propagation.expand_applying`), which is
        safe there because the op either completes with undo closures
        recorded or rolls itself back.  Cautions are consequently
        evaluated against the state each step actually applies to, and
        the caller is responsible for refreshing validation.
        """
        if concept is not None:
            check_admissible(operation, concept.kind)
        feedback: list[Feedback] = []
        plan, undos = expand_applying(
            self.schema, operation, self.context,
            before_step=lambda step: feedback.extend(
                cautions_for(self.schema, step)
            ),
        )
        for step in plan:
            if step is not operation:
                feedback.append(
                    info(
                        "cascaded", step.to_text(),
                        f"performed automatically for {operation.op_name}",
                    )
                )
        entry = LogEntry(
            requested=operation,
            plan=plan,
            undos=undos,
            concept_id=concept.identifier if concept else None,
            feedback=feedback,
            propagated=True,
        )
        self.log.append(entry)
        self._redo_stack.clear()
        self._note_scopes(plan)
        return entry

    def preview(self, plan: list[SchemaOperation], concept=None):
        """What data a pending plan newly admits or forbids; mutates nothing.

        The plan is applied to a throw-away fork, significant example
        populations (:mod:`repro.examples`) are generated on both sides
        for the interfaces the plan's instance-impact facet names, and
        every admission flip is reported as designer feedback: a caution
        per population the plan newly forbids, an info per population it
        newly admits.  Returns a
        :class:`~repro.examples.preview.PlanPreview`.
        """
        from repro.examples.preview import preview_plan

        return preview_plan(self, plan, concept)

    def apply_composite(
        self,
        composite,
        concept: ConceptSchema | None = None,
        propagate: bool = True,
    ) -> list[LogEntry]:
        """Apply a composite operation (a macro of primitives).

        Each primitive of the expanded plan is applied -- and logged --
        through the normal :meth:`apply` path, so propagation, feedback,
        undo, and persistence all keep working at the primitive level.
        If a later primitive fails, the earlier ones are undone and the
        error re-raised, leaving the workspace unchanged.
        """
        plan = composite.expand_plan(self.schema, self.context)
        entries: list[LogEntry] = []
        try:
            for operation in plan:
                entries.append(self.apply(operation, concept, propagate))
        except (OperationError, SchemaError):
            for _ in entries:
                self.undo_last()
            self._redo_stack.clear()
            raise
        return entries

    def apply_kind_checked(
        self, operation: SchemaOperation, kind: ConceptKind,
        propagate: bool = True,
    ) -> LogEntry:
        """Apply with a bare concept *kind* instead of a concept object."""
        check_admissible(operation, kind)
        return self.apply(operation, concept=None, propagate=propagate)

    # ------------------------------------------------------------------
    # History
    # ------------------------------------------------------------------

    @property
    def undo_depth(self) -> int:
        """How many applied steps can currently be undone."""
        return len(self.log)

    @property
    def redo_depth(self) -> int:
        """How many undone steps can currently be re-applied."""
        return len(self._redo_stack)

    def undo_last(self) -> LogEntry | None:
        """Undo the most recent step (the whole plan); returns it."""
        if not self.log:
            return None
        entry = self.log.pop()
        for undo in reversed(entry.undos):
            undo()
        self._redo_stack.append(entry)
        self._note_scopes(entry.plan)
        self._refresh_issues()
        return entry

    def redo(self) -> LogEntry | None:
        """Re-apply the most recently undone step; returns the new entry.

        Mirrors :meth:`apply`: if any plan step fails mid-redo, the
        already re-applied steps are rolled back and the entry stays on
        the redo stack, leaving the workspace exactly as before the
        call.  The fresh log entry keeps the original ``propagated``
        flag so the history stays faithful to how the step was applied.
        """
        if not self._redo_stack:
            return None
        entry = self._redo_stack.pop()
        undos: list[Undo] = []
        try:
            for step in entry.plan:
                undos.append(step.apply(self.schema, self.context))
        except (OperationError, SchemaError):
            for undo in reversed(undos):
                undo()
            self._redo_stack.append(entry)
            raise
        fresh = LogEntry(
            requested=entry.requested,
            plan=entry.plan,
            undos=undos,
            concept_id=entry.concept_id,
            feedback=entry.feedback,
            propagated=entry.propagated,
        )
        self.log.append(fresh)
        self._note_scopes(fresh.plan)
        self._refresh_issues()
        return fresh

    # ------------------------------------------------------------------
    # Snapshots & forking
    # ------------------------------------------------------------------

    def snapshot(self) -> WorkspaceSnapshot:
        """Bookmark the current state in O(1).

        The snapshot is just a watermark on the schema's mutation spine
        plus the current undo depth -- nothing is copied.  Rewind to it
        with :meth:`undo_to`, or branch an independent workspace off it
        with :meth:`fork(at=...) <fork>`.  A snapshot is invalidated by
        :meth:`reset` (the schema and its spine are replaced).
        """
        return WorkspaceSnapshot(
            log=self.schema.log,
            seq=self.schema.log.seq,
            depth=self.undo_depth,
        )

    def _check_snapshot(self, snapshot: WorkspaceSnapshot) -> None:
        if snapshot.log is not self.schema.log:
            raise ValueError(
                "snapshot belongs to a different workspace state "
                "(taken before a reset, or on another workspace)"
            )
        if snapshot.depth > self.undo_depth:
            raise ValueError(
                f"snapshot depth {snapshot.depth} is ahead of the "
                f"current history ({self.undo_depth} steps); the steps "
                "it bookmarked were undone and overwritten"
            )

    def undo_to(self, snapshot: WorkspaceSnapshot) -> int:
        """Rewind to *snapshot* via undo; returns how many steps unwound.

        Runs the ordinary :meth:`undo_last` machinery, so the unwound
        steps land on the redo stack and can be replayed with
        :meth:`redo` -- a snapshot is a named point in the same history,
        not a separate timeline.
        """
        self._check_snapshot(snapshot)
        unwound = 0
        while self.undo_depth > snapshot.depth:
            self.undo_last()
            unwound += 1
        return unwound

    def fork(
        self,
        name: str | None = None,
        at: WorkspaceSnapshot | None = None,
    ) -> "Workspace":
        """An independent what-if branch of this workspace.

        Without ``at``, the fork branches the *current* state: its
        schema is a copy-on-write :meth:`Schema.fork
        <repro.model.schema.Schema.fork>` that shares every interface
        object with this workspace's schema until one side writes it,
        and its mutation log records the lineage, so record-level
        diffing of the two branches stays cheap.  The fork starts with
        an empty undo history -- its log entries' undo closures would
        otherwise be bound to this workspace's objects -- and inherits
        the current issue list without revalidating (its first
        validation after a mutation is a full rebuild).

        With ``at`` (a snapshot of this workspace), the fork replays the
        bookmarked plan prefix onto a fresh CoW fork of the reference,
        reproducing the state the snapshot bookmarked *with* a live undo
        history, while this workspace stays untouched.  When the replay
        cannot reproduce the state -- the schema was edited out-of-band
        (its mutation log is lossy), or this workspace is itself a fork
        (a CoW child whose baseline is its parent's state, not the
        reference, so the op log alone no longer tells the whole story)
        -- the fork falls back to rewinding this workspace to the
        snapshot, cloning, and replaying forward again; the branch is
        then state-correct but starts with an empty undo history, and a
        :class:`RuntimeWarning` says so.  Every workspace schema is a
        fork; "itself a fork" means forked off a log other than the
        reference's.
        """
        if at is not None:
            self._check_snapshot(at)
            origin = self.schema.log.origin
            if origin is not None and origin is not self.reference.log:
                return self._fork_by_rewind(
                    name, at,
                    "this workspace is itself a fork; its baseline is "
                    "its parent's state, not the reference",
                )
            if self.schema.log.lossy:
                return self._fork_by_rewind(
                    name, at,
                    "the schema was edited out-of-band "
                    "(its mutation log is lossy)",
                )
            try:
                return self._fork_by_replay(name, at)
            except (OperationError, SchemaError) as error:
                return self._fork_by_rewind(
                    name, at, f"replaying the op log failed ({error})"
                )
        branch = Workspace.__new__(Workspace)
        branch.reference = self.reference
        branch.schema = self.schema.fork(name or f"{self.schema.name}_fork")
        branch.context = OperationContext(reference=self.reference)
        branch.log = []
        branch._redo_stack = []
        branch.validate_each_step = self.validate_each_step
        branch.issues = list(self.issues)
        branch._analysis_memo = None
        return branch

    def _fork_by_replay(
        self, name: str | None, at: WorkspaceSnapshot
    ) -> "Workspace":
        """The normal ``fork(at=...)`` path: replay the op-log prefix."""
        branch = Workspace(
            self.reference,
            name or f"{self.schema.name}_fork",
            validate_each_step=self.validate_each_step,
        )
        for entry in self.log[: at.depth]:
            undos: list[Undo] = []
            for step in entry.plan:
                undos.append(step.apply(branch.schema, branch.context))
            branch.log.append(
                LogEntry(
                    requested=entry.requested,
                    plan=entry.plan,
                    undos=undos,
                    concept_id=entry.concept_id,
                    feedback=entry.feedback,
                    propagated=entry.propagated,
                )
            )
            branch._note_scopes(entry.plan)
        branch._refresh_issues()
        return branch

    def _fork_by_rewind(
        self, name: str | None, at: WorkspaceSnapshot, reason: str
    ) -> "Workspace":
        """Fallback ``fork(at=...)``: rewind, clone, roll forward again.

        State-correct even when the op log alone cannot rebuild the
        schema, at the price of an empty undo history on the branch.
        Out-of-band edits are not position-tracked, so the branch
        reflects them even when they happened after the snapshot.
        """
        warnings.warn(
            f"fork(at=...) cannot replay the bookmarked prefix: {reason}; "
            "falling back to rewind-and-clone -- the branch is "
            "state-correct but starts with an empty undo history",
            RuntimeWarning,
            stacklevel=3,
        )
        unwound = self.undo_to(at)
        try:
            return self.fork(name)
        finally:
            for _ in range(unwound):
                self.redo()

    def reset(self) -> None:
        """Throw away all customization and start over."""
        self.schema = self.reference.fork(self.schema.name)
        self.log.clear()
        self._redo_stack.clear()
        self._refresh_issues()

    def applied_operations(self) -> list[SchemaOperation]:
        """Every plan step applied so far, in order."""
        return [step for entry in self.log for step in entry.plan]

    def script(self) -> str:
        """The whole customization as an operation-language script."""
        return "\n".join(op.to_text() for op in self.applied_operations())

    def history(self) -> str:
        """Readable log of the requested operations."""
        return "\n".join(entry.describe() for entry in self.log)
