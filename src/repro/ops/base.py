"""Base machinery for schema modification operations.

Every operation of the paper's Appendix A grammar is one
:class:`SchemaOperation` subclass.  Operations are small immutable command
objects with a uniform life cycle:

1. ``validate(schema, context)`` -- check the operation's own constraints
   (existence, name freedom, semantic stability, ...) without mutating
   anything;
2. ``apply(schema, context)`` -- validate, perform the change, and return
   an :class:`Undo` closure that restores the previous state exactly.

``context`` carries the *reference schema* -- the original shrink wrap
schema whose generalization hierarchy bounds all move operations
(Section 3.2, "semantic stability": "attributes, relationships, and
methods are moved only within the generalization hierarchy established by
the shrink wrap schema").

Class attributes declare each operation's place in the paper's tables:

* ``op_name`` -- the canonical name of the Appendix A grammar;
* ``candidate`` / ``sub_candidate`` -- the row of Tables 2/3 the
  operation covers (e.g. ``Attribute`` / ``Type``);
* ``action`` -- ``add`` / ``delete`` / ``modify``;
* ``admissible_in`` -- the concept schema types in which the operation
  may be issued (the Table 1 matrix, materialised in
  :mod:`repro.ops.registry`);
* ``touched_aspects`` -- the aspects ``apply`` and its undo closure may
  change on ``affected_types()``; together they give the default effect
  signature (:mod:`repro.ops.effects`).  They feed no cache: what an
  applied or undone operation dirtied is read off the mutator records
  it emitted (DESIGN.md §5d).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, fields
from typing import Callable, ClassVar

from repro.concepts.base import ConceptKind
from repro.model.errors import ReproError
from repro.model.mutation import ALL_ASPECTS, Aspect
from repro.model.schema import Schema


class OperationError(ReproError):
    """Base class for failures raised by modification operations."""


class ConstraintViolation(OperationError):
    """The operation's own preconditions do not hold on this schema."""


class SemanticStabilityError(ConstraintViolation):
    """A move crosses the shrink wrap generalization hierarchy.

    Section 3.2: information may only move between object types on one
    generalization path, because replacing a participant with a type that
    is not semantically comparable yields a semantically distinct
    construct.
    """


class InadmissibleOperationError(OperationError):
    """The operation is not allowed in the issuing concept schema type.

    Raised by the designer / registry when, e.g., ``modify_supertype`` is
    issued through a wagon wheel (Table 1 reserves it for generalization
    hierarchies).
    """


#: Restores the schema state from immediately before an ``apply``.
Undo = Callable[[], None]


@dataclass(frozen=True)
class OperationContext:
    """Ambient information operations validate against.

    ``reference`` is the shrink wrap schema; when ``None`` (free-standing
    use of the operation layer, outside a repository), stability checks
    fall back to the schema being edited.
    """

    reference: Schema | None = None

    def stability_hierarchy(self, schema: Schema) -> Schema:
        """The schema whose generalization hierarchy bounds moves."""
        return self.reference if self.reference is not None else schema

    def check_isa_related(
        self, schema: Schema, first: str, second: str, what: str
    ) -> None:
        """Raise unless *first* and *second* share a generalization path.

        Types added during customization (absent from the reference
        schema) are checked against the current workspace hierarchy
        instead -- the designer may first build a subtype and then move
        information into it.
        """
        hierarchy = self.stability_hierarchy(schema)
        if first in hierarchy and second in hierarchy:
            related = hierarchy.isa_related(first, second)
        else:
            related = first in schema and second in schema and schema.isa_related(
                first, second
            )
        if not related:
            raise SemanticStabilityError(
                f"{what}: {first!r} and {second!r} are not on one "
                "generalization path (semantic stability)"
            )


#: Context used when no repository is involved.
FREE_CONTEXT = OperationContext()


class SchemaOperation(abc.ABC):
    """One schema modification command of the Appendix A language."""

    op_name: ClassVar[str]
    candidate: ClassVar[str]
    sub_candidate: ClassVar[str] = ""
    action: ClassVar[str]
    admissible_in: ClassVar[frozenset[ConceptKind]]
    #: :class:`~repro.model.mutation.Aspect` members this operation may
    #: change on its affected types.  The default claims everything;
    #: concrete operations narrow it, which narrows the default effect
    #: signature; the ``effects`` lint pass proves it covers every
    #: mutator ``apply`` and its undo closure can reach.
    touched_aspects: ClassVar[frozenset[Aspect]] = ALL_ASPECTS
    #: True for operations that never change which populations a schema
    #: admits (operation signatures, extent renames, pure reorderings of
    #: unordered clauses).  Declares ``instance_impact()`` empty, which
    #: the example-preservation oracle and ``Workspace.preview`` rely on.
    instance_neutral: ClassVar[bool] = False

    @abc.abstractmethod
    def validate(self, schema: Schema, context: OperationContext = FREE_CONTEXT) -> None:
        """Raise :class:`ConstraintViolation` when preconditions fail."""

    @abc.abstractmethod
    def apply(self, schema: Schema, context: OperationContext = FREE_CONTEXT) -> Undo:
        """Validate, mutate *schema*, and return an undo closure."""

    @abc.abstractmethod
    def arguments(self) -> tuple[str, ...]:
        """The operation's arguments rendered as operation-language text."""

    def to_text(self) -> str:
        """Render this operation in the Appendix A operation language."""
        return f"{self.op_name}({', '.join(self.arguments())})"

    def describe(self) -> str:
        """Human-readable one-liner for logs and feedback."""
        return self.to_text()

    @abc.abstractmethod
    def affected_types(self) -> tuple[str, ...]:
        """Interface names this operation touches (for impact/mapping)."""

    # ------------------------------------------------------------------
    # Effect signatures (static plan analysis, repro.analysis.plan)
    # ------------------------------------------------------------------
    #
    # The default signature is derived from ``affected_types()`` and
    # ``touched_aspects``: the op may write every declared aspect of
    # every affected type, reads what it writes, and requires each
    # affected name to exist.  Concrete operations narrow the hooks
    # below; the precision contract (writes/reads over-approximate,
    # requires under-approximates, creates/deletes exact) is documented
    # in :mod:`repro.ops.effects`.

    def created_names(self) -> tuple[str, ...]:
        """Interface names this operation introduces into the schema."""
        return ()

    def deleted_names(self) -> tuple[str, ...]:
        """Interface names this operation removes from the schema."""
        return ()

    def required_names(self) -> tuple[str, ...]:
        """Names whose absence makes ``validate`` reject the operation."""
        return self.affected_types()

    def written_footprint(self) -> frozenset[tuple[str, Aspect]]:
        """(interface, Aspect) cells ``apply`` (with cascades) may mutate."""
        return frozenset(
            (name, aspect)
            for name in self.affected_types()
            for aspect in self.touched_aspects
        )

    def read_footprint(self) -> frozenset[tuple[str, Aspect]]:
        """(interface, Aspect) cells ``validate`` may inspect."""
        return self.written_footprint()

    def instance_impact(self) -> frozenset[str]:
        """Interface names whose admitted populations may change.

        The instance-level analogue of ``written_footprint()``: an
        over-approximation of the interfaces for which
        :func:`repro.instances.check.check_population` may give a
        different verdict after ``apply``.  Defaults to every written,
        created, or deleted name; operations that only rename extents,
        edit operation signatures, or reorder unordered clauses set
        :attr:`instance_neutral` and declare the empty set.
        """
        if self.instance_neutral:
            return frozenset()
        impacted = {name for name, _ in self.written_footprint()}
        impacted.update(self.created_names())
        impacted.update(self.deleted_names())
        return frozenset(impacted)

    def effect_signature(self) -> "EffectSignature":
        """The operation's static footprint (see :mod:`repro.ops.effects`)."""
        from repro.ops.effects import EffectSignature

        return EffectSignature(
            reads=self.read_footprint(),
            writes=self.written_footprint(),
            creates=frozenset(self.created_names()),
            deletes=frozenset(self.deleted_names()),
            requires=frozenset(self.required_names()),
            instances=self.instance_impact(),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.to_text()}>"

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return _field_values(self) == _field_values(other)

    def __hash__(self) -> int:
        return hash((type(self).__name__, _field_values(self)))


def _field_values(operation: SchemaOperation) -> tuple:
    """Dataclass field values; operations are all frozen dataclasses."""
    return tuple(
        getattr(operation, f.name) for f in fields(operation)  # type: ignore[arg-type]
    )


def render_list(items: tuple[str, ...] | list[str]) -> str:
    """Render a parenthesised identifier list, e.g. ``(a, b)`` or ``()``."""
    return f"({', '.join(items)})"
