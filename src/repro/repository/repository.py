"""The schema repository: "a knowledge base for the entire process".

Figure 1: "It holds the original shrink wrap schema used as the starting
point, the concept schemas (generated from the shrink wrap schema), the
workspace for the schema under design, the custom schema, and the
mapping from the original to the custom schema."
"""

from __future__ import annotations

from repro.analysis.diff import SchemaDiff, diff_schemas
from repro.concepts.base import ConceptSchema
from repro.concepts.decompose import Decomposition, decompose
from repro.knowledge.consistency import consistency_report
from repro.knowledge.feedback import Feedback
from repro.knowledge.impact import ImpactReport, impact_of
from repro.model.errors import SchemaError
from repro.model.schema import Schema
from repro.model.validation import raise_on_errors
from repro.odl.parser import parse_schema
from repro.ops.base import SchemaOperation
from repro.repository.localnames import LocalNameMap, apply_local_names
from repro.repository.mapping import SchemaMapping, generate_mapping
from repro.repository.workspace import LogEntry, Workspace


class SchemaRepository:
    """All artifacts of one shrink-wrap-based design effort.

    The life cycle mirrors Figure 1:

    1. construct from the shrink wrap schema (its concept schemas are
       generated from a snapshot of it, each when first asked for);
    2. customize through :meth:`apply` / :meth:`undo` against the
       workspace, one concept schema at a time;
    3. :meth:`generate_custom_schema` freezes the workspace into the
       custom schema and :meth:`generate_mapping` derives the
       original-to-custom correspondence;
    4. :meth:`consistency` and :meth:`impact` provide the designer
       feedback loop at any point.
    """

    def __init__(self, shrink_wrap: Schema, custom_name: str | None = None) -> None:
        # The workspace's first read of its issues validates its CoW fork
        # of the shrink wrap in full (same interfaces, same order), so one
        # validation per open gates a structurally broken schema.
        workspace = Workspace(shrink_wrap, custom_name)
        raise_on_errors(shrink_wrap.name, workspace.issues)
        self.shrink_wrap = shrink_wrap
        self.decomposition: Decomposition = decompose(shrink_wrap)
        self.workspace = workspace
        self.custom_schema: Schema | None = None
        self.mapping: SchemaMapping | None = None
        self.local_names = LocalNameMap()
        #: Registered wagon wheel views, with the workspace position at
        #: which each was created (so persistence can replay them
        #: interleaved with the operation log).
        self.view_records: list[dict] = []

    @classmethod
    def from_odl(
        cls, text: str, name: str = "shrink_wrap",
        custom_name: str | None = None,
    ) -> "SchemaRepository":
        """Build a repository from extended-ODL text."""
        return cls(parse_schema(text, name=name), custom_name)

    # ------------------------------------------------------------------
    # Concept schemas
    # ------------------------------------------------------------------

    def concept_schemas(self) -> list[ConceptSchema]:
        """Every concept schema of the shrink wrap decomposition."""
        return self.decomposition.all_concepts()

    def concept(self, identifier: str) -> ConceptSchema:
        """Look up one concept schema by identifier (e.g. ``ww:Course``)."""
        return self.decomposition.by_identifier(identifier)

    def create_wagon_wheel_view(
        self,
        focal: str,
        view_name: str,
        spoke_paths: tuple[str, ...] | None = None,
        attribute_names: tuple[str, ...] | None = None,
    ) -> ConceptSchema:
        """Register an additional point of view on one focal type.

        Section 3.3.1 allows several wagon wheels per object type; the
        view is extracted from the *current workspace* (it reflects any
        customization so far) and becomes addressable like any other
        concept schema, e.g. ``ww:Course_Offering#scheduling``.
        """
        from repro.concepts.wagon_wheel import extract_wagon_wheel_view

        concept = extract_wagon_wheel_view(
            self.workspace.schema, focal, view_name,
            spoke_paths, attribute_names,
        )
        self.decomposition.add_concept(concept)
        self.view_records.append(
            {
                "focal": focal,
                "view_name": view_name,
                "spoke_paths": list(spoke_paths) if spoke_paths is not None
                else None,
                "attribute_names": list(attribute_names)
                if attribute_names is not None else None,
                "position": len(self.workspace.log),
            }
        )
        return concept

    # ------------------------------------------------------------------
    # Customization
    # ------------------------------------------------------------------

    def apply(
        self,
        operation: SchemaOperation,
        concept_id: str | None = None,
        propagate: bool = True,
    ) -> LogEntry:
        """Apply one operation, optionally in a concept schema context."""
        concept = self.concept(concept_id) if concept_id else None
        entry = self.workspace.apply(operation, concept, propagate)
        self._invalidate_deliverables()
        return entry

    def apply_composite(
        self, composite, concept_id: str | None = None, propagate: bool = True
    ) -> list[LogEntry]:
        """Apply a composite (macro) operation; see Workspace.apply_composite."""
        concept = self.concept(concept_id) if concept_id else None
        entries = self.workspace.apply_composite(composite, concept, propagate)
        self._invalidate_deliverables()
        return entries

    def undo(self) -> LogEntry | None:
        """Undo the last applied operation (with its cascades)."""
        entry = self.workspace.undo_last()
        if entry is not None:
            self._invalidate_deliverables()
        return entry

    def impact(
        self, operation: SchemaOperation, concept_id: str | None = None
    ) -> ImpactReport:
        """Preview the impact of *operation* without applying it."""
        if concept_id:
            from repro.ops.registry import check_admissible

            check_admissible(operation, self.concept(concept_id).kind)
        return impact_of(
            self.workspace.schema, operation, self.workspace.context,
            self.decomposition,
        )

    def _invalidate_deliverables(self) -> None:
        self.custom_schema = None
        self.mapping = None

    # ------------------------------------------------------------------
    # Deliverables
    # ------------------------------------------------------------------

    def generate_custom_schema(self, name: str | None = None) -> Schema:
        """Freeze the workspace into the custom schema deliverable.

        The custom schema must pass structural validation -- Figure 1's
        "Generate custom schema" step is the gate at which the
        consistency rules are enforced.  It is a copy-on-write fork of
        the workspace schema; the CoW barrier copies an interface into it
        before the workspace writes one, so later edits never reach it.
        Holding what the workspace holds, it is gated on the workspace's
        issues, which fold only the edits since their last read.
        """
        name = name or self.workspace.schema.name
        raise_on_errors(name, self.workspace.issues)
        custom = self.workspace.schema.fork(name)
        self.custom_schema = custom
        return custom

    def generate_mapping(self) -> SchemaMapping:
        """Derive the original-to-custom mapping deliverable."""
        if self.custom_schema is None:
            self.generate_custom_schema()
        assert self.custom_schema is not None
        self.mapping = generate_mapping(self.shrink_wrap, self.custom_schema)
        return self.mapping

    def diff(self) -> SchemaDiff:
        """Construct-level diff of the current workspace vs. the original."""
        return diff_schemas(self.shrink_wrap, self.workspace.schema)

    def consistency(self) -> list[Feedback]:
        """The consistency report over the current workspace."""
        return consistency_report(self.workspace.schema, self.decomposition)

    def display_schema(self) -> Schema:
        """The workspace viewed through the local-name mapping.

        Canonical names keep identifying every construct internally (the
        paper's name-equivalence assumption); local names are a
        presentation layer maintained by the repository, exactly the
        extension Section 5 sketches.
        """
        return apply_local_names(self.workspace.schema, self.local_names)

    def customization_script(self) -> str:
        """The applied operations as an Appendix A language script."""
        return self.workspace.script()

    def summary(self) -> str:
        """One-paragraph status of the repository."""
        stats = self.workspace.schema.stats()
        return (
            f"repository for {self.shrink_wrap.name!r}: "
            f"{self.decomposition.count()} concept schemas, "
            f"{len(self.workspace.log)} customization step(s), workspace "
            f"has {stats['interfaces']} interfaces / "
            f"{stats['attributes']} attributes / "
            f"{stats['relationship_ends']} relationship ends"
        )


def require_custom_schema(repository: SchemaRepository) -> Schema:
    """Fetch the generated custom schema or fail clearly."""
    if repository.custom_schema is None:
        raise SchemaError(
            "no custom schema generated yet; call generate_custom_schema()"
        )
    return repository.custom_schema
