"""Extended ODMG object model: types, interfaces, relationships, schemas.

This package implements the data model of Delcambre & Langston's shrink
wrap schema work: ODMG-93 interfaces extended with *part-of* (aggregation)
and *instance-of* relationship kinds.  See :mod:`repro.model.schema` for
the container and :mod:`repro.model.validation` for structural rules.
"""

from repro.model.attributes import Attribute
from repro.model.errors import (
    DuplicateNameError,
    InvalidModelError,
    ReproError,
    SchemaError,
    UnknownPropertyError,
    UnknownTypeError,
    ValidationError,
)
from repro.model.interface import InterfaceDef
from repro.model.mutation import (
    Aspect,
    DirtyJournal,
    MutationLog,
    MutationRecord,
    aspect_for_kind,
)
from repro.model.operations import Operation, Parameter
from repro.model.relationships import (
    Cardinality,
    RelationshipEnd,
    RelationshipKind,
    association,
    instance_of,
    part_of,
)
from repro.model.schema import Schema, schema_from_interfaces
from repro.model.types import (
    VOID,
    CollectionType,
    NamedType,
    ScalarType,
    TypeRef,
    array_of,
    bag_of,
    list_of,
    named,
    scalar,
    set_of,
)
from repro.model.validation import (
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    Issue,
    validate_schema,
)

__all__ = [
    "Aspect",
    "Attribute",
    "Cardinality",
    "CollectionType",
    "DirtyJournal",
    "DuplicateNameError",
    "InterfaceDef",
    "InvalidModelError",
    "Issue",
    "MutationLog",
    "MutationRecord",
    "NamedType",
    "Operation",
    "Parameter",
    "RelationshipEnd",
    "RelationshipKind",
    "ReproError",
    "ScalarType",
    "Schema",
    "SchemaError",
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "TypeRef",
    "UnknownPropertyError",
    "UnknownTypeError",
    "VOID",
    "ValidationError",
    "array_of",
    "aspect_for_kind",
    "association",
    "bag_of",
    "instance_of",
    "list_of",
    "named",
    "part_of",
    "scalar",
    "schema_from_interfaces",
    "set_of",
    "validate_schema",
]
