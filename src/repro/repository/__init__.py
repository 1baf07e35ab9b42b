"""Schema repository: shrink wrap schema, workspace, custom schema, mapping.

Implements Figure 1's "Schema Repository", the knowledge base of the
shrink-wrap-based design process, with JSON persistence substituting the
prototype's ObjectStore backend (see DESIGN.md).
"""

from repro.repository.localnames import LocalNameMap, apply_local_names
from repro.repository.mapping import SchemaMapping, generate_mapping
from repro.repository.persistence import (
    FORMAT_VERSION,
    RepositoryFormatError,
    load_repository,
    repository_from_dict,
    repository_to_dict,
    save_repository,
)
from repro.repository.repository import SchemaRepository, require_custom_schema
from repro.repository.workspace import LogEntry, Workspace

__all__ = [
    "FORMAT_VERSION",
    "LocalNameMap",
    "LogEntry",
    "RepositoryFormatError",
    "SchemaMapping",
    "SchemaRepository",
    "Workspace",
    "apply_local_names",
    "generate_mapping",
    "load_repository",
    "repository_from_dict",
    "repository_to_dict",
    "require_custom_schema",
    "save_repository",
]
