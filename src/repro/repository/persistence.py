"""JSON persistence for schema repositories.

The paper's prototype stored the repository in ObjectStore; we
substitute a plain-file serialisation (see DESIGN.md).  The format is
deliberately replay-based: the shrink wrap schema is stored as extended
ODL and the customization as the operation-language script, so a loaded
repository reconstructs its workspace by re-applying the script -- the
same artifacts a designer reads are the persistence format.
"""

from __future__ import annotations

import json
import os
import stat
from pathlib import Path

from repro.model.errors import SchemaError
from repro.odl.printer import print_schema
from repro.ops.language import parse_operation
from repro.repository.repository import SchemaRepository

#: Bumped on incompatible format changes.
FORMAT_VERSION = 1


class RepositoryFormatError(SchemaError):
    """A saved repository is not in the format :func:`save_repository` writes.

    Covers unreadable files (truncated or non-UTF-8 JSON), a wrong
    top-level shape, missing or mistyped fields, and a format-version
    mismatch.  Text that is well-formed JSON but holds bad ODL or a
    script that no longer applies raises the front end's and the
    operations' own errors instead.
    """


_NONE = type(None)
#: Field -> accepted JSON type(s), per record kind.
_REPOSITORY_FIELDS = {
    "shrink_wrap_odl": str,
    "shrink_wrap_name": str,
    "custom_name": str,
    "operations": list,
    "local_names": dict,
    "views": list,
}
_OPERATION_FIELDS = {"text": str, "concept_id": (str, _NONE), "propagated": bool}
_VIEW_FIELDS = {
    "position": int,
    "focal": str,
    "view_name": str,
    "spoke_paths": (list, _NONE),
    "attribute_names": (list, _NONE),
}
#: Fields a record may omit (older files, hand-written ones).
_OPTIONAL = frozenset(
    {"local_names", "views", "concept_id", "propagated", "spoke_paths",
     "attribute_names"}
)


def _check_record(record: object, fields: dict, where: str) -> None:
    if not isinstance(record, dict):
        raise RepositoryFormatError(
            f"{where} is a JSON {type(record).__name__}, not an object"
        )
    for key, kind in fields.items():
        if key not in record:
            if key in _OPTIONAL:
                continue
            raise RepositoryFormatError(f"{where} has no {key!r} field")
        if not isinstance(record[key], kind):
            raise RepositoryFormatError(
                f"{where} field {key!r} holds a "
                f"{type(record[key]).__name__}"
            )


def _check_names(names: object, where: str) -> None:
    if names is not None and not all(isinstance(n, str) for n in names):
        raise RepositoryFormatError(f"{where} holds a non-string name")


def _check_shape(data: dict) -> None:
    """Raise :class:`RepositoryFormatError` unless *data* has the saved shape."""
    _check_record(data, _REPOSITORY_FIELDS, "repository")
    for record in data["operations"]:
        _check_record(record, _OPERATION_FIELDS, "operation record")
    for record in data.get("views", []):
        _check_record(record, _VIEW_FIELDS, "view record")
        position = record["position"]
        if type(position) is not int or position < 0:  # bool is an int
            raise RepositoryFormatError(
                f"view record position {position!r} is not a "
                "non-negative integer"
            )
        _check_names(record.get("spoke_paths"), "view spoke_paths")
        _check_names(record.get("attribute_names"), "view attribute_names")
    _check_names(data.get("local_names", {}).values(), "local_names")


def repository_to_dict(repository: SchemaRepository) -> dict:
    """Serialise a repository to a JSON-ready dictionary."""
    return {
        "format_version": FORMAT_VERSION,
        "shrink_wrap_name": repository.shrink_wrap.name,
        "shrink_wrap_odl": print_schema(repository.shrink_wrap),
        "custom_name": repository.workspace.schema.name,
        "operations": [
            {
                "text": entry.requested.to_text(),
                "concept_id": entry.concept_id,
                "propagated": entry.propagated,
            }
            for entry in repository.workspace.log
        ],
        "local_names": dict(repository.local_names.aliases),
        "views": [dict(record) for record in repository.view_records],
    }


def repository_from_dict(data: dict) -> SchemaRepository:
    """Rebuild a repository from :func:`repository_to_dict` output.

    The customization script is re-applied step by step; a script that
    no longer applies (hand-edited file, incompatible library change)
    raises through the normal operation errors.  Data not in the saved
    shape raises :class:`RepositoryFormatError`.
    """
    if not isinstance(data, dict):
        raise RepositoryFormatError(
            f"a repository is a JSON object, not a {type(data).__name__}"
        )
    version = data.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise RepositoryFormatError(
            f"unsupported repository format version {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    _check_shape(data)
    repository = SchemaRepository.from_odl(
        data["shrink_wrap_odl"],
        name=data["shrink_wrap_name"],
        custom_name=data["custom_name"],
    )
    # Wagon wheel views were registered at specific points of the
    # customization; recreate each one as soon as the workspace reaches
    # the position it was extracted at, so the views (and the operations
    # issued through them) see the same state as in the original session.
    pending_views = sorted(
        data.get("views", []), key=lambda record: record["position"]
    )

    def replay_views() -> None:
        while pending_views and pending_views[0]["position"] <= len(
            repository.workspace.log
        ):
            record = pending_views.pop(0)
            spokes = record.get("spoke_paths")
            attributes = record.get("attribute_names")
            repository.create_wagon_wheel_view(
                record["focal"],
                record["view_name"],
                tuple(spokes) if spokes is not None else None,
                tuple(attributes) if attributes is not None else None,
            )

    replay_views()
    for record in data["operations"]:
        operation = parse_operation(record["text"])
        repository.apply(
            operation,
            concept_id=record.get("concept_id"),
            propagate=record.get("propagated", True),
        )
        replay_views()
    for path, local_name in data.get("local_names", {}).items():
        repository.local_names.set_alias(
            path, local_name, repository.workspace.schema
        )
    return repository


def save_repository(repository: SchemaRepository, path: str | Path) -> None:
    """Write the repository to *path* as JSON, atomically.

    The JSON goes to a temporary file in the same directory, which is
    flushed and fsynced and then renamed over *path* with
    ``os.replace``: a crash or an error at any point leaves either the
    previous file or the complete new one, never a torn mix.  The
    temporary file is removed if any step fails.  An existing file's
    permission bits carry over to its replacement.
    """
    payload = json.dumps(repository_to_dict(repository), indent=2) + "\n"
    target = Path(path)
    try:
        mode = stat.S_IMODE(target.stat().st_mode)
    except FileNotFoundError:
        mode = 0o666  # what a fresh open() creates, before the umask
    temp = target.with_name(f".{target.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, mode)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, target)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def load_repository(path: str | Path) -> SchemaRepository:
    """Read a repository previously written by :func:`save_repository`."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as error:
        # ValueError covers bad JSON and bad UTF-8; RecursionError is
        # JSON nested past the decoder's depth.
        raise RepositoryFormatError(
            f"{path}: not a repository file ({error})"
        ) from error
    return repository_from_dict(data)
