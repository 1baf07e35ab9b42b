"""Unit tests for repository JSON persistence."""

import json
import os

import pytest

from repro.model.errors import SchemaError
from repro.model.fingerprint import schemas_equal
from repro.ops.language import parse_operation
from repro.repository.persistence import (
    RepositoryFormatError,
    load_repository,
    repository_from_dict,
    repository_to_dict,
    save_repository,
)
from repro.repository.repository import SchemaRepository


class _TornWriter:
    """A file handle that writes half its first payload, then fails."""

    def __init__(self, handle):
        self.handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.handle.close()

    def write(self, text):
        self.handle.write(text[: len(text) // 2])
        self.handle.flush()
        raise OSError("injected write failure")


@pytest.fixture
def repository(small):
    repo = SchemaRepository(small, custom_name="small_custom")
    repo.apply(
        parse_operation("add_attribute(Person, date, dob)"),
        concept_id="ww:Person",
    )
    repo.apply(parse_operation("delete_type_definition(Department)"))
    return repo


class TestRoundTrip:
    def test_dict_round_trip(self, repository):
        data = repository_to_dict(repository)
        restored = repository_from_dict(data)
        assert schemas_equal(restored.shrink_wrap, repository.shrink_wrap)
        assert schemas_equal(
            restored.workspace.schema, repository.workspace.schema
        )

    def test_concept_ids_preserved(self, repository):
        restored = repository_from_dict(repository_to_dict(repository))
        assert restored.workspace.log[0].concept_id == "ww:Person"
        assert restored.workspace.log[1].concept_id is None

    def test_file_round_trip(self, repository, tmp_path):
        path = tmp_path / "repo.json"
        save_repository(repository, path)
        restored = load_repository(path)
        assert schemas_equal(
            restored.workspace.schema, repository.workspace.schema
        )

    def test_file_is_readable_json(self, repository, tmp_path):
        path = tmp_path / "repo.json"
        save_repository(repository, path)
        data = json.loads(path.read_text())
        assert data["format_version"] == 1
        assert "interface Person" in data["shrink_wrap_odl"]
        assert data["operations"][0]["text"] == (
            "add_attribute(Person, date, dob)"
        )

    @pytest.mark.parametrize("step", ["write", "fsync", "replace"])
    def test_failed_save_keeps_the_previous_file(
        self, repository, tmp_path, monkeypatch, step
    ):
        path = tmp_path / "repo.json"
        save_repository(repository, path)
        saved = path.read_bytes()
        repository.apply(parse_operation("add_attribute(Person, long, badge)"))

        def fail(*args, **kwargs):
            raise OSError(f"injected {step} failure")

        if step == "write":
            real_fdopen = os.fdopen
            monkeypatch.setattr(
                "os.fdopen",
                lambda fd, *args, **kwargs: _TornWriter(
                    real_fdopen(fd, *args, **kwargs)
                ),
            )
        else:
            monkeypatch.setattr(f"os.{step}", fail)
        with pytest.raises(OSError, match="injected"):
            save_repository(repository, path)
        monkeypatch.undo()
        assert path.read_bytes() == saved
        assert os.listdir(tmp_path) == ["repo.json"]

    def test_save_replaces_in_place_and_keeps_permissions(
        self, repository, tmp_path
    ):
        path = tmp_path / "repo.json"
        save_repository(repository, path)
        path.chmod(0o600)
        repository.apply(parse_operation("add_attribute(Person, long, badge)"))
        save_repository(repository, path)
        assert os.listdir(tmp_path) == ["repo.json"]
        assert path.stat().st_mode & 0o777 == 0o600
        assert "badge" in path.read_text(encoding="utf-8")

    def test_propagate_flag_persisted(self, small, tmp_path):
        repo = SchemaRepository(small)
        repo.apply(
            parse_operation("delete_attribute(Employee, salary)"),
            propagate=False,
        )
        restored = repository_from_dict(repository_to_dict(repo))
        assert restored.workspace.log[0].propagated is False


class TestFormatGuards:
    def test_unknown_version_rejected(self, repository):
        data = repository_to_dict(repository)
        data["format_version"] = 99
        with pytest.raises(SchemaError):
            repository_from_dict(data)

    def test_missing_version_rejected(self, repository):
        data = repository_to_dict(repository)
        del data["format_version"]
        with pytest.raises(SchemaError):
            repository_from_dict(data)

    @pytest.mark.parametrize("version", [True, 1.0, "1"])
    def test_version_must_be_an_int(self, repository, version):
        data = repository_to_dict(repository)
        data["format_version"] = version
        with pytest.raises(RepositoryFormatError, match="format version"):
            repository_from_dict(data)

    @pytest.mark.parametrize("position", [False, True, 0.0, -1])
    def test_view_position_must_be_a_non_negative_int(
        self, repository, position
    ):
        repository.create_wagon_wheel_view("Person", "v")
        data = repository_to_dict(repository)
        data["views"][0]["position"] = position
        with pytest.raises(RepositoryFormatError, match="position"):
            repository_from_dict(data)
