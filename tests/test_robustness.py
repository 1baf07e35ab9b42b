"""Failure-injection tests: corrupted inputs must fail loudly and cleanly."""

import json

import pytest

from repro.model.errors import ReproError, SchemaError
from repro.odl.lexer import OdlSyntaxError
from repro.ops.language import parse_operation
from repro.repository.persistence import (
    RepositoryFormatError,
    load_repository,
    repository_from_dict,
    repository_to_dict,
    save_repository,
)
from repro.repository.repository import SchemaRepository


@pytest.fixture
def saved(small, tmp_path):
    repository = SchemaRepository(small, custom_name="robust")
    repository.apply(parse_operation("add_attribute(Person, date, dob)"))
    path = tmp_path / "repo.json"
    save_repository(repository, path)
    return repository, path


class TestCorruptedRepositoryFiles:
    def test_truncated_json(self, saved, tmp_path):
        _, path = saved
        path.write_text(path.read_text()[:40], encoding="utf-8")
        with pytest.raises(RepositoryFormatError) as info:
            load_repository(path)
        assert isinstance(info.value.__cause__, json.JSONDecodeError)

    def test_not_utf8(self, saved):
        _, path = saved
        path.write_bytes(b'{"format_version": 1, "x": "\xff"}')
        with pytest.raises(RepositoryFormatError):
            load_repository(path)

    def test_missing_shrink_wrap_odl(self, saved):
        _, path = saved
        data = json.loads(path.read_text())
        del data["shrink_wrap_odl"]
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(RepositoryFormatError, match="shrink_wrap_odl"):
            load_repository(path)

    def test_top_level_list(self, saved):
        _, path = saved
        path.write_text(json.dumps([1, 2, 3]), encoding="utf-8")
        with pytest.raises(RepositoryFormatError, match="JSON object"):
            load_repository(path)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda data: data.update(operations={"text": "x"}),
            lambda data: data["operations"].append("add_type_definition(X)"),
            lambda data: data["operations"][0].update(text=7),
            lambda data: data["operations"][0].pop("text"),
            lambda data: data.update(views=[{"focal": "Person"}]),
            lambda data: data.update(local_names={"Person": 3}),
            lambda data: data.update(shrink_wrap_name=None),
        ],
        ids=[
            "operations-object", "operation-string", "text-number",
            "text-missing", "view-incomplete", "alias-number", "name-null",
        ],
    )
    def test_mistyped_fields(self, saved, corrupt):
        repository, _ = saved
        data = repository_to_dict(repository)
        corrupt(data)
        with pytest.raises(RepositoryFormatError):
            repository_from_dict(data)

    def test_version_mismatch_is_a_schema_error(self, saved):
        repository, _ = saved
        data = repository_to_dict(repository)
        data["format_version"] = 2
        with pytest.raises(SchemaError, match="format version"):
            repository_from_dict(data)

    def test_corrupted_odl(self, saved):
        repository, path = saved
        data = json.loads(path.read_text())
        data["shrink_wrap_odl"] = "interface Broken {"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(OdlSyntaxError):
            load_repository(path)

    def test_corrupted_operation_text(self, saved):
        repository, path = saved
        data = json.loads(path.read_text())
        data["operations"][0]["text"] = "rename_type(Person, Kunde)"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(OdlSyntaxError):
            load_repository(path)

    def test_operation_that_no_longer_applies(self, saved):
        repository, path = saved
        data = json.loads(path.read_text())
        data["operations"][0]["text"] = "delete_attribute(Person, ghost)"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(ReproError):
            load_repository(path)

    def test_invalid_shrink_wrap(self, saved):
        repository, path = saved
        data = json.loads(path.read_text())
        data["shrink_wrap_odl"] = "interface A : Ghost {};"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(SchemaError):
            load_repository(path)

    def test_bad_local_name_path(self, saved):
        repository, path = saved
        data = json.loads(path.read_text())
        data["local_names"] = {"Ghost": "Phantom"}
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(SchemaError):
            load_repository(path)

    def test_round_trip_is_not_lossy_under_extra_keys(self, saved):
        """Unknown trailing keys are tolerated (forward compatibility)."""
        repository, path = saved
        data = json.loads(path.read_text())
        data["future_extension"] = {"anything": True}
        restored = repository_from_dict(data)
        from repro.model.fingerprint import schemas_equal

        assert schemas_equal(
            restored.workspace.schema, repository.workspace.schema
        )


class TestDoctests:
    def test_odl_package_doctest(self):
        import doctest

        import repro.odl

        results = doctest.testmod(repro.odl)
        assert results.attempted >= 1
        assert results.failed == 0


class TestSerializationDeterminism:
    def test_to_dict_is_deterministic(self, small):
        repository = SchemaRepository(small, custom_name="det")
        repository.apply(parse_operation("add_attribute(Person, date, dob)"))
        first = json.dumps(repository_to_dict(repository), sort_keys=True)
        second = json.dumps(repository_to_dict(repository), sort_keys=True)
        assert first == second
