"""Golden saved repositories: files written by an earlier release must
keep loading to the same repository.

Each file under ``tests/data/`` was saved once with
:func:`~repro.repository.persistence.save_repository` from a catalog
schema and is never regenerated; the pins below are what loading it
produced when it was written.  Between them the files cover wagon wheel
views created before and after operations (one on a type the shrink
wrap lacks, two recreated after their operations were undone), local
names, operations applied through wheel, view and hierarchy concept ids,
cascading operations and a bare one.  A change to the save format, to
replay, to view recreation or to ``concept_id`` lookup that alters what
an existing file means fails here.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from repro.model.fingerprint import schema_fingerprint
from repro.repository.persistence import load_repository

DATA = Path(__file__).parent / "data"

GOLDEN = {
    "university_views": {
        "fingerprint": (
            "5a6492ecb16182ba5c808996dc0cc99946b14c1b49e83e3baea5c00d470617d7"
        ),
        "concept_ids": [
            "ww:Course_Offering#scheduling", "ww:Syllabus", "gh:Person",
            "gh:Person", "ww:Student#enrolment", "ww:Course_Offering",
        ],
        "propagated": [True] * 6,
        "plan_lengths": [1, 2, 1, 1, 1, 1],
        "views": [
            "ww:Course_Offering#scheduling", "ww:Student#enrolment",
            "ww:Teaching_Assistant#duties",
        ],
        "local_names": {"Person": "Individual", "Course_Offering.room": "location"},
        "concepts": 21,
    },
    "lumber_yard_propagated": {
        "fingerprint": (
            "7930ddb1a1731238d6801c338215b5dfb75217776438ec5013e4eb24b93afcb6"
        ),
        "concept_ids": [
            "ah:House", "ah:House", "ah:House", "ww:Roof", "ww:Frame", None,
            "ww:Roof#materials",
        ],
        "propagated": [True, True, True, True, True, False, True],
        "plan_lengths": [2, 1, 1, 1, 4, 1, 1],
        "views": ["ww:Roof#materials"],
        "local_names": {"House.lot_number": "lot"},
        "concepts": 18,
    },
    "emsl_software_undone_view": {
        "fingerprint": (
            "bef99c43e7b96ffa014559d5f9af54e724f8b5f9f525adca5e1bdf422c7a7b1c"
        ),
        "concept_ids": ["ih:Application"],
        "propagated": [True],
        "plan_lengths": [1],
        "views": [
            "ww:Application_Version#release", "ww:Compiled_Version#build",
        ],
        "local_names": {"Installed_Version.machine": "host"},
        "concepts": 7,
    },
}


@pytest.fixture(params=sorted(GOLDEN))
def golden(request):
    return load_repository(DATA / f"{request.param}.json"), GOLDEN[request.param]


def _digest(schema) -> str:
    return hashlib.sha256(schema_fingerprint(schema).encode()).hexdigest()


class TestGoldenRepositories:
    def test_workspace_fingerprint(self, golden):
        repository, pins = golden
        assert _digest(repository.workspace.schema) == pins["fingerprint"]

    def test_log(self, golden):
        repository, pins = golden
        log = repository.workspace.log
        assert len(log) == len(pins["concept_ids"])
        assert [entry.concept_id for entry in log] == pins["concept_ids"]
        assert [entry.propagated for entry in log] == pins["propagated"]
        assert [len(entry.plan) for entry in log] == pins["plan_lengths"]

    def test_views(self, golden):
        repository, pins = golden
        identifiers = [
            f"ww:{record['focal']}#{record['view_name']}"
            for record in repository.view_records
        ]
        assert identifiers == pins["views"]
        for identifier in identifiers:
            assert repository.concept(identifier).identifier == identifier
        listed = [c.identifier for c in repository.concept_schemas() if c.view]
        assert listed == pins["views"]
        assert len(repository.concept_schemas()) == pins["concepts"]

    def test_local_names(self, golden):
        repository, pins = golden
        assert dict(repository.local_names.aliases) == pins["local_names"]
