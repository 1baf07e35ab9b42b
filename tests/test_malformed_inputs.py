"""Malformed-input properties of the two text formats a designer hands in.

* **Operation language.**  Printed generated plans, mutated character by
  character or token by token, go through ``parse_script`` and
  ``parse_operation``: they may raise only :class:`ReproError`
  subclasses, and every operation they accept prints (``to_text``) to a
  text that parses back to the same text.
* **Saved repositories.**  Structural mutations of a golden saved
  repository (a key dropped, retyped or duplicated, list entries
  reordered, a string truncated) go through ``repository_from_dict``:
  it may raise only :class:`ReproError` subclasses, and a repository it
  loads saves and re-loads to the same fingerprints.

Example counts are capped so the module costs seconds.
"""

from __future__ import annotations

import copy
import json
import re
from functools import lru_cache
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.model.errors import ReproError
from repro.model.fingerprint import schema_fingerprint
from repro.ops.language import parse_operation, parse_script
from repro.repository.persistence import repository_from_dict, repository_to_dict
from repro.workload.generator import (
    WorkloadSpec,
    generate_operations,
    generate_schema,
)
from tests.test_odl_lexer import _MUTATION, _mutate

DATA = Path(__file__).parent / "data"

_CHEAP = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# Operation language
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def _printed_plan(seed: int) -> tuple[str, ...]:
    """One generated plan, each operation printed on its own."""
    schema = generate_schema(WorkloadSpec(types=12, seed=seed))
    return tuple(op.to_text() for op in generate_operations(schema, 25, seed))


_PLANS = st.integers(min_value=0, max_value=3).map(_printed_plan)
_TOKEN = re.compile(r"\w+|::|\S")
_TOKEN_EDIT = st.tuples(
    st.sampled_from(["delete", "duplicate", "swap", "replace"]),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)


def _mutate_tokens(text: str, edits) -> str:
    """*text* re-tokenised, with tokens deleted, duplicated, swapped or
    replaced by another of its tokens, joined by single blanks."""
    tokens = _TOKEN.findall(text)
    for kind, first, second in edits:
        if not tokens:
            break
        i = int(first * (len(tokens) - 1))
        j = int(second * (len(tokens) - 1))
        if kind == "delete":
            del tokens[i]
        elif kind == "duplicate":
            tokens.insert(i, tokens[i])
        elif kind == "swap":
            tokens[i], tokens[j] = tokens[j], tokens[i]
        else:
            tokens[i] = tokens[j]
    return " ".join(tokens)


def _assert_parses_cleanly(parse, text: str) -> None:
    """*parse* raises only a ReproError, and what it accepts round-trips."""
    try:
        parsed = parse(text)
    except ReproError:
        return
    for operation in parsed if isinstance(parsed, list) else [parsed]:
        printed = operation.to_text()
        assert parse_operation(printed).to_text() == printed, text


class TestMutatedOperationScripts:
    def test_printed_plans_round_trip(self):
        for seed in range(4):
            plan = _printed_plan(seed)
            assert plan
            script = ";\n".join(plan)
            assert [op.to_text() for op in parse_script(script)] == list(plan)

    @_CHEAP
    @given(_PLANS, st.lists(_MUTATION, min_size=1, max_size=4))
    def test_character_mutations(self, plan, mutations):
        _assert_parses_cleanly(parse_script, _mutate("\n".join(plan), mutations))

    @_CHEAP
    @given(_PLANS, st.lists(_TOKEN_EDIT, min_size=1, max_size=4))
    def test_token_mutations(self, plan, edits):
        _assert_parses_cleanly(parse_script, _mutate_tokens(";".join(plan), edits))

    @_CHEAP
    @given(
        _PLANS,
        st.integers(min_value=0, max_value=24),
        st.lists(_MUTATION, max_size=3),
        st.lists(_TOKEN_EDIT, max_size=2),
    )
    def test_single_operations(self, plan, which, mutations, edits):
        text = plan[which % len(plan)]
        text = _mutate_tokens(_mutate(text, mutations), edits)
        _assert_parses_cleanly(parse_operation, text)


# ----------------------------------------------------------------------
# Saved repositories
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def _golden_text() -> str:
    return (DATA / "university_views.json").read_text(encoding="utf-8")


def _paths(node, prefix=()) -> list[tuple]:
    """Every key / index path into a JSON value, the root included."""
    found = [prefix]
    if isinstance(node, dict):
        for key, value in node.items():
            found.extend(_paths(value, prefix + (key,)))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            found.extend(_paths(value, prefix + (index,)))
    return found


_RETYPED = [None, True, 0, -1, 2.5, "", "x", [], {}, [1], {"text": 1}]
_EDIT = st.tuples(
    st.sampled_from(["drop", "retype", "duplicate", "reorder", "truncate"]),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from(_RETYPED),
)


def _edit(data, action: str, where: float, amount: float, value):
    """Apply one structural edit at the path *where* selects."""
    paths = [path for path in _paths(data) if path]
    path = paths[int(where * (len(paths) - 1))]
    parent = data
    for step in path[:-1]:
        parent = parent[step]
    last = path[-1]
    current = parent[last]
    if action == "drop":
        del parent[last]
    elif action == "retype":
        parent[last] = copy.deepcopy(value)
    elif action == "duplicate":
        if isinstance(parent, list):
            parent.insert(last, copy.deepcopy(current))
        else:
            parent[f"{last}_copy"] = copy.deepcopy(current)
    elif action == "reorder":
        if isinstance(current, list) and current:
            cut = int(amount * len(current))
            parent[last] = current[cut:] + current[:cut]
        elif isinstance(current, dict):
            parent[last] = dict(reversed(list(current.items())))
    elif isinstance(current, str):  # truncate
        parent[last] = current[: int(amount * len(current))]
    return data


def _fingerprints(repository) -> tuple[str, str]:
    return (
        schema_fingerprint(repository.shrink_wrap),
        schema_fingerprint(repository.workspace.schema),
    )


class TestMutatedSavedRepositories:
    def test_the_golden_file_reloads_to_itself(self):
        repository = repository_from_dict(json.loads(_golden_text()))
        again = repository_from_dict(repository_to_dict(repository))
        assert _fingerprints(again) == _fingerprints(repository)

    @_CHEAP
    @given(st.lists(_EDIT, min_size=1, max_size=3))
    def test_structural_mutations(self, edits):
        data = json.loads(_golden_text())
        for edit in edits:
            data = _edit(data, *edit)
        try:
            repository = repository_from_dict(data)
        except ReproError:
            return
        again = repository_from_dict(repository_to_dict(repository))
        assert _fingerprints(again) == _fingerprints(repository)
