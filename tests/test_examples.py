"""Tests for the significant-example generator (PR 7 tentpole).

The acceptance bar: on the catalog schemas, every constraint family of
:data:`~repro.examples.generator.CONSTRAINT_KINDS` yields at least one
(witness, near-miss) pair, the witness is admitted, and the near-miss
provokes exactly the family it claims to demonstrate.
"""

import random

import pytest

from repro.catalog import SCHEMA_BUILDERS, load
from repro.examples import CONSTRAINT_KINDS, significant_examples
from repro.instances import check_population
from repro.workload.generator import WorkloadSpec, generate_schema

#: Catalog schemas that together exercise every constraint family.
_SUBJECTS = ("university", "lumber_yard", "emsl_software", "acedb")


def _all_pairs():
    pairs = []
    for name in _SUBJECTS:
        pairs.extend(significant_examples(load(name)))
    return pairs


class TestSelfVerification:
    """Every emitted pair is checked against its own claim."""

    @pytest.mark.parametrize("subject", _SUBJECTS)
    def test_witnesses_are_admitted(self, subject):
        schema = load(subject)
        pairs = significant_examples(schema)
        assert pairs, f"no example pairs on {subject}"
        for pair in pairs:
            assert check_population(schema, pair.witness) == [], pair.subject

    @pytest.mark.parametrize("subject", _SUBJECTS)
    def test_near_misses_provoke_their_kind(self, subject):
        schema = load(subject)
        for pair in significant_examples(schema):
            issues = check_population(schema, pair.near_miss)
            assert any(issue.kind == pair.kind for issue in issues), (
                pair.subject, pair.kind, [str(issue) for issue in issues]
            )


class TestKindCoverage:
    """At least one pair per constraint family across the catalogs."""

    @pytest.mark.parametrize("kind", CONSTRAINT_KINDS)
    def test_kind_has_a_pair(self, kind):
        assert any(pair.kind == kind for pair in _all_pairs()), kind

    def test_university_covers_the_core_kinds(self):
        kinds = {pair.kind for pair in significant_examples(load("university"))}
        assert {"cardinality", "inverse", "key", "order-by",
                "isa-extent"} <= kinds

    def test_lumber_yard_covers_part_of(self):
        kinds = {pair.kind for pair in
                 significant_examples(load("lumber_yard"))}
        assert "part-of" in kinds

    def test_emsl_covers_instance_of(self):
        kinds = {pair.kind for pair in
                 significant_examples(load("emsl_software"))}
        assert "instance-of" in kinds


class TestSelection:
    def test_interface_filter_restricts_sites(self):
        schema = load("university")
        pairs = significant_examples(schema, interfaces=["Department"])
        assert pairs
        assert all(pair.subject.startswith("Department.")
                   or pair.subject.startswith("Department ")
                   for pair in pairs)

    def test_kind_filter_restricts_families(self):
        schema = load("university")
        pairs = significant_examples(schema, kinds=["key"])
        assert pairs
        assert {pair.kind for pair in pairs} == {"key"}

    def test_generation_is_deterministic(self):
        schema = load("university")
        first = [pair.render() for pair in significant_examples(schema)]
        second = [pair.render() for pair in significant_examples(schema)]
        assert first == second


def _site_owner(pair) -> str:
    """The interface owning *pair*'s site: ``Owner.end`` or
    ``Owner key (...)``."""
    return pair.subject.replace(" ", ".").split(".", 1)[0]


def _filtered_whole_list(schema, interfaces) -> list:
    """Reference selection: every pair of the whole schema, kept when its
    owner is among *interfaces* (the selection before sites were read
    off the named interfaces only)."""
    named = set(interfaces)
    return [
        pair for pair in significant_examples(schema)
        if _site_owner(pair) in named
    ]


def _comparable(pairs) -> list:
    return [
        (pair.kind, pair.subject, pair.description,
         pair.witness.render(), pair.near_miss.render())
        for pair in pairs
    ]


class TestChunkedSelection:
    """``interfaces=`` reads sites off the named interfaces only; the
    answer must equal filtering the whole-schema list by owner."""

    @staticmethod
    def _selections(schema, seed: int):
        rng = random.Random(seed)
        names = schema.type_names()
        for size in (1, 3, max(1, len(names) // 2), len(names)):
            chosen = rng.sample(names, min(size, len(names)))
            # duplicates and undefined names are ignored
            chosen += chosen[: len(chosen) // 2] + ["NoSuchType", ""]
            rng.shuffle(chosen)
            yield chosen

    def _assert_selection_matches(self, schema, seed: int) -> None:
        for chosen in self._selections(schema, seed):
            assert _comparable(
                significant_examples(schema, interfaces=chosen)
            ) == _comparable(_filtered_whole_list(schema, chosen)), chosen

    @pytest.mark.parametrize("subject", sorted(SCHEMA_BUILDERS))
    def test_catalog_schemas(self, subject):
        self._assert_selection_matches(load(subject), seed=len(subject))

    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_generated_schemas(self, seed):
        schema = generate_schema(WorkloadSpec(types=40, seed=seed))
        self._assert_selection_matches(schema, seed)

    def test_unknown_and_empty_selections_have_no_sites(self):
        schema = load("university")
        assert significant_examples(schema, interfaces=[]) == []
        assert significant_examples(schema, interfaces=["NoSuchType"]) == []


class TestRendering:
    def test_pair_render_shows_both_populations(self):
        pair = significant_examples(load("university"), kinds=["key"])[0]
        text = pair.render()
        assert "admitted" in text
        assert "rejected" in text


class TestCli:
    def test_main_prints_summary(self, capsys):
        from repro.examples.__main__ import main

        assert main(["university", "--summary"]) == 0
        out = capsys.readouterr().out
        assert "example pair(s)" in out
        for kind in CONSTRAINT_KINDS:
            assert kind in out

    def test_main_rejects_unknown_schema(self, capsys):
        from repro.examples.__main__ import main

        assert main(["no_such_schema"]) == 2
