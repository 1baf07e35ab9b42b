"""Population differential: a bulk-built schema against the same
interfaces added one at a time.

Every schema builder (parse, generate, copy, replay, the verify closure
sub-schema) adds its types with ``Schema.add_interfaces``: one
``add_interfaces`` record whose payload maps each name to its
interface, instead of one ``add_interface`` record per type.  The
per-type path is kept here as the reference.  Both must agree on the
content and on everything the spine feeds -- the graph store,
validation, replay and the record-level diff -- when fresh and after
the schema moves on.
"""

from __future__ import annotations

import gc

import pytest

from repro.analysis.diff import diff_schemas, schema_diff
from repro.model.attributes import Attribute
from repro.model.errors import DuplicateNameError
from repro.model.fingerprint import schema_fingerprint
from repro.model.index import scan_adjacency
from repro.model.interface import InterfaceDef, _PopulationClaim
from repro.model.mutation import touched_names_between
from repro.model.schema import Schema
from repro.model.types import scalar
from repro.model.validation import validate_schema
from repro.odl.lexer import OdlSyntaxError
from repro.odl.parser import parse_schema
from repro.odl.printer import print_schema
from repro.verify.invariants import _subject, check_schema
from repro.workload.generator import WorkloadSpec, generate_schema
from tests.odl_reference_parser import reference_parse_schema

SPEC = WorkloadSpec(
    types=80,
    isa_fraction=0.4,
    isa_chain=4,
    hub_fanout=6,
    part_of_chain=4,
    instance_of_chain=3,
    seed=3,
)


def one_at_a_time(name: str, interfaces) -> Schema:
    """The reference: one ``add_interface`` (and record) per type."""
    schema = Schema(name)
    for interface in interfaces:
        schema.add_interface(interface)
    return schema


def _copies(schema: Schema) -> list[InterfaceDef]:
    return [interface.copy() for interface in schema]


# ----------------------------------------------------------------------
# Builders: (bulk-built, built one at a time) from one source schema
# ----------------------------------------------------------------------


def _parse(source: Schema):
    text = print_schema(source)
    return parse_schema(text, "s"), reference_parse_schema(text, "s")


def _generate(source: Schema):
    bulk = generate_schema(SPEC)
    return bulk, one_at_a_time(bulk.name, _copies(generate_schema(SPEC)))


def _copy(source: Schema):
    return source.copy("s"), one_at_a_time("s", _copies(source))


def _replay(source: Schema):
    bulk, reference = _copy(source)
    for schema in (bulk, reference):
        names = schema.type_names()
        schema.get(names[5]).add_attribute(Attribute("dob", scalar("date")))
        schema.remove_interface(names[6])
    return bulk.log.replay("s"), reference.log.replay("s")


def _closure(source: Schema):
    names = source.type_names()[::3]
    reference = one_at_a_time(
        f"{source.name}_closure",
        (source.interfaces[name].copy() for name in names),
    )
    return _subject(source, reversed(names)), reference


def _warm(source: Schema):
    """A bulk add the graph store and the validation cache fold in
    after answering a query (a fresh schema's store is still cold)."""
    first, *rest = _copies(source)
    bulk = Schema("s")
    bulk.add_interface(first)
    bulk.validation.validate()
    bulk.index.ensure_fresh()
    bulk.add_interfaces(rest)
    reference = Schema("s")
    reference.add_interface(first.copy())
    reference.validation.validate()
    reference.index.ensure_fresh()
    for interface in rest:
        reference.add_interface(interface.copy())
    return bulk, reference


BUILDERS = {
    "parse": _parse,
    "generate": _generate,
    "copy": _copy,
    "replay": _replay,
    "closure": _closure,
    "warm": _warm,
}


# ----------------------------------------------------------------------
# Scenarios: the same moves on both schemas; each returns the subject
# ----------------------------------------------------------------------


def _fresh(schema: Schema, bulk: bool) -> Schema:
    return schema


def _mutated(schema: Schema, bulk: bool) -> Schema:
    names = schema.type_names()
    schema.get(names[len(names) // 2]).add_attribute(
        Attribute("probe", scalar("long"))
    )
    schema.get(names[0]).set_extent("probe_extent")
    return schema


def _removed(schema: Schema, bulk: bool) -> Schema:
    schema.remove_interface(schema.type_names()[1])
    return schema


def _fork_of_fork(schema: Schema, bulk: bool) -> Schema:
    fork = schema.fork("first").fork("second")
    names = fork.type_names()
    fork.get(names[2]).set_extent("fork_extent")
    fork.remove_interface(names[3])
    # The base moves after the fork; the fork must not see it.
    schema.get(names[4]).add_attribute(Attribute("base_only", scalar("long")))
    return fork


def _projection(schema: Schema, bulk: bool) -> Schema:
    """Members borrowed from *schema*, then written on both sides."""
    names = schema.type_names()[::2]
    members = [schema.get(name) for name in names]
    projection = Schema("projection")
    if bulk:
        projection.add_interfaces(members)
    else:
        for member in members:
            projection.add_interface(member)
    assert all(projection.interfaces[name] is schema.interfaces[name]
               for name in names)
    schema.get(names[0]).add_attribute(Attribute("owner", scalar("long")))
    projection.get(names[1]).set_extent("projected_extent")
    assert "owner" not in projection.interfaces[names[0]].attributes
    return projection


SCENARIOS = {
    "fresh": _fresh,
    "mutated": _mutated,
    "removed": _removed,
    "fork-of-fork": _fork_of_fork,
    "projection": _projection,
}


# ----------------------------------------------------------------------
# The comparison
# ----------------------------------------------------------------------


def _changed_keys(diff) -> set[tuple]:
    return {
        (entry.category, entry.path, entry.status.value)
        for entry in diff.changed()
    }


def _assert_store_matches_scan(schema: Schema) -> None:
    index = schema.index
    assert index.check_integrity() == []
    parents, children, refs, referencers = scan_adjacency(schema)
    assert index.isa_parents_map() == parents
    assert index.isa_children_map() == children
    assert index.refs_of_map() == refs
    assert index.referencers_map() == referencers
    names = schema.type_names()
    assert index.declaration_order() == {
        name: rank for rank, name in enumerate(names)
    }
    assert check_schema(schema, names=["columnar-vs-scan"]) == []


def _assert_diff_matches_structural(schema: Schema) -> None:
    """``schema_diff`` (record-level) equals ``diff_schemas`` across a
    fork, with population records on both sides of the branch point."""
    base = schema.fork("base")
    branch = base.fork("branch")
    names = branch.type_names()
    branch.get(names[-1]).add_attribute(Attribute("branch", scalar("long")))
    branch.add_interfaces(
        [InterfaceDef("BranchAdded", supertypes=[names[0]])]
    )
    base.add_interfaces([InterfaceDef("BaseAdded", supertypes=[names[-1]])])
    touched = touched_names_between(base, branch)
    assert touched is not None
    assert {"BranchAdded", "BaseAdded", names[0], names[-1]} <= touched
    for original, custom in ((base, branch), (branch, base)):
        changed = _changed_keys(schema_diff(original, custom))
        assert changed
        assert changed == _changed_keys(diff_schemas(original, custom))


def _assert_same(bulk: Schema, reference: Schema) -> None:
    assert bulk.type_names() == reference.type_names()
    assert schema_fingerprint(bulk) == schema_fingerprint(reference)
    issues = validate_schema(reference)
    assert validate_schema(bulk) == issues
    assert bulk.validation.validate() == issues
    assert reference.validation.validate() == issues
    for schema in (bulk, reference):
        _assert_store_matches_scan(schema)
        rebuilt = schema.log.replay()
        assert rebuilt.type_names() == schema.type_names()
        assert schema_fingerprint(rebuilt) == schema_fingerprint(schema)
        _assert_diff_matches_structural(schema)


@pytest.fixture(scope="module")
def source() -> Schema:
    return generate_schema(SPEC)


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("builder", BUILDERS)
def test_bulk_matches_one_at_a_time(source, builder, scenario):
    bulk, reference = BUILDERS[builder](source)
    assert reference.log.records[0].kind == "add_interface"
    population = [
        record for record in bulk.log.records if record.kind == "add_interfaces"
    ]
    assert len(population) == 1
    move = SCENARIOS[scenario]
    _assert_same(move(bulk, True), move(reference, False))


# ----------------------------------------------------------------------
# The record, its claims, and failure
# ----------------------------------------------------------------------


class TestPopulationRecord:
    def test_one_record_names_every_member_and_supertype(self, source):
        schema = source.copy("s")
        (record,) = schema.log.records
        assert record.kind == "add_interfaces"
        assert record.interface is None
        assert list(record.payload) == schema.type_names()
        expected = set(schema.type_names())
        for interface in schema:
            expected.update(interface.supertypes)
        assert set(record.names()) == expected

    def test_owned_members_carry_no_claim(self, source):
        schema = source.copy("s")
        assert all(interface._claims is None for interface in schema)
        (claim,) = schema.log._cow_borrows
        assert isinstance(claim, _PopulationClaim)

    def test_first_mutation_freezes_the_payload(self, source):
        schema = source.copy("s")
        name = schema.type_names()[7]
        live = schema.interfaces[name]
        payload = schema.log.records[0].payload
        assert payload[name] is live
        live.add_attribute(Attribute("later", scalar("long")))
        assert payload[name] is not live
        assert "later" not in payload[name].attributes
        assert payload[name] == source.interfaces[name]

    def test_borrowed_members_carry_the_one_claim(self, source):
        owner = source.copy("owner")
        names = owner.type_names()[:4]
        projection = Schema("projection")
        projection.add_interfaces(owner.interfaces[name] for name in names)
        claims = [owner.interfaces[name]._claims for name in names]
        population = projection.log._cow_borrows[0]
        assert all(
            len(held) == 2 and held[1] is population for held in claims
        )
        owner.get(names[0]).add_attribute(Attribute("owner", scalar("long")))
        payload = projection.log.records[0].payload
        assert "owner" not in payload[names[0]].attributes
        assert "owner" not in projection.interfaces[names[0]].attributes

    def test_empty_population_emits_nothing(self):
        schema = Schema("s")
        schema.add_interfaces([])
        assert len(schema.log) == 0
        assert schema.log._cow_borrows == []
        assert len(parse_schema("", "empty").log) == 0


class TestFailedBulkAdd:
    @pytest.fixture
    def schema(self, source):
        schema = source.copy("s")
        schema.validation.validate()
        schema.index.ensure_fresh()
        return schema

    def _state(self, schema: Schema):
        return (
            schema_fingerprint(schema),
            schema.type_names(),
            schema.log.seq,
            list(schema.log._cow_borrows),
            schema.index.declaration_order(),
        )

    @pytest.mark.parametrize("clash", ["existing", "within"])
    def test_duplicate_changes_nothing(self, schema, clash):
        before = self._state(schema)
        fresh = InterfaceDef("Fresh")
        taken = schema.type_names()[3] if clash == "existing" else "Fresh"
        with pytest.raises(
            DuplicateNameError,
            match=f"^schema 's' already defines '{taken}'$",
        ):
            schema.add_interfaces([fresh, InterfaceDef(taken)])
        assert self._state(schema) == before
        assert "Fresh" not in schema
        assert fresh._spines == [] and fresh._claims is None
        _assert_store_matches_scan(schema)
        assert schema.validation.validate() == validate_schema(schema)

    def test_a_raising_iterable_changes_nothing(self, schema):
        before = self._state(schema)
        fresh = InterfaceDef("Fresh")

        def members():
            yield fresh
            raise RuntimeError("source failed")

        with pytest.raises(RuntimeError, match="source failed"):
            schema.add_interfaces(members())
        assert self._state(schema) == before
        assert fresh._spines == []

    def test_parse_raises_the_duplicate_before_a_later_syntax_error(self):
        text = (
            "interface A { attribute long a; };\n"
            "interface B : A {};\n"
            "interface A {};\n"
            "interface C { attribute ; };\n"
        )
        for parse in (parse_schema, reference_parse_schema):
            with pytest.raises(
                DuplicateNameError, match="^schema 's' already defines 'A'$"
            ):
                parse(text, "s")
        with pytest.raises(OdlSyntaxError):
            parse_schema(text.replace("interface A {};\n", ""), "s")

    def test_wrapped_duplicate_before_a_missing_close(self):
        text = "module M {\n interface A {};\n interface A {};\n"
        with pytest.raises(
            DuplicateNameError, match="^schema 'M' already defines 'A'$"
        ):
            parse_schema(text)


# ----------------------------------------------------------------------
# Retained objects: a built schema's spine does not grow with it
# ----------------------------------------------------------------------


def test_a_parse_retains_few_tracked_objects_per_type():
    """A parsed 2,000-type schema keeps one spine record, no claim on an
    owned interface, and at most 18 GC-tracked objects per type (21.08
    with one record, payload dict and claim per type)."""
    types = 2_000
    text = print_schema(generate_schema(WorkloadSpec(types=types, seed=1)))
    parse_schema(text)  # warm-up: interned names, memoised scalar types
    gc.collect()
    before = len(gc.get_objects())
    schema = parse_schema(text)
    gc.collect()
    retained = len(gc.get_objects()) - before
    assert len(schema.log) == 1
    assert all(interface._claims is None for interface in schema)
    assert retained / types <= 18, retained / types
