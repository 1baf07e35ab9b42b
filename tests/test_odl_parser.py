"""Unit, differential and property tests for the extended-ODL parser
(repro.odl.parser).

The declaration-at-a-time parse is held to the token-only loop in
``tests/odl_reference_parser.py`` on printed, respaced and mutated text.
"""

import random
import sys
import time
from dataclasses import replace
from functools import cache

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.catalog import (
    ACEDB_ODL,
    BUSINESS_ODL,
    COMPANY_ODL,
    HOUSE_ODL,
    SCHEMA_BUILDERS,
    SOFTWARE_ODL,
    UNIVERSITY_ODL,
)
from repro.model.attributes import Attribute
from repro.model.errors import DuplicateNameError, InvalidModelError, ReproError
from repro.model.fingerprint import schema_fingerprint
from repro.model.operations import Operation, Parameter
from repro.model.relationships import RelationshipKind
from repro.model.types import (
    COLLECTION_KINDS,
    CollectionType,
    NamedType,
    ScalarType,
    array_of,
    named,
    scalar,
    set_of,
)
from repro.odl import parser
from repro.odl.lexer import END, IDENT, PUNCT, OdlSyntaxError, TokenStream
from repro.odl.parser import parse_interface, parse_schema, parse_type
from repro.odl.printer import print_interface, print_schema
from repro.workload.generator import WorkloadSpec, generate_schema
from tests.odl_reference_parser import (
    reference_parse_interface,
    reference_parse_schema,
)
from tests.test_odl_lexer import _MUTATION, _mutate


class TestParseType:
    def test_scalar(self):
        assert parse_type("long") == scalar("long")

    def test_sized_scalar(self):
        assert parse_type("string(30)") == scalar("string", 30)

    def test_named(self):
        assert parse_type("Course") == named("Course")

    def test_collection(self):
        assert parse_type("set<Course>") == set_of("Course")

    def test_sized_array(self):
        assert str(parse_type("array<long, 8>")) == "array<long, 8>"

    def test_nested(self):
        assert str(parse_type("list<set<Course>>")) == "list<set<Course>>"

    def test_trailing_garbage_rejected(self):
        with pytest.raises(OdlSyntaxError):
            parse_type("long long")


class TestParseInterface:
    def test_empty(self):
        interface = parse_interface("interface A {};")
        assert interface.name == "A"
        assert interface.supertypes == []

    def test_trailing_semicolon_optional(self):
        assert parse_interface("interface A {}").name == "A"

    def test_supertypes(self):
        interface = parse_interface("interface A : B, C {};")
        assert interface.supertypes == ["B", "C"]

    def test_extent(self):
        interface = parse_interface("interface A { extent as_; };")
        assert interface.extent == "as_"

    def test_keys_simple_and_compound(self):
        interface = parse_interface(
            "interface A { keys id, (name, dob); "
            "attribute long id; attribute long name; attribute long dob; };"
        )
        assert interface.keys == [("id",), ("name", "dob")]

    def test_key_singular_keyword(self):
        interface = parse_interface(
            "interface A { key (id); attribute long id; };"
        )
        assert interface.keys == [("id",)]

    def test_attribute(self):
        interface = parse_interface(
            "interface A { attribute string(30) name; };"
        )
        assert interface.get_attribute("name").type == scalar("string", 30)

    def test_association_relationship(self):
        interface = parse_interface(
            "interface A { relationship set<B> bs inverse B::a; };"
        )
        end = interface.get_relationship("bs")
        assert end.kind is RelationshipKind.ASSOCIATION
        assert end.inverse_type == "B"
        assert end.inverse_name == "a"

    def test_part_of_relationship(self):
        interface = parse_interface(
            "interface A { part_of relationship set<B> parts inverse B::whole; };"
        )
        assert interface.get_relationship("parts").kind is RelationshipKind.PART_OF

    def test_instance_of_relationship(self):
        interface = parse_interface(
            "interface A { instance_of relationship B gen inverse B::insts; };"
        )
        end = interface.get_relationship("gen")
        assert end.kind is RelationshipKind.INSTANCE_OF
        assert not end.is_to_many

    def test_order_by(self):
        interface = parse_interface(
            "interface A { relationship set<B> bs inverse B::a "
            "order_by (name, id); };"
        )
        assert interface.get_relationship("bs").order_by == ("name", "id")

    def test_niladic_operation(self):
        interface = parse_interface("interface A { short count(); };")
        assert interface.get_operation("count").signature() == "short count()"

    def test_operation_with_params_and_raises(self):
        interface = parse_interface(
            "interface A { float f(in short x, inout long y) raises (E1, E2); };"
        )
        operation = interface.get_operation("f")
        assert [p.direction for p in operation.parameters] == ["in", "inout"]
        assert operation.exceptions == ("E1", "E2")

    def test_void_operation(self):
        interface = parse_interface("interface A { void go(); };")
        assert str(interface.get_operation("go").return_type) == "void"

    def test_missing_parameter_direction_rejected(self):
        with pytest.raises(OdlSyntaxError) as info:
            parse_interface("interface A { float f(short x); };")
        assert "direction" in str(info.value)

    def test_duplicate_property_rejected(self):
        with pytest.raises(DuplicateNameError):
            parse_interface(
                "interface A { attribute long x; attribute short x; };"
            )


class TestParseSchema:
    def test_multiple_interfaces(self):
        schema = parse_schema(
            "interface A {}; interface B : A {};", name="demo"
        )
        assert schema.type_names() == ["A", "B"]
        assert schema.name == "demo"

    def test_forward_references_allowed(self):
        schema = parse_schema(
            """
            interface A { relationship B to_b inverse B::to_a; };
            interface B { relationship set<A> to_a inverse A::to_b; };
            """,
            name="s",
        )
        schema.validate()

    def test_empty_text(self):
        assert len(parse_schema("", name="empty")) == 0

    def test_trailing_garbage_rejected(self):
        with pytest.raises(OdlSyntaxError):
            parse_schema("interface A {}; stray", name="s")

    def test_error_position_reported(self):
        with pytest.raises(OdlSyntaxError) as info:
            parse_schema("interface A {\n  attribute ;\n};", name="s")
        assert "line 2" in str(info.value)

    def test_comments_everywhere(self):
        schema = parse_schema(
            """
            // header comment
            interface A { /* inline */ attribute long x; // trailing
            };
            """,
            name="s",
        )
        assert "x" in schema.get("A").attributes

    def test_duplicate_interface_rejected(self):
        with pytest.raises(DuplicateNameError):
            parse_schema("interface A {}; interface A {};", name="s")


class TestSharedValues:
    """One parse stores each distinct name, and each scalar type, once."""

    TEXT = """
        interface Person {
            extent people;
            attribute string(40) attr0;
            attribute long years;
            relationship Office works_in inverse Office::occupant;
            void rename(in string(40) attr0);
        };
        interface Office {
            attribute string(40) attr0;
            attribute long years;
            relationship Person occupant inverse Person::works_in;
        };
    """

    def test_equal_identifiers_are_one_string(self):
        schema = parse_schema(self.TEXT)
        person, office = schema.interfaces["Person"], schema.interfaces["Office"]
        assert person.attributes["attr0"].name is office.attributes["attr0"].name
        end = person.relationships["works_in"]
        assert end.inverse_type is office.name
        assert end.target_type is office.name
        assert office.relationships["occupant"].inverse_name is end.name
        parameter = person.operations["rename"].parameters[0]
        assert parameter.name is office.attributes["attr0"].name

    def test_equal_scalar_types_are_one_object(self):
        schema = parse_schema(self.TEXT)
        person, office = schema.interfaces["Person"], schema.interfaces["Office"]
        assert person.attributes["attr0"].type is office.attributes["attr0"].type
        assert person.attributes["years"].type is office.attributes["years"].type
        parameter = person.operations["rename"].parameters[0]
        assert parameter.type is person.attributes["attr0"].type
        assert parse_type("string(40)") is person.attributes["attr0"].type

    @pytest.mark.parametrize("text, message", [
        ("string(0)", "size of 'string' must be positive, got 0"),
        ("long(5)", "scalar type 'long' does not accept a size"),
    ])
    def test_a_bad_size_still_raises_every_time(self, text, message):
        for _ in range(2):  # the failure is not memoized
            with pytest.raises(InvalidModelError, match=message):
                parse_type(text)


# ----------------------------------------------------------------------
# Declaration-at-a-time parse vs. the token-only reference
# ----------------------------------------------------------------------

#: The hand-written catalog texts the catalog schemas are parsed from.
HAND_WRITTEN = {
    "UNIVERSITY_ODL": UNIVERSITY_ODL,
    "ACEDB_ODL": ACEDB_ODL,
    "HOUSE_ODL": HOUSE_ODL,
    "COMPANY_ODL": COMPANY_ODL,
    "SOFTWARE_ODL": SOFTWARE_ODL,
    "BUSINESS_ODL": BUSINESS_ODL,
}


@cache
def _printed_catalog(name: str) -> str:
    return print_schema(SCHEMA_BUILDERS[name]())


def _customize(schema, rng: random.Random) -> None:
    """Give a generated schema what the generator never writes: several
    key lists, collections of (sized) scalars, sized arrays, operations
    with collection parameters and ``raises``, and ``order_by``."""
    for interface in list(schema.interfaces.values()):
        interface = schema.get(interface.name)
        attributes = list(interface.attributes)
        if len(attributes) > 1 and rng.random() < 0.5:
            interface.add_key((attributes[1],))
            interface.add_key(tuple(reversed(attributes[:3])))
        if rng.random() < 0.5:
            kind = rng.choice(COLLECTION_KINDS)
            interface.add_attribute(
                Attribute("tags", CollectionType(kind, scalar("string", 12)))
            )
        if rng.random() < 0.5:
            interface.add_attribute(
                Attribute("grid", array_of(scalar("long"), rng.randint(1, 99)))
            )
        if rng.random() < 0.5:
            interface.add_operation(
                Operation(
                    "check",
                    rng.choice([scalar("void"), named(interface.name)]),
                    (
                        Parameter("in", set_of(interface.name), "items"),
                        Parameter("inout", array_of(scalar("char", 2), 3), "c"),
                        Parameter("out", scalar("string", 8), "why"),
                    ),
                    ("Failed", "Busy"),
                )
            )
        for end in list(interface.relationships.values()):
            target = schema.interfaces.get(end.target_type)
            if end.is_to_many and target and target.attributes:
                order_by = tuple(target.attributes)[: rng.randint(1, 2)]
                interface.remove_relationship(end.name)
                interface.add_relationship(replace(end, order_by=order_by))


@st.composite
def _source_texts(draw) -> str:
    """A printed catalog schema, a hand-written catalog text, or a printed
    generated schema, customized or not."""
    source = draw(st.sampled_from(["catalog", "hand", "generated"]))
    if source == "catalog":
        return _printed_catalog(draw(st.sampled_from(sorted(SCHEMA_BUILDERS))))
    if source == "hand":
        return HAND_WRITTEN[draw(st.sampled_from(sorted(HAND_WRITTEN)))]
    seed = draw(st.integers(min_value=0, max_value=10_000))
    schema = generate_schema(
        WorkloadSpec(types=draw(st.integers(1, 8)), seed=seed)
    )
    if draw(st.booleans()):
        _customize(schema, random.Random(seed))
    return print_schema(schema)


_SEPARATORS = [
    " ", "  ", "\n", "\t", "\r\n", "\n\n    ", "/* c */", "/**/",
    " /* two\n lines */ ", "// note\n", "//\n", " // x */ y\n",
]


def _tokens(text: str) -> list[tuple[str, str]]:
    stream = TokenStream(text)
    tokens = []
    while stream.kind != END:
        tokens.append((stream.kind, stream.value))
        stream.advance()
    return tokens


def _respaced(text: str, rng: random.Random) -> str:
    """*text*'s tokens with random blanks and comments between them, no
    blank at all next to some punctuation, and sometimes the ODMG module
    wrapper around the whole."""
    tokens = _tokens(text)
    if rng.random() < 0.2:
        tokens = (
            [(IDENT, "module"), (IDENT, "M"), (PUNCT, "{")]
            + tokens
            + [(PUNCT, "}"), (PUNCT, ";")]
        )
    pieces = [rng.choice(_SEPARATORS)]
    for index, (kind, value) in enumerate(tokens):
        pieces.append(value)
        following = tokens[index + 1] if index + 1 < len(tokens) else None
        if following is None:
            pieces.append(rng.choice(_SEPARATORS + [""]))
            continue
        next_kind, next_value = following
        joinable = PUNCT in (kind, next_kind) and not (
            value.endswith(":") and next_value.startswith(":")
        )
        if joinable and rng.random() < 0.5:
            continue
        pieces.append(rng.choice(_SEPARATORS))
    return "".join(pieces)


def _outcome(parse, text: str):
    """What a schema parse builds (its name, content and every order), or
    the error it raises with its position."""
    try:
        schema = parse(text, name="s")
    except ReproError as error:
        return (
            type(error),
            str(error),
            getattr(error, "line", None),
            getattr(error, "column", None),
        )
    return schema.name, schema_fingerprint(schema), print_schema(schema)


def _assert_matches_reference(text: str) -> None:
    assert _outcome(parse_schema, text) == _outcome(
        reference_parse_schema, text
    )


_DIFFERENTIAL = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestMatchesTokenReference:
    """``parse_schema`` must equal the token-only loop on every text: the
    same schema, or the same exception at the same line and column."""

    @_DIFFERENTIAL
    @given(_source_texts())
    def test_printed_texts(self, text):
        outcome = _outcome(parse_schema, text)
        assert outcome == _outcome(reference_parse_schema, text)
        assert outcome[0] == "s"  # printed text parses

    @_DIFFERENTIAL
    @given(_source_texts(), st.integers(min_value=0, max_value=10_000))
    def test_respaced_texts(self, text, seed):
        respaced = _respaced(text, random.Random(seed))
        _assert_matches_reference(respaced)
        assert _outcome(parse_schema, respaced)[1:] == _outcome(
            parse_schema, text
        )[1:]

    @_DIFFERENTIAL
    @given(
        _source_texts(),
        st.integers(min_value=0, max_value=10_000),
        st.booleans(),
        st.lists(_MUTATION, min_size=1, max_size=4),
    )
    def test_mutated_texts(self, text, seed, respace, mutations):
        if respace:
            text = _respaced(text, random.Random(seed))
        _assert_matches_reference(_mutate(text, mutations))

    @_DIFFERENTIAL
    @given(_source_texts(), st.lists(_MUTATION, max_size=3))
    def test_single_interfaces(self, text, mutations):
        first = text[text.index("interface"):]
        first = _mutate(first[: first.index("}") + 2], mutations)

        def outcome(parse):
            try:
                return print_interface(parse(first))
            except ReproError as error:
                return type(error), str(error), getattr(error, "line", None)

        assert outcome(parse_interface) == outcome(reference_parse_interface)

    @pytest.mark.parametrize("text", [
        "interface A { attribute set<list<long>> x; };",
        "interface A { attribute set<Foo(3)> x; };",
        "interface A { attribute Foo(3) x; };",
        "interface A { attribute set x; };",
        "interface A { attribute Foo<long> x; };",
        "interface A { attribute string(0) x; } @",
        "interface A { attribute void x; } @",
        "interface A { attribute void x; };",
        "interface A { attribute long x; attribute long x; };",
        "interface A { keys (a), (a); };",
        "interface A { relationship long x inverse B::y; };",
        "interface A { relationship B x inverse B::y order_by (z); };",
        "interface A { long f(in long x, in long x); };",
        "interface A { long f() raises (E, E); };",
        "interface A { long f(); void f(); };",
        "interface A { extent foo(); };",
        "interface A { attribute long x; }; interface A {};",
        "interface _A { }; @",
        "interface A : B, B { @",
        "interface A { attribute string(1234567890) x; };",
        "interface A { attribute string(" + "9" * 5000 + ") x; };",
        "interface \u00e9 { attribute long \u00e9t\u00e9; };",
        "interface A { attribute long x;}}",
        "interface A { attribute long x; };;",
        "interface A { keys; };",
        "interface A { long f(in set<set<B>> x); };",
        "interface A { long f(in Foo(2) x, in string(0) y); };",
        "interface A { long f(in string(0) y, in Foo(2) x); };",
    ])
    def test_edge_cases(self, text):
        _assert_matches_reference(text)


class TestNoTokenLevelParses:
    """Valid catalog and generated text never reaches the token path."""

    @staticmethod
    def _count(monkeypatch, name: str) -> list[str]:
        """Record each call of the token-level parser function *name*."""
        calls: list[str] = []
        original = getattr(parser, name)

        def counting(stream, *interface):
            calls.append(name)
            return original(stream, *interface)

        monkeypatch.setattr(parser, name, counting)
        return calls

    @staticmethod
    def _texts() -> list[str]:
        texts = [_printed_catalog(name) for name in sorted(SCHEMA_BUILDERS)]
        texts += HAND_WRITTEN.values()
        texts.append(print_schema(generate_schema(WorkloadSpec(types=200))))
        return texts

    def test_no_member_parses(self, monkeypatch):
        calls = self._count(monkeypatch, "_parse_member")
        for text in self._texts():
            assert len(parse_schema(text).interfaces) > 0
        assert calls == []

    def test_no_header_parses(self, monkeypatch):
        calls = self._count(monkeypatch, "_parse_header")
        for text in self._texts():
            parse_schema(text)
        assert calls == []

    def test_counters_see_fallbacks(self, monkeypatch):
        members = self._count(monkeypatch, "_parse_member")
        headers = self._count(monkeypatch, "_parse_header")
        parse_schema(
            "interface \u00e9 { attribute set<set<long>> x; long y(); };"
        )
        assert (len(headers), len(members)) == (1, 1)


def _stored_strings(schema):
    """Every identifier a parsed schema stores, with where it is."""

    def of_type(type_ref, where):
        if isinstance(type_ref, CollectionType):
            yield where + ".kind", type_ref.kind
            yield from of_type(type_ref.element, where + ".element")
        else:
            assert isinstance(type_ref, (NamedType, ScalarType))
            yield where + ".name", type_ref.name

    for name, interface in schema.interfaces.items():
        yield "key", name
        yield "name", interface.name
        for supertype in interface.supertypes:
            yield "supertype", supertype
        if interface.extent is not None:
            yield "extent", interface.extent
        for key in interface.keys:
            for part in key:
                yield "key part", part
        for key, attribute in interface.attributes.items():
            yield "attribute key", key
            yield "attribute", attribute.name
            yield from of_type(attribute.type, "attribute type")
        for key, end in interface.relationships.items():
            yield "relationship key", key
            yield "path", end.name
            yield "inverse type", end.inverse_type
            yield "inverse path", end.inverse_name
            for part in end.order_by:
                yield "order_by", part
            yield from of_type(end.target, "target")
        for key, operation in interface.operations.items():
            yield "operation key", key
            yield "operation", operation.name
            yield from of_type(operation.return_type, "returns")
            for parameter in operation.parameters:
                yield "direction", parameter.direction
                yield "parameter", parameter.name
                yield from of_type(parameter.type, "parameter type")
            for exception in operation.exceptions:
                yield "raises", exception


class TestIdentifiersAreInterned:
    """Every identifier a parse stores is the ``sys.intern``-ed string.
    Two parses of one text must store the very same objects (fresh
    slices of the text would differ), and each must be the interned
    one."""

    def _check(self, text):
        first, second = parse_schema(text), parse_schema(text)
        pairs = list(zip(_stored_strings(first), _stored_strings(second)))
        assert pairs
        for (where, one), (_, other) in pairs:
            assert one is other, (where, one)
            assert one is sys.intern(one), (where, one)

    def test_customized_generated_schema(self):
        schema = generate_schema(WorkloadSpec(types=30, seed=3))
        _customize(schema, random.Random(3))
        self._check(print_schema(schema))

    @pytest.mark.parametrize("name", sorted(HAND_WRITTEN))
    def test_hand_written_text(self, name):
        self._check(HAND_WRITTEN[name])

    def test_every_position(self):
        self._check(
            "interface Pz1 : Qz1, Rz1 { extent pz1s; keys kz1, (kz2, kz3);"
            " attribute set<Sz1> az1; attribute array<string(4), 2> az2;"
            " instance_of relationship list<Qz1> rz1 inverse Qz1::rz2"
            " order_by (oz1, oz2);"
            " bag<Tz1> fz1(in Uz1 pz1, out list<Vz1> pz2, inout char pz3)"
            " raises (Ez1, Ez2); };"
        )


#: One malformed declaration of each kind; ``{0}`` is where the filler
#: and then a bad character go.
_BACKTRACKING_CASES = [
    "interface A : B, C{0} {{ }};",
    "interface A {{ extent e{0}; }};",
    "interface A {{ keys (a, b), c{0}; }};",
    "interface A {{ attribute string(3) x{0}; }};",
    "interface A {{ attribute array<string(3), 4>{0} x; }};",
    "interface A {{ relationship set<B> b inverse B::a order_by (x, y){0}; }};",
    "interface A {{ part_of relationship B b inverse B::a{0}; }};",
    "interface A {{ long f(in string x, out set<long> y){0} raises (E); }};",
    "interface A {{ long f(in string x) raises (E, F){0}; }};",
    "interface A {{ attribute long x; }}{0}",
    "module M {{ interface A {{ attribute long x; }};{0} }};",
]


class TestBacktrackingIsBounded:
    """Blanks or comments before a bad token cost linear time: the
    declaration patterns never backtrack into skipped text."""

    @pytest.mark.parametrize("template", _BACKTRACKING_CASES)
    @pytest.mark.parametrize(
        "filler", [" " * 10_000, "/* c */" * 1_000], ids=["blanks", "comments"]
    )
    @pytest.mark.parametrize("bad", ["!", "/* open"])
    def test_same_error_within_a_second(self, template, filler, bad):
        text = template.format(filler + bad)
        started = time.perf_counter()
        with pytest.raises(OdlSyntaxError) as caught:
            parse_schema(text)
        elapsed = time.perf_counter() - started
        with pytest.raises(OdlSyntaxError) as expected:
            reference_parse_schema(text)
        assert (str(caught.value), caught.value.line, caught.value.column) == (
            str(expected.value), expected.value.line, expected.value.column,
        )
        assert elapsed < 1.0
