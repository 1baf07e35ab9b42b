"""Unit, differential and property tests for the ODL front end.

The regex scanner in :mod:`repro.odl.lexer` is checked against the
character-loop reference tokenizer in ``tests/odl_reference_lexer.py``
on random text, and the parsers built on it are checked to fail only
with :class:`~repro.model.errors.ReproError` on mutated valid input.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.model.errors import ReproError
from repro.odl.check import check_text
from repro.odl.lexer import (
    END,
    IDENT,
    NUMBER,
    PUNCT,
    OdlSyntaxError,
    Token,
    TokenStream,
    tokenize,
)
from repro.odl.parser import MAX_TYPE_NESTING, parse_schema, parse_type
from repro.odl.printer import print_schema
from repro.ops.language import parse_composite, parse_operation, parse_script
from repro.workload.generator import (
    WorkloadSpec,
    generate_operations,
    generate_schema,
)
from tests.odl_reference_lexer import reference_tokenize


def token_values(text):
    return [(t.type, t.value) for t in tokenize(text) if t.type != END]


class TestTokenize:
    def test_identifiers_and_punctuation(self):
        assert token_values("interface A { };") == [
            (IDENT, "interface"), (IDENT, "A"),
            (PUNCT, "{"), (PUNCT, "}"), (PUNCT, ";"),
        ]

    def test_numbers(self):
        assert token_values("string(30)") == [
            (IDENT, "string"), (PUNCT, "("), (NUMBER, "30"), (PUNCT, ")"),
        ]

    def test_double_colon(self):
        assert token_values("A::b") == [
            (IDENT, "A"), (PUNCT, "::"), (IDENT, "b"),
        ]

    def test_single_colon(self):
        assert token_values("A : B") == [
            (IDENT, "A"), (PUNCT, ":"), (IDENT, "B"),
        ]

    def test_line_comment_skipped(self):
        assert token_values("a // comment\n b") == [(IDENT, "a"), (IDENT, "b")]

    def test_block_comment_skipped(self):
        assert token_values("a /* x\ny */ b") == [(IDENT, "a"), (IDENT, "b")]

    def test_unterminated_block_comment(self):
        with pytest.raises(OdlSyntaxError):
            list(tokenize("a /* never closed"))

    def test_unexpected_character(self):
        with pytest.raises(OdlSyntaxError) as info:
            list(tokenize("a @ b"))
        assert "@" in str(info.value)

    def test_positions(self):
        tokens = list(tokenize("a\n  b"))
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)

    def test_underscore_identifiers(self):
        assert token_values("works_in_a _x") == [
            (IDENT, "works_in_a"), (IDENT, "_x"),
        ]

    def test_ends_with_end_token(self):
        tokens = list(tokenize("a"))
        assert tokens[-1].type == END


class TestTokenStream:
    def test_expect_ident(self):
        stream = TokenStream("interface A")
        assert stream.expect_ident("interface") == "interface"
        assert stream.expect_ident() == "A"

    def test_expect_ident_failure_mentions_position(self):
        stream = TokenStream("123")
        with pytest.raises(OdlSyntaxError) as info:
            stream.expect_ident()
        assert "line 1" in str(info.value)

    def test_expect_punct(self):
        stream = TokenStream("{ }")
        stream.expect_punct("{")
        with pytest.raises(OdlSyntaxError):
            stream.expect_punct(";")

    def test_accept(self):
        stream = TokenStream(", x")
        assert stream.accept_punct(",")
        assert not stream.accept_punct(",")
        assert stream.accept_ident("x")

    def test_peek_does_not_consume(self):
        stream = TokenStream("a b")
        assert stream.peek().value == "b"
        assert stream.current.value == "a"

    def test_peek_clamps_at_end(self):
        stream = TokenStream("a")
        assert stream.peek(10).type == END

    def test_expect_number(self):
        assert TokenStream("42").expect_number() == 42
        with pytest.raises(OdlSyntaxError):
            TokenStream("x").expect_number()

    def test_expect_end(self):
        stream = TokenStream("a")
        stream.advance()
        stream.expect_end()
        with pytest.raises(OdlSyntaxError):
            TokenStream("a b").expect_end()

    def test_peek_past_lookahead_then_advance(self):
        stream = TokenStream("a b c")
        assert stream.peek(2).value == "c"
        assert [stream.advance() for _ in range(3)] == ["a", "b", "c"]
        assert stream.current.type == END
        assert stream.advance() == ""
        assert stream.kind == END

    def test_peek_zero_is_current(self):
        stream = TokenStream("a b")
        assert stream.peek(0) is stream.current

    def test_lexical_error_surfaces_when_reached(self):
        stream = TokenStream("a b @")
        assert stream.advance() == "a"
        with pytest.raises(OdlSyntaxError, match="unexpected character '@'"):
            stream.advance()

    @pytest.mark.parametrize(
        "text, message, column",
        [
            ("a@b", "unexpected character '@'", 2),
            ("a @b", "unexpected character '@'", 3),
            ("a/* x", "unterminated block comment", 2),
            ("a /* x", "unterminated block comment", 3),
        ],
    )
    def test_lexical_error_is_sticky(self, text, message, column):
        stream = TokenStream(text)
        raised = []
        for call in (stream.advance, stream.advance, stream.peek):
            with pytest.raises(OdlSyntaxError) as caught:
                call()
            raised.append(
                (str(caught.value), caught.value.line, caught.value.column)
            )
        assert raised == [(f"{message} (line 1, column {column})", 1, column)] * 3

    def test_overlong_number_is_a_syntax_error(self):
        with pytest.raises(OdlSyntaxError, match="too long"):
            TokenStream("9" * 5000).expect_number()


class TestToken:
    def test_fields_and_str(self):
        token = Token(IDENT, "a", 1, 2)
        assert (token.type, token.value, token.line, token.column) == (
            IDENT, "a", 1, 2,
        )
        assert str(token) == "'a'"
        assert str(Token(END, "", 1, 1)) == "end of input"

    def test_scanner_tokens_are_tokens(self):
        token = next(tokenize("x"))
        assert isinstance(token, Token)
        assert token == Token(IDENT, "x", 1, 1)


class TestParserRobustnessRegressions:
    """Inputs that used to escape as non-``ReproError`` exceptions."""

    def test_superscript_digit_in_type_size(self):
        with pytest.raises(OdlSyntaxError) as info:
            parse_type("string(\u00b2)")
        assert (info.value.line, info.value.column) == (1, 8)
        assert "unexpected character" in str(info.value)

    def test_superscript_digit_in_operation(self):
        with pytest.raises(OdlSyntaxError):
            parse_operation("add_attribute(A, string(\u00b2), x)")

    def test_unicode_decimal_digits_still_form_numbers(self):
        assert parse_type("string(\u0663\u0660)").size == 30

    @pytest.mark.parametrize("depth", [MAX_TYPE_NESTING + 1, 5000])
    def test_deep_type_nesting(self, depth):
        deep = "set<" * depth + "long" + ">" * depth
        with pytest.raises(OdlSyntaxError, match="nested deeper"):
            parse_type(deep)

    def test_nesting_up_to_the_bound_parses(self):
        depth = MAX_TYPE_NESTING
        parsed = parse_type("set<" * depth + "long" + ">" * depth)
        for _ in range(depth):
            parsed = parsed.element
        assert parsed.name == "long"


# ----------------------------------------------------------------------
# Pinned error messages and positions
# ----------------------------------------------------------------------

_PARSERS = {
    "schema": parse_schema,
    "type": parse_type,
    "script": parse_script,
    "operation": parse_operation,
    "composite": parse_composite,
}
_NESTED = "set<" * (MAX_TYPE_NESTING + 1)

#: (parser, text, message with its position, line, column).
_PINNED_ERRORS = [
    ("schema", "interface A {\n  attribute long;\n};",
     "expected an identifier, found ';' (line 2, column 17)", 2, 17),
    ("schema", "interface A {\n  relationship set<B> bs inverse B:a;\n};",
     "expected '::', found ':' (line 2, column 35)", 2, 35),
    ("schema", "interface A {\n  long f(inn short x);\n};",
     "expected a parameter direction (in/out/inout), found 'inn' "
     "(line 2, column 10)", 2, 10),
    ("schema", "interface A { /* open\n",
     "unterminated block comment (line 1, column 15)", 1, 15),
    ("schema", "interface A {\n\tattribute string(30 title;\n};",
     "expected ')', found 'title' (line 2, column 22)", 2, 22),
    ("schema", "interface A : {\n};",
     "expected an identifier, found '{' (line 1, column 15)", 1, 15),
    ("schema", "interface A {\n  attribute long x;\n}\ninterface",
     "expected an identifier, found end of input (line 4, column 10)", 4, 10),
    ("schema", "module M {\n interface A {};\n",
     "expected '}', found end of input (line 3, column 1)", 3, 1),
    ("schema", "module M {\n interface A {};\n}; extra",
     "unexpected trailing input: 'extra' (line 3, column 4)", 3, 4),
    ("schema", "interface A {\n  keys (a, b;\n};",
     "expected ')', found ';' (line 2, column 13)", 2, 13),
    ("schema", "interface A {\n  extent 5;\n};",
     "expected an identifier, found '5' (line 2, column 10)", 2, 10),
    ("schema", "interface A {\n  part_of relationship B b inverse B::a "
     "order_by (x;\n};",
     "expected ')', found ';' (line 2, column 52)", 2, 52),
    ("schema", "interface A {\n  long f(in short x) raises (E;\n};",
     "expected ')', found ';' (line 2, column 31)", 2, 31),
    ("schema", "interface A {\r\n  attribute long @x;\r\n};",
     "unexpected character '@' (line 2, column 18)", 2, 18),
    ("schema", "interface A {\n  attribute string(" + "9" * 5000 + ") x;\n};",
     "number of 5000 digits is too long (line 2, column 20)", 2, 20),
    ("schema", "interface é {\n  attribute long ²;\n};",
     "unexpected character '²' (line 2, column 18)", 2, 18),
    ("schema", "interface A {\n  attribute set<long, x> y;\n};",
     "expected a number, found 'x' (line 2, column 23)", 2, 23),
    ("schema", "// c\n/* d\n e */ interface A {\n  attribute long x;\n}}",
     "unexpected trailing input: '}' (line 5, column 2)", 5, 2),
    ("schema", "interface A {\n  attribute long x;\n",
     "expected an identifier, found end of input (line 3, column 1)", 3, 1),
    ("type", _NESTED + "long" + ">" * (MAX_TYPE_NESTING + 1),
     "collection types nested deeper than 64 levels (line 1, column 257)",
     1, 257),
    ("type", _NESTED.replace("<", "<\n") + "long",
     "collection types nested deeper than 64 levels (line 65, column 1)",
     65, 1),
    ("type", "set<" * MAX_TYPE_NESTING + "set @",
     "unexpected character '@' (line 1, column 261)", 1, 261),
    ("type", "string(²)",
     "unexpected character '²' (line 1, column 8)", 1, 8),
    ("type", "set<long",
     "expected '>', found end of input (line 1, column 9)", 1, 9),
    ("type", "long long",
     "unexpected trailing input: 'long' (line 1, column 6)", 1, 6),
    ("type", "",
     "expected an identifier, found end of input (line 1, column 1)", 1, 1),
    ("type", "set<long,>",
     "expected a number, found '>' (line 1, column 10)", 1, 10),
    ("script", "add_attribute(A, long, x)\nfrobnicate(A)",
     "unknown operation 'frobnicate' (line 2, column 1)", 2, 1),
    ("script", "add_attribute(A, long, x);\n  add_attribute(B long, y)",
     "expected ',', found 'long' (line 2, column 19)", 2, 19),
    ("script", "add_type_definition(A)\n5",
     "unexpected trailing input: '5' (line 2, column 1)", 2, 1),
    ("script", "add_type_definition(A)\nadd_type_definition(B",
     "expected ')', found end of input (line 2, column 22)", 2, 22),
    ("script", "add_operation(A, long, f, (in short x), (E)\n"
     "add_type_definition(B)",
     "expected ')', found 'add_type_definition' (line 2, column 1)", 2, 1),
    ("script", "add_type_definition(A) @",
     "unexpected character '@' (line 1, column 24)", 1, 24),
    ("operation", "add_attribute(A, long, 5 x)",
     "expected ',', found 'x' (line 1, column 26)", 1, 26),
    # The parameter-list lookahead reaches the bad character first.
    ("operation", "add_operation(A, long, f, x @)",
     "unexpected character '@' (line 1, column 29)", 1, 29),
    ("operation", "add_operation(A, long, f, (x @)",
     "unexpected character '@' (line 1, column 30)", 1, 30),
    ("operation", "add_operation(A, long, f, (inn short x))",
     "expected ')', found 'short' (line 1, column 32)", 1, 32),
    ("operation", "add_operation(A, long, f, (in short x), (E), x)",
     "expected ')', found ',' (line 1, column 44)", 1, 44),
    ("operation", "modify_operation_arg_list(A, f, (in short x), (out long))",
     "expected an identifier, found ')' (line 1, column 56)", 1, 56),
    ("operation", "modify_attribute_size(A, x, y, 5)",
     "expected a number, found 'y' (line 1, column 29)", 1, 29),
    ("operation", "add_relationship(A, set<B>, bs, B:a)",
     "expected '::', found ':' (line 1, column 34)", 1, 34),
    ("operation", "add_type_definition(A) add_type_definition(B)",
     "unexpected trailing input: 'add_type_definition' (line 1, column 24)",
     1, 24),
    ("operation", "add_type_definition(A);;",
     "unexpected trailing input: ';' (line 1, column 24)", 1, 24),
    ("operation", "unknown_op(A)",
     "unknown operation 'unknown_op' (line 1, column 1)", 1, 1),
    ("operation", "   \n  unknown_op(A)",
     "unknown operation 'unknown_op' (line 2, column 3)", 2, 3),
    ("operation", "42(A)",
     "expected an identifier, found '42' (line 1, column 1)", 1, 1),
    ("operation", "",
     "expected an identifier, found end of input (line 1, column 1)", 1, 1),
    ("operation", "add_key_list(A, (a, b)",
     "expected ')', found end of input (line 1, column 23)", 1, 23),
    ("operation", "modify_relationship_target_type(A, p, B, C, D)",
     "expected ')', found ',' (line 1, column 43)", 1, 43),
    ("composite", "introduce_abstract_supertype(S, (A, B), 5)",
     "expected an identifier, found '5' (line 1, column 41)", 1, 41),
    ("composite", "\n  frobnicate_all(S, (A, B))",
     "unknown composite operation 'frobnicate_all' (line 2, column 3)", 2, 3),
    ("composite", "extract_supertype(A, B, (x), (y)",
     "expected ')', found end of input (line 1, column 33)", 1, 33),
    ("composite", "split_by_subtyping(A, B, x)",
     "expected '(', found 'x' (line 1, column 26)", 1, 26),
    ("composite", "introduce_abstract_supertype(S, (A, B)) trailing",
     "unexpected trailing input: 'trailing' (line 1, column 41)", 1, 41),
]


class TestPinnedErrors:
    """Exact messages and positions: computing a position on demand
    must report the same line and column the per-token counter did."""

    @pytest.mark.parametrize(
        "parser, text, message, line, column", _PINNED_ERRORS
    )
    def test_message_and_position(self, parser, text, message, line, column):
        with pytest.raises(OdlSyntaxError) as info:
            _PARSERS[parser](text)
        assert (str(info.value), info.value.line, info.value.column) == (
            message, line, column,
        )


# ----------------------------------------------------------------------
# Differential: scanner vs. the character-loop reference
# ----------------------------------------------------------------------


def _non_decimal_digit(char: str) -> bool:
    """The documented divergence: ``isdigit`` but not a decimal digit."""
    return char.isdigit() and not char.isdecimal()


def _outcome(tokens):
    """Token tuples produced, then the error (message, line, column)."""
    produced = []
    try:
        for token in tokens:
            produced.append(tuple(token))
    except OdlSyntaxError as error:
        return produced, (str(error), error.line, error.column)
    return produced, None


_FRAGMENT_LIST = [
    "a", "Z", "_", "x1", "interface", "set", "\u00e9", "\u00df",
    "\u0416", "\u4e2d", "\u02b0", "0", "42", "\u0663", "\u0967",
    " ", "\t", "\n", "\r\n", "\r", "//", "// note\n", "/*", "*/",
    "/* c */", "/**/", "/*/", "*", "/", "::", ":", "{", "}", "(", ")",
    "<", ">", ",", ";", "[", "]", "@", "#", "$", "\x0b", "\x0c",
    "\u00a0", "\u00bd", "\u2167", "'", '"', ".",
]
_FRAGMENTS = st.sampled_from(_FRAGMENT_LIST)
_ANY_CHAR = st.characters(
    blacklist_categories=("Cs",)
).filter(lambda char: not _non_decimal_digit(char))
_TEXT = st.lists(st.one_of(_FRAGMENTS, _ANY_CHAR), max_size=40).map("".join)


class TestScannerMatchesReference:
    @pytest.mark.parametrize("fragment", _FRAGMENT_LIST)
    def test_each_fragment_in_context(self, fragment):
        for text in (fragment, f"a{fragment}b", f"x\n {fragment}\r\n{fragment}1"):
            assert _outcome(tokenize(text)) == _outcome(reference_tokenize(text))

    @settings(max_examples=400, deadline=None)
    @given(_TEXT)
    def test_tokens_and_errors_match(self, text):
        assert _outcome(tokenize(text)) == _outcome(reference_tokenize(text))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_printed_schemas_match(self, seed):
        odl = print_schema(generate_schema(WorkloadSpec(types=8, seed=seed)))
        assert _outcome(tokenize(odl)) == _outcome(reference_tokenize(odl))

    @pytest.mark.parametrize(
        "text", ["\u00b2", "string(\u00b2)", "1\u00b2", "\u2460"]
    )
    def test_non_decimal_digits_diverge(self, text):
        """The one documented difference: ``isdigit``-only characters."""
        produced, error = _outcome(tokenize(text))
        assert error is not None and "unexpected character" in error[0]
        assert any(
            token[0] == NUMBER and not token[1].isdecimal()
            for token in _outcome(reference_tokenize(text))[0]
        )


def _consume(stream: TokenStream) -> str:
    """Consume the current token with the call a parser would use."""
    kind, value = stream.kind, stream.value
    if kind == IDENT:
        return stream.expect_ident(value)
    if kind == PUNCT:
        return stream.expect_punct(value)
    assert stream.expect_number() == int(value)
    return value


def _drained(text: str, mode: str):
    """Position every token of a :class:`TokenStream` through ``current``
    (or :meth:`~TokenStream.peek`), consuming with its own calls.

    ``consume`` scans on each consume; ``peek_value`` looks one token
    ahead before each consume; ``peek`` positions every token ahead
    first, positions them again last to first (counting lines
    backwards), then consumes them all.
    """
    stream = TokenStream(text)
    if mode == "peek":
        tokens: list[Token] = []
        while not tokens or tokens[-1].type != END:
            tokens.append(stream.peek(len(tokens)))
            yield tokens[-1]
        for index in reversed(range(1, len(tokens))):
            assert stream.peek(index) == tokens[index]
        for token in tokens[:-1]:
            assert _consume(stream) == token.value
        assert stream.current == tokens[-1]
        return
    while True:
        token = stream.current
        assert (stream.kind, stream.value) == (token.type, token.value)
        assert stream.peek(0) is token
        yield token
        if token.type == END:
            return
        following = stream.peek_value() if mode == "peek_value" else None
        assert _consume(stream) == token.value
        if following is not None:
            assert stream.value == following


_DRAIN_MODES = ("consume", "peek_value", "peek")


class TestStreamMatchesReference:
    """The stream scans on its own, not through :func:`tokenize`; its
    tokens, positions and errors must match the reference too."""

    @pytest.mark.parametrize("fragment", _FRAGMENT_LIST)
    def test_each_fragment_in_context(self, fragment):
        for text in (fragment, f"a{fragment}b", f"x\n {fragment}\r\n{fragment}1"):
            expected = _outcome(reference_tokenize(text))
            for mode in _DRAIN_MODES:
                assert _outcome(_drained(text, mode)) == expected, mode

    @settings(max_examples=300, deadline=None)
    @given(_TEXT, st.sampled_from(_DRAIN_MODES))
    def test_tokens_and_errors_match(self, text, mode):
        assert _outcome(_drained(text, mode)) == _outcome(
            reference_tokenize(text)
        )

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from(_DRAIN_MODES),
    )
    def test_printed_schemas_match(self, seed, mode):
        odl = print_schema(generate_schema(WorkloadSpec(types=8, seed=seed)))
        assert _outcome(_drained(odl, mode)) == _outcome(
            reference_tokenize(odl)
        )


class TestValidParseIsUnpositioned:
    """A valid parse builds no :class:`Token` and computes no position:
    a line and column exist only for an error or a caller that asks."""

    def test_schema_and_script(self, monkeypatch):
        schema = generate_schema(WorkloadSpec(types=200, seed=1))
        odl = print_schema(schema)
        script = "\n".join(
            operation.to_text()
            for operation in generate_operations(schema, 100, seed=1)
        )
        counts = {"tokens": 0, "positions": 0}
        token_new = Token.__new__
        position = TokenStream._position

        def counting_new(cls, *fields):
            counts["tokens"] += 1
            return token_new(cls, *fields)

        def counting_position(stream, offset):
            counts["positions"] += 1
            return position(stream, offset)

        monkeypatch.setattr(Token, "__new__", staticmethod(counting_new))
        monkeypatch.setattr(TokenStream, "_position", counting_position)
        assert len(parse_schema(odl, name="s").interfaces) == 200
        assert len(parse_script(script)) == 100
        assert counts == {"tokens": 0, "positions": 0}
        # The counters do see a caller that asks.
        assert len(list(tokenize("a b"))) == 3
        assert counts == {"tokens": 3, "positions": 3}


# ----------------------------------------------------------------------
# Property: mutated valid input fails only with ReproError
# ----------------------------------------------------------------------

_INSERTS = st.sampled_from(
    list("{}()<>,;:[]/*_ \n\tAz09@") + ["::", "\u00b2", "\u00e9", "set<"]
)
_MUTATION = st.tuples(
    st.sampled_from(["delete", "duplicate", "insert"]),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=1, max_value=8),
    _INSERTS,
)


def _mutate(text: str, mutations) -> str:
    for kind, where, width, insert in mutations:
        index = int(where * len(text))
        if kind == "delete":
            text = text[:index] + text[index + width:]
        elif kind == "duplicate":
            text = text[:index] + text[index:index + width] + text[index:]
        else:
            text = text[:index] + insert + text[index:]
    return text


def _only_repro_errors(parse, text: str) -> None:
    try:
        parse(text)
    except ReproError:
        pass


_ROBUST = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestMutatedInputOnlyRaisesReproError:
    @_ROBUST
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.lists(_MUTATION, min_size=1, max_size=4),
    )
    def test_schema_text(self, seed, mutations):
        schema = generate_schema(WorkloadSpec(types=4, seed=seed))
        _only_repro_errors(parse_schema, _mutate(print_schema(schema), mutations))

    @_ROBUST
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.lists(_MUTATION, min_size=1, max_size=4),
    )
    def test_script_text(self, seed, mutations):
        schema = generate_schema(WorkloadSpec(types=5, seed=seed))
        operations = generate_operations(schema, 6, seed=seed)
        for operation in operations:
            _only_repro_errors(
                parse_operation, _mutate(operation.to_text(), mutations)
            )
        script = "\n".join(operation.to_text() for operation in operations)
        mutated = _mutate(script, mutations)
        _only_repro_errors(parse_script, mutated)
        _only_repro_errors(parse_operation, mutated)

    @_ROBUST
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.lists(_MUTATION, min_size=1, max_size=4),
    )
    def test_composite_text(self, seed, mutations):
        schema = generate_schema(WorkloadSpec(types=4, seed=seed))
        first, second, *_ = schema.type_names()
        attributes = ", ".join(schema.get(first).attributes)
        for text in (
            f"introduce_abstract_supertype(Abstract{seed}, "
            f"({first}, {second}), nolift)",
            f"extract_supertype({second}, {first}, ({attributes}), (op0))",
            f"split_by_subtyping({first}, Sub{seed}, ({attributes}), ())",
        ):
            parse_composite(text)
            _only_repro_errors(parse_composite, _mutate(text, mutations))

    @_ROBUST
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.lists(_MUTATION, min_size=1, max_size=4),
    )
    def test_checker_text(self, seed, mutations):
        schema = generate_schema(WorkloadSpec(types=4, seed=seed))
        _only_repro_errors(
            lambda text: check_text(text, "mutated"),
            _mutate(print_schema(schema), mutations),
        )


class TestTokenStreamRetainsNothing:
    def test_parses_retain_no_block_from_the_scanner_line(self):
        """A finished parse leaves nothing allocated by the stream's
        scanner set-up: ``finditer`` there left a fresh ``"search"``
        string per stream in the interpreter's type attribute cache."""
        import inspect
        import tracemalloc

        from repro.odl import lexer

        source, first = inspect.getsourcelines(TokenStream.__init__)
        line = first + next(
            offset for offset, text in enumerate(source) if "_SCAN." in text
        )
        text = "add_attribute(Person, string(20), nickname)"
        for _ in range(50):  # warm-up: caches that fill once may fill
            parse_operation(text)
        tracemalloc.start()
        try:
            for _ in range(500):
                parse_operation(text)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        retained = snapshot.filter_traces(
            [tracemalloc.Filter(True, lexer.__file__, line)]
        ).statistics("lineno")
        assert retained == []
