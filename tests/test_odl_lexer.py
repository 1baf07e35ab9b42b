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
        assert stream.expect_ident("interface").value == "interface"
        assert stream.expect_ident().value == "A"

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
        assert [stream.advance().value for _ in range(3)] == ["a", "b", "c"]
        assert stream.current.type == END
        assert stream.advance().type == END

    def test_peek_zero_is_current(self):
        stream = TokenStream("a b")
        assert stream.peek(0) is stream.current

    def test_lexical_error_surfaces_when_reached(self):
        stream = TokenStream("a b @")
        assert stream.advance().value == "a"
        with pytest.raises(OdlSyntaxError, match="unexpected character '@'"):
            stream.advance()

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
