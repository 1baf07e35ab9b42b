"""Tokenizer for the extended ODL.

A single compiled regular expression scans one token per match:
identifiers/keywords, decimal integer literals, and the punctuation of
the ODL grammar (including ``::`` for inverse traversal paths).  Blanks,
``//`` line comments and ``/* */`` block comments are skipped as the
leading part of the same match.  The pattern ends in an empty
alternative, so every match is either a token or the offset where
scanning stops (a bad character, an unterminated ``/*``, the end of the
text), and the pattern's scanner drives the cursor: no Python code runs
per character.  Identifier values are interned, so every name a parse
stores -- type, attribute, relationship path, inverse, extent,
parameter -- is one string object per distinct name.

A token is located by its offset in the text.  Its line and column are
computed only when asked for (an error message, :attr:`TokenStream.
current`, :func:`tokenize`), by counting newlines from the last
position computed, so a valid parse does no per-token line bookkeeping
and draining every position stays linear.

:class:`TokenStream` scans lazily, so a lexical error surfaces when the
parser reaches it (with the same message and position :func:`tokenize`
reports) and the full token list is never materialised.

The module also assembles, from the scanner's own sub-patterns, the
declaration patterns :func:`repro.odl.parser.parse_schema` matches a
whole interface header or member declaration with (see the section at
the end).
"""

from __future__ import annotations

import re
from sys import intern
from typing import Iterator, NamedTuple, NoReturn

from repro.model.errors import ReproError


class OdlSyntaxError(ReproError):
    """Lexical or grammatical error in ODL text or operation text."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


# Token types
IDENT = "IDENT"
NUMBER = "NUMBER"
PUNCT = "PUNCT"
END = "END"

#: Multi-character punctuation must be matched before single characters.
_PUNCTUATION = ("::", "{", "}", "(", ")", "<", ">", ",", ";", ":", "[", "]")

#: Group name of a word whose first character is outside ASCII.  Python's
#: ``re`` has no "letter" class, and ``[^\W\d]`` also admits non-decimal
#: numerics such as ``²``; such a word is an identifier only when its
#: first character is alphabetic.
_WORD = "WORD"
#: Group name of the final empty alternative: scanning stops there.
_STOP = "STOP"

#: The scanner's sub-patterns, shared with the declaration patterns below:
#: a blank, a ``//`` or ``/* */`` comment, an ASCII-started identifier,
#: punctuation and a number.
_BLANK = r"[ \t\r\n]"
_COMMENT = r"//[^\n]*|/\*.*?\*/"
_IDENT = r"[A-Za-z_]\w*"
_PUNCT = "|".join(map(re.escape, _PUNCTUATION))
_NUMBER = r"\d+"

#: Skipped text, then exactly one alternative.  The groups are named
#: after the token types, so ``lastgroup`` is the type.  The empty
#: ``STOP`` alternative always matches, at a bad character, an
#: unterminated ``/*`` (which is not skipped) or the end of the text.
_SCAN = re.compile(
    rf"(?:{_BLANK}+|{_COMMENT})*"
    r"(?:"
    rf"(?P<{IDENT}>{_IDENT})"
    rf"|(?P<{PUNCT}>{_PUNCT})"
    rf"|(?P<{NUMBER}>{_NUMBER})"
    rf"|(?P<{_WORD}>[^\W\d]\w*)"
    rf"|(?P<{_STOP}>)"
    r")",
    re.DOTALL,
)


class Token(NamedTuple):
    """One lexical token with its source position."""

    type: str
    value: str
    line: int
    column: int

    def __str__(self) -> str:
        if self.type == END:
            return "end of input"
        return repr(self.value)


def tokenize(text: str) -> Iterator[Token]:
    """Yield the tokens of *text*, ending with a single ``END`` token."""
    stream = TokenStream(text)
    while True:
        token = stream.current
        yield token
        if token.type == END:
            return
        stream.advance()


class TokenStream:
    """Cursor over the tokens of a text with the lookahead the parsers need.

    Scanning starts at offset *start* (default: the beginning); line
    and column are still counted from the beginning of the text.

    The current token lives in three plain attributes the parsers read
    directly: ``kind`` (``IDENT``, ``NUMBER``, ``PUNCT`` or ``END``),
    ``value`` and ``start``, its offset in the text.  The consuming
    calls return the consumed token's value.  :attr:`current` and
    :meth:`peek` build a positioned :class:`Token` only when asked;
    ``current`` keeps it until the next consume.  :meth:`peek_value`
    looks ahead without positioning.

    Tokens are scanned on demand; only the current token and whatever
    the lookahead has scanned are held.  A lexical error is sticky:
    every later call that needs a token past it raises it again.
    """

    __slots__ = (
        "kind", "value", "start",
        "_text", "_next", "_ahead", "_token",
        "_counted", "_line", "_line_start",
    )

    def __init__(self, text: str, start: int = 0) -> None:
        self._text = text
        # What ``finditer`` does in C, without the fresh ``"search"``
        # string it leaves in the type attribute cache per call.
        self._next = iter(_SCAN.scanner(text, start).search, None).__next__
        #: ``(kind, value, start)`` of the tokens after the current one
        #: already scanned by the lookahead.
        self._ahead: list[tuple[str, str, int]] = []
        self._token: Token | None = None
        # Newlines are counted up to offset ``_counted``, which lies on
        # line ``_line``, starting at offset ``_line_start``.
        self._counted = 0
        self._line = 1
        self._line_start = 0
        self.kind, self.value, self.start = self._scan()

    def _scan(self) -> tuple[str, str, int]:
        """Scan the next token as ``(kind, value, start)``."""
        match = self._next()
        kind = match.lastgroup
        start = match.start(kind)
        if kind == IDENT:
            return IDENT, intern(match[IDENT]), start
        if kind == PUNCT:
            return PUNCT, match[PUNCT], start
        if kind == NUMBER:
            return NUMBER, match[NUMBER], start
        text = self._text
        if kind == _WORD and text[start].isalpha():
            return IDENT, intern(match[_WORD]), start
        if start == len(text):
            return END, "", start
        if text.startswith("/*", start):
            self._fail("unterminated block comment", start)
        self._fail(f"unexpected character {text[start]!r}", start)

    def _fail(self, message: str, start: int) -> NoReturn:
        """Raise the lexical error at *start*, and make every later scan
        raise it again: the scanner has already moved past the bad
        text, so the stream must never resume after it."""
        self._next = lambda: self._fail(message, start)
        raise self.error(message, start)

    def _position(self, offset: int) -> tuple[int, int]:
        """``(line, column)`` of *offset*, counted from the last position
        asked for, so asking for every token's position stays linear."""
        text = self._text
        counted = self._counted
        line = self._line
        if offset >= counted:
            newlines = text.count("\n", counted, offset)
            if newlines:
                line += newlines
                self._line_start = text.rfind("\n", counted, offset) + 1
        else:
            line -= text.count("\n", offset, counted)
            self._line_start = text.rfind("\n", 0, offset) + 1
        self._counted = offset
        self._line = line
        return line, offset - self._line_start + 1

    @property
    def current(self) -> Token:
        """The current token, positioned."""
        token = self._token
        if token is None:
            token = self._token = Token(
                self.kind, self.value, *self._position(self.start)
            )
        return token

    def _lookahead(self, offset: int) -> tuple[str, str, int]:
        """``(kind, value, start)`` *offset* tokens ahead; clamps at END."""
        if offset < 0:
            raise ValueError("peek looks ahead only")
        ahead = self._ahead
        while len(ahead) < offset:
            last = ahead[-1] if ahead else (self.kind, self.value, self.start)
            if last[0] == END:
                return last
            ahead.append(self._scan())
        if offset == 0:
            return self.kind, self.value, self.start
        return ahead[offset - 1]

    def peek(self, offset: int = 1) -> Token:
        """Look ahead without consuming; clamps at the END token."""
        if offset == 0:
            return self.current
        kind, value, start = self._lookahead(offset)
        return Token(kind, value, *self._position(start))

    def peek_value(self, offset: int = 1) -> str:
        """The value :meth:`peek` would show, without positioning it."""
        return self._lookahead(offset)[1]

    def advance(self) -> str:
        """Consume the current token and return its value."""
        value = self.value
        self._token = None
        ahead = self._ahead
        if ahead:
            self.kind, self.value, self.start = ahead.pop(0)
        elif self.kind != END:
            self.kind, self.value, self.start = self._scan()
        return value

    def at_punct(self, value: str) -> bool:
        return self.kind == PUNCT and self.value == value

    def at_ident(self, value: str | None = None) -> bool:
        if self.kind != IDENT:
            return False
        return value is None or self.value == value

    def expect_punct(self, value: str) -> str:
        if self.kind != PUNCT or self.value != value:
            raise self.error(f"expected {value!r}, found {self.current}")
        return self.advance()

    def expect_ident(self, value: str | None = None) -> str:
        if self.kind != IDENT or (value is not None and self.value != value):
            expected = repr(value) if value else "an identifier"
            raise self.error(f"expected {expected}, found {self.current}")
        return self.advance()

    def expect_number(self) -> int:
        if self.kind != NUMBER:
            raise self.error(f"expected a number, found {self.current}")
        try:
            value = int(self.value)
        except ValueError:
            # Longer than the interpreter's int-conversion digit limit.
            raise self.error(
                f"number of {len(self.value)} digits is too long"
            ) from None
        self.advance()
        return value

    def accept_punct(self, value: str) -> bool:
        """Consume the punctuation if present, returning whether it was."""
        if self.kind == PUNCT and self.value == value:
            self.advance()
            return True
        return False

    def accept_ident(self, value: str) -> bool:
        """Consume the keyword identifier if present."""
        if self.kind == IDENT and self.value == value:
            self.advance()
            return True
        return False

    def expect_end(self) -> None:
        if self.kind != END:
            raise self.error(f"unexpected trailing input: {self.current}")

    def error(self, message: str, start: int | None = None) -> OdlSyntaxError:
        """Build a syntax error anchored at the token starting at *start*
        (default: the current token)."""
        line, column = self._position(self.start if start is None else start)
        return OdlSyntaxError(message, line, column)


# ----------------------------------------------------------------------
# Declaration patterns
#
# The parser matches a whole interface header or member declaration with
# one of these and builds it from the groups.  They are assembled from
# the scanner's sub-patterns, so a matched declaration is exactly the
# token sequence the scanner would produce: identifiers and numbers are
# never cut short, keywords are whole identifiers, and every optional or
# repeated part is taken whenever it is there, as the token path's
# ``accept_*`` calls take it.  Anything they do not match (deeper
# nesting, a non-ASCII identifier, malformed text) is left to the
# token-level recursive descent, the only source of syntax errors.
# ----------------------------------------------------------------------

#: Skipped text between two tokens: the same text the scanner skips, but
#: every repeat is possessive and each comment atomic.  The scanner's
#: ``(?:...)*`` reused as is tries every way to split a run of blanks
#: between repetitions once the rest of a pattern fails, which is
#: exponential in the length of the run.
_SKIP = rf"{_BLANK}*+(?:(?>{_COMMENT}){_BLANK}*+)*+"
_NAME = rf"(?>{_IDENT})"
#: A size: a number of at most nine digits.  A longer one (which ``int``
#: may refuse) is left to the token path.
_SIZE = r"(?>\d{1,9})"
#: The end of a matched declaration: skipped text, then a token that
#: scans or the end of the text.  The token path scans that token before
#: it builds the declaration's last model objects, so a declaration
#: followed by a lexical error is left to it.
_FOLLOWED = rf"{_SKIP}(?={_IDENT}|{_PUNCT}|{_NUMBER}|\Z)"


def _keyword(word: str) -> str:
    """*word* (a regular expression) as a whole identifier."""
    return rf"(?:{word})(?!\w)"


def _group(name: str | None, pattern: str) -> str:
    if name is None:
        return rf"(?:{pattern})"
    return rf"(?P<{name}>{pattern})"


def _tokens(*parts: str) -> str:
    """*parts* in order, with skipped text allowed between them."""
    return _SKIP.join(parts)


def _optional(*parts: str) -> str:
    """*parts* after skipped text, taken whenever they match."""
    return rf"(?:{_SKIP}{_tokens(*parts)})?+"


def _repeated(*parts: str) -> str:
    """*parts* after skipped text, as often as they match."""
    return rf"(?:{_SKIP}{_tokens(*parts)})*+"


#: ``ident_list``: one or more identifiers separated by commas.
_NAMES = _NAME + _repeated(",", _NAME)


def _type(name: str | None = None) -> str:
    """A type whose collection nesting is at most one level: a word, then
    either ``< word [( size )] [, size] >`` or ``( size )``.  Which words
    may take which part is left to the parser; the groups are *name*
    (the word), ``*_element``, ``*_element_size``, ``*_bound`` and
    ``*_size``, or none when *name* is ``None``."""

    def part(suffix: str, pattern: str) -> str:
        return _group(name and name + suffix, pattern)

    collection = _tokens(
        "<",
        part("_element", _NAME)
        + _optional(r"\(", part("_element_size", _SIZE), r"\)")
        + _optional(",", part("_bound", _SIZE)),
        ">",
    )
    sized = _tokens(r"\(", part("_size", _SIZE), r"\)")
    return part("", _NAME) + rf"(?:{_SKIP}(?:{collection}|{sized}))?+"


_KEY_SPEC = "(?:" + _tokens(r"\(", _NAMES, r"\)") + "|" + _NAME + ")"
_PARAMETER = _tokens(_keyword("inout|in|out"), _type(), _NAME)
#: The words a member declaration other than an operation starts with.
_MEMBER_KEYWORDS = "extent|keys?|attribute|relationship|part_of|instance_of"

#: ``interface Name [: Super, ...] {``; groups ``interface_name`` and
#: ``supertypes``.
HEADER = re.compile(
    _tokens(_keyword("interface"), _group("interface_name", _NAME))
    + _optional(":", _group("supertypes", _NAMES))
    + _SKIP
    + r"\{"
    + _FOLLOWED,
    re.DOTALL,
)

#: One member declaration.  ``lastgroup`` names its kind: ``extent``,
#: ``keys``, ``attribute``, ``relationship`` or ``operation``.
MEMBER = re.compile(
    "(?:"
    + _group(
        "attribute",
        _tokens(
            _keyword("attribute"),
            _type("attribute_type"),
            _group("attribute_name", _NAME),
            ";",
        ),
    )
    + "|"
    + _group(
        "relationship",
        "(?:"
        + _group("relationship_kind", _keyword("part_of|instance_of"))
        + _SKIP
        + ")?+"
        + _tokens(
            _keyword("relationship"),
            _type("target"),
            _group("path", _NAME),
            _keyword("inverse"),
            _group("inverse_type", _NAME),
            "::",
            _group("inverse_path", _NAME),
        )
        + _optional(
            _keyword("order_by"), r"\(", _group("order_by", _NAMES), r"\)"
        )
        + _SKIP
        + ";",
    )
    + "|"
    + _group(
        "extent",
        _tokens(_keyword("extent"), _group("extent_name", _NAME), ";"),
    )
    + "|"
    + _group(
        "keys",
        _tokens(
            _keyword("keys?"),
            _group("key_specs", _KEY_SPEC + _repeated(",", _KEY_SPEC)),
            ";",
        ),
    )
    + "|"
    + _group(
        "operation",
        rf"(?!{_keyword(_MEMBER_KEYWORDS)})"
        + _tokens(_type("returns"), _group("operation_name", _NAME), r"\(")
        + _optional(
            _group("parameters", _PARAMETER + _repeated(",", _PARAMETER))
        )
        + _SKIP
        + r"\)"
        + _optional(_keyword("raises"), r"\(", _group("raises", _NAMES), r"\)")
        + _SKIP
        + ";",
    )
    + ")"
    + _FOLLOWED,
    re.DOTALL,
)

#: ``} [;]`` closing an interface.
CLOSE = re.compile(r"\}" + _optional(";") + _FOLLOWED, re.DOTALL)

#: ``findall`` over a matched list yields its items in order, each item
#: as its groups in order: the names of an ``ident_list``; the key specs
#: of a keys declaration (an ``ident_list`` or a name); the parameters
#: of an operation (the direction, the five type groups, the name).
#: (``finditer`` would leave a fresh ``"search"`` string per call in the
#: interpreter's type attribute cache.)
_ITEM = _tokens("", ",?", "")
NAME_ITEM = re.compile(_ITEM + rf"({_NAME})", re.DOTALL)
KEY_ITEM = re.compile(
    _ITEM
    + "(?:"
    + _tokens(r"\(", _group("key_names", _NAMES), r"\)")
    + "|"
    + _group("key_name", _NAME)
    + ")",
    re.DOTALL,
)
PARAMETER = re.compile(
    _ITEM
    + _tokens(
        _group("direction", _keyword("inout|in|out")),
        _type("parameter_type"),
        _group("parameter_name", _NAME),
    ),
    re.DOTALL,
)
