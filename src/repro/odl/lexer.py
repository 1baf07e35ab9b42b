"""Tokenizer for the extended ODL.

A single compiled regular expression scans one token per match:
identifiers/keywords, decimal integer literals, and the punctuation of
the ODL grammar (including ``::`` for inverse traversal paths).  Blanks,
``//`` line comments and ``/* */`` block comments are skipped as the
leading part of the same match.  The pattern ends in an empty
alternative, so every match is either a token or the offset where
scanning stops (a bad character, an unterminated ``/*``, the end of the
text), and ``finditer`` drives the cursor: no Python code runs per
character.  Identifier values are interned, so every name a parse
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

#: Skipped text (blanks and comments), then exactly one alternative.  The
#: groups are named after the token types, so ``lastgroup`` is the type.
#: The empty ``STOP`` alternative always matches, at a bad character, an
#: unterminated ``/*`` (which is not skipped) or the end of the text.
_SCAN = re.compile(
    r"(?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/)*"
    r"(?:"
    rf"(?P<{IDENT}>[A-Za-z_]\w*)"
    rf"|(?P<{PUNCT}>{'|'.join(map(re.escape, _PUNCTUATION))})"
    rf"|(?P<{NUMBER}>\d+)"
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

    def __init__(self, text: str) -> None:
        self._text = text
        self._next = _SCAN.finditer(text).__next__
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
        raise it again: ``finditer`` has already moved past the bad
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
