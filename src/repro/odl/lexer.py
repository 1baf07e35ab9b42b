"""Tokenizer for the extended ODL.

A single compiled regular expression, matched at the cursor, scans one
token per match: identifiers/keywords, decimal integer literals, and the
punctuation of the ODL grammar (including ``::`` for inverse traversal
paths).  Blanks, ``//`` line comments and ``/* */`` block comments are
skipped as the leading part of the same match.  Every token carries its
line and column for error reporting; the line counter advances only by
the newlines inside the skipped text, so no Python code runs per
character.  Identifier values are interned, so every name a parse
stores -- type, attribute, relationship path, inverse, extent,
parameter -- is one string object per distinct name.

:class:`TokenStream` pulls tokens lazily, so a lexical error surfaces
when the parser reaches it (with the same message and position the
scanner reports) and the full token list is never materialised.
"""

from __future__ import annotations

import re
from sys import intern
from typing import Iterator, NamedTuple

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

#: Skipped text (blanks and comments), then at most one token.  The token
#: groups are named after the token types, so ``lastgroup`` is the type.
#: An unterminated ``/*`` is not skipped and matches no token, which is
#: how :func:`tokenize` tells it apart from the end of the text.
_SCAN = re.compile(
    r"(?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/)*"
    r"(?:"
    rf"(?P<{IDENT}>[A-Za-z_]\w*)"
    rf"|(?P<{PUNCT}>{'|'.join(map(re.escape, _PUNCTUATION))})"
    rf"|(?P<{NUMBER}>\d+)"
    rf"|(?P<{_WORD}>[^\W\d]\w*)"
    r")?",
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


#: Builds a :class:`Token` from a 4-tuple without the Python-level
#: ``__new__`` a named tuple adds; the scanner builds one per token.
_make_token = tuple.__new__


def tokenize(text: str) -> Iterator[Token]:
    """Yield the tokens of *text*, ending with a single ``END`` token."""
    scan = _SCAN.match
    count = text.count
    position = 0
    line = 1
    line_start = 0  # index of the first character of ``line``
    while True:
        match = scan(text, position)
        kind = match.lastgroup
        start = match.start(kind) if kind else match.end()
        if start != position:
            newlines = count("\n", position, start)
            if newlines:
                line += newlines
                line_start = text.rfind("\n", position, start) + 1
        if kind is None or kind == _WORD:
            column = start - line_start + 1
            if kind == _WORD and text[start].isalpha():
                kind = IDENT
            elif start == len(text):
                yield _make_token(Token, (END, "", line, column))
                return
            elif text.startswith("/*", start):
                raise OdlSyntaxError("unterminated block comment", line, column)
            else:
                raise OdlSyntaxError(
                    f"unexpected character {text[start]!r}", line, column
                )
        position = match.end()
        value = text[start:position]
        if kind == IDENT:
            value = intern(value)
        yield _make_token(Token, (kind, value, line, start - line_start + 1))


class TokenStream:
    """Cursor over the tokens of a text with the lookahead the parsers need.

    Tokens are pulled from :func:`tokenize` on demand; only the current
    token and whatever :meth:`peek` has looked at are held.  ``current``
    is a plain attribute, read on almost every parser step.
    """

    __slots__ = ("current", "_next", "_ahead")

    def __init__(self, text: str) -> None:
        self._next = tokenize(text).__next__
        #: Tokens after ``current`` already scanned by :meth:`peek`.
        self._ahead: list[Token] = []
        self.current: Token = self._next()

    def peek(self, offset: int = 1) -> Token:
        """Look ahead without consuming; clamps at the END token."""
        if offset < 0:
            raise ValueError("peek looks ahead only")
        if offset == 0:
            return self.current
        ahead = self._ahead
        while len(ahead) < offset:
            last = ahead[-1] if ahead else self.current
            if last.type == END:
                return last
            ahead.append(self._next())
        return ahead[offset - 1]

    def advance(self) -> Token:
        """Consume and return the current token."""
        token = self.current
        if token.type != END:
            ahead = self._ahead
            self.current = ahead.pop(0) if ahead else self._next()
        return token

    def at_punct(self, value: str) -> bool:
        current = self.current
        return current.type == PUNCT and current.value == value

    def at_ident(self, value: str | None = None) -> bool:
        current = self.current
        if current.type != IDENT:
            return False
        return value is None or current.value == value

    def expect_punct(self, value: str) -> Token:
        if not self.at_punct(value):
            raise self.error(f"expected {value!r}, found {self.current}")
        return self.advance()

    def expect_ident(self, value: str | None = None) -> Token:
        if not self.at_ident(value):
            expected = repr(value) if value else "an identifier"
            raise self.error(f"expected {expected}, found {self.current}")
        return self.advance()

    def expect_number(self) -> int:
        token = self.current
        if token.type != NUMBER:
            raise self.error(f"expected a number, found {token}")
        try:
            value = int(token.value)
        except ValueError:
            # Longer than the interpreter's int-conversion digit limit.
            raise self.error(
                f"number of {len(token.value)} digits is too long"
            ) from None
        self.advance()
        return value

    def accept_punct(self, value: str) -> bool:
        """Consume the punctuation if present, returning whether it was."""
        if self.at_punct(value):
            self.advance()
            return True
        return False

    def accept_ident(self, value: str) -> bool:
        """Consume the keyword identifier if present."""
        if self.at_ident(value):
            self.advance()
            return True
        return False

    def expect_end(self) -> None:
        if self.current.type != END:
            raise self.error(f"unexpected trailing input: {self.current}")

    def error(self, message: str) -> OdlSyntaxError:
        """Build a syntax error anchored at the current token."""
        return OdlSyntaxError(message, self.current.line, self.current.column)
