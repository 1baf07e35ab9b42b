"""Reference tokenizer for differential tests of :mod:`repro.odl.lexer`.

This is the original character-at-a-time loop the regex scanner
replaced, kept verbatim (apart from yielding plain tuples) as the oracle
for ``tests/test_odl_lexer.py``.  It is deliberately slow and simple:
every character advances the line/column counters one at a time.

Known divergence: a Unicode digit that is not a decimal digit (``²``,
``①``) satisfies ``str.isdigit`` and so starts a ``NUMBER`` here, while
the scanner only accepts decimal digits and reports it as an unexpected
character.
"""

from __future__ import annotations

from typing import Iterator

from repro.odl.lexer import END, IDENT, NUMBER, PUNCT, OdlSyntaxError

_PUNCTUATION = ("::", "{", "}", "(", ")", "<", ">", ",", ";", ":", "[", "]")


def reference_tokenize(text: str) -> Iterator[tuple[str, str, int, int]]:
    """Yield ``(type, value, line, column)`` tuples, ending with ``END``."""
    line = 1
    column = 1
    index = 0
    length = len(text)

    def advance(count: int) -> None:
        nonlocal index, line, column
        for _ in range(count):
            if index < length and text[index] == "\n":
                line += 1
                column = 1
            else:
                column += 1
            index += 1

    while index < length:
        char = text[index]
        if char in " \t\r\n":
            advance(1)
            continue
        if text.startswith("//", index):
            end = text.find("\n", index)
            advance((end if end != -1 else length) - index)
            continue
        if text.startswith("/*", index):
            end = text.find("*/", index + 2)
            if end == -1:
                raise OdlSyntaxError("unterminated block comment", line, column)
            advance(end + 2 - index)
            continue
        if char.isalpha() or char == "_":
            start = index
            start_line, start_column = line, column
            while index < length and (text[index].isalnum() or text[index] == "_"):
                advance(1)
            yield (IDENT, text[start:index], start_line, start_column)
            continue
        if char.isdigit():
            start = index
            start_line, start_column = line, column
            while index < length and text[index].isdigit():
                advance(1)
            yield (NUMBER, text[start:index], start_line, start_column)
            continue
        for punct in _PUNCTUATION:
            if text.startswith(punct, index):
                yield (PUNCT, punct, line, column)
                advance(len(punct))
                break
        else:
            raise OdlSyntaxError(f"unexpected character {char!r}", line, column)
    yield (END, "", line, column)
