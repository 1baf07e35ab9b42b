"""Reference schema parser for differential tests of :mod:`repro.odl.parser`.

This is the token-only ``parse_schema`` loop the declaration patterns
replaced: the module wrapper, then per interface the header, one
``_parse_member`` call per member and the closing brace, all through one
:class:`~repro.odl.lexer.TokenStream`.  ``_parse_member`` is the
parser's own token-level member parser, which stays in ``src/`` as the
fallback of the declaration path and the grammar's reference.  The
oracle of ``tests/test_odl_parser.py``: on any text the two parsers must
build the same schema or raise the same exception, at the same line and
column.
"""

from __future__ import annotations

from repro.model.interface import InterfaceDef
from repro.model.schema import Schema
from repro.odl.lexer import TokenStream
from repro.odl.parser import _parse_member


def reference_parse_schema(text: str, name: str = "schema") -> Schema:
    stream = TokenStream(text)
    wrapped = False
    if stream.at_ident("module"):
        stream.advance()
        name = stream.expect_ident()
        stream.expect_punct("{")
        wrapped = True
    schema = Schema(name)
    while stream.at_ident("interface"):
        schema.add_interface(_reference_parse_interface(stream))
    if wrapped:
        stream.expect_punct("}")
        stream.accept_punct(";")
    stream.expect_end()
    return schema


def reference_parse_interface(text: str) -> InterfaceDef:
    stream = TokenStream(text)
    interface = _reference_parse_interface(stream)
    stream.expect_end()
    return interface


def _reference_parse_interface(stream: TokenStream) -> InterfaceDef:
    stream.expect_ident("interface")
    name = stream.expect_ident()
    supertypes: list[str] = []
    if stream.accept_punct(":"):
        supertypes.append(stream.expect_ident())
        while stream.accept_punct(","):
            supertypes.append(stream.expect_ident())
    interface = InterfaceDef(name, supertypes=supertypes)
    stream.expect_punct("{")
    while not stream.at_punct("}"):
        _parse_member(stream, interface)
    stream.expect_punct("}")
    stream.accept_punct(";")
    return interface
