"""Recursive-descent parser for the extended ODL.

The dialect follows ODMG-93 ODL with the two grammar extensions the paper
introduces (Section 3.1): ``part_of relationship`` and ``instance_of
relationship`` declarations.  Extent and key declarations are written as
body members (``extent name;`` / ``keys (a), (b, c);``) rather than in the
ODMG interface header -- one notation, documented here, kept simple.

Grammar (EBNF)::

    schema          = { interface_def } ;
    interface_def   = "interface" IDENT [ ":" ident_list ]
                      "{" { member } "}" [ ";" ] ;
    member          = extent_decl | keys_decl | attribute_decl
                    | relationship_decl | operation_decl ;
    extent_decl     = "extent" IDENT ";" ;
    keys_decl       = ( "key" | "keys" ) key_spec { "," key_spec } ";" ;
    key_spec        = IDENT | "(" ident_list ")" ;
    attribute_decl  = "attribute" type IDENT ";" ;
    relationship_decl = [ "part_of" | "instance_of" ] "relationship"
                      type IDENT "inverse" IDENT "::" IDENT
                      [ "order_by" "(" ident_list ")" ] ";" ;
    operation_decl  = type IDENT "(" [ param { "," param } ] ")"
                      [ "raises" "(" ident_list ")" ] ";" ;
    param           = ( "in" | "out" | "inout" ) type IDENT ;
    type            = collection | sized_scalar | IDENT ;
    collection      = ( "set" | "list" | "bag" | "array" )
                      "<" type [ "," NUMBER ] ">" ;
    sized_scalar    = SCALAR_NAME [ "(" NUMBER ")" ] ;
"""

from __future__ import annotations

from functools import lru_cache

from repro.model.attributes import Attribute
from repro.model.interface import InterfaceDef
from repro.model.operations import Operation, Parameter
from repro.model.relationships import RelationshipEnd, RelationshipKind
from repro.model.schema import Schema
from repro.model.types import (
    COLLECTION_KINDS,
    SCALAR_TYPE_NAMES,
    CollectionType,
    NamedType,
    ScalarType,
    TypeRef,
)
from repro.odl.lexer import IDENT, OdlSyntaxError, TokenStream

_RELATIONSHIP_KEYWORDS = {
    "part_of": RelationshipKind.PART_OF,
    "instance_of": RelationshipKind.INSTANCE_OF,
}

#: Deepest collection nesting a type may have (``set<list<...>>``).  The
#: type grammar is parsed recursively; the bound turns hostile input into
#: an :class:`OdlSyntaxError` well below the interpreter's recursion limit.
MAX_TYPE_NESTING = 64


def parse_schema(text: str, name: str = "schema") -> Schema:
    """Parse extended-ODL *text* into a :class:`~repro.model.Schema`.

    Interfaces may reference each other in any order; resolution is by
    name, and structural problems (dangling names, missing inverses) are
    the business of :func:`repro.model.validation.validate_schema`, not
    the parser.
    """
    stream = TokenStream(text)
    wrapped = False
    if stream.at_ident("module"):
        # ODMG module wrapper: ``module Name { ... };``.  The module
        # name becomes the schema name.
        stream.advance()
        name = stream.expect_ident().value
        stream.expect_punct("{")
        wrapped = True
    schema = Schema(name)
    while stream.at_ident("interface"):
        schema.add_interface(_parse_interface(stream))
    if wrapped:
        stream.expect_punct("}")
        stream.accept_punct(";")
    stream.expect_end()
    return schema


def parse_interface(text: str) -> InterfaceDef:
    """Parse a single interface definition."""
    stream = TokenStream(text)
    interface = _parse_interface(stream)
    stream.expect_end()
    return interface


def parse_type(text: str) -> TypeRef:
    """Parse a type written in extended-ODL syntax, e.g. ``set<string(30)>``."""
    stream = TokenStream(text)
    type_ref = _parse_type(stream)
    stream.expect_end()
    return type_ref


def _parse_interface(stream: TokenStream) -> InterfaceDef:
    stream.expect_ident("interface")
    name = stream.expect_ident().value
    supertypes: list[str] = []
    if stream.accept_punct(":"):
        supertypes.append(stream.expect_ident().value)
        while stream.accept_punct(","):
            supertypes.append(stream.expect_ident().value)
    interface = InterfaceDef(name, supertypes=supertypes)
    stream.expect_punct("{")
    while not stream.at_punct("}"):
        _parse_member(stream, interface)
    stream.expect_punct("}")
    stream.accept_punct(";")
    return interface


def _parse_member(stream: TokenStream, interface: InterfaceDef) -> None:
    if stream.at_ident("extent"):
        stream.advance()
        extent = stream.expect_ident().value
        stream.expect_punct(";")
        interface.set_extent(extent)
        return
    if stream.at_ident("key") or stream.at_ident("keys"):
        stream.advance()
        interface.add_key(_parse_key_spec(stream))
        while stream.accept_punct(","):
            interface.add_key(_parse_key_spec(stream))
        stream.expect_punct(";")
        return
    if stream.at_ident("attribute"):
        stream.advance()
        attr_type = _parse_type(stream)
        attr_name = stream.expect_ident().value
        stream.expect_punct(";")
        interface.add_attribute(Attribute(attr_name, attr_type))
        return
    if (
        stream.at_ident("relationship")
        or stream.current.value in _RELATIONSHIP_KEYWORDS
    ):
        interface.add_relationship(_parse_relationship(stream))
        return
    # Anything else must be an operation declaration: type name ( ... ) ;
    interface.add_operation(_parse_operation(stream))


def _parse_key_spec(stream: TokenStream) -> tuple[str, ...]:
    if stream.accept_punct("("):
        names = [stream.expect_ident().value]
        while stream.accept_punct(","):
            names.append(stream.expect_ident().value)
        stream.expect_punct(")")
        return tuple(names)
    return (stream.expect_ident().value,)


def _parse_relationship(stream: TokenStream) -> RelationshipEnd:
    kind = RelationshipKind.ASSOCIATION
    if stream.current.type == IDENT and stream.current.value in _RELATIONSHIP_KEYWORDS:
        kind = _RELATIONSHIP_KEYWORDS[stream.advance().value]
    stream.expect_ident("relationship")
    target = _parse_type(stream)
    path_name = stream.expect_ident().value
    stream.expect_ident("inverse")
    inverse_type = stream.expect_ident().value
    stream.expect_punct("::")
    inverse_name = stream.expect_ident().value
    order_by: tuple[str, ...] = ()
    if stream.accept_ident("order_by"):
        stream.expect_punct("(")
        names = [stream.expect_ident().value]
        while stream.accept_punct(","):
            names.append(stream.expect_ident().value)
        stream.expect_punct(")")
        order_by = tuple(names)
    stream.expect_punct(";")
    return RelationshipEnd(
        path_name, target, inverse_type, inverse_name, kind, order_by
    )


def _parse_operation(stream: TokenStream) -> Operation:
    return_type = _parse_type(stream)
    name = stream.expect_ident().value
    stream.expect_punct("(")
    parameters: list[Parameter] = []
    if not stream.at_punct(")"):
        parameters.append(_parse_parameter(stream))
        while stream.accept_punct(","):
            parameters.append(_parse_parameter(stream))
    stream.expect_punct(")")
    exceptions: tuple[str, ...] = ()
    if stream.accept_ident("raises"):
        stream.expect_punct("(")
        names = [stream.expect_ident().value]
        while stream.accept_punct(","):
            names.append(stream.expect_ident().value)
        stream.expect_punct(")")
        exceptions = tuple(names)
    stream.expect_punct(";")
    return Operation(name, return_type, tuple(parameters), exceptions)


def _parse_parameter(stream: TokenStream) -> Parameter:
    if stream.current.value not in ("in", "out", "inout"):
        raise stream.error(
            f"expected a parameter direction (in/out/inout), found {stream.current}"
        )
    direction = stream.advance().value
    param_type = _parse_type(stream)
    param_name = stream.expect_ident().value
    return Parameter(direction, param_type, param_name)


def parse_type_from(stream: TokenStream) -> TypeRef:
    """Parse one type at the stream cursor (shared with the op language)."""
    return _parse_type(stream)


def _parse_type(stream: TokenStream, depth: int = 0) -> TypeRef:
    token = stream.expect_ident()
    word = token.value
    if word in COLLECTION_KINDS:
        if depth == MAX_TYPE_NESTING:
            raise OdlSyntaxError(
                f"collection types nested deeper than {MAX_TYPE_NESTING} "
                f"levels",
                token.line, token.column,
            )
        stream.expect_punct("<")
        element = _parse_type(stream, depth + 1)
        size = None
        if stream.accept_punct(","):
            size = stream.expect_number()
        stream.expect_punct(">")
        return CollectionType(word, element, size)
    if word in SCALAR_TYPE_NAMES:
        size = None
        if stream.at_punct("("):
            stream.advance()
            size = stream.expect_number()
            stream.expect_punct(")")
        return _scalar_type(word, size)
    return NamedType(word)


@lru_cache(maxsize=256)
def _scalar_type(name: str, size: int | None) -> ScalarType:
    """One shared immutable :class:`ScalarType` per ``(name, size)``; the
    memo is bounded, and a bad size raises from ``ScalarType`` uncached."""
    return ScalarType(name, size)
