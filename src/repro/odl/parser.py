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

:func:`parse_schema` and :func:`parse_interface` go a declaration at a
time: each interface header, member declaration and closing brace is
one match of a pattern from :mod:`repro.odl.lexer`, built from the
groups through the same constructors and ``add_*`` calls, in the same
order, as the token path.  Whatever no pattern matches (deeper
collection nesting, a non-ASCII identifier, malformed text), and a
match the token path would reject (a size on a non-scalar name), goes
to the token-level recursive descent from that offset: the reference
for the grammar and the only source of syntax errors, so a parse fails
with the same exception, at the same line and column, either way.
"""

from __future__ import annotations

import re
from functools import lru_cache
from sys import intern
from typing import Iterator

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
from repro.odl.lexer import (
    CLOSE,
    HEADER,
    IDENT,
    KEY_ITEM,
    MEMBER,
    NAME_ITEM,
    PARAMETER,
    TokenStream,
)

_RELATIONSHIP_KEYWORDS = {
    "part_of": RelationshipKind.PART_OF,
    "instance_of": RelationshipKind.INSTANCE_OF,
}

#: Whether an interface definition starts at a token's offset: the token
#: path's ``at_ident("interface")``.
_AT_INTERFACE = re.compile(r"interface(?!\w)").match

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
        name = stream.expect_ident()
        stream.expect_punct("{")
        wrapped = True
    schema = Schema(name)
    # Every offset the loops below pass on starts a token that scans.
    end = [stream.start]
    schema.add_interfaces(_interfaces_from(text, end))
    pos = end[0]
    if wrapped or pos < len(text):
        stream = TokenStream(text, pos)
        if wrapped:
            stream.expect_punct("}")
            stream.accept_punct(";")
        stream.expect_end()
    return schema


def _interfaces_from(text: str, end: list[int]) -> Iterator[InterfaceDef]:
    """The interface definitions from offset ``end[0]`` on, parsed one
    at a time; ``end[0]`` is left at the offset after the last one.

    Lazy, so the bulk add draining it rejects a duplicate name at the
    duplicate's position, before any later definition is parsed.
    """
    pos = end[0]
    while _AT_INTERFACE(text, pos):
        interface, pos = _parse_interface(text, pos)
        end[0] = pos
        yield interface


def parse_interface(text: str) -> InterfaceDef:
    """Parse a single interface definition."""
    interface, pos = _parse_interface(text, TokenStream(text).start)
    if pos < len(text):
        TokenStream(text, pos).expect_end()
    return interface


def parse_type(text: str) -> TypeRef:
    """Parse a type written in extended-ODL syntax, e.g. ``set<string(30)>``."""
    stream = TokenStream(text)
    type_ref = _parse_type(stream)
    stream.expect_end()
    return type_ref


def _parse_interface(text: str, pos: int) -> tuple[InterfaceDef, int]:
    """Parse the interface definition starting at offset *pos*; return it
    and the offset of the token after it."""
    header = HEADER.match(text, pos)
    if header is None:
        stream = TokenStream(text, pos)
        interface = _parse_header(stream)
        pos = stream.start
    else:
        supertypes = header["supertypes"]
        interface = InterfaceDef(
            header["interface_name"],
            supertypes=[] if supertypes is None else _names(supertypes),
        )
        pos = header.end()
    match_member = MEMBER.match
    while True:
        member = match_member(text, pos)
        if member is not None and _BUILDERS[member.lastgroup](
            member, interface
        ):
            pos = member.end()
            continue
        close = CLOSE.match(text, pos)
        if close is not None:
            return interface, close.end()
        # No pattern matched, or the builder left the declaration: the
        # token path parses it (or the closing brace) from here.
        stream = TokenStream(text, pos)
        if stream.at_punct("}"):
            stream.advance()
            stream.accept_punct(";")
            return interface, stream.start
        _parse_member(stream, interface)
        pos = stream.start


def _parse_header(stream: TokenStream) -> InterfaceDef:
    stream.expect_ident("interface")
    name = stream.expect_ident()
    supertypes: list[str] = []
    if stream.accept_punct(":"):
        supertypes.append(stream.expect_ident())
        while stream.accept_punct(","):
            supertypes.append(stream.expect_ident())
    interface = InterfaceDef(name, supertypes=supertypes)
    stream.expect_punct("{")
    return interface


# ----------------------------------------------------------------------
# Declaration builders
#
# Each builds one matched member declaration into *interface* and returns
# True, or returns False before any ``add_*`` call to leave the
# declaration to ``_parse_member``.  They construct in the token path's
# order, so a model error is the one the token path raises first.
# ----------------------------------------------------------------------


def _names(text: str) -> tuple[str, ...]:
    """The interned names of a matched ``ident_list``."""
    return tuple(map(intern, NAME_ITEM.findall(text)))


def _matched_type(
    word: str,
    element: str | None,
    element_size: str | None,
    bound: str | None,
    size: str | None,
) -> TypeRef | None:
    """The type of the groups of a matched type (an absent group is
    ``None`` or empty), or ``None`` where the token path raises a syntax
    error."""
    if element:
        if word not in COLLECTION_KINDS:
            return None
        element_type = _matched_type(element, None, None, None, element_size)
        if element_type is None:
            return None
        return CollectionType(
            intern(word), element_type, int(bound) if bound else None
        )
    if word in SCALAR_TYPE_NAMES:
        return _scalar_type(intern(word), int(size) if size else None)
    if size or word in COLLECTION_KINDS:
        return None
    return NamedType(intern(word))


def _type_groups(name: str) -> tuple[str, ...]:
    """The group names of the type pattern named *name*, in
    :func:`_matched_type`'s argument order."""
    suffixes = ("", "_element", "_element_size", "_bound", "_size")
    return tuple(name + suffix for suffix in suffixes)


_ATTRIBUTE_TYPE = _type_groups("attribute_type")
_TARGET = _type_groups("target")
_RETURNS = _type_groups("returns")
_RELATIONSHIP_KINDS = {
    None: RelationshipKind.ASSOCIATION, **_RELATIONSHIP_KEYWORDS
}


def _build_extent(match: re.Match, interface: InterfaceDef) -> bool:
    interface.set_extent(intern(match["extent_name"]))
    return True


def _build_keys(match: re.Match, interface: InterfaceDef) -> bool:
    for names, name in KEY_ITEM.findall(match["key_specs"]):
        interface.add_key(_names(names) if names else (intern(name),))
    return True


def _build_attribute(match: re.Match, interface: InterfaceDef) -> bool:
    attr_type = _matched_type(*match.group(*_ATTRIBUTE_TYPE))
    if attr_type is None:
        return False
    interface.add_attribute(
        Attribute(intern(match["attribute_name"]), attr_type)
    )
    return True


def _build_relationship(match: re.Match, interface: InterfaceDef) -> bool:
    target = _matched_type(*match.group(*_TARGET))
    if target is None:
        return False
    order_by = match["order_by"]
    interface.add_relationship(
        RelationshipEnd(
            intern(match["path"]),
            target,
            intern(match["inverse_type"]),
            intern(match["inverse_path"]),
            _RELATIONSHIP_KINDS[match["relationship_kind"]],
            () if order_by is None else _names(order_by),
        )
    )
    return True


def _build_operation(match: re.Match, interface: InterfaceDef) -> bool:
    return_type = _matched_type(*match.group(*_RETURNS))
    if return_type is None:
        return False
    parameters: list[Parameter] = []
    text = match["parameters"]
    if text is not None:
        for direction, *type_groups, name in PARAMETER.findall(text):
            param_type = _matched_type(*type_groups)
            if param_type is None:
                return False
            parameters.append(
                Parameter(intern(direction), param_type, intern(name))
            )
    raises = match["raises"]
    interface.add_operation(
        Operation(
            intern(match["operation_name"]),
            return_type,
            tuple(parameters),
            () if raises is None else _names(raises),
        )
    )
    return True


_BUILDERS = {
    "extent": _build_extent,
    "keys": _build_keys,
    "attribute": _build_attribute,
    "relationship": _build_relationship,
    "operation": _build_operation,
}


# ----------------------------------------------------------------------
# Token-level recursive descent: the grammar's reference, the fallback of
# the declaration path and the only source of syntax errors
# ----------------------------------------------------------------------


def _parse_member(stream: TokenStream, interface: InterfaceDef) -> None:
    word = stream.value if stream.kind == IDENT else None
    if word == "extent":
        stream.advance()
        extent = stream.expect_ident()
        stream.expect_punct(";")
        interface.set_extent(extent)
        return
    if word == "key" or word == "keys":
        stream.advance()
        interface.add_key(_parse_key_spec(stream))
        while stream.accept_punct(","):
            interface.add_key(_parse_key_spec(stream))
        stream.expect_punct(";")
        return
    if word == "attribute":
        stream.advance()
        attr_type = _parse_type(stream)
        attr_name = stream.expect_ident()
        stream.expect_punct(";")
        interface.add_attribute(Attribute(attr_name, attr_type))
        return
    if word == "relationship" or word in _RELATIONSHIP_KEYWORDS:
        interface.add_relationship(_parse_relationship(stream))
        return
    # Anything else must be an operation declaration: type name ( ... ) ;
    interface.add_operation(_parse_operation(stream))


def _parse_key_spec(stream: TokenStream) -> tuple[str, ...]:
    if stream.accept_punct("("):
        names = [stream.expect_ident()]
        while stream.accept_punct(","):
            names.append(stream.expect_ident())
        stream.expect_punct(")")
        return tuple(names)
    return (stream.expect_ident(),)


def _parse_relationship(stream: TokenStream) -> RelationshipEnd:
    kind = RelationshipKind.ASSOCIATION
    if stream.kind == IDENT and stream.value in _RELATIONSHIP_KEYWORDS:
        kind = _RELATIONSHIP_KEYWORDS[stream.advance()]
    stream.expect_ident("relationship")
    target = _parse_type(stream)
    path_name = stream.expect_ident()
    stream.expect_ident("inverse")
    inverse_type = stream.expect_ident()
    stream.expect_punct("::")
    inverse_name = stream.expect_ident()
    order_by: tuple[str, ...] = ()
    if stream.accept_ident("order_by"):
        stream.expect_punct("(")
        names = [stream.expect_ident()]
        while stream.accept_punct(","):
            names.append(stream.expect_ident())
        stream.expect_punct(")")
        order_by = tuple(names)
    stream.expect_punct(";")
    return RelationshipEnd(
        path_name, target, inverse_type, inverse_name, kind, order_by
    )


def _parse_operation(stream: TokenStream) -> Operation:
    return_type = _parse_type(stream)
    name = stream.expect_ident()
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
        names = [stream.expect_ident()]
        while stream.accept_punct(","):
            names.append(stream.expect_ident())
        stream.expect_punct(")")
        exceptions = tuple(names)
    stream.expect_punct(";")
    return Operation(name, return_type, tuple(parameters), exceptions)


def _parse_parameter(stream: TokenStream) -> Parameter:
    if stream.value not in ("in", "out", "inout"):
        raise stream.error(
            f"expected a parameter direction (in/out/inout), found {stream.current}"
        )
    direction = stream.advance()
    param_type = _parse_type(stream)
    param_name = stream.expect_ident()
    return Parameter(direction, param_type, param_name)


def parse_type_from(stream: TokenStream) -> TypeRef:
    """Parse one type at the stream cursor (shared with the op language)."""
    return _parse_type(stream)


def _parse_type(stream: TokenStream, depth: int = 0) -> TypeRef:
    start = stream.start
    word = stream.expect_ident()
    if word in COLLECTION_KINDS:
        if depth == MAX_TYPE_NESTING:
            raise stream.error(
                f"collection types nested deeper than {MAX_TYPE_NESTING} "
                f"levels",
                start,
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
        if stream.accept_punct("("):
            size = stream.expect_number()
            stream.expect_punct(")")
        return _scalar_type(word, size)
    return NamedType(word)


@lru_cache(maxsize=256)
def _scalar_type(name: str, size: int | None) -> ScalarType:
    """One shared immutable :class:`ScalarType` per ``(name, size)``; the
    memo is bounded, and a bad size raises from ``ScalarType`` uncached."""
    return ScalarType(name, size)
