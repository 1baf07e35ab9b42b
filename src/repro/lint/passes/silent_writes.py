"""Silent-mutation detection: model content changes only via mutators.

The mutation spine is the single source of change truth: caches,
fingerprints, dirty journals, and event-sourced history all subscribe
to it.  A direct write to a model content field from outside the owning
class (``interface.attributes["x"] = ...`` in some helper, or
``schema.interfaces.pop(name)`` in a service) mutates state with no
record on the spine -- every subscriber goes silently stale.  This is
the bug class the spine refactor exists to delete, so the pass bans the
syntax outright across all of ``src/repro/``.

Checked channels (see :func:`repro.lint.callgraph.attribute_writes`):
plain/augmented assignment, subscript store/delete, attribute delete,
and in-place container methods (``.append`` / ``.update`` / ...).
Every function body is checked with the defs nested in it, so an
operation's undo closure is held to the same rule as its ``apply``; a
write there is reported against the closure
(``Op.apply.<locals>.undo``).  That reach is what lets the mutator
records be the validation cache's only source of dirt.

A write is allowed only when it is lexically inside a method of the
class that owns the field -- ``InterfaceDef`` for the six content
fields, ``Schema`` for the ``interfaces`` membership dict -- because
that is where the emit-on-mutate contract is enforced by the spine
pass.  Same-named fields on *other* classes (a plan's ``operations``,
a population's ``attributes``) are exempt when written through ``self``
in a class whose own slots/fields declare the name; anything else needs
a baseline entry with a justification.
"""

from __future__ import annotations

import ast

from repro.lint.callgraph import attribute_writes
from repro.lint.findings import Finding
from repro.lint.loader import Codebase, ModuleInfo
from repro.lint.registry import LintContext, register_pass

#: owning class -> the slotted content fields only its mutators may write
MODEL_OWNERS: dict[str, frozenset[str]] = {
    "InterfaceDef": frozenset(
        {
            "supertypes",
            "extent",
            "keys",
            "attributes",
            "relationships",
            "operations",
        }
    ),
    "Schema": frozenset({"interfaces"}),
}

GUARDED_ATTRS = frozenset().union(*MODEL_OWNERS.values())


def _own_field_names(node: ast.ClassDef) -> set[str]:
    """Field names a class declares as its own state.

    Class-level annotated/plain assignments (dataclass fields, class
    vars) plus ``__slots__`` entries: a class that declares ``operations``
    itself may write ``self.operations`` without touching the model.
    """
    names: set[str] = set()
    for item in node.body:
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            names.add(item.target.id)
        elif isinstance(item, ast.Assign):
            for target in item.targets:
                if isinstance(target, ast.Name):
                    if target.id == "__slots__":
                        if isinstance(item.value, (ast.Tuple, ast.List, ast.Set)):
                            for element in item.value.elts:
                                if isinstance(element, ast.Constant) and isinstance(
                                    element.value, str
                                ):
                                    names.add(element.value)
                    else:
                        names.add(target.id)
    return names


def _functions_with_context(
    info: ModuleInfo,
) -> list[tuple[ast.ClassDef | None, ast.AST]]:
    """Top-level functions and class methods, with their owning class."""
    out: list[tuple[ast.ClassDef | None, ast.AST]] = []
    for node in info.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.append((None, node))
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    out.append((node, item))
    return out


def _class_name_of(codebase: Codebase, info: ModuleInfo, name: str) -> str | None:
    """*name* resolved to a class name (local or imported), else ``None``."""
    if name in info.classes:
        return name
    imported = info.imports.get(name)
    if imported is not None and imported[1] is not None:
        source = codebase.module(imported[0])
        if source is not None and imported[1] in source.classes:
            return imported[1]
        # even unparsed external classes are known not to be model owners
        if imported[1][:1].isupper():
            return imported[1]
    return None


def _local_receiver_types(
    codebase: Codebase, info: ModuleInfo, func: ast.AST
) -> dict[str, str]:
    """Variable -> class for ``x = ClassName(...)`` constructor locals.

    Enough typing to tell a fresh ``ErEntity`` (whose ``attributes`` is
    its own field) from an ``InterfaceDef``; anything the inference
    cannot see stays untyped and is judged by the strict rule.
    """
    types: dict[str, str] = {}
    for child in ast.walk(func):
        if (
            isinstance(child, ast.Assign)
            and len(child.targets) == 1
            and isinstance(child.targets[0], ast.Name)
            and isinstance(child.value, ast.Call)
            and isinstance(child.value.func, ast.Name)
        ):
            class_name = _class_name_of(codebase, info, child.value.func.id)
            if class_name is not None:
                types[child.targets[0].id] = class_name
    return types


def _closure_holders(func: ast.AST, holder: str) -> dict[int, str]:
    """``id(node)`` -> qualified name of the innermost def nested in
    *func* that holds the node (``apply.<locals>.undo``); nodes of
    *func*'s own body are absent, so a write in an undo closure is
    reported against the closure, not the method returning it."""
    holders: dict[int, str] = {}

    def visit(node: ast.AST, name: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{name}.<locals>.{child.name}"
                for descendant in ast.walk(child):
                    holders[id(descendant)] = inner  # deeper defs overwrite
                visit(child, inner)
            else:
                visit(child, name)

    visit(func, holder)
    return holders


def silent_write_findings(codebase: Codebase) -> list[Finding]:
    findings: list[Finding] = []
    for module_name in sorted(codebase.modules):
        info = codebase.modules[module_name]
        for class_node, func in _functions_with_context(info):
            class_name = class_node.name if class_node is not None else None
            own_fields = (
                _own_field_names(class_node) if class_node is not None else set()
            )
            receiver_types = _local_receiver_types(codebase, info, func)
            holder = f"{class_name}.{func.name}" if class_name else func.name
            closures = _closure_holders(func, holder)
            for stmt, receiver, attr, channel in attribute_writes(func):
                if attr not in GUARDED_ATTRS:
                    continue
                # the owning class's own methods are the sanctioned site
                if class_name is not None and attr in MODEL_OWNERS.get(
                    class_name, frozenset()
                ):
                    continue
                # self.<attr> in a class that declares the field itself is
                # that class's own state, not the model's
                if (
                    isinstance(receiver, ast.Name)
                    and receiver.id == "self"
                    and attr in own_fields
                ):
                    continue
                # a receiver constructed from a known non-model class is
                # that class's own state (ErEntity.attributes etc.)
                if (
                    isinstance(receiver, ast.Name)
                    and receiver.id in receiver_types
                    and receiver_types[receiver.id] not in MODEL_OWNERS
                ):
                    continue
                owners = sorted(
                    owner for owner, attrs in MODEL_OWNERS.items() if attr in attrs
                )
                findings.append(
                    Finding(
                        rule="silent-write",
                        path=info.path,
                        line=stmt.lineno,
                        symbol=f"{module_name}:{closures.get(id(stmt), holder)}",
                        message=(
                            f"writes .{attr} via {channel} outside "
                            f"{' / '.join(owners)}; model content must change "
                            "through the owning class's mutators so a "
                            "MutationRecord lands on the spine"
                        ),
                    )
                )
    return findings


@register_pass(
    "silent-writes",
    rules=("silent-write",),
    contract=(
        "no code outside InterfaceDef/Schema writes model content fields "
        "directly (every content change lands a record on the spine)"
    ),
)
def run(context: LintContext) -> list[Finding]:
    return silent_write_findings(context.codebase)
