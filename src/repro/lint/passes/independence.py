"""Reference-spec independence: slow paths never query fast paths.

Every differential invariant in this repo checks a fast path against a
slow reference specification: ``scan_*`` full scans vs
:class:`SchemaIndex` and its ``ColumnarAdjacency`` store,
``validate_schema`` vs :class:`ValidationCache`, ``Schema.copy``
(eager) vs ``Schema.fork`` (CoW).  Those invariants are evidence only
while the reference side is *independent*: a spec that transitively
answers from the cache it is supposed to verify would agree with it by
construction, and the whole verification tower becomes circular.

This pass takes the transitive call closure of every spec root and
flags, anywhere in it:

* attribute **loads** of ``index`` / ``_index`` / ``validation`` /
  ``_validation`` (the cache access channels on ``Schema``), and
* name **loads** of ``SchemaIndex`` / ``ValidationCache`` /
  ``ColumnarAdjacency`` (direct fast-path references).

Class instantiations are not descended: ``Schema(...)`` *constructing*
its caches in ``__post_init__`` is wiring, not querying -- the contract
bans the spec from reading answers out of a cache, not from building an
object that happens to own one.
"""

from __future__ import annotations

import ast

from repro.lint.callgraph import CallGraph, FuncRef
from repro.lint.findings import Finding
from repro.lint.registry import LintContext, register_pass

#: attribute loads that reach a cache from a Schema
FAST_PATH_ATTRS = frozenset({"index", "_index", "validation", "_validation"})

#: direct references to fast-path classes
FAST_PATH_CLASSES = frozenset(
    {"SchemaIndex", "ValidationCache", "ColumnarAdjacency"}
)

#: the spec roots: (module, class | None, function-name predicate)
INDEX_MODULE = "repro.model.index"
VALIDATION_MODULE = "repro.model.validation"
SCHEMA_MODULE = "repro.model.schema"


def spec_roots(graph: CallGraph) -> list[FuncRef]:
    """Every reference-spec entry point the contract names."""
    roots: list[FuncRef] = []
    codebase = graph.codebase
    index_info = codebase.module(INDEX_MODULE)
    if index_info is not None:
        for name in sorted(index_info.functions):
            if name.startswith("scan_"):
                ref = graph.function(INDEX_MODULE, name)
                if ref is not None:
                    roots.append(ref)
    validation_info = codebase.module(VALIDATION_MODULE)
    if validation_info is not None:
        for name in sorted(validation_info.functions):
            ref = graph.function(VALIDATION_MODULE, name)
            if ref is not None:
                roots.append(ref)
    copy_ref = graph.method(SCHEMA_MODULE, "Schema", "copy")
    if copy_ref is not None:
        roots.append(copy_ref)
    return roots


def independence_findings(
    graph: CallGraph, roots: list[FuncRef]
) -> list[Finding]:
    """Fast-path touches anywhere in the closure of *roots*."""
    findings: list[Finding] = []
    closure = graph.closure(roots)
    root_keys = {ref.key for ref in roots}
    reported: set[tuple[str, str, str]] = set()
    for key in sorted(closure):
        ref = closure[key]
        info = graph.codebase.module(ref.module)
        path = info.path if info is not None else ref.module
        in_spec = "spec root" if ref.key in root_keys else "reachable from a spec root"
        # method-call heads are not cache reads: ``stack.index(x)`` is a
        # list method, not an access of the ``Schema.index`` property
        call_heads = {
            id(child.func)
            for child in ast.walk(ref.node)
            if isinstance(child, ast.Call)
        }
        for node in ast.walk(ref.node):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and id(node) not in call_heads
                and node.attr in FAST_PATH_ATTRS
            ):
                anchor = (ref.module, ref.qualname, node.attr)
                if anchor in reported:
                    continue
                reported.add(anchor)
                findings.append(
                    Finding(
                        rule="ref-independence",
                        path=path,
                        line=node.lineno,
                        symbol=f"{ref.module}:{ref.qualname}",
                        message=(
                            f"({in_spec}) reads .{node.attr}, answering from "
                            "a cache the reference specification is supposed "
                            "to verify; the differential invariant becomes "
                            "circular"
                        ),
                    )
                )
            elif (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and node.id in FAST_PATH_CLASSES
            ):
                anchor = (ref.module, ref.qualname, node.id)
                if anchor in reported:
                    continue
                reported.add(anchor)
                findings.append(
                    Finding(
                        rule="ref-independence",
                        path=path,
                        line=node.lineno,
                        symbol=f"{ref.module}:{ref.qualname}",
                        message=(
                            f"({in_spec}) references fast-path class "
                            f"{node.id}; reference specifications must stay "
                            "independent of the caches they verify"
                        ),
                    )
                )
    return findings


@register_pass(
    "independence",
    rules=("ref-independence",),
    contract=(
        "scan_*, validate_schema, and Schema.copy never transitively "
        "query SchemaIndex / ValidationCache / ColumnarAdjacency "
        "(differential invariants stay non-circular)"
    ),
)
def run(context: LintContext) -> list[Finding]:
    graph = CallGraph(
        context.codebase,
        method_universe=("Schema", "InterfaceDef"),
    )
    roots = spec_roots(graph)
    findings = independence_findings(graph, roots)
    if not roots:
        findings.append(
            Finding(
                rule="ref-independence",
                path=str(context.src_root),
                line=1,
                symbol="repro.lint.passes.independence",
                message="no reference-spec roots found; the pass is vacuous",
            )
        )
    return findings
