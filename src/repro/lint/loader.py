"""One AST load of the codebase, shared by every lint pass.

:class:`Codebase` walks a package root once, parses every module with
the stdlib :mod:`ast`, and exposes a uniform view -- module trees,
top-level classes and functions, import aliases, and a static MRO
walk -- that the call-graph resolver and the passes build on.

Two constructors matter:

* :meth:`Codebase.load` parses a real package directory (by default the
  in-repo ``src/repro``); the CLI's ``--root`` flag points it at an
  alternate tree, which is how fixture tests seed violations.
* :meth:`Codebase.from_sources` builds a codebase from in-memory
  source snippets, for focused pass-level unit tests.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

#: default package root: the ``src`` directory two levels above this file
DEFAULT_SRC = Path(__file__).resolve().parents[2]
DEFAULT_PACKAGE = "repro"


@dataclass
class ModuleInfo:
    """A parsed module plus the symbol tables the passes query."""

    name: str
    path: str
    tree: ast.Module
    classes: dict[str, ast.ClassDef] = field(default_factory=dict)
    functions: dict[str, ast.FunctionDef] = field(default_factory=dict)
    #: local alias -> (source module, symbol | None for plain ``import m``)
    imports: dict[str, tuple[str, str | None]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for node in self.tree.body:
            if isinstance(node, ast.ClassDef):
                self.classes[node.name] = node
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if isinstance(node, ast.FunctionDef):
                    self.functions[node.name] = node
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    self.imports[local] = (alias.name, None)
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.imports[local] = (node.module, alias.name)


class Codebase:
    """Every module of one package, parsed once."""

    def __init__(self, modules: dict[str, ModuleInfo]) -> None:
        self.modules = modules

    @classmethod
    def load(
        cls,
        root: Path | None = None,
        package: str = DEFAULT_PACKAGE,
    ) -> "Codebase":
        """Parse ``root/package/**/*.py`` (default: the in-repo source)."""
        base = (root or DEFAULT_SRC) / package
        modules: dict[str, ModuleInfo] = {}
        for path in sorted(base.rglob("*.py")):
            relative = path.relative_to(base.parent)
            parts = list(relative.with_suffix("").parts)
            if parts[-1] == "__init__":
                parts.pop()
            name = ".".join(parts)
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            modules[name] = ModuleInfo(name=name, path=str(path), tree=tree)
        if not modules:
            raise FileNotFoundError(f"no modules under {base}")
        return cls(modules)

    @classmethod
    def from_sources(cls, sources: dict[str, str]) -> "Codebase":
        """Build a codebase from ``{module name: source text}`` snippets."""
        modules = {
            name: ModuleInfo(
                name=name,
                path=f"<{name}>",
                tree=ast.parse(text, filename=f"<{name}>"),
            )
            for name, text in sources.items()
        }
        return cls(modules)

    # ------------------------------------------------------------------
    # lookups

    def module(self, name: str) -> ModuleInfo | None:
        return self.modules.get(name)

    def find_class(self, class_name: str) -> list[tuple[ModuleInfo, ast.ClassDef]]:
        """Every definition of *class_name* across the codebase."""
        return [
            (info, info.classes[class_name])
            for info in self.modules.values()
            if class_name in info.classes
        ]

    def class_in(self, module_name: str, class_name: str) -> ast.ClassDef | None:
        info = self.modules.get(module_name)
        if info is None:
            return None
        return info.classes.get(class_name)

    # ------------------------------------------------------------------
    # static MRO

    def mro_methods(
        self, module_name: str, class_name: str
    ) -> dict[str, tuple[ModuleInfo, ast.FunctionDef]]:
        """Methods of a class, following base classes left-to-right.

        A statically linearised walk (depth-first over resolvable base
        names, earliest definition wins) -- not full C3, but faithful
        for the single-chain hierarchies this codebase uses.
        """
        collected: dict[str, tuple[ModuleInfo, ast.FunctionDef]] = {}
        seen: set[tuple[str, str]] = set()
        stack: list[tuple[str, str]] = [(module_name, class_name)]
        while stack:
            mod_name, cls_name = stack.pop(0)
            if (mod_name, cls_name) in seen:
                continue
            seen.add((mod_name, cls_name))
            info = self.modules.get(mod_name)
            if info is None:
                continue
            node = info.classes.get(cls_name)
            if node is None:
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name not in collected:
                    collected[item.name] = (info, item)
            for base in node.bases:
                resolved = self._resolve_base(info, base)
                if resolved is not None:
                    stack.append(resolved)
        return collected

    def _resolve_base(
        self, info: ModuleInfo, base: ast.expr
    ) -> tuple[str, str] | None:
        if isinstance(base, ast.Name):
            if base.id in info.classes:
                return (info.name, base.id)
            imported = info.imports.get(base.id)
            if imported is not None and imported[1] is not None:
                return (imported[0], imported[1])
        elif isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name):
            imported = info.imports.get(base.value.id)
            if imported is not None and imported[1] is None:
                return (imported[0], base.attr)
        return None

    # ------------------------------------------------------------------
    # display helpers

    def location(self, module_name: str, lineno: int) -> str:
        info = self.modules.get(module_name)
        path = info.path if info is not None else module_name
        return f"{path}:{lineno}"
