"""Standalone extended-ODL checker: parse, validate, report, suggest.

Usage::

    python -m repro.odl.check schema.odl [more.odl ...]

Exit status: 0 when every file parses and has no error-severity issues,
1 otherwise.  For each finding, the matching repair suggestions of the
knowledge component are listed.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.knowledge.suggestions import suggest_repairs
from repro.model.errors import SchemaError
from repro.model.validation import SEVERITY_ERROR
from repro.odl.lexer import OdlSyntaxError
from repro.odl.parser import parse_schema


def check_text(text: str, name: str) -> tuple[bool, list[str]]:
    """Check one ODL document; returns (ok, report lines)."""
    lines: list[str] = []
    try:
        schema = parse_schema(text, name=name)
    except (OdlSyntaxError, SchemaError) as exc:
        return False, [f"{name}: parse error: {exc}"]
    issues = schema.validation.validate()
    errors = [issue for issue in issues if issue.severity == SEVERITY_ERROR]
    warnings = [issue for issue in issues if issue.severity != SEVERITY_ERROR]
    stats = schema.stats()
    lines.append(
        f"{name}: {stats['interfaces']} interfaces, "
        f"{stats['attributes']} attributes, "
        f"{stats['relationship_ends']} relationship ends"
    )
    for issue in errors + warnings:
        lines.append(f"  {issue}")
    if errors:
        suggestions = suggest_repairs(schema)
        if suggestions:
            lines.append("  suggested repairs:")
            lines.extend(f"    {suggestion}" for suggestion in suggestions)
    if not errors and not warnings:
        lines.append("  ok")
    return not errors, lines


def main(argv: list[str] | None = None) -> int:
    """Command-line entry point."""
    args = sys.argv[1:] if argv is None else argv
    if not args:
        print("usage: python -m repro.odl.check <schema.odl> [...]")
        return 2
    all_ok = True
    for path_text in args:
        path = Path(path_text)
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            print(f"{path}: cannot read: {exc}")
            all_ok = False
            continue
        ok, lines = check_text(text, name=path.stem)
        all_ok &= ok
        print("\n".join(lines))
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
