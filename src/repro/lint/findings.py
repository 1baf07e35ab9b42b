"""Finding model, baseline/suppression file, and report rendering.

A :class:`Finding` carries a stable rule id, a severity, a ``file:line``
anchor, and a *symbol* -- the qualified name the finding is about
(``repro.model.interface:InterfaceDef.add_attribute``).  The baseline
matches on ``rule`` + ``symbol`` rather than line numbers, so unrelated
edits do not churn it, and every entry must carry a one-line
justification (``--`` separator); an entry without one is itself a
lint error.  Stale entries (nothing matches them any more) are reported
so the baseline shrinks over time instead of fossilising.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.loader import DEFAULT_SRC

SEVERITIES = ("error", "warning")

#: The checked-in baseline, in ``tools/`` beside the ``src/`` tree.
DEFAULT_BASELINE = DEFAULT_SRC.parent / "tools" / "lint_baseline.txt"


@dataclass(frozen=True)
class Finding:
    """One contract violation (or advisory) found by a pass."""

    rule: str  #: stable rule id, e.g. ``read-scope``
    path: str  #: file the finding anchors to
    line: int  #: 1-based line
    symbol: str  #: qualified name the finding is about
    message: str
    severity: str = "error"

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    @property
    def baseline_key(self) -> str:
        return f"{self.rule} {self.symbol}"

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}: {self.severity}[{self.rule}] "
            f"{self.symbol}: {self.message}"
        )

    def to_json(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "symbol": self.symbol,
            "message": self.message,
        }


@dataclass
class Baseline:
    """Checked-in grandfathered findings: ``<rule> <symbol> -- <why>``."""

    entries: dict[str, str] = field(default_factory=dict)  #: key -> justification
    errors: list[str] = field(default_factory=list)
    path: str | None = None

    @classmethod
    def load(cls, path: Path | None) -> "Baseline":
        baseline = cls(path=str(path) if path else None)
        if path is None or not path.exists():
            return baseline
        for lineno, raw in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "--" not in line:
                baseline.errors.append(
                    f"{path}:{lineno}: baseline entry lacks a '-- justification'; "
                    "every grandfathered finding must say why it is allowed"
                )
                continue
            key, justification = (part.strip() for part in line.split("--", 1))
            if len(key.split()) != 2:
                baseline.errors.append(
                    f"{path}:{lineno}: baseline key must be '<rule> <symbol>', "
                    f"got {key!r}"
                )
                continue
            if not justification:
                baseline.errors.append(
                    f"{path}:{lineno}: baseline justification is empty"
                )
                continue
            baseline.entries[key] = justification
        return baseline

    def split(
        self, findings: list[Finding]
    ) -> tuple[list[Finding], list[Finding], list[str]]:
        """Partition into (new, baselined) and list stale baseline keys."""
        new: list[Finding] = []
        baselined: list[Finding] = []
        matched: set[str] = set()
        for finding in findings:
            if finding.baseline_key in self.entries:
                matched.add(finding.baseline_key)
                baselined.append(finding)
            else:
                new.append(finding)
        stale = sorted(set(self.entries) - matched)
        return new, baselined, stale


def render_text(
    new: list[Finding],
    baselined: list[Finding],
    stale: list[str],
    pass_summaries: list[str],
    baseline_errors: list[str],
) -> str:
    lines: list[str] = []
    for message in baseline_errors:
        lines.append(f"baseline: {message}")
    for finding in new:
        lines.append(finding.render())
    for finding in baselined:
        lines.append(f"{finding.render()}  [baselined]")
    for key in stale:
        lines.append(
            f"baseline: stale entry {key!r} matches no current finding; "
            "remove it from the baseline file"
        )
    lines.extend(pass_summaries)
    errors = sum(1 for f in new if f.severity == "error")
    warnings = len(new) - errors
    lines.append(
        f"repro.lint: {errors} error(s), {warnings} warning(s), "
        f"{len(baselined)} baselined, {len(stale)} stale baseline entr(y/ies)"
    )
    return "\n".join(lines)


def render_json(
    new: list[Finding],
    baselined: list[Finding],
    stale: list[str],
    passes: list[dict[str, object]],
    baseline_errors: list[str],
) -> str:
    return json.dumps(
        {
            "findings": [f.to_json() for f in new],
            "baselined": [f.to_json() for f in baselined],
            "stale_baseline": stale,
            "baseline_errors": baseline_errors,
            "passes": passes,
            "summary": {
                "errors": sum(1 for f in new if f.severity == "error"),
                "warnings": sum(1 for f in new if f.severity == "warning"),
                "baselined": len(baselined),
            },
        },
        indent=2,
        sort_keys=True,
    )
