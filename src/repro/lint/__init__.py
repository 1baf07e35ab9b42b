"""repro.lint: the unified contract-lint framework.

Every fast path in this engine is sound only because of a *declared
contract*: mutators emit spine records and open with the CoW barrier,
operation classes declare the aspects their ``apply`` touches,
validation rules read only their declared ``RULE_SCOPES`` scopes, and
the reference specifications (``scan_*``, ``validate_schema``,
``Schema.copy``) stay independent of the caches they verify.  This
package turns those contracts into statically checked, reified
artifacts (DESIGN.md §5k):

* :mod:`repro.lint.loader` -- one AST load of the codebase
  (:class:`~repro.lint.loader.Codebase`), shared by every pass;
* :mod:`repro.lint.callgraph` -- the transitive call-graph resolver
  (same-class methods over the MRO, module-level helpers, nested
  closures);
* :mod:`repro.lint.findings` -- the finding model (stable rule ids,
  ``file:line`` anchors) and the checked-in baseline/suppression file;
* :mod:`repro.lint.registry` -- pass registration and the single-run
  driver behind ``python -m repro.lint``;
* :mod:`repro.lint.passes` -- the six contract passes (spine emission /
  CoW barrier, effect declarations, read-scope
  soundness, reference-spec independence, instance-impact honesty,
  silent-mutation detection).

Run ``python -m repro.lint`` (or ``make lint``) to execute every pass
in one invocation; ``--json`` emits the machine-readable report CI
archives.  New violations fail the run; grandfathered ones live in
``tools/lint_baseline.txt`` with a one-line justification each.
"""

from repro.lint.findings import Baseline, Finding, render_json, render_text
from repro.lint.loader import Codebase
from repro.lint.registry import LintContext, all_passes, run_passes

__all__ = [
    "Baseline",
    "Codebase",
    "Finding",
    "LintContext",
    "all_passes",
    "render_json",
    "render_text",
    "run_passes",
]
