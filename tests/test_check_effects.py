"""Tests for the ``effects`` lint pass.

The pass traces the spine mutators reachable from each operation
class's ``apply`` and asserts ``touched_aspects`` covers them.  These
tests pin both directions: every registered class passes, and a
deliberately under-declared class is caught.
"""

import json
import subprocess
import sys
from pathlib import Path

from repro.lint.passes import effects as checker
from repro.model.mutation import Aspect
from repro.ops.attribute_ops import AddAttribute
from repro.ops.registry import OPERATION_CLASSES

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_every_registered_class_declares_its_mutators():
    failures = {
        klass.__name__: missing
        for klass in OPERATION_CLASSES
        if (missing := checker.check_operation_class(klass))
    }
    assert failures == {}


def test_checker_reaches_mutators_for_each_class():
    """The tracer must actually find mutators (not silently see none)."""
    traced = sum(
        1 for klass in OPERATION_CLASSES
        if checker.reachable_mutators(klass)
    )
    # Every Appendix A op mutates the schema somehow; if the tracer
    # found mutators for only a handful, it is broken, not the ops.
    assert traced == len(OPERATION_CLASSES)


class _UnderDeclared(AddAttribute):
    """Same apply as AddAttribute, but claims it touches nothing."""

    touched_aspects = frozenset()


def test_under_declared_class_is_caught():
    missing = checker.check_operation_class(_UnderDeclared)
    assert missing
    assert any(
        "add_attribute" in message and str(Aspect.ATTRS.value) in message
        for message in missing
    )


def test_cli_passes_on_current_tree():
    result = subprocess.run(
        [sys.executable, "-m", "repro.lint", "--pass", "effects", "--json"],
        capture_output=True, text=True, cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0, result.stdout + result.stderr
    report = json.loads(result.stdout)
    assert [entry["id"] for entry in report["passes"]] == ["effects"]
    assert report["findings"] == []
