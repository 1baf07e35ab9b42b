"""Tests for the spine-emission / CoW-barrier checks.

The checks live in :mod:`repro.lint.passes.spine`; these tests drive
them over in-memory fixture snippets that must pass and must fail --
missing ``_emit`` and ``_cow_barrier`` not the first statement -- plus
``python -m repro.lint --pass spine`` on the real tree.
"""

import json
import subprocess
import sys
from pathlib import Path

from repro.lint.loader import Codebase
from repro.lint.passes.spine import cow_findings, emission_findings

REPO_ROOT = Path(__file__).resolve().parent.parent


GOOD_CLASS = '''
class Model:
    def add_thing(self, thing):
        self._cow_barrier()
        self.things.append(thing)
        self._emit("add_thing", (), {})

    def remove_thing(self, thing):
        self._cow_barrier()
        self._drop(thing)

    def _drop(self, thing):
        self.things.remove(thing)
        self._log.emit("remove_thing", (), {})

    def _cow_barrier(self):
        pass

    def lookup(self, name):
        return self.things[name]
'''

SILENT_CLASS = '''
class Model:
    def add_thing(self, thing):
        self._cow_barrier()
        self.things.append(thing)
        self._emit("add_thing", (), {})

    def set_label(self, label):
        self._cow_barrier()
        self.label = label  # no emit anywhere on this path

    def _cow_barrier(self):
        pass
'''

LATE_BARRIER_CLASS = '''
class Model:
    def add_thing(self, thing):
        self._cow_barrier()
        self._emit("add_thing", (), {})

    def set_label(self, label):
        """Docstring is allowed before the barrier, code is not."""
        self.label = label
        self._cow_barrier()
        self._emit("set_label", (), {})
'''

def _codebase(source: str) -> Codebase:
    return Codebase.from_sources({"fixture": source})


def test_emitting_mutators_pass():
    assert emission_findings(_codebase(GOOD_CLASS), "fixture", "Model") == []


def test_missing_emit_is_caught_with_anchor():
    findings = emission_findings(_codebase(SILENT_CLASS), "fixture", "Model")
    assert len(findings) == 1
    finding = findings[0]
    assert finding.rule == "spine-emission"
    assert finding.symbol == "fixture:Model.set_label"
    # line 8 of the snippet: the def of set_label
    assert finding.line == SILENT_CLASS.splitlines().index(
        "    def set_label(self, label):"
    ) + 1


def test_emit_through_private_helper_counts():
    """remove_thing emits only via self._drop -> self._log.emit."""
    findings = emission_findings(_codebase(GOOD_CLASS), "fixture", "Model")
    assert all(f.symbol != "fixture:Model.remove_thing" for f in findings)


def test_cow_barrier_first_statement_passes():
    assert cow_findings(_codebase(GOOD_CLASS), "fixture", "Model") == []


def test_cow_barrier_not_first_is_caught():
    findings = cow_findings(_codebase(LATE_BARRIER_CLASS), "fixture", "Model")
    assert [f.symbol for f in findings] == ["fixture:Model.set_label"]
    assert findings[0].rule == "cow-barrier"
    assert "first" in findings[0].message


def test_real_tree_is_clean():
    codebase = Codebase.load()
    assert emission_findings(codebase, "repro.model.interface", "InterfaceDef") == []
    assert emission_findings(codebase, "repro.model.schema", "Schema") == []
    assert cow_findings(codebase, "repro.model.interface", "InterfaceDef") == []


def test_spine_pass_cli_passes_on_current_tree():
    result = subprocess.run(
        [sys.executable, "-m", "repro.lint", "--pass", "spine", "--json"],
        capture_output=True, text=True, cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0, result.stdout + result.stderr
    report = json.loads(result.stdout)
    assert [entry["id"] for entry in report["passes"]] == ["spine"]
    assert report["findings"] == []
