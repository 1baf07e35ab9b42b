"""Per-pass fixture tests for the four new contract-lint passes.

Each pass gets minimal fixtures that trigger its finding, asserting the
stable rule id, the file, and the line -- plus the narrowing/exemption
behaviour that keeps the pass quiet on the shipped tree for the right
reasons rather than by accident.
"""

from pathlib import Path

from repro.lint.callgraph import CallGraph
from repro.lint.loader import Codebase
from repro.lint.passes.instance_impact import (
    POPULATION_NEUTRAL_MUTATORS,
    coverage_findings,
    neutrality_findings,
)
from repro.lint.passes.independence import independence_findings, spec_roots
from repro.lint.passes.read_scopes import check_rule_scopes
from repro.lint.passes.silent_writes import silent_write_findings
from repro.ops.attribute_ops import AddAttribute
from repro.ops.registry import OPERATION_CLASSES
from repro.ops.type_property_ops import AddExtentName

THIS_FILE = Path(__file__).name


# ----------------------------------------------------------------------
# read-scope soundness


READ_SCOPE_FIXTURE = '''
class Issue:
    def __init__(self, rule, severity, location, message):
        self.rule = rule


def tidy_issues(schema, interface):
    for supertype in interface.supertypes:
        yield Issue("tidy", "error", interface.name, "dangling supertype")
    for key in interface.keys:
        yield Issue("tidy", "error", interface.name, "bad key")
'''


def test_read_scope_violation_reports_rule_file_line():
    codebase = Codebase.from_sources({"fixture_validation": READ_SCOPE_FIXTURE})
    findings = check_rule_scopes(
        codebase,
        [("tidy", frozenset({"isa"}))],
        module_name="fixture_validation",
        universe=(),
    )
    assert len(findings) == 1
    finding = findings[0]
    assert finding.rule == "read-scope"
    assert finding.path == "<fixture_validation>"
    expected_line = READ_SCOPE_FIXTURE.splitlines().index(
        "    for key in interface.keys:"
    ) + 1
    assert finding.line == expected_line
    assert "keys" in finding.message


def test_read_scope_declared_aspects_pass():
    codebase = Codebase.from_sources({"fixture_validation": READ_SCOPE_FIXTURE})
    findings = check_rule_scopes(
        codebase,
        [("tidy", frozenset({"isa", "keys"}))],
        module_name="fixture_validation",
        universe=(),
    )
    assert findings == []


def test_read_scope_unanalyzable_rule_is_a_finding_not_a_skip():
    codebase = Codebase.from_sources({"fixture_validation": READ_SCOPE_FIXTURE})
    findings = check_rule_scopes(
        codebase,
        [("tidy", frozenset({"isa", "keys"})), ("ghost", frozenset({"isa"}))],
        module_name="fixture_validation",
        universe=(),
    )
    assert [f.rule for f in findings] == ["read-scope"]
    assert "ghost" in findings[0].message
    assert "cannot analyze" in findings[0].message


def test_read_scope_undeclared_issue_id_is_caught():
    codebase = Codebase.from_sources({"fixture_validation": READ_SCOPE_FIXTURE})
    findings = check_rule_scopes(
        codebase, [], module_name="fixture_validation", universe=()
    )
    assert len(findings) == 1
    assert "no RULE_SCOPES entry" in findings[0].message
    assert "'tidy'" in findings[0].message


KIND_GUARD_FIXTURE = '''
class Issue:
    def __init__(self, rule, severity, location, message):
        self.rule = rule


def linked_issues(schema, interface):
    for end in interface.relationships.values():
        if end.kind is RelationshipKind.ASSOCIATION:
            continue
        yield Issue("linked", "error", interface.name, "bad link")


def scan_issues(schema):
    for a, b in link_edges(schema, RelationshipKind.PART_OF):
        yield Issue("scan-linked", "error", a, "cyclic")


def link_edges(schema, kind):
    for interface in schema.interfaces.values():
        for end in interface.relationships.values():
            yield (interface.name, end.target_type)
'''


def test_kind_guard_narrows_relationship_reads():
    codebase = Codebase.from_sources({"fixture_validation": KIND_GUARD_FIXTURE})
    scopes = [
        ("linked", frozenset({"rel-part-of", "rel-instance-of"})),
        ("scan-linked", frozenset({"rel-part-of"})),
    ]
    findings = check_rule_scopes(
        codebase, scopes, module_name="fixture_validation", universe=()
    )
    # the guard excludes rel-association from linked_issues, and the
    # literal RelationshipKind.PART_OF argument pins link_edges' reads
    assert findings == []


def test_literal_kind_argument_does_not_overnarrow_other_rules():
    codebase = Codebase.from_sources({"fixture_validation": KIND_GUARD_FIXTURE})
    scopes = [
        ("linked", frozenset({"rel-part-of"})),  # missing rel-instance-of
        ("scan-linked", frozenset({"rel-part-of"})),
    ]
    findings = check_rule_scopes(
        codebase, scopes, module_name="fixture_validation", universe=()
    )
    assert len(findings) == 1
    assert findings[0].symbol.endswith("linked")
    assert "rel-instance-of" in findings[0].message


def test_real_rule_scopes_are_exhaustively_analyzed():
    """Every RULE_SCOPES rule must map to implementers on the real tree."""
    from repro.lint.passes.read_scopes import _runtime_scopes, rule_implementers

    codebase = Codebase.load()
    implementers = rule_implementers(codebase, "repro.model.validation")
    for rule, _aspects in _runtime_scopes():
        assert implementers.get(rule), f"rule {rule!r} has no implementer"


# ----------------------------------------------------------------------
# reference-spec independence


INDEPENDENCE_FIXTURE = {
    "repro.model.index": (
        "def scan_edges(schema):\n"
        "    return list(schema.interfaces)\n"
        "\n"
        "def scan_cheating(schema):\n"
        "    return schema._index.edges()\n"
    ),
}


def test_independence_fast_path_read_reports_rule_file_line():
    codebase = Codebase.from_sources(INDEPENDENCE_FIXTURE)
    graph = CallGraph(codebase)
    findings = independence_findings(graph, spec_roots(graph))
    assert len(findings) == 1
    finding = findings[0]
    assert finding.rule == "ref-independence"
    assert finding.path == "<repro.model.index>"
    assert finding.symbol == "repro.model.index:scan_cheating"
    assert finding.line == 5
    assert "_index" in finding.message


TRANSITIVE_INDEPENDENCE_FIXTURE = {
    "repro.model.index": (
        "def scan_edges(schema):\n"
        "    return _collect(schema)\n"
        "\n"
        "def _collect(schema):\n"
        "    return ColumnarAdjacency(schema).edges()\n"
    ),
}


def test_independence_flags_transitive_helper_and_class_reference():
    codebase = Codebase.from_sources(TRANSITIVE_INDEPENDENCE_FIXTURE)
    graph = CallGraph(codebase)
    findings = independence_findings(graph, spec_roots(graph))
    assert [f.symbol for f in findings] == ["repro.model.index:_collect"]
    assert "ColumnarAdjacency" in findings[0].message


def test_independence_clean_on_shipped_tree():
    codebase = Codebase.load()
    graph = CallGraph(codebase, method_universe=("Schema", "InterfaceDef"))
    roots = spec_roots(graph)
    assert roots, "spec roots must not be empty on the real tree"
    # The columnar store's spec is a scan_* root like the index's.
    assert "repro.model.index:scan_adjacency" in {
        f"{ref.module}:{ref.qualname}" for ref in roots
    }
    assert independence_findings(graph, roots) == []


# ----------------------------------------------------------------------
# instance-impact honesty


class _LyingNeutral(AddAttribute):
    """Reaches add_attribute but claims instance neutrality."""

    instance_neutral = True


class _HonestNeutral(AddExtentName):
    """Extent names carry no instances; neutrality is honest."""


def test_lying_instance_neutral_op_is_caught():
    findings = neutrality_findings([_LyingNeutral])
    assert len(findings) == 1
    finding = findings[0]
    assert finding.rule == "instance-impact"
    assert finding.path.endswith(THIS_FILE)
    assert finding.line > 0
    assert "add_attribute" in finding.message


def test_honest_instance_neutral_op_passes():
    assert neutrality_findings([_HonestNeutral]) == []


def test_registered_neutral_ops_reach_only_neutral_mutators():
    assert neutrality_findings() == []


def test_population_neutral_set_stays_out_of_content_mutators():
    content = {"add_attribute", "remove_supertype", "add_relationship",
               "remove_interface", "add_key"}
    assert not content & POPULATION_NEUTRAL_MUTATORS


class _Unregistered(AddAttribute):
    """Concrete (inherits a string op_name) but not in the registry."""


def test_unregistered_concrete_op_is_caught():
    findings = coverage_findings(
        registered=OPERATION_CLASSES, package_prefix=__name__
    )
    symbols = {f.symbol for f in findings}
    assert f"{__name__}:_Unregistered" in symbols
    for finding in findings:
        assert finding.rule == "instance-impact"
        assert "not in OPERATION_CLASSES" in finding.message


def test_registry_covers_every_shipped_concrete_op():
    assert coverage_findings() == []


# ----------------------------------------------------------------------
# silent-mutation detection


SILENT_WRITE_FIXTURE = '''
def rename_attr(interface, old, new):
    attribute = interface.attributes.pop(old)
    interface.attributes[new] = attribute


class InterfaceDef:
    def add_attribute(self, attribute):
        self.attributes[attribute.name] = attribute


class PlanRow:
    operations: list

    def __init__(self):
        self.operations = []

    def push(self, op):
        self.operations.append(op)
'''


def test_silent_write_reports_rule_file_line():
    codebase = Codebase.from_sources({"fixture_mod": SILENT_WRITE_FIXTURE})
    findings = silent_write_findings(codebase)
    assert len(findings) == 2  # the pop() and the subscript store
    lines = sorted(f.line for f in findings)
    source_lines = SILENT_WRITE_FIXTURE.splitlines()
    assert lines == [
        source_lines.index("    attribute = interface.attributes.pop(old)") + 1,
        source_lines.index("    interface.attributes[new] = attribute") + 1,
    ]
    for finding in findings:
        assert finding.rule == "silent-write"
        assert finding.path == "<fixture_mod>"
        assert finding.symbol == "fixture_mod:rename_attr"


def test_owning_class_and_own_field_writes_are_exempt():
    codebase = Codebase.from_sources({"fixture_mod": SILENT_WRITE_FIXTURE})
    symbols = {f.symbol for f in silent_write_findings(codebase)}
    # InterfaceDef.add_attribute is the sanctioned site; PlanRow.push
    # appends to its own declared field
    assert symbols == {"fixture_mod:rename_attr"}


CONSTRUCTED_RECEIVER_FIXTURE = '''
class Report:
    attributes: list

    def __init__(self):
        self.attributes = []


def build(interface):
    report = Report()
    report.attributes.append("x")
    return report
'''


def test_constructor_typed_receiver_is_exempt():
    codebase = Codebase.from_sources({"fixture_mod": CONSTRUCTED_RECEIVER_FIXTURE})
    assert silent_write_findings(codebase) == []


def test_silent_writes_on_shipped_tree_are_all_baselined():
    from repro.lint.findings import DEFAULT_BASELINE, Baseline

    codebase = Codebase.load()
    findings = silent_write_findings(codebase)
    baseline = Baseline.load(DEFAULT_BASELINE)
    new, _baselined, _stale = baseline.split(findings)
    assert new == []
    assert baseline.errors == []


UNDO_CLOSURE_FIXTURE = '''
class RenameAttribute:
    def apply(self, schema, context):
        interface = schema.edit(self.typename)
        attribute = interface.attributes[self.old]
        interface.remove_attribute(self.old)
        interface.add_attribute(attribute.renamed(self.new))

        def undo():
            interface.remove_attribute(self.new)
            interface.attributes[self.old] = attribute

        return undo
'''


def test_silent_write_in_an_undo_closure_names_the_closure():
    codebase = Codebase.from_sources({"fixture_ops": UNDO_CLOSURE_FIXTURE})
    findings = silent_write_findings(codebase)
    assert len(findings) == 1
    (finding,) = findings
    assert finding.rule == "silent-write"
    assert finding.symbol == "fixture_ops:RenameAttribute.apply.<locals>.undo"
    assert finding.line == UNDO_CLOSURE_FIXTURE.splitlines().index(
        "            interface.attributes[self.old] = attribute"
    ) + 1
