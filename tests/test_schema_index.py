"""The graph store behind ``Schema.index``: its queries and their
invalidation contract.

Three layers of coverage:

* unit tests that the store's queries equal the full-scan reference
  implementations (``repro.model.index.scan_*``) and that the
  generation counter is bumped by every mutating entry point;
* the dangling-supertype resolution fixes (``ancestors`` /
  ``isa_related`` symmetry, ``generalization_roots`` with unresolved
  supertypes);
* a property-style test: after any random operation sequence from the
  workload generator -- including undo, redo, and reset -- every
  indexed query still equals its full-scan counterpart.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.model.attributes import Attribute
from repro.model.columnar import ColumnarAdjacency
from repro.model.index import (
    scan_aggregation_roots,
    scan_ancestors,
    scan_descendants,
    scan_generalization_roots,
    scan_instance_of_roots,
    scan_link_edges,
    scan_parts,
    scan_subtypes,
    scan_wholes,
)
from repro.model.interface import InterfaceDef
from repro.model.relationships import RelationshipEnd, RelationshipKind
from repro.model.schema import Schema
from repro.model.types import NamedType, ScalarType, set_of
from repro.repository.workspace import Workspace
from repro.workload.generator import (
    WorkloadSpec,
    generate_operations,
    generate_schema,
)


_PART_OF = RelationshipKind.PART_OF
_INSTANCE_OF = RelationshipKind.INSTANCE_OF


def assert_index_matches_scan(schema: Schema) -> None:
    """Every indexed query equals its full-scan counterpart."""
    index = schema.index
    part_edges = scan_link_edges(schema, _PART_OF)
    instance_edges = scan_link_edges(schema, _INSTANCE_OF)
    instances: dict[str, list[str]] = {}
    generics: dict[str, list[str]] = {}
    for generic, instance, _ in instance_edges:
        instances.setdefault(generic, []).append(instance)
        generics.setdefault(instance, []).append(generic)
    extents: dict[str, list[str]] = {}
    for rank, name in enumerate(schema.type_names()):
        assert schema.subtypes(name) == scan_subtypes(schema, name)
        assert schema.descendants(name) == scan_descendants(schema, name)
        assert schema.ancestors(name) == scan_ancestors(schema, name)
        assert schema.parts(name) == scan_parts(schema, name)
        assert schema.wholes(name) == scan_wholes(schema, name)
        assert index.link_targets(_INSTANCE_OF, name) == instances.get(name, [])
        assert index.link_sources(_INSTANCE_OF, name) == generics.get(name, [])
        assert index.declaration_rank(name) == rank
        extent = schema.interfaces[name].extent
        if extent is not None:
            extents.setdefault(extent, []).append(name)
    for extent, owners in extents.items():
        assert index.extent_owners(extent) == owners
    assert schema.part_of_edges() == part_edges
    assert schema.instance_of_edges() == instance_edges
    assert index.link_edge_count(_PART_OF) == len(part_edges)
    assert index.link_edge_count(_INSTANCE_OF) == len(instance_edges)
    assert index.declaration_order() == {
        name: rank for rank, name in enumerate(schema.type_names())
    }
    assert schema.generalization_roots() == scan_generalization_roots(schema)
    assert schema.aggregation_roots() == scan_aggregation_roots(schema)
    assert schema.instance_of_roots() == scan_instance_of_roots(schema)
    assert index.check_integrity() == []


def _link(name, target, kind, to_many=True):
    target_type = set_of(target) if to_many else NamedType(target)
    return RelationshipEnd(name, target_type, target, f"{name}_inv", kind)


def _churn(schema: Schema, tag: str) -> None:
    """A spread of spine-recorded edits: membership, ISA, both link
    kinds (add, retarget by replace, kind change, remove), extents
    (including a shared name), and a type removal that leaves dangling
    supertype and link targets behind."""
    names = schema.type_names()
    first, second, third = names[0], names[1], names[2]
    new = f"New{tag}"
    schema.add_interface(InterfaceDef(new, supertypes=[first]))
    schema.get(second).add_relationship(
        _link(f"parts_{tag}", new, RelationshipKind.PART_OF)
    )
    schema.get(second).add_relationship(
        _link(f"more_{tag}", third, RelationshipKind.PART_OF)
    )
    schema.get(new).add_relationship(
        _link(f"versions_{tag}", second, RelationshipKind.INSTANCE_OF)
    )
    schema.get(second).replace_relationship(
        _link(f"more_{tag}", first, RelationshipKind.INSTANCE_OF)
    )
    schema.get(third).set_extent(f"shared_{tag}")
    schema.get(new).set_extent(f"shared_{tag}")
    schema.get(third).add_supertype(new)
    schema.get(second).remove_relationship(f"parts_{tag}")
    schema.get(second).add_relationship(
        _link(f"parts_{tag}", new, RelationshipKind.PART_OF)
    )
    schema.remove_interface(first)


def _association(name, target, inverse_type, inverse_name, to_many=False):
    target_type = set_of(target) if to_many else NamedType(target)
    return RelationshipEnd(
        name, target_type, inverse_type, inverse_name,
        RelationshipKind.ASSOCIATION,
    )


@pytest.fixture
def workload_schema() -> Schema:
    return generate_schema(WorkloadSpec(types=30, seed=7))


class TestIndexedQueriesMatchScans:
    def test_on_generated_schema(self, workload_schema):
        assert_index_matches_scan(workload_schema)

    def test_on_catalog_schemas(self, university, house, software, acedb):
        for schema in (university, house, software, acedb):
            assert_index_matches_scan(schema)

    def test_queries_hit_the_cache_when_unchanged(self, workload_schema):
        workload_schema.descendants("Type000")
        workload_schema.subtypes("Type001")
        before = workload_schema.index.stats()
        workload_schema.descendants("Type000")
        workload_schema.subtypes("Type001")
        after = workload_schema.index.stats()
        assert after["hits"] > before["hits"]
        assert after["misses"] == before["misses"]

    def test_stats_exposes_index_counters(self, workload_schema):
        stats = workload_schema.stats()
        for key in ("index.hits", "index.misses", "index.rebuilds",
                    "index.generation"):
            assert key in stats


class TestGenerationBumps:
    """Every mutating entry point invalidates the index."""

    def _schema(self) -> Schema:
        schema = Schema("gen")
        schema.add_interface(InterfaceDef("Base"))
        schema.add_interface(InterfaceDef("Sub", supertypes=["Base"]))
        return schema

    def test_add_remove_interface_bump(self):
        schema = self._schema()
        generation = schema.generation
        schema.add_interface(InterfaceDef("Extra"))
        assert schema.generation > generation
        generation = schema.generation
        schema.remove_interface("Extra")
        assert schema.generation > generation

    def test_supertype_mutators_bump_and_requery(self):
        schema = self._schema()
        assert schema.subtypes("Base") == ["Sub"]
        schema.add_interface(InterfaceDef("Other"))
        schema.get("Other").add_supertype("Base")
        assert schema.subtypes("Base") == ["Sub", "Other"]
        schema.get("Other").remove_supertype("Base")
        assert schema.subtypes("Base") == ["Sub"]
        schema.get("Sub").set_supertypes(["Other"])
        assert schema.subtypes("Base") == []
        assert schema.subtypes("Other") == ["Sub"]

    def test_relationship_mutators_bump_and_requery(self):
        schema = self._schema()
        whole = schema.get("Base")
        whole.add_relationship(
            RelationshipEnd(
                "has_parts", set_of("Sub"), "Sub", "part_of_whole",
                RelationshipKind.PART_OF,
            )
        )
        assert schema.parts("Base") == ["Sub"]
        whole.remove_relationship("has_parts")
        assert schema.parts("Base") == []

    def test_detached_interface_stops_bumping(self):
        schema = self._schema()
        removed = schema.remove_interface("Sub")
        generation = schema.generation
        removed.add_attribute(Attribute("orphan", ScalarType("long")))
        assert schema.generation == generation

    def test_interface_shared_by_two_schemas_is_borrowed_cow(self):
        # Adding an interface already on another schema's spine borrows
        # it copy-on-write: the owner mutating it privatises the
        # as-added state into the borrower, whose content -- and hence
        # generation -- does not change.
        first = self._schema()
        second = Schema("other")
        shared = first.get("Base")
        second.add_interface(shared)
        first_generation = first.generation
        second_generation = second.generation
        shared.add_attribute(Attribute("a", ScalarType("long")))
        assert first.generation > first_generation
        assert second.generation == second_generation
        assert second.get("Base") is not shared
        assert "a" not in second.get("Base").attributes
        assert "a" in first.get("Base").attributes

    def test_attribute_and_operation_mutators_bump(self):
        schema = self._schema()
        interface = schema.get("Base")
        generation = schema.generation
        interface.add_attribute(Attribute("a", ScalarType("long")))
        assert schema.generation > generation
        generation = schema.generation
        interface.remove_attribute("a")
        assert schema.generation > generation


class TestDanglingSupertypeResolution:
    """Satellite fix: unresolved supertypes answer consistently."""

    def _schema(self) -> Schema:
        schema = Schema("dangling")
        schema.add_interface(
            InterfaceDef("Orphan", supertypes=["Missing"])
        )
        schema.add_interface(InterfaceDef("Child", supertypes=["Orphan"]))
        return schema

    def test_ancestors_excludes_dangling_names(self):
        schema = self._schema()
        assert schema.ancestors("Orphan") == set()
        assert schema.ancestors("Child") == {"Orphan"}

    def test_isa_related_is_symmetric_with_dangling_supertypes(self):
        schema = self._schema()
        # "Missing" is not a type; neither direction may claim kinship.
        assert not schema.isa_related("Orphan", "Missing")
        assert schema.isa_related("Child", "Orphan")
        assert schema.isa_related("Orphan", "Child")

    def test_dangling_only_supertypes_make_a_root(self):
        schema = self._schema()
        assert schema.generalization_roots() == ["Orphan"]

    def test_resolved_supertype_still_blocks_roothood(self):
        schema = self._schema()
        schema.add_interface(InterfaceDef("Top"))
        schema.get("Orphan").add_supertype("Top")
        assert schema.generalization_roots() == ["Top"]


class TestInvalidationAcrossWorkspaceHistory:
    """Property-style: ops, undo, redo, reset never leave stale caches."""

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=2**20))
    def test_random_op_sequences_keep_index_fresh(self, seed):
        spec = WorkloadSpec(types=12, seed=seed % 1000)
        schema = generate_schema(spec)
        operations = generate_operations(schema, count=8, seed=seed)
        workspace = Workspace(schema)
        # warm every cache family so staleness, not cold misses, is tested
        assert_index_matches_scan(workspace.schema)
        for operation in operations:
            workspace.apply(operation)
            assert_index_matches_scan(workspace.schema)
        while workspace.log:
            workspace.undo_last()
            assert_index_matches_scan(workspace.schema)
        while workspace.redo() is not None:
            assert_index_matches_scan(workspace.schema)
        workspace.reset()
        assert_index_matches_scan(workspace.schema)
        assert_index_matches_scan(workspace.reference)

    def test_hand_built_mutation_stream(self):
        schema = Schema("stream")
        schema.add_interface(InterfaceDef("A"))
        schema.add_interface(InterfaceDef("B", supertypes=["A"]))
        assert_index_matches_scan(schema)
        schema.get("A").add_relationship(
            _association("to_b", "B", "B", "to_a", to_many=True)
        )
        schema.get("B").add_relationship(_association("to_a", "A", "A", "to_b"))
        assert_index_matches_scan(schema)
        schema.get("B").replace_relationship(
            _association("to_a", "A", "A", "to_b", to_many=True)
        )
        assert_index_matches_scan(schema)
        schema.remove_interface("B")
        assert_index_matches_scan(schema)

    # -- spine-fed state across forks, reorders and lossy records ------

    @staticmethod
    def _warm_fork(schema: Schema) -> Schema:
        assert_index_matches_scan(schema)  # warm the parent's state
        fork = schema.fork("branch")
        assert_index_matches_scan(fork)
        return fork

    def test_fork_then_parent_mutates(self):
        parent = generate_schema(WorkloadSpec(types=30, seed=7))
        fork = self._warm_fork(parent)
        before = fork.type_names()
        _churn(parent, "p")
        assert fork.type_names() == before
        assert_index_matches_scan(parent)
        assert_index_matches_scan(fork)

    def test_fork_then_child_mutates(self):
        parent = generate_schema(WorkloadSpec(types=30, seed=7))
        fork = self._warm_fork(parent)
        before = parent.type_names()
        _churn(fork, "c")
        assert parent.type_names() == before
        assert_index_matches_scan(fork)
        assert_index_matches_scan(parent)

    def test_fork_then_both_mutate(self):
        parent = generate_schema(WorkloadSpec(types=30, seed=7))
        fork = self._warm_fork(parent)
        _churn(fork, "c")
        _churn(parent, "p")
        _churn(fork, "d")
        assert_index_matches_scan(parent)
        assert_index_matches_scan(fork)

    def test_fork_whose_first_edit_is_a_removal(self):
        parent = generate_schema(WorkloadSpec(types=30, seed=7))
        fork = self._warm_fork(parent)
        fork.remove_interface(fork.type_names()[3])
        assert_index_matches_scan(fork)
        assert_index_matches_scan(parent)

    def test_both_remove_the_same_interface(self):
        # The fork folds its own removal after the parent's, before any
        # query: it must not fold into state the parent already edited.
        parent = generate_schema(WorkloadSpec(types=30, seed=7))
        fork = self._warm_fork(parent)
        last = parent.type_names()[-1]
        parent.remove_interface(last)
        fork.remove_interface(last)
        assert_index_matches_scan(fork)
        assert_index_matches_scan(parent)

    def test_fork_of_fork_then_grandparent_mutates(self):
        grandparent = generate_schema(WorkloadSpec(types=30, seed=7))
        parent = self._warm_fork(grandparent)
        child = self._warm_fork(parent)
        _churn(grandparent, "g")
        assert_index_matches_scan(child)
        assert_index_matches_scan(parent)
        assert_index_matches_scan(grandparent)

    def test_reorder_interfaces(self):
        schema = generate_schema(WorkloadSpec(types=30, seed=7))
        _churn(schema, "r")
        assert_index_matches_scan(schema)
        schema.reorder_interfaces(list(reversed(schema.type_names())))
        assert_index_matches_scan(schema)
        _churn(schema, "s")  # positions keep working after a renumber
        assert_index_matches_scan(schema)

    def test_lossy_touch_rescans_and_counts(self):
        schema = generate_schema(WorkloadSpec(types=30, seed=7))
        assert_index_matches_scan(schema)
        rebuilds = schema.index.stats()["rebuilds"]
        # Out of band: reorder the dict and drop an interface without a
        # mutator, then declare it with a lossy record.
        names = schema.type_names()
        schema.interfaces = {
            name: schema.interfaces[name] for name in reversed(names[1:])
        }
        schema.touch()
        assert_index_matches_scan(schema)
        assert schema.index.stats()["rebuilds"] > rebuilds


class TestOneFreshnessCheckPerQuery:
    """Every public store query and every ``Schema`` graph method checks
    the store's freshness exactly once, on a schema and on its forks;
    the spine feeds each schema one store."""

    @staticmethod
    def _schemas():
        base = generate_schema(
            WorkloadSpec(types=30, seed=2, part_of_chain=8, instance_of_chain=5)
        )
        fork = base.fork("fork")
        return {"base": base, "fork": fork, "fork-of-fork": fork.fork("f2")}

    @staticmethod
    def _probes(schema: Schema):
        index = schema.index
        names = schema.type_names()
        roots = schema.generalization_roots()
        name = roots[0] if roots else names[0]
        extent = next(
            (i.extent for i in schema if i.extent is not None), "no_extent"
        )
        return {
            "parents_of": lambda: index.parents_of(name),
            "children_of": lambda: index.children_of(name),
            "subtypes_of": lambda: index.subtypes_of(name),
            "descendants_of": lambda: index.descendants_of(name),
            "descendants_closure": lambda: index.descendants_closure({name}),
            "ancestors_of": lambda: index.ancestors_of(name),
            "generalization_roots": index.generalization_roots,
            "referencers_of": lambda: index.referencers_of(name),
            "refs_of": lambda: index.refs_of(name),
            "ends_targeting": lambda: index.ends_targeting(set(names[:5])),
            "in_declaration_order": lambda: index.in_declaration_order(names),
            "position_of": lambda: index.position_of(name),
            "declaration_rank": lambda: index.declaration_rank(name),
            "declaration_order": index.declaration_order,
            "link_edges": lambda: index.link_edges(_PART_OF),
            "link_edge_count": lambda: index.link_edge_count(_INSTANCE_OF),
            "link_targets": lambda: index.link_targets(_PART_OF, name),
            "link_sources": lambda: index.link_sources(_INSTANCE_OF, name),
            "link_roots": lambda: index.link_roots(_PART_OF),
            "extent_owners": lambda: index.extent_owners(extent),
            "isa_parents_map": index.isa_parents_map,
            "isa_children_map": index.isa_children_map,
            "refs_of_map": index.refs_of_map,
            "referencers_map": index.referencers_map,
            "check_integrity": index.check_integrity,
            "Schema.subtypes": lambda: schema.subtypes(name),
            "Schema.ancestors": lambda: schema.ancestors(name),
            "Schema.descendants": lambda: schema.descendants(name),
            "Schema.generalization_roots": schema.generalization_roots,
            "Schema.part_of_edges": schema.part_of_edges,
            "Schema.instance_of_edges": schema.instance_of_edges,
            "Schema.parts": lambda: schema.parts(name),
            "Schema.wholes": lambda: schema.wholes(name),
            "Schema.aggregation_roots": schema.aggregation_roots,
            "Schema.instance_of_roots": schema.instance_of_roots,
        }

    def test_each_query_checks_freshness_once(self, monkeypatch):
        calls = []
        original = ColumnarAdjacency.ensure_fresh

        def counting(store):
            calls.append(store)
            return original(store)

        monkeypatch.setattr(ColumnarAdjacency, "ensure_fresh", counting)
        for label, schema in self._schemas().items():
            schema.get(schema.type_names()[1]).add_attribute(
                Attribute("fresh_probe", ScalarType("long"))
            )  # leaves an owner pending: a query may fold it, not re-check
            for query, probe in self._probes(schema).items():
                calls.clear()
                probe()
                assert len(calls) == 1, (label, query, len(calls))
                assert calls[0] is schema.index, (label, query)

    def test_the_spine_feeds_one_store_per_schema(self):
        schemas = self._schemas()
        base = schemas["base"]
        for label, schema in schemas.items():
            assert schema.stats()["spine.subscribers"] == 2, label
            stores = [
                getattr(subscriber, "__self__", None)
                for subscriber in schema.log._subscribers
            ]
            assert stores.count(schema.index) == 1, label
        fork, grandchild = schemas["fork"], schemas["fork-of-fork"]
        assert fork.index._base is base.index  # the overlay view
        assert grandchild.index._base is fork.index
        assert base.index not in [
            getattr(subscriber, "__self__", None)
            for subscriber in fork.log._subscribers
        ]
