"""Outside-in per-layer tracing for the designer-session benchmark.

The benchmark measures each layer from outside: :data:`PROBES` declares
the public callables that form each layer's boundary, and
:class:`Tracer` replaces them with thin wrappers for the duration of a
traced run --

* a module function is replaced in every loaded ``repro.*`` module that
  holds the same object (so ``from x import f`` call sites see it too);
* a method is replaced on the class that defines it, including ``apply``
  on every class of ``OPERATION_CLASSES``.

A wrapper records one span (probe, start, end, parent span, unit id)
into flat in-memory arrays, but only while a benchmark step is open:
the benchmark's own output checks call the same functions and must not
count.  Count-only probes bump a counter and record no span.  A layer's
self time is the duration of its spans minus the part their child spans
cover; the benchmark's step spans belong to the ``bench`` layer, whose
self time is the untraced remainder, so the layer rows sum exactly to
the steps' wall-clock time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

#: Layer of the benchmark's own step spans; its self time is untraced.
BENCH_LAYER = "bench"


@dataclass(frozen=True)
class Probe:
    """One public callable at a layer boundary.

    ``target`` is ``module:name`` for a function or ``module:Class.name``
    for a method.  ``span=False`` only counts calls (for callables hot
    enough that a span each would distort the run); ``after`` receives
    ``(counters, args, result, before)`` once the call returns, where
    ``before`` is what ``before(args)`` returned just ahead of the call
    (always ``None`` for a count-only probe).
    """

    layer: str
    target: str
    span: bool = True
    before: Callable | None = None
    after: Callable | None = None


def _count_pairs(counters, args, result, before):
    counters["examples.pairs"] += len(result)


def _count_concepts(counters, args, result, before):
    counters["concepts.count"] += len(result.all_concepts())


def _count_plan_steps(counters, args, result, before):
    counters["propagation.steps"] += len(result)


def _count_applied_steps(counters, args, result, before):
    counters["propagation.steps"] += len(result[0])


def _count_rebuild(counters, args, result, before):
    if result:
        counters["columnar.rebuilds"] += 1


def _validation_stats(args):
    return args[0].stats()


def _count_validation(counters, args, result, before):
    after = args[0].stats()
    for key in (
        "full_validations", "incremental_validations",
        "interfaces_revalidated", "interfaces_reused",
    ):
        counters[f"validation.{key}"] += after[key] - before[key]


def _count_memo_lookup(counters, args, result, before):
    counters["analysis.memo_hits" if args[1] else "analysis.memo_misses"] += 1


def _count_closure(counters, args, result, before):
    counters["verify.closure_types"] += len(result)


def _workspace(method: str) -> Probe:
    return Probe("workspace", f"repro.repository.workspace:Workspace.{method}")


def _repository(method: str) -> Probe:
    return Probe(
        "workspace", f"repro.repository.repository:SchemaRepository.{method}"
    )


#: The declared trace table: every public callable the benchmark wraps.
#: ``ops.apply`` probes are added per operation class by
#: :func:`operation_probes`.
PROBES: tuple[Probe, ...] = (
    Probe("odl.parse", "repro.odl.parser:parse_schema"),
    Probe("odl.print", "repro.odl.printer:print_schema"),
    Probe("language.parse", "repro.ops.language:parse_operation"),
    Probe("language.parse", "repro.ops.language:parse_script"),
    Probe("language.print", "repro.ops.base:SchemaOperation.to_text"),
    Probe(
        "concepts.decompose", "repro.concepts.decompose:decompose",
        after=_count_concepts,
    ),
    Probe(
        "concepts.view",
        "repro.concepts.wagon_wheel:extract_wagon_wheel_view",
    ),
    Probe(
        "examples.generate", "repro.examples.generator:significant_examples",
        after=_count_pairs,
    ),
    Probe("instances.check", "repro.instances.check:check_population"),
    Probe("analysis.analyze", "repro.analysis.plan:analyze_plan"),
    Probe(
        "analysis.memo", "repro.model.schema:Schema.note_analysis_cache",
        span=False, after=_count_memo_lookup,
    ),
    Probe(
        "propagation.expand", "repro.knowledge.propagation:expand",
        after=_count_plan_steps,
    ),
    Probe(
        "propagation.expand", "repro.knowledge.propagation:expand_applying",
        after=_count_applied_steps,
    ),
    Probe("knowledge.cautions", "repro.knowledge.constraints:cautions_for"),
    Probe("knowledge.impact", "repro.knowledge.impact:impact_of"),
    Probe("spine.emit", "repro.model.mutation:MutationLog.emit", span=False),
    Probe(
        "columnar.ensure_fresh",
        "repro.model.columnar:ColumnarAdjacency.ensure_fresh",
        after=_count_rebuild,
    ),
    Probe(
        "columnar.fork_view",
        "repro.model.columnar:ColumnarAdjacency.fork_view",
        span=False,
    ),
    Probe("cow.fork", "repro.model.schema:Schema.fork"),
    Probe("cow.copy", "repro.model.schema:Schema.copy"),
    Probe(
        "cow.interface_copy", "repro.model.interface:InterfaceDef.copy",
        span=False,
    ),
    Probe(
        "validation.cache",
        "repro.model.validation_cache:ValidationCache.validate",
        before=_validation_stats, after=_count_validation,
    ),
    Probe("validation.scan", "repro.model.validation:validate_schema"),
    Probe(
        "persistence.to_dict",
        "repro.repository.persistence:repository_to_dict",
    ),
    Probe(
        "persistence.replay",
        "repro.repository.persistence:repository_from_dict",
    ),
    Probe("verify.check", "repro.verify.invariants:check_workspace"),
    Probe(
        "verify.check", "repro.verify.invariants:touched_closure",
        after=_count_closure,
    ),
    _workspace("__init__"),
    _workspace("apply"),
    _workspace("apply_plan"),
    _workspace("preview"),
    _workspace("undo_last"),
    _workspace("redo"),
    _workspace("fork"),
    _repository("__init__"),
    _repository("apply"),
    _repository("undo"),
    _repository("impact"),
    _repository("create_wagon_wheel_view"),
    _repository("generate_custom_schema"),
)


def operation_probes() -> tuple[Probe, ...]:
    """One ``ops.apply`` probe per class defining an operation's ``apply``.

    Walks each class of ``OPERATION_CLASSES`` up its MRO to the class
    that defines ``apply``, so every implementation is wrapped exactly
    once and a ``super().apply`` call shows as a nested span.
    """
    from repro.ops.registry import OPERATION_CLASSES

    owners: dict[type, None] = {}
    for cls in OPERATION_CLASSES:
        owner = next(k for k in cls.__mro__ if "apply" in vars(k))
        owners[owner] = None
    return tuple(
        Probe("ops.apply", f"{owner.__module__}:{owner.__qualname__}.apply")
        for owner in owners
    )


def _resolve(target: str) -> tuple[object, str]:
    """(object holding the attribute, attribute name) for a target."""
    module_name, _, path = target.partition(":")
    holder: object = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for name in classes:
        holder = getattr(holder, name)
    return holder, attr


class Tracer:
    """Installs the probe wrappers and keeps the spans they record.

    Spans live in flat arrays (probe id, start, end, parent, unit id)
    so a traced unit with hundreds of thousands of calls stays small.
    Use as a context manager: wrappers are installed on entry and the
    original objects restored on exit, even on error.
    """

    def __init__(self) -> None:
        self.probes = PROBES + operation_probes()
        self.layers = [probe.layer for probe in self.probes]
        self._layer_of = {probe.target: probe.layer for probe in self.probes}
        self.patches: list[tuple[object, str, object]] = []
        #: Values the probes' ``after`` hooks accumulate.
        self.counters: Counter[str] = Counter()
        #: Calls made inside benchmark steps, per probe target.
        self.calls: Counter[str] = Counter()
        self.unit = 0
        self._probe = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._unit = array("i")
        self._stack: list[int] = []
        self._step_names: list[str] = []

    # -- installation --------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        if self.patches:
            raise RuntimeError("tracer already installed")
        try:
            for probe_id, probe in enumerate(self.probes):
                holder, attr = _resolve(probe.target)
                original = vars(holder)[attr]
                wrapper = self._wrap(probe_id, probe, original)
                if isinstance(holder, type):
                    self._patch(holder, attr, original, wrapper)
                    continue
                for name, module in list(sys.modules.items()):
                    if name != "repro" and not name.startswith("repro."):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, original, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def _patch(self, holder, attr, original, wrapper) -> None:
        setattr(holder, attr, wrapper)
        self.patches.append((holder, attr, original))

    def uninstall(self) -> None:
        while self.patches:
            holder, attr, original = self.patches.pop()
            setattr(holder, attr, original)

    # -- recording -----------------------------------------------------

    def _open(self, probe_id: int) -> int:
        index = len(self._start)
        self._probe.append(probe_id)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._unit.append(self.unit)
        self._end.append(0.0)
        self._stack.append(index)
        self._start.append(perf_counter())
        return index

    def _close(self, index: int) -> None:
        self._end[index] = perf_counter()
        self._stack.pop()

    def _wrap(self, probe_id: int, probe: Probe, original):
        tracer = self
        target = probe.target
        calls = self.calls
        counters = self.counters
        before, after = probe.before, probe.after

        if not probe.span:
            def counting(*args, **kwargs):
                if not tracer._stack:
                    return original(*args, **kwargs)
                calls[target] += 1
                result = original(*args, **kwargs)
                if after is not None:
                    after(counters, args, result, None)
                return result

            wrapper = counting
        else:
            def spanning(*args, **kwargs):
                if not tracer._stack:
                    return original(*args, **kwargs)
                calls[target] += 1
                state = before(args) if before is not None else None
                index = tracer._open(probe_id)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._close(index)
                if after is not None:
                    after(counters, args, result, state)
                return result

            wrapper = spanning
        functools.update_wrapper(wrapper, original)
        wrapper.__bench_probe__ = probe  # type: ignore[attr-defined]
        return wrapper

    @contextmanager
    def step(self, name: str):
        """A benchmark step span: the root every layer span nests under."""
        if self._stack:
            raise RuntimeError(f"step {name!r} opened inside another step")
        self._step_names.append(name)
        index = self._open(-len(self._step_names))
        try:
            yield
        finally:
            self._close(index)

    # -- reporting -----------------------------------------------------

    def layer_of(self, target: str) -> str:
        return self._layer_of[target]

    def layer_self_times(self) -> dict[str, float]:
        """Self seconds per layer over every recorded span."""
        count = len(self._start)
        child = [0.0] * count
        start, end, parent = self._start, self._end, self._parent
        for index in range(count):
            up = parent[index]
            if up >= 0:
                child[up] += end[index] - start[index]
        totals: dict[str, float] = {}
        for index in range(count):
            probe_id = self._probe[index]
            layer = self.layers[probe_id] if probe_id >= 0 else BENCH_LAYER
            own = end[index] - start[index] - child[index]
            totals[layer] = totals.get(layer, 0.0) + own
        return totals

    def write_spans(self, path) -> None:
        """Write every span (name, layer, start, end, parent, unit)."""
        names = [probe.target for probe in self.probes]
        with open(path, "w", encoding="utf-8") as out:
            for i in range(len(self._start)):
                probe_id = self._probe[i]
                if probe_id >= 0:
                    name, layer = names[probe_id], self.layers[probe_id]
                else:
                    name, layer = self._step_names[-probe_id - 1], BENCH_LAYER
                out.write(json.dumps([
                    name, layer, self._start[i], self._end[i],
                    self._parent[i], self._unit[i],
                ]) + "\n")


def leftover_wrappers() -> list[str]:
    """Every ``repro.*`` attribute still bound to a probe wrapper.

    Empty once every tracer is uninstalled: each patched name is again
    the original object.  Timed (untraced) reps assert this.
    """
    found = []
    for name, module in list(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        for key, value in list(vars(module).items()):
            if hasattr(value, "__bench_probe__"):
                found.append(f"{name}.{key}")
            elif isinstance(value, type) and value.__module__ == name:
                for attr, member in list(vars(value).items()):
                    if hasattr(member, "__bench_probe__"):
                        found.append(f"{name}.{key}.{attr}")
    return found
