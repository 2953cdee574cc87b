"""Traced runs: spans around the public functions of each hibtask module.

The tracer patches the program from the outside: every name in every
``hibtask`` module namespace that refers to a wrapped function is replaced
by a timing wrapper, and ``uninstall`` puts the originals back.  Spans and
counts stay in memory; ``write_spans`` dumps them when the run ends.  An
untraced run never installs the tracer, so nothing is wrapped.

A span's self time is its duration minus the time of the spans it directly
caused.  Each span belongs to the layer (module) that defines the wrapped
function; a layer's self time is the sum over its spans.  ``geometry`` and
``metrics`` are not wrapped: their time counts toward whichever layer calls
them.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

LAYERS = ("cli", "files", "solver", "task_update", "scene_graph", "hierarchy", "probability")

# private functions that carry a per-layer metric of their own; a name the
# program no longer has is skipped and its metric reads 0
PRIVATE = {"solver": ("_update_level",)}

# scalar helpers called once per element: a span each would cost more than
# the work, so their time stays with the caller
UNWRAPPED = ("scene_graph.confidence", "task_update.spatial_conditional")

# methods that get a span: (module, class, method, counter it bumps)
METHODS = (
    ("task_update", "TableOracle", "score_items", "oracle_calls"),
    ("task_update", "TableOracle", "propose_subtasks", "oracle_calls"),
)
# methods that are only counted, being called thousands of times per
# operation: (module, class, method, counter)
COUNTED = (
    ("probability", "CondTable", "__post_init__", "table_validations"),
    ("probability", "Dist", "__post_init__", "table_validations"),
    ("hierarchy", "TaskHierarchy", "_validate", "hierarchy_constructions"),
)


def _count_items(hierarchy) -> int:
    return sum(1 for e in hierarchy.entities.values() if e.kind == "item")


def _observe_solve(counts, args, kwargs, result):
    counts["sweeps"] += result[1].iterations


def _observe_construct(counts, args, kwargs, result):
    counts["nodes_built"] += len(result.nodes)


def _observe_prune_primitives(counts, args, kwargs, result):
    counts["nodes_kept"] += len(result.nodes)


def _observe_refine(counts, args, kwargs, result):
    before = args[0] if args else kwargs["hierarchy"]
    words = args[1] if len(args) > 1 else kwargs["suggestions"]
    counts["words_queried"] += len(words)
    counts["items_added"] += _count_items(result) - _count_items(before)


def _save_observer(fn):
    signature = inspect.signature(fn)

    def observe(counts, args, kwargs, result):
        path = signature.bind(*args, **kwargs).arguments["path"]
        counts["bytes_written"] += Path(path).stat().st_size

    return observe


OBSERVERS = {
    "solver.solve_hib": _observe_solve,
    "scene_graph.bottom_up_construct": _observe_construct,
    "scene_graph.prune_primitives": _observe_prune_primitives,
    "task_update.refine_hierarchy": _observe_refine,
}


@dataclass
class OpTrace:
    """Totals of one operation."""

    self_s: Counter = field(default_factory=Counter)  # layer -> seconds
    incl_s: Counter = field(default_factory=Counter)  # span name -> seconds
    name_self_s: Counter = field(default_factory=Counter)  # span name -> seconds
    calls: Counter = field(default_factory=Counter)  # span name -> calls
    counts: Counter = field(default_factory=Counter)


class Tracer:
    def __init__(self):
        self.ops: list[OpTrace] = []
        self.spans: list[tuple] = []  # (op, span id, parent id, name, start, end)
        self._op: OpTrace | None = None
        self._op_start = 0.0
        self._stack: list[list] = []  # [child seconds, span id]
        self._patched: list[tuple] = []  # (owner, attribute, original)

    # ------------------------------------------------------------ spans

    def begin_op(self) -> None:
        self._op = OpTrace()
        self._stack.clear()
        self._op_start = perf_counter()

    def end_op(self) -> None:
        self.ops.append(self._op)
        self._op = None

    def _call(self, fn, layer, name, counter, observe, args, kwargs):
        op = self._op
        if op is None:  # outside an operation (setup, checks): not traced
            return fn(*args, **kwargs)
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        frame = [0.0, span_id]
        self.spans.append(None)  # reserve the id; filled in below
        self._stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            duration = end - start
            if parent is not None:
                parent[0] += duration
            op.self_s[layer] += duration - frame[0]
            op.name_self_s[name] += duration - frame[0]
            op.incl_s[name] += duration
            op.calls[name] += 1
            self.spans[span_id] = (
                len(self.ops), span_id, None if parent is None else parent[1],
                name, start - self._op_start, end - self._op_start,
            )
        if counter:
            op.counts[counter] += 1
        if observe:
            observe(op.counts, args, kwargs, result)
        return result

    def _count(self, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op is not None:
                tracer._op.counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, fn, layer, name, counter=None):
        observe = OBSERVERS.get(name)
        if observe is None and name.startswith("files.save_"):
            observe = _save_observer(fn)
        call = self._call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call(fn, layer, name, counter, observe, args, kwargs)

        return wrapper

    # --------------------------------------------------------- patching

    def install(self) -> None:
        modules = {layer: sys.modules[f"hibtask.{layer}"] for layer in LAYERS}
        wrapped = {}  # id(original) -> (original, wrapper)
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                if name.startswith("_") and name not in PRIVATE.get(layer, ()):
                    continue
                if f"{layer}.{name}" in UNWRAPPED:
                    continue
                wrapped[id(obj)] = (obj, self._wrap(obj, layer, f"{layer}.{name}"))
        for methods, spans in ((METHODS, True), (COUNTED, False)):
            for layer, cls_name, method, counter in methods:
                cls = getattr(modules[layer], cls_name, None)
                original = getattr(cls, "__dict__", {}).get(method)
                if original is None:
                    continue
                self._patched.append((cls, method, original))
                setattr(
                    cls, method,
                    self._wrap(original, layer, f"{layer}.{cls_name}.{method}", counter)
                    if spans else self._count(original, counter),
                )
        # functions are imported by name across modules: patch every alias
        for name, module in list(sys.modules.items()):
            if name != "hibtask" and not name.startswith("hibtask."):
                continue
            for attr, obj in list(vars(module).items()):
                entry = wrapped.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, entry[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as sink:
            for op, span_id, parent, name, start, end in self.spans:
                sink.write(
                    json.dumps(
                        {"op": op, "id": span_id, "parent": parent, "name": name,
                         "start_s": start, "end_s": end}
                    )
                    + "\n"
                )

    # ---------------------------------------------------------- metrics

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics, each a mean per traced operation unless named
        otherwise."""
        n = len(self.ops)
        incl = Counter()
        calls = Counter()
        counts = Counter()
        self_s = Counter()
        name_self = Counter()
        for op in self.ops:
            incl.update(op.incl_s)
            name_self.update(op.name_self_s)
            calls.update(op.calls)
            counts.update(op.counts)
            self_s.update(op.self_s)

        def per_op(value: float) -> float:
            return value / n

        def fn_s(*names: str) -> float:
            return per_op(sum(incl[name] for name in names))

        files_load = [k for k in incl if k.startswith("files.load_")]
        files_save = [k for k in incl if k.startswith("files.save_")]
        sweeps = counts["sweeps"]
        solve_s = incl["solver.solve_hib"]
        out = {
            "probability.kl_divergence_matrix_s": fn_s("probability.kl_divergence_matrix"),
            "probability.kl_divergence_matrix_calls": per_op(calls["probability.kl_divergence_matrix"]),
            "probability.mutual_information_s": fn_s("probability.mutual_information"),
            "probability.mutual_information_calls": per_op(calls["probability.mutual_information"]),
            "probability.bayes_invert_s": fn_s("probability.bayes_invert"),
            "probability.bayes_invert_calls": per_op(calls["probability.bayes_invert"]),
            # per sweep where the workload sweeps, else per operation
            "probability.table_validations": counts["table_validations"] / (sweeps or n),
            "solver.solve_s": per_op(solve_s),
            "solver.sweeps": per_op(sweeps),
            "solver.sweeps_per_s": sweeps / solve_s if solve_s else 0.0,
            "solver.distortion_s": fn_s("solver.distortion"),
            "solver.derive_state_s": fn_s("solver.derive_state"),
            "solver.objective_s": fn_s("solver.objective"),
            # the encoder softmax: the level update minus the spans it calls
            "solver.level_update_self_s": per_op(name_self["solver._update_level"]),
            "hierarchy.embedding_conditional_s": fn_s("hierarchy.embedding_conditional"),
            "hierarchy.step_conditional_s": fn_s("hierarchy.hierarchy_step_conditional"),
            "hierarchy.select_relevant_s": fn_s("hierarchy.select_relevant_primitives"),
            "hierarchy.constructions": per_op(counts["hierarchy_constructions"]),
            "scene_graph.construct_s": fn_s("scene_graph.bottom_up_construct"),
            "scene_graph.top_down_prune_s": fn_s("scene_graph.top_down_prune"),
            "scene_graph.prune_primitives_s": fn_s("scene_graph.prune_primitives"),
            "scene_graph.nodes_built": per_op(counts["nodes_built"]),
            "scene_graph.nodes_kept": per_op(counts["nodes_kept"]),
            "task_update.derive_problem_s": fn_s("task_update.derive_problem"),
            "task_update.spatial_update_s": fn_s("task_update.spatial_update"),
            "task_update.suggest_words_s": fn_s("task_update.suggest_words"),
            "task_update.refine_hierarchy_s": fn_s("task_update.refine_hierarchy"),
            "task_update.oracle_calls": per_op(counts["oracle_calls"]),
            "task_update.accept_ratio": (
                counts["items_added"] / counts["words_queried"]
                if counts["words_queried"] else 0.0
            ),
            "files.load_s": fn_s(*files_load),
            "files.save_s": fn_s(*files_save),
            "files.bytes_written": per_op(counts["bytes_written"]),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = per_op(self_s[layer])
        return out

    def op_layer_self_s(self) -> list[float]:
        """Per traced operation, the sum of every layer's self time."""
        return [sum(op.self_s.values()) for op in self.ops]
