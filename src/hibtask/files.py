"""JSON file formats for problems, scenes, hierarchies, graphs, solutions,
word banks, oracle tables and reference annotations.

All numbers are serialized at full precision (Python's shortest round-trip
float representation), so identical objects produce byte-identical files and
parse(serialize(x)) reproduces x exactly.

Every file is the bytes of ``json.dumps(payload, indent=2) + "\\n"``, ASCII
only, written and read as UTF-8. ``_dump`` does not call ``json.dumps`` with
``indent``: any indent makes CPython fall back to its pure-Python encoder,
which took over half of a solve at |S_0| = 256 to write the 7 MB solution.
Instead it walks dicts and nested lists in Python and hands every list of
plain scalars to the C encoder with an item separator that carries the
newline and indentation of its depth. Floats therefore still go through
``float.__repr__``, and non-finite floats still come out as ``NaN`` and
``Infinity``. Payload keys are always ``str``.

Every loader reads its fields through one reader: inside ``_field(path,
name)`` a KeyError, TypeError, ValueError or OverflowError becomes
``ParseError(path, name, ...)``, and an inner ParseError passes through,
so the innermost block names the field (``key``, ``key[i]`` or
``key[i].member``). ``_of`` and ``_items`` check JSON types; a bool is
never an integer or a number. ``_numbers`` reads numeric arrays with
numpy's type inference, which rejects strings, nulls, all-bool and ragged
arrays but upcasts a bool mixed in with numbers. No value is converted
before its type is checked, and the constructors check their invariants.
"""

from __future__ import annotations

import json
import reprlib
from contextlib import AbstractContextManager
from dataclasses import asdict
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .errors import ParseError
from .geometry import Box
from .hierarchy import Primitive, Spatial, TaskEntity, TaskHierarchy
from .metrics import ReferenceAnnotation, ReferenceSubtask
from .probability import CondTable, Dist
from .scene_graph import SceneGraph, SceneNode
from .solver import HibProblem, HibState, SolveOptions, SolveReport
from .task_update import TableOracle, WordBank, _unit_score


_INDENT = "  "
# exact types: a list holding anything else (a container, or a subclass the C
# encoder would write without indentation) is walked item by item
_SCALAR_TYPES = frozenset({str, int, float, bool, type(None)})


@lru_cache(maxsize=None)
def _flat_encoder(depth: int) -> json.JSONEncoder:
    """C encoder for a list of scalars whose items sit at ``depth``."""
    return json.JSONEncoder(separators=(",\n" + _INDENT * depth, ": "))


def _encode(value, depth: int, chunks: list) -> None:
    """Append the ``indent=2`` encoding of ``value`` at ``depth`` to ``chunks``."""
    if isinstance(value, dict):
        if not value:
            chunks.append("{}")
            return
        inner = "\n" + _INDENT * (depth + 1)
        sep = "{" + inner
        for key, item in value.items():
            chunks.append(sep + encode_basestring_ascii(key) + ": ")
            _encode(item, depth + 1, chunks)
            sep = "," + inner
        chunks.append("\n" + _INDENT * depth + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            chunks.append("[]")
            return
        inner = "\n" + _INDENT * (depth + 1)
        if _SCALAR_TYPES.issuperset(map(type, value)):
            flat = _flat_encoder(depth + 1).encode(value)
            chunks.append("[" + inner)
            chunks.append(flat[1:-1])
        else:
            sep = "[" + inner
            for item in value:
                chunks.append(sep)
                _encode(item, depth + 1, chunks)
                sep = "," + inner
        chunks.append("\n" + _INDENT * depth + "]")
    else:
        chunks.append(_flat_encoder(depth).encode(value))


def _dumps(payload) -> str:
    """The text of ``json.dumps(payload, indent=2) + "\\n"``."""
    chunks = []
    _encode(payload, 0, chunks)
    chunks.append("\n")
    return "".join(chunks)


def _dump(payload, path):
    Path(path).write_text(_dumps(payload), encoding="utf-8")


def _load(path, expected: str) -> dict:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ParseError(str(path), "-", "file not found")
    except json.JSONDecodeError as exc:
        raise ParseError(str(path), f"line {exc.lineno}", exc.msg)
    if not isinstance(payload, dict):
        raise ParseError(str(path), "-", f"expected a JSON object for {expected}")
    return payload


class _field(AbstractContextManager):
    """Report a bad value read or built in the block as ParseError at ``name``."""

    def __init__(self, path, name: str):
        self.path, self.name = path, name

    def __exit__(self, kind, exc, traceback):
        if exc is None or isinstance(exc, ParseError):
            return
        if isinstance(exc, (KeyError, TypeError, ValueError, OverflowError)):
            missing = isinstance(exc, KeyError)
            message = f"missing required field {exc}" if missing else str(exc)
            raise ParseError(str(self.path), self.name, message) from exc


# JSON type -> its name and the exact Python types json.loads gives for it
_JSON_TYPES = {
    str: ("string", {str}),
    int: ("integer", {int}),
    float: ("number", {int, float}),
    bool: ("boolean", {bool}),
    list: ("array", {list}),
    dict: ("object", {dict}),
}
_REQUIRED = object()


def _of(value, kind: type, nullable: bool = False):
    """``value`` if it has the JSON type ``kind``, or is null and ``nullable``."""
    name, types = _JSON_TYPES[kind]
    if type(value) not in types and not (nullable and value is None):
        or_null = " or null" if nullable else ""
        raise TypeError(f"expected a JSON {name}{or_null}, got {reprlib.repr(value)}")
    return value


def _items(value, kind: type) -> tuple:
    """A JSON array of ``kind`` values, as a tuple of those values."""
    name, types = _JSON_TYPES[kind]
    if not types.issuperset(map(type, _of(value, list))):
        raise TypeError(f"expected a JSON array of {name}s, got {reprlib.repr(value)}")
    return tuple(value)


def _numbers(value, ndim: int) -> np.ndarray:
    """A JSON array of numbers nested ``ndim`` deep, as a numpy array."""
    arr = np.array(value)
    if arr.dtype.kind not in "iuf" or arr.ndim != ndim:
        raise TypeError(
            f"expected a {ndim}-d JSON array of numbers, got {reprlib.repr(value)}"
        )
    return arr


def _get(path, at: str, entry: dict, key: str, kind: type, default=_REQUIRED):
    """Member ``key`` of the object at ``at`` (the top level when empty), of
    JSON type ``kind`` and named ``at.key``. A missing member gives
    ``default`` if there is one, and may be null if that default is None."""
    with _field(path, f"{at}.{key}" if at else key):
        value = entry[key] if default is _REQUIRED or key in entry else default
        return _of(value, kind, nullable=default is None)


def _objects(path, at: str, entry: dict, key: str, default=_REQUIRED):
    """``(place, item)`` for each item of the array member ``key``, as read
    by ``_get``; each item must be a JSON object, named ``at.key[i]``."""
    name = f"{at}.{key}" if at else key
    for i, item in enumerate(_get(path, at, entry, key, list, default)):
        with _field(path, f"{name}[{i}]"):
            _of(item, dict)
        yield f"{name}[{i}]", item


def _unique(path, at: str, entry: dict, key: str, seen) -> str:
    """The string member ``key`` of the object at ``at``, not yet in ``seen``."""
    with _field(path, f"{at}.{key}"):
        if _of(entry[key], str) in seen:
            raise ValueError(f"duplicate {key} {entry[key]!r}")
        return entry[key]


def _table_payload(table: CondTable) -> dict:
    out = {"matrix": table.matrix.tolist()}
    if table.row_labels is not None:
        out["row_labels"] = list(table.row_labels)
    if table.col_labels is not None:
        out["col_labels"] = list(table.col_labels)
    return out


def _table(value) -> CondTable:
    """A CondTable from ``{"matrix", "row_labels"?, "col_labels"?}``."""
    _of(value, dict)
    rows = _items(value["row_labels"], str) if "row_labels" in value else None
    cols = _items(value["col_labels"], str) if "col_labels" in value else None
    return CondTable(_numbers(value["matrix"], 2), rows, cols)


# ---------------------------------------------------------------- problems


def save_problem(problem: HibProblem, path, options: SolveOptions | None = None):
    payload = {
        "n": problem.n,
        "prior": problem.prior.values.tolist(),
        "task_conditionals": [_table_payload(t) for t in problem.task_conditionals],
        "cluster_sizes": list(problem.cluster_sizes),
    }
    if problem.prior.labels is not None:
        payload["prior_labels"] = list(problem.prior.labels)
    if options is not None:
        payload["solve_options"] = asdict(options)
    _dump(payload, path)


def load_problem(path) -> tuple[HibProblem, SolveOptions | None]:
    payload = _load(path, "problem")
    with _field(path, "prior_labels"):
        labels = _items(payload["prior_labels"], str) if "prior_labels" in payload else None
    with _field(path, "prior"):
        prior = Dist(_numbers(payload["prior"], 1), labels)
    conds = []
    for i, table in enumerate(_get(path, "", payload, "task_conditionals", list)):
        with _field(path, f"task_conditionals[{i}]"):
            conds.append(_table(table))
            if conds[-1].n_cols != len(prior):
                raise ValueError(f"{conds[-1].n_cols} columns, prior has {len(prior)}")
    sizes = _get(path, "", payload, "cluster_sizes", list, default=None)
    with _field(path, "cluster_sizes"):
        problem = HibProblem(prior, tuple(conds), _items(sizes or [], int) or None)
    with _field(path, "n"):
        if _of(payload.get("n", problem.n), int) != problem.n:
            raise ValueError(f"declared {payload['n']} levels, found {problem.n}")
    options = None
    if "solve_options" in payload:
        with _field(path, "solve_options"):
            options = SolveOptions(**_of(payload["solve_options"], dict))
    return problem, options


# ------------------------------------------------------------------ scenes


def _box_payload(box: Box) -> dict:
    return {"min": list(box.lo), "max": list(box.hi)}


def _box(value) -> Box:
    """A Box from ``{"min", "max"}``."""
    _of(value, dict)
    return Box(_items(value["min"], float), _items(value["max"], float))


def save_scene(primitives, path):
    payload = {
        "primitives": [
            {
                "id": p.id,
                "centroid": list(p.centroid),
                "bbox": _box_payload(p.bbox),
                "embedding": p.embedding.tolist(),
            }
            for p in primitives
        ]
    }
    _dump(payload, path)


def load_scene(path) -> list[Primitive]:
    payload = _load(path, "scene")
    primitives = {}
    for at, entry in _objects(path, "", payload, "primitives"):
        pid = _unique(path, at, entry, "id", primitives)
        with _field(path, f"{at}.centroid"):
            centroid = _items(entry["centroid"], float)
        with _field(path, f"{at}.bbox"):
            bbox = _box(entry["bbox"])
        with _field(path, f"{at}.embedding"):
            embedding = _numbers(entry["embedding"], 1)
        with _field(path, at):
            primitives[pid] = Primitive(pid, centroid, bbox, embedding)
    return list(primitives.values())


# ------------------------------------------------------------- hierarchies


def save_hierarchy(hierarchy: TaskHierarchy, path):
    entities = []
    for ent in hierarchy.entities.values():
        entry = {
            "id": ent.id,
            "kind": ent.kind,
            "text": ent.text,
            "children": list(ent.children),
        }
        if ent.embedding is not None:
            entry["embedding"] = ent.embedding.tolist()
        if ent.spatial is not None:
            entry["spatial"] = {
                "position": list(ent.spatial.position),
                "radius": ent.spatial.radius,
            }
        entities.append(entry)
    payload = {"entities": entities, "roots": list(hierarchy.roots)}
    if hierarchy.null_task_id is not None:
        payload["null_task"] = hierarchy.null_task_id
    _dump(payload, path)


def load_hierarchy(path) -> TaskHierarchy:
    payload = _load(path, "hierarchy")
    entities = {}
    for at, entry in _objects(path, "", payload, "entities"):
        eid = _unique(path, at, entry, "id", entities)
        kind = _get(path, at, entry, "kind", str)
        text = _get(path, at, entry, "text", str)
        with _field(path, f"{at}.embedding"):
            embedding = _numbers(entry["embedding"], 1) if "embedding" in entry else None
        spatial = None
        if "spatial" in entry:
            with _field(path, f"{at}.spatial"):
                s = _of(entry["spatial"], dict)
                spatial = Spatial(_items(s["position"], float), _of(s["radius"], float))
        with _field(path, f"{at}.children"):
            children = _items(entry.get("children", []), str)
        with _field(path, at):
            entities[eid] = TaskEntity(eid, kind, text, embedding, spatial, children)
    with _field(path, "roots"):
        roots = _items(payload["roots"], str)
    null_task = _get(path, "", payload, "null_task", str, default=None)
    with _field(path, "entities"):
        return TaskHierarchy(entities, roots, null_task)


# ------------------------------------------------------------------ graphs


def save_graph(graph: SceneGraph, path):
    nodes = []
    for node in graph.nodes.values():
        entry = {
            "id": node.id,
            "layer": node.layer,
            "cluster": node.cluster,
            "entity": node.entity_id,
            "confidence": node.confidence,
            "parent": node.parent,
        }
        if node.bbox is not None:
            entry["bbox"] = _box_payload(node.bbox)
        if node.centroid is not None:
            entry["centroid"] = list(node.centroid)
        nodes.append(entry)
    payload = {
        "nodes": nodes,
        "null_entities": sorted(graph.null_entity_ids),
    }
    _dump(payload, path)


def load_graph(path) -> SceneGraph:
    payload = _load(path, "graph")
    nodes = {}
    for at, entry in _objects(path, "", payload, "nodes"):
        nid = _unique(path, at, entry, "id", nodes)
        with _field(path, f"{at}.bbox"):
            bbox = _box(entry["bbox"]) if "bbox" in entry else None
        with _field(path, f"{at}.centroid"):
            centroid = _items(entry["centroid"], float) if "centroid" in entry else None
        nodes[nid] = SceneNode(
            nid,
            _get(path, at, entry, "layer", int),
            _get(path, at, entry, "cluster", int, default=None),
            _get(path, at, entry, "entity", str, default=None),
            _get(path, at, entry, "confidence", float, default=None),
            _get(path, at, entry, "parent", str, default=None),
            bbox,
            centroid,
        )
    # a child may come before its parent, so parents are checked once all are read
    for i, node in enumerate(nodes.values()):
        if node.parent is not None and node.parent not in nodes:
            raise ParseError(
                str(path), f"nodes[{i}].parent", f"no node has id {node.parent!r}"
            )
    with _field(path, "null_entities"):
        null_entities = frozenset(_items(payload.get("null_entities", []), str))
    return SceneGraph(nodes, null_entities)


# --------------------------------------------------------------- solutions


def save_solution(state: HibState, report: SolveReport, path):
    payload = {
        "encoders": [_table_payload(t) for t in state.encoders],
        "marginals": [d.values.tolist() for d in state.marginals],
        "decoders": [_table_payload(t) for t in state.decoders],
        "report": {
            "objective_trace": list(report.objective_trace),
            "iterations": report.iterations,
            "converged": report.converged,
            "final_residual": report.final_residual,
            "residual_trace": list(report.residual_trace),
        },
    }
    _dump(payload, path)


def load_solution(path) -> tuple[HibState, SolveReport]:
    payload = _load(path, "solution")
    levels = []
    for key in ("encoders", "marginals", "decoders"):
        level = []
        for i, item in enumerate(_get(path, "", payload, key, list)):
            with _field(path, f"{key}[{i}]"):
                level.append(Dist(_numbers(item, 1)) if key == "marginals" else _table(item))
        levels.append(tuple(level))
    encoders, marginals, decoders = levels
    rep = _get(path, "", payload, "report", dict)
    with _field(path, "report.objective_trace"):
        objective_trace = _items(rep["objective_trace"], float)
    with _field(path, "report.residual_trace"):
        residual_trace = _items(rep.get("residual_trace", []), float)
    report = SolveReport(
        objective_trace,
        _get(path, "report", rep, "iterations", int),
        _get(path, "report", rep, "converged", bool),
        float(_get(path, "report", rep, "final_residual", float)),
        residual_trace,
    )
    with _field(path, "marginals"):
        if len(marginals) != len(encoders) + 1 or len(decoders) != len(encoders):
            raise ValueError("level counts are inconsistent")
    return HibState(encoders, marginals, decoders), report


# ------------------------------------------------- word banks and oracles


def save_word_bank(bank: WordBank, path):
    payload = {
        "words": [
            {"word": w, "embedding": e.tolist()} for w, e in bank.entries
        ]
    }
    _dump(payload, path)


def load_word_bank(path) -> WordBank:
    payload = _load(path, "word bank")
    words = []
    for at, entry in _objects(path, "", payload, "words"):
        word = _get(path, at, entry, "word", str)
        with _field(path, f"{at}.embedding"):
            words.append((word, _numbers(entry["embedding"], 1)))
    with _field(path, "words"):
        return WordBank(tuple(words))


def save_oracle(oracle: TableOracle, path):
    payload = {
        "scores": [
            {"context": c, "item": i, "score": s}
            for (c, i), s in oracle.scores.items()
        ],
        "proposals": [
            {
                "task": task,
                "steps": [{"text": t, "items": list(items)} for t, items in steps],
            }
            for task, steps in oracle.proposals.items()
        ],
    }
    _dump(payload, path)


def load_oracle(path) -> TableOracle:
    payload = _load(path, "oracle")
    scores = {}
    for at, entry in _objects(path, "", payload, "scores", []):
        key = (_get(path, at, entry, "context", str), _get(path, at, entry, "item", str))
        with _field(path, at):
            if key in scores:
                raise ValueError(f"duplicate (context, item) pair {key!r}")
        with _field(path, f"{at}.score"):
            scores[key] = _unit_score(key, float(_get(path, at, entry, "score", float)))
    proposals = {}
    for at, entry in _objects(path, "", payload, "proposals", []):
        steps = []
        for step_at, step in _objects(path, at, entry, "steps", []):
            with _field(path, f"{step_at}.items"):
                items = _items(step["items"], str)
            steps.append((_get(path, step_at, step, "text", str), items))
        proposals[_unique(path, at, entry, "task", proposals)] = tuple(steps)
    return TableOracle(scores, proposals)


# ------------------------------------------------------------- references


def save_reference(reference: ReferenceAnnotation, path):
    payload = {
        "tasks": [
            {
                "task": task,
                "subtasks": [
                    (
                        {"objects": sorted(s.objects)}
                        if s.box is None
                        else {"box": _box_payload(s.box)}
                    )
                    for s in subtasks
                ],
            }
            for task, subtasks in reference.tasks.items()
        ]
    }
    _dump(payload, path)


def load_reference(path) -> ReferenceAnnotation:
    payload = _load(path, "reference")
    tasks = {}
    for at, entry in _objects(path, "", payload, "tasks"):
        subtasks = []
        for sub_at, sub in _objects(path, at, entry, "subtasks"):
            with _field(path, sub_at):
                box = _box(sub["box"]) if "box" in sub else None
                objects = _items(sub["objects"], str) if box is None else ()
                subtasks.append(ReferenceSubtask(objects, box))
        tasks[_unique(path, at, entry, "task", tasks)] = tuple(subtasks)
    with _field(path, "tasks"):
        return ReferenceAnnotation(tasks)
