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
"""

from __future__ import annotations

import json
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
from .task_update import TableOracle, WordBank


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


def _require(payload: dict, key: str, path) -> object:
    if key not in payload:
        raise ParseError(str(path), key, "missing required field")
    return payload[key]


def _require_list(payload: dict, key: str, path) -> list:
    value = _require(payload, key, path)
    if not isinstance(value, list):
        raise ParseError(str(path), key, "expected a JSON array")
    return value


def _is_int(value) -> bool:
    """A JSON integer: a Python int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _id_list(value, path, field) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ParseError(str(path), field, "expected a JSON array of id strings")
    return tuple(value)


def _optional_id(value, path, field) -> str | None:
    if value is not None and not isinstance(value, str):
        raise ParseError(str(path), field, "expected an id string or null")
    return value


def _table_payload(table: CondTable) -> dict:
    out = {"matrix": table.matrix.tolist()}
    if table.row_labels is not None:
        out["row_labels"] = list(table.row_labels)
    if table.col_labels is not None:
        out["col_labels"] = list(table.col_labels)
    return out


def _table_from(payload, path, field) -> CondTable:
    try:
        return CondTable(
            np.array(payload["matrix"], dtype=float),
            tuple(payload["row_labels"]) if "row_labels" in payload else None,
            tuple(payload["col_labels"]) if "col_labels" in payload else None,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(str(path), field, str(exc))


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
        payload["solve_options"] = {
            "beta": options.beta,
            "alpha": options.alpha,
            "min_iter": options.min_iter,
            "max_iter": options.max_iter,
            "tol": options.tol,
            "init": options.init,
            "seed": options.seed,
            "distortion": options.distortion,
        }
    _dump(payload, path)


def load_problem(path) -> tuple[HibProblem, SolveOptions | None]:
    payload = _load(path, "problem")
    try:
        prior = Dist(
            np.array(_require(payload, "prior", path), dtype=float),
            tuple(payload["prior_labels"]) if "prior_labels" in payload else None,
        )
    except ParseError:
        raise
    except (TypeError, ValueError) as exc:
        raise ParseError(str(path), "prior", str(exc))
    conds = tuple(
        _table_from(t, path, f"task_conditionals[{i}]")
        for i, t in enumerate(_require_list(payload, "task_conditionals", path))
    )
    sizes = payload.get("cluster_sizes")
    if sizes is not None and not (isinstance(sizes, list) and all(map(_is_int, sizes))):
        raise ParseError(str(path), "cluster_sizes", "expected a JSON array of integers")
    try:
        problem = HibProblem(prior, conds, tuple(sizes) if sizes else None)
    except (TypeError, ValueError) as exc:
        raise ParseError(str(path), "cluster_sizes", str(exc))
    if "n" in payload:
        n = payload["n"]
        if not _is_int(n):
            raise ParseError(str(path), "n", f"expected an integer, got {n!r}")
        if n != problem.n:
            raise ParseError(str(path), "n", f"declared {n} levels, found {problem.n}")
    options = None
    if "solve_options" in payload:
        try:
            options = SolveOptions(**payload["solve_options"])
        except (TypeError, ValueError) as exc:
            raise ParseError(str(path), "solve_options", str(exc))
    return problem, options


# ------------------------------------------------------------------ scenes


def _box_payload(box: Box) -> dict:
    return {"min": list(box.lo), "max": list(box.hi)}


def _box_from(payload, path, field) -> Box:
    try:
        return Box(tuple(payload["min"]), tuple(payload["max"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(str(path), field, str(exc))


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
    out = []
    for i, entry in enumerate(_require_list(payload, "primitives", path)):
        try:
            out.append(
                Primitive(
                    id=str(entry["id"]),
                    centroid=tuple(entry["centroid"]),
                    bbox=_box_from(entry["bbox"], path, f"primitives[{i}].bbox"),
                    embedding=np.array(entry["embedding"], dtype=float),
                )
            )
        except ParseError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(str(path), f"primitives[{i}]", str(exc))
    return out


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
    for i, entry in enumerate(_require_list(payload, "entities", path)):
        try:
            spatial = None
            if "spatial" in entry:
                spatial = Spatial(
                    tuple(entry["spatial"]["position"]),
                    float(entry["spatial"]["radius"]),
                )
            ent = TaskEntity(
                id=str(entry["id"]),
                kind=str(entry["kind"]),
                text=str(entry["text"]),
                embedding=(
                    np.array(entry["embedding"], dtype=float)
                    if "embedding" in entry
                    else None
                ),
                spatial=spatial,
                children=_id_list(entry.get("children", []), path, f"entities[{i}].children"),
            )
        except ParseError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(str(path), f"entities[{i}]", str(exc))
        entities[ent.id] = ent
    roots = _id_list(_require(payload, "roots", path), path, "roots")
    null_task = _optional_id(payload.get("null_task"), path, "null_task")
    try:
        return TaskHierarchy(entities, roots, null_task)
    except ValueError as exc:
        raise ParseError(str(path), "entities", str(exc))


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
    for i, entry in enumerate(_require_list(payload, "nodes", path)):
        try:
            node = SceneNode(
                id=str(entry["id"]),
                layer=int(entry["layer"]),
                cluster=entry.get("cluster"),
                entity_id=_optional_id(entry.get("entity"), path, f"nodes[{i}].entity"),
                confidence=entry.get("confidence"),
                parent=_optional_id(entry.get("parent"), path, f"nodes[{i}].parent"),
                bbox=(
                    _box_from(entry["bbox"], path, f"nodes[{i}].bbox")
                    if "bbox" in entry
                    else None
                ),
                centroid=(
                    tuple(entry["centroid"]) if "centroid" in entry else None
                ),
            )
        except ParseError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(str(path), f"nodes[{i}]", str(exc))
        nodes[node.id] = node
    null_entities = (
        _id_list(payload["null_entities"], path, "null_entities")
        if "null_entities" in payload
        else ()
    )
    return SceneGraph(nodes, frozenset(null_entities))


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
    encoders = tuple(
        _table_from(t, path, f"encoders[{i}]")
        for i, t in enumerate(_require_list(payload, "encoders", path))
    )
    try:
        marginals = tuple(
            Dist(np.array(v, dtype=float))
            for v in _require_list(payload, "marginals", path)
        )
    except ParseError:
        raise
    except (TypeError, ValueError) as exc:
        raise ParseError(str(path), "marginals", str(exc))
    decoders = tuple(
        _table_from(t, path, f"decoders[{i}]")
        for i, t in enumerate(_require_list(payload, "decoders", path))
    )
    rep = _require(payload, "report", path)
    try:
        report = SolveReport(
            tuple(rep["objective_trace"]),
            int(rep["iterations"]),
            bool(rep["converged"]),
            float(rep["final_residual"]),
            tuple(rep.get("residual_trace", ())),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(str(path), "report", str(exc))
    if len(marginals) != len(encoders) + 1 or len(decoders) != len(encoders):
        raise ParseError(str(path), "marginals", "level counts are inconsistent")
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
    try:
        return WordBank(
            tuple(
                (str(e["word"]), np.array(e["embedding"], dtype=float))
                for e in _require_list(payload, "words", path)
            )
        )
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(str(path), "words", str(exc))


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
    try:
        scores = {
            (str(e["context"]), str(e["item"])): float(e["score"])
            for e in payload.get("scores", ())
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(str(path), "scores", str(exc))
    try:
        proposals = {
            str(p["task"]): tuple(
                (str(s["text"]), tuple(str(i) for i in s["items"]))
                for s in p.get("steps", ())
            )
            for p in payload.get("proposals", ())
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(str(path), "proposals", str(exc))
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
    for i, entry in enumerate(_require_list(payload, "tasks", path)):
        try:
            subtasks = []
            for s in entry["subtasks"]:
                if "box" in s:
                    subtasks.append(
                        ReferenceSubtask(box=_box_from(s["box"], path, "box"))
                    )
                else:
                    subtasks.append(ReferenceSubtask(frozenset(s["objects"])))
            tasks[str(entry["task"])] = tuple(subtasks)
        except ParseError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(str(path), f"tasks[{i}]", str(exc))
    try:
        return ReferenceAnnotation(tasks)
    except ValueError as exc:
        raise ParseError(str(path), "tasks", str(exc))
