"""Task hierarchies, scene primitives, and the embedding-derived conditionals
that feed the solver."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, StructuralError, ValidationError
from .geometry import Box
from .probability import CondTable, chain

KIND_TASK = "task"
KIND_SUBTASK = "subtask"
KIND_ITEM = "item"
KINDS = (KIND_TASK, KIND_SUBTASK, KIND_ITEM)
_CHILD_KIND = {KIND_TASK: KIND_SUBTASK, KIND_SUBTASK: KIND_ITEM}

EMBED_NORM_TOL = 1e-6


def _unit_embedding(vec, what: str) -> np.ndarray:
    arr = np.array(vec, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError(f"{what}: embedding must be a nonempty vector")
    norm = float(np.linalg.norm(arr))
    if norm == 0:
        raise ValidationError(f"{what}: zero embedding (cosine undefined)")
    if abs(norm - 1.0) > EMBED_NORM_TOL:
        raise ValidationError(f"{what}: embedding norm {norm!r} is not 1")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Spatial:
    """Grounded position and influence radius of a task entity."""

    position: tuple[float, float, float]
    radius: float

    def __post_init__(self):
        pos = tuple(float(v) for v in self.position)
        if len(pos) != 3:
            raise ValidationError("spatial position must be a 3-vector")
        if not (all(map(math.isfinite, pos)) and math.isfinite(self.radius)):
            raise ValidationError("spatial position and radius must be finite")
        if self.radius <= 0:
            raise ValidationError("spatial radius must be positive")
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "radius", float(self.radius))


@dataclass(frozen=True)
class TaskEntity:
    id: str
    kind: str
    text: str
    embedding: np.ndarray | None = None
    spatial: Spatial | None = None
    children: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown entity kind {self.kind!r}")
        if self.kind == KIND_ITEM and self.children:
            raise StructuralError(f"item {self.id!r} cannot have children")
        if self.embedding is not None:
            object.__setattr__(
                self, "embedding", _unit_embedding(self.embedding, f"entity {self.id!r}")
            )
        object.__setattr__(self, "children", tuple(self.children))


@dataclass(frozen=True)
class Primitive:
    """A 3D-boxed, embedding-bearing leaf segment of the scene."""

    id: str
    centroid: tuple[float, float, float]
    bbox: Box
    embedding: np.ndarray

    def __post_init__(self):
        centroid = tuple(float(v) for v in self.centroid)
        if len(centroid) != 3:
            raise ValidationError(f"primitive {self.id!r}: centroid must be 3-vector")
        if not all(map(math.isfinite, centroid)):
            raise ValidationError(f"primitive {self.id!r}: centroid must be finite")
        object.__setattr__(self, "centroid", centroid)
        object.__setattr__(
            self, "embedding", _unit_embedding(self.embedding, f"primitive {self.id!r}")
        )


class TaskHierarchy:
    """Tree of tasks, subtasks and items, with one distinguished null task.

    Entity enumeration (for conditional tables and graph alignment) is
    document order: a pre-order walk of the real roots, then of the null
    task if it is not among them, with children in their listed order.  The
    null task is optional so purely tabular problems can still carry a
    hierarchy for labeling.  The enumeration is computed once, at
    construction, so ``entities`` must not change afterwards.
    """

    def __init__(self, entities, roots, null_task_id: str | None = None):
        self.entities: dict[str, TaskEntity] = dict(entities)
        self.roots: tuple[str, ...] = tuple(roots)
        self.null_task_id = null_task_id
        self._validate()

    def _validate(self):
        """Check the tree, and record its entities per kind in document order
        and the null task's subtree, in one walk."""
        parents: dict[str, str] = {}
        for eid, ent in self.entities.items():
            if ent.id != eid:
                raise StructuralError(f"entity key {eid!r} does not match id {ent.id!r}")
            for child in ent.children:
                if child not in self.entities:
                    raise StructuralError(f"{eid!r} references missing child {child!r}")
                if child in parents:
                    raise StructuralError(f"{child!r} has more than one parent")
                parents[child] = eid
                expected = _CHILD_KIND.get(ent.kind)
                if self.entities[child].kind != expected:
                    raise StructuralError(
                        f"{eid!r} ({ent.kind}) cannot parent "
                        f"{child!r} ({self.entities[child].kind})"
                    )
        null = self.null_task_id
        if null is not None and null not in self.entities:
            raise StructuralError(f"missing null task {null!r}")
        roots = self.roots
        if null is not None and null not in roots:
            roots += (null,)
        for rid in roots:
            if rid not in self.entities:
                raise StructuralError(f"missing root {rid!r}")
            if self.entities[rid].kind != KIND_TASK:
                raise StructuralError(f"root {rid!r} is not a task")
            if rid in parents:
                raise StructuralError(f"root {rid!r} also appears as a child")
        # pre-order walk that reaches every non-root exactly once (acyclicity)
        of_kind: dict[str, list[TaskEntity]] = {kind: [] for kind in KINDS}
        null_subtree: set[str] = set()
        seen: set[str] = set()
        stack = list(reversed(roots))
        while stack:
            eid = stack.pop()
            if eid in seen:
                raise StructuralError(f"cycle or shared subtree at {eid!r}")
            seen.add(eid)
            ent = self.entities[eid]
            of_kind[ent.kind].append(ent)
            if eid == null or parents.get(eid) in null_subtree:
                null_subtree.add(eid)
            stack.extend(reversed(ent.children))
        orphans = set(self.entities) - seen
        if orphans:
            raise StructuralError(f"orphaned entities: {sorted(orphans)}")
        self._of_kind = {kind: tuple(ents) for kind, ents in of_kind.items()}
        self._null_subtree = frozenset(null_subtree)

    def entities_of_kind(self, kind: str) -> tuple[TaskEntity, ...]:
        """The entities of ``kind`` in document order."""
        return self._of_kind.get(kind, ())

    def null_descendants(self) -> frozenset[str]:
        """Ids of the null task and everything under it."""
        return self._null_subtree


def cosine_matrix(primitives, entities) -> np.ndarray:
    """Entry (i, j) = cosine(entity_i, primitive_j); embeddings are unit-norm."""
    if not primitives or not entities:
        raise DimensionError("cosine matrix needs at least one primitive and entity")
    emb_e = np.stack([e.embedding for e in entities])
    emb_p = np.stack([p.embedding for p in primitives])
    if emb_e.shape[1] != emb_p.shape[1]:
        raise DimensionError(
            f"embedding dims differ: {emb_e.shape[1]} vs {emb_p.shape[1]}"
        )
    return emb_e @ emb_p.T


def embedding_conditional(primitives, items, temperature: float = 1.0) -> CondTable:
    """P(T_1 | S_0): per primitive, a softmax over item cosine similarities."""
    if temperature <= 0:
        raise ValidationError("temperature must be positive")
    for item in items:
        if item.embedding is None:
            raise ValidationError(f"item {item.id!r} has no embedding")
    scores = cosine_matrix(primitives, items) / temperature
    scores -= scores.max(axis=0, keepdims=True)
    weights = np.exp(scores)
    table = weights / weights.sum(axis=0, keepdims=True)
    return CondTable(
        table,
        tuple(e.id for e in items),
        tuple(p.id for p in primitives),
    )


def lift_conditional(lower: CondTable, step: CondTable) -> CondTable:
    """P(T_{k+1} | S_0) = P(T_{k+1} | T_k) o P(T_k | S_0)."""
    return chain(step, lower)


def hierarchy_step_conditional(
    hierarchy: TaskHierarchy, from_kind: str, to_kind: str
) -> CondTable:
    """P(parent | child) from tree membership: one-hot on the tree parent."""
    if _CHILD_KIND.get(to_kind) != from_kind:
        raise ValidationError(f"no parent step from {from_kind!r} to {to_kind!r}")
    children = hierarchy.entities_of_kind(from_kind)
    parents = hierarchy.entities_of_kind(to_kind)
    # a validated tree gives every child exactly one parent
    child_index = {e.id: j for j, e in enumerate(children)}
    table = np.zeros((len(parents), len(children)))
    for i, parent in enumerate(parents):
        for cid in parent.children:
            table[i, child_index[cid]] = 1.0
    return CondTable(
        table, tuple(e.id for e in parents), tuple(e.id for e in children)
    )


def select_relevant_primitives(primitives, items, threshold: float = 0.8):
    """Primitives whose best item cosine similarity strictly exceeds threshold."""
    if not -1.0 < threshold <= 1.0:
        raise ValidationError("threshold must lie in (-1, 1]")
    primitives = list(primitives)
    items = [e for e in items if e.embedding is not None]
    if not primitives or not items:
        return []
    best = cosine_matrix(primitives, items).max(axis=0)
    return [p for p, score in zip(primitives, best) if score > threshold]
