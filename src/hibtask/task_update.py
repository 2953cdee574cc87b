"""Task update: spatial grounding of task entities, spatially-informed
conditionals, word suggestions for unmatched primitives, oracle-driven
hierarchy refinement, and the alternating pipeline tying it all together."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Protocol

import numpy as np

from .errors import (
    DegenerateColumnError,
    DimensionError,
    RefinementError,
    StructuralError,
    ValidationError,
)
from .geometry import union_box
from .hierarchy import (
    KIND_ITEM,
    KIND_SUBTASK,
    KIND_TASK,
    Primitive,
    Spatial,
    TaskEntity,
    TaskHierarchy,
    embedding_conditional,
    hierarchy_step_conditional,
    lift_conditional,
    select_relevant_primitives,
    _unit_embedding,
)
from .probability import CondTable, Dist
from .scene_graph import (
    LAYER_PRIMITIVE,
    SceneGraph,
    bottom_up_construct,
    primitive_id,
    prune_primitives,
    top_down_prune,
)
from .solver import HibProblem, SolveOptions, SolveReport, solve_hib

# fallback radius when a grounded task/subtask has no grounded neighbor:
# scene bounding-box diagonal divided by this
FALLBACK_RADIUS_DIVISOR = 10.0


class RefinementOracle(Protocol):
    """Scoring contract used during hierarchy refinement.

    Implementations must be deterministic for fixed inputs.  The request and
    response payloads are plain data so a remote adapter can implement the
    same contract without touching the pipeline.
    """

    def score_items(self, context_text: str, item_texts: list[str]) -> list[float]:
        """Relevance in [0, 1] of each item for the given subtask or task."""
        ...

    def propose_subtasks(
        self, task_text: str, item_texts: list[str]
    ) -> list[tuple[str, list[str]]]:
        """New (subtask text, item texts) steps using only the given items."""
        ...


def _unit_score(pair: tuple[str, str], score: float) -> float:
    """``score`` if it lies in [0, 1] (NaN does not)."""
    if not 0.0 <= score <= 1.0:
        raise ValidationError(f"score {score!r} for {pair!r} outside [0, 1]")
    return score


@dataclass(frozen=True)
class TableOracle:
    """Deterministic lookup-table oracle for tests and fixtures.

    scores maps (context text, item text) to a relevance score in [0, 1],
    defaulting to 0.  proposals maps a task text to the steps to add when
    asked.
    """

    scores: dict[tuple[str, str], float] = field(default_factory=dict)
    proposals: dict[str, tuple[tuple[str, tuple[str, ...]], ...]] = field(
        default_factory=dict
    )

    def __post_init__(self):
        for pair, score in self.scores.items():
            _unit_score(pair, score)

    def score_items(self, context_text: str, item_texts: list[str]) -> list[float]:
        return [float(self.scores.get((context_text, t), 0.0)) for t in item_texts]

    def propose_subtasks(self, task_text: str, item_texts: list[str]):
        allowed = set(item_texts)
        steps = []
        for text, items in self.proposals.get(task_text, ()):
            kept = tuple(i for i in items if i in allowed)
            if kept:
                steps.append((text, list(kept)))
        return steps


@dataclass(frozen=True)
class WordBank:
    """LLM-generated vocabulary of item words with embeddings."""

    entries: tuple[tuple[str, np.ndarray], ...]

    def __post_init__(self):
        entries = tuple(
            (str(w), _unit_embedding(e, f"word {w!r}")) for w, e in self.entries
        )
        if not entries:
            raise ValidationError("word bank cannot be empty")
        by_word = dict(entries)
        if len(by_word) != len(entries):
            raise ValidationError("word bank words must be unique")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_by_word", by_word)

    def embedding_of(self, word: str) -> np.ndarray:
        return self._by_word[word]


def _scene_box(primitives):
    return union_box([p.bbox for p in primitives])


def spatial_update(
    graph: SceneGraph, hierarchy: TaskHierarchy, primitives
) -> TaskHierarchy:
    """Ground aligned task entities with position and radius.

    Position is the centroid of the aligned node.  Radius is the distance
    to the nearest grounded entity of the same kind for tasks and subtasks
    (scene-diagonal/10 when none exists), and the norm of the node's box
    extents for items.  Unaligned entities keep no spatial attribute.
    """
    primitives = list(primitives)
    fallback = (
        _scene_box(primitives).diagonal / FALLBACK_RADIUS_DIVISOR
        if primitives
        else 1.0
    )
    positions: dict[str, np.ndarray] = {}
    boxes = {}
    for node in graph.nodes.values():
        if node.entity_id is None or node.centroid is None:
            continue
        # after pruning, at most one node per entity remains
        positions[node.entity_id] = np.asarray(node.centroid)
        boxes[node.entity_id] = node.bbox

    entities = dict(hierarchy.entities)
    for kind in (KIND_TASK, KIND_SUBTASK, KIND_ITEM):
        grounded = [
            e for e in hierarchy.entities_of_kind(kind) if e.id in positions
        ]
        for ent in grounded:
            pos = positions[ent.id]
            if kind == KIND_ITEM:
                radius = float(np.linalg.norm(boxes[ent.id].extents))
                if radius <= 0:
                    radius = fallback
            else:
                neighbors = [
                    np.linalg.norm(positions[other.id] - pos)
                    for other in grounded
                    if other.id != ent.id
                ]
                radius = float(min(neighbors)) if neighbors else fallback
                if radius <= 0:
                    radius = fallback
            entities[ent.id] = replace(ent, spatial=Spatial(tuple(pos), radius))
    return TaskHierarchy(entities, hierarchy.roots, hierarchy.null_task_id)


def spatial_conditional(primitive: Primitive, entity: TaskEntity) -> float:
    """Pre-normalization spatial weight of a primitive for a grounded entity:
    1 inside the radius, exp(-(d - r)^2 / r^2) beyond it."""
    if entity.spatial is None:
        raise ValidationError(f"entity {entity.id!r} has no spatial attribute")
    r = entity.spatial.radius
    if r <= 0:
        raise ValidationError(f"entity {entity.id!r} has nonpositive radius")
    d = float(
        np.linalg.norm(np.asarray(primitive.centroid) - np.asarray(entity.spatial.position))
    )
    if d < r:
        return 1.0
    return float(np.exp(-((d - r) ** 2) / r**2))


def spatial_task_conditional(primitives, entities) -> CondTable:
    """Spatial P(T | S_0): grounded entities contribute the case weight,
    ungrounded ones a constant 1; columns are normalized."""
    primitives = list(primitives)
    entities = list(entities)
    if not primitives or not entities:
        raise DimensionError("spatial conditional needs primitives and entities")
    table = np.ones((len(entities), len(primitives)))
    for i, ent in enumerate(entities):
        if ent.spatial is None:
            continue
        for j, prim in enumerate(primitives):
            table[i, j] = spatial_conditional(prim, ent)
    table = table / table.sum(axis=0, keepdims=True)
    return CondTable(
        table,
        tuple(e.id for e in entities),
        tuple(p.id for p in primitives),
    )


def combine_conditionals(p_spatial: CondTable, p_embedding: CondTable) -> CondTable:
    """Renormalized elementwise product of the spatial and embedding tables."""
    if p_spatial.matrix.shape != p_embedding.matrix.shape:
        raise DimensionError(
            f"shape mismatch: {p_spatial.matrix.shape} vs {p_embedding.matrix.shape}"
        )
    product = p_spatial.matrix * p_embedding.matrix
    sums = product.sum(axis=0)
    dead = sums <= 0
    if np.any(dead):
        raise DegenerateColumnError(1, int(np.argmax(dead)), "all-zero combined column")
    return CondTable(
        product / sums, p_embedding.row_labels, p_embedding.col_labels
    )


def suggest_words(unmatched_primitives, word_bank: WordBank, top_k: int = 1):
    """Top-k bank words per unmatched primitive by cosine, deduplicated and
    ordered by score descending then lexicographically."""
    if top_k < 1:
        raise ValidationError("top_k must be >= 1")
    scored: dict[str, float] = {}
    for prim in unmatched_primitives:
        sims = [
            (float(np.dot(prim.embedding, emb)), word)
            for word, emb in word_bank.entries
        ]
        sims.sort(key=lambda t: (-t[0], t[1]))
        for score, word in sims[:top_k]:
            if word not in scored or score > scored[word]:
                scored[word] = score
    return [w for w, _ in sorted(scored.items(), key=lambda t: (-t[1], t[0]))]


def _item_texts(entities: dict[str, TaskEntity], task: TaskEntity) -> set[str]:
    return {
        entities[iid].text for sid in task.children for iid in entities[sid].children
    }


def _ask(oracle: RefinementOracle, method: str, text: str, items: list[str]):
    """oracle.<method>(text, items); any failure becomes a RefinementError
    naming the query."""
    try:
        return getattr(oracle, method)(text, items)
    except RefinementError:
        raise
    except Exception as exc:  # noqa: BLE001 - oracle boundary
        raise RefinementError(f"{method}({text!r})", str(exc))


def refine_hierarchy(
    hierarchy: TaskHierarchy,
    suggestions,
    oracle: RefinementOracle,
    r_s: float,
    r_t: float,
    word_bank: WordBank,
) -> TaskHierarchy:
    """Attach suggested items to subtasks scoring above r_s; leftovers scoring
    above r_t for the task spawn new subtasks via the oracle.

    Existing entities are never removed; within one task an item text is
    claimed by the first subtask in document order that wants it.
    """
    for threshold in (r_s, r_t):
        if not 0.0 <= threshold <= 1.0:
            raise ValidationError("refinement thresholds must lie in [0, 1]")
    suggestions = list(suggestions)
    if not suggestions:
        return hierarchy
    entities = dict(hierarchy.entities)
    null_ids = hierarchy.null_descendants()
    counter = 0

    def fresh_id(prefix: str) -> str:
        nonlocal counter
        counter += 1
        while f"{prefix}-{counter}" in entities:
            counter += 1
        return f"{prefix}-{counter}"

    def attach(parent_id: str, child: TaskEntity):
        entities[child.id] = child
        parent = entities[parent_id]
        entities[parent_id] = replace(parent, children=parent.children + (child.id,))

    def new_item(parent_id: str, text: str):
        attach(
            parent_id,
            TaskEntity(
                id=fresh_id(f"{parent_id}/added"),
                kind=KIND_ITEM,
                text=text,
                embedding=word_bank.embedding_of(text),
            ),
        )

    for task in hierarchy.entities_of_kind(KIND_TASK):
        if task.id in null_ids:
            continue
        present = _item_texts(entities, task)
        available = [s for s in suggestions if s not in present]
        if not available:
            continue
        claimed: set[str] = set()
        for sid in task.children:
            queries = [s for s in available if s not in claimed]
            if not queries:
                break
            scores = _ask(oracle, "score_items", entities[sid].text, queries)
            for text, score in zip(queries, scores):
                if score > r_s:
                    new_item(sid, text)
                    claimed.add(text)
        leftovers = [s for s in available if s not in claimed]
        if not leftovers:
            continue
        scores = _ask(oracle, "score_items", task.text, leftovers)
        wanted = [t for t, score in zip(leftovers, scores) if score > r_t]
        if not wanted:
            continue
        steps = _ask(oracle, "propose_subtasks", task.text, wanted)
        used: set[str] = set()
        for step_text, step_items in steps:
            step_items = [t for t in step_items if t in wanted and t not in used]
            if not step_items:
                continue
            new_sid = fresh_id(f"{task.id}/step")
            attach(task.id, TaskEntity(id=new_sid, kind=KIND_SUBTASK, text=step_text))
            for text in step_items:
                new_item(new_sid, text)
                used.add(text)
    return TaskHierarchy(entities, hierarchy.roots, hierarchy.null_task_id)


@dataclass(frozen=True)
class PipelineOptions:
    rounds: int = 3
    relevance_threshold: float = 0.8  # primitive selection into S_0
    r_s: float = 0.8
    r_t: float = 0.8
    temperature: float = 1.0
    solver: SolveOptions = SolveOptions()

    def __post_init__(self):
        if self.rounds < 1:
            raise ValidationError("rounds must be >= 1")


@dataclass(frozen=True)
class RoundReport:
    round_index: int
    selected_primitives: int
    solve: SolveReport
    node_counts: dict[str, int]
    grounded_subtasks: int
    suggestions: tuple[str, ...]
    hierarchy_changed: bool
    alignment_changed: bool


def derive_problem(
    hierarchy: TaskHierarchy, primitives, temperature: float = 1.0
) -> HibProblem:
    """Three-level problem from embeddings plus tree-membership lifting; the
    item conditional is combined with spatial weights when any item is
    grounded."""
    items = hierarchy.entities_of_kind(KIND_ITEM)
    p1 = embedding_conditional(primitives, items, temperature)
    if any(e.spatial is not None for e in items):
        p_s = spatial_task_conditional(primitives, items)
        p1 = combine_conditionals(p_s, p1)
    step12 = hierarchy_step_conditional(hierarchy, KIND_ITEM, KIND_SUBTASK)
    step23 = hierarchy_step_conditional(hierarchy, KIND_SUBTASK, KIND_TASK)
    p2 = lift_conditional(p1, step12)
    p3 = lift_conditional(p2, step23)
    prior = Dist.uniform(len(list(primitives)))
    return HibProblem(prior, (p1, p2, p3))


def pipeline_round(
    round_index: int,
    primitives: list[Primitive],
    hierarchy: TaskHierarchy,
    word_bank: WordBank,
    oracle: RefinementOracle,
    opts: PipelineOptions,
    carried: list[str],
    previous: SceneGraph | None,
) -> tuple[TaskHierarchy, SceneGraph, RoundReport, list[str]]:
    """One pipeline round: select relevant primitives, solve the hierarchical
    bottleneck, build and prune the scene graph, ground task entities, and
    refine the hierarchy from word suggestions plus the ``carried`` words.

    ``previous`` is the last round's graph; round 1 passes None and always
    counts as an alignment change.  Returns (refined hierarchy, graph,
    report, rejected words to carry into the next round)."""
    selected = select_relevant_primitives(
        primitives, hierarchy.entities_of_kind(KIND_ITEM), opts.relevance_threshold
    )
    if not selected:
        raise StructuralError(
            f"round {round_index}: no primitive passes the relevance threshold"
        )
    try:
        problem = derive_problem(hierarchy, selected, opts.temperature)
        state, solve_report = solve_hib(problem, opts.solver)
        full = bottom_up_construct(state, hierarchy, selected)
        graph = prune_primitives(top_down_prune(full))
    except DegenerateColumnError as exc:
        raise DegenerateColumnError(
            exc.level, exc.column, f"pipeline round {round_index}: {exc}"
        ) from exc
    except DimensionError as exc:
        raise DimensionError(f"pipeline round {round_index}: {exc}") from exc
    grounded = spatial_update(graph, hierarchy, primitives)

    kept = {primitive_id(n) for n in graph.layer_nodes(LAYER_PRIMITIVE)}
    unmatched = [p for p in selected if p.id not in kept]
    query = sorted(set(suggest_words(unmatched, word_bank)) | set(carried))
    refined = refine_hierarchy(grounded, query, oracle, opts.r_s, opts.r_t, word_bank)
    accepted = {e.text for e in refined.entities_of_kind(KIND_ITEM)}
    null_ids = refined.null_descendants()
    changed = _hierarchy_fingerprint(refined) != _hierarchy_fingerprint(hierarchy)
    realigned = previous is None or graph.alignment() != previous.alignment()
    report = RoundReport(
        round_index=round_index,
        selected_primitives=len(selected),
        solve=solve_report,
        node_counts={  # enumerate gives the layer index
            name: len(graph.layer_nodes(layer))
            for layer, name in enumerate(("primitives", "items", "subtasks", "tasks"))
        },
        grounded_subtasks=sum(
            e.spatial is not None and e.id not in null_ids
            for e in refined.entities_of_kind(KIND_SUBTASK)
        ),
        suggestions=tuple(query),
        hierarchy_changed=changed,
        alignment_changed=realigned,
    )
    # rejected words join the next round's query
    return refined, graph, report, [w for w in query if w not in accepted]


def run_pipeline(
    primitives,
    hierarchy: TaskHierarchy,
    word_bank: WordBank,
    oracle: RefinementOracle,
    opts: PipelineOptions = PipelineOptions(),
):
    """Alternate scene-hierarchy and task updates, one `pipeline_round` at a
    time; stop early when a round changes neither the hierarchy nor the
    graph alignment.  Returns (hierarchy, graph, reports)."""
    if hierarchy.null_task_id is None:
        raise StructuralError("pipeline requires a hierarchy with a null task")
    primitives = list(primitives)
    graph = None
    reports: list[RoundReport] = []
    carried: list[str] = []
    for round_index in range(1, opts.rounds + 1):
        hierarchy, graph, report, carried = pipeline_round(
            round_index, primitives, hierarchy, word_bank, oracle, opts, carried, graph
        )
        reports.append(report)
        if not report.hierarchy_changed and not report.alignment_changed:
            break
    return hierarchy, graph, reports


def _hierarchy_fingerprint(hierarchy: TaskHierarchy):
    return tuple(
        (
            e.id,
            e.kind,
            e.text,
            e.children,
            None if e.spatial is None else (e.spatial.position, e.spatial.radius),
        )
        for e in hierarchy.entities.values()
    )
