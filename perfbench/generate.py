"""Seeded input generator for the benchmark.

Every input is a pure function of (workload, seed, size): a world of tasks,
subtasks and items with unit embeddings, a scene of boxed primitives (most
matched to an item, the rest "extras" that only the null task attracts), a
word bank holding the extras' words and a lookup-table oracle.  Files are
written with the frozen reference package (``hibtask_ref``), so the inputs
stay byte-identical however the program under test changes.

The idioms follow ``fixtures/generate_fixtures.py``: unit embeddings built
from a shared "generic" direction plus an orthogonal component, a null task
whose item embodies that direction, and a bank whose word embeddings equal
the extras' embeddings.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hibtask_ref import (
    Box,
    Primitive,
    SolveOptions,
    TableOracle,
    TaskEntity,
    TaskHierarchy,
    WordBank,
    files,
    solve_hib,
)
from hibtask_ref.task_update import derive_problem

# cosine of an extra to the generic (null-item) direction; above the 0.8
# relevance cut, so extras are selected, and below 1, so they stay distinct
EXTRA_GENERIC_COS = 0.9
# cosine range of a matched primitive to its item
MATCHED_COS = (0.88, 0.97)
ORACLE_SCORE = 0.9  # above the default r_s = r_t = 0.8
# item softmax temperature, as the documented pipeline runs use it; at the
# CLI default of 1, cosines in [-1, 1] give nearly uniform item
# conditionals and every solve collapses to one cluster
TEMPERATURE = 0.15
# room extents in meters; small enough that the spatial weights
# exp(-(d - r)^2 / r^2) of every primitive stay above float underflow, so
# the item conditionals have no exact zeros and no encoder column degenerates
ROOM = (6.0, 6.0, 2.5)


@dataclass(frozen=True)
class WorldSize:
    tasks: int
    subtasks_per_task: int
    items_per_subtask: int
    prims_per_item: int
    extra_words: int
    extras_per_word: int
    dim: int = 64


@dataclass(frozen=True)
class World:
    primitives: list
    hierarchy: TaskHierarchy
    bank: WordBank
    oracle: TableOracle


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _orthogonal_unit(rng, dim: int, against: list[np.ndarray]) -> np.ndarray:
    """Random unit vector orthogonal to every (unit, mutually orthogonal)
    vector in ``against``."""
    v = rng.standard_normal(dim)
    for a in against:
        v = v - np.dot(v, a) * a
    return _unit(v)


def _mix(base: np.ndarray, cos: float, other: np.ndarray) -> np.ndarray:
    """Unit vector at the given cosine to ``base`` (``other`` orthogonal)."""
    return _unit(cos * base + np.sqrt(1.0 - cos * cos) * other)


def _prim(pid: str, center: np.ndarray, half: np.ndarray, emb: np.ndarray) -> Primitive:
    lo = tuple(float(c - h) for c, h in zip(center, half))
    hi = tuple(float(c + h) for c, h in zip(center, half))
    box = Box(lo, hi)
    return Primitive(pid, tuple(float(c) for c in box.center), box, emb)


def make_world(seed, size: WorldSize) -> World:
    """Build the world, scene, word bank and oracle for one seed (an int or
    a sequence of ints)."""
    rng = np.random.default_rng(seed)
    room = np.array(ROOM)
    generic = _unit(rng.standard_normal(size.dim))

    entities: dict[str, TaskEntity] = {}
    primitives: list[Primitive] = []
    roots = []
    subtasks = []  # (task id, subtask text)
    for t in range(size.tasks):
        task_id = f"task-{t}"
        sub_ids = []
        for s in range(size.subtasks_per_task):
            sub_id = f"sub-{t}.{s}"
            sub_ids.append(sub_id)
            subtasks.append((task_id, f"subtask {t}.{s}"))
            region = rng.uniform(0.15, 0.85, 3) * room
            item_ids = []
            for i in range(size.items_per_subtask):
                item_id = f"item-{t}.{s}.{i}"
                item_ids.append(item_id)
                emb = _orthogonal_unit(rng, size.dim, [generic])
                entities[item_id] = TaskEntity(
                    id=item_id, kind="item", text=f"item {t}.{s}.{i}", embedding=emb
                )
                spot = region + rng.normal(0.0, 0.5, 3)
                for p in range(size.prims_per_item):
                    cos = rng.uniform(*MATCHED_COS)
                    noise = _orthogonal_unit(rng, size.dim, [emb])
                    primitives.append(
                        _prim(
                            f"p{t}.{s}.{i}.{p}",
                            spot + rng.normal(0.0, 0.25, 3),
                            rng.uniform(0.15, 0.35, 3),
                            _mix(emb, cos, noise),
                        )
                    )
            entities[sub_id] = TaskEntity(
                id=sub_id, kind="subtask", text=f"subtask {t}.{s}", children=tuple(item_ids)
            )
        entities[task_id] = TaskEntity(
            id=task_id, kind="task", text=f"task {t}", children=tuple(sub_ids)
        )
        roots.append(task_id)
    entities["task-null"] = TaskEntity(
        id="task-null", kind="task", text="null", children=("sub-null",)
    )
    entities["sub-null"] = TaskEntity(
        id="sub-null", kind="subtask", text="null step", children=("item-null",)
    )
    entities["item-null"] = TaskEntity(
        id="item-null", kind="item", text="thing", embedding=generic
    )
    hierarchy = TaskHierarchy(entities, tuple(roots), "task-null")

    # extras: one direction per word, placed together; the bank word's
    # embedding equals its extras' embedding, so suggestion finds it exactly
    words = []
    for w in range(size.extra_words):
        word = f"object {w}"
        emb = _mix(generic, EXTRA_GENERIC_COS, _orthogonal_unit(rng, size.dim, [generic]))
        words.append((word, emb))
        spot = rng.uniform(0.1, 0.9, 3) * room
        for e in range(size.extras_per_word):
            primitives.append(
                _prim(
                    f"x{w}.{e}",
                    spot + rng.normal(0.0, 0.3, 3),
                    rng.uniform(0.15, 0.35, 3),
                    emb,
                )
            )
    bank = WordBank(tuple(words))

    # even words join an existing subtask; odd words are wanted by a task
    # and proposed, in pairs, as new subtasks
    scores = {}
    wanted: dict[str, list[str]] = {}  # task text -> words it wants
    for w, (word, _emb) in enumerate(words):
        task_id, sub_text = subtasks[int(rng.integers(len(subtasks)))]
        if w % 2 == 0:
            scores[(sub_text, word)] = ORACLE_SCORE
        else:
            task_text = entities[task_id].text
            scores[(task_text, word)] = ORACLE_SCORE
            wanted.setdefault(task_text, []).append(word)
    proposals = {
        task: tuple(
            (f"{task} step {k // 2}", tuple(group[k:k + 2])) for k in range(0, len(group), 2)
        )
        for task, group in wanted.items()
    }
    return World(primitives, hierarchy, bank, TableOracle(scores, proposals))


# ----------------------------------------------------------------- sizes

# |S_0| = 256: 64 items x 3 primitives + 32 words x 2 extras
SOLVE_LARGE = {
    "full": WorldSize(4, 4, 4, 3, 32, 2),
    "smoke": WorldSize(2, 2, 2, 2, 4, 2),
}
SOLVE_SWEEPS = {"full": 20, "smoke": 3}
SOLVE_BETA = 10.0

# about 48 primitives: 16 items x 2 primitives + 8 words x 2 extras
PIPELINE = {
    "full": WorldSize(2, 4, 2, 2, 8, 2),
    "smoke": WorldSize(1, 2, 2, 2, 4, 1),
}
PIPELINE_ROUNDS = 3
# worlds per run: the solver's stop rule makes a pipeline round take from
# 10 to 28 sweeps, so a run cycles through many worlds and its statistics
# describe the mixture.  A 10 s run reaches every one of 24 worlds; each
# costs its reference about 0.35 s before the run starts.
PIPELINE_INSTANCES = {"full": 24, "smoke": 2}

# 320 primitives: 54 items x 4 primitives + 52 words x 2 extras
GRAPH_REFINE = {
    "full": WorldSize(6, 3, 3, 4, 52, 2),
    "smoke": WorldSize(2, 2, 2, 2, 4, 2),
}
GRAPH_REFINE_BETA = 100.0
# a fixed sweep count rather than the stop rule, so generating the state
# costs the same for every seed; at beta = 100 the default rule stopped
# after 10 to 34 sweeps on seeds 1, 2, 3 and 301
GRAPH_REFINE_SWEEPS = 25


def write_solve_large(seed: int, size: str, out: Path) -> None:
    world = make_world(seed, SOLVE_LARGE[size])
    problem = derive_problem(world.hierarchy, world.primitives, TEMPERATURE)
    files.save_problem(problem, out / "problem.json")


def _write_world(world: World, out: Path) -> None:
    files.save_scene(world.primitives, out / "scene.json")
    files.save_hierarchy(world.hierarchy, out / "hierarchy.json")
    files.save_word_bank(world.bank, out / "word_bank.json")
    files.save_oracle(world.oracle, out / "oracle.json")


def write_pipeline(seed: int, size: str, out: Path) -> None:
    for i in range(PIPELINE_INSTANCES[size]):
        instance = out / f"instance-{i:02d}"
        instance.mkdir()
        _write_world(make_world((seed, i), PIPELINE[size]), instance)


def write_graph_refine(seed: int, size: str, out: Path) -> None:
    """The scene, hierarchy, bank and oracle, plus the beta = 100 solution
    on every primitive (all of them pass the relevance cut)."""
    world = make_world(seed, GRAPH_REFINE[size])
    _write_world(world, out)
    problem = derive_problem(world.hierarchy, world.primitives, TEMPERATURE)
    sweeps = GRAPH_REFINE_SWEEPS
    options = SolveOptions(beta=GRAPH_REFINE_BETA, min_iter=sweeps, max_iter=sweeps)
    state, report = solve_hib(problem, options)
    files.save_solution(state, report, out / "solution.json")


WRITERS = {
    "solve-large": write_solve_large,
    "pipeline": write_pipeline,
    "graph-refine": write_graph_refine,
}


def write_inputs(workload: str, seed: int, size: str, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    WRITERS[workload](seed, size, out)
