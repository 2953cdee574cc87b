import math

import numpy as np
import pytest

from hibtask import (
    Box,
    CondTable,
    Primitive,
    Spatial,
    StructuralError,
    TaskEntity,
    TaskHierarchy,
    ValidationError,
    embedding_conditional,
    hierarchy_step_conditional,
    lift_conditional,
    select_relevant_primitives,
)
from tests.conftest import P_OX, P_UO


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def prim(pid, embedding, center=(0.0, 0.0, 0.0)):
    c = np.asarray(center, dtype=float)
    return Primitive(pid, tuple(c), Box(tuple(c - 0.5), tuple(c + 0.5)), embedding)


def item(eid, embedding):
    return TaskEntity(id=eid, kind="item", text=eid, embedding=embedding)


def two_task_hierarchy():
    ents = {}
    for e in [
        TaskEntity(id="t1", kind="task", text="t1", children=("s1", "s2")),
        TaskEntity(id="t2", kind="task", text="t2", children=("s3", "s4")),
        TaskEntity(id="s1", kind="subtask", text="s1", children=("i1",)),
        TaskEntity(id="s2", kind="subtask", text="s2", children=("i2",)),
        TaskEntity(id="s3", kind="subtask", text="s3", children=("i3",)),
        TaskEntity(id="s4", kind="subtask", text="s4", children=("i4",)),
        TaskEntity(id="i1", kind="item", text="i1"),
        TaskEntity(id="i2", kind="item", text="i2"),
        TaskEntity(id="i3", kind="item", text="i3"),
        TaskEntity(id="i4", kind="item", text="i4"),
    ]:
        ents[e.id] = e
    return TaskHierarchy(ents, ("t1", "t2"))


class TestValidation:
    def test_cycle_rejected(self):
        ents = {
            "t": TaskEntity(id="t", kind="task", text="t", children=("s",)),
            "s": TaskEntity(id="s", kind="subtask", text="s", children=("i",)),
            "i": TaskEntity(id="i", kind="item", text="i"),
        }
        TaskHierarchy(ents, ("t",))  # sanity: valid as-is
        ents_bad = dict(ents)
        ents_bad["s"] = TaskEntity(id="s", kind="subtask", text="s", children=("i", "i"))
        with pytest.raises(StructuralError) as err:
            TaskHierarchy(ents_bad, ("t",))
        assert "i" in str(err.value)

    def test_kind_violation_rejected(self):
        ents = {
            "t": TaskEntity(id="t", kind="task", text="t", children=("i",)),
            "i": TaskEntity(id="i", kind="item", text="i"),
        }
        with pytest.raises(StructuralError):
            TaskHierarchy(ents, ("t",))

    def test_two_parents_rejected(self):
        ents = {
            "t": TaskEntity(id="t", kind="task", text="t", children=("s1", "s2")),
            "s1": TaskEntity(id="s1", kind="subtask", text="s1", children=("i",)),
            "s2": TaskEntity(id="s2", kind="subtask", text="s2", children=("i",)),
            "i": TaskEntity(id="i", kind="item", text="i"),
        }
        with pytest.raises(StructuralError):
            TaskHierarchy(ents, ("t",))

    @pytest.mark.parametrize(
        "roots, null, message",
        [
            (("t", "t"), None, "cycle or shared subtree at 't'"),
            (("t",), "n", "missing null task 'n'"),
            (("t", "n"), "n", "missing null task 'n'"),
            (("t", "x"), None, "missing root 'x'"),
            (("s",), None, "root 's' is not a task"),
            (("t",), "s", "root 's' is not a task"),
            ((), None, "orphaned entities: ['i', 's', 't']"),
        ],
    )
    def test_root_and_reachability_errors(self, roots, null, message):
        ents = {
            "t": TaskEntity(id="t", kind="task", text="t", children=("s",)),
            "s": TaskEntity(id="s", kind="subtask", text="s", children=("i",)),
            "i": TaskEntity(id="i", kind="item", text="i"),
        }
        with pytest.raises(StructuralError) as err:
            TaskHierarchy(ents, roots, null)
        assert str(err.value) == message

    def test_zero_embedding_rejected(self):
        with pytest.raises(ValidationError):
            TaskEntity(id="i", kind="item", text="i", embedding=np.zeros(3))

    def test_non_unit_embedding_rejected(self):
        with pytest.raises(ValidationError):
            TaskEntity(id="i", kind="item", text="i", embedding=np.array([0.5, 0.5]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_geometry_rejected(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            Box((0.0, bad, 0.0), (1.0, 1.0, 1.0))
        with pytest.raises(ValidationError, match="finite"):
            Box((0.0, 0.0, 0.0), (1.0, 1.0, bad))
        box = Box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        with pytest.raises(ValidationError, match="finite"):
            Primitive("p", (bad, 0.5, 0.5), box, unit([1.0, 0.0]))
        with pytest.raises(ValidationError, match="finite"):
            Spatial((0.0, bad, 0.0), 1.0)
        with pytest.raises(ValidationError, match="finite"):
            Spatial((0.0, 0.0, 0.0), bad)


def _walked_of_kind(h, kind):
    """Entities of ``kind`` by a recursive walk of the tree: the reference for
    the document order that ``TaskHierarchy`` records at construction."""
    roots = h.roots
    if h.null_task_id is not None and h.null_task_id not in roots:
        roots += (h.null_task_id,)
    out = []

    def walk(eid):
        ent = h.entities[eid]
        if ent.kind == kind:
            out.append(ent)
        for child in ent.children:
            walk(child)

    for rid in roots:
        walk(rid)
    return out


def _walked_null_subtree(h):
    if h.null_task_id is None:
        return frozenset()
    out, stack = set(), [h.null_task_id]
    while stack:
        eid = stack.pop()
        out.add(eid)
        stack.extend(h.entities[eid].children)
    return frozenset(out)


def _random_hierarchy(rng, null_place, children_first):
    """A seeded tree of 1-4 tasks (plus a null task unless ``null_place`` is
    "absent"), each with 0-3 subtasks of 0-3 items, children in random
    order; listed children before parents when ``children_first``."""
    def shuffled(ids):
        return tuple(ids[k] for k in rng.permutation(len(ids)))

    ents, roots = [], []
    n_tasks = int(rng.integers(1, 5))
    for t in range(n_tasks + (null_place != "absent")):
        tid = "null" if t == n_tasks else f"t{t}"
        subs = []
        for s in range(int(rng.integers(0, 4))):
            sid = f"{tid}.s{s}"
            items = tuple(f"{sid}.i{i}" for i in range(int(rng.integers(0, 4))))
            ents += [TaskEntity(id=i, kind="item", text=i) for i in items]
            ents.append(TaskEntity(id=sid, kind="subtask", text=sid,
                                   children=shuffled(items)))
            subs.append(sid)
        ents.append(TaskEntity(id=tid, kind="task", text=tid,
                               children=shuffled(subs)))
        if tid != "null":
            roots.append(tid)
    roots = list(shuffled(roots))
    if null_place == "listed":
        roots.insert(int(rng.integers(0, len(roots) + 1)), "null")
    if not children_first:
        ents.reverse()
    null = None if null_place == "absent" else "null"
    return TaskHierarchy({e.id: e for e in ents}, roots, null)


class TestDocumentOrder:
    @pytest.mark.parametrize("children_first", [False, True])
    @pytest.mark.parametrize("null_place", ["appended", "listed", "absent"])
    def test_matches_a_walk_of_the_tree(self, null_place, children_first):
        rng = np.random.default_rng(24)
        for _ in range(30):
            h = _random_hierarchy(rng, null_place, children_first)
            for kind in ("task", "subtask", "item"):
                walked = _walked_of_kind(h, kind)
                stored = h.entities_of_kind(kind)
                assert [e.id for e in stored] == [e.id for e in walked]
                assert all(a is b for a, b in zip(stored, walked))
            assert h.entities_of_kind("scene") == ()
            assert h.null_descendants() == _walked_null_subtree(h)


class TestEmbeddingConditional:
    def test_single_item_gives_all_ones(self):
        prims = [prim("a", unit([1, 0])), prim("b", unit([0, 1]))]
        out = embedding_conditional(prims, [item("x", unit([1, 1]))])
        assert np.allclose(out.matrix, 1.0)

    def test_orthogonal_pair_softmax(self):
        e = unit([1, 0])
        prims = [prim("a", e)]
        items = [item("same", e), item("orth", unit([0, 1]))]
        out = embedding_conditional(prims, items, temperature=1.0)
        expected = math.e / (math.e + 1.0)
        assert out.matrix[0, 0] == pytest.approx(expected, abs=1e-12)
        assert out.matrix[1, 0] == pytest.approx(1 - expected, abs=1e-12)

    def test_planted_matches_direct_softmax(self):
        rng = np.random.default_rng(2)
        prims = [prim(f"p{i}", unit(rng.normal(size=6))) for i in range(4)]
        items = [item(f"i{j}", unit(rng.normal(size=6))) for j in range(3)]
        temperature = 0.5
        out = embedding_conditional(prims, items, temperature)
        for j, p in enumerate(prims):
            scores = np.array(
                [float(np.dot(it.embedding, p.embedding)) / temperature for it in items]
            )
            expected = np.exp(scores) / np.exp(scores).sum()
            assert np.allclose(out.matrix[:, j], expected, atol=1e-12)

    def test_columns_sum_to_one_and_permutation_equivariant(self):
        rng = np.random.default_rng(3)
        prims = [prim(f"p{i}", unit(rng.normal(size=5))) for i in range(3)]
        items = [item(f"i{j}", unit(rng.normal(size=5))) for j in range(4)]
        out = embedding_conditional(prims, items)
        assert np.allclose(out.matrix.sum(axis=0), 1.0, atol=1e-12)
        perm = [2, 0, 3, 1]
        out_p = embedding_conditional(prims, [items[i] for i in perm])
        assert np.allclose(out_p.matrix, out.matrix[perm, :], atol=1e-12)

    def test_empty_items_rejected(self):
        with pytest.raises(Exception):
            embedding_conditional([prim("a", unit([1, 0]))], [])


class TestLiftConditional:
    def test_identity_step(self):
        lower = CondTable(P_UO)
        out = lift_conditional(lower, CondTable.identity(3))
        assert np.allclose(out.matrix, lower.matrix)

    def test_tutorial_lift(self):
        out = lift_conditional(CondTable(P_OX), CondTable(P_UO))
        assert np.allclose(out.matrix[:, 0], [0.60, 0.16, 0.24], atol=1e-12)
        assert np.allclose(out.matrix, P_UO @ P_OX, atol=1e-12)

    def test_uniform_step_gives_uniform(self):
        step = CondTable(np.full((2, 4), 0.5))
        out = lift_conditional(CondTable(P_OX), step)
        assert np.allclose(out.matrix, 0.5, atol=1e-12)


class TestHierarchyStepConditional:
    def test_one_hot_parents(self):
        h = two_task_hierarchy()
        table = hierarchy_step_conditional(h, "subtask", "task")
        assert table.matrix.shape == (2, 4)
        assert np.allclose(table.matrix, [[1, 1, 0, 0], [0, 0, 1, 1]])
        assert np.allclose(table.matrix.sum(axis=0), 1.0)

    def test_null_items_point_to_null_subtask(self):
        ents = {
            "t": TaskEntity(id="t", kind="task", text="t", children=("s",)),
            "s": TaskEntity(id="s", kind="subtask", text="s", children=("i",)),
            "i": TaskEntity(id="i", kind="item", text="i"),
            "null": TaskEntity(id="null", kind="task", text="null", children=("ns",)),
            "ns": TaskEntity(id="ns", kind="subtask", text="null step", children=("n1", "n2")),
            "n1": TaskEntity(id="n1", kind="item", text="item"),
            "n2": TaskEntity(id="n2", kind="item", text="thing"),
        }
        h = TaskHierarchy(ents, ("t",), "null")
        table = hierarchy_step_conditional(h, "item", "subtask")
        # items in document order: i, n1, n2; subtasks: s, ns
        assert np.allclose(table.matrix, [[1, 0, 0], [0, 1, 1]])

    def test_child_listed_before_parent(self):
        h = two_task_hierarchy()
        reordered = TaskHierarchy(
            dict(reversed(list(h.entities.items()))), h.roots, h.null_task_id
        )
        for lower, upper in (("item", "subtask"), ("subtask", "task")):
            a = hierarchy_step_conditional(h, lower, upper)
            b = hierarchy_step_conditional(reordered, lower, upper)
            assert np.array_equal(a.matrix, b.matrix)
            assert (a.row_labels, a.col_labels) == (b.row_labels, b.col_labels)

    def test_soft_tables_bypass_membership(self, tutorial_problem):
        # when explicit conditionals are supplied the tree step is not used:
        # the problem built from soft tables carries them unchanged
        assert np.allclose(
            tutorial_problem.task_conditionals[1].matrix, P_UO @ P_OX, atol=1e-12
        )


class TestSelectRelevantPrimitives:
    def test_exact_match_selected(self):
        e = unit([1, 2, 3])
        out = select_relevant_primitives([prim("a", e)], [item("x", e)], 0.8)
        assert [p.id for p in out] == ["a"]

    def test_threshold_excludes_near_one(self):
        a = unit([1.0, 0.01])
        b = unit([1.0, 0.0])
        out = select_relevant_primitives([prim("a", a)], [item("x", b)], 1.0 - 1e-9)
        assert out == []

    def test_planted_similarities(self):
        base = np.zeros(3)
        base[0] = 1.0

        def with_cos(c):
            return unit([c, math.sqrt(1 - c * c), 0.0])

        prims = [
            prim("p85", with_cos(0.85)),
            prim("p79", with_cos(0.79)),
            prim("p81", with_cos(0.81)),
        ]
        out = select_relevant_primitives(prims, [item("x", base)], 0.8)
        assert [p.id for p in out] == ["p85", "p81"]

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(5)
        prims = [prim(f"p{i}", unit(rng.normal(size=4))) for i in range(6)]
        items = [item(f"i{j}", unit(rng.normal(size=4))) for j in range(2)]
        previous = None
        for threshold in (0.0, 0.3, 0.6, 0.9):
            chosen = {p.id for p in select_relevant_primitives(prims, items, threshold)}
            if previous is not None:
                assert chosen <= previous
            previous = chosen
