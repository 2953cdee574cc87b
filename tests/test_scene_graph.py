from dataclasses import replace

import numpy as np
import pytest

from hibtask import (
    Box,
    ConfidenceUndefinedError,
    Dist,
    Primitive,
    SceneGraph,
    SceneNode,
    SolveOptions,
    StructuralError,
    TaskEntity,
    TaskHierarchy,
    bayes_invert,
    bottom_up_construct,
    confidence,
    prune_primitives,
    solve_hib,
    top_down_prune,
)
from hibtask.geometry import union_box
from hibtask.scene_graph import (
    LAYER_ITEM,
    LAYER_NAMES,
    LAYER_PRIMITIVE,
    LAYER_SUBTASK,
    LAYER_TASK,
    _merge_overlapping,
)
from tests.conftest import random_problem


def tutorial_hierarchy():
    ents = {}
    for e in [
        TaskEntity(id="task-gamma", kind="task", text="Gamma", children=("sub-A",)),
        TaskEntity(id="task-omega", kind="task", text="Omega", children=("sub-B", "sub-C")),
        TaskEntity(id="sub-A", kind="subtask", text="A", children=("item-p",)),
        TaskEntity(id="sub-B", kind="subtask", text="B", children=("item-q",)),
        TaskEntity(id="sub-C", kind="subtask", text="C", children=("item-r", "item-s")),
        TaskEntity(id="item-p", kind="item", text="p"),
        TaskEntity(id="item-q", kind="item", text="q"),
        TaskEntity(id="item-r", kind="item", text="r"),
        TaskEntity(id="item-s", kind="item", text="s"),
    ]:
        ents[e.id] = e
    return TaskHierarchy(ents, ("task-gamma", "task-omega"))


def spaced_primitives(n, dim=None):
    prims = []
    for j in range(n):
        emb = np.zeros(dim or n)
        emb[j] = 1.0
        x = 2.0 * j
        prims.append(
            Primitive(
                f"x{j + 1}",
                (x + 0.5, 0.5, 0.5),
                Box((x, 0, 0), (x + 1, 1, 1)),
                emb,
            )
        )
    return prims


@pytest.fixture
def tutorial_graph(tutorial_problem):
    state, _ = solve_hib(tutorial_problem, SolveOptions(beta=100.0))
    hierarchy = tutorial_hierarchy()
    graph = bottom_up_construct(state, hierarchy, spaced_primitives(5))
    return state, hierarchy, graph


class TestBottomUpConstruct:
    def test_tutorial_structure_matches_figure(self, tutorial_graph):
        state, hierarchy, graph = tutorial_graph
        items = graph.layer_nodes(LAYER_ITEM)
        assert len(items) == 4  # x3 and x4 share a node
        shared = [n for n in items if n.cluster == 2]
        assert len(shared) == 1
        prim_children = [
            c.id for c in graph.children(shared[0].id) if c.layer == LAYER_PRIMITIVE
        ]
        assert sorted(prim_children) == ["prim:x3", "prim:x4"]
        assert shared[0].entity_id == "item-s"
        subtask_align = {
            n.entity_id for n in graph.layer_nodes(LAYER_SUBTASK)
        }
        assert subtask_align == {"sub-A", "sub-B", "sub-C"}
        task_nodes = graph.layer_nodes(LAYER_TASK)
        by_entity = {n.entity_id: n for n in task_nodes}
        assert set(by_entity) == {"task-gamma", "task-omega"}
        # Omega parents the subtask nodes aligned to B and C
        omega_children = {
            n.entity_id for n in graph.children(by_entity["task-omega"].id)
        }
        assert omega_children == {"sub-B", "sub-C"}

    def test_single_cluster_chain(self):
        from hibtask import CondTable, HibProblem

        cond = CondTable(np.full((1, 3), 1.0))
        problem = HibProblem(Dist.uniform(3), (cond, cond, cond), (1, 1, 1))
        state, _ = solve_hib(problem, SolveOptions(beta=10.0))
        ents = {
            "t": TaskEntity(id="t", kind="task", text="t", children=("s",)),
            "s": TaskEntity(id="s", kind="subtask", text="s", children=("i",)),
            "i": TaskEntity(id="i", kind="item", text="i"),
        }
        graph = bottom_up_construct(state, TaskHierarchy(ents, ("t",)), spaced_primitives(3))
        assert len(graph.layer_nodes(LAYER_ITEM)) == 1
        assert len(graph.layer_nodes(LAYER_SUBTASK)) == 1
        assert len(graph.layer_nodes(LAYER_TASK)) == 1

    def test_edges_reproduce_argmax_exhaustively(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            m0 = int(rng.integers(2, 7))
            problem = random_problem(rng, max_dim=6, max_levels=3)
            if problem.n != 3:
                continue
            hierarchy = _hierarchy_for(problem)
            state, _ = solve_hib(problem, SolveOptions(beta=10.0))
            prims = spaced_primitives(len(problem.prior))
            graph = bottom_up_construct(state, hierarchy, prims)
            for j, p in enumerate(prims):
                node = graph.nodes[f"prim:{p.id}"]
                parent_cluster = graph.nodes[node.parent].cluster
                assert parent_cluster == int(
                    np.argmax(state.encoders[0].matrix[:, j])
                )
            for node in graph.layer_nodes(LAYER_ITEM):
                parent_cluster = graph.nodes[node.parent].cluster
                assert parent_cluster == int(
                    np.argmax(state.encoders[1].matrix[:, node.cluster])
                )

    def test_empty_scene_gives_empty_graph(self, tutorial_problem):
        state, _ = solve_hib(tutorial_problem, SolveOptions(beta=100.0))
        with pytest.raises(Exception):
            bottom_up_construct(state, tutorial_hierarchy(), [])


def _hierarchy_for(problem):
    """A flat hierarchy with entity counts matching a 3-level problem."""
    sizes = [t.n_rows for t in problem.task_conditionals]
    ents = {}
    tasks = [f"T{i}" for i in range(sizes[2])]
    subs = [f"S{i}" for i in range(sizes[1])]
    items = [f"I{i}" for i in range(sizes[0])]
    for i, tid in enumerate(tasks):
        kids = tuple(s for j, s in enumerate(subs) if j % sizes[2] == i)
        ents[tid] = TaskEntity(id=tid, kind="task", text=tid, children=kids)
    for j, sid in enumerate(subs):
        kids = tuple(it for l, it in enumerate(items) if l % sizes[1] == j)
        ents[sid] = TaskEntity(id=sid, kind="subtask", text=sid, children=kids)
    for iid in items:
        ents[iid] = TaskEntity(id=iid, kind="item", text=iid)
    return TaskHierarchy(ents, tuple(tasks))


class TestConfidence:
    def test_independence_gives_node_mass(self):
        assert confidence(0.4, 0.2, 0.4) == pytest.approx(0.2)

    def test_direct_substitution(self):
        assert confidence(1.0, 0.2, 0.4) == pytest.approx(0.5)

    def test_zero_entity_mass_rejected(self):
        with pytest.raises(ConfidenceUndefinedError):
            confidence(0.5, 0.2, 0.0)

    def test_tutorial_node_matches_bayes_inversion(self, tutorial_graph):
        state, hierarchy, graph = tutorial_graph
        # subtask node for cluster 4 aligns to entity B; its confidence must
        # equal the Bayes inversion of the level-2 decoder
        node = next(
            n for n in graph.layer_nodes(LAYER_SUBTASK) if n.entity_id == "sub-B"
        )
        dec = state.decoders[1]
        p_t = Dist(dec.matrix @ state.marginals[2].values)
        inv = bayes_invert(dec, state.marginals[2], p_t)
        # inversion rows are clusters, columns are entities; B is row index 1
        assert node.confidence == pytest.approx(
            inv.matrix[node.cluster, 1], abs=1e-12
        )


def _hand_graph():
    """Three-layer graph with duplicate task alignment (disjoint geometry)."""
    nodes = {}
    nodes["task:0"] = SceneNode("task:0", 3, 0, "T", 0.7, None)
    nodes["task:1"] = SceneNode("task:1", 3, 1, "T", 0.3, None)
    nodes["subtask:0"] = SceneNode("subtask:0", 2, 0, "S0", 0.9, "task:0")
    nodes["subtask:1"] = SceneNode("subtask:1", 2, 1, "S1", 0.8, "task:1")
    nodes["item:0"] = SceneNode(
        "item:0", 1, 0, "I0", 0.9, "subtask:0", Box((0, 0, 0), (1, 1, 1)), (0.5, 0.5, 0.5)
    )
    nodes["item:1"] = SceneNode(
        "item:1", 1, 1, "I1", 0.8, "subtask:1", Box((5, 0, 0), (6, 1, 1)), (5.5, 0.5, 0.5)
    )
    nodes["prim:a"] = SceneNode(
        "prim:a", 0, None, None, 0.9, "item:0", Box((0, 0, 0), (1, 1, 1)), (0.5, 0.5, 0.5)
    )
    nodes["prim:b"] = SceneNode(
        "prim:b", 0, None, None, 0.8, "item:1", Box((5, 0, 0), (6, 1, 1)), (5.5, 0.5, 0.5)
    )
    return SceneGraph(nodes)


class TestTopDownPrune:
    def test_duplicate_task_lower_confidence_subtree_removed(self):
        graph = top_down_prune(_hand_graph())
        assert "task:1" not in graph.nodes
        assert "subtask:1" not in graph.nodes
        assert "item:1" not in graph.nodes
        assert "prim:b" not in graph.nodes
        assert "task:0" in graph.nodes and "item:0" in graph.nodes

    def test_all_null_gives_empty_graph(self):
        base = _hand_graph()
        graph = SceneGraph(base.nodes, frozenset({"T", "S0", "S1", "I0", "I1"}))
        assert top_down_prune(graph).nodes == {}

    def test_idempotent(self, tutorial_graph):
        _, _, graph = tutorial_graph
        once = top_down_prune(graph)
        twice = top_down_prune(once)
        assert sorted(once.nodes) == sorted(twice.nodes)
        for nid in once.nodes:
            assert once.nodes[nid] == twice.nodes[nid]

    def test_at_most_one_node_per_entity_and_acyclic(self, tutorial_graph):
        _, _, graph = tutorial_graph
        pruned = top_down_prune(graph)
        seen = {}
        for node in pruned.nodes.values():
            if node.entity_id is None:
                continue
            assert node.entity_id not in seen
            seen[node.entity_id] = node.id
        for node in pruned.nodes.values():
            if node.parent is not None:
                assert pruned.nodes[node.parent].layer == node.layer + 1

    def test_overlapping_same_entity_nodes_merge(self):
        nodes = dict(_hand_graph().nodes)
        # move the second branch on top of the first and align both items to
        # the same entity: the item nodes now merge instead of being pruned
        nodes["item:1"] = SceneNode(
            "item:1", 1, 1, "I0", 0.8, "subtask:1", Box((0.5, 0, 0), (1.5, 1, 1)), (1.0, 0.5, 0.5)
        )
        nodes["prim:b"] = SceneNode(
            "prim:b", 0, None, None, 0.8, "item:1", Box((0.5, 0, 0), (1.5, 1, 1)), (1.0, 0.5, 0.5)
        )
        graph = top_down_prune(SceneGraph(nodes))
        items = [n for n in graph.nodes.values() if n.layer == 1]
        assert len(items) == 1
        survivor = items[0]
        assert survivor.id == "item:0"
        assert survivor.confidence == pytest.approx(0.9)
        prims = {n.id for n in graph.children(survivor.id)}
        assert prims == {"prim:a", "prim:b"}


# ---------------------------------------------------------------------------
# Oracle: the restart-loop passes that the single-walk passes replace. Both
# must give the same nodes, in the same order, on every input.


def _oracle_refresh(graph):
    nodes = dict(graph.nodes)
    for layer in (LAYER_ITEM, LAYER_SUBTASK, LAYER_TASK):
        for node in [n for n in nodes.values() if n.layer == layer]:
            boxes = [
                c.bbox for c in nodes.values() if c.parent == node.id and c.bbox is not None
            ]
            if boxes:
                box = union_box(boxes)
                nodes[node.id] = replace(node, bbox=box, centroid=tuple(box.center))
            else:
                nodes[node.id] = replace(node, bbox=None, centroid=None)
    return SceneGraph(nodes, graph.null_entity_ids)


def _oracle_merge(graph):
    """Merge the first intersecting same-entity pair in id order, rescan."""
    for layer in (LAYER_ITEM, LAYER_SUBTASK, LAYER_TASK):
        nodes = dict(graph.nodes)
        changed = True
        while changed:
            changed = False
            group = sorted((n for n in nodes.values() if n.layer == layer), key=lambda n: n.id)
            pairs = ((a, b) for i, a in enumerate(group) for b in group[i + 1:])
            for a, b in pairs:
                if a.entity_id != b.entity_id or a.bbox is None or b.bbox is None:
                    continue
                if not a.bbox.intersects(b.bbox):
                    continue
                keep, drop = (b, a) if (b.confidence or 0.0) > (a.confidence or 0.0) else (a, b)
                for nid, n in list(nodes.items()):
                    if n.parent == drop.id:
                        nodes[nid] = replace(n, parent=keep.id)
                nodes[keep.id] = replace(
                    keep,
                    confidence=max(keep.confidence or 0.0, drop.confidence or 0.0),
                    bbox=keep.bbox.union(drop.bbox),
                )
                del nodes[drop.id]
                changed = True
                break
        graph = _oracle_refresh(SceneGraph(nodes, graph.null_entity_ids))
    return graph


def _oracle_descendants(nodes, node_id):
    out, stack = set(), [node_id]
    while stack:
        nid = stack.pop()
        for c in nodes.values():
            if c.parent == nid and c.id not in out:
                out.add(c.id)
                stack.append(c.id)
    return out


def _oracle_without(graph, ids):
    kept = {nid: n for nid, n in graph.nodes.items() if nid not in ids}
    for nid, n in list(kept.items()):
        if n.parent is not None and n.parent not in kept:
            kept[nid] = replace(n, parent=None)
    return SceneGraph(kept, graph.null_entity_ids)


def _oracle_top_down_prune(graph):
    graph = _oracle_merge(graph)
    for layer in (LAYER_TASK, LAYER_SUBTASK, LAYER_ITEM):
        by_entity = {}
        for node in graph.layer_nodes(layer):
            if node.entity_id is not None:
                by_entity.setdefault(node.entity_id, []).append(node)
        doomed = set()
        for entity_id in sorted(by_entity):
            group = sorted(by_entity[entity_id], key=lambda n: (-(n.confidence or 0.0), n.id))
            for loser in group[1:]:
                doomed.add(loser.id)
                doomed |= _oracle_descendants(graph.nodes, loser.id)
        graph = _oracle_without(graph, doomed)
    null_doomed = set()
    for node in graph.nodes.values():
        if node.entity_id in graph.null_entity_ids:
            null_doomed.add(node.id)
            null_doomed |= _oracle_descendants(graph.nodes, node.id)
    return _oracle_refresh(_oracle_without(graph, null_doomed))


def _random_box(rng, span):
    """A floor-plan stick, long along x or y, so that the union box of two
    crossing sticks reaches corners that neither of them reaches."""
    lo = np.append(rng.uniform(0.0, span, size=2), 0.0)
    size = np.append(rng.uniform(0.05, 0.3, size=2), 1.0)
    size[rng.integers(2)] = rng.uniform(1.0, 3.0)
    return Box(tuple(lo), tuple(lo + size))


def random_layered_graph(rng):
    """A task/subtask/item/primitive graph with few entities per layer (so
    many same-entity duplicates), heavily overlapping boxes, tied and None
    confidences, unboxed cluster nodes, and null entities."""
    confidences = (None, 0.0, 0.25, 0.5, 0.5, 0.9)
    span = float(rng.uniform(1.0, 4.0))
    n_entities = int(rng.integers(1, 4))
    boxed = float(rng.uniform(0.2, 0.9))  # share of cluster nodes given a box
    nodes = []
    parents = [None]
    for layer in (LAYER_TASK, LAYER_SUBTASK, LAYER_ITEM, LAYER_PRIMITIVE):
        count = int(rng.integers(1, 5 if layer == LAYER_TASK else 16))
        ids = [f"{LAYER_NAMES[layer]}:{i}" for i in range(count)]
        for i, nid in enumerate(ids):
            entity = None
            if layer != LAYER_PRIMITIVE and rng.random() > 0.05:
                entity = f"E{layer}.{int(rng.integers(n_entities))}"
            box = None
            if layer == LAYER_PRIMITIVE or rng.random() < boxed:
                box = _random_box(rng, span)
            nodes.append(SceneNode(
                nid, layer, i, entity,
                confidences[int(rng.integers(len(confidences)))],
                parents[int(rng.integers(len(parents)))],
                box, None if box is None else tuple(box.center),
            ))
        parents = ids
    entities = sorted({n.entity_id for n in nodes if n.entity_id is not None})
    null = {e for e in entities if rng.random() < 0.15}
    order = rng.permutation(len(nodes))
    return SceneGraph({nodes[i].id: nodes[i] for i in order}, frozenset(null))


def _node_list(graph):
    return list(graph.nodes.items())


class TestSingleWalkPassesMatchOracle:
    def test_random_layered_graphs(self):
        rng = np.random.default_rng(2020)
        for _ in range(200):
            graph = random_layered_graph(rng)
            assert _node_list(_merge_overlapping(graph)) == _node_list(_oracle_merge(graph))
            want = _oracle_top_down_prune(graph)
            got = top_down_prune(graph)
            assert _node_list(got) == _node_list(want)
            assert got.null_entity_ids == want.null_entity_ids

    def test_growth_chain_merges_all_three(self):
        # A meets B, and their union box meets C, but neither A nor B meets C
        boxes = {
            "a": Box((0, 0, 0), (1, 1, 1)),
            "b": Box((0.9, 0.9, 0), (3, 1.5, 1)),
            "c": Box((2, 0, 0), (3, 0.5, 1)),
        }
        assert not boxes["a"].intersects(boxes["c"])
        assert not boxes["b"].intersects(boxes["c"])
        nodes = {
            "task:0": SceneNode("task:0", 3, 0, "T", 1.0, None),
            "subtask:0": SceneNode("subtask:0", 2, 0, "S", 1.0, "task:0"),
        }
        for i, (name, box) in enumerate(boxes.items()):
            nodes[f"item:{i}"] = SceneNode(
                f"item:{i}", 1, i, "I", 0.5, "subtask:0", box, tuple(box.center)
            )
            nodes[f"prim:{name}"] = SceneNode(
                f"prim:{name}", 0, None, None, 0.5, f"item:{i}", box, tuple(box.center)
            )
        graph = SceneGraph(nodes)
        merged = _merge_overlapping(graph)
        assert _node_list(merged) == _node_list(_oracle_merge(graph))
        items = merged.layer_nodes(LAYER_ITEM)
        assert [n.id for n in items] == ["item:0"]  # equal confidence: lowest id
        assert {c.id for c in merged.children("item:0")} == {"prim:a", "prim:b", "prim:c"}
        assert items[0].bbox == Box((0, 0, 0), (3, 1.5, 1))


class TestPrunePrimitives:
    def _graph_with_prims(self, boxes, confidences):
        nodes = {
            "task:0": SceneNode("task:0", 3, 0, "T", 1.0, None),
            "subtask:0": SceneNode("subtask:0", 2, 0, "S", 1.0, "task:0"),
            "item:0": SceneNode("item:0", 1, 0, "I", 1.0, "subtask:0"),
        }
        for i, (box, conf) in enumerate(zip(boxes, confidences)):
            nodes[f"prim:p{i}"] = SceneNode(
                f"prim:p{i}", 0, None, None, conf, "item:0", box, tuple(box.center)
            )
        return SceneGraph(nodes)

    def test_disjoint_low_confidence_removed(self):
        boxes = [Box((0, 0, 0), (1, 1, 1)), Box((5, 0, 0), (6, 1, 1))]
        graph = prune_primitives(self._graph_with_prims(boxes, [0.9, 0.1]))
        assert "prim:p1" not in graph.nodes
        item = graph.nodes["item:0"]
        assert item.bbox == boxes[0]
        assert item.centroid == tuple(boxes[0].center)

    def test_intersecting_kept_with_union_box(self):
        boxes = [Box((0, 0, 0), (1, 1, 1)), Box((0.5, 0, 0), (2, 1, 1))]
        graph = prune_primitives(self._graph_with_prims(boxes, [0.9, 0.1]))
        assert "prim:p1" in graph.nodes
        assert graph.nodes["item:0"].bbox == Box((0, 0, 0), (2, 1, 1))

    def test_single_primitive_unchanged(self):
        boxes = [Box((0, 0, 0), (1, 1, 1))]
        graph = prune_primitives(self._graph_with_prims(boxes, [0.5]))
        assert "prim:p0" in graph.nodes

    def test_touching_faces_count_as_intersecting(self):
        boxes = [Box((0, 0, 0), (1, 1, 1)), Box((1, 0, 0), (2, 1, 1))]
        graph = prune_primitives(self._graph_with_prims(boxes, [0.9, 0.1]))
        assert "prim:p1" in graph.nodes

    def test_item_without_primitives_rejected(self):
        nodes = {
            "item:0": SceneNode("item:0", 1, 0, "I", 1.0, None),
        }
        with pytest.raises(StructuralError):
            prune_primitives(SceneGraph(nodes))

    def test_union_keeps_the_later_signed_zero(self):
        # 0.0 and -0.0 tie; the union keeps the later box's corner, as a
        # left-to-right np.minimum / np.maximum fold does
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            los = rng.choice([-1.0, -0.0, 0.0], size=(n, 3))
            his = rng.choice([-0.0, 0.0, 1.0], size=(n, 3))
            boxes = [Box(tuple(lo), tuple(hi)) for lo, hi in zip(los, his)]
            lo, hi = los[0], his[0]
            for b_lo, b_hi in zip(los[1:], his[1:]):
                lo, hi = np.minimum(lo, b_lo), np.maximum(hi, b_hi)
            unions = [union_box(boxes)]
            if n == 2:
                unions.append(boxes[0].union(boxes[1]))
            for got in unions:
                assert got == Box(tuple(lo), tuple(hi))
                assert list(np.signbit(got.lo)) == list(np.signbit(lo))
                assert list(np.signbit(got.hi)) == list(np.signbit(hi))
        graph = prune_primitives(self._graph_with_prims(
            [Box((-0.0, 0, 0), (0.0, 1, 1)), Box((0.0, 0, 0), (-0.0, 1, 1))], [0.9, 0.1]
        ))
        item = graph.nodes["item:0"].bbox
        assert not np.signbit(item.lo[0]) and np.signbit(item.hi[0])

    def test_never_enlarges_and_bbox_contains_kept(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            boxes = []
            for _ in range(int(rng.integers(1, 6))):
                lo = rng.uniform(0, 5, size=3)
                hi = lo + rng.uniform(0.1, 2.0, size=3)
                boxes.append(Box(tuple(lo), tuple(hi)))
            confs = list(rng.uniform(0.1, 1.0, size=len(boxes)))
            before = self._graph_with_prims(boxes, confs)
            after = prune_primitives(before)
            kept = [n for n in after.nodes.values() if n.layer == 0]
            assert len(kept) <= len(boxes)
            item_box = after.nodes["item:0"].bbox
            for node in kept:
                assert item_box.contains(node.bbox.lo)
                assert item_box.contains(node.bbox.hi)
