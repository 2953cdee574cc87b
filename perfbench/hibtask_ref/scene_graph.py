"""Scene-graph construction from a converged solver state, and the top-down
pruning passes that keep only the most confident task-aligned nodes."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfidenceUndefinedError, DimensionError, StructuralError
from .geometry import Box, union_box
from .hierarchy import KIND_ITEM, KIND_SUBTASK, KIND_TASK, TaskHierarchy
from .probability import bayes_invert
from .solver import HibState

LAYER_PRIMITIVE = 0
LAYER_ITEM = 1
LAYER_SUBTASK = 2
LAYER_TASK = 3
LAYER_KINDS = {LAYER_ITEM: KIND_ITEM, LAYER_SUBTASK: KIND_SUBTASK, LAYER_TASK: KIND_TASK}
LAYER_NAMES = {
    LAYER_PRIMITIVE: "prim",
    LAYER_ITEM: "item",
    LAYER_SUBTASK: "subtask",
    LAYER_TASK: "task",
}


@dataclass(frozen=True)
class SceneNode:
    id: str
    layer: int
    cluster: int | None
    entity_id: str | None
    confidence: float | None
    parent: str | None
    bbox: Box | None = None
    centroid: tuple[float, float, float] | None = None


@dataclass(frozen=True)
class SceneGraph:
    """Layered graph keyed by stable node ids; parent links only (each node
    has at most one parent)."""

    nodes: dict[str, SceneNode]
    null_entity_ids: frozenset[str] = frozenset()

    def children(self, node_id: str) -> list[SceneNode]:
        return [n for n in self.nodes.values() if n.parent == node_id]

    def layer_nodes(self, layer: int) -> list[SceneNode]:
        return [n for n in self.nodes.values() if n.layer == layer]

    def descendants(self, node_id: str) -> set[str]:
        out: set[str] = set()
        stack = [node_id]
        while stack:
            nid = stack.pop()
            for child in self.children(nid):
                if child.id not in out:
                    out.add(child.id)
                    stack.append(child.id)
        return out

    def alignment(self) -> dict[str, str]:
        """node id -> aligned entity id, for nodes above the primitive layer."""
        return {
            n.id: n.entity_id
            for n in self.nodes.values()
            if n.layer != LAYER_PRIMITIVE and n.entity_id is not None
        }

    def without(self, ids) -> "SceneGraph":
        ids = set(ids)
        kept = {nid: n for nid, n in self.nodes.items() if nid not in ids}
        # drop dangling parent links of surviving nodes (parents are pruned
        # only together with their subtree, so this is just hygiene)
        for nid, n in list(kept.items()):
            if n.parent is not None and n.parent not in kept:
                kept[nid] = replace(n, parent=None)
        return SceneGraph(kept, self.null_entity_ids)


def confidence(p_ts: float, p_s: float, p_t: float) -> float:
    """p(node | entity) = p(entity | node) p(node) / p(entity)."""
    if p_t <= 0:
        raise ConfidenceUndefinedError(f"entity marginal is {p_t!r}")
    return p_ts * p_s / p_t


def _node_id(layer: int, cluster) -> str:
    return f"{LAYER_NAMES[layer]}:{cluster}"


def bottom_up_construct(
    state: HibState, hierarchy: TaskHierarchy, primitives
) -> SceneGraph:
    """Turn a converged three-level state into a layered scene graph.

    Parent edges follow the per-column argmax of each encoder; a cluster
    becomes a node only if it wins at least one argmax (nonzero hard mass).
    Each node is aligned to the argmax entity of its decoder column and
    carries the confidence p(node | entity).
    """
    primitives = list(primitives)
    if state.n != 3:
        raise DimensionError(f"scene graphs need 3 solver levels, got {state.n}")
    entity_lists = {
        layer: hierarchy.entities_of_kind(kind) for layer, kind in LAYER_KINDS.items()
    }
    for layer, entities in entity_lists.items():
        dec = state.decoders[layer - 1]
        if dec.n_rows != len(entities):
            raise DimensionError(
                f"decoder {layer} has {dec.n_rows} rows but hierarchy has "
                f"{len(entities)} {LAYER_KINDS[layer]} entities"
            )
    if len(primitives) != len(state.marginals[0]):
        raise DimensionError(
            f"{len(primitives)} primitives vs |S_0| = {len(state.marginals[0])}"
        )

    nodes: dict[str, SceneNode] = {}
    if not primitives:
        return SceneGraph({}, hierarchy.null_descendants())

    # entity marginals p(t_k) per layer, from decoders and cluster marginals
    p_t = {
        layer: state.decoders[layer - 1].matrix @ state.marginals[layer].values
        for layer in LAYER_KINDS
    }

    # cluster membership via argmax, cascading bottom-up
    enc1 = state.encoders[0].matrix
    prim_cluster = {p.id: int(np.argmax(enc1[:, j])) for j, p in enumerate(primitives)}
    used = {LAYER_ITEM: sorted(set(prim_cluster.values()))}
    for layer, enc in ((LAYER_SUBTASK, state.encoders[1]), (LAYER_TASK, state.encoders[2])):
        lower = used[layer - 1]
        used[layer] = sorted({int(np.argmax(enc.matrix[:, c])) for c in lower})

    parent_cluster = {}
    for layer, enc in ((LAYER_SUBTASK, state.encoders[1]), (LAYER_TASK, state.encoders[2])):
        parent_cluster[layer] = {
            c: int(np.argmax(enc.matrix[:, c])) for c in used[layer - 1]
        }

    for layer in (LAYER_TASK, LAYER_SUBTASK, LAYER_ITEM):
        dec = state.decoders[layer - 1].matrix
        marg = state.marginals[layer].values
        entities = entity_lists[layer]
        for c in used[layer]:
            t_idx = int(np.argmax(dec[:, c]))
            conf = confidence(float(dec[t_idx, c]), float(marg[c]), float(p_t[layer][t_idx]))
            parent = (
                _node_id(layer + 1, parent_cluster[layer + 1][c])
                if layer < LAYER_TASK
                else None
            )
            nodes[_node_id(layer, c)] = SceneNode(
                id=_node_id(layer, c),
                layer=layer,
                cluster=c,
                entity_id=entities[t_idx].id,
                confidence=conf,
                parent=parent,
            )

    # primitive nodes; confidence is the membership posterior p(x | s_1)
    posterior = bayes_invert(
        state.encoders[0], state.marginals[0], state.marginals[1]
    ).matrix
    for j, prim in enumerate(primitives):
        c = prim_cluster[prim.id]
        nodes[f"prim:{prim.id}"] = SceneNode(
            id=f"prim:{prim.id}",
            layer=LAYER_PRIMITIVE,
            cluster=None,
            entity_id=None,
            confidence=float(posterior[j, c]),
            parent=_node_id(LAYER_ITEM, c),
            bbox=prim.bbox,
            centroid=prim.centroid,
        )

    graph = SceneGraph(nodes, hierarchy.null_descendants())
    return _refresh_geometry(graph)


def _refresh_geometry(graph: SceneGraph) -> SceneGraph:
    """Recompute bbox/centroid of cluster nodes from their descendants."""
    nodes = dict(graph.nodes)
    for layer in (LAYER_ITEM, LAYER_SUBTASK, LAYER_TASK):
        for node in [n for n in nodes.values() if n.layer == layer]:
            child_boxes = [
                c.bbox
                for c in nodes.values()
                if c.parent == node.id and c.bbox is not None
            ]
            if child_boxes:
                box = union_box(child_boxes)
                nodes[node.id] = replace(
                    node, bbox=box, centroid=tuple(box.center)
                )
            else:
                nodes[node.id] = replace(node, bbox=None, centroid=None)
    return SceneGraph(nodes, graph.null_entity_ids)


def _merge_overlapping(graph: SceneGraph) -> SceneGraph:
    """Merge same-entity nodes whose boxes intersect, one layer at a time
    from items upward so derived geometry is current at each layer.

    The higher-confidence node survives (lowest id on ties), children are
    re-parented onto it, and its confidence becomes the max of the pair."""
    for layer in (LAYER_ITEM, LAYER_SUBTASK, LAYER_TASK):
        nodes = dict(graph.nodes)
        changed = True
        while changed:
            changed = False
            group = sorted(
                (n for n in nodes.values() if n.layer == layer),
                key=lambda n: n.id,
            )
            for i in range(len(group)):
                for j in range(i + 1, len(group)):
                    a, b = group[i], group[j]
                    if a.entity_id != b.entity_id:
                        continue
                    if a.bbox is None or b.bbox is None or not a.bbox.intersects(b.bbox):
                        continue
                    if (b.confidence or 0.0) > (a.confidence or 0.0):
                        keep, drop = b, a
                    else:
                        keep, drop = a, b  # ties keep the lower id (a sorts first)
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
                if changed:
                    break
        graph = _refresh_geometry(SceneGraph(nodes, graph.null_entity_ids))
    return graph


def top_down_prune(graph: SceneGraph) -> SceneGraph:
    """Merge overlapping same-entity nodes, then keep a single
    max-confidence node per task entity (top-down), then drop every subtree
    aligned to the null task."""
    graph = _merge_overlapping(graph)
    for layer in (LAYER_TASK, LAYER_SUBTASK, LAYER_ITEM):
        by_entity: dict[str, list[SceneNode]] = {}
        for node in graph.layer_nodes(layer):
            if node.entity_id is not None:
                by_entity.setdefault(node.entity_id, []).append(node)
        doomed: set[str] = set()
        for entity_id in sorted(by_entity):
            group = sorted(
                by_entity[entity_id], key=lambda n: (-(n.confidence or 0.0), n.id)
            )
            for loser in group[1:]:
                doomed.add(loser.id)
                doomed |= graph.descendants(loser.id)
        if doomed:
            graph = graph.without(doomed)
    null_doomed: set[str] = set()
    for node in graph.nodes.values():
        if node.entity_id in graph.null_entity_ids:
            null_doomed.add(node.id)
            null_doomed |= graph.descendants(node.id)
    if null_doomed:
        graph = graph.without(null_doomed)
    return _refresh_geometry(graph)


def prune_primitives(graph: SceneGraph) -> SceneGraph:
    """Per item node keep the max-confidence primitive plus every primitive
    whose box intersects it; the node box becomes the union of the kept
    boxes and its centroid the union-box center."""
    nodes = dict(graph.nodes)
    doomed: set[str] = set()
    for item in sorted((n for n in graph.layer_nodes(LAYER_ITEM)), key=lambda n: n.id):
        prims = sorted(
            (n for n in graph.children(item.id) if n.layer == LAYER_PRIMITIVE),
            key=lambda n: (-(n.confidence or 0.0), n.id),
        )
        if not prims:
            raise StructuralError(f"item node {item.id!r} has no primitives")
        best = prims[0]
        kept = [p for p in prims if p is best or p.bbox.intersects(best.bbox)]
        doomed |= {p.id for p in prims if p not in kept}
        box = union_box([p.bbox for p in kept])
        nodes[item.id] = replace(item, bbox=box, centroid=tuple(box.center))
    for nid in doomed:
        del nodes[nid]
    return _refresh_geometry(SceneGraph(nodes, graph.null_entity_ids))
