"""Scene-graph construction from a converged solver state, and the top-down
pruning passes that keep only the most confident task-aligned nodes."""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

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
    """Layered graph keyed by stable node ids. Nodes store only their parent
    link; the parent -> child-ids map is derived on first use, in node order,
    and cached, so `nodes` must not change after that. Every pass builds a
    new graph instead."""

    nodes: dict[str, SceneNode]
    null_entity_ids: frozenset[str] = frozenset()

    @cached_property
    def _child_ids(self) -> dict[str | None, list[str]]:
        out: dict = {}
        for nid, node in self.nodes.items():
            out.setdefault(node.parent, []).append(nid)
        return out

    def children(self, node_id: str) -> list[SceneNode]:
        return [self.nodes[cid] for cid in self._child_ids.get(node_id, ())]

    def layer_nodes(self, layer: int) -> list[SceneNode]:
        return [n for n in self.nodes.values() if n.layer == layer]

    def alignment(self) -> dict[str, str]:
        """node id -> aligned entity id, for nodes above the primitive layer."""
        return {
            n.id: n.entity_id
            for n in self.nodes.values()
            if n.layer != LAYER_PRIMITIVE and n.entity_id is not None
        }


def confidence(p_ts: float, p_s: float, p_t: float) -> float:
    """p(node | entity) = p(entity | node) p(node) / p(entity)."""
    if p_t <= 0:
        raise ConfidenceUndefinedError(f"entity marginal is {p_t!r}")
    return p_ts * p_s / p_t


def _node_id(layer: int, cluster) -> str:
    return f"{LAYER_NAMES[layer]}:{cluster}"


def primitive_id(node: SceneNode) -> str:
    """The scene id of the primitive behind a primitive-layer node."""
    return node.id.removeprefix(_node_id(LAYER_PRIMITIVE, ""))


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

    # cluster membership via argmax (first index on ties), cascading bottom-up
    clusters = np.argmax(state.encoders[0].matrix, axis=0)
    prim_cluster = {p.id: int(c) for p, c in zip(primitives, clusters)}
    used = {LAYER_ITEM: sorted(set(prim_cluster.values()))}
    parent_cluster = {}
    for layer, enc in ((LAYER_SUBTASK, state.encoders[1]), (LAYER_TASK, state.encoders[2])):
        top = np.argmax(enc.matrix, axis=0)
        parent_cluster[layer] = {c: int(top[c]) for c in used[layer - 1]}
        used[layer] = sorted(set(parent_cluster[layer].values()))

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
        nodes[_node_id(LAYER_PRIMITIVE, prim.id)] = SceneNode(
            id=_node_id(LAYER_PRIMITIVE, prim.id),
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
    """Recompute bbox/centroid of cluster nodes from their children, layer
    by layer from items upward."""
    nodes = dict(graph.nodes)
    for layer in (LAYER_ITEM, LAYER_SUBTASK, LAYER_TASK):
        for node in graph.layer_nodes(layer):
            boxes = [nodes[cid].bbox for cid in graph._child_ids.get(node.id, ())]
            boxes = [b for b in boxes if b is not None]
            box = union_box(boxes) if boxes else None
            centroid = None if box is None else tuple(box.center)
            nodes[node.id] = replace(node, bbox=box, centroid=centroid)
    return SceneGraph(nodes, graph.null_entity_ids)


def _rank(node: SceneNode) -> tuple[float, str]:
    """Sort key of the pruning passes: higher confidence first (None counts
    as 0), then the lower id."""
    return (-(node.confidence or 0.0), node.id)


def _overlap_groups(nodes: list[SceneNode]) -> list[list[SceneNode]]:
    """Group boxed nodes until no two groups' union boxes intersect."""
    groups: list[tuple[list[SceneNode], Box]] = []  # pairwise disjoint boxes
    for node in nodes:
        members, box = [node], node.bbox
        # absorb every group the box meets; the grown box may meet more
        while meets := [g for g in groups if g[1].intersects(box)]:
            groups = [g for g in groups if g not in meets]
            for group_members, group_box in meets:
                members += group_members
                box = box.union(group_box)
        groups.append((members, box))
    return [members for members, _ in groups]


def _merge_overlapping(graph: SceneGraph) -> SceneGraph:
    """Merge same-entity nodes whose boxes intersect, one layer at a time
    from items upward so derived geometry is current at each layer.

    Groups grow on their union boxes until no two groups of an entity
    intersect. Union boxes only grow, so the groups do not depend on merge
    order; a union-find over the original boxes would miss the chains that
    the growth creates. Each group's first node by `_rank` survives with the
    group's maximum confidence and adopts every member's children."""
    for layer in (LAYER_ITEM, LAYER_SUBTASK, LAYER_TASK):
        by_entity: dict[str | None, list[SceneNode]] = {}
        for node in graph.layer_nodes(layer):
            if node.bbox is not None:
                by_entity.setdefault(node.entity_id, []).append(node)
        survivor: dict[str, str] = {}  # merged-away id -> surviving id
        merged: dict[str, SceneNode] = {}
        for same_entity in by_entity.values():
            for group in _overlap_groups(same_entity):
                if len(group) > 1:
                    keep = min(group, key=_rank)
                    conf = max(n.confidence or 0.0 for n in group)
                    merged[keep.id] = replace(keep, confidence=conf)
                    survivor.update((n.id, keep.id) for n in group if n is not keep)
        nodes = {}
        for nid, node in graph.nodes.items():
            if nid not in survivor:
                node = merged.get(nid, node)
                if node.parent in survivor:
                    node = replace(node, parent=survivor[node.parent])
                nodes[nid] = node
        graph = _refresh_geometry(SceneGraph(nodes, graph.null_entity_ids))
    return graph


def top_down_prune(graph: SceneGraph) -> SceneGraph:
    """Merge overlapping same-entity nodes, then walk the layers top-down
    twice: first keep the best node by `_rank` among the surviving nodes of
    each entity, then also drop every subtree aligned to a null entity.

    The null pass comes second on purpose: a node under a null-entity node
    can still win its entity's selection, and then no node of that entity
    survives."""
    graph = _merge_overlapping(graph)
    top_down = (LAYER_TASK, LAYER_SUBTASK, LAYER_ITEM, LAYER_PRIMITIVE)
    lost: set[str] = set()
    for layer in top_down[:-1]:
        taken: set[str] = set()  # entities whose best surviving node is seen
        for node in sorted(graph.layer_nodes(layer), key=_rank):
            if node.parent in lost or node.entity_id in taken:
                lost.add(node.id)
            elif node.entity_id is not None:
                taken.add(node.entity_id)
    dropped: set[str] = set()
    null = graph.null_entity_ids
    for layer in top_down:
        for node in graph.layer_nodes(layer):
            if node.id in lost or node.parent in dropped or node.entity_id in null:
                dropped.add(node.id)
    kept = {nid: n for nid, n in graph.nodes.items() if nid not in dropped}
    return _refresh_geometry(SceneGraph(kept, graph.null_entity_ids))


def prune_primitives(graph: SceneGraph) -> SceneGraph:
    """Per item node keep the max-confidence primitive plus every primitive
    whose box intersects it; the geometry refresh then makes the node box
    the union of the kept boxes and its centroid the union-box center."""
    doomed: set[str] = set()
    for item in sorted(graph.layer_nodes(LAYER_ITEM), key=lambda n: n.id):
        prims = sorted(
            (n for n in graph.children(item.id) if n.layer == LAYER_PRIMITIVE),
            key=_rank,
        )
        if not prims:
            raise StructuralError(f"item node {item.id!r} has no primitives")
        best = prims[0]
        doomed |= {p.id for p in prims[1:] if not p.bbox.intersects(best.bbox)}
    nodes = {nid: n for nid, n in graph.nodes.items() if nid not in doomed}
    return _refresh_geometry(SceneGraph(nodes, graph.null_entity_ids))
