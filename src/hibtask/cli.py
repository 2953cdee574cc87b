"""Command-line interface.

Exit codes: 0 success (solve: converged), 1 input/parse/dimension errors,
2 solve hit max_iter without converging, 3 degenerate encoder column.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from . import files
from .errors import DegenerateColumnError, HibTaskError, ParseError
from .geometry import union_box
from .hierarchy import KIND_TASK
from .metrics import PredictedSubtask, grounding_accuracy, hta_metrics
from .scene_graph import (
    LAYER_ITEM,
    LAYER_PRIMITIVE,
    SceneGraph,
    bottom_up_construct,
    primitive_id,
    prune_primitives,
    top_down_prune,
)
from .solver import (
    DISTORTION_DECODER_FIRST,
    DISTORTION_INPUT_FIRST,
    INIT_KRONECKER,
    INIT_PERTURBED,
    SolveOptions,
    solve_hdib,
    solve_hib,
)
from .task_update import PipelineOptions, run_pipeline

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOT_CONVERGED = 2
EXIT_DEGENERATE = 3

_INIT_FLAGS = {"delta": INIT_KRONECKER, "perturb": INIT_PERTURBED}
_DISTORTION_FLAGS = {
    "decoder-first": DISTORTION_DECODER_FIRST,
    "input-first": DISTORTION_INPUT_FIRST,
}


def _solver_options(args, file_options: SolveOptions | None) -> SolveOptions:
    """Explicit flags win, then the problem file's recorded options, then
    the package defaults."""
    opts = file_options or SolveOptions()
    updates = {}
    for name in ("beta", "alpha", "min_iter", "max_iter", "tol", "seed"):
        value = getattr(args, name)
        if value is not None:
            updates[name] = value
    if args.init is not None:
        updates["init"] = _INIT_FLAGS[args.init]
    if args.distortion is not None:
        updates["distortion"] = _DISTORTION_FLAGS[args.distortion]
    return replace(opts, **updates)


def _write_jsonl(path, records):
    """One JSON object per line, to path or, when path is None, stdout."""
    sink = open(path, "w") if path else sys.stdout
    try:
        for record in records:
            sink.write(json.dumps(record) + "\n")
    finally:
        if path:
            sink.close()


def _cmd_solve(args) -> int:
    problem, file_options = files.load_problem(args.problem)
    opts = _solver_options(args, file_options)
    if args.mode == "ib" and problem.n != 1:
        raise ParseError(args.problem, "task_conditionals", "--mode ib needs n = 1")
    solve = solve_hdib if args.mode == "hdib" else solve_hib
    state, report = solve(problem, opts)
    files.save_solution(state, report, args.out)
    _write_jsonl(
        args.trace,
        (
            {"iteration": i, "objective": obj, "residual": res}
            for i, (obj, res) in enumerate(
                zip(report.objective_trace, report.residual_trace), start=1
            )
        ),
    )
    return EXIT_OK if report.converged else EXIT_NOT_CONVERGED


def _cmd_build_graph(args) -> int:
    hierarchy = files.load_hierarchy(args.hierarchy)
    primitives = files.load_scene(args.scene)
    if not primitives:
        files.save_graph(SceneGraph({}, hierarchy.null_descendants()), args.out)
        return EXIT_OK
    state, _report = files.load_solution(args.solution)
    graph = bottom_up_construct(state, hierarchy, primitives)
    if not args.no_prune:
        graph = prune_primitives(top_down_prune(graph))
    files.save_graph(graph, args.out)
    return EXIT_OK


def _cmd_pipeline(args) -> int:
    primitives = files.load_scene(args.scene)
    hierarchy = files.load_hierarchy(args.hierarchy)
    bank = files.load_word_bank(args.word_bank)
    oracle = files.load_oracle(args.oracle)
    solver = SolveOptions() if args.beta is None else SolveOptions(beta=args.beta)
    opts = PipelineOptions(
        rounds=args.rounds,
        relevance_threshold=args.threshold,
        r_s=args.rs,
        r_t=args.rt,
        temperature=args.temperature,
        solver=solver,
    )
    final_hierarchy, graph, reports = run_pipeline(
        primitives, hierarchy, bank, oracle, opts
    )
    files.save_graph(graph, args.out_graph)
    files.save_hierarchy(final_hierarchy, args.out_hierarchy)
    _write_jsonl(
        args.reports,
        (
            {
                "round": rep.round_index,
                "selected_primitives": rep.selected_primitives,
                "iterations": rep.solve.iterations,
                "converged": rep.solve.converged,
                "objective": rep.solve.objective_trace[-1],
                "node_counts": rep.node_counts,
                "grounded_subtasks": rep.grounded_subtasks,
                "suggestions": list(rep.suggestions),
                "hierarchy_changed": rep.hierarchy_changed,
                "alignment_changed": rep.alignment_changed,
            }
            for rep in reports
        ),
    )
    return EXIT_OK


def _predictions(graph, hierarchy, grounded_only: bool):
    """Per real task (by text): one PredictedSubtask per subtask entity, in
    document order; objects are the primitive ids under the aligned node."""
    node_by_entity = {
        n.entity_id: n for n in graph.nodes.values() if n.entity_id is not None
    }
    null_ids = hierarchy.null_descendants()
    out: dict[str, list[PredictedSubtask]] = {}
    for task in hierarchy.entities_of_kind(KIND_TASK):
        if task.id in null_ids:
            continue
        preds = []
        for sid in task.children:
            node = node_by_entity.get(sid)
            if node is None:
                if not grounded_only:
                    preds.append(PredictedSubtask())
                continue
            prim_ids = []
            boxes = []
            for item in graph.children(node.id):
                if item.layer != LAYER_ITEM:
                    continue
                for prim in graph.children(item.id):
                    if prim.layer == LAYER_PRIMITIVE:
                        prim_ids.append(primitive_id(prim))
                        boxes.append(prim.bbox)
            centroid = tuple(union_box(boxes).center) if boxes else None
            if grounded_only and not prim_ids:
                continue
            preds.append(PredictedSubtask(frozenset(prim_ids), centroid))
        out[task.text] = preds
    return out


def _cmd_eval(args) -> int:
    graph = files.load_graph(args.graph)
    hierarchy = files.load_hierarchy(args.hierarchy)
    reference = files.load_reference(args.reference)
    if args.metric == "grounding":
        predicted = _predictions(graph, hierarchy, grounded_only=False)
        s_acc, t_acc = grounding_accuracy(predicted, reference)
        print(json.dumps({"s_acc": s_acc, "t_acc": t_acc}))
    else:
        predicted = _predictions(graph, hierarchy, grounded_only=True)
        s_rec, s_prec, t_acc = hta_metrics(predicted, reference)
        print(json.dumps({"s_rec": s_rec, "s_prec": s_prec, "t_acc": t_acc}))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hibtask",
        description="Hierarchical information-bottleneck solvers and the "
        "task-driven scene-graph pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run a solver on a problem file")
    solve.add_argument("problem")
    solve.add_argument("--mode", choices=["hib", "hdib", "ib"], default="hib")
    solve.add_argument("--beta", type=float)
    solve.add_argument("--alpha", type=float)
    solve.add_argument("--min-iter", dest="min_iter", type=int)
    solve.add_argument("--max-iter", dest="max_iter", type=int)
    solve.add_argument("--tol", type=float)
    solve.add_argument("--init", choices=sorted(_INIT_FLAGS))
    solve.add_argument(
        "--distortion",
        choices=sorted(_DISTORTION_FLAGS),
        help="KL argument order in the encoder update (decoder-first is the "
        "printed update; input-first is the classical, provably convergent one)",
    )
    solve.add_argument("--seed", type=int)
    solve.add_argument("--out", required=True)
    solve.add_argument("--trace", help="JSONL per-sweep trace (default stdout)")
    solve.set_defaults(func=_cmd_solve)

    build = sub.add_parser("build-graph", help="scene graph from a solution")
    build.add_argument("solution")
    build.add_argument("hierarchy")
    build.add_argument("scene")
    build.add_argument("--out", required=True)
    build.add_argument(
        "--no-prune", action="store_true", help="emit the pre-prune graph"
    )
    build.set_defaults(func=_cmd_build_graph)

    pipe = sub.add_parser("pipeline", help="alternating hierarchy/scene updates")
    pipe.add_argument("scene")
    pipe.add_argument("hierarchy")
    pipe.add_argument("word_bank")
    pipe.add_argument("oracle")
    pipe.add_argument("--rounds", type=int, default=3)
    pipe.add_argument("--rs", type=float, default=0.8)
    pipe.add_argument("--rt", type=float, default=0.8)
    pipe.add_argument("--beta", type=float)
    pipe.add_argument(
        "--threshold", type=float, default=0.8, help="primitive relevance cut"
    )
    pipe.add_argument(
        "--temperature", type=float, default=1.0, help="item softmax temperature"
    )
    pipe.add_argument("--out-graph", required=True)
    pipe.add_argument("--out-hierarchy", required=True)
    pipe.add_argument("--reports", help="JSONL per-round reports (default stdout)")
    pipe.set_defaults(func=_cmd_pipeline)

    ev = sub.add_parser("eval", help="score predictions against a reference")
    ev.add_argument("--graph", required=True)
    ev.add_argument("--hierarchy", required=True)
    ev.add_argument("--reference", required=True)
    ev.add_argument("--metric", choices=["grounding", "hta"], default="hta")
    ev.set_defaults(func=_cmd_eval)
    return parser


# built once: an argparse parser is a web of reference cycles, which a parser
# per call would leave for the cyclic garbage collector
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except DegenerateColumnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except HibTaskError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
