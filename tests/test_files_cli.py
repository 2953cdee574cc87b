import gc
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hibtask import HibProblem, ParseError, SolveOptions, files, solve_hib
from hibtask.cli import main
from tests.conftest import random_cond, random_dist


def _roundtrip(save, load, obj, path):
    save(obj, path)
    first = path.read_bytes()
    save(load(path), path)
    assert path.read_bytes() == first


class TestRoundTrips:
    def test_problem(self, fixtures_dir, tmp_path):
        problem, opts = files.load_problem(fixtures_dir / "tutorial" / "problem.json")
        out = tmp_path / "p.json"
        files.save_problem(problem, out, opts)
        again, opts2 = files.load_problem(out)
        assert opts2 == opts
        assert np.array_equal(again.prior.values, problem.prior.values)
        for a, b in zip(again.task_conditionals, problem.task_conditionals):
            assert np.array_equal(a.matrix, b.matrix)
            assert a.row_labels == b.row_labels
        files.save_problem(again, out, opts2)
        assert out.read_bytes() == (tmp_path / "p.json").read_bytes()

    def test_every_fixture_roundtrips_bytewise(self, fixtures_dir, tmp_path):
        cases = [
            ("tutorial/problem.json", files.load_problem,
             lambda o, p: files.save_problem(o[0], p, o[1])),
            ("tutorial/hierarchy.json", files.load_hierarchy, files.save_hierarchy),
            ("tutorial/scene.json", files.load_scene, files.save_scene),
            ("sequential/easy_problem.json", files.load_problem,
             lambda o, p: files.save_problem(o[0], p, o[1])),
            ("sequential/perturbed_problem.json", files.load_problem,
             lambda o, p: files.save_problem(o[0], p, o[1])),
            ("pipeline/scene.json", files.load_scene, files.save_scene),
            ("pipeline/hierarchy.json", files.load_hierarchy, files.save_hierarchy),
            ("pipeline/word_bank.json", files.load_word_bank, files.save_word_bank),
            ("pipeline/oracle.json", files.load_oracle, files.save_oracle),
            ("metrics/hta_graph.json", files.load_graph, files.save_graph),
            ("metrics/hta_reference.json", files.load_reference, files.save_reference),
        ]
        for rel, load, save in cases:
            src = fixtures_dir / rel
            obj = load(src)
            out = tmp_path / src.name
            save(obj, out)
            assert out.read_text() == src.read_text(), rel

    def test_solution_roundtrip(self, fixtures_dir, tmp_path):
        problem, opts = files.load_problem(fixtures_dir / "tutorial" / "problem.json")
        state, report = solve_hib(problem, opts)
        out = tmp_path / "s.json"
        files.save_solution(state, report, out)
        state2, report2 = files.load_solution(out)
        assert report2 == report
        for a, b in zip(state.encoders, state2.encoders):
            assert np.array_equal(a.matrix, b.matrix)
        files.save_solution(state2, report2, tmp_path / "s2.json")
        assert (tmp_path / "s2.json").read_bytes() == out.read_bytes()

    def test_parse_errors_carry_location(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ParseError) as err:
            files.load_problem(bad)
        assert "line" in str(err.value)
        missing = tmp_path / "missing.json"
        missing.write_text(json.dumps({"task_conditionals": []}))
        with pytest.raises(ParseError) as err:
            files.load_problem(missing)
        assert "prior" in str(err.value)


def _oracle_bytes(payload) -> bytes:
    return (json.dumps(payload, indent=2) + "\n").encode("utf-8")


_TEXT = st.text(max_size=8) | st.sampled_from(
    ['"\\/\b\n\t\x00\x1f\x7f', "\u00e9\u2603\U0001d11e"]
)
_FLOATS = st.floats() | st.sampled_from(
    [-0.0, 5e-324, 1e16, math.inf, -math.inf, math.nan]
)
_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.integers(-10**80, 10**80)
    | _FLOATS | _TEXT
)


def _nested(inner):
    return (
        st.lists(inner, max_size=5)
        | st.lists(inner, max_size=5).map(tuple)
        | st.tuples(_SCALARS, st.lists(inner, max_size=5)).map(list)
        | st.dictionaries(_TEXT, inner, max_size=5)
    )


# three levels of containers, with every kind of scalar at every level
_VALUES = _SCALARS | _nested(_SCALARS | _nested(_SCALARS | _nested(_SCALARS)))


class TestWriter:
    """The file writer reproduces ``json.dumps(payload, indent=2)`` exactly."""

    @given(st.dictionaries(_TEXT, _VALUES, max_size=4) | _VALUES)
    @settings(max_examples=200, deadline=None)
    def test_matches_indent_2_encoder(self, payload):
        assert files._dumps(payload) == json.dumps(payload, indent=2) + "\n"

    @pytest.fixture
    def recorded(self, monkeypatch):
        """Every (payload, path) that goes through ``files._dump``."""
        calls = []
        dump = files._dump

        def record(payload, path):
            calls.append((payload, path))
            dump(payload, path)

        monkeypatch.setattr(files, "_dump", record)
        return calls

    def test_large_solution_bytes(self, recorded, tmp_path):
        rng = np.random.default_rng(5)
        problem = HibProblem(
            random_dist(rng, 256),
            tuple(random_cond(rng, rows, 256) for rows in (12, 6, 3)),
        )
        state, report = solve_hib(problem, SolveOptions(min_iter=1, max_iter=3))
        files.save_solution(state, report, tmp_path / "solution.json")
        [(payload, path)] = recorded
        assert len(payload["encoders"][0]["matrix"]) == 256
        assert path.read_bytes() == _oracle_bytes(payload)

    def test_pipeline_graph_and_hierarchy_bytes(self, recorded, fixtures_dir, tmp_path):
        pipe = fixtures_dir / "pipeline"
        graph, hierarchy = tmp_path / "graph.json", tmp_path / "hierarchy.json"
        code = main(
            [
                "pipeline",
                *(str(pipe / name) for name in
                  ("scene.json", "hierarchy.json", "word_bank.json", "oracle.json")),
                "--temperature", "0.15",
                "--out-graph", str(graph),
                "--out-hierarchy", str(hierarchy),
                "--reports", str(tmp_path / "reports.jsonl"),
            ]
        )
        assert code == 0
        written = {str(path): payload for payload, path in recorded}
        assert set(written) == {str(graph), str(hierarchy)}
        assert any("bbox" in n for n in written[str(graph)]["nodes"])
        assert any("embedding" in e for e in written[str(hierarchy)]["entities"])
        for out in (graph, hierarchy):
            assert out.read_bytes() == _oracle_bytes(written[str(out)])


class TestCliSolve:
    def test_tutorial_solve_converges(self, fixtures_dir, tmp_path, capsys):
        out = tmp_path / "solution.json"
        trace = tmp_path / "trace.jsonl"
        code = main(
            [
                "solve",
                str(fixtures_dir / "tutorial" / "problem.json"),
                "--out",
                str(out),
                "--trace",
                str(trace),
            ]
        )
        assert code == 0
        state, report = files.load_solution(out)
        assert report.converged
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        assert len(records) == report.iterations
        assert records[0]["iteration"] == 1
        assert records[-1]["objective"] == report.objective_trace[-1]

    def test_ib_mode_matches_hib_on_single_level(self, fixtures_dir, tmp_path):
        problem = fixtures_dir / "sequential" / "easy_problem.json"
        # restrict to one level for ib mode
        import hibtask.files as F

        p, opts = F.load_problem(problem)
        single = tmp_path / "single.json"
        from hibtask import HibProblem

        F.save_problem(
            HibProblem(p.prior, p.task_conditionals[:1], p.cluster_sizes[:1]),
            single,
            opts,
        )
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert main(["solve", str(single), "--mode", "ib", "--out", str(out_a),
                     "--trace", str(tmp_path / "ta.jsonl")]) == 0
        assert main(["solve", str(single), "--mode", "hib", "--out", str(out_b),
                     "--trace", str(tmp_path / "tb.jsonl")]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_max_iter_one_exits_two_with_single_record(self, fixtures_dir, tmp_path):
        trace = tmp_path / "trace.jsonl"
        code = main(
            [
                "solve",
                str(fixtures_dir / "tutorial" / "problem.json"),
                "--max-iter",
                "1",
                "--min-iter",
                "1",
                "--tol",
                "1e-300",
                "--out",
                str(tmp_path / "s.json"),
                "--trace",
                str(trace),
            ]
        )
        assert code == 2
        assert len(trace.read_text().splitlines()) == 1

    def test_hdib_mode_alpha_zero_hard_assignments(self, fixtures_dir, tmp_path):
        out = tmp_path / "hd.json"
        code = main(
            [
                "solve",
                str(fixtures_dir / "sequential" / "easy_problem.json"),
                "--mode",
                "hdib",
                "--alpha",
                "0",
                "--out",
                str(out),
                "--trace",
                str(tmp_path / "t.jsonl"),
            ]
        )
        assert code == 0
        state, _ = files.load_solution(out)
        for enc in state.encoders:
            assert np.all(np.isin(enc.matrix, (0.0, 1.0)))

    def test_parse_error_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["solve", str(bad), "--out", str(tmp_path / "o.json")]) == 1

    def test_degenerate_exits_three(self, tmp_path):
        payload = {
            "prior": [1 / 3, 1 / 3, 1 / 3],
            "task_conditionals": [
                {"matrix": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}
            ],
            "cluster_sizes": [2],
        }
        src = tmp_path / "degenerate.json"
        src.write_text(json.dumps(payload))
        assert main(["solve", str(src), "--out", str(tmp_path / "o.json"),
                     "--trace", str(tmp_path / "t.jsonl")]) == 3


class TestCliBuildGraph:
    def _solve_tutorial(self, fixtures_dir, tmp_path):
        out = tmp_path / "solution.json"
        assert main(
            [
                "solve",
                str(fixtures_dir / "tutorial" / "problem.json"),
                "--out",
                str(out),
                "--trace",
                str(tmp_path / "t.jsonl"),
            ]
        ) == 0
        return out

    def test_no_prune_matches_figure(self, fixtures_dir, tmp_path):
        solution = self._solve_tutorial(fixtures_dir, tmp_path)
        out = tmp_path / "graph.json"
        code = main(
            [
                "build-graph",
                str(solution),
                str(fixtures_dir / "tutorial" / "hierarchy.json"),
                str(fixtures_dir / "tutorial" / "scene.json"),
                "--no-prune",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        graph = files.load_graph(out)
        items = [n for n in graph.nodes.values() if n.layer == 1]
        assert len(items) == 4
        align = graph.alignment()
        # two object nodes labeled p, one s (for x3+x4), one q
        item_entities = sorted(align[n.id] for n in items)
        assert item_entities == ["item-p", "item-p", "item-q", "item-s"]
        sub_entities = sorted(
            align[n.id] for n in graph.nodes.values() if n.layer == 2
        )
        assert sub_entities == ["sub-A", "sub-B", "sub-C"]
        task_entities = sorted(
            align[n.id] for n in graph.nodes.values() if n.layer == 3
        )
        assert task_entities == ["task-gamma", "task-omega"]

    def test_prune_differs_by_removed_subtrees(self, fixtures_dir, tmp_path):
        solution = self._solve_tutorial(fixtures_dir, tmp_path)
        full_path = tmp_path / "full.json"
        pruned_path = tmp_path / "pruned.json"
        args = [
            "build-graph",
            str(solution),
            str(fixtures_dir / "tutorial" / "hierarchy.json"),
            str(fixtures_dir / "tutorial" / "scene.json"),
        ]
        assert main(args + ["--no-prune", "--out", str(full_path)]) == 0
        assert main(args + ["--out", str(pruned_path)]) == 0
        full = files.load_graph(full_path)
        pruned = files.load_graph(pruned_path)
        removed = set(full.nodes) - set(pruned.nodes)
        assert set(pruned.nodes) <= set(full.nodes)
        # removed nodes form whole subtrees: every node whose parent was
        # removed is removed too
        for node in full.nodes.values():
            if node.parent in removed:
                assert node.id in removed

    def test_empty_scene_empty_graph(self, fixtures_dir, tmp_path):
        solution = self._solve_tutorial(fixtures_dir, tmp_path)
        empty_scene = tmp_path / "empty.json"
        empty_scene.write_text(json.dumps({"primitives": []}))
        out = tmp_path / "graph.json"
        code = main(
            [
                "build-graph",
                str(solution),
                str(fixtures_dir / "tutorial" / "hierarchy.json"),
                str(empty_scene),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert files.load_graph(out).nodes == {}


class TestCliPipelineAndEval:
    def test_pipeline_outputs_and_rerun_identical(self, fixtures_dir, tmp_path):
        args = [
            "pipeline",
            str(fixtures_dir / "pipeline" / "scene.json"),
            str(fixtures_dir / "pipeline" / "hierarchy.json"),
            str(fixtures_dir / "pipeline" / "word_bank.json"),
            str(fixtures_dir / "pipeline" / "oracle.json"),
            "--temperature",
            "0.15",
        ]
        outs = []
        for run in (1, 2):
            g = tmp_path / f"g{run}.json"
            h = tmp_path / f"h{run}.json"
            r = tmp_path / f"r{run}.jsonl"
            code = main(
                args
                + ["--out-graph", str(g), "--out-hierarchy", str(h), "--reports", str(r)]
            )
            assert code == 0
            outs.append((g.read_bytes(), h.read_bytes(), r.read_bytes()))
        assert outs[0] == outs[1]
        reports = [json.loads(l) for l in outs[0][2].decode().splitlines()]
        assert reports[1]["grounded_subtasks"] > reports[0]["grounded_subtasks"]

    def test_eval_hta_hand_counted(self, fixtures_dir, capsys):
        code = main(
            [
                "eval",
                "--graph",
                str(fixtures_dir / "metrics" / "hta_graph.json"),
                "--hierarchy",
                str(fixtures_dir / "metrics" / "hta_hierarchy.json"),
                "--reference",
                str(fixtures_dir / "metrics" / "hta_reference.json"),
                "--metric",
                "hta",
            ]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["s_rec"] == pytest.approx(2.0 / 3.0)
        assert out["s_prec"] == pytest.approx(2.0 / 3.0)
        assert out["t_acc"] == pytest.approx(0.5)

    def test_eval_grounding_hand_counted(self, fixtures_dir, capsys):
        code = main(
            [
                "eval",
                "--graph",
                str(fixtures_dir / "metrics" / "grounding_graph.json"),
                "--hierarchy",
                str(fixtures_dir / "metrics" / "grounding_hierarchy.json"),
                "--reference",
                str(fixtures_dir / "metrics" / "grounding_reference.json"),
                "--metric",
                "grounding",
            ]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["s_acc"] == pytest.approx(0.75)
        assert out["t_acc"] == pytest.approx(0.5)

    def test_eval_task_mismatch_exits_one(self, fixtures_dir, tmp_path):
        ref = tmp_path / "ref.json"
        ref.write_text(
            json.dumps({"tasks": [{"task": "unrelated", "subtasks": [{"objects": ["o"]}]}]})
        )
        code = main(
            [
                "eval",
                "--graph",
                str(fixtures_dir / "metrics" / "grounding_graph.json"),
                "--hierarchy",
                str(fixtures_dir / "metrics" / "grounding_hierarchy.json"),
                "--reference",
                str(ref),
                "--metric",
                "grounding",
            ]
        )
        assert code == 1


@pytest.fixture(scope="module")
def solution(fixtures_dir, tmp_path_factory):
    """The tutorial solution, solved once for the whole module."""
    out = tmp_path_factory.mktemp("solution")
    assert main(["solve", str(fixtures_dir / "tutorial" / "problem.json"),
                 "--out", str(out / "solution.json"),
                 "--trace", str(out / "t.jsonl")]) == 0
    return out / "solution.json"


@pytest.fixture
def inputs(fixtures_dir, solution):
    """The fixture file of every input role of the four commands."""
    tut, pipe, met = (fixtures_dir / d for d in ("tutorial", "pipeline", "metrics"))
    return {
        "problem": tut / "problem.json",
        "solution": solution,
        "tutorial_hierarchy": tut / "hierarchy.json",
        "tutorial_scene": tut / "scene.json",
        "scene": pipe / "scene.json",
        "hierarchy": pipe / "hierarchy.json",
        "word_bank": pipe / "word_bank.json",
        "oracle": pipe / "oracle.json",
        "graph": met / "hta_graph.json",
        "metrics_hierarchy": met / "hta_hierarchy.json",
        "reference": met / "hta_reference.json",
    }


def _argv(command, f, out):
    """Arguments of ``command`` on the inputs ``f``, writing under ``out``."""
    if command == "solve":
        argv = ["solve", f["problem"], "--out", out / "o.json", "--trace", out / "t.jsonl"]
    elif command == "build-graph":
        argv = ["build-graph", f["solution"], f["tutorial_hierarchy"],
                f["tutorial_scene"], "--out", out / "g.json"]
    elif command == "pipeline":
        argv = ["pipeline", f["scene"], f["hierarchy"], f["word_bank"],
                f["oracle"], "--out-graph", out / "g.json",
                "--out-hierarchy", out / "h.json", "--reports", out / "r.jsonl"]
    else:
        argv = ["eval", "--graph", f["graph"], "--hierarchy", f["metrics_hierarchy"],
                "--reference", f["reference"]]
    return [str(a) for a in argv]


class TestCliGarbage:
    """A command leaves no reference cycles behind for the cyclic collector."""

    @pytest.mark.parametrize("command", ["solve", "build-graph", "pipeline", "eval"])
    def test_second_call_leaves_no_cyclic_garbage(self, inputs, tmp_path, capsys, command):
        argv = _argv(command, inputs, tmp_path)
        assert main(argv) == 0
        gc.collect()
        gc.disable()
        try:
            assert main(argv) == 0
            garbage = gc.collect()
        finally:
            gc.enable()
        assert garbage == 0


class TestCliMalformedFields:
    """A wrongly typed field exits 1 with ``error: <path>: <field>: ...``."""

    @pytest.mark.parametrize(
        "command, role, field, value",
        [
            ("solve", "problem", "n", "x"),
            ("solve", "problem", "n", None),
            ("solve", "problem", "n", 2.5),
            ("solve", "problem", "task_conditionals", 5),
            ("build-graph", "solution", "encoders", 5),
            ("build-graph", "solution", "marginals", 5),
            ("build-graph", "solution", "decoders", {"matrix": [[1.0]]}),
            ("build-graph", "tutorial_scene", "primitives", 5),
            ("pipeline", "hierarchy", "entities", 5),
            ("pipeline", "hierarchy", "roots", 5),
            ("pipeline", "word_bank", "words", "abc"),
            ("pipeline", "oracle", "scores", 5),
            ("pipeline", "oracle", "proposals", 5),
            ("eval", "graph", "nodes", 5),
            ("eval", "graph", "null_entities", 5),
            ("eval", "reference", "tasks", 5),
            ("solve", "problem", "cluster_sizes", [2.7, 5, 5]),
            ("solve", "problem", "cluster_sizes", [5, True, 5]),
            ("solve", "problem", "solve_options", {"max_iter": 20.5}),
            ("solve", "problem", "solve_options", {"min_iter": True}),
            ("solve", "problem", "solve_options", {"max_iter": 0, "min_iter": 0}),
            ("solve", "problem", "solve_options",
             {"seed": 1.5, "init": "seeded_perturbation"}),
            ("pipeline", "hierarchy", "roots", [["x"]]),
            ("pipeline", "hierarchy", "null_task", ["x"]),
            ("eval", "graph", "null_entities", [["x"]]),
            ("solve", "problem", "prior", ["0.2", "0.2", "0.2", "0.2", "0.2"]),
            ("solve", "problem", "prior_labels", "abcde"),
            ("solve", "problem", "solve_options", {"beta": True}),
            ("solve", "problem", "solve_options", {"beta": math.nan}),
            ("solve", "problem", "solve_options", {"beta": math.inf}),
            ("solve", "problem", "solve_options", {"alpha": math.nan}),
            ("solve", "problem", "solve_options", {"tol": math.nan}),
        ],
    )
    def test_exits_one_naming_the_field(
        self, inputs, tmp_path, capsys, command, role, field, value
    ):
        payload = json.loads(inputs[role].read_text())
        payload[field] = value
        bad = tmp_path / f"bad_{role}.json"
        bad.write_text(json.dumps(payload))
        inputs[role] = bad
        argv = _argv(command, inputs, tmp_path)
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: {field}: ")

    @pytest.mark.parametrize(
        "command, role, entries, key",
        [
            ("pipeline", "hierarchy", "entities", "children"),
            ("eval", "graph", "nodes", "parent"),
            ("eval", "graph", "nodes", "entity"),
        ],
    )
    def test_unhashable_id_in_an_entry_names_it(
        self, inputs, tmp_path, capsys, command, role, entries, key
    ):
        payload = json.loads(inputs[role].read_text())
        payload[entries][1][key] = [["x"]] if key == "children" else ["x"]
        bad = tmp_path / f"bad_{role}.json"
        bad.write_text(json.dumps(payload))
        inputs[role] = bad
        argv = _argv(command, inputs, tmp_path)
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: {entries}[1].{key}: ")

    @pytest.mark.parametrize(
        "command, role, field, edit",
        [
            ("build-graph", "solution", "report.converged",
             lambda p: p["report"].update(converged="false")),
            ("build-graph", "solution", "report.iterations",
             lambda p: p["report"].update(iterations=2.9)),
            ("build-graph", "tutorial_scene", "primitives[1].id",
             lambda p: p["primitives"][1].update(id=p["primitives"][0]["id"])),
            ("pipeline", "hierarchy", "entities[1].id",
             lambda p: p["entities"][1].update(id=p["entities"][0]["id"])),
            ("eval", "graph", "nodes[1].id",
             lambda p: p["nodes"][1].update(id=p["nodes"][0]["id"])),
            ("pipeline", "scene", "primitives[0].id",
             lambda p: p["primitives"][0].update(id=None)),
            ("eval", "reference", "tasks[0].subtasks[0]",
             lambda p: p["tasks"][0]["subtasks"][0].update(objects="abc")),
            # one column fewer than the prior has entries
            ("solve", "problem", "task_conditionals[0]",
             lambda p: p["task_conditionals"][0].update(
                 matrix=[row[:-1] for row in p["task_conditionals"][0]["matrix"]],
                 col_labels=p["task_conditionals"][0]["col_labels"][:-1])),
            ("solve", "problem", "task_conditionals[0]",
             lambda p: p["task_conditionals"][0].update(row_labels="abcd")),
            ("build-graph", "tutorial_scene", "primitives[0].bbox",
             lambda p: p["primitives"][0]["bbox"]["min"].__setitem__(0, math.nan)),
            ("build-graph", "tutorial_scene", "primitives[0]",
             lambda p: p["primitives"][0]["centroid"].__setitem__(0, math.inf)),
            ("pipeline", "hierarchy", "entities[0].spatial",
             lambda p: p["entities"][0].update(
                 spatial={"position": [0.0, 0.0, 0.0], "radius": math.inf})),
            ("pipeline", "hierarchy", "entities[0].spatial",
             lambda p: p["entities"][0].update(
                 spatial={"position": [math.nan, 0.0, 0.0], "radius": 1.0})),
            ("pipeline", "hierarchy", "entities[0].text",
             lambda p: p["entities"][0].update(text=5)),
            ("pipeline", "oracle", "scores[0].score",
             lambda p: p["scores"][0].update(score="0.9")),
            ("pipeline", "oracle", "scores[0].score",
             lambda p: p["scores"][0].update(score=True)),
            ("eval", "graph", "nodes[0].confidence",
             lambda p: p["nodes"][0].update(confidence=True)),
            # a one-hot embedding written as booleans
            ("pipeline", "word_bank", "words[0].embedding",
             lambda p: p["words"][0].update(
                 embedding=[i == 0 for i in range(len(p["words"][0]["embedding"]))])),
            ("eval", "graph", "nodes[0].layer",
             lambda p: p["nodes"][0].update(layer=2.9)),
            # a parent that names no node; the parent check runs after all
            # nodes are read, since a child may come before its parent
            ("eval", "graph", "nodes[3].parent",
             lambda p: p["nodes"][3].update(parent="nope")),
            # the first task again, with its first subtask only
            ("eval", "reference", "tasks[2].task",
             lambda p: p["tasks"].append(
                 {**p["tasks"][0], "subtasks": p["tasks"][0]["subtasks"][:1]})),
            # the first proposal again, with its first step only
            ("pipeline", "oracle", "proposals[1].task",
             lambda p: p["proposals"].append(
                 {**p["proposals"][0], "steps": p["proposals"][0]["steps"][:1]})),
            # the first (context, item) pair again, scored 0
            ("pipeline", "oracle", "scores[3]",
             lambda p: p["scores"].append({**p["scores"][0], "score": 0.0})),
        ],
    )
    def test_nested_field_exits_one_naming_it(
        self, inputs, tmp_path, capsys, command, role, field, edit
    ):
        payload = json.loads(inputs[role].read_text())
        edit(payload)
        bad = tmp_path / f"bad_{role}.json"
        bad.write_text(json.dumps(payload))
        inputs[role] = bad
        argv = _argv(command, inputs, tmp_path)
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: {field}: ")

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("solve", ["--beta", "nan"]),
            ("solve", ["--beta", "inf"]),
            ("solve", ["--alpha", "nan"]),
            ("solve", ["--tol", "nan"]),
            ("pipeline", ["--beta", "nan"]),
        ],
    )
    def test_non_finite_solver_flag_exits_one(self, inputs, tmp_path, capsys, command, flags):
        argv = _argv(command, inputs, tmp_path)
        assert main(argv + flags) == 1
        assert capsys.readouterr().err.startswith(f"error: {flags[0][2:]} must be a finite number")

    def test_zero_max_iter_flag_exits_one(self, inputs, tmp_path, capsys):
        argv = _argv("solve", inputs, tmp_path)
        assert main(argv + ["--min-iter", "0", "--max-iter", "0"]) == 1
        assert capsys.readouterr().err == "error: max_iter must be at least 1\n"
