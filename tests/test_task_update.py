import math

import numpy as np
import pytest

from hibtask import (
    Box,
    CondTable,
    DegenerateColumnError,
    DimensionError,
    Primitive,
    RefinementError,
    SceneGraph,
    SceneNode,
    Spatial,
    StructuralError,
    TableOracle,
    TaskEntity,
    TaskHierarchy,
    ValidationError,
    WordBank,
    combine_conditionals,
    pipeline_round,
    refine_hierarchy,
    run_pipeline,
    spatial_conditional,
    spatial_task_conditional,
    spatial_update,
    suggest_words,
)
from hibtask import files
from hibtask.task_update import PipelineOptions


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def prim(pid, center, extents=(1.0, 1.0, 1.0), embedding=None):
    c = np.asarray(center, dtype=float)
    e = np.asarray(extents, dtype=float) / 2
    if embedding is None:
        embedding = unit([1.0, 0.0])
    return Primitive(pid, tuple(c), Box(tuple(c - e), tuple(c + e)), embedding)


def entity(eid, kind, text=None, children=(), spatial=None, embedding=None):
    return TaskEntity(
        id=eid, kind=kind, text=text or eid, children=children,
        spatial=spatial, embedding=embedding,
    )


def chain_hierarchy(n_subtasks=1):
    ents = {}
    subs = tuple(f"s{i}" for i in range(n_subtasks))
    ents["t"] = entity("t", "task", children=subs)
    for i, sid in enumerate(subs):
        iid = f"i{i}"
        ents[sid] = entity(sid, "subtask", children=(iid,))
        ents[iid] = entity(iid, "item")
    return TaskHierarchy(ents, ("t",))


def graph_with_item_nodes(assignments):
    """assignments: list of (entity_id, box) -> one pruned chain per entry."""
    nodes = {}
    for i, (eid, box) in enumerate(assignments):
        nodes[f"item:{i}"] = SceneNode(
            f"item:{i}", 1, i, eid, 1.0, f"subtask:{i}", box, tuple(box.center)
        )
        nodes[f"subtask:{i}"] = SceneNode(
            f"subtask:{i}", 2, i, f"s{i}", 1.0, "task:0", box, tuple(box.center)
        )
    nodes["task:0"] = SceneNode("task:0", 3, 0, "t", 1.0, None)
    return SceneGraph(nodes)


class TestSpatialUpdate:
    def test_item_radius_is_extent_norm(self):
        h = chain_hierarchy(1)
        box = Box((0, 0, 0), (3, 4, 0))
        graph = graph_with_item_nodes([("i0", box)])
        prims = [prim("p", (0.5, 0.5, 0.5))]
        out = spatial_update(graph, h, prims)
        assert out.entities["i0"].spatial.radius == pytest.approx(5.0)
        assert out.entities["i0"].spatial.position == tuple(box.center)

    def test_lone_subtask_gets_fallback_radius(self):
        h = chain_hierarchy(1)
        graph = graph_with_item_nodes([("i0", Box((0, 0, 0), (1, 1, 1)))])
        prims = [prim("a", (0.5, 0.5, 0.5)), prim("b", (9.5, 0.5, 0.5))]
        out = spatial_update(graph, h, prims)
        scene_diag = math.sqrt(10.0**2 + 1 + 1)
        assert out.entities["s0"].spatial.radius == pytest.approx(scene_diag / 10.0)

    def test_two_subtasks_nearest_neighbor(self):
        h = chain_hierarchy(2)
        graph = graph_with_item_nodes(
            [("i0", Box((0, 0, 0), (1, 1, 1))), ("i1", Box((2, 0, 0), (3, 1, 1)))]
        )
        prims = [prim("p", (0.5, 0.5, 0.5))]
        out = spatial_update(graph, h, prims)
        assert out.entities["s0"].spatial.radius == pytest.approx(2.0)
        assert out.entities["s1"].spatial.radius == pytest.approx(2.0)

    def test_unaligned_entities_stay_ungrounded(self):
        h = chain_hierarchy(2)
        graph = graph_with_item_nodes([("i0", Box((0, 0, 0), (1, 1, 1)))])
        out = spatial_update(graph, h, [prim("p", (0.5, 0.5, 0.5))])
        assert out.entities["i1"].spatial is None


class TestSpatialConditional:
    def _entity(self, radius):
        return entity("e", "item", spatial=Spatial((0.0, 0.0, 0.0), radius))

    def test_inside_radius_is_one(self):
        e = self._entity(2.0)
        assert spatial_conditional(prim("p", (1.0, 0, 0)), e) == 1.0

    def test_twice_radius(self):
        e = self._entity(2.0)
        out = spatial_conditional(prim("p", (4.0, 0, 0)), e)
        assert out == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_boundary_continuous(self):
        e = self._entity(2.0)
        assert spatial_conditional(prim("p", (2.0, 0, 0)), e) == pytest.approx(1.0)
        just_in = spatial_conditional(prim("p", (2.0 - 1e-9, 0, 0)), e)
        just_out = spatial_conditional(prim("p", (2.0 + 1e-9, 0, 0)), e)
        assert just_in == 1.0
        assert just_out == pytest.approx(1.0, abs=1e-12)

    def test_non_increasing_beyond_radius(self):
        e = self._entity(1.5)
        values = [
            spatial_conditional(prim("p", (d, 0, 0)), e)
            for d in np.linspace(1.5, 6.0, 20)
        ]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_ungrounded_entity_rejected(self):
        with pytest.raises(ValidationError):
            spatial_conditional(prim("p", (0, 0, 0)), entity("e", "item"))


class TestCombineConditionals:
    def test_uniform_spatial_returns_embedding(self):
        rng = np.random.default_rng(0)
        p_e = CondTable(rng.dirichlet(np.ones(3), size=4).T)
        p_s = CondTable(np.full((3, 4), 1.0 / 3.0))
        out = combine_conditionals(p_s, p_e)
        assert np.allclose(out.matrix, p_e.matrix, atol=1e-12)

    def test_uniform_embedding_returns_normalized_spatial(self):
        rng = np.random.default_rng(1)
        p_s = CondTable(rng.dirichlet(np.ones(3), size=4).T)
        p_e = CondTable(np.full((3, 4), 1.0 / 3.0))
        out = combine_conditionals(p_s, p_e)
        assert np.allclose(out.matrix, p_s.matrix, atol=1e-12)

    def test_planted_two_by_two(self):
        p_s = CondTable(np.array([[0.8, 0.5], [0.2, 0.5]]))
        p_e = CondTable(np.array([[0.5, 0.1], [0.5, 0.9]]))
        out = combine_conditionals(p_s, p_e)
        col0 = np.array([0.8 * 0.5, 0.2 * 0.5])
        col1 = np.array([0.5 * 0.1, 0.5 * 0.9])
        assert np.allclose(out.matrix[:, 0], col0 / col0.sum(), atol=1e-12)
        assert np.allclose(out.matrix[:, 1], col1 / col1.sum(), atol=1e-12)

    def test_all_zero_column_rejected(self):
        p_s = CondTable(np.array([[1.0, 1.0], [0.0, 0.0]]))
        p_e = CondTable(np.array([[0.0, 0.5], [1.0, 0.5]]))
        with pytest.raises(DegenerateColumnError):
            combine_conditionals(p_s, p_e)

    def test_spatial_table_with_no_grounding_is_uniform(self):
        items = [entity("a", "item"), entity("b", "item")]
        prims = [prim("p", (0, 0, 0)), prim("q", (5, 0, 0))]
        table = spatial_task_conditional(prims, items)
        assert np.allclose(table.matrix, 0.5, atol=1e-12)


class TestSuggestWords:
    def _bank(self):
        return WordBank(
            (
                ("alpha", unit([1, 0, 0])),
                ("bravo", unit([0, 1, 0])),
                ("charlie", unit([0, 0, 1])),
            )
        )

    def test_exact_match_ranks_first(self):
        out = suggest_words([prim("p", (0, 0, 0), embedding=unit([0, 1, 0]))], self._bank(), 2)
        assert out[0] == "bravo"

    def test_top_k_bank_size_returns_all_sorted(self):
        e = unit([0.9, 0.5, 0.1])
        out = suggest_words([prim("p", (0, 0, 0), embedding=e)], self._bank(), 3)
        assert out == ["alpha", "bravo", "charlie"]

    def test_planted_scores_top_two(self):
        e = unit([0.9, 0.5, 0.1])
        out = suggest_words([prim("p", (0, 0, 0), embedding=e)], self._bank(), 2)
        assert out == ["alpha", "bravo"]

    def test_deduplicated_deterministic_order(self):
        prims = [
            prim("p1", (0, 0, 0), embedding=unit([1, 0.1, 0])),
            prim("p2", (0, 0, 0), embedding=unit([1, 0.2, 0])),
        ]
        out = suggest_words(prims, self._bank(), 1)
        assert out == ["alpha"]


class TestRefineHierarchy:
    def _bank(self):
        return WordBank((("cup", unit([1, 0])), ("plate", unit([0, 1]))))

    def test_all_zero_oracle_keeps_hierarchy(self):
        h = chain_hierarchy(2)
        out = refine_hierarchy(h, ["cup", "plate"], TableOracle(), 0.8, 0.8, self._bank())
        assert out.entities.keys() == h.entities.keys()

    def test_item_added_to_single_scoring_subtask(self):
        h = chain_hierarchy(2)
        oracle = TableOracle(scores={("s1", "cup"): 0.9})
        out = refine_hierarchy(h, ["cup"], oracle, 0.8, 0.8, self._bank())
        s1_items = [out.entities[i].text for i in out.entities["s1"].children]
        s0_items = [out.entities[i].text for i in out.entities["s0"].children]
        assert "cup" in s1_items
        assert "cup" not in s0_items
        added = [e for e in out.entities.values() if e.text == "cup"]
        assert len(added) == 1
        assert np.allclose(added[0].embedding, unit([1, 0]))

    def test_contested_item_goes_to_first_subtask_only(self):
        h = chain_hierarchy(2)
        oracle = TableOracle(scores={("s0", "cup"): 0.9, ("s1", "cup"): 0.9})
        out = refine_hierarchy(h, ["cup"], oracle, 0.8, 0.8, self._bank())
        s0_items = [out.entities[i].text for i in out.entities["s0"].children]
        s1_items = [out.entities[i].text for i in out.entities["s1"].children]
        assert "cup" in s0_items
        assert "cup" not in s1_items

    def test_leftovers_spawn_new_subtasks(self):
        h = chain_hierarchy(1)
        oracle = TableOracle(
            scores={("t", "plate"): 0.9},
            proposals={"t": (("set the table", ("plate",)),)},
        )
        out = refine_hierarchy(h, ["plate"], oracle, 0.8, 0.8, self._bank())
        new_subs = [e for e in out.entities.values() if e.text == "set the table"]
        assert len(new_subs) == 1
        texts = [out.entities[i].text for i in new_subs[0].children]
        assert texts == ["plate"]

    def test_never_removes_and_never_duplicates(self):
        h = chain_hierarchy(2)
        oracle = TableOracle(
            scores={("s0", "cup"): 0.9, ("t", "cup"): 0.9},
            proposals={"t": (("extra", ("cup",)),)},
        )
        out = refine_hierarchy(h, ["cup"], oracle, 0.8, 0.8, self._bank())
        for eid in h.entities:
            assert eid in out.entities
        cups = [e for e in out.entities.values() if e.text == "cup"]
        assert len(cups) == 1

    def test_repeated_refinement_keeps_ids_unique(self):
        h = chain_hierarchy(1)
        bank = self._bank()
        first = refine_hierarchy(
            h, ["cup"], TableOracle(scores={("s0", "cup"): 0.9}), 0.8, 0.8, bank
        )
        # a second round adding to the same subtask must not reuse ids; a
        # collision would surface as a duplicate child and fail validation
        second = refine_hierarchy(
            first, ["plate"], TableOracle(scores={("s0", "plate"): 0.9}), 0.8, 0.8, bank
        )
        texts = sorted(second.entities[i].text for i in second.entities["s0"].children)
        assert texts == ["cup", "i0", "plate"]
        children = second.entities["s0"].children
        assert len(children) == len(set(children))

    def test_oracle_failure_carries_query(self):
        class Broken:
            def score_items(self, context, items):
                raise RuntimeError("boom")

            def propose_subtasks(self, task, items):
                return []

        h = chain_hierarchy(1)
        with pytest.raises(RefinementError) as err:
            refine_hierarchy(h, ["cup"], Broken(), 0.8, 0.8, self._bank())
        assert "s0" in err.value.query or "score_items" in err.value.query


class TestRunPipeline:
    @pytest.fixture
    def fixture_inputs(self, fixtures_dir):
        return (
            files.load_scene(fixtures_dir / "pipeline" / "scene.json"),
            files.load_hierarchy(fixtures_dir / "pipeline" / "hierarchy.json"),
            files.load_word_bank(fixtures_dir / "pipeline" / "word_bank.json"),
            files.load_oracle(fixtures_dir / "pipeline" / "oracle.json"),
        )

    def test_two_round_growth_and_early_stop(self, fixture_inputs):
        prims, hier, bank, oracle = fixture_inputs
        final_h, graph, reports = run_pipeline(
            prims, hier, bank, oracle, PipelineOptions(temperature=0.15)
        )
        assert reports[0].grounded_subtasks == 1
        assert reports[1].grounded_subtasks == 4
        assert reports[1].grounded_subtasks > reports[0].grounded_subtasks
        assert len(reports) == 3  # third round changes nothing and stops
        assert not reports[2].hierarchy_changed
        assert not reports[2].alignment_changed

    def test_noop_oracle_single_round_matches_standalone_build(self, fixture_inputs):
        prims, hier, bank, _ = fixture_inputs
        from hibtask import (
            SolveOptions,
            bottom_up_construct,
            prune_primitives,
            select_relevant_primitives,
            solve_hib,
            top_down_prune,
        )
        from hibtask.task_update import derive_problem
        from hibtask.hierarchy import KIND_ITEM

        opts = PipelineOptions(rounds=1, temperature=0.15)
        _, graph, reports = run_pipeline(prims, hier, bank, TableOracle(), opts)
        selected = select_relevant_primitives(prims, hier.entities_of_kind(KIND_ITEM), 0.8)
        problem = derive_problem(hier, selected, 0.15)
        state, _ = solve_hib(problem, SolveOptions())
        expected = prune_primitives(top_down_prune(bottom_up_construct(state, hier, selected)))
        assert sorted(graph.nodes) == sorted(expected.nodes)
        assert graph.alignment() == expected.alignment()

    def test_quiescent_extra_round_is_stable(self, fixture_inputs):
        prims, hier, bank, oracle = fixture_inputs
        two = run_pipeline(prims, hier, bank, oracle, PipelineOptions(rounds=2, temperature=0.15))
        more = run_pipeline(prims, hier, bank, oracle, PipelineOptions(rounds=5, temperature=0.15))
        assert two[1].alignment() == more[1].alignment()
        # hierarchy content identical apart from nothing: compare entity texts
        assert {e.id: e.text for e in two[0].entities.values()} == {
            e.id: e.text for e in more[0].entities.values()
        }

    def test_solver_errors_carry_round_index(self, fixture_inputs, monkeypatch):
        prims, hier, bank, oracle = fixture_inputs

        def boom(problem, opts):
            raise DegenerateColumnError(2, 3)

        import hibtask.task_update as tu

        monkeypatch.setattr(tu, "solve_hib", boom)
        with pytest.raises(DegenerateColumnError) as err:
            run_pipeline(prims, hier, bank, oracle, PipelineOptions(temperature=0.15))
        assert "round 1" in str(err.value)
        assert err.value.level == 2 and err.value.column == 3

    def test_solver_dimension_errors_carry_round_index(self, fixture_inputs, monkeypatch):
        prims, hier, bank, oracle = fixture_inputs

        def boom(problem, opts):
            raise DimensionError("decoder 1 has 3 rows")

        import hibtask.task_update as tu

        monkeypatch.setattr(tu, "solve_hib", boom)
        with pytest.raises(DimensionError) as err:
            run_pipeline(prims, hier, bank, oracle, PipelineOptions(temperature=0.15))
        assert str(err.value) == "pipeline round 1: decoder 1 has 3 rows"

    def test_no_relevant_primitive_names_the_round(self, fixture_inputs):
        _, hier, bank, oracle = fixture_inputs
        with pytest.raises(StructuralError) as err:
            run_pipeline([], hier, bank, oracle, PipelineOptions(temperature=0.15))
        assert str(err.value) == "round 1: no primitive passes the relevance threshold"

    def test_hierarchy_without_null_task_rejected(self, fixture_inputs):
        prims, _, bank, oracle = fixture_inputs
        with pytest.raises(StructuralError, match="null task"):
            run_pipeline(prims, chain_hierarchy(), bank, oracle)

    def test_rounds_by_hand_match_run_pipeline(self, fixture_inputs, tmp_path):
        prims, hier, bank, oracle = fixture_inputs
        opts = PipelineOptions(temperature=0.15)
        want_h, want_g, want_reports = run_pipeline(prims, hier, bank, oracle, opts)

        graph, carried, reports = None, [], []
        for round_index in range(1, opts.rounds + 1):
            hier, graph, report, carried = pipeline_round(
                round_index, prims, hier, bank, oracle, opts, carried, graph
            )
            reports.append(report)
            if not report.hierarchy_changed and not report.alignment_changed:
                break

        assert reports == want_reports
        assert reports[0].alignment_changed
        for name, (h, g) in {"hand": (hier, graph), "run": (want_h, want_g)}.items():
            files.save_hierarchy(h, tmp_path / f"{name}_h.json")
            files.save_graph(g, tmp_path / f"{name}_g.json")
        for suffix in ("h", "g"):
            hand = (tmp_path / f"hand_{suffix}.json").read_bytes()
            assert hand == (tmp_path / f"run_{suffix}.json").read_bytes()

    def test_deterministic_outputs(self, fixture_inputs, tmp_path):
        prims, hier, bank, oracle = fixture_inputs
        paths = []
        for run in (1, 2):
            h, g, _ = run_pipeline(prims, hier, bank, oracle, PipelineOptions(temperature=0.15))
            hp = tmp_path / f"h{run}.json"
            gp = tmp_path / f"g{run}.json"
            files.save_hierarchy(h, hp)
            files.save_graph(g, gp)
            paths.append((hp, gp))
        assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
        assert paths[0][1].read_bytes() == paths[1][1].read_bytes()


class TestSingleValidation:
    """Grounding and refinement build one hierarchy each, whatever they edit."""

    def test_each_pass_validates_once(self, fixtures_dir, monkeypatch):
        from hibtask import (
            SolveOptions,
            bottom_up_construct,
            prune_primitives,
            select_relevant_primitives,
            solve_hib,
            top_down_prune,
        )
        from hibtask.hierarchy import KIND_ITEM
        from hibtask.task_update import derive_problem

        pipe = fixtures_dir / "pipeline"
        prims = files.load_scene(pipe / "scene.json")
        hier = files.load_hierarchy(pipe / "hierarchy.json")
        bank = files.load_word_bank(pipe / "word_bank.json")
        oracle = files.load_oracle(pipe / "oracle.json")
        selected = select_relevant_primitives(prims, hier.entities_of_kind(KIND_ITEM), 0.8)
        state, _ = solve_hib(derive_problem(hier, selected, 0.15), SolveOptions())
        graph = prune_primitives(top_down_prune(bottom_up_construct(state, hier, selected)))

        calls = []
        validate = TaskHierarchy._validate

        def counting(self):
            calls.append(self)
            validate(self)

        monkeypatch.setattr(TaskHierarchy, "_validate", counting)
        grounded = spatial_update(graph, hier, prims)
        assert len(calls) == 1
        assert sum(e.spatial is not None for e in grounded.entities.values()) > 1

        calls.clear()
        words = [w for w, _ in bank.entries]
        refined = refine_hierarchy(grounded, words, oracle, 0.8, 0.8, bank)
        assert len(calls) == 1
        assert len(refined.entities) > len(grounded.entities) + 1
