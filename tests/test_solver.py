import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hibtask import (
    CondTable,
    DegenerateColumnError,
    Dist,
    HibProblem,
    SolveOptions,
    ValidationError,
    chain,
    derive_state,
    distortion,
    effective_cluster_count,
    entropy,
    fixed_point_residual,
    kl_divergence,
    mutual_information,
    objective,
    solve_hdib,
    solve_hib,
    solve_ib,
    solve_ib_sequential,
    update_level,
)
from hibtask import DISTORTION_DECODER_FIRST, DISTORTION_INPUT_FIRST
from hibtask.solver import INIT_PERTURBED, _encoder_from_distortion, init_encoders
from tests.conftest import random_cond, random_dist, random_problem


def brute_force_objective(problem, state, beta):
    """Independent evaluation of the functional via raw double sums."""
    total = 0.0
    marg = [d.values for d in state.marginals]
    for k in range(problem.n):
        enc = state.encoders[k].matrix
        px = marg[k]
        pz = enc @ px
        for s in range(enc.shape[0]):
            for x in range(enc.shape[1]):
                joint = enc[s, x] * px[x]
                if joint > 0:
                    total += joint * math.log(joint / (pz[s] * px[x]))
        dec = state.decoders[k].matrix
        pz = marg[k + 1]
        pt = dec @ pz
        for t in range(dec.shape[0]):
            for s in range(dec.shape[1]):
                joint = dec[t, s] * pz[s]
                if joint > 0:
                    total -= beta * joint * math.log(joint / (pt[t] * pz[s]))
    return total


def argmax_rule_loop(score, level):
    """The per-column alpha = 0 rule the vectorised update must reproduce."""
    out = np.zeros_like(score)
    for j in range(score.shape[1]):
        col = score[:, j]
        if np.all(np.isneginf(col)):
            raise DegenerateColumnError(level, j)
        out[int(np.argmax(col)), j] = 1.0
    return out


def from_scratch_sweeps(problem, opts):
    """opts.max_iter sweeps of update_level, each rebuilding the state."""
    state = derive_state(problem, init_encoders(problem, opts))
    trace = []
    for _ in range(opts.max_iter):
        for k in range(1, problem.n + 1):
            state = update_level(problem, state, k, opts)
        trace.append(objective(problem, state, opts.beta))
    return state, tuple(trace)


class TestObjective:
    def test_single_cluster_objective_zero(self):
        rng = np.random.default_rng(0)
        problem = HibProblem(
            Dist(rng.dirichlet(np.ones(4))),
            (CondTable(rng.dirichlet(np.ones(3), size=4).T),),
            (1,),
        )
        state = derive_state(problem, init_encoders(problem, SolveOptions()))
        assert objective(problem, state, 10.0) == pytest.approx(0.0, abs=1e-12)

    def test_identity_encoder_objective(self, tutorial_problem):
        problem = HibProblem(
            tutorial_problem.prior, tutorial_problem.task_conditionals[:1]
        )
        state = derive_state(problem, init_encoders(problem, SolveOptions()))
        beta = 7.0
        expected = entropy(problem.prior) - beta * mutual_information(
            problem.task_conditionals[0], problem.prior
        )
        assert objective(problem, state, beta) == pytest.approx(expected, abs=1e-10)

    def test_matches_brute_force_at_fixed_point(self, tutorial_problem):
        state, _ = solve_hib(tutorial_problem, SolveOptions(beta=100.0))
        got = objective(tutorial_problem, state, 100.0)
        expected = brute_force_objective(tutorial_problem, state, 100.0)
        assert got == pytest.approx(expected, abs=1e-9)


class TestDistortion:
    def test_single_level_is_plain_kl_matrix(self):
        rng = np.random.default_rng(3)
        problem = HibProblem(
            Dist(rng.dirichlet(np.ones(5))),
            (CondTable(rng.dirichlet(np.ones(3), size=5).T),),
        )
        state = derive_state(problem, init_encoders(problem, SolveOptions()))
        d = distortion(problem, state, 1)
        dec = state.decoders[0].matrix
        q = problem.task_conditionals[0].matrix
        for s in range(5):
            for x in range(5):
                expected = kl_divergence(Dist(dec[:, s]), Dist(q[:, x]))
                assert d[s, x] == pytest.approx(expected, abs=1e-12)

    def test_uninformative_tasks_give_zero(self):
        col = np.array([0.3, 0.7])
        cond = CondTable(np.tile(col[:, None], (1, 4)))
        problem = HibProblem(Dist.uniform(4), (cond, cond))
        state = derive_state(problem, init_encoders(problem, SolveOptions()))
        for k in (1, 2):
            assert np.allclose(distortion(problem, state, k), 0.0, atol=1e-12)

    def test_tutorial_first_entry_matches_term_sum(self, tutorial_problem):
        state = derive_state(
            tutorial_problem, init_encoders(tutorial_problem, SolveOptions())
        )
        d = distortion(tutorial_problem, state, 1)
        # independent per-term evaluation at the delta initialization: all
        # lifted conditionals coincide with the problem tables and the
        # higher-level weights pick the matching cluster
        conds = [t.matrix for t in tutorial_problem.task_conditionals]
        for s in range(5):
            for x in range(5):
                expected = sum(
                    kl_divergence(Dist(c[:, s]), Dist(c[:, x])) for c in conds
                )
                assert d[s, x] == pytest.approx(expected, abs=1e-10)


class TestUpdateLevel:
    def test_tutorial_first_update_matches_printed_table(self, tutorial_problem):
        opts = SolveOptions(beta=100.0)
        state = derive_state(
            tutorial_problem, init_encoders(tutorial_problem, opts)
        )
        new = update_level(tutorial_problem, state, 1, opts)
        printed = np.array(
            [
                [1.0, 0, 0, 0, 0],
                [0, 1.0, 0, 0, 0],
                [0, 0, 0.5, 0.5, 0],
                [0, 0, 0.5, 0.5, 0],
                [0, 0, 0, 0, 1.0],
            ]
        )
        assert np.max(np.abs(new.encoders[0].matrix - printed)) <= 0.01

    def test_beta_zero_gives_marginal_columns(self):
        rng = np.random.default_rng(5)
        problem = HibProblem(
            Dist(rng.dirichlet(np.ones(5))),
            (CondTable(rng.dirichlet(np.ones(4), size=5).T),),
        )
        opts = SolveOptions(beta=0.0, init=INIT_PERTURBED, seed=1)
        state = derive_state(problem, init_encoders(problem, opts))
        new = update_level(problem, state, 1, opts)
        expected = state.marginals[1].values
        for x in range(5):
            assert np.allclose(new.encoders[0].matrix[:, x], expected, atol=1e-12)

    def test_large_beta_saturates_to_one_hot(self):
        # distinct deterministic task columns: zero distortion only on the
        # matching cluster, softmax saturates there
        cond = CondTable(np.eye(4))
        problem = HibProblem(Dist.uniform(4), (cond,))
        opts = SolveOptions(beta=500.0)
        state = derive_state(problem, init_encoders(problem, opts))
        new = update_level(problem, state, 1, opts)
        assert np.allclose(new.encoders[0].matrix, np.eye(4), atol=1e-12)

    def test_degenerate_column_error(self):
        # deterministic task columns with a merged init: the first cluster's
        # decoder mixes two supports, so no cluster stays inside the support
        # of element 0's column and its update has no admissible mass
        cond = CondTable(
            np.array(
                [
                    [1.0, 0.0, 0.0],
                    [0.0, 1.0, 0.0],
                    [0.0, 0.0, 1.0],
                ]
            )
        )
        problem = HibProblem(Dist.uniform(3), (cond,), (2,))
        opts = SolveOptions(beta=10.0)
        state = derive_state(problem, init_encoders(problem, opts))
        with pytest.raises(DegenerateColumnError) as err:
            update_level(problem, state, 1, opts)
        assert err.value.level == 1
        assert err.value.column == 0


class TestSolveOptions:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("min_iter", 2.0),
            ("min_iter", True),
            ("max_iter", 20.5),
            ("max_iter", "20"),
            ("max_iter", np.int64(20)),
            ("seed", 1.5),
            ("seed", None),
            ("seed", False),
        ],
    )
    def test_counts_and_seed_must_be_integers(self, field, value):
        with pytest.raises(ValidationError, match=f"{field} must be an integer"):
            SolveOptions(**{field: value})

    @pytest.mark.parametrize("field", ["beta", "alpha", "tol"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, True, "1"])
    def test_rates_must_be_finite_numbers(self, field, value):
        with pytest.raises(ValidationError, match=f"{field} must be a finite number"):
            SolveOptions(**{field: value})

    def test_max_iter_must_be_positive(self):
        with pytest.raises(ValidationError, match="max_iter must be at least 1"):
            SolveOptions(min_iter=0, max_iter=0)
        assert SolveOptions(min_iter=0, max_iter=1).max_iter == 1

    def test_seed_must_be_nonnegative(self):
        # numpy's generator rejects a negative seed with a bare ValueError
        with pytest.raises(ValidationError, match="seed must be nonnegative"):
            SolveOptions(seed=-1)


class TestSolveHib:
    def test_tutorial_convergence_and_residual(self, tutorial_problem):
        state, report = solve_hib(tutorial_problem, SolveOptions(beta=100.0))
        assert report.converged
        assert report.iterations >= 10
        assert report.final_residual == report.residual_trace[-1]
        # elements 3 and 4 share clusters 3/4 equally in the final encoder
        enc1 = state.encoders[0].matrix
        assert enc1[2, 2] == pytest.approx(0.5, abs=0.01)
        assert enc1[3, 3] == pytest.approx(0.5, abs=0.01)

    # float slack of the data-processing checks: each mutual information is
    # a sum of a few dozen rounded terms; the worst excess seen over the
    # acceptance random suite was 2.1e-16
    DPI_SLACK = 1e-12

    @pytest.mark.parametrize(
        "direction", [DISTORTION_DECODER_FIRST, DISTORTION_INPUT_FIRST]
    )
    @given(seed=st.integers(0, 2**32 - 1), beta=st.sampled_from([0.5, 10.0, 100.0]))
    @settings(max_examples=20, deadline=None)
    def test_levels_obey_data_processing_inequalities(self, direction, seed, beta):
        """I(S_0;S_k) <= I(S_0;S_{k-1}) and I(T_k;S_k) <= I(T_k;S_0) on
        small random three-level problems."""
        rng = np.random.default_rng(seed)
        m0 = int(rng.integers(2, 7))
        prior = random_dist(rng, m0)
        conds = tuple(random_cond(rng, int(rng.integers(2, 7)), m0) for _ in range(3))
        state, _ = solve_hib(
            HibProblem(prior, conds),
            SolveOptions(beta=beta, max_iter=60, distortion=direction),
        )
        previous = float(entropy(prior))  # I(S_0;S_0)
        path = None  # P(S_k | S_0)
        for k, (enc, dec) in enumerate(zip(state.encoders, state.decoders)):
            path = enc if path is None else chain(enc, path)
            kept = mutual_information(path, prior)
            assert kept <= previous + self.DPI_SLACK
            task_info = mutual_information(dec, state.marginals[k + 1])
            assert task_info <= mutual_information(conds[k], prior) + self.DPI_SLACK
            previous = kept

    def test_oversized_cluster_budget_leaves_dead_clusters(self):
        # more clusters than inputs: the block-delta init leaves some empty,
        # they stay massless and keep uniform decoder columns
        rng = np.random.default_rng(13)
        problem = HibProblem(
            Dist.uniform(3),
            (CondTable(rng.dirichlet(np.ones(4), size=3).T),),
            (6,),
        )
        state, report = solve_hib(problem, SolveOptions(beta=10.0))
        assert report.converged
        mass = state.marginals[1].values
        dead = mass == 0.0
        assert dead.sum() >= 3
        for s in np.flatnonzero(dead):
            assert np.allclose(state.decoders[0].matrix[:, s], 0.25)

    def test_single_cluster_converges_at_min_iter(self):
        rng = np.random.default_rng(8)
        problem = HibProblem(
            Dist.uniform(3),
            (CondTable(rng.dirichlet(np.ones(4), size=3).T),),
            (1,),
        )
        state, report = solve_hib(problem, SolveOptions(beta=10.0))
        assert report.converged and report.iterations == 10
        assert np.allclose(state.encoders[0].matrix, 1.0)

    def test_fixed_point_residual_small_on_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            m0 = int(rng.integers(3, 7))
            problem = HibProblem(
                Dist(rng.dirichlet(np.ones(m0) * 5)),
                (
                    CondTable(rng.dirichlet(np.ones(6) * 5, size=m0).T),
                    CondTable(rng.dirichlet(np.ones(6) * 5, size=m0).T),
                ),
            )
            opts = SolveOptions(beta=10.0, tol=1e-12, max_iter=3000)
            state, report = solve_hib(problem, opts)
            assert report.converged
            assert fixed_point_residual(problem, state, 10.0) < 1e-6

    def test_objective_bounded_below(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            problem = random_problem(rng)
            beta = float(rng.choice([0.5, 1.0, 10.0, 100.0]))
            state, report = solve_hib(problem, SolveOptions(beta=beta))
            bound = -beta * sum(
                entropy(Dist(t.matrix @ problem.prior.values))
                for t in problem.task_conditionals
            )
            assert all(obj >= bound - 1e-9 for obj in report.objective_trace)

    def test_deterministic_reports(self):
        rng = np.random.default_rng(11)
        problem = random_problem(rng)
        opts = SolveOptions(beta=10.0, init=INIT_PERTURBED, seed=7)
        a_state, a_report = solve_hib(problem, opts)
        b_state, b_report = solve_hib(problem, opts)
        assert a_report == b_report
        for ea, eb in zip(a_state.encoders, b_state.encoders):
            assert np.array_equal(ea.matrix, eb.matrix)

    def test_beta_zero_with_infinite_distortion(self):
        # disjoint task columns make the distortion infinite off the
        # diagonal; at beta = 0 it carries no weight (0 * inf = 0) and the
        # fixed point puts the level marginal in every encoder column
        problem = HibProblem(
            Dist(np.array([0.5, 0.5])), (CondTable(np.array([[1.0, 0.0], [0.0, 1.0]])),)
        )
        state, report = solve_hib(problem, SolveOptions(beta=0.0))
        assert np.all(np.isfinite(report.objective_trace))
        for k, enc in enumerate(state.encoders):
            assert np.all(np.isfinite(enc.matrix))
            for x in range(enc.n_cols):
                assert np.allclose(
                    enc.matrix[:, x], state.marginals[k + 1].values, atol=1e-12
                )

    @pytest.mark.parametrize(
        "direction", [DISTORTION_DECODER_FIRST, DISTORTION_INPUT_FIRST]
    )
    def test_refreshed_state_equals_from_scratch_state(self, direction):
        # a solve refreshes only the levels at and above each update; its
        # final state and every sweep must be bit-identical to deriving the
        # state afresh after each level update
        rng = np.random.default_rng(71)
        for i in range(12):
            problem = random_problem(rng)
            alpha = (1.0, 0.5, 0.0)[i % 3]
            solve = solve_hib if alpha == 1.0 else solve_hdib
            opts = SolveOptions(
                beta=10.0, alpha=alpha, distortion=direction, min_iter=8, max_iter=8
            )
            state, report = solve(problem, opts)
            fresh = derive_state(problem, state.encoders)
            for a, b in zip(state.marginals, fresh.marginals):
                assert np.array_equal(a.values, b.values)
            for a, b in zip(state.decoders, fresh.decoders):
                assert np.array_equal(a.matrix, b.matrix)
            ref_state, ref_trace = from_scratch_sweeps(problem, opts)
            assert report.objective_trace == ref_trace
            for a, b in zip(state.encoders, ref_state.encoders):
                assert np.array_equal(a.matrix, b.matrix)

    def test_marginal_consistency_invariant(self, tutorial_problem):
        state, _ = solve_hib(tutorial_problem, SolveOptions(beta=100.0))
        for k in range(tutorial_problem.n):
            implied = state.encoders[k].matrix @ state.marginals[k].values
            assert np.max(np.abs(implied - state.marginals[k + 1].values)) < 1e-8


class TestSolveIb:
    def test_matches_hib_per_iterate(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            m0 = int(rng.integers(2, 9))
            prior = Dist(rng.dirichlet(np.ones(m0)))
            cond = CondTable(rng.dirichlet(np.ones(int(rng.integers(2, 9))), size=m0).T)
            opts = SolveOptions(beta=10.0)
            a_state, a_report = solve_ib(prior, cond, opts)
            b_state, b_report = solve_hib(HibProblem(prior, (cond,)), opts)
            assert len(a_report.objective_trace) == len(b_report.objective_trace)
            for x, y in zip(a_report.objective_trace, b_report.objective_trace):
                assert abs(x - y) <= 1e-12
            assert np.max(np.abs(a_state.encoders[0].matrix - b_state.encoders[0].matrix)) <= 1e-12

    def test_uninformative_task_compresses_everything(self):
        col = np.array([0.5, 0.5])
        cond = CondTable(np.tile(col[:, None], (1, 5)))
        state, report = solve_ib(Dist.uniform(5), cond, SolveOptions(beta=10.0))
        assert mutual_information(state.encoders[0], state.marginals[0]) < 1e-9

    def test_easy_block_example_keeps_four_clusters_at_beta_one(self, fixtures_dir):
        from hibtask import files

        problem, opts = files.load_problem(fixtures_dir / "sequential" / "easy_problem.json")
        assert opts is not None and opts.beta == 1.0
        state, report = solve_ib(
            problem.prior, problem.task_conditionals[0], opts, cluster_size=4
        )
        assert effective_cluster_count(state, 1, 1e-3) == 4


class TestSolveHdib:
    def test_alpha_one_matches_hib(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            problem = random_problem(rng)
            opts = SolveOptions(beta=10.0, alpha=1.0)
            a_state, a_report = solve_hdib(problem, opts)
            b_state, b_report = solve_hib(problem, opts)
            for x, y in zip(a_report.objective_trace, b_report.objective_trace):
                assert abs(x - y) <= 1e-12
            for ea, eb in zip(a_state.encoders, b_state.encoders):
                assert np.max(np.abs(ea.matrix - eb.matrix)) <= 1e-12

    def test_alpha_zero_one_hot(self):
        rng = np.random.default_rng(41)
        problem = random_problem(rng)
        state, _ = solve_hdib(problem, SolveOptions(beta=10.0, alpha=0.0))
        for enc in state.encoders:
            assert np.all(np.isin(enc.matrix, (0.0, 1.0)))
            assert np.allclose(enc.matrix.sum(axis=0), 1.0)

    def test_alpha_zero_rule_matches_column_loop(self):
        rng = np.random.default_rng(61)
        for trial in range(60):
            rows, cols = (int(v) for v in rng.integers(1, 9, size=2))
            # small integer distortions under a uniform prior tie often;
            # infinite entries bar clusters, and whole infinite columns leave
            # an element without an admissible cluster
            d = rng.integers(0, 3, size=(rows, cols)).astype(float)
            d[rng.random(d.shape) < 0.2] = np.inf
            if trial % 3 == 0:
                d[:, rng.integers(0, cols, size=2)] = np.inf
            prior = np.full(rows, 1.0 / rows) if trial % 2 else rng.dirichlet(np.ones(rows))
            log_prior = np.log(prior)
            beta = 2.0
            try:
                expected = argmax_rule_loop(log_prior[:, None] - beta * d, 2)
            except DegenerateColumnError as err:
                with pytest.raises(DegenerateColumnError) as got:
                    _encoder_from_distortion(log_prior, d, beta, 0.0, 2)
                assert (got.value.level, got.value.column) == (2, err.column)
                continue
            got = _encoder_from_distortion(log_prior, d, beta, 0.0, 2)
            assert np.array_equal(got, expected)

    def test_alpha_zero_tutorial_groups_x3_x4(self, tutorial_problem):
        state, report = solve_hdib(
            tutorial_problem, SolveOptions(beta=100.0, alpha=0.0)
        )
        enc1 = state.encoders[0].matrix
        assert np.array_equal(enc1[:, 2], enc1[:, 3])
        # returned objective agrees with the independent brute-force sum
        got = objective(tutorial_problem, state, 100.0)
        expected = brute_force_objective(tutorial_problem, state, 100.0)
        assert got == pytest.approx(expected, abs=1e-10)


class TestClassicalDirection:
    def test_single_level_traces_exactly_non_increasing(self):
        rng = np.random.default_rng(99)
        for i in range(40):
            m0 = int(rng.integers(2, 9))
            t = int(rng.integers(2, 9))
            problem = HibProblem(
                Dist(rng.dirichlet(np.ones(m0))),
                (CondTable(rng.dirichlet(np.ones(t), size=m0).T),),
            )
            beta = float((0.5, 1.0, 10.0, 100.0)[i % 4])
            _, report = solve_hib(
                problem,
                SolveOptions(beta=beta, distortion=DISTORTION_INPUT_FIRST),
            )
            trace = np.array(report.objective_trace)
            if len(trace) > 1:
                assert float(np.max(np.diff(trace))) <= 1e-10

    def test_distortion_direction_definition(self):
        rng = np.random.default_rng(7)
        problem = HibProblem(
            Dist(rng.dirichlet(np.ones(4))),
            (CondTable(rng.dirichlet(np.ones(3), size=4).T),),
        )
        state = derive_state(problem, init_encoders(problem, SolveOptions()))
        q = problem.task_conditionals[0].matrix
        dec = state.decoders[0].matrix
        forward = distortion(problem, state, 1)
        classical = distortion(problem, state, 1, DISTORTION_INPUT_FIRST)
        for s in range(4):
            for x in range(4):
                assert forward[s, x] == pytest.approx(
                    kl_divergence(Dist(dec[:, s]), Dist(q[:, x])), abs=1e-12
                )
                assert classical[s, x] == pytest.approx(
                    kl_divergence(Dist(q[:, x]), Dist(dec[:, s])), abs=1e-12
                )


class TestSequentialBaseline:
    def test_contrast_with_hierarchical_solver(self, fixtures_dir):
        from hibtask import files

        problem, opts = files.load_problem(
            fixtures_dir / "sequential" / "perturbed_problem.json"
        )
        assert opts is not None
        hib_state, _ = solve_hib(problem, opts)
        assert effective_cluster_count(hib_state, 1, 1e-3) == 4
        ib_opts = SolveOptions(beta=opts.beta, init=INIT_PERTURBED, seed=51)
        ib_state, _ = solve_ib_sequential(problem, ib_opts)
        assert effective_cluster_count(ib_state, 1, 1e-3) == 3


class TestEffectiveClusterCount:
    def test_identity_encoder_counts_all(self):
        problem = HibProblem(Dist.uniform(4), (CondTable(np.eye(4)),))
        state = derive_state(problem, init_encoders(problem, SolveOptions()))
        assert effective_cluster_count(state, 1, 1e-3) == 4

    def test_single_heavy_cluster(self):
        problem = HibProblem(Dist.uniform(3), (CondTable(np.eye(3)),), (1,))
        state = derive_state(problem, init_encoders(problem, SolveOptions()))
        assert effective_cluster_count(state, 1, 1e-3) == 1
