import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hibtask import (
    CondTable,
    Dist,
    DimensionError,
    ValidationError,
    bayes_invert,
    chain,
    entropy,
    kl_divergence,
    kl_divergence_matrix,
    marginal,
    mutual_information,
)
from tests.conftest import P_OX, P_UO


def brute_force_mi(cond: np.ndarray, py: np.ndarray) -> float:
    """Independent double-sum oracle for I(X;Y)."""
    px = cond @ py
    total = 0.0
    for i in range(cond.shape[0]):
        for j in range(cond.shape[1]):
            joint = cond[i, j] * py[j]
            if joint > 0:
                total += joint * math.log(joint / (px[i] * py[j]))
    return total


def column_loop_mi(m: np.ndarray, w: np.ndarray) -> float:
    """The per-column loop mutual_information must reproduce exactly."""
    px = m @ w
    total = 0.0
    for j in range(m.shape[1]):
        if w[j] == 0:
            continue
        col = m[:, j]
        mask = (col > 0) & (px > 0)
        total += w[j] * float(np.sum(col[mask] * np.log(col[mask] / px[mask])))
    return max(total, 0.0)


def dists(min_n=2, max_n=6, full_support=True):
    def build(weights):
        arr = np.array(weights)
        if full_support:
            arr = arr + 1e-3
        s = arr.sum()
        if s <= 0:
            arr = np.ones_like(arr)
            s = arr.sum()
        return Dist(arr / s)

    return st.lists(
        st.floats(0.0, 1.0, allow_nan=False), min_size=min_n, max_size=max_n
    ).map(build)


def cond_tables(rows, cols, full_support=True):
    def build(weights):
        arr = np.array(weights).reshape(rows, cols)
        if full_support:
            arr = arr + 1e-3
        sums = arr.sum(axis=0)
        sums[sums == 0] = 1.0
        arr = arr / sums
        arr[:, np.array(weights).reshape(rows, cols).sum(axis=0) == 0] = 1.0 / rows
        return CondTable(arr)

    return st.lists(
        st.floats(0.0, 1.0, allow_nan=False),
        min_size=rows * cols,
        max_size=rows * cols,
    ).map(build)


class TestValidation:
    def test_dist_rejects_negative(self):
        with pytest.raises(ValidationError):
            Dist(np.array([1.2, -0.2]))

    def test_dist_rejects_bad_sum(self):
        with pytest.raises(ValidationError):
            Dist(np.array([0.5, 0.4]))

    def test_dist_tolerates_1e9_drift(self):
        Dist(np.array([0.5, 0.5 + 5e-10]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_dist_rejects_non_finite(self, bad):
        # NaN compares False against every bound, so only an explicit
        # finiteness check catches it
        with pytest.raises(ValidationError, match="finite"):
            Dist(np.array([bad, 1.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_cond_table_rejects_non_finite(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            CondTable(np.array([[bad], [1.0]]))

    def test_cond_table_rejects_bad_column(self):
        with pytest.raises(ValidationError):
            CondTable(np.array([[0.5, 0.9], [0.5, 0.2]]))

    def test_label_length_checked(self):
        with pytest.raises(ValidationError):
            Dist(np.array([0.5, 0.5]), ("a",))

    def test_values_are_readonly(self):
        d = Dist(np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            d.values[0] = 1.0


class TestKlDivergence:
    def test_identical_is_zero(self):
        p = Dist(np.array([0.5, 0.5]))
        assert kl_divergence(p, p) == 0.0

    def test_hand_value(self):
        p = Dist(np.array([0.5, 0.5]))
        q = Dist(np.array([0.25, 0.75]))
        expected = 0.5 * math.log(0.5 / 0.25) + 0.5 * math.log(0.5 / 0.75)
        assert abs(expected - 0.14384) < 1e-5
        assert kl_divergence(p, q) == pytest.approx(expected, abs=1e-12)

    def test_support_mismatch_is_infinite(self):
        p = Dist(np.array([1.0, 0.0]))
        q = Dist(np.array([0.0, 1.0]))
        assert kl_divergence(p, q) == math.inf

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            kl_divergence(Dist(np.array([1.0])), Dist(np.array([0.5, 0.5])))

    @given(dists(), dists())
    @settings(max_examples=150, deadline=None)
    def test_nonnegative_and_zero_iff_equal(self, p, q):
        if len(p) != len(q):
            return
        val = kl_divergence(p, q)
        assert val >= 0.0
        if np.max(np.abs(p.values - q.values)) < 1e-12:
            assert val <= 1e-10
        elif val == 0.0:
            assert np.max(np.abs(p.values - q.values)) < 1e-12

    def test_matrix_matches_pairwise(self):
        rng = np.random.default_rng(0)
        p = rng.dirichlet(np.ones(4), size=3).T
        q = rng.dirichlet(np.ones(4), size=5).T
        out = kl_divergence_matrix(p, q)
        for a in range(3):
            for b in range(5):
                expected = kl_divergence(Dist(p[:, a]), Dist(q[:, b]))
                assert out[a, b] == pytest.approx(expected, abs=1e-12)

    def test_matrix_infinities(self):
        p = np.array([[1.0], [0.0]])
        q = np.array([[0.0, 0.5], [1.0, 0.5]])
        out = kl_divergence_matrix(p, q)
        assert out[0, 0] == math.inf
        assert out[0, 1] == pytest.approx(math.log(2.0))


class TestEntropy:
    def test_deterministic_is_zero(self):
        assert entropy(Dist(np.array([1.0, 0.0, 0.0]))) == 0.0

    def test_uniform_two(self):
        assert entropy(Dist.uniform(2)) == pytest.approx(math.log(2), abs=1e-12)

    def test_hand_value(self):
        v = np.array([0.6, 0.16, 0.24])
        expected = -sum(x * math.log(x) for x in v)
        assert entropy(Dist(v)) == pytest.approx(expected, abs=1e-12)


class TestMutualInformation:
    def test_identical_columns_give_zero(self):
        cond = CondTable(np.array([[0.3, 0.3], [0.7, 0.7]]))
        assert mutual_information(cond, Dist(np.array([0.4, 0.6]))) == 0.0

    def test_identity_channel_gives_entropy(self):
        assert mutual_information(
            CondTable.identity(4), Dist.uniform(4)
        ) == pytest.approx(math.log(4), abs=1e-12)

    def test_tutorial_channel_matches_brute_force(self):
        py = np.full(5, 0.2)
        expected = brute_force_mi(P_OX, py)
        got = mutual_information(CondTable(P_OX), Dist(py))
        assert got == pytest.approx(expected, abs=1e-12)

    @given(cond_tables(3, 4), dists(4, 4))
    @settings(max_examples=100, deadline=None)
    def test_nonnegative(self, cond, py):
        assert mutual_information(cond, py) >= 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            mutual_information(CondTable.identity(3), Dist.uniform(4))

    def test_equals_column_loop_bit_for_bit(self):
        rng = np.random.default_rng(17)
        for trial in range(120):
            rows = int(rng.integers(1, 40)) if trial % 3 else int(rng.integers(100, 300))
            cols = int(rng.integers(1, 40))
            m = rng.dirichlet(np.ones(rows) * rng.choice([0.05, 1.0]), size=cols).T
            w = rng.dirichlet(np.ones(cols))
            if trial % 2:  # exact zeros in the table and zero-weight columns
                m[rng.random(m.shape) < 0.4] = 0.0
                m[:, m.sum(axis=0) == 0] = 1.0 / rows
                m = m / m.sum(axis=0)
                w[rng.random(cols) < 0.3] = 0.0
                if w.sum() == 0:
                    w[-1] = 1.0
                w = w / w.sum()
            got = mutual_information(CondTable(m), Dist(w))
            assert got == column_loop_mi(m, w)


class TestChain:
    def test_identity_is_noop(self):
        t = CondTable(P_UO)
        out = chain(CondTable.identity(3), t)
        assert np.allclose(out.matrix, t.matrix)

    def test_tutorial_lift_column_x1(self):
        out = chain(CondTable(P_UO), CondTable(P_OX))
        assert np.allclose(out.matrix[:, 0], [0.60, 0.16, 0.24], atol=1e-12)

    def test_columns_stochastic_and_associative(self):
        rng = np.random.default_rng(1)
        a = CondTable(rng.dirichlet(np.ones(3), size=4).T)
        b = CondTable(rng.dirichlet(np.ones(4), size=5).T)
        c = CondTable(rng.dirichlet(np.ones(5), size=6).T)
        left = chain(chain(a, b), c)
        right = chain(a, chain(b, c))
        assert np.allclose(left.matrix, right.matrix, atol=1e-12)
        assert np.allclose(left.matrix.sum(axis=0), 1.0, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            chain(CondTable.identity(3), CondTable.identity(4))


class TestMarginal:
    def test_identity_preserves(self):
        py = Dist(np.array([0.2, 0.3, 0.5]))
        assert np.allclose(marginal(CondTable.identity(3), py).values, py.values)

    def test_tutorial_rows(self):
        out = marginal(CondTable(P_OX), Dist.uniform(5))
        assert np.allclose(out.values, [0.32, 0.20, 0.14, 0.34], atol=1e-12)

    def test_delta_input_selects_column(self):
        cond = CondTable(P_OX)
        out = marginal(cond, Dist.delta(5, 2))
        assert np.allclose(out.values, P_OX[:, 2])


class TestBayesInvert:
    def test_identity_with_uniform_prior(self):
        out = bayes_invert(CondTable.identity(4), Dist.uniform(4))
        assert np.allclose(out.matrix, np.eye(4))

    def test_tutorial_grouped_elements(self):
        # first-update encoder of the worked example: elements 3 and 4 share
        # mass in clusters 3 and 4
        enc = np.array(
            [
                [1.0, 0, 0, 0, 0],
                [0, 1.0, 0, 0, 0],
                [0, 0, 0.5, 0.5, 0],
                [0, 0, 0.5, 0.5, 0],
                [0, 0, 0, 0, 1.0],
            ]
        )
        out = bayes_invert(CondTable(enc), Dist.uniform(5))
        assert out.matrix[2, 2] == pytest.approx(0.5)
        assert out.matrix[3, 2] == pytest.approx(0.5)

    def test_pipeline_through_chain_matches_brute_force(self):
        # lift P(U|O) over the grouped inversion and compare against a direct
        # per-entry double sum
        enc = CondTable(
            np.array(
                [
                    [1.0, 0, 0, 0, 0],
                    [0, 1.0, 0, 0, 0],
                    [0, 0, 0.5, 0.5, 0],
                    [0, 0, 0.5, 0.5, 0],
                    [0, 0, 0, 0, 1.0],
                ]
            )
        )
        prior = Dist.uniform(5)
        p_ux = P_UO @ P_OX
        inv = bayes_invert(enc, prior)
        lifted = CondTable(p_ux).matrix @ inv.matrix
        for u in range(3):
            for s in range(5):
                expected = sum(
                    p_ux[u, x] * enc.matrix[s, x] * 0.2 / (0.2 * enc.matrix[s].sum())
                    for x in range(5)
                )
                assert lifted[u, s] == pytest.approx(expected, abs=1e-12)

    def test_inconsistent_marginal_rejected(self):
        with pytest.raises(ValidationError):
            bayes_invert(
                CondTable(P_OX), Dist.uniform(5), Dist.uniform(4)
            )

    def test_zero_mass_column_uniform(self):
        cond = CondTable(np.array([[1.0, 1.0], [0.0, 0.0]]))
        out = bayes_invert(cond, Dist(np.array([0.3, 0.7])))
        assert np.allclose(out.matrix[:, 1], [0.5, 0.5])

    @given(cond_tables(3, 3), dists(3, 3))
    @settings(max_examples=100, deadline=None)
    def test_double_inversion_recovers(self, cond, py):
        px = marginal(cond, py)
        inv = bayes_invert(cond, py, px)
        back = bayes_invert(inv, px, py)
        assert np.max(np.abs(back.matrix - cond.matrix)) < 1e-10


@given(cond_tables(4, 3), dists(3, 3))
@settings(max_examples=100, deadline=None)
def test_operations_return_valid_objects(cond, py):
    m = marginal(cond, py)
    assert np.all(m.values >= 0) and abs(m.values.sum() - 1) < 1e-9
    inv = bayes_invert(cond, py)
    assert np.allclose(inv.matrix.sum(axis=0), 1.0, atol=1e-9)
    out = chain(inv, cond)
    assert np.allclose(out.matrix.sum(axis=0), 1.0, atol=1e-9)
