"""Exact discrete-probability primitives.

Conventions used throughout the package:

- natural logarithm everywhere (values are in nats),
- ``0 * log 0 = 0``,
- ``KL(p || q) = +inf`` as soon as p puts mass where q has none,
- conditional tables are column-stochastic: entry ``(i, j)`` is ``P(row_i | col_j)``
  and every column sums to one.

No epsilon smoothing is applied anywhere; exact zeros are first-class values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ValidationError

# Tolerance for accepting a distribution / column as normalized.
NORMALIZATION_TOL = 1e-9
# Columns whose sums drift from 1 by more than this are renormalized by the
# operations below; smaller drift is left untouched so genuine bugs surface.
RENORMALIZE_DRIFT = 1e-12


def _as_readonly(a) -> np.ndarray:
    arr = np.array(a, dtype=float)
    arr.setflags(write=False)
    return arr


def _check_labels(labels, n: int, what: str):
    if labels is None:
        return None
    labels = tuple(labels)
    if len(labels) != n:
        raise ValidationError(f"{what}: {len(labels)} labels for {n} entries")
    return labels


@dataclass(frozen=True)
class Dist:
    """A discrete probability distribution (probability mass vector)."""

    values: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        values = _as_readonly(self.values)
        if values.ndim != 1:
            raise ValidationError(f"Dist expects a vector, got shape {values.shape}")
        if values.size == 0:
            raise ValidationError("Dist cannot be empty")
        if not np.all(np.isfinite(values)):
            raise ValidationError("Dist entries must be finite")
        if np.any(values < 0):
            raise ValidationError("Dist entries must be nonnegative")
        if abs(float(values.sum()) - 1.0) > NORMALIZATION_TOL:
            raise ValidationError(
                f"Dist entries sum to {float(values.sum())!r}, not 1"
            )
        object.__setattr__(self, "values", values)
        object.__setattr__(
            self, "labels", _check_labels(self.labels, values.size, "Dist")
        )

    def __len__(self) -> int:
        return self.values.size

    @staticmethod
    def uniform(n: int, labels=None) -> "Dist":
        return Dist(np.full(n, 1.0 / n), labels)

    @staticmethod
    def delta(n: int, index: int, labels=None) -> "Dist":
        v = np.zeros(n)
        v[index] = 1.0
        return Dist(v, labels)


@dataclass(frozen=True)
class CondTable:
    """A column-stochastic conditional probability table P(row | col)."""

    matrix: np.ndarray
    row_labels: tuple[str, ...] | None = None
    col_labels: tuple[str, ...] | None = None

    def __post_init__(self):
        matrix = _as_readonly(self.matrix)
        if matrix.ndim != 2:
            raise ValidationError(f"CondTable expects a matrix, got shape {matrix.shape}")
        if matrix.size == 0:
            raise ValidationError("CondTable cannot be empty")
        if not np.all(np.isfinite(matrix)):
            raise ValidationError("CondTable entries must be finite")
        if np.any(matrix < 0):
            raise ValidationError("CondTable entries must be nonnegative")
        sums = matrix.sum(axis=0)
        bad = np.abs(sums - 1.0) > NORMALIZATION_TOL
        if np.any(bad):
            j = int(np.argmax(bad))
            raise ValidationError(
                f"CondTable column {j} sums to {float(sums[j])!r}, not 1"
            )
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(
            self, "row_labels", _check_labels(self.row_labels, matrix.shape[0], "rows")
        )
        object.__setattr__(
            self, "col_labels", _check_labels(self.col_labels, matrix.shape[1], "cols")
        )

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_cols(self) -> int:
        return self.matrix.shape[1]

    @staticmethod
    def identity(n: int, labels=None) -> "CondTable":
        return CondTable(np.eye(n), labels, labels)


def _fix_column_drift(matrix: np.ndarray) -> np.ndarray:
    """Renormalize columns whose sums drifted beyond RENORMALIZE_DRIFT."""
    sums = matrix.sum(axis=0)
    drift = np.abs(sums - 1.0) > RENORMALIZE_DRIFT
    if np.any(drift):
        matrix = matrix.copy()
        matrix[:, drift] /= sums[drift]
    return matrix


def _xlogx(v: np.ndarray) -> np.ndarray:
    """v * log v with the 0 * log 0 = 0 convention."""
    out = np.zeros_like(v)
    pos = v > 0
    out[pos] = v[pos] * np.log(v[pos])
    return out


def kl_divergence(p: Dist, q: Dist) -> float:
    """Kullback-Leibler divergence KL(p || q) in nats; +inf on support mismatch."""
    if len(p) != len(q):
        raise DimensionError(f"KL: lengths differ ({len(p)} vs {len(q)})")
    pv, qv = p.values, q.values
    mask = pv > 0
    if np.any(qv[mask] == 0):
        return float("inf")
    val = float(np.sum(pv[mask] * np.log(pv[mask] / qv[mask])))
    return max(val, 0.0)


def kl_divergence_matrix(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Pairwise KL between columns: entry (a, b) = KL(p[:, a] || q[:, b]).

    Both arguments are raw column-stochastic arrays sharing the row space.
    Entries where a column of p puts mass outside the support of a column of
    q are +inf.
    """
    if p.shape[0] != q.shape[0]:
        raise DimensionError(f"KL matrix: row spaces differ ({p.shape} vs {q.shape})")
    plogp = _xlogx(p).sum(axis=0)  # (a,)
    logq = np.zeros_like(q)
    qpos = q > 0
    logq[qpos] = np.log(q[qpos])
    cross = p.T @ logq  # (a, b); wrong where inf belongs, fixed below
    out = plogp[:, None] - cross
    qzero = q == 0
    if np.any(qzero):
        infeasible = (p > 0).T.astype(float) @ qzero.astype(float) > 0
        out[infeasible] = np.inf
    return np.maximum(out, 0.0)


def entropy(p: Dist) -> float:
    """Shannon entropy in nats, 0 * log 0 = 0."""
    return max(float(-_xlogx(p.values).sum()), 0.0)


def mutual_information(cond: CondTable, py: Dist) -> float:
    """I(X; Y) for the channel P(x|y) = cond driven by p(y) = py, in nats.

    The output marginal p(x) is computed internally; the result is clamped
    at zero to absorb rounding (mutual information is nonnegative).
    """
    if cond.n_cols != len(py):
        raise DimensionError(
            f"mutual information: {cond.n_cols} columns vs |py| = {len(py)}"
        )
    return _mutual_information(cond.matrix, py.values)


def _mutual_information(m: np.ndarray, w: np.ndarray) -> float:
    """mutual_information on raw arrays.

    Column y contributes p(y) * sum_x P(x|y) log(P(x|y) / p(x)) over the x
    with P(x|y) > 0 and p(x) > 0 (p(x) == 0 alongside P(x|y) > 0 only
    happens when the joint underflowed; its exact contribution is zero
    either way), and the contributions of the columns with p(y) != 0 are
    added in column order.  Columns with the same number of kept entries
    are packed into the rows of one contiguous array, so each row sum runs
    numpy's pairwise summation over exactly the entries of a per-column
    sum: the result is bit-identical to a loop over the columns.
    """
    px = m @ w
    live = w != 0
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.ascontiguousarray((m * np.log(m / px[:, None])).T)
    kept = ((m > 0) & (px[:, None] > 0)).T
    counts = kept.sum(axis=1)
    sums = np.zeros(m.shape[1])
    # a set, not np.unique: its first call costs about 1.5 MB of resident memory
    for count in set(counts[live].tolist()):
        rows = live & (counts == count)
        packed = terms[rows][kept[rows]].reshape(int(rows.sum()), count)
        sums[rows] = packed.sum(axis=1)
    total = np.cumsum(np.append(0.0, w[live] * sums[live]))[-1]
    return max(total, 0.0)


def chain(outer: CondTable, inner: CondTable) -> CondTable:
    """Markov composition: chain(P(z|y), P(y|x)) = P(z|x)."""
    if outer.n_cols != inner.n_rows:
        raise DimensionError(
            f"chain: outer has {outer.n_cols} columns, inner has {inner.n_rows} rows"
        )
    product = _fix_column_drift(outer.matrix @ inner.matrix)
    return CondTable(product, outer.row_labels, inner.col_labels)


def marginal(cond: CondTable, py: Dist) -> Dist:
    """Output marginal p(x) = sum_y P(x|y) p(y)."""
    if cond.n_cols != len(py):
        raise DimensionError(f"marginal: {cond.n_cols} columns vs |py| = {len(py)}")
    return Dist(_marginal(cond.matrix, py.values), cond.row_labels)


def _marginal(m: np.ndarray, w: np.ndarray) -> np.ndarray:
    """marginal on raw arrays."""
    v = m @ w
    s = float(v.sum())
    if abs(s - 1.0) > RENORMALIZE_DRIFT:
        v = v / s
    return v


def bayes_invert(cond: CondTable, py: Dist, px: Dist | None = None) -> CondTable:
    """Invert P(x|y) with prior p(y) into P(y|x).

    Entry (j, i) is cond(i, j) * py_j / px_i.  Columns for zero-mass x are
    set to uniform so the result stays a valid table.  When px is supplied
    it must agree with the implied marginal.
    """
    if cond.n_cols != len(py):
        raise DimensionError(f"bayes_invert: {cond.n_cols} columns vs |py| = {len(py)}")
    implied = cond.matrix @ py.values
    if px is None:
        pxv = implied
    else:
        if len(px) != cond.n_rows:
            raise DimensionError(
                f"bayes_invert: |px| = {len(px)} vs {cond.n_rows} rows"
            )
        if np.max(np.abs(px.values - implied)) > NORMALIZATION_TOL:
            raise ValidationError("bayes_invert: px is not the marginal of (cond, py)")
        pxv = px.values
    out = _bayes_matrix(cond.matrix, py.values, pxv)
    return CondTable(out, cond.col_labels, cond.row_labels)


def _bayes_matrix(m: np.ndarray, py: np.ndarray, pxv: np.ndarray) -> np.ndarray:
    """bayes_invert on raw arrays, with pxv the marginal of (m, py)."""
    joint = m * py[None, :]  # (x, y)
    out = joint.T.astype(float)  # (y, x)
    zero = pxv <= 0
    safe = np.where(zero, 1.0, pxv)
    out = out / safe[None, :]
    if np.any(zero):
        out[:, zero] = 1.0 / out.shape[0]
    return _fix_column_drift(out)
