"""Iterative solvers for hierarchical information-bottleneck problems.

The solver minimizes

    sum_k I(S_{k-1}; S_k)  -  beta * sum_k I(T_k; S_k)

over the per-level encoders P(S_k | S_{k-1}) by alternating three coupled
updates per level: the encoder softmax step, the marginal refresh, and the
decoder refresh.  One outer iteration is a full bottom-up sweep over the
levels; marginals, decoders and lifted task conditionals are always derived
from the freshest encoder set.

``solve_hib`` is the one solve loop and reads every ``SolveOptions`` field.
``alpha`` weights the log prior in the encoder softmax (1/alpha) log p(s_k) -
beta d: 1 is the soft hierarchical bottleneck, and 0 its deterministic limit,
the argmax rule.  ``solve_ib`` is the same loop at one level.

A solve keeps one workspace of raw arrays: the encoders, the marginals, the
Bayes-inversion chain p(S_0 | S_j), the task conditionals and the decoders.
After the level-k encoder update only the marginals, chain entries and
decoders at levels >= k are recomputed, since nothing below level k depends
on that encoder.  The refresh evaluates the same expressions in the same
order as deriving the state from scratch, so it is bit-identical to it.
``CondTable`` and ``Dist`` validation happens at the API boundary only: on
the problems and states passed in and on the returned ``HibState``.

All computation is in log-space where it matters: encoder columns are
max-subtracted before exponentiation so large beta values cannot overflow,
and +inf distortions map to exactly zero mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateColumnError, DimensionError, ValidationError
from .probability import (
    CondTable,
    Dist,
    _bayes_matrix,
    _marginal,
    _mutual_information,
    bayes_invert,
    kl_divergence_matrix,
)

INIT_KRONECKER = "kronecker_delta"
INIT_PERTURBED = "seeded_perturbation"

# Which side of the per-level KL the cluster decoder sits on.
#
# "decoder_first" penalizes KL(p(t_k|s_k) || p(t_k|s_{k-1})): the printed form
# of the hierarchical update, and the form that reproduces the worked example
# tables.  It is a stationarity iteration, not a descent method: objective
# traces can oscillate and on some inputs the iteration limit-cycles without
# settling.
#
# "input_first" penalizes KL(p(t_k|s_{k-1}) || p(t_k|s_k)): the classical
# bottleneck distortion.  Every update is then a true alternating
# minimization; at one level the objective is provably non-increasing and the
# iteration converges to a fixed point.
DISTORTION_DECODER_FIRST = "decoder_first"
DISTORTION_INPUT_FIRST = "input_first"


@dataclass(frozen=True)
class HibProblem:
    """A hierarchical bottleneck instance.

    task_conditionals[k] is P(T_{k+1} | S_0); every table is anchored on the
    input elements, matching the bottom-up way the tables are produced.
    cluster_sizes defaults to |S_0| at every level.
    """

    prior: Dist
    task_conditionals: tuple[CondTable, ...]
    cluster_sizes: tuple[int, ...] | None = None

    def __post_init__(self):
        conds = tuple(self.task_conditionals)
        if not conds:
            raise ValidationError("HibProblem needs at least one level")
        for k, cond in enumerate(conds):
            if cond.n_cols != len(self.prior):
                raise DimensionError(
                    f"task conditional {k + 1} has {cond.n_cols} columns, "
                    f"prior has {len(self.prior)}"
                )
        sizes = self.cluster_sizes
        if sizes is None:
            sizes = tuple(len(self.prior) for _ in conds)
        else:
            sizes = tuple(int(s) for s in sizes)
            if len(sizes) != len(conds):
                raise DimensionError(
                    f"{len(sizes)} cluster sizes for {len(conds)} levels"
                )
            if any(s < 1 for s in sizes):
                raise ValidationError("cluster sizes must be >= 1")
        object.__setattr__(self, "task_conditionals", conds)
        object.__setattr__(self, "cluster_sizes", sizes)

    @property
    def n(self) -> int:
        return len(self.task_conditionals)


@dataclass(frozen=True)
class HibState:
    """Per-level encoders, marginals and decoders.

    marginals has n + 1 entries; marginals[0] is the problem prior and
    marginals[k] = marginal(encoders[k-1], marginals[k-1]).
    """

    encoders: tuple[CondTable, ...]
    marginals: tuple[Dist, ...]
    decoders: tuple[CondTable, ...]

    @property
    def n(self) -> int:
        return len(self.encoders)


@dataclass(frozen=True)
class SolveOptions:
    beta: float = 10.0
    alpha: float = 1.0
    min_iter: int = 10
    max_iter: int = 1000
    tol: float = 1e-8
    init: str = INIT_KRONECKER
    seed: int = 0
    distortion: str = DISTORTION_DECODER_FIRST

    def __post_init__(self):
        for name in ("min_iter", "max_iter", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        for name in ("beta", "alpha", "tol"):
            value = getattr(self, name)
            if (
                not isinstance(value, (int, float))
                or isinstance(value, bool)
                or not math.isfinite(value)
            ):
                raise ValidationError(f"{name} must be a finite number, got {value!r}")
        if self.max_iter < 1:
            raise ValidationError("max_iter must be at least 1")
        if self.seed < 0:
            raise ValidationError("seed must be nonnegative")
        if self.beta < 0:
            raise ValidationError("beta must be nonnegative")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValidationError("alpha must lie in [0, 1]")
        if self.min_iter > self.max_iter:
            raise ValidationError("min_iter must not exceed max_iter")
        if self.tol <= 0:
            raise ValidationError("tol must be positive")
        if self.init not in (INIT_KRONECKER, INIT_PERTURBED):
            raise ValidationError(f"unknown init {self.init!r}")
        if self.distortion not in (DISTORTION_DECODER_FIRST, DISTORTION_INPUT_FIRST):
            raise ValidationError(f"unknown distortion direction {self.distortion!r}")


@dataclass(frozen=True)
class SolveReport:
    objective_trace: tuple[float, ...]
    iterations: int
    converged: bool
    final_residual: float
    # per-sweep max abs encoder change; final_residual is its last entry
    residual_trace: tuple[float, ...] = ()


def _delta_encoder(rows: int, cols: int) -> np.ndarray:
    """Kronecker-delta init; a block surjection j -> j * rows // cols when the
    level shrinks, the identity when sizes match."""
    e = np.zeros((rows, cols))
    for j in range(cols):
        e[j * rows // cols, j] = 1.0
    return e


def init_encoders(problem: HibProblem, opts: SolveOptions) -> tuple[CondTable, ...]:
    rng = np.random.default_rng(opts.seed)
    encoders = []
    prev = len(problem.prior)
    for size in problem.cluster_sizes:
        if opts.init == INIT_KRONECKER:
            e = _delta_encoder(size, prev)
        else:
            e = np.full((size, prev), 1.0 / size)
            e = e * (1.0 + 0.01 * rng.random((size, prev)))
            e = e / e.sum(axis=0, keepdims=True)
        encoders.append(CondTable(e))
        prev = size
    return tuple(encoders)


class _Workspace:
    """The raw arrays of one solve, consistent with the encoder tables it
    is built from.

    ``chain[j]`` is p(S_0 | S_j) with ``chain[0]`` the identity; encoders,
    marginals and decoders follow the ``HibState`` indexing.
    """

    def __init__(self, problem: HibProblem, encoders):
        n = problem.n
        self.problem = problem
        self.tasks = [cond.matrix for cond in problem.task_conditionals]
        self.encoders = [enc.matrix for enc in encoders]
        self.marginals = [problem.prior.values] + [None] * n
        self.chain = [np.eye(len(problem.prior))] + [None] * n
        self.decoders = [None] * n
        self.refresh(1)

    def refresh(self, k: int) -> None:
        """Recompute the marginals, chain entries and decoders at levels >= k,
        the ones that depend on the level-k encoder."""
        for j in range(k, self.problem.n + 1):
            enc, below = self.encoders[j - 1], self.marginals[j - 1]
            v = self.marginals[j] = _marginal(enc, below)
            self.chain[j] = self.chain[j - 1] @ _bayes_matrix(enc, below, v)
            dec = self.tasks[j - 1] @ self.chain[j]
            dead = v <= 0
            if np.any(dead):
                dec = dec.copy()
                dec[:, dead] = 1.0 / dec.shape[0]
            self.decoders[j - 1] = dec / dec.sum(axis=0, keepdims=True)

    def distortion(self, k: int, direction: str) -> np.ndarray:
        """See ``distortion``."""

        def pair_kl(dec: np.ndarray, q: np.ndarray) -> np.ndarray:
            if direction == DISTORTION_DECODER_FIRST:
                return kl_divergence_matrix(dec, q)
            return kl_divergence_matrix(q, dec).T

        # the lifted tables P(T_i | S_{k-1}) are formed here, not cached: for
        # k > 1, chain[k - 1] changes between any two updates that use it
        base = self.chain[k - 1]
        d = pair_kl(self.decoders[k - 1], self.tasks[k - 1] @ base)
        cluster_chain = np.eye(self.problem.cluster_sizes[k - 1])
        for i in range(k + 1, self.problem.n + 1):
            cluster_chain = self.encoders[i - 1] @ cluster_chain
            kls = pair_kl(self.decoders[i - 1], self.tasks[i - 1] @ base)
            d = d + _weighted_kl_sum(cluster_chain.T, kls)
        return d

    def objective(self, beta: float) -> float:
        """See ``objective``."""
        return _objective(self.encoders, self.marginals, self.decoders, beta)

    def state(self, encoders=None) -> HibState:
        """The validated ``HibState``; ``encoders`` are the tables the
        workspace was built from, when the caller has them."""
        if encoders is None:
            encoders = tuple(CondTable(enc) for enc in self.encoders)
        marginals = (self.problem.prior,) + tuple(map(Dist, self.marginals[1:]))
        decoders = tuple(
            CondTable(dec, cond.row_labels)
            for dec, cond in zip(self.decoders, self.problem.task_conditionals)
        )
        return HibState(tuple(encoders), marginals, decoders)


def derive_state(problem: HibProblem, encoders) -> HibState:
    """Build the consistent state (marginals, decoders) for an encoder set.

    Decoder columns for zero-mass clusters are set uniform; they carry no
    mass and the equations leave them undefined.
    """
    encoders = tuple(encoders)
    return _Workspace(problem, encoders).state(encoders)


def _weighted_kl_sum(weights: np.ndarray, kls: np.ndarray) -> np.ndarray:
    """weights @ kls with the 0 * inf = 0 convention."""
    inf = np.isinf(kls)
    if not np.any(inf):
        return weights @ kls
    finite = np.where(inf, 0.0, kls)
    out = weights @ finite
    hit_inf = (weights > 0).astype(float) @ inf.astype(float) > 0
    out[hit_inf] = np.inf
    return out


def distortion(
    problem: HibProblem,
    state: HibState,
    k: int,
    direction: str = DISTORTION_DECODER_FIRST,
) -> np.ndarray:
    """Distortion matrix d(s_k, s_{k-1}) for the level-k encoder update.

    Entry (s_k, s_{k-1}) is the KL between the level decoder column and the
    task conditional lifted to level k-1 (argument order per ``direction``),
    plus the contributions of every higher level weighted by p(s_i | s_k).
    """
    n = problem.n
    if not 1 <= k <= n:
        raise DimensionError(f"level {k} out of range 1..{n}")
    return _Workspace(problem, state.encoders).distortion(k, direction)


def _encoder_from_distortion(
    log_prior: np.ndarray, d: np.ndarray, beta: float, alpha: float, level: int
) -> np.ndarray:
    """Log-space softmax of (1/alpha) log p(s_k) - beta d, or the argmax rule
    at alpha = 0 (lowest index on ties).  Raises DegenerateColumnError when a
    column has no admissible cluster."""
    # 0 * inf = 0 as in _weighted_kl_sum: at beta = 0 no distortion counts,
    # infinite ones included
    penalty = beta * d if beta > 0 else np.zeros_like(d)
    if alpha == 0.0:
        score = log_prior[:, None] - penalty
        dead = np.all(np.isneginf(score), axis=0)
        if np.any(dead):
            raise DegenerateColumnError(level, int(np.argmax(dead)))
        out = np.zeros_like(d)
        out[np.argmax(score, axis=0), np.arange(d.shape[1])] = 1.0
        return out
    weight = 1.0 / alpha
    expo = weight * log_prior[:, None] - penalty
    mx = np.max(expo, axis=0, keepdims=True)
    dead_cols = np.isneginf(mx)
    if np.any(dead_cols):
        raise DegenerateColumnError(level, int(np.argmax(dead_cols[0])))
    shifted = np.where(np.isneginf(expo), -np.inf, expo - mx)
    raw = np.exp(shifted, where=~np.isneginf(shifted), out=np.zeros_like(shifted))
    return raw / raw.sum(axis=0, keepdims=True)


def _log_or_neginf(v: np.ndarray) -> np.ndarray:
    out = np.full_like(v, -np.inf)
    pos = v > 0
    out[pos] = np.log(v[pos])
    return out


def _update_level(ws: _Workspace, k: int, opts: SolveOptions) -> float:
    """Replace the level-k encoder (1-based) by its closed-form update and
    refresh the levels >= k.  Returns the largest absolute encoder change."""
    d = ws.distortion(k, opts.distortion)
    log_prior = _log_or_neginf(ws.marginals[k])
    new_enc = _encoder_from_distortion(log_prior, d, opts.beta, opts.alpha, k)
    change = float(np.max(np.abs(new_enc - ws.encoders[k - 1])))
    ws.encoders[k - 1] = new_enc
    ws.refresh(k)
    return change


def update_level(
    problem: HibProblem, state: HibState, k: int, opts: SolveOptions
) -> HibState:
    """One encoder/marginal/decoder refresh at level k (1-based)."""
    ws = _Workspace(problem, state.encoders)
    _update_level(ws, k, opts)
    return ws.state()


def _objective(encoders, marginals, decoders, beta: float) -> float:
    total = 0.0
    for k, (enc, dec) in enumerate(zip(encoders, decoders)):
        total += _mutual_information(enc, marginals[k])
        total -= beta * _mutual_information(dec, marginals[k + 1])
    return total


def objective(problem: HibProblem, state: HibState, beta: float) -> float:
    """sum_k I(S_{k-1}; S_k) - beta * sum_k I(T_k; S_k) in nats."""
    return _objective(
        [enc.matrix for enc in state.encoders],
        [m.values for m in state.marginals],
        [dec.matrix for dec in state.decoders],
        beta,
    )


def solve_hib(problem: HibProblem, opts: SolveOptions = SolveOptions()):
    """Run bottom-up sweeps until the objective decrease falls below tol;
    at alpha = 0 every column goes to its argmax cluster (lowest index on
    ties)."""
    ws = _Workspace(problem, init_encoders(problem, opts))
    prev_obj = ws.objective(opts.beta)
    trace: list[float] = []
    residuals: list[float] = []
    converged = False
    iterations = 0
    for it in range(opts.max_iter):
        residuals.append(
            max(_update_level(ws, k, opts) for k in range(1, problem.n + 1))
        )
        obj = ws.objective(opts.beta)
        trace.append(obj)
        iterations = it + 1
        if iterations >= opts.min_iter and prev_obj - obj < opts.tol:
            converged = True
            break
        prev_obj = obj
    report = SolveReport(
        tuple(trace), iterations, converged, residuals[-1], tuple(residuals)
    )
    return ws.state(), report


def solve_ib(
    prior: Dist,
    task_conditional: CondTable,
    opts: SolveOptions = SolveOptions(),
    cluster_size: int | None = None,
):
    """Classical single-level bottleneck; wraps solve_hib with n = 1."""
    sizes = None if cluster_size is None else (cluster_size,)
    problem = HibProblem(prior, (task_conditional,), sizes)
    return solve_hib(problem, opts)


def solve_ib_sequential(problem: HibProblem, opts: SolveOptions = SolveOptions()):
    """Baseline: solve each level as an independent classical IB, bottom-up.

    Level k compresses the previous level's marginal against the level-k
    task conditional lifted through the already-fixed lower encoders.  The
    assembled state is directly comparable with solve_hib output.
    """
    encoders: list[CondTable] = []
    reports: list[SolveReport] = []
    prior = problem.prior
    lifted = [cond.matrix for cond in problem.task_conditionals]
    for k in range(problem.n):
        cond = CondTable(lifted[k])
        sub_state, sub_report = solve_ib(
            prior, cond, opts, cluster_size=problem.cluster_sizes[k]
        )
        enc = sub_state.encoders[0]
        encoders.append(enc)
        reports.append(sub_report)
        inv = bayes_invert(enc, prior, sub_state.marginals[1])
        lifted = [q @ inv.matrix for q in lifted]
        prior = sub_state.marginals[1]
    return derive_state(problem, encoders), reports


def fixed_point_residual(
    problem: HibProblem, state: HibState, opts: SolveOptions
) -> float:
    """Max absolute encoder change when the closed-form update is re-applied
    to a state, every level to the state as given; small values certify a
    self-consistent fixed point."""
    return max(
        _update_level(_Workspace(problem, state.encoders), k, opts)
        for k in range(1, problem.n + 1)
    )


def effective_cluster_count(state: HibState, k: int, mass_threshold: float) -> int:
    """Number of level-k clusters carrying marginal mass above the threshold."""
    if not 0.0 < mass_threshold < 1.0:
        raise ValidationError("mass_threshold must lie in (0, 1)")
    if not 1 <= k <= state.n:
        raise DimensionError(f"level {k} out of range 1..{state.n}")
    return int(np.sum(state.marginals[k].values > mass_threshold))
