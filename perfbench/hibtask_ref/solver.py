"""Iterative solvers for hierarchical information-bottleneck problems.

The solver minimizes

    sum_k I(S_{k-1}; S_k)  -  beta * sum_k I(T_k; S_k)

over the per-level encoders P(S_k | S_{k-1}) by alternating three coupled
updates per level: the encoder softmax step, the marginal refresh, and the
decoder refresh.  One outer iteration is a full bottom-up sweep over the
levels; marginals, decoders and lifted task conditionals are always derived
from the freshest encoder set.

All computation is in log-space where it matters: encoder columns are
max-subtracted before exponentiation so large beta values cannot overflow,
and +inf distortions map to exactly zero mass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateColumnError, DimensionError, ValidationError
from .probability import (
    CondTable,
    Dist,
    bayes_invert,
    kl_divergence_matrix,
    mutual_information,
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


def _inversion_chain(problem: HibProblem, encoders, marginals) -> list[np.ndarray]:
    """W[j] = p(S_0 | S_j) as a raw array; W[0] is the identity."""
    m0 = len(problem.prior)
    chain = [np.eye(m0)]
    for j, enc in enumerate(encoders):
        inv = bayes_invert(enc, marginals[j], marginals[j + 1])
        chain.append(chain[j] @ inv.matrix)
    return chain


def derive_state(problem: HibProblem, encoders) -> HibState:
    """Build the consistent state (marginals, decoders) for an encoder set.

    Decoder columns for zero-mass clusters are set uniform; they carry no
    mass and the equations leave them undefined.
    """
    encoders = tuple(encoders)
    marginals = [problem.prior]
    for k, enc in enumerate(encoders):
        v = enc.matrix @ marginals[k].values
        s = float(v.sum())
        if abs(s - 1.0) > 1e-12:
            v = v / s
        marginals.append(Dist(v))
    chain = _inversion_chain(problem, encoders, marginals)
    decoders = []
    for k, cond in enumerate(problem.task_conditionals):
        dec = cond.matrix @ chain[k + 1]
        dead = marginals[k + 1].values <= 0
        if np.any(dead):
            dec = dec.copy()
            dec[:, dead] = 1.0 / dec.shape[0]
        dec = dec / dec.sum(axis=0, keepdims=True)
        decoders.append(CondTable(dec, cond.row_labels))
    return HibState(encoders, tuple(marginals), tuple(decoders))


def _weighted_kl_sum(weights: np.ndarray, kls: np.ndarray) -> np.ndarray:
    """weights @ kls with the 0 * inf = 0 convention."""
    finite = np.where(np.isinf(kls), 0.0, kls)
    out = weights @ finite
    hit_inf = (weights > 0).astype(float) @ np.isinf(kls).astype(float) > 0
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
    chain = _inversion_chain(problem, state.encoders, state.marginals)
    lifted = {
        i: problem.task_conditionals[i - 1].matrix @ chain[k - 1]
        for i in range(k, n + 1)
    }

    def pair_kl(dec: np.ndarray, q: np.ndarray) -> np.ndarray:
        if direction == DISTORTION_DECODER_FIRST:
            return kl_divergence_matrix(dec, q)
        return kl_divergence_matrix(q, dec).T

    d = pair_kl(state.decoders[k - 1].matrix, lifted[k])
    cluster_chain = np.eye(problem.cluster_sizes[k - 1])
    for i in range(k + 1, n + 1):
        cluster_chain = state.encoders[i - 1].matrix @ cluster_chain
        kls = pair_kl(state.decoders[i - 1].matrix, lifted[i])
        d = d + _weighted_kl_sum(cluster_chain.T, kls)
    return d


def _encoder_from_distortion(
    log_prior: np.ndarray, d: np.ndarray, beta: float, alpha: float, level: int
) -> np.ndarray:
    """Log-space softmax of (1/alpha) log p(s_k) - beta d, or the argmax rule
    at alpha = 0.  Raises DegenerateColumnError when a column has no
    admissible cluster."""
    if alpha == 0.0:
        score = log_prior[:, None] - beta * d
        out = np.zeros_like(d)
        for j in range(d.shape[1]):
            col = score[:, j]
            if np.all(np.isneginf(col)):
                raise DegenerateColumnError(level, j)
            out[int(np.argmax(col)), j] = 1.0
        return out
    weight = 1.0 / alpha
    expo = weight * log_prior[:, None] - beta * d
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


def _update_level(
    problem: HibProblem,
    state: HibState,
    k: int,
    beta: float,
    alpha: float,
    direction: str = DISTORTION_DECODER_FIRST,
) -> HibState:
    d = distortion(problem, state, k, direction)
    log_prior = _log_or_neginf(state.marginals[k].values)
    new_enc = _encoder_from_distortion(log_prior, d, beta, alpha, k)
    encoders = list(state.encoders)
    encoders[k - 1] = CondTable(new_enc)
    return derive_state(problem, encoders)


def update_level(
    problem: HibProblem, state: HibState, k: int, opts: SolveOptions
) -> HibState:
    """One encoder/marginal/decoder refresh at level k (1-based)."""
    return _update_level(problem, state, k, opts.beta, opts.alpha, opts.distortion)


def objective(problem: HibProblem, state: HibState, beta: float) -> float:
    """sum_k I(S_{k-1}; S_k) - beta * sum_k I(T_k; S_k) in nats."""
    total = 0.0
    for k in range(problem.n):
        total += mutual_information(state.encoders[k], state.marginals[k])
        total -= beta * mutual_information(state.decoders[k], state.marginals[k + 1])
    return total


def _solve(problem: HibProblem, opts: SolveOptions, alpha: float):
    state = derive_state(problem, init_encoders(problem, opts))
    prev_obj = objective(problem, state, opts.beta)
    trace: list[float] = []
    residuals: list[float] = []
    converged = False
    iterations = 0
    for it in range(opts.max_iter):
        prev_encoders = [enc.matrix for enc in state.encoders]
        for k in range(1, problem.n + 1):
            state = _update_level(problem, state, k, opts.beta, alpha, opts.distortion)
        residuals.append(
            max(
                float(np.max(np.abs(new.matrix - old)))
                for new, old in zip(state.encoders, prev_encoders)
            )
        )
        obj = objective(problem, state, opts.beta)
        trace.append(obj)
        iterations = it + 1
        if iterations >= opts.min_iter and prev_obj - obj < opts.tol:
            converged = True
            break
        prev_obj = obj
    report = SolveReport(
        tuple(trace), iterations, converged, residuals[-1], tuple(residuals)
    )
    return state, report


def solve_hib(problem: HibProblem, opts: SolveOptions = SolveOptions()):
    """Run bottom-up sweeps until the objective decrease falls below tol."""
    return _solve(problem, opts, alpha=1.0)


def solve_hdib(problem: HibProblem, opts: SolveOptions = SolveOptions()):
    """Deterministic variant: alpha < 1 sharpens the prior weight, alpha = 0
    assigns every column to its argmax cluster (lowest index on ties)."""
    return _solve(problem, opts, alpha=opts.alpha)


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
    problem: HibProblem,
    state: HibState,
    beta: float,
    alpha: float = 1.0,
    direction: str = DISTORTION_DECODER_FIRST,
) -> float:
    """Max absolute encoder change when the closed-form update is re-applied
    to a state; small values certify a self-consistent fixed point."""
    worst = 0.0
    for k in range(1, problem.n + 1):
        d = distortion(problem, state, k, direction)
        log_prior = _log_or_neginf(state.marginals[k].values)
        fresh = _encoder_from_distortion(log_prior, d, beta, alpha, k)
        worst = max(worst, float(np.max(np.abs(fresh - state.encoders[k - 1].matrix))))
    return worst


def effective_cluster_count(state: HibState, k: int, mass_threshold: float) -> int:
    """Number of level-k clusters carrying marginal mass above the threshold."""
    if not 0.0 < mass_threshold < 1.0:
        raise ValidationError("mass_threshold must lie in (0, 1)")
    if not 1 <= k <= state.n:
        raise DimensionError(f"level {k} out of range 1..{state.n}")
    return int(np.sum(state.marginals[k].values > mass_threshold))
