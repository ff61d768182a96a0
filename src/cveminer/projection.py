"""Exact 2-D t-SNE projection plus a neighbor-preservation quality score.

The implementation follows the canonical recipe: per-point Gaussian input
kernels with bandwidths binary-searched to match the target perplexity,
symmetrized joint affinities, a Student-t output kernel, and momentum
gradient descent with an early exaggeration phase.  Gradients are computed
exactly (O(n^2)), which is comfortable up to a few thousand points and
keeps runs bit-reproducible for a fixed seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInput, PerplexityTooLarge, RangeError
from .vectors import EmbeddingMatrix

ENTROPY_TOL = 1e-5
MAX_BISECTIONS = 50
AFFINITY_FLOOR = 1e-12


@dataclass(frozen=True)
class TsneParams:
    perplexity: float = 30.0
    iterations: int = 1000
    learning_rate: float = 200.0
    early_exaggeration: float = 12.0
    exaggeration_iters: int = 250
    momentum_early: float = 0.5
    momentum_late: float = 0.8
    momentum_switch: int = 250
    init_sigma: float = 1e-4
    kl_interval: int = 50


@dataclass
class ProjectionResult:
    ids: list[str]
    coords: np.ndarray            # (n, 2)
    params: TsneParams
    seed: int
    final_kl: float
    kl_trace: list[tuple[int, float]] = field(default_factory=list)


def _entropy_and_row(d_row: np.ndarray, beta: float) -> tuple[float, np.ndarray]:
    p = np.exp(-d_row * beta)
    total = p.sum()
    if total <= 0.0:
        return 0.0, np.zeros_like(p)
    h = np.log(total) + beta * float((d_row * p).sum()) / total
    return float(h), p / total


def conditional_affinities(rows: np.ndarray, perplexity: float) -> np.ndarray:
    """Row-stochastic Gaussian affinities with entropy matched to perplexity.

    Each row's bandwidth is bisected until the entropy is within ENTROPY_TOL
    of log(perplexity), up to MAX_BISECTIONS steps.  The diagonal is zero
    and every row sums to 1.
    """
    # imported on use, so that a run that never projects does not load scipy
    from scipy.spatial.distance import cdist

    n = rows.shape[0]
    d2 = cdist(rows, rows, metric="sqeuclidean")
    if float(d2.max()) == 0.0:
        raise DegenerateInput("all rows are identical")
    target = np.log(perplexity)
    p = np.zeros((n, n))
    others = np.arange(n)
    for i in range(n):
        mask = others != i
        d_row = d2[i, mask]
        beta, beta_min, beta_max = 1.0, -np.inf, np.inf
        h, row = _entropy_and_row(d_row, beta)
        for _ in range(MAX_BISECTIONS):
            if abs(h - target) <= ENTROPY_TOL:
                break
            if h > target:
                beta_min = beta
                beta = beta * 2.0 if beta_max == np.inf else (beta + beta_max) / 2.0
            else:
                beta_max = beta
                beta = beta / 2.0 if beta_min == -np.inf else (beta + beta_min) / 2.0
            h, row = _entropy_and_row(d_row, beta)
        p[i, mask] = row
    return p


def joint_affinities(conditional: np.ndarray) -> np.ndarray:
    n = conditional.shape[0]
    joint = (conditional + conditional.T) / (2.0 * n)
    return np.maximum(joint, AFFINITY_FLOOR)


def _student_t_kernel(coords: np.ndarray) -> np.ndarray:
    from scipy.spatial.distance import cdist

    num = 1.0 / (1.0 + cdist(coords, coords, metric="sqeuclidean"))
    np.fill_diagonal(num, 0.0)
    return num


def tsne(matrix: EmbeddingMatrix, params: TsneParams | None = None, seed: int = 0) -> ProjectionResult:
    """Project matrix rows to 2-D; deterministic for fixed inputs and seed.

    Early exaggeration multiplies the input affinities for the first
    `exaggeration_iters` iterations; momentum switches from its early to
    its late value at `momentum_switch`.  The KL divergence against the
    un-exaggerated affinities is recorded every `kl_interval` iterations.
    """
    params = params or TsneParams()
    n = len(matrix)
    if n < 5:
        raise ValueError(f"need at least 5 rows, got {n}")
    if params.perplexity <= 0:
        raise ValueError("perplexity must be positive")
    if params.perplexity >= (n - 1) / 3.0:
        raise PerplexityTooLarge(f"perplexity {params.perplexity} >= (n-1)/3 = {(n - 1) / 3.0:.3f}")

    p_joint = joint_affinities(conditional_affinities(matrix.rows, params.perplexity))
    p_joint = p_joint / p_joint.sum()
    p_joint = np.maximum(p_joint, AFFINITY_FLOOR)

    rng = np.random.default_rng(seed)
    coords = rng.standard_normal((n, 2)) * params.init_sigma
    velocity = np.zeros_like(coords)
    kl_trace: list[tuple[int, float]] = []

    for it in range(1, params.iterations + 1):
        exaggeration = params.early_exaggeration if it <= params.exaggeration_iters else 1.0
        num = _student_t_kernel(coords)
        q = np.maximum(num / num.sum(), AFFINITY_FLOOR)

        pq = (p_joint * exaggeration - q) * num
        grad = 4.0 * (pq.sum(axis=1)[:, None] * coords - pq @ coords)

        momentum = params.momentum_early if it <= params.momentum_switch else params.momentum_late
        velocity = momentum * velocity - params.learning_rate * grad
        coords = coords + velocity
        coords = coords - coords.mean(axis=0)

        if it % params.kl_interval == 0 or it == params.iterations:
            kl = float(np.sum(p_joint * np.log(p_joint / q)))
            if not kl_trace or kl_trace[-1][0] != it:
                kl_trace.append((it, kl))

    return ProjectionResult(ids=list(matrix.ids), coords=coords, params=params,
                            seed=seed, final_kl=kl_trace[-1][1], kl_trace=kl_trace)


def _neighbor_ranks(distances: np.ndarray) -> np.ndarray:
    """Stable ascending ordering per row with self forced to the front."""
    d = distances.copy()
    np.fill_diagonal(d, -np.inf)
    return np.argsort(d, axis=1, kind="stable")[:, 1:]


def trustworthiness(matrix: EmbeddingMatrix, result: ProjectionResult, k: int) -> float:
    """Fraction-style score in [0, 1] of low-dim neighbors that are faithful.

    Standard definition: 1 - 2/(n*k*(2n-3k-1)) * sum over points of
    (rank_high(i, j) - k) for each low-dim k-neighbor j of i that is not a
    high-dim k-neighbor of i.
    """
    if result.ids != list(matrix.ids):
        raise ValueError("projection ids do not match matrix ids")
    n = len(matrix)
    if not 1 <= k < n:
        raise RangeError(f"k must be in [1, {n - 1}]")
    if 2 * n - 3 * k - 1 <= 0:
        raise RangeError(f"k={k} outside formula domain for n={n}")

    from scipy.spatial.distance import cdist

    order_high = _neighbor_ranks(cdist(matrix.rows, matrix.rows, metric="sqeuclidean"))
    order_low = _neighbor_ranks(cdist(result.coords, result.coords, metric="sqeuclidean"))

    rank_high = np.empty((n, n), dtype=np.int64)
    for i in range(n):
        rank_high[i, order_high[i]] = np.arange(1, n)

    penalty = 0
    for i in range(n):
        high_set = set(order_high[i, :k].tolist())
        for j in order_low[i, :k]:
            if int(j) not in high_set:
                penalty += rank_high[i, j] - k
    return 1.0 - (2.0 / (n * k * (2.0 * n - 3.0 * k - 1.0))) * penalty


def dump_coords(result: ProjectionResult, clusters: dict[str, int] | None = None) -> bytes:
    """One line per point: id, x, y, and the joined cluster index if known."""
    lines = []
    for cve_id, (x, y) in zip(result.ids, result.coords):
        doc = {"id": cve_id, "x": float(x), "y": float(y)}
        if clusters is not None:
            doc["cluster"] = int(clusters[cve_id])
        lines.append(json.dumps(doc))
    return ("\n".join(lines) + "\n").encode("utf-8")
