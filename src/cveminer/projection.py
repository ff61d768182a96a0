"""Exact 2-D t-SNE projection plus a neighbor-preservation quality score.

The implementation follows the canonical recipe: per-point Gaussian input
kernels with bandwidths binary-searched to match the target perplexity,
symmetrized joint affinities, a Student-t output kernel, and momentum
gradient descent with an early exaggeration phase.  Gradients are computed
exactly (O(n^2)), which is comfortable up to a few thousand points and
keeps runs bit-reproducible for a fixed seed on one machine.

Everything runs on numpy kernels, with no per-row Python loop:

* High-dimensional squared distances come from one GEMM
  (``|a|^2 + |b|^2 - 2 a.b``, clamped at 0) for the affinities and for
  ``trustworthiness``; 2-D distances from ``np.subtract.outer``.
* The bandwidth bisection advances every row at once, and freezes each
  row as it converges.
* Each gradient step does its n x n work in float32, in two buffers
  allocated once per run.  One GEMM against ``[Y, 1]`` yields both the
  row sums and the products with the coordinates; those sums, the
  normalizer Z and the coordinates are carried in float64, and so is the
  KL divergence of the trace.  A step's gradient is within about 1e-5 of
  its float64 value, relative to its norm, except near convergence, where
  the gradient itself nears zero.
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


def _sq_distances(rows: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between all rows, as one GEMM.

    ``|a|^2 + |b|^2 - 2 a.b`` can round below zero for near-equal rows, so
    it is clamped at 0, and the diagonal is exactly 0.
    """
    sq = np.einsum("ij,ij->i", rows, rows)
    d2 = rows @ rows.T
    d2 *= -2.0
    d2 += sq[:, None]
    d2 += sq[None, :]
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    return d2


def _gaussian_rows(d: np.ndarray, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kernel ``exp(-beta_i d_ij)`` of each row of d, its row sums and its entropy.

    A row whose kernel underflows to all zeros has entropy 0; its sum is
    reported as 1, so dividing by it keeps the row zero.
    """
    p = d * -beta[:, None]
    np.exp(p, out=p)
    total = p.sum(axis=1)
    total[total == 0.0] = 1.0
    h = np.log(total) + beta * np.einsum("ij,ij->i", d, p) / total
    return p, total, h


def conditional_affinities(rows: np.ndarray, perplexity: float) -> np.ndarray:
    """Row-stochastic Gaussian affinities with entropy matched to perplexity.

    Each row's bandwidth is bisected until the entropy is within ENTROPY_TOL
    of log(perplexity), up to MAX_BISECTIONS steps.  All rows bisect at
    once, and a row that has converged is frozen.  The diagonal is zero and
    every row sums to 1.
    """
    d2 = _sq_distances(rows)
    if float(d2.max()) == 0.0:
        raise DegenerateInput("all rows are identical")
    n = rows.shape[0]
    off = ~np.eye(n, dtype=bool)
    d = d2[off].reshape(n, n - 1)  # each row's distances to the other points
    del d2
    target = np.log(perplexity)
    beta = np.ones(n)
    beta_min = np.full(n, -np.inf)
    beta_max = np.full(n, np.inf)
    h = _gaussian_rows(d, beta)[2]
    for _ in range(MAX_BISECTIONS):
        act = np.flatnonzero(np.abs(h - target) > ENTROPY_TOL)
        if not act.size:
            break
        b, lo, hi = beta[act], beta_min[act], beta_max[act]
        up = h[act] > target
        lo = np.where(up, b, lo)
        hi = np.where(up, hi, b)
        beta[act] = np.where(up, np.where(hi == np.inf, b * 2.0, (b + hi) / 2.0),
                             np.where(lo == -np.inf, b / 2.0, (b + lo) / 2.0))
        beta_min[act], beta_max[act] = lo, hi
        h[act] = _gaussian_rows(d[act], beta[act])[2]
    kernel, total, _ = _gaussian_rows(d, beta)
    under = np.flatnonzero(~kernel.any(axis=1))
    if under.size:
        # a row whose bisection ran out of steps with its kernel underflowed:
        # shifting its distances by their minimum changes only the scale
        shifted = d[under] - d[under].min(axis=1, keepdims=True)
        kernel[under] = np.exp(-beta[under, None] * shifted)
        total[under] = kernel[under].sum(axis=1)
    p = np.zeros((n, n))
    p[off] = (kernel / total[:, None]).ravel()
    return p


def joint_affinities(conditional: np.ndarray) -> np.ndarray:
    n = conditional.shape[0]
    joint = (conditional + conditional.T) / (2.0 * n)
    return np.maximum(joint, AFFINITY_FLOOR)


def _gradient(p32: np.ndarray, coords: np.ndarray, exaggeration: float,
              num: np.ndarray, pq: np.ndarray) -> tuple[np.ndarray, float]:
    """KL gradient at `coords` and the Student-t normalizer Z.

    The n x n work runs in float32 in the caller's buffers: `num` is left
    holding the Student-t kernel ``1 / (1 + |y_i - y_j|^2)`` with a zero
    diagonal, and `pq` is scratch.  Row sums come out of BLAS as float32 and
    are carried on, with Z and the result, in float64.  The exaggerated
    affinities are never stored: ``exaggeration * p - num / Z`` is computed
    as ``exaggeration * (p - num / (exaggeration * Z))``.
    """
    n = len(coords)
    x = coords[:, 0].astype(np.float32)
    y = coords[:, 1].astype(np.float32)
    np.subtract.outer(x, x, out=num)
    np.square(num, out=num)
    np.subtract.outer(y, y, out=pq)
    np.square(pq, out=pq)
    num += pq
    num += 1.0
    np.reciprocal(num, out=num)
    np.fill_diagonal(num, 0.0)
    z = float((num @ np.ones(n, dtype=np.float32)).sum(dtype=np.float64))
    np.multiply(num, np.float32(1.0 / (exaggeration * z)), out=pq)
    np.subtract(p32, pq, out=pq)
    pq *= num
    # one GEMM against [Y, 1] gives sum_j pq_ij y_j and the row sums sum_j pq_ij
    y1 = np.ones((n, 3), dtype=np.float32)
    y1[:, :2] = coords
    acc = (pq @ y1).astype(np.float64) * exaggeration
    return 4.0 * (acc[:, 2:] * coords - acc[:, :2]), z


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
    p32 = p_joint.astype(np.float32)
    num = np.empty((n, n), dtype=np.float32)
    pq = np.empty((n, n), dtype=np.float32)

    rng = np.random.default_rng(seed)
    coords = rng.standard_normal((n, 2)) * params.init_sigma
    velocity = np.zeros_like(coords)
    kl_trace: list[tuple[int, float]] = []

    for it in range(1, params.iterations + 1):
        exaggeration = params.early_exaggeration if it <= params.exaggeration_iters else 1.0
        grad, z = _gradient(p32, coords, exaggeration, num, pq)

        momentum = params.momentum_early if it <= params.momentum_switch else params.momentum_late
        velocity = momentum * velocity - params.learning_rate * grad
        coords = coords + velocity
        coords = coords - coords.mean(axis=0)

        if it % params.kl_interval == 0 or it == params.iterations:
            q = np.maximum(num.astype(np.float64) / z, AFFINITY_FLOOR)
            kl = float(np.sum(p_joint * np.log(p_joint / q)))
            if not kl_trace or kl_trace[-1][0] != it:
                kl_trace.append((it, kl))

    return ProjectionResult(ids=list(matrix.ids), coords=coords, params=params,
                            seed=seed, final_kl=kl_trace[-1][1], kl_trace=kl_trace)


def _neighbor_order(d2: np.ndarray) -> np.ndarray:
    """Each row's other points, nearest first; ties keep index order.

    Overwrites the diagonal of `d2`.
    """
    np.fill_diagonal(d2, -np.inf)
    return np.argsort(d2, axis=1, kind="stable")[:, 1:]


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

    x, y = result.coords[:, 0], result.coords[:, 1]
    dx, dy = np.subtract.outer(x, x), np.subtract.outer(y, y)
    order_low = _neighbor_order(dx * dx + dy * dy)[:, :k]
    order_high = _neighbor_order(_sq_distances(matrix.rows))
    rank_high = np.empty((n, n), dtype=np.int64)
    rank_high[np.arange(n)[:, None], order_high] = np.arange(1, n)
    # a low-dim neighbor that is also a high-dim k-neighbor has rank <= k
    penalty = int(np.maximum(np.take_along_axis(rank_high, order_low, axis=1) - k, 0).sum())
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
