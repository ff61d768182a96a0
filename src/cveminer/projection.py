"""Exact 2-D t-SNE projection plus a neighbor-preservation quality score.

The implementation follows the canonical recipe: per-point Gaussian input
kernels with bandwidths binary-searched to match the target perplexity,
symmetrized joint affinities, a Student-t output kernel, and momentum
gradient descent with an early exaggeration phase.  Gradients are computed
exactly (O(n^2)), which is comfortable up to a few thousand points.

The GEMMs return other bits at 1 and 2 OpenBLAS threads, and t-SNE
amplifies that difference, so ``tsne`` runs on one BLAS thread
(``one_blas_thread``) and a fixed seed repeats a layout bit for bit on the
same CPU model, whatever thread count the host defaults to.  When numpy's
BLAS exports none of the known thread-count symbols, the layout follows
that library's own thread count.

The optimization schedule is fixed (van der Maaten & Hinton 2008): the
input affinities are exaggerated x12 for the first 250 iterations, momentum
switches from 0.5 to 0.8 after iteration 250, the initial coordinates are
drawn with sigma 1e-4, and the KL divergence is recorded every 50
iterations and at the last one.  Only perplexity, the number of iterations
and the learning rate (``TsneParams``) are tunable.

Everything runs on numpy kernels, with no per-row Python loop:

* High-dimensional squared distances come from one GEMM
  (``|a|^2 + |b|^2 - 2 a.b``, clamped at 0) for the affinities and for
  ``trustworthiness``; 2-D distances from broadcast differences.
* The bandwidth bisection advances every row at once, and freezes each
  row as it converges.
* The affinities are symmetrized and normalized in place.  Each gradient
  step does its n x n work in float32, in two buffers allocated once per
  run, and each KL evaluation in a third, float64 one.  One GEMM against
  ``[Y, 1]`` yields both the row sums and the products with the
  coordinates; those sums, the normalizer Z and the coordinates are
  carried in float64, and so is the KL divergence of the trace.  A step's
  gradient is within about 1e-5 of its float64 value, relative to its
  norm, except near convergence, where the gradient itself nears zero.

Nothing here serializes: ``pipeline`` owns the format of ``coords.jsonl``.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib
from dataclasses import dataclass, field

import numpy as np

from .errors import CveMinerError
from .vectors import EmbeddingMatrix

ENTROPY_TOL = 1e-5
MAX_BISECTIONS = 50
AFFINITY_FLOOR = 1e-12

EARLY_EXAGGERATION = 12.0
EXAGGERATION_ITERS = 250
MOMENTUM_EARLY = 0.5
MOMENTUM_LATE = 0.8
MOMENTUM_SWITCH = 250
INIT_SIGMA = 1e-4
KL_INTERVAL = 50


@dataclass(frozen=True)
class TsneParams:
    perplexity: float = 30.0
    iterations: int = 1000
    learning_rate: float = 200.0


@dataclass
class ProjectionResult:
    ids: list[str]
    coords: np.ndarray            # (n, 2)
    params: TsneParams
    seed: int
    final_kl: float
    kl_trace: list[tuple[int, float]] = field(default_factory=list)


# (get, set) names of the thread-count functions in the OpenBLAS builds that
# numpy bundles or links against, tried in this order
_BLAS_THREAD_SYMBOLS = tuple(
    (f"{prefix}get_num_threads{suffix}", f"{prefix}set_num_threads{suffix}")
    for prefix, suffix in (("scipy_openblas_", "64_"), ("scipy_openblas_", ""),
                           ("openblas_", "64_"), ("openblas_", "")))


@functools.cache
def _blas_threads():
    """(set symbol's name, get, set) of the BLAS that numpy calls, or None.

    Loading numpy's own extension module resolves symbols through the
    libraries it links, so this finds the BLAS that numpy really uses.
    """
    for module in ("numpy._core._multiarray_umath",   # numpy 2
                   "numpy.core._multiarray_umath"):   # numpy 1
        try:
            lib = ctypes.CDLL(importlib.import_module(module).__file__)
            break
        except (ImportError, OSError):
            pass
    else:
        return None
    for get_name, set_name in _BLAS_THREAD_SYMBOLS:
        get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
        if get is not None and set_ is not None:
            # int get_num_threads(void); void set_num_threads(int)
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return set_name, get, set_
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the block on one BLAS thread, then restore the previous count.

    Yields ``{"symbol", "replaced_threads"}``: the function that set the
    count and the count it replaced, both None when numpy's BLAS exports
    none of the known symbols (the block then runs at the library's own
    count).  Nesting is harmless: the inner block replaces a count of 1.
    The environment is left alone.
    """
    found = _blas_threads()
    if found is None:
        yield {"symbol": None, "replaced_threads": None}
        return
    name, get, set_ = found
    before = get()
    set_(1)
    try:
        yield {"symbol": name, "replaced_threads": before}
    finally:
        set_(before)


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
        raise CveMinerError("all rows are identical")
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
    del d
    kernel /= total[:, None]
    p = np.zeros((n, n))
    p[off] = kernel.ravel()
    return p


def joint_affinities(conditional: np.ndarray) -> np.ndarray:
    n = conditional.shape[0]
    joint = conditional + conditional.T
    joint /= 2.0 * n
    return np.maximum(joint, AFFINITY_FLOOR, out=joint)


def _input_affinities(rows: np.ndarray, perplexity: float) -> np.ndarray:
    """The joint affinities that t-SNE fits, normalized to sum 1 and floored."""
    p = joint_affinities(conditional_affinities(rows, perplexity))
    p /= p.sum()
    return np.maximum(p, AFFINITY_FLOOR, out=p)


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
    # x_j - x_i squares to the same bits as x_i - x_j
    num[...] = x
    num -= x[:, None]
    np.square(num, out=num)
    pq[...] = y
    pq -= y[:, None]
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


@one_blas_thread()
def tsne(matrix: EmbeddingMatrix, params: TsneParams | None = None, seed: int = 0) -> ProjectionResult:
    """Project matrix rows to 2-D; deterministic for fixed inputs and seed.

    Runs on one BLAS thread (see the module docstring).

    Early exaggeration multiplies the input affinities for the first
    EXAGGERATION_ITERS iterations; momentum switches from MOMENTUM_EARLY to
    MOMENTUM_LATE after MOMENTUM_SWITCH.  The KL divergence against the
    un-exaggerated affinities is recorded every KL_INTERVAL iterations and
    at the last one.
    """
    params = params or TsneParams()
    n = len(matrix)
    if n < 5:
        raise ValueError(f"need at least 5 rows, got {n}")
    if params.iterations < 1:
        raise ValueError("iterations must be >= 1")
    if params.perplexity <= 0:
        raise ValueError("perplexity must be positive")
    if params.perplexity >= (n - 1) / 3.0:
        raise CveMinerError(f"perplexity {params.perplexity} >= (n-1)/3 = {(n - 1) / 3.0:.3f}")

    p_joint = _input_affinities(matrix.rows, params.perplexity)
    p32 = p_joint.astype(np.float32)
    num = np.empty((n, n), dtype=np.float32)
    pq = np.empty((n, n), dtype=np.float32)
    kl = np.empty((n, n))  # each KL evaluation's float64 work

    rng = np.random.default_rng(seed)
    coords = rng.standard_normal((n, 2)) * INIT_SIGMA
    velocity = np.zeros_like(coords)
    kl_trace: list[tuple[int, float]] = []

    for it in range(1, params.iterations + 1):
        exaggeration = EARLY_EXAGGERATION if it <= EXAGGERATION_ITERS else 1.0
        grad, z = _gradient(p32, coords, exaggeration, num, pq)

        momentum = MOMENTUM_EARLY if it <= MOMENTUM_SWITCH else MOMENTUM_LATE
        velocity = momentum * velocity - params.learning_rate * grad
        coords = coords + velocity
        coords = coords - coords.mean(axis=0)

        if it % KL_INTERVAL == 0 or it == params.iterations:
            # p log(p / q), with q = max(num / z, AFFINITY_FLOOR)
            kl[...] = num
            kl /= z
            np.maximum(kl, AFFINITY_FLOOR, out=kl)
            np.divide(p_joint, kl, out=kl)
            np.log(kl, out=kl)
            kl *= p_joint
            kl_trace.append((it, float(kl.sum())))

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
        raise CveMinerError(f"k must be in [1, {n - 1}]")
    if 2 * n - 3 * k - 1 <= 0:
        raise CveMinerError(f"k={k} outside formula domain for n={n}")

    x, y = result.coords[:, 0], result.coords[:, 1]
    dx, dy = np.subtract.outer(x, x), np.subtract.outer(y, y)
    order_low = _neighbor_order(dx * dx + dy * dy)[:, :k]
    order_high = _neighbor_order(_sq_distances(matrix.rows))
    rank_high = np.empty((n, n), dtype=np.int64)
    rank_high[np.arange(n)[:, None], order_high] = np.arange(1, n)
    # a low-dim neighbor that is also a high-dim k-neighbor has rank <= k
    penalty = int(np.maximum(np.take_along_axis(rank_high, order_low, axis=1) - k, 0).sum())
    return 1.0 - (2.0 / (n * k * (2.0 * n - 3.0 * k - 1.0))) * penalty
