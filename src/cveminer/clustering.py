"""K-means clustering with seeded K-means++ init and elbow-based K selection.

All randomized choices are driven by a seeded generator over rows taken in
id-sorted order, and per-cluster sums accumulate in that same order.  As a
result the fitted partition depends only on (matrix content, k, seed):
permuting the input rows permutes the assignments identically.

Ties anywhere (nearest centroid, farthest point, elbow second differences)
break toward the smallest index, for reproducibility.

The canonical rows and their squared norms are computed once per matrix and
shared by every restart of an elbow scan or a best-of fit.  With no more
rows than dimensions (n <= dim, as with contextual embeddings), the Gram
matrix G = rows @ rows.T is held too and the steps run in Gram space, by the
kernel k-means identity ||x - mean(S)||^2 = G_xx - 2 mean_s G_xs +
mean_st G_st: K-means++ reads each D^2 update from a row of G, and every
Lloyd step after the first takes its distances and objective from one
(k, n) x (n, n) product; the (k, dim) centroids are built only when an exact
fallback needs them.  With n > dim, K-means++ takes one GEMV per chosen row
and each Lloyd iteration one GEMM for the distances and one for the centroid
sums.

A fit's centroids and objective are recomputed exactly from its final
assignment, so the objectives that pick between restarts (and with them the
labels) do not depend on the expanded-form rounding.  A best-of fit runs that
recompute only for the restarts whose norm-derived objective lies within
rounding reach of the smallest, which always include the winner.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import KTooLarge, RangeError
from .vectors import EmbeddingMatrix


@dataclass
class ClusterModel:
    """A fitted partition: centroids, per-row assignments, and the objective."""

    k: int
    centroids: np.ndarray        # (k, dim)
    assignments: np.ndarray      # (n,) int, aligned with the matrix rows
    wcss: float
    seed: int | None
    iterations: int
    converged: bool
    wcss_history: list[float] = field(default_factory=list)


@dataclass
class ElbowCurve:
    k_values: list[int]
    wcss_values: list[float]
    chosen_k: int


@dataclass(frozen=True)
class _Canonical:
    """A matrix's rows in id-sorted order, with their squared norms."""

    order: np.ndarray          # canonical position -> matrix row
    rows: np.ndarray           # (n, dim), C-contiguous
    sq_norms: np.ndarray       # (n,)
    gram: np.ndarray | None    # (n, n) rows @ rows.T, held only when n <= dim


def _canonical(matrix: EmbeddingMatrix) -> _Canonical:
    order = np.argsort(np.array(matrix.ids))
    rows = matrix.rows[order]
    # with n > dim, G would cost more to build and to multiply than the rows
    gram = rows @ rows.T if len(rows) <= rows.shape[1] else None
    return _Canonical(order, rows, np.einsum("ij,ij->i", rows, rows), gram)


# The expanded form ||r||^2 + ||c||^2 - 2 r.c is cheap (one GEMV/GEMM) but
# carries rounding of about eps * (||r||^2 + ||c||^2).  Wherever a decision
# hinges on a gap smaller than NEAR_TIE times that scale (a distance close to
# zero, two centroids almost equally near), the distances are recomputed
# directly, so exact duplicates and exact ties behave as with direct sums.
NEAR_TIE = 1e-9


def _sq_distances_to_row(canon: _Canonical, i: int) -> np.ndarray:
    rows, sq = canon.rows, canon.sq_norms
    dots = canon.gram[i] if canon.gram is not None else rows @ rows[i]
    d2 = np.maximum(sq + sq[i] - 2.0 * dots, 0.0)
    near = np.flatnonzero(d2 <= NEAR_TIE * (sq + sq[i]))
    d2[near] = np.sum((rows[near] - rows[i]) ** 2, axis=1)
    return d2


class _Means:
    """Centroids as an assignment step reads them, each part built on first use.

    `products` (n, k) holds every row's dot product with each centroid, `sq`
    (k,) the centroids' squared norms and `full` (k, dim) the centroids, for
    the exact fallbacks.  For the means of a partition (`members`, a (k, n)
    0/1 matrix, and `counts`), `sums_sq` (k,) holds the squared norms of the
    member sums, which give the objective.  With the Gram matrix held,
    `products` and `sums_sq` come from one `members @ G`, and `full` is built
    only if a fallback asks for it, with the same bits as in row space.
    """

    def __init__(self, canon: _Canonical, full: np.ndarray | None = None,
                 members: np.ndarray | None = None, counts: np.ndarray | None = None):
        self._canon, self._members, self._counts = canon, members, counts
        if full is not None:
            self.full = full
        elif canon.gram is not None:
            member_gram = members @ canon.gram
            self.sums_sq = np.einsum("ij,ij->i", member_gram, members)
            self.products = (member_gram / counts[:, None]).T
            self.sq = self.sums_sq / counts ** 2
        else:
            sums = members @ canon.rows  # every centroid sum in one pass over the rows
            self.full = sums / counts[:, None]
            self.sums_sq = np.einsum("ij,ij->i", sums, sums)

    @cached_property
    def full(self) -> np.ndarray:
        return (self._members @ self._canon.rows) / self._counts[:, None]

    @cached_property
    def products(self) -> np.ndarray:
        return self._canon.rows @ self.full.T

    @cached_property
    def sq(self) -> np.ndarray:
        return np.einsum("ij,ij->i", self.full, self.full)


def _nearest_centroid(canon: _Canonical, means: _Means) -> np.ndarray:
    rows, sq, c_sq = canon.rows, canon.sq_norms, means.sq
    d2 = np.maximum(sq[:, None] + c_sq - 2.0 * means.products, 0.0)
    assign = np.argmin(d2, axis=1)  # ties resolve to the smallest index
    if len(c_sq) > 1:
        two = np.partition(d2, 1, axis=1)[:, :2]
        near = np.flatnonzero(two[:, 1] - two[:, 0] <= NEAR_TIE * (sq + c_sq.max()))
        if near.size:
            exact = np.sum((rows[near, None, :] - means.full) ** 2, axis=2)
            assign[near] = np.argmin(exact, axis=1)
    return assign


def kmeanspp_init(matrix: EmbeddingMatrix, k: int, seed: int,
                  _canon: _Canonical | None = None) -> np.ndarray:
    """Seeded K-means++ seeding: D^2-weighted sampling of k rows.

    Returns the (k, dim) array of chosen rows.  Deterministic for a given
    (matrix content, k, seed) regardless of row order.
    """
    n = len(matrix)
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > n:
        raise KTooLarge(f"k={k} exceeds row count {n}")
    canon = _canon if _canon is not None else _canonical(matrix)
    rng = np.random.default_rng(seed)

    chosen = [int(rng.integers(n))]
    d2 = _sq_distances_to_row(canon, chosen[0])
    d2[chosen[0]] = 0.0
    for _ in range(1, k):
        total = float(d2.sum())
        if total > 0.0:
            u = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(d2), u, side="right"))
            idx = min(idx, n - 1)
            while d2[idx] == 0.0:  # numeric edge: never re-pick a chosen row
                idx = (idx + 1) % n
        else:
            # all remaining candidates coincide with chosen rows
            remaining = sorted(set(range(n)) - set(chosen))
            idx = remaining[0]
        chosen.append(idx)
        d2 = np.minimum(d2, _sq_distances_to_row(canon, idx))
        d2[idx] = 0.0
    return canon.rows[chosen]


def _repair_empty(assign: np.ndarray, point_d2: np.ndarray, k: int) -> None:
    """Move the globally farthest point into each empty cluster, in place."""
    taken: set[int] = set()
    while True:
        counts = np.bincount(assign, minlength=k)
        empties = np.flatnonzero(counts == 0)
        if empties.size == 0:
            return
        candidates = point_d2.copy()
        if taken:
            candidates[list(taken)] = -np.inf
        p = int(np.argmax(candidates))
        if not np.isfinite(candidates[p]):
            return
        assign[p] = int(empties[0])
        taken.add(p)


def lloyd(matrix: EmbeddingMatrix, init_centroids: np.ndarray,
          max_iter: int = 300, tol: float = 1e-6, seed: int | None = None,
          _canon: _Canonical | None = None, _exact: bool = True) -> ClusterModel:
    """Alternate assignment/update steps until the objective stalls.

    Each iteration takes its distances and centroid norms from one product
    (see the module docstring); the recorded per-iteration objective,
    computed from the squared norms after each centroid update, never
    increases.  The returned centroids and `wcss` are recomputed from the
    final assignment directly (per-cluster mean, then the total squared
    distance), so every centroid equals the mean of its assigned rows and
    `wcss` the exact objective.  With `_exact=False` that recompute is left
    to `_make_exact`: `centroids` is None and `wcss` the norm-derived
    objective.
    """
    init_centroids = np.asarray(init_centroids, dtype=np.float64)
    if init_centroids.ndim != 2 or init_centroids.shape[1] != matrix.dim:
        raise ValueError(f"init centroids shape {init_centroids.shape} does not match dim {matrix.dim}")
    k = init_centroids.shape[0]
    n = len(matrix)
    canon = _canon if _canon is not None else _canonical(matrix)
    rows = canon.rows
    total_sq = float(canon.sq_norms.sum())

    means = _Means(canon, full=init_centroids.copy())
    history: list[float] = []
    prev = np.inf
    wcss = 0.0
    converged = False
    iterations = 0
    assign = np.zeros(n, dtype=np.int64)
    columns = np.arange(n)

    for iterations in range(1, max_iter + 1):
        assign = _nearest_centroid(canon, means)
        counts = np.bincount(assign, minlength=k)
        if not counts.all():
            _repair_empty(assign, np.sum((rows - means.full[assign]) ** 2, axis=1), k)
            counts = np.bincount(assign, minlength=k)

        members = np.zeros((k, n))
        members[assign, columns] = 1.0
        means = _Means(canon, members=members, counts=counts)
        wcss = max(total_sq - float(np.sum(means.sums_sq / counts)), 0.0)
        history.append(wcss)
        if prev < np.inf:
            improvement = (prev - wcss) / prev if prev > 0.0 else 0.0
            if improvement < tol:
                converged = True
                break
        prev = wcss

    assignments = np.empty(n, dtype=np.int64)
    assignments[canon.order] = assign
    model = ClusterModel(k=k, centroids=None, assignments=assignments, wcss=wcss,
                         seed=seed, iterations=iterations, converged=converged,
                         wcss_history=history)
    return _make_exact(canon, model) if _exact else model


def _make_exact(canon: _Canonical, model: ClusterModel) -> ClusterModel:
    """Recompute `model`'s centroids and objective from its assignment, in place."""
    rows, assign = canon.rows, model.assignments[canon.order]
    model.centroids = np.vstack([rows[assign == j].mean(axis=0) for j in range(model.k)])
    model.wcss = float(np.sum((rows - model.centroids[assign]) ** 2))
    if model.wcss_history:
        model.wcss_history[-1] = model.wcss
    return model


def fit_best_of(matrix: EmbeddingMatrix, k: int, seed: int, restarts: int = 8,
                max_iter: int = 300, tol: float = 1e-6,
                _canon: _Canonical | None = None) -> ClusterModel:
    """Best of `restarts` seeded runs (seeds seed, seed+1, ...) by exact objective.

    The earlier run wins a tie.  Only runs whose norm-derived objective is
    within NEAR_TIE * sum ||x||^2 of the smallest get the exact recompute:
    that objective's rounding is far below the margin, so the run with the
    smallest exact objective is always among them.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    canon = _canon if _canon is not None else _canonical(matrix)
    runs = [lloyd(matrix, kmeanspp_init(matrix, k, seed + i, _canon=canon),
                  max_iter=max_iter, tol=tol, seed=seed + i, _canon=canon, _exact=False)
            for i in range(restarts)]
    cutoff = min(run.wcss for run in runs) + NEAR_TIE * float(canon.sq_norms.sum())
    finalists = [_make_exact(canon, run) for run in runs if run.wcss <= cutoff]
    return min(finalists, key=lambda run: run.wcss)  # min keeps the first of equals


def choose_elbow(k_values: list[int], wcss_values: list[float]) -> int:
    """Interior k maximizing the discrete second difference of the curve.

    Ties break toward smaller k; with a perfectly linear decline the first
    interior k wins.
    """
    if len(k_values) != len(wcss_values) or len(k_values) < 3:
        raise RangeError("elbow needs at least 3 matched (k, wcss) points")
    best_k = None
    best_d2 = -np.inf
    for i in range(1, len(k_values) - 1):
        d2 = wcss_values[i - 1] - 2.0 * wcss_values[i] + wcss_values[i + 1]
        if d2 > best_d2:
            best_d2 = d2
            best_k = k_values[i]
    return int(best_k)


def elbow_select(matrix: EmbeddingMatrix, k_min: int, k_max: int, seed: int,
                 restarts: int = 8, max_iter: int = 300, tol: float = 1e-6) -> ElbowCurve:
    """Scan k in [k_min, k_max] and pick the sharpest bend of the WCSS curve."""
    n = len(matrix)
    if not (2 <= k_min < k_max <= n - 1):
        raise RangeError(f"need 2 <= k_min < k_max <= {n - 1}, got [{k_min}, {k_max}]")
    if k_max - k_min < 2:
        raise RangeError("elbow scan needs at least 3 k values")
    k_values = list(range(k_min, k_max + 1))
    canon = _canonical(matrix)
    wcss_values = [fit_best_of(matrix, k, seed, restarts, max_iter, tol, _canon=canon).wcss
                   for k in k_values]
    return ElbowCurve(k_values=k_values, wcss_values=wcss_values,
                      chosen_k=choose_elbow(k_values, wcss_values))


def representatives(matrix: EmbeddingMatrix, model: ClusterModel, m: int,
                    metric: str = "cosine") -> dict[int, list[str]]:
    """Per cluster, the m member ids closest to that cluster's centroid.

    Cosine ranks by similarity descending, euclidean by distance ascending;
    ties break by id ascending.  Clusters smaller than m return all members.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if metric not in ("cosine", "euclidean"):
        raise ValueError(f"unsupported metric {metric!r}")
    ids = np.array(matrix.ids)
    out: dict[int, list[str]] = {}
    for j in range(model.k):
        member_idx = np.flatnonzero(model.assignments == j)
        centroid = model.centroids[j]
        if metric == "cosine":
            norms = np.linalg.norm(matrix.rows[member_idx], axis=1) * np.linalg.norm(centroid)
            sims = np.where(norms > 0.0, matrix.rows[member_idx] @ centroid / np.where(norms == 0, 1, norms), -np.inf)
            ranked = sorted(zip(member_idx, sims), key=lambda t: (-t[1], ids[t[0]]))
        else:
            dists = np.sqrt(np.sum((matrix.rows[member_idx] - centroid) ** 2, axis=1))
            ranked = sorted(zip(member_idx, dists), key=lambda t: (t[1], ids[t[0]]))
        out[j] = [str(ids[i]) for i, _ in ranked[:m]]
    return out


# --- artifact serialization -------------------------------------------------

def dump_assignments(ids: list[str], assignments: np.ndarray) -> bytes:
    lines = [json.dumps({"id": cve_id, "cluster": int(c)})
             for cve_id, c in zip(ids, assignments)]
    return ("\n".join(lines) + "\n").encode("utf-8")


def load_assignments(data: bytes) -> dict[str, int]:
    out: dict[str, int] = {}
    for line in data.decode("utf-8").splitlines():
        if line.strip():
            obj = json.loads(line)
            out[obj["id"]] = int(obj["cluster"])
    return out


def dump_model(model: ClusterModel) -> bytes:
    doc = {
        "k": model.k,
        "seed": model.seed,
        "wcss": model.wcss,
        "iterations": model.iterations,
        "converged": model.converged,
        "centroids": [[float(x) for x in row] for row in model.centroids],
    }
    return (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")
