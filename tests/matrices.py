"""Seeded synthetic embedding matrices for the clustering and projection tests.

A plain module, not part of ``conftest.py``: perfbench's tests have a
``conftest`` of their own, and one pytest run collects both.
"""

import numpy as np

from cveminer.vectors import EmbeddingMatrix


def random_matrix(seed: int, n: int, dim: int) -> EmbeddingMatrix:
    rng = np.random.default_rng(seed)
    ids = [f"CVE-2021-{1000 + i}" for i in range(n)]
    return EmbeddingMatrix(ids=ids, rows=rng.normal(size=(n, dim)), dim=dim, model_id="test")


def blob_matrix(seed: int, n_per_blob: int, n_blobs: int, dim: int, sigma: float,
                min_center_distance: float = 1.0):
    """Seeded Gaussian blobs with pairwise-separated centers, plus labels."""
    rng = np.random.default_rng(seed)
    while True:
        centers = rng.normal(size=(n_blobs, dim))
        gaps = np.linalg.norm(centers[:, None] - centers[None], axis=-1)
        if gaps[np.triu_indices(n_blobs, 1)].min() >= min_center_distance:
            break
    rows = np.vstack([c + sigma * rng.standard_normal((n_per_blob, dim)) for c in centers])
    labels = np.repeat(np.arange(n_blobs), n_per_blob)
    ids = [f"CVE-2021-{1000 + i}" for i in range(n_blobs * n_per_blob)]
    matrix = EmbeddingMatrix(ids=ids, rows=rows, dim=dim, model_id="blobs")
    return matrix, labels


def label_purity(assignments, labels, k: int) -> float:
    """Majority-label purity of a clustering against the generating labels."""
    labels = np.asarray(labels)
    total = 0
    for j in range(k):
        members = labels[np.asarray(assignments) == j]
        if len(members):
            total += int(np.bincount(members).max())
    return total / len(labels)
