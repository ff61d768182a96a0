import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import cveminer
from matrices import blob_matrix, random_matrix
from cveminer import projection
from cveminer.errors import CveMinerError
from cveminer.projection import (ENTROPY_TOL, EXAGGERATION_ITERS, MAX_BISECTIONS,
                                 ProjectionResult, TsneParams, conditional_affinities,
                                 joint_affinities, trustworthiness, tsne)
from cveminer.vectors import EmbeddingMatrix


def small_params(**overrides):
    base = dict(perplexity=5.0, iterations=300)
    base.update(overrides)
    return TsneParams(**base)


def test_conditional_rows_sum_to_one():
    m = random_matrix(0, 40, 8)
    cond = conditional_affinities(m.rows, perplexity=10.0)
    sums = cond.sum(axis=1)
    assert np.allclose(sums, 1.0, atol=1e-6)
    assert np.all(np.diag(cond) == 0.0)


def _conditional_affinities_oracle(rows, perplexity):
    """The row-at-a-time bisection, over scipy's distances; also each row's step count."""
    d2 = cdist(rows, rows, metric="sqeuclidean")
    n = len(rows)
    target = np.log(perplexity)
    p = np.zeros((n, n))
    steps = np.zeros(n, dtype=np.int64)
    for i in range(n):
        mask = np.arange(n) != i
        d_row = d2[i, mask]

        def entropy_and_row(beta):
            w = np.exp(-d_row * beta)
            total = w.sum()
            if total <= 0.0:
                return 0.0, np.zeros_like(w)
            return float(np.log(total) + beta * float((d_row * w).sum()) / total), w / total

        beta, beta_min, beta_max = 1.0, -np.inf, np.inf
        h, row = entropy_and_row(beta)
        for _ in range(MAX_BISECTIONS):
            if abs(h - target) <= ENTROPY_TOL:
                break
            steps[i] += 1
            if h > target:
                beta_min = beta
                beta = beta * 2.0 if beta_max == np.inf else (beta + beta_max) / 2.0
            else:
                beta_max = beta
                beta = beta / 2.0 if beta_min == -np.inf else (beta + beta_min) / 2.0
            h, row = entropy_and_row(beta)
        p[i, mask] = row
    return p, steps


@pytest.mark.parametrize("radius", [1.0, 3.0])
def test_conditional_affinities_match_row_oracle_with_a_row_out_of_steps(radius):
    # point 0 is equidistant from all others, so its entropy cannot reach the
    # target: it runs out of steps (ending uniform at radius 1, underflowed to
    # zeros at radius 3) while the other rows converge
    rows = np.random.default_rng(5).normal(size=(60, 8))
    rows[1:] *= radius / np.linalg.norm(rows[1:], axis=1, keepdims=True)
    rows[0] = 0.0
    want, steps = _conditional_affinities_oracle(rows, 10.0)
    assert steps[0] == MAX_BISECTIONS and steps[1:].max() < MAX_BISECTIONS
    assert (want[0].sum() == 0.0) == (radius == 3.0)  # the oracle keeps the zero row
    got = conditional_affinities(rows, 10.0)
    assert np.abs(got[1:] - want[1:]).max() <= 1e-12
    assert got[0, 0] == 0.0 and np.abs(got[0, 1:] - 1.0 / 59).max() <= 1e-12
    assert np.abs(got.sum(axis=1) - 1.0).max() <= 1e-12


def test_conditional_affinities_match_row_oracle_at_cold_scale():
    rows = random_matrix(5, 431, 3072).rows
    want, _ = _conditional_affinities_oracle(rows, 30.0)
    assert np.abs(conditional_affinities(rows, 30.0) - want).max() <= 1e-12


def _gradient_reference(p_joint, coords, exaggeration):
    diff = coords[:, None, :] - coords[None, :, :]
    num = 1.0 / (1.0 + (diff ** 2).sum(axis=-1))
    np.fill_diagonal(num, 0.0)
    q = np.maximum(num / num.sum(), projection.AFFINITY_FLOOR)
    pq = (p_joint * exaggeration - q) * num
    return 4.0 * (pq[:, :, None] * diff).sum(axis=1), num.sum()


@pytest.mark.parametrize("scale,exaggeration", [(1e-4, 12.0), (1.0, 12.0), (10.0, 1.0)])
def test_gradient_matches_float64_reference(scale, exaggeration):
    m = random_matrix(16, 120, 10)
    p_joint = joint_affinities(conditional_affinities(m.rows, 20.0))
    p_joint = np.maximum(p_joint / p_joint.sum(), projection.AFFINITY_FLOOR)
    coords = np.random.default_rng(17).standard_normal((120, 2)) * scale
    num = np.empty((120, 120), dtype=np.float32)
    scratch = np.empty_like(num)
    grad, z = projection._gradient(p_joint.astype(np.float32), coords, exaggeration, num, scratch)
    want, want_z = _gradient_reference(p_joint, coords, exaggeration)
    assert np.linalg.norm(grad - want) <= 1e-5 * np.linalg.norm(want)
    assert abs(z - want_z) <= 1e-6 * want_z


# prints the bytes' digests of a t-SNE layout and of a K-means fit
_THREADS_CHILD = """
import hashlib
from matrices import blob_matrix
from cveminer import clustering, projection
m, _ = blob_matrix(0, 120, 5, 512, 0.3)
r = projection.tsne(m, projection.TsneParams(perplexity=30.0, iterations=300), seed=0)
c = clustering.fit_best_of(m, 5, seed=0)
print(hashlib.sha256(r.coords.tobytes()).hexdigest(),
      hashlib.sha256(c.assignments.tobytes() + c.centroids.tobytes()).hexdigest())
"""


def test_layout_and_clusters_do_not_depend_on_the_blas_thread_count():
    # the input must stay this large: at 300 x 256 the layouts agree at 1 and
    # 2 threads even when t-SNE runs at the library's default count
    path = os.pathsep.join([str(Path(cveminer.__file__).parents[1]), str(Path(__file__).parent)])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        out = subprocess.run([sys.executable, "-c", _THREADS_CHILD], env=env,
                             capture_output=True, text=True, check=True, timeout=120)
        digests.append(out.stdout.split())
    (coords_1, clusters_1), (coords_2, clusters_2) = digests
    assert coords_1 == coords_2
    assert clusters_1 == clusters_2


def test_tsne_runs_on_one_blas_thread_and_restores_the_count(blas_threads, monkeypatch):
    get, set_ = blas_threads
    seen = []
    gradient = projection._gradient

    def counting_gradient(*args):
        seen.append(get())
        return gradient(*args)

    monkeypatch.setattr(projection, "_gradient", counting_gradient)
    set_(2)
    tsne(random_matrix(2, 60, 16), small_params(iterations=20), seed=0)
    assert seen == [1] * 20
    assert get() == 2


def test_one_blas_thread_without_a_known_symbol_sets_nothing(monkeypatch):
    monkeypatch.setattr(projection, "_blas_threads", lambda: None)
    with projection.one_blas_thread() as blas:
        assert blas == {"symbol": None, "replaced_threads": None}


def test_joint_affinities_symmetric_nonnegative():
    m = random_matrix(1, 30, 6)
    p = joint_affinities(conditional_affinities(m.rows, 8.0))
    assert np.allclose(p, p.T, atol=0)
    assert np.all(p > 0)


def test_tsne_deterministic_bit_identical():
    m = random_matrix(2, 60, 16)
    a = tsne(m, small_params(), seed=4)
    b = tsne(m, small_params(), seed=4)
    assert a.coords.tobytes() == b.coords.tobytes()
    assert a.kl_trace == b.kl_trace
    c = tsne(m, small_params(), seed=5)
    assert a.coords.tobytes() != c.coords.tobytes()


def test_tsne_small_n_boundary():
    m = random_matrix(3, 5, 4)
    result = tsne(m, TsneParams(perplexity=1.0, iterations=120), seed=0)
    assert result.coords.shape == (5, 2)
    assert np.all(np.isfinite(result.coords))


def test_tsne_preconditions():
    with pytest.raises(ValueError):
        tsne(random_matrix(4, 4, 3))
    with pytest.raises(CveMinerError, match=r"perplexity 3.0 >= \(n-1\)/3"):
        tsne(random_matrix(5, 10, 3), TsneParams(perplexity=3.0))
    with pytest.raises(ValueError):
        tsne(random_matrix(5, 10, 3), TsneParams(perplexity=0.0))
    with pytest.raises(ValueError):
        tsne(random_matrix(5, 10, 3), TsneParams(perplexity=2.0, iterations=0))


def test_tsne_degenerate_input():
    rows = np.ones((8, 4))
    m = EmbeddingMatrix(ids=[f"CVE-2021-{i+1000}" for i in range(8)], rows=rows,
                        dim=4, model_id="t")
    with pytest.raises(CveMinerError, match="all rows are identical"):
        tsne(m, small_params(perplexity=2.0))


def test_tsne_output_centered():
    m = random_matrix(6, 50, 8)
    result = tsne(m, small_params(), seed=1)
    assert np.all(np.abs(result.coords.mean(axis=0)) < 1e-9)


def test_tsne_kl_trace_every_interval():
    m = random_matrix(7, 40, 8)
    result = tsne(m, small_params(iterations=250), seed=2)
    assert [it for it, _ in result.kl_trace] == [50, 100, 150, 200, 250]
    assert result.final_kl == result.kl_trace[-1][1]
    # the last iteration is recorded once, also off the interval
    result = tsne(m, small_params(iterations=120), seed=2)
    assert [it for it, _ in result.kl_trace] == [50, 100, 120]


def test_tsne_blobs_quality_and_kl_descent():
    m, _ = blob_matrix(8, n_per_blob=100, n_blobs=3, dim=64, sigma=0.05)
    result = tsne(m, TsneParams(), seed=8)
    assert trustworthiness(m, result, k=10) >= 0.90
    post = [(it, kl) for it, kl in result.kl_trace if it > EXAGGERATION_ITERS]
    assert len(post) >= 5
    for (_, before), (_, after) in zip(post, post[1:]):
        assert after <= before + 1e-3


def _trustworthiness_oracle(high, low, k):
    n = len(high)
    d_high = np.linalg.norm(high[:, None] - high[None], axis=-1)
    d_low = np.linalg.norm(low[:, None] - low[None], axis=-1)

    def neighbor_order(d):
        order = []
        for i in range(n):
            others = [(d[i, j], j) for j in range(n) if j != i]
            others.sort()
            order.append([j for _, j in others])
        return order

    high_order = neighbor_order(d_high)
    low_order = neighbor_order(d_low)
    total = 0
    for i in range(n):
        high_rank = {j: r + 1 for r, j in enumerate(high_order[i])}
        for j in low_order[i][:k]:
            if j not in high_order[i][:k]:
                total += high_rank[j] - k
    return 1.0 - 2.0 / (n * k * (2 * n - 3 * k - 1)) * total


def test_trustworthiness_matches_oracle():
    rng = np.random.default_rng(11)
    for trial in range(10):
        n = int(rng.integers(12, 40))
        m = random_matrix(200 + trial, n, 6)
        coords = rng.normal(size=(n, 2))
        result = ProjectionResult(ids=list(m.ids), coords=coords,
                                  params=TsneParams(), seed=0, final_kl=0.0)
        k = int(rng.integers(1, max(2, n // 4)))
        got = trustworthiness(m, result, k)
        want = _trustworthiness_oracle(m.rows, coords, k)
        assert abs(got - want) < 1e-12


def _trustworthiness_loops(high, low, k):
    """The per-point loops over scipy's distances, with the same stable tie order."""
    n = len(high)

    def order(d):
        np.fill_diagonal(d, -np.inf)
        return np.argsort(d, axis=1, kind="stable")[:, 1:]

    order_high = order(cdist(high, high, metric="sqeuclidean"))
    order_low = order(cdist(low, low, metric="sqeuclidean"))
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


def test_trustworthiness_equals_loops_at_cold_scale():
    m = random_matrix(5, 431, 3072)
    rng = np.random.default_rng(5)
    # a layout that keeps part of the structure, so both sets overlap
    coords = m.rows[:, :2] + 0.5 * rng.standard_normal((431, 2))
    result = ProjectionResult(ids=list(m.ids), coords=coords,
                              params=TsneParams(), seed=0, final_kl=0.0)
    for k in (1, 10, 50):
        assert trustworthiness(m, result, k) == _trustworthiness_loops(m.rows, coords, k)


def test_projecting_and_scoring_load_no_scipy():
    code = ("import sys, numpy as np; from cveminer import projection, vectors; "
            "rows = np.random.default_rng(0).normal(size=(40, 8)); "
            "m = vectors.EmbeddingMatrix(ids=[str(i) for i in range(40)], rows=rows, dim=8, "
            "model_id='t'); "
            "r = projection.tsne(m, projection.TsneParams(perplexity=5.0, iterations=60)); "
            "projection.trustworthiness(m, r, 5); "
            "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(Path(cveminer.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_trustworthiness_rigid_rotation_is_one():
    m = random_matrix(12, 40, 2)
    theta = 0.83
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    result = ProjectionResult(ids=list(m.ids), coords=m.rows @ rot.T,
                              params=TsneParams(), seed=0, final_kl=0.0)
    assert trustworthiness(m, result, k=10) == 1.0


def test_trustworthiness_shuffled_structured_data_low():
    m, _ = blob_matrix(13, n_per_blob=25, n_blobs=4, dim=16, sigma=0.05)
    coords = m.rows[:, :2].copy()
    for seed in range(10):
        rng = np.random.default_rng(seed)
        shuffled = coords[rng.permutation(len(m))]
        result = ProjectionResult(ids=list(m.ids), coords=shuffled,
                                  params=TsneParams(), seed=0, final_kl=0.0)
        assert trustworthiness(m, result, k=10) < 0.8


def test_trustworthiness_domain_errors():
    m = random_matrix(14, 20, 4)
    result = ProjectionResult(ids=list(m.ids), coords=m.rows[:, :2].copy(),
                              params=TsneParams(), seed=0, final_kl=0.0)
    with pytest.raises(CveMinerError, match="k=19 outside formula domain for n=20"):
        trustworthiness(m, result, k=19)  # k = n - 1 is outside the formula domain
    with pytest.raises(CveMinerError, match=r"k must be in \[1, 19\]"):
        trustworthiness(m, result, k=0)
    with pytest.raises(CveMinerError, match=r"k must be in \[1, 19\]"):
        trustworthiness(m, result, k=20)


def test_trustworthiness_id_alignment_checked():
    m = random_matrix(15, 10, 4)
    result = ProjectionResult(ids=list(reversed(m.ids)), coords=m.rows[:, :2].copy(),
                              params=TsneParams(), seed=0, final_kl=0.0)
    with pytest.raises(ValueError):
        trustworthiness(m, result, k=2)
