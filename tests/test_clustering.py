import numpy as np
import pytest
from scipy.spatial.distance import cdist

from matrices import blob_matrix, label_purity, random_matrix
from cveminer.clustering import (ClusterModel, _canonical, _repair_empty, choose_elbow,
                                 elbow_select, fit_best_of, kmeanspp_init, lloyd,
                                 representatives)
from cveminer.errors import KTooLarge, RangeError
from cveminer.vectors import EmbeddingMatrix


def matrix_from_rows(rows, prefix="CVE-2021-"):
    rows = np.asarray(rows, dtype=np.float64)
    ids = [f"{prefix}{1000+i}" for i in range(len(rows))]
    return EmbeddingMatrix(ids=ids, rows=rows, dim=rows.shape[1], model_id="t")


def test_kmeanspp_deterministic():
    m = random_matrix(0, 40, 8)
    a = kmeanspp_init(m, 5, seed=11)
    b = kmeanspp_init(m, 5, seed=11)
    assert a.tobytes() == b.tobytes()
    c = kmeanspp_init(m, 5, seed=12)
    assert a.tobytes() != c.tobytes()


def test_kmeanspp_k_equals_n_is_permutation():
    m = random_matrix(1, 12, 4)
    centroids = kmeanspp_init(m, 12, seed=3)
    got = sorted(map(tuple, centroids))
    expected = sorted(map(tuple, m.rows))
    assert got == expected


def test_kmeanspp_k1_is_some_row():
    m = random_matrix(2, 9, 3)
    centroid = kmeanspp_init(m, 1, seed=5)
    assert any(np.array_equal(centroid[0], row) for row in m.rows)


def test_kmeanspp_k_too_large():
    with pytest.raises(KTooLarge):
        kmeanspp_init(random_matrix(3, 4, 2), 5, seed=0)


def test_lloyd_separable_doubles():
    m = matrix_from_rows([[0, 0], [0, 0], [10, 10], [10, 10]])
    model = lloyd(m, np.array([[1.0, 1.0], [9.0, 9.0]]))
    assert model.wcss == 0.0
    assert sorted(map(tuple, model.centroids)) == [(0.0, 0.0), (10.0, 10.0)]
    assert model.converged


def test_lloyd_k1_is_global_mean():
    m = random_matrix(4, 30, 5)
    model = lloyd(m, m.rows[:1].copy())
    mean = m.rows.mean(axis=0)
    assert np.allclose(model.centroids[0], mean, atol=1e-12)
    expected_wcss = float(np.sum((m.rows - mean) ** 2))
    assert abs(model.wcss - expected_wcss) <= 1e-9 * (1 + expected_wcss)


def test_lloyd_blobs_perfect_purity():
    m, labels = blob_matrix(10, n_per_blob=100, n_blobs=5, dim=64, sigma=0.05)
    model = fit_best_of(m, 5, seed=10, restarts=8)
    assert label_purity(model.assignments, labels, 5) == 1.0


def test_lloyd_wcss_monotone_random_instances():
    rng = np.random.default_rng(20)
    for trial in range(40):
        n = int(rng.integers(5, 120))
        dim = int(rng.integers(1, 12))
        k = int(rng.integers(1, min(8, n) + 1))
        m = random_matrix(100 + trial, n, dim)
        model = lloyd(m, kmeanspp_init(m, k, seed=trial))
        history = model.wcss_history
        for before, after in zip(history, history[1:]):
            assert after <= before * (1 + 1e-12)


def test_model_invariants_post_convergence():
    m = random_matrix(21, 80, 6)
    model = fit_best_of(m, 4, seed=2, restarts=4)
    for j in range(model.k):
        members = m.rows[model.assignments == j]
        assert len(members) > 0
        assert np.allclose(model.centroids[j], members.mean(axis=0), atol=1e-9)
    recomputed = float(np.sum((m.rows - model.centroids[model.assignments]) ** 2))
    assert abs(model.wcss - recomputed) <= 1e-9 * (1 + model.wcss)
    assert set(np.unique(model.assignments)) <= set(range(model.k))


def test_empty_cluster_reseeded():
    # two tight groups plus one far outlier; k=3 with inits that leave the
    # third centroid empty forces the repair path to grab the farthest point
    rows = np.vstack([np.zeros((5, 2)), np.full((5, 2), 10.0), [[100.0, 100.0]]])
    m = matrix_from_rows(rows)
    init = np.array([[0.0, 0.0], [10.0, 10.0], [-500.0, -500.0]])
    model = lloyd(m, init)
    counts = np.bincount(model.assignments, minlength=3)
    assert np.all(counts >= 1)
    outlier_cluster = model.assignments[-1]
    assert counts[outlier_cluster] == 1


def test_fit_best_of_restarts_one_equals_single_run():
    m = random_matrix(22, 50, 4)
    single = lloyd(m, kmeanspp_init(m, 4, seed=9), seed=9)
    best = fit_best_of(m, 4, seed=9, restarts=1)
    assert best.wcss == single.wcss
    assert np.array_equal(best.assignments, single.assignments)


def test_fit_best_of_monotone_in_restarts():
    m, _ = blob_matrix(30, n_per_blob=30, n_blobs=4, dim=8, sigma=0.3)
    w1 = fit_best_of(m, 4, seed=5, restarts=1).wcss
    w8 = fit_best_of(m, 4, seed=5, restarts=8).wcss
    assert w8 <= w1


def test_fit_best_of_beats_each_individual_run():
    # adversarial two-ring layout: many local optima
    rng = np.random.default_rng(31)
    angles = rng.uniform(0, 2 * np.pi, size=100)
    inner = np.c_[np.cos(angles[:50]), np.sin(angles[:50])]
    outer = 3.0 * np.c_[np.cos(angles[50:]), np.sin(angles[50:])]
    m = matrix_from_rows(np.vstack([inner, outer]))
    best = fit_best_of(m, 6, seed=40, restarts=8)
    individual = [lloyd(m, kmeanspp_init(m, 6, seed=40 + i), seed=40 + i).wcss
                  for i in range(8)]
    assert all(best.wcss <= w for w in individual)


def test_determinism_bit_identical():
    m = random_matrix(23, 60, 5)
    a = fit_best_of(m, 3, seed=1, restarts=4)
    b = fit_best_of(m, 3, seed=1, restarts=4)
    assert np.array_equal(a.assignments, b.assignments)
    assert a.centroids.tobytes() == b.centroids.tobytes()
    assert a.wcss == b.wcss


def test_permuting_rows_permutes_assignments():
    m = random_matrix(24, 50, 6)
    base = fit_best_of(m, 4, seed=8, restarts=3)
    rng = np.random.default_rng(0)
    perm = rng.permutation(len(m))
    shuffled = EmbeddingMatrix(ids=[m.ids[i] for i in perm], rows=m.rows[perm],
                               dim=m.dim, model_id=m.model_id)
    other = fit_best_of(shuffled, 4, seed=8, restarts=3)

    def partition(matrix, model):
        groups = {}
        for cve_id, c in zip(matrix.ids, model.assignments):
            groups.setdefault(int(c), set()).add(cve_id)
        return {frozenset(g) for g in groups.values()}

    assert partition(m, base) == partition(shuffled, other)


# -- reference: K-means++ and Lloyd with direct distances and per-iteration
# mask means, which the GEMM kernels must reproduce bit for bit ---------------

def _oracle_kmeanspp(matrix, k, seed):
    n = len(matrix)
    rows = matrix.rows[np.argsort(np.array(matrix.ids))]
    rng = np.random.default_rng(seed)
    chosen = [int(rng.integers(n))]
    d2 = np.sum((rows - rows[chosen[0]]) ** 2, axis=1)
    d2[chosen[0]] = 0.0
    for _ in range(1, k):
        total = float(d2.sum())
        if total > 0.0:
            u = rng.random() * total
            idx = min(int(np.searchsorted(np.cumsum(d2), u, side="right")), n - 1)
            while d2[idx] == 0.0:
                idx = (idx + 1) % n
        else:
            idx = sorted(set(range(n)) - set(chosen))[0]
        chosen.append(idx)
        d2 = np.minimum(d2, np.sum((rows - rows[idx]) ** 2, axis=1))
        d2[idx] = 0.0
    return rows[chosen].copy()


def _oracle_lloyd(matrix, init_centroids, max_iter=300, tol=1e-6):
    k, n = init_centroids.shape[0], len(matrix)
    order = np.argsort(np.array(matrix.ids))
    rows = matrix.rows[order]
    centroids = init_centroids.copy()
    prev, converged, iterations = np.inf, False, 0
    for iterations in range(1, max_iter + 1):
        d2 = cdist(rows, centroids, metric="sqeuclidean")
        assign = np.argmin(d2, axis=1)
        _repair_empty(assign, d2[np.arange(n), assign], k)
        centroids = np.vstack([rows[assign == j].mean(axis=0) for j in range(k)])
        wcss = float(np.sum((rows - centroids[assign]) ** 2))
        if prev < np.inf:
            improvement = (prev - wcss) / prev if prev > 0.0 else 0.0
            if improvement < tol:
                converged = True
                prev = wcss
                break
        prev = wcss
    assignments = np.empty(n, dtype=np.int64)
    assignments[order] = assign
    return assignments, centroids, prev, iterations, converged


def _shuffled(matrix, seed):
    perm = np.random.default_rng(seed).permutation(len(matrix))
    return EmbeddingMatrix(ids=[matrix.ids[i] for i in perm], rows=matrix.rows[perm],
                           dim=matrix.dim, model_id=matrix.model_id)


def _with_duplicates(seed, dim=4):
    rows = np.random.default_rng(seed).normal(size=(30, dim))
    return matrix_from_rows(np.vstack([rows, rows[:10], rows[:5], rows[:1]]))


@pytest.mark.parametrize("kind", ["normal", "blobs", "duplicates"])
def test_kernels_match_direct_reference_bit_for_bit(kind):
    for seed in range(20):
        if kind == "normal":
            base = random_matrix(300 + seed, 120, 24)
        elif kind == "blobs":
            base = blob_matrix(300 + seed, n_per_blob=25, n_blobs=4, dim=16, sigma=0.3)[0]
        else:
            base = _with_duplicates(300 + seed)
        matrix = _shuffled(base, seed)
        for k in (1, 2, 4, 7):
            init = kmeanspp_init(matrix, k, seed)
            assert init.tobytes() == _oracle_kmeanspp(matrix, k, seed).tobytes()
            model = lloyd(matrix, init)
            assignments, centroids, wcss, iterations, converged = _oracle_lloyd(matrix, init)
            assert np.array_equal(model.assignments, assignments), (kind, seed, k)
            assert model.centroids.tobytes() == centroids.tobytes()
            assert model.wcss == wcss and model.wcss_history[-1] == wcss
            assert (model.iterations, model.converged) == (iterations, converged)


def test_elbow_scan_matches_direct_reference():
    for seed in range(5):
        matrix = _shuffled(blob_matrix(400 + seed, n_per_blob=20, n_blobs=4, dim=8,
                                       sigma=0.3)[0], seed)
        curve = elbow_select(matrix, 2, 6, seed=seed, restarts=3)
        expected = [min(_oracle_lloyd(matrix, _oracle_kmeanspp(matrix, k, seed + i))[2]
                        for i in range(3))
                    for k in range(2, 7)]
        assert curve.wcss_values == expected


@pytest.mark.parametrize("kind", ["normal", "blobs", "duplicates"])
def test_gram_kernels_match_direct_reference_bit_for_bit(kind):
    # fewer rows than dimensions: the steps run on the Gram matrix
    for seed in range(20):
        if kind == "normal":
            base = random_matrix(600 + seed, 60, 200)
        elif kind == "blobs":
            base = blob_matrix(600 + seed, n_per_blob=20, n_blobs=4, dim=150, sigma=0.3)[0]
        else:
            base = _with_duplicates(600 + seed, dim=100)
        matrix = _shuffled(base, seed)
        assert _canonical(matrix).gram is not None
        for k in (1, 2, 4, 7):
            init = kmeanspp_init(matrix, k, seed)
            assert init.tobytes() == _oracle_kmeanspp(matrix, k, seed).tobytes()
            model = lloyd(matrix, init)
            assignments, centroids, wcss, iterations, converged = _oracle_lloyd(matrix, init)
            assert np.array_equal(model.assignments, assignments), (kind, seed, k)
            assert model.centroids.tobytes() == centroids.tobytes()
            assert model.wcss == wcss and model.wcss_history[-1] == wcss
            assert (model.iterations, model.converged) == (iterations, converged)


def _oracle_fit_best_of(matrix, k, seed, restarts):
    """Every restart recomputed exactly; the smallest wcss wins, the earlier on a tie."""
    best = None
    for i in range(restarts):
        model = lloyd(matrix, kmeanspp_init(matrix, k, seed + i), seed=seed + i)
        if best is None or model.wcss < best.wcss:
            best = model
    return best


@pytest.mark.parametrize("n,dim", [(60, 200), (46, 100), (120, 24)])
def test_fit_best_of_and_elbow_match_select_by_exact_wcss(n, dim):
    for seed in range(8):
        if n == 46:
            matrix = _shuffled(_with_duplicates(700 + seed, dim=dim), seed)
        else:
            matrix = blob_matrix(700 + seed, n_per_blob=n // 4, n_blobs=4, dim=dim, sigma=0.6)[0]
        for k in (2, 4, 7):
            got = fit_best_of(matrix, k, seed, restarts=4)
            want = _oracle_fit_best_of(matrix, k, seed, 4)
            assert (got.seed, got.wcss, got.iterations, got.converged) == \
                (want.seed, want.wcss, want.iterations, want.converged)
            assert np.array_equal(got.assignments, want.assignments)
            assert got.centroids.tobytes() == want.centroids.tobytes()
            assert got.wcss_history[-1] == want.wcss
        curve = elbow_select(matrix, 2, 6, seed=seed, restarts=3)
        expected = [_oracle_fit_best_of(matrix, k, seed, 3).wcss for k in range(2, 7)]
        assert curve.wcss_values == expected
        assert curve.chosen_k == choose_elbow(list(range(2, 7)), expected)


def test_fit_best_of_keeps_the_earlier_of_equal_restarts():
    # the corners of a unit square: splitting it left/right or top/bottom
    # gives the same wcss, exactly 1.0
    rows = np.zeros((4, 8))
    rows[:, :2] = [[0, 0], [1, 0], [0, 1], [1, 1]]
    matrix = matrix_from_rows(rows)
    for seed in (1, 5):
        runs = [lloyd(matrix, kmeanspp_init(matrix, 2, seed + i), seed=seed + i) for i in range(7)]
        ties = [run for run in runs if run.wcss == 1.0]
        partitions = {frozenset(frozenset(np.flatnonzero(run.assignments == j)) for j in (0, 1))
                      for run in ties}
        assert min(run.wcss for run in runs) == 1.0 and len(partitions) == 2
        best = fit_best_of(matrix, 2, seed, restarts=7)
        assert best.seed == ties[0].seed
        assert np.array_equal(best.assignments, ties[0].assignments)


def test_kmeanspp_never_picks_a_duplicate_of_a_chosen_row():
    rows = np.vstack([np.eye(3)] * 4)  # three distinct points, four copies each
    matrix = matrix_from_rows(rows)
    for seed in range(20):
        chosen = kmeanspp_init(matrix, 3, seed)
        assert sorted(map(tuple, chosen)) == sorted(map(tuple, np.eye(3)))


def test_choose_elbow_stated_curve():
    assert choose_elbow(list(range(2, 8)), [100, 60, 30, 28, 27, 26]) == 4


def test_choose_elbow_linear_curve_tie_break():
    assert choose_elbow(list(range(2, 9)), [70, 60, 50, 40, 30, 20, 10]) == 3


def test_choose_elbow_needs_three_points():
    with pytest.raises(RangeError):
        choose_elbow([2, 3], [5.0, 4.0])


def test_elbow_select_range_validation():
    m = random_matrix(25, 30, 4)
    with pytest.raises(RangeError):
        elbow_select(m, 5, 5, seed=0)
    with pytest.raises(RangeError):
        elbow_select(m, 2, 3, seed=0)
    with pytest.raises(RangeError):
        elbow_select(m, 2, 30, seed=0)


def test_elbow_select_deterministic():
    m, _ = blob_matrix(51, n_per_blob=30, n_blobs=3, dim=8, sigma=0.2)
    a = elbow_select(m, 2, 6, seed=3, restarts=3)
    b = elbow_select(m, 2, 6, seed=3, restarts=3)
    assert a.chosen_k == b.chosen_k
    assert a.wcss_values == b.wcss_values


def test_elbow_recovers_blob_count():
    m, _ = blob_matrix(50, n_per_blob=60, n_blobs=5, dim=16, sigma=0.05)
    curve = elbow_select(m, 2, 10, seed=50, restarts=4)
    assert curve.chosen_k == 5
    assert curve.k_values == list(range(2, 11))
    assert len(curve.wcss_values) == 9
    assert curve.chosen_k not in (curve.k_values[0], curve.k_values[-1])


def _rep_oracle(matrix, model, m, metric):
    ids = np.array(matrix.ids)
    out = {}
    for j in range(model.k):
        scored = []
        for i in np.flatnonzero(model.assignments == j):
            centroid = model.centroids[j]
            if metric == "cosine":
                score = -float(matrix.rows[i] @ centroid /
                               (np.linalg.norm(matrix.rows[i]) * np.linalg.norm(centroid)))
            else:
                score = float(np.linalg.norm(matrix.rows[i] - centroid))
            scored.append((score, str(ids[i])))
        out[j] = [cve_id for _, cve_id in sorted(scored)[:m]]
    return out


@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
def test_representatives_match_bruteforce(metric):
    for trial in range(10):
        m, _ = blob_matrix(60 + trial, n_per_blob=20, n_blobs=3, dim=8, sigma=0.4)
        model = fit_best_of(m, 3, seed=trial, restarts=2)
        assert representatives(m, model, 10, metric) == _rep_oracle(m, model, 10, metric)


def test_representatives_centroid_direction_ranks_first():
    rows = np.array([[1.0, 0.0], [0.9, 0.1], [0.8, 0.2]])
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    m = matrix_from_rows(rows)
    model = ClusterModel(k=1, centroids=np.array([[1.0, 0.0]]),
                         assignments=np.zeros(3, dtype=np.int64),
                         wcss=0.0, seed=None, iterations=1, converged=True)
    ranked = representatives(m, model, 3, "cosine")[0]
    assert ranked[0] == m.ids[0]


def test_representatives_tie_breaks_by_id():
    rows = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    m = matrix_from_rows(rows)
    model = ClusterModel(k=1, centroids=np.array([[1.0, 0.0]]),
                         assignments=np.zeros(3, dtype=np.int64),
                         wcss=0.0, seed=None, iterations=1, converged=True)
    ranked = representatives(m, model, 2, "cosine")
    assert ranked[0] == [m.ids[0], m.ids[1]]  # equal similarity, id ascending


def test_representatives_small_cluster_returns_all():
    m = random_matrix(70, 4, 3)
    model = ClusterModel(k=1, centroids=m.rows.mean(axis=0, keepdims=True),
                         assignments=np.zeros(4, dtype=np.int64),
                         wcss=1.0, seed=None, iterations=1, converged=True)
    assert len(representatives(m, model, 10, "euclidean")[0]) == 4
