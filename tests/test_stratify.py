"""Standardization, PCA, k-means, and fold assignment."""

import numpy as np
import pytest

from gliomaforge.errors import ConfigError, InsufficientDataError
from gliomaforge.stratify import (
    kmeans,
    pca_fit_transform,
    read_folds_csv,
    standardize,
    stratified_folds,
    stratify_cases,
    within_cluster_ss,
    write_folds_csv,
)


class TestStandardize:
    def test_closed_form_column(self):
        out, means, stds = standardize(np.array([[1.0], [2.0], [3.0]]))
        np.testing.assert_allclose(out[:, 0], [-1.224744871, 0.0, 1.224744871], atol=1e-9)
        assert means[0] == 2.0
        assert stds[0] == pytest.approx(np.sqrt(2.0 / 3.0))

    def test_constant_column_zeroed_with_warning(self):
        m = np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]])
        with pytest.warns(UserWarning, match="zero-variance"):
            out, _, _ = standardize(m)
        assert np.all(out[:, 0] == 0.0)
        assert out[:, 1].std() == pytest.approx(1.0)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        m = rng.normal(5, 3, size=(20, 4))
        once, _, _ = standardize(m)
        twice, _, _ = standardize(once)
        np.testing.assert_allclose(twice, once, atol=1e-9)

    def test_too_few_rows(self):
        with pytest.raises(InsufficientDataError):
            standardize(np.array([[1.0, 2.0]]))

    def test_non_finite_rejected(self):
        with pytest.raises(ConfigError):
            standardize(np.array([[1.0], [np.inf]]))


class TestPCA:
    def test_rank_one_data(self):
        x = np.arange(1.0, 11.0)
        m = np.stack([x, 2 * x], axis=1)
        model, reduced = pca_fit_transform(m, components=1)
        assert model.explained_variance_ratios[0] == pytest.approx(1.0, abs=1e-9)
        assert reduced.shape == (10, 1)

    def test_axis_aligned_variances(self):
        # exact population variances 4 and 1, zero covariance
        m = np.array([[-2.0, -1.0], [-2.0, 1.0], [2.0, -1.0], [2.0, 1.0]])
        model, _ = pca_fit_transform(m, components=2)
        np.testing.assert_allclose(model.explained_variance_ratios, [0.8, 0.2], atol=1e-9)
        np.testing.assert_allclose(np.abs(model.components), np.eye(2), atol=1e-9)

    def test_full_reconstruction(self):
        rng = np.random.default_rng(1)
        m = rng.normal(size=(8, 5))
        model, reduced = pca_fit_transform(m, components=5)
        rebuilt = reduced @ model.components.T
        np.testing.assert_allclose(rebuilt, m - m.mean(axis=0), atol=1e-8)

    def test_orthonormal_components(self):
        rng = np.random.default_rng(2)
        model, _ = pca_fit_transform(rng.normal(size=(30, 6)), components=4)
        gram = model.components.T @ model.components
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-8)

    def test_projected_covariance_diagonal(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(40, 7)) @ rng.normal(size=(7, 7))
        model, reduced = pca_fit_transform(m, components=5)
        cov = np.cov(reduced, rowvar=False, bias=True)
        np.testing.assert_allclose(cov - np.diag(np.diag(cov)), 0.0, atol=1e-8)
        assert np.trace(cov) <= m.var(axis=0).sum() + 1e-8

    def test_ratios_descending_in_unit_interval(self):
        rng = np.random.default_rng(4)
        model, _ = pca_fit_transform(rng.normal(size=(25, 6)), components=6)
        r = model.explained_variance_ratios
        assert np.all(np.diff(r) <= 1e-12)
        assert np.all((r >= 0) & (r <= 1))
        assert r.sum() == pytest.approx(1.0)

    def test_sign_convention(self):
        rng = np.random.default_rng(5)
        model, _ = pca_fit_transform(rng.normal(size=(20, 5)), components=3)
        for j in range(3):
            col = model.components[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    def test_too_many_components(self):
        with pytest.raises(ConfigError):
            pca_fit_transform(np.zeros((4, 10)), components=4)  # limit is n-1 = 3


def three_blobs(per=10, seed=7):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 100.0]])
    pts = np.concatenate([c + rng.uniform(-1, 1, size=(per, 2)) for c in centers])
    truth = np.repeat(np.arange(3), per)
    return pts, truth


class TestKMeans:
    def test_recovers_separated_blobs(self):
        pts, truth = three_blobs()
        labels, centroids = kmeans(pts, k=3, seed=42)
        # one label per blob, all three distinct
        blob_labels = [set(labels[truth == b]) for b in range(3)]
        assert all(len(s) == 1 for s in blob_labels)
        assert len(set.union(*blob_labels)) == 3
        assert within_cluster_ss(pts, labels, centroids) < 3 * 10 * 2  # jitter bound

    def test_n_equals_k(self):
        pts = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        labels, centroids = kmeans(pts, k=3, seed=0)
        assert sorted(labels) == [0, 1, 2]
        assert within_cluster_ss(pts, labels, centroids) == 0.0

    def test_deterministic(self):
        pts, _ = three_blobs(seed=8)
        a, _ = kmeans(pts, k=3, seed=11)
        b, _ = kmeans(pts, k=3, seed=11)
        np.testing.assert_array_equal(a, b)

    def test_objective_non_increasing(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(50, 3))
        prev = np.inf
        for iters in range(1, 9):
            labels, centroids = kmeans(pts, k=4, seed=1, max_iter=iters)
            wcss = within_cluster_ss(pts, labels, centroids)
            assert wcss <= prev + 1e-9
            prev = wcss

    def test_coincident_points_fill_every_cluster(self):
        # duplicate data forces the empty-cluster repair path
        pts = np.ones((5, 2))
        labels, _ = kmeans(pts, k=2, seed=3)
        assert set(labels) == {0, 1}

    def test_too_few_points(self):
        with pytest.raises(InsufficientDataError):
            kmeans(np.zeros((2, 2)), k=3)

    @pytest.mark.parametrize("k", [0, -1])
    def test_nonpositive_k_rejected(self, k):
        with pytest.raises(ConfigError, match=f"got {k}"):
            kmeans(np.eye(4), k=k)


class TestStratifiedFolds:
    def test_divisible_counts(self):
        # counting oracle: 30/20/10 split 5 ways -> 6/4/2 each
        labels = np.repeat([0, 1, 2], [30, 20, 10])
        ids = [f"c{i:03d}" for i in range(60)]
        fa = stratified_folds(ids, labels, n_folds=5, seed=42)
        for f in range(5):
            in_fold = fa.clusters[fa.folds == f]
            assert [int(np.sum(in_fold == c)) for c in range(3)] == [6, 4, 2]

    def test_pigeonhole_counts(self):
        fa = stratified_folds([f"c{i}" for i in range(7)], np.zeros(7, int), n_folds=5)
        counts = sorted(int(np.sum(fa.folds == f)) for f in range(5))
        assert counts == [1, 1, 1, 2, 2]

    def test_single_cluster_plain_split(self):
        fa = stratified_folds([f"c{i}" for i in range(10)], np.zeros(10, int), n_folds=5)
        assert sorted(fa.folds) == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4]

    def test_balance_invariant_random_labels(self):
        rng = np.random.default_rng(10)
        labels = rng.integers(0, 4, size=37)
        fa = stratified_folds([f"c{i}" for i in range(37)], labels, n_folds=5, seed=2)
        for c in np.unique(labels):
            counts = [int(np.sum((fa.clusters == c) & (fa.folds == f))) for f in range(5)]
            assert max(counts) - min(counts) <= 1

    def test_deterministic(self):
        labels = np.repeat([0, 1], [8, 7])
        ids = [f"c{i}" for i in range(15)]
        a = stratified_folds(ids, labels, seed=5)
        b = stratified_folds(ids, labels, seed=5)
        np.testing.assert_array_equal(a.folds, b.folds)

    def test_too_few_cases(self):
        with pytest.raises(InsufficientDataError):
            stratified_folds(["a", "b"], np.zeros(2, int), n_folds=5)

    @pytest.mark.parametrize("n_folds", [0, -2])
    def test_nonpositive_fold_count_rejected(self, n_folds):
        with pytest.raises(ConfigError, match=f"got {n_folds}"):
            stratified_folds(["a", "b", "c"], np.zeros(3, int), n_folds=n_folds)


class TestPipeline:
    def test_byte_identical_csv(self, tmp_path):
        pts, _ = three_blobs(per=7, seed=12)
        # pad to a wider feature table; extra columns are pure noise
        rng = np.random.default_rng(13)
        matrix = np.concatenate([pts, rng.normal(size=(21, 4))], axis=1)
        ids = [f"case-{i:03d}" for i in range(21)]
        fa1 = stratify_cases(ids, matrix, k=3, pca_components=4, n_folds=5, seed=42)
        fa2 = stratify_cases(ids, matrix, k=3, pca_components=4, n_folds=5, seed=42)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_folds_csv(p1, fa1)
        write_folds_csv(p2, fa2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_roundtrip(self, tmp_path):
        labels = np.repeat([0, 1, 2], 5)
        fa = stratified_folds([f"c{i}" for i in range(15)], labels, seed=1)
        path = tmp_path / "folds.csv"
        write_folds_csv(path, fa)
        back = read_folds_csv(path)
        assert back.case_ids == fa.case_ids
        np.testing.assert_array_equal(back.clusters, fa.clusters)
        np.testing.assert_array_equal(back.folds, fa.folds)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "folds.csv"
        path.write_text("case,fold\nx,1\n")
        with pytest.raises(ConfigError):
            read_folds_csv(path)
