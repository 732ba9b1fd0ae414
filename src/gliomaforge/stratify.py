"""Feature standardization, PCA, k-means, and stratified fold assignment.

Every step is deterministic given the seed: PCA component signs follow a
fixed convention, k-means uses a seeded generator with first-index tie
breaking, and folds are dealt round-robin after a seeded per-cluster
shuffle. Identical inputs therefore produce byte-identical fold tables.
"""

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InsufficientDataError

DEFAULT_SEED = 42
DEFAULT_CLUSTERS = 3
DEFAULT_COMPONENTS = 10
DEFAULT_FOLDS = 5
KMEANS_MAX_ITER = 300


def _checked(matrix: np.ndarray) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ConfigError(f"expected a 2-d feature matrix, got shape {matrix.shape}")
    if not np.all(np.isfinite(matrix)):
        raise ConfigError("feature matrix contains non-finite entries")
    return matrix


def standardize(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Center each column and scale to unit population std.

    Returns (standardized, means, stds). Zero-variance columns carry no
    information and come out as all zeros, with a warning.
    """
    matrix = _checked(matrix)
    if matrix.shape[0] < 2:
        raise InsufficientDataError(f"need at least 2 rows, got {matrix.shape[0]}")
    means = matrix.mean(axis=0)
    stds = matrix.std(axis=0)
    flat = stds == 0
    if np.any(flat):
        warnings.warn(
            f"{int(flat.sum())} zero-variance feature column(s) standardized to zero",
            stacklevel=2,
        )
    out = (matrix - means) / np.where(flat, 1.0, stds)
    return out, means, stds


@dataclass(frozen=True)
class PCAModel:
    means: np.ndarray  # (d,)
    components: np.ndarray  # (d, m), orthonormal columns
    explained_variance_ratios: np.ndarray  # (m,), descending


def pca_fit_transform(
    matrix: np.ndarray, components: int = DEFAULT_COMPONENTS
) -> tuple[PCAModel, np.ndarray]:
    """Project onto the top right singular vectors of the centered matrix."""
    matrix = _checked(matrix)
    n, d = matrix.shape
    limit = min(n - 1, d)
    if not 1 <= components <= limit:
        raise ConfigError(
            f"components must be in [1, {limit}] for a {n}x{d} matrix, got {components}"
        )
    means = matrix.mean(axis=0)
    centered = matrix - means
    _, singular, vt = np.linalg.svd(centered, full_matrices=False)
    basis = vt[:components].T  # (d, m)
    # sign convention: largest-magnitude entry of each component positive
    anchor = np.argmax(np.abs(basis), axis=0)
    signs = np.sign(basis[anchor, np.arange(components)])
    signs[signs == 0] = 1.0
    basis = basis * signs
    total = np.sum(singular**2)
    ratios = (singular[:components] ** 2 / total) if total > 0 else np.zeros(components)
    model = PCAModel(means=means, components=basis, explained_variance_ratios=ratios)
    return model, centered @ basis


def kmeans(
    matrix: np.ndarray,
    k: int = DEFAULT_CLUSTERS,
    seed: int = DEFAULT_SEED,
    max_iter: int = KMEANS_MAX_ITER,
) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's algorithm from k-means++ seeding.

    Returns (labels, centroids). Deterministic for a given seed; an empty
    cluster seizes the point currently farthest from its own centroid.
    """
    if k < 1:
        raise ConfigError(f"k must be at least 1, got {k}")
    matrix = _checked(matrix)
    n = matrix.shape[0]
    if n < k:
        raise InsufficientDataError(f"need at least k={k} points, got {n}")
    rng = np.random.default_rng(seed)

    centroids = np.empty((k, matrix.shape[1]), dtype=np.float64)
    centroids[0] = matrix[rng.integers(n)]
    d2 = np.sum((matrix - centroids[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = rng.choice(n, p=d2 / total)
        else:
            idx = rng.integers(n)
        centroids[j] = matrix[idx]
        d2 = np.minimum(d2, np.sum((matrix - centroids[j]) ** 2, axis=1))

    labels = np.full(n, -1, dtype=np.int64)
    for _ in range(max_iter):
        dist = np.sum((matrix[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        new_labels = np.argmin(dist, axis=1)
        own = dist[np.arange(n), new_labels].copy()
        for c in range(k):
            if not np.any(new_labels == c):
                far = int(np.argmax(own))
                new_labels[far] = c
                own[far] = -1.0  # cannot be seized twice
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            centroids[c] = matrix[labels == c].mean(axis=0)
    return labels, centroids


def within_cluster_ss(matrix: np.ndarray, labels: np.ndarray, centroids: np.ndarray) -> float:
    matrix = np.asarray(matrix, dtype=np.float64)
    return float(np.sum((matrix - centroids[labels]) ** 2))


@dataclass(frozen=True)
class FoldAssignment:
    case_ids: tuple[str, ...]
    clusters: np.ndarray  # (n,) int
    folds: np.ndarray  # (n,) int

    def __post_init__(self):
        if not len(self.case_ids) == self.clusters.size == self.folds.size:
            raise ConfigError("fold assignment fields have mismatched lengths")


def stratified_folds(
    case_ids: list[str],
    cluster_labels: np.ndarray,
    n_folds: int = DEFAULT_FOLDS,
    seed: int = DEFAULT_SEED,
) -> FoldAssignment:
    """Deal each cluster's cases round-robin to folds after a seeded shuffle."""
    cluster_labels = np.asarray(cluster_labels, dtype=np.int64)
    n = len(case_ids)
    if cluster_labels.size != n:
        raise ConfigError("case_ids and cluster labels have different lengths")
    if n_folds < 1:
        raise ConfigError(f"n_folds must be at least 1, got {n_folds}")
    if n < n_folds:
        raise InsufficientDataError(f"need at least {n_folds} cases, got {n}")
    rng = np.random.default_rng(seed)
    folds = np.empty(n, dtype=np.int64)
    for c in np.unique(cluster_labels):
        members = np.flatnonzero(cluster_labels == c)
        order = rng.permutation(members)
        folds[order] = np.arange(order.size) % n_folds
    return FoldAssignment(case_ids=tuple(case_ids), clusters=cluster_labels, folds=folds)


def stratify_cases(
    case_ids: list[str],
    matrix: np.ndarray,
    k: int = DEFAULT_CLUSTERS,
    pca_components: int = DEFAULT_COMPONENTS,
    n_folds: int = DEFAULT_FOLDS,
    seed: int = DEFAULT_SEED,
) -> FoldAssignment:
    """Full pipeline: standardize -> PCA -> k-means -> stratified folds."""
    scaled, _, _ = standardize(matrix)
    _, reduced = pca_fit_transform(scaled, components=pca_components)
    labels, _ = kmeans(reduced, k=k, seed=seed)
    return stratified_folds(case_ids, labels, n_folds=n_folds, seed=seed)


def write_folds_csv(path, assignment: FoldAssignment) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("case_id", "cluster", "fold"))
        for cid, c, f in zip(assignment.case_ids, assignment.clusters, assignment.folds):
            writer.writerow((cid, int(c), int(f)))


def read_folds_csv(path) -> FoldAssignment:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != ("case_id", "cluster", "fold"):
            raise ConfigError(f"unexpected folds CSV header in {path}")
        ids, clusters, folds = [], [], []
        for record in reader:
            ids.append(record[0])
            clusters.append(int(record[1]))
            folds.append(int(record[2]))
    return FoldAssignment(
        case_ids=tuple(ids),
        clusters=np.asarray(clusters, dtype=np.int64),
        folds=np.asarray(folds, dtype=np.int64),
    )
