"""First-order radiomic features over a masked intensity distribution.

The 18-feature set follows the PyRadiomics first-order definitions:
population moments, linear-interpolation percentiles, and histogram
entropy/uniformity over fixed-width bins anchored at floor(min/bw)*bw.
Kurtosis is reported uncorrected (no -3 excess adjustment), and the
skewness/kurtosis of a zero-variance sample are defined as 0.
"""

import csv
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, EmptyForegroundError
from .nifti import MultiModalCase, Volume

DEFAULT_BIN_WIDTH = 25.0


@dataclass(frozen=True)
class FeatureVector:
    """One case's features; the field order after `case_id` is the canonical
    feature order, and the CSV column order."""

    case_id: str
    energy: float
    total_energy: float
    entropy: float
    minimum: float
    p10: float
    p90: float
    maximum: float
    mean: float
    median: float
    interquartile_range: float
    range: float
    mean_absolute_deviation: float
    robust_mean_absolute_deviation: float
    root_mean_squared: float
    skewness: float
    kurtosis: float
    variance: float
    uniformity: float

    def values(self) -> tuple:
        """Feature values in canonical order (case_id excluded)."""
        return tuple(getattr(self, name) for name in FEATURE_NAMES)


FEATURE_NAMES = tuple(f.name for f in fields(FeatureVector)[1:])


def discretize(values: np.ndarray, bin_width: float = DEFAULT_BIN_WIDTH) -> np.ndarray:
    """Histogram probabilities over fixed-width bins.

    Bins are half-open intervals of width ``bin_width`` anchored at
    floor(min/bin_width)*bin_width, so the same intensity always lands in
    the same absolute bin regardless of the sample's minimum.
    """
    if bin_width <= 0:
        raise ConfigError(f"bin_width must be positive, got {bin_width}")
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size == 0:
        raise EmptyForegroundError("cannot discretize an empty sample")
    if not np.all(np.isfinite(values)):
        raise ValueError("non-finite values in sample")
    idx = np.floor(values / bin_width).astype(np.int64)
    counts = np.bincount(idx - idx.min())
    return counts / values.size


def first_order_features(
    volume: Volume,
    mask: np.ndarray | None = None,
    bin_width: float = DEFAULT_BIN_WIDTH,
    case_id: str = "",
) -> FeatureVector:
    """Compute the 18 first-order features over the masked voxels.

    mask defaults to the nonzero voxels of the volume.
    """
    if mask is None:
        mask = volume.data != 0
    x = np.asarray(volume.data[mask], dtype=np.float64).ravel()
    if x.size == 0:
        raise EmptyForegroundError("mask selects no voxels")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite intensities under mask")

    mean = float(x.mean())
    variance = float(x.var())  # population
    energy = float(np.sum(x * x))
    p10, p25, p50, p75, p90 = (float(p) for p in np.percentile(x, [10, 25, 50, 75, 90]))
    minimum = float(x.min())
    maximum = float(x.max())

    # Robust MAD: deviation from the mean of the [p10, p90] sub-sample.
    robust = x[(x >= p10) & (x <= p90)]
    rmad = float(np.abs(robust - robust.mean()).mean()) if robust.size else 0.0

    if variance > 0:
        centered = x - mean
        squared = centered * centered  # products; np.power calls libm pow per voxel
        sigma = np.sqrt(variance)
        skewness = float(np.mean(squared * centered) / sigma**3)
        kurtosis = float(np.mean(squared * squared) / sigma**4)
    else:
        skewness = 0.0
        kurtosis = 0.0

    probs = discretize(x, bin_width)
    nonzero = probs[probs > 0]
    entropy = float(-np.sum(nonzero * np.log2(nonzero)))
    uniformity = float(np.sum(nonzero * nonzero))

    return FeatureVector(
        case_id=case_id,
        energy=energy,
        total_energy=energy * volume.header.voxel_volume,
        entropy=entropy,
        minimum=minimum,
        p10=p10,
        p90=p90,
        maximum=maximum,
        mean=mean,
        median=p50,
        interquartile_range=p75 - p25,
        range=maximum - minimum,
        mean_absolute_deviation=float(np.abs(x - mean).mean()),
        robust_mean_absolute_deviation=rmad,
        root_mean_squared=float(np.sqrt(energy / x.size)),
        skewness=skewness,
        kurtosis=kurtosis,
        variance=variance,
        uniformity=uniformity,
    )


def extract_case_features(
    case: MultiModalCase,
    modality: str = "flair",
    bin_width: float = DEFAULT_BIN_WIDTH,
) -> FeatureVector:
    """Features of one case, over the nonzero voxels of one modality."""
    if modality not in case.modalities:
        raise ConfigError(f"case {case.case_id} has no modality {modality!r}")
    return first_order_features(
        case.modalities[modality], bin_width=bin_width, case_id=case.case_id
    )


def write_features_csv(path, rows: list[FeatureVector]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("case_id",) + FEATURE_NAMES)
        for row in rows:
            writer.writerow((row.case_id,) + tuple(repr(v) for v in row.values()))


def read_features_csv(path) -> tuple[list[str], np.ndarray]:
    """Read a features table back as (case_ids, n x 18 float matrix)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != ("case_id",) + FEATURE_NAMES:
            raise ConfigError(f"unexpected feature CSV header in {path}")
        case_ids, rows = [], []
        for record in reader:
            case_ids.append(record[0])
            rows.append([float(v) for v in record[1:]])
    matrix = np.asarray(rows, dtype=np.float64)
    if matrix.size and not np.all(np.isfinite(matrix)):
        raise ConfigError(f"non-finite feature values in {path}")
    return case_ids, matrix
