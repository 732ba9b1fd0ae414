"""Cross-scanner intensity harmonization and per-modality z-scoring.

Harmonization transfers a source volume's foreground intensity distribution
onto a reference distribution through the monotone map built by composing the
source CDF with the inverse reference CDF. Foreground means strictly nonzero
voxels: the inputs are skull-stripped, so exact zeros are air and must neither
enter the statistics nor be modified.

Quantiles follow the midpoint plotting-position convention: the i-th sorted
sample value sits at level (i + 0.5) / n, and the empirical CDF assigns value
x the midrank (#less + 0.5 * #equal) / n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateInputError, EmptyForegroundError
from .nifti import Volume


@dataclass(frozen=True)
class EmpiricalCDF:
    """Sorted foreground sample defining an empirical distribution."""

    values: np.ndarray  # sorted, float64

    def __post_init__(self):
        if self.values.size < 1:
            raise EmptyForegroundError("empirical CDF needs at least one sample")

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "EmpiricalCDF":
        return cls(values=np.sort(np.asarray(samples, dtype=np.float64).ravel()))

    @property
    def n(self) -> int:
        return self.values.size

    def evaluate(self, x) -> np.ndarray:
        """Midrank CDF level of x: (#less + 0.5 * #equal) / n."""
        x = np.asarray(x, dtype=np.float64)
        left = np.searchsorted(self.values, x, side="left")
        right = np.searchsorted(self.values, x, side="right")
        return (left + 0.5 * (right - left)) / self.n

    def quantile(self, level) -> np.ndarray:
        """Inverse CDF via linear interpolation of the plotting positions.

        Levels below (0.5 / n) or above (1 - 0.5 / n) clamp to min/max.
        """
        positions = (np.arange(self.n) + 0.5) / self.n
        return np.interp(np.asarray(level, dtype=np.float64), positions, self.values)


def build_cdf(values: np.ndarray, mask: np.ndarray | None = None) -> EmpiricalCDF:
    """Empirical CDF over masked voxels; mask defaults to nonzero voxels."""
    values = np.asarray(values, dtype=np.float64)
    if mask is None:
        mask = values != 0
    mask = np.asarray(mask, dtype=bool)
    selected = values[mask]
    if selected.size == 0:
        raise EmptyForegroundError("mask selects no voxels")
    return EmpiricalCDF.from_samples(selected)


@dataclass(frozen=True)
class HarmonizationMapping:
    """Monotone piecewise-linear intensity transfer function.

    Knot inputs are source intensities (strictly increasing); knot outputs are
    the matched reference intensities (non-decreasing). Values outside the
    knot range are clamped to the extreme outputs (flat extrapolation).
    """

    source_knots: np.ndarray
    reference_knots: np.ndarray

    def __post_init__(self):
        if self.source_knots.size != self.reference_knots.size:
            raise ConfigError("knot arrays must have equal length")
        if np.any(np.diff(self.source_knots) <= 0):
            raise ConfigError("source knots must be strictly increasing")
        if np.any(np.diff(self.reference_knots) < 0):
            raise ConfigError("reference knots must be non-decreasing")

    @classmethod
    def fit(
        cls,
        source_samples: np.ndarray,
        reference: EmpiricalCDF,
        quantiles: int = 256,
    ) -> "HarmonizationMapping":
        """Match ~``quantiles`` source order statistics to reference quantiles.

        Each selected source value v becomes a knot mapping to the reference
        quantile at v's own midrank level, so rank structure is preserved and
        re-matching an already-matched sample reproduces it exactly.
        """
        if quantiles < 2:
            raise ConfigError(f"need at least 2 quantiles, got {quantiles}")
        src = np.sort(np.asarray(source_samples, dtype=np.float64).ravel())
        if src.size == 0:
            raise EmptyForegroundError("source has no foreground voxels")
        source_cdf = EmpiricalCDF(values=src)
        idx = np.round(np.linspace(0, src.size - 1, num=quantiles)).astype(np.int64)
        knots = np.unique(src[idx])
        levels = source_cdf.evaluate(knots)
        return cls(source_knots=knots, reference_knots=reference.quantile(levels))

    def apply(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if self.source_knots.size == 1:
            return np.full_like(x, self.reference_knots[0])
        return np.interp(x, self.source_knots, self.reference_knots)


def match_histogram(source: Volume, ref_cdf: EmpiricalCDF, quantiles: int = 256) -> Volume:
    """Map foreground voxels of ``source`` onto the reference distribution.

    Background (exactly-zero) voxels are left untouched. The result is
    monotone in the input: x1 <= x2 implies M(x1) <= M(x2).
    """
    fg = source.data != 0
    if not fg.any():
        raise EmptyForegroundError("source volume has no nonzero voxels")
    values = source.data[fg]
    mapping = HarmonizationMapping.fit(values, ref_cdf, quantiles=quantiles)
    out = source.data.copy()
    # the float64 mapped values round to float32 once, on assignment
    out[fg] = mapping.apply(values)
    return Volume(header=source.header, data=out)


def zscore_normalize(volume: Volume, mask: np.ndarray | None = None) -> Volume:
    """Zero-mean unit-variance normalization over masked voxels.

    Mask defaults to nonzero voxels; background is set to exactly 0. Uses the
    population standard deviation. A constant foreground cannot be normalized.
    """
    data = volume.data.astype(np.float64)
    if mask is None:
        mask = data != 0
    mask = np.asarray(mask, dtype=bool)
    selected = data[mask]
    if selected.size == 0:
        raise EmptyForegroundError("mask selects no voxels")
    std = selected.std()
    if std == 0 or selected.size < 2:
        raise DegenerateInputError("constant foreground has no intensity scale")
    out = np.zeros_like(data)
    out[mask] = (selected - selected.mean()) / std
    return Volume(header=volume.header, data=out.astype(np.float32))


def ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic: sup |F_a - F_b|."""
    a = np.sort(np.asarray(a, dtype=np.float64).ravel())
    b = np.sort(np.asarray(b, dtype=np.float64).ravel())
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.abs(fa - fb).max())
