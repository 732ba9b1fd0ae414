"""Seeded synthetic multi-modal cases for demos, self-tests and training
smoke tests.

Each phantom is an ellipsoidal "brain" of smoothly varying intensity with a
nested spherical tumor: edema (label 2) containing an enhancing shell
(label 3) around a necrotic core (label 1). Modality contrasts follow the
usual clinical pattern (FLAIR bright in edema, T1CE bright at the enhancing
rim, T1 dark in the core) so a segmentation model has real signal to learn.
Background voxels are exactly zero, matching the nonzero-foreground
convention used by harmonization.
"""

import numpy as np

from .nifti import MODALITIES, MultiModalCase, SegmentationMask, Volume

# Baseline mean intensity per modality, in arbitrary scanner-like units.
_BASE_LEVEL = {"t1": 600.0, "t1ce": 650.0, "t2": 900.0, "flair": 750.0}

# Multiplicative contrast applied inside each tumor compartment.
_CONTRAST = {
    "t1": {1: 0.55, 2: 0.9, 3: 0.8},
    "t1ce": {1: 0.7, 2: 1.05, 3: 1.7},
    "t2": {1: 1.25, 2: 1.35, 3: 1.2},
    "flair": {1: 1.2, 2: 1.6, 3: 1.3},
}


def _coordinate_grid(shape):
    return np.meshgrid(*(np.arange(s, dtype=np.float64) for s in shape), indexing="ij")


def _ellipsoid(shape, center, radii) -> np.ndarray:
    grids = _coordinate_grid(shape)
    q = sum(((g - c) / r) ** 2 for g, c, r in zip(grids, center, radii))
    return q <= 1.0


def make_case(
    case_id: str,
    shape=(64, 64, 64),
    seed: int = 0,
    spacing=(1.0, 1.0, 1.0),
    with_tumor: bool = True,
) -> MultiModalCase:
    """Build one deterministic phantom case with all four modalities."""
    from scipy.ndimage import gaussian_filter

    rng = np.random.default_rng(seed)
    shape = tuple(int(s) for s in shape)
    center = np.asarray(shape) / 2.0 + rng.uniform(-1.5, 1.5, size=3)
    radii = np.asarray(shape) * rng.uniform(0.38, 0.45, size=3)
    brain = _ellipsoid(shape, center, radii)

    label = np.zeros(shape, dtype=np.uint8)
    if with_tumor:
        # Tumor center stays well inside the brain so every compartment exists.
        offset = rng.uniform(-0.2, 0.2, size=3) * radii
        t_center = center + offset
        r_edema = rng.uniform(0.18, 0.26) * min(shape)
        label[_ellipsoid(shape, t_center, [r_edema] * 3) & brain] = 2
        label[_ellipsoid(shape, t_center, [0.62 * r_edema] * 3) & brain] = 3
        label[_ellipsoid(shape, t_center, [0.32 * r_edema] * 3) & brain] = 1

    modalities = {}
    for mod in MODALITIES:
        base = _BASE_LEVEL[mod]
        gain = gaussian_filter(rng.standard_normal(shape), sigma=min(shape) / 8.0)
        span = np.max(np.abs(gain)) or 1.0
        data = base * (1.0 + 0.12 * gain / span)
        for cls, factor in _CONTRAST[mod].items():
            data = np.where(label == cls, base * factor, data)
        data += rng.normal(0.0, 0.02 * base, size=shape)
        data[~brain] = 0.0
        # intensities stay strictly positive inside the head mask
        data[brain] = np.maximum(data[brain], 1.0)
        modalities[mod] = Volume.from_array(data.astype(np.float32), spacing=spacing)

    mask = SegmentationMask(labels=label, spacing=tuple(float(s) for s in spacing))
    return MultiModalCase(case_id=case_id, modalities=modalities, label=mask)


def make_dataset(
    count: int, shape=(64, 64, 64), seed: int = 0, prefix: str = "synth"
) -> list[MultiModalCase]:
    """A list of phantoms with per-case seeds derived from one master seed."""
    width = max(3, len(str(max(count - 1, 0))))
    return [
        make_case(f"{prefix}-{i:0{width}d}", shape=shape, seed=seed + i)
        for i in range(count)
    ]
