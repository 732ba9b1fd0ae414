"""Connected-component postprocessing and BraTS-style evaluation.

Metrics are computed on the three composite regions: whole tumor
(labels 1+2+3), tumor core (1+3) and enhancing tumor (3). Empty-mask
conventions follow common BraTS tooling: Dice of two empty masks is 1.0,
HD95 of two empty masks is 0.0, and HD95 with exactly one empty mask is
the sentinel `HD95_SENTINEL` (373.13). The evaluation CSV flags these
conventions in a comment header so they are never silently defaulted.
"""

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import PairingError, ShapeError
from .nifti import SegmentationMask, _find_file, list_mask_ids, load_mask

REGIONS = {
    "WT": (1, 2, 3),  # whole tumor
    "TC": (1, 3),  # tumor core
    "ET": (3,),  # enhancing tumor
}
REGION_NAMES = tuple(REGIONS)

# The same regions by integer arithmetic on uint8 labels, equal to np.isin
# with REGIONS on all 256 values: 0 - 1 wraps to 255, and l | 2 == 3 holds
# only for 1 and 3.
_UINT8_REGIONS = {
    "WT": lambda labels: (labels - np.uint8(1)) < 3,
    "TC": lambda labels: (labels | np.uint8(2)) == 3,
    "ET": lambda labels: labels == 3,
}

HD95_SENTINEL = 373.13


def _as_labels(mask) -> np.ndarray:
    if isinstance(mask, SegmentationMask):
        return mask.labels
    return np.asarray(mask)


def _region_mask(labels: np.ndarray, region: str) -> np.ndarray:
    if labels.dtype == np.uint8:
        return _UINT8_REGIONS[region](labels)
    return np.isin(labels, REGIONS[region])


def _region_masks(pred, gt, region: str) -> tuple[np.ndarray, np.ndarray]:
    """Prediction and reference binarized to `region`, of one shape."""
    if region not in REGIONS:
        raise KeyError(f"unknown region {region!r}; expected one of {REGION_NAMES}")
    p = _region_mask(_as_labels(pred), region)
    g = _region_mask(_as_labels(gt), region)
    if p.shape != g.shape:
        raise ShapeError(f"prediction {p.shape} vs ground truth {g.shape}")
    return p, g


def _bbox(mask: np.ndarray) -> tuple[slice, ...] | None:
    """Tight bounding-box slices of a boolean mask; None when it is empty."""
    box = []
    for axis in range(mask.ndim):
        others = tuple(a for a in range(mask.ndim) if a != axis)
        hits = np.flatnonzero(mask.any(axis=others))
        if hits.size == 0:
            return None
        box.append(slice(int(hits[0]), int(hits[-1]) + 1))
    return tuple(box)


# -- connected components --------------------------------------------------


def connected_components(mask, connectivity: int = 26) -> tuple[np.ndarray, int]:
    """Label maximal connected sets 1..K in first-seen scan order."""
    from scipy.ndimage import generate_binary_structure, label

    mask = np.asarray(_as_labels(mask)) != 0
    if connectivity == 26:
        structure = generate_binary_structure(3, 3)
    elif connectivity == 6:
        structure = generate_binary_structure(3, 1)
    else:
        raise ValueError(f"connectivity must be 6 or 26, got {connectivity}")
    # scipy numbers components in the scan order of their first voxel
    return label(mask, structure=structure)


def keep_largest_per_class(seg: SegmentationMask) -> SegmentationMask:
    """Erase all but the largest 26-connected component of each class.

    Size ties keep the component whose first voxel appears earliest in scan
    order, which is the lowest component label by construction. Labelling
    runs on each class's bounding box only: scan order survives the
    translation, so numbering and the tie-break are those of the full grid.
    """
    labels = seg.labels.copy()
    for cls in (1, 2, 3):
        mask = labels == cls
        box = _bbox(mask)
        if box is None:
            continue
        comp, count = connected_components(mask[box])
        if count <= 1:
            continue
        sizes = np.bincount(comp.ravel())[1:]
        winner = int(np.argmax(sizes)) + 1  # argmax keeps the first max: earliest seed
        labels[box][(comp != 0) & (comp != winner)] = 0
    return SegmentationMask(labels=labels, spacing=seg.spacing)


# -- overlap and distance metrics ------------------------------------------


def dice(pred, gt, region: str) -> float:
    """2|P n G| / (|P| + |G|) on the binarized region; both empty -> 1.0."""
    p, g = _region_masks(pred, gt, region)
    denom = int(np.count_nonzero(p)) + int(np.count_nonzero(g))
    if denom == 0:
        return 1.0
    return 2.0 * int(np.count_nonzero(p & g)) / denom


def _boundary(mask: np.ndarray) -> np.ndarray:
    """Voxels of the mask with at least one face neighbor outside it.

    The volume border counts as outside, so a mask touching the edge still
    has a boundary there.
    """
    from scipy.ndimage import binary_erosion, generate_binary_structure

    interior = binary_erosion(
        mask, structure=generate_binary_structure(3, 1), border_value=0
    )
    return mask & ~interior


def hd95(pred, gt, region: str, spacing=(1.0, 1.0, 1.0)) -> float:
    """95th percentile of the union of both directed surface distance sets.

    Distances are Euclidean in millimetres via `spacing`. Both masks empty
    -> 0.0; exactly one empty -> `HD95_SENTINEL` (BraTS convention).
    """
    from scipy.ndimage import distance_transform_edt

    p, g = _region_masks(pred, gt, region)
    p_any, g_any = bool(p.any()), bool(g.any())
    if not p_any and not g_any:
        return 0.0
    if p_any != g_any:
        return HD95_SENTINEL
    # Every boundary voxel of both masks, and so every nearest pair, lies in
    # the box of their union; outside it both masks are empty, so the
    # erosion's border rule at the box faces matches the full grid's.
    box = _bbox(p | g)
    p, g = p[box], g[box]
    bp = _boundary(p)
    bg = _boundary(g)
    spacing = tuple(float(s) for s in spacing)
    dist_to_g = distance_transform_edt(~bg, sampling=spacing)
    dist_to_p = distance_transform_edt(~bp, sampling=spacing)
    union = np.concatenate([dist_to_g[bp], dist_to_p[bg]])
    return float(np.percentile(union, 95))


def sensitivity_specificity(pred, gt, region: str) -> tuple[float, float]:
    """Voxelwise TP/(TP+FN) and TN/(TN+FP) on the binarized region.

    An empty denominator scores 1.0 when the prediction agrees (no false
    voxels of the relevant kind) and 0.0 otherwise.
    """
    p, g = _region_masks(pred, gt, region)
    tp = int(np.count_nonzero(p & g))
    n_pred, n_gt = int(np.count_nonzero(p)), int(np.count_nonzero(g))
    fp, fn = n_pred - tp, n_gt - tp
    tn = p.size - n_pred - fn
    sensitivity = tp / (tp + fn) if tp + fn else (1.0 if fp == 0 else 0.0)
    specificity = tn / (tn + fp) if tn + fp else (1.0 if fn == 0 else 0.0)
    return float(sensitivity), float(specificity)


# -- cohort evaluation -----------------------------------------------------


@dataclass(frozen=True)
class RegionMetrics:
    dice: float
    hd95: float
    sensitivity: float
    specificity: float


@dataclass(frozen=True)
class CaseMetrics:
    case_id: str
    regions: dict[str, RegionMetrics]


def evaluate_case(
    pred: SegmentationMask,
    gt: SegmentationMask,
    case_id: str = "",
    postprocess: bool = True,
) -> CaseMetrics:
    """All metrics for one prediction/reference pair.

    `postprocess` applies largest-component filtering to the prediction
    first, matching the inference pipeline.
    """
    if postprocess:
        pred = keep_largest_per_class(pred)
    spacing = gt.spacing
    regions = {}
    for name in REGION_NAMES:
        sens, spec = sensitivity_specificity(pred, gt, name)
        regions[name] = RegionMetrics(
            dice=dice(pred, gt, name),
            hd95=hd95(pred, gt, name, spacing=spacing),
            sensitivity=sens,
            specificity=spec,
        )
    return CaseMetrics(case_id=case_id, regions=regions)


_METRIC_FIELDS = ("dice", "hd95", "sensitivity", "specificity")


def summarize(results: list[CaseMetrics]) -> dict[str, dict[str, tuple[float, float]]]:
    """Per-region mean and population std of each metric over the cohort."""
    summary = {}
    for name in REGION_NAMES:
        summary[name] = {}
        for metric in _METRIC_FIELDS:
            values = np.array([getattr(r.regions[name], metric) for r in results])
            summary[name][metric] = (float(values.mean()), float(values.std()))
    return summary


def mask_pairs(pred_dir, gt_dir) -> list[tuple[str, Path, Path]]:
    """(case id, prediction path, reference path) for every reference case,
    in case order; a reference case without a prediction raises.

    Either directory may hold ``<id>-seg`` or bare ``<id>`` masks.
    """
    pred_dir, gt_dir = Path(pred_dir), Path(gt_dir)
    pairs = []
    for case_id in list_mask_ids(gt_dir):
        pred_path = _find_file(pred_dir, case_id, f"{case_id}-seg")
        if pred_path is None:
            raise PairingError(f"no prediction found for case {case_id!r} in {pred_dir}")
        pairs.append((case_id, pred_path, _find_file(gt_dir, case_id, f"{case_id}-seg")))
    return pairs


def evaluate_pair(pair, postprocess: bool = True) -> CaseMetrics:
    """`evaluate_case` on one `mask_pairs` entry, read from disk."""
    case_id, pred_path, gt_path = pair
    return evaluate_case(
        load_mask(pred_path), load_mask(gt_path), case_id=case_id, postprocess=postprocess
    )


def evaluate(pred_dir, gt_dir, postprocess: bool = True) -> tuple[list[CaseMetrics], dict]:
    """Evaluate every reference case against its matched prediction file."""
    results = [evaluate_pair(pair, postprocess) for pair in mask_pairs(pred_dir, gt_dir)]
    return results, summarize(results)


METRICS_HEADER = ("case_id", "region", "dice", "hd95", "sensitivity", "specificity")


def write_metrics_csv(path, results: list[CaseMetrics], summary: dict | None = None) -> None:
    """Per-case rows plus mean/std rows, with the conventions flagged up top."""
    if summary is None:
        summary = summarize(results)
    with open(path, "w", newline="") as fh:
        fh.write(
            "# conventions: dice=1.0 and hd95=0.0 when both masks empty; "
            f"hd95 sentinel={HD95_SENTINEL} when exactly one mask is empty\n"
        )
        writer = csv.writer(fh)
        writer.writerow(METRICS_HEADER)
        for result in results:
            for name in REGION_NAMES:
                r = result.regions[name]
                writer.writerow(
                    (result.case_id, name, repr(r.dice), repr(r.hd95),
                     repr(r.sensitivity), repr(r.specificity))
                )
        for stat, idx in (("mean", 0), ("std", 1)):
            for name in REGION_NAMES:
                writer.writerow(
                    (stat, name)
                    + tuple(repr(summary[name][m][idx]) for m in _METRIC_FIELDS)
                )


def read_metrics_csv(path) -> list[dict]:
    """Rows of the metrics CSV as dicts; comment lines are skipped."""
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    reader = csv.DictReader(lines)
    rows = []
    for row in reader:
        for key in _METRIC_FIELDS:
            row[key] = float(row[key])
        rows.append(row)
    return rows
