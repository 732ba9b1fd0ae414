"""Glioma segmentation toolkit: NIfTI I/O, intensity harmonization,
first-order radiomics, clustered fold assignment, a from-scratch autodiff
engine, a hierarchical 3D transformer, training, and BraTS-style metrics.

Everything runs on numpy/scipy; no deep-learning framework is required.

The names below load on first use: `import gliomaforge` imports none of its
submodules, and `gliomaforge.fit` (or `from gliomaforge import fit`) imports
only the submodule that defines it, `gliomaforge.train`. So a process that
only builds a model and loads a checkpoint never imports the harmonization,
metrics or training code.
"""

import importlib

__version__ = "0.1.0"

# The public names, by the submodule that defines each.
_SUBMODULES = {
    "errors": (
        "AlignmentError",
        "CheckpointError",
        "ConfigError",
        "DegenerateInputError",
        "EmptyForegroundError",
        "GliomaForgeError",
        "GraphReleasedError",
        "HeaderError",
        "InsufficientDataError",
        "LabelError",
        "PairingError",
        "ShapeError",
        "TrainingDivergedError",
        "TruncatedDataError",
        "UnsupportedDataTypeError",
    ),
    "harmonize": (
        "EmpiricalCDF",
        "HarmonizationMapping",
        "build_cdf",
        "ks_statistic",
        "match_histogram",
        "zscore_normalize",
    ),
    "metrics": (
        "HD95_SENTINEL",
        "REGIONS",
        "CaseMetrics",
        "RegionMetrics",
        "connected_components",
        "dice",
        "evaluate",
        "evaluate_case",
        "hd95",
        "keep_largest_per_class",
        "sensitivity_specificity",
        "summarize",
        "write_metrics_csv",
    ),
    "model": ("GliomaForgeNet", "ModelConfig"),
    "nifti": (
        "MODALITIES",
        "VALID_LABELS",
        "MultiModalCase",
        "SegmentationMask",
        "Volume",
        "VolumeHeader",
        "load_case",
        "load_mask",
        "load_volume",
        "save_case",
        "save_mask",
        "save_volume",
    ),
    "radiomics": (
        "FEATURE_NAMES",
        "FeatureVector",
        "extract_case_features",
        "first_order_features",
        "read_features_csv",
        "write_features_csv",
    ),
    "stratify": (
        "FoldAssignment",
        "PCAModel",
        "kmeans",
        "pca_fit_transform",
        "read_folds_csv",
        "standardize",
        "stratified_folds",
        "stratify_cases",
        "within_cluster_ss",
        "write_folds_csv",
    ),
    "synthetic": ("make_case", "make_dataset"),
    "train": (
        "AdamW",
        "FitResult",
        "TrainConfig",
        "TrainingCase",
        "apply_augmentation",
        "composite_loss",
        "cosine_lr",
        "cross_entropy",
        "dice_loss",
        "fit",
        "mean_foreground_dice",
        "predict_labels",
        "random_crop",
        "sample_augmentation",
        "training_case",
    ),
}

# name -> the submodule that defines it
_EXPORTS = {name: module for module, names in _SUBMODULES.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    """Import a public name's submodule on first use, and keep the name."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
