"""Output checks and digests for the benchmark's CLI calls.

Each check function returns the list of checks that failed (empty when the
output is correct) and a record of what it saw. A call with any failed check
counts as a failed operation.
"""

import csv
import hashlib
import math
from pathlib import Path

import numpy as np

from gliomaforge import config as cfgmod
from gliomaforge.autodiff import load_checkpoint
from gliomaforge.harmonize import ks_statistic
from gliomaforge.metrics import read_metrics_csv
from gliomaforge.model import GliomaForgeNet
from gliomaforge.nifti import MODALITIES, load_mask, load_volume
from gliomaforge.radiomics import FEATURE_NAMES, read_features_csv
from gliomaforge.stratify import read_folds_csv

# Every KS_STRIDE-th foreground voxel enters the KS comparison; a BraTS-size
# foreground holds millions of voxels, which would make the check slower
# than the call it checks.
KS_STRIDE = 16


def sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def digests(directory):
    directory = Path(directory)
    files = sorted(p for p in directory.rglob("*") if p.is_file())
    return {str(p.relative_to(directory)): sha256(p) for p in files}


def parameter_shapes(cfg_path):
    """Names and shapes of a freshly built model of the config at cfg_path."""
    model_cfg = cfgmod.model_config_from_text(Path(cfg_path).read_text())
    params = GliomaForgeNet(config=model_cfg).named_parameters()
    return [(name, p.shape) for name, p in params.items()]


def check_pretrain(ckpt, epochs, expected_shapes):
    failures = []
    with open(str(ckpt) + ".log.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    losses = [float(row["train_loss"]) for row in rows]
    if len(rows) != epochs:
        failures.append(f"log has {len(rows)} rows for {epochs} epochs")
    if not all(math.isfinite(v) for v in losses):
        failures.append("non-finite train_loss")
    arrays = load_checkpoint(ckpt)
    if [(name, a.shape) for name, a in arrays.items()] != expected_shapes:
        failures.append("checkpoint names or shapes differ from the model")
    return failures, {"train_loss": losses}


def check_predict(mask_path, t1_path):
    failures = []
    mask = load_mask(mask_path, remap_label_4=False)
    image = load_volume(t1_path)
    labels = np.unique(mask.labels).tolist()
    if not set(labels) <= {0, 1, 2, 3}:
        failures.append("labels outside {0,1,2,3}")
    if mask.dims != image.dims or tuple(mask.spacing) != tuple(image.spacing):
        failures.append("mask dims or spacing differ from the input")
    return failures, {"labels": labels}


def foreground_sample(data):
    return data[data != 0][::KS_STRIDE]


def reference_samples(ref_dir, ref_id):
    return {
        mod: foreground_sample(load_volume(Path(ref_dir) / f"{ref_id}-{mod}.nii.gz").data)
        for mod in MODALITIES
    }


def check_harmonize(raw_dir, out_dir, case_ids, reference):
    failures, ks = [], {}
    for case_id in case_ids:
        for mod in MODALITIES:
            raw = load_volume(Path(raw_dir) / f"{case_id}-{mod}.nii.gz").data
            out = load_volume(Path(out_dir) / f"{case_id}-{mod}.nii").data
            before = ks_statistic(foreground_sample(raw), reference[mod])
            after = ks_statistic(foreground_sample(out), reference[mod])
            ks[f"{case_id}-{mod}"] = [before, after]
            if not after < before:
                failures.append(f"{case_id}-{mod}: KS {after:.4f} not below raw {before:.4f}")
            if np.any(out[raw == 0] != 0):
                failures.append(f"{case_id}-{mod}: background changed")
    return failures, {"ks_raw_harmonized": ks}


def check_features(csv_path, case_ids):
    ids, matrix = read_features_csv(csv_path)
    failures = []
    if sorted(ids) != sorted(case_ids):
        failures.append("feature rows do not match the cases")
    if matrix.shape != (len(case_ids), len(FEATURE_NAMES)) or not np.all(np.isfinite(matrix)):
        failures.append(f"features are not {len(FEATURE_NAMES)} finite columns per case")
    return failures, {}


def check_stratify(csv_path, case_ids):
    folds = read_folds_csv(csv_path)
    ok = sorted(folds.case_ids) == sorted(case_ids)
    return ([] if ok else ["folds do not cover every case"]), {"folds": folds.folds.tolist()}


def check_evaluate(csv_path, case_ids):
    rows = [row for row in read_metrics_csv(csv_path) if row["case_id"] in case_ids]
    failures = []
    if len(rows) != 3 * len(case_ids):
        failures.append("metrics rows missing")
    if not all(0.0 <= row["dice"] <= 1.0 for row in rows):
        failures.append("dice outside [0, 1]")
    return failures, {"dice": [row["dice"] for row in rows]}
