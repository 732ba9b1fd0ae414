"""Seeded synthetic inputs for the benchmark workloads.

Every phantom comes from `gliomaforge.synthetic.make_case`. A workload seed
s uses the cases with seeds s, s+1, ... (the `make_dataset` convention).
Each case is generated once, in its own process, and kept in the cache, so
generation never counts toward a timing or toward a worker's peak RSS, and
neighbouring seeds share most of their cases.

    inputs.py '<item json>'   build one cache item (used by `prepare`)
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The harmonization reference is one fixed phantom, like a site template.
REFERENCE_SEED = 1_000_003
# Generation runs before any timing, so it may use both cores of a 2-core box.
JOBS = 2


def item_key(item):
    shape = "x".join(str(s) for s in item["shape"])
    return f"{item['kind']}-{shape}-{item['seed']}"


def _save_cohort_case(dest, case, seed):
    """A BraTS-like case as .nii.gz, with a simulated scanner gain per
    modality, and a perturbed copy of its mask standing in for a prediction."""
    import numpy as np

    from gliomaforge.nifti import SegmentationMask, Volume, save_case, save_mask

    rng = np.random.default_rng([seed, 7])
    for mod, vol in case.modalities.items():
        gain = rng.uniform(1.25, 1.5) ** rng.choice((-1.0, 1.0))
        case.modalities[mod] = Volume(header=vol.header, data=vol.data * np.float32(gain))
    save_case(dest, case, compress=True)
    # shift the reference by 1-2 voxels per axis so Dice < 1 and HD95 is
    # finite, and add a stray blob in a corner for postprocessing to remove
    shift = rng.integers(1, 3, size=3) * rng.choice((-1, 1), size=3)
    labels = np.roll(case.label.labels, tuple(int(s) for s in shift), axis=(0, 1, 2))
    labels[2:6, 2:6, 2:6] = 1
    (dest / "pred").mkdir()
    prediction = SegmentationMask(labels, case.label.spacing)
    save_mask(dest / "pred" / f"{case.case_id}.nii.gz", prediction)


def build(item, dest):
    from gliomaforge import config as cfgmod
    from gliomaforge.model import GliomaForgeNet
    from gliomaforge.nifti import save_case
    from gliomaforge.synthetic import make_case

    kind, seed, shape = item["kind"], item["seed"], tuple(item["shape"])
    dest.mkdir(parents=True)
    if kind == "checkpoint":
        model_cfg = cfgmod.model_config_from_text(item["model_cfg"]) if item["model_cfg"] else None
        model = GliomaForgeNet(config=model_cfg, seed=seed)
        model.save(dest / "model.ck")
        (dest / "model.ck.cfg").write_text(cfgmod.model_config_to_text(model.config))
        return
    case_id = f"{kind}-{seed:06d}"
    spacing = tuple(item.get("spacing", (1.0, 1.0, 1.0)))
    case = make_case(case_id, shape=shape, seed=seed, spacing=spacing)
    if kind == "cohort":
        _save_cohort_case(dest, case, seed)
    else:
        save_case(dest, case, compress=kind == "reference")


def prepare(targets, env):
    """Build each (item, dir) target whose dir is missing, JOBS processes
    at a time."""
    missing = [(item, d) for item, d in targets if not d.is_dir()]
    running = []
    try:
        while missing or running:
            while missing and len(running) < JOBS:
                item, d = missing.pop(0)
                cmd = [sys.executable, __file__, json.dumps(item), str(d)]
                running.append((subprocess.Popen(cmd, env=env), d))
            proc, d = running.pop(0)
            if proc.wait() != 0:
                raise RuntimeError(f"input generation failed for {d.name}")
    finally:
        for proc, _ in running:
            proc.kill()
            proc.wait()


def main(argv):
    item, dest = json.loads(argv[0]), Path(argv[1])
    sys.path.insert(0, str(ROOT / "src"))
    tmp = dest.with_name(f".tmp{os.getpid()}.{dest.name}")
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        build(item, tmp)
        os.replace(tmp, dest)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
