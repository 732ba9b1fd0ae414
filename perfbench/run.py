"""The gliomaforge benchmark: `train`, `infer` and `cohort` workloads.

    python3 perfbench/run.py --workload train --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Run from the root of a source tree; the program is imported from `src/`.
Each workload drives the `gliomaforge` CLI in process, one subcommand per
fresh worker process, on seeded synthetic phantoms generated beforehand
(see inputs.py). A round is one pass of the workload's CLI sequence; rounds
repeat until `--seconds` have passed. With `--trace 0` the last line of
stdout holds the end-to-end metrics; with `--trace 1` rounds alternate
untraced and traced and it holds the per-layer metrics. `--workload all`
runs every workload both ways and prints one table. See README.md.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"

WORKLOADS = ("train", "infer", "cohort")
SETUP_REPEATS = 3
CALL_TIMEOUT_S = 150

# The tiny model keeps the smoke test fast; the benchmark proper uses the
# default 12.0M-parameter model.
TINY_MODEL = """model.stage_channels = 8,16,32,64
model.stage_heads = 1,1,2,2
model.stage_depths = 1,1,1,1
model.decoder_channels = 8
model.ffn_expansion = 2
"""

SIZES = {
    "full": {
        "train": {"cases": 5, "shape": (64, 64, 64), "crop": 32, "batch": 2, "epochs": 2},
        "infer": {"shape": (128, 128, 96), "spacing": (1.0, 1.0, 1.5)},
        "cohort": {"cases": 2, "shape": (240, 240, 155)},
        "model_cfg": "",
    },
    "tiny": {
        "train": {"cases": 3, "shape": (32, 32, 32), "crop": 32, "batch": 2, "epochs": 2},
        "infer": {"shape": (32, 32, 32), "spacing": (1.0, 1.0, 1.5)},
        "cohort": {"cases": 2, "shape": (40, 40, 32)},
        "model_cfg": TINY_MODEL,
    },
}

END_TO_END = {"setup_s": "s", "voxels_per_s": "voxel/s", "peak_rss_mb": "MiB"}

_CONV = {
    f"conv.{kind}.{m}": unit
    for kind in ("depthwise", "dense", "pointwise", "transpose")
    for m, unit in (("fwd_s", "s"), ("bwd_s", "s"), ("calls", "count"), ("gflop", "GFLOP"),
                    ("col_mb", "MiB"))
}
PER_LAYER = {
    **_CONV,
    "tensor.matmul.fwd_s": "s", "tensor.matmul.bwd_s": "s", "tensor.matmul.gflop": "GFLOP",
    "tensor.softmax.fwd_s": "s", "tensor.softmax.bwd_s": "s",
    "tensor.layer_norm.fwd_s": "s", "tensor.layer_norm.bwd_s": "s",
    "tensor.other.fwd_s": "s", "tensor.other.bwd_s": "s",
    "tensor.backward_s": "s", "tensor.graph_nodes": "count",
    **{f"model.{block}_s": "s"
       for block in ("stem", "stage1", "stage2", "stage3", "stage4", "dual", "decoder")},
    "train.step_s_p50": "s", "train.step_s_p90": "s", "train.steps": "count",
    **{f"train.{part}_s": "s"
       for part in ("forward", "loss", "adamw", "crop", "augment", "validate")},
    "checkpoint.save_s": "s", "checkpoint.load_s": "s", "checkpoint.mb": "MiB",
    **{f"nifti.{suffix}.{op}_{m}": unit
       for suffix in ("nii", "nii_gz") for op in ("read", "write")
       for m, unit in (("s", "s"), ("mb", "MiB"))},
    "harmonize.build_cdf_s": "s", "harmonize.match_histogram_s": "s", "harmonize.zscore_s": "s",
    "radiomics.features_s": "s",
    "stratify.stratify_s": "s",
    **{f"metrics.{part}_s": "s" for part in ("postprocess", "dice", "hd95", "sens_spec")},
    **{f"cli.{sub}_s": "s"
       for sub in ("pretrain", "predict", "harmonize", "features", "stratify", "evaluate")},
    "mem.forward_peak_mb": "MiB", "mem.backward_peak_mb": "MiB", "mem.predict_peak_mb": "MiB",
    "harmonize_voxels_per_s": "voxel/s", "features_voxels_per_s": "voxel/s",
    "evaluate_voxels_per_s": "voxel/s",
    "trace.voxels_per_s": "voxel/s", "trace.overhead_voxels_per_s": "voxel/s",
}
# Largest single value over the run rather than a per-round sum.
PER_LAYER_MAX = {name for name in PER_LAYER if name.endswith("col_mb")} | {
    "checkpoint.mb", "mem.forward_peak_mb", "mem.backward_peak_mb", "mem.predict_peak_mb"
}
# Derived from array shapes and file sizes: these repeat exactly run to run.
COMPUTED = {
    name for name in PER_LAYER
    if name.endswith(("gflop", "col_mb", ".calls", "_mb")) and not name.startswith("mem.")
} | {"tensor.graph_nodes", "train.steps"}

# No warm-up is excluded: every CLI call runs in a fresh worker process and
# its whole wall time counts, because a user's `gliomaforge <subcommand>` pays
# import, model build, checkpoint load and the slower first forward pass on
# every call. The same rule holds on every commit.
WARMUP_RULE = (
    "none excluded: each CLI call is a fresh process timed whole, including import, "
    "model build, checkpoint load and the first (slower) forward pass"
)


def nproc():
    return len(os.sched_getaffinity(0))


def worker_env():
    env = dict(os.environ)
    threads = str(nproc())
    env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    return env


class Bench:
    """One benchmark run of one workload at one seed."""

    def __init__(self, workload, seed, scale):
        self.workload, self.seed, self.scale = workload, seed, scale
        self.size = SIZES[scale][workload]
        self.model_cfg = SIZES[scale]["model_cfg"]
        self.env = worker_env()
        self.work = STATE / "work" / f"{scale}-{workload}"
        self.ops = []
        self.calls = 0

    # -- inputs ------------------------------------------------------------

    def prepare(self):
        """Build missing inputs, then link this seed's set into the work dir."""
        import inputs

        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "logs").mkdir(parents=True)
        cache = STATE / "cache"
        shape = list(self.size["shape"])
        spacing = list(self.size.get("spacing", (1.0, 1.0, 1.0)))
        cases = [{"kind": self.workload, "seed": self.seed + i, "shape": shape, "spacing": spacing}
                 for i in range(self.size.get("cases", 1))]
        reference = {"kind": "reference", "seed": inputs.REFERENCE_SEED, "shape": shape}
        checkpoint = {"kind": "checkpoint", "seed": self.seed, "shape": [],
                      "model_cfg": self.model_cfg}
        targets = [(item, cache / inputs.item_key(item)) for item in cases]
        if self.workload == "cohort":
            targets.append((reference, cache / inputs.item_key(reference)))
        targets.append((checkpoint, self.work / "ckpt"))
        inputs.prepare(targets, self.env)

        self.case_ids = [f"{item['kind']}-{item['seed']:06d}" for item in cases]
        for item in cases:
            _link_tree(cache / inputs.item_key(item), self.work / "in")
            if self.workload == "cohort":
                _link_tree(cache / inputs.item_key(item) / "pred", self.work / "pred")
        if self.workload == "cohort":
            _link_tree(cache / inputs.item_key(reference), self.work / "ref")
            self.ref_id = f"reference-{inputs.REFERENCE_SEED:06d}"
        self.ckpt = self.work / "ckpt" / "model.ck"
        if self.workload == "train":
            (self.work / "train.cfg").write_text(
                f"train.crop_size = {self.size['crop']}\n"
                f"train.batch_size = {self.size['batch']}\n" + self.model_cfg
            )

    # -- worker processes --------------------------------------------------

    def _spawn(self, args, log_name):
        result = self.work / "result.json"
        result.unlink(missing_ok=True)
        with open(self.work / "logs" / log_name, "w") as log:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), args[0], str(result), *args[1:]],
                env=self.env, stdout=log, stderr=subprocess.STDOUT, timeout=CALL_TIMEOUT_S,
            )
            wall = time.perf_counter() - start
        payload = json.loads(result.read_text()) if result.exists() else {}
        return proc.returncode, wall, payload

    def measure_setup(self, repeats):
        cfg = self.ckpt.with_name("model.ck.cfg")
        runs = []
        for i in range(repeats):
            code, _, payload = self._spawn(["setup", str(self.ckpt), str(cfg)], f"setup{i}.log")
            if code != 0:
                raise RuntimeError(f"set-up worker failed; see {self.work / 'logs'}")
            runs.append(payload)
        self.parameters = runs[0]["parameters"]
        return statistics.median(r["setup_s"] for r in runs)

    def call(self, argv, traced, check):
        """One CLI call in a fresh worker plus its output check: one operation."""
        self.calls += 1
        code, wall, payload = self._spawn(
            ["cli", "1" if traced else "0", *argv], f"{self.calls:03d}-{argv[0]}.log"
        )
        failures, record = [], {}
        if code != 0 or payload.get("rc") != 0:
            failures.append(f"exit code {code}")
        else:
            try:
                failures, record = check()
            except Exception as err:  # a check that cannot read the output fails the call
                failures = [f"check raised {type(err).__name__}: {err}"]
        op = {"subcommand": argv[0], "traced": traced, "wall_s": wall,
              "maxrss_mib": payload.get("maxrss_mib", 0.0), "failures": failures, **record}
        if "trace" in payload:
            import tracer

            op["summary"] = tracer.summarize(payload["trace"])
            with open(self.work / "logs" / f"{self.calls:03d}-{argv[0]}.trace.json", "w") as fh:
                json.dump(payload["trace"], fh)
        self.ops.append(op)
        return op

    # -- rounds --------------------------------------------------------------

    def round(self, checks, traced):
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        plan = getattr(self, f"_plan_{self.workload}")(checks, out)
        ops = [self.call(argv, traced, check) for argv, check in plan]
        return {
            "traced": traced,
            "wall_s": sum(op["wall_s"] for op in ops),
            "voxels": self.round_voxels(),
            "stage_wall_s": {op["subcommand"]: op["wall_s"] for op in ops},
            "digests": checks.digests(out),
            "ops": ops,
        }

    def round_voxels(self):
        if self.workload == "train":
            n_train = self.size["cases"] - 1  # the CLI holds out one validation case
            return n_train * self.size["epochs"] * self.size["crop"] ** 3
        return math.prod(self.size["shape"]) * self.size.get("cases", 1)

    def _plan_train(self, checks, out):
        ckpt = out / "model.ck"
        argv = ["pretrain", "--data", str(self.work / "in"), "--out", str(ckpt),
                "--epochs", str(self.size["epochs"]), "--config", str(self.work / "train.cfg"),
                "--seed", str(self.seed)]
        epochs = self.size["epochs"]
        return [(argv, lambda: checks.check_pretrain(ckpt, epochs, self.expected_shapes))]

    def _plan_infer(self, checks, out):
        mask = out / "pred.nii"
        argv = ["predict", "--ckpt", str(self.ckpt), "--in", str(self.work / "in"),
                "--out", str(mask), "--seed", str(self.seed)]
        t1 = self.work / "in" / f"{self.case_ids[0]}-t1.nii"
        return [(argv, lambda: checks.check_predict(mask, t1))]

    def _plan_cohort(self, checks, out):
        ids, raw, seed = self.case_ids, self.work / "in", str(self.seed)
        harmonized, features = out / "harmonized", out / "features.csv"
        folds, scores = out / "folds.csv", out / "metrics.csv"
        return [
            (["harmonize", "--ref-dir", str(self.work / "ref"), "--in", str(raw),
              "--out", str(harmonized), "--jobs", "1", "--seed", seed],
             lambda: checks.check_harmonize(raw, harmonized, ids, self.reference)),
            (["features", "--in", str(harmonized), "--out", str(features), "--jobs", "1"],
             lambda: checks.check_features(features, ids)),
            (["stratify", "--features", str(features), "--k", "2", "--folds", "2",
              "--out", str(folds), "--seed", seed],
             lambda: checks.check_stratify(folds, ids)),
            (["evaluate", "--pred", str(self.work / "pred"), "--gt", str(harmonized),
              "--out", str(scores), "--jobs", "1"],
             lambda: checks.check_evaluate(scores, ids)),
        ]

    # -- the run ---------------------------------------------------------------

    def run(self, seconds, trace):
        import checks

        self.prepare()
        setup_s = self.measure_setup(1 if trace else SETUP_REPEATS)
        if self.workload == "train":
            self.expected_shapes = checks.parameter_shapes(self.ckpt.with_name("model.ck.cfg"))
        if self.workload == "cohort":
            self.reference = checks.reference_samples(self.work / "ref", self.ref_id)
        rounds = []
        start = time.perf_counter()
        while True:
            rounds.append(self.round(checks, traced=trace and len(rounds) % 2 == 1))
            done = time.perf_counter() - start >= seconds
            if done and (not trace or len(rounds) >= 2):
                break
        untraced = [r for r in rounds if not r["traced"]]
        if trace:
            metrics = self.per_layer(untraced, [r for r in rounds if r["traced"]])
        else:
            metrics = {
                "setup_s": setup_s,
                "voxels_per_s": _throughput(untraced),
                "peak_rss_mb": max(op["maxrss_mib"] for r in untraced for op in r["ops"]),
            }
        return metrics, rounds

    def per_layer(self, untraced, traced):
        import numpy as np

        sums, maxima, steps = {}, {}, []
        for r in traced:
            for op in r["ops"]:
                s, m, st = op["summary"]
                for key, value in s.items():
                    sums[key] = sums.get(key, 0.0) + value
                for key, value in m.items():
                    maxima[key] = max(maxima.get(key, 0.0), value)
                steps.extend(st)
        values = {}
        for name in PER_LAYER:
            values[name] = maxima.get(name, 0.0) if name in PER_LAYER_MAX \
                else sums.get(name, 0.0) / len(traced)
        values["train.steps"] = len(steps)
        if steps:
            values["train.step_s_p50"] = float(np.percentile(steps, 50))
            values["train.step_s_p90"] = float(np.percentile(steps, 90))
            values["tensor.graph_nodes"] = sums.get("tensor.graph_nodes_total", 0) / len(steps)
        if self.workload == "cohort":
            values.update(_stage_throughputs(untraced))
        values["trace.voxels_per_s"] = _throughput(traced)
        values["trace.overhead_voxels_per_s"] = _throughput(untraced) - _throughput(traced)
        return values

    def environment(self):
        import numpy
        import scipy

        try:
            blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
            blas = f"{blas['name']} {blas['version']}"
        except (TypeError, KeyError):
            blas = "unknown"
        shapes = {"case": list(self.size["shape"]), "cases": len(self.case_ids)}
        if self.workload == "train":
            shapes["batch"] = [self.size["batch"], 4] + [self.size["crop"]] * 3
        if self.workload == "cohort":
            shapes["reference"] = list(self.size["shape"])
        return {
            "nproc": nproc(), "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_threads": self.env["OPENBLAS_NUM_THREADS"],
            "workload": self.workload, "seed": self.seed, "scale": self.scale,
            "input_shapes": shapes, "model_parameters": self.parameters, "warmup": WARMUP_RULE,
        }


def _throughput(rounds):
    return sum(r["voxels"] for r in rounds) / sum(r["wall_s"] for r in rounds)


def _stage_throughputs(rounds):
    """Case-grid voxels per second of each user-facing cohort subcommand."""
    voxels = sum(r["voxels"] for r in rounds)
    return {
        f"{stage}_voxels_per_s": voxels / sum(r["stage_wall_s"][stage] for r in rounds)
        for stage in ("harmonize", "features", "evaluate")
    }


def _link_tree(source, dest):
    """Hard-link the files of a cache entry into a run's input directory."""
    dest.mkdir(parents=True, exist_ok=True)
    for path in source.iterdir():
        if path.is_file():
            os.link(path, dest / path.name)


def run_one(workload, seed, seconds, trace, scale):
    """Run one workload; return the result line's object and the details
    that are also written to .perfbench/results/."""
    bench = Bench(workload, seed, scale)
    metrics, rounds = bench.run(seconds, trace)
    attempted = len(bench.ops)
    failed = sum(1 for op in bench.ops if op["failures"])
    outputs = rounds[0]["digests"]
    details = {
        "environment": bench.environment(),
        "attempted": attempted,
        "failed": failed,
        "failed_op_ratio": failed / attempted,
        "failures": [f"{op['subcommand']}: {f}" for op in bench.ops for f in op["failures"]],
        "outputs_sha256": hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest(),
        "outputs_identical_across_rounds": all(r["digests"] == outputs for r in rounds),
        "computed": sorted(n for n in metrics if n in COMPUTED),
        "rounds": [{k: v for k, v in r.items() if k != "ops"} for r in rounds],
        "ops": [{k: v for k, v in op.items() if k != "summary"} for op in bench.ops],
    }
    if workload == "cohort" and not trace:
        details["stage_voxels_per_s"] = _stage_throughputs(rounds)
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / f"{scale}-{workload}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump({"metrics": metrics, **details}, fh, indent=1)
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    return result, details


def report_lines(result, details):
    """Every metric by name with its unit, marking the computed ones."""
    rows = [(n + (" (computed)" if n in COMPUTED else ""), m["value"], m["unit"])
            for n, m in result["metrics"].items()]
    if "setup_s" in result["metrics"]:
        rows.append(("failed_op_ratio", details["failed_op_ratio"],
                     f"ratio ({details['failed']}/{details['attempted']})"))
        rows += [(n, v, "voxel/s") for n, v in details.get("stage_voxels_per_s", {}).items()]
    lines = [f"{name:42s} {value:14.6g} {unit}" for name, value, unit in rows]
    same = "identical" if details["outputs_identical_across_rounds"] else "DIFFERENT"
    lines.append(f"{'outputs_sha256':42s} {details['outputs_sha256'][:16]} ({same} across rounds)")
    return lines + [f"FAILED {failure}" for failure in details["failures"]]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs and model (smoke test)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "gliomaforge" / "__init__.py").is_file():
        print(f"perfbench: no gliomaforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update({k: v for k, v in worker_env().items() if k.endswith("_NUM_THREADS")})
    sys.path.insert(0, str(ROOT / "src"))
    scale = "tiny" if args.tiny else "full"
    if args.workload != "all":
        result, details = run_one(args.workload, args.seed, args.seconds, bool(args.trace), scale)
        print("environment: " + json.dumps(details["environment"]))
        print("\n".join(report_lines(result, details)))
        print(json.dumps(result))
        return 0
    all_ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            result, details = run_one(workload, args.seed, args.seconds, trace, scale)
            all_ok = all_ok and result["correct"]
            print("\n".join(f"{workload:7s} {line}" for line in report_lines(result, details)))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
