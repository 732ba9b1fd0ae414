"""Command-line pipeline: harmonize, features, stratify, pretrain,
finetune, predict, evaluate, selftest.

Exit codes: 0 success, 1 usage error (or selftest failure), 2 data error.
The seeded subcommands take --seed; without it the config file's `seed`,
then the GLIOMAFORGE_SEED environment variable, then 42 apply.
All file outputs are written to a temp name and renamed into place, so an
interrupted run never leaves a partial artifact; `harmonize` renames the
files of a case into place together, once all of them have been read.
"""

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing, contextmanager
from dataclasses import fields
from functools import partial
from itertools import chain, groupby, islice
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .errors import ConfigError, GliomaForgeError, PairingError
from .harmonize import build_cdf, match_histogram, zscore_normalize
from .metrics import (
    evaluate_pair,
    keep_largest_per_class,
    mask_pairs,
    summarize,
    write_metrics_csv,
)
from .model import GliomaForgeNet, ModelConfig
from .nifti import (
    MODALITIES,
    MultiModalCase,
    SegmentationMask,
    case_paths,
    iter_case_files,
    list_case_ids,
    load_case,
    read_ahead,
    save_mask,
    save_volume,
)
from .radiomics import DEFAULT_BIN_WIDTH, extract_case_features, read_features_csv, write_features_csv
from .selftest import run_selftest
from .stratify import (
    DEFAULT_CLUSTERS,
    DEFAULT_COMPONENTS,
    DEFAULT_FOLDS,
    DEFAULT_SEED,
    read_folds_csv,
    stratify_cases,
    write_folds_csv,
)
from .train import TrainConfig, fit, padded_dims, predict_labels, training_case, write_fit_log

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

DEFAULT_QUANTILES = 256


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; we reserve 2 for
    data errors, so remap to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


@contextmanager
def atomic_outputs():
    """Yield `stage(path)`, which returns a temp path for `path`. Every
    staged temp replaces its path only when the block succeeds; on failure
    none does, and all are removed.

    The temp name keeps the final suffixes so suffix-driven behavior
    (e.g. .nii.gz compression) is unchanged.
    """
    staged = []

    def stage(path):
        path = Path(path)
        if path.parent and not path.parent.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
        staged.append((path.with_name(f".tmp{os.getpid()}.{path.name}"), path))
        return staged[-1][0]

    try:
        yield stage
        for tmp, path in staged:
            os.replace(tmp, path)
    finally:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)


@contextmanager
def atomic_output(path):
    """Yield a temp path that replaces `path` only on success."""
    with atomic_outputs() as stage:
        yield stage(path)


# The keys some subcommand reads; `train.seed` is not one, as the top-level
# `seed` is the one seed key.
CONFIG_KEYS = frozenset(
    ["seed", "quantiles", "modality", "bin_width", "clusters", "components", "folds"]
    + [f"train.{f.name}" for f in fields(TrainConfig) if f.name != "seed"]
    + [f"model.{f.name}" for f in fields(ModelConfig)]
)


def _load_config(args) -> dict[str, str]:
    """The keys of `--config`, if given; a key outside CONFIG_KEYS is a
    ConfigError that names it."""
    if args.config is None:
        return {}
    config = cfgmod.read_config(args.config)
    if unknown := sorted(config.keys() - CONFIG_KEYS):
        hint = "; the one seed key is the top-level 'seed'" if "train.seed" in unknown else ""
        names = ", ".join(map(repr, unknown))
        raise ConfigError(f"{args.config}: unknown config key(s) {names}{hint}")
    return config


def resolve_seed(args, config) -> int:
    source, key = (config, "seed") if "seed" in config else (os.environ, "GLIOMAFORGE_SEED")
    seed = cfgmod.option(args.seed, source, key, DEFAULT_SEED)
    if seed < 0:
        origin = "--seed" if args.seed is not None else repr(key)
        raise ConfigError(f"seed {seed} from {origin} must be non-negative")
    return seed


def _map_cases(work, tasks, jobs, initializer=None, initargs=()):
    """Yield `work(task)` for each task in task order, each as soon as it and
    every task before it are done; with `jobs` > 1, in worker processes.
    `initializer(*initargs)`, if given, runs first in each process that
    does work, so what every task shares is sent to a worker once."""
    if jobs > 1:
        with ProcessPoolExecutor(jobs, initializer=initializer, initargs=initargs) as pool:
            yield from pool.map(work, tasks)
    else:
        if initializer is not None:
            initializer(*initargs)
        yield from map(work, tasks)


# -- harmonize -------------------------------------------------------------


def _reference_cdfs(files):
    """Each modality's CDF over the pooled foreground of every reference file
    in `files`, an `iter_case_files` stream. The CDFs need no seg, so the
    stream should check the segs from their headers (`decode=MODALITIES`)."""
    pooled = {mod: [] for mod in MODALITIES}
    for _, name, item in files:
        if name in pooled:
            pooled[name].append(item.data[item.data != 0])
    return {mod: build_cdf(np.concatenate(chunks)) for mod, chunks in pooled.items()}


def _case_paths(directory):
    """The `case_paths` of every case in `directory`."""
    return case_paths([(directory, cid) for cid in list_case_ids(directory)])


def _harmonize_cases(paths, files, out_dir, cdfs, quantiles, compress):
    """Match and write each file of `files`, the `iter_case_files` stream of
    `paths`, as it arrives, and yield each case id once its files are in
    place. A case's files are renamed into place together when the next
    case starts or the stream ends, so a file that fails to read or match
    leaves none of its case behind. Errors name the file."""
    ext = ".nii.gz" if compress else ".nii"
    for case_id, case in groupby(zip(paths, files), lambda pair: pair[0][0]):
        with atomic_outputs() as stage:
            for (_, name, path), (_, _, item) in case:
                tmp = stage(Path(out_dir) / f"{case_id}-{name}{ext}")
                if name == "seg":
                    save_mask(tmp, item)
                    continue
                try:
                    item = match_histogram(item, cdfs[name], quantiles=quantiles)
                except GliomaForgeError as err:
                    raise type(err)(f"{path}: {err}") from err
                save_volume(tmp, item)
        yield case_id


# The reference CDFs of a `harmonize --jobs N` worker, set once per worker
# by `_set_worker_cdfs`: they are far larger than any one case's task.
_worker_cdfs = None


def _set_worker_cdfs(cdfs):
    global _worker_cdfs
    _worker_cdfs = cdfs


def _harmonize_task(task):
    """`_harmonize_cases` on one case's paths against the worker's CDFs,
    read ahead on a thread."""
    paths, out_dir, quantiles, compress = task
    with closing(read_ahead(iter_case_files(paths))) as files:
        return list(_harmonize_cases(paths, files, out_dir, _worker_cdfs, quantiles, compress))


def cmd_harmonize(args) -> int:
    config = _load_config(args)
    quantiles = cfgmod.option(args.quantiles, config, "quantiles", DEFAULT_QUANTILES)
    # every file is found before the first is read, so a missing one fails
    # before any work is done
    ref_paths, in_paths = _case_paths(args.ref_dir), _case_paths(args.in_dir)
    # --jobs 1 reads the reference and the inputs as one stream, so the
    # reader decodes the first input while the CDFs are built
    stream = iter_case_files(ref_paths, decode=MODALITIES)
    if args.jobs == 1:
        stream = chain(stream, iter_case_files(in_paths))
    with closing(read_ahead(stream)) as files:
        cdfs = _reference_cdfs(islice(files, len(ref_paths)))
        Path(args.out).mkdir(parents=True, exist_ok=True)
        if args.jobs == 1:
            done = _harmonize_cases(in_paths, files, args.out, cdfs, quantiles, args.compress)
        else:
            files.close()  # join the reader thread before the workers start
            # one task per case, scheduled as workers come free; the CDFs go
            # to each worker once
            tasks = [
                (list(case), args.out, quantiles, args.compress)
                for _, case in groupby(in_paths, itemgetter(0))
            ]
            done = chain.from_iterable(
                _map_cases(_harmonize_task, tasks, args.jobs, _set_worker_cdfs, (cdfs,))
            )
        # each case is reported once its files, and those of every case
        # before it, are in place
        for case_id in done:
            print(f"harmonized {case_id}", flush=True)
    return EXIT_OK


# -- features --------------------------------------------------------------


def _features_one(task):
    in_dir, case_id, modality, bin_width = task
    case = load_case(in_dir, case_id, decode=(modality,))
    return extract_case_features(case, modality=modality, bin_width=bin_width)


def cmd_features(args) -> int:
    config = _load_config(args)
    modality = cfgmod.option(args.modality, config, "modality", "flair", str)
    if modality not in MODALITIES:
        raise ConfigError(f"modality {modality!r} is not one of {list(MODALITIES)}")
    bin_width = cfgmod.option(args.bin_width, config, "bin_width", DEFAULT_BIN_WIDTH, float)
    tasks = [(args.in_dir, cid, modality, bin_width) for cid in list_case_ids(args.in_dir)]
    rows = list(_map_cases(_features_one, tasks, args.jobs))
    with atomic_output(args.out) as tmp:
        write_features_csv(tmp, rows)
    print(f"wrote {len(rows)} feature rows to {args.out}")
    return EXIT_OK


# -- stratify --------------------------------------------------------------


def cmd_stratify(args) -> int:
    config = _load_config(args)
    seed = resolve_seed(args, config)
    k = cfgmod.option(args.k, config, "clusters", DEFAULT_CLUSTERS)
    components = cfgmod.option(args.pca, config, "components", DEFAULT_COMPONENTS)
    n_folds = cfgmod.option(args.folds, config, "folds", DEFAULT_FOLDS)
    case_ids, matrix = read_features_csv(args.features)
    # clamp the PCA width to what the cohort can support
    limit = min(len(case_ids) - 1, matrix.shape[1])
    if components > limit:
        print(f"reducing pca components {components} -> {limit} for n={len(case_ids)}")
        components = limit
    assignment = stratify_cases(
        case_ids, matrix, k=k, pca_components=components, n_folds=n_folds, seed=seed
    )
    with atomic_output(args.out) as tmp:
        write_folds_csv(tmp, assignment)
    print(f"wrote fold assignment for {len(case_ids)} cases to {args.out}")
    return EXIT_OK


# -- training --------------------------------------------------------------


def _load_training_cases(data_dir, ids):
    return [training_case(load_case(data_dir, cid)) for cid in ids]


def _train_common(args, epochs_key):
    config = _load_config(args)
    train_cfg = cfgmod.train_config_from(
        config, seed=resolve_seed(args, config), **{epochs_key: args.epochs}
    )
    return config, train_cfg, getattr(train_cfg, epochs_key)


def _holdout(ids, seed):
    """Seeded 95/5 split into (train, val), with at least one validation
    id when there are two or more."""
    order = np.random.default_rng(seed).permutation(len(ids))
    n_val = max(1, round(0.05 * len(ids))) if len(ids) > 1 else 0
    return [ids[i] for i in order[n_val:]], [ids[i] for i in order[:n_val]]


def _load_model(args, config) -> GliomaForgeNet:
    """The model in `--ckpt`, built from `<ckpt>.cfg` if present, else from
    the `model.*` keys of `--config`; unseeded, as the checkpoint sets every weight."""
    ckpt_cfg = Path(str(args.ckpt) + ".cfg")
    model_cfg = cfgmod.model_config_from(
        cfgmod.read_config(ckpt_cfg) if ckpt_cfg.exists() else config
    )
    model = GliomaForgeNet(config=model_cfg)
    model.load(args.ckpt)
    return model


def _save_fit(args, model, result) -> None:
    params = model.named_parameters()
    for name, value in result.best_params.items():
        params[name].data = value
    with atomic_output(args.out) as tmp:
        model.save(tmp)
    with atomic_output(str(args.out) + ".cfg") as tmp:
        tmp.write_text(cfgmod.model_config_to_text(model.config))
    log_path = str(args.out) + ".log.csv"
    with atomic_output(log_path) as tmp:
        write_fit_log(tmp, result.log)
    print(
        f"saved checkpoint {args.out} (best epoch {result.best_epoch}, "
        f"val dice {result.best_val_dice:.4f}); log at {log_path}"
    )


def cmd_pretrain(args) -> int:
    config, train_cfg, epochs = _train_common(args, "epochs_pretrain")
    train_ids, val_ids = _holdout(list_case_ids(args.data), train_cfg.seed)
    model = GliomaForgeNet(config=cfgmod.model_config_from(config), seed=train_cfg.seed)
    train = _load_training_cases(args.data, train_ids)
    val = _load_training_cases(args.data, val_ids)
    result = fit(model, train, val, train_cfg, epochs=epochs)
    _save_fit(args, model, result)
    return EXIT_OK


def cmd_finetune(args) -> int:
    config, train_cfg, epochs = _train_common(args, "epochs_finetune")
    ids = list_case_ids(args.data)
    model = _load_model(args, config)
    if args.folds:
        assignment = read_folds_csv(args.folds)
        fold_of = dict(zip(assignment.case_ids, assignment.folds))
        missing = [cid for cid in ids if cid not in fold_of]
        if missing:
            raise PairingError(f"cases missing from {args.folds}: {missing}")
        val_ids = [cid for cid in ids if int(fold_of[cid]) == args.val_fold]
        train_ids = [cid for cid in ids if int(fold_of[cid]) != args.val_fold]
        if not train_ids:
            raise ConfigError(f"validation fold {args.val_fold} holds every case")
        if not val_ids:
            raise ConfigError(f"validation fold {args.val_fold} holds no case in {args.folds}")
    else:
        train_ids, val_ids = _holdout(ids, train_cfg.seed)
    train = _load_training_cases(args.data, train_ids)
    val = _load_training_cases(args.data, val_ids)
    result = fit(model, train, val, train_cfg, epochs=epochs)
    _save_fit(args, model, result)
    return EXIT_OK


# -- predict ---------------------------------------------------------------


def predict_case(
    model: GliomaForgeNet,
    case: MultiModalCase,
    ref_cdfs: dict | None = None,
    quantiles: int = DEFAULT_QUANTILES,
    postprocess: bool = True,
) -> SegmentationMask:
    """Harmonize (optional), normalize into one zero-padded input, forward,
    argmax, crop, filter.

    It takes each modality out of `case` as it normalizes it, so the case
    is left without modalities and no raw volume lives on through the
    forward, even though the caller still holds the case."""
    dims, spacing = case.dims, case.modalities["t1"].spacing
    images = np.zeros((len(MODALITIES), *padded_dims(dims)), dtype=np.float32)
    crop = tuple(slice(0, s) for s in dims)
    for channel, mod in zip(images, MODALITIES):
        vol = case.modalities.pop(mod)
        if ref_cdfs is not None:
            vol = match_histogram(vol, ref_cdfs[mod], quantiles=quantiles)
        zscore_normalize(vol, out=channel[crop])
    del vol  # the last volume would otherwise live on through the forward
    labels = predict_labels(model, images, dims)
    mask = SegmentationMask(labels=labels, spacing=spacing)
    if postprocess:
        mask = keep_largest_per_class(mask)
    return mask


def cmd_predict(args) -> int:
    if args.quantiles is not None and not args.ref_dir:
        raise ConfigError("--quantiles sets histogram matching, which needs --ref-dir")
    config = _load_config(args)
    quantiles = cfgmod.option(args.quantiles, config, "quantiles", DEFAULT_QUANTILES)
    model = _load_model(args, config)
    ids = [args.case_id] if args.case_id else list_case_ids(args.in_dir)
    if len(ids) > 1:
        raise ConfigError(
            f"{args.in_dir} holds {len(ids)} cases; pick one with --case-id"
        )
    case = load_case(args.in_dir, ids[0], decode=MODALITIES)
    # no read_ahead: a reader thread raised predict's peak RSS
    if args.ref_dir:
        cdfs = _reference_cdfs(iter_case_files(_case_paths(args.ref_dir), decode=MODALITIES))
    else:
        cdfs = None
    mask = predict_case(
        model, case, ref_cdfs=cdfs, quantiles=quantiles, postprocess=not args.no_postprocess
    )
    with atomic_output(args.out) as tmp:
        save_mask(tmp, mask)
    print(f"wrote segmentation for {ids[0]} to {args.out}")
    return EXIT_OK


# -- evaluate / selftest ---------------------------------------------------


def cmd_evaluate(args) -> int:
    work = partial(evaluate_pair, postprocess=not args.no_postprocess)
    results = list(_map_cases(work, mask_pairs(args.pred, args.gt), args.jobs))
    summary = summarize(results)
    with atomic_output(args.out) as tmp:
        write_metrics_csv(tmp, results, summary)
    for region in ("WT", "TC", "ET"):
        mean, std = summary[region]["dice"]
        print(f"{region} dice {mean:.4f} +/- {std:.4f}")
    print(f"wrote metrics for {len(results)} cases to {args.out}")
    return EXIT_OK


def cmd_selftest(args) -> int:
    config = _load_config(args)
    failures = run_selftest(seed=resolve_seed(args, config))
    return EXIT_OK if failures == 0 else EXIT_USAGE


# -- parser ----------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="gliomaforge", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add(name, func, helptext):
        p = sub.add_parser(name, help=helptext)
        p.set_defaults(func=func)
        if name != "evaluate":
            p.add_argument("--config", help="INI-style key=value config file")
        if name in ("stratify", "pretrain", "finetune", "selftest"):
            p.add_argument("--seed", type=int, help="override the global seed")
        elif name in ("harmonize", "predict"):  # unread: perfbench/run.py passes it
            p.add_argument("--seed", type=int, help=argparse.SUPPRESS)
        return p

    p = add("harmonize", cmd_harmonize, "histogram-match a cohort onto a reference")
    p.add_argument("--ref-dir", required=True, help="directory of reference case(s)")
    p.add_argument("--in", dest="in_dir", required=True, help="input case directory")
    p.add_argument("--out", required=True, help="output case directory")
    p.add_argument("--quantiles", type=int, help=f"mapping knots (default {DEFAULT_QUANTILES})")
    p.add_argument("--compress", action="store_true", help="write .nii.gz instead of .nii")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")

    p = add("features", cmd_features, "extract first-order radiomic features")
    p.add_argument("--in", dest="in_dir", required=True, help="input case directory")
    p.add_argument("--out", required=True, help="output features CSV")
    p.add_argument("--modality", choices=MODALITIES, help="source modality (default flair)")
    p.add_argument("--bin-width", type=float, help="histogram bin width")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")

    p = add("stratify", cmd_stratify, "cluster features and assign stratified folds")
    p.add_argument("--features", required=True, help="features CSV from `features`")
    p.add_argument("--k", type=int, help=f"clusters (default {DEFAULT_CLUSTERS})")
    p.add_argument("--pca", type=int, help=f"PCA components (default {DEFAULT_COMPONENTS})")
    p.add_argument("--folds", type=int, help=f"fold count (default {DEFAULT_FOLDS})")
    p.add_argument("--out", required=True, help="output folds CSV")

    for name, func, helptext in (
        ("pretrain", cmd_pretrain, "train from random initialization"),
        ("finetune", cmd_finetune, "continue training from a checkpoint"),
    ):
        p = add(name, func, helptext)
        p.add_argument("--data", required=True, help="training case directory")
        p.add_argument("--out", required=True, help="output checkpoint path")
        p.add_argument("--epochs", type=int, help="override the epoch budget")
        if name == "finetune":
            p.add_argument("--ckpt", required=True, help="initial checkpoint")
            p.add_argument("--folds", help="folds CSV from `stratify`")
            p.add_argument("--val-fold", type=int, default=0, help="held-out fold index")

    p = add("predict", cmd_predict, "segment one case with a trained checkpoint")
    p.add_argument("--ckpt", required=True, help="model checkpoint")
    p.add_argument("--in", dest="in_dir", required=True, help="directory holding the case")
    p.add_argument("--out", required=True, help="output mask (.nii or .nii.gz)")
    p.add_argument("--case-id", help="case id when the directory holds several")
    p.add_argument("--ref-dir", help="harmonization reference case directory")
    p.add_argument("--quantiles", type=int, help="harmonization knots (needs --ref-dir)")
    p.add_argument("--no-postprocess", action="store_true", help="skip component filtering")

    p = add("evaluate", cmd_evaluate, "score predictions against reference masks")
    p.add_argument("--pred", required=True, help="prediction mask directory")
    p.add_argument("--gt", required=True, help="reference mask directory")
    p.add_argument("--out", required=True, help="output metrics CSV")
    p.add_argument("--no-postprocess", action="store_true", help="skip component filtering")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")

    add("selftest", cmd_selftest, "run the built-in property suites")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    if not argv:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        if getattr(args, "jobs", 1) < 1:
            raise ConfigError(f"--jobs {args.jobs} must be at least 1")
        return args.func(args)
    except GliomaForgeError as err:
        print(f"gliomaforge: error: {err}", file=sys.stderr)
        return EXIT_DATA
    except (FileNotFoundError, NotADirectoryError, IsADirectoryError) as err:
        print(f"gliomaforge: error: {err}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
