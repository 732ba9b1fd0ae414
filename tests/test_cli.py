"""Tests for the command-line pipeline and config plumbing."""

import argparse
import gzip
import os
import pickle
import shutil
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest

import gliomaforge
from gliomaforge import nifti
from gliomaforge import cli
from gliomaforge.autodiff import Tensor
from gliomaforge.cli import (
    EXIT_DATA,
    EXIT_OK,
    EXIT_USAGE,
    _map_cases,
    atomic_output,
    main,
    predict_case,
    resolve_seed,
)
from gliomaforge.config import (
    model_config_from,
    model_config_from_text,
    model_config_to_text,
    read_config,
    train_config_from,
)
from gliomaforge.errors import ConfigError, LabelError
from gliomaforge.harmonize import build_cdf, match_histogram
from gliomaforge.metrics import keep_largest_per_class, read_metrics_csv
from gliomaforge.model import GliomaForgeNet, ModelConfig
from gliomaforge.nifti import (
    MultiModalCase,
    SegmentationMask,
    Volume,
    list_case_ids,
    load_mask,
    load_volume,
    save_case,
    save_volume,
)
from gliomaforge.radiomics import FEATURE_NAMES
from gliomaforge.selftest import SMALL_MODEL
from gliomaforge.stratify import read_folds_csv
from gliomaforge.synthetic import make_case, make_dataset
from gliomaforge.train import predict_labels

TINY_CFG = """
seed = 7
[train]
lr = 1e-3
crop_size = 32
batch_size = 2
[model]
stage_channels = 8,16,32,64
stage_heads = 1,2,4,8
stage_depths = 1,1,1,1
decoder_channels = 8
ffn_expansion = 2
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One shared pipeline run: raw data, reference, harmonized data,
    features, folds and a 1-epoch pretrained checkpoint."""
    root = tmp_path_factory.mktemp("pipeline")
    raw, ref, harm = root / "raw", root / "ref", root / "harm"
    for case in make_dataset(4, shape=(32, 32, 32), seed=40):
        save_case(raw, case)
    save_case(ref, make_case("reference", shape=(32, 32, 32), seed=999))
    cfg = root / "pipeline.cfg"
    cfg.write_text(TINY_CFG)

    assert main(["harmonize", "--ref-dir", str(ref), "--in", str(raw), "--out", str(harm)]) == EXIT_OK
    assert main(["features", "--in", str(harm), "--out", str(root / "features.csv")]) == EXIT_OK
    assert (
        main(
            ["stratify", "--features", str(root / "features.csv"), "--k", "2",
             "--folds", "2", "--out", str(root / "folds.csv"), "--seed", "7"]
        )
        == EXIT_OK
    )
    assert (
        main(
            ["pretrain", "--data", str(harm), "--out", str(root / "pre.ck"),
             "--config", str(cfg), "--epochs", "1"]
        )
        == EXIT_OK
    )
    return {"root": root, "raw": raw, "ref": ref, "harm": harm, "cfg": cfg}


class TestUsage:
    def test_no_args_exits_one(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_unknown_subcommand_exits_one(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE
        assert "invalid choice" in capsys.readouterr().err

    def test_missing_required_flag_exits_one(self, capsys):
        assert main(["stratify"]) == EXIT_USAGE

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == EXIT_OK

    def test_missing_data_dir_is_data_error(self, tmp_path, capsys):
        rc = main(["features", "--in", str(tmp_path / "nope"), "--out", str(tmp_path / "f.csv")])
        assert rc == EXIT_DATA

    @pytest.mark.parametrize(
        "argv",
        [["features", "--in", "d", "--out", "o", "--seed", "1"],
         ["evaluate", "--pred", "p", "--gt", "g", "--out", "o", "--seed", "1"],
         ["evaluate", "--pred", "p", "--gt", "g", "--out", "o", "--config", "x.cfg"]],
        ids=["features-seed", "evaluate-seed", "evaluate-config"],
    )
    def test_option_nothing_reads_is_usage_error(self, capsys, argv):
        assert main(argv) == EXIT_USAGE
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


class TestSeedResolution:
    def _args(self, seed=None):
        return argparse.Namespace(seed=seed)

    def test_flag_beats_config_and_env(self, monkeypatch):
        monkeypatch.setenv("GLIOMAFORGE_SEED", "111")
        assert resolve_seed(self._args(seed=5), {"seed": "9"}) == 5

    def test_config_beats_env(self, monkeypatch):
        monkeypatch.setenv("GLIOMAFORGE_SEED", "111")
        assert resolve_seed(self._args(), {"seed": "9"}) == 9

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("GLIOMAFORGE_SEED", "111")
        assert resolve_seed(self._args(), {}) == 111

    def test_default(self, monkeypatch):
        monkeypatch.delenv("GLIOMAFORGE_SEED", raising=False)
        assert resolve_seed(self._args(), {}) == 42


class TestAtomicOutput:
    def test_success_renames_into_place(self, tmp_path):
        target = tmp_path / "out.txt"
        with atomic_output(target) as tmp:
            tmp.write_text("payload")
            assert not target.exists()
        assert target.read_text() == "payload"
        assert list(tmp_path.iterdir()) == [target]

    def test_failure_leaves_nothing(self, tmp_path):
        target = tmp_path / "out.txt"
        with pytest.raises(RuntimeError):
            with atomic_output(target) as tmp:
                tmp.write_text("partial")
                raise RuntimeError("interrupted")
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []

    def test_creates_parent_directories(self, tmp_path):
        target = tmp_path / "a" / "b" / "out.txt"
        with atomic_output(target) as tmp:
            tmp.write_text("x")
        assert target.read_text() == "x"

    def test_gz_writes_of_one_volume_are_byte_equal(self, tmp_path):
        # the temp name differs per output and per process; it must not
        # reach the gzip header
        volume = make_case("gz", shape=(8, 8, 8), seed=1).modalities["t1"]
        for name in ("a.nii.gz", "b.nii.gz"):
            with atomic_output(tmp_path / name) as tmp:
                save_volume(tmp, volume)
        a, b = (tmp_path / "a.nii.gz").read_bytes(), (tmp_path / "b.nii.gz").read_bytes()
        assert a == b
        assert a[3] == 0  # gzip FLG: no FNAME field


class TestConfigFile:
    def test_flat_and_sectioned_keys(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("seed = 3\n[train]\nlr = 1e-3\n[model]\ndecoder_channels = 8\n")
        flat = read_config(path)
        assert flat == {"seed": "3", "train.lr": "1e-3", "model.decoder_channels": "8"}

    def test_train_config_overrides(self, tmp_path):
        mapping = {"train.lr": "1e-3", "train.batch_size": "4"}
        cfg = train_config_from(mapping, seed=9)
        assert cfg.lr == 1e-3
        assert cfg.batch_size == 4
        assert cfg.seed == 9

    def test_model_config_roundtrip(self):
        cfg = ModelConfig(
            stage_channels=[8, 16, 32, 64],
            stage_heads=[1, 2, 4, 8],
            stage_depths=[1, 1, 1, 1],
            decoder_channels=8,
            ffn_expansion=2,
        )
        assert model_config_from_text(model_config_to_text(cfg)) == cfg

    def test_unknown_model_key_rejected(self):
        with pytest.raises(ConfigError):
            model_config_from({"model.hidden_layers": "3"})

    @pytest.mark.parametrize("command", ["pretrain", "finetune"])
    def test_train_seed_key_is_data_error(self, tmp_path, capsys, command):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("[train]\nseed = 5\n")
        argv = [command, "--data", str(tmp_path / "missing"), "--out", str(tmp_path / "o"),
                "--config", str(cfg)]
        if command == "finetune":
            argv += ["--ckpt", str(tmp_path / "missing.ck")]
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert "'train.seed'" in err and "top-level 'seed'" in err

    @pytest.mark.parametrize(
        "text, key, command",
        [("quantile = 64\n", "quantile", "harmonize"),
         ("[trian]\nlr = 1e-3\n", "trian.lr", "pretrain"),
         ("[train]\nmomentum = 0.9\n", "train.momentum", "features"),
         ("[model]\nhidden_layers = 3\n", "model.hidden_layers", "predict")],
        ids=["top-level-typo", "misspelt-section", "train-field", "model-field"],
    )
    def test_unknown_key_is_data_error(self, tmp_path, capsys, text, key, command):
        # the keys are checked as the file is read, before any input is
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text)
        missing, out = str(tmp_path / "missing"), str(tmp_path / "out")
        argv = {
            "harmonize": ["harmonize", "--ref-dir", missing, "--in", missing, "--out", out],
            "pretrain": ["pretrain", "--data", missing, "--out", out],
            "features": ["features", "--in", missing, "--out", out],
            "predict": ["predict", "--ckpt", missing, "--in", missing, "--out", out],
        }[command]
        assert main(argv + ["--config", str(cfg)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "unknown config key" in err and key in err

    def test_unparseable_file_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("this is not a key value line\n")
        with pytest.raises(ConfigError):
            read_config(path)

    @pytest.mark.parametrize(
        "key, command",
        [("seed", "selftest"), ("GLIOMAFORGE_SEED", "selftest"),
         ("quantiles", "harmonize"), ("quantiles", "predict"), ("bin_width", "features"),
         ("clusters", "stratify"), ("components", "stratify"), ("folds", "stratify")],
    )
    def test_non_numeric_value_is_data_error(self, tmp_path, monkeypatch, capsys, key, command):
        # every value is parsed before any input is read, so no input needs to exist
        cfg = tmp_path / "c.cfg"
        if key == "GLIOMAFORGE_SEED":
            monkeypatch.setenv(key, "abc")
            cfg.write_text("")
        else:
            monkeypatch.delenv("GLIOMAFORGE_SEED", raising=False)
            cfg.write_text(f"{key} = abc\n")
        missing, out = str(tmp_path / "missing"), str(tmp_path / "out")
        argv = {
            "selftest": ["selftest"],
            "harmonize": ["harmonize", "--ref-dir", missing, "--in", missing, "--out", out],
            "predict": ["predict", "--ckpt", missing, "--in", missing, "--out", out],
            "features": ["features", "--in", missing, "--out", out],
            "stratify": ["stratify", "--features", missing, "--out", out],
        }[command]
        assert main(argv + ["--config", str(cfg)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "gliomaforge: error:" in err and key in err and "abc" in err


def _features_table(path, n=10):
    """A random n-row features CSV: enough rows for the default k, folds and
    PCA width, so only the option under test can fail."""
    rows = np.random.default_rng(3).normal(size=(n, len(FEATURE_NAMES)))
    lines = ["case_id," + ",".join(FEATURE_NAMES)]
    lines += [f"c{i}," + ",".join(repr(float(v)) for v in row) for i, row in enumerate(rows)]
    path.write_text("\n".join(lines) + "\n")
    return path


_NO_SCIPY_SCRIPT = """
import sys
import gliomaforge
assert "scipy" not in sys.modules, "import gliomaforge"
from gliomaforge import cli
assert "scipy" not in sys.modules, "import gliomaforge.cli"
rc = cli.main(["stratify", "--features", sys.argv[1], "--k", "2", "--folds", "2",
               "--out", sys.argv[2], "--seed", "1"])
assert rc == 0, rc
assert "scipy" not in sys.modules, "stratify"
"""


def test_scipy_is_imported_only_where_used(tmp_path):
    """Import and the subcommands that never call scipy do not pay for it."""
    src = os.path.dirname(os.path.dirname(gliomaforge.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    table = _features_table(tmp_path / "f.csv", n=6)
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT, str(table), str(tmp_path / "folds.csv")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "folds.csv").exists()


class TestCountOptions:
    """A zero or negative count is a data error wherever it is set. A flag of
    0 was given, so it must reach the range checks, not fall back."""

    def _argv(self, command, workspace, tmp_path):
        root, raw, ref = workspace["root"], str(workspace["raw"]), str(workspace["ref"])
        out = str(tmp_path / "out")
        return {
            "stratify": ["stratify", "--features", str(_features_table(tmp_path / "f.csv")),
                         "--out", out],
            "features": ["features", "--in", raw, "--out", out],
            "harmonize": ["harmonize", "--ref-dir", ref, "--in", raw, "--out", out],
            "predict": ["predict", "--ckpt", str(root / "pre.ck"), "--in", raw,
                        "--case-id", "synth-000", "--ref-dir", ref, "--out", out],
            "pretrain": ["pretrain", "--data", str(workspace["harm"]), "--out", out],
            "evaluate": ["evaluate", "--pred", raw, "--gt", raw, "--out", out],
            "selftest": ["selftest"],
        }[command]

    @pytest.mark.parametrize(
        "command, flag, message",
        [("stratify", "--k", "got 0"), ("stratify", "--folds", "got 0"),
         ("stratify", "--pca", "got 0"), ("features", "--bin-width", "got 0.0"),
         ("harmonize", "--quantiles", "got 0"), ("predict", "--quantiles", "got 0"),
         ("pretrain", "--epochs", "epochs_pretrain 0 ")],
        ids=["stratify-k", "stratify-folds", "stratify-pca", "features-bin-width",
             "harmonize-quantiles", "predict-quantiles", "pretrain-epochs"],
    )
    def test_zero_flag_is_data_error(self, workspace, tmp_path, capsys, command, flag, message):
        argv = self._argv(command, workspace, tmp_path) + [flag, "0"]
        if command == "pretrain":
            argv += ["--config", str(workspace["cfg"])]
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert "gliomaforge: error:" in err and message in err

    @pytest.mark.parametrize(
        "command, line, message",
        [("stratify", "clusters = 0", "got 0"), ("stratify", "clusters = -1", "got -1"),
         ("stratify", "folds = 0", "got 0"),
         ("pretrain", "epochs_pretrain = 0", "epochs_pretrain 0 ")],
        ids=["clusters-zero", "clusters-negative", "folds-zero", "epochs_pretrain-zero"],
    )
    def test_nonpositive_config_count_is_data_error(
        self, workspace, tmp_path, capsys, command, line, message
    ):
        cfg = tmp_path / "c.cfg"
        # the train key goes into TINY_CFG's own [train] section
        cfg.write_text(TINY_CFG.replace("[train]\n", f"[train]\n{line}\n")
                       if command == "pretrain" else line + "\n")
        assert main(self._argv(command, workspace, tmp_path) + ["--config", str(cfg)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "gliomaforge: error:" in err and message in err

    @pytest.mark.parametrize("source", ["--seed", "'seed'", "'GLIOMAFORGE_SEED'"])
    @pytest.mark.parametrize("command", ["stratify", "selftest"])
    def test_negative_seed_is_data_error(
        self, workspace, tmp_path, monkeypatch, capsys, command, source
    ):
        argv = self._argv(command, workspace, tmp_path)
        monkeypatch.delenv("GLIOMAFORGE_SEED", raising=False)
        if source == "--seed":
            argv += ["--seed", "-1"]
        elif source == "'seed'":
            (tmp_path / "c.cfg").write_text("seed = -1\n")
            argv += ["--config", str(tmp_path / "c.cfg")]
        else:
            monkeypatch.setenv("GLIOMAFORGE_SEED", "-1")
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"gliomaforge: error: seed -1 from {source} must be non-negative" in err

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    @pytest.mark.parametrize("command", ["harmonize", "features", "evaluate"])
    def test_jobs_below_one_is_data_error(self, workspace, tmp_path, capsys, command, jobs):
        argv = self._argv(command, workspace, tmp_path) + ["--jobs", jobs]
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"gliomaforge: error: --jobs {jobs} must be at least 1" in err
        assert not (tmp_path / "out").exists()


def _subparsers():
    parser = cli.build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


# The only accepted options that nothing reads: harmonize and predict draw no
# random numbers, and take --seed only because perfbench/run.py passes it.
UNREAD_OPTIONS = {("harmonize", "seed"), ("predict", "seed")}


class TestEveryOptionIsRead:
    """Each subcommand, given every option its parser accepts, reads each
    one from the parsed arguments."""

    def _argv(self, command, workspace, tmp_path):
        root, cfg = workspace["root"], str(workspace["cfg"])
        raw, ref, harm = str(workspace["raw"]), str(workspace["ref"]), str(workspace["harm"])
        ckpt, out = str(root / "pre.ck"), str(tmp_path / "out")
        return {
            "harmonize": ["--config", cfg, "--seed", "3", "--ref-dir", ref, "--in", raw,
                          "--out", out, "--quantiles", "64", "--compress", "--jobs", "1"],
            "features": ["--config", cfg, "--in", harm, "--out", out, "--modality", "t1",
                         "--bin-width", "10", "--jobs", "1"],
            "stratify": ["--config", cfg, "--seed", "3", "--features", str(root / "features.csv"),
                         "--k", "2", "--pca", "2", "--folds", "2", "--out", out],
            "pretrain": ["--config", cfg, "--seed", "3", "--data", harm, "--out", out,
                         "--epochs", "1"],
            "finetune": ["--config", cfg, "--seed", "3", "--data", harm, "--out", out,
                         "--epochs", "1", "--ckpt", ckpt, "--folds", str(root / "folds.csv"),
                         "--val-fold", "1"],
            "predict": ["--config", cfg, "--seed", "3", "--ckpt", ckpt, "--in", raw,
                        "--out", out + ".nii", "--case-id", "synth-000", "--ref-dir", ref,
                        "--quantiles", "64", "--no-postprocess"],
            "evaluate": ["--pred", harm, "--gt", raw, "--out", out, "--no-postprocess",
                         "--jobs", "1"],
            "selftest": ["--config", cfg, "--seed", "3"],
        }[command]

    @pytest.mark.parametrize("command", list(_subparsers()))
    def test_reads_every_accepted_option(self, workspace, tmp_path, capsys, command):
        subparser = _subparsers()[command]
        argv = self._argv(command, workspace, tmp_path)
        options = {a.option_strings[0] for a in subparser._actions if a.dest != "help"}
        assert options <= set(argv), "the argv must give every option"
        read = set()

        class ReadLog(argparse.Namespace):
            def __getattribute__(self, name):
                read.add(name)
                return super().__getattribute__(name)

        args = subparser.parse_args(argv, namespace=ReadLog())
        read.clear()  # argparse reads the namespace as it fills it
        assert args.func(args) == EXIT_OK
        accepted = {a.dest for a in subparser._actions if a.dest != "help"}
        unread = {(command, dest) for dest in accepted - read}
        assert unread == {pair for pair in UNREAD_OPTIONS if pair[0] == command}


class TestDiscovery:
    def test_finds_cases_by_t1(self, workspace):
        ids = list_case_ids(workspace["raw"])
        assert ids == ["synth-000", "synth-001", "synth-002", "synth-003"]

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            list_case_ids(tmp_path / "absent")

    @pytest.mark.parametrize(
        "command", ["harmonize-in", "harmonize-ref", "features", "pretrain", "finetune", "predict"]
    )
    def test_empty_dir_is_data_error(self, workspace, tmp_path, capsys, command):
        empty, root = tmp_path / "empty", workspace["root"]
        empty.mkdir()
        raw, ref, out = str(workspace["raw"]), str(workspace["ref"]), str(tmp_path / "out")
        argv = {
            "harmonize-in": ["harmonize", "--ref-dir", ref, "--in", str(empty), "--out", out],
            "harmonize-ref": ["harmonize", "--ref-dir", str(empty), "--in", raw, "--out", out],
            "features": ["features", "--in", str(empty), "--out", out],
            "pretrain": ["pretrain", "--data", str(empty), "--out", out,
                         "--config", str(workspace["cfg"])],
            "finetune": ["finetune", "--data", str(empty), "--ckpt", str(root / "pre.ck"),
                         "--out", out, "--config", str(workspace["cfg"])],
            "predict": ["predict", "--ckpt", str(root / "pre.ck"), "--in", str(empty),
                        "--out", out],
        }[command]
        assert main(argv) == EXIT_DATA
        assert str(empty) in capsys.readouterr().err


class TestHarmonizeCommand:
    def test_outputs_complete_cases(self, workspace):
        harm = workspace["harm"]
        for mod in ("t1", "t1ce", "t2", "flair", "seg"):
            assert (harm / f"synth-000-{mod}.nii").exists()

    def test_moves_source_toward_reference(self, workspace):
        from gliomaforge.harmonize import ks_statistic

        ref = load_volume(workspace["ref"] / "reference-flair.nii").data
        raw = load_volume(workspace["raw"] / "synth-000-flair.nii").data
        matched = load_volume(workspace["harm"] / "synth-000-flair.nii").data
        before = ks_statistic(raw[raw != 0], ref[ref != 0])
        after = ks_statistic(matched[matched != 0], ref[ref != 0])
        assert after < before
        assert after <= 0.05

    def test_parallel_jobs_match_sequential(self, workspace, tmp_path, capsys):
        out = tmp_path / "harm2"
        rc = main(
            ["harmonize", "--ref-dir", str(workspace["ref"]), "--in", str(workspace["raw"]),
             "--out", str(out), "--jobs", "2"]
        )
        assert rc == EXIT_OK
        a = (workspace["harm"] / "synth-001-t2.nii").read_bytes()
        b = (out / "synth-001-t2.nii").read_bytes()
        assert a == b
        ids = list_case_ids(workspace["raw"])
        assert capsys.readouterr().out.split() == [w for cid in ids for w in ("harmonized", cid)]


    def test_parallel_tasks_leave_the_reference_out(self, workspace, tmp_path, monkeypatch):
        # the reference CDFs go to each worker once, through the pool's
        # initializer, not pickled into every case's task
        sizes = []
        real = cli._map_cases

        def spy(work, tasks, jobs, *rest):
            sizes.extend(len(pickle.dumps(task)) for task in tasks)
            return real(work, tasks, jobs, *rest)

        monkeypatch.setattr(cli, "_map_cases", spy)
        out = tmp_path / "harm2"
        rc = main(
            ["harmonize", "--ref-dir", str(workspace["ref"]), "--in", str(workspace["raw"]),
             "--out", str(out), "--jobs", "2"]
        )
        assert rc == EXIT_OK
        assert len(sizes) == len(list_case_ids(workspace["raw"]))
        assert max(sizes) < 4096
        for path in workspace["harm"].iterdir():
            assert (out / path.name).read_bytes() == path.read_bytes(), path.name


def _gated(task):
    """Return `value` once `flag` exists (at once if it is None), or
    "timed out" after 30 s."""
    flag, value = task
    deadline = time.monotonic() + 30
    while flag is not None and not os.path.exists(flag):
        if time.monotonic() > deadline:
            return "timed out"
        time.sleep(0.01)
    return value


class TestMapCases:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_yields_in_task_order(self, jobs):
        tasks = [(None, value) for value in range(5)]
        assert list(_map_cases(_gated, tasks, jobs)) == list(range(5))

    def test_yields_each_result_as_it_arrives(self, tmp_path):
        # the second task waits for a file the test makes only after it has
        # received the first result
        flag = tmp_path / "go"
        results = _map_cases(_gated, [(None, "first"), (str(flag), "second")], 2)
        assert next(results) == "first"
        flag.touch()
        assert list(results) == ["second"]


def _corrupt_seg_payload(path):
    """Label 9 in the first voxel of a uint8 seg file, whose header stays
    valid: only decoding the payload finds the fault."""
    gz = path.suffix == ".gz"
    data = bytearray(gzip.decompress(path.read_bytes()) if gz else path.read_bytes())
    data[nifti.DEFAULT_VOX_OFFSET] = 9
    path.write_bytes(gzip.compress(bytes(data)) if gz else bytes(data))


def _old_harmonize(ref_dir, in_dir, out_dir, compress, quantiles=256):
    """The per-case harmonize loop as it was before streaming: whole cases
    loaded, reference foregrounds pooled unsorted, one CDF per modality."""
    pooled = {mod: [] for mod in nifti.MODALITIES}
    for case_id in list_case_ids(ref_dir):
        case = nifti.load_case(ref_dir, case_id)
        for mod in nifti.MODALITIES:
            data = case.modalities[mod].data
            pooled[mod].append(data[data != 0])
    cdfs = {mod: build_cdf(np.concatenate(chunks)) for mod, chunks in pooled.items()}
    ext = ".nii.gz" if compress else ".nii"
    for case_id in list_case_ids(in_dir):
        case = nifti.load_case(in_dir, case_id)
        for mod in nifti.MODALITIES:
            matched = match_histogram(case.modalities[mod], cdfs[mod], quantiles=quantiles)
            save_volume(out_dir / f"{case_id}-{mod}{ext}", matched)
        if case.label is not None:
            nifti.save_mask(out_dir / f"{case_id}-seg{ext}", case.label)


@pytest.fixture(scope="module")
def small_cohort(tmp_path_factory):
    """Three 16^3 cases and two reference cases, as .nii and as .nii.gz."""
    root = tmp_path_factory.mktemp("small-cohort")
    for suffix, compress in ((".nii", False), (".nii.gz", True)):
        for case in make_dataset(3, shape=(16, 16, 16), seed=60):
            save_case(root / suffix / "in", case, compress=compress)
        for case in make_dataset(2, shape=(16, 16, 16), seed=80, prefix="ref"):
            save_case(root / suffix / "ref", case, compress=compress)
    return root


class TestHarmonizeStreaming:
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("compress", [False, True], ids=["nii-out", "gz-out"])
    @pytest.mark.parametrize("suffix", [".nii", ".nii.gz"], ids=["nii-in", "gz-in"])
    @pytest.mark.parametrize("refs", [1, 2], ids=["one-ref", "two-refs"])
    def test_outputs_equal_old_per_case_loop(
        self, small_cohort, tmp_path, refs, suffix, compress, jobs
    ):
        src = small_cohort / suffix
        ref = tmp_path / "ref"
        ref.mkdir()
        for path in (src / "ref").iterdir():
            if refs == 2 or path.name.startswith("ref-000-"):
                shutil.copy(path, ref / path.name)
        want, got = tmp_path / "want", tmp_path / "got"
        want.mkdir()
        _old_harmonize(ref, src / "in", want, compress)
        argv = ["harmonize", "--ref-dir", str(ref), "--in", str(src / "in"), "--out", str(got),
                "--jobs", str(jobs)]
        assert main(argv + (["--compress"] if compress else [])) == EXIT_OK
        names = sorted(p.name for p in want.iterdir())
        assert len(names) == 3 * 5
        assert sorted(p.name for p in got.iterdir()) == names
        for name in names:
            assert (got / name).read_bytes() == (want / name).read_bytes(), name

    def test_empty_reference_file_adds_nothing_to_the_pool(self, small_cohort, tmp_path):
        ref = tmp_path / "ref"
        shutil.copytree(small_cohort / ".nii" / "ref", ref)
        save_volume(ref / "ref-001-flair.nii", nifti.Volume.from_array(np.zeros((16, 16, 16))))
        want, got = tmp_path / "want", tmp_path / "got"
        want.mkdir()
        _old_harmonize(ref, small_cohort / ".nii" / "in", want, compress=False)
        argv = ["harmonize", "--ref-dir", str(ref), "--in", str(small_cohort / ".nii" / "in"),
                "--out", str(got)]
        assert main(argv) == EXIT_OK
        for path in want.iterdir():
            assert (got / path.name).read_bytes() == path.read_bytes(), path.name

    def test_at_most_two_decoded_volumes_alive(self, small_cohort, tmp_path, monkeypatch):
        src = small_cohort / ".nii"
        alive, most = [], [0]
        load_volume = nifti.load_volume

        def counting_load_volume(path):
            volume = load_volume(path)
            alive.append(weakref.ref(volume))
            most[0] = max(most[0], sum(ref() is not None for ref in alive))
            return volume

        monkeypatch.setattr(nifti, "load_volume", counting_load_volume)
        argv = ["harmonize", "--ref-dir", str(src / "ref"), "--in", str(src / "in"),
                "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_OK
        assert len(alive) == 2 * 4 + 3 * 4
        assert most[0] <= 2

    @pytest.mark.parametrize(
        "fault, message",
        [("truncated", "payload truncated"), ("truncated-gz", "gzip stream truncated"),
         ("misaligned", "case synth-001: modality dims differ"),
         ("empty", "no nonzero voxels")],
    )
    def test_bad_later_file_in_second_case(self, small_cohort, tmp_path, capsys, fault, message):
        suffix = ".nii.gz" if fault == "truncated-gz" else ".nii"
        raw = tmp_path / "in"
        shutil.copytree(small_cohort / suffix / "in", raw)
        flair = raw / f"synth-001-flair{suffix}"
        if fault.startswith("truncated"):
            flair.write_bytes(flair.read_bytes()[:-7])
        elif fault == "misaligned":
            save_volume(flair, make_case("x", shape=(16, 16, 17), seed=1).modalities["flair"])
        else:
            save_volume(flair, nifti.Volume.from_array(np.zeros((16, 16, 16))))
        out = tmp_path / "out"
        baseline = threading.active_count()
        argv = ["harmonize", "--ref-dir", str(small_cohort / suffix / "ref"), "--in", str(raw),
                "--out", str(out)]
        assert main(argv) == EXIT_DATA
        out_text, err = capsys.readouterr()
        assert message in err
        assert str(flair) in err
        # the first case was reported as soon as its files were in place
        assert "harmonized synth-000" in out_text
        assert "synth-001" not in out_text
        assert threading.active_count() == baseline
        assert not [p.name for p in out.iterdir() if p.name.startswith(".tmp")]
        # the first case streamed out whole before the fault was read; the
        # files of the faulting case already matched are not renamed into place
        assert len(list(out.glob("synth-000-*"))) == 5
        assert not list(out.glob("synth-001-*"))
        assert not list(out.glob("synth-002-*"))

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("suffix", [".nii", ".nii.gz"], ids=["nii", "gz"])
    def test_reference_seg_is_checked_from_its_header(
        self, small_cohort, tmp_path, capsys, suffix, jobs
    ):
        # a reference seg's labels are never used, so a fault only decoding
        # would find is no error; a header that does not fit its case still is
        src = small_cohort / suffix
        ref = tmp_path / "ref"
        shutil.copytree(src / "ref", ref)
        seg = ref / f"ref-001-seg{suffix}"
        _corrupt_seg_payload(seg)
        with pytest.raises(LabelError):
            nifti.load_mask(seg)
        want, got = tmp_path / "want", tmp_path / "got"
        argv = ["harmonize", "--in", str(src / "in"), "--jobs", str(jobs)]
        assert main(argv + ["--ref-dir", str(src / "ref"), "--out", str(want)]) == EXIT_OK
        assert main(argv + ["--ref-dir", str(ref), "--out", str(got)]) == EXIT_OK
        for path in want.iterdir():
            assert (got / path.name).read_bytes() == path.read_bytes(), path.name
        nifti.save_mask(seg, SegmentationMask(np.zeros((16, 17, 16))))
        capsys.readouterr()
        assert main(argv + ["--ref-dir", str(ref), "--out", str(tmp_path / "bad")]) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{seg}: case ref-001: label dims (16, 17, 16) != image dims (16, 16, 16)" in err

    @pytest.mark.parametrize("bad", ["ref-000-t1", "ref-001-flair"])
    def test_truncated_reference_is_a_data_error(self, small_cohort, tmp_path, capsys, bad):
        ref = tmp_path / "ref"
        shutil.copytree(small_cohort / ".nii.gz" / "ref", ref)
        path = ref / f"{bad}.nii.gz"
        path.write_bytes(path.read_bytes()[:-7])
        out = tmp_path / "out"
        baseline = threading.active_count()
        argv = ["harmonize", "--ref-dir", str(ref), "--in", str(small_cohort / ".nii.gz" / "in"),
                "--out", str(out), "--jobs", "1"]
        assert main(argv) == EXIT_DATA
        out_text, err = capsys.readouterr()
        assert "gzip stream truncated" in err
        assert str(path) in err
        assert "harmonized" not in out_text
        assert not out.exists()
        assert threading.active_count() == baseline

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_missing_input_modality_fails_before_any_read(
        self, small_cohort, tmp_path, capsys, monkeypatch, jobs
    ):
        raw = tmp_path / "in"
        shutil.copytree(small_cohort / ".nii" / "in", raw)
        (raw / "synth-002-t2.nii").unlink()
        reads = []

        def recording(read):
            def recorded(path, *args, **kwargs):
                reads.append(path)
                return read(path, *args, **kwargs)
            return recorded

        for name in ("load_volume", "load_mask", "read_header"):
            monkeypatch.setattr(nifti, name, recording(getattr(nifti, name)))
        argv = ["harmonize", "--ref-dir", str(small_cohort / ".nii" / "ref"), "--in", str(raw),
                "--out", str(tmp_path / "out"), "--jobs", str(jobs)]
        assert main(argv) == EXIT_DATA
        assert f"missing file {raw / 'synth-002-t2'}.nii[.gz]" in capsys.readouterr().err
        assert reads == []
        assert not (tmp_path / "out").exists()

    def test_first_input_is_read_while_the_cdfs_are_built(
        self, small_cohort, tmp_path, monkeypatch
    ):
        from gliomaforge import cli

        src = small_cohort / ".nii"
        input_read = threading.Event()
        load_volume, build_cdf = nifti.load_volume, cli.build_cdf

        def flagging_load_volume(path):
            if path.parent == src / "in":
                input_read.set()
            return load_volume(path)

        def waiting_build_cdf(values):
            # the reader decodes the first input on its own, or never does
            assert input_read.wait(30), "no input was read while the CDFs were built"
            return build_cdf(values)

        monkeypatch.setattr(nifti, "load_volume", flagging_load_volume)
        monkeypatch.setattr(cli, "build_cdf", waiting_build_cdf)
        argv = ["harmonize", "--ref-dir", str(src / "ref"), "--in", str(src / "in"),
                "--out", str(tmp_path / "out"), "--jobs", "1"]
        assert main(argv) == EXIT_OK


class TestFeaturesCommand:
    def test_csv_shape(self, workspace):
        text = (workspace["root"] / "features.csv").read_text().strip().splitlines()
        assert text[0] == "case_id," + ",".join(FEATURE_NAMES)
        assert len(text) == 1 + 4

    @pytest.mark.parametrize(
        "fault,named",
        [("missing-t2", "bad-t2.nii"), ("t2-dims", "case bad: modality dims differ"),
         ("t2-spacing", "case bad: modality spacings differ"),
         ("truncated-t2", "payload truncated"),
         ("seg-dims", "case bad: label dims (8, 8, 9) != image dims (8, 8, 8)")],
    )
    def test_unchosen_file_faults_are_data_errors(self, tmp_path, capsys, fault, named):
        # features decodes only FLAIR; the other files are still checked,
        # and every error names the file at fault
        case = make_case("bad", shape=(8, 8, 8), seed=2)
        save_case(tmp_path, case)
        t2 = tmp_path / "bad-t2.nii"
        if fault == "missing-t2":
            t2.unlink()
        elif fault == "t2-dims":
            save_volume(t2, make_case("x", shape=(8, 8, 9), seed=2).modalities["t2"])
        elif fault == "t2-spacing":
            other = make_case("x", shape=(8, 8, 8), seed=2, spacing=(1.0, 1.0, 2.0))
            save_volume(t2, other.modalities["t2"])
        elif fault == "truncated-t2":
            t2.write_bytes(t2.read_bytes()[:-1])
        else:
            nifti.save_mask(tmp_path / "bad-seg.nii", SegmentationMask(np.zeros((8, 8, 9))))
        rc = main(["features", "--in", str(tmp_path), "--out", str(tmp_path / "f.csv")])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert named in err
        assert str(tmp_path / ("bad-seg.nii" if fault == "seg-dims" else "bad-t2.nii")) in err
        assert not (tmp_path / "f.csv").exists()

    def test_seg_payload_is_not_decoded(self, tmp_path):
        # features reads no label, so a fault only decoding the seg would
        # find is no error
        save_case(tmp_path / "in", make_case("case", shape=(8, 8, 8), seed=2))
        argv = ["features", "--in", str(tmp_path / "in"), "--out"]
        assert main(argv + [str(tmp_path / "clean.csv")]) == EXIT_OK
        _corrupt_seg_payload(tmp_path / "in" / "case-seg.nii")
        assert main(argv + [str(tmp_path / "corrupt.csv")]) == EXIT_OK
        assert (tmp_path / "corrupt.csv").read_bytes() == (tmp_path / "clean.csv").read_bytes()

    def test_unknown_config_modality_is_data_error(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("modality = t2w\n")
        rc = main(["features", "--in", str(workspace["harm"]), "--out", str(tmp_path / "f.csv"),
                   "--config", str(cfg)])
        assert rc == EXIT_DATA
        assert "t2w" in capsys.readouterr().err


class TestStratifyCommand:
    def test_folds_csv_valid(self, workspace):
        assignment = read_folds_csv(workspace["root"] / "folds.csv")
        assert len(assignment.case_ids) == 4
        assert set(assignment.folds.tolist()) <= {0, 1}

    def test_reruns_byte_identical(self, workspace, tmp_path):
        out = tmp_path / "folds2.csv"
        argv = ["stratify", "--features", str(workspace["root"] / "features.csv"),
                "--k", "2", "--folds", "2", "--out", str(out), "--seed", "7"]
        assert main(argv) == EXIT_OK
        assert out.read_bytes() == (workspace["root"] / "folds.csv").read_bytes()


class TestTrainingCommands:
    def test_pretrain_artifacts(self, workspace):
        root = workspace["root"]
        assert (root / "pre.ck").exists()
        assert (root / "pre.ck.cfg").exists()
        log = (root / "pre.ck.log.csv").read_text().splitlines()
        assert log[0] == "epoch,lr,train_loss,val_dice"
        assert len(log) == 2

    def test_checkpoint_config_roundtrips(self, workspace):
        text = (workspace["root"] / "pre.ck.cfg").read_text()
        cfg = model_config_from_text(text)
        assert cfg.stage_channels == [8, 16, 32, 64]
        assert cfg.decoder_channels == 8

    def test_finetune_from_checkpoint(self, workspace, tmp_path):
        root = workspace["root"]
        out = tmp_path / "fine.ck"
        rc = main(
            ["finetune", "--data", str(workspace["harm"]), "--folds", str(root / "folds.csv"),
             "--val-fold", "0", "--ckpt", str(root / "pre.ck"), "--out", str(out),
             "--config", str(workspace["cfg"]), "--epochs", "1"]
        )
        assert rc == EXIT_OK
        assert out.exists() and (tmp_path / "fine.ck.log.csv").exists()

    def test_finetune_val_fold_holding_no_case_is_data_error(self, workspace, tmp_path, capsys):
        root = workspace["root"]
        out = tmp_path / "fine.ck"
        rc = main(
            ["finetune", "--data", str(workspace["harm"]), "--folds", str(root / "folds.csv"),
             "--val-fold", "9", "--ckpt", str(root / "pre.ck"), "--out", str(out),
             "--config", str(workspace["cfg"]), "--epochs", "1"]
        )
        assert rc == EXIT_DATA
        assert "validation fold 9 holds no case" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_channel_reduction_is_data_error(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(TINY_CFG + "channel_attn_reduction = 0\n")  # lands in [model]
        rc = main(["pretrain", "--data", str(workspace["harm"]), "--out", str(tmp_path / "o.ck"),
                   "--config", str(cfg), "--epochs", "1"])
        assert rc == EXIT_DATA
        assert "gliomaforge: error:" in capsys.readouterr().err

    def test_bad_seg_payload_is_data_error(self, workspace, tmp_path, capsys):
        data = tmp_path / "harm"
        shutil.copytree(workspace["harm"], data)
        _corrupt_seg_payload(data / "synth-001-seg.nii")
        rc = main(["pretrain", "--data", str(data), "--out", str(tmp_path / "o.ck"),
                   "--config", str(workspace["cfg"]), "--epochs", "1"])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{data / 'synth-001-seg.nii'}: mask contains labels outside" in err
        assert not (tmp_path / "o.ck").exists()

    def test_finetune_missing_checkpoint_is_data_error(self, workspace, tmp_path):
        rc = main(
            ["finetune", "--data", str(workspace["harm"]), "--ckpt", str(tmp_path / "no.ck"),
             "--out", str(tmp_path / "o.ck"), "--config", str(workspace["cfg"])]
        )
        assert rc == EXIT_DATA


class TestPredictCommand:
    def _case_dir(self, workspace, tmp_path, case="synth-000"):
        d = tmp_path / "case"
        d.mkdir()
        for f in workspace["raw"].glob(f"{case}-*"):
            shutil.copy(f, d / f.name)
        return d

    def test_mask_matches_input_dims_and_label_set(self, workspace, tmp_path):
        case_dir = self._case_dir(workspace, tmp_path)
        out = tmp_path / "seg.nii"
        rc = main(["predict", "--ckpt", str(workspace["root"] / "pre.ck"),
                   "--in", str(case_dir), "--out", str(out)])
        assert rc == EXIT_OK
        mask = load_mask(out)
        assert mask.labels.shape == (32, 32, 32)
        assert set(np.unique(mask.labels)) <= {0, 1, 2, 3}

    def test_non_multiple_of_32_dims_round_trip(self, workspace, tmp_path):
        # internal padding to 64^3 must crop back to the input grid
        case = make_case("odd", shape=(40, 36, 44), seed=3)
        case_dir = tmp_path / "odd"
        save_case(case_dir, case)
        out = tmp_path / "odd-seg.nii"
        rc = main(["predict", "--ckpt", str(workspace["root"] / "pre.ck"),
                   "--in", str(case_dir), "--out", str(out)])
        assert rc == EXIT_OK
        assert load_mask(out).labels.shape == (40, 36, 44)

    def test_deterministic_output_bytes(self, workspace, tmp_path):
        case_dir = self._case_dir(workspace, tmp_path)
        outs = []
        for name in ("a.nii", "b.nii"):
            out = tmp_path / name
            assert main(["predict", "--ckpt", str(workspace["root"] / "pre.ck"),
                         "--in", str(case_dir), "--out", str(out)]) == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize(
        "ckpt_cfg, config",
        [("[[[\n", None), ("model.decoder_channels = abc\n", None),
         (None, "[model]\ndecoder_channels = abc\n")],
        ids=["unparseable-ckpt-cfg", "bad-value-ckpt-cfg", "bad-value-config"],
    )
    def test_malformed_model_config_is_data_error(
        self, workspace, tmp_path, capsys, ckpt_cfg, config
    ):
        ckpt = tmp_path / "m.ck"
        shutil.copy(workspace["root"] / "pre.ck", ckpt)
        if ckpt_cfg is not None:
            (tmp_path / "m.ck.cfg").write_text(ckpt_cfg)
        argv = ["predict", "--ckpt", str(ckpt), "--in", str(self._case_dir(workspace, tmp_path)),
                "--out", str(tmp_path / "seg.nii")]
        if config is not None:
            (tmp_path / "bad.cfg").write_text(config)
            argv += ["--config", str(tmp_path / "bad.cfg")]
        assert main(argv) == EXIT_DATA
        assert "gliomaforge: error:" in capsys.readouterr().err

    def test_quantiles_flag_needs_ref_dir(self, workspace, tmp_path, capsys):
        argv = ["predict", "--ckpt", str(workspace["root"] / "pre.ck"),
                "--in", str(self._case_dir(workspace, tmp_path)), "--out", str(tmp_path / "seg.nii")]
        assert main(argv + ["--quantiles", "64"]) == EXIT_DATA
        assert "--ref-dir" in capsys.readouterr().err
        # the config key is shared with harmonize, so it alone is no error
        cfg = tmp_path / "q.cfg"
        cfg.write_text("quantiles = 64\n")
        assert main(argv + ["--config", str(cfg)]) == EXIT_OK

    @pytest.mark.parametrize("ref", [False, True], ids=["raw", "ref"])
    def test_raw_modalities_freed_before_the_forward(self, workspace, tmp_path, monkeypatch, ref):
        loaded, alive = [], []

        def loading(*args, **kwargs):
            case = nifti.load_case(*args, **kwargs)
            loaded.extend(weakref.ref(vol.data) for vol in case.modalities.values())
            return case

        def forward(model, images, dims):
            alive.extend(data() is not None for data in loaded)
            return predict_labels(model, images, dims)

        monkeypatch.setattr(cli, "load_case", loading)
        monkeypatch.setattr(cli, "predict_labels", forward)
        argv = ["predict", "--ckpt", str(workspace["root"] / "pre.ck"),
                "--in", str(self._case_dir(workspace, tmp_path)), "--out", str(tmp_path / "s.nii")]
        assert main(argv + (["--ref-dir", str(workspace["ref"])] if ref else [])) == EXIT_OK
        assert alive == [False] * 4

    def test_reference_seg_is_checked_from_its_header(self, workspace, tmp_path, capsys):
        argv = ["predict", "--ckpt", str(workspace["root"] / "pre.ck"),
                "--in", str(self._case_dir(workspace, tmp_path))]
        ref = tmp_path / "ref"
        shutil.copytree(workspace["ref"], ref)
        clean, corrupt = tmp_path / "clean.nii", tmp_path / "corrupt.nii"
        assert main(argv + ["--ref-dir", str(workspace["ref"]), "--out", str(clean)]) == EXIT_OK
        _corrupt_seg_payload(ref / "reference-seg.nii")
        assert main(argv + ["--ref-dir", str(ref), "--out", str(corrupt)]) == EXIT_OK
        assert corrupt.read_bytes() == clean.read_bytes()
        nifti.save_mask(ref / "reference-seg.nii", SegmentationMask(np.zeros((32, 32, 31))))
        assert main(argv + ["--ref-dir", str(ref), "--out", str(corrupt)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{ref / 'reference-seg.nii'}: case reference: label dims (32, 32, 31)" in err

    def test_input_seg_is_checked_from_its_header(self, workspace, tmp_path, capsys):
        # predict reads no label of its input case either
        case_dir = self._case_dir(workspace, tmp_path)
        argv = ["predict", "--ckpt", str(workspace["root"] / "pre.ck"), "--in", str(case_dir)]
        clean, corrupt = tmp_path / "clean.nii", tmp_path / "corrupt.nii"
        assert main(argv + ["--out", str(clean)]) == EXIT_OK
        seg = case_dir / "synth-000-seg.nii"
        _corrupt_seg_payload(seg)
        assert main(argv + ["--out", str(corrupt)]) == EXIT_OK
        assert corrupt.read_bytes() == clean.read_bytes()
        nifti.save_mask(seg, SegmentationMask(np.zeros((32, 32, 31))))
        assert main(argv + ["--out", str(corrupt)]) == EXIT_DATA
        assert f"{seg}: case synth-000: label dims (32, 32, 31)" in capsys.readouterr().err

    def test_multi_case_dir_needs_case_id(self, workspace, tmp_path):
        out = tmp_path / "seg.nii"
        rc = main(["predict", "--ckpt", str(workspace["root"] / "pre.ck"),
                   "--in", str(workspace["raw"]), "--out", str(out)])
        assert rc == EXIT_DATA
        rc = main(["predict", "--ckpt", str(workspace["root"] / "pre.ck"),
                   "--in", str(workspace["raw"]), "--case-id", "synth-001",
                   "--out", str(out)])
        assert rc == EXIT_OK


def _old_predict_case(model, case, ref_cdfs=None, quantiles=256):
    """predict_case's front end as it was: a z-scored list of channels,
    stacked, then padded by predict_labels."""
    channels = []
    for mod in nifti.MODALITIES:
        vol = case.modalities[mod]
        if ref_cdfs is not None:
            vol = match_histogram(vol, ref_cdfs[mod], quantiles=quantiles)
        data = vol.data.astype(np.float64)
        fg = data != 0
        out = np.zeros_like(data)
        out[fg] = (data[fg] - data[fg].mean()) / data[fg].std()
        channels.append(out.astype(np.float32))
    labels = predict_labels(model, np.stack(channels).astype(np.float32))
    return keep_largest_per_class(SegmentationMask(labels=labels, spacing=case.spacing))


def _int16_case(case):
    """`case` as decoded from int16 files: integer-valued volumes."""
    rounded = {
        mod: Volume.from_array(np.rint(vol.data * 100).astype(np.int16), vol.spacing)
        for mod, vol in case.modalities.items()
    }
    return MultiModalCase(case.case_id, rounded, case.label)


class _Probe:
    """A model stand-in: records its input and the traced memory peak when
    called, and returns all-zero logits."""

    def __call__(self, x):
        self.input = x.data
        self.peak = tracemalloc.get_traced_memory()[1]
        return Tensor(np.zeros((1, 4, *x.shape[2:]), dtype=np.float32))


class TestPredictCase:
    """predict_case z-scores each modality straight into one zero-padded
    input; its masks are those of the old stack-then-pad front end."""

    @pytest.fixture(scope="class")
    def net(self):
        return GliomaForgeNet(ModelConfig(**SMALL_MODEL), seed=3)

    @pytest.mark.parametrize("kind", ["float32", "int16"])
    @pytest.mark.parametrize("harmonized", [False, True], ids=["raw", "ref"])
    def test_masks_equal_old_front_end(self, net, kind, harmonized):
        case = make_case("odd", shape=(40, 36, 20), seed=5)
        if kind == "int16":
            case = _int16_case(case)
        cdfs = None
        if harmonized:
            ref = make_case("ref", shape=(24, 24, 24), seed=6)
            if kind == "int16":
                ref = _int16_case(ref)
            cdfs = {mod: build_cdf(vol.data) for mod, vol in ref.modalities.items()}
        want = _old_predict_case(net, case, ref_cdfs=cdfs)
        got = predict_case(net, case, ref_cdfs=cdfs)  # takes the modalities out of case
        assert got.labels.shape == (40, 36, 20)
        assert got.labels.tobytes() == want.labels.tobytes()

    def test_front_end_holds_one_padded_input(self):
        # a 60x50x40 case pads to 64^3: the front end may hold the padded
        # float32 input, a foreground mask and one modality's float64
        # foreground with the one temporary its std takes
        case = make_case("mem", shape=(60, 50, 40), seed=7)
        foreground = max(int(np.count_nonzero(v.data)) for v in case.modalities.values())
        probe = _Probe()
        tracemalloc.start()
        try:
            predict_case(probe, case, postprocess=False)
        finally:
            tracemalloc.stop()
        assert probe.input.shape == (1, 4, 64, 64, 64)
        voxels = 60 * 50 * 40
        bound = probe.input.nbytes + voxels + 2 * 8 * foreground + (256 << 10)
        assert probe.peak <= bound


class TestEvaluateCommand:
    def test_self_evaluation_perfect(self, workspace, tmp_path):
        pred = tmp_path / "pred"
        pred.mkdir()
        for f in workspace["raw"].glob("*-seg.nii"):
            shutil.copy(f, pred / f.name.replace("-seg", ""))
        out = tmp_path / "metrics.csv"
        rc = main(["evaluate", "--pred", str(pred), "--gt", str(workspace["raw"]),
                   "--out", str(out)])
        assert rc == EXIT_OK
        rows = read_metrics_csv(out)
        per_case = [r for r in rows if r["case_id"] not in ("mean", "std")]
        assert len(per_case) == 4 * 3
        assert all(r["dice"] == 1.0 and r["hd95"] == 0.0 for r in per_case)

    def test_parallel_jobs_write_the_same_csv(self, workspace, tmp_path):
        # shifted predictions, so every metric is a nontrivial float
        pred = tmp_path / "pred"
        pred.mkdir()
        for f in workspace["raw"].glob("*-seg.nii"):
            labels = np.roll(load_mask(f).labels, 2, axis=0)
            nifti.save_mask(pred / f.name, nifti.SegmentationMask(labels=labels))
        outs = [tmp_path / "m1.csv", tmp_path / "m2.csv"]
        for jobs, out in zip(("1", "2"), outs):
            rc = main(["evaluate", "--pred", str(pred), "--gt", str(workspace["raw"]),
                       "--out", str(out), "--jobs", jobs])
            assert rc == EXIT_OK
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert len(read_metrics_csv(outs[0])) == 4 * 3 + 2 * 3

    def test_missing_predictions_is_data_error(self, workspace, tmp_path):
        (tmp_path / "pred").mkdir()
        rc = main(["evaluate", "--pred", str(tmp_path / "pred"),
                   "--gt", str(workspace["raw"]), "--out", str(tmp_path / "m.csv")])
        assert rc == EXIT_DATA


class TestSelftestCommand:
    def test_exits_zero_when_suites_pass(self, capsys):
        assert main(["selftest", "--seed", "11"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") >= 8
