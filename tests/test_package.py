"""The package's public names load on first use, and loading a model
imports only what it needs."""

import importlib
import os
import subprocess
import sys

import numpy as np
import pytest

import gliomaforge

# Build the default network from a .cfg and load a checkpoint, as
# `predict` and the benchmark's set-up do, then list what that imported.
_SETUP_SCRIPT = """
import sys
from pathlib import Path

from gliomaforge import config
from gliomaforge.model import GliomaForgeNet

cfg, ckpt = sys.argv[1:]
model = GliomaForgeNet(config=config.model_config_from_text(Path(cfg).read_text()))
model.load(ckpt)
print("\\n".join(sorted(sys.modules)))
"""

UNUSED_BY_SETUP = [
    "gliomaforge.train",
    "gliomaforge.harmonize",
    "gliomaforge.nifti",
    "gliomaforge.metrics",
    "gliomaforge.radiomics",
    "gliomaforge.stratify",
    "gliomaforge.synthetic",
    "scipy",
    "numpy.random",
]


def test_model_setup_imports_only_what_it_uses(tmp_path):
    from gliomaforge.autodiff import save_checkpoint
    from gliomaforge.config import model_config_to_text
    from gliomaforge.model import GliomaForgeNet

    # the default model's names and shapes, with no weights drawn
    net = GliomaForgeNet()
    ckpt = tmp_path / "net.ckpt"
    params = net.named_parameters().items()
    save_checkpoint(ckpt, {name: np.zeros(p.shape, p.dtype) for name, p in params})
    cfg = tmp_path / "net.ckpt.cfg"
    cfg.write_text(model_config_to_text(net.config))
    src = os.path.dirname(os.path.dirname(gliomaforge.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_SCRIPT, str(cfg), str(ckpt)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    modules = set(proc.stdout.split())
    assert "gliomaforge.model" in modules
    assert [m for m in UNUSED_BY_SETUP if m in modules] == []


def test_every_public_name_is_its_submodules_object():
    for name in gliomaforge.__all__:
        module = importlib.import_module(f"gliomaforge.{gliomaforge._EXPORTS[name]}")
        assert getattr(gliomaforge, name) is getattr(module, name), name


def test_lazy_table_lists_all_and_dir_shows_it():
    assert sorted(gliomaforge._EXPORTS) == sorted(gliomaforge.__all__)
    assert len(set(gliomaforge.__all__)) == len(gliomaforge.__all__)
    assert set(gliomaforge.__all__) <= set(dir(gliomaforge))


def test_star_import_and_unknown_names():
    namespace = {}
    exec("from gliomaforge import *", namespace)
    assert set(gliomaforge.__all__) <= set(namespace)
    assert namespace["fit"] is gliomaforge.fit
    with pytest.raises(AttributeError, match="not_a_name"):
        gliomaforge.not_a_name
