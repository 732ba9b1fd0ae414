"""The grad-off forward's blocks on every CPU: `autodiff.parallel`.

Each pooled loop is compared with the same loop run inline, byte for byte.
On a one-CPU machine (`taskset -c 0`) every map runs inline, and these
tests check that fallback.
"""

import multiprocessing
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from gliomaforge import metrics
from gliomaforge import model as model_module
from gliomaforge.autodiff import Tensor, no_grad
from gliomaforge.autodiff import parallel
from gliomaforge.autodiff.parallel import map_blocks, one_blas_thread
from gliomaforge.metrics import keep_largest_per_class
from gliomaforge.model import GliomaForgeNet, ModelConfig
from gliomaforge.nifti import SegmentationMask
from gliomaforge.selftest import SMALL_MODEL as SMALL, random_mix_ffn
from gliomaforge.train import predict_labels

MULTI_CPU = parallel._cpus() > 1


def inline_map(fn, jobs, blas=True):
    """The loop `map_blocks` replaces: the reference."""
    for job in jobs:
        fn(job)


def class_loop(labels):
    """`keep_largest_per_class` as one loop over the classes, each erasing
    in the grid the ones before it erased in: the reference."""
    labels = labels.copy()
    for cls in (1, 2, 3):
        mask = labels == cls
        box = metrics._bbox(mask)
        if box is None:
            continue
        comp, count = metrics.connected_components(mask[box])
        if count <= 1:
            continue
        winner = int(np.argmax(np.bincount(comp.ravel())[1:])) + 1
        labels[box][(comp != 0) & (comp != winner)] = 0
    return labels


@pytest.fixture
def pool_entries(monkeypatch):
    """Counts the maps that went to the pool."""
    entries = []
    executor = parallel._executor

    def counting(pid):
        entries.append(pid)
        return executor(pid)

    monkeypatch.setattr(parallel, "_executor", counting)
    return entries


class TestPooledLoopsKeepTheirBits:
    @pytest.mark.parametrize("n", [1, 2])
    def test_mix_ffn_planes(self, monkeypatch, pool_entries, n):
        # default stage-1 widths on 6 planes of 16x16: one plane a block,
        # so 6 jobs per sample
        ffn = random_mix_ffn(48, 4, seed=n)
        grid = (6, 16, 16)
        rng = np.random.default_rng(40 + n)
        x = rng.normal(size=(n, int(np.prod(grid)), 48)).astype(np.float32)
        with no_grad(), one_blas_thread():  # as `predict_labels` runs the forward
            pooled = ffn._planes(x, grid)
            entered = len(pool_entries)
            monkeypatch.setattr(model_module, "map_blocks", inline_map)
            inline = ffn._planes(x, grid)
        assert pooled.tobytes() == inline.tobytes()
        assert entered == (1 if MULTI_CPU and parallel._openblas() else 0)

    def test_decoder_labels(self, monkeypatch, pool_entries):
        net = GliomaForgeNet(ModelConfig(**{**SMALL, "decoder_channels": 48}), seed=2)
        dec = net.decoder
        rng = np.random.default_rng(26)
        for p in (dec.upfinal.bias, dec.head.bias):  # zero at init
            p.data = rng.normal(size=p.shape).astype(np.float32)
        x = Tensor(rng.normal(size=(2, 48, 16, 8, 16)).astype(np.float32))
        with no_grad(), one_blas_thread():
            pooled = dec.labels(x, (60, 30, 61))
            entered = len(pool_entries)
            monkeypatch.setattr(model_module, "map_blocks", inline_map)
            inline = dec.labels(x, (60, 30, 61))
        assert pooled.tobytes() == inline.tobytes()
        assert entered == (1 if MULTI_CPU and parallel._openblas() else 0)

    @pytest.mark.parametrize("chunk", [1 << 18, 97])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_keep_largest_per_class(self, monkeypatch, pool_entries, seed, chunk):
        # blobs of every class, many components each, some touching others;
        # a 97-voxel chunk makes the component sizes sum over many chunks
        monkeypatch.setattr(metrics, "_BINCOUNT_CHUNK", chunk)
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 4, size=(20, 18, 22)).astype(np.uint8)
        labels[rng.random(labels.shape) < 0.5] = 0
        labels[2:9, 3:10, 4:12] = 2
        seg = SegmentationMask(labels=labels, spacing=(1.0, 1.0, 1.0))
        pooled = keep_largest_per_class(seg).labels
        entered = len(pool_entries)
        monkeypatch.setattr(metrics, "map_blocks", inline_map)
        inline = keep_largest_per_class(seg).labels
        assert pooled.tobytes() == inline.tobytes() == class_loop(labels).tobytes()
        assert seg.labels.tobytes() == labels.tobytes()  # the input is left alone
        assert entered == (1 if MULTI_CPU else 0)

    def test_predict_labels(self, monkeypatch):
        net = GliomaForgeNet(ModelConfig(**SMALL), seed=5)
        rng = np.random.default_rng(9)
        images = rng.normal(size=(4, 64, 40, 33)).astype(np.float32)
        pooled = predict_labels(net, images)
        monkeypatch.setattr(model_module, "map_blocks", inline_map)
        inline = predict_labels(net, images)
        assert pooled.tobytes() == inline.tobytes()


@pytest.mark.skipif(parallel._openblas() is None, reason="numpy's OpenBLAS not found")
class TestOneBlasThread:
    def test_whole_forward_runs_on_one_blas_thread(self, monkeypatch):
        get = parallel._openblas()[0]
        before, seen = get(), []
        forward = GliomaForgeNet.forward

        def spying(self, *args, **kwargs):
            seen.append(get())
            out = forward(self, *args, **kwargs)
            seen.append(get())
            return out

        monkeypatch.setattr(GliomaForgeNet, "__call__", spying)
        net = GliomaForgeNet(ModelConfig(**SMALL), seed=1)
        predict_labels(net, np.zeros((4, 32, 32, 32), np.float32))
        assert seen == [1, 1] and get() == before

    def test_job_error_propagates_and_count_is_restored(self):
        get = parallel._openblas()[0]
        before, ran = get(), []

        def job(i):
            if i == 3:
                raise ValueError("job 3")
            ran.append(i)

        with pytest.raises(ValueError, match="job 3"):
            with no_grad(), one_blas_thread():
                map_blocks(job, list(range(8)))
        assert get() == before
        assert not getattr(parallel._state, "pinned", False)
        assert 3 not in ran and {0, 1, 2} <= set(ran)


class TestMapBlocks:
    def test_error_of_a_pooled_job_propagates(self):
        def job(i):
            if i == 0:
                raise KeyError("first")

        with pytest.raises(KeyError, match="first"):
            map_blocks(job, [0, 1, 2, 3], blas=False)
        map_blocks(lambda i: None, [0, 1], blas=False)  # the pool still works

    def test_nested_map_runs_inline(self, pool_entries):
        threads = {}

        def inner(key):
            threads[key] = threading.get_ident()

        def outer(i):
            threads[i] = threading.get_ident()
            map_blocks(inner, [(i, 0), (i, 1), (i, 2)], blas=False)

        map_blocks(outer, [0, 1, 2, 3], blas=False)
        for i in range(4):
            assert threads[i, 0] == threads[i, 1] == threads[i, 2] == threads[i]
        assert len(pool_entries) == (1 if MULTI_CPU else 0)

    def test_one_job_never_builds_the_pool(self, monkeypatch):
        def no_pool(pid):
            raise AssertionError("the pool was asked for")

        monkeypatch.setattr(parallel, "_executor", no_pool)
        done = []
        with no_grad(), one_blas_thread():
            map_blocks(done.append, [7])
            map_blocks(done.append, [8], blas=False)
        assert done == [7, 8]

    def test_blas_jobs_run_inline_with_grad_or_unpinned(self, pool_entries):
        done = []
        with one_blas_thread():
            map_blocks(done.append, [1, 2, 3])  # grad on
        with no_grad():
            map_blocks(done.append, [4, 5, 6])  # not pinned
        assert done == [1, 2, 3, 4, 5, 6] and pool_entries == []

    def test_every_job_runs_once_under_contention(self, monkeypatch):
        # more threads than cores, switching as often as the interpreter
        # lets them: a job taken twice or never breaks the counts
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(7, initializer=parallel._mark_worker)
        monkeypatch.setattr(parallel, "_cpus", lambda: 8)
        monkeypatch.setattr(parallel, "_executor", lambda pid: pool)
        counts = [0] * 3000

        def job(i):
            counts[i] += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            map_blocks(job, list(range(len(counts))), blas=False)
        finally:
            sys.setswitchinterval(interval)
            pool.shutdown()
        assert counts == [1] * len(counts)

    def test_forked_child_makes_its_own_pool(self):
        map_blocks(lambda i: None, [0, 1, 2], blas=False)  # the parent's pool exists
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(1) as workers:
            result = workers.apply_async(_child_map)
            assert result.get(timeout=60) == [0, 1, 4, 9]


def _child_map():
    out = [None] * 4

    def job(i):
        out[i] = i * i

    map_blocks(job, [0, 1, 2, 3], blas=False)
    return out


_ONE_CPU_SCRIPT = """
import os, sys
import numpy as np
os.sched_setaffinity(0, {int(sys.argv[1])})
from gliomaforge.autodiff import parallel
from gliomaforge.model import GliomaForgeNet, ModelConfig
from gliomaforge.selftest import SMALL_MODEL
from gliomaforge.train import predict_labels
config = ModelConfig(**SMALL_MODEL)
images = np.random.default_rng(9).normal(size=(4, 64, 40, 33)).astype(np.float32)
labels = predict_labels(GliomaForgeNet(config, seed=5), images)
assert parallel._executor.cache_info().currsize == 0, "the pool was made"
sys.stdout.write(labels.tobytes().hex())
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
def test_one_cpu_runs_inline_with_the_same_labels():
    net = GliomaForgeNet(ModelConfig(**SMALL), seed=5)
    images = np.random.default_rng(9).normal(size=(4, 64, 40, 33)).astype(np.float32)
    want = predict_labels(net, images)
    src = os.path.dirname(os.path.dirname(model_module.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    cpu = min(os.sched_getaffinity(0))
    proc = subprocess.run(
        [sys.executable, "-c", _ONE_CPU_SCRIPT, str(cpu)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert bytes.fromhex(proc.stdout) == want.tobytes()
