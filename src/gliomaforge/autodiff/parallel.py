"""Independent blocks of the grad-off forward, run on every CPU.

`map_blocks(fn, jobs)` calls `fn(job)` for each job on every CPU in the
process's affinity mask: the calling thread and a pool with one thread per
other CPU, made on first use, take the jobs in list order. The caller works
rather than waits, so a 2-CPU map grows one pool thread's malloc arena, not
two. Each job writes its own slice of one preallocated output with the
ufunc and BLAS calls the inline loop makes, and OpenBLAS sums each entry in
the same order at any thread count, so every value keeps its bits.

The loop runs inline when there is one job or one CPU, and inside a job
(a nested map). Jobs that may call BLAS pool only with grad off inside
`one_blas_thread`, which pins numpy's OpenBLAS to one thread: two threads
each driving a multi-threaded BLAS would fight over the cores. So where
the library is not found, and in training, whose recorded Mix-FFN node is
one job anyway, they run inline.

`train.predict_labels` runs its whole forward inside `one_blas_thread`.
Pinning only around each map left OpenBLAS's own worker spinning on the
other core between maps, which gave back most of the gain.
"""

import contextlib
import functools
import os
import threading

from .tensor import is_grad_enabled

# numpy's bundled OpenBLAS and its thread-count calls. Once scipy is loaded
# the process also maps scipy's own libscipy_openblas-*.so, whose calls lack
# the 64_ suffix and do not reach numpy's products.
_NUMPY_OPENBLAS = "/libscipy_openblas64_-"
_GET_THREADS = "scipy_openblas_get_num_threads64_"
_SET_THREADS = "scipy_openblas_set_num_threads64_"

# per thread: `pinned` inside `one_blas_thread`, `in_map` while running a
# map's jobs (for good in a pool worker)
_state = threading.local()


def _cpus():
    """CPUs this process may run on."""
    if not hasattr(os, "sched_getaffinity"):  # not on macOS or Windows
        return 1
    return len(os.sched_getaffinity(0))


@functools.cache
def _openblas():
    """(get, set) of numpy's OpenBLAS thread count, or None if it is not
    mapped into this process or lacks the calls."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if _NUMPY_OPENBLAS in line})
    except OSError:
        return None
    import ctypes

    for path in paths:
        lib = ctypes.CDLL(path)  # the mapped library itself: dlopen returns its handle
        if hasattr(lib, _GET_THREADS) and hasattr(lib, _SET_THREADS):
            get, put = getattr(lib, _GET_THREADS), getattr(lib, _SET_THREADS)
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with numpy's OpenBLAS at one thread, and restore the
    previous count after it, also when it raises. Does nothing where the
    library is not found."""
    blas = _openblas()
    if blas is None:
        yield
        return
    get, put = blas
    previous, pinned = get(), getattr(_state, "pinned", False)
    put(1)
    _state.pinned = True
    try:
        yield
    finally:
        put(previous)
        _state.pinned = pinned


def _mark_worker():
    _state.in_map = True


@functools.cache
def _executor(pid):
    """The pool of process `pid`: a forked child has none of its parent's
    pool threads, so it makes its own."""
    from concurrent.futures import ThreadPoolExecutor  # imports logging: only when used

    return ThreadPoolExecutor(_cpus() - 1, "gliomaforge-block", initializer=_mark_worker)


def _pooled(blas):
    if getattr(_state, "in_map", False) or _cpus() < 2:
        return False
    return not blas or (getattr(_state, "pinned", False) and not is_grad_enabled())


def map_blocks(fn, jobs, blas=True):
    """Call `fn(job)` for each of `jobs`, a list, on the pool or inline (see
    the module docstring); `blas` says whether a job may call BLAS. Every
    job has ended when this returns, and a job's error is raised here."""
    if len(jobs) < 2 or not _pooled(blas):
        for job in jobs:
            fn(job)
        return
    from concurrent.futures import wait

    pending, lock, done = iter(jobs), threading.Lock(), object()

    def drain():
        while True:
            with lock:
                job = next(pending, done)
            if job is done:
                return
            fn(job)

    pool = _executor(os.getpid())
    futures = [pool.submit(drain) for _ in range(min(_cpus(), len(jobs)) - 1)]
    _state.in_map = True
    try:
        drain()
    finally:
        _state.in_map = False
        wait(futures)
    for future in futures:
        future.result()
