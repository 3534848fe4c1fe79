"""Threads of the build, of the ULV factorization and of the matvec.

Both phases run many small dense kernels (QR, SVD, products of a few
hundred rows), which run faster on one BLAS thread than on OpenBLAS's own
pool, so ``one_blas_thread`` pins every loaded OpenBLAS to one thread for
their duration.  The cores that frees go to the paper's level parallelism:
``map_nodes`` runs one level's node passes on the calling thread and one
pool thread, which take them from one queue, or on the calling thread alone
with one core.  The first apply's fill of its block groups
(``_StructuredMatrix.block_groups``) goes through it too: one kernel call
per group, the largest first.  A calling thread that only waited would
leave both node threads allocating in malloc arenas of their own, which
cost the sunflower double-layer build at n = 2560 about 10 MiB of peak
memory and 5-7% of its time.  The matvec is pinned too: its stacked
products are small ones (a rank or a leaf size of rows by a few hundred
columns per block row), and handing each to a second BLAS thread makes it
wait for that thread, long when another process holds that core.  A
one-column apply whose block rows of one kind hold at least 16 MiB in
slices that numpy multiplies without the interpreter lock
(``apply._apply_groups``) sends its stacked products, the largest first,
through ``map_nodes`` instead, and adds them up on the calling thread in
group order; other applies compute them on the calling thread alone.  The
solve keeps the default BLAS threads.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import queue
import threading
from concurrent.futures import ThreadPoolExecutor

# thread counts are process-wide in OpenBLAS, so the pin's state is too
_lock = threading.Lock()
_depth = 0          # open one_blas_thread blocks, over all threads
_saved = []         # (set_num_threads, count before the outermost block)


def _thread_calls(path):
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    for prefix in ("scipy_openblas_", "openblas_"):
        for suffix in ("64_", ""):
            get = getattr(lib, prefix + "get_num_threads" + suffix, None)
            put = getattr(lib, prefix + "set_num_threads" + suffix, None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@functools.cache
def openblas_libs() -> tuple:
    """(get_num_threads, set_num_threads) of each OpenBLAS copy the process
    has loaded (numpy and scipy each bundle one); empty where none is found
    or the process maps cannot be read.  The maps are read once: ``import
    smash`` has loaded both copies by then, and smash calls no other."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower()})
    except OSError:
        paths = []
    return tuple(c for c in map(_thread_calls, paths) if c is not None)


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with every loaded OpenBLAS on one thread.  Blocks may
    nest and may run on several threads at once: the outermost entry pins,
    and the last exit, normal or by an exception, restores each count."""
    global _depth
    with _lock:
        if _depth == 0:
            _saved[:] = [(put, get()) for get, put in openblas_libs()]
            for put, _ in _saved:
                put(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                for put, count in _saved:
                    put(count)
                _saved.clear()


def cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def map_nodes(fn, items) -> list:
    """[fn(x) for x in items], in item order.  With two cores and at least
    two items, the calling thread and one pool thread take the items from
    one queue, in item order; with one core or one item, the calling thread
    runs them alone.  Once both threads finish, the caller gets the
    exception of the first item, in item order, that raised: a thread takes
    no further item after any item raised, and every item before it had
    been taken by then."""
    items = list(items)
    if cores() < 2 or len(items) < 2:
        return [fn(x) for x in items]
    todo = queue.SimpleQueue()
    for k in range(len(items)):
        todo.put(k)
    out, failed = [None] * len(items), {}

    def take():
        while not failed:
            try:
                k = todo.get_nowait()
            except queue.Empty:
                return
            try:
                out[k] = fn(items[k])
            except BaseException as exc:  # raised by the caller below
                failed[k] = exc

    with ThreadPoolExecutor(1, thread_name_prefix="smash-level") as pool:
        helper = pool.submit(take)
        take()
        helper.result()
    if failed:
        raise failed[min(failed)]
    return out
