"""The OpenBLAS thread policy of training: one thread for small matmuls.

Mini-batch training runs thousands of small matmuls. Below a size, a
second OpenBLAS thread costs more in hand-off than it saves, and between
calls it spins on a core. ``limit`` runs a block at ``threads_for``'s count
and restores the count in force before it. The count comes from the batch
rows times the widest operand: the input dimension or a hidden width.

One Adam step (forward, backward, update) of a ReLU MLP with hidden
layers (64, 64) and 10 classes, step time at one thread over step time at
two: medians of 7 alternated blocks of 200 steps, and the range over 4
such runs, on 2 cores with numpy 2.4.6 and scipy-openblas 0.3.31.

    batch x widest operand    elements   ratio   range
    128 x 64    (D=20)           8,192    0.88   0.82-1.19
    512 x 64    (D=20)          32,768    0.78   0.78-0.91
    128 x 768   (glyphs)        98,304    1.07   0.91-1.07
    160 x 768                  122,880    1.17   1.05-1.17
    128 x 1024                 131,072    1.11   1.00-1.17
    256 x 768                  196,608    1.25   1.14-1.25
    128 x 3072                 393,216    1.21   1.14-1.21
    512 x 768                  393,216    1.32   1.32-1.32

The step time leaves out what the second thread costs between calls: it
spins on the other core. End to end (perfbench, 10 alternated pairs), one
thread cut the CPU time of the D=20 workload from 3.50 to 1.70 s at a
slightly lower wall time, but made the D=768 glyph workload 7 % slower in
wall time (2.38 to 2.55 s). So the crossover lies between 32,768 elements,
where one thread won, and the glyph step's 98,304.

At two threads the glyph step is bimodal per process. One VCAE step of
the glyph workload (batch 128, D=768, hidden (32,): ``vcae_loss_and_grads``
plus ``Adam.step``), the median of 600 steps in each of 12 fresh processes
per thread count, alternated, on 2 cores (AMD EPYC, OpenBLAS 0.3.31):

    threads   processes   step          Adam.step alone
    2         9 of 12     0.60-0.62 ms  124-127 us
    2         3 of 12     0.96-0.98 ms  186-187 us
    1         12 of 12    0.74-0.76 ms  118-121 us

In the slow processes even the Adam step, which calls no BLAS, slows by
half. The second OpenBLAS thread, spinning on the core the main thread
needs, is the likely cause; it would also explain why the glyph workload's
end-to-end wall time sits in one of two modes (0.82-0.86 s or 0.68-0.69 s
in perfbench, for a parent and its change alike). The policy stays: two
threads win in most processes.

Through some wide operands OpenBLAS's sums depend on its thread count (a
hidden layer of 3000 at batch 32 does, one of 2048 does not). A run above
the crossover can so write other bytes at another inherited count; below
it, the count a run inherits does not change its bytes.

The lookup of the library is lazy and cached: importing this module loads
nothing. Where numpy's bundled OpenBLAS or its thread functions are not
found, every function here changes nothing.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import cache
from typing import Iterable, Iterator

import numpy as np

# batch rows x widest operand at or below which training runs one thread;
# 2**16 sits between 32,768 and the glyph step's 98,304 (see the table)
CROSSOVER = 65_536

# (getter, setter) symbol pairs: scipy-openblas (numpy >= 2), then plain OpenBLAS
_SYMBOLS = (("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
            ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
            ("openblas_get_num_threads", "openblas_set_num_threads"))


@cache
def _openblas():
    """The (get, set) thread-count functions of the OpenBLAS bundled with
    numpy (``numpy.libs``), or None when none is found."""
    import ctypes  # here, not at the top: the lookup is lazy, and so are its imports
    import glob
    import os
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for get_name, set_name in _SYMBOLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


def threads() -> int | None:
    """The OpenBLAS thread count in force, or None when it cannot be asked."""
    api = _openblas()
    return None if api is None else int(api[0]())


def set_threads(n: int) -> None:
    """Set the OpenBLAS thread count; does nothing when no setter is found.
    The sweep pool's worker initializer."""
    api = _openblas()
    if api is not None:
        api[1](n)


def threads_for(batch_size: int, widths: Iterable[int], inherited: int) -> int:
    """1 when ``batch_size * max(widths)`` is at or below ``CROSSOVER``,
    else ``inherited``: never more than the count the caller runs with, so
    a user's ``OPENBLAS_NUM_THREADS`` still caps it."""
    return 1 if batch_size * max(widths) <= CROSSOVER else inherited


@contextmanager
def limit(batch_size: int, widths: Iterable[int]) -> Iterator[dict | None]:
    """Run the block at ``threads_for`` threads, then restore the count in
    force before it, also when the block raises.

    Yields the policy in effect, ``{"inherited": n, "training": k}``, or
    None, changing nothing, when no OpenBLAS thread functions are found.
    Nested blocks can only lower the count. The count is process-wide, so
    blocks in concurrent Python threads would share it.
    """
    inherited = threads()
    if inherited is None:
        yield None
        return
    k = threads_for(batch_size, widths, inherited)
    if k != inherited:
        set_threads(k)
    try:
        yield {"inherited": inherited, "training": k}
    finally:
        if k != inherited:
            set_threads(inherited)
