"""The thread policy of the package's BLAS work: one OpenBLAS thread per
Python thread.

Mini-batch training runs thousands of small matmuls. A second OpenBLAS
thread costs more in hand-off than it saves on them, and between calls it
spins on a core that the main thread needs. ``limit`` runs a block at one
thread. The package enters it in two places only: ``classifier.run_epochs``,
the epoch loop of every training step, and ``classifier.logit_blocks``,
the row-block loop of every full-data pass: evaluation, LfF's loss ratios, the
amplifier's probabilities, PGD and the VCAE's weights and latents.

On the widest workload, the glyph VCAE (perfbench ``glyphs-vcae``: batch
128, D=768), one thread against the count inherited from the environment
(two): 10 alternated pairs, seeds 1-10, 2 cores (AMD EPYC), numpy 2.4.6
and scipy-openblas 0.3.31. Medians, with the range:

    threads     wall_s                cpu_s                 peak_rss_mb
    inherited   0.751 (0.598-0.904)   1.489 (1.183-1.792)   67.95
    one         0.776 (0.741-0.818)   0.776 (0.741-0.818)   62.07

At two threads the runs are bimodal (5 at 0.60-0.66 s, 5 at 0.84-0.90 s);
in the slow ones even the BLAS-free Adam step takes half as long again, as
a spinning second thread would cause. One thread gives one mode, at half
the CPU time and with equal accuracies on every seed.

Through some wide operands OpenBLAS's sums depend on its thread count (a
hidden layer of 3000 at batch 32 does, one of 2048 does not). Since every
product of the package runs inside a block, a run writes the same bytes
whatever count it inherits.

Every product, optimizer update and evaluation runs whole on the thread
that calls it. Running the second row half of the wide products, or each
epoch's evaluation, on a helper thread saved no measurable wall time on 2
vCPUs and cost CPU time (ROADMAP, "Measured and not worth doing").

The lookup of the library is lazy and cached: importing this module loads
nothing. Where numpy's bundled OpenBLAS or its thread functions are not
found, every function here changes nothing.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from functools import cache
from typing import Iterator

import numpy as np

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
    """Set the OpenBLAS thread count; does nothing when no setter is found."""
    api = _openblas()
    if api is not None:
        api[1](n)


_lock = threading.Lock()  # guards the two below
_open = 0  # ``limit`` blocks open, on every thread
_inherited = None  # the count in force when the first of them opened


@contextmanager
def limit() -> Iterator[None]:
    """Run the block at one OpenBLAS thread per Python thread. Changes no
    count when no OpenBLAS thread functions are found.

    The count is process-wide, so the open blocks of every thread share it:
    the first block to open saves the count in force and sets one thread,
    and the last to close restores it, also when a block raises. So callers
    may run pipelines on threads of their own.
    """
    global _open, _inherited
    with _lock:
        if _open == 0:
            _inherited = threads()
            set_threads(1)
        _open += 1
    try:
        yield
    finally:
        with _lock:
            _open -= 1
            if _open == 0:
                set_threads(_inherited)
