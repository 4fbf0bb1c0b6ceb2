"""The thread policy of the package's BLAS work: one OpenBLAS thread per
Python thread, and one helper thread, the lane, per epoch loop.

Mini-batch training runs thousands of small matmuls. A second OpenBLAS
thread costs more in hand-off than it saves on them, and between calls it
spins on a core that the main thread needs. ``limit`` runs a block at one
thread. The package enters it in two places only: ``classifier.run_epochs``,
the epoch loop of every training step, and ``classifier._blocks``, the
row-block loop of every full-data pass: evaluation, LfF's loss ratios, the
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

The lane puts the second core to work inside a step: ``halves`` runs the
second row half of a wide product, or of an optimizer's update, on it while
the calling thread runs the first. Each half runs one OpenBLAS thread on
its own Python thread, and the lane sleeps on a queue between halves, so
nothing spins. Narrow models (D=20) never split: their steps hold the GIL,
so a second thread would not help.

The lookup of the library is lazy and cached: importing this module loads
nothing. Where numpy's bundled OpenBLAS or its thread functions are not
found, every function here changes nothing.
"""

from __future__ import annotations

import contextvars
import queue
import threading
from contextlib import contextmanager
from functools import cache
from typing import Callable, Iterator

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


class Helper:
    """A thread that runs one job at a time under a copy of the context of the
    thread that hands it over (numpy keeps its errstate there), started at
    the first job and asleep on a queue between jobs. ``start(fn, *args)``
    hands ``fn(*args)`` over; ``wait()`` waits for it and raises its
    exception again, as it was. ``close()`` lets the job finish and joins the
    thread.
    """

    def __init__(self, name: str):
        self.name = name
        self._thread, self._busy = None, False
        self._jobs, self._ends = queue.SimpleQueue(), queue.SimpleQueue()

    def _serve(self):
        while (job := self._jobs.get()) is not None:
            try:
                job[0].run(*job[1:])
                self._ends.put(None)
            except BaseException as exc:
                self._ends.put(exc)

    def start(self, fn: Callable, *args) -> None:
        if self._thread is None:
            self._thread = threading.Thread(target=self._serve, name=self.name, daemon=True)
            self._thread.start()
        self._busy = True
        self._jobs.put((contextvars.copy_context(), fn, *args))

    def wait(self) -> None:
        if self._busy:
            self._busy = False
            if (error := self._ends.get()) is not None:
                raise error

    def close(self) -> None:
        if self._thread is not None:
            self._jobs.put(None)
            self._thread.join()


_local = threading.local()  # ``lane``: of this thread's outermost open ``limit`` block
_lock = threading.Lock()  # guards the two below
_open = 0  # ``limit`` blocks open, on every thread
_inherited = None  # the count in force when the first of them opened


def halves(fn: Callable, first: tuple, second: tuple) -> None:
    """``fn(*first)`` here while ``fn(*second)`` runs on the lane, returning
    (or raising the lane's exception) when both are done. Outside a ``limit``
    block, or on a thread other than the one that opened it, runs both here."""
    lane = getattr(_local, "lane", None)
    if lane is None:
        fn(*first)
        fn(*second)
        return
    lane.start(fn, *second)
    try:
        fn(*first)
    finally:
        lane.wait()


@contextmanager
def limit() -> Iterator[None]:
    """Run the block at one OpenBLAS thread per Python thread. Changes no
    count when no OpenBLAS thread functions are found.

    The count is process-wide, so the open blocks of every thread share it:
    the first block to open saves the count in force and sets one thread,
    and the last to close restores it, also when a block raises. So an
    evaluation on another thread may outlast the epoch loop that handed it
    over. A thread's outermost block also makes the lane of ``halves`` for
    that thread and the blocks nested in it; the lane of a ``run_epochs``
    starts at its first split, never spins and is joined on every way out.
    """
    global _open, _inherited
    lane = None
    if getattr(_local, "lane", None) is None:
        _local.lane = lane = Helper("debiaskit-lane")
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
        if lane is not None:
            _local.lane = None
            lane.close()
