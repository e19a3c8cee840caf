"""Host-speed calibration: a fixed block of work timed between samples.

The benchmark host is a share of a machine other tenants also use, and
its speed drifts by 2x and more on a scale of minutes.  The drift shows in
CPU time as much as in wall time and on every workload alike, so no run
length averages it out.  Each timed pass therefore runs the block below
every few samples, outside the timed region, and every host-time metric
is stated at the *reference speed*: a sample's time is multiplied by
``REF_BLOCK_S`` over the time the block took around it
(``stats.host_factors``), wall time by the block's wall time and CPU
time by its CPU time, so that sharing a CPU with another process,
which stretches wall time only, leaves CPU time as measured.

The block is the benchmark's own code and never changes with the
program, so a change to the program moves the stated times by the
same share as the measured ones.  It mixes the two kinds of work the program's
hot paths do: interpreted Python, and numpy calls on arrays of a few
thousand elements gathered from a few hundred thousand (the flattened
forest's descent), about half of its time each.
"""

from __future__ import annotations

import time
from typing import List, Optional, Tuple

import numpy as np

__all__ = ["REF_BLOCK_S", "Calibrator", "HostClock"]

#: The block's median time on the 2-vCPU host the benchmark was sized
#: on, while nothing else ran there.
REF_BLOCK_S = 0.0082


class Calibrator:
    """A fixed block of work whose time tracks the host's speed."""

    NODES = 1 << 18
    LANES = 2048
    ROWS = 128
    DEPTH = 20
    ROUNDS = 6
    LOOP = 28_000

    def __init__(self) -> None:
        rng = np.random.default_rng(20170204)
        n = self.NODES
        self.feature = rng.integers(0, 8, n)
        self.threshold = rng.random(n)
        self.left = rng.integers(0, n, n)
        self.right = rng.integers(0, n, n)
        self.x = rng.random((self.ROWS, 8))
        self.start = rng.integers(0, n, self.LANES)
        self.cols = np.arange(self.LANES) % self.ROWS
        # A first, untimed block settles numpy's lazy set-up.
        self.block()

    def block(self) -> float:
        """Run the block once; the result only keeps the work alive."""
        acc = 0.0
        table: dict = {}
        for i in range(self.LOOP):
            key = i % 97
            table[key] = table.get(key, 0.0) + (i * 0.5) % 7.0
            acc += abs(table[key] - 3.0)
        for _ in range(self.ROUNDS):
            nodes = self.start
            for _ in range(self.DEPTH):
                go = self.x[self.cols, self.feature[nodes]] <= self.threshold[nodes]
                nodes = np.where(go, self.left[nodes], self.right[nodes])
            acc += float(nodes[0])
        return acc


class HostClock:
    """Calibration blocks run between one pass's samples.

    ``calibrate(position)`` runs a block just before sample
    ``position`` and records ``(position, wall seconds, CPU seconds)``.
    ``spent()`` is the wall and CPU time the blocks took so far, which
    the pass takes out of its timed region.  Without a calibrator it
    does nothing.
    """

    def __init__(self, calibrator: Optional[Calibrator]) -> None:
        self.calibrator = calibrator
        self.blocks: List[Tuple[int, float, float]] = []
        self._wall = 0.0
        self._cpu = 0.0

    def calibrate(self, position: int) -> None:
        if self.calibrator is None:
            return
        c0 = time.thread_time()
        t0 = time.perf_counter()
        self.calibrator.block()
        wall = time.perf_counter() - t0
        cpu = time.thread_time() - c0
        self._wall += wall
        self._cpu += cpu
        self.blocks.append((position, wall, cpu))

    def spent(self) -> Tuple[float, float]:
        """Wall and CPU seconds spent in blocks so far."""
        return self._wall, self._cpu
