"""A reference clock that measures the host's speed while the children run.

On a shared host the same ``nefsphere report`` command can take 12 s in one
minute and 23 s a few minutes later, in CPU time as much as in wall time: the
host's speed drifts, not the scheduling.  So the benchmark reports times at
the speed of a fixed reference host instead.

``ReferenceClock`` pins the benchmark to one CPU (children inherit that) and
forks a process that runs ``reference_work`` in a loop at nice 10 on the same
CPU.  It gets a small share of that CPU in slices of a few milliseconds spread
over the children's run, so it runs at the speed the children get.  Chunks of
reference work done per CPU-second of its own, over ``REFERENCE_RATE``, is
the host's speed relative to the reference host; a child's seconds times that
speed are seconds at the reference host's speed.
"""

import mmap
import os
import signal
import struct
import time
from fractions import Fraction

# Chunks of ``reference_work`` per CPU-second on the reference host
# (x86_64, 2 vCPU, CPython 3.11.7).  Every time metric scales with it, so it
# must stay the same between commits that are compared.
REFERENCE_RATE = 1500.0

COUNTERS = struct.Struct("=qd")  # chunks done, CPU seconds they took


def reference_work():
    """One fixed chunk of pure-Python work of the program's kind: Fraction
    arithmetic and tuple-keyed dict updates."""
    total = Fraction(0)
    counts = {}
    for i in range(1, 200):
        total += Fraction(i % 89 + 1, i % 97 + 1)
        key = (i % 13, i % 7)
        counts[key] = counts.get(key, 0) + 1
    return total, sorted(counts.items())


class ReferenceClock:
    """Context manager; ``read()`` gives (chunks, CPU seconds) so far."""

    def __enter__(self):
        self.affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self.affinity)})
        self.shared = mmap.mmap(-1, COUNTERS.size)
        parent = os.getpid()
        self.pid = os.fork()  # the benchmark runs no threads, so fork is safe
        if self.pid == 0:
            try:
                self._tick(parent)
            finally:
                os._exit(0)
        return self

    def _tick(self, parent):
        os.nice(10)
        start = time.process_time()
        chunks = 0
        while os.getppid() == parent:  # stop if the benchmark was killed
            for _ in range(64):
                reference_work()
                chunks += 1
                COUNTERS.pack_into(self.shared, 0, chunks,
                                   time.process_time() - start)

    def read(self):
        return COUNTERS.unpack_from(self.shared, 0)

    def __exit__(self, *exc):
        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)
        self.shared.close()
        os.sched_setaffinity(0, self.affinity)
