"""Host-normalised stage timing.

On a shared host a core runs slower while another tenant's thread shares
it: by up to 2x, in spells from seconds to minutes (2 vCPUs of a shared
machine, where this was written), and a run's wall times then say as
much about the neighbours as about the program.  So a stage of an
operation is timed between runs of a fixed reference kernel on the same
core, and a run reports a stage's time as ``REF_S`` times the stage's
total wall time over the total of the reference times beside it: the
stage's time on a core where the kernel takes ``REF_S``.  While the core
is slowed by a factor ``f``, the stage and its kernels are slowed by
about ``f`` alike.  The kernel mixes the two kinds of work the program
does, interpreted Python on big integers and numpy on a float array,
and uses nothing of the program, so a change to the program moves the
scaled times and never the kernel.

A stage longer than a spell is also sampled inside: with ``every`` set,
a timer signal runs the kernel every ``every`` seconds, the stage is
cut into the intervals between kernel runs, and each interval is
weighed by the kernel times at its two ends.  Kernel time is never
counted as stage time.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

import numpy as np

#: the reference kernel's time on an idle core of the host named above
REF_S = 0.002
#: seconds between kernel runs inside a long stage
SAMPLE_S = 0.25

_ARRAY = np.random.default_rng(0).random(100_000)


def _kernel() -> float:
    t0 = time.perf_counter()
    s = Fraction(0)
    for i in range(1, 400):
        s += Fraction(1, i)
    np.sort(_ARRAY)
    return time.perf_counter() - t0


def reference() -> float:
    """Wall time of the reference kernel, ~2 ms on an idle core: the
    median of three runs, so that one interrupted run does not count."""
    return sorted(_kernel() for _ in range(3))[1]


class Laps:
    """Wall time of each stage of one operation, and the mean time of
    the reference kernel beside it, weighed by wall time.

    ``lap(name)`` closes the stage that began at the previous lap (or at
    construction); each name is used once.  ``kernel_s`` is the time
    spent in the kernel.  With ``every``, call :meth:`stop` at the end.
    """

    def __init__(self, every: float | None = None):
        self.wall: dict = {}
        self.ref: dict = {}
        self.kernel_s = 0.0
        self._busy = True
        self._stage_wall = self._stage_wref = 0.0
        self._every = every
        if every:
            signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, every, every)
        self._ref = reference()
        self._t = time.perf_counter()
        self._busy = False

    def _interval(self) -> None:
        t = time.perf_counter()
        wall = t - self._t
        ref = reference()
        self._t = time.perf_counter()
        self.kernel_s += self._t - t
        self._stage_wall += wall
        self._stage_wref += wall * (self._ref + ref) / 2
        self._ref = ref

    def _sample(self, _signum, _frame) -> None:
        if not self._busy:
            self._busy = True
            self._interval()
            self._busy = False

    def __call__(self, stage: str) -> None:
        self._busy = True
        self._interval()
        self.wall[stage] = self._stage_wall
        self.ref[stage] = self._stage_wref / self._stage_wall
        self._stage_wall = self._stage_wref = 0.0
        self._busy = False

    def stop(self) -> None:
        if self._every:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)


def scaled(laps: list) -> float:
    """The time of an operation run once per entry of ``laps`` (dicts
    with the ``wall`` and ``ref`` of a :class:`Laps`): the sum over its
    stages of ``REF_S`` times the stage's total wall time over the total
    of its reference times.  A stage some run did not reach (it raised)
    is left out."""
    stages = set.intersection(*(set(lap["wall"]) for lap in laps))
    return sum(REF_S * sum(lap["wall"][stage] for lap in laps)
               / sum(lap["ref"][stage] for lap in laps)
               for stage in stages)
