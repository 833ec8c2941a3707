"""Host speed sampled during the benchmark's own runs.

On a shared host the same ``pipecraft run`` can take 5.5 s in one minute and
10 s a few minutes later: the whole machine slows, and a fixed pure-Python
loop slows with it. ``SpeedProbe`` times such a loop every ``INTERVAL_S``
seconds from a ``SIGALRM`` handler, which Python runs on the benchmark's only
thread between the program's bytecodes, so the loop sees the same CPU at the
same moments as the program. The loop is benchmark code: a change to the
program cannot make it faster or slower.

``scale(start, end)`` is the mean of ``REFERENCE_S / loop seconds`` over the
samples taken in ``[start, end)``. Wall seconds times that scale are the
seconds the same work would take on a host where the loop takes
``REFERENCE_S`` all along. A sample takes about 0.25 ms, so the probe adds
about 0.5% to the wall time it samples, the same on every commit.

The probe assumes that the program runs on one thread, as ``pipecraft``
does: a program running threads or processes of its own would contend with
the loop, and the scale would no longer track the host alone.
"""
from __future__ import annotations

import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.05
REFERENCE_S = 250e-6
_WORDS = tuple(f"w{i % 53}" for i in range(64))


def reference_loop() -> dict[str, int]:
    counts: dict[str, int] = {}
    for _ in range(40):
        for word in _WORDS:
            counts[word] = counts.get(word, 0) + len(word)
    return counts


class SpeedProbe:
    """Times ``reference_loop`` every ``INTERVAL_S`` between ``start`` and
    ``stop``; ``samples`` holds (start time, seconds) pairs."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []

    def _sample(self, signum, frame) -> None:
        started = perf_counter()
        reference_loop()
        self.samples.append((started, perf_counter() - started))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start: float, end: float) -> float:
        """Mean of ``REFERENCE_S / seconds`` over the samples started in
        ``[start, end)``; ``ValueError`` if there are none."""
        during = [REFERENCE_S / seconds for at, seconds in self.samples if start <= at < end]
        if not during:
            raise ValueError(f"no speed sample in an interval of {end - start:.3f} s")
        return statistics.fmean(during)
