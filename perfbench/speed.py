"""Machine-speed probe: turns CPU seconds into reference seconds.

On a shared virtual machine the same interpreter work takes up to half as
long again at one moment as at another, because other tenants compete for
the physical core and its caches; a whole run can move by a quarter or
more.  Thread CPU time already leaves out the time the host steals from
the vCPU, but not this slowdown.  So while ops run, `SpeedProbe` samples
the speed of the machine: every INTERVAL_S CPU seconds a profiling-timer
signal runs `probe()`, a fixed piece of interpreter work that uses no
jetflow code, and times it.

An op's time is then its thread CPU time, less the probes it contained,
times the mean speed REFERENCE_S / (probe duration) of the probes around
it.  That is the op's time on a machine on which `probe()` takes exactly
REFERENCE_S (about its duration on the 2-vCPU Xeon virtual machine the
benchmark was tuned on).  The probes are spread evenly over CPU time, so
the mean speed, not the mean duration, is the right average; it also
gives little weight to a probe slowed by an interrupt.

A change to jetflow moves the op time and not the probe, so it shows in
full; a slower moment of the host moves both and cancels.  `probe()` and
REFERENCE_S must stay as they are, or results stop being comparable.
"""

from __future__ import annotations

import signal
from time import thread_time

PROBE_ITERATIONS = 1500
REFERENCE_S = 0.0008    # seconds one probe() takes on the reference machine
MIN_SAMPLES = 20        # probes that set the speed for one op
INTERVAL_S = 0.02       # CPU seconds between probes while ops run


def probe():
    """Fixed interpreter work: integer arithmetic and dict updates."""
    counts = {}
    acc = 0
    for i in range(PROBE_ITERATIONS):
        k = i * 2654435761 % 1000003
        counts[k & 63] = counts.get(k & 63, 0) + (k >> 3)
        acc += (k * k) // (i + 1)
    return acc + len(counts)


def timed_probe():
    t0 = thread_time()
    probe()
    return thread_time() - t0


def reference_seconds(cpu_s, probes):
    """CPU seconds at the speed the probe durations show, in reference seconds."""
    return cpu_s * sum(REFERENCE_S / d for d in probes) / len(probes)


class SpeedProbe:
    """Samples the machine's speed every INTERVAL_S CPU seconds of this
    process, from a SIGPROF handler, between `start()` and `stop()`."""

    def __init__(self):
        self.durations = []     # seconds each probe took, in order

    def start(self):
        for _ in range(MIN_SAMPLES):
            self.durations.append(timed_probe())
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def _sample(self, signum, frame):
        self.durations.append(timed_probe())

    def mark(self):
        """Where the next op starts: (thread CPU time, probes so far)."""
        return thread_time(), len(self.durations)

    def op_seconds(self, mark):
        """Reference seconds of the op that started at `mark` and has just
        ended.  The speed is that of the probes taken during the op, or of
        the last MIN_SAMPLES probes when the op held fewer."""
        now = thread_time()
        c0, n0 = mark
        during = self.durations[n0:]
        cpu = now - c0 - sum(during)
        if len(during) < MIN_SAMPLES:
            during = self.durations[-MIN_SAMPLES:]
        return reference_seconds(cpu, during)
