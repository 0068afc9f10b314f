"""Host speed, sampled while each op runs, so that op times can be compared
across runs on a shared host.

On a shared host each vCPU at times runs about 1.6 times slower, most
likely while another tenant loads the same physical core; the slow state
flips within a second or holds for minutes, on each vCPU independently.
Whole runs of the same code then read 30% faster or slower than others.
CPU time does not help: it slows alike.

`SpeedProbe.run` starts an op and, until it exits, a probe thread in the
benchmark process runs a fixed piece of pure-Python work (`probe_work`)
every PROBE_INTERVAL_S on the CPUs the op runs on, timed by its own thread
CPU clock. A single-CPU op is pinned, with its probe, to one CPU; an op that
uses every CPU is probed on each in turn. The op's time at reference speed
is its wall time times REFERENCE_PROBE_S over the mean probe time: seconds
on a machine where one probe takes exactly REFERENCE_PROBE_S. The probes
take about 2.5% of the op's CPU while it runs, on every commit alike.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import threading
import time

PROBE_INTERVAL_S = 0.05
PROBE_ITERATIONS = 5000
REFERENCE_PROBE_S = 0.001


def probe_work(iterations: int = PROBE_ITERATIONS) -> float:
    """Thread CPU seconds of a fixed loop of dict stores, tuples and integer arithmetic."""
    start = time.thread_time()
    table, acc = {}, 0
    for i in range(iterations):
        table[i & 255] = (acc, i)
        acc = (acc + i * 7) % 1_000_003
    return time.thread_time() - start


class SpeedProbe:
    """A probe thread that samples host speed on given CPUs while an op runs."""

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self._lock = threading.Condition()
        self._active: list[int] | None = None  # the CPUs to probe while an op runs
        self._samples: list[float] = []
        self._closed = False
        self._thread = threading.Thread(target=self._loop, name="speed-probe")
        self._thread.start()

    def _loop(self) -> None:
        turn = 0
        while True:
            with self._lock:
                while self._active is None and not self._closed:
                    self._lock.wait()
                if self._closed:
                    return
                active = self._active
                # The caller probes just before the op starts; this thread
                # waits an interval, so it never holds the GIL as the op starts.
                self._lock.wait(PROBE_INTERVAL_S)
                if self._active is not active:
                    continue
            os.sched_setaffinity(0, {active[turn % len(active)]})
            turn += 1
            took = probe_work()
            with self._lock:
                if self._active is active:
                    self._samples.append(took)

    def run(self, argv: list[str], all_cpus: bool, **popen) -> tuple[float, float, int, int]:
        """Runs argv to its end; returns (wall s, reference-speed s, exit code, peak RSS KiB).

        The op is pinned to the first CPU unless all_cpus is set.
        """
        cpus = list(self.cpus) if all_cpus else self.cpus[:1]  # a new list marks a new op
        os.sched_setaffinity(0, set(cpus))  # this thread; the child inherits it
        # When the op exits mid-probe, this thread gets the GIL back within
        # 0.2 ms instead of the default 5 ms, so the wall time stays exact.
        switch = sys.getswitchinterval()
        sys.setswitchinterval(0.0002)
        try:
            before = probe_work()
            with self._lock:
                self._samples = [before]
                self._active = cpus
                self._lock.notify_all()
            start = time.perf_counter()
            proc = subprocess.Popen(argv, **popen)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no op running
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            with self._lock:
                self._active = None
                samples = self._samples
                self._lock.notify_all()
        finally:
            sys.setswitchinterval(switch)
            os.sched_setaffinity(0, set(self.cpus))
        return wall, wall * REFERENCE_PROBE_S / statistics.fmean(samples), proc.returncode, usage.ru_maxrss

    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._lock.notify_all()
        self._thread.join()
