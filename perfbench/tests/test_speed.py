"""The host-speed probe: pinning, samples and the reference-speed time."""

import os
import subprocess
import sys

import speed
from speed import SpeedProbe

AFFINITY = "import os, sys; print(sorted(os.sched_getaffinity(0)), file=sys.stderr)"


def test_caller_affinity_is_restored_and_close_stops_the_thread():
    probe = SpeedProbe()
    try:
        for all_cpus in (False, True):
            wall, ref_s, code, rss = probe.run([sys.executable, "-c", "pass"], all_cpus)
            assert code == 0 and wall > 0 and ref_s > 0 and rss > 0
            assert sorted(os.sched_getaffinity(0)) == probe.cpus
    finally:
        probe.close()
    assert not probe._thread.is_alive()


def test_single_cpu_ops_are_pinned_and_threaded_ops_are_not(tmp_path):
    probe = SpeedProbe()
    try:
        for all_cpus, expected in ((False, probe.cpus[:1]), (True, probe.cpus)):
            out = tmp_path / "affinity.txt"
            with open(out, "w") as err:
                probe.run([sys.executable, "-c", AFFINITY], all_cpus, stdout=subprocess.DEVNULL, stderr=err)
            assert out.read_text().strip() == str(expected)
    finally:
        probe.close()


def test_reference_time_scales_wall_by_the_mean_probe(monkeypatch):
    monkeypatch.setattr(speed, "probe_work", lambda: 2 * speed.REFERENCE_PROBE_S)
    probe = SpeedProbe()
    try:
        wall, ref_s, code, _ = probe.run([sys.executable, "-c", "import time; time.sleep(0.3)"], False)
    finally:
        probe.close()
    assert code == 0
    assert ref_s == wall / 2  # every probe took twice the reference time


def test_exit_code_is_reported():
    probe = SpeedProbe()
    try:
        _, _, code, _ = probe.run([sys.executable, "-c", "raise SystemExit(3)"], False)
    finally:
        probe.close()
    assert code == 3
