"""Peak memory of ``fado run`` and ``fado scene --packed`` does not grow
with the input.

Each command runs as a child process on an input and on one four times
larger.  Peak RSS comes from the child's rusage (``os.wait4``).  The
readers hold one bounded block of the input at a time, so the larger input
may raise the peak by a small fixed margin only; readers that hold the
whole input raise it by about as much as the input grows, 12 to 16 MB.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from fado.scene import FrameSequence, write_frames_packed
from fado.streamio import write_vectors

from conftest import child_env

# Allowed growth of peak RSS, in MiB, when the input grows 4x.
_MARGIN_MIB = 4.0

# A child's ru_maxrss counts the peak of the process it was spawned from
# (exec keeps the old image's high-water mark), so each command is started
# from this small interpreter rather than from the test process itself.
_SPAWNER = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL,
                        stderr=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _peak_rss_mib(argv) -> float:
    proc = subprocess.run(
        [sys.executable, "-c", _SPAWNER, sys.executable, "-m", "fado.cli",
         *map(str, argv)],
        env=child_env(), capture_output=True, text=True, check=True)
    code, max_rss = map(int, proc.stdout.split())
    assert code == 0, argv
    return max_rss / 1024  # KiB on Linux


def _growth(tmp_path, make_input, command, small):
    peaks = []
    for count in (small, 4 * small):
        path = make_input(tmp_path / f"in{count}", count)
        peaks.append(_peak_rss_mib(command(path, tmp_path)))
    return peaks[1] - peaks[0]


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_run_peak_rss_is_bounded(tmp_path):
    """50 000 and 200 000 rows of 10 values: 4 and 16 MB of payload."""
    def make(path, count):
        path = path.with_suffix(".bin")
        rng = np.random.default_rng(count)
        write_vectors(rng.normal(size=(count, 10)), path)
        return path

    def command(path, tmp):
        return ["run", "--mode", "fixed", "--epsilon", "3", "--input", path,
                "--output", tmp / "out.csv", "--checkpoint-out",
                tmp / "out.ckpt"]

    assert _growth(tmp_path, make, command, 50_000) < _MARGIN_MIB


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_scene_peak_rss_is_bounded(tmp_path):
    """50 and 200 frames of 300 x 300: 4.5 and 18 MB of payload."""
    def make(path, count):
        path = path.with_suffix(".pack")
        rng = np.random.default_rng(count)
        frames = rng.integers(0, 256, size=(count, 300, 300), dtype=np.uint8)
        write_frames_packed(FrameSequence(300, 300, frames), path)
        return path

    def command(path, tmp):
        return ["scene", "--packed", path, "--epsilon", "50", "--timeline",
                tmp / "timeline.csv", "--snapshot", tmp / "memory.pgm",
                "--checkpoint-out", tmp / "scene.ckpt"]

    assert _growth(tmp_path, make, command, 50) < _MARGIN_MIB
