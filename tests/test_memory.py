"""Peak memory of ``fado run`` and ``fado scene --packed`` does not grow
with the input.

Each command runs as a child process on an input and on one four times
larger.  Peak RSS comes from the child's rusage (``os.wait4``), which is
the larger of its own peak and its children's; ``fado run`` may scan ahead
in a forked child and ``fado scene`` may judge wide frames with a forked
partner, so the sum of the two peaks is bounded too, as the command itself
reads them.  The readers hold one bounded block of the
input at a time, so the larger input may raise the peak by a small fixed
margin only; readers that hold the whole input raise it by about as much
as the input grows, 12 to 16 MB.  Nor may a wide scene's peak grow by more
than a few times its center when the frames widen.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from fado.detector import _usable_cpus
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
proc = subprocess.Popen(sys.argv[1:], stderr=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""

# Runs fado.cli.main on sys.argv[1:] and prints the sum of its own peak RSS
# and its reaped children's (the scan-ahead child's or the partner's) as it
# ends.
_SUMMED = """
import resource, sys
from fado.cli import main
code = main(sys.argv[1:])
print(sum(resource.getrusage(who).ru_maxrss for who in
          (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)))
sys.exit(code)
"""


def _peak_rss_mib(argv, summed=False) -> float:
    """Peak RSS of ``fado argv`` from ``os.wait4``, or if ``summed`` the
    sum that the command reads of its own peak and its children's."""
    command = ["-c", _SUMMED] if summed else ["-m", "fado.cli"]
    proc = subprocess.run(
        [sys.executable, "-c", _SPAWNER, sys.executable, *command,
         *map(str, argv)],
        # with no thread count set fado runs one thread, so it may fork
        env=child_env(OPENBLAS_NUM_THREADS=None), capture_output=True,
        text=True, check=True)
    *inner, code, max_rss = map(int, proc.stdout.split())
    assert code == 0, argv
    return (inner[0] if summed else max_rss) / 1024  # KiB on Linux


def _growth(tmp_path, make_input, command, small, summed=False):
    peaks = []
    for count in (small, 4 * small):
        path = make_input(tmp_path / f"in{count}", count)
        peaks.append(_peak_rss_mib(command(path, tmp_path), summed))
    return peaks[1] - peaks[0]


def _make_stream(path, count):
    path = path.with_suffix(".bin")
    rng = np.random.default_rng(count)
    write_vectors(rng.normal(size=(count, 10)), path)
    return path


def _run_command(path, tmp):
    return ["run", "--mode", "fixed", "--epsilon", "3", "--input", path,
            "--output", tmp / "out.csv", "--checkpoint-out", tmp / "out.ckpt"]


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_run_peak_rss_is_bounded(tmp_path):
    """50 000 and 200 000 rows of 10 values: 4 and 16 MB of payload."""
    assert _growth(tmp_path, _make_stream, _run_command, 50_000) < _MARGIN_MIB


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_run_summed_peak_rss_is_bounded(tmp_path):
    """The same streams, with the peaks of the run and of the child that
    scans ahead for it summed, as both are held at once."""
    assert _growth(tmp_path, _make_stream, _run_command, 50_000,
                   summed=True) < _MARGIN_MIB


def _make_pack(path, count):
    path = path.with_suffix(".pack")
    rng = np.random.default_rng(count)
    frames = rng.integers(0, 256, size=(count, 300, 300), dtype=np.uint8)
    write_frames_packed(FrameSequence(300, 300, frames), path)
    return path


def _scene_command(path, tmp):
    return ["scene", "--packed", path, "--epsilon", "50", "--timeline",
            tmp / "timeline.csv", "--snapshot", tmp / "memory.pgm",
            "--checkpoint-out", tmp / "scene.ckpt"]


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_scene_peak_rss_is_bounded(tmp_path):
    """50 and 200 frames of 300 x 300: 4.5 and 18 MB of payload."""
    assert _growth(tmp_path, _make_pack, _scene_command, 50) < _MARGIN_MIB


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_scene_summed_peak_rss_is_bounded(tmp_path):
    """The same packs, with the peaks of the scene run and of the partner
    that judges half of each frame's columns for it summed, as both are
    held at once."""
    assert _growth(tmp_path, _make_pack, _scene_command, 50,
                   summed=True) < _MARGIN_MIB


def _partner_forks() -> bool:
    """Whether a ``fado scene`` child may fork its column partner: it
    runs one thread, so this is the rest of ``detector._may_fork``."""
    return (hasattr(os, "fork") and _usable_cpus() >= 2
            and os.path.isdir("/proc/self/task"))


@pytest.mark.skipif(not hasattr(os, "wait4") or not _partner_forks(),
                    reason="needs os.wait4 and a forked column partner")
def test_a_wide_scene_holds_its_center_once(tmp_path):
    """20 frames of 300 x 300 and of 600 x 600, where the partner forks:
    the center grows by 2.16 MB.  A fresh scene holds the center, the
    shared copy of the partner's half of it, the parent's half of the
    difference row and one frame, so its peak may grow by at most twice
    the center's growth; a resumed one also decodes a checkpoint's center,
    and may grow by two and a half times (2.2 here; 2.8 when the shared
    map held a copy of the whole center beside the caller's)."""
    peaks = {}
    for side in (300, 600):
        pack = tmp_path / f"{side}.pack"
        rng = np.random.default_rng(side)
        write_frames_packed(FrameSequence(side, side, rng.integers(
            0, 256, size=(20, side, side), dtype=np.uint8)), pack)
        fresh = tmp_path / f"fresh{side}.ckpt"
        peaks[side] = [_peak_rss_mib(
            ["scene", "--packed", pack, *start, "--timeline",
             tmp_path / "t.csv", "--snapshot", tmp_path / "s.pgm",
             "--checkpoint-out", out])
            for start, out in (([], fresh),
                               (["--checkpoint-in", fresh],
                                tmp_path / "resumed.ckpt"))]
    center = 8 * (600 ** 2 - 300 ** 2) / 2 ** 20  # MiB
    fresh, resumed = np.subtract(peaks[600], peaks[300])
    assert fresh <= 2.0 * center, peaks
    assert resumed <= 2.5 * center, peaks
