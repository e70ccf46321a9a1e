#!/usr/bin/env python3
"""Closed-loop benchmark of the fado command-line program.

Run from the root of a fado checkout:

    python3 perfbench/run.py --workload stream-batch --seed 1 --seconds 30 --trace 0

One driver process, one client, one program process in flight: each CLI
invocation starts only after the previous one has exited and its outputs
have been checked against ``reference.py``.  Each workload has a round
of invocations and a nominal round time; a run makes
``round(seconds / round_s)`` rounds (at least one), a number fixed by
``--seconds`` alone, so every run attempts the same operations and reports
the same ``attempted`` and ``failed``.  With ``--trace 1`` it runs the
per-module suite of ``layers.py`` instead and reports the per-layer
metrics.

The last line of stdout is the result object; the line before it records
the run's environment and failure reasons, and both are appended to
``.perfbench_out/results.jsonl``.  Generated inputs live in a per-run
directory under ``.perfbench_out`` that is removed at exit.
``--corrupt`` flips one value in the first output of the run before it is
checked, to show that the checks catch it (the run must then report
``"correct": false``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List

import numpy as np

import reference as ref

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd().resolve()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
CENTRE10 = "2,2,0,0,0,0,0,0,0,0"
RESUME_FAULT = ("resumed checkpoint's trace sums differ from the "
                "uninterrupted run's (checkpoint keeps s + c, drops c)")


class Spawner:
    """Client of spawner.py: one program process at a time, timed there."""

    def __init__(self, env):
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(HERE / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
            text=True)

    def run(self, argv, stdout, stderr):
        request = {"argv": [str(a) for a in argv], "stdout": str(stdout),
                   "stderr": str(stderr)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("spawner exited")
        return json.loads(line)

    def close(self):
        self.proc.stdin.close()
        self.proc.wait(timeout=60)


def fado(*args):
    return [sys.executable, "-m", "fado.cli", *args]


def gen_mixture(path, count, seed):
    """``fado gen`` arguments for a contaminated 10-d stream."""
    return fado("gen", "--design", "mixture", "--dim", "10", "--count",
                count, "--center", CENTRE10, "--epsilon", "1", "--mu", "0.1",
                "--fraction", "0.05", "--radius-max", "5", "--seed", seed,
                "--out", path)


@dataclass
class Op:
    """One timed CLI invocation and the check of its outputs.

    ``check`` returns (fault, problems): a fault marks the operation as
    failed (a known program fault), problems mark wrong outputs.
    """

    args: List[str]
    outputs: List[Path]
    check: Callable[[], tuple]


@dataclass
class Stats:
    walls: List[float] = field(default_factory=list)
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: Counter = field(default_factory=Counter)
    problems: List[str] = field(default_factory=list)


# ------------------------------------------------------------- workloads

class Workload:
    rows_per_round = 0
    round_s = 1.0  # nominal seconds of one round on the reference machine

    @classmethod
    def rounds(cls, seconds):
        """Whole rounds in a run of ``seconds``: fixed by ``seconds`` alone,
        so every run of a workload attempts the same operations."""
        return max(1, round(seconds / cls.round_s))

    def __init__(self, seed, work: Path, run):
        self.seed = seed
        self.work = work
        self.run = run  # run(argv): one set-up command; raises if it fails

    def setup(self):
        """Build the inputs with the program's own generators."""

    def prepare(self):
        """Compute the expected outputs (untimed)."""

    def ops(self) -> List[Op]:
        raise NotImplementedError

    def details(self):
        return {}


class StreamBatch(Workload):
    """``fado run`` (fixed radius) over one 2e5 x 10 contaminated stream."""

    rows_per_round = 200_000
    round_s = 3.6

    def setup(self):
        self.stream = self.work / "stream.bin"
        self.run(gen_mixture(self.stream, self.rows_per_round, self.seed))

    def prepare(self):
        rows = ref.read_stream(self.stream)
        self.det = ref.Fado(10, "fixed", epsilon=1.0)
        self.alarms, self.dists = self.det.scan(rows)
        centre = np.array([float(v) for v in CENTRE10.split(",")])
        sigma = ref.sigma_T(rows, centre, 1.0, 0.1)
        self.cap = ref.mistake_cap(float(np.linalg.norm(centre)), 0.1,
                                   sigma_T=sigma)

    def ops(self):
        out, ckpt = self.work / "outcomes.csv", self.work / "state.ckpt"

        def check():
            problems = ref.check_outcomes(ref.read_table(out), 0,
                                          self.alarms, self.dists)
            state = ref.read_checkpoint(ckpt.read_bytes())
            problems += ref.check_state(state, self.det)
            if state.m > self.cap:
                problems.append(f"m = {state.m} exceeds the agnostic cap "
                                f"{self.cap}")
            return None, problems

        return [Op(["run", "--mode", "fixed", "--epsilon", "1", "--input",
                    self.stream, "--output", out, "--checkpoint-out", ckpt],
                   [out, ckpt], check)]

    def details(self):
        return {"alarms": self.det.m, "agnostic_cap": self.cap}


class StreamResume(Workload):
    """A chain of short ``fado run`` segments, each resuming a checkpoint.

    Each round runs the seeded stream as SEGMENTS chained segments, then a
    fixed two-segment probe whose resumed checkpoint is compared bit for
    bit with the uninterrupted state.  The probe's input does not depend on
    the seed, so the known checkpoint fault fails it in every round.
    """

    SEGMENTS, SEGMENT_ROWS = 4, 5000
    PROBE_SEED, PROBE_ROWS = 1, 2000
    rows_per_round = SEGMENTS * SEGMENT_ROWS + 2 * PROBE_ROWS
    round_s = 9.0

    def setup(self):
        main, probe = self.work / "main.bin", self.work / "probe.bin"
        self.run(gen_mixture(main, self.SEGMENTS * self.SEGMENT_ROWS,
                             self.seed))
        self.run(gen_mixture(probe, 2 * self.PROBE_ROWS, self.PROBE_SEED))
        self.chains = {"main": self._cut(main, self.SEGMENT_ROWS),
                       "probe": self._cut(probe, self.PROBE_ROWS)}

    def _cut(self, path, size):
        rows = ref.read_stream(path)
        paths = []
        for k in range(len(rows) // size):
            seg = path.with_name(f"{path.stem}-{k}.bin")
            ref.write_stream(rows[k * size:(k + 1) * size], seg)
            paths.append(seg)
        return paths

    def prepare(self):
        # The uninterrupted state at each segment boundary, as the program
        # itself computes it: resume must reproduce these bytes.
        sys.path.insert(0, str(SRC))
        from fado.checkpoint import checkpoint_encode
        from fado.detector import Detector, FixedRadius, PowerDecay
        self.expect = {}
        self.trace_last_bits = 0
        for name, segs in self.chains.items():
            det = ref.Fado(10, "fixed", epsilon=1.0)
            prog = Detector(10, FixedRadius(1.0), PowerDecay())
            per_seg = []
            for seg in segs:
                rows = ref.read_stream(seg)
                first_t = det.t
                alarms, dists = det.scan(rows)
                prog.run_stream(rows)
                per_seg.append((first_t, alarms, dists, det.t, det.m,
                                det.w.copy(), checkpoint_encode(prog)))
            self.expect[name] = per_seg

    def ops(self):
        ops = []
        for name, segs in self.chains.items():
            for k, seg in enumerate(segs):
                out = self.work / f"{name}-{k}.csv"
                ckpt = self.work / f"{name}-{k}.ckpt"
                start = (["--mode", "fixed", "--epsilon", "1"] if k == 0 else
                         ["--checkpoint-in", self.work / f"{name}-{k-1}.ckpt"])
                ops.append(Op(["run", *start, "--input", seg, "--output", out,
                               "--checkpoint-out", ckpt], [out, ckpt],
                              self._checker(name, k, out, ckpt)))
        return ops

    def _checker(self, name, k, out, ckpt):
        def check():
            first_t, alarms, dists, t, m, w, expect = self.expect[name][k]
            problems = ref.check_outcomes(ref.read_table(out), first_t,
                                          alarms, dists)
            data = ckpt.read_bytes()
            state = ref.read_checkpoint(data)
            if (state.t, state.m) != (t, m) or \
                    not ref.close(state.w, w, ref.CENTRE_RTOL):
                problems.append(f"{name} segment {k}: state differs from "
                                f"the reference")
            if data == expect:
                return None, problems
            lo, hi = state.trace_offset, state.trace_offset + 32
            if len(data) != len(expect) or data[:lo] != expect[:lo] or \
                    data[hi:-4] != expect[hi:-4]:
                problems.append(f"{name} segment {k}: checkpoint differs "
                                f"from the uninterrupted one outside the "
                                f"trace sums")
                return None, problems
            if name == "probe":
                return RESUME_FAULT, problems
            # Seeded segments: whether the last bits differ depends on the
            # data, so it is counted apart and held to a tolerance.
            self.trace_last_bits += 1
            if not ref.close(state.trace,
                             ref.read_checkpoint(expect).trace,
                             ref.TRACE_RTOL):
                problems.append(f"{name} segment {k}: trace sums beyond "
                                f"rtol {ref.TRACE_RTOL}")
            return None, problems
        return check

    def details(self):
        return {"seeded_segments_with_trace_last_bits_differing":
                self.trace_last_bits}


class SceneWide(Workload):
    """``fado scene --packed`` over a synthetic 400 x 400 frame pack."""

    WIDTH = HEIGHT = 400
    CLIPS, PER_CLIP, NOISE, EPSILON = 6, 50, 10, 50.0
    rows_per_round = CLIPS * PER_CLIP
    round_s = 2.3

    def setup(self):
        self.pack = self.work / "frames.pack"
        self.run([sys.executable, HERE / "make_pack.py", self.WIDTH,
                  self.HEIGHT, self.CLIPS, self.PER_CLIP, self.NOISE,
                  self.seed, self.pack])

    def prepare(self):
        frames = ref.read_pack(self.pack)
        self.det = ref.Fado(self.WIDTH * self.HEIGHT, "constant",
                            epsilon=self.EPSILON, gamma=1.0)
        self.alarms, self.dists = self.det.scan(
            f.reshape(-1) / 255.0 for f in frames)
        self.pixels, self.ties = ref.snapshot_pixels(self.det.w, self.WIDTH,
                                                     self.HEIGHT)

    def ops(self):
        timeline = self.work / "timeline.csv"
        snapshot = self.work / "memory.pgm"
        ckpt = self.work / "scene.ckpt"

        def check():
            problems = []
            table = ref.read_table(timeline)
            n = len(self.alarms)
            if table.shape != (n, 5):
                return None, [f"timeline has shape {table.shape}"]
            if not np.array_equal(table[:, 0], np.arange(n)):
                problems.append("timeline frame index is not 0..T-1")
            if not np.array_equal(table[:, 1].astype(bool), self.alarms):
                problems.append("timeline alarms differ")
            if not ref.close(table[:, 2], self.dists, ref.DISTANCE_RTOL) or \
                    not np.all(table[:, 3] == self.EPSILON):
                problems.append("timeline distance or radius differs")
            footer = f"# alarms,{int(self.alarms.sum())}\n"
            if footer not in timeline.read_text():
                problems.append("timeline alarm footer differs")
            pixels = ref.read_pgm(snapshot)
            if pixels.shape != self.pixels.shape or \
                    np.any((pixels != self.pixels) & ~self.ties):
                problems.append("snapshot pixels differ from the reference")
            problems += ref.check_state(
                ref.read_checkpoint(ckpt.read_bytes()), self.det)
            return None, problems

        return [Op(["scene", "--packed", self.pack, "--epsilon",
                    repr(self.EPSILON), "--gamma", "1", "--timeline",
                    timeline, "--snapshot", snapshot, "--checkpoint-out",
                    ckpt], [timeline, snapshot, ckpt], check)]

    def details(self):
        return {"alarms": self.det.m}


WORKLOADS = {"stream-batch": StreamBatch, "stream-resume": StreamResume,
             "scene-wide": SceneWide}


# ---------------------------------------------------------------- driver

def corrupt(path: Path):
    """Flip the first alarm of a CSV output."""
    lines = path.read_text().split("\n")
    cells = lines[1].split(",")
    cells[1] = "0" if cells[1] == "1" else "1"
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines))


def measure(workload, spawner, rounds, log, want_corrupt):
    stats = Stats()
    ops = workload.ops()
    for _ in range(rounds):
        for op in ops:
            for path in op.outputs:
                path.unlink(missing_ok=True)
            reply = spawner.run(fado(*op.args), log, log)
            stats.attempted += 1
            stats.walls.append(reply["wall_s"])
            stats.cpu_s += reply["cpu_s"]
            stats.peak_rss_mb = max(stats.peak_rss_mb, reply["rss_mb"])
            if reply["code"] != 0:
                stats.failed += 1
                stats.failures[f"exit {reply['code']}: "
                               f"{log.read_text().strip()[-200:]}"] += 1
                continue
            if want_corrupt:
                corrupt(op.outputs[0])
                want_corrupt = False
            try:
                fault, problems = op.check()
            except (OSError, ValueError, KeyError) as exc:
                fault, problems = None, [f"unreadable output: {exc!r}"]
            if fault:
                stats.failed += 1
                stats.failures[fault] += 1
            stats.problems += problems
    return stats


def environment(args):
    import ctypes
    blas_threads = {}  # every loaded OpenBLAS (numpy's, scipy's) -> threads
    for line in open("/proc/self/maps"):
        path = line.split()[-1]
        if "openblas" in path and path.endswith(".so") and \
                Path(path).name not in blas_threads:
            lib = ctypes.CDLL(path)
            for name in ("scipy_openblas_get_num_threads64_",
                         "scipy_openblas_get_num_threads",
                         "openblas_get_num_threads64_",
                         "openblas_get_num_threads"):
                fn = getattr(lib, name, None)
                if fn is not None:
                    blas_threads[Path(path).name] = fn()
                    break
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(), "numpy": np.__version__,
            "openblas_threads": blas_threads, "nproc": os.cpu_count(),
            "src_lines": src_lines}


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "fado" / "cli.py").is_file():
        print(f"error: no fado sources under {SRC}; run from the root of a "
              f"fado checkout", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    work = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    spawner = Spawner(env)
    try:
        log = work / "program.log"
        if args.trace:
            import layers
            metrics, problems, extra = layers.run(args, work, spawner, SRC)
            result = {"correct": not problems, "attempted": 1, "failed": 0,
                      "metrics": metrics}
            extra["problems"] = problems
        else:
            def setup_run(argv):
                reply = spawner.run(argv, log, log)
                if reply["code"] != 0:
                    raise RuntimeError(f"set-up command exited "
                                       f"{reply['code']}: {log.read_text()}")

            workload = WORKLOADS[args.workload](args.seed, work, setup_run)
            setups = []
            for _ in range(SETUP_REPEATS):
                started = time.perf_counter()
                workload.setup()
                setups.append(time.perf_counter() - started)
            workload.prepare()
            rounds = workload.rounds(args.seconds)
            stats = measure(workload, spawner, rounds, log, args.corrupt)
            wall = sum(stats.walls)
            result = {
                "correct": not stats.problems,
                "attempted": stats.attempted,
                "failed": stats.failed,
                "metrics": {
                    "setup_s": metric(statistics.median(setups), "s"),
                    "wall_s": metric(wall, "s"),
                    "invoke_p50_s": metric(statistics.median(stats.walls),
                                           "s"),
                    "rows_per_s": metric(
                        rounds * workload.rows_per_round / wall, "1/s"),
                    "cpu_s": metric(stats.cpu_s, "s"),
                    "peak_rss_mb": metric(stats.peak_rss_mb, "MB"),
                }}
            extra = {"rounds": rounds,
                     "invoke_walls_s": [round(w, 4) for w in stats.walls],
                     "failures": dict(stats.failures),
                     "problems": stats.problems[:20],
                     "details": workload.details()}
    finally:
        spawner.close()
        shutil.rmtree(work, ignore_errors=True)
    record = {"env": environment(args), **extra}
    with open(OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps({**record, "result": result}) + "\n")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
