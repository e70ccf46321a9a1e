"""Traced run: per-module timings of fado's public functions.

``run.py --trace 1`` calls :func:`run`.  It imports fado from the
checkout's ``src`` and repeats one suite of calls until ``--seconds`` have
passed (at least once).  Every call into a module is wrapped in a span kept
in memory; the spans are written once, at the end, to
``.perfbench_out/trace-<workload>-<seed>-<pid>.json`` with each span's self
time (its duration minus its children's).  Each per-layer metric is the
median over the suite repetitions of one span's duration, turned into the
metric's unit.  The end-to-end metrics never run with tracing on.

The suite's outputs are checked against ``reference.py`` as in the
end-to-end runs: the alarm count and the outcome CSV against the reference
detector, zeta against mpmath, and each sweep row against the closed-form
cap.  A mismatch makes the run report ``"correct": false``.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time
from contextlib import contextmanager

import numpy as np

import reference as ref

MODES = ("fixed", "adaptive", "constant")
DIMS = (2, 100, 1600, 160000)
CENTRE10 = np.array([2.0, 2.0] + [0.0] * 8)
TAUS = (0.25, 0.1)
SWEEP_NORM = 2.0 * math.sqrt(2.0)  # sweep_margin's centre 2 * ones(2)

# metric name -> unit; the order is the order of the output.
UNITS = {
    "cli.import_s": "s",
    "cli.run_main_s": "s",
    "streamio.read_mb_per_s": "MB/s",
    "streamio.write_mb_per_s": "MB/s",
    "streams.doubles_per_s": "1/s",
    "streams.mixture_rows_per_s": "1/s",
    "streams.ball_rows_per_s": "1/s",
    **{f"detector.step_us.{mode}.n{n}": "us" for mode in MODES for n in DIMS},
    "detector.scan_rows_per_s": "1/s",
    "detector.alarms": "count",
    **{f"checkpoint.{op}_us.n{n}": "us" for op in ("encode", "decode")
       for n in (10, 160000)},
    "bounds.zeta_cold_s.tau0.25": "s",
    "bounds.zeta_cold_s.tau0.1": "s",
    "bounds.mistake_bound_us": "us",
    "experiments.detection_run_s": "s",
    "experiments.sweep_margin_s": "s",
    "scene.read_pack_mb_per_s": "MB/s",
    "scene.frame_to_vector_us": "us",
    "scene.detect_frames_per_s": "1/s",
    "scene.timeline_csv_s": "s",
    "scene.gen_clips_s": "s",
}


class Tracer:
    """In-memory spans: name, start, end, parent; written out once."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name, metric=None, per=None):
        """Time a block.  ``metric`` names the per-layer metric it feeds;
        ``per`` is the work it did (rows, calls, MB) for rates and means."""
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "metric": metric, "per": per, "start": time.perf_counter()}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def finish(self):
        child = [0.0] * len(self.spans)
        for s in self.spans:
            s["dur_s"] = s["end"] - s["start"]
            if s["parent"] is not None:
                child[s["parent"]] += s["dur_s"]
        for s, c in zip(self.spans, child):
            s["self_s"] = s["dur_s"] - c
        return self.spans


def value_of(span):
    """A span's metric value in the metric's unit."""
    unit, dur, per = UNITS[span["metric"]], span["dur_s"], span["per"]
    if unit == "s":
        return dur
    if unit == "us":
        return dur / per * 1e6
    return per / dur  # MB/s and 1/s


def step_rows(mode, n, rng):
    """Inputs for the per-step timings: noise of norm about 0.6 around a
    centre at distance 2 from the origin, so each detector starts with a
    learning transient (every mode keeps its own alarm rate after it)."""
    count = 40 if n == 160000 else 2000
    centre = np.full(n, 2.0 / np.sqrt(n))
    return centre + rng.normal(0.0, 0.6 / np.sqrt(n), size=(count, n))


def suite(tr, work, spawner, seed):
    """One pass over every module; returns the outputs to be checked."""
    import fado.bounds as bounds
    import fado.checkpoint as checkpoint
    import fado.cli as cli
    import fado.detector as detector
    import fado.experiments as experiments
    import fado.scene as scene
    import fado.streamio as streamio
    import fado.streams as streams

    log = work / "trace.log"
    with tr.span("cli"):
        for _ in range(3):
            with tr.span("cli.import", "cli.import_s"):
                reply = spawner.run([sys.executable, "-c", "import fado.cli"],
                                    log, log)
            if reply["code"] != 0:
                raise RuntimeError(f"import fado.cli: {log.read_text()}")

    truth = bounds.GroundTruth(CENTRE10, 1.0, 0.1)
    with tr.span("streams"):
        with tr.span("streams.next_double_block", "streams.doubles_per_s",
                     2_000_000):
            streams.SplitMix64(seed).next_double_block(2_000_000)
        spec = streams.StreamSpec(
            dim=10, count=200_000, truth=truth, seed=seed,
            design=streams.Design.MIXTURE, contamination_fraction=0.05,
            outlier_radius_max=5.0)
        with tr.span("streams.generate.mixture",
                     "streams.mixture_rows_per_s", spec.count):
            rows = streams.generate(spec)[0]
        ball = streams.StreamSpec(dim=10, count=100_000, truth=truth,
                                  seed=seed)
        with tr.span("streams.generate.ball", "streams.ball_rows_per_s",
                     ball.count):
            streams.generate(ball)

    path = work / "stream.bin"
    with tr.span("streamio"):
        with tr.span("streamio.write_vectors", "streamio.write_mb_per_s",
                     rows.nbytes / 1e6):
            streamio.write_vectors(rows, path)
        with tr.span("streamio.read_vectors", "streamio.read_mb_per_s",
                     rows.nbytes / 1e6):
            streamio.read_vectors(path)

    with tr.span("cli.main.run", "cli.run_main_s"):
        code = cli.main(["run", "--mode", "fixed", "--epsilon", "1",
                         "--input", str(path), "--output",
                         str(work / "outcomes.csv"), "--checkpoint-out",
                         str(work / "state.ckpt")])
    if code != 0:
        raise RuntimeError(f"fado run exited {code}")

    def new(mode, n):
        if mode == "adaptive":
            return detector.Detector(n, detector.AdaptiveRadius(),
                                     detector.PowerDecay())
        schedule = (detector.Constant(1.0) if mode == "constant"
                    else detector.PowerDecay())
        return detector.Detector(n, detector.FixedRadius(1.0), schedule)

    rng = np.random.default_rng(seed)
    wide = None
    with tr.span("detector"):
        scan = new("fixed", 10)
        with tr.span("detector.run_stream", "detector.scan_rows_per_s",
                     len(rows)):
            scan.run_stream(rows)
        for mode in MODES:
            for n in DIMS:
                data = step_rows(mode, n, rng)
                det = new(mode, n)
                with tr.span(f"detector.step.{mode}.n{n}",
                             f"detector.step_us.{mode}.n{n}", len(data)):
                    for y in data:
                        det.step(y)
                if n == 160000:
                    wide = det

    with tr.span("checkpoint"):
        for n, det, reps in ((10, scan, 2000), (160000, wide, 20)):
            with tr.span(f"checkpoint.encode.n{n}",
                         f"checkpoint.encode_us.n{n}", reps):
                for _ in range(reps):
                    blob = checkpoint.checkpoint_encode(det)
            with tr.span(f"checkpoint.decode.n{n}",
                         f"checkpoint.decode_us.n{n}", reps):
                for _ in range(reps):
                    checkpoint.checkpoint_decode(blob)

    zetas = {}
    with tr.span("bounds"):
        for tau in TAUS:
            clear = getattr(bounds.riemann_zeta, "cache_clear", None)
            if clear is not None:
                clear()
            with tr.span(f"bounds.riemann_zeta.tau{tau}",
                         f"bounds.zeta_cold_s.tau{tau}"):
                zetas[tau] = bounds.riemann_zeta(1.0 + 2.0 * tau)
        with tr.span("bounds.mistake_bound_realizable",
                     "bounds.mistake_bound_us", 2000):
            for _ in range(2000):
                bounds.mistake_bound_realizable(2.83, 0.1)

    with tr.span("experiments"):
        spec = streams.StreamSpec(
            dim=2, count=10_000, seed=seed,
            truth=bounds.GroundTruth(np.array([2.0, 2.0]), 1.0, 0.1))
        with tr.span("experiments.run_detection_experiment",
                     "experiments.detection_run_s"):
            experiments.run_detection_experiment(
                spec, detector.FixedRadius(1.0), detector.PowerDecay())
        with tr.span("experiments.sweep_margin",
                     "experiments.sweep_margin_s"):
            sweep = experiments.sweep_margin(n_seeds=3, count=10_000,
                                             base_seed=seed)

    pack = work / "frames.pack"
    with tr.span("scene"):
        with tr.span("scene.gen_synthetic_clips", "scene.gen_clips_s"):
            frames, transitions = scene.gen_synthetic_clips(
                400, 400, 2, 25, 10, seed)
        scene.write_frames_packed(frames, pack)
        with tr.span("scene.read_frames_packed", "scene.read_pack_mb_per_s",
                     frames.frames.nbytes / 1e6):
            frames = scene.read_frames_packed(pack)
        with tr.span("scene.frame_to_vector", "scene.frame_to_vector_us",
                     len(frames)):
            for f in frames.frames:
                scene.frame_to_vector(f)
        with tr.span("scene.run_scene_detection",
                     "scene.detect_frames_per_s", len(frames)):
            timeline, _ = scene.run_scene_detection(frames, 50.0, 1.0)
        with tr.span("scene.timeline_to_csv", "scene.timeline_csv_s"):
            scene.timeline_to_csv(timeline, transitions,
                                  work / "timeline.csv")
    return {"alarms": scan.m, "zetas": zetas, "sweep": sweep.records}


def check(outputs, work):
    """Problems in the suites' outputs against the independent reference."""
    rows = ref.read_stream(work / "stream.bin")
    det = ref.Fado(10, "fixed", epsilon=1.0)
    alarms, dists = det.scan(rows)
    problems = [f"suite {k}: run_stream made {out['alarms']} alarms, the "
                f"reference {det.m}" for k, out in enumerate(outputs)
                if out["alarms"] != det.m]
    problems += ref.check_outcomes(ref.read_table(work / "outcomes.csv"), 0,
                                   alarms, dists)
    problems += ref.check_state(
        ref.read_checkpoint((work / "state.ckpt").read_bytes()), det)
    expect = {tau: ref.zeta(1.0 + 2.0 * tau) for tau in TAUS}
    caps = {}
    for out in outputs:
        for tau, value in out["zetas"].items():
            if abs(value - expect[tau]) > ref.ZETA_ATOL:
                problems.append(f"zeta({1 + 2 * tau}) = {value!r}, mpmath "
                                f"{expect[tau]!r}")
        for row in out["sweep"]:
            if row.m_T > row.bound:
                problems.append(f"sweep mu={row.value} seed {row.seed}: "
                                f"m_T {row.m_T} > bound {row.bound}")
            if row.value not in caps:
                caps[row.value] = ref.mistake_cap(SWEEP_NORM, row.value)
            if not ref.cap_matches(row.bound, caps[row.value]):
                problems.append(f"sweep mu={row.value}: bound {row.bound}, "
                                f"closed form {caps[row.value]}")
    return problems


def span_cost_s(n=20000):
    """Seconds one empty span costs, the tracing overhead per span."""
    tr = Tracer()
    started = time.perf_counter()
    for _ in range(n):
        with tr.span("empty"):
            pass
    return (time.perf_counter() - started) / n


def run(args, work, spawner, src):
    sys.path.insert(0, str(src))
    import fado
    if not fado.__file__.startswith(str(src)):
        raise RuntimeError(f"imported fado from {fado.__file__}, not {src}")
    tr = Tracer()
    outputs = []
    started = time.perf_counter()
    while not outputs or time.perf_counter() - started < args.seconds:
        with tr.span("suite"):
            outputs.append(suite(tr, work, spawner, args.seed))
    spans = tr.finish()
    if args.corrupt:
        outputs[0]["alarms"] += 1
    problems = check(outputs, work)
    values = {name: [] for name in UNITS}
    for s in spans:
        if s["metric"]:
            values[s["metric"]].append(value_of(s))
    values["detector.alarms"] = [out["alarms"] for out in outputs]
    metrics = {name: {"value": statistics.median(v), "unit": UNITS[name]}
               for name, v in values.items()}
    suites = [s for s in spans if s["name"] == "suite"]
    per_span = span_cost_s()
    overhead = {"span_cost_s": per_span, "spans_per_suite":
                len(spans) // len(suites),
                "overhead_share": per_span * len(spans)
                / sum(s["dur_s"] for s in suites)}
    out = work.parent / f"trace-{work.name}.json"
    out.write_text(json.dumps({"spans": spans, "tracing": overhead}))
    return metrics, problems, {"suites": len(suites), "tracing": overhead,
                               "trace_file": out.name}
