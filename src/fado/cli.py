"""Command-line harness: run, sweep, scene, bounds, and gen subcommands.

Exit codes are a stable contract: 0 on success, 1 on runtime, format or
out-of-memory failures (one-line diagnostic on stderr), 2 on usage errors.
Data goes to the requested files or stdout; logging stays on stderr so
outputs pipe cleanly.  A command that fails leaves no output file: each
is written to a temporary beside it that replaces it only when the
command succeeds (``_all_or_nothing``); a sweep whose checks fail still
writes its results.  SIGTERM, SIGHUP and SIGINT end a command the same
way, with exit ``128 + signum`` and nothing on stderr; a stop signal the
caller ignores stays ignored.  All
configuration is by flag - fado reads no environment variable of its own.
A flag left out leaves its value to the default of the library function it
feeds (scene detection defaults to epsilon=100 with unit constant gain; tau
defaults to 0.25; each sweep has its own seeds, count and base seed).

When numpy is not yet loaded and the caller has not set
``OPENBLAS_NUM_THREADS``, ``main`` sets it to 1 while its command runs and
removes it on return: OpenBLAS reads it once, when numpy loads, so the
process keeps one BLAS thread and ``os.environ`` is left as it was.  No
fado dot product is long enough for OpenBLAS to split (``detector._dot``
passes at most 8192 elements), so a thread pool would only cost start-up
time and spin idle.  An explicit value wins, and after numpy has loaded
``main`` sets nothing.  Each command imports only the modules it uses, and
``import fado.cli`` imports no numpy and changes no environment variable.

``run`` may fork one helper process, under the rule that
``fado.detector`` states; ``scene`` runs in one process.

The ``fado`` script and ``python -m fado.cli`` run ``console``, which
calls ``main`` and then, on every way out, ``gc.freeze()``: the
interpreter's last collections then skip the objects numpy and fado
tracked, rather than free them one at a time, and exit takes about 6 ms
after ``main`` returns where it took about 24 ms (a resumed 5,000-row
``fado run``, 2-core x86-64 host).  atexit handlers, the flush of stdout
and module teardown run as before.  ``main`` itself leaves the collector
as it found it, for callers that go on running.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import os
import stat
import sys

from . import __version__

# Flags of the synthetic clip source, in gen_synthetic_clips order.
_SYNTHETIC = {"width": 40, "height": 40, "clips": 16, "frames_per_clip": 50,
              "noise": 10, "seed": 0xFAD0}

# sweep kind -> the fado.experiments function that runs it
_SWEEPS = {"margin": "sweep_margin", "center": "sweep_center_scale",
           "dim": "sweep_dimension", "epsilon": "sweep_epsilon",
           "contamination": "sweep_contamination",
           "adaptive": "compare_adaptive"}


def _reject(parser, args, names, reason: str) -> None:
    """Exit 2 naming each flag among ``names`` that was given.

    The flags it checks default to None, so an absent flag is told apart
    from its default, which the library function it feeds applies.
    """
    given = [f"--{name.replace('_', '-')}" for name in names
             if getattr(args, name) is not None]
    if given:
        parser.error(f"{', '.join(given)} {reason}")


def _at_least(parser, args, names, least: int) -> None:
    """Exit 2 naming each flag among ``names`` given a value below
    ``least``."""
    bad = [f"--{name.replace('_', '-')}" for name in names
           if getattr(args, name) is not None and getattr(args, name) < least]
    if bad:
        parser.error(f"{' and '.join(bad)} must be at least {least}")


def _file_key(path):
    """What tells files apart: device and inode of a file that exists,
    else the real path that opening it for writing would create."""
    try:
        st = os.stat(path)
    except OSError:
        return os.path.realpath(path)
    return st.st_dev, st.st_ino


def _distinct_files(parser, inputs, outputs) -> None:
    """Exit 2 when an output names the file of another output or of an
    input, under its own name or a link: opening it truncates the other.

    ``inputs`` and ``outputs`` are (flag, path) pairs; an absent path is
    skipped.  Only ``--checkpoint-out`` may name ``--checkpoint-in``,
    which is read whole before anything is written.  Nothing is opened.
    """
    seen = [(flag, _file_key(path)) for flag, path in inputs if path]
    for flag, path in outputs:
        if not path:
            continue
        key = _file_key(path)
        for other, known in seen:
            if key == known and (flag, other) != ("--checkpoint-out",
                                                  "--checkpoint-in"):
                parser.error(f"{flag} names the {other} file")
        seen.append((flag, key))


def _stage(path, staged):
    """The name to write output ``path`` under until the command succeeds.

    A file that exists and is not regular (a device, a FIFO) is written in
    place, as stdout is.  Any other output goes to a new hidden temporary
    beside the file that ``path`` resolves to, keeping its suffix (which
    picks the format of ``write_vectors``) and, for a file that exists,
    its permission bits; ``(temporary, file)`` is added to ``staged``.
    """
    target = os.path.realpath(path)
    try:
        mode = os.stat(target).st_mode
    except OSError:
        mode = None  # a new file, or a path that creating it reports
    else:
        if not stat.S_ISREG(mode):
            return path
        # a file that opening for writing refuses is refused as before
        os.close(os.open(path, os.O_WRONLY | os.O_APPEND))
    head, name = os.path.split(target)
    temporary = os.path.join(
        head, f".{name}.{os.getpid()}.tmp{os.path.splitext(name)[1]}")
    try:
        fd = os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    os.close(fd)
    staged.append((temporary, target))
    if mode is not None:
        os.chmod(temporary, stat.S_IMODE(mode))
    return temporary


@contextlib.contextmanager
def _all_or_nothing(*paths):
    """Yield ``paths``, each output renamed by :func:`_stage`; None (for
    stdout) stays None.  When the block succeeds, each temporary replaces
    its file; when it fails, they are removed.  So a failed command leaves
    no new output file and changes no regular one."""
    staged = []
    try:
        yield [path and _stage(path, staged) for path in paths]
        for temporary, target in staged:
            os.replace(temporary, target)
        staged.clear()
    finally:
        for temporary, _ in staged:
            with contextlib.suppress(OSError):
                os.unlink(temporary)


def _given(**values) -> dict:
    """The keyword arguments whose flags were given: the rest are left to
    the defaults of the function called."""
    return {name: value for name, value in values.items()
            if value is not None}


# dataclass fields whose flag is not the field's own name
_FIELD_FLAGS = {"w_bar": "--center", "contamination_fraction": "--fraction",
                "outlier_radius_max": "--radius-max", "norm_w_bar": "--wnorm",
                "sigma_T": "--sigma"}


@contextlib.contextmanager
def _flag_errors(parser, *fields):
    """Exit 2 under the flag of a value that a library type rejects.

    The types state each rule once; a ``ValueError`` whose message starts
    with one of ``fields`` is a usage error, reported under that field's
    flag.  Any other error passes through.
    """
    try:
        yield
    except ValueError as exc:
        field, _, rest = str(exc).partition(" ")
        if field not in fields:
            raise
        flag = _FIELD_FLAGS.get(field, "--" + field.replace("_", "-"))
        parser.error(f"{flag} {rest}")


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _parse_center(text: str, dim: int) -> list:
    try:
        center = [float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"--center: {exc}") from None
    if "," not in text:
        return center * dim
    if len(center) != dim:
        raise ValueError(
            f"--center has {len(center)} entries but --dim is {dim}")
    return center


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fado",
        description="Mistake-driven online fault detection toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    # main calls each command's handler with the command's own parser, so
    # a usage error that the handler finds shows that command's usage

    run_p = sub.add_parser("run", help="run a detector over a stream file")
    run_p.set_defaults(handler=lambda args: _cmd_run(args, run_p))
    run_p.add_argument("--mode", choices=["fixed", "adaptive", "constant-gain"],
                       help="detector variant (omit when resuming a checkpoint)")
    run_p.add_argument("--epsilon", type=float,
                       help="radius for fixed/constant-gain modes")
    run_p.add_argument("--gamma0", type=float,
                       help="gain scale for the decaying schedule "
                            "(default 1.0)")
    run_p.add_argument("--tau", type=float,
                       help="gain decay exponent offset, in (0, 1/2) "
                            "(default 0.25)")
    run_p.add_argument("--gamma", type=float,
                       help="constant gain, constant-gain mode (default 1.0)")
    run_p.add_argument("--input", required=True,
                       help="stream file (.csv or packed binary)")
    run_p.add_argument("--output", help="outcome CSV (default stdout)")
    run_p.add_argument("--checkpoint-in", help="resume from this checkpoint")
    run_p.add_argument("--checkpoint-out", help="write final state here")

    sweep_p = sub.add_parser("sweep", help="run a figure-style sweep")
    sweep_p.set_defaults(handler=lambda args: _cmd_sweep(args, sweep_p))
    sweep_p.add_argument("kind", choices=_SWEEPS)
    for name in ("--seeds", "--count", "--base-seed"):
        sweep_p.add_argument(name, type=int, help="default: the sweep's own")
    sweep_p.add_argument("--out", help="results file: JSON when the suffix "
                                       "is .json, else CSV")

    scene_p = sub.add_parser("scene", help="scene-change detection over frames")
    scene_p.set_defaults(handler=lambda args: _cmd_scene(args, scene_p))
    scene_p.add_argument("frames", nargs="*",
                         help="ordered binary PGM files")
    scene_p.add_argument("--packed", help="packed raw frame file")
    scene_p.add_argument("--synthetic", action="store_true",
                         help="generate the synthetic clip sequence")
    scene_p.add_argument("--epsilon", type=float,
                         help="radius of a fresh detector (default 100)")
    scene_p.add_argument("--gamma", type=float,
                         help="constant gain of a fresh detector (default 1)")
    scene_p.add_argument("--timeline", help="timeline CSV output")
    scene_p.add_argument("--snapshot", help="final memory snapshot PGM")
    scene_p.add_argument("--checkpoint-in")
    scene_p.add_argument("--checkpoint-out")
    for name, default in _SYNTHETIC.items():
        scene_p.add_argument("--" + name.replace("_", "-"), type=int,
                             help=f"synthetic source only (default {default})")

    bounds_p = sub.add_parser("bounds", help="print the closed-form bounds")
    bounds_p.set_defaults(handler=lambda args: _cmd_bounds(args, bounds_p))
    bounds_p.add_argument("--wnorm", type=float, required=True,
                          help="norm of the realizable center")
    bounds_p.add_argument("--mu", type=float, required=True)
    bounds_p.add_argument("--tau", type=float)
    bounds_p.add_argument("--gamma0", type=float)
    bounds_p.add_argument("--m-t", type=int,
                          help="mistake count for the power bound "
                               "(default: the mistake bound itself)")
    bounds_p.add_argument("--sigma", type=float,
                          help="fault mass for the agnostic bound")
    bounds_p.add_argument("--epsilon", type=float,
                          help="radius for the adaptive diagnostic bound")

    gen_p = sub.add_parser("gen", help="generate a synthetic stream file")
    gen_p.set_defaults(handler=lambda args: _cmd_gen(args, gen_p))
    gen_p.add_argument("--design", choices=["ball", "circle", "mixture"],
                       default="ball", help="sample design (default ball)")
    gen_p.add_argument("--dim", type=int, required=True)
    gen_p.add_argument("--count", type=int, required=True)
    gen_p.add_argument("--center", required=True,
                       help="comma-separated center, or one value for c*ones")
    gen_p.add_argument("--epsilon", type=float, required=True)
    gen_p.add_argument("--mu", type=float, help="margin (default 0)")
    gen_p.add_argument("--fraction", type=float,
                       help="contamination fraction (mixture design)")
    gen_p.add_argument("--radius-max", type=float,
                       help="outlier shell radius (mixture design)")
    gen_p.add_argument("--seed", type=int, required=True)
    gen_p.add_argument("--out", required=True,
                       help="stream file (.csv or packed binary)")
    gen_p.add_argument("--labels-out",
                       help="CSV of outlier labels (mixture design)")
    return parser


def _cmd_run(args, parser) -> int:
    from .checkpoint import checkpoint_read, checkpoint_write
    from .detector import (AdaptiveRadius, Constant, Detector, FixedRadius,
                           PowerDecay, _outcome_blocks)
    from .streamio import _vector_blocks, write_outcome_rows
    if args.checkpoint_in:
        _reject(parser, args, ("mode", "epsilon", "gamma0", "tau", "gamma"),
                "conflict with --checkpoint-in, which fixes the detector")
    elif args.mode is None:
        parser.error("--mode is required unless --checkpoint-in is given")
    else:
        _reject(parser, args, ("gamma0", "tau") if args.mode == "constant-gain"
                else ("gamma",), f"not used by mode {args.mode}")
        if args.mode == "adaptive":
            _reject(parser, args, ("epsilon",),
                    "conflicts with the adaptive mode")
        elif args.epsilon is None:
            parser.error(f"--epsilon is required for mode {args.mode}")
    _distinct_files(parser, [("--input", args.input),
                             ("--checkpoint-in", args.checkpoint_in)],
                    [("--output", args.output),
                     ("--checkpoint-out", args.checkpoint_out)])
    blocks = _vector_blocks(args.input)
    block = next(blocks)  # the header is checked before the checkpoint
    if args.checkpoint_in:
        with open(args.checkpoint_in, "rb") as fh:
            detector = checkpoint_read(fh)
        if detector.dim != block.shape[1]:
            raise ValueError(f"checkpoint dimension {detector.dim} does not "
                             f"match stream ({block.shape[1]})")
    else:
        with _flag_errors(parser, "epsilon", "gamma", "gamma0", "tau"):
            mode = (AdaptiveRadius() if args.mode == "adaptive"
                    else FixedRadius(args.epsilon))
            schedule = (Constant(**_given(gamma=args.gamma))
                        if args.mode == "constant-gain" else
                        PowerDecay(**_given(gamma0=args.gamma0,
                                            tau=args.tau)))
        detector = Detector(block.shape[1], mode, schedule)
    start, prior_alarms = detector.t + 1, detector.m
    count = 0
    header = "t,alarm,distance,threshold,gain_applied"
    with _all_or_nothing(args.output, args.checkpoint_out) as (output,
                                                               state_out):
        with (open(output, "w", encoding="ascii") if output
              else contextlib.nullcontext(sys.stdout)) as fh, \
                contextlib.closing(_outcome_blocks(detector, block,
                                                   blocks)) as outcomes:
            for out in outcomes:
                write_outcome_rows(fh, header, start + count, [
                    out.alarm, out.distance, out.threshold, out.gain_applied])
                header = None
                count += len(out)
        if state_out:
            with open(state_out, "wb") as fh:
                checkpoint_write(detector, fh)
    # the detector is current once the blocks end, forked or in process
    _log(f"processed {count} transactions, {detector.m - prior_alarms} alarms")
    return 0


def _cmd_sweep(args, parser) -> int:
    _at_least(parser, args, ("seeds", "count"), 1)
    from . import experiments
    with _all_or_nothing(args.out) as (out,):
        result = getattr(experiments, _SWEEPS[args.kind])(**_given(
            n_seeds=args.seeds, count=args.count, base_seed=args.base_seed))
        if out:
            experiments.emit_results(result, out)
    for name, check in result.checks.items():
        status = "ok" if check.get("passed") else "FAIL"
        _log(f"check {name}: {status}")
    if not result.passed:
        _log("sweep assertions failed")
        return 1
    return 0


def _cmd_scene(args, parser) -> int:
    from .checkpoint import checkpoint_read, checkpoint_write
    from .detector import Constant, FixedRadius
    from .scene import (_open_frames_packed, _open_pgm_sequence,
                        gen_synthetic_clips, run_scene_detection,
                        timeline_to_csv, write_memory_snapshot)
    sources = sum([bool(args.frames), bool(args.packed), args.synthetic])
    if sources != 1:
        parser.error("give exactly one of: PGM frames, --packed, --synthetic")
    if args.checkpoint_in:
        _reject(parser, args, ("epsilon", "gamma"),
                "conflict with --checkpoint-in, which fixes the detector")
    with _flag_errors(parser, "epsilon", "gamma"):
        # checked before any frame is made or read, whose errors name paths
        if args.epsilon is not None:
            FixedRadius(args.epsilon)
        if args.gamma is not None:
            Constant(args.gamma)
    _distinct_files(parser, [*(("PGM frame", frame) for frame in args.frames),
                             ("--packed", args.packed),
                             ("--checkpoint-in", args.checkpoint_in)],
                    [("--timeline", args.timeline),
                     ("--snapshot", args.snapshot),
                     ("--checkpoint-out", args.checkpoint_out)])
    if args.synthetic:
        _at_least(parser, args, ("width", "height", "clips",
                                 "frames_per_clip"), 1)
        _at_least(parser, args, ("noise",), 0)
    else:
        _reject(parser, args, _SYNTHETIC, "apply only to --synthetic")
        frames = (_open_frames_packed(args.packed) if args.packed
                  else _open_pgm_sequence(args.frames))
    detector = None
    if args.checkpoint_in:
        with open(args.checkpoint_in, "rb") as fh:
            detector = checkpoint_read(fh)
    with _all_or_nothing(args.timeline, args.snapshot,
                         args.checkpoint_out) as (timeline_out, snapshot_out,
                                                  state_out):
        transitions = None
        if args.synthetic:  # made after staging: a bad output fails first
            frames, transitions = gen_synthetic_clips(*(
                default if getattr(args, name) is None else getattr(args, name)
                for name, default in _SYNTHETIC.items()))
            if detector is not None:
                # the timeline continues the checkpoint's global frame index
                transitions = [t + detector.t for t in transitions]
        timeline, detector = run_scene_detection(
            frames, detector=detector,
            **_given(epsilon=args.epsilon, gamma=args.gamma))
        if timeline_out:
            timeline_to_csv(timeline, transitions, timeline_out)
        if snapshot_out:
            write_memory_snapshot(detector, frames.width, frames.height,
                                  snapshot_out)
        if state_out:
            with open(state_out, "wb") as fh:
                checkpoint_write(detector, fh)
    _log(f"{len(frames)} frames, {timeline.alarms} alarms "
         f"(rate {timeline.alarm_rate:.4f})")
    return 0


def _cmd_bounds(args, parser) -> int:
    _at_least(parser, args, ("m_t",), 1)
    import json

    from .bounds import (_gain_energy, ac_x_bound, ac_y_bound,
                         adaptive_mistake_bound, mistake_bound_agnostic,
                         mistake_bound_realizable, power_delta_bound,
                         riemann_zeta, sigma_admissibility_ratio)
    from .detector import PowerDecay
    with _flag_errors(parser, "gamma0", "tau"):
        schedule = PowerDecay(**_given(gamma0=args.gamma0, tau=args.tau))
    tau, gamma0 = schedule.tau, schedule.gamma0
    with _flag_errors(parser, "norm_w_bar", "mu", "sigma_T", "epsilon"):
        a = _gain_energy(tau, gamma0)
        zeta = riemann_zeta(1.0 + 2.0 * tau)
        bound = mistake_bound_realizable(args.wnorm, args.mu, tau, gamma0)
        m_t = args.m_t if args.m_t is not None else max(bound, 1)
        doc = {
            "zeta": zeta,
            "y_max": ac_y_bound(a, args.wnorm),
            "x_max": ac_x_bound(a, args.wnorm),
            "mistake_bound": bound,
            "delta_power": power_delta_bound(args.wnorm, m_t, tau, gamma0),
        }
        if args.sigma is not None:
            doc["mistake_bound_agnostic"] = mistake_bound_agnostic(
                args.wnorm, args.mu, tau, gamma0, args.sigma)
            doc["sigma_admissibility_ratio"] = sigma_admissibility_ratio(
                args.wnorm, args.sigma)
        if args.epsilon is not None:
            report = adaptive_mistake_bound(args.wnorm, args.epsilon, tau,
                                            gamma0)
            doc["adaptive_bound"] = report.bound
            doc["adaptive_bound_loose"] = report.loose
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def _cmd_gen(args, parser) -> int:
    _at_least(parser, args, ("dim", "count"), 1)
    from .bounds import GroundTruth
    from .streamio import write_outcome_rows, write_vectors
    from .streams import Design, StreamSpec, generate
    design = Design(args.design)
    if design is not Design.MIXTURE:
        _reject(parser, args, ("labels_out", "fraction", "radius_max"),
                "apply only to the mixture design")
    _distinct_files(parser, [], [("--out", args.out),
                                 ("--labels-out", args.labels_out)])
    center = _parse_center(args.center, args.dim)
    with _flag_errors(parser, "w_bar", "epsilon", "mu", "dim",
                      "contamination_fraction", "outlier_radius_max"):
        truth = GroundTruth(center, args.epsilon, **_given(mu=args.mu))
        spec = StreamSpec(dim=args.dim, count=args.count, truth=truth,
                          seed=args.seed, design=design,
                          **_given(contamination_fraction=args.fraction,
                                   outlier_radius_max=args.radius_max))
    with _all_or_nothing(args.out, args.labels_out) as (out, labels_out):
        samples, labels = generate(spec)
        write_vectors(samples, out)
        if labels_out:
            with open(labels_out, "w", encoding="ascii") as fh:
                write_outcome_rows(fh, "index,is_outlier", 0, [labels])
    _log(f"wrote {samples.shape[0]} x {samples.shape[1]} stream to {args.out}")
    return 0


def _terminate(signum, frame):
    """Exit ``128 + signum`` by way of every ``finally``, so a stopped
    command removes its staged outputs and reaps its helper."""
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    pin = ("numpy" not in sys.modules
           and "OPENBLAS_NUM_THREADS" not in os.environ)
    if pin:  # read once, when numpy loads; see the module docstring
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    import signal
    previous = {}  # the stop signals handled here, and their handlers
    try:
        # off the main thread no handler can be set; an ignored stop is the
        # caller's choice, kept; a handler of None was set outside Python
        # and cannot be restored; there is no SIGHUP outside POSIX
        with contextlib.suppress(ValueError):
            for name in ("SIGTERM", "SIGHUP", "SIGINT"):
                signum = getattr(signal, name, None)
                if signum and signal.getsignal(signum) is not signal.SIG_IGN:
                    previous[signum] = (signal.signal(signum, _terminate)
                                        or signal.SIG_DFL)
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except (ValueError, OverflowError, OSError, MemoryError) as exc:
        _log(f"error: {str(exc) or type(exc).__name__}")
        return 1
    finally:
        if pin:
            os.environ.pop("OPENBLAS_NUM_THREADS", None)
        for signum, handler in previous.items():
            signal.signal(signum, handler)


def console(argv=None) -> int:
    """The ``fado`` command: ``main(argv)``, then ``gc.freeze()`` on every
    way out (a return, a usage error's or a stop signal's ``SystemExit``),
    so that the interpreter's last collections skip numpy's objects."""
    try:
        return main(argv)
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(console())
