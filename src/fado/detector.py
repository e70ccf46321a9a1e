"""Mistake-driven online fault detectors with normalized (unit-step) updates.

A detector keeps a center ``w`` and flags a transaction ``y`` whenever the
Euclidean distance to the center reaches the current radius.  Every alarm
doubles as a learning step: the center moves by ``gain * v`` where ``v`` is
the unit vector pointing from the old center to the flagged point.  Two
radius policies are supported:

* fixed radius: the threshold ``epsilon`` is known and constant; the gain
  decays with the mistake count (or stays constant for tracking).
* adaptive radius: ``epsilon`` is unknown; the effective radius is the
  reciprocal of the current gain and therefore grows slowly as mistakes
  accumulate.

Two entry points share one distance kernel and one alarm update.
:meth:`Detector.step` judges a single transaction.  :meth:`Detector.scan`
judges a block: the center and radius change only on an alarm, so one
vectorized distance pass decides every row up to the next alarm.  The scan
jumps there, applies the scalar update, and resumes on the following row,
so its decisions, center and trace are bit-identical to a ``step`` loop.
The kernel hands BLAS at most 8192 elements per call, which OpenBLAS sums
on one thread, so wide rows give the same bits whatever its thread count.
The scan works through wide rows in column tiles of four slices, each
converted, subtracted and summed while it is in cache (:func:`_judge`), and
an alarm moves the center tile by tile (:func:`_move`); every partial sum
continues the running total left to right, so tiling changes no bit.

Two jobs may fork one helper process, under one rule (:func:`_may_fork`):
only when ``os.fork`` exists, the process may use two CPUs (on one, the
two processes would only take turns) and it runs one thread (a fork copies
only the calling thread, so a process with, say, a second OpenBLAS thread
works in process, as it does when the fork is refused).  The helper is
killed and reaped on every exit path (:func:`_forked`); one that dies
raises :class:`ChildProcessError`.  Both paths give the same bits.

* ``fado run``'s blocks (:func:`_outcome_blocks`): the first is scanned
  and yielded before the second is read, and a forked child scans the
  second onward while the caller writes the blocks before.
* ``fado scene``'s frames (:func:`_frame_outcomes`): a scan whose chunks
  hold one row (more than 65,536 values) may hand the columns from a slice
  boundary near the middle to a forked partner (:func:`_column_partner`),
  which runs the same :func:`_judge` and :func:`_move` on them and keeps
  each slice's own sum as a partial; the scan adds the partials on to its
  running total left to right, as an in-process scan adds the same slices,
  so the distance has the same bits.  While a partner lives,
  ``detector.w[lo:]`` holds the columns as they were when the frames
  started, and they are brought up to date when the frames end or fail.

The per-step bookkeeping needed by the invariant auditors (gain energy,
gain mass, and the gain-weighted inner products with the pre-update center)
is accumulated in a :class:`DiagnosticsTrace` of plain binary64 sums, like
the center update itself, so a checkpoint captures the state exactly and a
resumed run matches the uninterrupted one bit for bit.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import signal
import sys
from dataclasses import dataclass
from typing import Iterable, List, NamedTuple, Union

import numpy as np

__all__ = [
    "PowerDecay",
    "Constant",
    "GainSchedule",
    "FixedRadius",
    "AdaptiveRadius",
    "DetectorMode",
    "StepOutcome",
    "ScanOutcomes",
    "DiagnosticsTrace",
    "Detector",
    "gain_value",
    "as_vector",
    "SCAN_CHUNK_BYTES",
]

# Upper bound, counted in float64 rows, on the input rows or frames read
# as one block and on the difference rows one scan pass holds at once.
SCAN_CHUNK_BYTES = 1 << 20


def _block_rows(dim: int) -> int:
    """Rows of ``dim`` values in one block: as many float64 rows as
    :data:`SCAN_CHUNK_BYTES` holds, and at least one."""
    return max(1, SCAN_CHUNK_BYTES // (8 * dim))


def _usable_cpus() -> int:
    """CPUs this process may run on: work is split between two threads
    or processes only when this is at least 2."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call outside Linux
        return os.cpu_count() or 1


def _may_fork() -> bool:
    """Whether :func:`_forked` forks, by the rule the module states."""
    return (hasattr(os, "fork") and _usable_cpus() >= 2
            and os.path.isdir("/proc/self/task")
            and len(os.listdir("/proc/self/task")) == 1)


@contextlib.contextmanager
def _forked(child):
    """Run ``child(reader, writer)`` in a forked process; yield the
    parent's ``(reader, writer)``, or None when the work stays in process.

    ``reader`` and ``writer`` are file descriptors of two pipes, one each
    way, that this function closes.  It forks only when :func:`_may_fork`
    holds, and yields None when the fork is refused, say at a limit on
    processes.  The child exits when ``child`` returns, with code 0, or
    raises, with code 1 (printing the traceback of any error but a failed
    pipe, which means the parent has gone); it never returns into the
    caller's code.  On leaving the block the child is killed and reaped,
    on every path.
    """
    if not _may_fork():
        yield None
        return
    down, up = os.pipe(), os.pipe()  # parent to child, child to parent
    try:
        pid = os.fork()
    except OSError:
        for fd in (*down, *up):
            os.close(fd)
        yield None
        return
    if pid == 0:
        # os._exit skips the parent's cleanup, which would flush and close
        # files that the parent owns
        code = 1
        try:
            os.close(down[1])
            os.close(up[0])
            child(down[0], up[1])
            code = 0
        except OSError:
            pass  # a pipe failed: the parent has gone
        except Exception:
            import traceback
            traceback.print_exc()
            sys.stderr.flush()
        finally:
            os._exit(code)
    os.close(down[0])
    os.close(up[1])
    try:
        yield up[0], down[1]
    finally:
        os.kill(pid, signal.SIGKILL)  # a child that has exited is a zombie
        os.waitpid(pid, 0)
        os.close(up[0])
        os.close(down[1])


# Longest slice one ``vecdot`` call sums.  OpenBLAS runs a dot product of
# up to 10000 elements on one thread and splits a longer one across its
# threads, which changes the summation order and so the bits; slices of a
# power of two below that limit keep wide rows independent of the thread
# count.
_DOT_WIDTH = 8192


def _dot(a: np.ndarray, b: np.ndarray, total=None, parts=None):
    """Inner product along the last axis, summed slice by slice.

    The one dot kernel: ``vecdot`` over consecutive column slices of at
    most :data:`_DOT_WIDTH` elements, added left to right.  A row of up to
    that width is a single ``vecdot`` call.  ``vecdot`` gives the same bits
    for a single row and for that row inside a block, which is what makes
    the block scan and the step path decide identically.  ``total``, the
    sum of the slices left of ``a`` and ``b``, is continued: tiles of whole
    slices then sum to the bits of the whole row (their own sums would not).
    ``parts``, a list if given, gets each slice's own sum appended in
    place of the total, which is then None: a caller can add the slices on
    to a running total elsewhere, as :class:`_Partner` does.
    """
    if a.shape[-1] > _DOT_WIDTH:
        for lo in range(0, a.shape[-1], _DOT_WIDTH):
            total = _dot(a[..., lo:lo + _DOT_WIDTH],
                         b[..., lo:lo + _DOT_WIDTH], total, parts)
        return total
    if parts is not None:
        parts.append(np.vecdot(a, b))
        return None
    return np.vecdot(a, b) if total is None else total + np.vecdot(a, b)


# Columns of a scan tile: whole dot slices, few enough that the input, the
# center and the difference of a tile fit a core's L2 cache together.
_TILE = 4 * _DOT_WIDTH


def _judge(tiles, i, stop, scale, parts=None):
    """Squared distances of rows ``i .. stop - 1`` from the center.

    ``tiles`` are ``(y, w, d)`` column tiles, left to right, of the rows,
    the center and a difference buffer of as many rows as a chunk.  Each
    tile's rows are converted into ``d`` (read as ``y / scale`` when
    ``scale`` is given), have ``w`` subtracted and their dot slices added
    on to the running total while in cache.  Sums run left to right as in
    one whole-row :func:`_dot`, so the bits do not depend on the tiling.
    Given ``parts``, :func:`_dot` appends the slices' own sums to it in
    place of the total, and None is returned.
    """
    total = None
    for y, w, d in tiles:
        y, d = y[i:stop], d[:stop - i]
        if scale is not None:
            y = np.divide(y, scale, out=d)
        np.subtract(y, w, out=d)
        total = _dot(d, d, total, parts)
    return total


def _move(tiles, k, distance, gain, parts=None):
    """Move the center of ``tiles`` (as for :func:`_judge`) by ``gain``
    times the unit step of row ``k`` of their buffers; return ``v . w``
    with the center before the move, or None with ``parts`` (as for
    :func:`_judge`).

    The row ``d[k]``, the difference ``y - w``, becomes the unit step ``v``
    and then ``gain * v`` (a unit gain skips the multiply, as
    ``x * 1.0 == x``), so a move allocates nothing.
    """
    vw = None
    for _, w, d in tiles:
        v = d[k]
        v /= distance
        vw = _dot(v, w, vw, parts)
        if gain != 1.0:
            v *= gain
        w += v
    return vw


class _Partner:
    """The parent's side of :func:`_column_partner`: columns ``lo ..`` of
    each row are judged and learned in the partner process.

    :meth:`scan` and :meth:`learn` start the partner on a row or an alarm
    with a one-byte message; :meth:`fold` waits for its one-byte reply and
    adds its per-slice partial sums on to a running total, left to right.
    """

    def __init__(self, ends, lo, row, partials, alarm):
        self.reader, self.writer = ends
        self.lo = lo
        self._row, self._partials, self._alarm = row, partials, alarm

    def _send(self, message: bytes) -> None:
        try:
            os.write(self.writer, message)
        except BrokenPipeError:
            raise self._ended() from None

    @staticmethod
    def _ended():
        return ChildProcessError("the column partner process ended before "
                                 "the frames did")

    def scan(self, row) -> None:
        """Start on the partner's columns of ``row``."""
        self._row[:] = row[self.lo:]
        self._send(b"s")

    def learn(self, distance: float, gain: float) -> None:
        """Start the alarm on the row last scanned: the partner moves its
        columns of the center with :func:`_move`."""
        self._alarm[:] = distance, gain
        self._send(b"l")

    def fold(self, total):
        """``total`` continued by the partner's partial sums."""
        if os.read(self.reader, 1) != b"d":
            raise self._ended()
        for part in self._partials:
            total = total + part
        return total


@contextlib.contextmanager
def _column_partner(detector: "Detector", scale: float):
    """Yield a :class:`_Partner` for scans by ``detector`` of uint8 rows
    read as ``row / scale``, or None, when the scan stays whole in process.

    A partner is forked (see :func:`_forked`) only when a scan chunk is one
    row.  It owns the columns from the :data:`_DOT_WIDTH` boundary ``lo``
    nearest the middle and runs the scan's :func:`_judge` and :func:`_move`
    on them as one tile, copying the ``parts`` of each into the shared
    partials; so each partial has the bits of the slice an in-process scan
    adds.  One shared anonymous ``mmap`` holds its columns of the center,
    copied from ``detector.w[lo:]`` before its first message, the row's
    columns, the partials and an alarm's distance and gain; the scan moves
    ``detector.w[:lo]`` in the caller's array.  While a partner lives,
    ``detector.w[lo:]`` holds the columns as they were when the frames
    started, and they are brought up to date when the frames end or fail:
    once the partner is killed and reaped, on every path, its columns are
    copied back a chunk of whole pages at a time, each freed where ``mmap``
    offers ``MADV_REMOVE``.  A refused fork copies nothing.

    A process, not a thread: ``np.vecdot`` holds the GIL, so a partner
    thread's slice sums would wait on the scan's.
    """
    dim = detector.dim
    if _block_rows(dim) > 1 or not _may_fork():
        yield None
        return
    import mmap
    lo = _DOT_WIDTH * round(dim / (2 * _DOT_WIDTH))
    width = dim - lo
    floats = width + len(range(0, width, _DOT_WIDTH)) + 2
    shared = mmap.mmap(-1, 8 * floats + width)
    numbers = np.frombuffer(shared, np.float64, floats)
    columns, partials, alarm = np.split(numbers, [width, floats - 2])
    row = np.frombuffer(shared, np.uint8, width, 8 * floats).reshape(1, -1)

    def serve(reader, writer):
        tiles = [(row, columns, np.empty((1, width)))]
        with np.errstate(over="ignore", invalid="ignore"):
            while message := os.read(reader, 1):
                parts = []
                if message == b"s":
                    _judge(tiles, 0, 1, scale, parts)
                else:
                    _move(tiles, 0, *alarm, parts)
                partials[:] = np.ravel(parts)
                os.write(writer, b"d")

    partner = None
    try:
        with _forked(serve) as ends:
            if ends is not None:
                columns[:] = detector.w[lo:]
                partner = _Partner(ends, lo, row, partials, alarm)
            yield partner
    finally:
        if partner is not None:
            # chunks of whole pages (both sizes are powers of two), each
            # freed once it is copied
            step = max(_TILE, mmap.PAGESIZE // 8)
            for start in range(0, width, step):
                detector.w[lo + start:][:step] = columns[start:][:step]
                # refused by a kernel, or absent from an mmap module
                with contextlib.suppress(OSError, AttributeError):
                    shared.madvise(mmap.MADV_REMOVE, 8 * start,
                                   8 * min(step, width - start))


def _frame_outcomes(detector: "Detector", blocks, scale: float):
    """Yield the :class:`ScanOutcomes` of ``detector``'s scans of the uint8
    ``blocks(rows)``, read as ``block / scale``, with a partner if one forks
    (:func:`_column_partner`); uint8 values are finite, so go unchecked.
    A block holds as many frames as a scan chunk may: one frame where a
    partner forks."""
    with _column_partner(detector, scale) as partner:
        for block in blocks(_block_rows(detector.dim)):
            yield detector._scan(block, scale, partner)


def _outcome_blocks(detector: "Detector", block, blocks):
    """Yield the :class:`ScanOutcomes` of ``detector``'s scans, in order,
    of ``block`` and then of each block of ``blocks``.

    ``block`` is scanned here, and yielded before the first of ``blocks``
    is read.  When ``blocks`` has a block and :func:`_forked` forks, a
    forked child reads and scans ``blocks``, while the caller writes the
    blocks before, and pickles each block's outcomes down a pipe, then the
    detector's attributes, which are installed in ``detector``, or the
    exception it caught, which is raised here once the blocks before it
    are yielded, as the in-process scan raises it.  Otherwise each block is
    read once the one before it is yielded.  Closing the generator kills
    and reaps the child.  The caller leaves ``blocks`` alone while the
    child lives: the two processes share the input file's offset.
    """
    t = detector.t

    def scan(block):
        # a bad row is named by its index in the whole stream
        return detector._scan(_as_block(block, detector.dim, detector.t - t))

    yield scan(block)
    ahead = next(blocks, None)
    if ahead is None:
        return
    blocks = itertools.chain([ahead], blocks)
    import pickle

    def child(_, writer):
        with open(writer, "wb", closefd=False) as pipe:
            try:
                for out in map(scan, blocks):
                    pickle.dump(out, pipe, 5)
                    pipe.flush()
            except Exception as exc:
                pickle.dump(exc, pipe, 5)
            else:
                pickle.dump(vars(detector), pipe, 5)

    with _forked(child) as ends:
        if ends is None:
            yield from map(scan, blocks)
            return
        with open(ends[0], "rb", closefd=False) as pipe:
            try:
                while isinstance(end := pickle.load(pipe), ScanOutcomes):
                    yield end
            except (EOFError, pickle.UnpicklingError):
                raise ChildProcessError("the scan-ahead process ended "
                                        "before the stream did") from None
    if isinstance(end, Exception):
        raise end
    vars(detector).update(end)


def _check_finite(name: str, value: float, zero_ok: bool = False) -> None:
    """Reject ``value`` unless finite and > 0 (>= 0 with ``zero_ok``)."""
    if not (value > 0 or zero_ok and value == 0) or not math.isfinite(value):
        sign = "nonnegative" if zero_ok else "positive"
        raise ValueError(f"{name} must be a {sign} finite number")


def as_vector(values, dim: int | None = None, name: str = "vector") -> np.ndarray:
    """Validate and convert input to a finite 1-D float64 array.

    Rejects NaN/Inf eagerly: a non-finite distance would silently disable
    the alarm comparison downstream.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"{name} must be a 1-D sequence with at least one entry")
    if dim is not None and arr.size != dim:
        raise ValueError(f"{name} has dimension {arr.size}, expected {dim}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class PowerDecay:
    """Gain rule gamma0 * m**-(1/2 + tau) over the mistake count m >= 1."""

    gamma0: float = 1.0
    tau: float = 0.25

    def __post_init__(self):
        _check_finite("gamma0", self.gamma0)
        if not (0.0 < self.tau < 0.5):
            raise ValueError("tau must lie strictly between 0 and 1/2")


@dataclass(frozen=True)
class Constant:
    """Constant gain, the tracking variant used for scene detection."""

    gamma: float = 1.0

    def __post_init__(self):
        _check_finite("gamma", self.gamma)


GainSchedule = Union[PowerDecay, Constant]


@dataclass(frozen=True)
class FixedRadius:
    """Known detection radius; epsilon = 0 is allowed but flags everything."""

    epsilon: float

    def __post_init__(self):
        _check_finite("epsilon", self.epsilon, zero_ok=True)


@dataclass(frozen=True)
class AdaptiveRadius:
    """Unknown radius; the effective radius is the reciprocal gain."""


DetectorMode = Union[FixedRadius, AdaptiveRadius]


def gain_value(schedule: GainSchedule, m: int) -> float:
    """Gain for mistake count ``m`` under the fixed-radius indexing.

    For :class:`PowerDecay` this is gamma0 * m**-(1/2+tau) and requires
    m >= 1 (the count after the alarm being paid for).  The adaptive
    detector evaluates its pre-decision gain as ``gain_value(schedule, m+1)``
    so that the first alarm uses gamma0 and the radius 1/gamma is defined
    from the very first step.  :class:`Constant` ignores ``m``.
    """
    if m < 0:
        raise ValueError("mistake count must be nonnegative")
    if isinstance(schedule, Constant):
        return schedule.gamma
    if isinstance(schedule, PowerDecay):
        if m < 1:
            raise ValueError(
                "power-decay gain is defined for mistake counts >= 1 "
                "(the adaptive variant passes m+1)"
            )
        return schedule.gamma0 * float(m) ** -(0.5 + schedule.tau)
    raise TypeError(f"unknown gain schedule: {schedule!r}")


class StepOutcome(NamedTuple):
    """Decision record for one transaction."""

    alarm: bool
    distance: float
    threshold: float
    gain_applied: float


@dataclass(frozen=True)
class ScanOutcomes:
    """Decision records for a block of transactions, one array per field."""

    alarm: np.ndarray         # bool
    distance: np.ndarray      # float64
    threshold: np.ndarray     # float64
    gain_applied: np.ndarray  # float64

    def __len__(self) -> int:
        return len(self.alarm)


def _as_block(rows, dim: int, first: int = 0) -> np.ndarray:
    """Validate a block of transactions as a finite (T, dim) float64 array.

    Errors name the first offending row as ``stream item i``, counting
    from ``first``: the block's offset in a stream read block by block.
    """
    if not isinstance(rows, np.ndarray):
        rows = list(rows)
    try:
        block = np.asarray(rows, dtype=np.float64)
    except (ValueError, TypeError):
        block = None
    if block is not None and block.ndim >= 1 and len(block) == 0:
        return np.empty((0, dim), dtype=np.float64)
    if block is not None and block.ndim == 2 and block.shape[1] == dim \
            and np.isfinite(block).all():
        return block
    for i, y in enumerate(rows):
        try:
            as_vector(y, dim=dim, name="transaction")
        except ValueError as exc:
            raise ValueError(f"stream item {first + i}: {exc}") from exc
    raise ValueError(f"transactions must form a (T, {dim}) block")


@dataclass
class DiagnosticsTrace:
    """Running sums that back the detector's audit inequalities.

    ``sum_d_gamma_sq`` doubles for the squared-decision sum since the
    decisions are binary (d**2 == d).  ``w_norm_sq`` is the incrementally
    telescoped squared center norm, kept because the checkpoint format
    carries it; :func:`fado.bounds.audit_trace` checks the sums against the
    center itself.
    """

    sum_d_gamma_sq: float = 0.0
    sum_d_gamma: float = 0.0
    sum_d_gamma_vw: float = 0.0
    w_norm_sq: float = 0.0

    def record_alarm(self, gain: float, vw: float) -> None:
        """Fold one alarm with gain ``gain`` and inner product v . w_prev."""
        self.sum_d_gamma_sq += gain * gain
        self.sum_d_gamma += gain
        self.sum_d_gamma_vw += gain * vw
        self.w_norm_sq += gain * gain + 2.0 * gain * vw

    def as_tuple(self):
        return (self.sum_d_gamma_sq, self.sum_d_gamma,
                self.sum_d_gamma_vw, self.w_norm_sq)


class Detector:
    """Online fault detector state machine.

    Single-writer: :meth:`step` and :meth:`scan` must not run concurrently
    on one instance.
    Instances are self-contained and can be moved between threads or run
    in parallel on independent streams.
    """

    def __init__(self, dim: int, mode: DetectorMode, schedule: GainSchedule):
        if not isinstance(dim, (int, np.integer)) or dim < 1:
            raise ValueError("dim must be a positive integer")
        if not isinstance(mode, (FixedRadius, AdaptiveRadius)):
            raise ValueError(f"unknown detector mode: {mode!r}")
        if not isinstance(schedule, (PowerDecay, Constant)):
            raise ValueError(f"unknown gain schedule: {schedule!r}")
        self.dim = int(dim)
        self.mode = mode
        self.schedule = schedule
        self.w = np.zeros(self.dim, dtype=np.float64)
        self.m = 0
        self.t = 0
        self.trace = DiagnosticsTrace()

    def current_radius(self) -> float:
        """Active alarm threshold: epsilon, or the reciprocal pre-decision gain."""
        if isinstance(self.mode, FixedRadius):
            return self.mode.epsilon
        return 1.0 / gain_value(self.schedule, self.m + 1)

    def _learn(self, distance: float, tiles, k: int, partner=None) -> float:
        """Count an alarm at ``distance`` from the center on row ``k`` of
        the scan's ``tiles`` and move the center (see :func:`_move`);
        return the gain.

        A ``partner``, if one is given, moves its own columns and its
        ``v . w`` partials are folded in last.  The adaptive detector's
        pre-decision gain uses m+1, which equals the fixed-radius gain at
        the incremented count, so one line serves both.

        Raises :class:`OverflowError`, the one guard of :meth:`step` and
        :meth:`scan`, when a trace sum leaves float range (a state no
        checkpoint can hold), which ``w_norm_sq`` does before the center
        can, or, before the alarm counts, when the distance does (its unit
        step would be zero).
        """
        if distance == math.inf:
            raise OverflowError(f"distance to the center overflows float "
                                f"range by step {self.t}")
        self.m += 1
        if distance == 0.0:
            # epsilon = 0 with a dead-center point: the alarm is counted
            # but the update direction is undefined, so none is applied.
            return 0.0
        gain = gain_value(self.schedule, self.m)
        if partner is not None:
            partner.learn(distance, gain)
        vw = _move(tiles, k, distance, gain)
        if partner is not None:
            vw = partner.fold(vw)
        self.trace.record_alarm(gain, float(vw))
        if not all(map(math.isfinite, self.trace.as_tuple())):
            raise OverflowError(
                f"detector state overflows float range by step {self.t} "
                f"under {self.schedule!r}")
        return gain

    def step(self, y) -> StepOutcome:
        """Judge one transaction and learn from it if it is flagged."""
        diff = as_vector(y, dim=self.dim, name="transaction") - self.w
        threshold = self.current_radius()
        distance = math.sqrt(float(_dot(diff, diff)))
        alarm = distance >= threshold
        self.t += 1
        # one tile of the whole row, whose buffer holds one row: diff
        gain = self._learn(distance, [(None, self.w, [diff])], 0) \
            if alarm else 0.0
        return StepOutcome(alarm=alarm, distance=distance,
                           threshold=threshold, gain_applied=gain)

    def scan(self, rows) -> ScanOutcomes:
        """Judge a (T, dim) block; the same decisions and state as T steps.

        The whole block is validated before any state changes.  Rows are
        then taken in chunks: one distance pass per chunk, an update at its
        first alarm, and the next chunk starts on the row after it.  The
        chunk doubles while no alarm occurs, up to :data:`SCAN_CHUNK_BYTES`
        of rows, and halves after one, but to no fewer than a floor of up
        to 32 rows (fewer for rows wider than 128 values), so that rows
        between alarms seldom take a pass each.  An alarm on a chunk's
        first row halves it below the floor, down to one row, so alarms
        back to back are judged a row at a time, as the rows after them
        would be wasted.
        """
        return self._scan(_as_block(rows, self.dim))

    def _scan(self, block: np.ndarray, scale=None,
              partner=None) -> ScanOutcomes:
        """The body of :meth:`scan`, over a finite (T, dim) block: float64
        rows :func:`_as_block` has checked, or with ``scale`` rows such as
        uint8 frames that are read as ``block / scale``.  A ``partner``
        from :func:`_column_partner` judges the columns from its ``lo``
        on, one row a chunk, and its partial sums are folded in after the
        tiles here.

        A chunk goes in column tiles of :data:`_TILE`, over one reused
        difference buffer: :func:`_judge` sums its distances, and an alarm
        moves the center tile by tile from the buffer's row (see
        :func:`_move`).  Tile views are made once per call.
        """
        count = len(block)
        alarm = np.zeros(count, dtype=bool)
        distance = np.empty(count)
        threshold = np.empty(count)
        gain = np.zeros(count)
        cap = _block_rows(self.dim)
        width = self.dim if partner is None else partner.lo
        # Rows padded to an even number of doubles start 16-byte aligned,
        # as step's fresh difference does: OpenBLAS's generic ddot sums a
        # misaligned head in another order, which would change the bits.
        buf = np.empty((min(cap, count), width + width % 2))[:, :width]
        tiles = [(block[:, lo:min(lo + _TILE, width)],
                  self.w[lo:min(lo + _TILE, width)], buf[:, lo:lo + _TILE])
                 for lo in range(0, width, _TILE)]
        # A pass costs about as much as judging 8192 values, so a floor of
        # half that wastes less on dense streams than it saves on sparse.
        floor = max(1, min(cap, 32, _DOT_WIDTH // (2 * self.dim)))
        size = floor
        radius = self.current_radius()
        i = 0
        t = self.t
        # Rows past a chunk's first alarm are written but rewritten by the
        # chunk that later covers them, so each row keeps its final verdict.
        with np.errstate(over="ignore", invalid="ignore"):
            while i < count:
                stop = min(count, i + size)
                if partner is not None:
                    partner.scan(block[i])
                total = _judge(tiles, i, stop, scale)
                if partner is not None:
                    total = partner.fold(total)
                dist = distance[i:stop]
                np.sqrt(total, out=dist)
                threshold[i:stop] = radius
                hit = np.greater_equal(dist, radius, out=alarm[i:stop])
                k = int(hit.argmax())
                if not hit[k]:
                    i = stop
                    size = min(2 * size, cap)
                    continue
                self.t = t + i + k + 1  # the step an overflow names
                gain[i + k] = self._learn(float(dist[k]), tiles, k, partner)
                radius = self.current_radius()
                i += k + 1
                size = max(1 if k == 0 else floor, size // 2)
        self.t = t + count
        return ScanOutcomes(alarm=alarm, distance=distance,
                            threshold=threshold, gain_applied=gain)

    def run_stream(self, stream: Iterable) -> List[StepOutcome]:
        """Judge a stream through :meth:`scan`; errors name the stream item."""
        out = self.scan(stream)
        return list(map(StepOutcome._make, zip(
            out.alarm.tolist(), out.distance.tolist(),
            out.threshold.tolist(), out.gain_applied.tolist())))

    def __repr__(self):
        return (f"Detector(dim={self.dim}, mode={self.mode!r}, "
                f"schedule={self.schedule!r}, m={self.m}, t={self.t})")
