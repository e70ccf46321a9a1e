"""Scene-change detection over grayscale frame sequences.

Frames are 8-bit grayscale images, flattened row-major and rescaled to
[0, 1] per pixel, then fed to a constant-gain fixed-radius detector: a frame
far from the running memory raises an alarm and drags the memory one unit
step toward it.  Inputs are ordered binary PGM files, a packed raw frame
file or frames in memory, each yielding flat uint8 frame blocks; outputs
are a per-frame timeline (CSV), memory snapshots (PGM), and a resumable
detector checkpoint.

A synthetic clip generator stands in for real footage at desk scale: clips
share a global random background with per-clip offsets, so the learning
transient concentrates in the early clips the way it does on real video.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import (Callable, Iterator, List, NamedTuple, Optional, Sequence,
                    Tuple)

import numpy as np

from .detector import (
    Constant,
    Detector,
    FixedRadius,
    ScanOutcomes,
    _TILE,
    _block_rows,
)
from .streamio import _open_packed, _write_packed, write_outcome_rows

__all__ = [
    "FrameFormatError",
    "FrameSequence",
    "DetectionTimeline",
    "read_pgm",
    "write_pgm",
    "frame_to_vector",
    "run_scene_detection",
    "gen_synthetic_clips",
    "write_memory_snapshot",
    "timeline_to_csv",
    "detection_latencies",
    "write_frames_packed",
    "read_frames_packed",
]

FRAMES_MAGIC = b"FADOFRMS"


class FrameFormatError(ValueError):
    """Malformed PGM or packed frame payload."""


def _as_pixels(values) -> np.ndarray:
    """``values`` as a uint8 array, not copied when they are uint8.

    Other values pass when a uint8 holds each exactly; else a
    ``ValueError`` names the first that it does not (a cast would wrap 300
    to 44 and truncate 0.7 to 0, with no warning).
    """
    pixels = np.asarray(values)
    if pixels.dtype == np.uint8:
        return pixels
    # casting NaN or an out-of-range float warns; both are refused below
    with np.errstate(invalid="ignore"):
        cast = pixels.astype(np.uint8)
    wrong = (cast != pixels).ravel()
    if wrong.any():
        raise ValueError(f"pixel value {pixels.ravel()[wrong.argmax()]} "
                         f"is not an integer from 0 to 255")
    return cast


@dataclass
class FrameSequence:
    """Stack of same-sized 8-bit grayscale frames."""

    width: int
    height: int
    frames: np.ndarray  # (T, height, width) uint8

    def __post_init__(self):
        self.frames = _as_pixels(self.frames)
        if self.frames.ndim != 3 or \
                self.frames.shape[1:] != (self.height, self.width):
            raise ValueError("frames must form a (T, height, width) stack")

    def __len__(self) -> int:
        return self.frames.shape[0]

    @property
    def dim(self) -> int:
        return self.width * self.height

    def blocks(self, rows: int) -> Iterator[np.ndarray]:
        """The frames in order as flat (k, height * width) views of at most
        ``rows`` frames each; nothing is copied."""
        for lo in range(0, len(self), rows):
            chunk = self.frames[lo:lo + rows]
            yield chunk.reshape(len(chunk), self.dim)


class _FrameReader(NamedTuple):
    """Frames of a pack or a PGM list, decoded from the files on demand.

    It has the ``width``, ``height``, ``dim``, length and ``blocks(rows)``
    of a :class:`FrameSequence`; its blocks are decoded into one reused
    buffer, so a block is valid only until the next is read.
    """

    width: int
    height: int
    count: int
    blocks: Callable[[int], Iterator[np.ndarray]]

    def __len__(self) -> int:
        return self.count

    @property
    def dim(self) -> int:
        return self.width * self.height

    def _collect(self) -> FrameSequence:
        """Every frame, decoded as one block."""
        (frames,) = self.blocks(self.count)
        return FrameSequence(self.width, self.height,
                             frames.reshape(self.count, self.height,
                                            self.width))


def read_pgm(path) -> Tuple[int, int, np.ndarray]:
    """Decode one binary (P5) PGM with maxval <= 255, rescaling pixels to
    [0, 255] (rounded half up; the identity at maxval 255)."""
    data = Path(path).read_bytes()
    if not data.startswith(b"P5"):
        raise FrameFormatError(f"{path}: not a binary PGM (missing P5)")
    pos = 2
    fields: List[int] = []
    while len(fields) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos:pos + 1] == b"#":
            nl = data.find(b"\n", pos)
            if nl < 0:
                raise FrameFormatError(f"{path}: unterminated header comment")
            pos = nl + 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        token = data[start:pos]
        # no valid size has 19 digits, and int() refuses very long strings
        if not token.isdigit() or len(token) > 18:
            raise FrameFormatError(f"{path}: malformed header token {token!r}")
        fields.append(int(token))
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise FrameFormatError(f"{path}: degenerate image size {width}x{height}")
    if maxval > 255:
        raise FrameFormatError(
            f"{path}: maxval {maxval} exceeds 255 (16-bit PGM unsupported)")
    if maxval < 1:
        raise FrameFormatError(f"{path}: invalid maxval {maxval}")
    pos += 1  # single whitespace separating header from raster
    raster = data[pos:pos + width * height]
    if len(raster) != width * height:
        raise FrameFormatError(f"{path}: truncated raster")
    pixels = np.frombuffer(raster, dtype=np.uint8).reshape(height, width)
    if pixels.max() > maxval:
        raise FrameFormatError(
            f"{path}: pixel value {pixels.max()} exceeds maxval {maxval}")
    scaled = (pixels.astype(np.uint16) * 255 + maxval // 2) // maxval
    return width, height, scaled.astype(np.uint8)


def write_pgm(pixels: np.ndarray, path) -> None:
    """Write a (height, width) array of 8-bit levels as binary PGM."""
    pixels = _as_pixels(pixels)
    if pixels.ndim != 2:
        raise ValueError("pixels must be a 2-D array")
    height, width = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(pixels))


def _open_pgm_sequence(paths: Sequence) -> _FrameReader:
    """Take the frame size from the first file; decode each file when
    its frame is read."""
    paths = list(paths)
    if not paths:
        raise FrameFormatError("no frame files given")

    def decode(index):
        try:
            return read_pgm(paths[index])
        except FrameFormatError as exc:
            raise FrameFormatError(f"frame {index}: {exc}") from exc

    first = decode(0)
    width, height, _ = first

    def blocks(rows):
        buf = np.empty((min(rows, len(paths)), width * height), np.uint8)
        for lo in range(0, len(paths), rows):
            block = buf[:min(rows, len(paths) - lo)]
            for index, row in enumerate(block, lo):
                w, h, pixels = first if index == 0 else decode(index)
                if (w, h) != (width, height):
                    raise FrameFormatError(
                        f"frame {index}: size {w}x{h} does not match first "
                        f"frame {width}x{height}")
                row[:] = pixels.reshape(-1)
            yield block

    return _FrameReader(width, height, len(paths), blocks)


def frame_to_vector(frame: np.ndarray) -> np.ndarray:
    """Row-major flattening with 8-bit levels rescaled to [0, 1]."""
    return _as_pixels(frame).reshape(-1).astype(np.float64) / 255.0


@dataclass
class DetectionTimeline:
    """Per-frame scan outcomes; row i is global frame ``start + i``, and the
    ``threshold`` column holds the radius each frame was judged against."""

    outcomes: ScanOutcomes
    start: int = 0

    @property
    def alarms(self) -> int:
        return int(np.count_nonzero(self.outcomes.alarm))

    @property
    def alarm_rate(self) -> float:
        return self.alarms / len(self.outcomes)


def run_scene_detection(frames: FrameSequence, epsilon: float = 100.0,
                        gamma: float = 1.0,
                        detector: Optional[Detector] = None,
                        ) -> Tuple[DetectionTimeline, Detector]:
    """Constant-gain fixed-radius detection over a frame sequence.

    The scan takes ``frames.blocks`` as they come, each of as many frames
    as one scan chunk holds, so frames read from files on demand are never
    all held at once.  Pass a decoded checkpoint as ``detector`` to resume a
    stream; the dimension must match the frames, and the checkpoint's own
    radius and gain are used (``epsilon``/``gamma`` apply only to fresh
    detectors).
    Frame indices continue from the detector's step count, so a resumed
    timeline carries the same global indices as an uninterrupted one.
    """
    if len(frames) == 0:
        raise ValueError("frame sequence is empty")
    if detector is None:
        detector = Detector(frames.dim, FixedRadius(epsilon), Constant(gamma))
    elif detector.dim != frames.dim:
        raise ValueError(
            f"checkpoint dimension {detector.dim} does not match frames "
            f"({frames.dim})")
    start = detector.t
    # uint8 values are finite, so go unchecked; 255 reads each frame as
    # frame_to_vector does
    parts = (detector._scan(block, 255.0)
             for block in frames.blocks(_block_rows(detector.dim)))
    columns = zip(*((p.alarm, p.distance, p.threshold, p.gain_applied)
                    for p in parts))
    outcomes = ScanOutcomes(*map(np.concatenate, columns))
    return DetectionTimeline(outcomes, start), detector


def gen_synthetic_clips(width: int, height: int, num_clips: int,
                        frames_per_clip: int, noise_amplitude: int,
                        seed: int) -> Tuple[FrameSequence, List[int]]:
    """Synthetic multi-clip footage with known transition indices.

    Clip base images share one random background plus a per-clip random
    offset spanning half the pixel range; every frame adds independent
    uniform noise of the given amplitude and clips to [0, 255].  Returns
    the frames and the indices where a new clip starts.

    Noise is drawn for a block of frames at a time (at most
    :data:`SCAN_CHUNK_BYTES` of doubles, and at least one frame) into a
    reused buffer.  With n pixels a frame, clip c's offset is the base
    generator's draws ``c * n ..`` and frame f's noise the noise
    generator's draws ``f * n ..``, so when two CPUs are available a
    thread draws the upper half of the frames from generators placed that
    far ahead while the caller draws the lower half.  The bytes depend
    neither on the block size nor on the split.
    """
    from .streams import SplitMix64, _split
    if min(width, height, num_clips, frames_per_clip) < 1:
        raise ValueError("width, height, num_clips, frames_per_clip must be positive")
    if noise_amplitude < 0:
        raise ValueError("noise_amplitude must be nonnegative")
    root = SplitMix64(seed)
    bg_rng, base_rng, noise_rng = root.spawn(), root.spawn(), root.spawn()
    n = width * height
    background = np.floor(bg_rng.next_double_block(n) * 256.0)
    total = num_clips * frames_per_clip
    frames = np.empty((total, height, width), dtype=np.uint8)
    rows = frames.reshape(total, n)
    span = 2 * noise_amplitude + 1
    per_block = _block_rows(n)

    def fill(lo, hi):
        """Frames ``lo .. hi - 1``, clip by clip."""
        rng = noise_rng.jumped(lo * n)
        noise = np.empty(min(hi - lo, per_block) * n)
        for clip in range(lo // frames_per_clip, -(-hi // frames_per_clip)):
            delta = np.floor(base_rng.jumped(clip * n).next_double_block(n)
                             * 129.0) - 64.0
            base = np.clip(background + delta, 0.0, 255.0)
            end = min(hi, (clip + 1) * frames_per_clip)
            for f in range(max(lo, clip * frames_per_clip), end, per_block):
                k = min(per_block, end - f)
                block = rng.next_double_block(k * n, out=noise[:k * n])
                block *= span
                np.floor(block, out=block)
                block -= noise_amplitude
                pixels = block.reshape(k, n)
                pixels += base
                np.clip(pixels, 0.0, 255.0, out=pixels)
                rows[f:f + k] = pixels

    _split(fill, total, n)
    transitions = [clip * frames_per_clip for clip in range(1, num_clips)]
    return FrameSequence(width=width, height=height,
                         frames=frames), transitions


def write_memory_snapshot(state: Detector, width: int, height: int,
                          path) -> None:
    """Render the detector memory as a PGM image.

    Entries are clamped to [0, 1], scaled by 255, and rounded half-up.
    """
    if state.dim != width * height:
        raise ValueError(
            f"detector dimension {state.dim} does not match {width}x{height}")
    # one tile of w at a time in float: a wide memory is 8 bytes a pixel
    pixels = np.empty(state.dim, np.uint8)
    scaled = np.empty(min(_TILE, state.dim))
    for lo in range(0, state.dim, _TILE):
        tile = scaled[:min(_TILE, state.dim - lo)]
        np.clip(state.w[lo:lo + _TILE], 0.0, 1.0, out=tile)
        tile *= 255.0
        tile += 0.5
        np.floor(tile, out=tile)
        pixels[lo:lo + _TILE] = tile
    write_pgm(pixels.reshape(height, width), path)


def detection_latencies(timeline: DetectionTimeline,
                        transitions: Sequence[int]) -> List[Optional[int]]:
    """Frames from each true transition to its first alarm (None if never)."""
    alarms = timeline.start + np.flatnonzero(timeline.outcomes.alarm)
    first = np.searchsorted(alarms, transitions).tolist()
    return [int(alarms[i]) - t if i < len(alarms) else None
            for i, t in zip(first, transitions)]


def timeline_to_csv(timeline: DetectionTimeline,
                    transitions: Optional[Sequence[int]], path) -> None:
    """Write the per-frame timeline plus a commented summary footer."""
    out, start = timeline.outcomes, timeline.start
    truth = np.isin(np.arange(start, start + len(out)),
                    [] if transitions is None else list(transitions))
    with open(path, "w", encoding="ascii") as fh:
        write_outcome_rows(fh, "frame,alarm,distance,radius,is_true_transition",
                           start, [out.alarm, out.distance, out.threshold,
                                   truth])
        fh.write(f"# alarms,{timeline.alarms}\n"
                 f"# alarm_rate,{timeline.alarm_rate!r}\n")
        if transitions is not None:
            for t, lat in zip(transitions,
                              detection_latencies(timeline, transitions)):
                fh.write(f"# transition_latency,{t},"
                         f"{-1 if lat is None else lat}\n")


def write_frames_packed(frames: FrameSequence, path) -> None:
    """Write the packed raw frame container."""
    _write_packed(path, FRAMES_MAGIC, "II", (frames.width, frames.height),
                  frames.frames)


def read_frames_packed(path) -> FrameSequence:
    """Read the packed raw frame container."""
    return _open_frames_packed(path)._collect()


def _open_frames_packed(path) -> _FrameReader:
    """Check a frame pack's header against the file size; read its frames
    on demand."""
    (width, height), count, blocks = _open_packed(
        path, FRAMES_MAGIC, "II", np.uint8, FrameFormatError, "frame pack")
    return _FrameReader(width, height, count, blocks)
