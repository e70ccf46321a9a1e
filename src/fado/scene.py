"""Scene-change detection over grayscale frame sequences.

Frames are 8-bit grayscale images, flattened row-major and rescaled to
[0, 1] per pixel, then fed to a constant-gain fixed-radius detector: a frame
far from the running memory raises an alarm and drags the memory one unit
step toward it.  Inputs are ordered binary PGM files or a packed raw frame
file; outputs are a per-frame timeline (CSV), memory snapshots (PGM), and a
resumable detector checkpoint.

A synthetic clip generator stands in for real footage at desk scale: clips
share a global random background with per-clip offsets, so the learning
transient concentrates in the early clips the way it does on real video.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .detector import (
    Constant,
    Detector,
    FixedRadius,
    ScanOutcomes,
    _block_rows,
)
from .streamio import (
    _filled_blocks,
    _open_packed,
    _write_packed,
    write_outcome_rows,
)

__all__ = [
    "FrameFormatError",
    "FrameSequence",
    "DetectionTimeline",
    "read_pgm",
    "write_pgm",
    "load_pgm_sequence",
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

DEFAULT_EPSILON = 100.0
DEFAULT_GAMMA = 1.0


class FrameFormatError(ValueError):
    """Malformed PGM or packed frame payload."""


@dataclass
class FrameSequence:
    """Stack of same-sized 8-bit grayscale frames."""

    width: int
    height: int
    frames: np.ndarray  # (T, height, width) uint8

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.uint8)
        if self.frames.ndim != 3 or \
                self.frames.shape[1:] != (self.height, self.width):
            raise ValueError("frames must form a (T, height, width) stack")

    def __len__(self) -> int:
        return self.frames.shape[0]

    @property
    def dim(self) -> int:
        return self.width * self.height

    def fill(self, lo: int, block: np.ndarray) -> None:
        """Copy frames ``lo``, ``lo + 1``, ... into ``block``."""
        block[...] = self.frames[lo:lo + len(block)]


class _FrameReader:
    """Frames of a pack or a PGM list, decoded from the files on demand.

    It has the ``width``, ``height``, ``dim`` and length of a
    :class:`FrameSequence`.  ``fill(lo, block)`` decodes frames ``lo``,
    ``lo + 1``, ... into a (k, height, width) uint8 block.
    """

    def __init__(self, width: int, height: int, count: int,
                 fill: Callable[[int, np.ndarray], None]):
        self.width, self.height, self.count = width, height, count
        self.fill = fill

    def __len__(self) -> int:
        return self.count

    @property
    def dim(self) -> int:
        return self.width * self.height

    def _collect(self) -> FrameSequence:
        """Every frame, decoded into one array."""
        frames = np.empty((self.count, self.height, self.width),
                          dtype=np.uint8)
        self.fill(0, frames)
        return FrameSequence(self.width, self.height, frames)


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
    """Write a (height, width) uint8 array as binary PGM."""
    pixels = np.asarray(pixels, dtype=np.uint8)
    if pixels.ndim != 2:
        raise ValueError("pixels must be a 2-D array")
    height, width = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())


def load_pgm_sequence(paths: Sequence) -> FrameSequence:
    """Decode an ordered list of PGM files into one frame stack."""
    return _open_pgm_sequence(paths)._collect()


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

    def fill(lo, block):
        for index in range(lo, lo + len(block)):
            w, h, pixels = first if index == 0 else decode(index)
            if (w, h) != (width, height):
                raise FrameFormatError(
                    f"frame {index}: size {w}x{h} does not match first "
                    f"frame {width}x{height}")
            block[index - lo] = pixels

    return _FrameReader(width, height, len(paths), fill)


def frame_to_vector(frame: np.ndarray) -> np.ndarray:
    """Row-major flattening with pixel values rescaled to [0, 1]."""
    frame = np.asarray(frame, dtype=np.uint8)
    return frame.reshape(-1).astype(np.float64) / 255.0


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


def run_scene_detection(frames: FrameSequence, epsilon: float = DEFAULT_EPSILON,
                        gamma: float = DEFAULT_GAMMA,
                        detector: Optional[Detector] = None,
                        ) -> Tuple[DetectionTimeline, Detector]:
    """Constant-gain fixed-radius detection over a frame sequence.

    The frames are taken a uint8 block of at most :data:`SCAN_CHUNK_BYTES`
    at a time, so frames read from files on demand are never all
    held at once.  Pass a decoded checkpoint as ``detector`` to resume a
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
    parts = []
    for chunk in _filled_blocks(frames.fill, len(frames),
                                _block_rows(frames.dim, 1),
                                (frames.height, frames.width), np.uint8):
        # the scan divides each tile by 255 as frame_to_vector does; values
        # from uint8 are finite, so it takes them without the check
        parts.append(detector._scan(chunk.reshape(len(chunk), -1), 255.0))
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

    A clip's noise is drawn for a block of frames at a time (at most
    :data:`SCAN_CHUNK_BYTES` of doubles, and at least one frame) into one
    reused buffer.  The noise generator's draws are consecutive, so the
    bytes do not depend on the block size.
    """
    from .streams import SplitMix64
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
    per_block = min(frames_per_clip, _block_rows(n))
    noise = np.empty(per_block * n)
    for clip in range(num_clips):
        delta = np.floor(base_rng.next_double_block(n) * 129.0) - 64.0
        base = np.clip(background + delta, 0.0, 255.0)
        first = clip * frames_per_clip
        if not noise_amplitude:
            rows[first:first + frames_per_clip] = base
            continue
        for lo in range(0, frames_per_clip, per_block):
            k = min(per_block, frames_per_clip - lo)
            block = noise_rng.next_double_block(k * n, out=noise[:k * n])
            block *= span
            np.floor(block, out=block)
            block -= noise_amplitude
            pixels = block.reshape(k, n)
            pixels += base
            np.clip(pixels, 0.0, 255.0, out=pixels)
            rows[first + lo:first + lo + k] = pixels
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
    clamped = np.clip(state.w, 0.0, 1.0)
    pixels = np.floor(clamped * 255.0 + 0.5).astype(np.uint8)
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
    (width, height), count, fill = _open_packed(
        path, FRAMES_MAGIC, "II", 1, FrameFormatError, "frame pack")
    return _FrameReader(width, height, count, fill)
