import struct

import numpy as np
import pytest

from fado.scene import (
    FRAMES_MAGIC,
    FrameFormatError,
    gen_synthetic_clips,
    read_frames_packed,
    write_frames_packed,
)
from fado.streamio import MAGIC, StreamFormatError, read_vectors, write_vectors

# Both packed containers: reader, format error, magic, header layout, and
# a wide row shape (vectors: n; frames: width, height).
CONTAINERS = {
    "vectors": (read_vectors, StreamFormatError, MAGIC, "<IQQ", (1 << 20,)),
    "frames": (read_frames_packed, FrameFormatError, FRAMES_MAGIC, "<IIIQ",
               (1 << 10, 1 << 10)),
}


def _header(kind, shape, count):
    _, _, magic, layout, _ = CONTAINERS[kind]
    return magic + struct.pack(layout, 1, *shape, count)


def _container(kind, path):
    """Write a valid four-row container of ``kind``; return its reader and
    format error."""
    if kind == "vectors":
        write_vectors(np.ones((4, 2)), path)
    else:
        write_frames_packed(gen_synthetic_clips(6, 5, 2, 2, 3, seed=8)[0],
                            path)
    return CONTAINERS[kind][:2]


@pytest.fixture
def samples():
    rng = np.random.default_rng(17)
    # awkward values: subnormals-adjacent, negatives, exact integers
    arr = rng.normal(size=(50, 3)) * np.array([1e-8, 1.0, 1e8])
    arr[0] = [0.1, -0.0, 3.0]
    return arr


def test_binary_roundtrip_bit_exact(tmp_path, samples):
    path = tmp_path / "stream.bin"
    write_vectors(samples, path)
    back = read_vectors(path)
    assert back.tobytes() == samples.tobytes()


def test_csv_roundtrip_bit_exact(tmp_path, samples):
    path = tmp_path / "stream.csv"
    write_vectors(samples, path)
    back = read_vectors(path)
    assert back.tobytes() == samples.tobytes()


def test_binary_layout(tmp_path):
    path = tmp_path / "s.bin"
    write_vectors(np.array([[1.0, 2.0]]), path)
    blob = path.read_bytes()
    assert blob[:8] == MAGIC
    version, n, t = struct.unpack_from("<IQQ", blob, 8)
    assert (version, n, t) == (1, 2, 1)
    assert struct.unpack_from("<dd", blob, 28) == (1.0, 2.0)


@pytest.mark.parametrize("kind", sorted(CONTAINERS))
def test_bad_magic(tmp_path, kind):
    path = tmp_path / "s.bin"
    reader, error = _container(kind, path)
    path.write_bytes(b"NOTMAGIC" + path.read_bytes()[8:])
    with pytest.raises(error, match="magic"):
        reader(path)


@pytest.mark.parametrize("kind", sorted(CONTAINERS))
def test_truncated_payload(tmp_path, kind):
    path = tmp_path / "s.bin"
    reader, error = _container(kind, path)
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(error, match="length"):
        reader(path)


@pytest.mark.parametrize("kind", sorted(CONTAINERS))
def test_truncated_header(tmp_path, kind):
    path = tmp_path / "s.bin"
    reader, error = _container(kind, path)
    path.write_bytes(path.read_bytes()[:20])
    with pytest.raises(error, match="truncated header"):
        reader(path)


@pytest.mark.parametrize("kind", sorted(CONTAINERS))
def test_empty_container_is_rejected(tmp_path, kind):
    """With no rows nothing bounds the header's row shape."""
    reader, error, _, _, wide = CONTAINERS[kind]
    path = tmp_path / "s.bin"
    path.write_bytes(_header(kind, wide, 0))
    with pytest.raises(error, match="empty"):
        reader(path)


def test_csv_ragged_rows_rejected(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(StreamFormatError, match="expected 2"):
        read_vectors(path)


def test_csv_garbage_rejected(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("1.0,fish\n")
    with pytest.raises(StreamFormatError):
        read_vectors(path)


def test_empty_csv_rejected(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("")
    with pytest.raises(StreamFormatError, match="empty"):
        read_vectors(path)


def test_csv_non_ascii_byte_names_file_and_line(tmp_path):
    path = tmp_path / "s.csv"
    path.write_bytes(b"1.0,2.0\n3.0,\xff4\n")
    with pytest.raises(StreamFormatError,
                       match=r"s\.csv:2: non-ASCII byte 0xff"):
        read_vectors(path)


def test_csv_and_binary_copies_read_bit_identical(tmp_path):
    """Both readers over many CSV batches and binary blocks."""
    rng = np.random.default_rng(23)
    rows = rng.normal(size=(20_000, 7)) * np.logspace(-300, 300, 7)
    rows[::97, 2] = -0.0
    write_vectors(rows, tmp_path / "s.csv")
    write_vectors(rows, tmp_path / "s.bin")
    from_csv = read_vectors(tmp_path / "s.csv")
    assert from_csv.shape == rows.shape
    assert from_csv.tobytes() == read_vectors(tmp_path / "s.bin").tobytes()
    assert from_csv.tobytes() == rows.tobytes()


def test_csv_fault_in_a_later_batch_names_its_line(tmp_path):
    path = tmp_path / "s.csv"
    lines = ["1.0,2.0"] * 30_000
    lines[29_000] = "1.0,fish"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(StreamFormatError, match=r"s\.csv:29001: .*'fish'"):
        read_vectors(path)


def test_csv_bad_value_is_reported_before_a_later_bad_line(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("1.0,2.0\n3.0,fish\n4.0\n")
    with pytest.raises(StreamFormatError, match=r"s\.csv:2: .*'fish'"):
        read_vectors(path)


def test_csv_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("\n1.0,2.0\n\n  \n3.0, 4.0\n\n")
    assert read_vectors(path).tolist() == [[1.0, 2.0], [3.0, 4.0]]


@pytest.mark.parametrize("kind", sorted(CONTAINERS))
def test_header_claiming_more_rows_than_the_file_holds(tmp_path, kind):
    """The header is checked against the file size before any allocation."""
    reader, error, _, _, wide = CONTAINERS[kind]
    path = tmp_path / "s.bin"
    path.write_bytes(_header(kind, wide, 1 << 40))
    with pytest.raises(error, match="length"):
        reader(path)


_PEAK_RSS_PROBE = """
import resource, sys
from fado.scene import read_frames_packed
from fado.streamio import read_vectors
reader = {"vectors": read_vectors, "frames": read_frames_packed}[sys.argv[1]]
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
payload = reader(sys.argv[2])
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(after - before)
"""


@pytest.mark.parametrize("kind", ["vectors", "frames"])
def test_binary_readers_hold_one_copy_of_the_payload(tmp_path, kind):
    """Reading a 32 MB file raises peak RSS by about 32 MB, not twice that."""
    import subprocess
    import sys

    from conftest import child_env

    payload = 32 * 2 ** 20
    path = tmp_path / f"{kind}.bin"
    if kind == "vectors":
        header = _header(kind, (16,), payload // 128)
    else:
        header = _header(kind, (512, 256), payload // (512 * 256))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.truncate(len(header) + payload)  # zeros, without writing them
    proc = subprocess.run([sys.executable, "-c", _PEAK_RSS_PROBE, kind,
                           str(path)], capture_output=True, text=True,
                          env=child_env(), check=True)
    grown_kib = int(proc.stdout)
    assert grown_kib * 1024 < 1.5 * payload
