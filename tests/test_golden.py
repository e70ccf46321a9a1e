"""Byte contracts: sweep CSVs, generated streams, run and scene outputs.

The digests were recorded before the sweep engine and the Box-Muller
helper were consolidated; any refactor of ``fado.experiments`` or
``fado.streams`` must reproduce them exactly.  ``margin`` exits 1 at this
reduced size (its log-log slope check fails) but still writes its CSV.
The ``fado run`` and ``fado scene`` digests were recorded with the
row-by-row step loop, before the block scan replaced it.  Frames wider than
the kernel's 8192-element slice must give the same bytes whatever the
number of BLAS threads.  The long 2x2 timeline (17000 frames) spans two
8192-row boundaries of the outcome-CSV writer; it was recorded when the
timeline was one joined string.  The wide scene (400 x 400 frames) was
recorded while a forked column partner judged half of each frame's
columns; the one in-process scan that replaced it gives the same bytes,
and its snapshot is the same under each emulated host.
The ``margin``, ``dim``, ``epsilon`` and ``contamination`` sweep digests
were re-recorded when the summed zeta (good to 1e-10) gave way to the
Euler-Maclaurin one (good to about an ulp): only their ``bound`` column
moved, by at most 6.4e-11 relative.  The splitmix64 block and the
synthetic clip digests were recorded before generation was mixed in place
tile by tile; they span several tiles and frames wider than one tile.
They use only integer operations and correctly rounded float
arithmetic, so unlike the ``gen`` digests they hold on every host.
The ``epsilon`` sweep digest was re-recorded when the radius sweep moved to
a power-of-two grid whose radii share each seed's nuisance draw.  The
split-path digests (a 200,000-row mixture and clips 3 frames past the
split threshold) were recorded with one thread drawing everything, before
generation was split between two threads; they are checked with two usable
CPUs whatever the host has.  Every digest of a mixture (the ``mixture``
``gen`` digests, the ``run`` digests over it, split generation, and the
``contamination`` and ``adaptive`` sweeps, which draw outliers)
was re-recorded when the outlier shell's radius came to be drawn directly
in place of by rejection from the outer ball; the labels held, and
``test_portability.py`` shows the ``run`` decisions held too.

numpy's AVX512 ``log`` and ``pow`` kernels and OpenBLAS's per-core ``ddot``
give other float bits on other hosts, so the digests of outputs with float
columns are kept in one table per host, keyed by ``host_key()``: OpenBLAS's
core name and whether numpy dispatches AVX512.  A host with no table fails
each keyed test, naming its key; ``python tests/test_golden.py`` (with
``src`` on ``PYTHONPATH``) prints the table for the host it runs on.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fado import streams
from fado.cli import main
from fado.scene import gen_synthetic_clips, write_frames_packed
from fado.streams import SplitMix64

from conftest import HAVE_TASKS, NO_AVX512, child_env, host_key, main_in_child

# the golden commands: each sweep kind's exit code, and the arguments of
# each ``fado gen`` design and ``fado run`` mode
SWEEP_EXIT_CODES = {"margin": 1, "center": 0, "dim": 0, "epsilon": 0,
                    "contamination": 0, "adaptive": 0}

GEN_ARGS = {
    "ball": ["--dim", "7", "--count", "5000", "--center", "1",
             "--epsilon", "1", "--mu", "0.1", "--seed", "3"],
    "circle": ["--dim", "2", "--count", "5000", "--center", "2",
               "--epsilon", "1", "--mu", "0.001", "--seed", "3"],
    "mixture": ["--dim", "10", "--count", "5000",
                "--center", "2,2,0,0,0,0,0,0,0,0", "--epsilon", "1",
                "--mu", "0.1", "--fraction", "0.05", "--radius-max", "5",
                "--seed", "3"],
}

RUN_ARGS = {
    "fixed": ["--mode", "fixed", "--epsilon", "1"],
    "adaptive": ["--mode", "adaptive"],
    "constant-gain": ["--mode", "constant-gain", "--epsilon", "1",
                      "--gamma", "0.5"],
}

# Digests of golden outputs that hold on every host.  The ``fado gen``
# .csv digests (here and in HOST_DIGESTS) and the mixture's --labels-out
# were recorded with the per-row CSV writer that the columnar row writer
# replaced.
DIGESTS = {
    "gen circle": "3d57eb09b974631be4c35197863e5b56dacde83403b25af045f58be10eab01e4",
    "gen circle.csv": "5bca18e52ad03949891c516bc706926e4420feea0182e40ebf19662d298e39d3",
    "gen mixture labels": "2f482cabbcd13516923a9c60679d86c09713e0cd9bb64a54fdf079b6c728561b",
    "scene memory.pgm": "71503e082b7baaeb36ebdb1b40267f8d0b496fac1e467b41ca58c20bd287c4b3",
    "wide scene memory.pgm": "924ccb277ebf577548ff12bdb5d5b15f4ee088c2f17621a605a5dfde770bc0c5",
}

# host_key() -> the digests of the golden outputs whose float bits depend
# on the host.  ("SkylakeX", True) is the host the digests were first
# recorded on; the two Haswell tables were recorded on it under
# OPENBLAS_CORETYPE=Haswell, the second also with numpy's AVX512 kernels
# off (EMULATED_HOSTS), as an AVX2-only host such as AMD Zen 2 or 3.
HOST_DIGESTS = {
    ("SkylakeX", True): {
        "sweep adaptive": "2eb669213b8c631047c9ee90dfda7ed5f9339ed36bc1a32803f8f6a46b84b1fb",
        "sweep center": "14d29825b3fa125bce1eac14427e4d79a137513af59290c5703f40be9e50ecf8",
        "sweep contamination": "44bb10601f9317e85bce9f8401426b4cd24bb0e82c63d765606ad9403cfd3cae",
        "sweep dim": "a3235564c41bb7a6415bb6f37f48c6004fe5b5c59c3d447a9df9417479018649",
        "sweep epsilon": "903b8a9fcf9f5dbfc45b162c31d2edc31bce06a86ca0b44f5946922bdf499a74",
        "sweep margin": "eebdc58ddaef761ad1478e01c24f6e853a544a229b82aba0ce3be608696a16b8",
        "gen ball": "97ef156c9b2f062d130cd815d3c875c645b5ee9a0efc87b53533f30522899576",
        "gen mixture": "37c9f5f081911db445ab075708bebd0c77ec21660c1ac8fa022e956f86be2d7b",
        "gen ball.csv": "ccb9976eb95633bf955de200b5af73d67913aecc503ec7ee0a878f9fbb0465b0",
        "gen mixture.csv": "20558129281723dfc5fce9b6b8aa8fe79d7e30138c6d91e1ac0c60034901fa61",
        "run adaptive": "e7ef3ada690e414285452c79769038b784bcccd5f852e4af624465074b5e77ce",
        "run adaptive.ckpt": "2471e8c6b65cb91b6ec7cd90bff766663ce711439e921c4a7f4d91d82b38404c",
        "run constant-gain": "89922f44a00d1df7cf9f8fb6302b4cc4d2b77086159fa96ed0575ad7a9c8f8e1",
        "run constant-gain.ckpt": "914ded965d58eaebaf9d6ba63386741f6da23af50a3b4416700747152ac24cbb",
        "run fixed": "1ea24eff8a6de2eb31c37bf6c19af712c15c9591a1589d1d56437a9cbc6bf009",
        "run fixed.ckpt": "1ffee173a316ed78a60883dd73890a428b908a77a7e4642df006dcbb836706c7",
        "scene timeline.csv": "8a6d743a663fc97387adef5b6838cd94319506dc343e4dbfce5bd4b661b34e72",
        "scene state.ckpt": "a42ed18f2f7cf44fd2b7e5b6e583db0e4fd0587c869f598f6262f317e0c0339f",
        "long scene timeline.csv": "a6f00ef7bae59c78eca865506e85b1fe17246854e8ae445ed972f783937c3cbf",
        "split gen": "2e0e24d45d71f104b7b4f465fe8b9a4a50c008eef2af75cf83e8eea76f1cc528",
        "wide scene timeline.csv": "ea93a2caaa92a5dbf18e018f3b1ccee8cf6a24df12e199a5413c2571e43bb477",
        "wide scene state.ckpt": "3b16daee5964e3a00a5733c06e911be359de0e1ec9e015e598199c4d96e3c40a",
    },
    ("Haswell", True): {
        "sweep adaptive": "2b6a8b71c9a827edb56af5b554b129b21bf103a377d9bd244572a70f39004e67",
        "sweep center": "368f58740f6b656f9e5694403ac1399467852cf1c66d7838a739a66f2f2ea8bb",
        "sweep contamination": "15cbc0d15dba13682be64cc5e4fb0ba78e2c7e0cd0ac3dfbc8a8cee984a6d4ff",
        "sweep dim": "7ac1d68f499be6d2d6ee348e7a34671eb42f231b0de0105c52b1c125010be267",
        "sweep epsilon": "c9348dff048db88acc257b2cab6b8cfa0aa66a6ddc577bbe43919da0a3cd08fa",
        "sweep margin": "c900acf31aabf4baa254027b763ba4a62e623228da40ba829acc790750947e7d",
        "gen ball": "97ef156c9b2f062d130cd815d3c875c645b5ee9a0efc87b53533f30522899576",
        "gen mixture": "37c9f5f081911db445ab075708bebd0c77ec21660c1ac8fa022e956f86be2d7b",
        "gen ball.csv": "ccb9976eb95633bf955de200b5af73d67913aecc503ec7ee0a878f9fbb0465b0",
        "gen mixture.csv": "20558129281723dfc5fce9b6b8aa8fe79d7e30138c6d91e1ac0c60034901fa61",
        "run adaptive": "4193a128c3b447f447c1f7c989a06c2deff19d4a859ebaa81610fed5dd7acdbf",
        "run adaptive.ckpt": "6eb6e03abf11b0a265b9ae731955501065e351b17c5d4c3fc1ee7c1391bfaadc",
        "run constant-gain": "683fa90eacc0853dd999e5eee0a881ecd408b2f77b6dd1476b4fd2ccfa3bc011",
        "run constant-gain.ckpt": "b2c30df1a36424eeac6cc86a50b247cbb3341b4f49399c6cfa7387ccc76da869",
        "run fixed": "fd37f560f6e3b1e1e936581233c9a044c2820c1ff8c6018d9eff71ed7d6045e2",
        "run fixed.ckpt": "377dd504287f2b6bd02f01d19c6abbd20614a6ed4cb7b1bb2c2b25cb1969fd40",
        "scene timeline.csv": "2f29c061866525018f7207d580ebfb2dabf14e24c5e6f3d59ed5001a1d1e4ec8",
        "scene state.ckpt": "08d3f0ab54ac8e13ba3fc4ce229e83bc185b38511f21e8e444e5de41c97f486e",
        "long scene timeline.csv": "e3ea2af793b759bfcafec954b5a1ec5875e613bef440915cb00fc6732d33b1e8",
        "split gen": "2e0e24d45d71f104b7b4f465fe8b9a4a50c008eef2af75cf83e8eea76f1cc528",
        "wide scene timeline.csv": "cc5a8d4d87eb59278cbc4de20def6816abfa26a373fa37ec2777bfb75bc2fb91",
        "wide scene state.ckpt": "dcdce988874057b03aa4d77712cbf66c5159ee4cd6aba65307ed78139ea1d21d",
    },
    ("Haswell", False): {
        "sweep adaptive": "2b6a8b71c9a827edb56af5b554b129b21bf103a377d9bd244572a70f39004e67",
        "sweep center": "368f58740f6b656f9e5694403ac1399467852cf1c66d7838a739a66f2f2ea8bb",
        "sweep contamination": "15cbc0d15dba13682be64cc5e4fb0ba78e2c7e0cd0ac3dfbc8a8cee984a6d4ff",
        "sweep dim": "4d8a25971951e683030f3bd240780cdf9655a43202429e50886b8947fb0814a5",
        "sweep epsilon": "c9348dff048db88acc257b2cab6b8cfa0aa66a6ddc577bbe43919da0a3cd08fa",
        "sweep margin": "c900acf31aabf4baa254027b763ba4a62e623228da40ba829acc790750947e7d",
        "gen ball": "67fec422f5bc1e22dcedcbd91c6b3404cfb9326a4af0e24633a9b62d588c5a6b",
        "gen mixture": "2c68e123d89ac52768e5047d779be3af68536ec7db53e5f7e15ca7376bc5e1a8",
        "gen ball.csv": "dcbfa1ec1f4641e2da5508de1282741caf23b37e310cd757e9ef468e1e528c6e",
        "gen mixture.csv": "d4883a5049dfcea3d17697127707314930a000ab276e8ca1bca832e51d8b212c",
        "run adaptive": "bfb9509466efd0453a900ac64e1fa90f3c44b220818aacd433ad83c6ac4770f8",
        "run adaptive.ckpt": "9c8d02c8ff083275ba2c5e536e59d256e6c7293c0db02d179f22b1ff06f1e0e0",
        "run constant-gain": "7ddb7ad7dfc0d91e8f5c7e6dae91ed5510672d71f366e6583e751cff1b743650",
        "run constant-gain.ckpt": "261cd0e78f41535a38e6aea28edd92b493f92cf857c05a8a60d9292fff2f4e8c",
        "run fixed": "73aefa2993914ca64c4c7eef145108e8ac8ca39ef0928f7d2dc4d0f53da224d4",
        "run fixed.ckpt": "1abd2cc6e88825915ac3e0266999f99f1f4f528bcd03a28add69aa6c1cfdce38",
        "scene timeline.csv": "2f29c061866525018f7207d580ebfb2dabf14e24c5e6f3d59ed5001a1d1e4ec8",
        "scene state.ckpt": "08d3f0ab54ac8e13ba3fc4ce229e83bc185b38511f21e8e444e5de41c97f486e",
        "long scene timeline.csv": "e3ea2af793b759bfcafec954b5a1ec5875e613bef440915cb00fc6732d33b1e8",
        "split gen": "18f3c68139b2ad89c0dce361ce123fb6e95c831a74660516f820bd123ab7298f",
        "wide scene timeline.csv": "cc5a8d4d87eb59278cbc4de20def6816abfa26a373fa37ec2777bfb75bc2fb91",
        "wide scene state.ckpt": "dcdce988874057b03aa4d77712cbf66c5159ee4cd6aba65307ed78139ea1d21d",
    },
}

# the variables that make this host compute as each other keyed host would
EMULATED_HOSTS = {
    ("Haswell", True): {"OPENBLAS_CORETYPE": "Haswell"},
    ("Haswell", False): {"OPENBLAS_CORETYPE": "Haswell",
                         "NPY_DISABLE_CPU_FEATURES": NO_AVX512},
}

# SplitMix64(7).next_u64_block(100003) as little-endian bytes, and the state
# after the call
U64_BLOCK_DIGEST = (
    "a8a8e5aa18448273b2c002d9983205f5335b3152156265adc0911b7ab88b7246",
    0x40c319078574ff66)

# frames of gen_synthetic_clips(*args, seed=4); amplitude 0 takes the general
# noise loop, whose draws floor to zero noise
CLIP_DIGESTS = {
    (400, 400, 2, 3, 10):
        "879ecada2e0c4ab911587f52bdfc7275cff4ca851627f9b16061bd0c747b9823",
    (300, 250, 2, 2, 0):
        "0ee925865bc382bb1c89accdda347943605263a371f7637e95fcdc32ef53e633",
}

# ``fado gen`` of a 200,000-row 10-d mixture at seed 1 (the stream-batch
# benchmark's input), and clips of 30,000-pixel frames, 13 to a clip: a
# split needs 2 * ceil(4 * 32768 / 30000) = 10 frames
SPLIT_GEN_ARGS = ["--design", "mixture", "--dim", "10", "--count", "200000",
                  "--center", "2,2,0,0,0,0,0,0,0,0", "--epsilon", "1",
                  "--mu", "0.1", "--fraction", "0.05", "--radius-max", "5",
                  "--seed", "1"]
SPLIT_CLIP_ARGS = (200, 150, 2, 13, 10)
SPLIT_CLIP_DIGEST = \
    "9eba975eb1ecd59471d75e7832cd3a2f43313da6a35fc4530cb92066e53c15fb"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _check(name: str, digest: str) -> None:
    """Assert that ``digest`` is the golden output ``name``'s: in DIGESTS,
    or else in this host's table in HOST_DIGESTS, which must exist."""
    if name in DIGESTS:
        assert digest == DIGESTS[name], name
    elif (key := host_key()) not in HOST_DIGESTS:
        pytest.fail(f"no golden digests for host key {key!r}: record its "
                    "table as README's \"Tests and the acceptance suite\" "
                    "says", pytrace=False)
    else:
        assert digest == HOST_DIGESTS[key][name], name


@pytest.mark.parametrize("kind", sorted(SWEEP_EXIT_CODES))
def test_sweep_csv_bytes_are_pinned(kind, tmp_path):
    out = tmp_path / f"{kind}.csv"
    assert main(["sweep", kind, "--seeds", "2", "--count", "1500",
                 "--out", str(out)]) == SWEEP_EXIT_CODES[kind]
    _check(f"sweep {kind}", _sha256(out))


@pytest.mark.parametrize("design", sorted(GEN_ARGS))
def test_generated_stream_bytes_are_pinned(design, tmp_path):
    out = tmp_path / f"{design}.bin"
    assert main(["gen", "--design", design, *GEN_ARGS[design],
                 "--out", str(out)]) == 0
    _check(f"gen {design}", _sha256(out))


@pytest.mark.parametrize("design", sorted(GEN_ARGS))
def test_generated_csv_bytes_are_pinned(design, tmp_path):
    args = GEN_ARGS[design]
    out, labels = tmp_path / f"{design}.csv", tmp_path / "labels.csv"
    if design == "mixture":
        args = [*args, "--labels-out", str(labels)]
    assert main(["gen", "--design", design, *args, "--out", str(out)]) == 0
    _check(f"gen {design}.csv", _sha256(out))
    if design == "mixture":
        _check("gen mixture labels", _sha256(labels))


@pytest.mark.parametrize("mode", sorted(RUN_ARGS))
def test_run_outcome_and_checkpoint_bytes_are_pinned(mode, tmp_path):
    stream = tmp_path / "mixture.bin"
    assert main(["gen", "--design", "mixture", *GEN_ARGS["mixture"],
                 "--out", str(stream)]) == 0
    out, ckpt = tmp_path / "out.csv", tmp_path / "state.ckpt"
    assert main(["run", *RUN_ARGS[mode], "--input", str(stream),
                 "--output", str(out), "--checkpoint-out", str(ckpt)]) == 0
    _check(f"run {mode}", _sha256(out))
    _check(f"run {mode}.ckpt", _sha256(ckpt))


def test_scene_outputs_are_pinned(tmp_path):
    paths = {name: tmp_path / name
             for name in ("timeline.csv", "memory.pgm", "state.ckpt")}
    assert main(["scene", "--synthetic", "--epsilon", "5",
                 "--timeline", str(paths["timeline.csv"]),
                 "--snapshot", str(paths["memory.pgm"]),
                 "--checkpoint-out", str(paths["state.ckpt"])]) == 0
    for name, path in paths.items():
        _check(f"scene {name}", _sha256(path))


def test_wide_scene_outputs_are_pinned(tmp_path):
    """400 x 400 frames (n = 160,000): a scan chunk is one frame.  The
    command runs in a child with one BLAS thread, as ``fado`` runs when no
    thread count is set."""
    paths = {name: tmp_path / name
             for name in ("timeline.csv", "memory.pgm", "state.ckpt")}
    probe = main_in_child(
        ["scene", "--synthetic", "--width", "400", "--height", "400",
         "--clips", "2", "--frames-per-clip", "6", "--epsilon", "225",
         "--timeline", paths["timeline.csv"], "--snapshot",
         paths["memory.pgm"], "--checkpoint-out", paths["state.ckpt"]],
        OPENBLAS_NUM_THREADS=None)
    assert probe["code"] == 0, probe["stderr"]
    for name, path in paths.items():
        _check(f"wide scene {name}", _sha256(path))


def test_long_scene_timeline_is_pinned(tmp_path):
    timeline = tmp_path / "timeline.csv"
    assert main(["scene", "--synthetic", "--width", "2", "--height", "2",
                 "--clips", "17", "--frames-per-clip", "1000",
                 "--epsilon", "0.5", "--timeline", str(timeline)]) == 0
    _check("long scene timeline.csv", _sha256(timeline))


def test_u64_block_bytes_are_pinned():
    rng = SplitMix64(7)
    block = rng.next_u64_block(100_003).astype("<u8").tobytes()
    assert (hashlib.sha256(block).hexdigest(), rng._state) == U64_BLOCK_DIGEST


@pytest.mark.parametrize("args", sorted(CLIP_DIGESTS))
def test_synthetic_clip_bytes_are_pinned(args):
    frames, _ = gen_synthetic_clips(*args, seed=4)
    assert hashlib.sha256(frames.frames.tobytes()).hexdigest() == \
        CLIP_DIGESTS[args]


def test_split_generation_bytes_are_pinned(monkeypatch, tmp_path):
    monkeypatch.setattr(streams, "_usable_cpus", lambda: 2)
    out = tmp_path / "mixture.bin"
    assert main(["gen", *SPLIT_GEN_ARGS, "--out", str(out)]) == 0
    _check("split gen", _sha256(out))
    frames, _ = gen_synthetic_clips(*SPLIT_CLIP_ARGS, seed=4)
    assert hashlib.sha256(frames.frames.tobytes()).hexdigest() == \
        SPLIT_CLIP_DIGEST


def test_cli_import_loads_no_scipy(tmp_path):
    """Nor the sweeps, which only ``fado sweep`` imports; a ``fado run``
    loads only the detector, the checkpoint codec and the stream I/O."""
    code = ("import sys, fado.cli; "
            "print(sorted(m for m in sys.modules "
            "if m in ('scipy', 'fado.experiments') "
            "or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[]"
    stream = tmp_path / "s.csv"
    assert main(["gen", "--dim", "2", "--count", "50", "--center", "1",
                 "--epsilon", "1", "--seed", "1", "--out", str(stream)]) == 0
    probe = main_in_child(["run", "--mode", "fixed", "--epsilon", "1",
                           "--input", stream,
                           "--output", tmp_path / "o.csv"])
    assert probe["code"] == 0
    assert probe["modules"] == ["fado", "fado.checkpoint", "fado.cli",
                                "fado.detector", "fado.streamio", "numpy"]


def test_packed_scene_loads_no_generator(tmp_path):
    """``fado scene --packed`` loads neither the stream generators nor
    the bounds; only ``--synthetic`` needs them."""
    pack = tmp_path / "frames.pack"
    write_frames_packed(gen_synthetic_clips(4, 4, 2, 3, 5, seed=1)[0], pack)
    probe = main_in_child(["scene", "--packed", pack,
                           "--timeline", tmp_path / "timeline.csv"])
    assert probe["code"] == 0
    assert probe["modules"] == ["fado", "fado.checkpoint", "fado.cli",
                                "fado.detector", "fado.scene",
                                "fado.streamio", "numpy"]


def test_wide_scene_outputs_do_not_depend_on_blas_threads(tmp_path):
    """128 x 128 frames (n = 16384): a single BLAS dot product of that
    length is split across OpenBLAS threads, which changes its bits.  The
    child given two threads must run two (OpenBLAS caps the count at the
    CPUs the process may use), so that the comparison is not between two
    one-thread runs."""
    frames, _ = gen_synthetic_clips(128, 128, 3, 8, 10, seed=4)
    pack = tmp_path / "frames.pack"
    write_frames_packed(frames, pack)
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        probe = main_in_child(
            ["scene", "--packed", pack, "--epsilon", "10", "--gamma", "30",
             "--timeline", out / "timeline.csv",
             "--snapshot", out / "memory.pgm",
             "--checkpoint-out", out / "state.ckpt"],
            OPENBLAS_NUM_THREADS=threads)
        assert probe["code"] == 0
        if HAVE_TASKS:
            assert probe["tasks"] == min(int(threads),
                                         len(os.sched_getaffinity(0)))
        outputs.append({name: (out / name).read_bytes()
                        for name in ("timeline.csv", "memory.pgm",
                                     "state.ckpt")})
    assert b"\n10,0," in outputs[0]["timeline.csv"]  # a quiet frame
    assert outputs[0] == outputs[1]


def test_a_host_without_a_table_fails_naming_its_key(monkeypatch):
    monkeypatch.setattr(sys.modules[__name__], "host_key",
                        lambda: ("Katmai", False))
    with pytest.raises(pytest.fail.Exception) as failed:
        _check("run fixed", "0" * 64)
    assert str(failed.value) == (
        "no golden digests for host key ('Katmai', False): record its "
        "table as README's \"Tests and the acceptance suite\" says")


# prints the host_key() of a child process as one JSON line
_KEY_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
from conftest import host_key
print(json.dumps(host_key()))
"""


@pytest.mark.parametrize("key", EMULATED_HOSTS, ids=lambda key: "-".join(
    [key[0], "avx512" if key[1] else "no-avx512"]))
def test_emulated_hosts_pass_the_golden_tests(key):
    """This file's tests, in a child process that emulates the host of
    another table; on a host that cannot emulate it (say, one without
    AVX512 for ("Haswell", True)) this test skips."""
    env = child_env(**EMULATED_HOSTS[key])
    probe = subprocess.run([sys.executable, "-c", _KEY_CHILD,
                            str(Path(__file__).parent)],
                           env=env, capture_output=True, text=True,
                           check=True)
    emulated = tuple(json.loads(probe.stdout))
    if emulated != key:
        pytest.skip(f"{EMULATED_HOSTS[key]} gives host key {emulated!r} "
                    "here")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         __file__, "-k", "not emulated_hosts"],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout[-2000:]


if __name__ == "__main__":
    # Print this host's HOST_DIGESTS entry: run the golden tests with each
    # keyed digest recorded in place of checked.
    import test_golden
    table, check = {}, test_golden._check

    def record(name, digest):
        if name in DIGESTS:
            check(name, digest)
        else:
            table[name] = digest

    test_golden._check = record
    code = pytest.main(["-q", "-p", "no:cacheprovider", __file__,
                        "-k", "pinned"])
    print(f"    {host_key()!r}: {{")
    for name, digest in table.items():
        print(f"        {json.dumps(name)}: {json.dumps(digest)},")
    print("    },")
    sys.exit(code)
