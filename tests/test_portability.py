"""Decision digests: the outputs of ``fado run``, ``sweep`` and ``scene``
that no host changes.

numpy's AVX512 ``log`` and ``pow`` kernels and OpenBLAS's per-core ``ddot``
give other float bits on other hosts, so ``test_golden.py`` keeps its
full-byte digests in one table per host.  The decisions do not move: on
the golden mixture, each ``RUN_ARGS`` mode's ``t``, ``alarm``,
``threshold`` and ``gain_applied`` columns hash the same natively and
under each emulated host below, where only ``distance`` differs (by a few
ulps).  So do the golden sweep CSVs without ``final_w_error``, the golden
scene timelines without ``distance`` (their ``#`` summary lines
included), and the scene snapshots.  Each child process generates the
mixture itself, so the digests also cover a mixture drawn by the emulated
kernels.  The ``run`` digests were recorded before the outlier shell's
radius was drawn directly, and still hold.  Each child also reports its
``host_key()``, which shows that the emulation took effect.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from fado.cli import main

from conftest import NO_AVX512, child_env, host_key
from test_golden import GEN_ARGS, RUN_ARGS, SWEEP_EXIT_CODES

DECISION_COLUMNS = ("t", "alarm", "threshold", "gain_applied")

# the arguments of test_golden.py's three scene commands
SCENE_COMMANDS = {
    "scene": ["--epsilon", "5"],
    "long-scene": ["--width", "2", "--height", "2", "--clips", "17",
                   "--frames-per-clip", "1000", "--epsilon", "0.5"],
    "wide-scene": ["--width", "400", "--height", "400", "--clips", "2",
                   "--frames-per-clip", "6", "--epsilon", "225"],
}

DECISION_DIGESTS = {
    "adaptive": "3d2a40d06d3912f132d8bb1a527e548cc4033becb8d3c92be2ce2672e8cf8d09",
    "constant-gain": "fdd171f33a651a6ee15690498e547b27b9c5044b3aad02b5de4ca548608c0c7d",
    "fixed": "b16403db4f609ce125a0109d0f16df11074255a5dfd272464cbd6cd8dadbc95f",
    "sweep-adaptive": "24235bb1e65b298c01c9635ed88b051e96418d2afbaec0a100891310e30f1d7a",
    "sweep-center": "50c37361089f7c9a1d3090d23b30ee7cd2ceb2142797bcb376cf4f5690cfe4cc",
    "sweep-contamination": "49ffe35347df2b0def69a60c8c0d751bbb5ea5f2e5506de3ceda76804c505ad8",
    "sweep-dim": "5233225f9f46b8f95c36aa74f66682525fd2a0be744c407652b56d6e5a838a8c",
    "sweep-epsilon": "887606b8ade73cf44fcfebf81c15298d7bcc4cb8fb8704815cacb7abdbd6103f",
    "sweep-margin": "b4d6b6097936e623f019f8e0c8e096f979c66e20264f92a10885adf190072391",
    "scene-timeline": "b1e08a38860cee27d962a9362a62cb3f7e27ae8d1262b7882375ed73e01b3188",
    "scene-snapshot": "71503e082b7baaeb36ebdb1b40267f8d0b496fac1e467b41ca58c20bd287c4b3",
    "long-scene-timeline": "1f2dac1a68f2a0914d63600f0741c9a905fdb0624f63c49bfc7cd4b1f648e389",
    "long-scene-snapshot": "71844f215a2b2e741bcc238fbef2b0177ec6ee018ae8e6afdaba093012a38605",
    "wide-scene-timeline": "d97a29fa3f82fae0f81582adbee0378c00fc18d79cb38e85f6d66bb1a5e88053",
    "wide-scene-snapshot": "924ccb277ebf577548ff12bdb5d5b15f4ee088c2f17621a605a5dfde770bc0c5",
}

# environment variables that make this host compute as another would:
# OPENBLAS_CORETYPE picks the kernels of numpy's bundled OpenBLAS, and
# NPY_DISABLE_CPU_FEATURES turns off numpy's AVX512 kernels
EMULATIONS = {
    "haswell-blas": {"OPENBLAS_CORETYPE": "Haswell"},
    "prescott-blas": {"OPENBLAS_CORETYPE": "Prescott"},
    "no-avx512": {"NPY_DISABLE_CPU_FEATURES": NO_AVX512},
    "prescott-blas-no-avx512": {"OPENBLAS_CORETYPE": "Prescott",
                                "NPY_DISABLE_CPU_FEATURES": NO_AVX512},
}

# the host_key() each emulation gives, where None keeps this host's value
# (Prescott's kernels report the core name Katmai)
EMULATED_KEYS = {
    "haswell-blas": ("Haswell", None),
    "prescott-blas": ("Katmai", None),
    "no-avx512": (None, False),
    "prescott-blas-no-avx512": ("Katmai", False),
}

# prints the host_key() and the decision_digests of a fresh directory as
# one JSON line
_CHILD = """
import json, sys, tempfile
sys.path.insert(0, sys.argv[1])
from conftest import host_key
from test_portability import decision_digests
with tempfile.TemporaryDirectory() as directory:
    print(json.dumps([host_key(), decision_digests(directory)]))
"""


def _digest(path, drop=None, keep=None) -> str:
    """SHA-256 of the CSV at ``path`` with only the columns ``keep``, or
    without the column ``drop``; ``#`` lines are hashed whole."""
    header, *rows = path.read_text(encoding="ascii").splitlines()
    names = header.split(",")
    keep = [names.index(c) for c in keep or names if c != drop]
    text = "\n".join(row if row.startswith("#")
                     else ",".join(row.split(",")[i] for i in keep)
                     for row in [header, *rows])
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def decision_digests(directory) -> dict:
    """SHA-256 of the decision columns of each ``RUN_ARGS`` mode's run
    over the golden mixture, of each golden sweep CSV without
    ``final_w_error``, and of the three golden scene commands' timelines
    without ``distance`` and their snapshots; all made in ``directory``."""
    directory = Path(directory)
    stream = directory / "mixture.bin"
    assert main(["gen", "--design", "mixture", *GEN_ARGS["mixture"],
                 "--out", str(stream)]) == 0
    digests = {}
    for mode, args in RUN_ARGS.items():
        out = directory / f"{mode}.csv"
        assert main(["run", *args, "--input", str(stream),
                     "--output", str(out)]) == 0
        digests[mode] = _digest(out, keep=DECISION_COLUMNS)
    for kind, exit_code in SWEEP_EXIT_CODES.items():
        out = directory / f"sweep-{kind}.csv"
        assert main(["sweep", kind, "--seeds", "2", "--count", "1500",
                     "--out", str(out)]) == exit_code
        digests[f"sweep-{kind}"] = _digest(out, drop="final_w_error")
    for name, args in SCENE_COMMANDS.items():
        timeline = directory / f"{name}.csv"
        snapshot = directory / f"{name}.pgm"
        assert main(["scene", "--synthetic", *args, "--timeline",
                     str(timeline), "--snapshot", str(snapshot)]) == 0
        digests[f"{name}-timeline"] = _digest(timeline, drop="distance")
        digests[f"{name}-snapshot"] = hashlib.sha256(
            snapshot.read_bytes()).hexdigest()
    return digests


def test_decisions_are_pinned_in_process(tmp_path):
    assert decision_digests(tmp_path) == DECISION_DIGESTS


@pytest.mark.parametrize("name", EMULATIONS)
def test_decisions_hold_on_emulated_hosts(name):
    """Where this host already has a value the emulation sets, the test
    skips: the child could not show that the emulation took effect."""
    variables, changes = EMULATIONS[name], EMULATED_KEYS[name]
    here = host_key()
    if any(change == value for change, value in zip(changes, here)):
        pytest.skip(f"this host's key {here!r} already has what {variables} "
                    "sets")
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(Path(__file__).parent)],
        env=child_env(**variables), capture_output=True, text=True,
        check=True)
    key, digests = json.loads(proc.stdout.splitlines()[-1])
    assert tuple(key) == tuple(value if change is None else change
                               for change, value in zip(changes, here))
    assert digests == DECISION_DIGESTS
