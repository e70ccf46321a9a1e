"""Decision digests: the columns of ``fado run`` that no host changes.

numpy's AVX512 ``log`` and ``pow`` kernels and OpenBLAS's per-core ``ddot``
give other float bits on other hosts, so the full-byte digests of
``test_golden.py`` hold on one host only.  The decisions do not move: on
the golden mixture, each ``RUN_DIGESTS`` mode's ``t``, ``alarm``,
``threshold`` and ``gain_applied`` columns hash the same natively and
under each emulated host below, where only ``distance`` differs (by a few
ulps).  Each child process generates the mixture itself, so the digests
also cover a mixture drawn by the emulated kernels.  They were recorded
before the outlier shell's radius was drawn directly, and still hold.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from fado.cli import main

from conftest import child_env
from test_golden import GEN_DIGESTS, RUN_DIGESTS

DECISION_COLUMNS = ("t", "alarm", "threshold", "gain_applied")

DECISION_DIGESTS = {
    "adaptive": "3d2a40d06d3912f132d8bb1a527e548cc4033becb8d3c92be2ce2672e8cf8d09",
    "constant-gain": "fdd171f33a651a6ee15690498e547b27b9c5044b3aad02b5de4ca548608c0c7d",
    "fixed": "b16403db4f609ce125a0109d0f16df11074255a5dfd272464cbd6cd8dadbc95f",
}

# environment variables that make this host compute as another would:
# OPENBLAS_CORETYPE picks the kernels of numpy's bundled OpenBLAS, and
# NPY_DISABLE_CPU_FEATURES turns off numpy's AVX512 kernels
_NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"
EMULATIONS = {
    "haswell-blas": {"OPENBLAS_CORETYPE": "Haswell"},
    "prescott-blas": {"OPENBLAS_CORETYPE": "Prescott"},
    "no-avx512": {"NPY_DISABLE_CPU_FEATURES": _NO_AVX512},
    "prescott-blas-no-avx512": {"OPENBLAS_CORETYPE": "Prescott",
                                "NPY_DISABLE_CPU_FEATURES": _NO_AVX512},
}

# prints decision_digests of a fresh directory as one JSON line
_CHILD = """
import json, sys, tempfile
sys.path.insert(0, sys.argv[1])
from test_portability import decision_digests
with tempfile.TemporaryDirectory() as directory:
    print(json.dumps(decision_digests(directory)))
"""


def decision_digests(directory) -> dict:
    """SHA-256 of the decision columns of each ``RUN_DIGESTS`` mode's run
    over the golden mixture, generated into ``directory``."""
    directory = Path(directory)
    stream = directory / "mixture.bin"
    assert main(["gen", "--design", "mixture", *GEN_DIGESTS["mixture"][0],
                 "--out", str(stream)]) == 0
    digests = {}
    for mode, (args, _, _) in RUN_DIGESTS.items():
        out = directory / f"{mode}.csv"
        assert main(["run", *args, "--input", str(stream),
                     "--output", str(out)]) == 0
        header, *rows = out.read_text(encoding="ascii").splitlines()
        keep = [header.split(",").index(c) for c in DECISION_COLUMNS]
        text = "\n".join(",".join(row.split(",")[i] for i in keep)
                         for row in [header, *rows])
        digests[mode] = hashlib.sha256(text.encode("ascii")).hexdigest()
    return digests


def test_decisions_are_pinned_in_process(tmp_path):
    assert decision_digests(tmp_path) == DECISION_DIGESTS


@pytest.mark.parametrize("variables", EMULATIONS.values(), ids=EMULATIONS)
def test_decisions_hold_on_emulated_hosts(variables):
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(Path(__file__).parent)],
        env=child_env(**variables), capture_output=True, text=True,
        check=True)
    assert json.loads(proc.stdout.splitlines()[-1]) == DECISION_DIGESTS
