import ctypes
import functools
import glob
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fado
from fado.detector import Detector

# /proc/self/task lists the threads of the process reading it (Linux only).
HAVE_TASKS = os.path.isdir("/proc/self/task")

# NPY_DISABLE_CPU_FEATURES value that turns off numpy's AVX512 kernels
NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"


@functools.cache
def host_key():
    """The two traits of this process's host that set the float bits of
    ``test_golden.py``'s keyed digests: the core name of numpy's bundled
    OpenBLAS, which picks its kernels (``OPENBLAS_CORETYPE`` overrides
    it), or None where numpy bundles none; and whether numpy dispatches
    its AVX512 kernels (``NPY_DISABLE_CPU_FEATURES`` can turn them off)."""
    from numpy._core._multiarray_umath import __cpu_features__
    core = None
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs",
                                       "libscipy_openblas64_*.so")):
        corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        core = corename().decode()
    return core, bool(__cpu_features__.get("AVX512_SKX"))


# Runs fado.cli.main on sys.argv[1:] in a fresh interpreter and prints its
# exit code, its thread count and OPENBLAS_NUM_THREADS after the command,
# whether it reaped a child process (one that used any CPU time: rusage
# counts microseconds, where os.times counts 10 ms ticks), and which of
# fado's modules, numpy and scipy it loaded, as one JSON line.  An
# exception that main raises is printed as the interpreter prints an
# uncaught one, with its exit code of 1.
_MAIN_PROBE = """
import json, os, resource, sys, traceback
from fado.cli import main
try:
    code = main(sys.argv[1:])
except Exception:
    traceback.print_exc()
    code = 1
tasks = os.listdir("/proc/self/task") if os.path.isdir("/proc/self/task") else ()
children = resource.getrusage(resource.RUSAGE_CHILDREN)
print(json.dumps({"code": code, "tasks": len(tasks),
    "blas_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    "reaped_child": children.ru_utime + children.ru_stime > 0,
    "modules": sorted(m for m in sys.modules
                      if m in ("numpy", "scipy") or m.split(".")[0] == "fado")}))
"""


def child_env(**variables):
    """os.environ plus ``variables``, with this checkout's fado importable;
    a variable given as None is removed."""
    src = str(Path(fado.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for name, value in variables.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return env


def main_in_child(argv, prelude="", **variables):
    """Run ``fado.cli.main(argv)`` in a child process, after the code
    ``prelude``; see _MAIN_PROBE.  The probe's fields come with the
    command's ``stdout`` (before the probe's line) and ``stderr``."""
    proc = subprocess.run(
        [sys.executable, "-c", prelude + _MAIN_PROBE, *map(str, argv)],
        env=child_env(**variables), capture_output=True, text=True,
        check=True)
    stdout, _, probe = proc.stdout.rstrip("\n").rpartition("\n")
    return dict(json.loads(probe), stdout=stdout, stderr=proc.stderr)


def run_with_norm_audit(detector: Detector, samples):
    """Step through samples, tracking the worst recomputed-norm residual.

    Returns (outcomes, max_relative_residual, min_inner_margin) where the
    residual compares the true squared center norm against the trace sums
    at every step and the margin is the inner-product lower-bound slack
    normalized by the gain energy.
    """
    outcomes = []
    worst = 0.0
    inner_min = np.inf
    for row in samples:
        outcomes.append(detector.step(row))
        wn = float(detector.w @ detector.w)
        gg = detector.trace.sum_d_gamma_sq
        gvw = detector.trace.sum_d_gamma_vw
        residual = abs(wn - (gg + 2.0 * gvw)) / max(1.0, wn)
        worst = max(worst, residual)
        inner_min = min(inner_min, (gvw + 0.5 * gg) / max(1.0, gg))
    return outcomes, worst, float(inner_min)


@pytest.fixture
def rng_seeded():
    return np.random.default_rng(20240814)
