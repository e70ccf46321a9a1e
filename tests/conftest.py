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

# Runs fado.cli.main on sys.argv[1:] in a fresh interpreter and prints its
# exit code, its thread count and OPENBLAS_NUM_THREADS after the command,
# and which of fado's modules, numpy and scipy it loaded, as one JSON line.
_MAIN_PROBE = """
import json, os, sys
from fado.cli import main
code = main(sys.argv[1:])
tasks = os.listdir("/proc/self/task") if os.path.isdir("/proc/self/task") else ()
print(json.dumps({"code": code, "tasks": len(tasks),
    "blas_env": os.environ.get("OPENBLAS_NUM_THREADS"), "modules": sorted(
    m for m in sys.modules
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


def main_in_child(argv, **variables):
    """Run ``fado.cli.main(argv)`` in a child process; see _MAIN_PROBE."""
    proc = subprocess.run(
        [sys.executable, "-c", _MAIN_PROBE, *map(str, argv)],
        env=child_env(**variables), capture_output=True, text=True,
        check=True)
    return json.loads(proc.stdout.splitlines()[-1])


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
