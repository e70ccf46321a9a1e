"""FADO: mistake-driven online fault detection.

Detectors with fixed or adaptive radii and decaying or constant gains,
executable mistake/power bounds with explicit constants, seeded synthetic
stream generators, figure-style experiment sweeps, and a frame-sequence
scene-change pipeline.

The public names, and their home modules ``fado.bounds``,
``fado.checkpoint``, ``fado.detector`` and ``fado.streams``, load on first
use (PEP 562), so ``import fado`` itself imports no numpy; ``fado.cli``
relies on this to set the BLAS thread count before numpy loads.
"""

import importlib

__version__ = "0.1.0"

# home module -> the public names it defines
_EXPORTS = {
    "bounds": ("ContaminationReport", "GroundTruth", "TraceAudit",
               "ac_x_bound", "ac_y_bound", "adaptive_mistake_bound",
               "audit_trace", "gamma_sum_lower_bound",
               "mistake_bound_agnostic", "mistake_bound_realizable",
               "power_delta_bound", "riemann_zeta", "sigma_size"),
    "checkpoint": ("CheckpointError", "checkpoint_decode",
                   "checkpoint_encode"),
    "detector": ("AdaptiveRadius", "Constant", "Detector",
                 "DiagnosticsTrace", "FixedRadius", "PowerDecay",
                 "ScanOutcomes", "StepOutcome", "gain_value"),
    "streams": ("Design", "SplitMix64", "StreamSpec", "gen_outliers",
                "generate"),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}

__all__ = ["__version__", *sorted(_HOME)]


def __getattr__(name):
    if name in _EXPORTS:  # a home module, as after an eager import
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__),
                    name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted([*globals(), *_EXPORTS, *_HOME])
