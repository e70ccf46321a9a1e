"""FADO: mistake-driven online fault detection.

Detectors with fixed or adaptive radii and decaying or constant gains,
executable mistake/power bounds with explicit constants, seeded synthetic
stream generators, figure-style experiment sweeps, and a frame-sequence
scene-change pipeline.
"""

__version__ = "0.1.0"

from .bounds import (
    ContaminationReport,
    GroundTruth,
    TraceAudit,
    ac_x_bound,
    ac_y_bound,
    adaptive_mistake_bound,
    audit_trace,
    gamma_sum_lower_bound,
    mistake_bound_agnostic,
    mistake_bound_realizable,
    power_delta_bound,
    riemann_zeta,
    sigma_size,
)
from .checkpoint import CheckpointError, checkpoint_decode, checkpoint_encode
from .detector import (
    AdaptiveRadius,
    Constant,
    Detector,
    DiagnosticsTrace,
    FixedRadius,
    PowerDecay,
    ScanOutcomes,
    StepOutcome,
    gain_value,
    new_detector,
)
from .streams import (
    Design,
    SplitMix64,
    StreamSpec,
    gen_circle_stream,
    gen_contaminated_stream,
    gen_outliers,
    gen_realizable_stream,
    sample_ball_uniform,
)

__all__ = [
    "__version__",
    "AdaptiveRadius",
    "Constant",
    "ContaminationReport",
    "CheckpointError",
    "Design",
    "Detector",
    "DiagnosticsTrace",
    "FixedRadius",
    "GroundTruth",
    "PowerDecay",
    "ScanOutcomes",
    "SplitMix64",
    "StepOutcome",
    "StreamSpec",
    "TraceAudit",
    "ac_x_bound",
    "ac_y_bound",
    "adaptive_mistake_bound",
    "audit_trace",
    "checkpoint_decode",
    "checkpoint_encode",
    "gain_value",
    "gamma_sum_lower_bound",
    "gen_circle_stream",
    "gen_contaminated_stream",
    "gen_outliers",
    "gen_realizable_stream",
    "mistake_bound_agnostic",
    "mistake_bound_realizable",
    "new_detector",
    "power_delta_bound",
    "riemann_zeta",
    "sample_ball_uniform",
    "sigma_size",
]
