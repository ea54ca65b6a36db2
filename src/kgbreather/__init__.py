"""Periodic nonlinear field runs with phase-plane mode classification."""

from .configfile import parse_config, parse_config_text
from .core import (
    DIAGNOSTICS_COLUMNS,
    DiagnosticsRow,
    FieldState,
    Grid,
    SimParams,
    half_domain_masks,
    initial_state,
    make_grid,
    params_from_dict,
    params_to_dict,
    probe_indices,
    validate_params,
)
from .dynamics import FixedPointSet, energy, energy_drift, fixed_points, momentum, rhs
from .errors import (
    CenterOnLoop,
    CenterOnTrack,
    ConfigParseError,
    DegenerateLoop,
    IncompatibleDomain,
    InsufficientData,
    InvalidGrid,
    InvalidParams,
    KgError,
    LengthMismatch,
    MissingSnapshot,
    NonFinite,
    NonIntegerWinding,
    StageSolveDiverged,
    UnsupportedStageCount,
)
from .geometry import (
    ClassifyResult,
    CrossingSet,
    ModeLabel,
    TracerTrack,
    classify_mode,
    cumulative_rotation,
    self_intersections,
    winding_number,
)
from .spectral import dft_forward, dft_inverse, first_derivative
from .stepping import (
    ButcherTableau,
    RunSummary,
    StageSolver,
    StepReport,
    gauss_tableau,
    integrate,
    irk_step,
)

__version__ = "0.1.0"
