"""Pulse-schedule compiler and simulator for oscillator state preparation
via multiphoton qubit-oscillator exchange interactions."""

from .fockspace import (
    DimensionError,
    TruncatedSpace,
    WignerGrid,
    fidelity,
    make_space,
    wigner,
)
from .gates import (
    DispersiveModel,
    PulseStep,
    drive_propagator,
    selective_drive_frequency,
    xi,
)
from .synthesis import (
    CouplingBudget,
    PulseSchedule,
    apply_schedule,
    ftp_schedule,
    invert_symmetric,
    refine_schedule,
    schedule_from_json,
    schedule_to_json,
)
from .targets import (
    SqueezingMetrics,
    TargetState,
    cat_state,
    effective_squeezing,
    gkp_zero,
    multimode_target,
    parse_target,
)
from .planner import (
    MultiPunchCard,
    PunchCard,
    base_step_count,
    multi_punch_card,
    punch_card,
    scaling_table,
    steps_arbitrary,
    time_ftp,
    time_le,
    time_symmetric,
    two_oscillator_plan,
)
from .multiosc import (
    annotate_frequencies,
    ftp_two_oscillator,
    invert_two_oscillator,
)
from .opensystem import (
    CircuitParams,
    IntegrationError,
    NoiseRates,
    lindblad_evolve,
    run_open_protocol,
)

__version__ = "0.1.0"
