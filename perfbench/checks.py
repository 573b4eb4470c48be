"""Output checks applied to every benchmark job.

Each check returns a Check. A failed check is always counted; `known`
marks a failure whose cause is one of the defects listed in KNOWN_DEFECTS,
recognised from the inputs that trigger it rather than from the check's
name, so the same check failing for any other reason still makes the run
incorrect.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FID_TOL = 1e-9
EXACT_TOL = 1e-12
OPEN_REF = {"cat2": 0.97972653, "cat4": 0.98222399}
OPEN_TOL = 0.005
WIGNER_TOL = 1e-2

KNOWN_DEFECTS = {
    "json_roundtrip": "ROADMAP item 4(a): schedule_to_json drops "
                      "PulseSchedule.initial, so a schedule that starts "
                      "above the ground Fock level replays from |g,0> "
                      "after a round trip",
    "planner_count": "ROADMAP item 4(c): the planner counts the base stage "
                     "from a formula (base_step_count, or the target's own "
                     "base-block occupancy for two oscillators), not from the "
                     "base stage the compiler builds: it counts an order-2 "
                     "shortcut at n >= 4 that ftp_schedule does not build, "
                     "counts base levels the target leaves empty, and misses "
                     "base levels the climbs fill (odd NOON at orders (2, 2))",
}


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    known: bool = False


def pair_count(schedule) -> int:
    """Number of exchange pulses, i.e. (drive, exchange) pairs."""
    return sum(1 for s in schedule.steps if s.kind == "njc")


def compile_fidelity(fid: float) -> Check:
    return Check("compile_fidelity", fid >= 1.0 - FID_TOL)


def json_roundtrip(fid_roundtrip: float, fid: float, initial: tuple) -> Check:
    """The read-back schedule must replay at the original fidelity."""
    ok = abs(fid_roundtrip - fid) <= FID_TOL
    return Check("json_roundtrip", ok, known=not ok and any(initial[1:]))


def planner_count(planned: int, schedule, planned_climb: int, base_max: int) -> Check:
    """The planner's step count must equal the compiled pair count.

    planned_climb is the planner's count without its base stage, and
    base_max the most pairs the compiler's order-1 base stage can take. A
    mismatch that the base stage can explain is the known base-count defect.
    """
    pairs = pair_count(schedule)
    ok = planned == pairs
    known = not ok and 0 <= pairs - planned_climb <= base_max
    return Check("planner_count", ok, known)


def open_fidelity(kind: str, fid: float) -> Check:
    return Check("open_fidelity", abs(fid - OPEN_REF[kind]) <= OPEN_TOL)


def wigner_integral(integral: float) -> Check:
    return Check("wigner_integral", abs(integral - 1.0) <= WIGNER_TOL)


def refine_no_worse(fid_out: float, fid_in: float) -> Check:
    return Check("refine_no_worse", fid_out >= fid_in - EXACT_TOL)


def refine_reported(reported: float, fresh: float) -> Check:
    return Check("refine_reported", abs(reported - fresh) <= EXACT_TOL)


def step_replay(stepwise: np.ndarray, whole: np.ndarray) -> Check:
    """Step-by-step propagator replay must equal apply_schedule."""
    return Check("step_replay", float(np.max(np.abs(stepwise - whole))) <= EXACT_TOL)


def cli_exit(code: int) -> Check:
    return Check("cli_exit", code == 0)


def cli_output(value: float, expected: float) -> Check:
    """Numbers the CLI prints, to the 12 significant digits it prints."""
    return Check("cli_output", abs(value - expected) <= FID_TOL * max(1.0, abs(expected)))
