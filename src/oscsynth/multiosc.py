"""Two-oscillator pulse-schedule compilation.

The single-oscillator engine of synthesis, staged per oscillator
(synthesis.kill_plan at two orders): run the target backwards, first
climbing oscillator 2 down to its base levels at every oscillator-1 label,
then climbing oscillator 1 at the remaining oscillator-2 base labels, and
finally clearing the base block with the same two climbs at orders
(1, 1). Every kill is a full swap plus a joint-selective drive. Forward
replay therefore builds oscillator 1 up first, then sweeps oscillator 2
row by row, matching the published step accounting.

The result is a plain PulseSchedule over a qubit and two oscillators:
njc steps carry osc_index in {0, 1}, and both steps of a kill carry the
joint (l1, l2) label of its pair. annotate_frequencies lists the drive
frequency each step needs.
"""

from __future__ import annotations

import numpy as np

from .fockspace import QUBIT_G, TruncatedSpace, make_space
from .gates import apply_step, selective_drive_frequency
from .synthesis import CouplingBudget, PulseSchedule, _compiled, kill_plan
from .targets import TargetState, support


def ftp_two_oscillator(target: TargetState, orders: tuple,
                       budget: CouplingBudget = None,
                       space: TruncatedSpace = None) -> PulseSchedule:
    """Compile an arbitrary two-oscillator target.

    Two climbing stages at the requested orders, then the remaining base
    block over {0..n1-1} x {0..n2-1} is cleared the same way at orders
    (1, 1). Replay is exact under ideal-pair semantics.
    """
    amps = np.asarray(target.amplitudes)
    if amps.ndim != 2:
        raise ValueError("ftp_two_oscillator compiles two-oscillator targets")
    # the base kills come last in inversion order, so the forward replay
    # prepares the base block first; kill_plan checks orders
    occupied = support(amps)
    plan = kill_plan(occupied, orders)
    if space is None:
        n1, n2 = orders
        top1, top2 = np.argwhere(occupied).max(axis=0)
        space = make_space((max(top1 + n1 + 1, n1 + 2), max(top2 + n2 + 1, n2 + 2)))
    return _compiled(space, plan, (QUBIT_G, 0, 0), target, budget=budget,
                     semantics="ideal-pair", target_label=target.label)


def invert_two_oscillator(target: TargetState, orders: tuple,
                          budget: CouplingBudget = None,
                          space: TruncatedSpace = None) -> PulseSchedule:
    """Compile a rotationally-symmetric two-oscillator target.

    The support must sit on the lattice {(j1 n1, j2 n2)}; the schedule then
    needs no separate base stage (the base block is |0,0> alone), so the
    forward replay is: oscillator-1 ladder first, then oscillator-2 column
    sweeps, as in the reference trajectories.
    """
    # ftp_two_oscillator checks orders before they are unpacked here
    schedule = ftp_two_oscillator(target, orders, budget=budget, space=space)
    n1, n2 = orders
    for l1, l2 in np.argwhere(support(target.amplitudes)):
        if l1 % n1 or l2 % n2:
            raise ValueError(
                f"support at ({l1},{l2}) breaks the ({n1},{n2}) lattice symmetry")
    return schedule


def intermediate_states(schedule: PulseSchedule):
    """Forward state after each step under the schedule's semantics,
    starting state first."""
    out = [schedule.space.basis_state(*schedule.initial)]
    for step in schedule.steps:
        out.append(apply_step(schedule.space, step, out[-1], schedule.semantics))
    return out


def annotate_frequencies(schedule: PulseSchedule, models: tuple) -> list:
    """The drive frequency (rad/s) of every step, None for njc steps.

    models: one DispersiveModel per oscillator. Each joint-selective drive
    at (l1, l2) gets the qubit frequency shifted by both oscillators'
    number-dependent dispersive sums; non-selective drives sit at the bare
    qubit frequency.
    """
    if len(models) != 2 or any(m is None for m in models):
        raise ValueError("annotate_frequencies needs one dispersive model per oscillator")
    freqs = []
    for step in schedule.steps:
        if step.kind != "drive":
            freqs.append(None)
        elif step.selectivity is None:
            freqs.append(models[0].omega_q)
        else:
            freqs.append(selective_drive_frequency(models, step.selectivity))
    return freqs
