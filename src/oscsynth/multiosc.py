"""Multi-oscillator schedules.

Compilation for any number of oscillators is synthesis.ftp_schedule, with
one interaction order per oscillator: run the target backwards, climbing
the last oscillator down to its base levels at every label of the
others, then each earlier oscillator in turn, and finally clearing the
base block with the same climbs at order 1. Every kill is a full swap
plus a joint-selective drive. Forward replay therefore builds oscillator
1 up first, then sweeps each later oscillator label by label, matching
the published step accounting.

The result is a plain PulseSchedule over a qubit and the oscillators: njc
steps carry their oscillator's osc_index, and both steps of a kill carry
the joint Fock label of its pair. invert_two_oscillator adds the lattice
check of symmetric targets, and annotate_frequencies lists the drive
frequency each step needs.
"""

from __future__ import annotations

import numpy as np

from .fockspace import TruncatedSpace
from .gates import apply_step, selective_drive_frequency
from .synthesis import CouplingBudget, PulseSchedule, ftp_schedule
from .targets import TargetState, support

#: the two-oscillator name of ftp_schedule, kept for its callers
ftp_two_oscillator = ftp_schedule


def invert_two_oscillator(target: TargetState, orders: tuple,
                          budget: CouplingBudget = None,
                          space: TruncatedSpace = None) -> PulseSchedule:
    """Compile a rotationally-symmetric multi-oscillator target.

    The support must sit on the lattice {(j_1 n_1, ..., j_M n_M)}; the
    schedule then needs no separate base stage (the base block is
    |0, ..., 0> alone), so the forward replay is: oscillator-1 ladder
    first, then the later oscillators' column sweeps, as in the reference
    trajectories.
    """
    # ftp_schedule checks orders before they are used here
    schedule = ftp_schedule(target, orders, budget=budget, space=space)
    labels = np.argwhere(support(target.amplitudes))
    for axis, n in enumerate(orders):
        off = labels[labels[:, axis] % n != 0]
        if len(off):
            raise ValueError(f"support at {tuple(int(l) for l in off[0])} breaks the "
                             f"{tuple(orders)} lattice symmetry")
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
    gets the qubit frequency shifted by every oscillator's number-dependent
    dispersive sum at its label; non-selective drives sit at the bare
    qubit frequency.
    """
    if len(models) != schedule.space.n_osc or any(m is None for m in models):
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
