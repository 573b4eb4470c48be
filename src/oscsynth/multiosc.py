"""Two-oscillator pulse-schedule compilation.

Same inversion idea as the single-oscillator compilers, staged per
oscillator: run the target backwards, first flattening oscillator 2 down
to its base columns at every populated oscillator-1 level, then
flattening oscillator 1 with a full swap plus a joint-selective drive per
kill, and finally (for the arbitrary-state entry point) clearing the
remaining base block with the same procedure at orders (1, 1). Forward
replay therefore builds oscillator 1 up first, then sweeps oscillator 2
row by row, matching the published step accounting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fockspace import QUBIT_E, QUBIT_G, TruncatedSpace, make_space
from .gates import PulseStep, apply_step, undo_step, xi
from .synthesis import CouplingBudget, PulseSchedule, _solve_kill_angle, replay_fidelity
from .targets import TargetState


@dataclass
class TwoOscSchedule(PulseSchedule):
    """Pulse schedule over a qubit and two oscillators.

    njc steps carry osc_index in {0, 1}; selective drives carry a joint
    (l1, l2) Fock label. meta holds optional annotations such as the
    selective drive frequencies.
    """

    meta: dict = field(default_factory=dict)


def _occupied_levels(amps: np.ndarray, threshold: float = 1e-12):
    return {tuple(int(i) for i in idx) for idx in zip(*np.nonzero(np.abs(amps) > threshold))}


def _kill(state, space, osc_index, src, n, steps_reversed):
    """Clear |g, top> (top = src raised by n on oscillator osc_index) with a
    full order-n swap down to |e, src>, followed by a joint-selective drive
    folding it into |g, src>."""
    top = src[osc_index] + n
    swap = PulseStep("njc", (math.pi / 2.0) / xi(top, n), 0.0,
                     osc_index=osc_index, order=n, pair_level=src)
    state = undo_step(space, swap, state, "ideal-pair")
    c_e = state[space.index(QUBIT_E, *src)]
    c_g = state[space.index(QUBIT_G, *src)]
    y, chi = _solve_kill_angle(c_e, c_g)
    drive = PulseStep("drive", y, chi, selectivity=src)
    state = undo_step(space, drive, state)
    steps_reversed += [swap, drive]
    return state


def _invert_stages(state, space, n1, n2, threshold=1e-12):
    """Run the two-stage inversion, returning (state, reversed steps).

    Leaves the state supported on the base block {0..n1-1} x {0..n2-1}.
    """
    d1, d2 = space.osc_cutoffs
    steps_reversed = []

    def g_amp(l1, l2):
        return state[space.index(QUBIT_G, l1, l2)]

    # oscillator-2 stage: per populated oscillator-1 level, climb each
    # symmetry column down from its punch-card height
    for l1 in range(d1 - 1, -1, -1):
        for k2 in range(n2 - 1, -1, -1):
            h = 0
            j = 1
            while j * n2 + k2 < d2:
                if abs(g_amp(l1, j * n2 + k2)) > threshold:
                    h = j
                j += 1
            for j in range(h, 0, -1):
                state = _kill(state, space, 1, (l1, (j - 1) * n2 + k2), n2, steps_reversed)

    # oscillator-1 stage: support here is confined to osc-2 base columns
    for k2 in range(n2 - 1, -1, -1):
        for k1 in range(n1 - 1, -1, -1):
            h = 0
            j = 1
            while j * n1 + k1 < d1:
                if abs(g_amp(j * n1 + k1, k2)) > threshold:
                    h = j
                j += 1
            for j in range(h, 0, -1):
                state = _kill(state, space, 0, ((j - 1) * n1 + k1, k2), n1, steps_reversed)

    return state, steps_reversed


def ftp_two_oscillator(target: TargetState, orders: tuple,
                       budget: CouplingBudget = None,
                       space: TruncatedSpace = None,
                       _label: str = None) -> TwoOscSchedule:
    """Compile an arbitrary two-oscillator target.

    Two climbing stages at the requested orders, then the remaining base
    block over {0..n1-1} x {0..n2-1} is cleared the same way at orders
    (1, 1). Replay is exact under ideal-pair semantics.
    """
    n1, n2 = orders
    amps = np.asarray(target.amplitudes)
    if amps.ndim != 2:
        raise ValueError("ftp_two_oscillator compiles two-oscillator targets")
    occ = _occupied_levels(amps)
    top1 = max((l1 for l1, _ in occ), default=0)
    top2 = max((l2 for _, l2 in occ), default=0)
    if space is None:
        space = make_space((max(top1 + n1 + 1, n1 + 2), max(top2 + n2 + 1, n2 + 2)))
    d1, d2 = space.osc_cutoffs
    if d1 <= top1 or d2 <= top2:
        raise ValueError("cutoffs too small for the target support")

    state = np.zeros(space.dim, dtype=complex)
    for (l1, l2) in _occupied_levels(amps, threshold=0.0) | occ:
        if l1 < d1 and l2 < d2:
            state[space.index(QUBIT_G, l1, l2)] = amps[l1, l2]

    state, steps_reversed = _invert_stages(state, space, n1, n2)
    if (n1, n2) != (1, 1):
        state, base_reversed = _invert_stages(state, space, 1, 1)
        # the base kills happen last in inversion order, so the forward
        # replay (the reversed list) prepares the base block first
        steps_reversed = steps_reversed + base_reversed

    residual = abs(state[space.index(QUBIT_G, 0, 0)])
    if residual < 1.0 - 1e-9:
        raise RuntimeError(f"inversion residual too large: |<g,0,0|state>| = {residual}")

    schedule = TwoOscSchedule(
        steps=list(reversed(steps_reversed)),
        space=space,
        budget=budget,
        target_label=_label if _label is not None else target.label,
        semantics="ideal-pair",
        initial=(QUBIT_G, 0, 0),
    )
    schedule.fidelity = replay_fidelity(schedule, target)
    return schedule


def invert_two_oscillator(target: TargetState, orders: tuple,
                          budget: CouplingBudget = None,
                          space: TruncatedSpace = None) -> TwoOscSchedule:
    """Compile a rotationally-symmetric two-oscillator target.

    The support must sit on the lattice {(j1 n1, j2 n2)}; the schedule then
    needs no separate base stage (the base block is |0,0> alone), so the
    forward replay is: oscillator-1 ladder first, then oscillator-2 column
    sweeps, as in the reference trajectories.
    """
    n1, n2 = orders
    amps = np.asarray(target.amplitudes)
    if amps.ndim != 2:
        raise ValueError("invert_two_oscillator compiles two-oscillator targets")
    for (l1, l2) in _occupied_levels(amps):
        if l1 % n1 or l2 % n2:
            raise ValueError(
                f"support at ({l1},{l2}) breaks the ({n1},{n2}) lattice symmetry")
    return ftp_two_oscillator(target, orders, budget=budget, space=space)


def intermediate_states(schedule: TwoOscSchedule, semantics: str = None):
    """Forward state after each step, starting state first."""
    semantics = semantics or schedule.semantics
    out = [schedule.space.basis_state(*schedule.initial)]
    for step in schedule.steps:
        out.append(apply_step(schedule.space, step, out[-1], semantics))
    return out


def annotate_frequencies(schedule: TwoOscSchedule, models: tuple) -> TwoOscSchedule:
    """Attach the selective-drive frequency of every drive step to meta.

    models: one DispersiveModel per oscillator. Each joint-selective drive
    at (l1, l2) gets the qubit frequency shifted by both oscillators'
    number-dependent dispersive sums; non-selective drives sit at the bare
    qubit frequency.
    """
    from .gates import selective_drive_frequency
    if len(models) != 2 or any(m is None for m in models):
        raise ValueError("annotate_frequencies needs one dispersive model per oscillator")
    freqs = []
    for step in schedule.steps:
        if step.kind != "drive":
            freqs.append(None)
            continue
        if step.selectivity is None:
            freqs.append(models[0].omega_q)
        else:
            freqs.append(selective_drive_frequency(models, step.selectivity))
    schedule.meta["drive_freqs_radps"] = freqs
    return schedule
