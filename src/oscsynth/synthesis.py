"""Pulse-schedule compilation.

Two compilers live here. invert_symmetric handles targets confined to a
single rotational-symmetry column {k, n+k, 2n+k, ...}: it runs the target
backwards, alternately removing the top |g, top> amplitude with an order-n
exchange pulse and folding the freed |e, top-n> amplitude into |g, top-n>
with a qubit drive, then emits the conjugated steps in forward order.

ftp_schedule handles arbitrary targets by combining orders: first a linear
(order-1) sub-schedule prepares the base superposition over Fock 0..n-1,
then each symmetry column is climbed with selective drives plus order-n
full swaps (fine-tune-then-populate). Climbing assumes ideal-pair exchange
semantics; exact-semantics leakage is what refine_schedule cleans up.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import gates
from .fockspace import QUBIT_E, QUBIT_G, TruncatedSpace, fidelity, make_space
from .gates import PulseStep, undo_step, xi
from .targets import TargetState

TWOPI = 2.0 * math.pi

#: couplings used throughout the reference comparisons:
#: Omega = 2pi x 25 MHz, g1 = 2pi x 100 MHz, g2 = 2pi x 25 MHz.
DEFAULT_OMEGA = TWOPI * 25e6
DEFAULT_G = {1: TWOPI * 100e6, 2: TWOPI * 25e6}


@dataclass(frozen=True)
class CouplingBudget:
    """Available coupling magnitudes (rad/s): qubit drive and per-order exchange."""

    omega: float = DEFAULT_OMEGA
    g: dict = field(default_factory=lambda: dict(DEFAULT_G))

    def __post_init__(self):
        if self.omega <= 0 or any(v <= 0 for v in self.g.values()):
            raise ValueError("coupling magnitudes must be positive")

    def coupling_for(self, step: PulseStep) -> float:
        if step.kind == "drive":
            return self.omega
        try:
            return self.g[step.order]
        except KeyError:
            raise KeyError(f"budget has no coupling for order {step.order}")


@dataclass
class PulseSchedule:
    """An ordered pulse sequence plus bookkeeping metadata."""

    steps: list
    space: TruncatedSpace
    budget: Optional[CouplingBudget] = None
    target_label: str = ""
    fidelity: Optional[float] = None
    semantics: str = "exact"
    initial: tuple = (QUBIT_G, 0)  # (qubit level, Fock level[s...])

    @property
    def duration(self) -> Optional[float]:
        if self.budget is None:
            return None
        return schedule_duration(self, self.budget)

    def __len__(self):
        return len(self.steps)


def schedule_duration(schedule: PulseSchedule, budget: CouplingBudget = None) -> float:
    """Total wall time: each step lasts |area| / coupling magnitude."""
    budget = budget or schedule.budget
    if budget is None:
        raise ValueError("no coupling budget attached")
    return sum(abs(s.area) / budget.coupling_for(s) for s in schedule.steps)


def apply_schedule(schedule: PulseSchedule, initial: np.ndarray,
                   semantics: str = None) -> np.ndarray:
    """Forward replay: apply each step in order through the pair-rotation kernel."""
    plan = gates.RotationPlan(schedule.space, schedule.steps, semantics or schedule.semantics)
    return plan.apply(np.array(initial, dtype=complex),
                      [s.area for s in schedule.steps], [s.phase for s in schedule.steps])


def _initial_vector(schedule: PulseSchedule) -> np.ndarray:
    return schedule.space.basis_state(*schedule.initial)


def replay_fidelity(schedule: PulseSchedule, target: TargetState,
                    semantics: str = None) -> float:
    """Fidelity of the forward replay against the target, qubit in |g>."""
    out = apply_schedule(schedule, _initial_vector(schedule), semantics=semantics)
    return fidelity(out, _target_vector(schedule.space, target))


def _target_vector(space: TruncatedSpace, target: TargetState) -> np.ndarray:
    """The target's amplitudes on |g> in the flat basis of space."""
    tamps = np.asarray(target.amplitudes)
    if tamps.ndim != space.n_osc:
        raise ValueError("target oscillator count does not match the schedule space")
    # align each oscillator axis with the space cutoff; support beyond a
    # cutoff cannot be reached, so dropping it lowers the overlap by exactly
    # the missing weight (no renormalization)
    grid = np.zeros(space.osc_cutoffs, dtype=complex)
    sl = tuple(slice(0, min(t, d)) for t, d in zip(tamps.shape, space.osc_cutoffs))
    grid[sl] = tamps[sl]
    od = space.osc_dim
    tvec = np.zeros(space.dim, dtype=complex)
    tvec[QUBIT_G * od : (QUBIT_G + 1) * od] = grid.reshape(-1)
    return tvec


def _solve_kill_angle(c_kill: complex, c_keep: complex):
    """Principal-branch mixing angle removing c_kill into c_keep.

    Returns (theta, chi) where the constraint ratio i c_kill / c_keep equals
    tan(theta) e^{i chi}. When the ratio is real, chi is 0 and theta is the
    signed principal arctangent (this is what produces the signed-area,
    zero-phase presentation for real-amplitude targets). The exchange pulse
    uses phase -chi, the drive pulse phase +chi (their off-diagonal phase
    factors enter with opposite signs under conjugation).
    """
    if abs(c_kill) < 1e-14:
        return 0.0, 0.0
    if abs(c_keep) < 1e-14:
        return math.pi / 2.0, 0.0
    ratio = 1j * c_kill / c_keep
    # real up to rounding only: dropping a larger imaginary part leaves a
    # kill residual the 1e-10 inversion checks can see
    if abs(ratio.imag) <= 1e-12 * abs(ratio):
        return math.atan(ratio.real), 0.0
    return math.atan(abs(ratio)), math.atan2(ratio.imag, ratio.real)


def invert_symmetric(target: TargetState, n: int,
                     space: TruncatedSpace = None,
                     budget: CouplingBudget = None) -> PulseSchedule:
    """Compile a rotationally-symmetric target into 2M alternating operations.

    The target must live in one symmetry column {l n + k}. Returns a
    schedule of M (drive, njc) pairs whose forward replay from |g, k>
    reproduces the target. Angles take the principal branch, i.e. the
    smallest-magnitude solution of each constraint.
    """
    if target.n_osc != 1:
        raise ValueError("invert_symmetric compiles single-oscillator targets")
    offset = target.symmetry_offset
    if any(abs(a) > 1e-12 and (l - offset) % n for l, a in enumerate(target.amplitudes)):
        raise ValueError(f"target support is not confined to a single order-{n} column")
    top_level = target.max_index
    amps = target.amplitudes[: top_level + 1]
    M = max(0, (top_level - offset + n - 1) // n)
    need = max(top_level + n + 1, n + offset + 1)
    if space is None:
        space = make_space([need])
    d = space.osc_cutoffs[0]
    if d < need:
        raise ValueError(f"cutoff {d} too small; need at least {need}")

    state = np.zeros(space.dim, dtype=complex)
    state[[space.index(QUBIT_G, l) for l in range(len(amps))]] = amps

    steps_reversed = []
    for k_step in range(M, 0, -1):
        top = k_step * n + offset
        src = top - n
        c_g = state[space.index(QUBIT_G, top)]
        c_e = state[space.index(QUBIT_E, src)]
        theta, chi = _solve_kill_angle(c_g, c_e)
        swap = PulseStep("njc", theta / xi(top, n), -chi, osc_index=0, order=n)
        state = undo_step(space, swap, state)
        if abs(state[space.index(QUBIT_G, top)]) > 1e-10:
            raise RuntimeError(f"failed to clear |g,{top}> during inversion")

        c_e2 = state[space.index(QUBIT_E, src)]
        c_g2 = state[space.index(QUBIT_G, src)]
        y, chi2 = _solve_kill_angle(c_e2, c_g2)
        drive = PulseStep("drive", y, chi2)
        state = undo_step(space, drive, state)
        if abs(state[space.index(QUBIT_E, src)]) > 1e-10:
            raise RuntimeError(f"failed to clear |e,{src}> during inversion")

        steps_reversed += [swap, drive]

    residual = abs(state[space.index(QUBIT_G, offset)])
    if residual < 1.0 - 1e-9:
        raise RuntimeError(f"inversion residual too large: |<g,{offset}|state>| = {residual}")

    schedule = PulseSchedule(
        steps=list(reversed(steps_reversed)),
        space=space,
        budget=budget,
        target_label=target.label,
        semantics="exact",
        initial=(QUBIT_G, offset),
    )
    schedule.fidelity = replay_fidelity(schedule, target)
    return schedule


def ftp_schedule(target: TargetState, n: int,
                 budget: CouplingBudget = None,
                 space: TruncatedSpace = None,
                 semantics: str = "ideal-pair") -> PulseSchedule:
    """Fine-tune-then-populate compiler for arbitrary single-oscillator targets.

    Builds the order-1 base sub-schedule over Fock 0..n-1 (n-1 steps), then
    climbs each symmetry column with a selective drive plus an order-n full
    swap per row, up to the column's punch-card height. Replay is exact
    under ideal-pair semantics; under exact semantics bystander levels leak
    (reported via the returned schedule's fidelity when re-evaluated).
    """
    if target.n_osc != 1:
        raise ValueError("ftp_schedule compiles single-oscillator targets")
    amps = target.amplitudes
    top_level = target.max_index
    if space is None:
        space = make_space([max(top_level + n + 1, 2 * n + 1)])
    d = space.osc_cutoffs[0]

    # column heights: h_k = largest row j with level jn+k occupied
    heights = [0] * n
    for l in np.nonzero(np.abs(amps) > 1e-12)[0]:
        j, k = divmod(int(l), n)
        heights[k] = max(heights[k], j)

    state = np.zeros(space.dim, dtype=complex)
    state[[space.index(QUBIT_G, l) for l in range(len(amps))]] = amps

    climb_reversed = []
    max_h = max(heights) if heights else 0
    for j in range(max_h, 0, -1):
        for k in range(n - 1, -1, -1):
            if heights[k] < j:
                continue
            top = j * n + k
            src = top - n
            # full swap clears the whole top amplitude (nothing is parked in |e>)
            swap = PulseStep("njc", (math.pi / 2.0) / xi(top, n), 0.0,
                             osc_index=0, order=n, pair_level=(src,))
            state = undo_step(space, swap, state, "ideal-pair")
            c_e = state[space.index(QUBIT_E, src)]
            c_g = state[space.index(QUBIT_G, src)]
            y, chi = _solve_kill_angle(c_e, c_g)
            drive = PulseStep("drive", y, chi, selectivity=(src,))
            state = undo_step(space, drive, state)
            climb_reversed += [swap, drive]

    # what is left is the base superposition over Fock 0..n-1 in |g>
    base_vec = np.array([state[space.index(QUBIT_G, l)] for l in range(n)])
    base_steps = []
    if n > 1:
        base_target = TargetState(base_vec, 1, 0, label="base")
        base_sched = invert_symmetric(base_target, 1, space=space)
        base_steps = base_sched.steps

    schedule = PulseSchedule(
        steps=base_steps + list(reversed(climb_reversed)),
        space=space,
        budget=budget,
        target_label=target.label,
        semantics=semantics,
        initial=(QUBIT_G, 0),
    )
    schedule.fidelity = replay_fidelity(schedule, target, semantics=semantics)
    return schedule


def refine_schedule(schedule: PulseSchedule, target: TargetState,
                    semantics: str = "exact") -> PulseSchedule:
    """Polish areas and phases by derivative-free minimization of the replay
    infidelity under the given semantics. Never returns something worse
    than the input."""
    from scipy.optimize import minimize

    steps = schedule.steps
    # the objective replays straight from x on pairs gathered once, through
    # the same kernel as apply_schedule
    plan = gates.RotationPlan(schedule.space, steps, semantics)
    initial = _initial_vector(schedule)
    tvec = _target_vector(schedule.space, target)
    x0 = np.array([v for s in steps for v in (s.area, s.phase)])

    def objective(x):
        return 1.0 - fidelity(plan.apply(initial.copy(), x[0::2], x[1::2]), tvec)

    f0 = objective(x0)
    res = minimize(objective, x0, method="Nelder-Mead",
                   options={"maxiter": 4000, "xatol": 1e-10, "fatol": 1e-12})
    if res.fun < f0:
        best = replace_schedule(schedule, steps=[
            replace(s, area=float(res.x[2 * i]), phase=float(res.x[2 * i + 1]))
            for i, s in enumerate(steps)])
        best.fidelity = 1.0 - res.fun
        return best
    out = replace_schedule(schedule, steps=list(steps))
    out.fidelity = 1.0 - f0
    return out


def replace_schedule(schedule: PulseSchedule, **kw) -> PulseSchedule:
    data = dict(
        steps=schedule.steps, space=schedule.space, budget=schedule.budget,
        target_label=schedule.target_label, fidelity=schedule.fidelity,
        semantics=schedule.semantics, initial=schedule.initial,
    )
    data.update(kw)
    return PulseSchedule(**data)


# ---------------------------------------------------------------------------
# serialization


def _fmt_float(x: float) -> str:
    """Deterministic float formatting at 12 significant digits."""
    x = float(x)
    if x == 0.0:
        x = 0.0  # collapse negative zero
    return f"{x:.12g}"


def schedule_to_json(schedule: PulseSchedule) -> str:
    """Serialize with fixed field order and 12-significant-digit floats, so
    identical schedules are byte-identical on disk."""
    budget = schedule.budget
    parts = ['{\n  "version": 2,\n  "space": {"osc_cutoffs": ['
             + ", ".join(str(d) for d in schedule.space.osc_cutoffs) + "]},",
             '  "initial": [' + ", ".join(str(int(i)) for i in schedule.initial) + "],"]
    if budget is not None:
        gmap = ", ".join(f'"{k}": {_fmt_float(v)}' for k, v in sorted(budget.g.items()))
        parts.append(f'  "budget": {{"omega_radps": {_fmt_float(budget.omega)}, '
                     f'"g_radps": {{{gmap}}}}},')
    else:
        parts.append('  "budget": null,')
    step_lines = []
    for s in schedule.steps:
        osc = "null" if s.osc_index is None else str(s.osc_index)
        order = "null" if s.order is None else str(s.order)
        sel = "null"
        sel_src = s.selectivity if s.selectivity is not None else s.pair_level
        if sel_src is not None:
            sel = "[[" + ", ".join(str(i) for i in sel_src) + "]]"
        step_lines.append(
            f'    {{"kind": "{s.kind}", "osc": {osc}, "order": {order}, '
            f'"area": {_fmt_float(s.area)}, "phase": {_fmt_float(s.phase)}, "select": {sel}}}'
        )
    parts.append('  "steps": [\n' + ",\n".join(step_lines) + "\n  ],")
    fid = "null" if schedule.fidelity is None else _fmt_float(schedule.fidelity)
    dur = "null" if schedule.budget is None else _fmt_float(schedule.duration)
    parts.append(f'  "meta": {{"target": {json.dumps(schedule.target_label)}, '
                 f'"semantics": {json.dumps(schedule.semantics)}, '
                 f'"fidelity": {fid}, "duration_s": {dur}}}\n}}')
    return "\n".join(parts) + "\n"


def schedule_from_json(text: str) -> PulseSchedule:
    """Read a schedule written by schedule_to_json. Version 1 files carry no
    initial state and start from |g, 0, ...>."""
    data = json.loads(text)
    space = make_space(data["space"]["osc_cutoffs"])
    version = data.get("version", 1)
    if version == 1:
        initial = (QUBIT_G,) + (0,) * space.n_osc
    elif version == 2:
        initial = tuple(int(i) for i in data["initial"])
        space.index(*initial)  # DimensionError on a malformed initial state
    else:
        raise ValueError(f"unsupported schedule version {version!r}")
    budget = None
    if data.get("budget"):
        budget = CouplingBudget(
            omega=data["budget"]["omega_radps"],
            g={int(k): v for k, v in data["budget"]["g_radps"].items()},
        )
    steps = []
    for sd in data["steps"]:
        sel = sd.get("select")
        if sd["kind"] == "drive":
            steps.append(PulseStep("drive", sd["area"], sd["phase"],
                                   selectivity=tuple(sel[0]) if sel else None))
        else:
            steps.append(PulseStep("njc", sd["area"], sd["phase"], osc_index=sd["osc"],
                                   order=sd["order"], pair_level=tuple(sel[0]) if sel else None))
    meta = data.get("meta", {})
    sched = PulseSchedule(steps=steps, space=space, budget=budget,
                          target_label=meta.get("target", ""),
                          semantics=meta.get("semantics", "exact"),
                          initial=initial)
    sched.fidelity = meta.get("fidelity")
    return sched
