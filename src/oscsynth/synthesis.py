"""Pulse-schedule compilation.

Every compiler here runs the target backwards with one kill: an order-n
exchange pulse moves the top amplitude |g, top> down to |e, top-n>, and a
qubit drive folds that into |g, top-n> (_kill). A solved kill takes the
principal-branch exchange angle on every pair and a plain drive; a
selective kill takes a full swap of the one pair plus a drive selective on
its Fock label, which is exact under ideal-pair semantics. The conjugated
steps, replayed in forward order, prepare the target.

Which kills to run is decided once, by kill_plan, from the target's
support alone: a climb is the run of selective kills folding one
oscillator down to its base levels 0..n-1, and each kill leaves its lower
level occupied, so the plan is a dry run on booleans. ftp_schedule handles
arbitrary targets of any number of oscillators (fine-tune-then-populate):
one climb per oscillator at its order, then order-1 climbs over the base
levels. The planner counts and times the same plan. invert_symmetric
handles targets confined to a single rotational-symmetry column {k, n+k,
2n+k, ...}: one column of solved kills. Exact-semantics leakage of the
climbing pulses is what refine_schedule cleans up, by Levenberg-Marquardt
on the replay residual, with its Jacobian from the same pair-rotation
kernel.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import gates
from .fockspace import QUBIT_E, QUBIT_G, DimensionError, TruncatedSpace, fidelity, make_space
from .gates import PulseStep, xi
from .targets import TargetState, support

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
        for name, value in [("omega", self.omega), *((f"g[{n}]", v) for n, v in self.g.items())]:
            if not 0 < value < math.inf:
                raise ValueError(f"coupling {name} must be finite and positive, got {value}")

    def coupling(self, n: int) -> float:
        """The order-n exchange coupling g_n; KeyError naming n if there is none."""
        try:
            return self.g[n]
        except KeyError:
            raise KeyError(f"budget has no coupling for order {n}") from None

    def coupling_for(self, step: PulseStep) -> float:
        return self.omega if step.kind == "drive" else self.coupling(step.order)


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
        """Total wall time, each step lasting |area| / its coupling
        magnitude; None without a budget."""
        if self.budget is None:
            return None
        return sum(abs(s.area) / self.budget.coupling_for(s) for s in self.steps)


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
    return fidelity(out, _load_target(schedule.space, target.amplitudes))


def _load_target(space: TruncatedSpace, amps: np.ndarray) -> np.ndarray:
    """Target amplitudes (one axis per oscillator) on |g> in the flat basis
    of space, cut after the highest occupied level on each oscillator, so
    zero padding past a cutoff is accepted; support at or past a cutoff
    raises DimensionError, and a target with no support ValueError."""
    amps = np.asarray(amps)
    if amps.ndim != space.n_osc:
        raise ValueError("target oscillator count does not match the schedule space")
    occupied = np.argwhere(support(amps))
    if not len(occupied):
        raise ValueError("target has no support: no occupied level")
    top = occupied.max(axis=0)
    for l, d in zip(top, space.osc_cutoffs):
        if l >= d:
            raise DimensionError(f"target support at Fock level {l} outside cutoff {d}")
    grid = np.zeros(space.osc_cutoffs, dtype=complex)
    kept = tuple(slice(0, l + 1) for l in top)
    grid[kept] = amps[kept]
    od = space.osc_dim
    tvec = np.zeros(space.dim, dtype=complex)
    tvec[QUBIT_G * od : (QUBIT_G + 1) * od] = grid.reshape(-1)
    return tvec


def kill_plan(support: np.ndarray, orders: tuple) -> list:
    """The kills that invert a target with boolean |g> support (one axis
    per oscillator), as (osc_index, src, n, selective) in inversion order.

    For M = len(orders) oscillators the stages are climbs at (oscillator
    M-1, n_{M-1}), ..., (0, n_0), then order-1 climbs in the same
    oscillator order. Every kill is selective, except the order-1 base of
    a single oscillator: that base is one lane, so its kills are solved.
    A stage runs over each label of the other oscillators, highest label
    first, and within it from the top level down: an occupied top with
    top >= n is killed into src = top - n, which the kill leaves occupied
    (|g,src'|^2 = |g,src|^2 + |g,top|^2 for a selective kill), so this
    dry run on booleans is exact.
    """
    occupied = np.array(support, dtype=bool)
    if occupied.ndim != len(orders) or min(orders, default=0) < 1:
        raise ValueError(f"orders {orders} do not fit a {occupied.ndim}-oscillator support")
    axes = range(len(orders) - 1, -1, -1)
    stages = ([(i, orders[i], True) for i in axes]
              + [(i, 1, len(orders) > 1) for i in axes])
    plan = []
    for osc_index, n, selective in stages:
        lanes = np.moveaxis(occupied, osc_index, -1)  # a view: kills write through
        for other in reversed(list(np.ndindex(lanes.shape[:-1]))):
            lane = lanes[other]
            for top in range(len(lane) - 1, n - 1, -1):
                if lane[top]:
                    lane[top], lane[top - n] = False, True
                    src = other[:osc_index] + (top - n,) + other[osc_index:]
                    plan.append((osc_index, src, n, selective))
    return plan


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


def _ket(qubit: int, labels) -> str:
    return ",".join(["eg"[qubit]] + [str(l) for l in labels])


def _kill(space: TruncatedSpace, state: np.ndarray, osc_index: int, src: tuple,
          n: int, selective: bool) -> list:
    """Undo one (drive, njc) pair on state, in place: clear |g, top> (src
    raised by n on oscillator osc_index) into |e, src>, then fold |e, src>
    into |g, src>. Returns the two steps in inversion order.

    A solved kill takes the principal-branch exchange angle on every
    order-n pair and a plain drive; a selective kill takes a full swap of
    the one pair at src and a drive selective on src, both labelled src.
    """
    top = src[:osc_index] + (src[osc_index] + n,) + src[osc_index + 1:]
    g_top = space.index(QUBIT_G, *top)
    e_src = space.index(QUBIT_E, *src)
    g_src = space.index(QUBIT_G, *src)
    label = src if selective else None
    if selective:
        # a full swap clears the whole top amplitude (nothing is parked in |e>)
        theta, phase = math.pi / 2.0, 0.0
    else:
        theta, chi = _solve_kill_angle(state[g_top], state[e_src])
        phase = -chi
    swap = PulseStep("njc", theta / xi(top[osc_index], n), phase, osc_index=osc_index,
                     order=n, selectivity=label)
    gates.rotate(state, *gates.step_pairs(space, swap, "ideal-pair"), -swap.area, swap.phase)
    if abs(state[g_top]) > 1e-10:
        raise RuntimeError(f"failed to clear |{_ket(QUBIT_G, top)}> during inversion")
    y, chi = _solve_kill_angle(state[e_src], state[g_src])
    drive = PulseStep("drive", y, chi, selectivity=label)
    gates.rotate(state, *gates.step_pairs(space, drive), -drive.area, drive.phase)
    if abs(state[e_src]) > 1e-10:
        raise RuntimeError(f"failed to clear |{_ket(QUBIT_E, src)}> during inversion")
    return [swap, drive]


def _compiled(space: TruncatedSpace, plan: list, initial: tuple, target: TargetState,
              **fields) -> PulseSchedule:
    """Run the kills of plan on the target, check that the inverted state
    sits at initial, and return the schedule replaying the kills forward
    from there, with its fidelity."""
    state = _load_target(space, target.amplitudes)
    steps = [step for kill in plan for step in _kill(space, state, *kill)]
    residual = abs(state[space.index(*initial)])
    if residual < 1.0 - 1e-9:
        raise RuntimeError("inversion residual too large: "
                           f"|<{_ket(initial[0], initial[1:])}|state>| = {residual}")
    schedule = PulseSchedule(steps=steps[::-1], space=space, initial=initial, **fields)
    schedule.fidelity = replay_fidelity(schedule, target)
    return schedule


def invert_symmetric(target: TargetState, n: int,
                     space: TruncatedSpace = None,
                     budget: CouplingBudget = None) -> PulseSchedule:
    """Compile a rotationally-symmetric target into 2M alternating operations.

    The target must live in one symmetry column {l n + k}; k is the one
    residue mod n of its occupied levels, whatever its symmetry metadata
    says. Returns a schedule of M (drive, njc) pairs whose forward replay
    from |g, k> reproduces the target. Angles take the principal branch,
    i.e. the smallest-magnitude solution of each constraint.
    """
    if target.n_osc != 1:
        raise ValueError("invert_symmetric compiles single-oscillator targets")
    residues = set(np.flatnonzero(support(target.amplitudes)) % n)
    if len(residues) != 1:
        raise ValueError(f"target support is not confined to a single order-{n} column")
    offset = int(residues.pop())
    top_level = target.max_index
    need = max(top_level + n + 1, n + offset + 1)
    if space is None:
        space = make_space([need])
    d = space.osc_cutoffs[0]
    if d < need:
        raise DimensionError(f"cutoff {d} too small; need at least {need}")

    plan = [(0, (top - n,), n, False) for top in range(top_level, offset, -n)]
    return _compiled(space, plan, (QUBIT_G, offset), target, budget=budget,
                     target_label=target.label, semantics="exact")


def ftp_schedule(target: TargetState, orders,
                 budget: CouplingBudget = None,
                 space: TruncatedSpace = None) -> PulseSchedule:
    """Fine-tune-then-populate compiler for arbitrary targets of any number
    of oscillators: orders is one interaction order per oscillator, or an
    int for one oscillator.

    Runs the kill plan backwards from the target to |g, 0, ..., 0>: one
    climb per oscillator at its order, then the order-1 climbs over the
    base levels (see kill_plan). Replay is exact under ideal-pair
    semantics; under exact semantics bystander levels leak (reported via
    the returned schedule's fidelity when re-evaluated). Without a space,
    oscillator i gets cutoff max(top_i + n_i + 1, 2 n_i + 1), top_i its
    highest occupied level.
    """
    orders = (orders,) if np.ndim(orders) == 0 else tuple(orders)
    occupied = support(target.amplitudes)
    plan = kill_plan(occupied, orders)
    if space is None:
        tops = np.argwhere(occupied).max(axis=0, initial=0)
        space = make_space([max(int(top) + n + 1, 2 * n + 1) for top, n in zip(tops, orders)])
    return _compiled(space, plan, (QUBIT_G,) + (0,) * len(orders), target, budget=budget,
                     target_label=target.label, semantics="ideal-pair")


def refine_schedule(schedule: PulseSchedule, target: TargetState,
                    semantics: str = "exact") -> PulseSchedule:
    """Polish areas and phases by Levenberg-Marquardt (Nielsen's damping)
    on the residual r = psi - e^{i alpha} target of the replay psi under
    the given semantics, alpha a free global phase: at the best alpha,
    |r|^2 = 2 (1 - fidelity). Its Jacobian J (RotationPlan.jacobian, at
    accepted points) enters as Re(J^H J) and Re(J^H r); a replay scores
    each trial. Stops at 1 - fidelity <= 1e-15, after ten rejected steps
    in a row, or after 200 trials. Never returns something worse than the
    input; the returned schedule carries the semantics it was refined
    under, and its fidelity is that of a fresh replay."""
    steps = schedule.steps
    out = replace_schedule(schedule, steps=list(steps), semantics=semantics)
    out.fidelity = replay_fidelity(out, target)
    if not steps:
        return out
    plan = gates.RotationPlan(schedule.space, steps, semantics)
    initial = _initial_vector(schedule)
    tvec = _load_target(schedule.space, target.amplitudes)
    p = len(steps)
    x = np.array([s.area for s in steps] + [s.phase for s in steps] + [0.0])
    x[-1] = np.angle(np.vdot(tvec, plan.apply(initial.copy(), x[:p], x[p:-1])))
    a, mu, nu = None, None, 2.0
    for _ in range(200):
        if a is None:  # a new accepted point
            psi, jac = plan.jacobian(initial, x[:p], x[p:-1])
            if 1.0 - abs(np.vdot(tvec, psi)) <= 1e-15:
                break
            jh = np.column_stack([jac, -1j * np.exp(1j * x[-1]) * tvec]).T.conj()  # J^H
            r = psi - np.exp(1j * x[-1]) * tvec
            a, g, cost = (jh @ jh.T.conj()).real, (jh @ r).real, np.vdot(r, r).real
            mu = mu or 0.1 * a.diagonal().max()
        h = np.linalg.solve(a + mu * np.eye(len(x)), -g)
        gain = h @ (mu * h - g)  # the decrease of |r|^2 the linear model predicts
        if gain <= 0:  # g = 0: a stationary point, such as zero overlap
            break
        trial = x + h
        r = plan.apply(initial.copy(), trial[:p], trial[p:-1]) - np.exp(1j * trial[-1]) * tvec
        rho = (cost - np.vdot(r, r).real) / gain
        if rho > 0:
            x, a, nu = trial, None, 2.0
            mu *= max(1 / 3, 1 - (2 * rho - 1) ** 3)
        elif nu >= 2.0 ** 10:  # the tenth rejection in a row
            break
        else:
            mu, nu = mu * nu, 2 * nu
    # PulseStep re-wraps the phases, so the optimizer's value is not quite
    # the built schedule's: compare fresh replays
    best = replace_schedule(out, steps=[
        replace(s, area=float(a), phase=float(ph))
        for s, a, ph in zip(steps, x[:p], x[p:-1])])
    best.fidelity = replay_fidelity(best, target)
    return best if best.fidelity > out.fidelity else out


def replace_schedule(schedule: PulseSchedule, **kw) -> PulseSchedule:
    """A copy of schedule with the fields in kw replaced."""
    return replace(schedule, **kw)


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
        if s.selectivity is not None:
            sel = "[[" + ", ".join(str(i) for i in s.selectivity) + "]]"
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
    steps = [PulseStep(sd["kind"], sd["area"], sd["phase"], osc_index=sd.get("osc"),
                       order=sd.get("order"),
                       selectivity=tuple(sd["select"][0]) if sd.get("select") else None)
             for sd in data["steps"]]
    meta = data.get("meta", {})
    sched = PulseSchedule(steps=steps, space=space, budget=budget,
                          target_label=meta.get("target", ""),
                          semantics=meta.get("semantics", "exact"),
                          initial=initial)
    sched.fidelity = meta.get("fidelity")
    return sched
