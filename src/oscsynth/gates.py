"""Pulse-step propagators and dispersive bookkeeping.

Two primitive step kinds exist. A *drive* rotates the qubit, optionally
conditioned on specific Fock levels (a selective rotation realized in the
dispersive regime by driving at a number-dependent frequency). An *njc* step
runs the order-n qubit-oscillator exchange sigma+ a^n + sigma- a†^n, which
mixes each pair {|e,l>, |g,l+n>} with angle |area| * xi(l+n, n).

A step's one optional label, selectivity, names the single pair it turns:
a drive's label always applies; an njc step's applies only under
ideal-pair semantics, the idealized selective sideband the compilers
assume. Exact semantics turns every pair of an njc step.

Pulse areas are signed dimensionless products (coupling magnitude times step
duration). A negative area is physically a phase flip: (area, phase) and
(-area, phase + pi) generate the same propagator.

Every step is therefore a set of 2x2 rotations on disjoint (|e>, |g>) index
pairs. Replays apply steps through the pair-rotation kernel (step_pairs,
RotationPlan), which costs O(dim) per step and also gives a replay's
Jacobian (RotationPlan.jacobian), and compilers turn one step's pairs in
place with rotate. All pairs come from one cached table per (space,
oscillator, order), pair_table. A labelled step is one column of it
(pair_at), and is turned in scalar arithmetic on its two entries; a table
step is one gather and one scatter of its pairs around an elementwise
turn. step_propagator, which writes each pair's drive_propagator block
into a dense matrix, is the one dense reference both are tested against.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fockspace import QUBIT_E, QUBIT_G, DimensionError, TruncatedSpace, _ladder_exp

SEMANTICS = ("exact", "ideal-pair")


def xi(a: int, b: int) -> float:
    """sqrt(a! / (a-b)!), the n-photon swap enhancement factor; 0 if a < b."""
    if a < 0 or b < 0:
        raise ValueError("xi arguments must be non-negative")
    if a < b:
        return 0.0
    prod = 1.0
    for j in range(a - b + 1, a + 1):
        prod *= j
    return math.sqrt(prod)


@dataclass(frozen=True)
class PulseStep:
    """One schedule entry: a qubit drive or an njc exchange pulse.

    selectivity: tuple of Fock labels, one per oscillator, naming the one
    pair the step turns, or None for a step that turns every pair. A
    drive's label always applies: it turns {|e,l>, |g,l>} alone (a
    number-selective drive). An njc step's label names the |e> side of
    {|e,l>, |g,l+n>} and applies only under ideal-pair semantics (an
    idealized selective sideband); exact semantics turns every pair.
    """

    kind: str  # "drive" | "njc"
    area: float
    phase: float = 0.0
    osc_index: Optional[int] = None  # njc only
    order: Optional[int] = None  # njc only
    selectivity: Optional[tuple] = None

    def __post_init__(self):
        if self.kind == "njc":
            if self.order is None or self.osc_index is None:
                raise ValueError("njc steps need an order and oscillator index")
        elif self.kind == "drive":
            if self.order is not None or self.osc_index is not None:
                raise ValueError("drive steps take no order or oscillator index")
        else:
            raise ValueError(f"unknown step kind {self.kind!r}")
        if not math.isfinite(self.area):
            raise ValueError("pulse area must be finite")
        # canonicalize the stored phase into (-pi, pi]
        ph = math.remainder(self.phase, 2 * math.pi)
        if ph <= -math.pi:
            ph += 2 * math.pi
        object.__setattr__(self, "phase", ph)
        if self.selectivity is not None:
            object.__setattr__(self, "selectivity", tuple(int(l) for l in self.selectivity))


def drive_propagator(area, phase: float = 0.0) -> np.ndarray:
    """2x2 resonant qubit drive exp(-i area (e^{i phase} sigma+ + h.c.)):
    cos(area) on the diagonal, -i e^{±i phase} sin(area) off it, in basis
    order (|e>, |g>). A negated area gives the inverse rotation. An array
    of areas gives one 2x2 block per area, stacked on the first axis."""
    off = -1j * np.exp(1j * phase) * np.sin(area)
    u = np.empty(np.shape(area) + (2, 2), dtype=complex)
    u[..., 0, 0] = u[..., 1, 1] = np.cos(area)
    u[..., 0, 1] = off
    u[..., 1, 0] = -np.conj(off)
    return u


def step_propagator(space: TruncatedSpace, step: PulseStep,
                    semantics: str = "exact") -> np.ndarray:
    """Dense propagator of one step: the reference the pair-rotation kernel
    is checked against.

    It walks every joint Fock label once and writes drive_propagator(area *
    xi(l+n, n), phase) on each pair {|e,l>, |g,l+n>} the step turns (n = 0
    and l the whole label for a drive), the identity everywhere else, so
    the result is exactly unitary at any cutoff. A drive's label always
    applies; an njc label only under ideal-pair semantics. A label that
    names no pair of the step raises DimensionError.
    """
    if semantics not in SEMANTICS:
        raise ValueError(f"unknown semantics {semantics!r}")
    label = step.selectivity
    if step.kind == "drive":
        osc, n = 0, 0
    else:
        osc, n = step.osc_index, step.order
        if not 1 <= n < space.osc_cutoffs[osc]:
            raise DimensionError(
                f"njc order {n} must satisfy 1 <= n < cutoff {space.osc_cutoffs[osc]}")
        if semantics == "exact":
            label = None
    d = space.osc_cutoffs[osc]
    od = space.osc_dim
    shift = n * od // math.prod(space.osc_cutoffs[: osc + 1])
    flat, levels = [], []
    for i, labels in enumerate(itertools.product(*map(range, space.osc_cutoffs))):
        if labels[osc] < d - n and label in (None, labels):
            flat.append(i)
            levels.append(labels[osc])
    if not flat:
        raise DimensionError(f"label {label} names no pair of this step "
                             f"in cutoffs {space.osc_cutoffs}")
    flat = np.array(flat)
    pairs = np.stack([QUBIT_E * od + flat, QUBIT_G * od + flat + shift], axis=1)
    weight = {l: xi(l + n, n) for l in set(levels)}
    out = np.eye(space.dim, dtype=complex)
    out[pairs[:, :, None], pairs[:, None, :]] = drive_propagator(
        step.area * np.array([weight[l] for l in levels]), step.phase)
    return out


# ---------------------------------------------------------------------------
# pair-rotation kernel


@functools.lru_cache(maxsize=64)
def pair_table(space: TruncatedSpace, osc_index: int, n: int):
    """(eg, weights): every pair {|e,l,...>, |g,l+n,...>} of oscillator
    osc_index at order n, in flat-index order of the |e> side. eg is
    (2, pairs), the flat indices of the |e> and |g> sides; a pair turns by
    area * weights, xi(l+n, n). Order 0 gives the pairs {|e,o>, |g,o>} a
    plain drive rotates. Built once per (space, osc_index, n); both arrays
    are read-only."""
    d = space.osc_cutoffs[osc_index]
    if not 0 <= n < d:
        raise DimensionError(f"pair order {n} must satisfy 0 <= n < cutoff {d}")
    od = space.osc_dim
    levels = np.indices(space.osc_cutoffs).reshape(space.n_osc, -1)[osc_index]
    flat = np.flatnonzero(levels < d - n)
    stride = od // math.prod(space.osc_cutoffs[: osc_index + 1])
    weights = np.array([xi(l + n, n) for l in range(d - n)])[levels[flat]]
    eg = np.stack([QUBIT_E * od + flat, QUBIT_G * od + flat + n * stride])
    for arr in (eg, weights):
        arr.flags.writeable = False
    return eg, weights


@functools.lru_cache(maxsize=4096)
def pair_at(space: TruncatedSpace, osc_index: int, n: int, label: tuple):
    """(eg, weights) of the one pair {|e,label>, |g,label + n>} of
    pair_table(space, osc_index, n): a one-column view of the table. The
    column is the label read in mixed radix, with oscillator osc_index
    counting d - n levels. A label outside the table raises
    DimensionError."""
    eg, weights = pair_table(space, osc_index, n)
    radix = list(space.osc_cutoffs)
    radix[osc_index] -= n
    if len(label) != len(radix) or not all(0 <= l < r for l, r in zip(label, radix)):
        raise DimensionError(f"label {label} names no order-{n} pair of oscillator "
                             f"{osc_index} in cutoffs {space.osc_cutoffs}")
    col = 0
    for l, r in zip(label, radix):
        col = col * r + l
    return eg[:, col : col + 1], weights[col : col + 1]


def step_pairs(space: TruncatedSpace, step: PulseStep, semantics: str = "exact"):
    """(eg, weights): the pairs one step rotates, with step_propagator's
    semantics. A drive rotates every {|e,o>, |g,o>} at weight 1; an njc
    step every order-n pair. A step's selectivity label picks out the one
    pair at that label instead (pair_at): a drive's always, an njc step's
    only under ideal-pair semantics."""
    if semantics not in SEMANTICS:
        raise ValueError(f"unknown semantics {semantics!r}")
    label = step.selectivity
    if step.kind == "drive":
        osc, n = 0, 0
    else:
        if step.order < 1:
            raise DimensionError(f"njc order {step.order} must be >= 1")
        osc, n = step.osc_index, step.order
        if semantics == "exact":
            label = None
    if label is None:
        return pair_table(space, osc, n)
    return pair_at(space, osc, n, label)


class RotationPlan:
    """The pair-rotation kernel: the pairs of a step sequence (step_pairs,
    with its semantics), gathered once and replayed for any areas and
    phases.

    Step k turns each of its pairs (x_e, x_g) by angle areas[k] * weight with
    drive_propagator's matrix at phases[k] (_mix). The signed area enters
    directly, so negating it gives exactly the inverse rotation. A
    one-pair step turns its two entries in scalar arithmetic; a table step
    is one gather and one scatter of its pairs around an elementwise turn.
    """

    def __init__(self, space: TruncatedSpace, steps, semantics: str = "exact"):
        pairs = [step_pairs(space, s, semantics) for s in steps]
        self._dim = space.dim
        self._counts = np.array([len(w) for _, w in pairs], dtype=int)
        self._weights = np.concatenate([w for _, w in pairs]) if pairs else np.zeros(0)
        # per step (eg, k): a one-pair step's flat indices (e, g) and its
        # place k in self._ones; a table step's (2, pairs) indices and the
        # slice k of its pairs
        self._spans, ones, end = [], [], 0
        for eg, w in pairs:
            if len(w) == 1:
                self._spans.append((tuple(eg[:, 0].tolist()), len(ones)))
                ones.append(end)
            else:
                self._spans.append((eg, slice(end, end + len(w))))
            end += len(w)
        self._ones = np.array(ones, dtype=int)

    def _check(self, state: np.ndarray):
        if state.shape != (self._dim,):
            raise DimensionError(f"state shape {state.shape} does not match dimension {self._dim}")

    def _angles(self, areas, phases):
        """(theta, phase) of every pair, in step order."""
        return np.repeat(areas, self._counts) * self._weights, np.repeat(phases, self._counts)

    def _at_ones(self, a):
        """a's entries (on its last axis) at the one-pair steps, as lists."""
        return a.take(self._ones, axis=-1).tolist()

    def apply(self, state: np.ndarray, areas, phases) -> np.ndarray:
        """Rotate the complex vector state in place, step by step; returns it."""
        self._check(state)
        cos, off = _turn(*self._angles(areas, phases))
        cos_1, (off_e, off_g) = self._at_ones(cos), self._at_ones(off)
        for eg, k in self._spans:
            if isinstance(k, slice):
                x = state[eg]
                state[eg] = _mix(cos[k], off[:, k], x, x[::-1])
            else:
                e, g = eg
                x_e, x_g = state.item(e), state.item(g)
                state[e] = _mix(cos_1[k], off_e[k], x_e, x_g)
                state[g] = _mix(cos_1[k], off_g[k], x_g, x_e)
        return state

    def jacobian(self, initial: np.ndarray, areas, phases):
        """(psi, J): apply's replay psi of a copy of initial and J = [d psi /
        d areas, d psi / d phases], (dim, 2 steps), from one forward sweep of
        a (dim, 1 + 2 steps) block of psi and its columns. Step s writes its
        own two columns from its pairs' values x of psi before the turn, then
        turns psi, the earlier columns and its area column. The turn's slope
        in theta is U G, G = -i H its generator, so the area column starts as
        weight * G x, G (x_e, x_g) = -i (e^{i phase} x_g, e^{-i phase} x_e).
        The phase column is the slope of the off-diagonals, (i, -i) times
        off, applied to x; it is not turned. A one-pair step turns psi's two
        entries in apply's scalar arithmetic, so psi is bitwise apply's. The
        gradient of 1 - |z|, z = <target|psi>, is Re(-conj(z) / |z| *
        target^H J).

        The block is dim x (1 + 2 steps) complex: for the GHZ cat alpha =
        sqrt(2) at orders (2, 2, 2), 2662 x 1465, about 62 MB."""
        self._check(np.asarray(initial))
        block = np.zeros((self._dim, 1 + 2 * len(self._spans)), dtype=complex)
        block[:, 0] = initial
        theta, phase = self._angles(areas, phases)
        cos, off = _turn(theta, phase)
        lift = -1j * np.exp(1j * phase) * self._weights  # weight * G, on x_g
        lift = np.stack([lift, -lift.conj()])
        slope = off * _PHASE_SLOPE  # d off / d phase
        cos_1, (off_e, off_g), (lift_e, lift_g) = map(self._at_ones, (cos, off, lift))
        off_1 = off.take(self._ones, axis=1)[:, :, None]
        for s, (eg, k) in enumerate(self._spans):
            c = 1 + 2 * s
            if isinstance(k, slice):
                sub = block[:, : c + 2]
                x = sub.take(eg, axis=0)  # (2, pairs, c + 2); the last two columns are 0
                x_swap = x[::-1, :, 0]
                x[:, :, c] = lift[:, k] * x_swap
                y = _mix(cos[k, None], off[:, k, None], x, x[::-1])
                y[:, :, c + 1] = slope[:, k] * x_swap
                sub[eg] = y
            else:
                e, g = eg
                x_e, x_g = block.item(e, 0), block.item(g, 0)
                block[e, 0] = _mix(cos_1[k], off_e[k], x_e, x_g)
                block[g, 0] = _mix(cos_1[k], off_g[k], x_g, x_e)
                block[e, c], block[g, c] = lift_e[k] * x_g, lift_g[k] * x_e
                rows = block[e : g + 1 : g - e, 1 : c + 1]  # rows e and g (e < g), a view
                rows[:] = _mix(cos_1[k], off_1[:, k], rows, rows[::-1])
                block[e, c + 1], block[g, c + 1] = 1j * off_e[k] * x_g, -1j * off_g[k] * x_e
        return block[:, 0], np.concatenate([block[:, 1::2], block[:, 2::2]], axis=1)


#: d off / d phase = (i, -i) times off, on off's (<e|U|g>, <g|U|e>) rows
_PHASE_SLOPE = np.array([[1j], [-1j]])


def _turn(theta, phase):
    """(cos, off) of the 2x2 rotation by angle theta at phase, elementwise
    over pairs: off stacks <e|U|g> = -i sin e^{i phase} over <g|U|e> =
    -conj(<e|U|g>)."""
    off = -1j * np.sin(theta) * np.exp(1j * phase)
    return np.cos(theta), np.stack([off, -off.conj()])


def _mix(cos, off, x, y):
    """cos x + off y: one side of the 2x2 turn of pairs (x, y), for
    scalars or arrays. A pair turns to (_mix(cos, off_e, x_e, x_g),
    _mix(cos, off_g, x_g, x_e)); a stacked (2, ...) array x of pairs turns
    in one call, _mix(cos, off, x, x[::-1])."""
    return cos * x + off * y


def rotate(state: np.ndarray, eg: np.ndarray, weights: np.ndarray, area: float,
           phase: float) -> np.ndarray:
    """Turn the pairs eg of state in place, each by angle area * weight,
    with RotationPlan's matrix at phase; returns state. A negated area
    turns them back. One pair turns in scalar arithmetic."""
    if len(weights) == 1:
        (e, g), theta = eg[:, 0].tolist(), area * weights.item(0)
        cos, off_e = math.cos(theta), -1j * math.sin(theta) * cmath.exp(1j * phase)
        x_e, x_g = state.item(e), state.item(g)
        state[e] = _mix(cos, off_e, x_e, x_g)
        state[g] = _mix(cos, -off_e.conjugate(), x_g, x_e)
        return state
    cos, off = _turn(area * weights, phase)
    x = state[eg]
    state[eg] = _mix(cos, off, x, x[::-1])
    return state


def apply_step(space: TruncatedSpace, step: PulseStep, state: np.ndarray,
               semantics: str = "exact") -> np.ndarray:
    """One step applied to a copy of state through the pair-rotation kernel."""
    state = np.array(state, dtype=complex)
    if state.shape != (space.dim,):
        raise DimensionError(f"state shape {state.shape} does not match dimension {space.dim}")
    return rotate(state, *step_pairs(space, step, semantics), step.area, step.phase)


# ---------------------------------------------------------------------------
# dispersive-regime bookkeeping


def stirling_first(n: int, k: int) -> int:
    """Signed Stirling numbers of the first kind, exact integer recurrence."""
    if n > 13:
        raise ValueError("Stirling table capped at n=12 (higher orders unsupported)")
    if k < 0 or k > n:
        return 0
    table = [[0] * (n + 1) for _ in range(n + 1)]
    table[0][0] = 1
    for i in range(1, n + 1):
        for j in range(0, i + 1):
            above = table[i - 1][j - 1] if j >= 1 else 0
            table[i][j] = above - (i - 1) * table[i - 1][j]
    return table[n][k]


def shift_coefficient(n: int, k: int) -> int:
    """C+_{n,k} = (-1)^{n+k} s1(n+1, k+1) + s1(n, k), the polynomial weights
    of the number-dependent dispersive shift."""
    return (-1) ** (n + k) * stirling_first(n + 1, k + 1) + stirling_first(n, k)


@dataclass(frozen=True)
class DispersiveModel:
    """Dispersive parameters of one order-n interaction on one oscillator."""

    order: int
    omega_q: float  # rad/s
    omega_o: float  # rad/s
    g: float  # rad/s

    @property
    def detuning(self) -> float:
        return self.omega_q - self.order * self.omega_o

    @property
    def chi(self) -> float:
        delta = self.detuning
        if delta == 0:
            raise ZeroDivisionError("dispersive model at exact resonance")
        if abs(self.g / delta) > 0.1:
            warnings.warn(
                f"g/Delta = {self.g / delta:.3f} is outside the dispersive regime",
                stacklevel=2,
            )
        if self.order == 1:
            return self.g**2 / delta
        return self.g / delta


def selective_drive_frequency(models, fock_labels) -> float:
    """Drive frequency addressing the qubit conditioned on the given Fock label(s).

    omega_q + sum over oscillators of chi^(n) * sum_k C+_{n,k} l^k, for
    sequences of one DispersiveModel and one Fock label per oscillator.
    """
    if len(models) != len(fock_labels):
        raise DimensionError("need one Fock label per dispersive model")
    freq = models[0].omega_q
    for model, l in zip(models, fock_labels):
        n = model.order
        shift = sum(shift_coefficient(n, k) * l**k for k in range(n + 1))
        freq += model.chi * shift
    return freq


# ---------------------------------------------------------------------------
# sideband composition of conditional phase-space gates


def _hadamard(space: TruncatedSpace) -> np.ndarray:
    h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
    return np.kron(h, np.eye(space.osc_dim, dtype=complex))


def conditional_squeezing_via_sidebands(space: TruncatedSpace, n: int, area: float) -> np.ndarray:
    """Compose H Rx(pi) Q(area) Rx(pi) Q(area) H from primitives.

    For small areas this approximates the conditional phase-space gate
    |g><g| S_n(zeta) + |e><e| S_n(-zeta) with zeta = i*area (a conditional
    displacement when n = 1), up to a global sign from the two Rx(pi)
    pulses. The identity is exact only in the small-area limit; callers
    wanting equality to a tolerance should keep |area| modest.
    """
    q = step_propagator(space, PulseStep("njc", area, osc_index=0, order=n))
    h = _hadamard(space)
    # exp(-i (pi/2) sigma_x) = -i sigma_x
    rx = step_propagator(space, PulseStep("drive", math.pi / 2))
    return h @ rx @ q @ rx @ q @ h


def conditional_phase_space_gate(space: TruncatedSpace, n: int, zeta: complex) -> np.ndarray:
    """Direct construction |g><g| S_n(zeta) + |e><e| S_n(-zeta) on
    oscillator 0 (oracle form)."""
    d = space.osc_cutoffs[0]
    rest = np.eye(space.osc_dim // d)
    od = space.osc_dim
    out = np.zeros((space.dim, space.dim), dtype=complex)
    out[od:, od:] = np.kron(_ladder_exp(d, n, zeta), rest)
    out[:od, :od] = np.kron(_ladder_exp(d, n, -zeta), rest)
    return out
