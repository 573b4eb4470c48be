"""Pulse-step propagators and dispersive bookkeeping.

Two primitive step kinds exist. A *drive* rotates the qubit, optionally
conditioned on specific Fock levels (a selective rotation realized in the
dispersive regime by driving at a number-dependent frequency). An *njc* step
runs the order-n qubit-oscillator exchange sigma+ a^n + sigma- a†^n, which
mixes each pair {|e,l>, |g,l+n>} with angle |area| * xi(l+n, n).

Pulse areas are signed dimensionless products (coupling magnitude times step
duration). A negative area is physically a phase flip: (area, phase) and
(-area, phase + pi) generate the same propagator.

Every step is therefore a set of 2x2 rotations on disjoint (|e>, |g>) index
pairs. Replays and compilers apply steps through the pair-rotation kernel
(step_pairs, RotationPlan), which costs O(dim) per step; the dense builders
(selective_drive_propagator, njc_propagator, step_propagator) are the
reference it is tested against.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .fockspace import (
    QUBIT_E,
    QUBIT_G,
    DimensionError,
    TruncatedSpace,
    _embed_osc,
    _single_ladder,
)


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

    selectivity: tuple of Fock labels, one per oscillator, or None for a
    plain (unconditional) drive. Only drives may be selective.

    pair_level: tuple of Fock labels, one per oscillator, naming the |e>
    side of the one pair an ideal-pair replay of this njc step rotates, or
    None for a step that rotates every pair under either semantics. Only
    njc steps carry one.
    """

    kind: str  # "drive" | "njc"
    area: float
    phase: float = 0.0
    osc_index: Optional[int] = None  # njc only
    order: Optional[int] = None  # njc only
    selectivity: Optional[tuple] = None  # drive only
    pair_level: Optional[tuple] = None  # njc only

    def __post_init__(self):
        if self.kind not in ("drive", "njc"):
            raise ValueError(f"unknown step kind {self.kind!r}")
        if self.kind == "njc":
            if self.selectivity is not None:
                raise ValueError("njc steps cannot be selective")
            if self.order is None or self.osc_index is None:
                raise ValueError("njc steps need an order and oscillator index")
        if not math.isfinite(self.area):
            raise ValueError("pulse area must be finite")
        # canonicalize the stored phase into (-pi, pi]
        ph = math.remainder(self.phase, 2 * math.pi)
        if ph <= -math.pi:
            ph += 2 * math.pi
        object.__setattr__(self, "phase", ph)
        if self.selectivity is not None:
            object.__setattr__(self, "selectivity", tuple(int(l) for l in self.selectivity))
        if self.pair_level is not None:
            if self.kind != "njc":
                raise ValueError("only njc steps carry a pair_level")
            object.__setattr__(self, "pair_level", tuple(int(l) for l in self.pair_level))


def _canonical(area: float, phase: float):
    """Fold a signed area into (|area|, phase'), adding pi for negative areas."""
    if area < 0:
        return -area, phase + math.pi
    return area, phase


def drive_propagator(area: float, phase: float = 0.0) -> np.ndarray:
    """2x2 resonant qubit drive: cos|A| on the diagonal, -i e^{±i phase} sin|A| off it.

    Basis order (|e>, |g>). Tensor with an oscillator identity to act on a
    full space (see apply helpers in synthesis).
    """
    mag, ph = _canonical(area, phase)
    c = math.cos(mag)
    s = math.sin(mag)
    return np.array(
        [
            [c, -1j * np.exp(1j * ph) * s],
            [-1j * np.exp(-1j * ph) * s, c],
        ],
        dtype=complex,
    )


def selective_drive_propagator(
    space: TruncatedSpace, area: float, phase: float = 0.0, selectivity=None
) -> np.ndarray:
    """Qubit drive acting only where the oscillators sit at the selected Fock labels.

    With selectivity None this is the plain drive tensored with identity.
    Identity on every other Fock basis state, so the result is exactly unitary.
    """
    u2 = drive_propagator(area, phase)
    od = space.osc_dim
    out = np.eye(space.dim, dtype=complex)
    if selectivity is None:
        for o in range(od):
            _write_qubit_block(out, u2, o, od)
        return out
    sel = tuple(int(l) for l in selectivity)
    if len(sel) != space.n_osc:
        raise DimensionError("selectivity needs one Fock label per oscillator")
    flat = 0
    for l, d in zip(sel, space.osc_cutoffs):
        if not 0 <= l < d:
            raise DimensionError(f"selective label {l} outside cutoff {d}")
        flat = flat * d + l
    _write_qubit_block(out, u2, flat, od)
    return out


def _write_qubit_block(mat, u2, osc_flat, osc_dim):
    e = QUBIT_E * osc_dim + osc_flat
    g = QUBIT_G * osc_dim + osc_flat
    mat[e, e] = u2[0, 0]
    mat[e, g] = u2[0, 1]
    mat[g, e] = u2[1, 0]
    mat[g, g] = u2[1, 1]


def njc_propagator(
    space: TruncatedSpace,
    osc_index: int,
    n: int,
    area: float,
    phase: float = 0.0,
    semantics: str = "exact",
    pair_level: Optional[int] = None,
) -> np.ndarray:
    """Order-n exchange propagator exp(-i tau (g sigma+ a^n + h.c.)).

    "exact" semantics rotates every invariant pair {|e,l>, |g,l+n>} by angle
    |area| * xi(l+n, n); the unpaired states |g,m> (m < n) and |e,l> with
    l+n >= cutoff stay put, so the matrix is exactly unitary at any cutoff.

    "ideal-pair" rotates only the single pair at pair_level l (an idealized
    selective sideband used by the fine-tune-then-populate compiler) and is
    the identity elsewhere.
    """
    d = space.osc_cutoffs[osc_index]
    if not 1 <= n < d:
        raise DimensionError(f"njc order {n} must satisfy 1 <= n < cutoff {d}")
    mag, ph = _canonical(area, phase)
    out = np.eye(space.dim, dtype=complex)

    def write_pair(l, other):
        theta = mag * xi(l + n, n)
        c = math.cos(theta)
        s = math.sin(theta)
        e_i = _joint_index(space, QUBIT_E, osc_index, l, other)
        g_i = _joint_index(space, QUBIT_G, osc_index, l + n, other)
        out[e_i, e_i] = c
        out[g_i, g_i] = c
        out[e_i, g_i] = -1j * np.exp(1j * ph) * s
        out[g_i, e_i] = -1j * np.exp(-1j * ph) * s

    if semantics == "exact":
        for l in range(d - n):
            for other in _other_osc_indices(space, osc_index):
                write_pair(l, other)
    elif semantics == "ideal-pair":
        if pair_level is None:
            raise ValueError("ideal-pair semantics needs pair_level")
        if isinstance(pair_level, (tuple, list)):
            # joint label: only the pair at this exact multi-oscillator label
            labels = tuple(int(l) for l in pair_level)
            if len(labels) != space.n_osc:
                raise DimensionError("joint pair label needs one entry per oscillator")
            l = labels[osc_index]
            other = tuple(x for i, x in enumerate(labels) if i != osc_index)
            if l + n >= d:
                raise DimensionError(f"pair level {l}+{n} exceeds cutoff {d}")
            write_pair(l, other)
        else:
            l = int(pair_level)
            if l + n >= d:
                raise DimensionError(f"pair level {l}+{n} exceeds cutoff {d}")
            for other in _other_osc_indices(space, osc_index):
                write_pair(l, other)
    else:
        raise ValueError(f"unknown njc semantics {semantics!r}")
    return out


def _other_osc_indices(space: TruncatedSpace, osc_index: int):
    """All Fock label tuples of the oscillators other than osc_index."""
    dims = [d for i, d in enumerate(space.osc_cutoffs) if i != osc_index]
    if not dims:
        return [()]
    combos = [()]
    for d in dims:
        combos = [c + (l,) for c in combos for l in range(d)]
    return combos


def _joint_index(space, qubit_level, osc_index, level, other_labels):
    labels = []
    it = iter(other_labels)
    for i in range(space.n_osc):
        labels.append(level if i == osc_index else next(it))
    return space.index(qubit_level, *labels)


def step_propagator(space: TruncatedSpace, step: PulseStep,
                    semantics: str = "exact", pair_level: Optional[int] = None) -> np.ndarray:
    """Dense propagator of one step; pair_level, when given, overrides the
    step's own. The reference the pair-rotation kernel is checked against."""
    if step.kind == "drive":
        return selective_drive_propagator(space, step.area, step.phase, step.selectivity)
    lvl = step.pair_level if pair_level is None else pair_level
    if semantics == "exact" or lvl is None:
        # steps without a pair annotation (base-state ladder pulses) always
        # use the exact block propagator; only annotated climbing steps can
        # be idealized
        return njc_propagator(space, step.osc_index, step.order, step.area, step.phase,
                              semantics="exact")
    return njc_propagator(space, step.osc_index, step.order, step.area, step.phase,
                          semantics="ideal-pair", pair_level=lvl)


# ---------------------------------------------------------------------------
# pair-rotation kernel


@dataclass(frozen=True)
class PairTable:
    """Every pair {|e,l,...>, |g,l+n,...>} of one oscillator at order n, in
    flat-index order of the |e> side. Order 0 gives the pairs {|e,o>, |g,o>}
    a plain drive rotates."""

    eg: np.ndarray  # (2, pairs): flat indices of the |e> and |g> sides
    weights: np.ndarray  # xi(l+n, n): a pair turns by area * weight
    levels: np.ndarray  # l


@functools.lru_cache(maxsize=64)
def pair_table(space: TruncatedSpace, osc_index: int, n: int) -> PairTable:
    """The pair table of oscillator osc_index at order n, built once per
    (space, osc_index, n); its arrays are read-only."""
    d = space.osc_cutoffs[osc_index]
    if not 0 <= n < d:
        raise DimensionError(f"pair order {n} must satisfy 0 <= n < cutoff {d}")
    od = space.osc_dim
    levels = np.indices(space.osc_cutoffs).reshape(space.n_osc, -1)[osc_index]
    flat = np.flatnonzero(levels < d - n)
    stride = od // math.prod(space.osc_cutoffs[: osc_index + 1])
    levels = levels[flat]
    weights = np.array([xi(l + n, n) for l in range(d - n)])[levels]
    table = PairTable(np.stack([QUBIT_E * od + flat, QUBIT_G * od + flat + n * stride]),
                      weights, levels)
    for arr in (table.eg, table.weights, table.levels):
        arr.flags.writeable = False
    return table


def step_pairs(space: TruncatedSpace, step: PulseStep, semantics: str = "exact",
               pair_level=None):
    """(eg, weights): the pairs one step rotates, with step_propagator's
    semantics. A drive rotates every {|e,o>, |g,o>} at weight 1, or only the
    selected label's; an njc step rotates every order-n pair under exact
    semantics, and under ideal-pair semantics only the pair at a joint
    pair_level, or every pair at a scalar one."""
    if step.kind == "drive":
        table = pair_table(space, 0, 0)
        label = step.selectivity
    else:
        if step.order < 1:
            raise DimensionError(f"njc order {step.order} must be >= 1")
        table = pair_table(space, step.osc_index, step.order)
        label = step.pair_level if pair_level is None else pair_level
        if semantics == "exact":
            label = None
        elif label is not None and semantics != "ideal-pair":
            raise ValueError(f"unknown njc semantics {semantics!r}")
    if label is None:
        return table.eg, table.weights
    if isinstance(label, (tuple, list)):
        if len(label) != space.n_osc:
            raise DimensionError("pair label needs one Fock level per oscillator")
        keep = table.eg[0] == space.index(QUBIT_E, *label)
    else:
        keep = table.levels == int(label)
    if not keep.any():
        raise DimensionError(f"no order-{step.order} pair at level {label} within the cutoffs")
    return table.eg[:, keep], table.weights[keep]


class RotationPlan:
    """The pair-rotation kernel: the pairs of a step sequence (step_pairs,
    with its semantics and pair_level), gathered once and replayed for any
    areas and phases.

    Step k turns each of its pairs (x_e, x_g) by angle areas[k] * weight with
    drive_propagator's matrix at phases[k]: x_e <- c x_e + off x_g and
    x_g <- c x_g - conj(off) x_e, where c = cos and off = -i e^{i phase} sin.
    The signed area enters directly, so negating it gives exactly the
    inverse rotation.
    """

    def __init__(self, space: TruncatedSpace, steps, semantics: str = "exact",
                 pair_level=None):
        pairs = [step_pairs(space, s, semantics, pair_level) for s in steps]
        self._dim = space.dim
        self._counts = np.array([len(w) for _, w in pairs], dtype=int)
        self._weights = np.concatenate([w for _, w in pairs]) if pairs else np.zeros(0)
        ends = np.cumsum(self._counts)
        self._spans = [(eg, slice(end - len(w), end)) for (eg, w), end in zip(pairs, ends)]

    def apply(self, state: np.ndarray, areas, phases) -> np.ndarray:
        """Rotate the complex vector state in place, step by step; returns it."""
        if state.shape != (self._dim,):
            raise DimensionError(f"state shape {state.shape} does not match dimension {self._dim}")
        theta = np.repeat(areas, self._counts) * self._weights
        cos = np.cos(theta)
        off = -1j * np.sin(theta) * np.exp(1j * np.repeat(phases, self._counts))
        off = np.stack([off, -off.conj()])  # <e|U|g> over <g|U|e>
        for eg, k in self._spans:
            x = state[eg]
            state[eg] = cos[k] * x + off[:, k] * x[::-1]
        return state


def apply_step(space: TruncatedSpace, step: PulseStep, state: np.ndarray,
               semantics: str = "exact", pair_level: Optional[int] = None) -> np.ndarray:
    """One step applied to a copy of state through the pair-rotation kernel."""
    plan = RotationPlan(space, [step], semantics, pair_level)
    return plan.apply(np.array(state, dtype=complex), [step.area], [step.phase])


def undo_step(space: TruncatedSpace, step: PulseStep, state: np.ndarray,
              semantics: str = "exact") -> np.ndarray:
    """The inverse of apply_step: the same rotation with its area negated."""
    return apply_step(space, replace(step, area=-step.area), state, semantics)


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

    omega_q + sum over oscillators of chi^(n) * sum_k C+_{n,k} l^k. Pass a
    single DispersiveModel and integer, or sequences of each for joint
    two-oscillator selectivity.
    """
    if isinstance(models, DispersiveModel):
        models = [models]
        fock_labels = [fock_labels]
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


def _rx_pi(space: TruncatedSpace) -> np.ndarray:
    # exp(-i (pi/2) sigma_x) = -i sigma_x
    rx = np.array([[0, -1j], [-1j, 0]], dtype=complex)
    return np.kron(rx, np.eye(space.osc_dim, dtype=complex))


def conditional_squeezing_via_sidebands(space: TruncatedSpace, n: int, area: float) -> np.ndarray:
    """Compose H Rx(pi) Q(area) Rx(pi) Q(area) H from primitives.

    For small areas this approximates the conditional phase-space gate
    |g><g| S_n(zeta) + |e><e| S_n(-zeta) with zeta = i*area (a conditional
    displacement when n = 1), up to a global sign from the two Rx(pi)
    pulses. The identity is exact only in the small-area limit; callers
    wanting equality to a tolerance should keep |area| modest.
    """
    q = njc_propagator(space, 0, n, area, 0.0, semantics="exact")
    h = _hadamard(space)
    rx = _rx_pi(space)
    return h @ rx @ q @ rx @ q @ h


def conditional_phase_space_gate(space: TruncatedSpace, n: int, zeta: complex) -> np.ndarray:
    """Direct construction |g><g| S_n(zeta) + |e><e| S_n(-zeta) (oracle form)."""
    from .fockspace import squeezing

    sp = squeezing(space, 0, n, zeta)
    sm = squeezing(space, 0, n, -zeta)
    od = space.osc_dim
    out = np.zeros((space.dim, space.dim), dtype=complex)
    out[od:, od:] = _osc_block(sp, od)
    out[:od, :od] = _osc_block(sm, od)
    return out


def _osc_block(full_op: np.ndarray, osc_dim: int) -> np.ndarray:
    # operators from fockspace embed as identity on the qubit; both qubit
    # blocks carry the same oscillator factor, take the |e> block
    return full_op[:osc_dim, :osc_dim]
