"""Truncated Fock-space construction and elementary oscillator algebra.

Everything downstream (gate propagators, schedule compilation, open-system
replay) works with dense numpy arrays over a fixed tensor ordering:

    index = qubit_level * (D1 * D2 * ...) + l1 * (D2 * ...) + ... + l_last

with qubit level 0 = |e> and level 1 = |g>. The qubit index is the slowest,
the last oscillator the fastest. This ordering is fixed so serialized
schedules and density matrices stay comparable across runs.

Quadrature convention: x = (a + a†)/√2, p = i(a† − a)/√2, so the vacuum has
<x²> = 1/2 and the GKP lattice spacing is √(2π).

Fidelity here is the amplitude overlap |<b|a>| (and √<b|ρ|b> against a
density matrix). All reference numbers this package is checked against use
that convention; see fidelity() for details.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm


class DimensionError(ValueError):
    """Raised for invalid cutoffs, orders, or mismatched spaces."""


@dataclass(frozen=True)
class TruncatedSpace:
    """A qubit tensored with one or more truncated oscillators.

    osc_cutoffs[i] is the Fock dimension of oscillator i (levels 0..D-1).
    """

    osc_cutoffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "osc_cutoffs", tuple(int(d) for d in self.osc_cutoffs))
        for d in self.osc_cutoffs:
            if d < 2:
                raise DimensionError(f"oscillator cutoff must be >= 2, got {d}")
        if not self.osc_cutoffs:
            raise DimensionError("need at least one oscillator")

    @property
    def osc_dim(self) -> int:
        n = 1
        for d in self.osc_cutoffs:
            n *= d
        return n

    @property
    def dim(self) -> int:
        return 2 * self.osc_dim

    @property
    def n_osc(self) -> int:
        return len(self.osc_cutoffs)

    def index(self, qubit_level: int, *fock_levels: int) -> int:
        """Flat basis index of |qubit_level, l1, l2, ...>. 0=|e>, 1=|g>."""
        if len(fock_levels) != self.n_osc:
            raise DimensionError("wrong number of Fock labels")
        idx = qubit_level
        for l, d in zip(fock_levels, self.osc_cutoffs):
            if not 0 <= l < d:
                raise DimensionError(f"Fock level {l} outside cutoff {d}")
            idx = idx * d + l
        return idx

    def basis_state(self, qubit_level: int, *fock_levels: int) -> np.ndarray:
        v = np.zeros(self.dim, dtype=complex)
        v[self.index(qubit_level, *fock_levels)] = 1.0
        return v


QUBIT_E = 0
QUBIT_G = 1


def make_space(osc_cutoffs) -> TruncatedSpace:
    """Build a TruncatedSpace from a list of oscillator cutoffs."""
    return TruncatedSpace(tuple(osc_cutoffs))


def _single_ladder(dim: int) -> np.ndarray:
    a = np.zeros((dim, dim), dtype=complex)
    for k in range(1, dim):
        a[k - 1, k] = math.sqrt(k)
    return a


def _embed_osc(space: TruncatedSpace, osc_index: int, op: np.ndarray) -> np.ndarray:
    """Kron an oscillator-local operator into the full space (identity elsewhere)."""
    mats = [np.eye(2, dtype=complex)]
    for i, d in enumerate(space.osc_cutoffs):
        mats.append(op if i == osc_index else np.eye(d, dtype=complex))
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def ladder(space: TruncatedSpace, osc_index: int = 0) -> np.ndarray:
    """Annihilation operator a on the indicated oscillator, identity elsewhere."""
    return _embed_osc(space, osc_index, _single_ladder(space.osc_cutoffs[osc_index]))


def ladder_power(space: TruncatedSpace, osc_index: int, n: int) -> np.ndarray:
    """a^n on oscillator osc_index. a†^n is the conjugate transpose."""
    d = space.osc_cutoffs[osc_index]
    if not 1 <= n < d:
        raise DimensionError(f"ladder power {n} must satisfy 1 <= n < cutoff {d}")
    single = np.linalg.matrix_power(_single_ladder(d), n)
    return _embed_osc(space, osc_index, single)


def _truncation_guard(space, osc_index, photons, what):
    d = space.osc_cutoffs[osc_index]
    if photons > d / 4:
        warnings.warn(
            f"{what}: expected photon content {photons:.1f} is large for cutoff {d}; "
            "truncation may corrupt the result",
            stacklevel=3,
        )


def displacement(space: TruncatedSpace, osc_index: int, alpha: complex) -> np.ndarray:
    """Displacement operator D(alpha) = exp(alpha a† − alpha* a)."""
    _truncation_guard(space, osc_index, abs(alpha) ** 2, "displacement")
    a = _single_ladder(space.osc_cutoffs[osc_index])
    gen = alpha * a.conj().T - np.conj(alpha) * a
    return _embed_osc(space, osc_index, expm(gen))


def squeezing(space: TruncatedSpace, osc_index: int, n: int, zeta: complex) -> np.ndarray:
    """Order-n squeezing S_n(zeta) = exp(zeta a†^n − zeta* a^n).

    n=1 reproduces a displacement, n=2 the usual squeeze operator.
    """
    if n < 1:
        raise DimensionError("squeezing order must be >= 1")
    a = _single_ladder(space.osc_cutoffs[osc_index])
    an = np.linalg.matrix_power(a, n)
    gen = zeta * an.conj().T - np.conj(zeta) * an
    return _embed_osc(space, osc_index, expm(gen))


def rotation(space: TruncatedSpace, osc_index: int, angle: float) -> np.ndarray:
    """Phase rotation exp(i angle a†a): diagonal entries e^{i angle l}."""
    d = space.osc_cutoffs[osc_index]
    diag = np.exp(1j * angle * np.arange(d))
    return _embed_osc(space, osc_index, np.diag(diag))


def normalize(vec: np.ndarray) -> np.ndarray:
    nrm = np.linalg.norm(vec)
    if nrm == 0:
        raise ValueError("cannot normalize the zero vector")
    return vec / nrm


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """Overlap fidelity between a (vector or density matrix) and pure b.

    Returns |<b|a>| for a pure state a, and sqrt(<b|a|b>) when a is a
    density matrix, so the two branches agree on pure inputs. Arguments
    of different dimension raise DimensionError.
    """
    b = np.asarray(b, dtype=complex)
    a = np.asarray(a, dtype=complex)
    if a.ndim in (1, 2) and a.shape[0] != b.shape[0]:
        raise DimensionError(f"state dimensions differ: {a.shape[0]} and {b.shape[0]}")
    if a.ndim == 1:
        return float(abs(np.vdot(b, a)))
    if a.ndim == 2:
        val = np.real(np.vdot(b, a @ b))
        return float(math.sqrt(max(val, 0.0)))
    raise DimensionError("first argument must be a vector or a square matrix")


def ptrace_qubit(space: TruncatedSpace, state: np.ndarray) -> np.ndarray:
    """Reduced oscillator density matrix after tracing out the qubit."""
    od = space.osc_dim
    if state.ndim == 1:
        psi = state.reshape(2, od)
        return np.einsum("qi,qj->ij", psi, psi.conj())
    rho = state.reshape(2, od, 2, od)
    return np.einsum("qiqj->ij", rho)


@dataclass
class WignerGrid:
    """Wigner function samples on a rectangular phase-space grid."""

    x_axis: np.ndarray
    p_axis: np.ndarray
    values: np.ndarray = field(repr=False)

    def integral(self) -> float:
        dx = self.x_axis[1] - self.x_axis[0]
        dp = self.p_axis[1] - self.p_axis[0]
        return float(np.sum(self.values) * dx * dp)

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("x,p,w\n")
            for i, x in enumerate(self.x_axis):
                for j, p in enumerate(self.p_axis):
                    fh.write(f"{x:.9g},{p:.9g},{self.values[i, j]:.9g}\n")


def wigner(state: np.ndarray, x_axis=None, p_axis=None) -> WignerGrid:
    """Wigner function of a single-oscillator state via displaced parity.

    W(x, p) = (1/pi) Tr[rho D(alpha) P D†(alpha)] with alpha = (x + ip)/√2
    and P the photon-number parity. This normalization integrates to 1 and
    puts the vacuum peak at 1/pi. Accepts a Fock-basis vector or density
    matrix over the oscillator alone; trace out the qubit first.
    """
    state = np.asarray(state, dtype=complex)
    if state.ndim == 1:
        rho = np.outer(state, state.conj())
    else:
        rho = state
    dim = rho.shape[0]
    if x_axis is None:
        x_axis = np.linspace(-5.0, 5.0, 201)
    if p_axis is None:
        p_axis = np.linspace(-5.0, 5.0, 201)
    x_axis = np.asarray(x_axis, dtype=float)
    p_axis = np.asarray(p_axis, dtype=float)

    X, P = np.meshgrid(x_axis, p_axis, indexing="ij")
    A = (X + 1j * P) / math.sqrt(2.0)

    # Iterative ladder recurrence over Wigner functions of |m><n| (the same
    # scheme used by standard open-source Wigner implementations); avoids a
    # matrix exponential per grid point.
    wlist = [np.exp(-2.0 * np.abs(A) ** 2) / math.pi]
    vals = np.real(rho[0, 0]) * np.real(wlist[0])
    for n in range(1, dim):
        wlist.append(2.0 * A * wlist[n - 1] / math.sqrt(n))
        vals = vals + 2.0 * np.real(rho[0, n] * wlist[n])
    for m in range(1, dim):
        temp = wlist[m].copy()
        wlist[m] = (2.0 * np.conj(A) * temp - math.sqrt(m) * wlist[m - 1]) / math.sqrt(m)
        vals = vals + np.real(rho[m, m] * wlist[m])
        for n in range(m + 1, dim):
            temp2 = (2.0 * A * wlist[n - 1] - math.sqrt(m) * temp) / math.sqrt(n)
            temp = wlist[n].copy()
            wlist[n] = temp2
            vals = vals + 2.0 * np.real(rho[m, n] * wlist[n])
    return WignerGrid(x_axis, p_axis, vals)


def coherent_vector(dim: int, alpha: complex) -> np.ndarray:
    """Coherent-state amplitudes by stable recurrence (no factorials)."""
    v = np.zeros(dim, dtype=complex)
    v[0] = 1.0
    for k in range(1, dim):
        v[k] = v[k - 1] * alpha / math.sqrt(k)
    v *= math.exp(-abs(alpha) ** 2 / 2.0)
    return v
