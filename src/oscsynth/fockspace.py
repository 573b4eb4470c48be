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


def _truncation_guard(d, photons, what):
    if photons > d / 4:
        warnings.warn(
            f"{what}: expected photon content {photons:.1f} is large for cutoff {d}; "
            "truncation may corrupt the result",
            stacklevel=3,
        )


def _ladder_eigh(d: int, n: int, zeta: complex):
    """Eigenpairs (lam, V) of i G for the anti-Hermitian generator
    G = zeta a†^n − zeta* a^n on one d-level oscillator. i G is Hermitian,
    so exp(t G) = V diag(e^{−i t lam}) V† for every real t."""
    an = np.linalg.matrix_power(_single_ladder(d), n)
    return np.linalg.eigh(1j * (zeta * an.conj().T - np.conj(zeta) * an))


def _ladder_exp(d: int, n: int, zeta: complex) -> np.ndarray:
    """exp(zeta a†^n − zeta* a^n) on one d-level oscillator, from one eigh."""
    lam, v = _ladder_eigh(d, n, zeta)
    return (v * np.exp(-1j * lam)) @ v.conj().T


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
        """Riemann sum of the samples; each axis needs at least 2 points,
        evenly spaced to 1e-9 relative."""
        for name, axis in (("x_axis", self.x_axis), ("p_axis", self.p_axis)):
            if len(axis) < 2:
                raise ValueError(f"{name} has {len(axis)} point(s); "
                                 "integrating needs at least 2")
            steps = np.diff(axis)
            if np.abs(steps - steps[0]).max() > 1e-9 * abs(steps[0]):
                raise ValueError(f"{name} is not evenly spaced; "
                                 "integrating needs a uniform grid")
        dx = self.x_axis[1] - self.x_axis[0]
        dp = self.p_axis[1] - self.p_axis[0]
        return float(np.sum(self.values) * dx * dp)

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("x,p,w\n")
            for i, x in enumerate(self.x_axis):
                for j, p in enumerate(self.p_axis):
                    fh.write(f"{x:.9g},{p:.9g},{self.values[i, j]:.9g}\n")


def wigner(state: np.ndarray, x_axis, p_axis) -> WignerGrid:
    """Wigner function of a single-oscillator state via displaced parity,
    sampled on the grid x_axis x p_axis.

    W(x, p) = (1/pi) Tr[rho D(alpha) P D†(alpha)] with alpha = (x + ip)/√2
    and P the photon-number parity. This normalization integrates to 1 and
    puts the vacuum peak at 1/pi. Accepts a Fock-basis vector or a square
    density matrix over the oscillator alone; trace out the qubit first.
    Anything else raises DimensionError.

    The sum is the closed form of Cahill and Glauber (Phys. Rev. 177, 1882,
    1969), taken radially:
    W = e^{-2|alpha|^2}/pi sum_k (2 - delta_k0) Re[(2 alpha)^k c_k(|alpha|^2)],
    c_k(r) = sum_m rho[m, m+k] (-1)^m sqrt(m!/(m+k)!) L_m^k(4r).
    The generalized Laguerre polynomials, scaled by sqrt(m! k!/(m+k)!),
    run by their three-term recurrence in m on the grid's distinct
    |alpha|^2 only; the sum over k runs by Horner's rule on the grid.
    """
    state = np.asarray(state, dtype=complex)
    if state.ndim == 1:
        rho = np.outer(state, state.conj())
    elif state.ndim == 2 and state.shape[0] == state.shape[1]:
        rho = state
    else:
        raise DimensionError(
            f"state must be a vector or a square matrix, got shape {state.shape}")
    dim = rho.shape[0]
    x_axis = np.asarray(x_axis, dtype=float)
    p_axis = np.asarray(p_axis, dtype=float)

    # s = x^2 + p^2 = 2 |alpha|^2, deduplicated exactly
    s_grid = np.add.outer(x_axis ** 2, p_axis ** 2)
    s, where = np.unique(s_grid, return_inverse=True)
    where = where.reshape(s_grid.shape)
    damp = np.exp(-s) / math.pi
    z = math.sqrt(2.0) * np.add.outer(x_axis, 1j * p_axis)  # 2 alpha

    # Horner's rule from the top k, acc <- acc (2 alpha) / sqrt(k + 1) + c_k,
    # sums c_k (2 alpha)^k / sqrt(k!), so c_k sums rho[m, m+k] h_m with
    # h_m = (-1)^m sqrt(m! k!/(m+k)!) L_m^k(2 s).
    acc = np.zeros(s_grid.shape, dtype=complex)
    for k in range(dim - 1, -1, -1):
        h_prev, h = 0.0, np.ones_like(s)
        c_k = rho[0, k] * h
        for m in range(dim - k - 1):
            h_prev, h = h, (((2.0 * s - (2 * m + 1 + k)) * h
                             - math.sqrt(m * (m + k)) * h_prev)
                            / math.sqrt((m + 1) * (m + 1 + k)))
            c_k += rho[m + 1, m + 1 + k] * h
        c_k *= damp if k == 0 else 2.0 * damp
        acc *= z
        acc *= 1.0 / math.sqrt(k + 1)
        acc += c_k[where]
    return WignerGrid(x_axis, p_axis, acc.real)


def coherent_vector(dim: int, alpha: complex) -> np.ndarray:
    """Coherent-state amplitudes by stable recurrence (no factorials)."""
    v = np.zeros(dim, dtype=complex)
    v[0] = 1.0
    for k in range(1, dim):
        v[k] = v[k - 1] * alpha / math.sqrt(k)
    v *= math.exp(-abs(alpha) ** 2 / 2.0)
    return v
