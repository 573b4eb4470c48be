"""Tests for the truncated-space layout and elementary oscillator algebra."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from oscsynth.fockspace import (
    QUBIT_E,
    QUBIT_G,
    DimensionError,
    coherent_vector,
    displacement,
    fidelity,
    ladder,
    ladder_power,
    make_space,
    normalize,
    ptrace_qubit,
    rotation,
    squeezing,
    wigner,
)


def g_block(space, vec_full):
    """Oscillator amplitudes in the qubit-ground block of a full-space vector."""
    d = space.osc_dim
    return vec_full[QUBIT_G * d:(QUBIT_G + 1) * d]


def test_index_layout_qubit_slowest():
    sp = make_space([3, 4])
    # index = q*(3*4) + l1*4 + l2
    assert sp.index(QUBIT_E, 0, 0) == 0
    assert sp.index(QUBIT_E, 1, 2) == 6
    assert sp.index(QUBIT_G, 0, 0) == 12
    assert sp.index(QUBIT_G, 2, 3) == 23
    assert sp.dim == 24
    v = sp.basis_state(QUBIT_G, 1, 1)
    assert v[sp.index(QUBIT_G, 1, 1)] == 1.0
    assert np.count_nonzero(v) == 1


def test_index_rejects_out_of_range():
    sp = make_space([3])
    with pytest.raises(DimensionError):
        sp.index(QUBIT_E, 3)
    with pytest.raises(DimensionError):
        sp.index(QUBIT_E, 0, 0)
    with pytest.raises(DimensionError):
        make_space([1])
    with pytest.raises(DimensionError):
        make_space([])


def test_ladder_commutator():
    sp = make_space([30])
    a = ladder(sp)
    comm = a @ a.conj().T - a.conj().T @ a
    # [a, a†] = 1 except in the top truncated corner of each qubit block
    d = sp.osc_cutoffs[0]
    for q in (QUBIT_E, QUBIT_G):
        block = comm[q * d:(q + 1) * d, q * d:(q + 1) * d]
        assert np.allclose(np.diag(block)[:-1], 1.0)
        assert np.isclose(block[-1, -1], 1.0 - d)


def test_displacement_poisson_law():
    sp = make_space([40])
    alpha = 1.3 - 0.4j
    D = displacement(sp, 0, alpha)
    out = D @ sp.basis_state(QUBIT_G, 0)
    probs = np.abs(g_block(sp, out)) ** 2
    nbar = abs(alpha) ** 2
    for k in range(12):
        poisson = math.exp(-nbar) * nbar ** k / math.factorial(k)
        assert probs[k] == pytest.approx(poisson, abs=1e-10)
    # qubit part untouched
    assert np.allclose(out[: sp.osc_dim], 0.0)


def test_coherent_vector_matches_displacement():
    sp = make_space([50])
    alpha = 0.9 + 0.7j
    via_op = displacement(sp, 0, alpha) @ sp.basis_state(QUBIT_G, 0)
    direct = coherent_vector(sp.osc_cutoffs[0], alpha)
    assert fidelity(direct, g_block(sp, via_op)) == pytest.approx(1.0, abs=1e-9)


def test_squeezing_reduces_x_variance():
    sp = make_space([60])
    r = 0.5
    # S_2(-r/2) squeezes the x quadrature by e^{-2r}
    out = squeezing(sp, 0, 2, -r / 2) @ sp.basis_state(QUBIT_G, 0)
    a = ladder(sp)
    x = (a + a.conj().T) / math.sqrt(2.0)
    var = np.real(out.conj() @ (x @ x) @ out) - np.real(out.conj() @ x @ out) ** 2
    assert var == pytest.approx(0.5 * math.exp(-2 * r), rel=1e-6)


@pytest.mark.parametrize("d", [8, 40])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_ladder_exponentials_match_expm(n, d):
    # the eigh exponentials against scipy's expm of the same generator,
    # embedded with the qubit
    sp = make_space([d])
    an = np.linalg.matrix_power(np.diag(np.sqrt(np.arange(1.0, d)), 1), n)
    for zeta in (0.3 + 0.2j, -0.15 + 0.4j, 1.1 - 0.7j):
        oracle = np.kron(np.eye(2), expm(zeta * an.conj().T - np.conj(zeta) * an))
        assert np.abs(squeezing(sp, 0, n, zeta) - oracle).max() < 1e-12
        if n == 1:
            assert np.abs(displacement(sp, 0, zeta) - oracle).max() < 1e-12


def test_rotation_phases_fock_levels():
    sp = make_space([8])
    theta = 0.37
    R = rotation(sp, 0, theta)
    for k in range(8):
        v = sp.basis_state(QUBIT_G, k)
        out = R @ v
        assert out[sp.index(QUBIT_G, k)] == pytest.approx(np.exp(1j * theta * k))


def test_ladder_power_matches_repeated_ladder():
    sp = make_space([12])
    a = ladder(sp)
    assert np.allclose(ladder_power(sp, 0, 3), a @ a @ a)
    with pytest.raises(DimensionError):
        ladder_power(sp, 0, 12)
    with pytest.raises(DimensionError):
        ladder_power(sp, 0, 0)


def test_fidelity_amplitude_convention():
    a = np.array([1.0, 0.0], dtype=complex)
    b = np.array([math.sqrt(0.5), math.sqrt(0.5)], dtype=complex)
    # amplitude overlap, not probability overlap
    assert fidelity(a, b) == pytest.approx(math.sqrt(0.5))
    # no renormalization: scaling the first argument scales the result
    assert fidelity(0.5 * a, b) == pytest.approx(0.5 * math.sqrt(0.5))


def test_fidelity_rejects_vectors_of_different_length():
    a = np.array([1.0, 0.0, 0.0], dtype=complex)
    b = np.array([1.0], dtype=complex)
    with pytest.raises(DimensionError):
        fidelity(a, b)


def test_fidelity_density_matrix_agrees_with_pure():
    rng = np.random.default_rng(7)
    a = normalize(rng.normal(size=6) + 1j * rng.normal(size=6))
    b = normalize(rng.normal(size=6) + 1j * rng.normal(size=6))
    rho = np.outer(a, a.conj())
    assert fidelity(a, b) == pytest.approx(fidelity(rho, b), abs=1e-12)


def test_ptrace_qubit():
    sp = make_space([4])
    v = normalize(sp.basis_state(QUBIT_G, 0) + sp.basis_state(QUBIT_G, 2))
    rho = ptrace_qubit(sp, v)
    assert rho.shape == (4, 4)
    assert np.trace(rho) == pytest.approx(1.0)
    assert rho[0, 2] == pytest.approx(0.5)
    # entangled with the qubit: off-diagonal coherence vanishes
    w = normalize(sp.basis_state(QUBIT_G, 0) + sp.basis_state(QUBIT_E, 2))
    rho2 = ptrace_qubit(sp, w)
    assert rho2[0, 2] == pytest.approx(0.0)
    assert rho2[0, 0] == pytest.approx(0.5)
    assert rho2[2, 2] == pytest.approx(0.5)


class TestWigner:
    def setup_method(self):
        self.sp = make_space([25])
        self.ax = np.linspace(-4.5, 4.5, 61)

    def test_vacuum_peak(self):
        grid = wigner(g_block(self.sp, self.sp.basis_state(QUBIT_G, 0)), self.ax, self.ax)
        i0 = len(self.ax) // 2
        assert grid.values[i0, i0] == pytest.approx(1.0 / math.pi, rel=1e-6)

    def test_single_photon_negative_at_origin(self):
        grid = wigner(g_block(self.sp, self.sp.basis_state(QUBIT_G, 1)), self.ax, self.ax)
        i0 = len(self.ax) // 2
        assert grid.values[i0, i0] == pytest.approx(-1.0 / math.pi, rel=1e-6)

    def test_integral_near_one(self):
        v = displacement(self.sp, 0, 0.8) @ self.sp.basis_state(QUBIT_G, 0)
        grid = wigner(g_block(self.sp, v), self.ax, self.ax)
        assert grid.integral() == pytest.approx(1.0, abs=1e-3)

    def test_density_input_matches_pure(self):
        v = self.sp.basis_state(QUBIT_G, 0)
        rho_osc = ptrace_qubit(self.sp, v)
        g1 = wigner(g_block(self.sp, v), self.ax, self.ax)
        g2 = wigner(rho_osc, self.ax, self.ax)
        assert np.allclose(g1.values, g2.values, atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(
    st.floats(min_value=-1.2, max_value=1.2, allow_nan=False),
    st.floats(min_value=-1.2, max_value=1.2, allow_nan=False),
)
def test_displacement_unitary(re, im):
    sp = make_space([30])
    D = displacement(sp, 0, re + 1j * im)
    assert np.allclose(D @ D.conj().T, np.eye(sp.dim), atol=1e-8)
