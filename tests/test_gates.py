"""Tests for pulse primitives: drives, exchange pulses, dispersive selectivity."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscsynth.fockspace import QUBIT_E, QUBIT_G, DimensionError, make_space
from oscsynth.gates import (
    DispersiveModel,
    PulseStep,
    apply_step,
    conditional_phase_space_gate,
    conditional_squeezing_via_sidebands,
    drive_propagator,
    njc_propagator,
    selective_drive_frequency,
    selective_drive_propagator,
    shift_coefficient,
    step_propagator,
    stirling_first,
    undo_step,
    xi,
)
from oscsynth.synthesis import PulseSchedule, apply_schedule

TWO_PI = 2 * math.pi


def test_xi_values():
    assert xi(3, 2) == pytest.approx(math.sqrt(6.0))
    assert xi(5, 5) == pytest.approx(math.sqrt(math.factorial(5)))
    assert xi(7, 0) == 1.0
    assert xi(2, 3) == 0.0
    with pytest.raises(ValueError):
        xi(-1, 0)


def test_drive_propagator_matrix():
    u = drive_propagator(0.3, 0.7)
    c, s = math.cos(0.3), math.sin(0.3)
    assert u[0, 0] == pytest.approx(c)
    assert u[1, 1] == pytest.approx(c)
    assert u[0, 1] == pytest.approx(-1j * np.exp(1j * 0.7) * s)
    assert u[1, 0] == pytest.approx(-1j * np.exp(-1j * 0.7) * s)


def test_negative_area_is_phase_shift():
    # flipping the sign of the area is the same pulse with phase + pi
    assert np.allclose(drive_propagator(-0.4, 0.2), drive_propagator(0.4, 0.2 + math.pi))


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=-6.0, max_value=6.0, allow_nan=False),
    st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
)
def test_drive_unitary(area, phase):
    u = drive_propagator(area, phase)
    assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-12)


def test_njc_pair_mixing_angle():
    sp = make_space([20])
    n, area, phase, l = 2, 0.07, 0.4, 3
    u = njc_propagator(sp, 0, n, area, phase, semantics="exact")
    theta = area * xi(l + n, n)
    ie = sp.index(QUBIT_E, l)
    ig = sp.index(QUBIT_G, l + n)
    assert u[ie, ie] == pytest.approx(math.cos(theta))
    assert u[ig, ig] == pytest.approx(math.cos(theta))
    assert u[ie, ig] == pytest.approx(-1j * np.exp(1j * phase) * math.sin(theta))
    assert u[ig, ie] == pytest.approx(-1j * np.exp(-1j * phase) * math.sin(theta))
    # states below the exchange order are untouched on the ground side
    for l0 in range(n):
        ig0 = sp.index(QUBIT_G, l0)
        assert u[ig0, ig0] == pytest.approx(1.0)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
)
def test_njc_unitary(n, area, phase):
    sp = make_space([12])
    u = njc_propagator(sp, 0, n, area, phase, semantics="exact")
    assert np.allclose(u @ u.conj().T, np.eye(sp.dim), atol=1e-12)


def test_njc_ideal_pair_acts_on_one_pair_only():
    sp = make_space([12])
    u = njc_propagator(sp, 0, 2, 0.3, 0.0, semantics="ideal-pair", pair_level=1)
    # the {|e,1>, |g,3>} pair mixes, everything else is identity
    touched = {sp.index(QUBIT_E, 1), sp.index(QUBIT_G, 3)}
    for i in range(sp.dim):
        if i not in touched:
            assert u[i, i] == pytest.approx(1.0)
            assert np.count_nonzero(np.abs(u[i]) > 1e-14) == 1
    theta = 0.3 * xi(3, 2)
    assert u[sp.index(QUBIT_E, 1), sp.index(QUBIT_E, 1)] == pytest.approx(math.cos(theta))


def test_selective_drive_is_identity_elsewhere():
    sp = make_space([6])
    u = selective_drive_propagator(sp, 0.5, 0.1, selectivity=(2,))
    for l in range(6):
        if l == 2:
            continue
        for q in (QUBIT_E, QUBIT_G):
            i = sp.index(q, l)
            assert u[i, i] == pytest.approx(1.0)
    block = np.array(
        [[u[sp.index(0, 2), sp.index(0, 2)], u[sp.index(0, 2), sp.index(1, 2)]],
         [u[sp.index(1, 2), sp.index(0, 2)], u[sp.index(1, 2), sp.index(1, 2)]]]
    )
    assert np.allclose(block, drive_propagator(0.5, 0.1))
    assert np.allclose(u @ u.conj().T, np.eye(sp.dim), atol=1e-12)


def test_selective_drive_joint_labels():
    sp = make_space([3, 4])
    u = selective_drive_propagator(sp, math.pi / 2, 0.0, selectivity=(1, 2))
    v = u @ sp.basis_state(QUBIT_G, 1, 2)
    assert abs(v[sp.index(QUBIT_E, 1, 2)]) == pytest.approx(1.0)
    w = u @ sp.basis_state(QUBIT_G, 1, 3)
    assert w[sp.index(QUBIT_G, 1, 3)] == pytest.approx(1.0)
    with pytest.raises(DimensionError):
        selective_drive_propagator(sp, 0.1, 0.0, selectivity=(1,))
    with pytest.raises(DimensionError):
        selective_drive_propagator(sp, 0.1, 0.0, selectivity=(1, 9))


def test_pulse_step_validation():
    with pytest.raises(ValueError):
        PulseStep(kind="laser", area=0.1)
    with pytest.raises(ValueError):
        PulseStep(kind="njc", area=0.1)  # missing order/osc_index
    with pytest.raises(ValueError):
        PulseStep(kind="njc", area=0.1, osc_index=0, order=2, selectivity=(1,))
    with pytest.raises(ValueError):
        PulseStep(kind="drive", area=float("nan"))
    s = PulseStep(kind="drive", area=0.1, phase=3 * math.pi)
    assert s.phase == pytest.approx(math.pi)
    with pytest.raises(ValueError):
        PulseStep(kind="drive", area=0.1, pair_level=(1,))
    s = PulseStep(kind="njc", area=0.1, osc_index=0, order=2, pair_level=[np.int64(3)])
    assert s.pair_level == (3,) and type(s.pair_level[0]) is int


def test_step_propagator_matches_primitives():
    sp = make_space([8])
    s1 = PulseStep(kind="drive", area=0.4, phase=0.3, selectivity=(2,))
    assert np.allclose(step_propagator(sp, s1),
                       selective_drive_propagator(sp, 0.4, 0.3, selectivity=(2,)))
    s2 = PulseStep(kind="njc", area=0.2, phase=0.1, osc_index=0, order=2)
    assert np.allclose(step_propagator(sp, s2),
                       njc_propagator(sp, 0, 2, 0.2, 0.1, semantics="exact"))


KERNEL_SPACES = [(4,), (9,), (40,), (8, 8), (5, 7)]


def _random_state(rng, dim):
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


def _kernel_cases(sp, rng):
    """(step, semantics, pair_level argument) for every step form on sp:
    plain and selective drives, exact njc at orders 1-4, ideal-pair njc
    with a scalar and with a joint pair level, each at a positive and a
    negative area."""
    cases = []
    for area in (0.37, -1.21):
        phase = float(rng.uniform(-math.pi, math.pi))
        sel = tuple(int(rng.integers(0, d)) for d in sp.osc_cutoffs)
        cases.append((PulseStep("drive", area, phase), "exact", None))
        cases.append((PulseStep("drive", area, phase, selectivity=sel), "exact", None))
        for osc, d in enumerate(sp.osc_cutoffs):
            for n in range(1, min(4, d - 1) + 1):
                step = PulseStep("njc", area, phase, osc_index=osc, order=n)
                level = int(rng.integers(0, d - n))
                joint = sel[:osc] + (level,) + sel[osc + 1:]
                cases.append((step, "exact", None))
                cases.append((step, "ideal-pair", level))
                cases.append((replace(step, pair_level=joint), "ideal-pair", None))
                cases.append((replace(step, pair_level=joint), "exact", None))
    return cases


@pytest.mark.parametrize("cutoffs", KERNEL_SPACES, ids=str)
def test_kernel_matches_dense_oracle(cutoffs):
    sp = make_space(cutoffs)
    rng = np.random.default_rng(sum(cutoffs))
    for step, semantics, level in _kernel_cases(sp, rng):
        u = step_propagator(sp, step, semantics=semantics, pair_level=level)
        psi = _random_state(rng, sp.dim)
        out = apply_step(sp, step, psi, semantics, pair_level=level)
        assert np.abs(out - u @ psi).max() < 1e-12, (step, semantics, level)
        # the same rotation with its area negated is the inverse
        back = apply_step(sp, replace(step, area=-step.area), out, semantics, pair_level=level)
        assert np.abs(back - u.conj().T @ out).max() < 1e-12
        assert np.abs(back - psi).max() < 1e-12
        if level is None:
            assert np.abs(undo_step(sp, step, out, semantics) - back).max() == 0.0


@pytest.mark.parametrize("cutoffs", KERNEL_SPACES, ids=str)
@pytest.mark.parametrize("semantics", ["exact", "ideal-pair"])
def test_schedule_replay_matches_dense_product(cutoffs, semantics):
    sp = make_space(cutoffs)
    rng = np.random.default_rng(7 * sum(cutoffs))
    steps = [step for step, _, level in _kernel_cases(sp, rng) if level is None]
    rng.shuffle(steps)
    psi = _random_state(rng, sp.dim)
    ref = psi
    for step in steps:
        ref = step_propagator(sp, step, semantics=semantics) @ ref
    out = apply_schedule(PulseSchedule(steps=steps, space=sp, semantics=semantics), psi)
    assert np.abs(out - ref).max() < 1e-12
    assert np.array_equal(apply_schedule(PulseSchedule(steps=[], space=sp), psi), psi)
    with pytest.raises(DimensionError):
        apply_schedule(PulseSchedule(steps=steps, space=sp), np.append(psi, 0.0))


@pytest.mark.parametrize("step, level", [
    (PulseStep("njc", 0.1, osc_index=0, order=6), None),  # order at the cutoff
    (PulseStep("njc", 0.1, osc_index=0, order=2), 4),  # pair above the cutoff
    (PulseStep("njc", 0.1, osc_index=0, order=2), -1),
    (PulseStep("njc", 0.1, osc_index=1, order=2, pair_level=(1, 5)), None),
    (PulseStep("njc", 0.1, osc_index=1, order=2, pair_level=(1,)), None),
    (PulseStep("drive", 0.1, selectivity=(1, 9)), None),
    (PulseStep("drive", 0.1, selectivity=(1,)), None),
])
def test_kernel_rejects_what_the_oracle_rejects(step, level):
    sp = make_space([6, 7]) if step.osc_index == 1 or step.kind == "drive" else make_space([6])
    psi = np.ones(sp.dim, dtype=complex)
    with pytest.raises(DimensionError):
        step_propagator(sp, step, semantics="ideal-pair", pair_level=level)
    with pytest.raises(DimensionError):
        apply_step(sp, step, psi, "ideal-pair", pair_level=level)


def test_stirling_first_row_four():
    # signed first kind: x(x-1)(x-2)(x-3) = x^4 - 6x^3 + 11x^2 - 6x
    assert stirling_first(4, 1) == -6
    assert stirling_first(4, 2) == 11
    assert stirling_first(4, 3) == -6
    assert stirling_first(4, 4) == 1
    assert stirling_first(0, 0) == 1
    assert stirling_first(3, 0) == 0
    assert stirling_first(3, 5) == 0


def test_stirling_recurrence_and_cap():
    for n in range(2, 12):
        for k in range(1, n + 1):
            assert stirling_first(n, k) == (
                stirling_first(n - 1, k - 1) - (n - 1) * stirling_first(n - 1, k)
            )
    with pytest.raises(ValueError):
        stirling_first(14, 2)


def test_shift_coefficient_linear_order():
    # order-1 shift polynomial is 1 + 2l
    assert shift_coefficient(1, 0) == 1
    assert shift_coefficient(1, 1) == 2
    for l in range(6):
        assert sum(shift_coefficient(1, k) * l**k for k in range(2)) == 1 + 2 * l


def test_dispersive_model_chi():
    m1 = DispersiveModel(order=1, omega_q=TWO_PI * 10e9, omega_o=TWO_PI * 5e9,
                         g=TWO_PI * 30e6)
    delta = TWO_PI * 5e9
    assert m1.chi == pytest.approx((TWO_PI * 30e6) ** 2 / delta)
    m2 = DispersiveModel(order=2, omega_q=TWO_PI * 10e9, omega_o=TWO_PI * 4.9e9,
                         g=TWO_PI * 25e6)
    assert m2.chi == pytest.approx(TWO_PI * 25e6 / (TWO_PI * 0.2e9))
    with pytest.raises(ZeroDivisionError):
        DispersiveModel(order=2, omega_q=2.0, omega_o=1.0, g=0.1).chi
    bad = DispersiveModel(order=2, omega_q=2.0, omega_o=0.9, g=0.1)
    with pytest.warns(UserWarning):
        bad.chi


def test_selective_drive_frequency_single_and_joint():
    m = DispersiveModel(order=1, omega_q=TWO_PI * 10e9, omega_o=TWO_PI * 5e9,
                        g=TWO_PI * 30e6)
    f3 = selective_drive_frequency(m, 3)
    assert f3 == pytest.approx(m.omega_q + m.chi * (1 + 2 * 3))
    m2 = DispersiveModel(order=2, omega_q=TWO_PI * 10e9, omega_o=TWO_PI * 4.9e9,
                         g=TWO_PI * 25e6)
    fj = selective_drive_frequency([m, m2], [3, 1])
    shift2 = sum(shift_coefficient(2, k) * 1**k for k in range(3))
    assert fj == pytest.approx(m.omega_q + m.chi * 7 + m2.chi * shift2)
    with pytest.raises(DimensionError):
        selective_drive_frequency([m, m2], [3])


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("area", [1e-3, 1e-2])
def test_sideband_composition_approximates_conditional_gate(n, area):
    sp = make_space([20])
    us = conditional_squeezing_via_sidebands(sp, n, area)
    uo = conditional_phase_space_gate(sp, n, 1j * area)
    # compare on the low-photon subspace, away from the truncation edge;
    # the composition carries a global minus sign from the two Rx(pi) pulses
    keep = np.r_[np.arange(0, 10), np.arange(20, 30)]
    diff = np.abs(us[np.ix_(keep, keep)] + uo[np.ix_(keep, keep)]).max()
    assert diff < 50 * area**2
