"""Tests for the interaction-picture circuit model and Lindblad replay."""

import math
from dataclasses import fields, replace
from itertools import product

import numpy as np
import pytest
import scipy.integrate
from scipy.integrate import RK45, solve_ivp
from scipy.linalg import expm

from oscsynth import opensystem
from oscsynth.fockspace import QUBIT_E, QUBIT_G, DimensionError, _single_ladder, make_space
from oscsynth.gates import PulseStep, step_propagator
from oscsynth.opensystem import (
    CircuitParams,
    IntegrationError,
    InteractionPictureGenerator,
    NoiseRates,
    density_matrix_to_csv,
    lindblad_evolve,
    load_params,
    load_rates,
    run_open_protocol,
)
from oscsynth.synthesis import CouplingBudget, PulseSchedule, apply_schedule, ftp_schedule
from oscsynth.targets import TargetState, cat_state

TWO_PI = 2 * math.pi


def _lindblad_ops(rates, cutoff):
    """Dense reference dissipators: (rate, L, L'L) per nonzero rate."""
    d = cutoff
    a = _single_ladder(d)
    i2 = np.eye(2, dtype=complex)
    io = np.eye(d, dtype=complex)
    sz = np.diag([1.0, -1.0]).astype(complex)
    s_minus = np.zeros((2, 2), dtype=complex)
    s_minus[QUBIT_G, QUBIT_E] = 1.0
    ops = [
        (rates.gamma_q_r, np.kron(s_minus, io)),
        (rates.gamma_q_phi / 2.0, np.kron(sz, io)),
        (rates.gamma_o_r, np.kron(i2, a)),
        (rates.gamma_o_phi, np.kron(i2, a.conj().T @ a)),
    ]
    return [(g, L, L.conj().T @ L) for g, L in ops if g > 0]


def dense_rhs(h, rho, diss):
    dr = -1j * (h @ rho - rho @ h)
    for g, L, LL in diss:
        dr += g * (L @ rho @ L.conj().T - 0.5 * (LL @ rho + rho @ LL))
    return dr


def dense_evolve(rho0, h_of_t, rates, duration, max_step):
    """lindblad_evolve's integration with the dense reference right-hand side."""
    dim = rho0.shape[0]
    diss = _lindblad_ops(rates, dim // 2)
    fun = lambda t, y: dense_rhs(h_of_t(t), y.reshape(dim, dim), diss).ravel()
    sol = solve_ivp(fun, (0.0, duration), rho0.ravel().astype(complex),
                    rtol=1e-8, atol=1e-10, max_step=max_step)
    rho = sol.y[:, -1].reshape(dim, dim)
    return 0.5 * (rho + rho.conj().T)


def spy_integrator(monkeypatch):
    """Record the (rhs, solver) pairs lindblad_evolve hands to RK45."""
    seen = []

    def spy(fun, *args, **kw):
        solver = RK45(fun, *args, **kw)
        seen.append((fun, solver))
        return solver

    monkeypatch.setattr(scipy.integrate, "RK45", spy)
    return seen


def random_density(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m + m.conj().T
    return rho / np.trace(rho).real


RATE_CASES = {
    "q_r": NoiseRates(2e5, 0.0, 0.0, 0.0),
    "o_r": NoiseRates(0.0, 3e5, 0.0, 0.0),
    "q_phi": NoiseRates(0.0, 0.0, 5e5, 0.0),
    "o_phi": NoiseRates(0.0, 0.0, 0.0, 7e5),
    "all": NoiseRates(2e5, 3e5, 5e5, 7e5),
    # |D| T above 1 on every pulse at cutoff 8: every jump order matters
    "strong": NoiseRates(2e7, 3e7, 5e7, 7e7),
}


@pytest.mark.parametrize("cutoff", [4, 30])
@pytest.mark.parametrize("case", sorted(RATE_CASES))
def test_rhs_matches_dense_dissipators(monkeypatch, cutoff, case):
    rates = RATE_CASES[case]
    rng = np.random.default_rng(cutoff)
    dim = 2 * cutoff
    h = 1e4 * random_density(rng, dim)
    seen = spy_integrator(monkeypatch)
    lindblad_evolve(random_density(rng, dim), h, rates, 1e-12)
    rhs = seen[0][0]
    for _ in range(3):
        rho = random_density(rng, dim)
        ref = dense_rhs(h, rho, _lindblad_ops(rates, cutoff))
        got = rhs(0.0, rho.ravel()).reshape(dim, dim)
        assert np.abs(got - ref).max() / np.abs(ref).max() < 1e-12


def dense_superoperator(rates, cutoff):
    """The dissipators of _lindblad_ops as one matrix on the row-major vec(rho)."""
    eye = np.eye(2 * cutoff)
    return sum(g * (np.kron(L, L.conj()) - 0.5 * (np.kron(LL, eye) + np.kron(eye, LL.T)))
               for g, L, LL in _lindblad_ops(rates, cutoff))


@pytest.mark.parametrize("dt", [1e-12, 1e-11, 1e-10, 1e-9, 1e-8])
@pytest.mark.parametrize("case", sorted(RATE_CASES))
def test_dissipator_step_is_the_exponential_of_the_dense_superoperator(case, dt):
    cutoff = 5
    rates = RATE_CASES[case]
    m = random_density(np.random.default_rng(5), 2 * cutoff)
    rho = m @ m / np.trace(m @ m).real
    got = opensystem._dissipator(cutoff, rates).exp(dt)(rho)
    ref = (expm(dense_superoperator(rates, cutoff) * dt) @ rho.ravel()).reshape(rho.shape)
    assert np.abs(got - ref).max() < 1e-12
    assert abs(np.trace(got) - 1.0) < 1e-14


def test_dissipator_step_takes_rates_far_above_one_over_dt():
    # e^{-gamma dt} underflows: every population decays onto |g, 0>
    cutoff = 3
    rho = np.eye(2 * cutoff, dtype=complex) / (2 * cutoff)
    out = opensystem._dissipator(cutoff, NoiseRates(1e14, 1e14, 0.0, 0.0)).exp(1e-10)(rho)
    expected = np.zeros_like(rho)
    expected[QUBIT_G * cutoff, QUBIT_G * cutoff] = 1.0
    assert np.abs(out - expected).max() < 1e-15


def test_exchange_pulse_matches_dense_rhs(monkeypatch):
    cutoff = 8
    gen = InteractionPictureGenerator(CircuitParams(), cutoff)
    calls = []

    def hamiltonian(t):
        calls.append(t)
        return gen(t, exchange_phase=0.4)

    psi = np.zeros(2 * cutoff, dtype=complex)
    psi[QUBIT_E * cutoff] = psi[QUBIT_G * cutoff + 2] = math.sqrt(0.5)
    rho0 = np.outer(psi, psi.conj())
    seen = spy_integrator(monkeypatch)
    rho = lindblad_evolve(rho0, hamiltonian, NoiseRates(), 2e-9, max_step=1e-11)
    assert len(calls) == seen[0][1].nfev  # one H(t) per RHS evaluation
    ref = dense_evolve(rho0, hamiltonian, NoiseRates(), 2e-9, 1e-11)
    assert np.abs(rho - ref).max() < 1e-9


def test_integration_failure_reports_the_solver_time(monkeypatch):
    def hamiltonian(t):
        return np.full((4, 4), np.nan if t > 1e-12 else 0.0)

    seen = spy_integrator(monkeypatch)
    with pytest.raises(IntegrationError, match="failed at") as err, np.errstate(invalid="ignore"):
        lindblad_evolve(np.eye(4) / 4, hamiltonian, NoiseRates(), 1e-11)
    solver = seen[0][1]
    assert solver.status == "failed"
    assert err.value.t == solver.t
    assert 0.0 < err.value.t <= 1e-12


def test_lindblad_rejects_bad_shapes():
    rates = NoiseRates()
    with pytest.raises(ValueError, match="square"):
        lindblad_evolve(np.eye(4)[:3], np.zeros((4, 4)), rates, 1e-9)
    with pytest.raises(ValueError, match="square"):
        lindblad_evolve(np.ones(4), np.zeros((4, 4)), rates, 1e-9)
    with pytest.raises(ValueError, match="odd"):
        lindblad_evolve(np.eye(5) / 5, np.zeros((5, 5)), rates, 1e-9)
    with pytest.raises(ValueError, match="shape"):
        lindblad_evolve(np.eye(4) / 4, np.zeros((6, 6)), rates, 1e-9)


def kron_lab_hamiltonian(params, d):
    """Direct lab-frame construction at t = 0 (all frame phases equal 1)."""
    a = _single_ladder(d)
    ad = a.conj().T
    x = ad + a
    xm = ad - a
    i2 = np.eye(2, dtype=complex)
    sz = np.diag([1.0, -1.0]).astype(complex)
    sp = np.zeros((2, 2), dtype=complex)
    sp[QUBIT_E, QUBIT_G] = 1.0
    sm = sp.conj().T
    h = -params.g_e4 * np.kron(i2, x @ x @ x)
    h += -params.g_e5 * np.kron(sz, x)
    h += params.g2 * np.kron(sp + sm, x @ x)
    h += -params.g_c * np.kron(sp - sm, xm)
    return h


def test_frame_identity_at_t_zero():
    params = CircuitParams()
    d = 12
    h = InteractionPictureGenerator(params, d)(0.0)
    ref = kron_lab_hamiltonian(params, d)
    scale = np.abs(ref).max()
    assert np.abs(h - ref).max() / scale < 1e-12


def _poly_parts(factors, d):
    """Expand a product of ladder factors [(matrix, frequency), ...] into
    (frequency, matrix) parts grouped by net oscillation frequency."""
    parts = {}
    for combo in product(*factors):
        mat = np.eye(d, dtype=complex)
        freq = 0.0
        for m, f in combo:
            mat = mat @ m
            freq += f
        parts[freq] = parts.get(freq, 0) + mat
    return sorted(parts.items(), key=lambda kv: kv[0])


def term_list_hamiltonian(params, d, t, exchange_phase):
    """H_I(t) summed term by term, each normal-ordered monomial with its own
    e^{i f t} frame phase."""
    a = _single_ladder(d)
    ad = a.conj().T
    i2 = np.eye(2, dtype=complex)
    sz = np.diag([1.0, -1.0]).astype(complex)
    sp = np.zeros((2, 2), dtype=complex)
    sp[QUBIT_E, QUBIT_G] = 1.0
    sm = sp.conj().T
    wq, wo = params.omega_q, params.omega_o
    x = [(ad, wo), (a, -wo)]
    x_minus = [(ad, wo), (-a, -wo)]
    terms = []
    for f, m in _poly_parts([x, x, x], d):
        terms.append((-params.g_e4 * np.kron(i2, m), f))
    for f, m in _poly_parts([x], d):
        terms.append((-params.g_e5 * np.kron(sz, m), f))
    for f, m in _poly_parts([x_minus], d):
        terms.append((-params.g_c * np.kron(sp, m), f + wq))
        terms.append((params.g_c * np.kron(sm, m), f - wq))
    rot = np.exp(1j * exchange_phase)
    for f, m in _poly_parts([x, x], d):
        terms.append((params.g2 * rot * np.kron(sp, m), f + wq))
        terms.append((params.g2 * np.conj(rot) * np.kron(sm, m), f - wq))
    return sum(np.exp(1j * f * t) * m for m, f in terms)


@pytest.mark.parametrize("cutoff", [8, 30])
def test_generator_matches_term_list(cutoff):
    params = CircuitParams()
    gen = InteractionPictureGenerator(params, cutoff)
    rng = np.random.default_rng(cutoff)
    for t, phase in zip(rng.uniform(0, 5e-9, 5), rng.uniform(-math.pi, math.pi, 5)):
        ref = term_list_hamiltonian(params, cutoff, t, phase)
        got = gen(t, exchange_phase=phase)
        assert np.abs(got - ref).max() / np.abs(ref).max() < 1e-12


def test_hamiltonian_hermitian_at_random_times():
    gen = InteractionPictureGenerator(CircuitParams(), 10)
    rng = np.random.default_rng(0)
    for t in rng.uniform(0, 2e-9, 5):
        h = gen(t, exchange_phase=0.3)
        assert np.abs(h - h.conj().T).max() / np.abs(h).max() < 1e-12


def test_resonant_exchange_element_is_static():
    # with omega_q = 2 omega_o the two-photon exchange element
    # <e,0|H|g,2> stays at g2 sqrt(2) for all times
    params = CircuitParams()
    d = 10
    gen = InteractionPictureGenerator(params, d)
    i_e0 = QUBIT_E * d + 0
    i_g2 = QUBIT_G * d + 2
    resonant = params.g2 * math.sqrt(2.0)
    for t in (0.0, 0.13e-9, 0.77e-9, 3.1e-9):
        el = gen(t)[i_e0, i_g2]
        # spurious terms (g_e4, g_e5, g_c, counter-rotating g2) never land
        # on this element; only the static resonant piece contributes
        assert el == pytest.approx(resonant, rel=1e-9)


def test_exchange_only_model_approximates_ideal_swap():
    # switch off every spurious coupling: evolving |e,0> for a quarter swap
    # period under the remaining exchange terms matches the ideal order-2
    # propagator up to small counter-rotating corrections
    params = CircuitParams(g_e4=0.0, g_e5=0.0, g_c=0.0)
    d = 10
    gen = InteractionPictureGenerator(params, d)
    rates = NoiseRates(0.0, 0.0, 0.0, 0.0)
    area = math.pi / 2.0 / math.sqrt(2.0)  # full |e,0> -> |g,2> transfer
    duration = area / params.g2
    rho0 = np.zeros((2 * d, 2 * d), dtype=complex)
    rho0[0, 0] = 1.0  # |e,0>
    rho = lindblad_evolve(rho0, gen, rates, duration, max_step=1e-11)
    p_g2 = rho[d + 2, d + 2].real
    assert p_g2 > 0.999
    sp = make_space([d])
    u = step_propagator(sp, PulseStep("njc", area, osc_index=0, order=2))
    ideal = u @ sp.basis_state(QUBIT_E, 0)
    assert abs(ideal[sp.index(QUBIT_G, 2)]) == pytest.approx(1.0, abs=1e-12)


def test_lindblad_identity_with_no_generator():
    rng = np.random.default_rng(1)
    d = 6
    v = rng.normal(size=2 * d) + 1j * rng.normal(size=2 * d)
    v /= np.linalg.norm(v)
    rho0 = np.outer(v, v.conj())
    rates = NoiseRates(0.0, 0.0, 0.0, 0.0)
    rho = lindblad_evolve(rho0, np.zeros((2 * d, 2 * d)), rates, 1e-6)
    assert np.abs(rho - rho0).max() < 1e-7


def test_qubit_relaxation_rate():
    d = 2
    gamma = 3e5
    rates = NoiseRates(gamma_q_r=gamma, gamma_o_r=0.0, gamma_q_phi=0.0,
                       gamma_o_phi=0.0)
    rho0 = np.zeros((2 * d, 2 * d), dtype=complex)
    rho0[0, 0] = 1.0  # |e,0>
    t = 2e-6
    rho = lindblad_evolve(rho0, np.zeros((2 * d, 2 * d)), rates, t)
    assert rho[0, 0].real == pytest.approx(math.exp(-gamma * t), rel=1e-5)


def test_qubit_dephasing_rate():
    d = 2
    gamma_phi = 2e5
    rates = NoiseRates(gamma_q_r=0.0, gamma_o_r=0.0, gamma_q_phi=gamma_phi,
                       gamma_o_phi=0.0)
    rho0 = np.zeros((2 * d, 2 * d), dtype=complex)
    # (|e,0> + |g,0>)/sqrt(2)
    for i in (0, d):
        for j in (0, d):
            rho0[i, j] = 0.5
    t = 3e-6
    rho = lindblad_evolve(rho0, np.zeros((2 * d, 2 * d)), rates, t)
    assert rho[0, d].real == pytest.approx(0.5 * math.exp(-gamma_phi * t), rel=1e-5)
    assert rho[0, 0].real == pytest.approx(0.5, abs=1e-8)


def test_closed_system_matches_matrix_exponential():
    rng = np.random.default_rng(2)
    d = 5
    m = rng.normal(size=(2 * d, 2 * d)) + 1j * rng.normal(size=(2 * d, 2 * d))
    h = (m + m.conj().T) * 1e6
    v = rng.normal(size=2 * d) + 1j * rng.normal(size=2 * d)
    v /= np.linalg.norm(v)
    rho0 = np.outer(v, v.conj())
    t = 1e-7
    rates = NoiseRates(0.0, 0.0, 0.0, 0.0)
    rho = lindblad_evolve(rho0, h, rates, t, rtol=1e-10, atol=1e-12)
    u = expm(-1j * h * t)
    ref = u @ rho0 @ u.conj().T
    assert np.abs(rho - ref).max() < 1e-7


def test_run_open_protocol_state_quality():
    # an equal-superposition drive under weak noise: trace one, Hermitian,
    # positive, and the populations stay close to the ideal half-half split
    budget = CouplingBudget()
    sched = PulseSchedule(
        steps=[PulseStep("drive", math.pi / 4, 0.0)],
        space=make_space([4]),
        budget=budget,
    )
    d = 6
    rho, fid = run_open_protocol(sched, CircuitParams(), NoiseRates(),
                                 cutoff=d, target=None)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-8)
    assert np.abs(rho - rho.conj().T).max() < 1e-10
    evals = np.linalg.eigvalsh(rho)
    assert evals.min() > -1e-9
    assert rho[0, 0].real == pytest.approx(0.5, abs=1e-3)  # |e,0>
    assert rho[d, d].real == pytest.approx(0.5, abs=1e-3)  # |g,0>


def test_run_open_protocol_rejects_a_target_with_no_support():
    sched = PulseSchedule(steps=[], space=make_space([4]), budget=CouplingBudget())
    with pytest.raises(ValueError, match="no support"):
        run_open_protocol(sched, cutoff=4, target=np.zeros(4))


# criterion 6's order-2 cat schedules: (exchange areas, drive areas),
# applied drive then exchange from |g,0>; (components, truncation level,
# compile-space dimension) of the target
CAT_SCHEDULES = {
    "cat2": ([-0.8510, -0.3937, -0.1915, 0.0938, -0.1656],
             [0.7397, 0.3290, 0.2926, -0.5195, 0.5745], ("2-even", 10, 16)),
    "cat4": ([-0.4704, 0.2539, -0.0237, 0.2099], [1.5708] * 4, ("4-plus-plus", 8, 13)),
}
# their fidelities replayed by RK45 at cutoff 30 with default rates and
# tolerances (lindblad_evolve on H_I(t), max_step 10 ps)
RK45_FIDELITY = {"cat2": 0.9830043473883959, "cat4": 0.9781438855876625}


def cat_schedule(kind, pairs=None):
    exch, drive, (_, _, dim) = CAT_SCHEDULES[kind]
    steps = []
    for g_a, d_a in list(zip(exch, drive))[:pairs]:
        steps += [PulseStep("drive", d_a, 0.0), PulseStep("njc", g_a, 0.0, osc_index=0, order=2)]
    return PulseSchedule(steps=steps, space=make_space([dim]), budget=CouplingBudget())


def cat_target(kind):
    comp, trunc, dim = CAT_SCHEDULES[kind][2]
    return cat_state(make_space([dim]), math.sqrt(2.0), comp, truncate_at=trunc)


def drive_hamiltonian(omega, phase, cutoff):
    sp = np.zeros((2, 2), dtype=complex)
    sp[QUBIT_E, QUBIT_G] = 1.0
    return omega * np.kron(sp * np.exp(1j * phase) + sp.T * np.exp(-1j * phase),
                           np.eye(cutoff))


def rk45_replay(schedule, rates, cutoff, params=CircuitParams(), **kw):
    """The schedule replayed by RK45 in the interaction frame, each pulse
    through lindblad_evolve on H_I(t): the oracle for run_open_protocol."""
    gen = InteractionPictureGenerator(params, cutoff)
    omega = schedule.budget.omega
    rho = np.zeros((2 * cutoff, 2 * cutoff), dtype=complex)
    i0 = schedule.initial[0] * cutoff + schedule.initial[1]
    rho[i0, i0] = 1.0
    for step in schedule.steps:
        phase = step.phase + (math.pi if step.area < 0 else 0.0)
        if step.kind == "drive":
            rho = lindblad_evolve(rho, drive_hamiltonian(omega, phase, cutoff), rates,
                                  abs(step.area) / omega, **kw)
        else:
            h = lambda t, p=phase: gen(t, exchange_phase=p)
            rho = lindblad_evolve(rho, h, rates, abs(step.area) / params.g2,
                                  max_step=1e-11, **kw)
    return rho


def spy_pulses(monkeypatch):
    """Record (h0, duration, step counts) of every _evolve_pulse call."""
    seen = []
    real = opensystem._evolve_pulse

    def spy(rho, h0, v, dissipator, duration, rtol, atol):
        out, steps = real(rho, h0, v, dissipator, duration, rtol, atol)
        seen.append((h0, duration, steps))
        return out, steps

    monkeypatch.setattr(opensystem, "_evolve_pulse", spy)
    return seen


def spy_drives(monkeypatch):
    """Record the duration of every _evolve_drive call."""
    seen = []
    real = opensystem._evolve_drive

    def spy(rho, omega, phase, rates, duration):
        seen.append(duration)
        return real(rho, omega, phase, rates, duration)

    monkeypatch.setattr(opensystem, "_evolve_drive", spy)
    return seen


def forbid_pulses(monkeypatch):
    """Make evolving any pulse, drive or exchange, fail the test."""
    def evolve(*args):
        raise AssertionError("a pulse was evolved")

    monkeypatch.setattr(opensystem, "_evolve_pulse", evolve)
    monkeypatch.setattr(opensystem, "_evolve_drive", evolve)


def drive_schedule(cutoff):
    """Drives only, with phases, a negative area and an excited Fock start."""
    steps = [PulseStep("drive", 1.1, 0.4), PulseStep("drive", -0.6, 1.3),
             PulseStep("drive", 2.9, -0.7)]
    return PulseSchedule(steps=steps, space=make_space([cutoff]), budget=CouplingBudget(),
                         initial=(QUBIT_G, 3))


@pytest.mark.parametrize("case", sorted(RATE_CASES))
def test_drive_only_schedules_match_rk45(monkeypatch, case):
    cutoff = 8
    rates = RATE_CASES[case]
    seen = spy_pulses(monkeypatch)
    rho, _ = run_open_protocol(drive_schedule(cutoff), CircuitParams(), rates, cutoff=cutoff)
    assert seen == []  # no drive goes through the split steps
    ref = rk45_replay(drive_schedule(cutoff), rates, cutoff, rtol=1e-12, atol=1e-14)
    assert np.abs(rho - ref).max() < 1e-9


@pytest.mark.parametrize("case", sorted(RATE_CASES))
def test_drive_keeps_oscillator_coherences_as_rk45_does(case):
    # a random rho has coherences on every Fock diagonal for the closed form
    cutoff = 8
    rates = RATE_CASES[case]
    omega, phase, duration = CouplingBudget().omega, -2.1, 1.3 / CouplingBudget().omega
    rho0 = random_density(np.random.default_rng(3), 2 * cutoff)
    rho = opensystem._evolve_drive(rho0, omega, phase, rates, duration)
    ref = lindblad_evolve(rho0, drive_hamiltonian(omega, phase, cutoff), rates, duration,
                          rtol=1e-12, atol=1e-14)
    assert np.abs(rho - ref).max() < 1e-9


def test_drive_matches_the_split_step_result():
    cutoff = 8
    rates = RATE_CASES["all"]
    omega, phase, duration = CouplingBudget().omega, 0.9, 2.2 / CouplingBudget().omega
    rho0 = random_density(np.random.default_rng(4), 2 * cutoff)
    rho = opensystem._evolve_drive(rho0, omega, phase, rates, duration)
    ref, _ = opensystem._evolve_pulse(rho0, np.zeros(2 * cutoff),
                                      drive_hamiltonian(omega, phase, cutoff),
                                      opensystem._dissipator(cutoff, rates), duration,
                                      1e-10, 1e-12)
    assert np.abs(rho - ref).max() < 1e-11


@pytest.mark.parametrize("case", sorted(RATE_CASES))
def test_split_steps_match_rk45_on_short_pulses(case):
    cutoff = 8
    sched = PulseSchedule(
        steps=[PulseStep("drive", 1.1, 0.4), PulseStep("njc", -0.2, 0.3, osc_index=0, order=2),
               PulseStep("drive", -0.6, 0.0), PulseStep("njc", 0.1, 0.0, osc_index=0, order=2)],
        space=make_space([cutoff]), budget=CouplingBudget())
    rates = RATE_CASES[case]
    rho, _ = run_open_protocol(sched, CircuitParams(), rates, cutoff=cutoff)
    ref = rk45_replay(sched, rates, cutoff, rtol=1e-10, atol=1e-12)
    assert np.abs(rho - ref).max() < 1e-7


@pytest.mark.parametrize("kind", sorted(CAT_SCHEDULES))
def test_split_steps_match_rk45_on_the_first_cat_pulses(kind):
    sched = cat_schedule(kind, pairs=1)
    rho, _ = run_open_protocol(sched, CircuitParams(), NoiseRates(), cutoff=30)
    ref = rk45_replay(sched, NoiseRates(), 30)
    assert np.abs(rho - ref).max() < 1e-6


@pytest.fixture(scope="module")
def cat_replays():
    """Criterion 6's replays at cutoff 30:
    {(kind, tight): (rho, fid, split-step pulses, drive durations)}."""
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        seen = spy_pulses(mp)
        drives = spy_drives(mp)
        for kind, tight in (("cat2", False), ("cat4", False), ("cat4", True)):
            kw = {"rtol": 0.5e-8, "atol": 0.5e-10} if tight else {}
            rho, fid = run_open_protocol(cat_schedule(kind), CircuitParams(), NoiseRates(),
                                         cutoff=30, target=cat_target(kind), **kw)
            out[kind, tight] = rho, fid, list(seen), list(drives)
            seen.clear()
            drives.clear()
    return out


@pytest.mark.parametrize("kind", sorted(CAT_SCHEDULES))
def test_cat_fidelities_match_the_rk45_replay(cat_replays, kind):
    rho, fid, _, _ = cat_replays[kind, False]
    assert fid == pytest.approx(RK45_FIDELITY[kind], abs=1e-6)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.abs(rho - rho.conj().T).max() < 1e-12
    assert np.linalg.eigvalsh(rho).min() > -1e-12


@pytest.mark.parametrize("kind", sorted(CAT_SCHEDULES))
def test_cat_replays_keep_the_trace(cat_replays, kind):
    # the split steps' unitaries are polished, so their rounding does not add up
    rho = cat_replays[kind, False][0]
    assert abs(np.trace(rho).real - 1.0) < 2e-13


# split-step counts and fidelities of the cat replays at default rates and
# tolerances, to guard the step rule and the dissipator step
CAT_SPLIT_STEPS = {
    "cat2": [[217, 434], [101, 202, 404], [49, 98], [24, 48], [43, 86]],
    "cat4": [[120, 240], [65, 130, 260], [7, 14, 28], [54, 108, 216]],
}
SPLIT_STEP_FIDELITY = {"cat2": 0.983004365205, "cat4": 0.978143970163}


@pytest.mark.parametrize("kind", sorted(CAT_SCHEDULES))
def test_cat_split_steps_and_fidelities_are_pinned(cat_replays, kind):
    _, fid, pulses, _ = cat_replays[kind, False]
    assert [steps for _, _, steps in pulses] == CAT_SPLIT_STEPS[kind]
    assert fid == pytest.approx(SPLIT_STEP_FIDELITY[kind], abs=1e-12)


def test_only_exchange_pulses_take_split_steps(cat_replays):
    for kind, (exch, drive, _) in CAT_SCHEDULES.items():
        _, _, pulses, drives = cat_replays[kind, False]
        assert [t for _, t, _ in pulses] == [abs(a) / CircuitParams().g2 for a in exch]
        assert all(h0.any() for h0, _, _ in pulses)
        assert drives == [abs(a) / CouplingBudget().omega for a in drive]


def test_exchange_steps_sample_the_fastest_frame_frequency(cat_replays):
    # V's fastest term, sigma+ a'^2, turns at omega_q + 2 omega_o in the frame
    params = CircuitParams()
    fastest = params.omega_q + 2 * params.omega_o
    exchanges = [(t, steps) for kind in CAT_SCHEDULES
                 for _, t, steps in cat_replays[kind, False][2]]
    assert len(exchanges) == 9
    for duration, steps in exchanges:
        assert steps[0] >= fastest * duration / math.pi
        assert steps == [steps[0] * 2 ** k for k in range(len(steps))]


def test_tighter_tolerance_takes_more_steps(cat_replays):
    def total(key):
        return sum(sum(steps) for _, _, steps in cat_replays[key][2])

    assert total(("cat4", True)) > total(("cat4", False))


def test_non_finite_rho_raises_with_the_time():
    cutoff = 2
    rho = np.full((4, 4), np.nan, dtype=complex)
    gen = InteractionPictureGenerator(CircuitParams(), cutoff)
    with pytest.raises(IntegrationError, match="non-finite") as err:
        opensystem._evolve_pulse(rho, gen.h0, gen(0.0), opensystem._dissipator(cutoff, NoiseRates()),
                                 1e-10, 1e-8, 1e-10)
    assert err.value.t == 1e-10


def test_step_doubling_past_its_cap_raises_with_the_time(monkeypatch):
    # a short exchange pulse starts at 26 steps, so 64 stops it after one doubling
    monkeypatch.setattr(opensystem, "_MAX_STEPS", 64)
    sched = PulseSchedule(steps=[PulseStep("njc", 0.1, 0.0, osc_index=0, order=2)],
                          space=make_space([4]), budget=CouplingBudget())
    with pytest.raises(IntegrationError, match="64 steps") as err:
        run_open_protocol(sched, CircuitParams(), RATE_CASES["all"], cutoff=4,
                          rtol=0.0, atol=0.0)
    assert err.value.t == pytest.approx(0.1 / CircuitParams().g2)


def test_run_open_protocol_target_fidelity_sqrt_convention():
    budget = CouplingBudget()
    sched = PulseSchedule(steps=[], space=make_space([4]), budget=budget)
    vac = np.zeros(4)
    vac[0] = 1.0
    _, fid = run_open_protocol(sched, CircuitParams(),
                               NoiseRates(0.0, 0.0, 0.0, 0.0),
                               cutoff=6, target=vac)
    assert fid == pytest.approx(1.0, abs=1e-9)
    sched2 = PulseSchedule(steps=[PulseStep("drive", math.pi / 4, 0.0)],
                           space=make_space([4]), budget=budget)
    _, fid2 = run_open_protocol(sched2, CircuitParams(),
                                NoiseRates(0.0, 0.0, 0.0, 0.0),
                                cutoff=6, target=vac)
    # sqrt(<g,0| rho |g,0>) = |cos(pi/4)|
    assert fid2 == pytest.approx(math.cos(math.pi / 4), abs=1e-6)


def test_run_open_protocol_accepts_target_zero_padding_past_the_cutoff():
    sched = PulseSchedule(steps=[], space=make_space([4]), budget=CouplingBudget())
    padded = np.zeros(10)
    padded[[0, 5]] = 0.6, 0.8
    _, fid = run_open_protocol(sched, CircuitParams(), NoiseRates(0.0, 0.0, 0.0, 0.0),
                               cutoff=6, target=padded)
    assert fid == pytest.approx(0.6, abs=1e-9)


def test_run_open_protocol_rejects_target_support_at_the_cutoff():
    sched = PulseSchedule(steps=[], space=make_space([4]), budget=CouplingBudget())
    vec = np.zeros(10)
    vec[[0, 6]] = 0.6, 0.8
    with pytest.raises(DimensionError):
        run_open_protocol(sched, CircuitParams(), NoiseRates(0.0, 0.0, 0.0, 0.0),
                          cutoff=6, target=vec)


@pytest.mark.parametrize("cutoff", [1, 0])
def test_run_open_protocol_rejects_a_cutoff_below_two(monkeypatch, cutoff):
    # at cutoff 1 the order-2 exchange has no pair to turn
    forbid_pulses(monkeypatch)
    sched = PulseSchedule(steps=[PulseStep("njc", 0.5, osc_index=0, order=2)],
                          space=make_space([4]), budget=CouplingBudget())
    with pytest.raises(DimensionError, match=f"cutoff must be >= 2, got {cutoff}"):
        run_open_protocol(sched, cutoff=cutoff)


def test_run_open_protocol_checks_the_target_before_any_pulse(monkeypatch):
    forbid_pulses(monkeypatch)
    sched = PulseSchedule(steps=[PulseStep("drive", 0.5)], space=make_space([4]),
                          budget=CouplingBudget())
    with pytest.raises(ValueError, match="no support"):
        run_open_protocol(sched, cutoff=4, target=np.zeros(4))
    vec = np.zeros(10)
    vec[[0, 6]] = 0.6, 0.8
    with pytest.raises(DimensionError):
        run_open_protocol(sched, cutoff=6, target=vec)


def test_run_open_protocol_starts_from_schedule_initial():
    d = 6
    sched = PulseSchedule(steps=[PulseStep("drive", 0.7, 0.3)],
                          space=make_space([d]), budget=CouplingBudget(),
                          initial=(QUBIT_G, 1))
    rho, _ = run_open_protocol(sched, CircuitParams(),
                               NoiseRates(0.0, 0.0, 0.0, 0.0), cutoff=d)
    psi = apply_schedule(sched, sched.space.basis_state(*sched.initial))
    assert np.abs(rho - np.outer(psi, psi.conj())).max() < 1e-7
    with pytest.raises(ValueError, match="cutoff"):
        run_open_protocol(sched, CircuitParams(), NoiseRates(), cutoff=1)


def test_run_open_protocol_rejects_number_selective_drives(monkeypatch):
    # the circuit model drives the qubit alone: a selective drive would be
    # replayed as a plain one, so it fails before any pulse is evolved
    target = TargetState([0.5, 0, 0.5, 0, 0.5, 0, 0.5])
    sched = ftp_schedule(target, 2, budget=CouplingBudget())
    first = next(s.selectivity for s in sched.steps if s.kind == "drive")
    forbid_pulses(monkeypatch)
    with pytest.raises(ValueError, match="number-selective") as err:
        run_open_protocol(sched, cutoff=12, target=target)
    assert str(first) in str(err.value)
    # an exchange step's label is ideal-pair bookkeeping: exact physics ignores it
    monkeypatch.undo()
    labelled = [s for s in sched.steps if s.kind == "njc"][:1]
    plain = [replace(labelled[0], selectivity=None)]
    rho, _ = run_open_protocol(replace(sched, steps=labelled), cutoff=12)
    assert np.array_equal(rho, run_open_protocol(replace(sched, steps=plain), cutoff=12)[0])


def test_run_open_protocol_rejects_unsupported_orders():
    budget = CouplingBudget(omega=TWO_PI * 25e6, g={1: TWO_PI * 100e6})
    sched = PulseSchedule(
        steps=[PulseStep("njc", 0.1, osc_index=0, order=1)],
        space=make_space([4]), budget=budget,
    )
    with pytest.raises(ValueError):
        run_open_protocol(sched, CircuitParams(), NoiseRates(), cutoff=6)


def test_load_params_unit_conversion(tmp_path):
    p = tmp_path / "circuit.cfg"
    p.write_text(
        "# circuit\n"
        "omega_q_ghz = 10\n"
        "omega_o_ghz = 5\n"
        "g2_mhz = 25\n"
        "g_e4_mhz = 10\n"
        "g_c_radps = 188495559.215\n"
    )
    params = load_params(p)
    assert params.omega_q == pytest.approx(TWO_PI * 10e9)
    assert params.g2 == pytest.approx(TWO_PI * 25e6)
    assert params.g_e4 == pytest.approx(TWO_PI * 10e6)
    assert params.g_c == pytest.approx(188495559.215)  # taken as-is
    assert params.g_e5 == pytest.approx(TWO_PI * 20e6)  # default kept


@pytest.mark.parametrize("name", [f.name for f in fields(CircuitParams)])
def test_every_circuit_parameter_changes_the_model(name):
    # a parameter that no part of the model reads would leave both unchanged
    base = CircuitParams()
    bumped = replace(base, **{name: 1.5 * getattr(base, name)})
    before, after = (InteractionPictureGenerator(p, 4) for p in (base, bumped))
    assert not (np.array_equal(before.h0, after.h0)
                and np.array_equal(before(0.0, 0.3), after(0.0, 0.3)))


def test_load_params_rejects_an_unread_coupling(tmp_path):
    # g_e1 is a coupling the model never read; g_2 an old spelling of g2
    p = tmp_path / "circuit.cfg"
    for key in ("g_e1_ghz", "g_2_mhz"):
        p.write_text(f"{key} = 1.08\n")
        with pytest.raises(ValueError, match=f"unknown circuit parameter '{key}'"):
            load_params(p)


def test_load_rates_plain_per_second(tmp_path):
    p = tmp_path / "rates.cfg"
    p.write_text("gamma_q_r_khz = 20\ngamma_q_phi_khz = 110\n")
    rates = load_rates(p)
    # rates are plain 1/s: no 2 pi factor
    assert rates.gamma_q_r == pytest.approx(20e3)
    assert rates.gamma_q_phi == pytest.approx(110e3)
    assert rates.gamma_o_r == pytest.approx(20e3)  # default


def test_config_parse_errors(tmp_path):
    bad1 = tmp_path / "b1.cfg"
    bad1.write_text("omega_q_parsec = 1\n")
    with pytest.raises(ValueError):
        load_params(bad1)
    bad2 = tmp_path / "b2.cfg"
    bad2.write_text("flux_mhz = 3\n")
    with pytest.raises(ValueError):
        load_params(bad2)
    bad3 = tmp_path / "b3.cfg"
    bad3.write_text("omega_q_ghz 10\n")
    with pytest.raises(ValueError):
        load_params(bad3)
    with pytest.raises(ValueError):
        NoiseRates(gamma_q_r=-1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("name", ["gamma_q_r", "gamma_o_r", "gamma_q_phi", "gamma_o_phi"])
def test_noise_rates_must_be_finite_and_non_negative(name, value):
    with pytest.raises(ValueError, match=name):
        NoiseRates(**{name: value})


def test_density_matrix_to_csv():
    rho = np.zeros((3, 3), dtype=complex)
    rho[0, 0] = 0.75
    rho[1, 2] = 0.1 - 0.2j
    text = density_matrix_to_csv(rho)
    lines = text.strip().split("\n")
    assert lines[0] == "row,col,re,im"
    assert "0,0,0.75,0" in lines
    assert "1,2,0.1,-0.2" in lines
    assert len(lines) == 3
