"""Tests for pulse primitives: drives, exchange pulses, dispersive selectivity."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from oscsynth.fockspace import (QUBIT_E, QUBIT_G, DimensionError, _single_ladder, fidelity,
                                make_space)
from oscsynth.gates import (
    DispersiveModel,
    PulseStep,
    RotationPlan,
    apply_step,
    conditional_phase_space_gate,
    conditional_squeezing_via_sidebands,
    drive_propagator,
    pair_table,
    rotate,
    selective_drive_frequency,
    shift_coefficient,
    step_pairs,
    step_propagator,
    stirling_first,
    xi,
)
from oscsynth.multiosc import ftp_two_oscillator
from oscsynth.synthesis import PulseSchedule, apply_schedule
from oscsynth.targets import TargetState

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
    u = step_propagator(sp, PulseStep("njc", area, phase, osc_index=0, order=n))
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
    u = step_propagator(sp, PulseStep("njc", area, phase, osc_index=0, order=n))
    assert np.allclose(u @ u.conj().T, np.eye(sp.dim), atol=1e-12)


def test_njc_ideal_pair_acts_on_one_pair_only():
    sp = make_space([12])
    u = step_propagator(sp, PulseStep("njc", 0.3, osc_index=0, order=2, selectivity=(1,)),
                        "ideal-pair")
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
    u = step_propagator(sp, PulseStep("drive", 0.5, 0.1, selectivity=(2,)))
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
    u = step_propagator(sp, PulseStep("drive", math.pi / 2, selectivity=(1, 2)))
    v = u @ sp.basis_state(QUBIT_G, 1, 2)
    assert abs(v[sp.index(QUBIT_E, 1, 2)]) == pytest.approx(1.0)
    w = u @ sp.basis_state(QUBIT_G, 1, 3)
    assert w[sp.index(QUBIT_G, 1, 3)] == pytest.approx(1.0)
    for label in ((1,), (1, 9)):
        with pytest.raises(DimensionError):
            step_propagator(sp, PulseStep("drive", 0.1, selectivity=label))


def test_pulse_step_validation():
    with pytest.raises(ValueError):
        PulseStep(kind="laser", area=0.1)
    with pytest.raises(ValueError):
        PulseStep(kind="njc", area=0.1)  # missing order/osc_index
    with pytest.raises(ValueError):
        PulseStep(kind="drive", area=float("nan"))
    s = PulseStep(kind="drive", area=0.1, phase=3 * math.pi)
    assert s.phase == pytest.approx(math.pi)
    s = PulseStep(kind="njc", area=0.1, osc_index=0, order=2, selectivity=[np.int64(3)])
    assert s.selectivity == (3,) and type(s.selectivity[0]) is int
    for extra in (dict(osc_index=0), dict(order=2)):
        with pytest.raises(ValueError, match="drive steps take no order or oscillator index"):
            PulseStep(kind="drive", area=0.1, **extra)


KERNEL_SPACES = [(4,), (9,), (40,), (8, 8), (5, 7)]


def _random_state(rng, dim):
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


def _kernel_cases(sp, rng):
    """(step, semantics) for every step form on sp: plain and selective
    drives, exact njc at orders 1-4, and njc with a joint pair level under
    both semantics, each at a positive and a negative area."""
    cases = []
    for area in (0.37, -1.21):
        phase = float(rng.uniform(-math.pi, math.pi))
        sel = tuple(int(rng.integers(0, d)) for d in sp.osc_cutoffs)
        cases.append((PulseStep("drive", area, phase), "exact"))
        cases.append((PulseStep("drive", area, phase, selectivity=sel), "exact"))
        for osc, d in enumerate(sp.osc_cutoffs):
            for n in range(1, min(4, d - 1) + 1):
                step = PulseStep("njc", area, phase, osc_index=osc, order=n)
                joint = sel[:osc] + (int(rng.integers(0, d - n)),) + sel[osc + 1:]
                cases.append((step, "exact"))
                cases.append((replace(step, selectivity=joint), "ideal-pair"))
                cases.append((replace(step, selectivity=joint), "exact"))
    return cases


def _generator(sp, step, semantics):
    """The step's Hamiltonian e^{i phase} sigma+ (x) a^n + h.c. (a^0 = 1 for
    a drive), projected onto the label of a drive and onto the one pair of
    a labelled njc step under ideal-pair semantics."""
    osc, n = (0, 0) if step.kind == "drive" else (step.osc_index, step.order)
    sigma_plus = np.kron([[0, 1], [0, 0]], np.eye(sp.osc_dim))  # |e><g|
    an = np.eye(2)  # a^n on oscillator osc, identity on the qubit and the other modes
    for i, d in enumerate(sp.osc_cutoffs):
        an = np.kron(an, np.linalg.matrix_power(_single_ladder(d), n if i == osc else 0))
    h = np.exp(1j * step.phase) * sigma_plus @ an
    h = h + h.conj().T
    label = step.selectivity
    if label is None or (step.kind == "njc" and semantics == "exact"):
        return h
    top = list(label)
    top[osc] += n
    keep = [sp.index(QUBIT_E, *label), sp.index(QUBIT_G, *top)]
    proj = np.zeros(sp.dim)
    proj[keep] = 1.0
    return proj[:, None] * h * proj[None, :]


@pytest.mark.parametrize("cutoffs", [(9,), (5, 6)], ids=str)
@pytest.mark.parametrize("semantics", ["exact", "ideal-pair"])
def test_step_propagator_matches_hamiltonian_exponential(cutoffs, semantics):
    sp = make_space(cutoffs)
    rng = np.random.default_rng(3 * sum(cutoffs))
    forms = set()
    for step, _ in _kernel_cases(sp, rng):
        if step.kind == "njc" and step.order > 3:
            continue
        forms.add((step.kind, step.order, step.selectivity is not None, step.area > 0))
        ref = expm(-1j * step.area * _generator(sp, step, semantics))
        assert np.abs(step_propagator(sp, step, semantics) - ref).max() < 1e-12, step
    # plain and labelled drives and njc steps at orders 1-3, areas of both signs
    assert len(forms) == 2 * (2 + 2 * 3)


@pytest.mark.parametrize("cutoffs", KERNEL_SPACES, ids=str)
def test_kernel_matches_dense_oracle(cutoffs):
    sp = make_space(cutoffs)
    rng = np.random.default_rng(sum(cutoffs))
    for step, semantics in _kernel_cases(sp, rng):
        u = step_propagator(sp, step, semantics=semantics)
        psi = _random_state(rng, sp.dim)
        out = apply_step(sp, step, psi, semantics)
        assert np.abs(out - u @ psi).max() < 1e-12, (step, semantics)
        # the same rotation with its area negated is the inverse
        back = apply_step(sp, replace(step, area=-step.area), out, semantics)
        assert np.abs(back - u.conj().T @ out).max() < 1e-12
        assert np.abs(back - psi).max() < 1e-12


@pytest.mark.parametrize("cutoffs", KERNEL_SPACES, ids=str)
@pytest.mark.parametrize("semantics", ["exact", "ideal-pair"])
def test_schedule_replay_matches_dense_product(cutoffs, semantics):
    sp = make_space(cutoffs)
    rng = np.random.default_rng(7 * sum(cutoffs))
    steps = [step for step, _ in _kernel_cases(sp, rng)]
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


@pytest.mark.parametrize("cutoffs", [(9,), (5, 7), (3, 4, 3)], ids=str)
def test_one_pair_steps_match_the_dense_oracle(cutoffs):
    # labelled drives and ideal-pair labelled njc steps turn one pair in
    # scalar arithmetic: rotate, apply and jacobian's psi alike
    sp = make_space(cutoffs)
    rng = np.random.default_rng(5 * sum(cutoffs))
    cases = []
    for area in (0.61, -1.37):
        phase = float(rng.uniform(-math.pi, math.pi))
        sel = tuple(int(rng.integers(0, d)) for d in cutoffs)
        cases.append(PulseStep("drive", area, phase, selectivity=sel))
        for osc, d in enumerate(cutoffs):
            for n in range(1, d):
                label = sel[:osc] + (int(rng.integers(0, d - n)),) + sel[osc + 1:]
                cases.append(PulseStep("njc", area, phase, osc_index=osc, order=n,
                                       selectivity=label))
    for step in cases:
        eg, weights = step_pairs(sp, step, "ideal-pair")
        assert eg.shape == (2, 1) and weights.shape == (1,)
        psi = _random_state(rng, sp.dim)
        ref = step_propagator(sp, step, "ideal-pair") @ psi
        plan = RotationPlan(sp, [step], "ideal-pair")
        for out in (rotate(psi.copy(), eg, weights, step.area, step.phase),
                    plan.apply(psi.copy(), [step.area], [step.phase]),
                    plan.jacobian(psi, [step.area], [step.phase])[0]):
            assert np.abs(out - ref).max() < 1e-14, step


def test_a_label_names_its_pair_table_column():
    sp = make_space([4, 5])
    for osc, n in [(0, 0), (0, 1), (1, 1), (0, 2), (1, 2)]:
        eg, weights = pair_table(sp, osc, n)
        for label in np.ndindex(*sp.osc_cutoffs):
            if n == 0:
                step = PulseStep("drive", 0.3, selectivity=label)
            else:
                step = PulseStep("njc", 0.3, osc_index=osc, order=n, selectivity=label)
            if label[osc] >= sp.osc_cutoffs[osc] - n:  # |g, label + n> is past the cutoff
                with pytest.raises(DimensionError):
                    step_pairs(sp, step, "ideal-pair")
                continue
            top = list(label)
            top[osc] += n
            col = np.flatnonzero(eg[0] == sp.index(QUBIT_E, *label))
            assert len(col) == 1 and eg[1, col[0]] == sp.index(QUBIT_G, *top)
            pair, weight = step_pairs(sp, step, "ideal-pair")
            assert np.array_equal(pair, eg[:, col]) and np.array_equal(weight, weights[col])
            assert np.shares_memory(pair, eg) and weight[0] == xi(top[osc], n)


def _gradient_case(case, rng):
    """(plan, initial, target, areas, phases) away from any optimum."""
    if case == "two-oscillator":
        amps = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        sched = ftp_two_oscillator(TargetState(amps), (2, 1))
        initial = sched.space.basis_state(*sched.initial)
        target = apply_schedule(sched, initial)  # the compiled target, exactly
        areas = np.array([s.area for s in sched.steps])
        areas += rng.normal(scale=0.3, size=len(areas))
        return (RotationPlan(sched.space, sched.steps, "exact"), initial, target, areas,
                np.array([s.phase for s in sched.steps]))
    sp = make_space([9] if case != "joint" else [5, 7])
    cases = _kernel_cases(sp, rng)
    semantics = "exact" if case == "exact" else "ideal-pair"
    steps = [step for step, _ in cases]
    # selective drives and every njc order, at areas of both signs
    areas = np.array([s.area for s in steps]) * rng.uniform(0.5, 1.5, len(steps))
    assert (areas < 0).any() and any(s.selectivity for s in steps)
    return (RotationPlan(sp, steps, semantics), _random_state(rng, sp.dim),
            _random_state(rng, sp.dim), areas, rng.uniform(-math.pi, math.pi, len(steps)))


@pytest.mark.parametrize("case", ["exact", "ideal-pair", "joint", "two-oscillator"])
def test_jacobian_matches_central_differences(case):
    plan, initial, _, areas, phases = _gradient_case(case, np.random.default_rng(11))
    psi, jac = plan.jacobian(initial, areas, phases)
    assert np.array_equal(psi, plan.apply(initial.copy(), areas, phases))
    p = len(areas)
    assert jac.shape == (len(initial), 2 * p)
    h = 1e-6
    for j, e in enumerate(np.eye(2 * p) * h):
        fd = (plan.apply(initial.copy(), areas + e[:p], phases + e[p:])
              - plan.apply(initial.copy(), areas - e[:p], phases - e[p:])) / (2 * h)
        assert np.abs(jac[:, j] - fd).max() <= 1e-7 * np.abs(fd).max(), j


@pytest.mark.parametrize("case", ["exact", "ideal-pair", "joint", "two-oscillator"])
def test_jacobian_gives_the_infidelity_gradient(case):
    # d(1 - |z|) = Re(-conj(z) / |z| * target^H J) for z = <target|psi>
    plan, initial, target, areas, phases = _gradient_case(case, np.random.default_rng(11))
    psi, jac = plan.jacobian(initial, areas, phases)
    z = np.vdot(target, psi)
    assert 0.0 < abs(z) < 1.0
    grad = (-z.conjugate() / abs(z) * (target.conj() @ jac)).real

    def infidelity(a, p):
        return 1.0 - fidelity(plan.apply(initial.copy(), a, p), target)

    h = 1e-6
    p = len(areas)
    fd = np.array([(infidelity(areas + e[:p], phases + e[p:])
                    - infidelity(areas - e[:p], phases - e[p:])) / (2 * h)
                   for e in np.eye(2 * p) * h])
    assert np.abs(grad - fd).max() <= 1e-7 * np.abs(fd).max()


def test_jacobian_of_an_empty_plan_is_the_initial_state():
    sp = make_space([4])
    initial = sp.basis_state(QUBIT_G, 2)
    psi, jac = RotationPlan(sp, []).jacobian(initial, [], [])
    assert np.array_equal(psi, initial) and jac.shape == (sp.dim, 0)
    with pytest.raises(DimensionError):
        RotationPlan(sp, []).jacobian(np.append(initial, 0.0), [], [])


@pytest.mark.parametrize("step, level", [
    (PulseStep("njc", 0.1, osc_index=0, order=6), None),  # order at the cutoff
    (PulseStep("njc", 0.1, osc_index=0, order=2), 4),  # pair above the cutoff
    (PulseStep("njc", 0.1, osc_index=0, order=2), -1),
    (PulseStep("njc", 0.1, osc_index=1, order=2, selectivity=(1, 5)), None),
    (PulseStep("njc", 0.1, osc_index=1, order=2, selectivity=(1,)), None),
    (PulseStep("drive", 0.1, selectivity=(1, 9)), None),
    (PulseStep("drive", 0.1, selectivity=(1,)), None),
])
def test_kernel_rejects_what_the_oracle_rejects(step, level):
    # level, when given, is the one-oscillator step's joint pair level (level,)
    if level is not None:
        step = replace(step, selectivity=(level,))
    sp = make_space([6, 7]) if step.osc_index == 1 or step.kind == "drive" else make_space([6])
    psi = np.ones(sp.dim, dtype=complex)
    with pytest.raises(DimensionError):
        step_propagator(sp, step, semantics="ideal-pair")
    with pytest.raises(DimensionError):
        apply_step(sp, step, psi, "ideal-pair")


@pytest.mark.parametrize("step", [
    PulseStep("drive", 0.1),
    PulseStep("drive", 0.1, selectivity=(1,)),
    PulseStep("njc", 0.1, osc_index=0, order=2),
    PulseStep("njc", 0.1, osc_index=0, order=2, selectivity=(1,)),
], ids=["drive", "selective drive", "njc", "labelled njc"])
def test_oracle_and_kernel_reject_an_unknown_semantics_name(step):
    sp = make_space([6])
    with pytest.raises(ValueError, match="unknown semantics 'exaxt'"):
        step_propagator(sp, step, "exaxt")
    with pytest.raises(ValueError, match="unknown semantics 'exaxt'"):
        apply_step(sp, step, np.ones(sp.dim, dtype=complex), "exaxt")


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
    with pytest.warns(UserWarning, match="outside the dispersive regime"):
        assert m2.chi == pytest.approx(TWO_PI * 25e6 / (TWO_PI * 0.2e9))
    with pytest.raises(ZeroDivisionError):
        DispersiveModel(order=2, omega_q=2.0, omega_o=1.0, g=0.1).chi
    bad = DispersiveModel(order=2, omega_q=2.0, omega_o=0.9, g=0.1)
    with pytest.warns(UserWarning, match="outside the dispersive regime"):
        bad.chi


def test_selective_drive_frequency_single_and_joint():
    m = DispersiveModel(order=1, omega_q=TWO_PI * 10e9, omega_o=TWO_PI * 5e9,
                        g=TWO_PI * 30e6)
    f3 = selective_drive_frequency([m], [3])
    assert f3 == pytest.approx(m.omega_q + m.chi * (1 + 2 * 3))
    m2 = DispersiveModel(order=2, omega_q=TWO_PI * 10e9, omega_o=TWO_PI * 4.9e9,
                         g=TWO_PI * 25e6)
    shift2 = sum(shift_coefficient(2, k) * 1**k for k in range(3))
    with pytest.warns(UserWarning, match="outside the dispersive regime"):
        fj = selective_drive_frequency([m, m2], [3, 1])
    with pytest.warns(UserWarning, match="outside the dispersive regime"):
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
