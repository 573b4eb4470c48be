"""End-to-end acceptance checks.

Each test below covers one headline capability of the package and prints a
single PASS line when its assertions hold:

1. Cat-state pulse schedules: the solver reproduces the reference
   two-photon pulse tables, and the reference single-photon schedules
   replay at the quoted fidelities and durations.
2. Symmetric-protocol duration formula over a grid of (K, n) points.
3. Grid-state preparation metrics: quadrature squeezing in dB and the
   fidelity cost of Fock truncation.
4. Punch-card planning: occupation heights, step counts, and the two
   duration estimates for representative sparse and dense targets.
5. Two-oscillator protocols: exact intermediate-state trajectories, step
   counts, and duration estimates for NOON, dense-lattice, and
   entangled-cat targets at first and second order.
6. Open-system simulation of the two-photon cat schedules with default
   hardware parameters and noise rates, plus solver convergence checks.
7. Property suite: unitarity, symmetry preservation, replay round trips,
   master-equation structure preservation, the sideband composition
   identity, revival incommensurability, and planner step bounds.
8. Scaling regimes: where second-order protocols beat first-order ones,
   where a crossover appears, and where fourth order is uncompetitive.
"""

import math
from dataclasses import replace

import numpy as np

from oscsynth.fockspace import QUBIT_G, make_space
from oscsynth.gates import (
    PulseStep,
    conditional_phase_space_gate,
    conditional_squeezing_via_sidebands,
    step_propagator,
    xi,
)
from oscsynth.multiosc import intermediate_states, invert_two_oscillator
from oscsynth.opensystem import (
    CircuitParams,
    NoiseRates,
    lindblad_evolve,
    run_open_protocol,
)
from oscsynth.planner import (
    base_step_count,
    punch_card,
    steps_arbitrary,
    time_ftp,
    time_le,
    time_symmetric,
    two_oscillator_plan,
)
from oscsynth.synthesis import (
    CouplingBudget,
    PulseSchedule,
    invert_symmetric,
    replay_fidelity,
)
from oscsynth.targets import (
    TargetState,
    cat_state,
    effective_squeezing,
    gkp_zero,
    multimode_target,
)

TWO_PI = 2.0 * math.pi
BUDGET = CouplingBudget(
    omega=TWO_PI * 25e6,
    g={1: TWO_PI * 100e6, 2: TWO_PI * 25e6},
)

# Reference pulse tables for cat-state preparation. Each entry is a list of
# (nJC area, qubit drive area) pairs applied as drive-then-exchange, left to
# right, starting from |g, 0>; all phases are zero.
CAT_TABLE = {
    ("cat2", 1): (
        [1.2460, -0.7312, 0.3605, -0.4279, 0.3270,
         -0.1752, 1.0519, 0.9979, 0.7450, 0.4967],
        [1.5708] * 10,
    ),
    ("cat2", 2): (
        [-0.8510, -0.3937, -0.1915, 0.0938, -0.1656],
        [0.7397, 0.3290, 0.2926, -0.5195, 0.5745],
    ),
    ("cat4", 1): (
        [1.3074, 1.5323, -0.4022, 0.3166, 0.8831, -0.0909, 0.5937, 0.5554],
        [1.5708] * 8,
    ),
    ("cat4", 2): (
        [-0.4704, 0.2539, -0.0237, 0.2099],
        [1.5708] * 4,
    ),
}
# components string, compile-space dimension, truncation level
CAT_SETUP = {
    "cat2": ("2-even", 16, 10),
    "cat4": ("4-plus-plus", 13, 8),
}
ALPHA = math.sqrt(2.0)


def literal_cat_schedule(kind, order):
    """Reference schedule for a cat target at the given interaction order."""
    g_areas, d_areas = CAT_TABLE[(kind, order)]
    _, dim, _ = CAT_SETUP[kind]
    steps = []
    for g_a, d_a in zip(g_areas, d_areas):
        steps.append(PulseStep("drive", d_a, 0.0))
        steps.append(PulseStep("njc", g_a, 0.0, osc_index=0, order=order))
    return PulseSchedule(steps=steps, space=make_space([dim]), budget=BUDGET)


def area_magnitudes(schedule, kind):
    return [abs(s.area) for s in schedule.steps if s.kind == kind]


def test_criterion_1_cat_schedules():
    # The solver's second-order schedules must reproduce the reference
    # pulse areas (up to sign and phase canonicalization, hence magnitude
    # comparison) and the quoted durations.
    want_durations = {"cat2": 26.42, "cat4": 46.10}
    for kind in ("cat2", "cat4"):
        comp, dim, trunc = CAT_SETUP[kind]
        target = cat_state(make_space([dim]), ALPHA, comp, truncate_at=trunc)
        sched = invert_symmetric(target, 2, budget=BUDGET)
        g_ref, d_ref = CAT_TABLE[(kind, 2)]
        g_got = area_magnitudes(sched, "njc")
        d_got = area_magnitudes(sched, "drive")
        assert len(g_got) == len(g_ref)
        for got, ref in zip(g_got, g_ref):
            assert abs(got - abs(ref)) < 1e-3
        for got, ref in zip(d_got, d_ref):
            assert abs(got - abs(ref)) < 1e-3
        assert abs(sched.duration * 1e9 - want_durations[kind]) < 0.01

    # The first-order reference schedules replay at the quoted fidelities
    # against the truncated cat target and run for the quoted durations.
    want = {
        "cat2": (110.44, 0.99999884),
        "cat4": (89.04, 0.99999744),
    }
    for kind in ("cat2", "cat4"):
        comp, dim, trunc = CAT_SETUP[kind]
        sched = literal_cat_schedule(kind, 1)
        target = cat_state(make_space([dim]), ALPHA, comp, truncate_at=trunc)
        t_ns, f_ref = want[kind]
        assert abs(sched.duration * 1e9 - t_ns) < 0.01
        assert abs(replay_fidelity(sched, target)) >= f_ref - 5e-9

        # The solver's own first-order schedules do at least as well.
        solved = invert_symmetric(target, 1, budget=BUDGET)
        assert abs(replay_fidelity(solved, target)) >= f_ref - 5e-9
    print("criterion 1 (cat-state schedules): PASS")


def test_criterion_2_symmetric_durations():
    cases = [
        (10, 1, 225.11), (5, 2, 128.35),
        (8, 1, 181.86), (4, 2, 106.24),
        (36, 1, 773.11), (18, 2, 400.80),
        (76, 1, 1600.16), (36, 2, 767.66),
    ]
    for k, n, t_ns in cases:
        got = time_symmetric(k, n, BUDGET) * 1e9
        assert abs(got - t_ns) < 0.01, (k, n, got)
    print("criterion 2 (symmetric duration grid): PASS")


def test_criterion_3_grid_states():
    cases = [
        ((0.15, 1.0, 2), 8.69, 13.38, 36, 0.99930617),
        ((0.15, 1.5, 3), 13.03, 15.17, 76, 0.99939574),
    ]
    for (kappa, r, p), dx_db, dp_db, trunc, f_trunc in cases:
        ref = gkp_zero(make_space([360]), kappa, r, p)
        metrics = effective_squeezing(ref)
        assert abs(metrics.delta_x_db - dx_db) < 0.05
        assert abs(metrics.delta_p_db - dp_db) < 0.05

        # Fidelity cost (amplitude-overlap convention) of truncating the
        # grid state to a finite ladder.
        vec = ref.amplitudes.copy()
        vec[trunc + 1:] = 0.0
        vec /= np.linalg.norm(vec)
        overlap = abs(np.vdot(vec, ref.amplitudes))
        assert abs(overlap - f_trunc) < 1e-4
    print("criterion 3 (grid-state metrics): PASS")


def _level_target(levels, top):
    vec = np.zeros(top + 1, dtype=complex)
    for l in levels:
        vec[l] = 1.0
    return TargetState(vec)


def test_criterion_4_punch_cards():
    # Occupation heights and exact step counts for sparse targets.
    card = punch_card(_level_target([0, 1, 7], 7), 2)
    assert card.heights == (0, 3)
    n_arb, _ = steps_arbitrary(card)
    assert n_arb == base_step_count(2) + 3 == 1 + 3

    card = punch_card(_level_target([0, 5, 12], 12), 3)
    assert card.heights == (4, 0, 1)
    n_arb, _ = steps_arbitrary(card)
    assert n_arb == base_step_count(3) + 5 == 2 + 5

    # Duration estimates for the fixed-transition-path and
    # level-exhaustive strategies.
    sparse = punch_card(_level_target([0, 2, 9], 9), 2)
    assert sparse.heights == (1, 4)
    assert abs(time_ftp(sparse, BUDGET) * 1e9 - 180.76) < 0.01
    assert abs(time_le(9, BUDGET) * 1e9 - 200.11) < 0.01

    dense = punch_card(_level_target(list(range(11)), 10), 2)
    assert dense.heights == (5, 4)
    assert abs(time_ftp(dense, BUDGET) * 1e9 - 274.96) < 0.01
    assert abs(time_le(10, BUDGET) * 1e9 - 221.61) < 0.01
    print("criterion 4 (punch-card planning): PASS")


# Reference two-oscillator trajectories for the NOON(2) target: the state
# after every (drive, exchange) pair, as {(qubit, l1, l2): amplitude}.
R2 = 1.0 / math.sqrt(2.0)
NOON_TRAJECTORY = {
    (1, 1): [
        {("g", 0, 0): 1.0},
        {("g", 0, 0): R2, ("g", 1, 0): -R2},
        {("g", 0, 0): R2, ("g", 2, 0): R2},
        {("g", 2, 0): R2, ("g", 0, 1): -R2},
        {("g", 2, 0): R2, ("g", 0, 2): R2},
    ],
    (2, 2): [
        {("g", 0, 0): 1.0},
        {("g", 0, 0): R2, ("g", 2, 0): -R2},
        {("g", 2, 0): -R2, ("g", 0, 2): -R2},
    ],
}


def _ket(space, entries):
    v = np.zeros(space.dim, dtype=complex)
    for (q, l1, l2), amp in entries.items():
        v[space.index({"e": 0, "g": 1}[q], l1, l2)] = amp
    return v


def test_criterion_5_two_oscillator():
    # NOON trajectories pass through the reference intermediate kets at
    # both orders, signs included.
    for orders, trajectory in NOON_TRAJECTORY.items():
        target = multimode_target(make_space([4, 4]), "noon", N=2)
        sched = invert_two_oscillator(target, orders, budget=BUDGET)
        states = intermediate_states(sched)
        after_pairs = states[::2]
        assert len(after_pairs) == len(trajectory)
        for got, want in zip(after_pairs, trajectory):
            assert np.linalg.norm(got - _ket(sched.space, want)) < 1e-9

    # Step counts and duration estimates from the two-oscillator planner.
    def build(name, orders):
        if name == "noon":
            return multimode_target(make_space([4, 4]), "noon", N=2)
        if name == "dense":
            return multimode_target(make_space([6, 6]), "dense", L1=4, L2=4)
        return multimode_target(make_space([13, 13]), "bell_cat",
                                alpha1=ALPHA, alpha2=ALPHA, truncate_at=10)

    cases = [
        ("noon", (1, 1), 4, 97.07e-9, 0.01e-9),
        ("noon", (2, 2), 2, 68.28e-9, 0.01e-9),
        ("dense", (1, 1), 24, 563.53e-9, 0.01e-9),
        ("dense", (2, 2), 24, 691.56e-9, 0.01e-9),
        ("bell", (1, 1), 115, 2.59e-6, 0.01e-6),
        ("bell", (2, 2), 61, 1.54e-6, 0.01e-6),
    ]
    for name, orders, want_steps, t_s, tol in cases:
        target = build(name, orders)
        steps, duration = two_oscillator_plan(target, orders, BUDGET)
        assert steps == want_steps, (name, orders, steps)
        assert abs(duration - t_s) < tol, (name, orders, duration)

    # Lattice-symmetric targets also compile to exact schedules with two
    # pulses per planner step.
    for orders in ((1, 1), (2, 2)):
        target = multimode_target(make_space([4, 4]), "noon", N=2)
        sched = invert_two_oscillator(target, orders, budget=BUDGET)
        steps, _ = two_oscillator_plan(target, orders, BUDGET)
        assert len(sched.steps) == 2 * steps
        assert abs(replay_fidelity(sched, target)) > 1.0 - 1e-9
    print("criterion 5 (two-oscillator protocols): PASS")


def test_criterion_6_open_system():
    want = {"cat2": 0.97972653, "cat4": 0.98222399}
    fids = {}
    for kind in ("cat2", "cat4"):
        comp, _, trunc = CAT_SETUP[kind]
        sched = literal_cat_schedule(kind, 2)
        target = cat_state(sched.space, ALPHA, comp, truncate_at=trunc)
        _, fid = run_open_protocol(sched, CircuitParams(), NoiseRates(),
                                   cutoff=30, target=target)
        assert abs(fid - want[kind]) < 0.005, (kind, fid)
        fids[kind] = fid

    # Convergence: tightening the integrator tolerances or enlarging the
    # Fock cutoff must not move the answer appreciably.
    comp, _, trunc = CAT_SETUP["cat4"]
    sched = literal_cat_schedule("cat4", 2)
    target = cat_state(sched.space, ALPHA, comp, truncate_at=trunc)
    _, fid_tight = run_open_protocol(sched, CircuitParams(), NoiseRates(),
                                     cutoff=30, target=target,
                                     rtol=0.5e-8, atol=0.5e-10)
    assert abs(fid_tight - fids["cat4"]) < 1e-4
    _, fid_big = run_open_protocol(sched, CircuitParams(), NoiseRates(),
                                   cutoff=40, target=target)
    assert abs(fid_big - fids["cat4"]) < 1e-3
    print("criterion 6 (open-system cat fidelities): PASS")


def test_criterion_7_property_suite():
    rng = np.random.default_rng(20260826)
    space = make_space([12])

    # Unitarity of every pulse primitive.
    eye = np.eye(space.dim)
    for _ in range(25):
        area = rng.uniform(-3, 3)
        phase = rng.uniform(-math.pi, math.pi)
        order = int(rng.integers(1, 4))
        njc = PulseStep("njc", area, phase, osc_index=0, order=order)
        for u in (
            step_propagator(space, PulseStep("drive", area, phase)),
            step_propagator(space, njc),
            step_propagator(space, replace(njc, selectivity=(int(rng.integers(0, 6)),)),
                            "ideal-pair"),
        ):
            assert np.max(np.abs(u.conj().T @ u - eye)) < 1e-10

    # Symmetry preservation: every intermediate state of a symmetric
    # inversion stays supported on levels congruent to the offset.
    n = 2
    vec = np.zeros(11, dtype=complex)
    vec[0:8:n] = rng.normal(size=4) + 1j * rng.normal(size=4)
    target = TargetState(vec, symmetry_order=n, symmetry_offset=0)
    sched = invert_symmetric(target, n, budget=BUDGET)
    state = sched.space.basis_state(QUBIT_G, 0)
    d = sched.space.dim // 2
    for step in sched.steps:
        state = step_propagator(sched.space, step) @ state
        occupied = np.nonzero(np.abs(state) > 1e-12)[0]
        assert all((idx % d) % n == 0 for idx in occupied)

    # Replay round trip: the schedule reproduces its target exactly.
    assert abs(replay_fidelity(sched, target)) > 1.0 - 1e-9

    # Master-equation structure preservation: trace, Hermiticity, and
    # positivity survive evolution under a random Hamiltonian with the
    # default noise rates.
    cutoff = 4
    dim = 2 * cutoff
    h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = 1e7 * (h + h.conj().T)
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    rho0 = np.outer(psi, psi.conj())
    rho0 /= np.trace(rho0).real
    rho = lindblad_evolve(rho0, h, NoiseRates(), 1e-7)
    assert abs(np.trace(rho).real - 1.0) < 1e-8
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-10
    assert np.linalg.eigvalsh(rho).min() > -1e-9

    # Sideband composition approximates the conditional phase-space gate,
    # with error quadratic in the pulse area, on the low-photon subspace.
    big = make_space([20])
    pulse_area = 1e-4
    u_comp = conditional_squeezing_via_sidebands(big, 2, pulse_area)
    u_cond = conditional_phase_space_gate(big, 2, 1j * pulse_area)
    keep = np.r_[np.arange(0, 10), np.arange(20, 30)]
    diff = np.abs(u_comp[np.ix_(keep, keep)] + u_cond[np.ix_(keep, keep)]).max()
    assert diff < 1e-6

    # Incommensurate pair rates: no single evolution time simultaneously
    # completes exchange swaps at two enhancement rates with irrational
    # ratio (a complete swap needs cos(rate * t) = 0).
    rates = np.array([xi(2, 2), xi(3, 2)])
    t = np.linspace(0.0, 10.0, 100000)
    residual = np.min(np.max(np.abs(np.cos(np.outer(t, rates))), axis=1))
    assert residual > 0.05

    # Planner bound: the sparse step count never exceeds the dense bound.
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        top = int(rng.integers(1, 15))
        levels = sorted(set([0] + list(int(l) for l in
                                       rng.integers(0, top + 1, size=4))))
        card = punch_card(_level_target(levels, max(levels)), n)
        n_arb, k_arb = steps_arbitrary(card)
        assert n_arb <= k_arb
    print("criterion 7 (property suite): PASS")


def test_criterion_8_scaling_regimes():
    # With the default coupling budget the two-photon protocol is faster
    # than the single-photon protocol at every matched step count.
    for k in range(2, 80, 2):
        assert time_symmetric(k // 2, 2, BUDGET) < time_symmetric(k, 1, BUDGET)

    # With a faster qubit drive the ordering flips at small step counts
    # and flips back at large ones.
    fast = CouplingBudget(omega=TWO_PI * 200e6,
                          g={1: TWO_PI * 100e6, 2: TWO_PI * 25e6,
                             4: TWO_PI * 0.5e6, 3: TWO_PI * 5e6})
    diffs = [time_symmetric(k // 2, 2, fast) - time_symmetric(k, 1, fast)
             for k in range(2, 200, 2)]
    assert diffs[0] > 0.0
    assert diffs[-1] < 0.0

    # Fourth-order coupling at realistic strengths is slower than the
    # single-photon protocol over the plotted step range, and at the weaker
    # plotted coupling it is more than ten times slower for small counts.
    for k in range(1, 21):
        assert time_symmetric(k, 4, fast) > time_symmetric(4 * k, 1, fast)
    weak = CouplingBudget(omega=TWO_PI * 200e6,
                          g={1: TWO_PI * 100e6, 4: TWO_PI * 0.25e6})
    ratios = [time_symmetric(k, 4, weak) / time_symmetric(4 * k, 1, weak)
              for k in range(1, 31)]
    assert max(ratios) > 10.0
    print("criterion 8 (scaling regimes): PASS")
