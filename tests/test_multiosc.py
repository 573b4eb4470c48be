"""Tests for the two-oscillator compiler and its staging invariants."""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscsynth.fockspace import QUBIT_G, coherent_vector, make_space
from oscsynth.gates import DispersiveModel, selective_drive_frequency
from oscsynth.multiosc import (
    annotate_frequencies,
    ftp_two_oscillator,
    intermediate_states,
    invert_two_oscillator,
)
from oscsynth.planner import multi_punch_card, two_oscillator_plan
from oscsynth.synthesis import (CouplingBudget, ftp_schedule, replay_fidelity, schedule_from_json,
                                schedule_to_json)
from oscsynth.targets import TargetState, multimode_target

TWO_PI = 2 * math.pi


def random_two_osc_target(rng, L1, L2):
    amps = rng.normal(size=(L1 + 1, L2 + 1)) + 1j * rng.normal(size=(L1 + 1, L2 + 1))
    amps[L1, L2] += 1.0
    return TargetState(amps)


def test_noon_state_round_trip():
    sp = make_space([8, 8])
    target = multimode_target(sp, "noon", N=2)
    sched = invert_two_oscillator(target, (2, 2))
    assert sched.fidelity == pytest.approx(1.0, abs=1e-9)
    # one kill (drive + swap) per occupied non-origin lattice site
    assert len(sched.steps) == 4


def test_lattice_violation_rejected():
    amps = np.zeros((6, 6))
    amps[0, 0] = amps[3, 2] = 1.0
    with pytest.raises(ValueError):
        invert_two_oscillator(TargetState(amps), (2, 2))


def test_bell_cat_round_trip():
    sp = make_space([12, 12])
    target = multimode_target(sp, "bell_cat", alpha1=1.2, alpha2=1.2, truncate_at=6)
    sched = ftp_two_oscillator(target, (1, 1))
    assert sched.fidelity == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=12, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=0, max_value=10**6),
)
def test_random_targets_replay_exactly(L1, L2, n1, n2, seed):
    rng = np.random.default_rng(seed)
    target = random_two_osc_target(rng, L1, L2)
    sched = ftp_two_oscillator(target, (n1, n2))
    assert replay_fidelity(sched, target, semantics="ideal-pair") == pytest.approx(
        1.0, abs=1e-8
    )


def test_step_count_matches_planner():
    sp = make_space([8, 8])
    target = multimode_target(sp, "dense", L1=2, L2=2)
    sched = ftp_two_oscillator(target, (2, 2))
    steps, _ = two_oscillator_plan(target, (2, 2), CouplingBudget())
    # each planner step is one (selective drive, swap) pulse pair
    assert len(sched.steps) == 2 * steps
    card = multi_punch_card(target, (2, 2))
    assert steps == card.total_steps


BUDGET_123 = CouplingBudget(g={1: TWO_PI * 100e6, 2: TWO_PI * 25e6, 3: TWO_PI * 10e6})


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=12),
)
def test_planner_counts_the_compiled_kills(n1, n2, support):
    amps = np.zeros((7, 7), dtype=complex)
    for l1, l2 in support:
        amps[l1, l2] = 1.0 + 0.3 * l1 + 0.7j * l2
    target = TargetState(amps)
    sched = ftp_two_oscillator(target, (n1, n2), budget=BUDGET_123)
    steps, t = two_oscillator_plan(target, (n1, n2), BUDGET_123)
    assert steps == sum(s.kind == "njc" for s in sched.steps)
    assert multi_punch_card(target, (n1, n2)).total_steps == steps
    # the plan charges a full pi-pulse where a kill takes at most pi/2
    assert t >= sched.duration


@pytest.mark.parametrize("name, orders, pairs", [
    ("noon3", (2, 2), 4), ("noon3", (1, 2), 5), ("noon3", (2, 1), 5),
    ("noon5", (2, 2), 6), ("noon5", (1, 2), 8), ("noon5", (2, 1), 8),
    ("bell", (1, 2), 70), ("bell", (2, 1), 115),
])
def test_planner_count_pins(name, orders, pairs):
    # the climbs fill base levels the target leaves empty (odd NOON at
    # (2, 2)), and the planner counts those kills too
    if name == "bell":
        target = multimode_target(make_space([13, 13]), "bell_cat", alpha1=math.sqrt(2.0),
                                  alpha2=math.sqrt(2.0), truncate_at=10)
    else:
        target = multimode_target(make_space([8, 8]), "noon", N=int(name[4:]))
    steps, _ = two_oscillator_plan(target, orders, CouplingBudget())
    sched = ftp_two_oscillator(target, orders)
    assert steps == len(sched.steps) // 2 == pairs


def test_forward_replay_builds_oscillator_one_first():
    # for a lattice-symmetric target the second oscillator must stay in its
    # base column until every oscillator-1 level is populated
    sp = make_space([8, 8])
    amps = np.zeros((6, 6))
    amps[0, 0] = amps[2, 0] = amps[4, 0] = 1.0
    amps[0, 2] = amps[2, 2] = 0.7
    target = TargetState(amps)
    sched = invert_two_oscillator(target, (2, 2))
    states = intermediate_states(sched)
    space = sched.space
    d1, d2 = space.osc_cutoffs

    def osc2_weight_above_base(state):
        w = 0.0
        for q in (0, 1):
            for l1 in range(d1):
                for l2 in range(2, d2):
                    w += abs(state[space.index(q, l1, l2)]) ** 2
        return w

    weights = [osc2_weight_above_base(s) for s in states]
    # once oscillator 2 leaves the base column it never returns
    first = next(i for i, w in enumerate(weights) if w > 1e-9)
    assert all(w < 1e-9 for w in weights[:first])
    # and every oscillator-1 kill happens before that point
    osc1_steps = [i for i, s in enumerate(sched.steps)
                  if s.kind == "njc" and s.osc_index == 0]
    assert max(osc1_steps) < first


@pytest.mark.parametrize("n", [2, 3, 4])
def test_single_oscillator_is_the_one_oscillator_case(n):
    # with oscillator 2 in vacuum, the two-oscillator schedule ends with
    # exactly ftp_schedule's climbing pulses, labels extended by 0
    rng = np.random.default_rng(n)
    vec = rng.normal(size=3 * n + 2) + 1j * rng.normal(size=3 * n + 2)
    one = ftp_schedule(TargetState(vec), n)
    two = ftp_two_oscillator(TargetState(np.stack([vec, 0 * vec], axis=1)), (n, 1))
    climb = [s for s in one.steps if s.selectivity is not None]
    assert climb and one.steps[-len(climb):] == climb
    assert len(two.steps) >= len(climb)
    for got, want in zip(two.steps[-len(climb):], climb):
        assert (got.kind, got.osc_index, got.order) == (want.kind, want.osc_index, want.order)
        assert abs(got.area - want.area) < 1e-12 and abs(got.phase - want.phase) < 1e-12
        assert got.selectivity == want.selectivity + (0,)


def test_intermediate_states_stay_normalized():
    rng = np.random.default_rng(5)
    target = random_two_osc_target(rng, 2, 2)
    sched = ftp_two_oscillator(target, (1, 2))
    for s in intermediate_states(sched):
        assert np.linalg.norm(s) == pytest.approx(1.0, abs=1e-10)


def test_two_oscillator_json_round_trip():
    sp = make_space([8, 8])
    target = multimode_target(sp, "dense", L1=2, L2=1)
    sched = ftp_two_oscillator(target, (2, 2), budget=CouplingBudget())
    back = schedule_from_json(schedule_to_json(sched))
    assert replay_fidelity(back, target, semantics="ideal-pair") == pytest.approx(
        1.0, abs=1e-8
    )


def test_annotate_frequencies():
    sp = make_space([8, 8])
    target = multimode_target(sp, "dense", L1=1, L2=1)
    sched = ftp_two_oscillator(target, (1, 1))
    m1 = DispersiveModel(order=1, omega_q=TWO_PI * 10e9, omega_o=TWO_PI * 5e9,
                         g=TWO_PI * 30e6)
    m2 = DispersiveModel(order=1, omega_q=TWO_PI * 10e9, omega_o=TWO_PI * 4.8e9,
                         g=TWO_PI * 30e6)
    freqs = annotate_frequencies(sched, (m1, m2))
    assert len(freqs) == len(sched.steps)
    for step, f in zip(sched.steps, freqs):
        if step.kind != "drive":
            assert f is None
        elif step.selectivity is None:
            assert f == pytest.approx(m1.omega_q)
        else:
            assert f == pytest.approx(selective_drive_frequency([m1, m2], step.selectivity))
    with pytest.raises(ValueError):
        annotate_frequencies(sched, (m1,))


def test_annotate_frequencies_leaves_the_schedule_unchanged():
    target = multimode_target(make_space([8, 8]), "dense", L1=1, L2=1)
    sched = ftp_two_oscillator(target, (1, 1), budget=CouplingBudget())
    before = copy.deepcopy(sched)
    model = DispersiveModel(order=1, omega_q=TWO_PI * 10e9, omega_o=TWO_PI * 5e9,
                            g=TWO_PI * 30e6)
    annotate_frequencies(sched, (model, model))
    assert sched == before
    assert vars(sched).keys() == vars(before).keys()


def w_noon(N):
    """(|N,0,0> + |0,N,0> + |0,0,N>) / sqrt(3)."""
    amps = np.zeros((N + 1,) * 3)
    amps[N, 0, 0] = amps[0, N, 0] = amps[0, 0, N] = 1.0
    return TargetState(amps)


def ghz_cat(alpha, truncate_at):
    """|a,a,a> + |-a,-a,-a>, each mode cut after level truncate_at."""
    plus, minus = coherent_vector(12, alpha), coherent_vector(12, -alpha)
    amps = (np.einsum("i,j,k->ijk", plus, plus, plus)
            + np.einsum("i,j,k->ijk", minus, minus, minus))
    return TargetState(amps[: truncate_at + 1, : truncate_at + 1, : truncate_at + 1])


@pytest.mark.parametrize("target, orders, kills, duration_ns", [
    (w_noon(2), (1, 1, 1), 6, 61.722), (w_noon(2), (2, 2, 2), 3, 40.131),
    (w_noon(3), (1, 1, 1), 9, 96.052), (w_noon(3), (2, 2, 2), 6, 68.666),
    (w_noon(4), (1, 1, 1), 12, 129.802), (w_noon(4), (2, 2, 2), 6, 78.792),
    (ghz_cat(1.0, 4), (1, 1, 1), 112, 907.911), (ghz_cat(1.0, 4), (2, 2, 2), 64, 486.293),
], ids=["wnoon2-111", "wnoon2-222", "wnoon3-111", "wnoon3-222", "wnoon4-111",
        "wnoon4-222", "ghz-111", "ghz-222"])
def test_three_oscillator_targets_compile(target, orders, kills, duration_ns):
    sched = ftp_schedule(target, orders, budget=CouplingBudget())
    steps, _ = two_oscillator_plan(target, orders, CouplingBudget())
    assert steps == sum(s.kind == "njc" for s in sched.steps) == kills
    assert sched.duration * 1e9 == pytest.approx(duration_ns, abs=0.01)
    assert sched.initial == (QUBIT_G, 0, 0, 0)
    assert 1 - replay_fidelity(sched, target) <= 1e-12


def test_invert_two_oscillator_checks_every_axis_of_three():
    sched = invert_two_oscillator(w_noon(2), (2, 2, 2))
    assert 1 - sched.fidelity <= 1e-12
    with pytest.raises(ValueError, match=r"\(3, 0, 0\) breaks the \(2, 2, 2\) lattice"):
        invert_two_oscillator(w_noon(3), (2, 2, 2))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_an_int_order_is_the_one_oscillator_tuple(n):
    rng = np.random.default_rng(n)
    target = TargetState(rng.normal(size=3 * n + 2) + 1j * rng.normal(size=3 * n + 2))
    assert ftp_schedule(target, n) == ftp_schedule(target, (n,))


def test_ftp_two_oscillator_is_ftp_schedule():
    assert ftp_two_oscillator is ftp_schedule


def test_annotate_frequencies_sums_one_shift_per_oscillator():
    target = w_noon(2)
    sched = ftp_schedule(target, (1, 1, 1))
    models = [DispersiveModel(order=1, omega_q=TWO_PI * 10e9, omega_o=TWO_PI * f,
                              g=TWO_PI * 30e6) for f in (5e9, 4.8e9, 4.6e9)]
    freqs = annotate_frequencies(sched, models)
    drives = [(s, f) for s, f in zip(sched.steps, freqs) if s.kind == "drive"]
    assert drives and all(s.selectivity is not None for s, _ in drives)
    for step, f in drives:
        # the qubit frequency plus each oscillator's own shift at its label
        expect = models[0].omega_q + sum(
            selective_drive_frequency([m], [l]) - m.omega_q
            for m, l in zip(models, step.selectivity))
        assert f == pytest.approx(expect, rel=1e-15)
    with pytest.raises(ValueError, match="one dispersive model per oscillator"):
        annotate_frequencies(sched, models[:2])
