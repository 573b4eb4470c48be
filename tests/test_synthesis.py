"""Tests for schedule compilation, replay, refinement, and serialization."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oscsynth.fockspace import QUBIT_G, DimensionError, make_space
from oscsynth.gates import PulseStep
from oscsynth.synthesis import (
    DEFAULT_G,
    DEFAULT_OMEGA,
    CouplingBudget,
    PulseSchedule,
    apply_schedule,
    ftp_schedule,
    invert_symmetric,
    refine_schedule,
    replay_fidelity,
    schedule_from_json,
    schedule_to_json,
)
from oscsynth.targets import TargetState, cat_state, parse_target


def column_target(amps, n, offset=0):
    """Place complex amplitudes on Fock levels offset, offset+n, offset+2n, ..."""
    top = offset + n * (len(amps) - 1)
    vec = np.zeros(top + 1, dtype=complex)
    for j, a in enumerate(amps):
        vec[offset + j * n] = a
    return TargetState(vec, symmetry_order=n, symmetry_offset=offset)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.lists(
        st.tuples(
            st.floats(min_value=-1, max_value=1, allow_nan=False),
            st.floats(min_value=-1, max_value=1, allow_nan=False),
        ),
        min_size=2,
        max_size=5,
    ),
    st.integers(min_value=0, max_value=2),
)
# an amplitude whose phase is off the real axis by 4e-11 rad
@example(2, [(0.0, 1.0), (0.0, 0.0), (0.0, 0.0), (0.5, 2.1309118004545147e-11), (0.0, 1.0)], 0)
def test_invert_symmetric_round_trip(n, pairs, offset):
    amps = np.array([re + 1j * im for re, im in pairs])
    if np.linalg.norm(amps) < 1e-3 or abs(amps[-1]) < 1e-3:
        amps[-1] += 0.5
    offset = min(offset, n - 1)
    target = column_target(amps, n, offset)
    sched = invert_symmetric(target, n)
    assert replay_fidelity(sched, target) == pytest.approx(1.0, abs=1e-9)
    # alternating (drive, njc) pairs
    assert len(sched.steps) % 2 == 0
    kinds = [s.kind for s in sched.steps]
    assert kinds == ["drive", "njc"] * (len(kinds) // 2)


def test_invert_symmetric_complex_phases():
    # complex target amplitudes exercise the phase branch of the angle solver
    target = column_target([0.3 + 0.4j, -0.2 + 0.1j, 0.7 - 0.5j], 2)
    sched = invert_symmetric(target, 2)
    assert replay_fidelity(sched, target) == pytest.approx(1.0, abs=1e-10)


def test_invert_symmetric_cat():
    sp = make_space([30])
    target = cat_state(sp, 2.0, "2-even", truncate_at=12)
    sched = invert_symmetric(target, 2, budget=CouplingBudget())
    assert sched.fidelity == pytest.approx(1.0, abs=1e-9)
    assert sched.duration > 0


def test_invert_symmetric_rejects_off_column_support():
    vec = np.zeros(6)
    vec[0] = vec[3] = 1.0
    t = TargetState(vec)
    with pytest.raises(ValueError):
        invert_symmetric(t, 2)


def test_ftp_schedule_exact_under_pair_semantics():
    rng = np.random.default_rng(3)
    vec = rng.normal(size=7) + 1j * rng.normal(size=7)
    target = TargetState(vec)
    sched = ftp_schedule(target, 3)
    assert replay_fidelity(sched, target, semantics="ideal-pair") == pytest.approx(
        1.0, abs=1e-9
    )


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=2, max_value=4), st.integers(min_value=4, max_value=9))
def test_ftp_schedule_random_targets(n, top):
    rng = np.random.default_rng(n * 100 + top)
    vec = rng.normal(size=top + 1) + 1j * rng.normal(size=top + 1)
    vec[top] += 1.0  # keep the top level occupied
    target = TargetState(vec)
    sched = ftp_schedule(target, n)
    assert replay_fidelity(sched, target, semantics="ideal-pair") == pytest.approx(
        1.0, abs=1e-8
    )


def test_replay_fidelity_trims_support_beyond_cutoff():
    # a target with weight above the cutoff cannot be fully reached; the
    # overlap drops by exactly the missing weight, with no renormalization
    sp = make_space([4])
    vec = np.zeros(6)
    vec[0] = 1.0
    vec[5] = 1.0
    t = TargetState(vec)
    sched = PulseSchedule(steps=[], space=sp)
    assert replay_fidelity(sched, t) == pytest.approx(1.0 / math.sqrt(2.0))


def test_schedule_duration_formula():
    budget = CouplingBudget(omega=2.0, g={2: 4.0})
    steps = [
        PulseStep("drive", 1.0),
        PulseStep("njc", 2.0, osc_index=0, order=2),
        PulseStep("drive", -3.0),
    ]
    sched = PulseSchedule(steps=steps, space=make_space([4]), budget=budget)
    assert sched.duration == pytest.approx(1.0 / 2.0 + 2.0 / 4.0 + 3.0 / 2.0)
    with pytest.raises(KeyError):
        PulseSchedule(
            steps=[PulseStep("njc", 1.0, osc_index=0, order=3)],
            space=make_space([4]),
            budget=budget,
        ).duration


def test_default_budget_values():
    b = CouplingBudget()
    assert b.omega == pytest.approx(2 * math.pi * 25e6)
    assert b.g[1] == pytest.approx(2 * math.pi * 100e6)
    assert b.g[2] == pytest.approx(2 * math.pi * 25e6)
    with pytest.raises(ValueError):
        CouplingBudget(omega=-1.0)


def test_refine_schedule_never_worsens():
    sp = make_space([12])
    target = cat_state(sp, 1.3, "2-even", truncate_at=6)
    sched = ftp_schedule(target, 2, space=sp)
    f_exact = replay_fidelity(sched, target, semantics="exact")
    polished = refine_schedule(sched, target, semantics="exact")
    assert polished.fidelity >= f_exact - 1e-12
    assert replay_fidelity(polished, target, semantics="exact") == pytest.approx(
        polished.fidelity, abs=1e-9
    )


def test_refine_reports_the_fidelity_of_a_fresh_replay():
    rng = np.random.default_rng(4)
    target = TargetState(rng.normal(size=6) + 1j * rng.normal(size=6))
    sched = ftp_schedule(target, 2)
    polished = refine_schedule(sched, target, semantics="exact")
    assert polished.fidelity > replay_fidelity(sched, target, semantics="exact")
    assert abs(replay_fidelity(polished, target, semantics="exact")
               - polished.fidelity) < 1e-12
    assert [s.pair_level for s in polished.steps] == [s.pair_level for s in sched.steps]


def test_json_round_trip_preserves_replay():
    sp = make_space([30])
    target = cat_state(sp, 2.0, "2-even", truncate_at=12)
    sched = invert_symmetric(target, 2, budget=CouplingBudget())
    text = schedule_to_json(sched)
    back = schedule_from_json(text)
    assert len(back.steps) == len(sched.steps)
    assert replay_fidelity(back, target) == pytest.approx(sched.fidelity, abs=1e-9)
    assert back.budget.omega == pytest.approx(sched.budget.omega)
    assert back.semantics == sched.semantics


def test_json_serialization_deterministic():
    sp = make_space([30])
    target = cat_state(sp, 2.0, "2-even", truncate_at=12)
    sched = invert_symmetric(target, 2, budget=CouplingBudget())
    t1 = schedule_to_json(sched)
    assert schedule_to_json(sched) == t1
    # deserialized schedules carry 12-digit areas, so reserialization is a
    # fixed point from the first round trip onward
    t2 = schedule_to_json(schedule_from_json(t1))
    t3 = schedule_to_json(schedule_from_json(t2))
    assert t2 == t3
    assert '"phase": -0' not in t1


def test_json_keeps_pair_annotations():
    rng = np.random.default_rng(11)
    vec = rng.normal(size=6) + 1j * rng.normal(size=6)
    target = TargetState(vec)
    sched = ftp_schedule(target, 2)
    back = schedule_from_json(schedule_to_json(sched))
    assert replay_fidelity(back, target, semantics="ideal-pair") == pytest.approx(
        1.0, abs=1e-8
    )


def test_json_keeps_the_initial_state():
    target = TargetState([0, 0.6, 0, 0.8], 2, 1)
    sched = invert_symmetric(target, 2)
    back = schedule_from_json(schedule_to_json(sched))
    assert back.initial == sched.initial == (QUBIT_G, 1)
    assert replay_fidelity(back, target) == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_json_round_trip_preserves_replay_at_every_offset(data):
    n = data.draw(st.integers(min_value=1, max_value=3))
    offset = data.draw(st.integers(min_value=0, max_value=n - 1))
    amps = np.array(data.draw(st.lists(
        st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
        min_size=1, max_size=5)))
    if abs(amps[-1]) < 1e-3:
        amps[-1] += 0.5
    sched = invert_symmetric(column_target(amps, n, offset), n)
    target = column_target(amps, n, offset)
    back = schedule_from_json(schedule_to_json(sched))
    assert back.initial == sched.initial
    assert replay_fidelity(back, target) == pytest.approx(replay_fidelity(sched, target), abs=1e-9)


V1_SCHEDULE = """{
  "version": 1,
  "space": {"osc_cutoffs": [6]},
  "budget": null,
  "steps": [
    {"kind": "drive", "osc": null, "order": null, "area": 0.3, "phase": 0, "select": [[1]]},
    {"kind": "njc", "osc": 0, "order": 2, "area": 0.5, "phase": 0.1, "select": [[1]]}
  ],
  "meta": {"target": "old", "semantics": "ideal-pair", "fidelity": null, "duration_s": null}
}
"""


def test_json_reads_version_1_files():
    sched = schedule_from_json(V1_SCHEDULE)
    assert sched.initial == (QUBIT_G, 0)
    assert sched.steps == [
        PulseStep("drive", 0.3, 0.0, selectivity=(1,)),
        PulseStep("njc", 0.5, 0.1, osc_index=0, order=2, pair_level=(1,)),
    ]
    assert sched.semantics == "ideal-pair" and sched.budget is None
    assert '"version": 2' in schedule_to_json(sched)
    data = json.loads(schedule_to_json(sched))
    assert data["initial"] == [QUBIT_G, 0]
    data["version"] = 3
    with pytest.raises(ValueError, match="version"):
        schedule_from_json(json.dumps(data))
    data.update(version=2, initial=[QUBIT_G, 6])
    with pytest.raises(DimensionError):
        schedule_from_json(json.dumps(data))


def test_apply_schedule_pi_pulse():
    sp = make_space([4])
    sched = PulseSchedule(
        steps=[PulseStep("drive", math.pi / 2, 0.0)], space=sp
    )
    out = apply_schedule(sched, sp.basis_state(QUBIT_G, 0))
    assert abs(out[sp.index(0, 0)]) == pytest.approx(1.0)


def test_parse_then_compile_end_to_end():
    target = parse_target("fock:0,2,4")
    sched = invert_symmetric(target, 2)
    assert replay_fidelity(sched, target) == pytest.approx(1.0, abs=1e-9)
