"""Tests for schedule compilation, replay, refinement, and serialization."""

import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oscsynth
from oscsynth.fockspace import QUBIT_G, DimensionError, make_space
from oscsynth.gates import PulseStep
from oscsynth.multiosc import ftp_two_oscillator
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

# the source tree this test run imports oscsynth from
SRC = os.path.dirname(os.path.dirname(oscsynth.__file__))


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


@pytest.mark.parametrize("target, n, start", [
    (parse_target("fock:1,4,7", space=make_space([24])), 3, (QUBIT_G, 1)),
    (cat_state(make_space([24]), 1.5, "2-odd"), 1, (QUBIT_G, 0)),
], ids=["fock-1-4-7-order-3", "odd-cat-order-1"])
def test_invert_symmetric_takes_its_column_from_the_support(target, n, start):
    # the symmetry metadata names another order's column: (1, 0) for the
    # Fock levels, (2, 1) for the odd cat
    sched = invert_symmetric(target, n)
    assert sched.initial == start
    assert sched.fidelity >= 1 - 1e-12
    assert replay_fidelity(sched, target) >= 1 - 1e-12


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


def _padded(amps, shape):
    out = np.zeros(shape, dtype=complex)
    out[tuple(slice(0, k) for k in np.shape(amps))] = amps
    return out


def test_compilers_accept_zero_padding_past_the_cutoff():
    # padding is not support: each compiler gives the schedule of the
    # unpadded target
    vec = np.array([0.6, 0, 0, 0.48j, 0, 0.64])
    column = np.array([0.6, 0, 0.8])
    grid = np.array([[0.6, 0], [0, 0.8]])
    cases = [
        (lambda t: ftp_schedule(t, 2, space=make_space([12])), vec, (30,)),
        (lambda t: invert_symmetric(t, 2, space=make_space([12])), column, (30,)),
        (lambda t: ftp_two_oscillator(t, (1, 1), space=make_space([4, 4])), grid, (30, 30)),
    ]
    for compile_, amps, shape in cases:
        padded = compile_(TargetState(_padded(amps, shape)))
        assert padded.steps == compile_(TargetState(amps)).steps
        assert padded.fidelity == pytest.approx(1.0, abs=1e-12)


def test_compilers_reject_support_at_the_cutoff():
    vec = np.zeros(13)
    vec[[0, 12]] = 1.0
    grid = np.zeros((5, 4))
    grid[0, 0] = grid[4, 0] = 1.0
    with pytest.raises(DimensionError):
        ftp_schedule(TargetState(vec), 2, space=make_space([12]))
    with pytest.raises(DimensionError):
        invert_symmetric(TargetState(vec), 2, space=make_space([12]))
    with pytest.raises(DimensionError):
        ftp_two_oscillator(TargetState(grid), (1, 1), space=make_space([4, 4]))


def test_replay_fidelity_rejects_support_beyond_cutoff():
    # a target with weight above the cutoff cannot be reached; it raises
    # instead of being cut to the levels the schedule's space holds
    sp = make_space([4])
    vec = np.zeros(6)
    vec[0] = 1.0
    vec[5] = 1.0
    t = TargetState(vec)
    sched = PulseSchedule(steps=[], space=sp)
    with pytest.raises(DimensionError):
        replay_fidelity(sched, t)
    with pytest.raises(DimensionError):
        refine_schedule(sched, t)


def test_replay_and_refine_reject_support_past_the_schedule_cutoff():
    sched = ftp_schedule(TargetState([0.6, 0, 0.8]), 2)
    assert sched.space.osc_cutoffs == (5,)
    vec = np.zeros(12)
    vec[[0, 2, 10]] = 0.6, 0.6, 0.4
    with pytest.raises(DimensionError, match="level 10"):
        replay_fidelity(sched, TargetState(vec))
    with pytest.raises(DimensionError, match="level 10"):
        refine_schedule(sched, TargetState(vec))
    # zero padding past the cutoff still loads
    vec[10] = 0.0
    assert replay_fidelity(sched, TargetState(vec)) == pytest.approx(
        replay_fidelity(sched, TargetState(vec[:5])), abs=1e-15)


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


@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0, 0.0])
def test_budget_couplings_must_be_finite_and_positive(value):
    with pytest.raises(ValueError, match="omega"):
        CouplingBudget(omega=value)
    with pytest.raises(ValueError, match=r"g\[2\]"):
        CouplingBudget(g={1: 1.0, 2: value})


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
    assert [s.selectivity for s in polished.steps] == [s.selectivity for s in sched.steps]


def test_refine_converges_on_a_random_order2_target():
    # top Fock level 6 at order 2: 12 steps, 24 parameters; a derivative-free
    # search stopped at 8e-5 infidelity on this target
    rng = np.random.default_rng(1)
    target = TargetState(rng.normal(size=7) + 1j * rng.normal(size=7))
    sched = ftp_schedule(target, 2)
    assert 2 * len(sched.steps) == 24
    assert 1.0 - replay_fidelity(sched, target, semantics="exact") > 0.5
    polished = refine_schedule(sched, target, semantics="exact")
    assert 1.0 - polished.fidelity <= 1e-9
    assert replay_fidelity(polished, target, semantics="exact") == polished.fidelity


def test_refine_labels_its_output_with_the_refined_semantics():
    rng = np.random.default_rng(1)
    target = TargetState(rng.normal(size=7) + 1j * rng.normal(size=7))
    sched = ftp_schedule(target, 2)
    assert sched.semantics == "ideal-pair"
    polished = refine_schedule(sched, target, "exact")
    assert polished.semantics == "exact"
    # the default replay uses the schedule's own semantics
    assert replay_fidelity(polished, target) == polished.fidelity
    assert json.loads(schedule_to_json(polished))["meta"]["semantics"] == "exact"


def test_refine_keeps_a_two_oscillator_schedule_and_its_meta():
    amps = np.zeros((3, 3))
    amps[0, 0], amps[1, 1], amps[2, 0] = 0.6, 0.6, np.sqrt(0.28)
    target = TargetState(amps)
    sched = ftp_two_oscillator(target, (1, 1))
    polished = refine_schedule(sched, target, "exact")
    assert type(polished) is PulseSchedule
    assert [s.selectivity for s in polished.steps] == [s.selectivity for s in sched.steps]
    assert polished.semantics == "exact"


def _refine_small_targets(seed):
    """The five targets of one pass of perfbench's refine_small workload:
    complex normal amplitudes on Fock levels 0..top, for top 3, 4, 4, 5, 6."""
    rng = np.random.default_rng(seed)
    return [TargetState(rng.normal(size=(top + 1, 2)) @ [1, 1j]) for top in (3, 4, 4, 5, 6)]


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_refine_reaches_machine_precision_on_the_benchmark_targets(seed):
    for target in _refine_small_targets(seed):
        sched = ftp_schedule(target, 2)
        polished = refine_schedule(sched, target, "exact")
        assert 1.0 - polished.fidelity <= 1e-12
        assert replay_fidelity(polished, target) == polished.fidelity


def test_refine_is_deterministic():
    target = _refine_small_targets(3)[-1]
    sched = ftp_schedule(target, 2)
    runs = [refine_schedule(sched, target, "exact") for _ in range(2)]
    assert runs[0].steps == runs[1].steps
    assert runs[0].fidelity == runs[1].fidelity


def test_refine_at_zero_overlap_returns_a_replayed_copy():
    # a plain drive keeps |g,0> inside {|e,0>, |g,0>}: no overlap with |g,3>,
    # and no area or phase changes that
    sched = PulseSchedule(steps=[PulseStep("drive", 0.4, 0.2)], space=make_space([4]))
    target = TargetState([0, 0, 0, 1.0])
    polished = refine_schedule(sched, target)
    assert polished is not sched and polished.steps == sched.steps
    assert polished.fidelity == 0.0 and sched.fidelity is None


def test_refine_loads_no_scipy():
    code = ("import sys; from oscsynth.synthesis import *; from oscsynth.targets import *; "
            "t = TargetState([0.6, 0.3j, 0.5, -0.4, 0.37]); "
            "refine_schedule(ftp_schedule(t, 2), t); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": SRC})
    assert out.stdout == "[]\n"


def test_replay_rejects_an_unknown_semantics_name():
    target = TargetState([0.6, 0, 0.8], 2, 0)
    # solved kills (unlabelled steps) and selective kills (labelled steps)
    for sched in (invert_symmetric(target, 2, budget=CouplingBudget()),
                  ftp_schedule(target, 2)):
        with pytest.raises(ValueError, match="unknown semantics 'exaxt'"):
            replay_fidelity(sched, target, semantics="exaxt")


def test_refine_zero_step_schedule_returns_a_replayed_copy():
    sched = PulseSchedule(steps=[], space=make_space([4]))
    target = TargetState([0.6, 0, 0, 0.8])
    polished = refine_schedule(sched, target)
    assert polished is not sched and polished.steps == []
    assert polished.fidelity == replay_fidelity(sched, target) == pytest.approx(0.6)


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
        PulseStep("njc", 0.5, 0.1, osc_index=0, order=2, selectivity=(1,)),
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
    # a drive has no oscillator index or order to drop
    data["initial"] = [QUBIT_G, 0]
    data["steps"][0]["osc"] = 0
    with pytest.raises(ValueError, match="drive steps take no order or oscillator index"):
        schedule_from_json(json.dumps(data))


#: every PulseStep field and the key of a "steps" entry that stores it
STEP_KEYS = {"kind": "kind", "area": "area", "phase": "phase", "osc_index": "osc",
             "order": "order", "selectivity": "select"}
#: every PulseSchedule field and the JSON path that stores it
SCHEDULE_KEYS = {"steps": ("steps",), "space": ("space",), "budget": ("budget",),
                 "target_label": ("meta", "target"), "fidelity": ("meta", "fidelity"),
                 "semantics": ("meta", "semantics"), "initial": ("initial",)}


def test_every_schedule_field_is_written_to_json():
    assert {f.name for f in dataclasses.fields(PulseStep)} == set(STEP_KEYS)
    assert {f.name for f in dataclasses.fields(PulseSchedule)} == set(SCHEDULE_KEYS)
    target = TargetState(np.array([0.6, 0, 0.48j, 0.64]))
    data = json.loads(schedule_to_json(ftp_schedule(target, 2, budget=CouplingBudget())))
    for entry in data["steps"]:
        assert set(entry) == set(STEP_KEYS.values())
    # the file holds these fields, the version and the derived duration, nothing else
    assert set(data) == {"version"} | {path[0] for path in SCHEDULE_KEYS.values()}
    assert set(data["meta"]) == {"duration_s"} | {
        path[1] for path in SCHEDULE_KEYS.values() if path[0] == "meta"}


def _equal_to_12_digits(a, b) -> bool:
    """a == b field by field, with floats compared at the 12 significant
    digits the JSON keeps."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _equal_to_12_digits(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a))
    if isinstance(a, float):
        return float(f"{a:.12g}") == float(f"{b:.12g}")
    if isinstance(a, (list, tuple)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(_equal_to_12_digits(x, y) for x, y in zip(a, b)))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_equal_to_12_digits(a[k], b[k]) for k in a)
    return a == b


def test_json_round_trip_keeps_type_and_every_field():
    rng = np.random.default_rng(12)
    budget = CouplingBudget()
    amps = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    schedules = [
        invert_symmetric(TargetState([0, 0.6, 0, 0.8j], 2, 1), 2, budget=budget),
        ftp_schedule(TargetState(rng.normal(size=7) + 1j * rng.normal(size=7)), 2,
                     budget=budget),
        ftp_two_oscillator(TargetState(amps), (1, 2), budget=budget),
    ]
    for sched in schedules:
        back = schedule_from_json(schedule_to_json(sched))
        assert type(back) is type(sched)
        assert _equal_to_12_digits(sched, back)


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
