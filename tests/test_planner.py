"""Tests for step counting, punch cards, and preparation-time accounting."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscsynth.planner import (
    base_step_count,
    multi_punch_card,
    punch_card,
    scaling_table,
    scaling_table_csv,
    steps_arbitrary,
    time_ftp,
    time_le,
    time_symmetric,
    two_oscillator_plan,
)
from oscsynth.multiosc import ftp_two_oscillator, invert_two_oscillator
from oscsynth.synthesis import CouplingBudget, _load_target, ftp_schedule, invert_symmetric
from oscsynth.targets import TargetState, infer_symmetry, multimode_target
from oscsynth.fockspace import DimensionError, make_space
from oscsynth.gates import xi

PI = math.pi


def random_card(rng, n=None):
    n = n or rng.integers(1, 5)
    top = int(rng.integers(n, 4 * n + 1))
    vec = np.zeros(top + 1, dtype=complex)
    occ = rng.random(top + 1) < 0.5
    occ[top] = True
    occ[0] = True
    vec[occ] = 1.0
    return punch_card(TargetState(vec), int(n))


def test_punch_card_layout():
    vec = np.zeros(8)
    vec[0] = vec[2] = vec[5] = vec[7] = 1.0
    card = punch_card(TargetState(vec), 3)
    # columns k=0,1,2; level 5 -> row 1 col 2, level 7 -> row 2 col 1
    assert card.heights == (0, 2, 1)
    assert tuple(card.occupancy[0]) == (True, False, True)
    assert card.occupancy.shape == (3, 3)
    text = card.render()
    assert "●" in text and "○" in text and "-----" in text


def test_base_step_count_values():
    assert base_step_count(1) == 0
    assert base_step_count(2) == 1
    assert base_step_count(3) == 2
    assert base_step_count(4) == 2  # two-photon shortcut engages
    assert base_step_count(6) == 3
    with pytest.raises(ValueError):
        base_step_count(0)


def test_steps_arbitrary_dense_case():
    # dense order-n target up to level L: N_arb = K_arb = J_n + L - n + 1
    n, L = 3, 8
    vec = np.ones(L + 1, dtype=complex)
    card = punch_card(TargetState(vec), n)
    n_arb, k_arb = steps_arbitrary(card)
    assert n_arb == base_step_count(n) + (L - n + 1)
    assert k_arb == n_arb


def test_column_zero_collapse():
    # support confined to one column: the exact count is J_n + h while the
    # dense bound still scales with the top occupied level
    vec = np.zeros(10)
    vec[0] = vec[3] = vec[9] = 1.0
    card = punch_card(TargetState(vec), 3)
    n_arb, k_arb = steps_arbitrary(card)
    assert card.heights == (3, 0, 0)
    assert n_arb == base_step_count(3) + 3
    assert k_arb == base_step_count(3) + 9 - (3 - 1)
    assert n_arb < k_arb


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_exact_steps_never_exceed_bound(seed):
    rng = np.random.default_rng(seed)
    card = random_card(rng)
    n_arb, k_arb = steps_arbitrary(card)
    assert n_arb <= k_arb
    assert n_arb >= 0


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=4),
       st.lists(st.integers(0, 16), min_size=1, max_size=10))
def test_climbs_equal_punch_card_heights(n, levels):
    vec = np.zeros(max(levels) + 1, dtype=complex)
    for l in levels:
        vec[l] = 1.0 + 0.4j * l
    target = TargetState(vec)
    b = CouplingBudget(g={1: 2 * PI * 100e6, 2: 2 * PI * 25e6, 3: 2 * PI * 10e6,
                          4: 2 * PI * 5e6})
    card = punch_card(target, n)
    sched = ftp_schedule(target, n, budget=b)
    assert sum(s.kind == "drive" and s.selectivity is not None
               for s in sched.steps) == sum(card.heights)
    assert time_ftp(card, b) >= sched.duration


def test_time_symmetric_monotone_in_steps():
    b = CouplingBudget()
    times = [time_symmetric(K, 2, b) for K in range(0, 12)]
    assert all(t2 > t1 for t1, t2 in zip(times, times[1:]))
    assert times[0] == 0.0


@pytest.mark.parametrize("n", [0, -1])
def test_time_symmetric_rejects_an_order_below_one(n):
    with pytest.raises(ValueError, match=f"order n >= 1, got K = 3, n = {n}"):
        time_symmetric(3, n, CouplingBudget(g={n: 1.0}))


def test_time_symmetric_formula():
    b = CouplingBudget(omega=2.0, g={2: 3.0})
    t = time_symmetric(2, 2, b)
    expect = 2 * PI / 2.0 + PI / (3.0 * xi(2, 2)) + PI / (3.0 * xi(4, 2))
    assert t == pytest.approx(expect)


def test_time_le_formula_and_flag():
    b = CouplingBudget(omega=5.0, g={1: 7.0})
    t = time_le(3, b)
    expect = 3 * PI / 5.0 + sum(PI / (7.0 * math.sqrt(j + 1)) for j in range(1, 4))
    assert t == pytest.approx(expect)


def test_time_ftp_dense_matches_column_sum():
    b = CouplingBudget()
    vec = np.ones(9, dtype=complex)
    card = punch_card(TargetState(vec), 2)
    t = time_ftp(card, b)
    base = time_symmetric(2, 1, b)
    expect = base
    for k in range(2):
        h = card.heights[k]
        expect += h * PI / b.omega
        expect += sum(PI / (b.g[2] * xi(j * 2 + k, 2)) for j in range(1, h + 1))
    assert t == pytest.approx(expect)


def test_multi_punch_card_and_plan_consistency():
    sp = make_space([6, 6])
    target = multimode_target(sp, "dense", L1=3, L2=3)
    b = CouplingBudget()
    card = multi_punch_card(target, (2, 2))
    steps, t = two_oscillator_plan(target, (2, 2), b)
    assert steps == card.total_steps
    assert t > 0


def test_multi_base_steps_trivial_cases():
    amps = np.zeros((4, 4))
    amps[2, 2] = 1.0  # the climbs leave only |0,0>: no base kills
    assert multi_punch_card(TargetState(amps), (2, 2)).base_steps == 0
    amps[0, 0] = 1.0
    assert multi_punch_card(TargetState(amps), (1, 1)).base_steps == 0
    amps[2, 2] = 0.0
    amps[1, 1] = 1.0
    # |1,1> -> |1,0> on oscillator 2, then |1,0> -> |0,0> on oscillator 1
    assert multi_punch_card(TargetState(amps), (2, 2)).base_steps == 2


@pytest.mark.parametrize("eps, counted", [(1e-11, True), (1e-13, False)])
def test_one_occupancy_rule(eps, counted):
    # after normalisation the small amplitude stays ~eps: just above the
    # 1e-12 occupancy threshold, or just below it
    vec = np.zeros(6, dtype=complex)
    vec[0], vec[5] = 1.0, eps
    target = TargetState(vec)
    assert target.max_index == (5 if counted else 0)
    assert infer_symmetry(target.amplitudes) == ((1, 0) if counted else (4, 0))
    card = punch_card(target, 2)
    assert card.heights == ((0, 2) if counted else (0, 0))
    n_arb, _ = steps_arbitrary(card)
    assert len(ftp_schedule(target, 2).steps) // 2 == (n_arb if counted else 0)
    assert len(invert_symmetric(target, 1).steps) // 2 == (5 if counted else 0)
    if counted:
        with pytest.raises(ValueError):
            TargetState(vec, 2, 0)
        with pytest.raises(DimensionError):
            _load_target(make_space([4]), target.amplitudes)
    else:
        assert TargetState(vec, 2, 0).symmetry_order == 2
        assert abs(_load_target(make_space([4]), target.amplitudes)).max() == 1.0

    grid = np.zeros((6, 6), dtype=complex)
    grid[0, 0], grid[3, 2] = 1.0, eps
    pair = TargetState(grid)
    assert pair.max_index == (3 if counted else 0)
    steps, _ = two_oscillator_plan(pair, (2, 2), CouplingBudget())
    assert steps == multi_punch_card(pair, (2, 2)).total_steps
    assert steps == len(ftp_two_oscillator(pair, (2, 2)).steps) // 2
    assert (steps > 0) == counted
    if counted:
        with pytest.raises(ValueError, match="lattice"):
            invert_two_oscillator(pair, (2, 2))
    else:
        assert len(invert_two_oscillator(pair, (2, 2)).steps) == 0


def test_punch_card_rejects_a_two_oscillator_target():
    target = multimode_target(make_space([8, 8]), "noon", N=5)
    with pytest.raises(ValueError, match="single-oscillator"):
        punch_card(target, 2)


def test_incommensurate_swap_rates_leave_no_common_zero():
    # no single evolution time simultaneously completes order-1 swaps at two
    # different enhancement rates: scan a dense grid over a bounded window
    r1, r2 = xi(1, 1), xi(2, 1)  # 1 and sqrt(2)
    t = np.linspace(0.01, 30.0, 100000)
    worst = np.min(np.maximum(np.abs(np.cos(t * r1)), np.abs(np.cos(t * r2))))
    assert worst > 0.02


def test_scaling_table_and_csv():
    budgets = [CouplingBudget(), CouplingBudget(omega=2 * PI * 50e6, g={2: 2 * PI * 50e6})]
    rows = scaling_table([1, 2], budgets, range(1, 5))
    # first budget covers both orders, second only order 2
    assert len(rows) == 2 * 4 + 4
    csv = scaling_table_csv(rows)
    lines = csv.strip().split("\n")
    assert lines[0] == "K,n,omega_radps,g_radps,T_ns"
    assert len(lines) == len(rows) + 1
    # times grow with K within one (budget, order) series
    k1 = [float(l.split(",")[-1]) for l in lines[1:5]]
    assert k1 == sorted(k1)


def test_faster_at_high_order_regime():
    # with matched couplings, the order-n ladder beats the linear ladder for
    # deep targets because its swap rates grow factorially
    b = CouplingBudget(omega=2 * PI * 25e6, g={1: 2 * PI * 25e6, 2: 2 * PI * 25e6})
    L = 16
    t_linear = time_le(L, b)
    vec = np.zeros(L + 1, dtype=complex)
    vec[0::2] = 1.0
    card = punch_card(TargetState(vec), 2)
    t_climb = time_ftp(card, b)
    assert t_climb < t_linear
