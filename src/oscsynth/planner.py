"""Step counting and preparation-time estimates.

The punch card arranges Fock occupancy by symmetry column: level l sits in
column k = l mod n at row j = l div n. Column height h_k is the highest
occupied row, which is exactly the number of climbing steps that column
costs. Every time estimate follows the same accounting, one kill at a
time: pi/Omega per drive plus pi/(g_n * xi(top, n)) per exchange pulse out
of level top (xi(j n + k, n) for the j-th swap of column k).

The single-oscillator count is the paper's J_n + sum of heights. The
multi-oscillator count and time (two_oscillator_plan, for any number of
oscillators) are the compiler's own kill plan (synthesis.kill_plan), so
they count the climbs on the support as the earlier stages fold it, not
on the target's occupancy; multi_punch_card bins that plan by stage for
two oscillators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gates import xi
from .synthesis import CouplingBudget, kill_plan
from .targets import TargetState, support

PI = math.pi


@dataclass
class PunchCard:
    """Occupancy grid of a single-oscillator target, arranged by symmetry column."""

    order: int
    occupancy: np.ndarray = field(repr=False)  # bool, [row j, column k]

    @property
    def heights(self) -> tuple:
        """Per column, the highest occupied row (0 for an empty column)."""
        rows = np.arange(len(self.occupancy))[:, None]
        return tuple(int(h) for h in np.where(self.occupancy, rows, 0).max(axis=0))

    def render(self) -> str:
        """ASCII picture, top row first; the dashes mark the base row."""
        rows, n = self.occupancy.shape
        lines = []
        for j in range(rows - 1, 0, -1):
            lines.append(" ".join("●" if self.occupancy[j, k] else "○" for k in range(n)))
        lines.append("-" * (2 * n - 1))
        lines.append(" ".join("●" if self.occupancy[0, k] else "○" for k in range(n)))
        return "\n".join(lines)


@dataclass
class MultiPunchCard:
    """Two-oscillator step bookkeeping for the two-stage protocol, binned
    from the compiler's kill plan.

    second_heights[l1][k2]: climbing steps of oscillator-2 column k2 at
    oscillator-1 Fock level l1 (one row per level 0..L1, L1 the target's
    highest oscillator-1 level); this stage runs first in inversion order.
    first_heights[k1][k2]: climbing steps of oscillator-1 column k1 with
    oscillator 2 at base level k2 (an n1 x n2 matrix), counted on the
    support the oscillator-2 climbs leave behind. base_steps: the order-1
    kills that clear the remaining base block.
    """

    orders: tuple
    first_heights: np.ndarray
    second_heights: np.ndarray
    base_steps: int  # J_{n1,n2}

    @property
    def total_steps(self) -> int:
        return int(self.base_steps + self.first_heights.sum() + self.second_heights.sum())


def punch_card(target: TargetState, n: int) -> PunchCard:
    """Punch card of a single-oscillator target for interaction order n."""
    if target.n_osc != 1:
        raise ValueError("punch_card needs a single-oscillator target")
    occ_levels = np.flatnonzero(support(target.amplitudes))
    grid = np.zeros((occ_levels.max(initial=0) // n + 1, n), dtype=bool)
    grid[occ_levels // n, occ_levels % n] = True
    return PunchCard(order=n, occupancy=grid)


def base_step_count(n: int) -> int:
    """Steps J_n to prepare the base superposition over Fock 0..n-1.

    Greedy over the interaction orders {1, 2}: each step of order m raises
    the top reached level by m, and order 2 is only used when it fits
    twice inside the base span (n >= 4). That keeps the count at n-1 for
    small n (the pure linear ladder) and engages the two-photon shortcut,
    J_n = n // 2, from n = 4 up.
    """
    if n < 1:
        raise ValueError("order must be positive")
    return n - 1 if n < 4 else n // 2


def steps_arbitrary(card: PunchCard):
    """(N_arb, K_arb): exact step count and the dense upper bound."""
    n = card.order
    j_n = base_step_count(n)
    n_arb = j_n + sum(card.heights)
    # cell [j, k] of the occupancy grid is Fock level j * n + k
    top_level = int(np.flatnonzero(card.occupancy).max(initial=0))
    k_arb = j_n + max(top_level, n - 1) - (n - 1)
    return n_arb, k_arb


def _kill_time(budget: CouplingBudget, n: int, top: int) -> float:
    """One kill: a drive half-period plus an order-n swap out of level top."""
    return PI / budget.omega + PI / (budget.coupling(n) * xi(top, n))


def time_symmetric(K: int, n: int, budget: CouplingBudget) -> float:
    """Preparation-time bound for a K-step single-column ladder of order n:
    K drive half-periods plus K exchange swaps at increasing rates."""
    if K < 0 or n < 1:
        raise ValueError(f"need step count K >= 0 and order n >= 1, got K = {K}, n = {n}")
    return sum((_kill_time(budget, n, j * n) for j in range(1, K + 1)), 0.0)


def time_le(L: int, budget: CouplingBudget) -> float:
    """Linear-ladder time used in the fine-tune-vs-linear comparisons.

    Matches the published worked values: L drive half-periods plus swaps at
    rates g1*sqrt(j+1) for j = 1..L.
    """
    if L < 0:
        raise ValueError("L must be non-negative")
    g1 = budget.coupling(1)
    t = L * PI / budget.omega
    for j in range(1, L + 1):
        t += PI / (g1 * math.sqrt(j + 1))
    return t


def time_ftp(card: PunchCard, budget: CouplingBudget) -> float:
    """Fine-tune-then-populate time: base preparation plus per-column climbs.

    The base costs the order-1 symmetric ladder time with K = n steps,
    which is the accounting the reference climb/ladder comparisons use.
    """
    n = card.order
    base_time = time_symmetric(n, 1, budget) if n > 1 else 0.0
    return base_time + sum(_kill_time(budget, n, j * n + k)
                           for k, h in enumerate(card.heights) for j in range(1, h + 1))


def multi_punch_card(target: TargetState, orders: tuple) -> MultiPunchCard:
    """Bin the two-oscillator kill plan of a target by stage."""
    n1, n2 = orders
    if target.n_osc != 2:
        raise ValueError("multi_punch_card needs a two-oscillator target")
    first = np.zeros((n1, n2), dtype=int)
    second = np.zeros((target.max_index + 1, n2), dtype=int)
    base_steps = 0
    # an order-1 climb that shares its signature with a climbing stage is
    # empty: that stage has already folded the oscillator to level 0
    for osc_index, (l1, l2), n, _ in kill_plan(support(target.amplitudes), orders):
        if (osc_index, n) == (1, n2):
            second[l1, l2 % n2] += 1
        elif (osc_index, n) == (0, n1):
            first[l1 % n1, l2] += 1
        else:
            base_steps += 1
    return MultiPunchCard(orders=(n1, n2), first_heights=first,
                          second_heights=second, base_steps=base_steps)


def two_oscillator_plan(target: TargetState, orders: tuple, budget: CouplingBudget):
    """(steps, time) of the protocol ftp_schedule compiles for a target of
    any number of oscillators at one order each: one step per kill of its
    plan, each costing a drive and an exchange pi-pulse."""
    plan = kill_plan(support(target.amplitudes), orders)
    return len(plan), sum(_kill_time(budget, n, src[osc_index] + n)
                          for osc_index, src, n, _ in plan)


def scaling_table(orders, budgets, k_range) -> list:
    """Rows (K, n, omega, g_n, T_seconds) over the requested grid.

    budgets: iterable of CouplingBudget; k_range: iterable of step counts.
    Orders whose coupling is missing from a budget are skipped.
    """
    rows = []
    for budget in budgets:
        for n in orders:
            if n not in budget.g:
                continue
            for K in k_range:
                rows.append((K, n, budget.omega, budget.g[n],
                             time_symmetric(K, n, budget)))
    return rows


def scaling_table_csv(rows) -> str:
    lines = ["K,n,omega_radps,g_radps,T_ns"]
    for K, n, om, g, t in rows:
        lines.append(f"{K},{n},{om:.12g},{g:.12g},{t * 1e9:.12g}")
    return "\n".join(lines) + "\n"
