"""Step counting and preparation-time estimates.

The punch card arranges Fock occupancy by symmetry column: level l sits in
column k = l mod n at row j = l div n. Column height h_k is the highest
occupied row, which is exactly the number of climbing steps that column
costs. Every time estimate follows the same accounting: pi/Omega per drive
plus pi/(g_n * swap factor) per exchange pulse, the swap factor being
xi(j n + k, n) for the j-th swap of column k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gates import xi
from .synthesis import CouplingBudget
from .targets import TargetState

PI = math.pi


@dataclass
class PunchCard:
    """Occupancy grid of a single-oscillator target, arranged by symmetry column."""

    order: int
    occupancy: np.ndarray = field(repr=False)  # bool, [row j, column k]
    heights: tuple = ()
    base: tuple = ()  # row-0 occupancy per column

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
    """Two-oscillator occupancy bookkeeping for the two-stage protocol.

    first_heights[k1][k2]: oscillator-1 column heights with oscillator 2
    sitting at base level k2 (an n1 x n2 matrix). second_heights[l1][k2]:
    oscillator-2 column heights at fixed oscillator-1 Fock level l1 (one row
    per populated oscillator-1 level, 0..L1).
    """

    orders: tuple
    first_heights: np.ndarray
    second_heights: np.ndarray
    base_steps: int  # J_{n1,n2}

    @property
    def total_steps(self) -> int:
        return int(self.base_steps + self.first_heights.sum() + self.second_heights.sum())


def punch_card(target: TargetState, n: int, threshold: float = 1e-12) -> PunchCard:
    """Punch card of a single-oscillator target for interaction order n."""
    amps = np.asarray(target.amplitudes if isinstance(target, TargetState) else target)
    occ_levels = np.nonzero(np.abs(amps) > threshold)[0]
    top_row = max((int(l) // n for l in occ_levels), default=0)
    grid = np.zeros((top_row + 1, n), dtype=bool)
    for l in occ_levels:
        grid[int(l) // n, int(l) % n] = True
    heights = []
    for k in range(n):
        occ_rows = np.nonzero(grid[:, k])[0]
        heights.append(int(occ_rows[-1]) if len(occ_rows) else 0)
    return PunchCard(order=n, occupancy=grid, heights=tuple(heights),
                     base=tuple(bool(b) for b in grid[0]))


def base_step_count(n: int, available_orders=None) -> int:
    """Steps J_n to prepare the base superposition over Fock 0..n-1.

    Greedy over the usable interaction orders: each step of order m raises
    the top reached level by m. By default orders {1, 2} are considered,
    but an order m > 1 is only usable when it fits twice inside the base
    span (2m <= n), which keeps the count at n-1 for small n (the pure
    linear ladder) and engages the two-photon shortcut from n = 4 up.
    """
    if n < 1:
        raise ValueError("order must be positive")
    if available_orders is None:
        available_orders = tuple(m for m in (1, 2) if m == 1 or 2 * m <= n)
    j = 0
    remaining = n - 1
    for m in sorted(available_orders, reverse=True):
        while remaining >= m:
            remaining -= m
            j += 1
    if remaining:
        raise ValueError(f"orders {available_orders} cannot reach all base levels")
    return j


def steps_arbitrary(card: PunchCard, j_n: int = None):
    """(N_arb, K_arb): exact step count and the dense upper bound."""
    n = card.order
    if j_n is None:
        j_n = base_step_count(n)
    n_arb = j_n + sum(card.heights)
    top_level = 0
    for k in range(n):
        if card.heights[k]:
            top_level = max(top_level, card.heights[k] * n + k)
        elif card.base[k]:
            top_level = max(top_level, k)
    k_arb = j_n + max(top_level, n - 1) - (n - 1)
    return n_arb, k_arb


def time_symmetric(K: int, n: int, budget: CouplingBudget) -> float:
    """Preparation-time bound for a K-step single-column ladder of order n:
    K drive half-periods plus K exchange swaps at increasing rates."""
    if K < 0:
        raise ValueError("step count must be non-negative")
    g = budget.g[n]
    t = K * PI / budget.omega
    for j in range(1, K + 1):
        t += PI / (g * xi(j * n, n))
    return t


def time_le(L: int, budget: CouplingBudget, drive_term: bool = True) -> float:
    """Linear-ladder time used in the fine-tune-vs-linear comparisons.

    Matches the published worked values: L drive half-periods (omitted when
    drive_term is False) plus swaps at rates g1*sqrt(j+1) for j = 1..L.
    """
    if L < 0:
        raise ValueError("L must be non-negative")
    g1 = budget.g[1]
    t = L * PI / budget.omega if drive_term else 0.0
    for j in range(1, L + 1):
        t += PI / (g1 * math.sqrt(j + 1))
    return t


def time_ftp(card: PunchCard, budget: CouplingBudget, base_time: float = None) -> float:
    """Fine-tune-then-populate time: base preparation plus per-column climbs.

    base_time defaults to the order-1 symmetric ladder time with K = n
    steps, which is the accounting the reference climb/ladder comparisons
    use.
    """
    n = card.order
    if base_time is None:
        base_time = time_symmetric(n, 1, budget) if n > 1 else 0.0
    g = budget.g[n]
    t = base_time
    for k in range(n):
        h = card.heights[k]
        t += h * PI / budget.omega
        for j in range(1, h + 1):
            t += PI / (g * xi(j * n + k, n))
    return t


def time_two_oscillator(L1: int, n1: int, L2: int, n2: int, budget: CouplingBudget) -> float:
    """Dense upper-bound time for the two-oscillator ladder protocol:
    populate oscillator 1 (L1 steps), then every oscillator-2 column over
    L1+1 oscillator-1 levels (L2 steps each)."""
    t = (L1 + (L1 + 1) * L2) * PI / budget.omega
    for j in range(1, L1 + 1):
        t += PI / (budget.g[n1] * xi(j * n1, n1))
    for j in range(1, L2 + 1):
        t += (L1 + 1) * PI / (budget.g[n2] * xi(j * n2, n2))
    return t


def multi_punch_card(target: TargetState, orders: tuple, threshold: float = 1e-12) -> MultiPunchCard:
    """Build the two-stage occupancy card of a two-oscillator target."""
    n1, n2 = orders
    amps = np.asarray(target.amplitudes)
    if amps.ndim != 2:
        raise ValueError("multi_punch_card needs a two-oscillator target")
    occ = np.abs(amps) > threshold
    occ_l1 = np.nonzero(occ.any(axis=1))[0]
    l1_top = int(occ_l1[-1]) if len(occ_l1) else 0

    first = np.zeros((n1, n2), dtype=int)
    for k1 in range(n1):
        for k2 in range(n2):
            h = 0
            j = 1
            while j * n1 + k1 < occ.shape[0]:
                if k2 < occ.shape[1] and occ[j * n1 + k1, k2]:
                    h = j
                j += 1
            first[k1, k2] = h

    second = np.zeros((l1_top + 1, n2), dtype=int)
    for l1 in range(l1_top + 1):
        for k2 in range(n2):
            h = 0
            j = 1
            while j * n2 + k2 < occ.shape[1]:
                if occ[l1, j * n2 + k2]:
                    h = j
                j += 1
            second[l1, k2] = h

    base_card = multi_base_steps(occ, n1, n2)
    return MultiPunchCard(orders=(n1, n2), first_heights=first,
                          second_heights=second, base_steps=base_card)


def multi_base_steps(occ: np.ndarray, n1: int, n2: int) -> int:
    """J_{n1,n2}: linear-interaction steps to prepare the two-mode base state
    (support restricted to levels below n1 and n2), counted with the same
    two-stage rule at orders (1, 1)."""
    if n1 == 1 and n2 == 1:
        return 0
    base = occ[:n1, :n2]
    if not base.any():
        return 0
    occ_l1 = np.nonzero(base.any(axis=1))[0]
    l1_top = int(occ_l1[-1]) if len(occ_l1) else 0
    steps = l1_top  # oscillator-1 ladder
    for l1 in range(l1_top + 1):
        occ_l2 = np.nonzero(base[l1])[0]
        steps += int(occ_l2[-1]) if len(occ_l2) else 0
    return steps


def time_ftp_two_oscillator(card: MultiPunchCard, budget: CouplingBudget,
                            base_time: float) -> float:
    """Card-based two-oscillator time: base state (base_time, its
    preparation time), oscillator-1 climbs at the oscillator-2 base levels,
    then oscillator-2 climbs at every populated oscillator-1 level."""
    n1, n2 = card.orders
    t = base_time
    for k1 in range(card.first_heights.shape[0]):
        for k2 in range(card.first_heights.shape[1]):
            h = int(card.first_heights[k1, k2])
            t += h * PI / budget.omega
            for j in range(1, h + 1):
                t += PI / (budget.g[n1] * xi(j * n1 + k1, n1))
    for l1 in range(card.second_heights.shape[0]):
        for k2 in range(card.second_heights.shape[1]):
            h = int(card.second_heights[l1, k2])
            t += h * PI / budget.omega
            for j in range(1, h + 1):
                t += PI / (budget.g[n2] * xi(j * n2 + k2, n2))
    return t


def two_oscillator_plan(target: TargetState, orders: tuple, budget: CouplingBudget):
    """(steps, time) for the card-based two-oscillator protocol, with exact
    base-state swap accounting from the target's occupancy."""
    n1, n2 = orders
    card = multi_punch_card(target, orders)
    occ = np.abs(np.asarray(target.amplitudes)) > 1e-12
    base = occ[:n1, :n2]
    base_time = 0.0
    if (n1, n2) != (1, 1) and base.any():
        occ_l1 = np.nonzero(base.any(axis=1))[0]
        l1_top = int(occ_l1[-1]) if len(occ_l1) else 0
        base_time += card.base_steps * PI / budget.omega
        for j in range(1, l1_top + 1):
            base_time += PI / (budget.g[1] * math.sqrt(j))
        for l1 in range(l1_top + 1):
            occ_l2 = np.nonzero(base[l1])[0]
            h = int(occ_l2[-1]) if len(occ_l2) else 0
            for j in range(1, h + 1):
                base_time += PI / (budget.g[1] * math.sqrt(j))
    return card.total_steps, time_ftp_two_oscillator(card, budget, base_time=base_time)


def steps_two_oscillator_bound(n1: int, L1: int, n2: int, L2: int, j_base: int = None) -> int:
    """Dense upper bound K_arb(n1,L1;n2,L2) on the two-oscillator step count."""
    if j_base is None:
        j_base = base_step_count(n1) + base_step_count(n2)
    return j_base + n2 * (L1 - (n1 - 1)) + (L1 + 1) * (L2 - (n2 - 1))


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
