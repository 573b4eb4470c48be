"""Open-system replay of pulse schedules on a circuit-QED model.

The circuit Hamiltonian keeps, besides the wanted two-photon exchange, the
spurious terms that survive the circuit expansion: a cubic oscillator
nonlinearity, a qubit-state-dependent oscillator drive, and a transverse
qubit-oscillator coupling. Evolution happens in the interaction picture of
the bare qubit and oscillator, where every normal-ordered monomial carries
an explicit e^{i f t} phase; the generator is assembled once as a list of
(matrix, frequency) pairs and summed with a phase vector at each time.

Dissipation is zero-temperature Lindblad: qubit relaxation and dephasing,
oscillator relaxation and dephasing. Rates are plain inverse seconds. The
dissipators act in closed form on the (qubit, Fock) index grid: their
diagonal terms (the -1/2 {L'L, rho} parts and both dephasings) fold into
one real mask multiplied into rho, and the two jumps are slice updates
(the |e><e| block onto |g><g|; sqrt(n+1) sqrt(m+1) rho[n+1, m+1] onto
rho[n, m]). Only the commutator with H(t) takes matrix products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as _iproduct

import numpy as np
from scipy.integrate import RK45

from .fockspace import QUBIT_E, QUBIT_G, fidelity, make_space, wigner

TWOPI = 2.0 * math.pi


@dataclass(frozen=True)
class CircuitParams:
    """Circuit frequencies and couplings (rad/s)."""

    omega_q: float = TWOPI * 10e9
    omega_o: float = TWOPI * 5e9
    g2: float = TWOPI * 25e6
    g_e1: float = TWOPI * 1.08e9
    g_e2: float = TWOPI * 1.34e9
    g_e3: float = TWOPI * 20e6
    g_e4: float = TWOPI * 10e6
    g_e5: float = TWOPI * 20e6
    g_c: float = TWOPI * 30e6

    def __post_init__(self):
        for name in ("omega_q", "omega_o", "g2", "g_e1", "g_e2", "g_e3",
                     "g_e4", "g_e5", "g_c"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class NoiseRates:
    """Lindblad rates in 1/s: relaxation and pure dephasing for qubit and oscillator."""

    gamma_q_r: float = 20e3
    gamma_o_r: float = 20e3
    gamma_q_phi: float = 110e3
    gamma_o_phi: float = 110e3

    def __post_init__(self):
        for name in ("gamma_q_r", "gamma_o_r", "gamma_q_phi", "gamma_o_phi"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


class IntegrationError(RuntimeError):
    """Raised when the master-equation integrator fails to advance."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


# ---------------------------------------------------------------------------
# key = value config files


_PARAM_KEYS = {
    "omega_q": "omega_q", "omega_o": "omega_o", "g_2": "g2", "g2": "g2",
    "g_e1": "g_e1", "g_e2": "g_e2", "g_e3": "g_e3", "g_e4": "g_e4",
    "g_e5": "g_e5", "g_c": "g_c",
}
_RATE_KEYS = {
    "gamma_q_r": "gamma_q_r", "gamma_o_r": "gamma_o_r",
    "gamma_q_phi": "gamma_q_phi", "gamma_o_phi": "gamma_o_phi",
}
_UNIT = {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9}


def _parse_kv(path):
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {raw.strip()!r}")
            key, val = (p.strip() for p in line.split("=", 1))
            out[key.lower()] = float(val)
    return out


def _split_unit(key):
    for suffix, scale in _UNIT.items():
        if key.endswith("_" + suffix):
            return key[: -len(suffix) - 1], scale
    if key.endswith("_radps"):
        return key[:-6], None  # already rad/s (or 1/s for rates)
    raise ValueError(f"config key {key!r} has no recognized unit suffix")


def load_params(path) -> CircuitParams:
    """Read circuit parameters from a key = value file.

    Keys are the parameter names with a unit suffix (omega_q_ghz,
    g_e4_mhz, ...). Frequency units are cycles, converted to rad/s with a
    2 pi factor; *_radps values are taken as-is.
    """
    kw = {}
    for key, val in _parse_kv(path).items():
        base, scale = _split_unit(key)
        if base not in _PARAM_KEYS:
            raise ValueError(f"unknown circuit parameter {key!r}")
        kw[_PARAM_KEYS[base]] = val * scale * TWOPI if scale is not None else val
    return CircuitParams(**kw)


def load_rates(path) -> NoiseRates:
    """Read Lindblad rates from a key = value file. Rates are plain 1/s
    (a 20 kHz entry means 2e4 1/s, no 2 pi factor)."""
    kw = {}
    for key, val in _parse_kv(path).items():
        base, scale = _split_unit(key)
        if base not in _RATE_KEYS:
            raise ValueError(f"unknown rate {key!r}")
        kw[_RATE_KEYS[base]] = val * (scale if scale is not None else 1.0)
    return NoiseRates(**kw)


# ---------------------------------------------------------------------------
# interaction-picture generator


def _ladder(d):
    a = np.zeros((d, d), dtype=complex)
    for k in range(1, d):
        a[k - 1, k] = math.sqrt(k)
    return a


def _poly_parts(factors, d):
    """Expand a product of ladder factors into (frequency, matrix) parts.

    Each factor is [(matrix, frequency), ...]; the product distributes and
    the parts group by net oscillation frequency.
    """
    parts = {}
    for combo in _iproduct(*factors):
        mat = np.eye(d, dtype=complex)
        freq = 0.0
        for m, f in combo:
            mat = mat @ m
            freq += f
        if freq in parts:
            parts[freq] += mat
        else:
            parts[freq] = mat
    return sorted(parts.items(), key=lambda kv: kv[0])


class InteractionPictureGenerator:
    """Precomputed term list for the circuit Hamiltonian in the frame of
    H0 = (omega_q/2) sigma_z + omega_o a'a.

    Terms are split into the wanted exchange part (proportional to g2,
    whose phase can be set per pulse) and everything else.
    """

    def __init__(self, params: CircuitParams, cutoff: int):
        self.params = params
        self.cutoff = cutoff
        d = cutoff
        a = _ladder(d)
        ad = a.conj().T
        i2 = np.eye(2, dtype=complex)
        sz = np.diag([1.0, -1.0]).astype(complex)  # |e><e| - |g><g|
        s_plus = np.zeros((2, 2), dtype=complex)
        s_plus[QUBIT_E, QUBIT_G] = 1.0
        s_minus = s_plus.conj().T

        wq, wo = params.omega_q, params.omega_o
        x = [(ad, wo), (a, -wo)]           # a' e^{i wo t} + a e^{-i wo t}
        x_minus = [(ad, wo), (-a, -wo)]    # a' e^{i wo t} - a e^{-i wo t}

        base = []
        for f, m in _poly_parts([x, x, x], d):
            base.append((-params.g_e4 * np.kron(i2, m), f))
        for f, m in _poly_parts([x], d):
            base.append((-params.g_e5 * np.kron(sz, m), f))
        for f, m in _poly_parts([x_minus], d):
            base.append((-params.g_c * np.kron(s_plus, m), f + wq))
            base.append((params.g_c * np.kron(s_minus, m), f - wq))
        exch = []
        for f, m in _poly_parts([x, x], d):
            exch.append((params.g2 * np.kron(s_plus, m), f + wq))
            exch.append((params.g2 * np.kron(s_minus, m), f - wq))

        self._base_m = np.array([m for m, _ in base])
        self._base_f = np.array([f for _, f in base])
        self._exch_m = np.array([m for m, _ in exch])
        self._exch_f = np.array([f for _, f in exch])
        self._exch_is_plus = np.array(
            [k % 2 == 0 for k in range(len(exch))], dtype=bool)

    def __call__(self, t: float, exchange_phase: float = 0.0) -> np.ndarray:
        """H_I(t); exchange_phase multiplies the sigma+ exchange terms by
        e^{i phase} (and sigma- by the conjugate)."""
        h = np.tensordot(np.exp(1j * self._base_f * t), self._base_m, axes=1)
        ph = np.exp(1j * self._exch_f * t)
        if exchange_phase:
            rot = np.where(self._exch_is_plus,
                           np.exp(1j * exchange_phase),
                           np.exp(-1j * exchange_phase))
            ph = ph * rot
        h = h + np.tensordot(ph, self._exch_m, axes=1)
        # analytically Hermitian by pairing; symmetrize away rounding dust
        return 0.5 * (h + h.conj().T)


def hamiltonian_interaction_picture(params: CircuitParams, t: float,
                                    cutoff: int = 30) -> np.ndarray:
    """The circuit Hamiltonian at time t in the interaction picture."""
    return InteractionPictureGenerator(params, cutoff)(t)


# ---------------------------------------------------------------------------
# Lindblad integration


def lindblad_evolve(rho0: np.ndarray, hamiltonian, rates: NoiseRates,
                    duration: float, rtol: float = 1e-8, atol: float = 1e-10,
                    max_step: float = None) -> np.ndarray:
    """Integrate d rho/dt = -i[H(t), rho] + dissipators over [0, duration].

    hamiltonian: callable t -> matrix (or a constant matrix). The result is
    symmetrized; trace preservation to 1e-8 is asserted.
    """
    rho0 = np.asarray(rho0)
    if rho0.ndim != 2 or rho0.shape[0] != rho0.shape[1]:
        raise ValueError(f"rho0 must be a square matrix, got shape {rho0.shape}")
    dim = rho0.shape[0]
    if dim % 2:
        raise ValueError(f"rho0 dimension {dim} is odd; expected 2 * cutoff")
    cutoff = dim // 2
    if not callable(hamiltonian):
        h_const = np.asarray(hamiltonian, dtype=complex)
        if h_const.shape != rho0.shape:
            raise ValueError(f"hamiltonian shape {h_const.shape} does not match "
                             f"rho0 shape {rho0.shape}")
        h_of_t = lambda t: h_const
    else:
        h_of_t = hamiltonian

    # Diagonal parts of all four dissipators as one mask on (i, j): the
    # -1/2 {L'L, rho} terms, qubit dephasing and oscillator dephasing.
    n = np.tile(np.arange(cutoff, dtype=float), 2)
    s = np.where(np.arange(dim) // cutoff == QUBIT_E, 1.0, -1.0)  # sigma_z
    pe = 0.5 * (s + 1.0)
    mask = (-0.5 * rates.gamma_q_r * np.add.outer(pe, pe)
            + 0.5 * rates.gamma_q_phi * (np.outer(s, s) - 1.0)
            - 0.5 * rates.gamma_o_r * np.add.outer(n, n)
            - 0.5 * rates.gamma_o_phi * np.subtract.outer(n, n) ** 2)
    # Jumps: sigma- copies |e><e| onto |g><g|; a moves rho[n+1, m+1] to [n, m].
    e = slice(QUBIT_E * cutoff, (QUBIT_E + 1) * cutoff)
    g = slice(QUBIT_G * cutoff, (QUBIT_G + 1) * cutoff)
    root = np.sqrt(np.arange(1.0, cutoff))
    w_osc = rates.gamma_o_r * root[:, None, None] * root

    def rhs(t, y):
        rho = y.reshape(dim, dim)
        h = h_of_t(t)
        dr = -1j * (h @ rho - rho @ h)
        dr += mask * rho
        dr[g, g] += rates.gamma_q_r * rho[e, e]
        dr.reshape(2, cutoff, 2, cutoff)[:, :-1, :, :-1] += (
            w_osc * rho.reshape(2, cutoff, 2, cutoff)[:, 1:, :, 1:])
        return dr.ravel()

    if duration == 0:
        return rho0.copy()
    kw = {"rtol": rtol, "atol": atol}
    if max_step is not None:
        kw["max_step"] = max_step
    # step the integrator directly: only the current rho is kept, not one
    # per accepted step
    solver = RK45(rhs, 0.0, rho0.ravel().astype(complex), duration, **kw)
    message = None
    while solver.status == "running":
        message = solver.step()
    if solver.status == "failed":
        raise IntegrationError(
            f"master-equation integration failed at t = {solver.t:.3e} s: "
            f"{message}", t=solver.t)
    rho = solver.y.reshape(dim, dim)
    rho = 0.5 * (rho + rho.conj().T)
    tr = np.trace(rho).real
    if abs(tr - np.trace(rho0).real) > 1e-8:
        raise IntegrationError(f"trace drifted to {tr}", t=duration)
    return rho


def run_open_protocol(schedule, params: CircuitParams = None,
                      rates: NoiseRates = None, cutoff: int = 30,
                      target=None, rtol: float = 1e-8, atol: float = 1e-10,
                      njc_max_step: float = 1e-11):
    """Replay a compiled schedule on the open circuit model.

    The replay starts from schedule.initial. Drive steps evolve under the
    bare qubit drive alone; order-2 exchange steps evolve under the full
    interaction-picture circuit Hamiltonian, with negative areas folded
    into a pi coupling phase. Returns (rho, fidelity) where fidelity is
    sqrt(<target| rho |target>) against the supplied target vector
    (oscillator amplitudes, qubit in ground), or None when no target is
    given.
    """
    params = params or CircuitParams()
    rates = rates or NoiseRates()
    if schedule.budget is None:
        raise ValueError("schedule needs a coupling budget for step durations")
    if len(schedule.initial) != 2:
        raise ValueError("open-system replay handles single-oscillator schedules")
    qubit0, level0 = schedule.initial
    if not 0 <= level0 < cutoff:
        raise ValueError(f"initial Fock level {level0} is outside cutoff {cutoff}")
    omega = schedule.budget.omega
    gen = InteractionPictureGenerator(params, cutoff)
    dim = 2 * cutoff
    sp2 = np.zeros((2, 2), dtype=complex)
    sp2[QUBIT_E, QUBIT_G] = 1.0
    io = np.eye(cutoff, dtype=complex)

    rho = np.zeros((dim, dim), dtype=complex)
    i0 = qubit0 * cutoff + level0
    rho[i0, i0] = 1.0

    for step in schedule.steps:
        if step.kind == "drive":
            theta = step.phase + (math.pi if step.area < 0 else 0.0)
            h = omega * (np.kron(sp2, io) * np.exp(1j * theta)
                         + np.kron(sp2.conj().T, io) * np.exp(-1j * theta))
            rho = lindblad_evolve(rho, h, rates, abs(step.area) / omega,
                                  rtol=rtol, atol=atol)
        elif step.kind == "njc":
            if step.order != 2:
                raise ValueError(
                    f"open-system replay implements order 2 only, got {step.order}")
            phase = step.phase + (math.pi if step.area < 0 else 0.0)
            h = lambda t, _p=phase: gen(t, exchange_phase=_p)
            rho = lindblad_evolve(rho, h, rates, abs(step.area) / params.g2,
                                  rtol=rtol, atol=atol, max_step=njc_max_step)
        else:
            raise ValueError(f"unknown step kind {step.kind!r}")

    fid = None
    if target is not None:
        tvec = np.zeros(dim, dtype=complex)
        tamps = np.asarray(target.amplitudes if hasattr(target, "amplitudes")
                           else target, dtype=complex).reshape(-1)
        m = min(len(tamps), cutoff)
        g0 = QUBIT_G * cutoff
        tvec[g0: g0 + m] = tamps[:m]
        fid = fidelity(rho, tvec)
    return rho, fid


def wigner_comparison(schedule, params: CircuitParams, rates: NoiseRates,
                      xs, ps, cutoff: int = 30, **kw):
    """Wigner function of the ideal unitary replay versus the open-system
    replay on the same grid. Returns (ideal grid, open grid, max |diff|)."""
    from .fockspace import ptrace_qubit
    from .synthesis import apply_schedule

    if schedule.space.n_osc != 1:
        raise ValueError("wigner_comparison handles single-oscillator schedules")
    pure = apply_schedule(schedule, schedule.space.basis_state(*schedule.initial))
    rho_ideal = ptrace_qubit(schedule.space, pure)
    w_ideal = wigner(rho_ideal, xs, ps)

    rho_open, _ = run_open_protocol(schedule, params, rates, cutoff=cutoff, **kw)
    big = make_space([cutoff])
    rho_osc = ptrace_qubit(big, rho_open)
    w_open = wigner(rho_osc, xs, ps)
    dev = float(np.max(np.abs(w_ideal.values - w_open.values)))
    return w_ideal, w_open, dev


def density_matrix_to_csv(rho: np.ndarray, threshold: float = 1e-14) -> str:
    """CSV rows row,col,re,im for entries above the magnitude threshold."""
    lines = ["row,col,re,im"]
    rows, cols = np.nonzero(np.abs(rho) > threshold)
    for r, c in zip(rows, cols):
        v = rho[r, c]
        lines.append(f"{r},{c},{v.real:.12g},{v.imag:.12g}")
    return "\n".join(lines) + "\n"
