"""Open-system replay of pulse schedules on a circuit-QED model.

The circuit Hamiltonian keeps, besides the wanted two-photon exchange, the
spurious terms that survive the circuit expansion: a cubic oscillator
nonlinearity, a qubit-state-dependent oscillator drive, and a transverse
qubit-oscillator coupling. Schedules live in the interaction picture of the
bare qubit and oscillator, H0 = (omega_q/2) sigma_z + omega_o a'a, where an
exchange pulse sees H_I(t) = e^{i H0 t} V e^{-i H0 t} for the constant
lab-frame coupling V built from x = a + a'.

Dissipation is zero-temperature Lindblad: qubit relaxation and dephasing,
oscillator relaxation and dephasing. Rates are plain inverse seconds. The
dissipators act in closed form on the (qubit, Fock) index grid: their
diagonal terms (the -1/2 {L'L, rho} parts and both dephasings) fold into
one real mask multiplied into rho, and the two jumps are slice updates
(the |e><e| block onto |g><g|; sqrt(n+1) sqrt(m+1) rho[n+1, m+1] onto
rho[n, m]).

The dissipators commute with the superoperator of H0, so each pulse is one
constant Lindbladian in the lab frame. run_open_protocol evolves it in
split steps: one eigh of H0 + V per pulse gives the exact step unitary,
Strang steps interleave it with second-order Taylor steps of the
dissipators, step doubling with Richardson extrapolation meets rtol and
atol, and a phase returns rho to the interaction frame. lindblad_evolve
integrates the interaction-frame master equation with RK45; it is the
oracle the split steps are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fockspace import QUBIT_E, QUBIT_G, _single_ladder, fidelity, make_space, wigner
from .synthesis import _load_target

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


def _read_kv_file(path) -> dict:
    """{lower-case key: value text} of a key = value file; # starts a
    comment, blank lines are skipped, a line without = raises ValueError.
    Each caller applies its own units."""
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {raw.strip()!r}")
            key, val = (p.strip() for p in line.split("=", 1))
            out[key.lower()] = val
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
    for key, val in _read_kv_file(path).items():
        base, scale = _split_unit(key)
        if base not in _PARAM_KEYS:
            raise ValueError(f"unknown circuit parameter {key!r}")
        val = float(val)
        kw[_PARAM_KEYS[base]] = val * scale * TWOPI if scale is not None else val
    return CircuitParams(**kw)


def load_rates(path) -> NoiseRates:
    """Read Lindblad rates from a key = value file. Rates are plain 1/s
    (a 20 kHz entry means 2e4 1/s, no 2 pi factor)."""
    kw = {}
    for key, val in _read_kv_file(path).items():
        base, scale = _split_unit(key)
        if base not in _RATE_KEYS:
            raise ValueError(f"unknown rate {key!r}")
        kw[_RATE_KEYS[base]] = float(val) * (scale if scale is not None else 1.0)
    return NoiseRates(**kw)


# ---------------------------------------------------------------------------
# interaction-picture generator


class InteractionPictureGenerator:
    """The circuit Hamiltonian in the frame of H0 = (omega_q/2) sigma_z +
    omega_o a'a: H_I(t) = e^{i H0 t} V e^{-i H0 t}, with the lab-frame
    coupling V built from x = a + a'.

    V is the wanted exchange part g2 (sigma+ + sigma-) x^2, whose phase can
    be set per pulse, plus the spurious rest: -g_e4 x^3, -g_e5 sigma_z x and
    -g_c (sigma+ - sigma-)(a' - a). h0 is the diagonal of H0.
    """

    def __init__(self, params: CircuitParams, cutoff: int):
        self.params = params
        self.cutoff = cutoff
        a = _single_ladder(cutoff)
        ad = a.conj().T
        x = a + ad
        i2 = np.eye(2, dtype=complex)
        sz = np.diag([1.0, -1.0]).astype(complex)  # |e><e| - |g><g|
        s_plus = np.zeros((2, 2), dtype=complex)
        s_plus[QUBIT_E, QUBIT_G] = 1.0
        s_minus = s_plus.conj().T

        self.h0 = np.add.outer(0.5 * params.omega_q * np.diag(sz).real,
                               params.omega_o * np.arange(cutoff)).ravel()
        self._base = (-params.g_e4 * np.kron(i2, x @ x @ x)
                      - params.g_e5 * np.kron(sz, x)
                      - params.g_c * np.kron(s_plus - s_minus, ad - a))
        self._exchange_plus = params.g2 * np.kron(s_plus, x @ x)

    def __call__(self, t: float, exchange_phase: float = 0.0) -> np.ndarray:
        """H_I(t); exchange_phase multiplies the sigma+ exchange part by
        e^{i phase} (and sigma- by the conjugate)."""
        plus = self._exchange_plus * np.exp(1j * exchange_phase)
        frame = np.exp(1j * self.h0 * t)
        return frame[:, None] * (self._base + plus + plus.conj().T) * frame.conj()


# ---------------------------------------------------------------------------
# Lindblad integration


def _dissipator(cutoff: int, rates: NoiseRates):
    """D(rho) of the four zero-temperature dissipators on the (qubit, Fock)
    index grid of dimension 2 * cutoff, as a function of rho."""
    dim = 2 * cutoff
    # Diagonal parts of all four dissipators as one mask on (i, j): the
    # -1/2 {L'L, rho} terms, qubit dephasing and oscillator dephasing.
    n = np.tile(np.arange(cutoff, dtype=float), 2)
    s = np.where(np.arange(dim) // cutoff == QUBIT_E, 1.0, -1.0)  # sigma_z
    pe = 0.5 * (s + 1.0)
    mask = (-0.5 * rates.gamma_q_r * np.add.outer(pe, pe)
            + 0.5 * rates.gamma_q_phi * (np.outer(s, s) - 1.0)
            - 0.5 * rates.gamma_o_r * np.add.outer(n, n)
            - 0.5 * rates.gamma_o_phi * np.subtract.outer(n, n) ** 2)
    # Jumps: sigma- copies |e><e| onto |g><g|; a moves rho[n+1, m+1] to
    # [n, m], a shift by dim + 1 in the flat index, weighted zero where n or
    # m is the top level (the shift would cross into the next qubit block).
    e = slice(QUBIT_E * cutoff, (QUBIT_E + 1) * cutoff)
    g = slice(QUBIT_G * cutoff, (QUBIT_G + 1) * cutoff)
    root = np.where(n < cutoff - 1, np.sqrt(n + 1.0), 0.0)
    w_osc = (rates.gamma_o_r * np.outer(root, root)).ravel()[: -(dim + 1)]

    def dissipator(rho):
        out = mask * rho
        out[g, g] += rates.gamma_q_r * rho[e, e]
        out.ravel()[: -(dim + 1)] += w_osc * rho.ravel()[dim + 1:]
        return out

    # D is triangular in excitation number, so its eigenvalues are the mask
    dissipator.max_rate = float(np.abs(mask).max())
    return dissipator


def lindblad_evolve(rho0: np.ndarray, hamiltonian, rates: NoiseRates,
                    duration: float, rtol: float = 1e-8, atol: float = 1e-10,
                    max_step: float = None) -> np.ndarray:
    """Integrate d rho/dt = -i[H(t), rho] + dissipators over [0, duration]
    with RK45.

    hamiltonian: callable t -> matrix (or a constant matrix). The result is
    symmetrized; trace preservation to 1e-8 is asserted.
    """
    # imported here so that loading the library does not load scipy
    from scipy.integrate import RK45

    rho0 = np.asarray(rho0)
    if rho0.ndim != 2 or rho0.shape[0] != rho0.shape[1]:
        raise ValueError(f"rho0 must be a square matrix, got shape {rho0.shape}")
    dim = rho0.shape[0]
    if dim % 2:
        raise ValueError(f"rho0 dimension {dim} is odd; expected 2 * cutoff")
    if not callable(hamiltonian):
        h_const = np.asarray(hamiltonian, dtype=complex)
        if h_const.shape != rho0.shape:
            raise ValueError(f"hamiltonian shape {h_const.shape} does not match "
                             f"rho0 shape {rho0.shape}")
        h_of_t = lambda t: h_const
    else:
        h_of_t = hamiltonian
    dissipator = _dissipator(dim // 2, rates)

    def rhs(t, y):
        rho = y.reshape(dim, dim)
        h = h_of_t(t)
        dr = dissipator(rho)
        dr -= 1j * (h @ rho - rho @ h)
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
    return _checked(solver.y.reshape(dim, dim), rho0, duration)


def _checked(rho, rho0, duration):
    """rho symmetrized, after checking that it is finite and kept the trace
    of rho0 to 1e-8."""
    if not np.isfinite(rho).all():
        raise IntegrationError(f"rho became non-finite by t = {duration:.3e} s",
                               t=duration)
    rho = 0.5 * (rho + rho.conj().T)
    tr = np.trace(rho).real
    if abs(tr - np.trace(rho0).real) > 1e-8:
        raise IntegrationError(f"trace drifted to {tr}", t=duration)
    return rho


# Strang steps per pulse beyond which step doubling gives up.
_MAX_STEPS = 2 ** 16


def _evolve_pulse(rho, h0, v, dissipator, duration, rtol, atol):
    """Evolve the interaction-frame rho for duration under
    H_I(t) = e^{i h0 t} v e^{-i h0 t} plus the dissipator.

    D commutes with the superoperator of diag(h0), so in the lab frame the
    pulse is the constant Lindbladian of H = diag(h0) + v. One eigh of H
    gives the exact step unitary U; N Strang steps
    rho <- e^{D dt/2} U rho U' e^{D dt/2} apply e^{D dt} as second-order
    Taylor steps, merging the half steps between unitaries, and a phase
    e^{i (h0_i - h0_j) T} returns rho to the interaction frame. N starts
    at the smallest count that samples the fastest frequency v carries in
    the h0 frame (coarser steps alias it) and keeps |D| dt <= 1 (the
    Taylor step is stable below 2), then doubles until
    max|S(2N) - S(N)| / 3 <= atol + rtol max|rho|; the Richardson value
    (4 S(2N) - S(N)) / 3 is returned with the list of step counts run.
    """
    energies, vecs = np.linalg.eigh(np.diag(h0) + v)
    rows, cols = np.nonzero(v)
    fastest = np.abs(h0[rows] - h0[cols]).max(initial=0.0)

    def dissipate(r, dt):
        k = dissipator(r)
        k *= dt
        k2 = dissipator(k)
        k2 *= 0.5 * dt
        k += r
        k += k2
        return k

    def sweep(n):
        dt = duration / n
        u = (vecs * np.exp(-1j * energies * dt)) @ vecs.conj().T
        uh = u.conj().T
        r = dissipate(rho, 0.5 * dt)
        for _ in range(n - 1):
            r = dissipate(u @ r @ uh, dt)
        r = dissipate(u @ r @ uh, 0.5 * dt)
        if not np.isfinite(r).all():
            raise IntegrationError(
                f"split-step rho became non-finite by t = {duration:.3e} s "
                f"at {n} steps", t=duration)
        return r

    n = max(1, math.ceil(max(fastest / math.pi, dissipator.max_rate) * duration))
    steps = []
    while n <= _MAX_STEPS:
        steps.append(n)
        fine = sweep(n)
        if len(steps) > 1 and (np.abs(fine - coarse).max() / 3
                               <= atol + rtol * np.abs(fine).max()):
            frame = np.exp(1j * h0 * duration)
            out = frame[:, None] * ((4 * fine - coarse) / 3) * frame.conj()
            return _checked(out, rho, duration), steps
        coarse, n = fine, 2 * n
    raise IntegrationError(
        f"step doubling did not meet rtol {rtol:g}, atol {atol:g} within "
        f"{_MAX_STEPS} steps over {duration:.3e} s", t=duration)


def run_open_protocol(schedule, params: CircuitParams = None,
                      rates: NoiseRates = None, cutoff: int = 30,
                      target=None, rtol: float = 1e-8, atol: float = 1e-10):
    """Replay a compiled schedule on the open circuit model.

    The replay starts from schedule.initial. Drive steps evolve under the
    bare qubit drive alone, so a number-selective drive raises ValueError
    naming its label; order-2 exchange steps evolve under the full
    interaction-picture circuit Hamiltonian, with negative areas folded
    into a pi coupling phase. The circuit model is exact-semantics
    physics: an exchange step turns every pair, and its selectivity label
    is ignored. Each pulse is one constant lab-frame Lindbladian, evolved
    in split steps by _evolve_pulse to rtol and atol. Returns (rho,
    fidelity) where fidelity is sqrt(<target| rho |target>) against the
    supplied target vector (oscillator amplitudes, qubit in ground), or
    None when no target is given. Zero padding past the cutoff is
    accepted; target support at or past the cutoff raises DimensionError.
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
    for step in schedule.steps:
        if step.kind == "drive" and step.selectivity is not None:
            raise ValueError("open-system replay has no number-selective drives; "
                             f"a drive selects Fock label {step.selectivity}")
    # a target that cannot load fails before any pulse is evolved
    tvec = None
    if target is not None:
        tvec = _load_target(make_space([cutoff]), getattr(target, "amplitudes", target))
    omega = schedule.budget.omega
    gen = InteractionPictureGenerator(params, cutoff)
    dissipator = _dissipator(cutoff, rates)
    dim = 2 * cutoff
    sp2 = np.zeros((2, 2), dtype=complex)
    sp2[QUBIT_E, QUBIT_G] = 1.0
    io = np.eye(cutoff, dtype=complex)
    no_frame = np.zeros(dim)

    rho = np.zeros((dim, dim), dtype=complex)
    i0 = qubit0 * cutoff + level0
    rho[i0, i0] = 1.0

    for step in schedule.steps:
        phase = step.phase + (math.pi if step.area < 0 else 0.0)
        if step.kind == "drive":
            h = omega * (np.kron(sp2, io) * np.exp(1j * phase)
                         + np.kron(sp2.conj().T, io) * np.exp(-1j * phase))
            rho, _ = _evolve_pulse(rho, no_frame, h, dissipator,
                                   abs(step.area) / omega, rtol, atol)
        elif step.kind == "njc":
            if step.order != 2:
                raise ValueError(
                    f"open-system replay implements order 2 only, got {step.order}")
            rho, _ = _evolve_pulse(rho, gen.h0, gen(0.0, exchange_phase=phase),
                                   dissipator, abs(step.area) / params.g2, rtol, atol)
        else:
            raise ValueError(f"unknown step kind {step.kind!r}")

    return rho, None if tvec is None else fidelity(rho, tvec)


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


def density_matrix_to_csv(rho: np.ndarray) -> str:
    """CSV rows row,col,re,im for entries of magnitude above 1e-14."""
    lines = ["row,col,re,im"]
    rows, cols = np.nonzero(np.abs(rho) > 1e-14)
    for r, c in zip(rows, cols):
        v = rho[r, c]
        lines.append(f"{r},{c},{v.real:.12g},{v.imag:.12g}")
    return "\n".join(lines) + "\n"
