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
rho[n, m]). Their exponential e^{D t} is closed-form as well: the jumps
summed to all orders (the oscillator's order l moves rho[n+l, m+l] onto
rho[n, m]), then the mask's exponential.

A drive acts on the qubit alone, so its Lindbladian splits into two
commuting factors, L_q x 1 + 1 x L_osc, and run_open_protocol evolves it
exactly: the 4x4 superoperator of the drive and the qubit dissipators is
exponentiated once per pulse and applied over the qubit indices, and the
oscillator's relaxation and dephasing act through their closed-form
exponential.

The dissipators commute with the superoperator of H0, so each exchange
pulse is one constant Lindbladian in the lab frame. run_open_protocol
evolves it in split steps: one eigh of H0 + V per pulse gives the exact
step unitary, Strang steps interleave it with the exact dissipator steps
e^{D dt}, step doubling with Richardson extrapolation meets rtol and
atol, and a phase returns rho to the interaction frame.
lindblad_evolve integrates the interaction-frame master equation with
RK45; it is the oracle both replays are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .fockspace import QUBIT_E, QUBIT_G, _single_ladder, fidelity, make_space
from .synthesis import _load_target

TWOPI = 2.0 * math.pi


@dataclass(frozen=True)
class CircuitParams:
    """Circuit frequencies and couplings (rad/s), each read by
    InteractionPictureGenerator."""

    omega_q: float = TWOPI * 10e9
    omega_o: float = TWOPI * 5e9
    g2: float = TWOPI * 25e6
    g_e4: float = TWOPI * 10e6
    g_e5: float = TWOPI * 20e6
    g_c: float = TWOPI * 30e6

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")


@dataclass(frozen=True)
class NoiseRates:
    """Lindblad rates in 1/s: relaxation and pure dephasing for qubit and oscillator."""

    gamma_q_r: float = 20e3
    gamma_o_r: float = 20e3
    gamma_q_phi: float = 110e3
    gamma_o_phi: float = 110e3

    def __post_init__(self):
        for f in fields(self):
            if not 0 <= getattr(self, f.name) < math.inf:
                raise ValueError(f"{f.name} must be finite and non-negative")


class IntegrationError(RuntimeError):
    """Raised when the master-equation integrator fails to advance."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


# ---------------------------------------------------------------------------
# key = value config files


_PARAM_KEYS = {"g_2": "g2"}  # config-file aliases of CircuitParams fields
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
        base = _PARAM_KEYS.get(base, base)
        if base not in {f.name for f in fields(CircuitParams)}:
            raise ValueError(f"unknown circuit parameter {key!r}")
        val = float(val)
        kw[base] = val * scale * TWOPI if scale is not None else val
    return CircuitParams(**kw)


def load_rates(path) -> NoiseRates:
    """Read Lindblad rates from a key = value file. Rates are plain 1/s
    (a 20 kHz entry means 2e4 1/s, no 2 pi factor)."""
    kw = {}
    for key, val in _read_kv_file(path).items():
        base, scale = _split_unit(key)
        if base not in {f.name for f in fields(NoiseRates)}:
            raise ValueError(f"unknown rate {key!r}")
        kw[base] = float(val) * (scale if scale is not None else 1.0)
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
    index grid of dimension 2 * cutoff, as a function of rho. Its exp(dt)
    returns the exact step rho -> e^{D dt} rho."""
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

    def exp(dt):
        """rho -> e^{D dt} rho. The qubit and oscillator factors commute;
        each sums its jumps to all orders and then decays by e^{mask dt}.
        The oscillator's order-l jump shifts rho by l (dim + 1), weighted
        p^l sqrt(C(n+l, l) C(m+l, l)) with p = 1 - e^{-gamma_o_r dt}, and
        orders are kept while the largest weight, at the top level, is
        above rounding. The qubit's jump moves 1 - e^{-gamma_q_r dt} of
        |e><e| onto |g><g|. Every weight is at most a binomial, so no rate
        overflows the step."""
        p = -math.expm1(-rates.gamma_o_r * dt)
        jumps = []
        weight = np.ones(cutoff)  # sqrt(p^l C(n+l, l)) for n < cutoff - l
        for l in range(1, cutoff):
            weight = weight[:-1] * np.sqrt(p * (np.arange(cutoff - l) + l) / l)
            if weight[-1] ** 2 < np.finfo(float).eps:
                break
            w = np.tile(np.append(weight, np.zeros(l)), 2)
            shift = l * (dim + 1)
            jumps.append((shift, np.outer(w, w).ravel()[:-shift].astype(complex)))
        to_g = -math.expm1(-rates.gamma_q_r * dt)
        # complex factors: real ones would be cast on every step
        decay = np.exp(mask * dt).astype(complex)

        def step(rho):
            out = rho.copy()
            flat, src = out.ravel(), rho.ravel()
            for shift, w in jumps:
                flat[:-shift] += w * src[shift:]
            out[g, g] += to_g * out[e, e]
            out *= decay
            return out

        return step

    dissipator.exp = exp
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
    H_I(t) = e^{i h0 t} v e^{-i h0 t} plus the dissipator: an exchange
    pulse (drives go through _evolve_drive).

    D commutes with the superoperator of diag(h0), so in the lab frame the
    pulse is the constant Lindbladian of H = diag(h0) + v. One eigh of H
    gives the exact step unitary U; N Strang steps
    rho <- e^{D dt/2} U rho U' e^{D dt/2} apply the exact dissipator step
    (dissipator.exp), merging the half steps between unitaries, and a phase
    e^{i (h0_i - h0_j) T} returns rho to the interaction frame. N starts
    at the smallest count that samples the fastest frequency v carries in
    the h0 frame (coarser steps alias it), then doubles until
    max|S(2N) - S(N)| / 3 <= atol + rtol max|rho|; the Richardson value
    (4 S(2N) - S(N)) / 3 is returned with the list of step counts run.
    """
    energies, vecs = np.linalg.eigh(np.diag(h0) + v)
    rows, cols = np.nonzero(v)
    fastest = np.abs(h0[rows] - h0[cols]).max(initial=0.0)

    def sweep(n):
        dt = duration / n
        u = (vecs * np.exp(-1j * energies * dt)) @ vecs.conj().T
        # one Newton-Schulz step: u is unitary to ~1e-15, and applied n
        # times that error would drift the trace
        u = 0.5 * u @ (3.0 * np.eye(len(u)) - u.conj().T @ u)
        uh = u.conj().T
        full, half = dissipator.exp(dt), dissipator.exp(0.5 * dt)
        r = half(rho)
        for _ in range(n - 1):
            r = full(u @ r @ uh)
        r = half(u @ r @ uh)
        if not np.isfinite(r).all():
            raise IntegrationError(
                f"split-step rho became non-finite by t = {duration:.3e} s "
                f"at {n} steps", t=duration)
        return r

    n = max(1, math.ceil(fastest / math.pi * duration))
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


def _expm_small(a):
    """e^a of a small square matrix: a Taylor series of degree 18 on a
    scaled to norm <= 1/2, squared back."""
    squarings = max(0, math.frexp(np.abs(a).sum(axis=1).max())[1] + 1)
    a = a / 2.0 ** squarings
    term = out = np.eye(len(a), dtype=complex)
    for k in range(1, 19):
        term = term @ a / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def _evolve_drive(rho, omega, phase, rates, duration):
    """Evolve rho for duration under the qubit drive
    omega (sigma+ e^{i phase} + sigma- e^{-i phase}) plus the dissipators.

    The drive touches the qubit alone, so the Lindbladian is
    L_q x 1 + 1 x L_osc with commuting factors. L_q, the drive with qubit
    relaxation and dephasing, is a 4x4 superoperator built column by
    column from the 2x2 basis matrices and exponentiated once; it acts on
    the qubit indices of rho reshaped (2, c, 2, c). e^{L_osc T} is the
    closed-form dissipator step of the oscillator rates alone.
    """
    cutoff = rho.shape[0] // 2
    h = np.zeros((2, 2), dtype=complex)
    h[QUBIT_E, QUBIT_G] = omega * np.exp(1j * phase)
    h[QUBIT_G, QUBIT_E] = omega * np.exp(-1j * phase)
    qubit = _dissipator(1, replace(rates, gamma_o_r=0.0, gamma_o_phi=0.0))
    columns = [(qubit(b) - 1j * (h @ b - b @ h)).ravel()
               for b in np.eye(4, dtype=complex).reshape(4, 2, 2)]
    prop = _expm_small(np.stack(columns, axis=1) * duration).reshape(2, 2, 2, 2)
    r = np.einsum("abij,injm->anbm", prop, rho.reshape(2, cutoff, 2, cutoff))
    oscillator = _dissipator(cutoff, replace(rates, gamma_q_r=0.0, gamma_q_phi=0.0))
    return _checked(oscillator.exp(duration)(r.reshape(rho.shape)), rho, duration)


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
    is ignored. Each pulse is one constant lab-frame Lindbladian. A drive
    is evolved exactly by _evolve_drive, as a 4x4 qubit factor and a
    closed-form oscillator decay; an exchange pulse is evolved in split
    steps by _evolve_pulse to rtol and atol. Returns (rho,
    fidelity) where fidelity is sqrt(<target| rho |target>) against the
    supplied target vector (oscillator amplitudes, qubit in ground), or
    None when no target is given. Zero padding past the cutoff is
    accepted; target support at or past the cutoff raises DimensionError.
    """
    params = params or CircuitParams()
    rates = rates or NoiseRates()
    space = make_space([cutoff])  # DimensionError below cutoff 2
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
    tvec = None if target is None else _load_target(space, getattr(target, "amplitudes", target))
    omega = schedule.budget.omega
    gen = InteractionPictureGenerator(params, cutoff)
    dissipator = _dissipator(cutoff, rates)
    dim = 2 * cutoff

    rho = np.zeros((dim, dim), dtype=complex)
    i0 = qubit0 * cutoff + level0
    rho[i0, i0] = 1.0

    for step in schedule.steps:
        phase = step.phase + (math.pi if step.area < 0 else 0.0)
        if step.kind == "drive":
            rho = _evolve_drive(rho, omega, phase, rates, abs(step.area) / omega)
        elif step.order != 2:
            raise ValueError(f"open-system replay implements order 2 only, got {step.order}")
        else:
            rho, _ = _evolve_pulse(rho, gen.h0, gen(0.0, exchange_phase=phase),
                                   dissipator, abs(step.area) / params.g2, rtol, atol)

    return rho, None if tvec is None else fidelity(rho, tvec)


def density_matrix_to_csv(rho: np.ndarray) -> str:
    """CSV rows row,col,re,im for entries of magnitude above 1e-14."""
    lines = ["row,col,re,im"]
    rows, cols = np.nonzero(np.abs(rho) > 1e-14)
    for r, c in zip(rows, cols):
        v = rho[r, c]
        lines.append(f"{r},{c},{v.real:.12g},{v.imag:.12g}")
    return "\n".join(lines) + "\n"
