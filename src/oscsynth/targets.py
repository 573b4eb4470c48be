"""Target-state constructors and grid-state quality metrics.

All constructors return a TargetState: oscillator-only Fock amplitudes plus
rotational-symmetry metadata (order n and column offset k, meaning support
only on Fock levels l*n + k). The metadata is checked on creation and is
always re-derivable from the amplitudes; the compilers work out their
columns from the support itself.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .fockspace import (
    DimensionError,
    TruncatedSpace,
    _ladder_eigh,
    _ladder_exp,
    _truncation_guard,
    coherent_vector,
    make_space,
)


class TargetParseError(ValueError):
    """Malformed target spec string."""


@dataclass
class TargetState:
    """Normalized oscillator target with symmetry metadata. A NaN or
    infinite amplitude raises ValueError.

    For multi-oscillator targets, amplitudes has one axis per oscillator,
    (D1, ..., DM), and the symmetry fields are not checked.
    """

    amplitudes: np.ndarray
    symmetry_order: int = 1
    symmetry_offset: int = 0
    label: str = ""

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if not np.isfinite(self.amplitudes).all():
            raise ValueError("target amplitudes must be finite, got NaN or inf")
        nrm = np.linalg.norm(self.amplitudes)
        if nrm == 0:
            raise ValueError("target state cannot be zero")
        self.amplitudes = self.amplitudes / nrm
        if self.amplitudes.ndim == 1 and self.symmetry_order > 1:
            for l in np.flatnonzero(support(self.amplitudes)):
                if (l - self.symmetry_offset) % self.symmetry_order:
                    raise ValueError(
                        f"support at Fock {l} violates symmetry "
                        f"(n={self.symmetry_order}, k={self.symmetry_offset})"
                    )

    @property
    def n_osc(self) -> int:
        return self.amplitudes.ndim

    @property
    def max_index(self) -> int:
        """Largest occupied Fock level (of oscillator 1 for two-oscillator
        targets)."""
        occ = np.nonzero(support(self.amplitudes))[0]
        return int(occ[-1]) if len(occ) else 0


def support(amplitudes) -> np.ndarray:
    """The occupied levels of amplitudes of any shape, as booleans: the one
    occupancy rule that the planner counts and the compilers kill."""
    return np.abs(np.asarray(amplitudes)) > 1e-12


@dataclass
class SqueezingMetrics:
    """Effective quadrature squeezing extracted from stabilizer displacements."""

    delta_x: float
    delta_p: float

    @property
    def delta_x_db(self) -> float:
        return -10.0 * math.log10(self.delta_x**2)

    @property
    def delta_p_db(self) -> float:
        return -10.0 * math.log10(self.delta_p**2)


def infer_symmetry(amplitudes: np.ndarray) -> tuple:
    """Largest order n in (4, 2, 1) whose single column {l n + k} holds the
    support, together with its offset k; (1, 0) for no support."""
    occ = np.nonzero(support(amplitudes))[0]
    for n in (4, 2):
        offsets = set(int(l) % n for l in occ)
        if len(offsets) == 1:
            return n, offsets.pop()
    return 1, 0


def cat_state(space: TruncatedSpace, alpha: complex, components: str = "2-even",
              truncate_at: int = None) -> TargetState:
    """Two- or four-component cat state, optionally truncated at a Fock level.

    components: "2-even" (|a>+|-a>), "2-odd" (|a>-|-a>), or "4-plus-plus"
    (|a>+|ia>+|-a>+|-ia>). A negative truncate_at raises ValueError.
    """
    if truncate_at is not None and truncate_at < 0:
        raise ValueError(f"cat truncation level {truncate_at} is below 0")
    d = space.osc_cutoffs[0]
    if abs(alpha) ** 2 > d / 3:
        warnings.warn(f"cat alpha={alpha} is large for cutoff {d}", stacklevel=2)
    phases = {
        "2-even": [1, -1],
        "2-odd": [1, -1],
        "4-plus-plus": [1, 1j, -1, -1j],
    }
    if components not in phases:
        raise ValueError(f"unknown cat components {components!r}")
    signs = {"2-even": [1, 1], "2-odd": [1, -1], "4-plus-plus": [1, 1, 1, 1]}[components]
    vec = np.zeros(d, dtype=complex)
    for s, ph in zip(signs, phases[components]):
        vec += s * coherent_vector(d, ph * alpha)
    if truncate_at is not None:
        vec[truncate_at + 1 :] = 0.0
    order = {"2-even": 2, "2-odd": 2, "4-plus-plus": 4}[components]
    offset = 1 if components == "2-odd" else 0
    return TargetState(vec, order, offset, label=f"cat{len(phases[components])}:alpha={alpha}")


GKP_SPACING = math.sqrt(2.0 * math.pi)


def gkp_zero(space: TruncatedSpace, kappa: float, r: float, P: int) -> TargetState:
    """Finite-energy grid-state logical zero: an envelope-weighted comb of
    displaced squeezed vacua, sum_{k=-P}^{P} w_k D(k sqrt(2pi)) S(r) |0>.

    The envelope is w_k = exp(-pi kappa^2 (k sqrt(2pi))^2 / sqrt(2pi)), the
    form that reproduces the reference effective-squeezing values (see
    tests).

    S(r) here squeezes the x quadrature (Var x -> e^{-2r}/2).
    """
    d = space.osc_cutoffs[0]
    base = _ladder_exp(d, 2, -r / 2.0)[:, 0]
    # comb displacement amplitude alpha = k sqrt(2pi), matching the
    # D(k sqrt(2pi)) convention the squeezing metrics are quoted in. Every
    # D(k sqrt(2pi)) is diagonal in the eigenbasis of i(a† − a), so the whole
    # comb is one diagonal applied to base's coefficients there.
    lam, v = _ladder_eigh(d, 1, 1.0)
    comb = np.zeros(d, dtype=complex)
    for k in range(-P, P + 1):
        shift = k * GKP_SPACING
        _truncation_guard(d, shift**2, "displacement")
        w = math.exp(-math.pi * kappa**2 * shift**2 / GKP_SPACING)
        comb += w * np.exp(-1j * shift * lam)
    # S(r) and every D(k sqrt(2pi)) are real matrices, so the grid state is
    # real; drop the imaginary rounding the complex eigenbasis leaves
    vec = (v @ (comb * (v.conj().T @ base))).real
    if abs(vec[-1]) > 1e-6 or abs(vec[-2]) > 1e-6:
        warnings.warn(f"grid state poorly converged at cutoff {d}", stacklevel=2)
    return TargetState(vec, 2, 0, label=f"gkp:kappa={kappa},r={r},P={P}")


def effective_squeezing(state) -> SqueezingMetrics:
    """Effective squeezing of a single-oscillator state from the stabilizer
    displacement expectations: Delta_x uses <D(i sqrt(2pi))>, Delta_p uses
    <D(sqrt(2pi))>, each as Delta = sqrt(ln(1/|<D>|^2) / (2pi))."""
    vec = state.amplitudes if isinstance(state, TargetState) else np.asarray(state, dtype=complex)
    d = vec.shape[0]

    def delta(alpha):
        _truncation_guard(d, abs(alpha) ** 2, "displacement")
        lam, v = _ladder_eigh(d, 1, alpha)
        ev = abs(np.dot(np.abs(v.conj().T @ vec) ** 2, np.exp(-1j * lam)))
        if ev == 0:
            return math.inf
        return math.sqrt(math.log(1.0 / ev**2) / (2.0 * math.pi))

    return SqueezingMetrics(delta_x=delta(1j * GKP_SPACING), delta_p=delta(GKP_SPACING))


def multimode_target(space: TruncatedSpace, kind: str, **kw) -> TargetState:
    """Two-oscillator targets: noon(N), bell_cat(alpha1, alpha2[, truncate_at])
    or dense(L1, L2). N < 1, a negative truncate_at and a negative L1 or L2
    raise ValueError."""
    if space.n_osc != 2:
        raise DimensionError("multimode targets need a two-oscillator space")
    d1, d2 = space.osc_cutoffs
    amps = np.zeros((d1, d2), dtype=complex)
    if kind == "noon":
        N = int(kw["N"])
        if N < 1:
            raise ValueError(f"NOON N={N} must be at least 1")
        if N >= d1 or N >= d2:
            raise DimensionError(f"NOON N={N} outside cutoffs")
        amps[N, 0] = 1.0
        amps[0, N] = 1.0
        label = f"noon:N={N}"
    elif kind == "bell_cat":
        a1 = complex(kw["alpha1"])
        a2 = complex(kw["alpha2"])
        trunc = kw.get("truncate_at")
        if trunc is not None and trunc < 0:
            raise ValueError(f"bell-cat truncation level {trunc} is below 0")
        c1 = coherent_vector(d1, a1)
        c2 = coherent_vector(d2, a2)
        amps = np.outer(c1, c2) + np.outer(coherent_vector(d1, -a1), coherent_vector(d2, -a2))
        if trunc is not None:
            amps[trunc + 1 :, :] = 0.0
            amps[:, trunc + 1 :] = 0.0
        label = f"bellcat:alpha1={a1},alpha2={a2}"
    elif kind == "dense":
        L1 = int(kw["L1"])
        L2 = int(kw["L2"])
        if L1 < 0 or L2 < 0:
            raise ValueError(f"dense extent L1={L1}, L2={L2} must be at least 0")
        if L1 >= d1 or L2 >= d2:
            raise DimensionError("dense extent outside cutoffs")
        amps[: L1 + 1, : L2 + 1] = 1.0
        label = f"dense:L1={L1},L2={L2}"
    else:
        raise ValueError(f"unknown multimode kind {kind!r}")
    return TargetState(amps, label=label)


def _finite(kv: dict, key: str, spec: str, kind):
    """kind(kv[key]), or TargetParseError naming key if it is NaN or
    infinite. A missing key raises KeyError."""
    value = kind(kv[key])
    if not cmath.isfinite(value):
        raise TargetParseError(f"{key}={kv[key]} is not finite in {spec!r}")
    return value


def _parse_kv(body: str, spec: str) -> dict:
    out = {}
    if not body:
        return out
    for part in body.split(","):
        if "=" not in part:
            raise TargetParseError(f"expected key=value near {part!r} in {spec!r}")
        key, val = part.split("=", 1)
        out[key.strip()] = val.strip()
    return out


def _fock_target(entries: list, spec: str, space_for) -> TargetState:
    """The single-oscillator target summing amp onto Fock level l for each
    (l, amp) of entries, on the space space_for(1, default cutoff) returns.
    No entry, or a level below 0 or at or past the cutoff, raises
    TargetParseError naming spec."""
    if not entries:
        raise TargetParseError(f"no Fock level in {spec!r}")
    levels = [l for l, _ in entries]
    if min(levels) < 0:
        raise TargetParseError(f"Fock index {min(levels)} is below 0 in {spec!r}")
    d = space_for(1, max(levels) + 9).osc_cutoffs[0]
    if max(levels) >= d:
        raise TargetParseError(f"Fock index {max(levels)} outside cutoff {d} in {spec!r}")
    vec = np.zeros(d, dtype=complex)
    for l, amp in entries:
        vec[l] += amp
    n, k = infer_symmetry(vec)
    return TargetState(vec, n, k, label=spec)


def parse_target(spec: str, space: TruncatedSpace = None) -> TargetState:
    """Parse a target spec string into a TargetState.

    Grammar: cat2:alpha=<c>, cat4:alpha=<c>, gkp:kappa=<r>,r=<r>,P=<i>,
    fock:<i>,<i>,... (uniform superposition), amps:<file>, noon:N=<i>,
    bellcat:alpha1=<c>,alpha2=<c>, dense:L1=<i>,L2=<i>. Optional
    trunc=<i> on cat/bellcat specs caps the Fock support. Without a space,
    each kind picks a cutoff that holds its support, at least 7 for the
    two-oscillator kinds, so that a bad N, trunc or extent fails the kind's
    own check. A space with another mode count than the kind's (one for
    cat, gkp, fock and amps, two for noon, bellcat and dense) raises
    DimensionError naming both. A missing key, a NaN or infinite alpha,
    alpha1, alpha2, kappa or r, and a fock/amps level out of range or
    absent, raise TargetParseError.
    """
    spec = spec.strip()
    if ":" in spec:
        head, body = spec.split(":", 1)
    else:
        head, body = spec, ""
    head = head.strip().lower()

    def need_space(n_osc, default_cut):
        nonlocal space
        if space is None:
            space = make_space([default_cut] * n_osc)
        elif space.n_osc != n_osc:
            raise DimensionError(f"{head} targets need a {n_osc}-oscillator space, "
                                 f"got a {space.n_osc}-oscillator space")
        return space

    if head in ("cat2", "cat4"):
        kv = _parse_kv(body, spec)
        try:
            alpha = _finite(kv, "alpha", spec, complex)
        except KeyError:
            raise TargetParseError(f"{head} needs alpha= (at {spec!r})")
        trunc = int(kv["trunc"]) if "trunc" in kv else None
        sp = need_space(1, max(24, int(4 * abs(alpha) ** 2 + 16)))
        comp = "2-even" if head == "cat2" else "4-plus-plus"
        return cat_state(sp, alpha, comp, truncate_at=trunc)
    if head == "gkp":
        kv = _parse_kv(body, spec)
        try:
            kappa = _finite(kv, "kappa", spec, float)
            r = _finite(kv, "r", spec, float)
            P = int(kv["P"])
        except KeyError as exc:
            raise TargetParseError(f"gkp needs kappa=, r=, P= (missing {exc})")
        sp = need_space(1, 160)
        return gkp_zero(sp, kappa, r, P)
    if head == "fock":
        try:
            levels = [int(tok) for tok in body.split(",") if tok.strip() != ""]
        except ValueError:
            raise TargetParseError(f"bad Fock index list in {spec!r}")
        return _fock_target([(l, 1.0) for l in levels], spec, need_space)
    if head == "amps":
        path = body.strip()
        if not path:
            raise TargetParseError("amps: needs a file path")
        entries = {}
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    idx, re_s, im_s = line.split(",")
                    entries[int(idx)] = float(re_s) + 1j * float(im_s)
                except ValueError:
                    raise TargetParseError(f"{path}:{lineno}: expected `index,re,im`")
        return _fock_target(list(entries.items()), spec, need_space)
    if head == "noon":
        kv = _parse_kv(body, spec)
        try:
            N = int(kv["N"])
        except KeyError:
            raise TargetParseError(f"noon needs N= ({spec!r})")
        sp = need_space(2, max(N, 0) + 7)
        return multimode_target(sp, "noon", N=N)
    if head == "bellcat":
        kv = _parse_kv(body, spec)
        try:
            a1 = _finite(kv, "alpha1", spec, complex)
            a2 = _finite(kv, "alpha2", spec, complex)
        except KeyError:
            raise TargetParseError(f"bellcat needs alpha1=, alpha2= ({spec!r})")
        trunc = int(kv["trunc"]) if "trunc" in kv else None
        sp = need_space(2, max(trunc, 0) + 7 if trunc is not None else 20)
        return multimode_target(sp, "bell_cat", alpha1=a1, alpha2=a2, truncate_at=trunc)
    if head == "dense":
        kv = _parse_kv(body, spec)
        try:
            L1, L2 = int(kv["L1"]), int(kv["L2"])
        except KeyError:
            raise TargetParseError(f"dense needs L1=, L2= ({spec!r})")
        sp = need_space(2, max(L1, L2, 0) + 7)
        return multimode_target(sp, "dense", L1=L1, L2=L2)
    raise TargetParseError(f"unknown target kind {head!r} at position 0 of {spec!r}")
