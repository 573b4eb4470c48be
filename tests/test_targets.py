"""Tests for target-state construction, symmetry inference, and spec parsing."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from oscsynth.fockspace import make_space
from oscsynth.targets import (
    GKP_SPACING,
    TargetParseError,
    TargetState,
    cat_state,
    effective_squeezing,
    gkp_zero,
    infer_symmetry,
    multimode_target,
    parse_target,
)


def test_cat2_even_parity_and_norm():
    sp = make_space([40])
    t = cat_state(sp, 2.0, "2-even")
    v = t.amplitudes
    assert np.linalg.norm(v) == pytest.approx(1.0)
    assert np.all(np.abs(v[1::2]) < 1e-12)
    assert t.symmetry_order == 2 and t.symmetry_offset == 0
    # direct oracle: amplitudes proportional to alpha^l/sqrt(l!) on even l
    raw = np.array([2.0**l / math.sqrt(math.factorial(l)) if l % 2 == 0 else 0.0
                    for l in range(40)])
    raw = raw / np.linalg.norm(raw)
    assert np.allclose(np.abs(v), raw, atol=1e-10)


def test_cat2_odd_and_cat4_symmetry():
    sp = make_space([40])
    t_odd = cat_state(sp, 1.5, "2-odd")
    assert t_odd.symmetry_order == 2 and t_odd.symmetry_offset == 1
    assert np.all(np.abs(t_odd.amplitudes[0::2]) < 1e-12)
    t4 = cat_state(sp, 2.0, "4-plus-plus")
    assert t4.symmetry_order == 4 and t4.symmetry_offset == 0
    occ = np.nonzero(np.abs(t4.amplitudes) > 1e-12)[0]
    assert np.all(occ % 4 == 0)


def test_cat_truncation_cap():
    sp = make_space([40])
    t = cat_state(sp, 2.0, "2-even", truncate_at=8)
    assert t.max_index <= 8
    assert np.linalg.norm(t.amplitudes) == pytest.approx(1.0)


def test_target_state_rejects_symmetry_violation():
    v = np.zeros(8)
    v[0] = v[3] = 1.0
    with pytest.raises(ValueError):
        TargetState(v, symmetry_order=2, symmetry_offset=0)
    with pytest.raises(ValueError):
        TargetState(np.zeros(4))


def test_infer_symmetry():
    v = np.zeros(16)
    v[0] = v[4] = v[8] = 1.0
    assert infer_symmetry(v) == (4, 0)
    v2 = np.zeros(16)
    v2[1] = v2[3] = 1.0
    assert infer_symmetry(v2) == (2, 1)
    v3 = np.zeros(16)
    v3[0] = v3[1] = 1.0
    assert infer_symmetry(v3) == (1, 0)
    assert infer_symmetry(np.zeros(4)) == (1, 0)


def test_gkp_even_support_and_envelope_choice():
    sp = make_space([160])
    t = gkp_zero(sp, 0.3, 0.8, 2)
    assert t.symmetry_order == 2
    occ = np.nonzero(np.abs(t.amplitudes) > 1e-12)[0]
    assert np.all(occ % 2 == 0)


def _expm_displacement(d, alpha):
    a = np.diag(np.sqrt(np.arange(1.0, d)), 1)
    return expm(alpha * a.conj().T - np.conj(alpha) * a)


def _expm_gkp_comb(d, kappa, r, P):
    """The grid state built term by term from dense expm exponentials."""
    a = np.diag(np.sqrt(np.arange(1.0, d)), 1)
    base = expm(-r / 2.0 * (a.conj().T @ a.conj().T - a @ a))[:, 0]
    vec = np.zeros(d, dtype=complex)
    for k in range(-P, P + 1):
        shift = k * GKP_SPACING
        w = math.exp(-math.pi * kappa**2 * shift**2 / GKP_SPACING)
        vec += w * (_expm_displacement(d, shift) @ base)
    return vec / np.linalg.norm(vec)


@pytest.mark.filterwarnings("ignore:displacement")
@pytest.mark.parametrize("kappa, r, P", [(0.3, 0.8, 2), (0.2, 1.0, 3)])
def test_gkp_and_squeezing_metrics_match_expm_comb(kappa, r, P):
    d = 160
    oracle = _expm_gkp_comb(d, kappa, r, P)
    t = gkp_zero(make_space([d]), kappa, r, P)
    assert np.abs(t.amplitudes - oracle).max() < 1e-12
    assert not t.amplitudes.imag.any()  # a real comb of real operators

    def delta(alpha):
        ev = abs(np.vdot(oracle, _expm_displacement(d, alpha) @ oracle))
        return math.sqrt(math.log(1.0 / ev**2) / (2.0 * math.pi))

    m = effective_squeezing(t)
    assert abs(m.delta_x - delta(1j * GKP_SPACING)) < 1e-12
    assert abs(m.delta_p - delta(GKP_SPACING)) < 1e-12


def test_gkp_warns_when_a_comb_shift_outgrows_the_cutoff():
    # at P = 3 the outer terms displace by 3 sqrt(2pi): 56.5 photons > 160 / 4
    with pytest.warns(UserWarning, match="displacement: expected photon content 56.5"):
        gkp_zero(make_space([160]), 0.2, 1.0, 3)


def test_effective_squeezing_of_squeezed_vacuum():
    # for S(r)|0> the stabilizer measure reduces to Delta_x = e^{-r}
    sp = make_space([120])
    from oscsynth.fockspace import squeezing

    r = 0.9
    d = sp.osc_cutoffs[0]
    vec = (squeezing(sp, 0, 2, -r / 2.0)[:d, :d]) @ np.eye(d, 1, dtype=complex)[:, 0]
    m = effective_squeezing(vec)
    assert m.delta_x == pytest.approx(math.exp(-r), rel=1e-6)
    assert m.delta_p == pytest.approx(math.exp(r), rel=1e-6)
    assert m.delta_x_db == pytest.approx(-10 * math.log10(math.exp(-2 * r)), rel=1e-9)


def test_multimode_targets():
    sp = make_space([8, 8])
    noon = multimode_target(sp, "noon", N=3)
    assert abs(noon.amplitudes[3, 0]) == pytest.approx(1 / math.sqrt(2))
    assert abs(noon.amplitudes[0, 3]) == pytest.approx(1 / math.sqrt(2))
    dense = multimode_target(sp, "dense", L1=2, L2=1)
    occ = np.abs(dense.amplitudes) > 1e-12
    assert occ[:3, :2].all() and occ.sum() == 6
    bell = multimode_target(sp, "bell_cat", alpha1=1.0, alpha2=1.0, truncate_at=6)
    assert np.linalg.norm(bell.amplitudes) == pytest.approx(1.0)
    # |a,a> + |-a,-a> only has joint-even support
    occ2 = np.argwhere(np.abs(bell.amplitudes) > 1e-12)
    assert np.all((occ2.sum(axis=1)) % 2 == 0)
    with pytest.raises(Exception):
        multimode_target(make_space([8]), "noon", N=2)


def test_parse_target_grammar():
    t = parse_target("cat2:alpha=2.0")
    assert t.symmetry_order == 2
    t4 = parse_target("cat4:alpha=2,trunc=12", space=make_space([40]))
    assert t4.max_index <= 12
    f = parse_target("fock:0,2,4")
    assert f.symmetry_order == 2
    assert abs(f.amplitudes[2]) == pytest.approx(1 / math.sqrt(3))
    n = parse_target("noon:N=2")
    assert n.amplitudes.ndim == 2
    d = parse_target("dense:L1=1,L2=1")
    assert d.amplitudes.ndim == 2 and abs(d.amplitudes[1, 1]) > 0
    g = parse_target("gkp:kappa=0.3,r=0.8,P=2")
    assert g.symmetry_order == 2


def test_parse_target_amps_file(tmp_path):
    p = tmp_path / "state.csv"
    p.write_text("# comment\n0,1.0,0.0\n4,0.0,1.0\n")
    t = parse_target(f"amps:{p}")
    assert t.symmetry_order == 4
    assert t.amplitudes[4] == pytest.approx(1j / math.sqrt(2))


def test_parse_target_errors():
    for bad in [
        "cat2:",                 # missing alpha
        "cat2:alpha",            # not key=value
        "gkp:kappa=0.3",         # missing r, P
        "fock:",                 # empty list
        "fock:a,b",              # not integers
        "amps:",                 # missing path
        "warp:x=1",              # unknown kind
    ]:
        with pytest.raises(TargetParseError):
            parse_target(bad)
    sp = make_space([4])
    with pytest.raises(TargetParseError):
        parse_target("fock:9", space=sp)


@pytest.mark.parametrize("lines", ["-1,1,0\n2,1,0\n", "0,1,0\n40,1,0\n", "", "# empty\n"],
                         ids=["negative", "past-cutoff", "empty", "comment-only"])
def test_parse_target_amps_rejects_bad_levels(tmp_path, lines):
    p = tmp_path / "state.csv"
    p.write_text(lines)
    with pytest.raises(TargetParseError, match="amps:"):
        parse_target(f"amps:{p}", space=make_space([40]))


@pytest.mark.parametrize("spec", ["fock:-1,2", "fock:2,-3", "fock:40", "noon:", "noon"])
def test_parse_target_rejects_bad_levels_and_a_missing_noon_order(spec):
    with pytest.raises(TargetParseError, match=spec.split(":")[0]):
        parse_target(spec, space=make_space([40] * (2 if spec.startswith("noon") else 1)))


def test_negative_truncation_and_an_empty_noon_state_raise():
    with pytest.raises(ValueError, match="below 0"):
        cat_state(make_space([12]), 1.0, "2-even", truncate_at=-3)
    with pytest.raises(ValueError, match="below 0"):
        multimode_target(make_space([8, 8]), "bell_cat", alpha1=1.0, alpha2=1.0,
                         truncate_at=-1)
    for N in (0, -2):
        with pytest.raises(ValueError, match="at least 1"):
            multimode_target(make_space([8, 8]), "noon", N=N)


def test_parse_target_amps_bad_line(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("0,1.0\n")
    with pytest.raises(TargetParseError):
        parse_target(f"amps:{p}")


@pytest.mark.parametrize("spec, message", [
    ("noon:N=-9", "NOON N=-9 must be at least 1"),
    ("bellcat:alpha1=1,alpha2=1,trunc=-7", "truncation level -7 is below 0"),
    ("dense:L1=-3,L2=1", "dense extent L1=-3, L2=1 must be at least 0"),
    ("dense:L1=-9,L2=-9", "dense extent L1=-9, L2=-9 must be at least 0"),
], ids=["noon-negative-N", "bellcat-negative-trunc", "dense-negative-L1", "dense-negative-both"])
def test_parse_target_without_a_space_runs_the_kind_checks_first(spec, message):
    # the default cutoff is picked so that the kind's own check names the
    # bad value, not the cutoff it would imply
    with pytest.raises(ValueError, match=message):
        parse_target(spec)


def test_bellcat_at_truncation_zero_picks_its_own_cutoff():
    target = parse_target("bellcat:alpha1=1,alpha2=1,trunc=0")
    assert target.amplitudes.shape == (7, 7)


def test_dense_rejects_a_negative_extent():
    for L1, L2 in ((-3, 1), (1, -1)):
        with pytest.raises(ValueError, match="at least 0"):
            multimode_target(make_space([8, 8]), "dense", L1=L1, L2=L2)
