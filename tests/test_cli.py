"""Command-line interface tests: exit codes, outputs, manifests, determinism."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import oscsynth
from oscsynth import opensystem
from oscsynth.cli import main, parse_budget_file
from oscsynth.fockspace import make_space
from oscsynth.gates import PulseStep
from oscsynth.planner import time_symmetric
from oscsynth.synthesis import (CouplingBudget, PulseSchedule, schedule_from_json,
                                schedule_to_json)


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "synthesize" in capsys.readouterr().out


def test_version_exits_zero():
    assert main(["--version"]) == 0


def test_no_command_is_usage_error():
    assert main([]) == 1


def test_synthesize_cat_schedule(tmp_path, capsys):
    out = tmp_path / "cat.json"
    rc = main(["synthesize", "--target", "cat2:alpha=2,trunc=12",
               "--order", "2", "--cutoff", "24", "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "fidelity: 1.0000000000" in printed
    sched = schedule_from_json(out.read_text())
    assert len(sched.steps) > 0
    manifest = json.loads((tmp_path / "cat.json.manifest.json").read_text())
    assert manifest["command"] == "synthesize"
    assert manifest["outputs"] == [str(out)]
    assert "wall_seconds" in manifest


def test_synthesize_vacuum_target_is_empty(tmp_path):
    out = tmp_path / "vac.json"
    rc = main(["synthesize", "--target", "fock:0", "--order", "1",
               "--out", str(out)])
    assert rc == 0
    sched = schedule_from_json(out.read_text())
    assert len(sched.steps) == 0


def test_synthesize_deterministic_bytes(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    argv = ["synthesize", "--target", "cat2:alpha=2,trunc=12", "--order", "2",
            "--cutoff", "24"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_synthesize_bad_target_exits_one(tmp_path, capsys):
    out = tmp_path / "x.json"
    rc = main(["synthesize", "--target", "warp:x=1", "--order", "2",
               "--out", str(out)])
    assert rc == 1
    assert "error" in capsys.readouterr().err
    assert not out.exists()


def test_synthesize_symmetry_mismatch_exits_one(tmp_path, capsys):
    out = tmp_path / "x.json"
    rc = main(["synthesize", "--target", "fock:0,1", "--order", "2",
               "--out", str(out)])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_synthesize_quality_threshold_exits_two(tmp_path):
    # exact-semantics replay of a two-oscillator schedule leaks into
    # bystander levels, landing below the default quality threshold
    out = tmp_path / "d.json"
    rc = main(["synthesize", "--target", "dense:L1=1,L2=1", "--order", "2,2",
               "--two-osc", "--semantics", "exact", "--cutoff", "8",
               "--out", str(out)])
    assert rc == 2
    assert out.exists()  # schedule still written for inspection


def test_synthesize_missing_order_coupling_exits_one_and_writes_nothing(tmp_path, capsys):
    # the default budget couples orders 1 and 2 only; the schedule compiles
    # but its duration (in the JSON) needs g3
    out = tmp_path / "x.json"
    rc = main(["synthesize", "--target", "fock:0,3,9", "--order", "3",
               "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "error: budget has no coupling for order 3\n"
    assert list(tmp_path.iterdir()) == []


def test_plan_missing_order_coupling_exits_one(capsys):
    rc = main(["plan", "--target", "fock:0,5,9", "--order", "3"])
    assert rc == 1
    assert capsys.readouterr().err == "error: budget has no coupling for order 3\n"


def test_plan_text_output(capsys):
    rc = main(["plan", "--target", "cat2:alpha=2,trunc=12", "--order", "2"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "heights:" in text
    assert "upper bound" in text
    assert "T_FTP" in text and "T_LE" in text


def test_plan_csv_output(capsys):
    rc = main(["plan", "--target", "cat2:alpha=2,trunc=12", "--order", "2",
               "--csv"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "n,heights,N_arb,K_arb,T_ftp_ns,T_le_ns"
    assert lines[1].startswith("2,")


def test_plan_two_osc(capsys):
    rc = main(["plan", "--target", "dense:L1=2,L2=2", "--order", "2,2",
               "--two-osc", "--cutoff", "8"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "steps: 8" in text


@pytest.mark.parametrize("command", ["synthesize", "plan"])
def test_two_osc_rejects_three_orders(command, tmp_path, capsys):
    argv = [command, "--target", "noon:N=2", "--order", "2,2,2", "--two-osc",
            "--cutoff", "8"]
    if command == "synthesize":
        argv += ["--out", str(tmp_path / "s.json")]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error: orders (2, 2, 2) do not fit a 2-oscillator support\n")
    assert not (tmp_path / "s.json").exists()


@pytest.mark.parametrize("command, order, message", [
    ("plan", "0", "--order '0': interaction orders must be >= 1"),
    ("synthesize", "0", "--order '0': interaction orders must be >= 1"),
    ("synthesize", "2,2", "--order '2,2': two orders need --two-osc"),
], ids=["plan-0", "synthesize-0", "synthesize-2,2"])
def test_bad_order_exits_one_naming_the_order(command, order, message, tmp_path, capsys):
    argv = [command, "--target", "fock:0,2", "--order", order]
    if command == "synthesize":
        argv += ["--out", str(tmp_path / "s.json")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not (tmp_path / "s.json").exists()


# the source tree this test run imports oscsynth from
SRC = os.path.dirname(os.path.dirname(oscsynth.__file__))


def test_import_loads_no_scipy():
    # scipy is imported lazily, by refine_schedule and lindblad_evolve only
    code = ("import sys, oscsynth, oscsynth.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": SRC})
    assert out.stdout == "[]\n"


def test_estimate_symmetric_matches_library(capsys):
    rc = main(["estimate", "--mode", "symmetric", "--K", "10", "--n", "2",
               "--omega", "25e6*2pi", "--g", "25e6*2pi"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "K,n,omega_radps,g_radps,T_ns"
    t_ns = float(lines[1].split(",")[-1])
    budget = CouplingBudget(omega=2 * math.pi * 25e6, g={2: 2 * math.pi * 25e6})
    assert t_ns == pytest.approx(time_symmetric(10, 2, budget) * 1e9, rel=1e-10)


def test_estimate_rejects_bare_frequency():
    assert main(["estimate", "--mode", "symmetric", "--omega", "25e6"]) == 1


def test_estimate_figure_table(tmp_path):
    out = tmp_path / "table.csv"
    rc = main(["estimate", "--mode", "figure2", "--K", "5", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "K,n,omega_radps,g_radps,T_ns"
    # 2 drive budgets x 3 coupling variants x 5 step counts
    assert len(lines) == 1 + 2 * 3 * 5
    assert (tmp_path / "table.csv.manifest.json").exists()


def test_parse_budget_file(tmp_path):
    cfg = tmp_path / "budget.cfg"
    cfg.write_text(
        "# couplings\n"
        "omega = 25e6 *2pi\n"
        "g1 = 100e6 *2pi\n"
        "g2_radps = 157079632.679\n"
    )
    b = parse_budget_file(cfg)
    assert b.omega == pytest.approx(2 * math.pi * 25e6)
    assert b.g[1] == pytest.approx(2 * math.pi * 100e6)
    assert b.g[2] == pytest.approx(157079632.679)
    bad = tmp_path / "bad.cfg"
    bad.write_text("omega = 25e6\n")
    with pytest.raises(ValueError):
        parse_budget_file(bad)


def test_open_sim_missing_schedule_exits_one(tmp_path, capsys):
    rc = main(["open-sim", "--schedule", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "rho.csv")])
    assert rc == 1
    assert "not found" in capsys.readouterr().err


def test_open_sim_drive_only_schedule(tmp_path, capsys):
    # synthesize a trivial drive-only schedule, then replay it dissipatively
    sched_path = tmp_path / "s.json"
    assert main(["synthesize", "--target", "fock:0", "--order", "1",
                 "--out", str(sched_path)]) == 0
    out = tmp_path / "rho.csv"
    rc = main(["open-sim", "--schedule", str(sched_path),
               "--target", "fock:0", "--cutoff", "6", "--out", str(out)])
    assert rc == 0
    assert "fidelity: 1.0000" in capsys.readouterr().out
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "row,col,re,im"
    manifest = json.loads((tmp_path / "rho.csv.manifest.json").read_text())
    assert str(sched_path) in manifest["input_digests"]


def test_open_sim_rejects_number_selective_drives(tmp_path, capsys):
    # ftp schedules climb with number-selective drives, which the circuit
    # model cannot replay
    sched_path = tmp_path / "s.json"
    assert main(["synthesize", "--target", "fock:0,2,4,6", "--order", "2", "--ftp",
                 "--cutoff", "12", "--out", str(sched_path)]) == 0
    capsys.readouterr()
    out = tmp_path / "rho.csv"
    assert main(["open-sim", "--schedule", str(sched_path), "--target", "fock:0,2,4,6",
                 "--cutoff", "12", "--out", str(out)]) == 1
    assert "number-selective" in capsys.readouterr().err
    assert not out.exists()


def test_open_sim_wigner_replays_once(tmp_path, monkeypatch):
    # one drive and one short exchange pulse give a non-vacuum oscillator
    sched = PulseSchedule(
        steps=[PulseStep("drive", math.pi / 4, 0.0),
               PulseStep("njc", 0.3, 0.0, osc_index=0, order=2)],
        space=make_space([6]), budget=CouplingBudget())
    sched_path = tmp_path / "s.json"
    sched_path.write_text(schedule_to_json(sched))
    calls = []
    real = opensystem.run_open_protocol

    def counting(*args, **kw):
        calls.append(1)
        return real(*args, **kw)

    monkeypatch.setattr(opensystem, "run_open_protocol", counting)
    wig = tmp_path / "w.csv"
    assert main(["open-sim", "--schedule", str(sched_path), "--cutoff", "6",
                 "--wigner", str(wig), "--wigner-points", "21",
                 "--out", str(tmp_path / "rho.csv")]) == 0
    assert len(calls) == 1
    # the grid equals the open-replay grid of wigner_comparison, byte for byte
    _, w_open, _ = opensystem.wigner_comparison(
        schedule_from_json(sched_path.read_text()), opensystem.CircuitParams(),
        opensystem.NoiseRates(), *[np.linspace(-4, 4, 21)] * 2, cutoff=6)
    ref = tmp_path / "ref.csv"
    w_open.to_csv(ref)
    assert wig.read_bytes() == ref.read_bytes()
