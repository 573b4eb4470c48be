"""Command-line interface tests: exit codes, outputs, manifests, determinism."""

import hashlib
import json
import math
import os
import shlex
import subprocess
import sys

import numpy as np
import pytest

import oscsynth
from oscsynth import cli, opensystem
from oscsynth.cli import main, parse_budget_file
from oscsynth.fockspace import make_space, ptrace_qubit, wigner
from oscsynth.gates import PulseStep
from oscsynth.planner import time_symmetric
from oscsynth.synthesis import (CouplingBudget, PulseSchedule, ftp_schedule,
                                schedule_from_json, schedule_to_json)
from oscsynth.targets import parse_target


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
               "--semantics", "exact", "--cutoff", "8",
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
               "--cutoff", "8"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "steps: 8" in text


@pytest.mark.parametrize("command", ["synthesize", "plan"])
def test_two_osc_rejects_three_orders(command, tmp_path, capsys):
    argv = [command, "--target", "noon:N=2", "--order", "2,2,2",
            "--cutoff", "8"]
    if command == "synthesize":
        argv += ["--out", str(tmp_path / "s.json")]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error: noon targets need a 2-oscillator space, got a 3-oscillator space\n")
    assert not (tmp_path / "s.json").exists()


@pytest.mark.parametrize("command", ["synthesize", "plan"])
def test_the_two_osc_flag_is_gone(command, tmp_path):
    # the number of --order values is the number of oscillators
    argv = [command, "--target", "noon:N=2", "--order", "2,2", "--two-osc"]
    if command == "synthesize":
        argv += ["--out", str(tmp_path / "s.json")]
    assert main(argv) == 1
    assert not (tmp_path / "s.json").exists()


def test_synthesize_two_orders_writes_the_ftp_schedule(tmp_path, capsys):
    out = tmp_path / "noon.json"
    assert main(["synthesize", "--target", "noon:N=2", "--order", "2,2", "--cutoff", "8",
                 "--out", str(out)]) == 0
    space = make_space([8, 8])
    expect = ftp_schedule(parse_target("noon:N=2", space=space), (2, 2),
                          budget=CouplingBudget(), space=space)
    assert out.read_text() == schedule_to_json(expect)
    manifest = json.loads((tmp_path / "noon.json.manifest.json").read_text())
    assert manifest["arguments"]["order"] == "2,2"
    assert "two_osc" not in manifest["arguments"]


def _readme_cli_lines():
    """The `oscsynth ...` command lines of README's CLI quick start, in order."""
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as fh:
        text = fh.read()
    block = text.split("## Quick start (CLI)", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line) for line in block.splitlines()
            if line.strip().startswith("oscsynth ")]


def test_readme_cli_quick_start_runs(tmp_path, monkeypatch, capsys):
    # in order: a later line may read what an earlier one wrote
    monkeypatch.chdir(tmp_path)
    lines = _readme_cli_lines()
    assert len(lines) >= 6
    for argv in lines:
        assert main(argv[1:]) == 0, " ".join(argv)


@pytest.mark.parametrize("command, order, message", [
    ("plan", "0", "--order '0': interaction orders must be >= 1"),
    ("synthesize", "0", "--order '0': interaction orders must be >= 1"),
    ("synthesize", "2,2", "fock targets need a 1-oscillator space, got a 2-oscillator space"),
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
    # scipy is imported lazily, by lindblad_evolve only
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


@pytest.mark.parametrize("command", ["synthesize", "plan"])
def test_missing_budget_file_exits_one(tmp_path, capsys, command):
    missing = tmp_path / "missing.cfg"
    out = tmp_path / "s.json"
    argv = [command, "--target", "fock:0,1", "--order", "1", "--budget", str(missing),
            "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: budget file {str(missing)!r} not found\n"
    assert not out.exists()


@pytest.mark.parametrize("command, flag", [
    ("synthesize", "--budget"),
    ("plan", "--target"),
    ("open-sim", "--schedule"),
    ("open-sim", "--params"),
    ("open-sim", "--rates"),
    ("open-sim", "--target"),
])
def test_missing_input_file_exits_one_naming_it(tmp_path, capsys, command, flag):
    missing = str(tmp_path / "missing.cfg")
    sched_path = tmp_path / "s.json"
    assert main(["synthesize", "--target", "fock:0", "--order", "1",
                 "--out", str(sched_path)]) == 0
    out = tmp_path / "out.csv"
    given = {"--target": "fock:0,1", "--order": "1", "--cutoff": "4", "--out": str(out)}
    if command == "open-sim":
        given = {"--schedule": str(sched_path), "--cutoff": "4", "--out": str(out)}
    given[flag] = "amps:" + missing if flag == "--target" else missing
    capsys.readouterr()
    assert main([command, *(word for item in given.items() for word in item)]) == 1
    what = flag[2:]
    assert capsys.readouterr().err == f"error: {what} file {missing!r} not found\n"
    assert not out.exists()


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


def test_open_sim_rejects_non_finite_rates(tmp_path, capsys):
    sched_path = tmp_path / "s.json"
    assert main(["synthesize", "--target", "fock:0", "--order", "1",
                 "--out", str(sched_path)]) == 0
    rates = tmp_path / "rates.cfg"
    rates.write_text("gamma_q_r_hz = nan\n")
    out = tmp_path / "rho.csv"
    assert main(["open-sim", "--schedule", str(sched_path), "--rates", str(rates),
                 "--cutoff", "4", "--out", str(out)]) == 1
    assert "gamma_q_r" in capsys.readouterr().err
    assert not out.exists()


def test_synthesize_rejects_a_non_finite_budget(tmp_path, capsys):
    budget = tmp_path / "budget.cfg"
    budget.write_text("omega = nan *2pi\n")
    out = tmp_path / "s.json"
    assert main(["synthesize", "--target", "fock:0,1", "--order", "1",
                 "--budget", str(budget), "--out", str(out)]) == 1
    assert "omega" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("points", ["0", "1", "-3"])
def test_open_sim_rejects_too_few_wigner_points(tmp_path, capsys, monkeypatch, points):
    sched_path = tmp_path / "s.json"
    assert main(["synthesize", "--target", "fock:0", "--order", "1",
                 "--out", str(sched_path)]) == 0
    monkeypatch.setattr(opensystem, "run_open_protocol", None)  # fails before the replay
    wig = tmp_path / "w.csv"
    assert main(["open-sim", "--schedule", str(sched_path), "--cutoff", "4",
                 "--wigner", str(wig), "--wigner-points", points,
                 "--out", str(tmp_path / "rho.csv")]) == 1
    assert "--wigner-points" in capsys.readouterr().err
    assert not wig.exists()


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
    # the grid equals the Wigner grid of the open replay's oscillator, byte for byte
    rho, _ = real(schedule_from_json(sched_path.read_text()), opensystem.CircuitParams(),
                  opensystem.NoiseRates(), cutoff=6)
    xs = np.linspace(-4, 4, 21)
    ref = tmp_path / "ref.csv"
    wigner(ptrace_qubit(make_space([6]), rho), xs, xs).to_csv(ref)
    assert wig.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("text", ["{not json", '{"version": 2, "steps": []}'],
                         ids=["malformed-json", "no-space"])
def test_open_sim_bad_schedule_exits_one_naming_it(tmp_path, capsys, text):
    sched_path = tmp_path / "s.json"
    sched_path.write_text(text)
    out = tmp_path / "rho.csv"
    assert main(["open-sim", "--schedule", str(sched_path), "--cutoff", "4",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: schedule file {str(sched_path)!r}")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def test_bad_schedule_from_the_shell_prints_no_traceback(tmp_path):
    sched_path = tmp_path / "s.json"
    sched_path.write_text("{not json")
    run = subprocess.run([sys.executable, "-m", "oscsynth.cli", "open-sim",
                          "--schedule", str(sched_path), "--out", str(tmp_path / "rho.csv")],
                         capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC})
    assert run.returncode == 1
    assert "Traceback" not in run.stderr
    assert run.stderr.startswith("error: schedule file")


@pytest.mark.parametrize("command, flag", [("synthesize", "--out"), ("open-sim", "--wigner")])
def test_missing_output_directory_exits_one_before_any_work(tmp_path, capsys, monkeypatch,
                                                            command, flag):
    calls = []

    def spy(*args, **kw):
        calls.append(1)
        raise AssertionError("the run started")

    monkeypatch.setattr(cli, "invert_symmetric", spy)
    monkeypatch.setattr(opensystem, "run_open_protocol", spy)
    sched_path = tmp_path / "s.json"
    sched_path.write_text(schedule_to_json(PulseSchedule(
        steps=[PulseStep("drive", math.pi / 4, 0.0)], space=make_space([4]),
        budget=CouplingBudget())))
    out = tmp_path / "rho.csv"
    missing = str(tmp_path / "nodir" / "x.out")
    if command == "synthesize":
        argv = ["synthesize", "--target", "fock:0,1", "--order", "1", "--out", missing]
    else:
        argv = ["open-sim", "--schedule", str(sched_path), "--cutoff", "4",
                "--out", str(out), "--wigner", missing]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(missing) in err
    assert calls == []
    assert not out.exists() and not (tmp_path / "nodir").exists()


@pytest.mark.parametrize("command, flag", [("synthesize", "--out"), ("open-sim", "--out"),
                                           ("open-sim", "--wigner")])
def test_output_that_is_a_directory_exits_one_before_any_work(tmp_path, capsys, monkeypatch,
                                                             command, flag):
    def spy(*args, **kw):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli, "invert_symmetric", spy)
    monkeypatch.setattr(opensystem, "run_open_protocol", spy)
    sched_path = tmp_path / "s.json"
    sched_path.write_text(schedule_to_json(PulseSchedule(
        steps=[PulseStep("drive", math.pi / 4, 0.0)], space=make_space([4]),
        budget=CouplingBudget())))
    given = {"--schedule": str(sched_path), "--cutoff": "4",
             "--out": str(tmp_path / "rho.csv"), "--wigner": str(tmp_path / "w.csv")}
    if command == "synthesize":
        given = {"--target": "fock:0,1", "--order": "1"}
    given[flag] = directory = str(tmp_path / "adir")
    os.mkdir(directory)
    assert main([command, *(word for item in given.items() for word in item)]) == 1
    flag = flag[2:]
    assert capsys.readouterr().err == f"error: {flag} file {directory!r} is a directory\n"
    assert sorted(os.listdir(tmp_path)) == ["adir", "s.json"]


@pytest.mark.parametrize("command, flag", [
    ("synthesize", "--budget"),
    ("plan", "--target"),
    ("open-sim", "--schedule"),
    ("open-sim", "--params"),
    ("open-sim", "--rates"),
])
def test_input_that_is_a_directory_exits_one_naming_it(tmp_path, capsys, command, flag):
    sched_path = tmp_path / "s.json"
    assert main(["synthesize", "--target", "fock:0", "--order", "1",
                 "--out", str(sched_path)]) == 0
    out = tmp_path / "out.csv"
    given = {"--target": "fock:0,1", "--order": "1", "--cutoff": "4", "--out": str(out)}
    if command == "open-sim":
        given = {"--schedule": str(sched_path), "--cutoff": "4", "--out": str(out)}
    # the reported case: open-sim --schedule / ended in a traceback
    directory = "/"
    given[flag] = "amps:" + directory if flag == "--target" else directory
    capsys.readouterr()
    assert main([command, *(word for item in given.items() for word in item)]) == 1
    assert capsys.readouterr().err == f"error: {flag[2:]} file {directory!r} is a directory\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["estimate", "--mode", "symmetric", "--K", "3", "--n", "0"],
    ["open-sim", "--schedule", "SCHEDULE", "--cutoff", "1", "--out", "OUT"],
], ids=["estimate-order-0", "open-sim-cutoff-1"])
def test_degenerate_sizes_exit_one(tmp_path, capsys, argv):
    sched_path = tmp_path / "s.json"
    sched_path.write_text(schedule_to_json(PulseSchedule(
        steps=[PulseStep("njc", 0.5, osc_index=0, order=2)], space=make_space([4]),
        budget=CouplingBudget())))
    argv = [{"SCHEDULE": str(sched_path), "OUT": str(tmp_path / "rho.csv")}.get(a, a)
            for a in argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""
    assert not (tmp_path / "rho.csv").exists()


@pytest.mark.parametrize("extra", [[], ["--csv"]], ids=["text", "csv"])
def test_plan_out_writes_the_printed_text(tmp_path, capsys, extra):
    argv = ["plan", "--target", "cat2:alpha=2,trunc=12", "--order", "2", *extra]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "p.txt"
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == printed


@pytest.mark.parametrize("command", ["synthesize", "plan"])
def test_manifest_digests_every_input_file(tmp_path, command):
    amps = tmp_path / "t.csv"
    amps.write_text("0,1,0\n2,1,0\n")
    budget = tmp_path / "budget.cfg"
    budget.write_text("g1 = 100e6 *2pi\ng2 = 25e6 *2pi\n")
    out = tmp_path / "out.txt"
    assert main([command, "--target", f"amps:{amps}", "--order", "2", "--cutoff", "8",
                 "--budget", str(budget), "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "out.txt.manifest.json").read_text())
    assert manifest["input_digests"] == {
        str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in (amps, budget)}
    assert manifest["outputs"] == [str(out)]


def test_synthesize_a_column_that_the_metadata_does_not_name(tmp_path, capsys):
    # fock:1,4,7 sits in the order-3 column of offset 1, while its symmetry
    # metadata (from orders 4 and 2 only) reads order 1
    budget = tmp_path / "budget.cfg"
    budget.write_text("g1 = 100e6 *2pi\ng2 = 25e6 *2pi\ng3 = 2.5e6 *2pi\n")
    out = tmp_path / "s.json"
    assert main(["synthesize", "--target", "fock:1,4,7", "--order", "3",
                 "--budget", str(budget), "--out", str(out)]) == 0
    assert "fidelity: 1.0000000000" in capsys.readouterr().out
    sched = schedule_from_json(out.read_text())
    assert sched.initial == (1, 1) and sched.fidelity >= 1 - 1e-12


def test_open_sim_rejects_a_circuit_parameter_the_model_does_not_read(tmp_path, capsys):
    sched_path = tmp_path / "s.json"
    assert main(["synthesize", "--target", "fock:0", "--order", "1",
                 "--out", str(sched_path)]) == 0
    params = tmp_path / "circuit.cfg"
    params.write_text("g_e1_ghz = 1.08\n")
    out = tmp_path / "rho.csv"
    assert main(["open-sim", "--schedule", str(sched_path), "--params", str(params),
                 "--cutoff", "4", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: unknown circuit parameter 'g_e1_ghz'\n"
    assert not out.exists()


@pytest.mark.parametrize("spec, extra", [
    ("fock:-1,2", []),
    ("amps:-1,1,0\n2,1,0\n", []),
    ("amps:0,1,0\n30,1,0\n", []),
    ("amps:", []),
    ("noon:", ["--order", "1,1"]),
    ("noon:N=0", ["--order", "1,1"]),
    ("cat2:alpha=1,trunc=-3", []),
    ("bellcat:alpha1=1,alpha2=1,trunc=-3", ["--order", "1,1"]),
    ("dense:L1=-3,L2=1", ["--order", "1,1", "--cutoff", "8"]),
], ids=["fock-negative", "amps-negative", "amps-past-cutoff", "amps-empty", "noon-no-N",
        "noon-zero", "cat-negative-trunc", "bellcat-negative-trunc", "dense-negative-extent"])
def test_bad_target_specs_exit_one_with_one_error_line(tmp_path, capsys, spec, extra):
    if spec.startswith("amps:"):  # the rest is the amplitude file's text
        amps = tmp_path / "state.csv"
        amps.write_text(spec[len("amps:"):])
        spec = f"amps:{amps}"
    assert main(["plan", "--target", spec, "--order", "1", *extra]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
