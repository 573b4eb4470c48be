"""Tests of the benchmark itself: job lists are reproducible from the seed,
every check fails on a deliberately corrupted output, and the result line
carries exactly the metrics BENCHMARK.json names.

    python3 -m pytest -q perfbench/selftest.py
"""

import dataclasses
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
from oscsynth import fockspace, planner, synthesis, targets  # noqa: E402
from spans import Tracer  # noqa: E402


def _class(job):
    if job["kind"] == "cli":
        return ("cli", job["cmd"])
    return tuple(job.get(k) for k in ("kind", "family", "cutoff", "order", "offset", "target"))


def test_same_seed_same_job_list():
    for workload in jobs.WORKLOADS:
        a = jobs.jobs_digest(jobs.make_jobs(workload, 11))
        assert a == jobs.jobs_digest(jobs.make_jobs(workload, 11))
    for workload in ("compile_mix", "refine_small"):
        assert (jobs.jobs_digest(jobs.make_jobs(workload, 11))
                != jobs.jobs_digest(jobs.make_jobs(workload, 12)))


def test_seed_changes_values_not_the_job_mix():
    mixes = [sorted(map(_class, jobs.make_jobs("compile_mix", s)), key=repr) for s in (1, 2)]
    assert mixes[0] == mixes[1]
    assert len(mixes[0]) == 45


def _cat(comp="2-even"):
    space = fockspace.make_space([24])
    target = targets.cat_state(space, 1.6, comp, truncate_at=15)
    return synthesis.invert_symmetric(target, 2, space=space, budget=jobs.BUDGET), target


def _perturb(schedule, index, delta=1e-3):
    steps = list(schedule.steps)
    steps[index] = dataclasses.replace(steps[index], area=steps[index].area + delta)
    return synthesis.replace_schedule(schedule, steps=steps)


def test_compile_fidelity_fails_on_a_perturbed_pulse_area():
    schedule, target = _cat()
    assert checks.compile_fidelity(synthesis.replay_fidelity(schedule, target)).ok
    bad = _perturb(schedule, 3)
    assert not checks.compile_fidelity(synthesis.replay_fidelity(bad, target)).ok


def test_json_roundtrip_fails_on_a_corrupted_file():
    schedule, target = _cat()
    fid = synthesis.replay_fidelity(schedule, target)
    data = json.loads(synthesis.schedule_to_json(schedule))
    back = synthesis.schedule_from_json(json.dumps(data))
    assert checks.json_roundtrip(synthesis.replay_fidelity(back, target), fid,
                                 schedule.initial).ok
    data["steps"][2]["area"] += 1e-3
    back = synthesis.schedule_from_json(json.dumps(data))
    c = checks.json_roundtrip(synthesis.replay_fidelity(back, target), fid, schedule.initial)
    assert not c.ok and not c.known  # starts from |g,0>: not the dropped-initial defect


def test_json_roundtrip_defect_is_known_only_for_a_shifted_start():
    schedule, target = _cat("2-odd")
    back = synthesis.schedule_from_json(synthesis.schedule_to_json(schedule))
    c = checks.json_roundtrip(synthesis.replay_fidelity(back, target),
                              synthesis.replay_fidelity(schedule, target), schedule.initial)
    assert not c.ok and c.known


def _ftp(order, top=13, seed=5):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=top + 1) + 1j * rng.normal(size=top + 1)
    target = targets.TargetState(amps)
    card = planner.punch_card(target, order)
    planned, _ = planner.steps_arbitrary(card)
    return synthesis.ftp_schedule(target, order, budget=jobs.BUDGET), planned, sum(card.heights)


def test_planner_count_fails_on_an_extra_pair():
    schedule, planned, climb = _ftp(2)
    assert checks.planner_count(planned, schedule, climb, 1).ok
    extra = synthesis.replace_schedule(schedule, steps=schedule.steps + schedule.steps[-2:])
    c = checks.planner_count(planned, extra, climb, 1)
    assert not c.ok and not c.known


def test_planner_count_base_shortcut_defect_is_known():
    schedule, planned, climb = _ftp(4)
    assert checks.pair_count(schedule) == planned + 1  # 13 compiled, 12 planned
    c = checks.planner_count(planned, schedule, climb, 3)
    assert not c.ok and c.known


def test_open_fidelity_fails_on_a_wrong_reference(monkeypatch):
    fid = checks.OPEN_REF["cat2"] + 0.001
    assert checks.open_fidelity("cat2", fid).ok
    assert not checks.open_fidelity("cat2", fid + 0.005).ok
    monkeypatch.setitem(checks.OPEN_REF, "cat2", 0.99)
    assert not checks.open_fidelity("cat2", fid).ok


def test_wigner_integral_fails_on_an_unnormalized_state():
    xs = np.linspace(*jobs.WIGNER_AXIS)
    rho = np.zeros((8, 8), dtype=complex)
    rho[0, 0] = 1.0
    assert checks.wigner_integral(fockspace.wigner(rho, xs, xs).integral()).ok
    assert not checks.wigner_integral(fockspace.wigner(1.05 * rho, xs, xs).integral()).ok


def test_refine_checks_fail_on_a_worse_or_misreported_output():
    assert checks.refine_no_worse(0.99, 0.99).ok
    assert not checks.refine_no_worse(0.98, 0.99).ok
    assert checks.refine_reported(0.99, 0.99).ok
    assert not checks.refine_reported(0.99 + 1e-9, 0.99).ok


def test_step_replay_probe_matches_and_fails_on_a_perturbed_state():
    for schedule in (_cat()[0], _ftp(3)[0]):
        assert jobs.step_replay_probe(schedule, Tracer()).ok
        whole = synthesis.apply_schedule(schedule, schedule.space.basis_state(*schedule.initial))
        assert not checks.step_replay(whole + 1e-9, whole).ok


def test_cli_checks_fail_on_bad_exit_and_output():
    assert checks.cli_exit(0).ok and not checks.cli_exit(1).ok
    assert checks.cli_output(12, 12).ok and not checks.cli_output(13, 12).ok


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_names_every_metric(trace, capsys):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert run.main(["--workload", "compile_mix", "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    want = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in want} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert result["correct"] and result["failed"] > 0
