"""Seeded job lists and the job runners of the three workloads.

make_jobs(workload, seed) returns one pass: a list of JSON-ready job specs.
The seed draws every value the library sees (amplitudes, cat sizes, grid
parameters, Fock subsets, CLI arguments). The job classes, their sizes and
their order are fixed per workload, so passes drawn from different seeds
cost about the same and seed-to-seed spread stays small.

run_job(job, tracer, scratch) runs one job through the public oscsynth API
and returns its checks. The probes at the end (step-by-step propagator
replay, replay timing, RHS timing) run only in traced runs, outside the
job's time.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import tempfile
import time

import numpy as np

from oscsynth import cli, fockspace, gates, multiosc, opensystem, planner, synthesis, targets

import checks
from spans import NullTracer

TWO_PI = 2.0 * math.pi
#: the reference couplings; orders 3 and 4 use the weaker couplings of the
#: higher-order comparisons
BUDGET = synthesis.CouplingBudget(
    omega=TWO_PI * 25e6,
    g={1: TWO_PI * 100e6, 2: TWO_PI * 25e6, 3: TWO_PI * 5e6, 4: TWO_PI * 0.5e6})
REPLAY_PROBE_REPEATS = 20
RHS_PROBE_SECONDS = 1e-9

WORKLOADS = ("compile_mix", "open_replay", "refine_small")

# Published order-2 cat pulse tables: (exchange areas, drive areas), applied
# drive-then-exchange from |g,0>; components, compile dimension, truncation.
CAT_LITERAL = {
    "cat2": ([-0.8510, -0.3937, -0.1915, 0.0938, -0.1656],
             [0.7397, 0.3290, 0.2926, -0.5195, 0.5745], "2-even", 16, 10),
    "cat4": ([-0.4704, 0.2539, -0.0237, 0.2099],
             [1.5708] * 4, "4-plus-plus", 13, 8),
}
OPEN_CUTOFF = 30
WIGNER_AXIS = (-4.0, 4.0, 81)


# ---------------------------------------------------------------------------
# job lists


def _amps(rng, levels, top):
    """Random complex amplitudes on `levels`, as [re, im] pairs up to `top`."""
    out = [[0.0, 0.0] for _ in range(top + 1)]
    for l in levels:
        re, im = rng.normal(size=2)
        out[l] = [float(re), float(im)]
    return out


def _fock(rng, levels, top, order=1):
    """Unit amplitudes on a random subset of `levels` that always holds the
    `order` highest ones, so every column keeps its height (and its cost)."""
    keep = [l for l in levels if l > top - order or rng.random() < 0.6]
    return [[1.0, 0.0] if l in keep else [0.0, 0.0] for l in range(top + 1)]


def _column(offset, order, top):
    return list(range(offset, top + 1, order))


def _sym(family, cutoff, order, offset=0, **kw):
    return dict(kind="sym", family=family, cutoff=cutoff, order=order, offset=offset, **kw)


def _compile_mix(rng):
    u = lambda lo, hi: float(rng.uniform(lo, hi))  # noqa: E731
    jobs = [
        # invert_symmetric on cats, a grid state and single-column targets;
        # odd offsets start from |g,k> with k > 0
        _sym("cat", 24, 2, comp="2-even", alpha=u(1.4, 1.8), trunc=14),
        _sym("cat", 24, 2, 1, comp="2-odd", alpha=u(1.4, 1.8), trunc=15),
        _sym("cat", 40, 2, comp="2-even", alpha=u(2.0, 2.6), trunc=24),
        _sym("cat", 40, 2, 1, comp="2-odd", alpha=u(2.0, 2.6), trunc=25),
        _sym("cat", 24, 4, comp="4-plus-plus", alpha=u(1.2, 1.6), trunc=16),
        _sym("cat", 40, 4, comp="4-plus-plus", alpha=u(1.6, 2.2), trunc=24),
        _sym("cat", 80, 4, comp="4-plus-plus", alpha=u(2.6, 3.2), trunc=40),
        _sym("cat", 80, 2, comp="2-even", alpha=u(3.0, 3.6), trunc=40),
        _sym("cat", 160, 2, comp="2-even", alpha=u(4.0, 4.8), trunc=60),
        _sym("cat", 160, 2, 1, comp="2-odd", alpha=u(4.0, 4.8), trunc=61),
        _sym("gkp", 160, 2, kappa=u(0.28, 0.34), r=u(0.5, 0.7), P=2),
        _sym("fock", 24, 1, amps=_fock(rng, _column(0, 1, 16), 16)),
        _sym("fock", 24, 2, 1, amps=_fock(rng, _column(1, 2, 15), 15)),
        _sym("fock", 24, 3, 2, amps=_fock(rng, _column(2, 3, 20), 20)),
        _sym("fock", 24, 4, 3, amps=_fock(rng, _column(3, 4, 19), 19)),
        _sym("random", 24, 2, 1, amps=_amps(rng, _column(1, 2, 17), 17)),
        _sym("random", 40, 1, amps=_amps(rng, _column(0, 1, 30), 30)),
        _sym("random", 40, 2, amps=_amps(rng, _column(0, 2, 30), 30)),
        _sym("random", 40, 3, 1, amps=_amps(rng, _column(1, 3, 31), 31)),
        _sym("random", 80, 4, 2, amps=_amps(rng, _column(2, 4, 62), 62)),
    ]
    # fine-tune-then-populate on arbitrary targets, orders 1-4
    for cutoff, order, top in ((24, 1, 14), (24, 2, 16), (24, 3, 16), (24, 3, 20), (24, 4, 14),
                               (40, 2, 30), (40, 3, 30), (40, 4, 30), (80, 1, 60),
                               (80, 2, 60)):
        jobs.append(dict(kind="ftp", cutoff=cutoff, order=order,
                         amps=_amps(rng, range(top + 1), top)))
    for cutoff, order, top in ((40, 3, 20), (40, 4, 24), (24, 2, 12)):
        jobs.append(dict(kind="ftp", cutoff=cutoff, order=order,
                         amps=_fock(rng, range(top + 1), top, order)))
    # two oscillators through ftp_two_oscillator
    bell = lambda: dict(alpha1=u(1.0, 1.3), alpha2=u(1.0, 1.3))  # noqa: E731
    for cutoff, kind, orders, params in (
            (8, "noon", (2, 2), dict(N=5)),
            (12, "bell_cat", (2, 2), dict(bell(), truncate_at=6)),
            (14, "noon", (2, 2), dict(N=10)),
            (14, "dense", (1, 2), dict(L1=5, L2=5)),
            (20, "noon", (2, 1), dict(N=12)),
            (20, "bell_cat", (2, 2), dict(bell(), truncate_at=7)),
            (20, "bell_cat", (1, 2), dict(bell(), truncate_at=6)),
            (20, "dense", (2, 2), dict(L1=5, L2=5))):
        jobs.append(dict(kind="two", cutoff=cutoff, target=kind, orders=list(orders),
                         params=params))
    # the command line, writing into a scratch directory
    odd = [l for l in range(3, 11, 2) if rng.random() < 0.6]
    jobs += [
        dict(kind="cli", cmd="synthesize", target=f"cat2:alpha={u(1.5, 2.0):.4f},trunc=12",
             order=2),
        dict(kind="cli", cmd="synthesize",
             target="fock:" + ",".join(str(l) for l in [1] + odd + [11]), order=2),
        dict(kind="cli", cmd="plan", order=int(rng.integers(2, 4)),
             target="fock:" + ",".join(str(l) for l in sorted(
                 {0, 17} | {int(x) for x in rng.choice(17, size=6, replace=False)}))),
        dict(kind="cli", cmd="estimate", K=int(rng.integers(10, 41)), n=int(rng.integers(1, 3)),
             omega_hz=float(round(u(20e6, 30e6))), g_hz=float(round(u(20e6, 100e6)))),
    ]
    return jobs


def make_jobs(workload: str, seed: int) -> list:
    """One pass of the workload's job list, drawn from `seed`.

    compile_mix has 45 jobs and refine_small 5, so that over P passes the
    median and the 90th percentile fall mid-way through the P runs of one
    job class, not on the edge between two classes of different cost.
    """
    rng = np.random.default_rng(seed)
    if workload == "compile_mix":
        jobs = _compile_mix(rng)
    elif workload == "open_replay":
        # fixed: the check compares against published reference fidelities
        return [dict(kind="open", cat=k) for k in ("cat2", "cat4")]
    elif workload == "refine_small":
        jobs = [dict(kind="refine", order=2, amps=_amps(rng, range(top + 1), top))
                for top in (3, 4, 4, 5, 6)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    # a fixed interleaving: the seed changes values, not the order of costs
    return [jobs[i] for i in np.random.default_rng(0).permutation(len(jobs))]


def jobs_digest(jobs: list) -> str:
    text = json.dumps(jobs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# job runners


def _vector(amps, cutoff):
    vec = np.zeros(cutoff, dtype=complex)
    vec[: len(amps)] = [complex(re, im) for re, im in amps]
    return vec


def _build_target(job):
    cutoff = job["cutoff"]
    if job["kind"] == "two":
        space = fockspace.make_space([cutoff, cutoff])
        return space, targets.multimode_target(space, job["target"], **job["params"])
    space = fockspace.make_space([cutoff])
    if job["kind"] == "ftp":
        return space, targets.TargetState(_vector(job["amps"], cutoff))
    family = job["family"]
    if family == "cat":
        return space, targets.cat_state(space, job["alpha"], job["comp"],
                                        truncate_at=job["trunc"])
    if family == "gkp":
        return space, targets.gkp_zero(space, job["kappa"], job["r"], job["P"])
    return space, targets.TargetState(_vector(job["amps"], cutoff), job["order"],
                                      job["offset"])


def _compile_job(job, tr):
    kind = job["kind"]
    with tr.span("targets.build"):
        space, target = _build_target(job)
    out = []
    if kind == "two":
        orders = tuple(job["orders"])
        with tr.span("planner.plan"):
            planned, _ = planner.two_oscillator_plan(target, orders, BUDGET)
            card = planner.multi_punch_card(target, orders)
        with tr.span("multiosc.compile"):
            schedule = multiosc.ftp_two_oscillator(target, orders, budget=BUDGET, space=space)
        tr.count("multiosc.pulses_out", len(schedule.steps))
        out.append(checks.planner_count(planned, schedule, planned - card.base_steps,
                                        orders[0] * orders[1] - 1))
    else:
        n = job["order"]
        with tr.span("planner.plan"):  # step count and time estimate
            card = planner.punch_card(target, n)
            if kind == "ftp":
                planned, _ = planner.steps_arbitrary(card)
                planner.time_ftp(card, BUDGET)
            else:
                planner.time_symmetric(sum(card.heights), n, BUDGET)
        with tr.span("synthesis.compile"):
            if kind == "ftp":
                schedule = synthesis.ftp_schedule(target, n, budget=BUDGET, space=space)
            else:
                schedule = synthesis.invert_symmetric(target, n, space=space, budget=BUDGET)
        tr.count("synthesis.pulses_out", len(schedule.steps))
        if kind == "ftp":
            out.append(checks.planner_count(planned, schedule, sum(card.heights), n - 1))
    semantics = schedule.semantics
    with tr.span("synthesis.json"):
        text = synthesis.schedule_to_json(schedule)
        back = synthesis.schedule_from_json(text)
    tr.count("synthesis.json_bytes", len(text))
    with tr.span("synthesis.replay"):
        fid = synthesis.replay_fidelity(schedule, target, semantics=semantics)
        fid_back = synthesis.replay_fidelity(back, target, semantics=semantics)
    out += [checks.compile_fidelity(fid),
            checks.json_roundtrip(fid_back, fid, schedule.initial)]
    return out, [(schedule, target)]


def _cli_job(job, tr, scratch):
    workdir = tempfile.mkdtemp(dir=scratch)
    try:
        out_path = os.path.join(workdir, "out")
        if job["cmd"] == "synthesize":
            argv = ["synthesize", "--target", job["target"], "--order", str(job["order"]),
                    "--cutoff", "24", "--out", out_path]
        elif job["cmd"] == "plan":
            budget_path = os.path.join(workdir, "budget.txt")
            with open(budget_path, "w") as fh:
                fh.write("".join(f"g{n} = {g / TWO_PI!r} *2pi\n" for n, g in BUDGET.g.items()))
            argv = ["plan", "--target", job["target"], "--order", str(job["order"]),
                    "--cutoff", "24", "--budget", budget_path, "--csv"]
        else:
            argv = ["estimate", "--mode", "symmetric", "--K", str(job["K"]),
                    "--n", str(job["n"]), "--omega", f"{job['omega_hz']:.0f}*2pi",
                    "--g", f"{job['g_hz']:.0f}*2pi", "--out", out_path]
        stdout = io.StringIO()
        with tr.span("cli.main"), contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
        out = [checks.cli_exit(code)]
        if code != 0:
            return out
        if job["cmd"] == "synthesize":
            with tr.span("targets.build"):
                target = targets.parse_target(job["target"],
                                              space=fockspace.make_space([24]))
            with open(out_path) as fh:
                text = fh.read()
            with tr.span("synthesis.json"):
                back = synthesis.schedule_from_json(text)
            with tr.span("synthesis.replay"):
                fid_back = synthesis.replay_fidelity(back, target)
            out += [checks.compile_fidelity(back.fidelity),
                    checks.json_roundtrip(fid_back, back.fidelity,
                                          (fockspace.QUBIT_G, target.symmetry_offset))]
        elif job["cmd"] == "plan":
            row = stdout.getvalue().strip().splitlines()[-1].split(",")
            with tr.span("targets.build"):
                target = targets.parse_target(job["target"],
                                              space=fockspace.make_space([24]))
            with tr.span("planner.plan"):
                n_arb, _ = planner.steps_arbitrary(planner.punch_card(target, job["order"]))
            out.append(checks.cli_output(int(row[2]), n_arb))
        else:
            with open(out_path) as fh:
                row = fh.read().strip().splitlines()[-1].split(",")
            budget = synthesis.CouplingBudget(omega=job["omega_hz"] * TWO_PI,
                                              g={job["n"]: job["g_hz"] * TWO_PI})
            with tr.span("planner.plan"):
                t = planner.time_symmetric(job["K"], job["n"], budget)
            out.append(checks.cli_output(float(row[4]), t * 1e9))
        return out
    finally:
        shutil.rmtree(workdir)


def literal_cat_schedule(kind):
    exch, drive, _, dim, _ = CAT_LITERAL[kind]
    steps = []
    for g_a, d_a in zip(exch, drive):
        steps.append(gates.PulseStep("drive", d_a, 0.0))
        steps.append(gates.PulseStep("njc", g_a, 0.0, osc_index=0, order=2))
    return synthesis.PulseSchedule(steps=steps, space=fockspace.make_space([dim]),
                                   budget=BUDGET)


def _open_job(job, tr):
    kind = job["cat"]
    _, _, comp, _, trunc = CAT_LITERAL[kind]
    schedule = literal_cat_schedule(kind)
    with tr.span("targets.build"):
        target = targets.cat_state(schedule.space, math.sqrt(2.0), comp, truncate_at=trunc)
    with tr.span("opensystem.replay"):
        rho, fid = opensystem.run_open_protocol(
            schedule, opensystem.CircuitParams(), opensystem.NoiseRates(),
            cutoff=OPEN_CUTOFF, target=target)
    with tr.span("fockspace.ptrace"):
        rho_osc = fockspace.ptrace_qubit(fockspace.make_space([OPEN_CUTOFF]), rho)
    xs = np.linspace(*WIGNER_AXIS)
    with tr.span("fockspace.wigner"):
        grid = fockspace.wigner(rho_osc, xs, xs)
    tr.count("fockspace.wigner_points", xs.size ** 2)
    return [checks.open_fidelity(kind, fid),
            checks.wigner_integral(grid.integral())], [(schedule, target)]


def _refine_job(job, tr):
    n = job["order"]
    with tr.span("targets.build"):
        target = targets.TargetState(_vector(job["amps"], len(job["amps"])))
    with tr.span("planner.plan"):
        card = planner.punch_card(target, n)
        planned, _ = planner.steps_arbitrary(card)
    with tr.span("synthesis.compile"):
        schedule = synthesis.ftp_schedule(target, n, budget=BUDGET)
    tr.count("synthesis.pulses_out", len(schedule.steps))
    with tr.span("synthesis.replay"):
        fid = synthesis.replay_fidelity(schedule, target)
        fid_in = synthesis.replay_fidelity(schedule, target, semantics="exact")
    with tr.span("synthesis.refine"):
        refined = synthesis.refine_schedule(schedule, target, "exact")
    with tr.span("synthesis.replay"):
        fid_out = synthesis.replay_fidelity(refined, target, semantics="exact")
    tr.count("synthesis.refine_improved", fid_out > fid_in)
    return [checks.compile_fidelity(fid),
            checks.planner_count(planned, schedule, sum(card.heights), n - 1),
            checks.refine_no_worse(fid_out, fid_in),
            checks.refine_reported(refined.fidelity, fid_out)], [(schedule, target)]


def run_job(job, tr, scratch):
    """Run one job; returns (checks, [(schedule, target)] for the probes)."""
    kind = job["kind"]
    if kind in ("sym", "ftp", "two"):
        return _compile_job(job, tr)
    if kind == "cli":
        return _cli_job(job, tr, scratch), []
    if kind == "open":
        return _open_job(job, tr)
    if kind == "refine":
        return _refine_job(job, tr)
    raise ValueError(f"unknown job kind {kind!r}")


def warm_up(workload, scratch):
    """One small fixed job of the workload's kind, run before measuring."""
    tr = NullTracer()
    if workload == "compile_mix":
        run_job(_sym("cat", 24, 2, comp="2-even", alpha=1.6, trunc=14), tr, scratch)
    elif workload == "refine_small":
        amps = [[0.6, 0.1], [-0.3, 0.5], [0.2, -0.4], [0.5, 0.2]]
        run_job(dict(kind="refine", order=2, amps=amps), tr, scratch)
    else:
        # the shortest exchange pulse of the cat4 table, then the analysis
        schedule = literal_cat_schedule("cat4")
        schedule.steps = schedule.steps[4:6]
        rho, _ = opensystem.run_open_protocol(schedule, cutoff=OPEN_CUTOFF)
        rho_osc = fockspace.ptrace_qubit(fockspace.make_space([OPEN_CUTOFF]), rho)
        fockspace.wigner(rho_osc, *[np.linspace(*WIGNER_AXIS)] * 2)


# ---------------------------------------------------------------------------
# traced-run probes


def step_replay_probe(schedule, tr):
    """Replay step by step through gates.step_propagator and compare with
    synthesis.apply_schedule."""
    space = schedule.space
    initial = space.basis_state(*schedule.initial)
    state = initial
    for step in schedule.steps:
        with tr.span("gates.step_propagator"):
            u = gates.step_propagator(space, step, semantics=schedule.semantics)
        with tr.span("gates.apply"):
            state = u @ state
    whole = synthesis.apply_schedule(schedule, initial)
    return checks.step_replay(state, whole)


def replay_probe(schedule, target):
    """Mean seconds of one exact-semantics replay_fidelity call."""
    t0 = time.perf_counter()
    for _ in range(REPLAY_PROBE_REPEATS):
        synthesis.replay_fidelity(schedule, target, semantics="exact")
    return (time.perf_counter() - t0) / REPLAY_PROBE_REPEATS


def rhs_probe(cutoff):
    """Integrate the open-system exchange generator for 1 ns through
    lindblad_evolve with a counting, self-timing Hamiltonian, at the
    njc_max_step run_open_protocol uses.

    Returns (seconds per RHS evaluation, seconds per Hamiltonian call,
    evaluations).
    """
    gen = opensystem.InteractionPictureGenerator(opensystem.CircuitParams(), cutoff)
    calls = [0, 0.0]

    def hamiltonian(t):
        t0 = time.perf_counter()
        h = gen(t)
        calls[0] += 1
        calls[1] += time.perf_counter() - t0
        return h

    psi = np.zeros(2 * cutoff, dtype=complex)
    psi[cutoff] = psi[cutoff + 2] = math.sqrt(0.5)  # (|g,0> + |g,2>)/sqrt(2)
    t0 = time.perf_counter()
    opensystem.lindblad_evolve(np.outer(psi, psi.conj()), hamiltonian,
                               opensystem.NoiseRates(), RHS_PROBE_SECONDS, max_step=1e-11)
    wall = time.perf_counter() - t0
    return wall / calls[0], calls[1] / calls[0], calls[0]
