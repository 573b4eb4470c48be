"""oscsynth benchmark: one client in a closed loop, in one single-threaded process.

    python3 perfbench/run.py --workload compile_mix --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the library is imported from
./src. Set-up (imports, job-list generation, one untimed warm-up job) is
timed first, the generation and warm-up three times over. Then the job
list runs pass after pass, each job issued only after the previous one
returned, until the workload's minimum number of passes is done and less
than half a pass of --seconds is left. Every job's outputs are checked.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
and traced passes, reports per-layer metrics per traced pass (self time
and counts from spans around the benchmark's calls into each oscsynth
module, plus probes run outside the jobs' time) and the tracing overhead,
and writes the spans to .perfbench/.

The last line of standard output is one JSON object: correct, attempted
(jobs run), failed (jobs with any failed check) and metrics.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import threading
import time
import traceback
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("compile_mix", "open_replay", "refine_small")
# compile_mix runs 45 jobs a pass; three passes put 13 samples beyond p90
MIN_PASSES = {"compile_mix": 3, "open_replay": 1, "refine_small": 1}
SETUP_REPEATS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# environment record


def _blas_threads():
    """Thread counts reported by the OpenBLAS builds numpy and scipy load."""
    import ctypes
    import numpy
    import scipy

    found = {}
    for pkg in (numpy, scipy):
        libdir = os.path.join(os.path.dirname(pkg.__file__), os.pardir, pkg.__name__ + ".libs")
        for path in glob.glob(os.path.join(libdir, "*openblas*")):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[os.path.basename(path)] = fn()
                    break
    return found


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref[5:]:
                    return parts[0]
    return None


def _src_digest():
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "oscsynth", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def environment(args, jobs_digest):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas_name,
        "blas_threads": _blas_threads(),
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "python_threads": threading.active_count(), "machine": platform.machine(),
        "git_commit": _git_commit(), "src_sha256": _src_digest(),
        "jobs_sha256": jobs_digest,
    }


# ---------------------------------------------------------------------------
# measurement


class Run:
    """Closed-loop execution of one workload's job list, with check tallies."""

    def __init__(self, workload, job_list, scratch, tracer):
        import jobs
        import spans

        self.jobs = jobs
        self.workload = workload
        self.job_list = job_list
        self.scratch = scratch
        self.tracer = tracer
        self.null = spans.NullTracer()
        self.passes = []  # (traced, wall seconds, [job seconds])
        self.checks = defaultdict(lambda: [0, 0, 0])  # name -> passed, failed, known
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.replay_probe_s = []

    def run_pass(self, traced):
        tr = self.tracer if traced else self.null
        times = []
        for j, job in enumerate(self.job_list):
            if traced:
                tr.trace_id = f"p{len(self.passes)}j{j}"
            t0 = time.perf_counter()
            try:
                with tr.span("job"):
                    results, outputs = self.jobs.run_job(job, tr, self.scratch)
            except Exception:
                # a job that raises counts as failed; the loop keeps going
                traceback.print_exc()
                results, outputs = [self.jobs.checks.Check("error", False)], []
            times.append(time.perf_counter() - t0)
            if traced:
                with tr.span("probe"):
                    for schedule, target in outputs:
                        results.append(self.jobs.step_replay_probe(schedule, tr))
                        if self.workload == "refine_small":
                            self.replay_probe_s.append(self.jobs.replay_probe(schedule, target))
            self.record(results)
        self.passes.append((traced, sum(times), times))

    def record(self, results):
        self.attempted += 1
        self.failed += any(not c.ok for c in results)
        for c in results:
            tally = self.checks[c.name]
            tally[0 if c.ok else 1] += 1
            tally[2] += (not c.ok) and c.known
            if not c.ok and not c.known:
                self.correct = False

    def count(self, traced):
        return sum(1 for t, _, _ in self.passes if t == traced)

    def measure(self, seconds, trace):
        """Run passes for about `seconds`: stop once the minimum is done and
        less than half a pass of time is left."""
        deadline = time.perf_counter() + seconds
        last = 0.0
        while True:
            untraced, traced = self.count(False), self.count(True)
            if trace:
                enough = untraced >= 1 and traced >= 1
            else:
                enough = untraced >= MIN_PASSES[self.workload]
            if enough and deadline - time.perf_counter() < last / 2:
                return
            t0 = time.perf_counter()
            self.run_pass(traced=trace and untraced > traced)
            last = time.perf_counter() - t0

    def walls(self, traced):
        return [w for t, w, _ in self.passes if t == traced]


def end_to_end(run, setup_s):
    passes = [jt for t, _, jt in run.passes if not t]
    times = [x for jt in passes for x in jt]
    # p50 of each job's median over the passes: a pass that runs slow as a
    # whole moves it less than it moves the pooled median
    typical = [statistics.median(runs) for runs in zip(*passes)]
    return {
        "wall_s": (statistics.median(run.walls(False)), "s"),
        "job_p50_s": (statistics.median(typical), "s"),
        "job_p90_s": (statistics.quantiles(times, n=10, method="inclusive")[8], "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(run, rhs):
    tracer = run.tracer
    totals = tracer.totals()
    n = run.count(True)

    def secs(name):
        return totals.get(name, (0, 0.0))[1] / n

    def calls(name):
        return totals.get(name, (0, 0.0))[0] / n

    def failed(check):
        return run.checks.get(check, (0, 0, 0))[1] / len(run.passes)

    props = calls("gates.step_propagator")
    refines = calls("synthesis.refine")
    walls_t, walls_u = run.walls(True), run.walls(False)
    m = {
        "targets.build_s": (secs("targets.build"), "s"),
        "targets.calls": (calls("targets.build"), "count"),
        "planner.plan_s": (secs("planner.plan"), "s"),
        "planner.calls": (calls("planner.plan"), "count"),
        "planner.count_mismatch": (failed("planner_count"), "count"),
        "synthesis.compile_s": (secs("synthesis.compile"), "s"),
        "synthesis.compile_calls": (calls("synthesis.compile"), "count"),
        "synthesis.pulses_out": (tracer.counters["synthesis.pulses_out"] / n, "count"),
        "synthesis.replay_s": (secs("synthesis.replay"), "s"),
        "synthesis.json_s": (secs("synthesis.json"), "s"),
        "synthesis.json_bytes": (tracer.counters["synthesis.json_bytes"] / n, "bytes"),
        "synthesis.json_roundtrip_failed": (failed("json_roundtrip"), "count"),
        "synthesis.refine_s": (secs("synthesis.refine"), "s"),
        "synthesis.refine_calls": (refines, "count"),
        "synthesis.refine_improved_frac": (
            tracer.counters["synthesis.refine_improved"] / n / refines if refines else 0.0,
            "fraction"),
        "synthesis.replay_us": (
            statistics.fmean(run.replay_probe_s) * 1e6 if run.replay_probe_s else 0.0, "us"),
        "multiosc.compile_s": (secs("multiosc.compile"), "s"),
        "multiosc.compile_calls": (calls("multiosc.compile"), "count"),
        "multiosc.pulses_out": (tracer.counters["multiosc.pulses_out"] / n, "count"),
        "gates.propagator_s": (secs("gates.step_propagator"), "s"),
        "gates.propagators": (props, "count"),
        "gates.propagator_us": (
            secs("gates.step_propagator") / props * 1e6 if props else 0.0, "us"),
        "gates.apply_s": (secs("gates.apply"), "s"),
        "opensystem.replay_s": (secs("opensystem.replay"), "s"),
        "opensystem.replays": (calls("opensystem.replay"), "count"),
        "fockspace.wigner_s": (secs("fockspace.wigner"), "s"),
        "fockspace.wigner_points": (tracer.counters["fockspace.wigner_points"] / n, "count"),
        "fockspace.ptrace_s": (secs("fockspace.ptrace"), "s"),
        "cli.main_s": (secs("cli.main"), "s"),
        "cli.calls": (calls("cli.main"), "count"),
        "bench.glue_s": (secs("job"), "s"),
        "trace.wall_s": (statistics.median(walls_t), "s"),
        "trace.overhead_s": (statistics.median(walls_t) - statistics.median(walls_u), "s"),
        "trace.spans": (len(tracer.spans) / n, "count"),
    }
    for cutoff in (30, 40):
        rhs_s, h_s, evals = rhs.get(cutoff, (0.0, 0.0, 0))
        m[f"opensystem.rhs_eval_us.c{cutoff}"] = (rhs_s * 1e6, "us")
        if cutoff == 30:
            m["opensystem.h_eval_us.c30"] = (h_s * 1e6, "us")
            m["opensystem.rhs_evals_per_ns.c30"] = (float(evals), "1/ns")
    return m


def main(argv=None):
    t_start = time.perf_counter()
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "oscsynth", "__init__.py")):
        print(f"error: no oscsynth sources under {SRC}", file=sys.stderr)
        return 2
    # one single-threaded process: pin the BLAS pools before numpy loads
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [SRC, HERE]
    import oscsynth

    if os.path.dirname(os.path.abspath(oscsynth.__file__)) != os.path.join(SRC, "oscsynth"):
        print(f"error: oscsynth imported from {oscsynth.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import jobs
    import spans

    import_s = time.perf_counter() - t_start
    scratch = os.path.join(OUT_DIR, "tmp")
    os.makedirs(scratch, exist_ok=True)

    setup_times, digests = [], set()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        job_list = jobs.make_jobs(args.workload, args.seed)
        digests.add(jobs.jobs_digest(job_list))
        jobs.warm_up(args.workload, scratch)
        setup_times.append(time.perf_counter() - t0)
    if len(digests) != 1:
        print("error: job list generation is not deterministic", file=sys.stderr)
        return 2
    setup_s = import_s + statistics.median(setup_times)

    env = environment(args, digests.pop())
    nproc = env["nproc"] or 1
    if any(n > nproc for n in env["blas_threads"].values()):
        print(f"error: BLAS thread count above nproc={nproc}: {env['blas_threads']}",
              file=sys.stderr)
        return 2

    run = Run(args.workload, job_list, scratch, spans.Tracer() if args.trace else None)
    run.measure(args.seconds, bool(args.trace))
    if args.trace:
        rhs = {}
        if args.workload == "open_replay":
            with run.tracer.span("probe"):
                rhs = {c: jobs.rhs_probe(c) for c in (30, 40)}
        metrics = per_layer(run, rhs)
    else:
        metrics = end_to_end(run, setup_s)

    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}")
    values = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    report = {
        "env": env, "import_s": import_s, "setup_repeats_s": setup_times,
        "passes": [{"traced": t, "wall_s": w, "job_s": jt} for t, w, jt in run.passes],
        "checks": {k: dict(zip(("passed", "failed", "known_defect"), v))
                   for k, v in sorted(run.checks.items())},
        "known_defects": jobs.checks.KNOWN_DEFECTS,
        "metrics": values,
    }
    with open(f"{stem}-trace{args.trace}.json", "w") as fh:
        json.dump(report, fh, indent=1)
    if args.trace:
        run.tracer.dump(f"{stem}-spans.json")

    print(f"{args.workload} seed {args.seed}: {len(run.passes)} passes, "
          f"{run.attempted} jobs, {run.failed} with a failed check "
          f"(failed_frac {run.failed / run.attempted:.4f})")
    for name, (ok, bad, known) in sorted(run.checks.items()):
        print(f"  check {name}: {ok} passed, {bad} failed"
              + (f" ({known} from a known defect)" if known else ""))
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": run.correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": values,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
