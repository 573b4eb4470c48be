"""Command-line entry points.

Subcommands wrap the library modules: `synthesize` compiles a target into
a schedule JSON, `plan` prints the punch-card step/time analysis,
`estimate` tabulates preparation-time formulas, and `open-sim` replays a
schedule on the dissipative circuit model; `plan` and `estimate` write
to --out when it is given, else to stdout. `main` holds the policy every
run shares: it checks each output directory before any work, maps errors
to exit codes with one `error:` line, and writes a manifest next to --out
that digests every input file. Subcommands write their outputs last, so
a failed run leaves no file; identical invocations produce byte-identical
outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__, opensystem
from .fockspace import make_space, ptrace_qubit, wigner
from .planner import (base_step_count, punch_card, scaling_table, scaling_table_csv,
                      steps_arbitrary, time_ftp, time_le, time_symmetric,
                      two_oscillator_plan)
from .synthesis import (DEFAULT_G, DEFAULT_OMEGA, CouplingBudget,
                        ftp_schedule, invert_symmetric, replay_fidelity,
                        schedule_from_json, schedule_to_json)
from .targets import parse_target

TWOPI = 2.0 * math.pi

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_QUALITY = 2
EXIT_INTEGRATION = 3

# Arguments that name files a run reads (a target names one as
# amps:<file>) and files it writes.
INPUT_ARGS = ("budget", "schedule", "params", "rates", "target")
OUTPUT_ARGS = ("out", "wigner")


def _input_files(args) -> dict:
    """{argument name: path} of each input file the run names."""
    files = {}
    for name in INPUT_ARGS:
        path = getattr(args, name, None)
        if name == "target" and path:
            head, _, body = path.strip().partition(":")
            path = body.strip() if head.strip().lower() == "amps" else None
        if path:
            files[name] = path
    return files


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(args, started) -> None:
    """Emit the run manifest next to --out."""
    manifest = {
        "command": args.subcommand,
        "arguments": {k: v for k, v in sorted(vars(args).items())
                      if not k.startswith("_") and k != "func"},
        "input_digests": {p: _sha256(p) for p in _input_files(args).values()},
        "tool_version": __version__,
        "outputs": [getattr(args, n) for n in OUTPUT_ARGS if getattr(args, n, None)],
        "wall_seconds": round(time.time() - started, 3),
    }
    path = str(args.out) + ".manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def parse_budget_file(path) -> CouplingBudget:
    """Read couplings from a key = value file.

    Keys: omega, g1, g2, ... Values in rad/s when the key ends in _radps
    (e.g. omega_radps), or in Hz with an explicit *2pi marker
    (`omega = 25e6 *2pi`). Bare numbers without either form are rejected.
    """
    omega = None
    g = {}
    for key, val in opensystem._read_kv_file(path).items():
        if val.endswith("*2pi"):
            value = float(val[:-4].strip()) * TWOPI
        elif key.endswith("_radps"):
            key = key[:-6]
            value = float(val)
        else:
            raise ValueError(
                f"budget value for {key!r} needs a *2pi marker or a _radps key")
        if key == "omega":
            omega = value
        elif key.startswith("g") and key[1:].isdigit():
            g[int(key[1:])] = value
        else:
            raise ValueError(f"unknown budget key {key!r}")
    if omega is None:
        omega = DEFAULT_OMEGA
    if not g:
        g = dict(DEFAULT_G)
    return CouplingBudget(omega=omega, g=g)


def _load_budget(path) -> CouplingBudget:
    """The --budget file's couplings, or the default budget without one."""
    return parse_budget_file(path) if path else CouplingBudget()


def _usage_error(exc: Exception) -> int:
    """Report a bad input and return the usage exit code. A KeyError's
    message is its first argument (its str() adds quotes)."""
    print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
    return EXIT_USAGE


def _missing_input(args, exc: OSError) -> int:
    """Report an input file that is missing or a directory, named by its
    argument, and return the usage exit code; other files' errors re-raise."""
    for name, path in _input_files(args).items():
        if path == exc.filename:
            what = "is a directory" if isinstance(exc, IsADirectoryError) else "not found"
            return _usage_error(ValueError(f"{name} file {path!r} {what}"))
    raise exc


def _load_schedule(path):
    """The --schedule file's schedule; a file that is not a schedule JSON
    raises ValueError naming it."""
    with open(path) as fh:
        text = fh.read()
    try:
        return schedule_from_json(text)
    except KeyError as exc:
        raise ValueError(f"schedule file {path!r} has no {exc.args[0]!r} field") from None
    except (ValueError, TypeError) as exc:
        raise ValueError(f"schedule file {path!r}: {exc}") from None


def _write_text(text: str, out) -> None:
    """A report's text, to the file out when it is given, else to stdout."""
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_order(text: str) -> tuple:
    """--order as one interaction order per oscillator, n1,...,nM. A
    ValueError names the order for anything else and for an order below 1."""
    try:
        orders = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"--order {text!r}: expected n or n1,...,nM") from None
    if min(orders) < 1:
        raise ValueError(f"--order {text!r}: interaction orders must be >= 1")
    return orders


def _angular(text: str) -> float:
    """Parse an angular frequency argument: `<hz>*2pi` or `<radps>radps`."""
    text = text.strip().lower()
    if text.endswith("*2pi"):
        return float(text[:-4]) * TWOPI
    if text.endswith("radps"):
        return float(text[:-5])
    raise argparse.ArgumentTypeError(
        f"{text!r}: append *2pi (Hz) or radps (rad/s); bare numbers are ambiguous")


# ---------------------------------------------------------------------------
# synthesize


def cmd_synthesize(args) -> int:
    budget = _load_budget(args.budget)
    orders = _parse_order(args.order)
    space = make_space([args.cutoff] * len(orders))
    target = parse_target(args.target, space=space)
    if len(orders) > 1 or args.ftp:
        schedule = ftp_schedule(target, orders, budget=budget, space=space)
    else:
        schedule = invert_symmetric(target, orders[0], space=space, budget=budget)
    if args.semantics:
        schedule.semantics = "ideal-pair" if args.semantics == "ideal" else "exact"
        schedule.fidelity = replay_fidelity(schedule, target)
    # serialized before --out is opened, so a failure leaves no file
    text = schedule_to_json(schedule)
    with open(args.out, "w") as fh:
        fh.write(text)
    fid = schedule.fidelity if schedule.fidelity is not None else 0.0
    dur = schedule.duration
    print(f"steps: {len(schedule.steps)}  fidelity: {fid:.10f}"
          + (f"  duration: {dur * 1e9:.4f} ns" if dur is not None else ""))
    return EXIT_OK if fid >= args.threshold else EXIT_QUALITY


# ---------------------------------------------------------------------------
# plan


def cmd_plan(args) -> int:
    budget = _load_budget(args.budget)
    orders = _parse_order(args.order)
    space = make_space([args.cutoff] * len(orders))
    target = parse_target(args.target, space=space)
    if len(orders) > 1:
        steps, t_ftp = two_oscillator_plan(target, orders, budget)
        lin_steps, t_lin = two_oscillator_plan(target, (1,) * len(orders), budget)
        if args.csv:
            lines = [",".join(f"n{i + 1}" for i in range(len(orders)))
                     + ",steps,steps_linear,T_ftp_ns,T_linear_ns",
                     ",".join(str(n) for n in orders) + f",{steps},{lin_steps},"
                     f"{t_ftp * 1e9:.12g},{t_lin * 1e9:.12g}"]
        else:
            lines = [f"orders: {orders}",
                     f"steps: {steps} (linear protocol: {lin_steps})",
                     f"T_FTP: {t_ftp * 1e9:.2f} ns (linear: {t_lin * 1e9:.2f} ns)"]
    else:
        order = orders[0]
        card = punch_card(target, order)
        n_arb, k_arb = steps_arbitrary(card)
        t_ftp = time_ftp(card, budget)
        t_lin = time_le(target.max_index, budget)
        if args.csv:
            hs = ";".join(str(h) for h in card.heights)
            lines = ["n,heights,N_arb,K_arb,T_ftp_ns,T_le_ns",
                     f"{order},{hs},{n_arb},{k_arb},"
                     f"{t_ftp * 1e9:.12g},{t_lin * 1e9:.12g}"]
        else:
            lines = [card.render(),
                     f"heights: {card.heights}",
                     f"steps: {base_step_count(order)}+{sum(card.heights)}"
                     f" = {n_arb} (upper bound {k_arb})",
                     f"T_FTP: {t_ftp * 1e9:.2f} ns   T_LE: {t_lin * 1e9:.2f} ns"]
    _write_text("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# estimate


def cmd_estimate(args) -> int:
    if args.mode == "symmetric":
        budget = CouplingBudget(omega=args.omega, g={args.n: args.g})
        t = time_symmetric(args.K, args.n, budget)
        text = f"K,n,omega_radps,g_radps,T_ns\n{args.K},{args.n}," \
               f"{args.omega:.12g},{args.g:.12g},{t * 1e9:.12g}\n"
    else:
        g1 = TWOPI * 100e6
        if args.mode == "figure2":
            variants = {1: (g1,), 2: (g1 / 4, g1 / 8)}
        else:
            variants = {1: (g1,), 3: (g1 / 20, g1 / 40), 4: (g1 / 200, g1 / 400)}
        budgets = [CouplingBudget(omega=om, g={n: g})
                   for om in (TWOPI * 25e6, TWOPI * 200e6)
                   for n, gs in variants.items() for g in gs]
        rows = scaling_table(sorted(variants), budgets, range(1, args.K + 1))
        text = scaling_table_csv(rows)
    _write_text(text, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# open-sim


def cmd_open_sim(args) -> int:
    schedule = _load_schedule(args.schedule)
    params = opensystem.load_params(args.params) if args.params else opensystem.CircuitParams()
    rates = opensystem.load_rates(args.rates) if args.rates else opensystem.NoiseRates()
    target = None
    if args.target:
        target = parse_target(args.target, space=make_space([args.cutoff]))
    if args.wigner_points < 2:
        raise ValueError(f"--wigner-points must be at least 2, got {args.wigner_points}")
    rho, fid = opensystem.run_open_protocol(schedule, params, rates,
                                            cutoff=args.cutoff, target=target)
    grid = None
    if args.wigner:
        xs = np.linspace(-4, 4, args.wigner_points)
        grid = wigner(ptrace_qubit(make_space([args.cutoff]), rho), xs, xs)
    with open(args.out, "w") as fh:
        fh.write(opensystem.density_matrix_to_csv(rho))
    if grid is not None:
        grid.to_csv(args.wigner)
    if fid is not None:
        print(f"fidelity: {fid:.8f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring


ORDER_HELP = ("interaction order n for one oscillator, or n1,...,nM: one per "
              "oscillator, M the number of oscillators")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="oscsynth",
        description="Compile, plan, and simulate oscillator state-preparation "
                    "pulse schedules.")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="subcommand", required=True)

    syn = sub.add_parser("synthesize", help="compile a target into a schedule JSON")
    syn.add_argument("--target", required=True)
    syn.add_argument("--order", required=True, help=ORDER_HELP)
    syn.add_argument("--cutoff", type=int, default=24)
    syn.add_argument("--budget", default=None)
    syn.add_argument("--ftp", action="store_true",
                     help="use the fine-tune-then-populate compiler (always used "
                          "for more than one oscillator)")
    syn.add_argument("--semantics", choices=("exact", "ideal"), default=None)
    syn.add_argument("--threshold", type=float, default=0.999)
    syn.add_argument("--out", required=True)
    syn.set_defaults(func=cmd_synthesize)

    plan = sub.add_parser("plan", help="punch-card step and time analysis")
    plan.add_argument("--target", required=True)
    plan.add_argument("--order", required=True, help=ORDER_HELP)
    plan.add_argument("--cutoff", type=int, default=24)
    plan.add_argument("--budget", default=None)
    plan.add_argument("--csv", action="store_true")
    plan.add_argument("--out", default=None)
    plan.set_defaults(func=cmd_plan)

    est = sub.add_parser("estimate", help="preparation-time tables")
    est.add_argument("--mode", choices=("symmetric", "figure2", "figure5"),
                     default="symmetric")
    est.add_argument("--K", type=int, default=40)
    est.add_argument("--n", type=int, default=1)
    est.add_argument("--omega", type=_angular, default=DEFAULT_OMEGA)
    est.add_argument("--g", type=_angular, default=DEFAULT_G[1])
    est.add_argument("--out", default=None)
    est.set_defaults(func=cmd_estimate)

    osim = sub.add_parser("open-sim", help="dissipative circuit replay")
    osim.add_argument("--schedule", required=True)
    osim.add_argument("--params", default=None)
    osim.add_argument("--rates", default=None)
    osim.add_argument("--target", default=None)
    osim.add_argument("--cutoff", type=int, default=30)
    osim.add_argument("--out", required=True)
    osim.add_argument("--wigner", default=None)
    osim.add_argument("--wigner-points", type=int, default=81)
    osim.set_defaults(func=cmd_open_sim)
    return top


def main(argv=None) -> int:
    started = time.time()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; remap to this tool's convention
        code = exc.code if exc.code is not None else 0
        return EXIT_USAGE if code not in (0,) else 0
    for name in OUTPUT_ARGS:
        path = getattr(args, name, None)
        directory = os.path.dirname(path) if path else ""
        if path and os.path.isdir(path):
            return _usage_error(ValueError(f"{name} file {path!r} is a directory"))
        if directory and not os.path.isdir(directory):
            return _usage_error(ValueError(
                f"{name} file {path!r}: directory {directory!r} not found"))
    try:
        code = args.func(args)
    except opensystem.IntegrationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTEGRATION
    except (FileNotFoundError, IsADirectoryError) as exc:
        return _missing_input(args, exc)
    except (ValueError, KeyError, RuntimeError) as exc:
        return _usage_error(exc)
    if args.out:
        write_manifest(args, started)
    return code


if __name__ == "__main__":
    sys.exit(main())
