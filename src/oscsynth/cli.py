"""Command-line entry points.

Subcommands wrap the library modules: `synthesize` compiles a target into
a schedule JSON, `plan` prints the punch-card step/time analysis,
`estimate` tabulates preparation-time formulas, and `open-sim` replays a
schedule on the dissipative circuit model. Every run writes a manifest
next to its primary output so results can be traced back to their exact
inputs; identical invocations produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .fockspace import make_space, ptrace_qubit, wigner
from .multiosc import ftp_two_oscillator
from .opensystem import _read_kv_file
from .planner import (base_step_count, punch_card, scaling_table, scaling_table_csv,
                      steps_arbitrary, time_ftp, time_le, time_symmetric,
                      two_oscillator_plan)
from .synthesis import (DEFAULT_G, DEFAULT_OMEGA, CouplingBudget,
                        ftp_schedule, invert_symmetric, replay_fidelity,
                        schedule_from_json, schedule_to_json)
from .targets import TargetParseError, parse_target

TWOPI = 2.0 * math.pi

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_QUALITY = 2
EXIT_INTEGRATION = 3


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_path, command, args_dict, inputs, outputs, started):
    """Emit the run manifest next to the primary output."""
    manifest = {
        "command": command,
        "arguments": {k: v for k, v in sorted(args_dict.items())
                      if not k.startswith("_") and k != "func"},
        "input_digests": {str(p): _sha256(p) for p in inputs},
        "tool_version": __version__,
        "outputs": [str(p) for p in outputs],
        "wall_seconds": round(time.time() - started, 3),
    }
    path = str(out_path) + ".manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    return path


def parse_budget_file(path) -> CouplingBudget:
    """Read couplings from a key = value file.

    Keys: omega, g1, g2, ... Values in rad/s when the key ends in _radps
    (e.g. omega_radps), or in Hz with an explicit *2pi marker
    (`omega = 25e6 *2pi`). Bare numbers without either form are rejected.
    """
    omega = None
    g = {}
    for key, val in _read_kv_file(path).items():
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


def _usage_error(exc: Exception) -> int:
    """Report a bad input and return the usage exit code. A KeyError's
    message is its first argument (its str() adds quotes)."""
    print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
    return EXIT_USAGE


def _parse_order(text: str, two_osc: bool):
    """--order as one interaction order, or with --two-osc as (n1, n2),
    where a single value serves both oscillators. A ValueError names the
    order for anything else and for an order below 1."""
    try:
        orders = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"--order {text!r}: expected "
                         + ("n or n1,n2" if two_osc else "an integer n")) from None
    if len(orders) > 1 and not two_osc:
        raise ValueError(f"--order {text!r}: two orders need --two-osc")
    if min(orders) < 1:
        raise ValueError(f"--order {text!r}: interaction orders must be >= 1")
    if not two_osc:
        return orders[0]
    return orders * 2 if len(orders) == 1 else orders


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
    started = time.time()
    inputs = [args.budget] if args.budget else []
    budget = parse_budget_file(args.budget) if args.budget else CouplingBudget()
    try:
        order = _parse_order(args.order, args.two_osc)
        if args.two_osc:
            space = make_space((args.cutoff, args.cutoff))
            target = parse_target(args.target, space=space)
            schedule = ftp_two_oscillator(target, order, budget=budget, space=space)
        else:
            space = make_space([args.cutoff])
            target = parse_target(args.target, space=space)
            if args.ftp:
                schedule = ftp_schedule(target, order, budget=budget, space=space)
            else:
                schedule = invert_symmetric(target, order, space=space, budget=budget)
        if args.semantics:
            schedule.semantics = "ideal-pair" if args.semantics == "ideal" else "exact"
            schedule.fidelity = replay_fidelity(schedule, target)
        # serialized before --out is opened, so a failure leaves no file
        text = schedule_to_json(schedule)
    except (TargetParseError, ValueError, RuntimeError, KeyError) as exc:
        return _usage_error(exc)
    with open(args.out, "w") as fh:
        fh.write(text)
    write_manifest(args.out, "synthesize", vars(args), inputs, [args.out], started)
    fid = schedule.fidelity if schedule.fidelity is not None else 0.0
    dur = schedule.duration
    print(f"steps: {len(schedule.steps)}  fidelity: {fid:.10f}"
          + (f"  duration: {dur * 1e9:.4f} ns" if dur is not None else ""))
    return EXIT_OK if fid >= args.threshold else EXIT_QUALITY


# ---------------------------------------------------------------------------
# plan


def cmd_plan(args) -> int:
    started = time.time()
    budget = parse_budget_file(args.budget) if args.budget else CouplingBudget()
    try:
        order = _parse_order(args.order, args.two_osc)
        if args.two_osc:
            cutoff = args.cutoff
            space = make_space((cutoff, cutoff))
            target = parse_target(args.target, space=space)
            steps, t_ftp = two_oscillator_plan(target, order, budget)
            lin_steps, t_lin = two_oscillator_plan(target, (1, 1), budget)
            lines = [
                f"orders: {order}",
                f"steps: {steps} (linear protocol: {lin_steps})",
                f"T_FTP: {t_ftp * 1e9:.2f} ns (linear: {t_lin * 1e9:.2f} ns)",
            ]
            if args.csv:
                print("n1,n2,steps,steps_linear,T_ftp_ns,T_linear_ns")
                print(f"{order[0]},{order[1]},{steps},{lin_steps},"
                      f"{t_ftp * 1e9:.12g},{t_lin * 1e9:.12g}")
            else:
                print("\n".join(lines))
        else:
            space = make_space([args.cutoff])
            target = parse_target(args.target, space=space)
            card = punch_card(target, order)
            n_arb, k_arb = steps_arbitrary(card)
            t_ftp = time_ftp(card, budget)
            t_lin = time_le(target.max_index, budget)
            if args.csv:
                print("n,heights,N_arb,K_arb,T_ftp_ns,T_le_ns")
                hs = ";".join(str(h) for h in card.heights)
                print(f"{order},{hs},{n_arb},{k_arb},"
                      f"{t_ftp * 1e9:.12g},{t_lin * 1e9:.12g}")
            else:
                print(card.render())
                print(f"heights: {card.heights}")
                print(f"steps: {base_step_count(order)}+{sum(card.heights)}"
                      f" = {n_arb} (upper bound {k_arb})")
                print(f"T_FTP: {t_ftp * 1e9:.2f} ns   T_LE: {t_lin * 1e9:.2f} ns")
    except (TargetParseError, ValueError, KeyError) as exc:
        return _usage_error(exc)
    if args.out:
        write_manifest(args.out, "plan", vars(args), [], [args.out], started)
    return EXIT_OK


# ---------------------------------------------------------------------------
# estimate


def cmd_estimate(args) -> int:
    started = time.time()
    try:
        if args.mode == "symmetric":
            budget = CouplingBudget(omega=args.omega, g={args.n: args.g})
            t = time_symmetric(args.K, args.n, budget)
            text = f"K,n,omega_radps,g_radps,T_ns\n{args.K},{args.n}," \
                   f"{args.omega:.12g},{args.g:.12g},{t * 1e9:.12g}\n"
        elif args.mode in ("figure2", "figure5"):
            g1 = TWOPI * 100e6
            if args.mode == "figure2":
                omegas = (TWOPI * 25e6, TWOPI * 200e6)
                variants = {1: (g1,), 2: (g1 / 4, g1 / 8)}
            else:
                omegas = (TWOPI * 25e6, TWOPI * 200e6)
                variants = {1: (g1,), 3: (g1 / 20, g1 / 40),
                            4: (g1 / 200, g1 / 400)}
            budgets = []
            for om in omegas:
                for n, gs in variants.items():
                    for g in gs:
                        budgets.append(CouplingBudget(omega=om, g={n: g}))
            rows = scaling_table(sorted(variants), budgets, range(1, args.K + 1))
            text = scaling_table_csv(rows)
        else:
            print(f"error: unknown mode {args.mode!r}", file=sys.stderr)
            return EXIT_USAGE
    except (ValueError, KeyError) as exc:
        return _usage_error(exc)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        write_manifest(args.out, "estimate", vars(args), [], [args.out], started)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# open-sim


def cmd_open_sim(args) -> int:
    started = time.time()
    from .opensystem import (CircuitParams, IntegrationError, NoiseRates,
                             density_matrix_to_csv, load_params, load_rates,
                             run_open_protocol)
    inputs = [args.schedule]
    try:
        with open(args.schedule) as fh:
            schedule = schedule_from_json(fh.read())
    except FileNotFoundError:
        print(f"error: schedule file {args.schedule!r} not found", file=sys.stderr)
        return EXIT_USAGE
    try:
        params = CircuitParams()
        if args.params:
            params = load_params(args.params)
            inputs.append(args.params)
        rates = NoiseRates()
        if args.rates:
            rates = load_rates(args.rates)
            inputs.append(args.rates)
        target = None
        if args.target:
            target = parse_target(args.target, space=make_space([args.cutoff]))
    except (FileNotFoundError, ValueError, TargetParseError) as exc:
        return _usage_error(exc)
    try:
        rho, fid = run_open_protocol(schedule, params, rates,
                                     cutoff=args.cutoff, target=target)
        outputs = [args.out]
        with open(args.out, "w") as fh:
            fh.write(density_matrix_to_csv(rho))
        if args.wigner:
            xs = np.linspace(-4, 4, args.wigner_points)
            rho_osc = ptrace_qubit(make_space([args.cutoff]), rho)
            wigner(rho_osc, xs, xs).to_csv(args.wigner)
            outputs.append(args.wigner)
    except IntegrationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTEGRATION
    except (ValueError, RuntimeError) as exc:
        return _usage_error(exc)
    write_manifest(args.out, "open-sim", vars(args), inputs, outputs, started)
    if fid is not None:
        print(f"fidelity: {fid:.8f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="oscsynth",
        description="Compile, plan, and simulate oscillator state-preparation "
                    "pulse schedules.")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="subcommand", required=True)

    syn = sub.add_parser("synthesize", help="compile a target into a schedule JSON")
    syn.add_argument("--target", required=True)
    syn.add_argument("--order", required=True,
                     help="interaction order n (or n1,n2 with --two-osc)")
    syn.add_argument("--cutoff", type=int, default=24)
    syn.add_argument("--budget", default=None)
    syn.add_argument("--ftp", action="store_true",
                     help="use the fine-tune-then-populate compiler")
    syn.add_argument("--two-osc", action="store_true")
    syn.add_argument("--semantics", choices=("exact", "ideal"), default=None)
    syn.add_argument("--threshold", type=float, default=0.999)
    syn.add_argument("--out", required=True)
    syn.set_defaults(func=cmd_synthesize)

    plan = sub.add_parser("plan", help="punch-card step and time analysis")
    plan.add_argument("--target", required=True)
    plan.add_argument("--order", required=True)
    plan.add_argument("--cutoff", type=int, default=24)
    plan.add_argument("--budget", default=None)
    plan.add_argument("--two-osc", action="store_true")
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; remap to this tool's convention
        code = exc.code if exc.code is not None else 0
        return EXIT_USAGE if code not in (0,) else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
