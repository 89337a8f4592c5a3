"""Command-line front end.

Machine-readable output (JSON, or CSV for sweeps) goes to stdout or the
``--output`` file; a short human summary goes to stderr.  Exit status: 0
on success, 1 on domain errors and on failed verdicts (``verify``,
``optics-sim``), 2 on flag validation errors.  Identical argv and seed
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .core import LinkPair, ProtocolParams, chi_equivalent
from .keyrate import key_rate_min_chi, key_rate_min_thermal
from .attack import AttackGrid, min_rate_brute
from .proofs import run_verification_suite
from .optics import check_self_alignment
from .sweep import (
    ChiKnowledge,
    SweepConfig,
    ThermalKnowledge,
    export,
    relay_scan,
    run_sweep,
)


class UsageError(Exception):
    """A flag value failed validation; message names the flag."""


def _add_protocol_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--xi", type=float, default=0.97,
                   help="reconciliation efficiency in (0, 1] (default 0.97)")
    p.add_argument("--phi", type=float, default=60.0,
                   help="modulation variance in SNU (default 60)")
    p.add_argument("--epsilon", type=float, default=0.01,
                   help="excess noise in SNU (default 0.01)")


def _add_knowledge_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--knowledge", choices=("chi", "thermal"), default="chi",
                   help="adversary knowledge model (default chi)")
    p.add_argument("--omega-a", type=float, default=None,
                   help="ancilla variance on Alice's link (thermal model)")
    p.add_argument("--omega-b", type=float, default=None,
                   help="ancilla variance on Bob's link (thermal model)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvmdi",
        description="Worst-case secret-key-rate analysis for a dual-homodyne "
                    "relay protocol under correlated two-mode Gaussian attacks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rate", help="minimized key rate for one link pair")
    p.add_argument("--tau-a", type=float, required=True)
    p.add_argument("--tau-b", type=float, required=True)
    _add_protocol_flags(p)
    _add_knowledge_flags(p)
    p.add_argument("--output", default=None, help="write JSON here instead of stdout")

    p = sub.add_parser("sweep", help="rate over a transmissivity lattice")
    p.add_argument("--tau-a-min", type=float, default=0.5)
    p.add_argument("--tau-a-max", type=float, default=1.0)
    p.add_argument("--steps-a", type=int, default=51)
    p.add_argument("--tau-b-min", type=float, default=0.5)
    p.add_argument("--tau-b-max", type=float, default=1.0)
    p.add_argument("--steps-b", type=int, default=51)
    _add_protocol_flags(p)
    _add_knowledge_flags(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default=None)

    p = sub.add_parser("relay-scan",
                       help="rate along a fixed total-transmissivity contour")
    p.add_argument("--total", type=float, required=True,
                   help="contour value tau_a * tau_b")
    p.add_argument("--steps", type=int, default=51)
    _add_protocol_flags(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default=None)

    p = sub.add_parser("attack-opt",
                       help="brute-force worst-case attack certificate")
    p.add_argument("--tau-a", type=float, required=True)
    p.add_argument("--tau-b", type=float, required=True)
    p.add_argument("--omega-a", type=float, required=True)
    p.add_argument("--omega-b", type=float, required=True)
    _add_protocol_flags(p)
    p.add_argument("--grid-n", type=int, default=201)
    p.add_argument("--refine-n", type=int, default=801)
    p.add_argument("--output", default=None)

    p = sub.add_parser("verify", help="run the proof-verification suite")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--scenarios", type=int, default=100)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--output", default=None)

    p = sub.add_parser("optics-sim", help="phase self-alignment Monte Carlo")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default=None)

    return parser


def _check_tau(name: str, value: float) -> None:
    if not 0.0 < value <= 1.0:
        raise UsageError(f"{name} must be in (0, 1], got {value}")


def _validate(args: argparse.Namespace) -> None:
    if hasattr(args, "xi"):
        if not 0.0 < args.xi <= 1.0:
            raise UsageError(f"--xi must be in (0, 1], got {args.xi}")
        if args.phi <= 0.0:
            raise UsageError(f"--phi must be > 0, got {args.phi}")
        if args.epsilon < 0.0:
            raise UsageError(f"--epsilon must be >= 0, got {args.epsilon}")
    if getattr(args, "knowledge", None) == "thermal":
        if args.omega_a is None or args.omega_b is None:
            raise UsageError("--knowledge thermal requires --omega-a and --omega-b")
        if args.omega_a < 1.0:
            raise UsageError(f"--omega-a must be >= 1, got {args.omega_a}")
        if args.omega_b < 1.0:
            raise UsageError(f"--omega-b must be >= 1, got {args.omega_b}")
    if args.command == "rate":
        _check_tau("--tau-a", args.tau_a)
        _check_tau("--tau-b", args.tau_b)
    elif args.command == "sweep":
        for name, lo, hi in (
            ("--tau-a-min/--tau-a-max", args.tau_a_min, args.tau_a_max),
            ("--tau-b-min/--tau-b-max", args.tau_b_min, args.tau_b_max),
        ):
            if not 0.0 < lo <= hi <= 1.0:
                raise UsageError(f"{name} must satisfy 0 < min <= max <= 1")
        if args.steps_a < 2 or args.steps_b < 2:
            raise UsageError("--steps-a/--steps-b must be >= 2")
    elif args.command == "relay-scan":
        if not 0.0 < args.total <= 1.0:
            raise UsageError(f"--total must be in (0, 1], got {args.total}")
        if args.steps < 2:
            raise UsageError(f"--steps must be >= 2, got {args.steps}")
    elif args.command == "attack-opt":
        _check_tau("--tau-a", args.tau_a)
        _check_tau("--tau-b", args.tau_b)
        for name, w in (("--omega-a", args.omega_a), ("--omega-b", args.omega_b)):
            if w < 1.0:
                raise UsageError(f"{name} must be >= 1, got {w}")
        for name, n in (("--grid-n", args.grid_n), ("--refine-n", args.refine_n)):
            if n < 3 or n % 2 == 0:
                raise UsageError(f"{name} must be odd and >= 3, got {n}")
    elif args.command == "verify":
        if args.scenarios < 1 or args.samples < 2:
            raise UsageError("--scenarios must be >= 1 and --samples >= 2")
    elif args.command == "optics-sim":
        if args.trials < 1:
            raise UsageError(f"--trials must be >= 1, got {args.trials}")


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w") as fh:
            fh.write(text)


def _knowledge_from(args: argparse.Namespace):
    if args.knowledge == "thermal":
        return ThermalKnowledge(args.omega_a, args.omega_b)
    return ChiKnowledge()


def _cmd_rate(args: argparse.Namespace) -> int:
    protocol = ProtocolParams(xi=args.xi, phi=args.phi, epsilon=args.epsilon)
    link = LinkPair(args.tau_a, args.tau_b)
    if args.knowledge == "thermal":
        report = key_rate_min_thermal(protocol, link, args.omega_a, args.omega_b)
    else:
        report = key_rate_min_chi(protocol, link, chi_equivalent(link, args.epsilon))
    payload = {
        "tau_a": args.tau_a,
        "tau_b": args.tau_b,
        "xi": args.xi,
        "phi": args.phi,
        "epsilon": args.epsilon,
        "knowledge": args.knowledge,
        "chi": report.chi,
        "rate": report.rate,
        "i_ab": report.i_ab,
        "i_ea": report.i_ea,
        "nu": report.nu,
        "nu1": report.nu1,
        "nu2": report.nu2,
        "nu3": report.nu3,
        "secure": report.secure,
        "formula_tag": report.formula_tag,
    }
    _emit(json.dumps(payload) + "\n", args.output)
    state = "secure" if report.secure else "insecure"
    print(f"rate {report.rate:.6f} bits/use ({state}) via {report.formula_tag}",
          file=sys.stderr)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = SweepConfig(
        tau_a_range=(args.tau_a_min, args.tau_a_max),
        tau_b_range=(args.tau_b_min, args.tau_b_max),
        steps_a=args.steps_a,
        steps_b=args.steps_b,
        protocol=ProtocolParams(xi=args.xi, phi=args.phi, epsilon=args.epsilon),
        knowledge=_knowledge_from(args),
    )
    records = run_sweep(config)
    _emit(export(records, args.format), args.output)
    secure = sum(r.secure for r in records)
    errors = sum(r.error is not None for r in records)
    print(f"{len(records)} cells, {secure} secure, {errors} errors", file=sys.stderr)
    return 0


def _cmd_relay_scan(args: argparse.Namespace) -> int:
    protocol = ProtocolParams(xi=args.xi, phi=args.phi, epsilon=args.epsilon)
    scan = relay_scan(args.total, protocol, steps=args.steps)
    _emit(export(scan.records, args.format), args.output)
    best = scan.argmax
    print(
        f"argmax rate {best.rate:.6f} bits/use at tau_a={best.tau_a:.6f}, "
        f"tau_b={best.tau_b:.6f}",
        file=sys.stderr,
    )
    return 0


def _cmd_attack_opt(args: argparse.Namespace) -> int:
    protocol = ProtocolParams(xi=args.xi, phi=args.phi, epsilon=args.epsilon)
    link = LinkPair(args.tau_a, args.tau_b)
    report = min_rate_brute(
        protocol, link, args.omega_a, args.omega_b,
        AttackGrid(n=args.grid_n, refine_n=args.refine_n),
    )
    _emit(json.dumps(dataclasses.asdict(report)) + "\n", args.output)
    print(
        f"argmin at g={report.g_star:.9g}, g'={report.g_prime_star:.9g}; "
        f"rate {report.rate_star:.6f} vs analytic {report.analytic_rate:.6f} "
        f"(gap {report.gap:.3e})",
        file=sys.stderr,
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report = run_verification_suite(
        seed=args.seed, scenarios=args.scenarios, samples=args.samples
    )
    _emit(json.dumps(report) + "\n", args.output)
    for name, check in report["checks"].items():
        state = "pass" if check["pass"] else "FAIL"
        print(f"{name}: {state} ({check['failures']} failures)", file=sys.stderr)
    return 0 if report["all_pass"] else 1


def _cmd_optics_sim(args: argparse.Namespace) -> int:
    report = check_self_alignment(trials=args.trials, seed=args.seed)
    _emit(json.dumps(dataclasses.asdict(report)) + "\n", args.output)
    state = "pass" if report.ok else "FAIL"
    print(
        f"self-alignment {state}: max error {report.max_phase_error:.3e} rad, "
        f"control fail fraction {report.control_fail_fraction:.4f}",
        file=sys.stderr,
    )
    return 0 if report.ok else 1


_COMMANDS = {
    "rate": _cmd_rate,
    "sweep": _cmd_sweep,
    "relay-scan": _cmd_relay_scan,
    "attack-opt": _cmd_attack_opt,
    "verify": _cmd_verify,
    "optics-sim": _cmd_optics_sim,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already reported the problem
        return int(exc.code or 0)
    try:
        _validate(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
