"""Command-line front end.

Each subcommand only computes: it returns its machine-readable output
(JSON, or CSV for sweeps), a short human summary and whether its verdict
passed.  :func:`main` alone writes the output to stdout or the
``--output`` file, prints the summary to stderr after it, and turns the
outcome into the exit status, the same on every subcommand: 0 on
success, 1 on domain errors, on failed verdicts (``verify``,
``optics-sim``) and when the ``--output`` file cannot be written, 2 when a
parameter fails validation.  ``sweep`` and ``relay-scan`` hand an
``--output`` file their table's text in pieces, which ``main`` writes
block by block; stdout gets one ``export`` string in one write.  An
unknown argument is reported with the usage of the subcommand it follows.
Flags are checked only by the library types and entry points they reach,
which raise :class:`cvmdi.core.ParameterError` naming the parameter; the
front end maps that name to its flag.  Its one rule of its own is that
a knowledge model's flags are its fields: ``--epsilon`` comes only with
``--knowledge chi``, ``--omega-a``/``--omega-b`` only with ``thermal``.
Identical argv and seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections.abc import Iterator

from .core import LinkPair, ParameterError, ProtocolParams, require
from .attack import AttackGrid, min_rate_brute
from .proofs import run_verification_suite
from .optics import check_self_alignment
from .sweep import (
    ChiKnowledge,
    SweepConfig,
    SweepTable,
    ThermalKnowledge,
    _block_texts,
    export,
    relay_scan,
    run_sweep,
)


class _Parser(argparse.ArgumentParser):
    """A parser that reports an unknown argument with its own usage."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments: " + " ".join(extras))
        return namespace, extras


def _add_protocol_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--xi", type=float, default=0.97,
                   help="reconciliation efficiency in (0, 1] (default 0.97)")
    p.add_argument("--phi", type=float, default=60.0,
                   help="modulation variance in SNU (default 60)")


def _add_knowledge_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--knowledge", choices=("chi", "thermal"), default="chi",
                   help="adversary knowledge model (default chi)")
    p.add_argument("--epsilon", type=float, default=None,
                   help="excess noise in SNU (chi model; default 0.01)")
    p.add_argument("--omega-a", type=float, default=None,
                   help="ancilla variance on Alice's link (thermal model)")
    p.add_argument("--omega-b", type=float, default=None,
                   help="ancilla variance on Bob's link (thermal model)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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

    p = sub.add_parser("relay-scan",
                       help="rate along a fixed total-transmissivity contour")
    p.add_argument("--total", type=float, required=True,
                   help="contour value tau_a * tau_b")
    p.add_argument("--steps", type=int, default=51)
    _add_protocol_flags(p)
    _add_knowledge_flags(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("attack-opt",
                       help="brute-force worst-case attack certificate")
    p.add_argument("--tau-a", type=float, required=True)
    p.add_argument("--tau-b", type=float, required=True)
    p.add_argument("--omega-a", type=float, required=True)
    p.add_argument("--omega-b", type=float, required=True)
    _add_protocol_flags(p)
    p.add_argument("--grid-n", type=int, default=201, help="coarse points per axis")
    p.add_argument("--refine-n", type=int, default=801, help="sets final resolution")

    p = sub.add_parser("verify", help="run the proof-verification suite")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--scenarios", type=int, default=100)
    p.add_argument("--samples", type=int, default=200)

    p = sub.add_parser("optics-sim", help="phase self-alignment Monte Carlo")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)

    for p in sub.choices.values():
        p.add_argument("--output", default=None, help="write the output here instead of stdout")
    return parser


# library parameter names whose flag is not "--" + name with "-" for "_"
_FLAGS = {"n": "--grid-n", "total_transmissivity": "--total",
          "tau_a_range": "--tau-a-min/--tau-a-max", "tau_b_range": "--tau-b-min/--tau-b-max"}


def _flag(name: str) -> str:
    return _FLAGS.get(name, "--" + name.replace("_", "-"))


def _knowledge_from(args: argparse.Namespace):
    if args.knowledge == "thermal":
        model = ThermalKnowledge(args.omega_a, args.omega_b)
    else:
        model = ChiKnowledge() if args.epsilon is None else ChiKnowledge(args.epsilon)
    for name, knowledge in (("epsilon", "chi"), ("omega_a", "thermal"), ("omega_b", "thermal")):
        value = getattr(args, name)
        require(knowledge == args.knowledge or value is None, name,
                f"be given only with --knowledge {knowledge}", value)
    return model


def _cmd_rate(args: argparse.Namespace) -> tuple[str, str, bool]:
    model = _knowledge_from(args)
    report = model.report(args.protocol, LinkPair(args.tau_a, args.tau_b))
    inputs = {"tau_a": args.tau_a, "tau_b": args.tau_b, "xi": args.xi, "phi": args.phi,
              **vars(model), "knowledge": args.knowledge}  # a model echoes its own fields
    state = "secure" if report.secure else "insecure"
    return (json.dumps({**inputs, **vars(report)}) + "\n",
            f"rate {report.rate:.6f} bits/use ({state})", True)


def _table_text(args: argparse.Namespace, table: SweepTable) -> str | Iterator[str]:
    """One export string for stdout; the pieces, for main to write block by
    block, for an --output file."""
    if args.output is None:
        return export(table, args.format)
    return _block_texts(table, args.format)


def _cmd_sweep(args: argparse.Namespace) -> tuple[str | Iterator[str], str, bool]:
    config = SweepConfig(
        tau_a_range=(args.tau_a_min, args.tau_a_max),
        tau_b_range=(args.tau_b_min, args.tau_b_max),
        steps_a=args.steps_a,
        steps_b=args.steps_b,
        protocol=args.protocol,
        knowledge=_knowledge_from(args),
    )
    table = run_sweep(config)
    secure = int((table.rate > 0.0).sum())
    return (_table_text(args, table),
            f"{len(table)} cells, {secure} secure, {len(table.errors)} errors", True)


def _cmd_relay_scan(args: argparse.Namespace) -> tuple[str | Iterator[str], str, bool]:
    scan = relay_scan(args.total, args.protocol, steps=args.steps,
                      knowledge=_knowledge_from(args))
    best = scan.argmax
    return (_table_text(args, scan.records),
            f"argmax rate {best.rate:.6f} bits/use at tau_a={best.tau_a:.6f}, "
            f"tau_b={best.tau_b:.6f}", True)


def _cmd_attack_opt(args: argparse.Namespace) -> tuple[str, str, bool]:
    link = LinkPair(args.tau_a, args.tau_b)
    report = min_rate_brute(
        args.protocol, link, args.omega_a, args.omega_b,
        AttackGrid(n=args.grid_n, refine_n=args.refine_n),
    )
    return (json.dumps(vars(report)) + "\n",
            f"argmin at g={report.g_star:.9g}, g'={report.g_prime_star:.9g}; "
            f"rate {report.rate_star:.6f} vs analytic {report.analytic_rate:.6f} "
            f"(gap {report.gap:.3e})", True)


def _cmd_verify(args: argparse.Namespace) -> tuple[str, str, bool]:
    report = run_verification_suite(
        seed=args.seed, scenarios=args.scenarios, samples=args.samples
    )
    summary = "\n".join(
        f"{name}: {'pass' if check['pass'] else 'FAIL'} ({check['failures']} failures)"
        for name, check in report["checks"].items())
    return json.dumps(report) + "\n", summary, report["all_pass"]


def _cmd_optics_sim(args: argparse.Namespace) -> tuple[str, str, bool]:
    report = check_self_alignment(trials=args.trials, seed=args.seed)
    state = "pass" if report.ok else "FAIL"
    return (json.dumps(vars(report)) + "\n",
            f"self-alignment {state}: max error {report.max_phase_error:.3e} rad, "
            f"control fail fraction {report.control_fail_fraction:.4f}", report.ok)


# each command computes only: (output text or pieces, stderr summary, verdict passed)
_COMMANDS = {
    "rate": _cmd_rate,
    "sweep": _cmd_sweep,
    "relay-scan": _cmd_relay_scan,
    "attack-opt": _cmd_attack_opt,
    "verify": _cmd_verify,
    "optics-sim": _cmd_optics_sim,
}


_parser = functools.cache(build_parser)  # built once per process: ~30 parses' cost


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse already reported the problem
        return int(exc.code or 0)
    try:
        if "xi" in args:  # the four commands that take the protocol flags
            args.protocol = ProtocolParams(args.xi, args.phi)
        text, summary, passed = _COMMANDS[args.command](args)
        if args.output is None:
            sys.stdout.write(text)
        else:
            with open(args.output, "w") as fh:
                fh.writelines([text] if isinstance(text, str) else text)
    except ParameterError as exc:
        print(f"error: {_flag(exc.name)} {exc.rule}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:  # a domain error, or --output not writable
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(summary, file=sys.stderr)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
