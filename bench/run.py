"""cvmdi benchmark: one workload per run, driven through ``cvmdi.cli.main``.

    python3 bench/run.py --workload surface|attack|certify --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout (``src/`` and ``tests/`` beside
``bench/``).  The run draws its inputs from the seed, runs one warm-up
round, then repeats whole rounds of the workload's operations in a closed
loop in this process until ``--seconds`` of busy time have passed; set-up
time is measured in fresh interpreters started between rounds.  Every
round's stdout must equal the warm-up round's, whose outputs are checked
against the 50-digit oracle after the timed loop.  The last stdout line
is the result object: end-to-end metrics with ``--trace 0``, per-layer
metrics with ``--trace 1`` (see README.md).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_RUNS = 7
SETUP_ARGV = ["rate", "--tau-a", "0.9", "--tau-b", "0.8"]
SETUP_CODE = "import sys; from cvmdi.cli import main; sys.exit(main(sys.argv[1:]))"


def start_fresh() -> float:
    """Wall time of a fresh interpreter that imports cvmdi and returns
    from its first CLI call."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, *SETUP_ARGV], env=env,
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0 or "rate" not in json.loads(proc.stdout):
        raise RuntimeError(f"set-up call failed: {proc.stderr.strip()}")
    return elapsed


def call(main, argv: tuple[str, ...]) -> tuple[int, str, float]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        code = main(list(argv))
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), elapsed


def per_layer(tracer, rounds: int) -> dict[str, tuple[float, str]]:
    m: dict[str, tuple[float, str]] = {}

    def mean(name: str, scale: float) -> float:
        calls, total, _ = tracer.stat(name)
        return total / calls * scale if calls else 0.0

    def per_round(name: str) -> float:
        return tracer.stat(name)[0] / rounds

    def self_time(prefix: str) -> float:
        return sum(tracer.stat(n)[2] for n in tracer.names if n.startswith(prefix)) / rounds

    for cmd in ("sweep", "relay-scan", "rate", "attack-opt", "verify", "optics-sim"):
        m[f"cli.{cmd}.s"] = (mean(f"cli.{cmd}", 1.0), "s/call")
    m["cli.self_s"] = (self_time("cli."), "s/round")
    m["sweep.run_sweep.s"] = (mean("sweep.run_sweep", 1.0), "s/call")
    m["sweep.run_sweep.cells"] = (tracer.counts["sweep.run_sweep.cells"] / rounds, "count/round")
    m["sweep.relay_scan.s"] = (mean("sweep.relay_scan", 1.0), "s/call")
    m["sweep.export.s"] = (mean("sweep.export", 1.0), "s/call")
    m["sweep.export.bytes"] = (tracer.counts["sweep.export.bytes"] / rounds, "bytes/round")
    m["sweep.error_cells"] = (tracer.counts["sweep.error_cells"] / rounds, "count/round")
    m["sweep.run_sweep.peak_mb"] = (tracer.peaks_mb["sweep.run_sweep.peak_mb"], "MB")
    for fn in ("key_rate_min_chi", "key_rate_min_thermal", "key_rate",
               "key_rate_closed_sym", "key_rate_closed_asym"):
        m[f"keyrate.{fn}.calls"] = (per_round(f"keyrate.{fn}"), "count/round")
        m[f"keyrate.{fn}.us_per_call"] = (mean(f"keyrate.{fn}", 1e6), "us")
    for fn in ("g_max", "is_physical"):
        m[f"core.{fn}.calls"] = (per_round(f"core.{fn}"), "count/round")
        m[f"core.{fn}.us_per_call"] = (mean(f"core.{fn}", 1e6), "us")
    m["core.entropy_h.calls"] = (per_round("core.entropy_h"), "count/round")
    m["attack.min_rate_brute.calls"] = (per_round("attack.min_rate_brute"), "count/round")
    m["attack.min_rate_brute.ms_per_call"] = (mean("attack.min_rate_brute", 1e3), "ms")
    m["attack.min_rate_brute.peak_mb"] = (tracer.peaks_mb["attack.min_rate_brute.peak_mb"], "MB")
    for key in ("attack.lattice_points", "attack.n_evaluated", "attack.n_skipped"):
        m[key] = (tracer.counts[key] / rounds, "count/round")
    m["attack.rate_profile_y.calls"] = (per_round("attack.rate_profile_y"), "count/round")
    m["attack.rate_profile_y.ms_per_call"] = (mean("attack.rate_profile_y", 1e3), "ms")
    m["attack.rate_profile_y.skipped"] = (
        tracer.counts["attack.rate_profile_y.skipped"] / rounds, "count/round")
    m["proofs.run_verification_suite.s"] = (mean("proofs.run_verification_suite", 1.0), "s/call")
    for fn in ("verify_monotone_thermal", "verify_monotone_chi", "verify_p_prime_positive",
               "verify_lambda_minimization", "classify_nu_regions"):
        m[f"proofs.{fn}.ms_per_call"] = (mean(f"proofs.{fn}", 1e3), "ms")
    m["proofs.self_s"] = (self_time("proofs."), "s/round")
    m["optics.check_self_alignment.s"] = (mean("optics.check_self_alignment", 1.0), "s/call")
    trials = tracer.counts["optics.trials"]
    m["optics.us_per_trial"] = (
        tracer.stat("optics.check_self_alignment")[1] / trials * 1e6 if trials else 0.0, "us")
    m["optics.propagate.calls"] = (per_round("optics.propagate"), "count/round")
    m["optics.run_path.calls"] = (per_round("optics.run_path"), "count/round")
    m["optics.check_self_alignment.peak_mb"] = (
        tracer.peaks_mb["optics.check_self_alignment.peak_mb"], "MB")
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("surface", "attack", "certify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "cvmdi" / "__init__.py").is_file():
        print(f"error: no cvmdi sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("CVMDI_THREADS", None)  # serial sweeps, no worker pool
    sys.path[:0] = [str(SRC), str(ROOT / "tests"), str(Path(__file__).resolve().parent)]

    start_fresh()  # untimed: writes the bytecode caches
    from cvmdi import cli
    import calibrate
    import tracer as tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    tracer = tracing.Tracer()
    commands = sorted({op.command for op in workload.ops})
    if args.trace:
        tracing.install(tracer)
        mains = {c: tracer.timed(f"cli.{c}", cli.main) for c in commands}
    else:
        mains = {c: cli.main for c in commands}

    expected = []
    for op in workload.ops:  # warm-up round, its outputs are the ones checked
        code, out, _ = call(cli.main, op.argv)
        if code != 0:
            print(f"error: {' '.join(op.argv)} exited {code}", file=sys.stderr)
            return 1
        expected.append(out)

    def host_scale() -> float:
        return calibrate.scale() if workload.scaled else 1.0

    tracer.mode = "time"
    # the timed fresh starts are spread over the run, so that setup_s
    # samples the machine over the same span as the rounds
    busy, rounds, setup = 0.0, [], []
    scale = host_scale()
    mismatches = [0] * len(workload.ops)  # timed calls that did not repeat the warm-up
    while busy < args.seconds or not rounds:
        main_s = aux_s = 0.0
        for k, (op, want) in enumerate(zip(workload.ops, expected)):
            code, out, elapsed = call(mains[op.command], op.argv)
            mismatches[k] += code != 0 or out != want
            if op.main:
                main_s += elapsed
            else:
                aux_s += elapsed
        scale_after = host_scale()
        rounds.append((main_s, aux_s, 0.5 * (scale + scale_after)))
        scale = scale_after
        busy += main_s + aux_s
        if len(setup) < SETUP_RUNS and busy >= len(setup) * args.seconds / SETUP_RUNS:
            setup.append(start_fresh())
    while len(setup) < SETUP_RUNS:
        setup.append(start_fresh())
    tracer.mode = "off"
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        tracer.mode = "memory"
        for op in workload.ops:
            call(mains[op.command], op.argv)
        tracer.mode = "off"

    check_start = time.perf_counter()
    verdicts = workload.check(expected)
    check_s = time.perf_counter() - check_start
    wrong = [(op, v) for op, v in zip(workload.ops, verdicts) if v is not None]
    for op, reason in wrong:
        tag = "edge-band failure" if op.edge else "WRONG OUTPUT"
        print(f"{tag}: {' '.join(op.argv)}: {reason}", file=sys.stderr)
    n = len(rounds)
    failed = sum(n if v is not None else m for v, m in zip(verdicts, mismatches))
    correct = not any(mismatches) and all(op.edge for op, _ in wrong)

    main_units = sum(op.units for op in workload.ops if op.main)
    aux_units = sum(op.units for op in workload.ops if not op.main)
    work_per_s = statistics.median(main_units / (m * f) for m, _, f in rounds)
    round_s = statistics.median((m + a) * f for m, a, f in rounds)
    detail = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "rounds": n, "ops_per_round": len(workload.ops),
              "failed_per_round": len(wrong), "mismatched_outputs": sum(mismatches),
              f"{workload.unit}_per_s": work_per_s, "round_s": round_s,
              f"raw_{workload.unit}_per_s": statistics.median(main_units / m for m, _, _ in rounds),
              "raw_round_s": statistics.median(m + a for m, a, _ in rounds),
              "setup_runs_s": setup, "check_s": check_s, "round_times_s": rounds,
              "inputs": workload.notes}
    if aux_units:
        detail[f"{workload.aux_unit}_per_s"] = statistics.median(
            aux_units / (a * f) for _, a, f in rounds)
    print(json.dumps(detail), file=sys.stderr)

    if args.trace:
        out_dir = Path(__file__).resolve().parent / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write_spans(out_dir / f"spans-{workload.name}-{args.seed}.csv")
        metrics = per_layer(tracer, n)
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "work_per_s": (work_per_s, "1/s"),
            "round_s": (round_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    result = {
        "correct": correct,
        "attempted": n * len(workload.ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
