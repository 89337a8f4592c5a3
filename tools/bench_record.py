"""Record the benchmark of one checkout into ``BENCH_<pr>.json``.

    python3 tools/bench_record.py --pr N [--root DIR]

Runs the checkout's own ``bench/run.py`` in a subprocess for each workload
(``surface``, ``attack``, ``certify``), once with ``--trace 0`` for the
end-to-end metrics and once with ``--trace 1`` for the per-layer ones, and
keeps the result object each run prints as its last stdout line, unchanged.
Every run takes seed ``SEED`` and ``SECONDS`` of busy time.  Beside them
the file holds the ``src/`` line count of the checkout, the settings, and
the host: processors available (as ``nproc`` counts them), the Python and
numpy versions.  ``--root`` defaults to the checkout this script lives in;
point it at a second checkout to record another commit with the same
settings.  The file goes beside this script's checkout either way.
Standard library only; a record takes about a minute.

The frozen benchmark's own text is stale in three places; read its
numbers with these corrections:

- ``bench/README.md`` says 19 of the 48 near-symmetric edge-band queries
  fail.  They all pass: ``surface`` reports 0 failed operations.
- ``bench/README.md`` describes the ``attack`` certificate as a 201^2
  pass plus an 801^2 refinement, 6 x (201^2 + 801^2) lattice points per
  round.  It is a 201-point coarse pass and 41-point zoom levels, each
  evaluated on its unordered (lam, lam') pairs: ``attack.lattice_points``
  reads 6 x (20301 + 861 + 861 + 45) = 132408.
- The ``keyrate.key_rate_closed_sym`` and ``keyrate.key_rate_closed_asym``
  metrics read 0: both closed forms are one ``keyrate.key_rate_closed``,
  which the tracer does not wrap.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

SCHEMA = 1
SEED = 1
SECONDS = 5.0
WORKLOADS = ("surface", "attack", "certify")
TRACES = {"end_to_end": 0, "per_layer": 1}


def run_bench(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The result object of one ``bench/run.py`` run: its last stdout line."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv[1:])} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in (root / "src").rglob("*.py"))


def host() -> dict:
    affinity = getattr(os, "sched_getaffinity", None)
    nproc = len(affinity(0)) if affinity else os.cpu_count()
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy")}


def record(pr: int, root: Path, seed: int, seconds: float, run) -> dict:
    """The ``BENCH_<pr>.json`` object; ``run(root, workload, seed, seconds,
    trace)`` returns one run's result object."""
    return {
        "schema": SCHEMA,
        "pr": pr,
        "src_lines": src_lines(root),
        "host": host(),
        "settings": {"seed": seed, "seconds": seconds},
        "workloads": {w: {key: run(root, w, seed, seconds, trace)
                          for key, trace in TRACES.items()} for w in WORKLOADS},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    here = Path(__file__).resolve().parent.parent
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--root", type=Path, default=here)
    args = parser.parse_args(argv)
    result = record(args.pr, args.root.resolve(), SEED, SECONDS, run_bench)
    (here / f"BENCH_{args.pr}.json").write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
