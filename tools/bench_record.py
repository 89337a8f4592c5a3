"""Record the benchmark of one checkout into ``BENCH_<pr>.json``.

    python3 tools/bench_record.py --pr N [--root DIR]

Runs the checkout's own ``bench/run.py`` in a subprocess for each workload
(``surface``, ``attack``, ``certify``), once with ``--trace 0`` for the
end-to-end metrics and once with ``--trace 1`` for the per-layer ones, and
keeps the result object each run prints as its last stdout line, unchanged.
Every run takes seed ``SEED`` and ``SECONDS`` of busy time.

Under ``cli`` it times the ``cvmdi`` commands as a user runs them, each in
a fresh ``python -m cvmdi.cli`` child in a temporary directory: every
example command of the README (its ``--output`` files land in that
directory) and the ``LARGE_SWEEPS``.  The children import a copy of the
checkout's ``src/`` compiled to bytecode in another temporary directory,
so none of them compiles the package, also where
``PYTHONDONTWRITEBYTECODE`` keeps Python from writing its caches, and the
checkout is left as it was.  Each gets the best of ``REPEATS`` runs of its
wall time, of its peak RSS and of its minor page faults (``minflt``),
which ``os.wait4`` reports for the child alone.  The children are spawned
by a bare interpreter (``MEASURE``), not by this script: on Linux a
child's peak RSS starts at its parent's (``BENCH_29.json`` and earlier
carry this script's peak as a floor).  A bare interpreter
(``interpreter``) and ``import cvmdi.cli`` (``import``, interpreter
included) are timed the same way, so the import cost of every command can
be read off.

Beside them the file holds the ``src/`` line count of the checkout, the
settings, and the host: processors available (as ``nproc`` counts them),
the Python and numpy versions, whether Python writes no bytecode
(``dont_write_bytecode``) and what the ``cli`` children import
(``cli_bytecode``, from ``BENCH_26.json`` on; before it they compiled the
checkout's ``src/`` wherever its caches were missing).  ``--root``
defaults to the checkout this script lives in; point it at a second
checkout to record another commit with the same settings.  The file goes
beside this script's checkout either way.  Standard library only; a record
takes about a minute and a half.  Records before ``BENCH_19.json`` are
schema 1, without ``cli``; ``minflt`` is in the ``cli`` timings from
``BENCH_20.json`` on.

The frozen benchmark's own text is stale in three places; read its
numbers with these corrections:

- ``bench/README.md`` says 19 of the 48 near-symmetric edge-band queries
  fail.  They all pass: ``surface`` reports 0 failed operations.
- ``bench/README.md`` describes the ``attack`` certificate as a 201^2
  pass plus an 801^2 refinement, 6 x (201^2 + 801^2) lattice points per
  round.  It is a 201-point coarse pass and 41-point zoom levels, each
  evaluated on its unordered (lam, lam') pairs: ``attack.lattice_points``
  reads 6 x (20301 + 861 + 861 + 45) = 132408.
- The ``keyrate.key_rate``, ``keyrate.key_rate_closed_sym`` and
  ``keyrate.key_rate_closed_asym`` metrics read 0: the package no longer
  has these functions, and the tracer skips a target that is missing.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.metadata
import json
import os
import platform
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SCHEMA = 2
SEED = 1
SECONDS = 5.0
WORKLOADS = ("surface", "attack", "certify")
TRACES = {"end_to_end": 0, "per_layer": 1}
REPEATS = 3
LARGE_SWEEPS = ("sweep --steps-a 1001 --steps-b 1001 --output sweep1001.csv",
                "sweep --steps-a 1001 --steps-b 1001 --format json --output sweep1001.json")


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


def readme_commands(root: Path) -> list[str]:
    """The ``cvmdi`` example commands of the README, without ``cvmdi`` and
    without a ``> FILE`` redirection of stdout."""
    return [line.removeprefix("cvmdi ").split(" >")[0]
            for line in (root / "README.md").read_text().splitlines()
            if line.startswith("cvmdi ")]


# Spawns one child and prints its exit code, wall seconds, ru_maxrss (KiB)
# and minor faults.  On Linux a child's ru_maxrss starts at its parent's
# peak, so the parent is this bare interpreter; posix_spawn, unlike
# subprocess, imports nothing that would raise that peak.
MEASURE = """
import os, sys, time
start = time.perf_counter()
pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]], os.environ,
                     file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - start
print(os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss, usage.ru_minflt)
"""


def time_child(root: Path, cwd: Path, args: list[str]) -> dict:
    """Best of ``REPEATS`` runs of ``python ARGS`` on the checkout's
    ``src``: wall seconds, the child's peak RSS in MB and its minor page
    faults (``ru_minflt``), each read by ``MEASURE``, so that the caller's
    own peak does not leak into the child's."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    runs = []
    for _ in range(REPEATS):
        proc = subprocess.run([sys.executable, "-c", MEASURE, *args], cwd=cwd, env=env,
                              capture_output=True, text=True)
        measured = proc.stdout.split()
        if proc.returncode != 0 or measured[0] != "0":
            code = measured[0] if measured else proc.returncode
            raise RuntimeError(f"python {shlex.join(args)} exited {code}: "
                               f"{proc.stderr.strip()[-500:]}")
        wall, peak_kib, minflt = float(measured[1]), int(measured[2]), int(measured[3])
        runs.append((wall, peak_kib / 1024.0, minflt))
    return {key: min(run[k] for run in runs)
            for k, key in enumerate(("s", "peak_rss_mb", "minflt"))}


def compiled_copy(root: Path, dest: Path) -> Path:
    """``dest``, now holding a copy of the checkout's ``src`` with every
    module compiled to bytecode; raises if one does not compile."""
    shutil.copytree(root / "src", dest / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if not compileall.compile_dir(dest / "src", quiet=1):
        raise RuntimeError(f"{root / 'src'} does not compile")
    return dest


def time_cli(root: Path) -> dict:
    """The ``cli`` object of a record: best-of-``REPEATS`` times and peaks
    of the interpreter, the import and each command, on a compiled copy of
    the checkout's ``src``."""
    with tempfile.TemporaryDirectory() as tmp, tempfile.TemporaryDirectory() as build:
        cwd, copy = Path(tmp), compiled_copy(root, Path(build))
        return {
            "repeats": REPEATS,
            "interpreter": time_child(copy, cwd, ["-c", "pass"]),
            "import": time_child(copy, cwd, ["-c", "import cvmdi.cli"]),
            "commands": {cmd: time_child(copy, cwd, ["-m", "cvmdi.cli", *shlex.split(cmd)])
                         for cmd in [*readme_commands(root), *LARGE_SWEEPS]},
        }


def src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in (root / "src").rglob("*.py"))


def host() -> dict:
    affinity = getattr(os, "sched_getaffinity", None)
    nproc = len(affinity(0)) if affinity else os.cpu_count()
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "dont_write_bytecode": sys.dont_write_bytecode,
            "cli_bytecode": "compiled copy of src"}


def record(pr: int, root: Path, seed: int, seconds: float, run, cli) -> dict:
    """The ``BENCH_<pr>.json`` object; ``run(root, workload, seed, seconds,
    trace)`` returns one run's result object and ``cli(root)`` the ``cli``
    object."""
    return {
        "schema": SCHEMA,
        "pr": pr,
        "src_lines": src_lines(root),
        "host": host(),
        "settings": {"seed": seed, "seconds": seconds},
        "workloads": {w: {key: run(root, w, seed, seconds, trace)
                          for key, trace in TRACES.items()} for w in WORKLOADS},
        "cli": cli(root),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    here = Path(__file__).resolve().parent.parent
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--root", type=Path, default=here)
    args = parser.parse_args(argv)
    result = record(args.pr, args.root.resolve(), SEED, SECONDS, run_bench, time_cli)
    (here / f"BENCH_{args.pr}.json").write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
