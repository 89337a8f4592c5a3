"""One digest of every byte the CLI writes on the benchmark's argv.

    python3 tools/same_bytes.py [--seeds N] [--root DIR]

In one process, with warnings as errors, runs ``cvmdi.cli.main`` on every
argv that ``bench/workloads.py`` draws for seeds 1..N (default 8) of its
three workloads, then on the fixed ``EDGES``, and prints
``{"calls": n, "md5": ...}``: the md5 over each call's exit code, stdout
and stderr, in that order.  Two checkouts that print the same digest wrote
the same bytes; a refactor that claims to move none checks it here.
Because every call runs in the same process, a digest also changes when
state cached by one call (the parser, the certificate workspace) leaks
into the next.

``--root`` runs another checkout: its ``src``, ``bench`` and ``tests``
(the oracle the workloads import) go first on ``sys.path``; the default
is the checkout this script lives in.  Standard library plus the
checkout's own modules.  Seeds 1..8 take about a second.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import shlex
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

EDGES = (
    # an epsilon = 0 chi sweep puts its (1, 1) cell on the symmetric pole chi = 4
    "sweep --epsilon 0",
    "sweep --epsilon 0 --format json",
    "sweep --knowledge thermal --omega-a 1e76 --omega-b 1e76 --steps-a 11 --steps-b 11"
    " --format json",
    # the decoupled point of a lossless link, which the thermal sweep above
    # meets at its (1, 1) corner: the single point, a relay contour of it
    # and the certificate
    "rate --tau-a 1 --tau-b 1 --knowledge thermal --omega-a 2 --omega-b 3",
    "relay-scan --total 1 --knowledge thermal --omega-a 2 --omega-b 3 --format json",
    "attack-opt --tau-a 1 --tau-b 1 --omega-a 2 --omega-b 3",
    "attack-opt --tau-a 1 --tau-b 0.7 --omega-a 2 --omega-b 3",
    "verify --seed 3",
    "verify --seed 7",
    "verify --seed 11",
    # the shortest suite, and one that reads its generator in several blocks
    "verify --seed 3 --scenarios 1 --samples 2",
    "verify --seed 12345 --scenarios 250",
)


def digest(seeds: int) -> dict:
    """``{"calls": n, "md5": ...}`` of the CLI on the workloads' argv for seeds
    1..``seeds``, then on the ``EDGES``; the checkout's ``src``, ``bench`` and
    ``tests`` must already be importable."""
    from cvmdi.cli import main
    from workloads import WORKLOADS

    calls = [list(op.argv) for seed in range(1, seeds + 1)
             for make in WORKLOADS.values() for op in make(seed).ops]
    calls += [shlex.split(edge) for edge in EDGES]
    md5 = hashlib.md5()
    for argv in calls:
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main(argv)
        for part in (str(code), out.getvalue(), err.getvalue()):
            md5.update(part.encode())
            md5.update(b"\0")
    return {"calls": len(calls), "md5": md5.hexdigest()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=8, help="seeds 1..N (default 8)")
    parser.add_argument("--root", type=Path, default=ROOT, help="checkout to run")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "bench"), str(root / "tests")]
    print(json.dumps(digest(args.seeds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
