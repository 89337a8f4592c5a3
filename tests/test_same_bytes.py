"""tools/same_bytes.py: the CLI's bytes digest, run twice in one process and pinned."""

import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("same_bytes", ROOT / "tools" / "same_bytes.py")
same_bytes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_bytes)


def test_two_runs_in_one_process_give_one_digest(monkeypatch, capsys):
    # state cached by one call (the parser, the certificate workspace)
    # carries nothing into the next call or the next run
    monkeypatch.setattr(sys, "path", sys.path[:])  # main puts the checkout first
    for _ in range(2):
        assert same_bytes.main(["--seeds", "1"]) == 0
    first, second = capsys.readouterr().out.splitlines()
    assert first == second
    # seed 1 draws 54 surface, 6 attack and 4 certify calls
    assert json.loads(first)["calls"] == 64 + len(same_bytes.EDGES)
    # the bytes themselves: a change that moves any of them updates this
    # pin and quotes each moved argv in CHANGES.md
    assert json.loads(first) == {"calls": 76, "md5": "ed68515a53eed285e350febebe1ccfde"}
