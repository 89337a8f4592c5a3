"""Schema of the BENCH_<pr>.json records that tools/bench_record.py writes,
checked on the committed records and on a record assembled from stub runs."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

RECORDS = sorted(ROOT.glob("BENCH_*.json"))
END_TO_END = {"setup_s", "work_per_s", "round_s", "peak_rss_mb"}
KEYS = {"schema", "pr", "src_lines", "host", "settings", "workloads"}


def check_cli(cli: dict, pr: int) -> None:
    # the child's minor page faults are timed from BENCH_20 on
    assert set(cli) == {"repeats", "interpreter", "import", "commands"}
    assert isinstance(cli["repeats"], int) and cli["repeats"] >= 1
    assert cli["commands"] and all(isinstance(cmd, str) for cmd in cli["commands"])
    for timing in (cli["interpreter"], cli["import"], *cli["commands"].values()):
        assert set(timing) == {"s", "peak_rss_mb"} | ({"minflt"} if pr >= 20 else set())
        assert all(isinstance(timing[k], float) and timing[k] > 0.0
                   for k in ("s", "peak_rss_mb"))
        if pr >= 20:
            assert isinstance(timing["minflt"], int) and timing["minflt"] > 0


def check_schema(record: dict) -> None:
    # schema 1 (BENCH_14 to BENCH_18) has no cli timings; schema 2 adds them
    assert record["schema"] in (1, 2)
    assert set(record) == KEYS | ({"cli"} if record["schema"] == 2 else set())
    if record["schema"] == 2:
        check_cli(record["cli"], record["pr"])
    assert isinstance(record["pr"], int) and isinstance(record["src_lines"], int)
    host = record["host"]
    # from BENCH_26 on the cli children import a compiled copy of src
    bytecode = {"dont_write_bytecode", "cli_bytecode"} if record["pr"] >= 26 else set()
    assert set(host) == {"nproc", "python", "numpy"} | bytecode
    assert isinstance(host["nproc"], int) and host["nproc"] >= 1
    assert all(isinstance(host[k], str) for k in ("python", "numpy"))
    if bytecode:
        assert isinstance(host["dont_write_bytecode"], bool)
        assert host["cli_bytecode"] == "compiled copy of src"
    assert set(record["settings"]) == {"seed", "seconds"}
    assert set(record["workloads"]) == {"surface", "attack", "certify"}
    for runs in record["workloads"].values():
        assert set(runs) == {"end_to_end", "per_layer"}
        for result in runs.values():
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert isinstance(result["correct"], bool)
            for metric in result["metrics"].values():
                assert set(metric) == {"value", "unit"}
                assert isinstance(metric["value"], (int, float))
                assert isinstance(metric["unit"], str)
        assert set(runs["end_to_end"]["metrics"]) == END_TO_END
        assert "attack.lattice_points" in runs["per_layer"]["metrics"]


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_committed_record(path):
    record = json.loads(path.read_text())
    check_schema(record)
    assert path.name == f"BENCH_{record['pr']}.json"
    assert record["schema"] == (1 if record["pr"] < 19 else 2)
    for runs in record["workloads"].values():
        for result in runs.values():
            assert result["correct"] is True and result["failed"] == 0


def test_attack_lattice_halved_with_the_same_points_evaluated():
    # one evaluation per unordered (lam, lam') pair: 6 x (201^2 + 2 x 41^2 + 9^2)
    # lattice points per round before, 6 x (20301 + 861 + 861 + 45) after;
    # every later record keeps the halved lattice and the points evaluated
    counts = {}
    for path in RECORDS:
        record = json.loads(path.read_text())
        metrics = record["workloads"]["attack"]["per_layer"]["metrics"]
        counts[record["pr"]] = {k: metrics[f"attack.{k}"]["value"]
                                for k in ("lattice_points", "n_evaluated", "n_skipped")}
    assert counts[14]["lattice_points"] == 263064
    assert counts[14]["n_evaluated"] > 0
    for pr in sorted(pr for pr in counts if pr > 14):
        assert counts[pr]["lattice_points"] == 132408
        assert counts[pr]["n_evaluated"] == counts[14]["n_evaluated"]
        assert counts[pr]["n_skipped"] == counts[14]["n_skipped"]


def _result(workload, trace):
    names = END_TO_END if trace == 0 else {"attack.lattice_points"}
    return {"correct": True, "attempted": 6, "failed": 0,
            "metrics": {n: {"value": len(workload) + trace, "unit": "s"} for n in names}}


def _cli(root):
    timing = {"s": 0.5, "peak_rss_mb": 30.0, "minflt": 4000}
    return {"repeats": 3, "interpreter": timing, "import": timing,
            "commands": {cmd: timing for cmd in bench_record.readme_commands(root)}}


def test_record_keeps_each_run_unchanged():
    calls = []

    def run(root, workload, seed, seconds, trace):
        calls.append((workload, seed, seconds, trace))
        return _result(workload, trace)

    record = bench_record.record(26, ROOT, 3, 0.5, run=run, cli=_cli)
    check_schema(record)
    assert record["cli"] == _cli(ROOT)
    assert sorted(calls) == sorted((w, 3, 0.5, t) for w in ("surface", "attack", "certify")
                                   for t in (0, 1))
    for w, runs in record["workloads"].items():
        assert runs == {"end_to_end": _result(w, 0), "per_layer": _result(w, 1)}
    assert record["src_lines"] == bench_record.src_lines(ROOT) > 0


def test_run_bench_parses_the_last_line(tmp_path):
    (tmp_path / "bench").mkdir()
    script = tmp_path / "bench" / "run.py"
    script.write_text("import json, sys\nprint('warm-up')\n"
                      "print(json.dumps({'argv': sys.argv[1:]}))\n")
    got = bench_record.run_bench(tmp_path, "attack", 2, 0.5, 1)
    assert got == {"argv": ["--workload", "attack", "--seed", "2", "--seconds", "0.5",
                            "--trace", "1"]}
    script.write_text("import sys\nsys.exit(1)\n")
    with pytest.raises(RuntimeError, match="exited 1"):
        bench_record.run_bench(tmp_path, "attack", 2, 0.5, 1)


def test_readme_commands(tmp_path):
    (tmp_path / "README.md").write_text(
        "```sh\n# a comment\ncvmdi sweep > surface.csv\ncvmdi rate --tau-a 0.9\n"
        "  cvmdi indented\n```\nrun cvmdi sweep\n")
    assert bench_record.readme_commands(tmp_path) == ["sweep", "rate --tau-a 0.9"]
    commands = bench_record.readme_commands(ROOT)
    assert "sweep" in commands and "verify --seed 7" in commands


def test_time_child_runs_on_the_checkout(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "probe.py").write_text("open('ran', 'w').close()\n")
    timing = bench_record.time_child(tmp_path, tmp_path, ["-c", "import probe"])
    assert (tmp_path / "ran").exists()  # the child ran in cwd with src on its path
    assert set(timing) == {"s", "peak_rss_mb", "minflt"}
    assert 0.0 < timing["s"] and 1.0 < timing["peak_rss_mb"]
    assert isinstance(timing["minflt"], int) and timing["minflt"] > 0
    with pytest.raises(RuntimeError, match="exited 3: boom"):
        bench_record.time_child(
            tmp_path, tmp_path, ["-c", "import sys; print('boom', file=sys.stderr); sys.exit(3)"])


def test_compiled_copy_leaves_the_checkout_as_it_was(tmp_path):
    checkout, build = tmp_path / "checkout", tmp_path / "build"
    (checkout / "src" / "pkg").mkdir(parents=True)
    (checkout / "src" / "pkg" / "__init__.py").write_text("X = 1\n")
    (checkout / "src" / "probe.py").write_text("import pkg\n")
    build.mkdir()
    assert bench_record.compiled_copy(checkout, build) == build
    assert sorted(p.name for p in (build / "src").rglob("*.pyc")) == [
        f"{name}.{sys.implementation.cache_tag}.pyc" for name in ("__init__", "probe")]
    assert not list((checkout / "src").rglob("__pycache__"))
    timing = bench_record.time_child(build, tmp_path, ["-c", "import probe"])
    assert timing["s"] > 0.0
    (checkout / "src" / "broken.py").write_text("def\n")
    with pytest.raises(RuntimeError, match="does not compile"):
        bench_record.compiled_copy(checkout, tmp_path / "again")
