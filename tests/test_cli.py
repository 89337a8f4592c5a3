"""Tests for the command-line front end: output schemas, exit codes and
byte-level determinism."""

import argparse
import hashlib
import json
import math
import random
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import mp_oracle

from cvmdi import AlignmentReport, ProtocolParams, ThermalKnowledge, export, relay_scan
from cvmdi import run_verification_suite
import cvmdi.sweep as sweep_module
from cvmdi import cli
from cvmdi.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRate:
    def test_default_parameters_worked_value(self, capsys):
        code, out, err = run_cli(capsys, "rate", "--tau-a", "0.98", "--tau-b", "0.6")
        assert code == 0
        payload = json.loads(out)
        assert payload["rate"] == pytest.approx(0.379392191958814, rel=1e-10)
        assert payload["secure"] is True
        assert "rate" in err

    def test_mirror_insecure_still_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "rate", "--tau-a", "0.6", "--tau-b", "0.98")
        assert code == 0
        payload = json.loads(out)
        assert payload["rate"] == pytest.approx(-1.08803005629537, rel=1e-10)
        assert payload["secure"] is False

    def test_thermal_knowledge(self, capsys):
        code, out, _ = run_cli(
            capsys, "rate", "--tau-a", "0.8", "--tau-b", "0.5",
            "--knowledge", "thermal", "--omega-a", "1.3", "--omega-b", "2.0",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["rate"] == pytest.approx(-1.98781796518937, rel=1e-10)

    def test_flag_validation_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "rate", "--tau-a", "1.5", "--tau-b", "0.6")
        assert code == 2
        assert "--tau-a" in err

    def test_missing_thermal_omegas_exit_two(self, capsys):
        code, _, err = run_cli(
            capsys, "rate", "--tau-a", "0.9", "--tau-b", "0.6",
            "--knowledge", "thermal",
        )
        assert code == 2
        assert "--omega-a" in err

    def test_domain_error_exit_one(self, capsys):
        # lossless symmetric links with epsilon = 0 hit the chi pole
        code, _, err = run_cli(
            capsys, "rate", "--tau-a", "1.0", "--tau-b", "1.0", "--epsilon", "0.0"
        )
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("argv, omega", [
        (("rate", "--tau-a", "0.9", "--tau-b", "0.8", "--knowledge", "thermal"), "1e200"),
        (("attack-opt", "--tau-a", "0.9", "--tau-b", "0.7"), "1e78"),
    ], ids=["rate", "attack-opt"])
    def test_huge_omega_exit_two(self, capsys, argv, omega):
        # the physicality invariants (omega^4) and g_max's product would
        # overflow: an input error naming the flag, with no warning (the
        # suite turns every warning into an error)
        code, out, err = run_cli(capsys, *argv, "--omega-a", omega, "--omega-b", omega)
        assert (code, out) == (2, "")
        assert err == f"error: --omega-a must be at most 1e+76 SNU, got {float(omega)}\n"

    @pytest.mark.parametrize("argv, key", [
        (("rate", "--tau-a", "0.9", "--tau-b", "0.8", "--knowledge", "thermal"), "rate"),
        (("attack-opt", "--tau-a", "0.9", "--tau-b", "0.7"), "rate_star"),
    ], ids=["rate", "attack-opt"])
    def test_largest_omega_is_a_finite_rate(self, capsys, argv, key):
        code, out, _ = run_cli(capsys, *argv, "--omega-a", "1e76", "--omega-b", "1e76")
        rate = json.loads(out)[key]
        assert code == 0 and math.isfinite(rate) and rate < 0.0

    @pytest.mark.parametrize("noise", [
        ("--epsilon", "1e3"), ("--epsilon", "1e6"), ("--epsilon", "1e12"), ("--epsilon", "1e20"),
        ("--knowledge", "thermal", "--omega-a", "1e3", "--omega-b", "1e3"),
        ("--knowledge", "thermal", "--omega-a", "1e10", "--omega-b", "1e10"),
        ("--knowledge", "thermal", "--omega-a", "1e20", "--omega-b", "1e20"),
        ("--knowledge", "thermal", "--omega-a", "1e76", "--omega-b", "1e76"),
    ], ids=lambda noise: "=".join(noise[-2:]))
    def test_large_noise_matches_oracle(self, capsys, noise):
        # the entropy's a log2 a - b log2 b form was off by 3.0e-5 at
        # epsilon = 1e12 and by 100 % at epsilon = 1e20 and omega >= 1e20
        code, out, _ = run_cli(capsys, "rate", "--tau-a", "0.9", "--tau-b", "0.7", *noise)
        got = json.loads(out)["rate"]
        if noise[0] == "--epsilon":
            chi = mp_oracle.chi_equivalent(0.9, 0.7, float(noise[1]))
            want = float(mp_oracle.rate_min_chi_asym(0.97, 61, 0.9, 0.7, chi))
        else:
            omega = float(noise[-1])
            want = float(mp_oracle.rate_min_thermal(0.97, 61, 0.9, 0.7, omega, omega))
        assert code == 0
        assert abs(got - want) <= 1e-12 * max(1.0, abs(got), abs(want))

    def test_unknown_flag_exit_two(self, capsys):
        assert run_cli(capsys, "rate", "--bogus", "1")[0] == 2

    @pytest.mark.parametrize("argv, usage", [
        (("rate", "--tau-a", "0.9", "--tau-b", "0.8", "--bogus", "1"), "usage: cvmdi rate "),
        (("rate", "--tau-a", "0.9", "--tau-b", "0.8", "stray"), "usage: cvmdi rate "),
        (("--bogus", "rate", "--tau-a", "0.9", "--tau-b", "0.8"), "usage: cvmdi [-h] "),
    ], ids=["after-command", "stray-value", "before-command"])
    def test_unknown_argument_reported_with_its_parsers_usage(self, capsys, argv, usage):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(usage) and "error: unrecognized arguments: " in err

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "rate.json"
        code, out, _ = run_cli(
            capsys, "rate", "--tau-a", "0.95", "--tau-b", "0.9",
            "--output", str(target),
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["secure"] is True


def readme_rate_keys() -> list[str]:
    """The keys of the README's `rate` JSON schema, in its order."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    schema = readme.split("`rate` emits a single JSON object:", 1)[1].split("```", 2)[1]
    return re.findall(r'"(\w+)":', schema)


class TestRateSchema:
    @pytest.mark.parametrize("argv", [
        ("--tau-a", "0.98", "--tau-b", "0.6"),
        ("--tau-a", "0.9", "--tau-b", "0.9"),
        ("--tau-a", "0.9", "--tau-b", "0.8", "--knowledge", "thermal",
         "--omega-a", "1.5", "--omega-b", "2"),
        # lossless symmetric links: the decoupled corner
        ("--tau-a", "1", "--tau-b", "1", "--knowledge", "thermal",
         "--omega-a", "1.5", "--omega-b", "2"),
    ], ids=["chi-asymmetric", "chi-symmetric", "thermal", "thermal-decoupled"])
    def test_keys_in_readme_order(self, capsys, argv):
        # each model echoes its own fields: the chi model its epsilon, the
        # thermal model omega_a and omega_b in epsilon's place
        keys = readme_rate_keys()
        assert len(keys) == 13 and keys[:2] == ["tau_a", "tau_b"] and keys[4] == "epsilon"
        if "thermal" in argv:
            keys[4:5] = ["omega_a", "omega_b"]
        code, out, _ = run_cli(capsys, "rate", *argv)
        assert code == 0
        assert list(json.loads(out)) == keys

    def test_decoupled_corner(self, capsys):
        _, out, _ = run_cli(capsys, "rate", "--tau-a", "1", "--tau-b", "1",
                            "--knowledge", "thermal", "--omega-a", "1.5", "--omega-b", "2")
        payload = json.loads(out)
        assert (payload["chi"], payload["i_ea"], payload["nu"]) == (4.0, 0.0, 1.0)
        assert payload["rate"] == payload["xi"] * payload["i_ab"]


class TestDeterminism:
    def test_rate_byte_identical(self, capsys):
        argv = ("rate", "--tau-a", "0.93", "--tau-b", "0.71")
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2

    def test_verify_byte_identical(self, capsys):
        argv = ("verify", "--seed", "11", "--scenarios", "3", "--samples", "40")
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2

    def test_optics_byte_identical(self, capsys):
        argv = ("optics-sim", "--trials", "100", "--seed", "4")
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2

    def test_parser_reused_after_a_rejected_call(self, capsys):
        # main builds its parser once per process; a call argparse rejects
        # must not leave state behind for the next call
        argv = ("verify", "--seed", "3", "--scenarios", "2", "--samples", "20")
        code1, out1, _ = run_cli(capsys, *argv)
        code, _, err = run_cli(capsys, "verify", "--seed", "3", "--bogus", "1")
        assert code == 2 and "--bogus" in err
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2


# stdout of the README attack-opt, of small-grid certificates at the edges
# (xi 0.5 and 1.0, omega 1e76, symmetric links, tau_a = 1, a lossless link)
# and of a rate per knowledge mode, recorded before the shared formulas were
# rewritten in place: they must not move by a bit.  The lossless certificate,
# which exited 1 until lattices rated decoupled points, was recorded after
GOLDEN = [
    ('attack-opt --tau-a 0.9 --tau-b 0.7 --omega-a 2 --omega-b 2', 0,
     '{"g_star": -1.732, "g_prime_star": 1.732, '
     '"rate_star": -1.5714548713144894, "bisector_distance": 0.0, '
     '"analytic_rate": -1.5714699422656473, "gap": 1.5070951157936108e-05, '
     '"g_max": 1.7320508075688772, "gmax_distance": 5.0807568877209164e-05, '
     '"cell_size": 9.999999999998899e-05, "n_evaluated": 22548, '
     '"n_skipped": 0}\n'),
    ('attack-opt --tau-a 0.85 --tau-b 0.55 --omega-a 3 --omega-b 1.7 '
     '--xi 0.5 --grid-n 41 --refine-n 81', 0,
     '{"g_star": -1.6711552890141599, "g_prime_star": 1.6711552890141599, '
     '"rate_star": -3.2614582439391304, "bisector_distance": 0.0, '
     '"analytic_rate": -3.261915580665634, "gap": 0.0004573367265034989, '
     '"g_max": 1.6733200530681511, "gmax_distance": 0.0021647640539912416, '
     '"cell_size": 0.005645794895318135, "n_evaluated": 1782, "n_skipped": 0}\n'),
    ('attack-opt --tau-a 0.85 --tau-b 0.55 --omega-a 3 --omega-b 1.7 '
     '--xi 1.0 --grid-n 41 --refine-n 81', 0,
     '{"g_star": -1.6711552890141599, "g_prime_star": 1.6711552890141599, '
     '"rate_star": -1.987523180388384, "bisector_distance": 0.0, '
     '"analytic_rate": -1.988213416745814, "gap": 0.0006902363574301518, '
     '"g_max": 1.6733200530681511, "gmax_distance": 0.0021647640539912416, '
     '"cell_size": 0.005645794895318135, "n_evaluated": 1782, "n_skipped": 0}\n'),
    ('attack-opt --tau-a 0.9 --tau-b 0.7 --omega-a 1e76 --omega-b 1e76 '
     '--grid-n 31 --refine-n 61', 0,
     '{"g_star": -9.975e+75, "g_prime_star": 9.975e+75, '
     '"rate_star": -245.2138946618876, "bisector_distance": 0.0, '
     '"analytic_rate": -245.2155192805193, "gap": 0.0016246186316948297, '
     '"g_max": 1e+76, "gmax_distance": 2.5000000000000234e+73, '
     '"cell_size": 2.5000000000000234e+73, "n_evaluated": 2477, '
     '"n_skipped": 0}\n'),
    ('attack-opt --tau-a 0.6 --tau-b 0.95 --omega-a 1e76 --omega-b 2 '
     '--xi 0.5 --grid-n 31 --refine-n 61', 0,
     '{"g_star": -9.993775840769874e+37, "g_prime_star": 9.993775840769874e+37, '
     '"rate_star": -128.99571566655794, "bisector_distance": 0.0, '
     '"analytic_rate": -128.99571566655794, "gap": 0.0, "g_max": 1e+38, '
     '"gmax_distance": 6.224159230125902e+34, '
     '"cell_size": 6.2853936105470786e+35, "n_evaluated": 1802, '
     '"n_skipped": 0}\n'),
    ('attack-opt --tau-a 0.8 --tau-b 0.8 --omega-a 2 --omega-b 3 '
     '--grid-n 41 --refine-n 401', 0,
     '{"g_star": -2.000008374982465, "g_prime_star": 1.998783630111073, '
     '"rate_star": -2.108228694705325, '
     '"bisector_distance": 0.000866025403784582, '
     '"analytic_rate": -2.108383248325585, "gap": 0.00015455362026006725, '
     '"g_max": 2.0, "gmax_distance": 8.3749824648649e-06, '
     '"cell_size": 0.0012247448713913478, "n_evaluated": 2876, '
     '"n_skipped": 0}\n'),
    ('attack-opt --tau-a 0.99 --tau-b 0.99 --omega-a 1.5 --omega-b 1.5 '
     '--xi 1.0 --grid-n 5 --refine-n 41', 0,
     '{"g_star": -1.10625, "g_prime_star": 1.10625, '
     '"rate_star": 2.5011192624734884, "bisector_distance": 0.0, '
     '"analytic_rate": 2.495072285400469, "gap": 0.006046977073019377, '
     '"g_max": 1.118033988749895, "gmax_distance": 0.011783988749894947, '
     '"cell_size": 0.05624999999999991, "n_evaluated": 785, "n_skipped": 0}\n'),
    ('attack-opt --tau-a 1 --tau-b 0.6 --omega-a 2 --omega-b 2 --grid-n '
     '21 --refine-n 43', 0,
     '{"g_star": -1.72, "g_prime_star": 1.72, "rate_star": -0.5957906600568432, '
     '"bisector_distance": 0.0, "analytic_rate": -0.5957906600568432, '
     '"gap": 0.0, "g_max": 1.7320508075688772, '
     '"gmax_distance": 0.01205080756887722, "cell_size": 0.01904761904761898, '
     '"n_evaluated": 908, "n_skipped": 0}\n'),
    ('attack-opt --tau-a 0.7 --tau-b 0.4 --omega-a 4 --omega-b 1 --xi '
     '0.5 --grid-n 3 --refine-n 3', 0,
     '{"g_star": 0.0, "g_prime_star": -0.0, "rate_star": -3.2291975550479037, '
     '"bisector_distance": 0.0, "analytic_rate": -3.2291975550479037, '
     '"gap": 0.0, "g_max": 0.0, "gmax_distance": 0.0, "cell_size": 2.0, '
     '"n_evaluated": 2, "n_skipped": 0}\n'),
    ('attack-opt --tau-a 1 --tau-b 1 --omega-a 2 --omega-b 2 --grid-n 11 '
     '--refine-n 21', 0,
     '{"g_star": -1.7000000000000002, "g_prime_star": 1.7000000000000002, '
     '"rate_star": 3.8128152174359995, "bisector_distance": 0.0, '
     '"analytic_rate": 3.8128152174359995, "gap": 0.0, '
     '"g_max": 1.7320508075688772, "gmax_distance": 0.032050807568877016, '
     '"cell_size": 0.06000000000000005, "n_evaluated": 291, "n_skipped": 0}\n'),
    ('rate --tau-a 0.98 --tau-b 0.6', 0,
     '{"tau_a": 0.98, "tau_b": 0.6, "xi": 0.97, "phi": 60.0, "epsilon": 0.01, '
     '"knowledge": "chi", "chi": 5.384149659863946, "rate": 0.3793921919588146, '
     '"i_ab": 3.502018825359326, "i_ea": 3.0175660686397316, '
     '"nu": 2.339535864978903, "nu2": 1.115056628914057, "secure": true}\n'),
    ('rate --tau-a 0.9 --tau-b 0.8 --xi 0.5 --epsilon 0.3', 0,
     '{"tau_a": 0.9, "tau_b": 0.8, "xi": 0.5, "phi": 60.0, "epsilon": 0.3, '
     '"knowledge": "chi", "chi": 5.022222222222222, '
     '"rate": -1.9346509602514403, "i_ab": 3.602411471477373, '
     '"i_ea": 3.735856695990127, "nu": 1.6588235294117648, '
     '"nu2": 4.2705882352941185, "secure": false}\n'),
    ('rate --tau-a 0.9 --tau-b 0.8 --knowledge thermal --omega-a 1.5 '
     '--omega-b 2.0', 0,
     '{"tau_a": 0.9, "tau_b": 0.8, "xi": 0.97, "phi": 60.0, "omega_a": 1.5, '
     '"omega_b": 2.0, "knowledge": "thermal", "chi": 6.13041288135197, '
     '"rate": -1.1155965034466138, "i_ab": 3.314753095323878, '
     '"i_ea": 4.330907005910776, "nu": 2.2455127018922187, '
     '"nu2": 8.964101615137753, "secure": false}\n'),
]


class TestGoldenBytes:
    @pytest.mark.parametrize("argv, code, stdout", GOLDEN, ids=[g[0] for g in GOLDEN])
    def test_stdout_unchanged(self, capsys, argv, code, stdout):
        got, out, _ = run_cli(capsys, *argv.split())
        assert (got, out) == (code, stdout)


def drawn_argv(seed):
    """The drawn argv set of the byte pin below: rate under both models
    (lossless and chi >= mu links among them), attack-opt on small grids,
    and sweep/relay-scan tables, among them an epsilon = 0 sweep with the
    chi-pole cell and a thermal sweep with the lossless (1, 1) corner.
    Python's own generator draws it, whose stream does not change between
    versions."""
    rng = random.Random(seed)

    def f(x):
        return repr(float(x))

    def thermal():
        return ["--knowledge", "thermal", "--omega-a", f(rng.uniform(1.0, 10.0)),
                "--omega-b", f(rng.uniform(1.0, 10.0))]

    rate = [["rate", "--tau-a", "1", "--tau-b", "1", "--epsilon", "0"],
            ["rate", "--tau-a", "1", "--tau-b", "1"] + thermal(),
            ["rate", "--tau-a", "0.95", "--tau-b", "1e-6"],
            ["rate", "--tau-a", "1e-160", "--tau-b", "1e-160"] + thermal()]
    for k in range(40):
        ta, tb = rng.uniform(0.02, 1.0), rng.uniform(0.02, 1.0)
        if k % 4 == 1:
            tb = ta
        elif k % 4 == 2:
            tb = ta - 10.0 ** rng.uniform(-10, -3)
        if k % 10 == 3:
            ta = 1.0
        # every argv draws an epsilon, so the later draws stay put; only
        # the chi argv pass it, since --epsilon is the chi model's flag
        epsilon = ["--epsilon", f(rng.choice([0.0, 0.01, 0.3, 5.0, 1e3]))]
        argv = ["rate", "--tau-a", f(ta), "--tau-b", f(tb), *([] if k % 2 else epsilon),
                "--xi", f(rng.uniform(0.5, 1.0)), "--phi", f(rng.uniform(5.0, 100.0))]
        rate.append(argv + (thermal() if k % 2 else []))
    attack = []
    for k in range(10):
        ta, tb = rng.uniform(0.3, 1.0), rng.uniform(0.3, 1.0)
        if k % 3 == 2:
            tb = ta
        if k == 4:
            ta = 1.0
        argv = ["attack-opt", "--tau-a", f(ta), "--tau-b", f(tb),
                "--omega-a", f(rng.uniform(1.0, 10.0)),
                "--omega-b", f(rng.uniform(1.0, 10.0)),
                "--xi", f(rng.uniform(0.5, 1.0))]
        rng.choice([0.0, 0.01, 3.0])  # a dropped value, drawn so the later draws stay put
        attack.append(argv + ["--grid-n", str(rng.choice([21, 41, 61])),
                              "--refine-n", str(rng.choice([41, 81, 201]))])
    tables = [
        ["sweep", "--tau-a-min", "0.9", "--tau-b-min", "0.9", "--steps-a", "6",
         "--steps-b", "6", "--epsilon", "0"],
        ["sweep", "--tau-a-min", "0.9", "--tau-b-min", "0.9", "--steps-a", "6",
         "--steps-b", "6", "--epsilon", "0", "--format", "json"],
        ["sweep", "--tau-a-min", "0.8", "--tau-b-min", "0.8", "--steps-a", "5",
         "--steps-b", "7", "--format", "json"] + thermal(),
        ["sweep", "--tau-a-min", "0.8", "--tau-b-min", "0.8", "--steps-a", "5",
         "--steps-b", "7"] + thermal(),
        ["relay-scan", "--total", "1.0", "--epsilon", "0"],
        ["relay-scan", "--total", "0.9", "--epsilon", "0", "--steps", "11", "--format", "json"],
    ]
    for k in range(6):
        lo_a, lo_b = rng.uniform(0.05, 0.9), rng.uniform(0.05, 0.9)
        argv = ["sweep", "--tau-a-min", f(lo_a), "--tau-b-min", f(lo_b),
                "--steps-a", str(rng.randrange(2, 20)), "--steps-b", str(rng.randrange(2, 20))]
        epsilon = ["--epsilon", f(rng.choice([0.0, 0.01, 0.5]))]  # drawn as for rate
        argv += ([] if k % 3 == 1 else epsilon) + ["--format", ("csv", "json")[k % 2]]
        tables.append(argv + (thermal() if k % 3 == 1 else []))
    for k in range(4):
        argv = ["relay-scan", "--total", f(rng.uniform(0.05, 0.95)),
                "--steps", str(rng.randrange(2, 40)), "--format", ("csv", "json")[k % 2]]
        tables.append(argv + (thermal() if k % 2 else []))
    return {"rate": rate, "attack-opt": attack, "table": tables}


DRAWN_SEED = 2021
PINNED_ARGV = {
    **drawn_argv(DRAWN_SEED),
    "readme": [cmd.split() for cmd in (
        "rate --tau-a 0.98 --tau-b 0.6",
        "rate --tau-a 0.9 --tau-b 0.8 --knowledge thermal --omega-a 1.5 --omega-b 2.0",
        "sweep", "sweep --format json", "relay-scan --total 0.588",
        "relay-scan --total 0.588 --knowledge thermal --omega-a 1.5 --omega-b 2.0",
        "attack-opt --tau-a 0.9 --tau-b 0.7 --omega-a 2 --omega-b 2",
        "verify --seed 7", "optics-sim --trials 10000 --seed 0")],
    "verify": [["verify", "--seed", seed] for seed in ("3", "7", "11")],
}
# md5 of code, stdout and stderr of each group's argv in order, recorded
# before the shared formulas became arrays-only: they must not move by a
# byte.  rate and readme moved once since, in their thermal rate argv only,
# when the echo's "epsilon" gave way to the thermal model's omega_a, omega_b;
# readme and verify moved once more, in their verify argv only, when the
# region check, decided at y_min, dropped its entry's "samples": 65
PINNED_MD5 = {
    "attack-opt": "4492574fa1e7c6055885a771bf50a0a1",
    "rate": "a50c344a97a52252592716b988c5b6aa",
    "readme": "a3eea0853287750e9c2d2d046c240bed",
    "table": "9c0375525c1f25e361487e5af9fe33cd",
    "verify": "a5c4efc1722f0e015a4849d94b69820a",
}


class TestPinnedBytes:
    @pytest.mark.parametrize("group", sorted(PINNED_ARGV))
    def test_md5_unchanged(self, capsys, group):
        digest = hashlib.md5()
        for argv in PINNED_ARGV[group]:
            code = main(argv)
            captured = capsys.readouterr()
            digest.update(f"{code}\0{captured.out}\0{captured.err}\0".encode())
        assert digest.hexdigest() == PINNED_MD5[group]


class TestSweep:
    def test_csv_shape_and_values(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--tau-a-min", "0.9", "--tau-a-max", "1.0",
            "--steps-a", "3", "--tau-b-min", "0.9", "--tau-b-max", "1.0",
            "--steps-b", "3",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "tau_a,tau_b,chi,rate,secure"
        assert len(lines) == 10
        assert "9 cells" in err

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--steps-a", "2", "--steps-b", "2",
            "--tau-a-min", "0.8", "--tau-a-max", "0.9",
            "--tau-b-min", "0.8", "--tau-b-max", "0.9", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 4
        assert set(payload[0]) == {"tau_a", "tau_b", "chi", "rate", "secure", "error"}

    def test_bad_range_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--tau-a-min", "0.9",
                               "--tau-a-max", "0.5")
        assert code == 2
        assert "--tau-a" in err


class TestRelayScan:
    def test_summary_names_alice_extreme(self, capsys):
        code, out, err = run_cli(capsys, "relay-scan", "--total", "0.588",
                                 "--steps", "11")
        assert code == 0
        assert len(out.splitlines()) == 12
        assert "tau_a=1.000000" in err

    def test_total_validation(self, capsys):
        assert run_cli(capsys, "relay-scan", "--total", "1.5")[0] == 2

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_thermal_knowledge(self, capsys, fmt):
        code, out, _ = run_cli(capsys, "relay-scan", "--total", "0.588", "--steps", "11",
                               "--knowledge", "thermal", "--omega-a", "1.5",
                               "--omega-b", "2", "--format", fmt)
        scan = relay_scan(0.588, ProtocolParams(), steps=11,
                          knowledge=ThermalKnowledge(1.5, 2.0))
        assert code == 0
        assert out == export(scan.records, fmt)

    def test_omega_without_thermal_exit_two(self, capsys):
        code, out, err = run_cli(capsys, "relay-scan", "--total", "0.588",
                                 "--omega-a", "1.5")
        assert code == 2 and out == ""
        assert "--omega-a must be given only with --knowledge thermal" in err


class TestOneExportPerCommand:
    @pytest.mark.parametrize("argv", [
        ("sweep", "--steps-a", "3", "--steps-b", "3"),
        ("relay-scan", "--total", "0.588", "--steps", "5"),
    ], ids=["sweep", "relay-scan"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_one_call(self, capsys, monkeypatch, argv, fmt):
        calls = []

        def counting_export(table, fmt):
            calls.append(fmt)
            return export(table, fmt)

        monkeypatch.setattr(cli, "export", counting_export)
        assert run_cli(capsys, *argv, "--format", fmt)[0] == 0
        assert calls == [fmt]


class TestAttackOpt:
    def test_report_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "attack-opt", "--tau-a", "0.9", "--tau-b", "0.7",
            "--omega-a", "2", "--omega-b", "2",
            "--grid-n", "61", "--refine-n", "121",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["gap"] >= -1e-4
        assert payload["bisector_distance"] <= 2.0 * payload["cell_size"]
        assert payload["n_evaluated"] > 0

    @pytest.mark.parametrize("argv", [
        ("--omega-a", "1", "--omega-b", "1", "--grid-n", "5", "--refine-n", "5"),
        ("--omega-a", "2", "--omega-b", "3"),
    ], ids=" ".join)
    def test_lossless_link_certifies_the_decoupled_rate(self, capsys, argv):
        # on tau_a = tau_b = 1 every physical ancilla leaves lam = lam' = 0,
        # the decoupled point, so every one of them has the rate of `rate`
        link = ("--tau-a", "1", "--tau-b", "1")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run_cli(capsys, "attack-opt", *link, *argv)
            assert code == 0
            rate = json.loads(run_cli(capsys, "rate", *link, "--knowledge", "thermal",
                                      *argv[:4])[1])["rate"]
        payload = json.loads(out)
        assert payload["rate_star"] == payload["analytic_rate"] == rate == 3.8128152174359995
        assert payload["gap"] == 0.0 and payload["n_skipped"] == 0
        if argv[1] == "1":  # vacuum ancillas: only (0, 0) is physical, once per level
            assert out == (
                '{"g_star": 0.0, "g_prime_star": -0.0, "rate_star": 3.8128152174359995, '
                '"bisector_distance": 0.0, "analytic_rate": 3.8128152174359995, '
                '"gap": 0.0, "g_max": 0.0, "gmax_distance": 0.0, "cell_size": 0.5, '
                '"n_evaluated": 2, "n_skipped": 0}\n')

    def test_epsilon_is_not_a_flag(self, capsys):
        # the certificate rates the thermal attack, whose noise is the
        # ancillas': excess noise belongs to the chi model's commands
        code, out, err = run_cli(capsys, *ATTACK, "--epsilon", "0.01")
        assert (code, out) == (2, "")
        assert "--epsilon" in err
        # reported with attack-opt's own usage, which lists its flags
        assert err.startswith("usage: cvmdi attack-opt [-h] --tau-a TAU_A")
        assert err.endswith("cvmdi attack-opt: error: unrecognized arguments: --epsilon 0.01\n")

    def test_even_grid_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "attack-opt", "--tau-a", "0.9", "--tau-b", "0.7",
            "--omega-a", "2", "--omega-b", "2", "--grid-n", "100",
        )
        assert code == 2
        assert "--grid-n" in err


class TestVerify:
    def test_exit_zero_and_margins_report(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--seed", "7", "--scenarios", "4", "--samples", "50"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["all_pass"] is True
        assert set(payload["checks"]) == {
            "monotone_thermal", "monotone_chi", "p_prime_positive",
            "lambda_minimization", "classify_nu_regions",
        }
        assert err.count("pass") == 5


def failing_suite(**_):
    report = run_verification_suite(seed=3, scenarios=2, samples=20)
    report["checks"]["monotone_chi"].update({"pass": False, "failures": 1})
    return {**report, "all_pass": False}


def failing_alignment(**_):
    return AlignmentReport(trials=3, seed=0, max_phase_error=1.0, passed=False,
                           control_fail_fraction=1.0, control_passed=True)


class TestOpticsSim:
    def test_report(self, capsys):
        code, out, _ = run_cli(capsys, "optics-sim", "--trials", "300", "--seed", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["max_phase_error"] <= 1e-12
        assert payload["control_fail_fraction"] >= 0.99

    def test_failed_certificate_exit_one(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "check_self_alignment", failing_alignment)
        code, out, err = run_cli(capsys, "optics-sim", "--trials", "3")
        assert code == 1
        assert json.loads(out)["passed"] is False
        assert "FAIL" in err


class TestConsoleEntryPoint:
    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "cvmdi.cli", "rate",
             "--tau-a", "0.98", "--tau-b", "0.6"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["secure"] is True


RATE = ("rate", "--tau-a", "0.9", "--tau-b", "0.8")
THERMAL = ("--knowledge", "thermal", "--omega-a", "2", "--omega-b", "3")
ATTACK = ("attack-opt", "--tau-a", "0.9", "--tau-b", "0.7", "--omega-a", "2",
          "--omega-b", "2", "--grid-n", "61", "--refine-n", "121")

# (argv, flag the error must name): one row per rule per subcommand.  A
# later flag overrides an earlier one, so each row is a good base argv plus
# one bad value.
REJECTED = [
    (RATE + ("--xi", "0"), "--xi"),
    (RATE + ("--xi", "1.5"), "--xi"),
    (RATE + ("--phi", "0"), "--phi"),
    (RATE + ("--epsilon", "-0.1"), "--epsilon"),
    (("rate", "--tau-a", "0", "--tau-b", "0.8"), "--tau-a"),
    (("rate", "--tau-a", "0.9", "--tau-b", "1.5"), "--tau-b"),
    (RATE + ("--knowledge", "thermal"), "--omega-a"),
    (RATE + ("--knowledge", "thermal", "--omega-a", "2"), "--omega-b"),
    (RATE + THERMAL + ("--omega-a", "0.5"), "--omega-a"),
    (RATE + THERMAL + ("--omega-b", "0.5"), "--omega-b"),
    (RATE + THERMAL + ("--epsilon", "0.3"), "--epsilon"),
    (("sweep", "--xi", "2"), "--xi"),
    (("sweep", "--phi", "-1"), "--phi"),
    (("sweep", "--epsilon", "-1"), "--epsilon"),
    (("sweep", "--tau-a-min", "0.9", "--tau-a-max", "0.5"), "--tau-a-min/--tau-a-max"),
    (("sweep", "--tau-a-min", "0"), "--tau-a-min/--tau-a-max"),
    (("sweep", "--tau-b-max", "1.5"), "--tau-b-min/--tau-b-max"),
    (("sweep", "--steps-a", "1"), "--steps-a"),
    (("sweep", "--steps-b", "1"), "--steps-b"),
    (("sweep", "--knowledge", "thermal"), "--omega-a"),
    (("sweep",) + THERMAL + ("--omega-b", "0.5"), "--omega-b"),
    (("sweep",) + THERMAL + ("--epsilon", "0.3"), "--epsilon"),
    (("relay-scan", "--total", "1.5"), "--total"),
    (("relay-scan", "--total", "0"), "--total"),
    (("relay-scan", "--total", "0.5", "--steps", "1"), "--steps"),
    (("relay-scan", "--total", "0.5", "--xi", "0"), "--xi"),
    (("relay-scan", "--total", "0.5", "--phi", "0"), "--phi"),
    (("relay-scan", "--total", "0.5", "--epsilon", "-1"), "--epsilon"),
    (("relay-scan", "--total", "0.5") + THERMAL + ("--epsilon", "0.3"), "--epsilon"),
    (ATTACK + ("--tau-a", "0"), "--tau-a"),
    (ATTACK + ("--tau-b", "1.5"), "--tau-b"),
    (ATTACK + ("--omega-a", "0.5"), "--omega-a"),
    (ATTACK + ("--omega-b", "0.5"), "--omega-b"),
    (ATTACK + ("--grid-n", "100"), "--grid-n"),
    (ATTACK + ("--grid-n", "1"), "--grid-n"),
    (ATTACK + ("--refine-n", "4"), "--refine-n"),
    (ATTACK + ("--xi", "0"), "--xi"),
    (ATTACK + ("--phi", "0"), "--phi"),
    (("verify", "--scenarios", "0"), "--scenarios"),
    (("verify", "--samples", "1"), "--samples"),
    (("optics-sim", "--trials", "0"), "--trials"),
    (("verify", "--seed", "-1"), "--seed"),
    (("optics-sim", "--seed", "-1"), "--seed"),
    # non-finite values that a range check written in accepting form rejects
    (RATE + ("--xi", "nan"), "--xi"),
    (("rate", "--tau-a", "nan", "--tau-b", "0.8"), "--tau-a"),
    (("sweep", "--tau-b-min", "nan"), "--tau-b-min/--tau-b-max"),
    (("relay-scan", "--total", "nan"), "--total"),
    (ATTACK + ("--tau-a", "inf"), "--tau-a"),
]

# Rows that exited 1 or 0 before excess noise had a ceiling: lam lam'
# overflowed, so rate blamed sqrt(lam lam') >= |dtau| and sweep warned.
EPSILON_CEILING = [
    (RATE + ("--epsilon", "1e160"), "--epsilon"),
    (("sweep", "--epsilon", "1e300"), "--epsilon"),
    (("relay-scan", "--total", "0.5", "--epsilon", "1e300"), "--epsilon"),
]

# Rows that exited 0 or 1, with a NaN or infinite result or a misleading
# message, while the command-line front end kept its own copy of the rules:
# those copies compared in rejecting form (phi <= 0, omega < 1).
NON_FINITE = [
    (RATE + ("--phi", "nan"), "--phi"),
    (RATE + ("--phi", "inf"), "--phi"),
    (RATE + ("--epsilon", "nan"), "--epsilon"),
    (RATE + ("--epsilon", "inf"), "--epsilon"),
    (RATE + THERMAL + ("--omega-a", "inf"), "--omega-a"),
    (RATE + THERMAL + ("--omega-b", "nan"), "--omega-b"),
    (("sweep", "--epsilon", "nan"), "--epsilon"),
    (("sweep", "--phi", "inf"), "--phi"),
    (("sweep",) + THERMAL + ("--omega-a", "inf"), "--omega-a"),
    (("relay-scan", "--total", "0.5", "--phi", "nan"), "--phi"),
    (("relay-scan", "--total", "0.5", "--epsilon", "inf"), "--epsilon"),
    (ATTACK + ("--phi", "nan"), "--phi"),
    (ATTACK + ("--omega-a", "nan"), "--omega-a"),
    (ATTACK + ("--omega-b", "inf"), "--omega-b"),
]

# Rows that exited 0 with the chi-knowledge result: the ancilla variances
# were accepted and ignored unless --knowledge thermal was also given.
IGNORED_OMEGA = [
    (RATE + ("--omega-a", "nan"), "--omega-a"),
    (RATE + ("--omega-b", "2"), "--omega-b"),
    (("sweep", "--omega-a", "2"), "--omega-a"),
    (("sweep",) + THERMAL + ("--knowledge", "chi"), "--omega-a"),
]


class TestParameterErrors:
    @pytest.mark.parametrize("argv, flag",
                             REJECTED + EPSILON_CEILING + NON_FINITE + IGNORED_OMEGA,
                             ids=lambda x: " ".join(x) if isinstance(x, tuple) else None)
    def test_exit_two_names_the_flag(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and flag in err

    def test_epsilon_under_thermal_names_the_chi_model(self, capsys):
        # --epsilon was accepted and ignored under thermal knowledge
        code, out, err = run_cli(capsys, *RATE, *THERMAL, "--epsilon", "0.3")
        assert (code, out) == (2, "")
        assert err == "error: --epsilon must be given only with --knowledge chi, got 0.3\n"

    def test_no_output_file_on_rejection(self, capsys, tmp_path):
        target = tmp_path / "rate.json"
        code, _, _ = run_cli(capsys, *RATE, "--phi", "nan", "--output", str(target))
        assert code == 2
        assert not target.exists()

    @pytest.mark.parametrize("argv", [
        ("relay-scan", "--total", "1.0", "--epsilon", "0"),
        # beta / alpha of admissible transmissivities is not finite: these
        # died with a ZeroDivisionError traceback, or warned first
        ("rate", "--tau-a", "1e-300", "--tau-b", "1e-300"),
        ("rate", "--tau-a", "1e-300", "--tau-b", "1e-300", "--knowledge", "thermal",
         "--omega-a", "2", "--omega-b", "2"),
        ("rate", "--tau-a", "1", "--tau-b", "1e-320", "--knowledge", "thermal",
         "--omega-a", "2", "--omega-b", "2"),
        ("sweep", "--tau-a-min", "1e-300", "--tau-a-max", "1e-300", "--tau-b-min", "1e-300",
         "--tau-b-max", "1e-300", "--steps-a", "2", "--steps-b", "2"),
        ("relay-scan", "--total", "1e-320"),
        ("attack-opt", "--tau-a", "1e-300", "--tau-b", "1e-300", "--omega-a", "2",
         "--omega-b", "2", "--grid-n", "5", "--refine-n", "5"),
    ])
    def test_domain_errors_still_exit_one(self, capsys, argv):
        # admissible inputs on which every rate formula is undefined
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == "" and err.startswith("error: ")

    @pytest.mark.parametrize("target", ["missing/out.txt", "."],
                             ids=["missing-directory", "directory"])
    @pytest.mark.parametrize("argv", [RATE, ("sweep", "--steps-a", "2", "--steps-b", "2")],
                             ids=" ".join)
    def test_unwritable_output_exit_one(self, capsys, tmp_path, argv, target):
        # an --output file that cannot be opened is an error line and exit 1,
        # not a FileNotFoundError or IsADirectoryError traceback
        code, out, err = run_cli(capsys, *argv, "--output", str(tmp_path / target))
        assert code == 1 and out == ""
        assert err.startswith("error: [Errno ") and str(tmp_path) in err
        assert sorted(tmp_path.iterdir()) == []


class TestOutputParity:
    # main is the one writer: --output moves the stdout bytes into the file
    # and changes neither the exit code nor the stderr summary
    @pytest.mark.parametrize("argv, patch, code", [
        (RATE, None, 0),
        (("sweep", "--steps-a", "3", "--steps-b", "4", "--format", "json"), None, 0),
        (("relay-scan", "--total", "0.588", "--steps", "5"), None, 0),
        (("relay-scan", "--total", "0.588", "--steps", "5", "--format", "json"), None, 0),
        (ATTACK, None, 0),
        (("verify", "--seed", "3", "--scenarios", "2", "--samples", "20"), None, 0),
        (("optics-sim", "--trials", "50", "--seed", "1"), None, 0),
        (("verify",), ("run_verification_suite", failing_suite), 1),
        (("optics-sim", "--trials", "3"), ("check_self_alignment", failing_alignment), 1),
    ], ids=["rate", "sweep", "relay-scan", "relay-scan-json", "attack-opt", "verify",
            "optics-sim", "verify-fail", "optics-sim-fail"])
    def test_output_file_holds_the_stdout_bytes(self, capsys, monkeypatch, tmp_path,
                                                 argv, patch, code):
        if patch is not None:
            monkeypatch.setattr(cli, *patch)
        target = tmp_path / "out.txt"
        got, out, err = run_cli(capsys, *argv)
        got_file, out_file, err_file = run_cli(capsys, *argv, "--output", str(target))
        assert got == got_file == code
        assert err_file == err and err.endswith("\n")
        assert out_file == "" and out != ""
        assert target.read_bytes() == out.encode()
        if code:
            assert "FAIL" in err


# On Linux a process's ru_maxrss starts at the peak RSS of the parent that
# spawned it (exec keeps the larger), so the sweep runs as the child of a
# bare interpreter, which prints the sweep's exit code, ru_maxrss (KiB) and
# minor faults
PEAK_OF_CHILD = """
import os, subprocess, sys
proc = subprocess.Popen([sys.executable, "-m", "cvmdi.cli", *sys.argv[1:]],
                        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, usage.ru_minflt)
"""


class TestStreamedOutput:
    """`sweep` and `relay-scan` write an --output file block by block, so
    the process never holds the table's whole text."""

    @pytest.mark.parametrize("argv", [
        ("sweep", "--steps-a", "4", "--steps-b", "3", "--epsilon", "0"),  # ends at the pole
        ("relay-scan", "--total", "0.5", "--steps", "11", "--format", "json"),
    ], ids=["sweep", "relay-scan"])
    def test_file_written_piece_by_piece(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.setattr(sweep_module, "BLOCK", 5)
        pieces = []

        def recording(table, fmt):
            for piece in sweep_module._block_texts(table, fmt):
                pieces.append(piece)
                yield piece

        target = tmp_path / "out.txt"
        _, out, _ = run_cli(capsys, *argv)
        monkeypatch.setattr(cli, "_block_texts", recording)
        assert run_cli(capsys, *argv, "--output", str(target))[0] == 0
        assert target.read_text() == "".join(pieces) == out
        assert len(pieces) == 2 + 3  # head, three blocks of at most 5 rows, tail

    @pytest.mark.skipif(sys.platform != "linux", reason="Linux's ru_maxrss rules")
    def test_large_json_sweep_peak(self, tmp_path):
        # as one string the export peaked at 303.0 MB (its block texts and
        # their join, 2 x 126 MB); streamed, 66.0 MB with 8 345 minor faults,
        # on 2 cores with Python 3.11.7 and numpy 2.4.6.  The 40 MB of margin
        # leaves room for transparent huge pages.
        target = tmp_path / "sweep1001.json"
        result = subprocess.run(
            [sys.executable, "-c", PEAK_OF_CHILD, "sweep", "--steps-a", "1001",
             "--steps-b", "1001", "--format", "json", "--output", str(target)],
            capture_output=True, text=True, check=True)
        code, peak_kib, _ = map(int, result.stdout.split())
        assert code == 0
        digest = hashlib.md5()
        with target.open("rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
        assert digest.hexdigest() == "470b6ca5ec9a6fd84f724638db9af006"
        assert peak_kib / 1024 <= 66.0 + 40


# (base argv, flag, changed value): one row per option of each subcommand,
# -h/--help and --output aside.  Thermal bases carry the --omega-* rows,
# since only that model reads them; the chi base carries --epsilon.
RATE_THERMAL = RATE + THERMAL
SWEEP = ("sweep", "--steps-a", "3", "--steps-b", "3")
RELAY = ("relay-scan", "--total", "0.5", "--steps", "3")
SMALL_ATTACK = ATTACK + ("--grid-n", "21", "--refine-n", "41")
VERIFY = ("verify", "--scenarios", "2", "--samples", "4")
OPTICS = ("optics-sim", "--trials", "1")
EVERY_FLAG = [
    (RATE, "--tau-a", "0.85"), (RATE, "--tau-b", "0.75"), (RATE, "--xi", "0.9"),
    (RATE, "--phi", "30"), (RATE, "--epsilon", "0.3"), (RATE, "--knowledge", "thermal"),
    (RATE_THERMAL, "--omega-a", "2.5"), (RATE_THERMAL, "--omega-b", "2.5"),
    (SWEEP, "--tau-a-min", "0.6"), (SWEEP, "--tau-a-max", "0.9"), (SWEEP, "--steps-a", "4"),
    (SWEEP, "--tau-b-min", "0.6"), (SWEEP, "--tau-b-max", "0.9"), (SWEEP, "--steps-b", "4"),
    (SWEEP, "--xi", "0.9"), (SWEEP, "--phi", "30"), (SWEEP, "--epsilon", "0.3"),
    (SWEEP, "--knowledge", "thermal"), (SWEEP + THERMAL, "--omega-a", "2.5"),
    (SWEEP + THERMAL, "--omega-b", "2.5"), (SWEEP, "--format", "json"),
    (RELAY, "--total", "0.6"), (RELAY, "--steps", "4"), (RELAY, "--xi", "0.9"),
    (RELAY, "--phi", "30"), (RELAY, "--epsilon", "0.3"), (RELAY, "--knowledge", "thermal"),
    (RELAY + THERMAL, "--omega-a", "2.5"), (RELAY + THERMAL, "--omega-b", "2.5"),
    (RELAY, "--format", "json"),
    (SMALL_ATTACK, "--tau-a", "0.85"), (SMALL_ATTACK, "--tau-b", "0.75"),
    (SMALL_ATTACK, "--omega-a", "2.5"), (SMALL_ATTACK, "--omega-b", "2.5"),
    (SMALL_ATTACK, "--xi", "0.9"), (SMALL_ATTACK, "--phi", "30"),
    (SMALL_ATTACK, "--grid-n", "31"), (SMALL_ATTACK, "--refine-n", "61"),
    (VERIFY, "--seed", "8"), (VERIFY, "--scenarios", "3"), (VERIFY, "--samples", "5"),
    (OPTICS, "--trials", "50"), (OPTICS, "--seed", "1"),
]
# JSON keys that only repeat an input, at any depth
ECHOES = {"rate": {"tau_a", "tau_b", "xi", "phi", "epsilon", "omega_a", "omega_b",
                   "knowledge"},
          "verify": {"seed", "scenarios", "samples"}, "optics-sim": {"trials", "seed"}}
COMMANDS = list(cli._COMMANDS)  # the six subcommands


def without_echoes(command, out):
    """stdout with the JSON fields that only echo an input removed."""
    def strip(value):
        if isinstance(value, dict):
            return {k: strip(v) for k, v in value.items() if k not in ECHOES[command]}
        return value
    return strip(json.loads(out)) if command in ECHOES and out else out


def subcommand_flags(command):
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {flag for action in sub.choices[command]._actions
            for flag in action.option_strings} - {"-h", "--help", "--output"}


class TestEveryFlagIsRead:
    @pytest.mark.parametrize("base, flag, value", EVERY_FLAG,
                             ids=[f"{base[0]} {flag}" for base, flag, _ in EVERY_FLAG])
    def test_flag_changes_the_outcome(self, capsys, base, flag, value):
        code, out, _ = run_cli(capsys, *base)
        changed_code, changed_out, _ = run_cli(capsys, *base, flag, value)
        assert code == 0
        assert (changed_code, without_echoes(base[0], changed_out)) != (
            code, without_echoes(base[0], out))

    @pytest.mark.parametrize("command", COMMANDS)
    def test_table_lists_every_option(self, command):
        listed = {flag for base, flag, _ in EVERY_FLAG if base[0] == command}
        assert listed == subcommand_flags(command)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_exits_zero(self, capsys, command):
        code, out, _ = run_cli(capsys, command, "--help")
        assert code == 0 and out.startswith(f"usage: cvmdi {command}")
