"""The benchmark's three workloads: seeded inputs and output checks.

A workload is a fixed list of CLI operations (one round).  Its inputs are
drawn once per run from ``--seed``; every round repeats the same argv, so
each round does the same work and fails the same operations.  ``check``
receives the stdout of one round and returns, per operation, ``None`` when
the output is right or the reason it is wrong.  Operations flagged
``edge`` are the near-symmetric queries the program is known to get wrong;
any other wrong output makes the run incorrect.

Seeded draws keep every asymmetric link at least ``MIN_DTAU`` away from
the diagonal.  The near-symmetric band below that is measured by the
fixed edge-band queries alone, so the failure count is the same on every
seed.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import reference as ref

MIN_DTAU = 1e-5
MU = 61.0  # phi = 60, the CLI default
XI = 0.97
EPSILON = 0.01

EDGE_TAUS = (0.6, 0.75, 0.9)
EDGE_DELTAS = (1e-10, 9e-10, 2e-9, 2e-8, 2e-7, 5e-7, 1e-6, 1e-5)
EDGE_OMEGAS = (2.0, 3.0)


@dataclass(frozen=True)
class Op:
    """One CLI call.  ``units`` is the work it credits to ``work_per_s``
    (cells, certificates or verification scenarios); ``main`` is false for
    the optics part of ``certify``, which is timed separately."""

    argv: tuple[str, ...]
    units: int
    main: bool = True
    edge: bool = False

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass
class Workload:
    name: str
    unit: str
    ops: list[Op]
    check: Callable[[list[str]], list[str | None]]
    aux_unit: str | None = None
    scaled: bool = True  # round times scaled to nominal host speed (calibrate.py)
    notes: dict = field(default_factory=dict)


def _f(x: float) -> str:
    return repr(float(x))


def _pick(rng: np.random.Generator, k: int, n: int) -> list[int]:
    return [int(i) for i in rng.choice(n, size=min(k, n), replace=False)]


# ---------------------------------------------------------------- surface

def _check_chi_csv(text: str, lo: float, n: int, eps: float, rng) -> str | None:
    lines = text.split("\n")
    if lines[0] != "tau_a,tau_b,chi,rate,secure" or lines[-1] != "":
        return "bad CSV framing"
    rows = [line.split(",") for line in lines[1:-1]]
    if len(rows) != n * n:
        return f"{len(rows)} rows, lattice has {n * n}"
    taus = ref.lattice(lo, 1.0, n)
    for k, (ta, tb, chi, rate, secure) in enumerate(rows):
        i, j = divmod(k, n)
        if not (ref.close_printed(ta, taus[i]) and ref.close_printed(tb, taus[j])):
            return f"row {k} is not lattice cell ({i}, {j})"
        chi_ref = ref.chi_equivalent(taus[i], taus[j], eps)
        if not ref.close_printed(chi, chi_ref):
            return f"row {k}: chi {chi} != 2 beta / alpha + eps = {float(chi_ref)!r}"
        if rate == "":
            if ref.min_chi_defined(taus[i], taus[j], chi_ref) or secure != "false":
                return f"row {k}: rate missing where the formula is defined"
        elif secure != ("true" if float(rate) > 0.0 else "false"):
            return f"row {k}: secure flag disagrees with rate {rate}"
    sample = [(i, i) for i in range(n)] + [divmod(k, n) for k in _pick(rng, 200, n * n)]
    for i, j in sample:
        chi_ref = ref.chi_equivalent(taus[i], taus[j], eps)
        rate = rows[i * n + j][3]
        if not ref.min_chi_defined(taus[i], taus[j], chi_ref):
            continue
        want = ref.rate_min_chi(XI, MU, taus[i], taus[j], chi_ref)
        if rate == "" or not ref.close_printed(rate, want):
            return f"cell ({i}, {j}): rate {rate!r} vs oracle {want!r}"
    return None


def _check_thermal_json(text: str, lo: float, n: int, wa: float, wb: float, rng) -> str | None:
    records = json.loads(text)
    if len(records) != n * n:
        return f"{len(records)} records, lattice has {n * n}"
    taus = ref.lattice(lo, 1.0, n)
    gm = ref.g_max(wa, wb)
    for k, r in enumerate(records):
        i, j = divmod(k, n)
        if abs(r["tau_a"] - taus[i]) > 1e-12 or abs(r["tau_b"] - taus[j]) > 1e-12:
            return f"record {k} is not lattice cell ({i}, {j})"
        if r["error"] is not None or r["rate"] is None:
            return f"record {k}: unexpected error {r['error']!r}"
        if r["secure"] != (r["rate"] > 0.0):
            return f"record {k}: secure flag disagrees with rate"
    sample = [(i, i) for i in range(n)] + [divmod(k, n) for k in _pick(rng, 100, n * n)]
    for i, j in sample:
        r = records[i * n + j]
        ta, tb = r["tau_a"], r["tau_b"]
        lam = ref.lam_opt(ta, tb, wa, wb, gm)
        chi_ref = ref.thermal_chi(ta, tb, lam)
        if ref.rel_err(r["chi"], chi_ref) > ref.REL_TOL:
            return f"cell ({i}, {j}): chi {r['chi']!r} vs oracle {chi_ref!r}"
        want = ref.rate_min_thermal(XI, MU, ta, tb, wa, wb, gm)
        if ref.rel_err(r["rate"], want) > ref.REL_TOL:
            return f"cell ({i}, {j}): rate {r['rate']!r} vs oracle {want!r}"
    return None


def _relay_taus(total: float, steps: int) -> list[tuple[float, float]]:
    return [(ta, min(1.0, total / ta)) for ta in ref.lattice(total, 1.0, steps)]


def _check_relay_csv(text: str, total: float, steps: int) -> str | None:
    lines = text.split("\n")
    if lines[0] != "tau_a,tau_b,chi,rate,secure" or lines[-1] != "":
        return "bad CSV framing"
    rows = [line.split(",") for line in lines[1:-1]]
    cells = _relay_taus(total, steps)
    if len(rows) != len(cells):
        return f"{len(rows)} rows for {steps} steps"
    for k, ((ta, tb, chi, rate, secure), (ta_ref, tb_ref)) in enumerate(zip(rows, cells)):
        if not (ref.close_printed(ta, ta_ref) and ref.close_printed(tb, tb_ref)):
            return f"row {k} is off the contour tau_a * tau_b = {total!r}"
        chi_ref = ref.chi_equivalent(ta_ref, tb_ref, EPSILON)
        if not ref.close_printed(chi, chi_ref):
            return f"row {k}: chi {chi} vs {float(chi_ref)!r}"
        want = ref.rate_min_chi(XI, MU, ta_ref, tb_ref, chi_ref)
        if not ref.close_printed(rate, want):
            return f"row {k}: rate {rate} vs oracle {want!r}"
        if secure != ("true" if float(rate) > 0.0 else "false"):
            return f"row {k}: secure flag disagrees with rate {rate}"
    best = max(range(len(rows)), key=lambda k: float(rows[k][3]))
    if best != len(rows) - 1:
        return f"argmax at row {best}, not at the Alice-side extreme tau_a = 1"
    return None


def _edge_queries() -> list[tuple[str, float, float]]:
    return [(knowledge, tau + delta, tau)
            for knowledge in ("chi", "thermal")
            for tau in EDGE_TAUS
            for delta in EDGE_DELTAS]


def _check_rate_json(text: str, knowledge: str, ta: float, tb: float, gm) -> str | None:
    r = json.loads(text)
    if r["tau_a"] != ta or r["tau_b"] != tb or r["knowledge"] != knowledge:
        return "rate report echoes the wrong query"
    if knowledge == "chi":
        chi_ref = ref.chi_equivalent(ta, tb, EPSILON)
        want = ref.rate_min_chi(XI, MU, ta, tb, chi_ref)
    else:
        chi_ref = ref.thermal_chi(ta, tb, ref.lam_opt(ta, tb, *EDGE_OMEGAS, gm))
        want = ref.rate_min_thermal(XI, MU, ta, tb, *EDGE_OMEGAS, gm)
    if ref.rel_err(r["chi"], float(chi_ref)) > ref.REL_TOL:
        return f"chi {r['chi']!r} vs oracle {float(chi_ref)!r}"
    if r["secure"] != (r["rate"] > 0.0):
        return "secure flag disagrees with rate"
    err = ref.rel_err(r["rate"], want)
    if err > ref.REL_TOL:
        return f"rate off the oracle by {err:.2e} (tau_b = {tb!r}, dtau = {ta - tb:.1e})"
    return None


def _far_from_diagonal(total: float, steps: int) -> bool:
    return all(ta == tb or abs(ta - tb) >= MIN_DTAU for ta, tb in _relay_taus(total, steps))


def surface(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    n_chi, n_th, n_relay = 201, 101, 201
    lo_chi = float(rng.uniform(0.3, 0.6))
    # no excess noise on half the seeds puts the (1, 1) cell on the
    # symmetric pole chi = 4, the sweep's one error-tagged cell
    eps = 0.0 if rng.random() < 0.5 else float(rng.uniform(0.005, 0.05))
    lo_th = float(rng.uniform(0.3, 0.6))
    wa, wb = (float(w) for w in rng.uniform(1.0, 5.0, size=2))
    totals = []
    while len(totals) < 4:
        total = float(rng.uniform(0.2, 0.9))
        if _far_from_diagonal(total, n_relay):
            totals.append(total)
    ops = [
        Op(("sweep", "--tau-a-min", _f(lo_chi), "--tau-b-min", _f(lo_chi),
            "--steps-a", str(n_chi), "--steps-b", str(n_chi), "--epsilon", _f(eps)),
           units=n_chi * n_chi),
        Op(("sweep", "--tau-a-min", _f(lo_th), "--tau-b-min", _f(lo_th),
            "--steps-a", str(n_th), "--steps-b", str(n_th), "--knowledge", "thermal",
            "--omega-a", _f(wa), "--omega-b", _f(wb), "--format", "json"),
           units=n_th * n_th),
    ]
    ops += [Op(("relay-scan", "--total", _f(t), "--steps", str(n_relay)), units=n_relay)
            for t in totals]
    edges = _edge_queries()
    for knowledge, ta, tb in edges:
        argv = ("rate", "--tau-a", _f(ta), "--tau-b", _f(tb))
        if knowledge == "thermal":
            argv += ("--knowledge", "thermal", "--omega-a", _f(EDGE_OMEGAS[0]),
                     "--omega-b", _f(EDGE_OMEGAS[1]))
        ops.append(Op(argv, units=1, edge=True))

    def check(outputs: list[str]) -> list[str | None]:
        crng = np.random.default_rng([seed, 1])
        verdicts = [
            _check_chi_csv(outputs[0], lo_chi, n_chi, eps, crng),
            _check_thermal_json(outputs[1], lo_th, n_th, wa, wb, crng),
        ]
        verdicts += [_check_relay_csv(out, t, n_relay) for out, t in zip(outputs[2:6], totals)]
        gm = ref.g_max(*EDGE_OMEGAS)
        verdicts += [_check_rate_json(out, *query, gm)
                     for out, query in zip(outputs[6:], edges)]
        return verdicts

    return Workload("surface", "cells", ops, check,
                    notes={"lo_chi": lo_chi, "epsilon": eps, "lo_thermal": lo_th,
                           "omegas": [wa, wb], "totals": totals})


# ----------------------------------------------------------------- attack

def _attack_links(rng: np.random.Generator, count: int) -> list[tuple[float, ...]]:
    links = []
    while len(links) < count:
        ta, tb = (float(t) for t in rng.uniform(0.3, 0.99, size=2))
        wa, wb = (float(w) for w in rng.uniform(1.0, 10.0, size=2))
        if len(links) % 3 == 2:
            tb = ta  # every third link is exactly symmetric
        elif abs(ta - tb) < MIN_DTAU:
            continue
        links.append((ta, tb, wa, wb, (1.0, 0.97)[len(links) % 2]))
    return links


def _check_certificate(text: str, ta, tb, wa, wb, xi) -> str | None:
    r = json.loads(text)
    gm = ref.g_max(wa, wb)
    if abs(r["g_max"] - float(gm)) > ref.REL_TOL * max(1.0, float(gm)):
        return f"g_max {r['g_max']!r} vs oracle {float(gm)!r}"
    want = ref.rate_min_thermal(xi, MU, ta, tb, wa, wb, gm)
    if ref.rel_err(r["analytic_rate"], want) > ref.REL_TOL:
        return f"analytic_rate {r['analytic_rate']!r} vs oracle minimum {want!r}"
    at_star = ref.rate_at(xi, MU, ta, tb, wa, wb, r["g_star"], r["g_prime_star"])
    if ref.rel_err(r["rate_star"], at_star) > ref.REL_TOL:
        return f"rate_star {r['rate_star']!r} vs oracle {at_star!r} at the argmin"
    if abs(r["gap"]) > 1e-4:
        return f"gap {r['gap']!r} exceeds 1e-4"
    if not r["g_star"] * r["g_prime_star"] < 0.0:
        return "argmin is not anticorrelated"
    return None


def attack(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    links = _attack_links(rng, 6)
    ops = [Op(("attack-opt", "--tau-a", _f(ta), "--tau-b", _f(tb), "--omega-a", _f(wa),
               "--omega-b", _f(wb), "--xi", _f(xi)), units=1)
           for ta, tb, wa, wb, xi in links]

    def check(outputs: list[str]) -> list[str | None]:
        return [_check_certificate(out, *link) for out, link in zip(outputs, links)]

    return Workload("attack", "certificates", ops, check, scaled=False,
                    notes={"links": links})


# ---------------------------------------------------------------- certify

def _check_verify(text: str, seed: int, scenarios: int) -> str | None:
    r = json.loads(text)
    if r["seed"] != seed or r["scenarios"] != scenarios:
        return "verify report echoes the wrong request"
    if not r["all_pass"]:
        return "a verification verdict failed"
    for name, c in r["checks"].items():
        if c["scenarios"] != scenarios or c["failures"] != 0 or not c["pass"]:
            return f"check {name} ran {c['scenarios']} scenarios with {c['failures']} failures"
    return None


def _check_optics(text: str, seed: int, trials: int) -> str | None:
    r = json.loads(text)
    if r["seed"] != seed or r["trials"] != trials:
        return "optics report echoes the wrong request"
    if not r["max_phase_error"] <= 1e-12:
        return f"max_phase_error {r['max_phase_error']!r} > 1e-12"
    if not r["control_fail_fraction"] >= 0.99:
        return f"control_fail_fraction {r['control_fail_fraction']!r} < 0.99"
    return None


def _profile_checks(seed: int) -> str | None:
    """``rate_profile_y`` called directly on seeded scenarios: each profile
    starts at the oracle minimum and never decreases."""
    from cvmdi.attack import rate_profile_y
    from cvmdi.core import LinkPair, ProtocolParams, g_max

    rng = np.random.default_rng([seed, 2])
    protocol = ProtocolParams(xi=XI)
    for _ in range(2):
        tau = float(rng.uniform(0.55, 0.95))
        wa, wb = (float(w) for w in rng.uniform(1.1, 5.0, size=2))
        l = float(rng.uniform(-0.85, 0.5)) * g_max(wa, wb)
        profile = rate_profile_y(protocol, LinkPair(tau, tau), omegas=(wa, wb), l=l)
        want = ref.rate_at(XI, MU, tau, tau, wa, wb, l, -l)  # d' = 0
        if ref.rel_err(float(profile.rate[0]), want) > ref.REL_TOL:
            return f"thermal profile starts at {profile.rate[0]!r}, oracle {want!r}"
        if np.any(np.diff(profile.rate) < -1e-10):
            return "thermal profile decreases"
    for symmetric in (True, False):
        ta = float(rng.uniform(0.55, 0.999))
        tb = ta if symmetric else float(rng.uniform(0.3, ta - 0.02))
        chi = float(ref.chi_equivalent(ta, tb, 0.0)) + float(rng.uniform(0.01, 0.8))
        profile = rate_profile_y(protocol, LinkPair(ta, tb), chi=chi)
        want = ref.rate_min_chi(XI, MU, ta, tb, chi)
        if ref.rel_err(float(profile.rate[0]), want) > ref.REL_TOL:
            return f"chi profile starts at {profile.rate[0]!r}, oracle {want!r}"
        if np.any(np.diff(profile.rate) < -1e-10):
            return "chi profile decreases"
    return None


def _propagate_checks(seed: int) -> str | None:
    """``optics.propagate`` called directly on seeded drifts and encodings:
    the relative phase is pi/2 + arg(enc_b) - arg(enc_a)."""
    from cvmdi.optics import SchemeConfig, propagate

    rng = np.random.default_rng([seed, 3])
    for _ in range(5):
        fa, fb, pa, pb = (float(x) for x in rng.uniform(0.0, 2.0 * math.pi, size=4))
        enc_a = float(rng.uniform(0.5, 2.0)) * cmath.exp(1j * pa)
        enc_b = float(rng.uniform(0.5, 2.0)) * cmath.exp(1j * pb)
        left, right = propagate(SchemeConfig(phi_fiber_a=fa, phi_fiber_b=fb,
                                             alice_encoding=enc_a, bob_encoding=enc_b))
        want = math.pi / 2.0 + cmath.phase(enc_b) - cmath.phase(enc_a)
        if abs(math.remainder(left.phase - right.phase - want, 2.0 * math.pi)) > 1e-12:
            return "relative phase depends on the fiber drifts"
    return None


def certify(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    scenarios, trials = 20, 7500
    verify_seeds = [int(s) for s in rng.integers(0, 2**31 - 1, size=3)]
    optics_seed = int(rng.integers(0, 2**31 - 1))
    ops = [Op(("verify", "--seed", str(s), "--scenarios", str(scenarios)), units=scenarios)
           for s in verify_seeds]
    ops.append(Op(("optics-sim", "--trials", str(trials), "--seed", str(optics_seed)),
                  units=trials, main=False))

    def check(outputs: list[str]) -> list[str | None]:
        verdicts = [_check_verify(out, s, scenarios) for out, s in zip(outputs, verify_seeds)]
        verdicts.append(_check_optics(outputs[-1], optics_seed, trials))
        # direct calls are charged to the first operation of their layer
        verdicts[0] = verdicts[0] or _profile_checks(seed)
        verdicts[-1] = verdicts[-1] or _propagate_checks(seed)
        return verdicts

    return Workload("certify", "scenarios", ops, check, aux_unit="trials",
                    notes={"verify_seeds": verify_seeds, "optics_seed": optics_seed})


WORKLOADS = {"surface": surface, "attack": attack, "certify": certify}
