"""Acceptance suite.

One test per acceptance criterion, each printing a single pass/fail line
(run with ``pytest -s tests/test_acceptance.py`` to see them live).
Derived reference values are recomputed at test time by the 50-digit
oracle in tests/mp_oracle.py before comparison.
"""

import math

import numpy as np
import pytest

import mp_oracle
from cvmdi import (
    AncillaState,
    AttackGrid,
    LinkPair,
    ProtocolParams,
    check_self_alignment,
    chi_equivalent,
    derive_noise,
    entropy_h,
    g_max,
    key_rate,
    key_rate_closed,
    key_rate_min_chi,
    key_rate_min_thermal,
    min_rate_brute,
    relay_scan,
    symplectic_spectrum,
)
from test_proofs import suite_endpoint_errors

FIG_PROTOCOL = ProtocolParams(xi=0.97, phi=60.0)


def report(criterion: int, passed: bool, detail: str) -> None:
    state = "PASS" if passed else "FAIL"
    print(f"acceptance criterion {criterion}: {state} — {detail}", flush=True)
    assert passed, f"criterion {criterion}: {detail}"


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def test_criterion_1_closed_form_consistency():
    """General, closed-form and minimized-chi rates agree to 1e-9 relative
    on 1000 random anticorrelation-bisector scenarios."""
    rng = np.random.default_rng(101)
    worst = 0.0
    checked = 0
    while checked < 1000:
        ta, tb = rng.uniform(0.35, 0.99, size=2)
        link = LinkPair(ta, tb)
        omega = rng.uniform(1.02, 6.0)
        g = rng.uniform(-1.0, 1.0) * g_max(omega, omega)
        ancilla = AncillaState(omega, omega, g, -g)
        noise = derive_noise(link, ancilla)
        if math.sqrt(noise.lam * noise.lam_prime) <= link.delta_tau * (1 + 1e-9):
            continue
        general = key_rate(FIG_PROTOCOL, link, ancilla).rate
        closed = key_rate_closed(FIG_PROTOCOL, link, noise.lam, noise.lam_prime).rate
        minimized = key_rate_min_chi(FIG_PROTOCOL, link, noise.chi).rate
        worst = max(worst, rel_err(general, closed), rel_err(general, minimized),
                    rel_err(closed, minimized))
        checked += 1
    report(1, worst <= 1e-9,
           f"1000 bisector scenarios, worst pairwise relative error {worst:.3e}")


def test_criterion_2_minimization_certificate():
    """The 201x201 grid argmin, zoomed to a final cell of 1/200 coarse
    cell (refine_n = 801), sits within one final cell of the bisector and
    of |g| = g_max, and the analytic minimized value lower-bounds every
    grid sample within 1e-4, on 100 random scenarios."""
    rng = np.random.default_rng(202)
    grid = AttackGrid(n=201, refine_n=801)
    worst_bis = worst_gmax = 0.0  # in units of one final cell
    worst_gap = math.inf
    for i in range(100):
        ta, tb = rng.uniform(0.3, 0.99, size=2)
        wa, wb = rng.uniform(1.0, 10.0, size=2)
        xi = (1.0, 0.97)[i % 2]
        rep = min_rate_brute(
            ProtocolParams(xi=xi, phi=60.0),
            LinkPair(ta, tb), wa, wb, grid,
        )
        cell = rep.cell_size
        worst_bis = max(worst_bis, rep.bisector_distance / (math.sqrt(2.0) * cell))
        worst_gmax = max(worst_gmax, rep.gmax_distance / cell)
        worst_gap = min(worst_gap, rep.gap)
    passed = worst_bis <= 1.0 and worst_gmax <= 1.0 and worst_gap >= -1e-4
    report(2, passed,
           f"100 scenarios: bisector offset <= {worst_bis:.3f} cells, "
           f"|g|-boundary offset <= {worst_gmax:.3f} cells, "
           f"min gap {worst_gap:.3e} >= -1e-4")


def test_criterion_3_monotonicity_suite(monkeypatch):
    """All five proof verifiers pass on 100 seeded scenarios each with
    worst margins > -1e-10, and the thermal, chi and lam profile endpoints
    match the minimized closed forms of the 50-digit oracle (recomputed
    here) to 1e-12 relative."""
    suite, errors = suite_endpoint_errors(monkeypatch, seed=7, scenarios=100, samples=200)
    margins = [c["worst_margin"] for c in suite["checks"].values()
               if "worst_margin" in c]
    endpoints = list(errors.values())
    passed = (suite["all_pass"]
              and min(margins) > -1e-10
              and max(endpoints) <= 1e-12)
    report(3, passed,
           f"5 checks x 100 scenarios: worst margin {min(margins):.3e}, "
           f"worst endpoint mismatch vs oracle {max(endpoints):.3e}")


def test_criterion_4_derived_worked_values():
    """Reference scenarios against the 50-digit oracle (recomputed here)
    and the coarse four-digit reference anchors, at 1e-3 relative."""
    checks = []

    link = LinkPair(0.95, 0.95)
    chi = chi_equivalent(link, 0.01)
    got = key_rate_min_chi(FIG_PROTOCOL, link, chi).rate
    want = float(mp_oracle.rate_min_chi_sym("0.97", 61, mp_oracle.chi_equivalent("0.95", "0.95", "0.01")))
    checks.append(("symmetric tau=0.95", got, want, 1.4147))

    link = LinkPair(0.98, 0.6)
    got = key_rate_min_chi(FIG_PROTOCOL, link, chi_equivalent(link, 0.01)).rate
    want = float(mp_oracle.rate_min_chi_asym("0.97", 61, "0.98", "0.6", mp_oracle.chi_equivalent("0.98", "0.6", "0.01")))
    checks.append(("asymmetric (0.98, 0.6)", got, want, 0.3794))

    link = LinkPair(0.6, 0.98)
    got = key_rate_min_chi(FIG_PROTOCOL, link, chi_equivalent(link, 0.01)).rate
    want = float(mp_oracle.rate_min_chi_asym("0.97", 61, "0.6", "0.98", mp_oracle.chi_equivalent("0.6", "0.98", "0.01")))
    checks.append(("mirror (0.6, 0.98)", got, want, -1.0881))

    pure = ProtocolParams(xi=1.0, phi=60.0)
    got = key_rate_min_thermal(pure, LinkPair(0.9, 0.9), 1.0, 1.0).rate
    want = float(mp_oracle.rate_min_thermal(1, 61, "0.9", "0.9", 1, 1))
    checks.append(("pure-loss thermal tau=0.9", got, want, 0.6536))

    worst_oracle = max(rel_err(got, want) for _, got, want, _ in checks)
    worst_anchor = max(abs(got - anchor) / abs(anchor)
                       for _, got, _, anchor in checks)
    passed = worst_oracle <= 1e-3 and worst_anchor <= 1e-3
    report(4, passed,
           f"4 worked values: vs oracle {worst_oracle:.3e}, "
           f"vs reference anchors {worst_anchor:.3e} (tol 1e-3)")


def test_criterion_5_relay_placement():
    """On contours tau_a * tau_b in {0.4, 0.6, 0.8} the Alice-side extreme
    strictly beats the symmetric midpoint and carries the argmax."""
    ok = True
    details = []
    for total in (0.4, 0.6, 0.8):
        scan = relay_scan(total, FIG_PROTOCOL, steps=51)
        end_rate = scan.records[-1].rate  # tau_a = 1 extreme
        mid = math.sqrt(total)
        mid_link = LinkPair(mid, mid)
        mid_rate = key_rate_min_chi(
            FIG_PROTOCOL, mid_link, chi_equivalent(mid_link, 0.01)
        ).rate
        ok &= end_rate > mid_rate
        ok &= scan.argmax.tau_a == scan.records[-1].tau_a
        details.append(f"{total}: end {end_rate:.4f} > mid {mid_rate:.4f}")
    report(5, ok, "; ".join(details))


def test_criterion_6_symmetric_limit_continuity():
    """|asymmetric closed form at tau +- 1e-4  -  symmetric closed form at
    tau| <= 1e-3 absolute for tau in {0.7, 0.9, 0.95}."""
    worst = 0.0
    for tau in (0.7, 0.9, 0.95):
        d = 1e-4
        link = LinkPair(tau + d, tau - d)
        chi = chi_equivalent(link, 0.01)
        lam = link.alpha * chi / link.beta - link.beta
        asymmetric = key_rate_closed(FIG_PROTOCOL, link, lam, lam).rate
        chi_s = chi_equivalent(LinkPair(tau, tau), 0.01)
        lam_s = tau * chi_s / 2.0 - 2.0 * tau
        symmetric = key_rate_closed(FIG_PROTOCOL, LinkPair(tau, tau), lam_s, lam_s).rate
        worst = max(worst, abs(asymmetric - symmetric))
    report(6, worst <= 1e-3,
           f"worst |asym - sym| across tau grid: {worst:.3e} <= 1e-3")


def test_criterion_7_optics_self_alignment():
    """10^4 random drift trials: intact relative phase within 1e-12 rad of
    pi/2 plus the encoding difference; the single-fiber control off by
    more than 1e-3 rad in at least 99% of trials."""
    rep = check_self_alignment(trials=10000, seed=2026)
    passed = (rep.max_phase_error <= 1e-12
              and rep.control_fail_fraction >= 0.99)
    report(7, passed,
           f"max intact deviation {rep.max_phase_error:.3e} rad, "
           f"control fail fraction {rep.control_fail_fraction:.4f}")


def test_criterion_8_special_function_anchors():
    """Exact anchors of the special functions and boundary finder."""
    sp = symplectic_spectrum(AncillaState(1, 1, 0, 0))
    checks = {
        "h(1) = 0": entropy_h(1.0) == 0.0,
        "h(3) = 2": entropy_h(3.0) == 2.0,
        "identity spectrum": (sp.nu_minus, sp.nu_plus) == (1.0, 1.0),
        "g_max(1,1) = 0": g_max(1.0, 1.0) == 0.0,
        "g_max(2,2) = sqrt(3)": abs(g_max(2.0, 2.0) - math.sqrt(3.0)) <= 1e-10,
    }
    failed = [name for name, ok in checks.items() if not ok]
    report(8, not failed, "all anchors exact" if not failed
           else f"failed: {', '.join(failed)}")
