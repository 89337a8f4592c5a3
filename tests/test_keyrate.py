"""Tests for the secret-key-rate formulas.

All frozen expected values were computed with tests/mp_oracle.py at 50
decimal digits; the worked scenario is tau_a = 0.98, tau_b = 0.6 with
xi = 0.97, phi = 60, epsilon = 0.01.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest

import cvmdi
import mp_oracle
from cvmdi import (
    AncillaState,
    DomainError,
    LinkPair,
    ParameterError,
    ProtocolParams,
    g_max,
    is_physical,
    key_rate_min_chi,
    key_rate_min_thermal,
    mutual_information,
)
from cvmdi.attack import _grid_rates
from cvmdi.core import OMEGA_MAX, as_point, bisector_lam, effective_noise, equivalent_chi, excess_chi
from cvmdi.keyrate import KeyRateReport, _report, in_domain, min_thermal_noise, park, rate_kernel

FIG_PROTOCOL = ProtocolParams(xi=0.97, phi=60.0)

# tau_a = 0.98, tau_b = 0.6, epsilon = 0.01 worked scenario
SCEN_LINK = LinkPair(0.98, 0.6)
SCEN_CHI = 5.38414965986395
SCEN_LAM = 0.423721518987342
SCEN_I_AB = 3.50201882535933
SCEN_I_EA = 3.01756606863973
SCEN_RATE = 0.379392191958814
MIRROR_RATE = -1.08803005629537

SYM95_CHI = 4.22052631578947
SYM95_RATE = 1.41476008143047

PURE_LOSS_RATE = 0.653638041318537  # xi = 1, tau = 0.9, lam = 0.2


def rel_err(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def bisector_ancilla(link, lam_target, omega=1.1):
    """Ancilla (g, -g) with equal variances reproducing lam = lam'."""
    kappa = ((1.0 - link.tau_a) + (1.0 - link.tau_b)) * omega
    u = 2.0 * math.sqrt((1.0 - link.tau_a) * (1.0 - link.tau_b))
    g = (kappa - lam_target) / u
    assert abs(g) <= g_max(omega, omega), "target lam not reachable at this omega"
    return AncillaState(omega, omega, g, -g)


def holevo(link, lam, lam_prime, mu):
    """I_EA of the report at (lam, lam'), for coherent-state variance mu."""
    protocol = ProtocolParams(xi=1.0, phi=mu - 1.0)
    point = [*as_point(link.tau_a, link.tau_b, lam, lam_prime)]
    return _report(protocol, *point, equivalent_chi(*point)).i_ea


class TestMutualInformation:
    def test_equal_arguments(self):
        assert mutual_information(61.0, 61.0) == 0.0

    def test_values(self):
        assert mutual_information(61.0, 4.0) == pytest.approx(
            3.93073733756289, rel=1e-14
        )
        assert mutual_information(61.0, 5.384146) == pytest.approx(
            3.50201980602846, rel=1e-14
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            mutual_information(61.0, 0.0)


class TestEveHolevo:
    def test_worked_scenario(self):
        ancilla = bisector_ancilla(SCEN_LINK, SCEN_LAM)
        lam, lam_prime = effective_noise(0.98, 0.6, *dataclasses.astuple(ancilla))
        assert lam == pytest.approx(SCEN_LAM, rel=1e-12)
        value = holevo(SCEN_LINK, lam, lam_prime, 61.0)
        assert value == pytest.approx(SCEN_I_EA, rel=1e-10)

    def test_boundary_lambda_hits_h_limit(self):
        # lam = lam' = |dtau|: the first entropy term vanishes exactly
        link = LinkPair(0.9, 0.6)
        lam = abs(link.tau_a - link.tau_b)
        mu = 10.0
        expected = math.log2(math.e * 0.3 * mu / 3.0) - mp_oracle_h(
            (0.9 + 0.3) / 0.6
        )
        assert holevo(link, lam, lam, mu) == pytest.approx(expected, rel=1e-12)

    def test_cancellation_zero(self):
        # lam/dtau == nu makes both entropy terms cancel; the log argument
        # is tuned to 1, so the Holevo bound is exactly zero
        link = LinkPair(0.9, 0.6)
        dtau = abs(link.tau_a - link.tau_b)
        lam0 = dtau * link.tau_a / (link.tau_b - dtau)
        ancilla = bisector_ancilla(link, lam0, omega=1.6)
        lams = effective_noise(0.9, 0.6, *dataclasses.astuple(ancilla))
        mu = 2.0 * link.beta / (math.e * dtau)
        assert holevo(link, *lams, mu) == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_matches_closed_sym(self):
        # the Holevo term is defined at dtau = 0 and equals the symmetric
        # closed form's xi * I_AB - R, here from the 50-digit oracle
        link = LinkPair(0.8, 0.8)
        lam, lam_prime = effective_noise(0.8, 0.8, 1.5, 1.5, 0.1, -0.1)
        chi = mp_oracle.chi_from_lams(0.8, 0.8, lam, lam_prime)
        want = (0.97 * mp_oracle.mp.log(61 / chi, 2)
                - mp_oracle.rate_sym_closed(0.97, 61, 0.8, lam, lam_prime))
        assert rel_err(holevo(link, lam, lam_prime, 61.0), float(want)) <= 1e-14


def mp_oracle_h(x):
    return float(mp_oracle.h(x))


class TestKeyRateGeneral:
    def test_worked_scenario(self):
        ancilla = bisector_ancilla(SCEN_LINK, SCEN_LAM)
        assert is_physical(ancilla)
        point = [*as_point(0.98, 0.6, *effective_noise(0.98, 0.6, *dataclasses.astuple(ancilla)))]
        report = _report(FIG_PROTOCOL, *point, equivalent_chi(*point))
        assert report.rate == pytest.approx(SCEN_RATE, rel=1e-10)
        assert report.i_ab == pytest.approx(SCEN_I_AB, rel=1e-10)
        assert report.i_ea == pytest.approx(SCEN_I_EA, rel=1e-10)
        assert report.secure

    def test_report_identity(self):
        ancilla = bisector_ancilla(SCEN_LINK, SCEN_LAM)
        assert is_physical(ancilla)
        point = [*as_point(0.98, 0.6, *effective_noise(0.98, 0.6, *dataclasses.astuple(ancilla)))]
        report = _report(FIG_PROTOCOL, *point, equivalent_chi(*point))
        assert abs(report.rate - (FIG_PROTOCOL.xi * report.i_ab - report.i_ea)) <= 1e-12

    def test_lossless_symmetric_dispatch(self):
        assert is_physical(AncillaState(1, 1, 0, 0))
        point = [*as_point(1.0, 1.0, *effective_noise(1.0, 1.0, 1, 1, 0, 0))]
        report = _report(FIG_PROTOCOL, *point, equivalent_chi(*point))
        assert report.rate == pytest.approx(0.97 * math.log2(61.0 / 4.0), rel=1e-14)
        assert report.chi == pytest.approx(4.0, rel=1e-15)

    def test_insecure_reported_unclamped(self):
        mirror = LinkPair(0.6, 0.98)
        lam = mirror.alpha * excess_chi(0.6, 0.98, 0.01) / mirror.beta - mirror.beta
        ancilla = bisector_ancilla(mirror, lam)
        assert is_physical(ancilla)
        point = [*as_point(0.6, 0.98, *effective_noise(0.6, 0.98, *dataclasses.astuple(ancilla)))]
        report = _report(FIG_PROTOCOL, *point, equivalent_chi(*point))
        assert report.rate < 0.0
        assert not report.secure

    def test_nonphysical_ancilla_rejected(self):
        # its noise is in domain, so only the physicality test keeps the
        # lattice from rating it
        assert not is_physical(AncillaState(2, 2, 2.0, -2.0))
        lam, lam_prime = effective_noise(0.98, 0.6, 2.0, 2.0, 2.0, -2.0)
        assert in_domain(*as_point(0.98, 0.6, lam, lam_prime))[0]
        rates, phys, rated = _grid_rates(FIG_PROTOCOL, 0.98, 0.6, 2.0, 2.0,
                                         np.array([2.0]), np.array([-2.0]))
        assert rates[0] == math.inf
        assert not phys[0] and not rated[0]


class TestClosedSym:
    def test_pure_loss_frozen(self):
        p = ProtocolParams(xi=1.0, phi=60.0)
        point = [*as_point(0.9, 0.9, 0.2, 0.2)]
        report = _report(p, *point, equivalent_chi(*point))
        assert report.rate == pytest.approx(PURE_LOSS_RATE, rel=1e-12)
        assert report.nu == pytest.approx(11.0 / 9.0, rel=1e-14)

    def test_lossless_limit(self):
        point = [*as_point(1.0, 1.0, 0.0, 0.0)]
        report = _report(FIG_PROTOCOL, *point, equivalent_chi(*point))
        assert report.rate == pytest.approx(0.97 * math.log2(61.0 / 4.0), rel=1e-14)
        assert report.i_ea == 0.0

    def test_matches_general_on_bisector(self):
        # the general path at a symmetric anticorrelated ancilla against the
        # 50-digit symmetric closed form at its (lam, lam')
        rng = np.random.default_rng(21)
        for _ in range(100):
            tau = rng.uniform(0.4, 0.999)
            omega = rng.uniform(1.05, 6.0)
            g = rng.uniform(-1.0, 1.0) * g_max(omega, omega)
            assert is_physical(AncillaState(omega, omega, g, -g))
            lam, lam_prime = effective_noise(tau, tau, omega, omega, g, -g)
            point = [*as_point(tau, tau, lam, lam_prime)]
            via_general = _report(FIG_PROTOCOL, *point, equivalent_chi(*point)).rate
            direct = mp_oracle.rate_sym_closed(0.97, 61, tau, lam, lam_prime)
            assert rel_err(via_general, float(direct)) <= 1e-9


class TestClosedAsym:
    def test_worked_scenario(self):
        point = [*as_point(0.98, 0.6, SCEN_LAM, SCEN_LAM)]
        report = _report(FIG_PROTOCOL, *point, equivalent_chi(*point))
        assert report.rate == pytest.approx(SCEN_RATE, rel=1e-10)
        assert report.nu == pytest.approx(2.33953586497890, rel=1e-10)

    def test_mirror_insecure(self):
        mirror = LinkPair(0.6, 0.98)
        lam = mirror.alpha * excess_chi(0.6, 0.98, 0.01) / mirror.beta - mirror.beta
        point = [*as_point(0.6, 0.98, lam, lam)]
        report = _report(FIG_PROTOCOL, *point, equivalent_chi(*point))
        assert report.rate == pytest.approx(MIRROR_RATE, rel=1e-10)
        assert not report.secure

    def test_identity_with_min_chi(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            ta, tb = rng.uniform(0.3, 0.999, size=2)
            if abs(ta - tb) < 1e-3:
                continue
            link = LinkPair(ta, tb)
            chi = excess_chi(ta, tb, rng.uniform(0.0, 0.5))
            lam = link.alpha * chi / link.beta - link.beta
            point = [*as_point(ta, tb, lam, lam)]
            via_lam = _report(FIG_PROTOCOL, *point, equivalent_chi(*point)).rate
            via_chi = key_rate_min_chi(FIG_PROTOCOL, link, chi).rate
            assert rel_err(via_lam, via_chi) <= 1e-9

    def test_symmetric_matches_closed_sym(self):
        # the kernel is defined at dtau = 0, where it is the symmetric form
        for lam, lam_prime in ((0.5, 0.5), (0.2, 0.9)):
            point = [*as_point(0.7, 0.7, lam, lam_prime)]
            got = rate_kernel(61.0, 0.97, *point, equivalent_chi(*point))[0]
            want = mp_oracle.rate_sym_closed(0.97, 61, 0.7, lam, lam_prime)
            assert rel_err(float(got[0]), float(want)) <= 1e-14

    def test_lambda_domain(self):
        point = [*as_point(0.98, 0.6, 0.1, 0.1)]
        with pytest.raises(DomainError):
            _report(FIG_PROTOCOL, *point, equivalent_chi(*point))


class TestMinThermal:
    def test_pure_loss_symmetric(self):
        p = ProtocolParams(xi=1.0, phi=60.0)
        report = key_rate_min_thermal(p, LinkPair(0.9, 0.9), 1.0, 1.0)
        assert report.rate == pytest.approx(PURE_LOSS_RATE, rel=1e-12)

    def test_thermal_symmetric_frozen(self):
        report = key_rate_min_thermal(FIG_PROTOCOL, LinkPair(0.99, 0.99), 2.0, 2.0)
        assert report.rate == pytest.approx(1.90797590665382, rel=1e-10)
        assert report.chi == pytest.approx(
            2.0 * (2.0 * 0.99 + 0.0746410161513775) / 0.99, rel=1e-10
        )

    def test_thermal_asymmetric_frozen(self):
        report = key_rate_min_thermal(FIG_PROTOCOL, LinkPair(0.8, 0.5), 1.3, 2.0)
        assert report.rate == pytest.approx(-1.98781796518937, rel=1e-10)

    def test_equals_closed_asym_at_lam_opt(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            ta, tb = rng.uniform(0.3, 0.99, size=2)
            if abs(ta - tb) < 1e-3:
                continue
            link = LinkPair(ta, tb)
            wa, wb = rng.uniform(1.0, 8.0, size=2)
            kappa = (1.0 - ta) * wa + (1.0 - tb) * wb
            lam_opt = kappa + 2.0 * math.sqrt((1.0 - ta) * (1.0 - tb)) * g_max(wa, wb)
            direct = key_rate_min_thermal(FIG_PROTOCOL, link, wa, wb).rate
            point = [*as_point(ta, tb, lam_opt, lam_opt)]
            via_closed = _report(FIG_PROTOCOL, *point, equivalent_chi(*point)).rate
            assert rel_err(direct, via_closed) <= 1e-12

    def test_lossless(self):
        report = key_rate_min_thermal(FIG_PROTOCOL, LinkPair(1.0, 1.0), 3.0, 5.0)
        assert report.rate == pytest.approx(0.97 * math.log2(61.0 / 4.0), rel=1e-14)


class TestMinChi:
    def test_symmetric_frozen(self):
        link = LinkPair(0.95, 0.95)
        chi = excess_chi(0.95, 0.95, 0.01)
        assert chi == pytest.approx(SYM95_CHI, rel=1e-12)
        report = key_rate_min_chi(FIG_PROTOCOL, link, chi)
        assert report.rate == pytest.approx(SYM95_RATE, rel=1e-10)

    def test_asymmetric_frozen(self):
        report = key_rate_min_chi(FIG_PROTOCOL, SCEN_LINK, excess_chi(0.98, 0.6, 0.01))
        assert report.rate == pytest.approx(SCEN_RATE, rel=1e-10)

    def test_symmetric_pole(self):
        with pytest.raises(DomainError):
            key_rate_min_chi(FIG_PROTOCOL, LinkPair(0.95, 0.95), 4.0)

    def test_asymmetric_floor(self):
        link = LinkPair(0.9, 0.5)
        with pytest.raises(DomainError):
            key_rate_min_chi(FIG_PROTOCOL, link, link.beta**2 / link.alpha - 0.1)


class TestCrossFormulaInvariants:
    def test_closed_form_consistency_on_bisector(self):
        # the general rate at a physical bisector ancilla and the
        # minimized-chi path agree where both are defined
        rng = np.random.default_rng(24)
        checked = 0
        while checked < 200:
            ta, tb = rng.uniform(0.35, 0.99, size=2)
            link = LinkPair(ta, tb)
            omega = rng.uniform(1.02, 6.0)
            g = rng.uniform(-1.0, 1.0) * g_max(omega, omega)
            ancilla = AncillaState(omega, omega, g, -g)
            lam, lam_prime = effective_noise(ta, tb, omega, omega, g, -g)
            if math.sqrt(lam * lam_prime) <= abs(ta - tb) * (1 + 1e-9):
                continue
            assert is_physical(ancilla)
            point = [*as_point(ta, tb, lam, lam_prime)]
            r_general = _report(FIG_PROTOCOL, *point, equivalent_chi(*point)).rate
            chi = equivalent_chi(ta, tb, lam, lam_prime)
            r_chi = key_rate_min_chi(FIG_PROTOCOL, link, chi).rate
            assert rel_err(r_general, r_chi) <= 1e-9
            checked += 1

    def test_symmetric_limit_continuity(self):
        for tau in (0.7, 0.9, 0.95):
            d = 1e-4
            link = LinkPair(tau + d, tau - d)
            chi = excess_chi(link.tau_a, link.tau_b, 0.01)
            lam = link.alpha * chi / link.beta - link.beta
            point = [*as_point(link.tau_a, link.tau_b, lam, lam)]
            asymmetric = _report(FIG_PROTOCOL, *point, equivalent_chi(*point)).rate
            chi_s = excess_chi(tau, tau, 0.01)
            lam_s = tau * chi_s / 2.0 - 2.0 * tau
            point = [*as_point(tau, tau, lam_s, lam_s)]
            symmetric = _report(FIG_PROTOCOL, *point, equivalent_chi(*point)).rate
            assert abs(asymmetric - symmetric) <= 1e-3

    def test_xi_monotonicity(self):
        rng = np.random.default_rng(25)
        for _ in range(50):
            ta, tb = rng.uniform(0.5, 0.99, size=2)
            link = LinkPair(ta, tb)
            chi = excess_chi(ta, tb, 0.01)
            if mutual_information(61.0, chi) <= 0.0:
                continue
            xi = rng.uniform(0.5, 0.999)
            lo = key_rate_min_chi(ProtocolParams(xi=xi, phi=60.0), link, chi).rate
            hi = key_rate_min_chi(ProtocolParams(xi=xi + 1e-4, phi=60.0), link, chi).rate
            assert hi > lo

    def test_mu_independence_at_unit_xi(self):
        link = LinkPair(0.9, 0.6)
        chi = excess_chi(0.9, 0.6, 0.01)
        rates_chi = {
            phi: key_rate_min_chi(ProtocolParams(xi=1.0, phi=phi), link, chi).rate
            for phi in (9.0, 60.0, 999.0)
        }
        assert len(set(rates_chi.values())) == 1  # exact equality
        rates_thermal = {
            phi: key_rate_min_thermal(
                ProtocolParams(xi=1.0, phi=phi), link, 1.5, 2.5
            ).rate
            for phi in (9.0, 60.0, 999.0)
        }
        assert len(set(rates_thermal.values())) == 1

    def test_third_entropy_argument_identity(self):
        # (alpha chi - beta^2) / (dtau beta) equals lam / dtau
        rng = np.random.default_rng(26)
        for _ in range(100):
            ta, tb = rng.uniform(0.3, 0.999, size=2)
            if abs(ta - tb) < 1e-3:
                continue
            link = LinkPair(ta, tb)
            chi = excess_chi(ta, tb, rng.uniform(0.0, 1.0))
            lam = link.alpha * chi / link.beta - link.beta
            lhs = (link.alpha * chi - link.beta**2) / (abs(ta - tb) * link.beta)
            rhs = lam / abs(ta - tb)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


class TestOracleAgreement:
    """The float implementation against the 50-digit reference, recomputed
    at test time."""

    def test_general_rate(self):
        value = float(
            mp_oracle.rate_general("0.97", 61, "0.98", "0.6", SCEN_LAM, SCEN_LAM)
        )
        point = [*as_point(0.98, 0.6, SCEN_LAM, SCEN_LAM)]
        rate = rate_kernel(61.0, 0.97, *point, equivalent_chi(*point))[0]
        assert rel_err(float(rate[0]), value) <= 1e-12

    def test_min_thermal_against_general_oracle(self):
        # oracle evaluates the general rate at the anticorrelated boundary;
        # the packaged minimized form must match it
        value = float(mp_oracle.rate_min_thermal("0.97", 61, "0.8", "0.5", "1.3", "2.0"))
        report = key_rate_min_thermal(FIG_PROTOCOL, LinkPair(0.8, 0.5), 1.3, 2.0)
        assert rel_err(report.rate, value) <= 1e-10


def _band_links():
    """Near-symmetric links, both orientations: dtau log-spaced over
    [1e-12, 1e-2] around tau in {0.3, 0.6, 0.9, 0.99}."""
    for tau in (0.3, 0.6, 0.9, 0.99):
        for d in np.geomspace(1e-12, 1e-2, 11):
            yield LinkPair(tau + d, tau)
            yield LinkPair(tau, tau + d)


def _band_min_chi(link):
    chi = excess_chi(link.tau_a, link.tau_b, 0.01)
    got = key_rate_min_chi(FIG_PROTOCOL, link, chi).rate
    return got, mp_oracle.rate_min_chi_asym(0.97, 61, link.tau_a, link.tau_b, chi)


def _band_min_thermal(link):
    got = key_rate_min_thermal(FIG_PROTOCOL, link, 2.0, 3.0).rate
    return got, mp_oracle.rate_min_thermal(0.97, 61, link.tau_a, link.tau_b, 2.0, 3.0)


def _band_closed_asym(link):
    point = [*as_point(link.tau_a, link.tau_b, 0.4, 0.7)]
    got = rate_kernel(61.0, 0.97, *point, equivalent_chi(*point))[0][0]
    return got, mp_oracle.rate_asym_closed(0.97, 61, link.tau_a, link.tau_b, 0.4, 0.7)


def _band_general(link):
    g, g_prime = 0.8, -0.5
    assert is_physical(AncillaState(2.0, 3.0, g, g_prime))
    lams = effective_noise(link.tau_a, link.tau_b, 2.0, 3.0, g, g_prime)
    point = [*as_point(link.tau_a, link.tau_b, *lams)]
    got = _report(FIG_PROTOCOL, *point, equivalent_chi(*point)).rate
    mp = mp_oracle.mp
    ta, tb = mp.mpf(link.tau_a), mp.mpf(link.tau_b)
    kappa = (1 - ta) * 2 + (1 - tb) * 3
    u = 2 * mp.sqrt((1 - ta) * (1 - tb))
    lam, lam_prime = kappa - u * g, kappa + u * g_prime
    return got, mp_oracle.rate_general(0.97, 61, link.tau_a, link.tau_b, lam, lam_prime)


@pytest.mark.parametrize(
    "path", [_band_min_chi, _band_min_thermal, _band_closed_asym, _band_general]
)
def test_near_symmetric_band_matches_oracle(path):
    # the rate kernel has no 1/|dtau| term, so nothing cancels as dtau -> 0
    worst = 0.0
    for link in _band_links():
        got, want = path(link)
        worst = max(worst, rel_err(got, float(want)))
    assert worst <= 1e-12



def test_tau_one_edges_match_oracle():
    # tau_b = 1 at epsilon = 0 puts an entropy argument at exactly 1, which
    # float chi can round just below 1; lossless links decouple the adversary
    protocol = ProtocolParams(xi=0.97, phi=60.0)
    worst = 0.0
    for tau_a in np.linspace(0.3, 0.99, 200):
        link = LinkPair(float(tau_a), 1.0)
        chi = excess_chi(link.tau_a, 1.0, 0.0)
        got = key_rate_min_chi(protocol, link, chi).rate
        want = mp_oracle.rate_min_chi_asym(0.97, 61, link.tau_a, 1.0, chi)
        worst = max(worst, rel_err(got, float(want)))
    assert worst <= 1e-12
    got = key_rate_min_thermal(protocol, LinkPair(1.0, 1.0), 1.5, 2.0).rate
    want = mp_oracle.rate_min_thermal(0.97, 61, 1.0, 1.0, 1.5, 2.0)
    assert rel_err(got, float(want)) <= 1e-12


def test_loss_floor_pole_matches_oracle():
    # chi = 4 (1 + eps) puts a symmetric link eps above the loss-floor pole
    # chi = beta^2 / alpha, where alpha chi - beta^2 would cancel
    worst = 0.0
    for tau in (0.6, 0.9, 0.97):
        for eps in (1e-6, 1e-9, 1e-12):
            chi = 4.0 * (1.0 + eps)
            got = key_rate_min_chi(FIG_PROTOCOL, LinkPair(tau, tau), chi).rate
            want = mp_oracle.rate_min_chi_sym(0.97, 61, chi)
            worst = max(worst, rel_err(got, float(want)))
    assert worst <= 1e-12


class TestOverflowedNoise:
    """lam lam' = inf is outside the kernel's domain: a typed DomainError,
    never a NaN rate or an untyped math error."""

    def test_in_domain_rejects_infinite_noise(self):
        assert not in_domain(0.9, 0.8, math.inf, math.inf)
        assert not in_domain(0.9, 0.8, 1e200, 1e200)  # the product overflows
        assert in_domain(0.9, 0.8, 1e100, 1e100)
        lam = np.array([0.5, math.inf, math.nan])
        assert in_domain(0.9, 0.8, lam, lam).tolist() == [True, False, False]

    @pytest.mark.parametrize("link", [LinkPair(0.9, 0.8), LinkPair(0.9, 0.9)])
    def test_min_thermal_rejects_huge_omega(self, link):
        # omega = 1e200 would overflow g_max and lam_opt: the ancilla
        # variance is the bad input, a ParameterError, not a DomainError
        with pytest.raises(ParameterError, match="omega_a must be at most 1e"):
            key_rate_min_thermal(FIG_PROTOCOL, link, 1e200, 1e200)
        report = key_rate_min_thermal(FIG_PROTOCOL, link, OMEGA_MAX, OMEGA_MAX)
        assert math.isfinite(report.rate) and math.isfinite(report.chi)

    def test_closed_form_raises_domain_error(self):
        point = [*as_point(0.98, 0.6, math.inf, 1.0)]
        with pytest.raises(DomainError, match="rate undefined"):
            _report(FIG_PROTOCOL, *point, equivalent_chi(*point))

    @pytest.mark.parametrize("link", [LinkPair(1e-300, 1e-300), LinkPair(1.0, 1e-320)],
                             ids=["alpha-underflows", "ratio-overflows"])
    def test_too_lossy_links_raise_domain_error(self, link):
        # each tau is admissible, but beta / alpha is not finite: one typed
        # error from every path, where these raised ZeroDivisionError or warned
        ta, tb = np.array([link.tau_a]), np.array([link.tau_b])
        calls = [
            lambda: excess_chi(link.tau_a, link.tau_b, 0.01),
            lambda: key_rate_min_chi(FIG_PROTOCOL, link, 5.0),
            lambda: key_rate_min_thermal(FIG_PROTOCOL, link, 2.0, 2.0),
            lambda: equivalent_chi(ta, tb, *as_point(0.5, 0.5)),
            lambda: cvmdi.rate_profile_y(FIG_PROTOCOL, link, chi=5.0),
            lambda: cvmdi.verify_p_prime_positive(ta, tb, np.array([5.0])),
        ]
        for call in calls:
            with pytest.raises(DomainError, match=r"beta / alpha .* overflows"):
                call()
        # alpha = 1e-320 is subnormal, not 0: still a finite rate
        tiny = LinkPair(1e-160, 1e-160)
        assert math.isfinite(key_rate_min_chi(FIG_PROTOCOL, tiny, excess_chi(1e-160, 1e-160, 0.01)).rate)


class TestUnderflowedNoise:
    """lam lam' = 0 by underflow is outside the kernel's domain, also at
    dtau = 0, where the floor |dtau|^2 is 0 as well."""

    def test_in_domain_rejects_underflowed_product(self):
        assert not in_domain(0.5, 0.5, 1e-170, 1e-170)  # 1e-340 underflows to 0
        assert in_domain(0.5, 0.5, 1e-150, 1e-150)


class TestPark:
    """park moves the points outside the kernel's domain to one inside it, so
    the array callers run the kernel on whole arrays without a warning."""

    def block(self):
        rng = np.random.default_rng(22)
        ta, tb = rng.uniform(0.3, 1.0, 64), rng.uniform(0.3, 1.0, 64)
        tb[::4] = ta[::4]
        lam, lam_prime = rng.uniform(-1.0, 2.0, (2, 64))
        lam[:3] = lam_prime[:3] = 1e200, math.inf, math.nan  # 1e200: lam lam' overflows
        lam[3:6], lam_prime[3:6] = 0.0, (0.0, 1.0, -1.0)
        return ta, tb, lam, lam_prime

    def test_moves_only_the_off_points_into_the_domain(self):
        # park returns off = ~(ok & in_domain), for ok = True and for a mask
        for ok in (True, np.random.default_rng(25).random(64) < 0.7):
            ta, tb, lam, lam_prime = self.block()
            want = ~(ok & in_domain(ta, tb, lam, lam_prime))
            assert 10 < want.sum() < 54
            before = lam.copy(), lam_prime.copy()
            off = park(ta, tb, lam, lam_prime, ok)
            assert np.array_equal(off, want)
            for now, was in zip((lam, lam_prime), before):
                assert np.array_equal(now[~off].view(np.int64), was[~off].view(np.int64))
                assert np.array_equal(now[off], np.abs(ta - tb)[off] + 1.0)
            assert in_domain(ta, tb, lam, lam_prime).all()

    @pytest.mark.parametrize("taus", ["arrays", "floats"])
    def test_kernel_on_a_parked_block_raises_no_warning(self, taus):
        ta, tb, lam, lam_prime = self.block()
        if taus == "floats":  # a certificate level: one link, a lattice of noises
            ta, tb = 0.9, 0.6
        with pytest.warns(RuntimeWarning):  # the overflowed point alone, unparked
            rate_kernel(61.0, 0.97, 0.9, 0.6, lam[:1], lam_prime[:1], np.array([5.0]))
        park(ta, tb, lam, lam_prime)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            chi = equivalent_chi(ta, tb, lam, lam_prime)
            rate, nu = rate_kernel(61.0, 0.97, ta, tb, lam, lam_prime, chi)
        assert np.isfinite(chi).all() and np.isfinite(rate).all()
        assert (nu >= 1.0).all()


SHAPE_LINKS = [LinkPair(0.9, 0.9), LinkPair(0.6 + 1e-10, 0.6), LinkPair(0.98, 0.6)]
"""dtau = 0, 1e-10 and 0.38."""


def _shape_general(link):
    assert is_physical(AncillaState(2.0, 3.0, 0.8, -0.5))
    lams = effective_noise(link.tau_a, link.tau_b, 2.0, 3.0, 0.8, -0.5)
    point = [*as_point(link.tau_a, link.tau_b, *lams)]
    return _report(FIG_PROTOCOL, *point, equivalent_chi(*point)), *lams


def _shape_closed(link):
    point = [*as_point(link.tau_a, link.tau_b, 0.4, 0.7)]
    return _report(FIG_PROTOCOL, *point, equivalent_chi(*point)), 0.4, 0.7


def _shape_min_thermal(link):
    lam = min_thermal_noise(link.tau_a, link.tau_b, 2.0, 3.0)[0]
    return key_rate_min_thermal(FIG_PROTOCOL, link, 2.0, 3.0), lam, lam


def _shape_min_chi(link):
    chi = excess_chi(link.tau_a, link.tau_b, 0.01)
    lam = bisector_lam(link.tau_a, link.tau_b, chi)
    return key_rate_min_chi(FIG_PROTOCOL, link, chi), lam, lam


class TestReportShape:
    """Every entry point returns the same report shape on every link."""

    def test_fields_in_schema_order(self):
        names = [f.name for f in dataclasses.fields(KeyRateReport)]
        assert names == ["chi", "rate", "i_ab", "i_ea", "nu", "nu2", "secure"]
        gone = {"key_rate", "key_rate_closed", "chi_equivalent", "NonphysicalStateError",
                "attack_coords", "AttackCoords"}
        assert not gone & set(cvmdi.__dict__)
        assert not {"key_rate_closed_sym", "key_rate_closed_asym", "eve_holevo"} & set(
            cvmdi.__dict__)

    @pytest.mark.parametrize("link", SHAPE_LINKS, ids=["dtau-0", "dtau-1e-10", "dtau-0.38"])
    @pytest.mark.parametrize(
        "path", [_shape_general, _shape_closed, _shape_min_thermal, _shape_min_chi])
    def test_nu_and_nu2(self, path, link):
        report, lam, lam_prime = path(link)
        # the single-point API converts once, at its report: Python scalars
        nu2_type = type(None) if link.tau_a == link.tau_b else float
        assert [type(v) for v in dataclasses.astuple(report)] == [float] * 5 + [nu2_type, bool]
        assert math.isfinite(report.nu) and report.nu >= 1.0
        dtau = abs(link.tau_a - link.tau_b)
        if dtau == 0.0:
            assert report.nu2 is None
        else:
            assert report.nu2 == math.sqrt(lam * lam_prime) / dtau
        assert report.i_ea == FIG_PROTOCOL.xi * report.i_ab - report.rate

    def test_decoupled_point(self):
        point = [*as_point(1.0, 1.0, 0.0, 0.0)]
        report = _report(FIG_PROTOCOL, *point, equivalent_chi(*point))
        assert (report.nu, report.nu2, report.i_ea) == (1.0, None, 0.0)
        assert [type(v) for v in dataclasses.astuple(report)] == [float] * 5 + [
            type(None), bool]

    def test_other_single_points_are_python_floats(self):
        # the shared formulas return arrays (numpy scalars on 0-d operands);
        # only the reports hand back Python floats
        assert type(g_max(2.0, 3.0)) is np.float64
        assert type(in_domain(0.9, 0.8, 0.5, 0.5)) is np.bool_

    def test_values_from_the_split_reports(self):
        # literal pins: nu2 on the worked scenario, nu on a symmetric link
        scen = key_rate_min_chi(FIG_PROTOCOL, SCEN_LINK, excess_chi(0.98, 0.6, 0.01))
        assert scen.nu2 == 1.115056628914057
        sym = LinkPair(0.9, 0.9)
        assert key_rate_min_chi(FIG_PROTOCOL, sym, excess_chi(0.9, 0.9, 0.01)).nu == (
            1.2272222222222222)
