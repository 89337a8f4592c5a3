"""Tests for the secret-key-rate formulas.

All frozen expected values were computed with tests/mp_oracle.py at 50
decimal digits; the worked scenario is tau_a = 0.98, tau_b = 0.6 with
xi = 0.97, phi = 60, epsilon = 0.01.
"""

import math

import numpy as np
import pytest

import mp_oracle
from cvmdi import (
    AncillaState,
    DomainError,
    LinkPair,
    ProtocolParams,
    chi_equivalent,
    derive_noise,
    eve_holevo,
    g_max,
    key_rate,
    key_rate_closed_asym,
    key_rate_closed_sym,
    key_rate_min_chi,
    key_rate_min_thermal,
    mutual_information,
)

FIG_PROTOCOL = ProtocolParams(xi=0.97, phi=60.0, epsilon=0.01)

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
    g = (kappa - lam_target) / link.u
    assert abs(g) <= g_max(omega, omega), "target lam not reachable at this omega"
    return AncillaState(omega, omega, g, -g)


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
        noise = derive_noise(SCEN_LINK, bisector_ancilla(SCEN_LINK, SCEN_LAM))
        assert noise.lam == pytest.approx(SCEN_LAM, rel=1e-12)
        value = eve_holevo(SCEN_LINK, noise, 61.0)
        assert value == pytest.approx(SCEN_I_EA, rel=1e-10)

    def test_boundary_lambda_hits_h_limit(self):
        # lam = lam' = |dtau|: the first entropy term vanishes exactly
        from cvmdi import DerivedNoise

        link = LinkPair(0.9, 0.6)
        lam = link.delta_tau
        chi = link.beta / link.alpha * (link.beta + lam)
        noise = DerivedNoise(kappa=lam, lam=lam, lam_prime=lam, delta=lam, chi=chi)
        mu = 10.0
        expected = math.log2(math.e * 0.3 * mu / 3.0) - mp_oracle_h(
            (0.9 + 0.3) / 0.6
        )
        assert eve_holevo(link, noise, mu) == pytest.approx(expected, rel=1e-12)

    def test_cancellation_zero(self):
        # lam/dtau == nu makes both entropy terms cancel; the log argument
        # is tuned to 1, so the Holevo bound is exactly zero
        link = LinkPair(0.9, 0.6)
        lam0 = link.delta_tau * link.tau_a / (link.tau_b - link.delta_tau)
        noise = derive_noise(link, bisector_ancilla(link, lam0, omega=1.6))
        mu = 2.0 * link.beta / (math.e * link.delta_tau)
        assert eve_holevo(link, noise, mu) == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_matches_closed_sym(self):
        # the Holevo term is defined at dtau = 0 and equals the symmetric
        # closed form's xi * I_AB - R
        link = LinkPair(0.8, 0.8)
        noise = derive_noise(link, AncillaState(1.5, 1.5, 0.1, -0.1))
        closed = key_rate_closed_sym(FIG_PROTOCOL, 0.8, noise.lam, noise.lam_prime)
        assert rel_err(eve_holevo(link, noise, 61.0), closed.i_ea) <= 1e-14


def mp_oracle_h(x):
    return float(mp_oracle.h(x))


class TestKeyRateGeneral:
    def test_worked_scenario(self):
        report = key_rate(FIG_PROTOCOL, SCEN_LINK, bisector_ancilla(SCEN_LINK, SCEN_LAM))
        assert report.formula_tag == "general"
        assert report.rate == pytest.approx(SCEN_RATE, rel=1e-10)
        assert report.i_ab == pytest.approx(SCEN_I_AB, rel=1e-10)
        assert report.i_ea == pytest.approx(SCEN_I_EA, rel=1e-10)
        assert report.secure

    def test_report_identity(self):
        report = key_rate(FIG_PROTOCOL, SCEN_LINK, bisector_ancilla(SCEN_LINK, SCEN_LAM))
        assert abs(report.rate - (FIG_PROTOCOL.xi * report.i_ab - report.i_ea)) <= 1e-12

    def test_lossless_symmetric_dispatch(self):
        report = key_rate(FIG_PROTOCOL, LinkPair(1.0, 1.0), AncillaState(1, 1, 0, 0))
        assert report.formula_tag == "symmetric-closed"
        assert report.rate == pytest.approx(0.97 * math.log2(61.0 / 4.0), rel=1e-14)
        assert report.chi == pytest.approx(4.0, rel=1e-15)

    def test_insecure_reported_unclamped(self):
        mirror = LinkPair(0.6, 0.98)
        lam = mirror.alpha * chi_equivalent(mirror, 0.01) / mirror.beta - mirror.beta
        report = key_rate(FIG_PROTOCOL, mirror, bisector_ancilla(mirror, lam))
        assert report.rate < 0.0
        assert not report.secure

    def test_nonphysical_ancilla_rejected(self):
        from cvmdi import NonphysicalStateError

        with pytest.raises(NonphysicalStateError):
            key_rate(FIG_PROTOCOL, SCEN_LINK, AncillaState(2, 2, 2.0, -2.0))


class TestClosedSym:
    def test_pure_loss_frozen(self):
        p = ProtocolParams(xi=1.0, phi=60.0, epsilon=0.0)
        report = key_rate_closed_sym(p, 0.9, 0.2, 0.2)
        assert report.rate == pytest.approx(PURE_LOSS_RATE, rel=1e-12)
        assert report.nu1 == pytest.approx(11.0 / 9.0, rel=1e-14)

    def test_lossless_limit(self):
        report = key_rate_closed_sym(FIG_PROTOCOL, 1.0, 0.0, 0.0)
        assert report.rate == pytest.approx(0.97 * math.log2(61.0 / 4.0), rel=1e-14)
        assert report.i_ea == 0.0

    def test_matches_general_on_bisector(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            tau = rng.uniform(0.4, 0.999)
            link = LinkPair(tau, tau)
            omega = rng.uniform(1.05, 6.0)
            g = rng.uniform(-1.0, 1.0) * g_max(omega, omega)
            ancilla = AncillaState(omega, omega, g, -g)
            noise = derive_noise(link, ancilla)
            via_general = key_rate(FIG_PROTOCOL, link, ancilla).rate
            direct = key_rate_closed_sym(
                FIG_PROTOCOL, tau, noise.lam, noise.lam_prime
            ).rate
            assert rel_err(via_general, direct) <= 1e-9


class TestClosedAsym:
    def test_worked_scenario(self):
        report = key_rate_closed_asym(FIG_PROTOCOL, SCEN_LINK, SCEN_LAM, SCEN_LAM)
        assert report.rate == pytest.approx(SCEN_RATE, rel=1e-10)
        assert report.nu == pytest.approx(2.33953586497890, rel=1e-10)

    def test_mirror_insecure(self):
        mirror = LinkPair(0.6, 0.98)
        lam = mirror.alpha * chi_equivalent(mirror, 0.01) / mirror.beta - mirror.beta
        report = key_rate_closed_asym(FIG_PROTOCOL, mirror, lam, lam)
        assert report.rate == pytest.approx(MIRROR_RATE, rel=1e-10)
        assert not report.secure

    def test_identity_with_min_chi(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            ta, tb = rng.uniform(0.3, 0.999, size=2)
            if abs(ta - tb) < 1e-3:
                continue
            link = LinkPair(ta, tb)
            chi = chi_equivalent(link, rng.uniform(0.0, 0.5))
            lam = link.alpha * chi / link.beta - link.beta
            via_lam = key_rate_closed_asym(FIG_PROTOCOL, link, lam, lam).rate
            via_chi = key_rate_min_chi(FIG_PROTOCOL, link, chi).rate
            assert rel_err(via_lam, via_chi) <= 1e-9

    def test_symmetric_matches_closed_sym(self):
        # the kernel is defined at dtau = 0, where it is the symmetric form
        for lam, lam_prime in ((0.5, 0.5), (0.2, 0.9)):
            asym = key_rate_closed_asym(FIG_PROTOCOL, LinkPair(0.7, 0.7), lam, lam_prime)
            sym = key_rate_closed_sym(FIG_PROTOCOL, 0.7, lam, lam_prime)
            assert rel_err(asym.rate, sym.rate) <= 1e-14

    def test_lambda_domain(self):
        with pytest.raises(DomainError):
            key_rate_closed_asym(FIG_PROTOCOL, SCEN_LINK, 0.1, 0.1)


class TestMinThermal:
    def test_pure_loss_symmetric(self):
        p = ProtocolParams(xi=1.0, phi=60.0, epsilon=0.0)
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
            lam_opt = kappa + link.u * g_max(wa, wb)
            direct = key_rate_min_thermal(FIG_PROTOCOL, link, wa, wb).rate
            via_closed = key_rate_closed_asym(FIG_PROTOCOL, link, lam_opt, lam_opt).rate
            assert rel_err(direct, via_closed) <= 1e-12

    def test_lossless(self):
        report = key_rate_min_thermal(FIG_PROTOCOL, LinkPair(1.0, 1.0), 3.0, 5.0)
        assert report.rate == pytest.approx(0.97 * math.log2(61.0 / 4.0), rel=1e-14)


class TestMinChi:
    def test_symmetric_frozen(self):
        link = LinkPair(0.95, 0.95)
        chi = chi_equivalent(link, 0.01)
        assert chi == pytest.approx(SYM95_CHI, rel=1e-12)
        report = key_rate_min_chi(FIG_PROTOCOL, link, chi)
        assert report.rate == pytest.approx(SYM95_RATE, rel=1e-10)

    def test_asymmetric_frozen(self):
        report = key_rate_min_chi(FIG_PROTOCOL, SCEN_LINK, chi_equivalent(SCEN_LINK, 0.01))
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
        # general, closed and minimized-chi paths agree where all defined
        rng = np.random.default_rng(24)
        checked = 0
        while checked < 200:
            ta, tb = rng.uniform(0.35, 0.99, size=2)
            link = LinkPair(ta, tb)
            omega = rng.uniform(1.02, 6.0)
            g = rng.uniform(-1.0, 1.0) * g_max(omega, omega)
            ancilla = AncillaState(omega, omega, g, -g)
            noise = derive_noise(link, ancilla)
            if math.sqrt(noise.lam * noise.lam_prime) <= link.delta_tau * (1 + 1e-9):
                continue
            r_general = key_rate(FIG_PROTOCOL, link, ancilla).rate
            if link.is_symmetric:
                r_closed = key_rate_closed_sym(
                    FIG_PROTOCOL, ta, noise.lam, noise.lam_prime
                ).rate
            else:
                r_closed = key_rate_closed_asym(
                    FIG_PROTOCOL, link, noise.lam, noise.lam_prime
                ).rate
            r_chi = key_rate_min_chi(FIG_PROTOCOL, link, noise.chi).rate
            assert rel_err(r_general, r_closed) <= 1e-9
            assert rel_err(r_general, r_chi) <= 1e-9
            checked += 1

    def test_symmetric_limit_continuity(self):
        for tau in (0.7, 0.9, 0.95):
            d = 1e-4
            link = LinkPair(tau + d, tau - d)
            chi = chi_equivalent(link, 0.01)
            lam = link.alpha * chi / link.beta - link.beta
            asymmetric = key_rate_closed_asym(FIG_PROTOCOL, link, lam, lam).rate
            chi_s = chi_equivalent(LinkPair(tau, tau), 0.01)
            lam_s = tau * chi_s / 2.0 - 2.0 * tau
            symmetric = key_rate_closed_sym(FIG_PROTOCOL, tau, lam_s, lam_s).rate
            assert abs(asymmetric - symmetric) <= 1e-3

    def test_xi_monotonicity(self):
        rng = np.random.default_rng(25)
        for _ in range(50):
            ta, tb = rng.uniform(0.5, 0.99, size=2)
            link = LinkPair(ta, tb)
            chi = chi_equivalent(link, 0.01)
            if mutual_information(61.0, chi) <= 0.0:
                continue
            xi = rng.uniform(0.5, 0.999)
            lo = key_rate_min_chi(ProtocolParams(xi=xi, phi=60.0), link, chi).rate
            hi = key_rate_min_chi(ProtocolParams(xi=xi + 1e-4, phi=60.0), link, chi).rate
            assert hi > lo

    def test_mu_independence_at_unit_xi(self):
        link = LinkPair(0.9, 0.6)
        chi = chi_equivalent(link, 0.01)
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
            chi = chi_equivalent(link, rng.uniform(0.0, 1.0))
            lam = link.alpha * chi / link.beta - link.beta
            lhs = (link.alpha * chi - link.beta**2) / (link.delta_tau * link.beta)
            rhs = lam / link.delta_tau
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


class TestOracleAgreement:
    """The float implementation against the 50-digit reference, recomputed
    at test time."""

    def test_general_rate(self):
        value = float(
            mp_oracle.rate_general("0.97", 61, "0.98", "0.6", SCEN_LAM, SCEN_LAM)
        )
        report = key_rate_closed_asym(FIG_PROTOCOL, SCEN_LINK, SCEN_LAM, SCEN_LAM)
        assert rel_err(report.rate, value) <= 1e-12

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
    chi = chi_equivalent(link, 0.01)
    got = key_rate_min_chi(FIG_PROTOCOL, link, chi).rate
    return got, mp_oracle.rate_min_chi_asym(0.97, 61, link.tau_a, link.tau_b, chi)


def _band_min_thermal(link):
    got = key_rate_min_thermal(FIG_PROTOCOL, link, 2.0, 3.0).rate
    return got, mp_oracle.rate_min_thermal(0.97, 61, link.tau_a, link.tau_b, 2.0, 3.0)


def _band_closed_asym(link):
    got = key_rate_closed_asym(FIG_PROTOCOL, link, 0.4, 0.7).rate
    return got, mp_oracle.rate_asym_closed(0.97, 61, link.tau_a, link.tau_b, 0.4, 0.7)


def _band_general(link):
    g, g_prime = 0.8, -0.5
    got = key_rate(FIG_PROTOCOL, link, AncillaState(2.0, 3.0, g, g_prime)).rate
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
    protocol = ProtocolParams(xi=0.97, phi=60.0, epsilon=0.0)
    worst = 0.0
    for tau_a in np.linspace(0.3, 0.99, 200):
        link = LinkPair(float(tau_a), 1.0)
        chi = chi_equivalent(link, 0.0)
        got = key_rate_min_chi(protocol, link, chi).rate
        want = mp_oracle.rate_min_chi_asym(0.97, 61, link.tau_a, 1.0, chi)
        worst = max(worst, rel_err(got, float(want)))
    assert worst <= 1e-12
    got = key_rate_min_thermal(protocol, LinkPair(1.0, 1.0), 1.5, 2.0).rate
    want = mp_oracle.rate_min_thermal(0.97, 61, 1.0, 1.0, 1.5, 2.0)
    assert rel_err(got, float(want)) <= 1e-12
