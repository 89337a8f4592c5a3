"""Tests for the numerical certification of the minimization arguments."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

import mp_oracle
from cvmdi import attack, keyrate, proofs
from cvmdi.core import as_point, equivalent_chi, excess_chi
from cvmdi.keyrate import min_thermal_noise
from cvmdi import (
    DomainError,
    EmptyDomainError,
    LinkPair,
    ProtocolParams,
    SymmetricDegenerateError,
    classify_nu_regions,
    g_max,
    key_rate_min_chi,
    key_rate_min_thermal,
    run_verification_suite,
    verify_lambda_minimization,
    verify_monotone_chi,
    verify_monotone_thermal,
    verify_p_prime_positive,
)

VERIFIERS = ("verify_monotone_thermal", "verify_monotone_chi", "verify_p_prime_positive",
             "verify_lambda_minimization", "classify_nu_regions")
FIG_PROTOCOL = ProtocolParams(xi=0.97, phi=60.0)


def rel_err(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def row(link, *values):
    """One scenario's link and parameters as the verifiers' one-row arrays."""
    return [np.array([x], float) for x in (link.tau_a, link.tau_b, *values)]


class TestMonotoneThermal:
    def test_lossless_degenerate(self):
        probe = verify_monotone_thermal(
            FIG_PROTOCOL, *row(LinkPair(1.0, 1.0), 2.0, 2.0, 0.1), samples=50
        )
        assert probe.degenerate[0]
        assert not probe.diff_mask[0].any()
        assert probe.verdict[0]
        rate = probe.rate[0, :probe.count[0]]
        assert np.all(rate == rate[0])

    def test_symmetric_reference_scenario(self):
        probe = verify_monotone_thermal(
            ProtocolParams(xi=1.0), *row(LinkPair(0.9, 0.9), 2.0, 2.0, 0.0), samples=200
        )
        assert probe.verdict[0]
        assert probe.worst_margin[0] > -1e-10
        assert np.all(probe.diffs[0][probe.diff_mask[0]] > 0.0)
        assert probe.bound_label[0] == "F"
        assert np.all(probe.bound[0][probe.bound_mask[0]] > 0.0)

    def test_minimum_at_zero_offset(self):
        probe = verify_monotone_thermal(
            ProtocolParams(xi=1.0), *row(LinkPair(0.9, 0.9), 2.0, 2.0, 0.0), samples=200
        )
        rate = probe.rate[0, :probe.count[0]]
        assert probe.y[0, 0] == 0.0
        assert float(np.argmin(rate)) == 0.0
        point = [*as_point(0.9, 0.9, 0.4, 0.4)]  # lam = kappa - u*l = 2*(0.1)*2 = 0.4 at l = 0
        anchor = keyrate._report(ProtocolParams(xi=1.0), *point, equivalent_chi(*point)).rate
        assert rate[0] == pytest.approx(anchor, rel=1e-12)

    def test_bound_growth_from_origin(self):
        probe = verify_monotone_thermal(
            FIG_PROTOCOL, *row(LinkPair(0.85, 0.85), 1.8, 3.2, -0.4), samples=150
        )
        assert probe.verdict[0]
        bound = probe.bound[0][probe.bound_mask[0]]
        assert np.all(bound[1:] >= bound[0] - 1e-10)

    def test_nu_traces_ordered(self):
        probe = verify_monotone_thermal(
            FIG_PROTOCOL, *row(LinkPair(0.9, 0.9), 2.5, 2.5, 0.2), samples=100
        )
        n = probe.count[0]
        assert np.all(probe.nu3[0, :n] < probe.nu1[0, :n])

    def test_nu_traces_reproduce_rate(self):
        # the sampled rate rearranges into h(nu1) - log2(nu2) - log2(nu3)
        # + log2(8/e^2); this ties the traces to the profile
        import math

        probe = verify_monotone_thermal(
            FIG_PROTOCOL, *row(LinkPair(0.85, 0.85), 1.7, 3.1, -0.25), samples=120
        )
        from cvmdi import entropy_h

        n = probe.count[0]
        rebuilt = (
            np.array([entropy_h(v) for v in probe.nu1[0, :n]])
            - np.log2(probe.nu2[0, :n])
            - np.log2(probe.nu3[0, :n])
            + math.log2(8.0 / math.e**2)
        )
        assert np.allclose(rebuilt, probe.rate[0, :n], rtol=1e-11, atol=1e-11)

    def test_rows_without_bound(self):
        # asymmetric and lossless rows carry no F and NaN nu traces
        probe = verify_monotone_thermal(
            FIG_PROTOCOL, *(np.array(x, float) for x in
                            ([0.9, 0.9, 1.0], [0.7, 0.9, 1.0], [2.0] * 3, [2.0] * 3,
                             [0.1] * 3)), samples=40
        )
        assert probe.bound_label.tolist() == ["", "F", ""]
        assert not probe.bound_mask[[0, 2]].any() and probe.bound_mask[1].any()
        assert np.isnan(probe.nu1[[0, 2]]).all() and np.isfinite(probe.nu1[1]).all()
        assert probe.verdict.all()


class TestMonotoneChi:
    def test_symmetric_endpoint_matches_minimized_form(self):
        link = LinkPair(0.95, 0.95)
        chi = excess_chi(link.tau_a, link.tau_b, 0.01)
        probe = verify_monotone_chi(FIG_PROTOCOL, *row(link, chi), samples=200)
        assert probe.verdict[0]
        target = key_rate_min_chi(FIG_PROTOCOL, link, chi).rate
        assert rel_err(float(probe.rate[0, 0]), target) <= 1e-9
        assert target == pytest.approx(1.41476008143047, rel=1e-10)

    def test_asymmetric_endpoint_matches_minimized_form(self):
        link = LinkPair(0.98, 0.6)
        chi = excess_chi(link.tau_a, link.tau_b, 0.01)
        probe = verify_monotone_chi(FIG_PROTOCOL, *row(link, chi), samples=200)
        assert probe.verdict[0]
        target = key_rate_min_chi(FIG_PROTOCOL, link, chi).rate
        assert rel_err(float(probe.rate[0, 0]), target) <= 1e-9
        assert target == pytest.approx(0.379392191958814, rel=1e-10)

    def test_d_prime_zero_at_y_min(self):
        link = LinkPair(0.9, 0.6)
        probe = verify_monotone_chi(
            FIG_PROTOCOL, *row(link, excess_chi(link.tau_a, link.tau_b, 0.05)), samples=100
        )
        assert probe.y[0, 0] == pytest.approx(
            link.alpha * excess_chi(link.tau_a, link.tau_b, 0.05) / link.beta, rel=1e-15
        )

    def test_symmetric_bound_positive(self):
        link = LinkPair(0.9, 0.9)
        probe = verify_monotone_chi(FIG_PROTOCOL, *row(link, excess_chi(link.tau_a, link.tau_b, 0.1)))
        assert probe.bound_label[0] == "L"
        assert np.all(probe.bound[0][probe.bound_mask[0]] > 0.0)

    def test_asymmetric_bound_positive_where_claimed(self):
        # tau_a < tau_b puts the profile inside the nu1 < nu2 regime
        link = LinkPair(0.5, 0.9)
        probe = verify_monotone_chi(FIG_PROTOCOL, *row(link, excess_chi(link.tau_a, link.tau_b, 0.1)))
        assert probe.bound_label[0] == "A"
        bound = probe.bound[0][probe.bound_mask[0]]
        assert bound.size > 0
        assert np.all(bound > -1e-10)

    @pytest.mark.parametrize("tau", [0.5, 0.9, 1.0])
    @pytest.mark.parametrize("chi", [3.9, 4.0, np.nextafter(4.0, 0.0)])
    def test_symmetric_chi_domain(self, tau, chi):
        # at chi <= 4 a symmetric profile has no admissible d' = 0 sample
        # (lam <= 0), or chi is below the loss floor
        with pytest.raises(DomainError):
            verify_monotone_chi(FIG_PROTOCOL, *row(LinkPair(tau, tau), chi))


GREATER, EQUAL, LESS = 1, 0, -1  # sign of nu1 - nu2


class TestClassifyNuRegions:
    def test_triple_ratio_always_greater(self):
        # tau_a = 3 tau_b
        link = LinkPair(0.9, 0.3)
        for mult in (1.01, 1.5, 3.0):
            verdict = classify_nu_regions(*row(link, link.beta**2 / link.alpha * mult))
            assert verdict.predicted[0] == GREATER
            assert verdict.observed[0] == GREATER
            assert verdict.agree[0]

    def test_double_ratio_greater(self):
        link = LinkPair(0.9, 0.4)
        verdict = classify_nu_regions(*row(link, excess_chi(link.tau_a, link.tau_b, 0.01)))
        assert verdict.predicted[0] == GREATER
        assert verdict.agree[0]

    def test_reversed_links_cross_once_above_threshold(self):
        link = LinkPair(0.5, 0.9)
        threshold = 2.0 * link.beta / link.tau_a
        verdict = classify_nu_regions(*row(link, threshold * 1.05))
        assert verdict.chi_threshold[0] == pytest.approx(threshold, rel=1e-12)
        assert verdict.predicted[0] == LESS
        assert verdict.observed[0] == LESS
        assert verdict.agree[0]

    def test_below_threshold_stays_greater(self):
        link = LinkPair(0.7, 0.6)
        threshold = (
            link.beta
            * (3.0 * link.tau_b - link.tau_a + abs(link.tau_a - link.tau_b))
            / (link.tau_a * (2.0 * link.tau_b - link.tau_a))
        )
        chi = max(link.beta**2 / link.alpha, threshold * 0.9)
        verdict = classify_nu_regions(*row(link, chi))
        assert verdict.predicted[0] == GREATER
        assert verdict.agree[0]

    def test_exact_threshold_is_equal(self):
        link = LinkPair(0.5, 0.9)
        verdict = classify_nu_regions(*row(link, 2.0 * link.beta / link.tau_a))
        assert verdict.predicted[0] == EQUAL
        assert verdict.agree[0]

    def test_symmetric_rejected(self):
        with pytest.raises(SymmetricDegenerateError):
            classify_nu_regions(*row(LinkPair(0.8, 0.8), 10.0))

    def test_lattice_agreement(self):
        # predicted classification against direct evaluation over a
        # 50 x 50 x 20 lattice of (tau_a, tau_b, chi), as one call
        taus = np.linspace(0.3, 0.99, 50)
        mults = np.linspace(1.05, 4.0, 20)
        ta, tb, m = (a.ravel() for a in np.meshgrid(taus, taus, mults, indexing="ij"))
        keep = abs(ta - tb) >= 1e-9
        ta, tb, m = ta[keep], tb[keep], m[keep]
        floor = (ta + tb) ** 2 / (ta * tb)
        verdict = classify_nu_regions(ta, tb, floor * m)
        assert verdict.agree.size > 45000
        assert int((~verdict.agree).sum()) == 0
        # both y_min verdicts against the sampled references, in slices
        for rows in np.array_split(np.arange(ta.size), 5):
            assert_matches_sampled(ta[rows], tb[rows], (floor * m)[rows], 33)


class TestNearSymmetricChiNus:
    # nu2's denominator is dtau^2; written as beta^2 - 4 alpha it cancels
    # to zero or below at |dtau| ~ 1e-8
    @pytest.mark.parametrize("d", [1e-6, 1e-8, 5e-9, 2e-9, 1.1e-9])
    def test_region_and_positivity_agree(self, d):
        link = LinkPair(0.6 + d, 0.6)
        chi = 2.0 * link.beta / link.alpha + 0.1
        assert classify_nu_regions(*row(link, chi)).agree[0]
        assert verify_p_prime_positive(*row(link, chi)).verdict[0]


class TestPPrimePositive:
    def test_wide_ratio(self):
        link = LinkPair(0.9, 0.4)
        probe = verify_p_prime_positive(*row(link, excess_chi(link.tau_a, link.tau_b, 0.01)))
        assert probe.verdict[0]
        assert probe.worst_margin[0] > 0.0

    def test_crossing_regime(self):
        # tau_a < 2 tau_b with chi above the crossing threshold
        link = LinkPair(0.5, 0.9)
        probe = verify_p_prime_positive(*row(link, 2.0 * link.beta / link.tau_a * 1.2))
        assert probe.verdict[0]

    def test_lossless_single_point(self):
        link = LinkPair(1.0, 0.7)  # u = 0
        probe = verify_p_prime_positive(*row(link, excess_chi(link.tau_a, link.tau_b, 0.01)))
        assert probe.verdict[0]


class TestHugeChi:
    """chi^2 overflows above about 1.34e154; below that the fixed-chi
    probes return what they always did, without a warning."""

    LINK = LinkPair(0.5, 0.99)

    @pytest.mark.parametrize("probe", [verify_p_prime_positive, classify_nu_regions])
    def test_overflowing_chi_raises_before_any_warning(self, probe):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"chi\^2 overflows"):
                probe(*row(self.LINK, 1e155))

    def test_large_chi_unchanged(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            positivity = verify_p_prime_positive(*row(self.LINK, 1e150))
            regions = classify_nu_regions(*row(self.LINK, 1e150))
        assert positivity.worst_margin[0] == 3.071531642960215e-150
        assert positivity.verdict[0]
        assert regions.predicted[0] == regions.observed[0] == LESS
        assert regions.min_gap[0] == -3.4241884673332415e+149


class TestLossFloor:
    """At chi = beta^2 / alpha, y_min = y_max and nu2 = 0: p' has no domain,
    while the region ordering is still defined there."""

    @pytest.mark.parametrize("link, factor", [
        (LinkPair(0.9, 0.4), 1.0), (LinkPair(0.5, 0.9), 1.0), (LinkPair(0.7, 0.6), 1.0),
        (LinkPair(0.6000001, 0.6), 1.0),
        (LinkPair(0.3, 0.9), 1.0),  # y_max = y_min, nu2 rounds to 3e-8
        (LinkPair(0.9, 0.4), 1.0 + 1e-8),  # y_max - y_min is one ulp, nu2 rounds to 0
    ])
    def test_p_prime_raises_before_dividing(self, link, factor):
        chi = link.beta ** 2 / link.alpha * factor
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EmptyDomainError, match="loss floor"):
                verify_p_prime_positive(*row(link, chi))
            regions = classify_nu_regions(*row(link, chi))
        # nu2 ~ 0, so the gap is nu1 = tau_a chi / beta - 1, up to the
        # cancellation in nu2^2 = b2 - a2 y
        assert regions.predicted[0] == regions.observed[0] == GREATER
        assert regions.min_gap[0] == pytest.approx(link.tau_a * chi / link.beta - 1.0,
                                                   abs=1e-6)


class TestLambdaMinimization:
    def test_asymmetric_decreasing(self):
        probe = verify_lambda_minimization(
            ProtocolParams(xi=1.0, phi=60.0), *row(LinkPair(0.8, 0.5), 1.5), samples=100
        )
        assert probe.verdict[0]
        assert np.all(np.diff(probe.rate[0]) < 0.0)
        assert np.all(np.diff(probe.h_part[0], 2) > 0.0)  # H is convex

    def test_symmetric_decreasing(self):
        probe = verify_lambda_minimization(
            FIG_PROTOCOL, *row(LinkPair(0.9, 0.9), 1.5), samples=100
        )
        assert probe.verdict[0]

    def test_near_degenerate_endpoint_finite(self):
        probe = verify_lambda_minimization(
            FIG_PROTOCOL, *row(LinkPair(0.8, 0.5), 0.31), samples=50
        )
        assert np.all(np.isfinite(probe.rate[0]))

    def test_lambda_max_domain(self):
        with pytest.raises(DomainError):
            verify_lambda_minimization(FIG_PROTOCOL, *row(LinkPair(0.8, 0.5), 0.2))

    def test_rate_split_matches_closed_form(self):
        link = LinkPair(0.8, 0.5)
        probe = verify_lambda_minimization(FIG_PROTOCOL, *row(link, 1.5), samples=20)
        for lam, rate in zip(probe.lam[0], probe.rate[0]):
            point = [*as_point(0.8, 0.5, lam, lam)]
            direct = keyrate._report(FIG_PROTOCOL, *point, equivalent_chi(*point)).rate
            assert rel_err(float(rate), direct) <= 1e-12

    def test_endpoint_reaches_thermal_minimum(self):
        link = LinkPair(0.8, 0.5)
        wa, wb = 1.3, 2.0
        kappa = (1.0 - 0.8) * wa + (1.0 - 0.5) * wb
        lam_opt = kappa + 2.0 * math.sqrt((1.0 - 0.8) * (1.0 - 0.5)) * g_max(wa, wb)
        probe = verify_lambda_minimization(FIG_PROTOCOL, *row(link, lam_opt), samples=60)
        target = key_rate_min_thermal(FIG_PROTOCOL, link, wa, wb).rate
        assert rel_err(float(probe.rate[0, -1]), target) <= 1e-9


class TestVerificationSuite:
    def test_suite_passes(self):
        report = run_verification_suite(seed=7, scenarios=25, samples=120)
        assert report["all_pass"]
        for name, check in report["checks"].items():
            assert check["failures"] == 0, name
            if "worst_margin" in check:
                assert check["worst_margin"] > -1e-10, name

    def test_suite_deterministic(self):
        a = run_verification_suite(seed=3, scenarios=5, samples=60)
        b = run_verification_suite(seed=3, scenarios=5, samples=60)
        assert a == b


def draw_asym_link(rng):
    """(tau_a, tau_b) uniform in [0.3, 0.999), redrawn until |dtau| >= 0.02:
    the suite's asymmetric link as ``rng.uniform`` calls."""
    while True:
        ta, tb = rng.uniform(0.3, 0.999, size=2)
        if abs(ta - tb) >= 0.02:
            return ta, tb


def draw_links(rng, scenarios, sym_hi, *ranges):
    """The suite's link draws as one ``rng.uniform`` call per number:
    (tau_a, tau_b, one array per (lo, hi) in ``ranges``), drawn per scenario
    in this order: a link, then one number per range.  The link is
    symmetric, tau uniform in [0.55, sym_hi), on even scenarios if
    ``sym_hi`` is given, and from :func:`draw_asym_link` otherwise."""
    rows = []
    for i in range(scenarios):
        if sym_hi is not None and i % 2 == 0:
            link = (rng.uniform(0.55, sym_hi),) * 2
        else:
            link = draw_asym_link(rng)
        rows.append((*link, *(rng.uniform(lo, hi) for lo, hi in ranges)))
    return tuple(np.array(rows).T)


def reference_suite(seed=7, scenarios=100, samples=200):
    """The suite as one one-row verifier call per scenario: the
    per-scenario loop the batched suite replaced."""
    rng = np.random.default_rng(seed)
    checks = {}

    def protocol_for(i):
        return ProtocolParams(xi=1.0 if i % 2 == 0 else 0.97, phi=60.0)

    def summary(failures, worst):
        return {"scenarios": scenarios, "failures": failures, "worst_margin": worst,
                "pass": failures == 0}

    worst, failures = math.inf, 0
    for i in range(scenarios):
        protocol = protocol_for(i)
        tau = rng.uniform(0.55, 0.95)
        link = LinkPair(tau, tau)
        wa, wb = rng.uniform(1.1, 5.0, size=2)
        l = rng.uniform(-0.85, 0.5) * g_max(wa, wb)
        probe = verify_monotone_thermal(protocol, *row(link, wa, wb, l), samples=samples)
        worst = min(worst, probe.worst_margin[0])
        failures += not probe.verdict[0]
    checks["monotone_thermal"] = summary(failures, worst)

    worst, failures = math.inf, 0
    for i in range(scenarios):
        protocol = protocol_for(i)
        if i % 2 == 0:
            tau = rng.uniform(0.55, 0.999)
            link = LinkPair(tau, tau)
        else:
            link = LinkPair(*draw_asym_link(rng))
        chi = excess_chi(link.tau_a, link.tau_b, rng.uniform(0.01, 0.8))
        probe = verify_monotone_chi(protocol, *row(link, chi), samples=samples)
        worst = min(worst, probe.worst_margin[0])
        failures += not probe.verdict[0]
    checks["monotone_chi"] = summary(failures, worst)

    worst, failures = math.inf, 0
    for i in range(scenarios):
        link = LinkPair(*draw_asym_link(rng))
        chi = excess_chi(link.tau_a, link.tau_b, rng.uniform(0.01, 1.0))
        probe = verify_p_prime_positive(*row(link, chi))
        worst = min(worst, probe.worst_margin[0])
        failures += not probe.verdict[0]
    checks["p_prime_positive"] = summary(failures, worst)

    worst, failures = math.inf, 0
    for i in range(scenarios):
        protocol = protocol_for(i)
        if i % 2 == 0:
            tau = rng.uniform(0.55, 0.95)
            link = LinkPair(tau, tau)
        else:
            link = LinkPair(*draw_asym_link(rng))
        wa, wb = rng.uniform(1.1, 5.0, size=2)
        lam_opt = min_thermal_noise(link.tau_a, link.tau_b, wa, wb)[0]
        dtau = abs(link.tau_a - link.tau_b)
        if lam_opt <= dtau + 2e-9:
            lam_opt = dtau + 0.5
        probe = verify_lambda_minimization(protocol, *row(link, lam_opt), samples=samples)
        worst = min(worst, probe.worst_margin[0])
        failures += not probe.verdict[0]
    checks["lambda_minimization"] = summary(failures, worst)

    disagreements = 0
    for _ in range(scenarios):
        link = LinkPair(*draw_asym_link(rng))
        chi = (link.beta ** 2 / link.alpha) * rng.uniform(1.05, 4.0)
        disagreements += not classify_nu_regions(*row(link, chi)).agree[0]
    checks["classify_nu_regions"] = {
        "scenarios": scenarios, "failures": disagreements,
        "pass": disagreements == 0,
    }
    return {"seed": seed, "scenarios": scenarios, "samples": samples, "checks": checks,
            "all_pass": all(c["pass"] for c in checks.values())}


def reference_draws(seed, scenarios):
    """Per verifier, the arrays the suite passes it, from one ``rng.uniform``
    call per drawn number in the suite's order: the thermal check's four
    numbers per scenario, then the links of the chi, p', lam and region
    checks."""
    rng = np.random.default_rng(seed)
    tau, wa, wb, u = np.array([[rng.uniform(lo, hi) for lo, hi in (
        (0.55, 0.95), (1.1, 5.0), (1.1, 5.0), (-0.85, 0.5))] for _ in range(scenarios)]).T
    draws = {"verify_monotone_thermal": (tau, tau, wa, wb, u * g_max(wa, wb))}
    ta, tb, epsilon = draw_links(rng, scenarios, 0.999, (0.01, 0.8))
    draws["verify_monotone_chi"] = (ta, tb, excess_chi(ta, tb, epsilon))
    ta, tb, epsilon = draw_links(rng, scenarios, None, (0.01, 1.0))
    draws["verify_p_prime_positive"] = (ta, tb, excess_chi(ta, tb, epsilon))
    ta, tb, wa, wb = draw_links(rng, scenarios, 0.95, (1.1, 5.0), (1.1, 5.0))
    lam_opt = min_thermal_noise(ta, tb, wa, wb)[0]
    dt = abs(ta - tb)
    draws["verify_lambda_minimization"] = (ta, tb, np.where(lam_opt <= dt + 2e-9, dt + 0.5,
                                                            lam_opt))
    ta, tb, factor = draw_links(rng, scenarios, None, (1.05, 4.0))
    draws["classify_nu_regions"] = (ta, tb, (ta + tb) ** 2 / (ta * tb) * factor)
    return draws


class TestStreamDraws:
    @pytest.mark.parametrize("read_size", [proofs.READ_SIZE, 1])
    @pytest.mark.parametrize("seed", [3, 7, 11, 42, 12345])
    def test_draws_equal_per_call_reference(self, monkeypatch, seed, read_size):
        # the suite reads its generator in blocks; a read size of 1 puts a
        # refill between the two numbers of every asymmetric link
        monkeypatch.setattr(proofs, "READ_SIZE", read_size)
        got = {}

        def recorded(name, verifier):
            def call(*args):
                got[name] = [a for a in args if isinstance(a, np.ndarray)]
                return verifier(*args)
            return call

        for name in VERIFIERS:
            monkeypatch.setattr(proofs, name, recorded(name, getattr(proofs, name)))
        for scenarios in (1, 2, 3, 20, 100, 250):
            got.clear()
            run_verification_suite(seed, scenarios, 2)
            want = reference_draws(seed, scenarios)
            assert got.keys() == want.keys()
            for name, arrays in want.items():
                assert len(got[name]) == len(arrays), name
                for g, w in zip(got[name], arrays):
                    assert g.dtype == w.dtype and g.shape == w.shape == (scenarios,), name
                    assert g.tobytes() == w.tobytes(), (name, scenarios)


def _thermal_endpoint(xi, mu, tau, _tau_b, omega_a, omega_b, l):
    # d' = 0: lam = lam' = kappa - u l = (1 - tau)(omega_a + omega_b - 2 l)
    mpf = mp_oracle.mp.mpf
    lam = (1 - mpf(tau)) * (mpf(omega_a) + mpf(omega_b) - 2 * mpf(l))
    return mp_oracle.rate_sym_closed(xi, mu, tau, lam, lam)


def _chi_endpoint(xi, mu, tau_a, tau_b, chi):
    if tau_a == tau_b:
        return mp_oracle.rate_min_chi_sym(xi, mu, chi)
    return mp_oracle.rate_min_chi_asym(xi, mu, tau_a, tau_b, chi)


def _lambda_endpoint(xi, mu, tau_a, tau_b, lam):
    if tau_a == tau_b:
        return mp_oracle.rate_sym_closed(xi, mu, tau_a, lam, lam)
    return mp_oracle.rate_asym_closed(xi, mu, tau_a, tau_b, lam, lam)


ORACLE_ENDPOINTS = {  # verifier: (its endpoint sample, the oracle's rate there)
    "verify_monotone_thermal": (0, _thermal_endpoint),
    "verify_monotone_chi": (0, _chi_endpoint),
    "verify_lambda_minimization": (-1, _lambda_endpoint),
}


def suite_endpoint_errors(monkeypatch, seed, scenarios, samples):
    """``run_verification_suite(seed, scenarios, samples)`` with its three
    profile verifiers wrapped, and per verifier the worst relative error, on
    the max(1, |a|, |b|) scale, of a row's endpoint sample against the
    50-digit oracle at that row's inputs: the symmetric closed form at the
    d' = 0 noise of a thermal profile, the minimized chi form at d' = 0 of a
    chi profile, and the closed form at lambda_max of a lam probe."""
    errors = {}

    def wrapped(name, verifier):
        index, oracle = ORACLE_ENDPOINTS[name]

        def call(protocol, *args):
            probe = verifier(protocol, *args)
            rows = zip(protocol.xi[:, 0], probe.rate[:, index], *args[:-1])
            errors[name] = max(rel_err(float(got), float(oracle(xi, protocol.mu, *x)))
                               for xi, got, *x in rows)
            return probe
        return call

    for name in ORACLE_ENDPOINTS:
        monkeypatch.setattr(proofs, name, wrapped(name, getattr(proofs, name)))
    report = run_verification_suite(seed, scenarios, samples)
    assert errors.keys() == ORACLE_ENDPOINTS.keys()
    return report, errors


class TestSuiteEndpoints:
    @pytest.mark.parametrize("seed", [3, 7, 11, 42, 12345])
    def test_endpoints_match_oracle(self, monkeypatch, seed):
        # the profile endpoints are where the minimized closed forms are
        # claimed; nothing in the suite's own report compares them
        report, errors = suite_endpoint_errors(monkeypatch, seed, 100, 200)
        assert report["all_pass"]
        for name, err in errors.items():
            assert err <= 1e-12, (name, err)


class TestBatchedSuite:
    @pytest.mark.parametrize("seed", [3, 7, 11])
    def test_matches_per_scenario_reference(self, seed):
        for scenarios in (1, 2, 3, 20):
            for samples in (2, 3, 40, 200):
                got = run_verification_suite(seed, scenarios, samples)
                want = reference_suite(seed, scenarios, samples)
                assert got.keys() == want.keys()
                assert got["all_pass"] == want["all_pass"]
                for name, check in want["checks"].items():
                    new = got["checks"][name]
                    assert new.keys() == check.keys(), name
                    for key in ("scenarios", "failures", "pass"):
                        assert new[key] == check[key], (name, key)
                    if "worst_margin" in check:
                        assert abs(new["worst_margin"] - check["worst_margin"]) <= 1e-14

    def test_kernel_calls_do_not_grow_with_scenarios(self, monkeypatch):
        # one call per rate profile (thermal, chi, lam), whatever the xi
        # mix, and one call of each public verifier
        calls, verifier_calls = [], []
        original = keyrate.rate_kernel

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        def counted_verifier(name, verifier):
            def call(*args, **kwargs):
                verifier_calls.append(name)
                return verifier(*args, **kwargs)
            return call

        for module in (keyrate, attack, proofs):
            monkeypatch.setattr(module, "rate_kernel", counted)
        for name in VERIFIERS:
            monkeypatch.setattr(proofs, name, counted_verifier(name, getattr(proofs, name)))
        counts = []
        for scenarios in (4, 40):
            calls.clear()
            verifier_calls.clear()
            run_verification_suite(seed=7, scenarios=scenarios, samples=40)
            counts.append(len(calls))
            assert sorted(verifier_calls) == sorted(VERIFIERS), scenarios
        assert counts[0] == counts[1] == 3

    def test_mixed_xi_batch_matches_parity_groups(self):
        # the suite's one batch, xi a column (1 on even rows, 0.97 on odd
        # ones), against the same rows run as one batch per xi
        n, samples = 9, 40
        rng = np.random.default_rng(5)
        xi = np.where(np.arange(n) % 2, 0.97, 1.0)[:, None]
        mixed = ProtocolParams(xi=xi, phi=60.0)
        groups = [(slice(parity, None, 2), ProtocolParams(xi=x, phi=60.0))
                  for parity, x in enumerate((1.0, 0.97))]
        tau, wa, wb, u = rng.uniform((0.55, 1.1, 1.1, -0.85), (0.95, 5.0, 5.0, 0.5),
                                     (n, 4)).T
        ta, tb, epsilon = draw_links(rng, n, 0.999, (0.01, 0.8))
        lam_max = abs(ta - tb) + rng.uniform(0.1, 1.0, n)
        cases = [
            (verify_monotone_thermal, (tau, tau, wa, wb, u * g_max(wa, wb))),
            (verify_monotone_chi, (ta, tb, excess_chi(ta, tb, epsilon))),
            (verify_lambda_minimization, (ta, tb, lam_max)),
        ]

        def leaves(probe):
            return [getattr(probe, f.name) for f in dataclasses.fields(probe)]

        for verifier, args in cases:
            got = leaves(verifier(mixed, *args, samples))
            for rows_of, protocol in groups:
                want = leaves(verifier(protocol, *(a[rows_of] for a in args), samples))
                assert len(got) == len(want)
                for g, w in zip(got, want):
                    if isinstance(w, np.ndarray):
                        assert g[rows_of].shape == w.shape
                        assert g[rows_of].tobytes() == w.tobytes(), verifier.__name__
                    else:
                        assert g == w, verifier.__name__


def sampled_p_prime(tau_a, tau_b, chi, samples=200):
    """Reference: the sampled p' check that deciding at y_min replaced, its
    worst margin over ``samples`` points of [y_min, y_max) per row (only
    y_min on a lossless row)."""
    y_min, y_max = attack.chi_y_domain(tau_a, tau_b, chi)
    lossy = (1.0 - tau_a) * (1.0 - tau_b) > 0.0
    frac = np.where(lossy[:, None], np.linspace(0.0, 1.0 - 1e-9, samples), 0.0)
    ys = y_min[:, None] + (y_max - y_min)[:, None] * frac
    a1, a2, nu1, nu2 = proofs._chi_nus(tau_a, tau_b, chi, ys)
    values = (a2 * nu1 - a1 * nu2) / (4.0 * nu1 * nu2)
    return np.where(lossy[:, None] | (np.arange(samples) == 0), values, np.inf).min(axis=1)


def sampled_min_gap(tau_a, tau_b, chi, samples=65):
    """Reference: the sampled region observation that deciding at y_min
    replaced, the least nu1 - nu2 on a ``samples``-point grid from y_min to
    y_max per row (only y_min on a lossless row)."""
    y_min, y_max = attack.chi_y_domain(tau_a, tau_b, chi)
    lossy = (1.0 - tau_a) * (1.0 - tau_b) > 0.0
    ys = np.where(lossy[:, None], np.linspace(y_min, y_max, samples).T, y_min[:, None])
    _, _, nu1, nu2 = proofs._chi_nus(tau_a, tau_b, chi, ys)
    return (nu1 - nu2).min(axis=1)


def assert_matches_sampled(tau_a, tau_b, chi, samples):
    """Both y_min verifiers against their sampled references, bit for bit."""
    positivity = verify_p_prime_positive(tau_a, tau_b, chi)
    want = sampled_p_prime(tau_a, tau_b, chi, samples)
    assert positivity.worst_margin.tobytes() == want.tobytes()
    assert (positivity.verdict == (want > -proofs.STRICT_SLACK)).all()
    regions = classify_nu_regions(tau_a, tau_b, chi)
    gap = sampled_min_gap(tau_a, tau_b, chi, samples)
    assert regions.min_gap.tobytes() == gap.tobytes()
    assert (regions.observed == (gap > 1e-9).astype(int) - (gap < -1e-9)).all()


class TestSampledReference:
    @pytest.mark.parametrize("seed", [3, 7, 11, 12345])
    def test_suite_draws(self, seed):
        draws = reference_draws(seed, 100)
        # each check at its old default sample count
        for name, samples in (("verify_p_prime_positive", 200), ("classify_nu_regions", 65)):
            assert_matches_sampled(*draws[name], samples)


def _closed_form_cases():
    """(tau_a, tau_b, chi) rows: the suite's asymmetric draws of seeds 3, 7
    and 11, then the edges: chi at 1 + 1e-12 of the loss floor, |dtau| =
    1e-8 and chi = 1e150."""
    rows = []
    for seed in (3, 7, 11):
        draws = reference_draws(seed, 100)
        for name in ("verify_p_prime_positive", "classify_nu_regions"):
            rows += zip(*draws[name])
    for ta, tb in ((0.9, 0.4), (0.5, 0.9), (0.7, 0.6), (0.3, 0.9), (0.62, 0.6)):
        rows.append((ta, tb, (ta + tb) ** 2 / (ta * tb) * (1.0 + 1e-12)))
    for tau in (0.3, 0.6, 0.95):
        for ta, tb in ((tau + 1e-8, tau), (tau, tau + 1e-8)):
            rows += [(ta, tb, 2.0 * (ta + tb) / (ta * tb) + eps) for eps in (0.1, 30.0)]
    rows += [(0.5, 0.99, 1e150), (0.99, 0.5, 1e150), (0.7, 0.3, 1e150)]
    return [tuple(map(float, r)) for r in rows]


class TestClosedFormAtYMin:
    """The closed forms that decide p' and the nu1/nu2 ordering at y_min,
    at 50 digits: nu2(y_max) = 0, nu1(y_max)^2 = tau_a (tau_a^2 tau_b chi^2 -
    beta^3) / (beta^3 tau_b) > 0, and each y_min verdict is the 50-digit
    sign there."""

    def test_closed_forms_and_verdicts(self):
        mpf = mp_oracle.mp.mpf
        floor_rows = 0
        for ta, tb, chi in _closed_form_cases():
            y_min, y_max = mp_oracle.chi_y_domain(ta, tb, chi)
            _, a2, nu1_sq, nu2_sq = mp_oracle.chi_nus_sq(ta, tb, chi, y_max)
            assert abs(nu2_sq) <= mpf("1e-45") * a2 * y_max, (ta, tb, chi)
            t_a, t_b, beta = mpf(ta), mpf(tb), mpf(ta) + mpf(tb)
            closed = t_a * (t_a ** 2 * t_b * mpf(chi) ** 2 - beta ** 3) / (beta ** 3 * t_b)
            assert closed > 0 and abs(nu1_sq - closed) <= mpf("1e-45") * closed, (ta, tb, chi)

            args = [np.array([x]) for x in (ta, tb, chi)]
            _, _, nu1_sq, nu2_sq = mp_oracle.chi_nus_sq(ta, tb, chi, y_min)
            gap = mp_oracle.mp.sqrt(nu1_sq) - mp_oracle.mp.sqrt(nu2_sq)
            sign = int(gap > 1e-9) - int(gap < -1e-9)
            assert classify_nu_regions(*args).observed[0] == sign, (ta, tb, chi)
            try:
                verdict = verify_p_prime_positive(*args).verdict[0]
            except EmptyDomainError:
                # only where [y_min, y_max) is narrower than a double's resolution
                assert y_max - y_min <= mpf("1e-15") * y_min, (ta, tb, chi)
                floor_rows += 1
                continue
            assert verdict == (mp_oracle.p_prime(ta, tb, chi, y_min) > 0), (ta, tb, chi)
        assert 0 < floor_rows <= 5
