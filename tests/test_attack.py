"""Tests for the brute-force worst-case search and the rate profiles."""

import math

import numpy as np
import pytest

from cvmdi import (
    AncillaState,
    AttackGrid,
    DomainError,
    LinkPair,
    ProtocolParams,
    derive_noise,
    g_max,
    key_rate,
    key_rate_closed_asym,
    key_rate_closed_sym,
    key_rate_min_chi,
    key_rate_min_thermal,
    min_rate_brute,
    physical_bounds,
    rate_profile_y,
)
from cvmdi.attack import _axis, _grid_rates

FAST_GRID = AttackGrid(n=101, refine_n=201)


class TestPhysicalBounds:
    def test_vacuum(self):
        assert physical_bounds(1.0, 1.0) == (-1.0, 1.0)

    def test_equal(self):
        assert physical_bounds(2.0, 2.0) == (-2.0, 2.0)

    def test_product(self):
        assert physical_bounds(1.0, 4.0) == (-2.0, 2.0)


class TestGridConstruction:
    def test_symmetric_axis_has_exact_zero_and_pairs(self):
        ax = _axis(-2.0, 2.0, 201)
        assert ax[100] == 0.0
        assert np.all(ax == -ax[::-1])

    def test_grid_config_validation(self):
        with pytest.raises(ValueError):
            AttackGrid(n=200)
        with pytest.raises(ValueError):
            AttackGrid(n=1)


class TestMinRateBrute:
    def test_vacuum_singleton(self):
        report = min_rate_brute(
            ProtocolParams(), LinkPair(0.9, 0.6), 1.0, 1.0, FAST_GRID
        )
        assert report.g_star == 0.0
        assert report.g_prime_star == 0.0
        assert abs(report.gap) <= 1e-12

    def test_symmetric_argmin_on_boundary(self):
        report = min_rate_brute(
            ProtocolParams(xi=1.0), LinkPair(0.99, 0.99), 2.0, 2.0, FAST_GRID
        )
        assert report.bisector_distance <= math.sqrt(2.0) * report.cell_size
        assert report.gmax_distance <= report.cell_size
        assert report.gap >= -1e-4
        assert report.rate_star >= report.analytic_rate - 1e-4

    def test_asymmetric_argmin_on_boundary(self):
        report = min_rate_brute(
            ProtocolParams(), LinkPair(0.85, 0.55), 3.0, 1.7, FAST_GRID
        )
        assert report.bisector_distance <= math.sqrt(2.0) * report.cell_size
        assert report.gmax_distance <= report.cell_size
        assert report.gap >= -1e-4

    def test_rate_star_matches_scalar_path(self):
        link = LinkPair(0.85, 0.55)
        report = min_rate_brute(ProtocolParams(), link, 3.0, 1.7, FAST_GRID)
        direct = key_rate(
            ProtocolParams(),
            link,
            AncillaState(3.0, 1.7, report.g_star, report.g_prime_star),
        ).rate
        assert report.rate_star == direct

    def test_bisector_proximity_random(self):
        # seed recorded; tau spans the full [0.3, 0.999] range
        rng = np.random.default_rng(31)
        for i in range(12):
            ta, tb = rng.uniform(0.3, 0.999, size=2)
            wa, wb = rng.uniform(1.0, 10.0, size=2)
            xi = (1.0, 0.97)[i % 2]
            report = min_rate_brute(
                ProtocolParams(xi=xi), LinkPair(ta, tb), wa, wb, FAST_GRID
            )
            cell = report.cell_size
            assert report.bisector_distance <= math.sqrt(2.0) * cell
            assert report.gmax_distance <= cell
            assert report.gap >= -1e-4


    def test_clipped_window_stays_on_bisector(self):
        # draw 33 of acceptance criterion 2's generator at seed 1: the
        # coarse argmin sits one cell off the bisector next to the edge of
        # the square, so the refinement window is clipped; the refined
        # lattice must stay symmetric about the bisector
        link = LinkPair(0.9704660831776306, 0.8345182530973749)
        report = min_rate_brute(
            ProtocolParams(xi=0.97), link, 8.120205533555247, 7.83341650485622,
            AttackGrid(n=201, refine_n=801),
        )
        cell = report.cell_size
        assert report.bisector_distance <= math.sqrt(2.0) * cell
        assert report.gmax_distance <= cell
        assert report.gap >= -1e-4


class TestGridRateSymmetries:
    def test_bisector_reflection(self):
        # the rate is invariant under (g, g') -> (-g', -g), bitwise on the
        # mirrored lattice
        link = LinkPair(0.85, 0.55)
        ax = _axis(*physical_bounds(2.0, 2.0), 41)
        g, gp = np.meshgrid(ax, ax, indexing="ij")
        rates, phys, adm = _grid_rates(ProtocolParams(), link, 2.0, 2.0, g, gp)
        mask = phys & adm
        mirrored_rates = rates[::-1, ::-1].T
        mirrored_mask = mask[::-1, ::-1].T
        both = mask & mirrored_mask
        assert both.sum() > 100
        diff = np.abs(rates[both] - mirrored_rates[both])
        scale = np.maximum(1.0, np.abs(rates[both]))
        assert np.max(diff / scale) <= 1e-10
        assert np.array_equal(mask, mirrored_mask)

    def test_admissibility_mask_excludes_lambda_domain_violations(self):
        # the formula domain requires sqrt(lam lam') >= |dtau|; points below
        # it are excluded from the argmin rather than evaluated
        link = LinkPair(0.9, 0.3)
        wa = wb = 4.0
        kappa = (1.0 - 0.9) * wa + (1.0 - 0.3) * wb
        g_violating = (kappa - 0.1) / link.u  # lam = 0.1 < dtau = 0.6
        g = np.array([g_violating, 0.0])
        gp = np.array([-g_violating, 0.0])
        _, _, admissible = _grid_rates(ProtocolParams(), link, wa, wb, g, gp)
        assert not admissible[0]
        assert admissible[1]


class TestRateProfileThermal:
    def test_frozen_y_when_lossless(self):
        profile = rate_profile_y(
            ProtocolParams(), LinkPair(1.0, 1.0), omegas=(2.0, 2.0), l=0.1, samples=50
        )
        assert np.all(profile.y == 0.0)
        assert np.all(profile.rate == profile.rate[0])

    def test_endpoint_is_bisector_rate(self):
        protocol = ProtocolParams()
        link = LinkPair(0.8, 0.5)
        profile = rate_profile_y(
            protocol, link, omegas=(1.3, 2.0), l=-0.3, samples=100
        )
        assert profile.y[0] == 0.0
        anchor = key_rate(
            protocol, link, AncillaState(1.3, 2.0, -0.3, 0.3)
        ).rate
        assert profile.rate[0] == anchor

    def test_monotone_increasing(self):
        profile = rate_profile_y(
            ProtocolParams(xi=1.0),
            LinkPair(0.9, 0.9),
            omegas=(2.0, 2.0),
            l=0.0,
            samples=200,
        )
        assert profile.y.size == 200
        assert np.all(np.diff(profile.rate) > 0.0)

    def test_minimizing_slice_reproduces_thermal_minimum(self):
        protocol = ProtocolParams()
        link = LinkPair(0.8, 0.5)
        gm = g_max(1.3, 2.0)
        profile = rate_profile_y(
            protocol, link, omegas=(1.3, 2.0), l=-gm, samples=50
        )
        target = key_rate_min_thermal(protocol, link, 1.3, 2.0).rate
        assert profile.rate[0] == pytest.approx(target, rel=1e-12)
        assert float(profile.rate.min()) == pytest.approx(target, rel=1e-12)

    def test_requires_positive_delta(self):
        link = LinkPair(0.99, 0.99)  # kappa small, u > 0
        with pytest.raises(DomainError):
            rate_profile_y(
                ProtocolParams(), link, omegas=(1.2, 1.2), l=50.0, samples=10
            )


class TestRateProfileChi:
    def test_endpoint_matches_min_chi(self):
        protocol = ProtocolParams()
        for link in (LinkPair(0.95, 0.95), LinkPair(0.98, 0.6)):
            chi = 2.0 * link.beta / link.alpha + 0.01
            profile = rate_profile_y(protocol, link, chi=chi, samples=150)
            target = key_rate_min_chi(protocol, link, chi).rate
            assert profile.rate[0] == pytest.approx(target, rel=1e-12)
            assert profile.y[0] == pytest.approx(
                link.alpha * chi / link.beta, rel=1e-15
            )

    def test_strictly_increasing(self):
        link = LinkPair(0.95, 0.95)
        profile = rate_profile_y(
            ProtocolParams(), link, chi=2.0 * link.beta / link.alpha + 0.01,
            samples=150,
        )
        assert np.all(np.diff(profile.rate) > 0.0)

    def test_d_prime_zero_at_start(self):
        link = LinkPair(0.9, 0.6)
        profile = rate_profile_y(
            ProtocolParams(), link, chi=2.0 * link.beta / link.alpha + 0.05,
            samples=100,
        )
        assert profile.d_prime[0] == 0.0
        assert np.all(np.diff(profile.d_prime) > 0.0)

    def test_mode_selection_is_exclusive(self):
        with pytest.raises(ValueError):
            rate_profile_y(ProtocolParams(), LinkPair(0.9, 0.6), samples=10)
        with pytest.raises(ValueError):
            rate_profile_y(
                ProtocolParams(), LinkPair(0.9, 0.6),
                omegas=(2.0, 2.0), l=0.0, chi=5.0, samples=10,
            )


class TestAnalyticLowerBound:
    def test_analytic_value_lower_bounds_grid_samples(self):
        # stronger than the argmin check: every admissible lattice point
        # must sit above the minimized closed form
        protocol = ProtocolParams(xi=0.97)
        link = LinkPair(0.9, 0.7)
        wa, wb = 2.5, 1.8
        lo, hi = physical_bounds(wa, wb)
        ax = _axis(lo, hi, 201)
        g, gp = np.meshgrid(ax, ax, indexing="ij")
        rates, phys, adm = _grid_rates(protocol, link, wa, wb, g, gp)
        mask = phys & adm
        analytic = key_rate_min_thermal(protocol, link, wa, wb).rate
        assert float(rates[mask].min()) >= analytic - 1e-4
