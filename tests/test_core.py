"""Tests for the shared domain types and attack algebra.

High-precision expected values are frozen from tests/mp_oracle.py
(mpmath, 50 decimal digits).
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

import mp_oracle
from cvmdi import core
from cvmdi import (
    AncillaState,
    ChiKnowledge,
    DomainError,
    LinkPair,
    NonphysicalStateError,
    ProtocolParams,
    attack_coords,
    chi_equivalent,
    derive_noise,
    entropy_h,
    g_max,
    is_physical,
    log_ratio_g,
    symplectic_spectrum,
)
from cvmdi.attack import _axis, physical_bounds
from cvmdi.core import entropy_scaled


def symplectic_eigenvalues_generic(sigma):
    """Independent оracle: |eigenvalues of i Omega sigma| for any 2-mode
    covariance, using the generic 4x4 route."""
    omega = np.array(
        [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]], dtype=float
    )
    eig = np.linalg.eigvals(1j * omega @ sigma)
    vals = np.sort(np.abs(eig))
    return vals[0], vals[2]  # each doubly degenerate


def ancilla_sigma(ancilla):
    wa, wb, g, gp = ancilla.omega_a, ancilla.omega_b, ancilla.g, ancilla.g_prime
    return np.array(
        [[wa, 0, g, 0], [0, wa, 0, gp], [g, 0, wb, 0], [0, gp, 0, wb]], dtype=float
    )


class TestProtocolParams:
    def test_mu_definition(self):
        assert ProtocolParams(xi=0.97, phi=60.0).mu == 61.0

    @pytest.mark.parametrize("kwargs", [dict(xi=0.0), dict(xi=1.2), dict(phi=0.0)])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ProtocolParams(**kwargs)

    def test_holds_only_the_trusted_parties_knobs(self):
        # the adversary's excess noise is the chi knowledge model's field
        assert list(vars(ProtocolParams())) == ["xi", "phi"]
        with pytest.raises(TypeError):
            ProtocolParams(epsilon=0.01)


class TestChiKnowledge:
    def test_default_epsilon(self):
        assert ChiKnowledge().epsilon == 0.01

    def test_invalid(self):
        with pytest.raises(ValueError):
            ChiKnowledge(epsilon=-0.1)


class TestLinkPair:
    def test_derived(self):
        link = LinkPair(0.9, 0.7)
        assert link.alpha == pytest.approx(0.63, rel=1e-15)
        assert link.beta == pytest.approx(1.6, rel=1e-15)
        assert link.u == pytest.approx(0.346410161513775, rel=1e-12)
        assert link.delta_tau == pytest.approx(0.2, rel=1e-12)

    def test_invalid_tau(self):
        with pytest.raises(ValueError):
            LinkPair(0.0, 0.5)
        with pytest.raises(ValueError):
            LinkPair(0.5, 1.1)


# points on [1, 1e300] for the oracle checks of the entropy and log-ratio:
# uniform on [1, 2], where h -> 0 and only an absolute bound makes sense,
# and log-spaced (jittered off round values) above
UNIT_BAND = np.linspace(1.0, 2.0, 101)
LARGE_BAND = np.geomspace(2.0, 1e300, 301) * (
    1.0 + np.random.default_rng(18).uniform(0.0, 1e-3, 301))


class TestEntropyH:
    def test_limit_value(self):
        assert entropy_h(1.0) == 0.0

    def test_exact_anchor(self):
        assert entropy_h(3.0) == 2.0

    def test_frozen_value(self):
        assert entropy_h(1.5) == pytest.approx(0.902410118609203, rel=1e-14)

    def test_clamp_window(self):
        assert entropy_h(1.0 - 5e-13) == 0.0

    def test_domain_error(self):
        with pytest.raises(DomainError):
            entropy_h(0.999)

    def test_strictly_increasing(self):
        x = 1.0 + np.geomspace(1e-9, 1e6 - 1.0, 400)
        h = np.array([entropy_h(v) for v in x])
        assert np.all(np.diff(h) > 0.0)

    def test_matches_oracle_up_to_1e300(self):
        # a log2 a - b log2 b cancels: it returned 0.0 at 1e20 and was off
        # by 4.9e-5 relative on [1e6, 1e12)
        xs = np.concatenate([UNIT_BAND, LARGE_BAND])
        got, want = entropy_h(xs), np.array([float(mp_oracle.h(x)) for x in xs])
        n = UNIT_BAND.size
        assert np.abs(got[:n] - want[:n]).max() <= 1e-15
        assert (np.abs(got[n:] - want[n:]) / want[n:]).max() <= 1e-15

    @pytest.mark.parametrize("exponent", [20, 30, 76, 154, 300])
    def test_oracle_is_a_reference_at_large_x(self, exponent):
        # h(x) = log2(e x / 2) + O(x^-2) and log_ratio(x) = 2 log2(e) / x
        # (1 + O(x^-2)); at a fixed 50 digits the oracle's own subtractions
        # returned h = 0 from about 1e30 and log_ratio = 0 from about 1e50
        mp = mp_oracle.mp
        x = mp.mpf(10) ** exponent
        assert abs(mp_oracle.h(x) - mp.log(mp.e * x / 2, 2)) <= mp.mpf("1e-40")
        assert abs(mp_oracle.log_ratio(x) * x * mp.log(2) / 2 - 1) <= mp.mpf("1e-40")


class TestEntropyScaled:
    """entropy_scaled(a, c) = h(a/c) + log2(c), the one entropy: entropy_h
    is its c = 1 case and the rate kernel subtracts it at (s, |dtau|)."""

    def test_limits(self):
        # c = 0: log2(e a / 2); a = c: log2(c), exactly
        assert entropy_scaled(1.0, 0.0) == pytest.approx(math.log2(math.e / 2.0), rel=1e-15)
        assert entropy_scaled(1.0, 1.0) == 0.0
        assert entropy_scaled(0.25, 0.25) == -2.0
        assert entropy_scaled(8.0, 0.0) == pytest.approx(math.log2(4.0 * math.e), rel=1e-15)

    def test_against_oracle(self):
        rs = np.concatenate([
            np.geomspace(1e-12, 0.5, 40),
            1.0 - np.geomspace(1e-13, 0.5, 40),
            np.random.default_rng(41).uniform(0.0, 1.0, 40),
        ])
        for r in rs:
            want = mp_oracle.h(1 / mp_oracle.mp.mpf(r)) + mp_oracle.mp.log(r, 2)
            assert abs(entropy_scaled(1.0, r) - float(want)) <= 1e-14

    def test_scale_invariance(self):
        # h(a/c) + log2 c: scaling a and c by a power of two shifts it by the power
        a, c = 3.7, np.array([0.0, 0.1, 1.0, 3.7])
        np.testing.assert_allclose(entropy_scaled(a * 2.0 ** 40, c * 2.0 ** 40),
                                   entropy_scaled(a, c) + 40.0, rtol=1e-15, atol=0.0)

    def test_clamp_window_and_domain(self):
        assert entropy_scaled(1.0, 1.0 + 5e-13) == pytest.approx(math.log2(1.0 + 5e-13))
        with pytest.raises(DomainError, match=re.escape(f"{1.0!r} < {1.001!r}")):
            entropy_scaled(1.0, 1.001)
        with pytest.raises(DomainError):
            entropy_scaled(-1.0, 0.0)

    def test_array_call_equals_one_element_calls(self):
        # the formulas take arrays only: an array call equals the calls on
        # each element as a 1-element array (the single-point reports' form)
        # bit for bit, and gives an array of the operands' shape; Python
        # floats come back only from the reports (test_keyrate's
        # TestReportShape)
        above_one = np.concatenate([[1.0, 1.0 - 5e-13],
                                    1.0 + np.geomspace(1e-12, 1e6, 200)])
        ratios = np.concatenate([[0.0, 1.0, 1.0 + 5e-13], np.geomspace(1e-15, 1.0 - 1e-15, 200)])
        cases = (
            (entropy_h, (above_one,)),
            (entropy_scaled, (np.ones_like(ratios), ratios)),
            (entropy_scaled, (above_one, 1.0)),
            (log_ratio_g, (above_one[2:],)),
        )
        for fn, args in cases:
            xs = np.broadcast_arrays(*args)
            points = [fn(*(x[k:k + 1] for x in xs)) for k in range(xs[0].size)]
            assert all(type(v) is np.ndarray and v.shape == (1,) for v in points)
            arr = fn(*args)
            assert arr.shape == xs[0].shape
            assert np.array_equal(arr.view(np.int64), np.concatenate(points).view(np.int64))

    @pytest.mark.parametrize("fn, good, bad", [
        (entropy_h, 2.0, 1.0 - 1e-9),
        (lambda r: entropy_scaled(1.0, r), 0.5, 1.001),
        (log_ratio_g, 2.0, 1.0),
    ])
    def test_array_domain_error(self, fn, good, bad):
        # one element out of the domain fails the whole array call
        xs = np.array([good, good, bad, good])
        with pytest.raises(DomainError, match=re.escape(repr(bad))):
            fn(xs)
        with pytest.raises(DomainError):
            fn(xs.reshape(2, 2))


class TestLogRatioG:
    def test_values(self):
        assert log_ratio_g(3.0) == pytest.approx(1.0, rel=1e-15)
        assert log_ratio_g(1.5) == pytest.approx(math.log2(5.0), rel=1e-15)

    def test_pole(self):
        with pytest.raises(DomainError):
            log_ratio_g(1.0)

    def test_decreasing(self):
        xs = np.linspace(1.001, 50.0, 100)
        vals = [log_ratio_g(x) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_matches_oracle_up_to_1e300(self):
        # log2((x+1)/(x-1)) rounds the ratio toward 1: 2.2e-5 relative at
        # 1e12.  The pole at 1 makes the bound relative on [1, 2] as well.
        xs = np.concatenate([UNIT_BAND[1:], LARGE_BAND])
        want = np.array([float(mp_oracle.log_ratio(x)) for x in xs])
        assert (np.abs(log_ratio_g(xs) - want) / want).max() <= 1e-15


class TestSymplecticSpectrum:
    def test_identity(self):
        sp = symplectic_spectrum(AncillaState(1, 1, 0, 0))
        assert (sp.nu_minus, sp.nu_plus) == (1.0, 1.0)

    def test_uncorrelated_thermal(self):
        sp = symplectic_spectrum(AncillaState(2, 3, 0, 0))
        assert sp.nu_minus == pytest.approx(2.0, rel=1e-15)
        assert sp.nu_plus == pytest.approx(3.0, rel=1e-15)

    def test_anticorrelated(self):
        sp = symplectic_spectrum(AncillaState(2, 2, 1.5, -1.5))
        expected = math.sqrt(4.0 - 2.25)
        assert sp.nu_minus == pytest.approx(expected, rel=1e-12)
        assert sp.nu_plus == pytest.approx(expected, rel=1e-12)

    def test_nonpositive_definite(self):
        with pytest.raises(NonphysicalStateError):
            symplectic_spectrum(AncillaState(2, 2, 2.0, 0.0))

    def test_matches_generic_route(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 50:
            wa, wb = rng.uniform(1.0, 10.0, size=2)
            bound = math.sqrt(wa * wb)
            g, gp = rng.uniform(-bound, bound, size=2)
            anc = AncillaState(wa, wb, g, gp)
            if not is_physical(anc):
                continue
            sp = symplectic_spectrum(anc)
            lo, hi = symplectic_eigenvalues_generic(ancilla_sigma(anc))
            assert sp.nu_minus == pytest.approx(lo, rel=1e-9)
            assert sp.nu_plus == pytest.approx(hi, rel=1e-9)
            checked += 1

    def test_determinant_invariant(self):
        rng = np.random.default_rng(12)
        checked = 0
        while checked < 100:
            wa, wb = rng.uniform(1.0, 10.0, size=2)
            bound = math.sqrt(wa * wb)
            g, gp = rng.uniform(-bound, bound, size=2)
            anc = AncillaState(wa, wb, g, gp)
            if not is_physical(anc):
                continue
            sp = symplectic_spectrum(anc)
            det = np.linalg.det(ancilla_sigma(anc))
            assert sp.nu_minus * sp.nu_plus == pytest.approx(
                math.sqrt(det), rel=1e-10
            )
            checked += 1


class TestIsPhysical:
    def test_vacuum(self):
        assert is_physical(AncillaState(1, 1, 0, 0))

    def test_overcorrelated(self):
        assert not is_physical(AncillaState(2, 2, 2.0, -2.0))

    def test_strongly_but_admissibly_correlated(self):
        assert is_physical(AncillaState(2, 2, 1.7, -1.7))

    @pytest.mark.parametrize("omega, g", [(1e4, 0.005), (1e6, 1.0), (1e8, 10.0),
                                          (1e76, 1e35)])
    def test_vacuum_mode_admits_no_correlation(self, omega, g):
        # beside a vacuum mode nu_minus^2 ~ 1 - g^2 / omega (g' = 0), far
        # below 1 - PHYSICALITY_TOL here; written as (Delta - sqrt(Delta^2
        # - 4 det)) / 2 it cancels at Delta ~ omega^2
        assert is_physical(AncillaState(omega, 1.0, 0.0, 0.0))
        for a, b in ((g, 0.0), (-g, 0.0), (0.0, g), (g, -g)):
            assert not is_physical(AncillaState(omega, 1.0, a, b)), (a, b)
            assert not is_physical(AncillaState(1.0, omega, a, b)), (a, b)

    def test_lattice_matches_points_and_oracle(self):
        # criterion 2's generator: the whole 201^2 correlation lattice in
        # one call equals per-point calls, and agrees with the 50-digit
        # nu_minus >= 1 away from a +-1e-9 band around the boundary
        rng, pick = np.random.default_rng(202), np.random.default_rng(0)
        for _ in range(5):
            rng.uniform(0.3, 0.99, size=2)  # the draw's transmissivities
            wa, wb = rng.uniform(1.0, 10.0, size=2)
            axis = _axis(physical_bounds(wa, wb)[1], 201)
            g, gp = np.meshgrid(axis, axis, indexing="ij")
            mask = is_physical(AncillaState(wa, wb, g, gp))
            assert mask.dtype == bool and mask.shape == g.shape
            points = [is_physical(AncillaState(wa, wb, a, b))
                      for a, b in zip(g.ravel().tolist(), gp.ravel().tolist())]
            assert mask.ravel().tolist() == points
            # the oracle on every point near the boundary and on a sample
            # of the rest (one 50-digit call costs about 40 us)
            _, _, _, _, nu = core._invariants(AncillaState(wa, wb, g, gp))
            near = np.flatnonzero(np.abs(nu.ravel() - 1.0) < 0.05)
            rest = pick.choice(g.size, size=300, replace=False)
            for k in np.union1d(near, rest):
                a, b = g.flat[k], gp.flat[k]
                m = mp_oracle.mp.mpf(wa) * wb
                if m - mp_oracle.mp.mpf(a) ** 2 <= 0 or m - mp_oracle.mp.mpf(b) ** 2 <= 0:
                    assert not mask.flat[k]
                    continue
                nu_exact = mp_oracle.nu_minus(wa, wb, a, b)
                if abs(nu_exact - 1) > 1e-9:
                    assert mask.flat[k] == (nu_exact >= 1)

    def test_boundary_transition_random(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            wa, wb = rng.uniform(1.0, 20.0, size=2)
            gm = g_max(wa, wb)
            g = rng.uniform(0.0, gm) if gm > 0 else 0.0
            assert is_physical(AncillaState(wa, wb, g, -g))
            beyond = gm + 1e-6
            assert not is_physical(AncillaState(wa, wb, beyond, -beyond))


class TestGMax:
    def test_vacuum_exact(self):
        assert g_max(1.0, 1.0) == 0.0

    def test_equal_variances(self):
        assert abs(g_max(2.0, 2.0) - math.sqrt(3.0)) <= 1e-10

    def test_unequal_variances_frozen(self):
        # boundary happens to sit at sqrt(2) for (1.5, 3)
        gm = g_max(1.5, 3.0)
        assert gm == pytest.approx(1.41421356237310, abs=1e-10)
        nu = symplectic_spectrum(AncillaState(1.5, 3.0, gm, -gm)).nu_minus
        assert nu == pytest.approx(1.0, abs=1e-10)

    def test_one_vacuum_mode_pins_to_zero(self):
        assert g_max(1.0, 7.3) == 0.0

    def test_closed_form_matches_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            wa, wb = rng.uniform(1.0, 10.0, size=2)
            want = mp_oracle.g_max(wa, wb)
            assert abs(g_max(wa, wb) - float(want)) <= 1e-15 * float(want)

    @pytest.mark.parametrize("wa, wb", [(1e40, 1e10), (1e76, 1e10), (1e76, 2.0)])
    def test_oracle_is_a_reference_at_large_unequal_omega(self, wa, wb):
        # (Delta - sqrt(Delta^2 - 4 det)) / 2 at a fixed 50 digits cancelled
        # to nu_minus < 1 at every g, so the oracle's bisection returned 0
        mp = mp_oracle.mp
        want = mp.sqrt((mp.mpf(min(wa, wb)) - 1) * (mp.mpf(max(wa, wb)) + 1))
        assert abs(mp_oracle.g_max(wa, wb) / want - 1) <= mp.mpf("1e-40")

    def test_oracle_unchanged_where_the_bench_reads_it(self, monkeypatch):
        # bench/reference.py takes g_max from the oracle at omega <= 10, where
        # the difference form of nu_minus was exact to the oracle's digits
        mp = mp_oracle.mp

        def difference_form(omega_a, omega_b, g, g_prime):
            wa, wb, g, gp = (mp.mpf(x) for x in (omega_a, omega_b, g, g_prime))
            delta = wa ** 2 + wb ** 2 + 2 * g * gp
            det = (wa * wb - g ** 2) * (wa * wb - gp ** 2)
            return mp.sqrt((delta - mp.sqrt(delta ** 2 - 4 * det)) / 2)

        pairs = [(1.5, 3.0), (2.0, 3.0), (10.0, 1.01)]
        pairs += [tuple(w) for w in np.random.default_rng(5).uniform(1.0, 10.0, (8, 2))]
        new = [mp_oracle.g_max(wa, wb) for wa, wb in pairs]
        monkeypatch.setattr(mp_oracle, "nu_minus", difference_form)
        for (wa, wb), got in zip(pairs, new):
            want = mp_oracle.g_max(wa, wb)
            assert abs(got - want) <= mp.mpf("1e-40") * max(want, 1)


class TestDeriveNoise:
    def test_lossless_decoupling(self):
        link = LinkPair(1.0, 1.0)
        noise = derive_noise(link, AncillaState(3.0, 2.0, 1.0, -1.0))
        assert noise.kappa == 0.0
        assert noise.lam == 0.0
        assert noise.lam_prime == 0.0
        assert noise.chi == pytest.approx(4.0, rel=1e-15)

    def test_pure_loss_values(self):
        link = LinkPair(0.9, 0.7)
        noise = derive_noise(link, AncillaState(1.0, 1.0, 0.0, 0.0))
        assert noise.kappa == pytest.approx(0.4, rel=1e-15)
        assert noise.lam == pytest.approx(0.4, rel=1e-15)
        assert noise.lam_prime == pytest.approx(0.4, rel=1e-15)
        assert noise.chi == pytest.approx(5.07936507936508, rel=1e-12)

    def test_pure_loss_matches_chi_equivalent(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            ta, tb = rng.uniform(0.2, 1.0, size=2)
            link = LinkPair(ta, tb)
            noise = derive_noise(link, AncillaState(1.0, 1.0, 0.0, 0.0))
            ref = chi_equivalent(link, 0.0)
            assert abs(noise.chi - ref) <= 1e-12 * ref

    def test_bisector_lambda_equality_and_inversion(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            ta, tb = rng.uniform(0.3, 0.999, size=2)
            link = LinkPair(ta, tb)
            wa, wb = rng.uniform(1.0, 8.0, size=2)
            g = rng.uniform(0.0, g_max(wa, wb)) if g_max(wa, wb) > 0 else 0.0
            noise = derive_noise(link, AncillaState(wa, wb, g, -g))
            assert noise.lam == noise.lam_prime  # bitwise under g' = -g
            lam_back = link.alpha * noise.chi / link.beta - link.beta
            assert abs(lam_back - noise.lam) <= 1e-12 * max(1.0, abs(noise.lam))


class TestChiEquivalent:
    def test_lossless(self):
        assert chi_equivalent(LinkPair(1.0, 1.0), 0.0) == 4.0

    def test_values(self):
        assert chi_equivalent(LinkPair(0.9, 0.7), 0.01) == pytest.approx(
            5.08936507936508, rel=1e-12
        )
        assert chi_equivalent(LinkPair(0.95, 0.95), 0.01) == pytest.approx(
            4.22052631578947, rel=1e-12
        )

    def test_floor(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            link = LinkPair(*rng.uniform(0.2, 1.0, size=2))
            eps = rng.uniform(0.0, 1.0)
            assert chi_equivalent(link, eps) >= link.beta**2 / link.alpha


class TestAttackCoords:
    def test_on_bisector(self):
        coords = attack_coords(1.0, -1.0)
        assert coords.d_prime == 0.0
        assert coords.l == 1.0
        assert coords.d == 0.0

    def test_off_bisector(self):
        coords = attack_coords(1.0, 1.0)
        assert coords.d == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert coords.d_prime == 1.0
        assert coords.l == 0.0

    # the inverse g = d' + l, g' = d' - l is the ancilla of a fixed-thermal
    # rate profile's sample (attack._thermal_profiles), written inline there
    def test_worked_round_trip(self):
        g, gp = 0.3 + -0.2, 0.3 - -0.2
        assert (g, gp) == pytest.approx((0.1, 0.5), abs=1e-15)
        coords = attack_coords(g, gp)
        assert coords.d_prime == pytest.approx(0.3, abs=1e-15)
        assert coords.l == pytest.approx(-0.2, abs=1e-15)

    @given(
        st.floats(min_value=0.0, max_value=50.0),
        st.floats(min_value=-50.0, max_value=50.0),
    )
    def test_round_trip_property(self, d_prime, l):
        g, gp = d_prime + l, d_prime - l
        back = attack_coords(g, gp)
        # rounding scales with the larger correlation, ~ulp(|d'| + |l|)
        scale = max(1.0, abs(d_prime), abs(l))
        assert abs(back.d_prime - d_prime) <= 1e-15 * scale
        assert abs(back.l - l) <= 1e-15 * scale


class TestAncillaState:
    def test_omega_floor(self):
        with pytest.raises(ValueError):
            AncillaState(0.9, 1.0, 0.0, 0.0)
