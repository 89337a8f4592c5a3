"""Tests for the plug-and-play interferometer simulation."""

import cmath
import math

import numpy as np
import pytest

from cvmdi import (
    RoutingError,
    SchemeConfig,
    check_self_alignment,
    propagate,
)
from cvmdi.optics import (
    BATCH,
    BOB_EXTRA_PHASE,
    Encoder,
    FaradayMirror,
    Fiber,
    Splitter,
    _wrap,
    left_path,
    relative_phase,
    right_path,
    run_path,
)


class TestPropagate:
    def test_zero_drift_relative_phase_is_quarter_turn(self):
        left, right = propagate(SchemeConfig())
        assert relative_phase(left, right) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_polarization_restored_at_relay(self):
        left, right = propagate(SchemeConfig(phi_fiber_a=0.3, phi_fiber_b=2.9))
        assert left.polarization == "H"
        assert right.polarization == "H"

    def test_common_path_phase_accumulation(self):
        fa, fb = 1.234, 5.432
        left, right = propagate(SchemeConfig(phi_fiber_a=fa, phi_fiber_b=fb))
        propagation = 2.0 * fa + 2.0 * fb
        assert left.phase == pytest.approx(propagation + math.pi / 2, abs=1e-12)
        assert right.phase == pytest.approx(propagation, abs=1e-12)

    def test_random_drifts_cancel(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            config = SchemeConfig(
                phi_fiber_a=rng.uniform(0.0, 2.0 * math.pi),
                phi_fiber_b=rng.uniform(0.0, 2.0 * math.pi),
            )
            left, right = propagate(config)
            assert abs(relative_phase(left, right) - math.pi / 2) <= 1e-12

    def test_mirror_visit_order(self):
        left, right = propagate(SchemeConfig())
        assert left.trace.index("fm_a") < left.trace.index("fm_b")
        assert right.trace.index("fm_b") < right.trace.index("fm_a")
        assert "encode_bob" in left.trace and "encode_alice" in right.trace

    def test_encoding_enters_relative_phase(self):
        config = SchemeConfig(
            alice_encoding=cmath.exp(0.4j), bob_encoding=2.0 * cmath.exp(-0.9j)
        )
        left, right = propagate(config)
        expected = math.pi / 2 + (-0.9) - 0.4
        assert relative_phase(left, right) == pytest.approx(expected, abs=1e-12)

    def test_differential_drift_rate_leaks(self):
        # equal per-pass ramps still cancel; only the differential rate
        # appears, with the 4x lever arm of the passes
        config = SchemeConfig(drift_rate_a=1e-4, drift_rate_b=1e-4)
        left, right = propagate(config)
        assert abs(relative_phase(left, right) - math.pi / 2) <= 1e-12
        config = SchemeConfig(drift_rate_a=0.0, drift_rate_b=1e-4)
        left, right = propagate(config)
        assert relative_phase(left, right) - math.pi / 2 == pytest.approx(
            4e-4, rel=1e-9
        )


class TestRoutingContracts:
    def test_mirror_mutation_detected(self):
        steps = left_path(SchemeConfig())
        broken = [
            FaradayMirror(s.name, flip=False) if isinstance(s, FaradayMirror) and s.name == "fm_a" else s
            for s in steps
        ]
        with pytest.raises(RoutingError):
            run_path(broken)

    def test_splitter_mutation_detected(self):
        steps = left_path(SchemeConfig())
        index = next(
            i for i, s in enumerate(steps)
            if isinstance(s, Splitter) and s.port == "reflect"
        )
        broken = list(steps)
        broken[index] = Splitter(steps[index].name, "transmit")
        with pytest.raises(RoutingError):
            run_path(broken)

    def test_fiber_removal_keeps_routing_but_breaks_phase(self):
        # the broken control is a phase problem, not a routing problem
        config = SchemeConfig(phi_fiber_a=1.0)
        pulse = run_path(right_path(config, skip_fiber_a=True))
        assert pulse.polarization == "H"
        assert all(not (isinstance(s, Fiber) and s.name == "fiber_a")
                   for s in right_path(config, skip_fiber_a=True))

    def test_array_config_routes_once_and_still_detects_mutation(self):
        rng = np.random.default_rng(3)
        config = SchemeConfig(phi_fiber_a=rng.uniform(0.0, 6.0, 50),
                              phi_fiber_b=rng.uniform(0.0, 6.0, 50))
        pulse = run_path(left_path(config))
        assert pulse.polarization == "H" and pulse.phase.shape == (50,)
        broken = [FaradayMirror("fm_b", flip=False) if s.name == "fm_b" else s
                  for s in left_path(config)]
        with pytest.raises(RoutingError):
            run_path(broken)


class TestArmLayout:
    """Both arms are one near/far layout run from each side; each fiber pass
    takes its own drift slot 0..3."""

    CONFIG = SchemeConfig(phi_fiber_a=0.5, phi_fiber_b=0.25,
                          drift_rate_a=1.0, drift_rate_b=2.0)
    LEFT = ["pbs_a", "fiber_a", "fm_a", "fiber_a", "pbs_a",
            "pbs_b", "fiber_b", "fm_b", "encode_bob", "fiber_b", "pbs_b"]
    RIGHT = ["pbs_b", "fiber_b", "fm_b", "fiber_b", "pbs_b",
             "pbs_a", "fiber_a", "fm_a", "encode_alice", "fiber_a", "pbs_a"]

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_steps_phases_and_trace(self, side):
        steps = (left_path if side == "left" else right_path)(self.CONFIG)
        names, phases, extra = ((self.LEFT, [0.5, 1.5, 4.25, 6.25], BOB_EXTRA_PHASE)
                                if side == "left" else (self.RIGHT, [0.25, 2.25, 2.5, 3.5], 0.0))
        assert [s.name for s in steps] == names
        assert [s.port for s in steps if isinstance(s, Splitter)] == [
            "transmit", "reflect", "reflect", "transmit"]
        assert [s.phase for s in steps if isinstance(s, Fiber)] == phases
        assert [s.extra_phase for s in steps if isinstance(s, Encoder)] == [extra]
        assert run_path(steps, side).trace == names + [f"relay_bs[{side}]"]

    def test_broken_control_drops_only_fiber_a(self):
        steps = right_path(self.CONFIG, skip_fiber_a=True)
        assert [s.name for s in steps] == [n for n in self.RIGHT if n != "fiber_a"]


class TestDriftIdentity:
    """The relative phase is linear in the fiber phases and drift rates:
    one run at zero input and one per unit input give its constant and
    coefficients exactly, for every drift, where the Monte Carlo checks
    the drifts it draws."""

    INPUTS = ("phi_fiber_a", "phi_fiber_b", "drift_rate_a", "drift_rate_b")

    @staticmethod
    def left_minus_right(skip_fiber_a, **drifts):
        config = SchemeConfig(**drifts)
        left = run_path(left_path(config))
        right = run_path(right_path(config, skip_fiber_a=skip_fiber_a))
        return left.phase - right.phase

    @pytest.mark.parametrize("skip_fiber_a, coefficients", [
        (False, [0.0, 0.0, -4.0, 4.0]),  # static drifts cancel, 4x lever on rates
        (True, [2.0, 0.0, 1.0, 4.0]),  # the control's right arm skips fiber A
    ], ids=["intact", "skip_fiber_a"])
    def test_constant_and_coefficients(self, skip_fiber_a, coefficients):
        constant = self.left_minus_right(skip_fiber_a)
        assert constant == BOB_EXTRA_PHASE == math.pi / 2
        assert [self.left_minus_right(skip_fiber_a, **{name: 1.0}) - constant
                for name in self.INPUTS] == coefficients


class TestWrap:
    def test_matches_ieee_remainder(self):
        rng = np.random.default_rng(8)
        angles = np.concatenate([
            rng.uniform(-40.0, 40.0, 2000),
            [0.0, -0.0, math.pi, -math.pi, 2.0 * math.pi, 1e-300, 1e6 + 0.5],
            # exact odd multiples of pi: ties, where the quotient is even
            [m * math.pi for m in (-7, -5, -3, -1, 1, 3, 5, 7)],
        ])
        got = _wrap(angles)
        want = [math.remainder(a, 2.0 * math.pi) for a in angles]
        assert np.array_equal(got, want)
        assert [_wrap(a) for a in angles.tolist()] == want


def reference_self_alignment(trials, seed):
    """The certificate as one trial at a time: a uniform draw per
    quantity, cmath encodings and one propagate per config."""
    rng = np.random.default_rng(seed)
    max_err, control_failures = 0.0, 0
    for _ in range(trials):
        phi_a, phi_b = rng.uniform(0.0, 2.0 * math.pi, size=2)
        enc_a = rng.uniform(0.5, 2.0) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        enc_b = rng.uniform(0.5, 2.0) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        config = SchemeConfig(phi_fiber_a=phi_a, phi_fiber_b=phi_b,
                              alice_encoding=enc_a, bob_encoding=enc_b)
        expected = math.remainder(
            math.pi / 2.0 + cmath.phase(enc_b) - cmath.phase(enc_a), 2.0 * math.pi
        )
        left, right = propagate(config)
        err = abs(math.remainder(
            math.remainder(left.phase - right.phase, 2.0 * math.pi) - expected,
            2.0 * math.pi))
        max_err = max(max_err, err)
        broken = run_path(right_path(config, skip_fiber_a=True))
        broken_err = abs(math.remainder(
            math.remainder(left.phase - broken.phase, 2.0 * math.pi) - expected,
            2.0 * math.pi))
        control_failures += broken_err > 1e-3
    return max_err, control_failures / trials


class TestSelfAlignment:
    def test_monte_carlo_certificate(self):
        report = check_self_alignment(trials=2000, seed=5)
        assert report.passed
        assert report.max_phase_error <= 1e-12
        assert report.control_passed
        assert report.control_fail_fraction >= 0.99
        assert report.ok

    def test_deterministic_per_seed(self):
        a = check_self_alignment(trials=500, seed=9)
        b = check_self_alignment(trials=500, seed=9)
        assert a == b

    def test_trial_validation(self):
        with pytest.raises(ValueError):
            check_self_alignment(trials=0)

    @pytest.mark.parametrize("trials", [1, BATCH - 1, BATCH, BATCH + 1, 2500])
    def test_batches_match_per_trial_reference(self, trials):
        for seed in range(10):
            report = check_self_alignment(trials=trials, seed=seed)
            max_err, fail_fraction = reference_self_alignment(trials, seed)
            assert report.control_fail_fraction == fail_fraction
            assert report.control_passed == (fail_fraction >= 0.99)
            assert report.passed == (max_err <= 1e-12)
            assert abs(report.max_phase_error - max_err) <= 2e-15
