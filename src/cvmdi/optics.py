"""Classical mean-field simulation of the plug-and-play interferometer.

Two pulses leave the relay splitter, retro-reflect off the far mirrors of
both parties and interfere back at the relay.  Polarization is tracked as
a discrete H/V label (the layout keeps every pulse in a definite linear
polarization) and phase as an accumulated real number; an encoding enters
by its argument alone.  No quantum noise is sampled: the attack model
lives in the covariance-matrix modules, while this module certifies the
routing and the phase bookkeeping behind the drift-immunity claim.

Routing rule: a polarizing splitter transmits H and reflects V; a Faraday
mirror retro-reflects and swaps H and V.  Each path step names the
splitter port the intended layout continues through, so any mutation of
the component graph that sends a pulse out the wrong port raises
:class:`RoutingError`.

Routing does not depend on the phases, so a :class:`SchemeConfig` may
hold arrays of trials: the layout then routes, and raises, once per batch
while the phases run elementwise in numpy.  The Monte-Carlo certificate
runs its trials this way, ``BATCH`` at a time.

Fiber drifts are static per round trip by default (slow-drift regime).
The ``drift_rate_*`` options add a per-pass linear phase ramp, indexed by
the pulse's segment-traversal slot (0..3), to quantify the residual error
when that assumption is relaxed; only the differential rate between the
two fibers survives in the relative phase.  The relative phase is linear
in the four drift inputs, so one path run per unit input gives it exactly:
``tests/test_optics.py::TestDriftIdentity`` pins its constant pi/2 and
its coefficients (0, 0, -4, 4) on the fiber phases and drift rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import require, require_count, uniform_rows

H = "H"
V = "V"

ALIGNMENT_TOL = 1e-12
"""Maximum tolerated relative-phase deviation for an intact scheme."""

CONTROL_THRESHOLD = 1e-3
"""A broken path must exceed this deviation for nearly all trials."""

BOB_EXTRA_PHASE = math.pi / 2.0
"""Bob's preparation offset, fixed by the dual-homodyne measurement convention."""

BATCH = 1024
"""Trials per vectorized pass of :func:`check_self_alignment`."""

TURN = 2.0 * math.pi


class RoutingError(RuntimeError):
    """A pulse reached a splitter port in a polarization the layout forbids."""


@dataclass
class Pulse:
    polarization: str
    phase: float | np.ndarray = 0.0
    trace: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class SchemeConfig:
    """One-way fiber drifts and party encodings, each a float or an array
    of trials (arrays of one length)."""

    phi_fiber_a: float | np.ndarray = 0.0
    phi_fiber_b: float | np.ndarray = 0.0
    alice_encoding: complex | np.ndarray = 1.0 + 0.0j
    bob_encoding: complex | np.ndarray = 1.0 + 0.0j
    drift_rate_a: float | np.ndarray = 0.0
    drift_rate_b: float | np.ndarray = 0.0

    def __post_init__(self) -> None:
        for name in ("phi_fiber_a", "phi_fiber_b", "drift_rate_a", "drift_rate_b"):
            value = getattr(self, name)
            require(np.isfinite(value), name, "be finite", value)
        for name in ("alice_encoding", "bob_encoding"):
            encoding = getattr(self, name)
            require(np.isfinite(encoding) & (abs(encoding) > 0.0), name,
                    "be a finite nonzero mean field", encoding)


@dataclass(frozen=True)
class Splitter:
    name: str
    port: str  # "transmit" | "reflect": the port the intended path uses

    def apply(self, pulse: Pulse) -> None:
        routed = "transmit" if pulse.polarization == H else "reflect"
        if routed != self.port:
            raise RoutingError(
                f"{self.name}: {pulse.polarization}-polarized pulse exits the "
                f"{routed} port but the path continues via {self.port}"
            )
        pulse.trace.append(self.name)


@dataclass(frozen=True)
class Fiber:
    name: str
    phase: float | np.ndarray

    def apply(self, pulse: Pulse) -> None:
        pulse.phase += self.phase
        pulse.trace.append(self.name)


@dataclass(frozen=True)
class FaradayMirror:
    name: str
    flip: bool = True  # flip=False models a broken/plain mirror

    def apply(self, pulse: Pulse) -> None:
        if self.flip:
            pulse.polarization = V if pulse.polarization == H else H
        pulse.trace.append(self.name)


@dataclass(frozen=True)
class Encoder:
    name: str
    value: complex | np.ndarray
    extra_phase: float = 0.0

    def apply(self, pulse: Pulse) -> None:
        pulse.phase += self.extra_phase + np.angle(self.value)
        pulse.trace.append(self.name)


PathStep = Splitter | Fiber | FaradayMirror | Encoder


def _arm(config: SchemeConfig, near: str, far: str, *encoder) -> list[PathStep]:
    """Relay -> fiber and mirror ``near`` -> back -> fiber and mirror ``far``
    (``Encoder(*encoder)`` acts) -> back; fiber passes use drift slots 0..3."""
    def fiber(side: str, slot: int) -> Fiber:
        rate = getattr(config, f"drift_rate_{side}")
        return Fiber(f"fiber_{side}", getattr(config, f"phi_fiber_{side}") + rate * slot)

    return [  # out to the near mirror and back, then out to the far one and back
        Splitter(f"pbs_{near}", "transmit"), fiber(near, 0), FaradayMirror(f"fm_{near}"),
        fiber(near, 1), Splitter(f"pbs_{near}", "reflect"),
        Splitter(f"pbs_{far}", "reflect"), fiber(far, 2), FaradayMirror(f"fm_{far}"),
        Encoder(*encoder), fiber(far, 3), Splitter(f"pbs_{far}", "transmit"),
    ]


def left_path(config: SchemeConfig) -> list[PathStep]:
    """Fiber A first, then Bob's mirror, where Bob encodes (+ pi/2)."""
    return _arm(config, "a", "b", "encode_bob", config.bob_encoding, BOB_EXTRA_PHASE)


def right_path(config: SchemeConfig, skip_fiber_a: bool = False) -> list[PathStep]:
    """Mirror image of the left path: fiber B first, Alice encodes.

    ``skip_fiber_a`` builds the deliberately broken single-fiber control
    (the A-side excursion happens without traversing fiber A), which makes
    the relative phase drift-sensitive.
    """
    steps = _arm(config, "b", "a", "encode_alice", config.alice_encoding)
    if skip_fiber_a:
        steps = [s for s in steps if not (isinstance(s, Fiber) and s.name == "fiber_a")]
    return steps


def run_path(steps: list[PathStep], label: str = "pulse") -> Pulse:
    """Propagate an H-polarized unit pulse through a step sequence."""
    pulse = Pulse(polarization=H)
    for step in steps:
        step.apply(pulse)
    pulse.trace.append(f"relay_bs[{label}]")
    return pulse


def propagate(config: SchemeConfig) -> tuple[Pulse, Pulse]:
    """Run both pulses through the intact layout.

    Both return H-polarized with propagation phase 2 phi_a + 2 phi_b (plus
    drift-ramp terms); their relative phase is pi/2 plus the encoding
    phase difference, independent of the fiber drifts.
    """
    left = run_path(left_path(config), "left")
    right = run_path(right_path(config), "right")
    return left, right


def _wrap(angle):
    """IEEE remainder of angle by one turn, elementwise, in [-pi, pi].
    np.fmod is exact, and so is folding its result by one turn (Sterbenz).
    A tie |r| = pi needs angle = m pi with m odd, exactly; the quotient is
    then rounded to even, which gives +pi when m = 1 mod 4."""
    r = np.fmod(angle, TURN)
    r = np.where(r > math.pi, r - TURN, np.where(r < -math.pi, r + TURN, r))
    tie = np.abs(r) == math.pi
    if tie.any():
        even = np.mod(angle / math.pi, 4.0) == 1.0
        r = np.where(tie, np.where(even, math.pi, -math.pi), r)
    return r[()]


def relative_phase(left: Pulse, right: Pulse):
    """Inter-arm phase difference wrapped to [-pi, pi]."""
    return _wrap(left.phase - right.phase)


def expected_relative_phase(config: SchemeConfig):
    enc_a, enc_b = config.alice_encoding, config.bob_encoding
    return _wrap(BOB_EXTRA_PHASE + np.angle(enc_b) - np.angle(enc_a))


@dataclass(frozen=True)
class AlignmentReport:
    trials: int
    seed: int
    max_phase_error: float
    passed: bool
    control_fail_fraction: float
    control_passed: bool

    @property
    def ok(self) -> bool:
        return self.passed and self.control_passed


def check_self_alignment(trials: int = 10000, seed: int = 0) -> AlignmentReport:
    """Monte-Carlo certificate of drift immunity.

    Runs the intact layout over random fiber drifts and encodings and
    records the worst deviation of the relative phase from pi/2 plus the
    encoding difference (must stay within ``ALIGNMENT_TOL``).  A control
    with the single-fiber broken path must exceed ``CONTROL_THRESHOLD``
    deviation in at least 99% of the same trials.

    Each batch of ``BATCH`` trials is one pass of both layouts.  Its six
    draws per trial, through :func:`cvmdi.core.uniform_rows`, are the
    numbers that one ``rng.uniform`` call per quantity and trial would
    give: the fiber drifts a and b, then |encoding| and arg(encoding) for
    Alice, then for Bob.
    """
    require_count("trials", trials, 1)
    require_count("seed", seed, 0)
    rng = np.random.default_rng(seed)
    max_err = 0.0
    control_failures = 0
    for start in range(0, trials, BATCH):
        phi_a, phi_b, amp_a, arg_a, amp_b, arg_b = uniform_rows(
            rng.random((min(BATCH, trials - start), 6)),
            (0.0, TURN), (0.0, TURN), (0.5, 2.0), (0.0, TURN), (0.5, 2.0), (0.0, TURN))
        config = SchemeConfig(
            phi_fiber_a=phi_a, phi_fiber_b=phi_b,
            alice_encoding=amp_a * np.exp(1j * arg_a),
            bob_encoding=amp_b * np.exp(1j * arg_b),
        )
        expected = expected_relative_phase(config)
        left, right = propagate(config)
        broken = run_path(right_path(config, skip_fiber_a=True), "right-broken")
        err, broken_err = (np.abs(_wrap(relative_phase(left, p) - expected))
                           for p in (right, broken))
        max_err = max(max_err, float(err.max()))
        control_failures += int(np.count_nonzero(broken_err > CONTROL_THRESHOLD))
    return AlignmentReport(
        trials=trials,
        seed=seed,
        max_phase_error=max_err,
        passed=max_err <= ALIGNMENT_TOL,
        control_fail_fraction=control_failures / trials,
        control_passed=control_failures / trials >= 0.99,
    )
