"""Every library entry point rejects an inadmissible input with a
ParameterError that names the parameter: still a ValueError, never a
DomainError, and NaN or infinite values fail like any other."""

import math

import numpy as np
import pytest

from cvmdi import (
    AncillaState,
    AttackGrid,
    ChiKnowledge,
    DomainError,
    LinkPair,
    ParameterError,
    ProtocolParams,
    SchemeConfig,
    SweepConfig,
    ThermalKnowledge,
    check_self_alignment,
    classify_nu_regions,
    g_max,
    physical_bounds,
    rate_profile_y,
    relay_scan,
    run_verification_suite,
    verify_lambda_minimization,
    verify_monotone_chi,
    verify_monotone_thermal,
    verify_p_prime_positive,
)

NAN, INF = math.nan, math.inf
LINK = LinkPair(0.9, 0.7)

# (name the error carries, call)
CASES = [
    ("xi", lambda: ProtocolParams(xi=NAN)),
    ("xi", lambda: ProtocolParams(xi=0.0)),
    ("phi", lambda: ProtocolParams(phi=NAN)),
    ("phi", lambda: ProtocolParams(phi=INF)),
    ("phi", lambda: ProtocolParams(phi=0.0)),
    ("epsilon", lambda: ChiKnowledge(epsilon=NAN)),
    ("epsilon", lambda: ChiKnowledge(epsilon=INF)),
    ("epsilon", lambda: ChiKnowledge(epsilon=-0.1)),
    ("tau_a", lambda: LinkPair(NAN, 0.5)),
    ("tau_b", lambda: LinkPair(0.5, INF)),
    ("omega_a", lambda: AncillaState(NAN, 2.0, 0.0, 0.0)),
    ("omega_b", lambda: AncillaState(2.0, INF, 0.0, 0.0)),
    ("omega_a", lambda: AncillaState(np.array([2.0, 0.5]), 2.0, 0.0, 0.0)),
    ("omega_b", lambda: AncillaState(2.0, np.array([2.0, NAN]), 0.0, 0.0)),
    ("omega_a", lambda: g_max(NAN, 2.0)),
    ("omega_b", lambda: g_max(2.0, 0.5)),
    ("omega_a", lambda: physical_bounds(INF, 2.0)),
    ("omega_b", lambda: physical_bounds(2.0, 0.5)),
    ("omega_a", lambda: ThermalKnowledge(None, None)),
    ("omega_b", lambda: ThermalKnowledge(2.0, None)),
    ("omega_a", lambda: ThermalKnowledge(INF, 2.0)),
    ("tau_a_range", lambda: SweepConfig(tau_a_range=(0.5, NAN))),
    ("tau_b_range", lambda: SweepConfig(tau_b_range=(0.9, 0.5))),
    ("steps_b", lambda: SweepConfig(steps_b=1)),
    ("total_transmissivity", lambda: relay_scan(NAN, ProtocolParams())),
    ("total_transmissivity", lambda: relay_scan(1.5, ProtocolParams())),
    ("steps", lambda: relay_scan(0.5, ProtocolParams(), steps=1)),
    ("n", lambda: AttackGrid(n=4)),
    ("refine_n", lambda: AttackGrid(refine_n=1)),
    ("scenarios", lambda: run_verification_suite(scenarios=0)),
    ("samples", lambda: run_verification_suite(samples=1)),
    ("trials", lambda: check_self_alignment(trials=0)),
    ("samples", lambda: rate_profile_y(ProtocolParams(), LINK, chi=6.0, samples=1)),
    ("samples", lambda: rate_profile_y(ProtocolParams(), LINK, omegas=(2.0, 2.0),
                                       l=0.0, samples=1)),
    ("epsilon", lambda: ChiKnowledge(epsilon=1e77)),
    ("epsilon", lambda: ChiKnowledge(epsilon=-INF)),
    ("alice_encoding", lambda: SchemeConfig(alice_encoding=0j)),
    ("bob_encoding", lambda: SchemeConfig(bob_encoding=np.array([1.0, NAN]))),
]

# Arrays with one inadmissible element, and counts that are not integers;
# keyed by test id, so that the ids of CASES stay as they are.
ARRAY_AND_COUNT_CASES = {
    "xi-array": ("xi", lambda: ProtocolParams(xi=np.array([0.5, 2.0]))),
    "xi-array-nan": ("xi", lambda: ProtocolParams(xi=np.array([[1.0], [NAN]]))),
    "epsilon-array": ("epsilon", lambda: ChiKnowledge(epsilon=np.array([0.01, -1.0]))),
    "epsilon-array-nan": ("epsilon", lambda: ChiKnowledge(epsilon=np.array([0.0, NAN]))),
    "steps_a-float": ("steps_a", lambda: SweepConfig(steps_a=2.5)),
    "steps_b-float": ("steps_b", lambda: SweepConfig(steps_b=51.0)),
    "steps-float": ("steps", lambda: relay_scan(0.5, ProtocolParams(), steps=2.5)),
    "n-float": ("n", lambda: AttackGrid(n=5.0)),
    "scenarios-float": ("scenarios", lambda: run_verification_suite(scenarios=2.5)),
    "samples-float": ("samples", lambda: run_verification_suite(samples=40.0)),
    "trials-float": ("trials", lambda: check_self_alignment(trials=2.5)),
}



def rows(*columns):
    """The verifiers' 1-D arrays, one scenario per element of each column."""
    return [np.array(c, float) for c in columns]


P = ProtocolParams()
THERMAL = ([0.9, 0.9], [0.9, 0.9], [2.0, 2.0], [2.0, 2.0], [0.0, 0.1])  # tau_a .. l
CHI = ([0.9, 0.5], [0.7, 0.9], [6.0, 9.0])  # tau_a, tau_b, chi
LAMBDA = ([0.9, 0.8], [0.7, 0.5], [1.5, 1.2])  # tau_a, tau_b, lambda_max


def with_column(columns, index, column):
    return rows(*columns[:index], column, *columns[index + 1:])


# The array verifiers: sample counts, NaN and infinite parameters, and one
# inadmissible element in an otherwise good array; keyed by test id.
VERIFIER_CASES = {
    "thermal-samples-1": ("samples", lambda: verify_monotone_thermal(
        P, *rows(*THERMAL), samples=1)),
    "chi-samples-float": ("samples", lambda: verify_monotone_chi(
        P, *rows(*CHI), samples=2.5)),
    "lambda-samples-0": ("samples", lambda: verify_lambda_minimization(
        P, *rows(*LAMBDA), samples=0)),
    "lambda-samples-1": ("samples", lambda: verify_lambda_minimization(
        P, *rows(*LAMBDA), samples=1)),
    "lambda-samples-float": ("samples", lambda: verify_lambda_minimization(
        P, *rows(*LAMBDA), samples=2.5)),
    "chi-nan-monotone_chi": ("chi", lambda: verify_monotone_chi(
        P, *with_column(CHI, 2, [NAN, NAN]))),
    "chi-inf-monotone_chi": ("chi", lambda: verify_monotone_chi(
        P, *with_column(CHI, 2, [INF, INF]))),
    "chi-array-monotone_chi": ("chi", lambda: verify_monotone_chi(
        P, *with_column(CHI, 2, [6.0, NAN]))),
    "chi-nan-p_prime": ("chi", lambda: verify_p_prime_positive(
        *with_column(CHI, 2, [NAN, NAN]))),
    "chi-inf-p_prime": ("chi", lambda: verify_p_prime_positive(
        *with_column(CHI, 2, [INF, INF]))),
    "chi-array-p_prime": ("chi", lambda: verify_p_prime_positive(
        *with_column(CHI, 2, [6.0, INF]))),
    "chi-nan-regions": ("chi", lambda: classify_nu_regions(*with_column(CHI, 2, [NAN, NAN]))),
    "chi-inf-regions": ("chi", lambda: classify_nu_regions(*with_column(CHI, 2, [INF, INF]))),
    "chi-array-regions": ("chi", lambda: classify_nu_regions(
        *with_column(CHI, 2, [6.0, -INF]))),
    "chi-nan-rate_profile_y": ("chi", lambda: rate_profile_y(P, LINK, chi=NAN)),
    "chi-inf-rate_profile_y": ("chi", lambda: rate_profile_y(P, LINK, chi=INF)),
    "tau_a-array-monotone_chi": ("tau_a", lambda: verify_monotone_chi(
        P, *with_column(CHI, 0, [0.9, NAN]))),
    "tau_b-array-p_prime": ("tau_b", lambda: verify_p_prime_positive(
        *with_column(CHI, 1, [0.7, 1.5]))),
    "tau_a-array-regions": ("tau_a", lambda: classify_nu_regions(
        *with_column(CHI, 0, [INF, 0.5]))),
    "tau_b-array-thermal": ("tau_b", lambda: verify_monotone_thermal(
        P, *with_column(THERMAL, 1, [0.9, 0.0]))),
    "tau_a-array-lambda": ("tau_a", lambda: verify_lambda_minimization(
        P, *with_column(LAMBDA, 0, [0.9, NAN]))),
    "omega_a-array-thermal": ("omega_a", lambda: verify_monotone_thermal(
        P, *with_column(THERMAL, 2, [2.0, 0.5]))),
    "omega_b-inf-thermal": ("omega_b", lambda: verify_monotone_thermal(
        P, *with_column(THERMAL, 3, [INF, INF]))),
    "l-nan-thermal": ("l", lambda: verify_monotone_thermal(
        P, *with_column(THERMAL, 4, [NAN, NAN]))),
    "l-inf-thermal": ("l", lambda: verify_monotone_thermal(
        P, *with_column(THERMAL, 4, [INF, INF]))),
    "l-array-thermal": ("l", lambda: verify_monotone_thermal(
        P, *with_column(THERMAL, 4, [0.0, NAN]))),
    "l-nan-rate_profile_y": ("l", lambda: rate_profile_y(
        P, LINK, omegas=(2.0, 2.0), l=NAN)),
    "lambda_max-nan": ("lambda_max", lambda: verify_lambda_minimization(
        P, *with_column(LAMBDA, 2, [NAN, NAN]))),
    "lambda_max-inf": ("lambda_max", lambda: verify_lambda_minimization(
        P, *with_column(LAMBDA, 2, [INF, INF]))),
    "lambda_max-array": ("lambda_max", lambda: verify_lambda_minimization(
        P, *with_column(LAMBDA, 2, [1.5, NAN]))),
}


# Fiber phases and drift rates must be finite, encodings finite and nonzero,
# elementwise; keyed by test id.
OPTICS_CASES = {
    "phi_fiber_a-nan": ("phi_fiber_a", lambda: SchemeConfig(phi_fiber_a=NAN)),
    "phi_fiber_b-inf": ("phi_fiber_b", lambda: SchemeConfig(phi_fiber_b=-INF)),
    "phi_fiber_b-array": ("phi_fiber_b", lambda: SchemeConfig(
        phi_fiber_b=np.array([0.0, 1.0, NAN]))),
    "drift_rate_a-nan": ("drift_rate_a", lambda: SchemeConfig(drift_rate_a=NAN)),
    "drift_rate_b-inf": ("drift_rate_b", lambda: SchemeConfig(drift_rate_b=INF)),
    "drift_rate_a-array": ("drift_rate_a", lambda: SchemeConfig(
        drift_rate_a=np.array([0.1, INF]))),
    "alice_encoding-nan": ("alice_encoding", lambda: SchemeConfig(
        alice_encoding=complex(NAN, 0.0))),
    "bob_encoding-inf": ("bob_encoding", lambda: SchemeConfig(
        bob_encoding=complex(INF, 1.0))),
    "bob_encoding-array": ("bob_encoding", lambda: SchemeConfig(
        bob_encoding=np.array([1.0, 1j, complex(1.0, INF)]))),
}


@pytest.mark.parametrize(
    "name, call",
    CASES + [*ARRAY_AND_COUNT_CASES.values(), *VERIFIER_CASES.values(),
             *OPTICS_CASES.values()],
    ids=[name for name, _ in CASES] + [*ARRAY_AND_COUNT_CASES, *VERIFIER_CASES,
                                       *OPTICS_CASES])
def test_entry_point_raises_parameter_error(name, call):
    with pytest.raises(ParameterError) as info:
        call()
    exc = info.value
    assert isinstance(exc, ValueError) and not isinstance(exc, DomainError)
    assert exc.name == name
    assert str(exc) == f"{name} {exc.rule}" and exc.rule.startswith("must ")


def _column(n, bad: dict, good=6.0):
    """n ``good`` values, with ``bad[k]`` at each index k."""
    column = np.full(n, good)
    column[list(bad)] = list(bad.values())
    return column


LONG = 5000  # beyond numpy's 1000-element print threshold
ROWS = (np.full(LONG, 0.9), np.full(LONG, 0.7), np.full(LONG, 6.0))

# (call, exact message): an array message names the first failing element and
# its index, however long the array; scalar messages show the value itself
MESSAGES = {
    "chi-nan-long": (lambda: classify_nu_regions(*ROWS[:2], _column(LONG, {3210: NAN})),
                     "chi must be finite, got nan at index 3210"),
    "tau_a-long": (lambda: classify_nu_regions(_column(LONG, {4000: 1.5}, 0.9), *ROWS[1:]),
                   "tau_a must be in (0, 1], got 1.5 at index 4000"),
    "first-of-two": (lambda: verify_p_prime_positive(*ROWS[:2],
                                                     _column(LONG, {7: -INF, 9: NAN})),
                     "chi must be finite, got -inf at index 7"),
    "xi-column": (lambda: ProtocolParams(xi=np.array([[1.0], [0.5], [NAN]])),
                  "xi must be in (0, 1], got nan at index 2"),
    "bob_encoding-array": (lambda: SchemeConfig(bob_encoding=np.array([1.0, 0j])),
                           "bob_encoding must be a finite nonzero mean field, "
                           "got 0j at index 1"),
    "xi-scalar": (lambda: ProtocolParams(xi=2.0), "xi must be in (0, 1], got 2.0"),
    "omega_b-scalar": (lambda: ThermalKnowledge(2.0, None),
                       "omega_b must be finite and >= 1 SNU, got None"),
    "omega_a-ceiling": (lambda: ThermalKnowledge(1e77, 2.0),
                        "omega_a must be at most 1e+76 SNU, got 1e+77"),
    "omega_b-ceiling-array": (lambda: g_max(2.0, np.array([3.0, 1e77])),
                              "omega_b must be at most 1e+76 SNU, got 1e+77 at index 1"),
    "epsilon-ceiling": (lambda: ChiKnowledge(epsilon=1e300),
                        "epsilon must be at most 1e+76 SNU, got 1e+300"),
    "tau_range-scalar": (lambda: SweepConfig(tau_a_range=(0.5, NAN)),
                         "tau_a_range must satisfy 0 < lo <= hi <= 1, got (0.5, nan)"),
}


@pytest.mark.parametrize("call, message", MESSAGES.values(), ids=MESSAGES)
def test_message_names_the_bad_value(call, message):
    with pytest.raises(ParameterError) as info:
        call()
    assert str(info.value) == message


def test_admissible_edges_pass():
    ProtocolParams(xi=1.0, phi=1e-12)
    ProtocolParams(xi=np.array([[1.0], [1e-300]]))
    ChiKnowledge(epsilon=0.0)
    ChiKnowledge(epsilon=np.array([0.0, 1e76]))
    LinkPair(1.0, 1e-300)
    AncillaState(1.0, np.array([1.0, 5.0]), 0.0, 0.0)
    assert g_max(1.0, 1.0) == 0.0
    assert g_max(np.array([1.0, 3.0]), 3.0).tolist() == [0.0, g_max(3.0, 3.0)]
    ThermalKnowledge(1.0, 1.0)
    ThermalKnowledge(1e76, 1e76)
    SweepConfig(tau_a_range=(1.0, 1.0), steps_a=2)
    SweepConfig(steps_a=np.int64(2), steps_b=np.int32(3))
    AttackGrid(n=3, refine_n=3)
    assert verify_monotone_thermal(P, *rows(*THERMAL), samples=2).verdict.all()
    assert verify_monotone_chi(P, *rows(*CHI), samples=2).verdict.all()
    assert verify_p_prime_positive(*rows(*CHI)).verdict.all()
    assert verify_lambda_minimization(P, *rows(*LAMBDA), samples=2).verdict.all()
    assert classify_nu_regions(*rows(*CHI)).min_gap.size == 2

