"""Numerical certification of the rate-minimization arguments.

Each verifier samples the rate (or one of the auxiliary bounding
functions) along the relevant scalar variable and checks the claimed sign
conditions: monotone growth of the rate in the off-bisector variable y
under both knowledge models, positivity of the bounding functions F / L /
A, positivity of p'(y), the region classification of the nu1/nu2
crossing, and monotone decrease of the rate in the effective noise lam.

Strict inequalities are tested with slack ``STRICT_SLACK`` so rounding at
non-strict boundary points does not fail a verdict; the margins themselves
are reported so callers can see how far from zero the checks sit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    LOG2E,
    DomainError,
    LinkPair,
    ProtocolParams,
    SymmetricDegenerateError,
    chi_equivalent,
    effective_noise,
    entropy_h,
    equivalent_chi,
    g_max,
    log_ratio_g,
)
from .attack import RateProfile, chi_y_domain, rate_profile_y
from .keyrate import (
    key_rate_closed_asym,
    key_rate_closed_sym,
    key_rate_min_chi,
    min_thermal_noise,
    rate_kernel,
)

STRICT_SLACK = 1e-10
"""Allowed rounding noise on strictly-positive checks."""


@dataclass(frozen=True)
class MonotoneProbe:
    """Sampled rate profile plus the sign margins extracted from it.

    ``diffs`` are consecutive rate differences (claimed positive), ``bound``
    the sampled bounding function (F for fixed thermal noise, L for fixed
    chi on symmetric links, A on asymmetric links, claimed positive where
    applicable).  ``worst_margin`` is the smallest of all margins and the
    verdict is ``worst_margin > -STRICT_SLACK``.  A degenerate probe
    (u = 0, y frozen) has an empty diff set and passes trivially."""

    y: np.ndarray
    rate: np.ndarray
    diffs: np.ndarray
    nu1: np.ndarray | None
    nu2: np.ndarray | None
    nu3: np.ndarray | None
    bound: np.ndarray | None
    bound_label: str
    worst_margin: float
    verdict: bool
    degenerate: bool
    skipped: int


@dataclass(frozen=True)
class PositivityProbe:
    """Sampled values of a function claimed positive on its domain."""

    y: np.ndarray
    values: np.ndarray
    worst_margin: float
    verdict: bool


@dataclass(frozen=True)
class LambdaProbe:
    """Rate versus the effective noise lam on the anticorrelation
    bisector, split into entropy and logarithmic parts."""

    lam: np.ndarray
    h_part: np.ndarray
    log_part: np.ndarray
    rate: np.ndarray
    worst_margin: float
    verdict: bool


@dataclass(frozen=True)
class RegionVerdict:
    """Predicted versus observed ordering of nu1 and nu2 on the fixed-chi
    domain.  ``less`` means a region with nu1 < nu2 exists (it sits at the
    lower end of the domain), ``greater`` that nu1 > nu2 throughout."""

    predicted_relation: str
    observed_relation: str
    chi_threshold_used: float | None
    agree: bool
    min_gap: float


def _chi_nus(link: LinkPair, chi: float, y: np.ndarray):
    """(a1, a2, nu1, nu2) on the fixed-chi domain, where nu1 = sqrt(b1 - a1 y)
    and nu2 = sqrt(b2 - a2 y), each clamped at 0."""
    alpha, beta = link.alpha, link.beta
    if link.is_symmetric:
        tau = 0.5 * (link.tau_a + link.tau_b)
        a1, a2 = 2.0 / tau, 4.0 / tau
        b1, b2 = chi * chi / 4.0 + 1.0, chi * chi / 4.0 + 4.0
    else:
        denom = beta * beta - 4.0 * alpha  # = dtau^2 > 0
        a1 = 2.0 / link.tau_b
        b1 = 1.0 + link.tau_a ** 2 * chi ** 2 / beta ** 2
        a2 = 2.0 * beta / denom
        b2 = (beta * beta + alpha ** 2 * chi ** 2 / beta ** 2) / denom
    nu1 = np.sqrt(np.maximum(b1 - a1 * y, 0.0))
    return a1, a2, nu1, np.sqrt(np.maximum(b2 - a2 * y, 0.0))


def _finalize_monotone(
    profile: RateProfile,
    nu1: np.ndarray | None,
    nu2: np.ndarray | None,
    nu3: np.ndarray | None,
    bound: np.ndarray | None,
    bound_label: str,
    extra_margins: np.ndarray | None = None,
) -> MonotoneProbe:
    degenerate = profile.y.size < 2 or float(profile.y[-1] - profile.y[0]) == 0.0
    diffs = np.diff(profile.rate) if not degenerate else np.empty(0)
    allm = np.concatenate([m for m in (diffs, bound, extra_margins) if m is not None])
    worst = float(allm.min()) if allm.size else math.inf
    return MonotoneProbe(
        y=profile.y,
        rate=profile.rate,
        diffs=diffs,
        nu1=nu1,
        nu2=nu2,
        nu3=nu3,
        bound=bound,
        bound_label=bound_label,
        worst_margin=worst,
        verdict=worst > -STRICT_SLACK,
        degenerate=degenerate,
        skipped=profile.skipped,
    )


def verify_monotone_thermal(
    protocol: ProtocolParams,
    link: LinkPair,
    omega_a: float,
    omega_b: float,
    l: float,
    samples: int = 200,
) -> MonotoneProbe:
    """Monotonicity of the rate in y = u^2 d'^2 at fixed thermal noise and
    fixed bisector coordinate l.

    For symmetric links the probe also evaluates the bounding function
    F(y) = log2(e)/nu3 - g(nu1)/2 and requires F > 0 as well as
    F(y) >= F(0) on the sampled range (the increasing-F property that
    makes the monotonicity argument work).
    """
    profile = rate_profile_y(
        protocol, link, omegas=(omega_a, omega_b), l=l, samples=samples
    )
    nu1 = nu2 = nu3 = bound = extra = None
    label = ""
    if link.is_symmetric and link.u > 0.0:
        tau = 0.5 * (link.tau_a + link.tau_b)
        delta = effective_noise(link.tau_a, link.tau_b, omega_a, omega_b, l, -l)[0]
        y = profile.y
        nu1 = np.sqrt((tau + delta) ** 2 - y) / tau
        nu3 = np.sqrt(np.maximum(delta * delta - y, 0.0)) / tau
        chi_y = 2.0 * np.sqrt((2.0 * tau + delta) ** 2 - y) / tau
        nu2 = protocol.mu ** (1.0 - protocol.xi) * chi_y ** protocol.xi
        g1 = log_ratio_g(nu1)
        bound = LOG2E / np.where(nu3 > 0.0, nu3, np.inf) - 0.5 * g1
        label = "F"
        if bound.size > 1:
            extra = bound[1:] - bound[0]  # F(y) >= F(0)
    return _finalize_monotone(profile, nu1, nu2, nu3, bound, label, extra)


def verify_monotone_chi(
    protocol: ProtocolParams, link: LinkPair, chi: float, samples: int = 200
) -> MonotoneProbe:
    """Monotonicity of the rate in y = sqrt(u^2 d'^2 + (alpha chi/beta)^2)
    at fixed equivalent noise.

    Also samples the bounding function behind the monotonicity argument:
    L(y) (claimed positive) on symmetric links, A(y) (claimed nonnegative
    wherever nu1 < nu2) on asymmetric links.
    """
    if link.is_symmetric and chi <= 4.0:
        raise DomainError(f"chi = {chi} <= 4 is outside the symmetric domain")
    profile = rate_profile_y(protocol, link, chi=chi, samples=samples)
    a1, a2, nu1, nu2 = _chi_nus(link, chi, profile.y)
    if link.is_symmetric:
        # nu2 can round to 0 at the last admissible sample; the bound is
        # only claimed on the open interior.
        ok = nu2 > 0.0
        g1 = log_ratio_g(nu1)
        bound = (a2 * LOG2E / np.where(ok, nu2, 1.0) - 0.5 * a1 * g1)[ok]
        return _finalize_monotone(profile, nu1, nu2, None, bound, "L")
    k = a2 * nu1 - a1 * nu2
    crossing = nu1 < nu2
    bound = ((a2 * nu1 * nu1 - a1 * nu2 * nu2) - k)[crossing]
    # in the crossing regime the comparison function D = d(nu1) - d(nu2)
    # with d(x) = (x - 1) log2((x+1)/(x-1)) must stay negative
    ok = crossing & (nu1 > 1.0) & (nu2 > 1.0)
    d1 = (nu1[ok] - 1.0) * log_ratio_g(nu1[ok])
    d2 = (nu2[ok] - 1.0) * log_ratio_g(nu2[ok])
    return _finalize_monotone(profile, nu1, nu2, None, bound, "A", d2 - d1)


def classify_nu_regions(
    link: LinkPair, chi: float, samples: int = 65
) -> RegionVerdict:
    """Predicted-versus-observed ordering of nu1 and nu2.

    Prediction follows the case table: tau_a >= 2 tau_b implies nu1 > nu2
    everywhere; otherwise a region with nu1 < nu2 exists exactly when chi
    clears the threshold beta (3 tau_b - tau_a + |dtau|) /
    (tau_a (2 tau_b - tau_a)).  Observation evaluates nu1 - nu2 on a grid
    that includes the lower domain endpoint.  Classifications within
    ~1e-9 of the threshold resolve to "equal".
    """
    if link.is_symmetric:
        raise SymmetricDegenerateError("region classification requires tau_a != tau_b")
    y_min, y_max = chi_y_domain(link, chi)
    beta, ta, tb = link.beta, link.tau_a, link.tau_b
    threshold = None
    if ta >= 2.0 * tb:
        predicted = "greater"
    else:
        threshold = beta * (3.0 * tb - ta + link.delta_tau) / (ta * (2.0 * tb - ta))
        if abs(chi - threshold) <= 1e-9 * threshold:
            predicted = "equal"
        elif chi > threshold:
            predicted = "less"
        else:
            predicted = "greater"
    ys = np.linspace(y_min, y_max, samples) if link.u > 0.0 else np.array([y_min])
    _, _, nu1, nu2 = _chi_nus(link, chi, ys)
    min_gap = float((nu1 - nu2).min())
    atol = 1e-9
    if min_gap < -atol:
        observed = "less"
    elif min_gap > atol:
        observed = "greater"
    else:
        observed = "equal"
    return RegionVerdict(
        predicted_relation=predicted,
        observed_relation=observed,
        chi_threshold_used=threshold,
        agree=predicted == observed,
        min_gap=min_gap,
    )


def verify_p_prime_positive(
    link: LinkPair, chi: float, samples: int = 200
) -> PositivityProbe:
    """Positivity of p'(y) = (a2 nu1 - a1 nu2) / (4 nu1 nu2) over the
    fixed-chi domain (upper endpoint excluded, where nu2 vanishes)."""
    y_min, y_max = chi_y_domain(link, chi)
    frac = np.linspace(0.0, 1.0 - 1e-9, samples) if link.u > 0.0 else np.zeros(1)
    ys = y_min + (y_max - y_min) * frac
    a1, a2, nu1, nu2 = _chi_nus(link, chi, ys)
    values = (a2 * nu1 - a1 * nu2) / (4.0 * nu1 * nu2)
    worst = float(values.min())
    return PositivityProbe(
        y=ys, values=values, worst_margin=worst, verdict=worst > -STRICT_SLACK
    )


def verify_lambda_minimization(
    protocol: ProtocolParams,
    link: LinkPair,
    lambda_max: float,
    samples: int = 100,
) -> LambdaProbe:
    """Monotone decrease of the bisector rate in the effective noise lam,
    hence a minimum at lam = lambda_max.

    The rate comes from the array kernel and is split into the entropy
    part H = h(nu) (minus h(lam / |dtau|) on asymmetric links) and the
    logarithmic part L = rate - H; on asymmetric links the convexity of H
    (positive second differences) is checked alongside the decrease of
    the rate.
    """
    dt = link.delta_tau
    lo = dt + 1e-9
    if lambda_max <= lo:
        raise DomainError(
            f"lambda_max = {lambda_max} must exceed |dtau| = {dt}"
        )
    lams = np.linspace(lo, lambda_max, samples)
    chi = equivalent_chi(link.tau_a, link.tau_b, lams, lams)
    rate, nu = rate_kernel(
        protocol.mu, protocol.xi, link.tau_a, link.tau_b, lams, lams, chi
    )
    h_part = entropy_h(nu)
    margins = -np.diff(rate)
    if not link.is_symmetric:
        h_part -= entropy_h(lams / dt)
        margins = np.concatenate([margins, np.diff(h_part, 2)])
    log_part = rate - h_part
    worst = float(margins.min())
    return LambdaProbe(
        lam=lams,
        h_part=h_part,
        log_part=log_part,
        rate=rate,
        worst_margin=worst,
        verdict=worst > -STRICT_SLACK,
    )


def _rel_err(a: float, b: float) -> float:
    return float(abs(a - b) / max(1.0, abs(a), abs(b)))


def _draw_asym_link(rng: np.random.Generator) -> LinkPair:
    while True:
        ta, tb = rng.uniform(0.3, 0.999, size=2)
        if abs(ta - tb) >= 0.02:
            return LinkPair(ta, tb)


def _summary(
    scenarios: int, failures: int, worst: float, endpoint: float | None = None
) -> dict:
    """One check's report entry; an endpoint error, where the check has
    one, must also stay within 1e-9."""
    entry = {"scenarios": scenarios, "failures": failures, "worst_margin": worst}
    if endpoint is None:
        return {**entry, "pass": failures == 0}
    return {**entry, "worst_endpoint_rel_err": endpoint,
            "pass": failures == 0 and endpoint <= 1e-9}


def run_verification_suite(
    seed: int = 7, scenarios: int = 100, samples: int = 200
) -> dict:
    """Run every verifier over randomized admissible scenarios.

    Returns a JSON-ready report with per-check failure counts, the worst
    margin seen, and the worst relative disagreement between profile
    endpoints and the corresponding minimized closed forms.
    """
    rng = np.random.default_rng(seed)
    checks: dict[str, dict] = {}

    def protocol_for(i: int) -> ProtocolParams:
        return ProtocolParams(xi=1.0 if i % 2 == 0 else 0.97, phi=60.0, epsilon=0.01)

    # Fixed thermal noise: symmetric links, random bisector slice.
    worst, endpoint, failures = math.inf, 0.0, 0
    for i in range(scenarios):
        protocol = protocol_for(i)
        tau = rng.uniform(0.55, 0.95)
        link = LinkPair(tau, tau)
        wa, wb = rng.uniform(1.1, 5.0, size=2)
        gm = g_max(wa, wb)
        l = rng.uniform(-0.85, 0.5) * gm
        probe = verify_monotone_thermal(protocol, link, wa, wb, l, samples=samples)
        worst = min(worst, probe.worst_margin)
        failures += not probe.verdict
        lam0 = effective_noise(tau, tau, wa, wb, l, -l)[0]
        anchor = key_rate_closed_sym(protocol, tau, lam0, lam0).rate
        endpoint = max(endpoint, _rel_err(float(probe.rate[0]), anchor))
    checks["monotone_thermal"] = _summary(scenarios, failures, worst, endpoint)

    # Fixed equivalent noise, alternating symmetric/asymmetric links.
    worst, endpoint, failures = math.inf, 0.0, 0
    for i in range(scenarios):
        protocol = protocol_for(i)
        if i % 2 == 0:
            tau = rng.uniform(0.55, 0.999)
            link = LinkPair(tau, tau)
        else:
            link = _draw_asym_link(rng)
        chi = chi_equivalent(link, rng.uniform(0.01, 0.8))
        probe = verify_monotone_chi(protocol, link, chi, samples=samples)
        worst = min(worst, probe.worst_margin)
        failures += not probe.verdict
        anchor = key_rate_min_chi(protocol, link, chi).rate
        endpoint = max(endpoint, _rel_err(float(probe.rate[0]), anchor))
    checks["monotone_chi"] = _summary(scenarios, failures, worst, endpoint)

    # p'(y) positivity on asymmetric links.
    worst, failures = math.inf, 0
    for i in range(scenarios):
        link = _draw_asym_link(rng)
        chi = chi_equivalent(link, rng.uniform(0.01, 1.0))
        probe = verify_p_prime_positive(link, chi, samples=samples)
        worst = min(worst, probe.worst_margin)
        failures += not probe.verdict
    checks["p_prime_positive"] = _summary(scenarios, failures, worst)

    # Minimization over lam, alternating symmetric/asymmetric links; the
    # lam endpoint is pinned to lam_opt of a random thermal environment so
    # the final sample reproduces the minimized thermal closed form.
    worst, endpoint, failures = math.inf, 0.0, 0
    for i in range(scenarios):
        protocol = protocol_for(i)
        if i % 2 == 0:
            tau = rng.uniform(0.55, 0.95)
            link = LinkPair(tau, tau)
        else:
            link = _draw_asym_link(rng)
        wa, wb = rng.uniform(1.1, 5.0, size=2)
        lam_opt = min_thermal_noise(link.tau_a, link.tau_b, wa, wb)[0]
        if lam_opt <= link.delta_tau + 2e-9:
            lam_opt = link.delta_tau + 0.5
        probe = verify_lambda_minimization(protocol, link, lam_opt, samples=samples)
        worst = min(worst, probe.worst_margin)
        failures += not probe.verdict
        anchor = key_rate_closed_asym(protocol, link, lam_opt, lam_opt).rate
        endpoint = max(endpoint, _rel_err(float(probe.rate[-1]), anchor))
    checks["lambda_minimization"] = _summary(scenarios, failures, worst, endpoint)

    # nu1/nu2 region classification on asymmetric links.
    failures, disagreements = 0, 0
    for _ in range(scenarios):
        link = _draw_asym_link(rng)
        chi = (link.beta ** 2 / link.alpha) * rng.uniform(1.05, 4.0)
        verdict = classify_nu_regions(link, chi)
        disagreements += not verdict.agree
    checks["classify_nu_regions"] = {
        "scenarios": scenarios,
        "failures": disagreements,
        "pass": disagreements == 0,
    }

    return {
        "seed": seed,
        "scenarios": scenarios,
        "samples": samples,
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks.values()),
    }
