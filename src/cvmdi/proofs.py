"""Numerical certification of the rate-minimization arguments.

Each verifier takes 1-D arrays of links and parameters, one scenario per
row (a single link is a one-row call), and checks the claimed sign
conditions row by row: monotone growth of the rate in the off-bisector
variable y under both knowledge models, positivity of the bounding
functions F / L / A and of p'(y), the nu1/nu2 region classification, and
monotone decrease of the rate in the effective noise lam.  The two
monotonicity checks and the lam check sample along their variable as one
(scenario x sample) array and hold the traces, rows x samples, with each
row's sample count or mask; p' and the nu1/nu2 ordering are signs of
functions linear in y, decided exactly at y_min.  Results hold per-row
margins and verdicts; ``protocol.xi`` may be a column of one xi per row.
The suite reads its scenarios, in order, from one seeded stream.

Strict inequalities are tested with slack ``STRICT_SLACK`` so rounding at
non-strict boundary points does not fail a verdict; the margins themselves
are reported so callers can see how far from zero the checks sit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .core import (
    LOG2E,
    SYMMETRIC_TAU_TOL,
    DomainError,
    EmptyDomainError,
    ProtocolParams,
    SymmetricDegenerateError,
    effective_noise,
    entropy_h,
    equivalent_chi,
    excess_chi,
    g_max,
    log_ratio_g,
    require,
    require_count,
    require_unit,
    uniform_rows,
)
from .attack import _chi_profiles, _thermal_profiles, chi_y_domain
from .keyrate import min_thermal_noise, rate_kernel

STRICT_SLACK = 1e-10
"""Allowed rounding noise on strictly-positive checks."""

READ_SIZE = 256
"""Doubles the suite's reader takes from its generator in one read."""


class _Probe:
    """A probe's pass rule: a row passes where its ``worst_margin`` clears
    ``-STRICT_SLACK``."""

    @property
    def verdict(self) -> np.ndarray:
        return self.worst_margin > -STRICT_SLACK


@dataclass(frozen=True)
class MonotoneProbe(_Probe):
    """Sampled rate profiles plus the sign margins extracted from them.

    Each row of ``y`` and ``rate`` holds its ``count`` profile samples
    first, in order (the rest repeats its first sample); ``skipped``
    counts the samples left out.  ``diffs`` are consecutive rate
    differences (claimed positive) and ``diff_mask`` marks those a row
    checks: none on a ``degenerate`` row (u = 0, y frozen), which passes
    trivially.  ``bound`` is the sampled bounding function named by
    ``bound_label`` (F for fixed thermal noise on symmetric lossy links,
    empty where there is none; L for fixed chi on symmetric links, A on
    asymmetric links), claimed positive where ``bound_mask`` holds.  The
    nu traces are NaN on rows without a bound.  ``worst_margin`` is the
    smallest of a row's margins."""

    y: np.ndarray
    rate: np.ndarray
    count: np.ndarray
    skipped: np.ndarray
    diff_mask: np.ndarray
    nu1: np.ndarray
    nu2: np.ndarray
    nu3: np.ndarray | None
    bound: np.ndarray
    bound_mask: np.ndarray
    bound_label: np.ndarray
    worst_margin: np.ndarray
    degenerate: np.ndarray

    @property
    def diffs(self) -> np.ndarray:
        return np.diff(self.rate, axis=1)


@dataclass(frozen=True)
class PositivityProbe(_Probe):
    """A function claimed positive on its domain, decided per row at ``y``."""

    y: np.ndarray
    worst_margin: np.ndarray


@dataclass(frozen=True)
class LambdaProbe(_Probe):
    """Rate versus the effective noise lam on the anticorrelation
    bisector and its entropy part; the logarithmic part is
    ``rate - h_part``."""

    lam: np.ndarray
    h_part: np.ndarray
    rate: np.ndarray
    worst_margin: np.ndarray


@dataclass(frozen=True)
class RegionVerdict:
    """Predicted versus observed ordering of nu1 and nu2 on the fixed-chi
    domain, each as the sign of nu1 - nu2: -1 means a region with
    nu1 < nu2 exists (it sits at the lower end of the domain), 0 that chi
    sits on the threshold, 1 that nu1 > nu2 throughout.  ``chi_threshold``
    is NaN where tau_a >= 2 tau_b, which has none."""

    predicted: np.ndarray
    observed: np.ndarray
    chi_threshold: np.ndarray
    min_gap: np.ndarray

    @property
    def agree(self) -> np.ndarray:
        return self.predicted == self.observed


def _chi_nus(tau_a, tau_b, chi, y):
    """(a1, a2, nu1, nu2) on the fixed-chi domain, where nu1 = sqrt(b1 - a1 y)
    and nu2 = sqrt(b2 - a2 y), each clamped at 0; one scenario per row of
    ``y``, whose link and chi are 1-D arrays."""
    tau_a, tau_b, chi = tau_a[:, None], tau_b[:, None], chi[:, None]
    alpha, beta, dtau = tau_a * tau_b, tau_a + tau_b, abs(tau_a - tau_b)
    # dtau^2 is beta^2 - 4 alpha without its cancellation; symmetric rows take
    # alpha = beta^2 / 4, which gives their a2 = 8 / beta and b2 = chi^2/4 + 4
    denom = np.where(dtau < SYMMETRIC_TAU_TOL, alpha, dtau ** 2)
    a1, b1 = 2.0 / tau_b, 1.0 + tau_a ** 2 * chi ** 2 / beta ** 2
    a2, b2 = 2.0 * beta / denom, (beta * beta + alpha ** 2 * chi ** 2 / beta ** 2) / denom
    nu1 = np.sqrt(np.maximum(b1 - a1 * y, 0.0))
    return a1, a2, nu1, np.sqrt(np.maximum(b2 - a2 * y, 0.0))


def _row_min(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    return np.where(mask, values, np.inf).min(axis=1, initial=np.inf)


def _margins(prof, bound, mask, extra, extra_mask):
    """Per row of the profiles ``prof``: the worst of its rate differences
    (none if degenerate: u = 0 or y frozen), ``bound`` margins where
    ``mask`` holds and ``extra`` margins where ``extra_mask`` holds; whether
    it is degenerate; and the mask of its checked differences."""
    n = prof.count[:, None]
    degenerate = (n < 2) | (np.take_along_axis(prof.y, n - 1, axis=1) == prof.y[:, :1])
    diff_mask = (np.arange(prof.y.shape[1] - 1) < n - 1) & ~degenerate
    worst = np.minimum(_row_min(np.diff(prof.rate, axis=1), diff_mask),
                       np.minimum(_row_min(bound, mask), _row_min(extra, extra_mask)))
    return worst, degenerate[:, 0], diff_mask


def verify_monotone_thermal(
    protocol: ProtocolParams, tau_a, tau_b, omega_a, omega_b, l, samples: int = 200
) -> MonotoneProbe:
    """Monotonicity of the rate in y = u^2 d'^2 at fixed thermal noise and
    fixed bisector coordinate l, one scenario per element of the 1-D
    arrays ``tau_a`` ... ``l``.

    On symmetric lossy links the probe also evaluates the bounding
    function F(y) = log2(e)/nu3 - g(nu1)/2 and requires F > 0 as well as
    F(y) >= F(0) on the sampled range (the increasing-F property that
    makes the monotonicity argument work).
    """
    prof = _thermal_profiles(protocol, tau_a, tau_b, omega_a, omega_b, l, samples)
    valid = np.arange(samples) < prof.count[:, None]
    has = (abs(tau_a - tau_b) < SYMMETRIC_TAU_TOL) & (tau_a < 1.0) & (tau_b < 1.0)
    nu1, nu2, nu3, bound = np.full((4,) + prof.y.shape, np.nan)
    delta = effective_noise(tau_a, tau_b, omega_a, omega_b, l, -l)[0][has, None]
    tau = 0.5 * (tau_a + tau_b)[has, None]
    y = prof.y[has]
    nu1[has] = np.sqrt((tau + delta) ** 2 - y) / tau
    nu3[has] = n3 = np.sqrt(np.maximum(delta * delta - y, 0.0)) / tau
    chi_y = 2.0 * np.sqrt((2.0 * tau + delta) ** 2 - y) / tau
    xi = protocol.xi if np.ndim(protocol.xi) == 0 else protocol.xi[has]
    nu2[has] = protocol.mu ** (1.0 - xi) * chi_y ** xi
    bound[has] = LOG2E / np.where(n3 > 0.0, n3, np.inf) - 0.5 * log_ratio_g(nu1[has])
    mask = valid & has[:, None]
    worst, degenerate, diff_mask = _margins(  # with F(y) >= F(0)
        prof, bound, mask, bound[:, 1:] - bound[:, :1], mask[:, 1:])
    return MonotoneProbe(prof.y, prof.rate, prof.count, prof.skipped, diff_mask, nu1, nu2,
                         nu3, bound, mask, np.where(has, "F", ""), worst, degenerate)


def verify_monotone_chi(
    protocol: ProtocolParams, tau_a, tau_b, chi, samples: int = 200
) -> MonotoneProbe:
    """Monotonicity of the rate in y = sqrt(u^2 d'^2 + (alpha chi/beta)^2)
    at fixed equivalent noise, one scenario per element of the 1-D arrays
    ``tau_a``, ``tau_b`` and ``chi``.

    Also samples the bounding function behind the monotonicity argument:
    L(y) (claimed positive) on symmetric links, A(y) (claimed nonnegative
    wherever nu1 < nu2) on asymmetric links.
    """
    prof = _chi_profiles(protocol, tau_a, tau_b, chi, samples)
    sym = abs(tau_a - tau_b) < SYMMETRIC_TAU_TOL
    valid = np.arange(samples) < prof.count[:, None]
    a1, a2, nu1, nu2 = _chi_nus(tau_a, tau_b, chi, prof.y)
    s = sym[:, None]
    crossing = nu1 < nu2
    ok = valid & ~s & crossing & (nu1 > 1.0) & (nu2 > 1.0)
    g1, g2 = np.zeros_like(nu1), np.zeros_like(nu2)
    at = valid & s | ok
    g1[at] = log_ratio_g(nu1[at])
    g2[ok] = log_ratio_g(nu2[ok])
    # symmetric: L(y) > 0, claimed on the open interior (nu2 can round to 0
    # at the last admissible sample); asymmetric: A(y) >= 0 where nu1 < nu2
    bound = np.where(s, a2 * LOG2E / np.where(nu2 > 0.0, nu2, 1.0) - 0.5 * a1 * g1,
                     (a2 * nu1 * nu1 - a1 * nu2 * nu2) - (a2 * nu1 - a1 * nu2))
    mask = valid & np.where(s, nu2 > 0.0, crossing)
    # in the crossing regime the comparison function D = d(nu1) - d(nu2)
    # with d(x) = (x - 1) log2((x+1)/(x-1)) must stay negative
    worst, degenerate, diff_mask = _margins(
        prof, bound, mask, (nu2 - 1.0) * g2 - (nu1 - 1.0) * g1, ok)
    return MonotoneProbe(prof.y, prof.rate, prof.count, prof.skipped, diff_mask, nu1, nu2,
                         None, bound, mask, np.where(sym, "L", "A"), worst, degenerate)


def classify_nu_regions(tau_a, tau_b, chi) -> RegionVerdict:
    """Predicted-versus-observed ordering of nu1 and nu2, one asymmetric
    link per element of the 1-D arrays ``tau_a``, ``tau_b`` and ``chi``.

    Prediction follows the case table: tau_a >= 2 tau_b implies nu1 > nu2
    everywhere; otherwise a region with nu1 < nu2 exists exactly when chi
    clears the threshold beta (3 tau_b - tau_a + |dtau|) /
    (tau_a (2 tau_b - tau_a)).  Observation is exact at y_min: nu1^2 -
    nu2^2 is linear in y and, at y_max, where nu2 = 0, equals tau_a (tau_a^2
    tau_b chi^2 - beta^3) / (beta^3 tau_b) > 0 for chi >= beta^2 / alpha, so
    such a region is [y_min, y*) if nu1 < nu2 at y_min and empty otherwise;
    (nu1 - nu2)' = 2 p' > 0 puts ``min_gap`` there.  Within ~1e-9 of the
    threshold a classification resolves to "equal".
    """
    y_min = chi_y_domain(tau_a, tau_b, chi)[0]
    if (abs(tau_a - tau_b) < SYMMETRIC_TAU_TOL).any():
        raise SymmetricDegenerateError("region classification requires tau_a != tau_b")
    beta, dtau = tau_a + tau_b, abs(tau_a - tau_b)
    crossing = tau_a < 2.0 * tau_b
    threshold = np.where(crossing, beta * (3.0 * tau_b - tau_a + dtau) / (
        tau_a * np.where(crossing, 2.0 * tau_b - tau_a, 1.0)), np.nan)
    predicted = np.where(~crossing, 1, np.where(
        abs(chi - threshold) <= 1e-9 * threshold, 0, np.where(chi > threshold, -1, 1)))
    _, _, nu1, nu2 = _chi_nus(tau_a, tau_b, chi, y_min[:, None])
    min_gap = (nu1 - nu2)[:, 0]
    observed = (min_gap > 1e-9).astype(int) - (min_gap < -1e-9)
    return RegionVerdict(predicted, observed, threshold, min_gap)


def verify_p_prime_positive(tau_a, tau_b, chi) -> PositivityProbe:
    """Positivity of p'(y) = (a2 nu1 - a1 nu2) / (4 nu1 nu2) on the
    fixed-chi domain [y_min, y_max), one scenario per element of the 1-D
    arrays ``tau_a``, ``tau_b`` and ``chi``, decided exactly at y_min: p'
    has the sign of a2^2 nu1^2 - a1^2 nu2^2, linear in y and positive at
    y_max (:func:`classify_nu_regions`).  Where p' > 0 it grows in y (p'' > 0
    where nu1 >= nu2, a2 > a1 where nu1 < nu2), so ``worst_margin`` =
    p'(y_min) is its least value.  :class:`EmptyDomainError` where chi is on
    the loss floor (y_max <= y_min, or nu2 rounds to 0 at y_min)."""
    y_min, y_max = chi_y_domain(tau_a, tau_b, chi)
    a1, a2, nu1, nu2 = (x[:, 0] for x in _chi_nus(tau_a, tau_b, chi, y_min[:, None]))
    empty = (y_max <= y_min) | (nu2 == 0.0)
    if empty.any():
        raise EmptyDomainError(f"chi = {chi[empty][0]} on the loss floor leaves p' no domain")
    return PositivityProbe(y_min, (a2 * nu1 - a1 * nu2) / (4.0 * nu1 * nu2))


def verify_lambda_minimization(
    protocol: ProtocolParams, tau_a, tau_b, lambda_max, samples: int = 100
) -> LambdaProbe:
    """Monotone decrease of the bisector rate in the effective noise lam,
    hence a minimum at lam = lambda_max, one scenario per element of the
    1-D arrays ``tau_a``, ``tau_b`` and ``lambda_max``.

    The rate comes from the array kernel and is split into the entropy
    part H = h(nu) (minus h(lam / |dtau|) on asymmetric links) and the
    logarithmic part L = rate - H; on asymmetric links the convexity of H
    (positive second differences) is checked alongside the decrease of
    the rate.
    """
    require_count("samples", samples, 2)
    require_unit("tau_a", tau_a)
    require_unit("tau_b", tau_b)
    require(np.isfinite(lambda_max), "lambda_max", "be finite", lambda_max)
    dt = abs(tau_a - tau_b)
    lo = dt + 1e-9
    bad = lambda_max <= lo
    if bad.any():
        raise DomainError(
            f"lambda_max = {lambda_max[bad][0]} must exceed |dtau| = {dt[bad][0]}")
    lams = np.linspace(lo, lambda_max, samples).T
    ta, tb = tau_a[:, None], tau_b[:, None]
    chi = equivalent_chi(ta, tb, lams, lams)
    rate, nu = rate_kernel(protocol.mu, protocol.xi, ta, tb, lams, lams, chi)
    h_part = entropy_h(nu)
    asym = dt >= SYMMETRIC_TAU_TOL
    h_part[asym] -= entropy_h(lams[asym] / dt[asym, None])
    convexity = np.where(asym[:, None], np.diff(h_part, 2, axis=1), np.inf)
    worst = np.minimum((-np.diff(rate, axis=1)).min(axis=1),
                       convexity.min(axis=1, initial=np.inf))
    return LambdaProbe(lams, h_part, rate, worst)


def _uniforms(rng: np.random.Generator):
    """The uniform [0, 1) doubles of ``rng``'s stream as Python floats, in
    stream order, read ``READ_SIZE`` at a time: scaled as lo + (hi - lo) u,
    each is the number one ``rng.uniform(lo, hi)`` call would draw there."""
    while True:
        yield from rng.random(READ_SIZE).tolist()


def _draw_links(stream, scenarios: int, sym_hi: float | None, *ranges):
    """(tau_a, tau_b, one array per (lo, hi) in ``ranges``), read from the
    doubles ``stream`` per scenario in this order: a link, then one number per
    range.  The link is symmetric, tau uniform in [0.55, sym_hi), on even
    scenarios if ``sym_hi`` is given; otherwise (tau_a, tau_b) is uniform
    in [0.3, 0.999), redrawn as a pair until |dtau| >= 0.02."""
    lo, span, rows = 0.3, 0.999 - 0.3, []
    for i in range(scenarios):
        if sym_hi is not None and i % 2 == 0:
            ta = tb = 0.55 + (sym_hi - 0.55) * next(stream)
        else:
            while True:
                ta, tb = lo + span * next(stream), lo + span * next(stream)
                if abs(ta - tb) >= 0.02:
                    break
        rows.append((ta, tb, *islice(stream, len(ranges))))
    rows = np.array(rows)
    return (*rows[:, :2].T, *uniform_rows(rows[:, 2:], *ranges))


def _summary(probe: _Probe) -> dict:
    """One check's report entry from its probe's per-scenario verdicts."""
    failures = int((~probe.verdict).sum())
    return {"scenarios": probe.worst_margin.size, "failures": failures,
            "worst_margin": float(probe.worst_margin.min()), "pass": failures == 0}


def _monotone_thermal_check(stream, protocol: ProtocolParams, samples: int) -> dict:
    """Fixed thermal noise: symmetric links, random bisector slice."""
    n = protocol.xi.size
    tau, wa, wb, u = uniform_rows(np.fromiter(islice(stream, 4 * n), float).reshape(n, 4),
                                  (0.55, 0.95), (1.1, 5.0), (1.1, 5.0), (-0.85, 0.5))
    probe = verify_monotone_thermal(protocol, tau, tau, wa, wb, u * g_max(wa, wb), samples)
    return _summary(probe)


def _monotone_chi_check(stream, protocol: ProtocolParams, samples: int) -> dict:
    """Fixed equivalent noise, alternating symmetric/asymmetric links."""
    ta, tb, epsilon = _draw_links(stream, protocol.xi.size, 0.999, (0.01, 0.8))
    return _summary(verify_monotone_chi(protocol, ta, tb, excess_chi(ta, tb, epsilon), samples))


def _p_prime_check(stream, scenarios: int) -> dict:
    """p'(y) positivity on asymmetric links."""
    ta, tb, epsilon = _draw_links(stream, scenarios, None, (0.01, 1.0))
    return _summary(verify_p_prime_positive(ta, tb, excess_chi(ta, tb, epsilon)))


def _lambda_check(stream, protocol: ProtocolParams, samples: int) -> dict:
    """Minimization over lam, alternating symmetric/asymmetric links; the
    lam endpoint is the worst-case noise lam_opt of a random thermal
    environment."""
    ta, tb, wa, wb = _draw_links(stream, protocol.xi.size, 0.95, (1.1, 5.0), (1.1, 5.0))
    dt = abs(ta - tb)
    lam_opt = min_thermal_noise(ta, tb, wa, wb)[0]
    lam_opt = np.where(lam_opt <= dt + 2e-9, dt + 0.5, lam_opt)
    return _summary(verify_lambda_minimization(protocol, ta, tb, lam_opt, samples))


def _region_check(stream, scenarios: int) -> dict:
    """nu1/nu2 region classification on asymmetric links."""
    ta, tb, factor = _draw_links(stream, scenarios, None, (1.05, 4.0))
    chi = (ta + tb) ** 2 / (ta * tb) * factor
    failures = int((~classify_nu_regions(ta, tb, chi).agree).sum())
    return {"scenarios": scenarios, "failures": failures, "pass": failures == 0}


def run_verification_suite(
    seed: int = 7, scenarios: int = 100, samples: int = 200
) -> dict:
    """Run every verifier over randomized admissible scenarios.

    Returns a JSON-ready report with per-check failure counts and the worst
    margin seen where the check has margins.  Each check, in its own
    function, draws all its scenarios, derives their parameters as arrays,
    then calls its verifier once over all of them: the protocol's xi is a
    column, 1 on even scenarios and 0.97 on odd ones, at phi = 60.
    ``samples`` (integer >= 2) sets the two monotonicity profiles and the
    lam probe; p' and the region classification are decided at y_min and
    take none.  ``scenarios`` must be an integer >= 1.  ``seed``
    (integer >= 0) seeds the suite's own generator, whose doubles the checks
    take in turn from one :func:`_uniforms` reader: the numbers of one
    ``rng.uniform`` call per quantity and scenario, as no one else draws.
    """
    require_count("seed", seed, 0)
    require_count("scenarios", scenarios, 1)
    require_count("samples", samples, 2)
    stream = _uniforms(np.random.default_rng(seed))
    xi = np.where(np.arange(scenarios) % 2, 0.97, 1.0)[:, None]
    protocol = ProtocolParams(xi=xi)
    checks = {
        "monotone_thermal": _monotone_thermal_check(stream, protocol, samples),
        "monotone_chi": _monotone_chi_check(stream, protocol, samples),
        "p_prime_positive": _p_prime_check(stream, scenarios),
        "lambda_minimization": _lambda_check(stream, protocol, samples),
        "classify_nu_regions": _region_check(stream, scenarios),
    }
    return {
        "seed": seed,
        "scenarios": scenarios,
        "samples": samples,
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks.values()),
    }
