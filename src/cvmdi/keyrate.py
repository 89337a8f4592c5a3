"""Secret-key-rate formulas for the dual-homodyne relay protocol.

Every path evaluates one rate kernel, :func:`rate_kernel`, the asymmetric
closed form (Pirandola et al., arXiv:1312.4104):

    R = log2(2 beta mu^(xi-1) / (e chi^xi)) + h(nu) - [h(nu2) + log2|dtau|],
    nu = sqrt((tau_a + lam)(tau_a + lam')) / tau_b,  nu2 = s / |dtau|,
    s = sqrt(lam lam').

The bracket is :func:`cvmdi.core.entropy_scaled` at (s, |dtau|), written
without a 1/|dtau| term: it stays accurate as |dtau| -> 0 and at dtau = 0
it is log2(e s / 2), where the kernel is exactly the symmetric closed
form.  Its domain is lam, lam' > 0 with |dtau| <= sqrt(lam lam') < inf.
Outside it only the :func:`decoupled` point (lossless symmetric links,
lam = lam' = 0 at dtau = 0) has a rate, R = xi log2(mu / 4)
(:func:`decoupled_rate`).  Array callers run the kernel on whole arrays:
:func:`park`, the domain's one array form, moves the points outside it inside.

The kernel and the formulas around it take and return numpy arrays only,
so that lattices of links broadcast.  The single-point API converts once,
at its report: it picks (lam, lam', chi) through the noise algebra of
:mod:`cvmdi.core`, runs the kernel on 1-element arrays, through the same
numpy loops as a lattice, and returns a :class:`KeyRateReport` of
Python floats in bits per relay use (negative rates unclamped, flagged by
``secure``), so a sweep cell equals the single-point call bit for
bit.  Its paths are the worst cases :func:`key_rate_min_thermal` (known
thermal noises) and :func:`key_rate_min_chi` (known equivalent noise chi);
neither branches on whether the link is symmetric.  Alice's raw key is
always the reference; swapping tau_a and tau_b evaluates the opposite
reference choice.  The formulas assume the large-modulation regime, so mu
enters only through mu^(xi-1) and the mutual information.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    H_CLAMP_TOL,
    DomainError,
    LinkPair,
    ProtocolParams,
    as_point,
    bisector_lam,
    effective_noise,
    entropy_h,
    entropy_scaled,
    equivalent_chi,
    g_max,
)


@dataclass(frozen=True, kw_only=True)
class KeyRateReport:
    """Rate plus the intermediates that produced it, in ``rate``'s JSON order.

    ``rate = xi * i_ab - i_ea`` holds on every path, and ``i_ea`` is the
    Holevo bound on the adversary's information about Alice's raw key;
    ``secure`` is simply ``rate > 0``.  ``nu`` is the kernel's nu (1 at the
    :func:`decoupled` point), and ``nu2 = sqrt(lam lam') / |dtau|`` is the
    kernel's nu2, None at dtau = 0.
    """

    chi: float
    rate: float
    i_ab: float
    i_ea: float
    nu: float
    nu2: float | None
    secure: bool


def rate_kernel(mu, xi, tau_a, tau_b, lam, lam_prime, chi, out=None):
    """(R, nu) of the module-level kernel formula, elementwise over numpy
    arrays that broadcast together (``tau_a``/``tau_b`` may be floats).
    Every element must lie inside :func:`in_domain`; nothing is checked
    here.  ``out``: six float arrays, as for the array formulas of
    :mod:`cvmdi.core`."""
    o_rate, o_nu, o_s, *o_h = out or (None,) * 6
    s = np.sqrt(np.multiply(lam, lam_prime, out=o_s), out=o_s)
    nu = np.multiply(np.add(tau_a, lam, out=o_nu), np.add(tau_a, lam_prime, out=o_h[1]), out=o_nu)
    nu = np.divide(np.sqrt(nu, out=o_nu), tau_b, out=o_nu)
    # log2(2 beta mu^(xi-1) / (e chi^xi)) + h(nu) - entropy_scaled(s, |dtau|)
    rate = np.multiply(math.e, np.power(chi, xi, out=o_rate), out=o_rate)
    rate = np.divide(2.0 * (tau_a + tau_b) * mu ** (xi - 1.0), rate, out=o_rate)
    rate = np.add(np.log2(rate, out=o_rate), entropy_h(nu, out=o_h), out=o_rate)
    rate = np.subtract(rate, entropy_scaled(s, abs(tau_a - tau_b), out=o_h), out=o_rate)
    return rate, nu


def in_domain(tau_a, tau_b, lam, lam_prime, out=None):
    """Where :func:`rate_kernel` is defined: lam > 0, lam lam' > 0 (so
    lam' > 0, and an underflowed product is outside) and
    |dtau| <= sqrt(lam lam') < inf, the first bound within the entropy clamp
    slack, elementwise.  (nu >= 1 follows: (tau_a + lam)(tau_a + lam') >=
    (tau_a + s)^2 >= tau_b^2.)  ``out``: one float array, for lam lam'."""
    floor = abs(tau_a - tau_b) * (1.0 - H_CLAMP_TOL)
    (o_s2,) = out or (None,)
    with np.errstate(over="ignore"):  # an overflowed product is inf, outside the domain
        s2 = np.multiply(lam, lam_prime, out=o_s2)
    return (lam > 0.0) & (s2 > 0.0) & (s2 >= floor * floor) & (s2 < math.inf)


def park(tau_a, tau_b, lam, lam_prime, ok=True, out=None):
    """The kernel's domain on arrays: ``off = ~(ok & in_domain)``, returned for the
    caller to mask the kernel's rates, with lam = lam' = |dtau| + 1 set there in
    place (in the domain, nu >= 1, chi finite).  ``out``: in_domain's float array."""
    off = in_domain(tau_a, tau_b, lam, lam_prime, out)
    np.invert(np.logical_and(off, ok, out=off), out=off)
    for x in (lam, lam_prime):
        np.copyto(x, abs(tau_a - tau_b) + 1.0, where=off)
    return off


def decoupled(tau_a, tau_b, lam, lam_prime):
    """Where the adversary is decoupled: lam = lam' = 0 at dtau = 0 (lossless
    symmetric links), outside :func:`in_domain`; elementwise."""
    return (lam == 0.0) & (lam_prime == 0.0) & (tau_a == tau_b)


def decoupled_rate(mu, xi):
    """Rate xi log2(mu / 4) at :func:`decoupled` points (chi = 4, I_EA = 0)."""
    return xi * mutual_information(mu, 4.0)


def min_thermal_noise(tau_a, tau_b, omega_a, omega_b):
    """(lam_opt, chi_opt) of :func:`key_rate_min_thermal` on arrays of
    links: the noise lam_opt = kappa + u g_max at the anticorrelated
    physicality boundary (g, g') = (-g_max, g_max), and its chi."""
    gm = g_max(omega_a, omega_b)
    lam = effective_noise(tau_a, tau_b, omega_a, omega_b, -gm, gm)[0]
    return lam, equivalent_chi(tau_a, tau_b, lam, lam)


def _report(protocol: ProtocolParams, tau_a, tau_b, lam, lam_prime, chi) -> KeyRateReport:
    """The report at one point, given as 1-element arrays, in Python floats:
    :func:`rate_kernel`, or the :func:`decoupled` rate; a
    :class:`DomainError` anywhere else."""
    ta, tb, x, y = (float(v[0]) for v in (tau_a, tau_b, lam, lam_prime))
    if in_domain(tau_a, tau_b, lam, lam_prime)[0]:
        chi, rate, nu = (float(v[0]) for v in (chi, *rate_kernel(
            protocol.mu, protocol.xi, tau_a, tau_b, lam, lam_prime, chi)))
    elif decoupled(tau_a, tau_b, lam, lam_prime)[0]:  # then i_ea = 0.0 exactly
        chi, rate, nu = 4.0, decoupled_rate(protocol.mu, protocol.xi), 1.0
    else:
        raise DomainError(f"rate undefined at lam = {x}, lam' = {y}: needs lam, lam' > 0 "
                          f"and sqrt(lam lam') >= |dtau| = {abs(ta - tb)}")
    i_ab, dtau = mutual_information(protocol.mu, chi), abs(ta - tb)
    return KeyRateReport(
        chi=chi, rate=rate, i_ab=i_ab, i_ea=protocol.xi * i_ab - rate, nu=nu,
        nu2=math.sqrt(x * y) / dtau if dtau else None, secure=rate > 0.0,
    )


def mutual_information(mu: float, chi: float) -> float:
    """Shared information of the honest parties: log2(mu / chi)."""
    if chi <= 0.0:
        raise DomainError(f"chi must be > 0, got {chi}")
    if mu <= 0.0:
        raise DomainError(f"mu must be > 0, got {mu}")
    return math.log2(mu / chi)


def key_rate_min_thermal(
    protocol: ProtocolParams, link: LinkPair, omega_a: float, omega_b: float
) -> KeyRateReport:
    """Worst-case rate when the thermal noises are known: the kernel at
    the minimum over all physical correlations, on the anticorrelation
    bisector at the physicality boundary, lam = lam' = lam_opt = kappa +
    u |g|_max, with chi_opt = beta (beta + lam_opt) / alpha
    (:func:`min_thermal_noise`)."""
    ta, tb = as_point(link.tau_a, link.tau_b)
    lam_opt, chi = min_thermal_noise(ta, tb, omega_a, omega_b)
    return _report(protocol, ta, tb, lam_opt, lam_opt, chi)


def key_rate_min_chi(
    protocol: ProtocolParams, link: LinkPair, chi: float
) -> KeyRateReport:
    """Worst-case rate when the equivalent noise chi is known: the kernel
    at lam = lam' = (alpha chi - beta^2) / beta (:func:`cvmdi.core.bisector_lam`),
    on symmetric links h((chi - 2)/2) + log2(16 mu^(xi-1) / (e^2 chi^xi
    (chi - 4))).  Its pole is the loss floor chi = beta^2 / alpha (4 on
    symmetric links); at or below it, a :class:`DomainError`."""
    ta, tb, c = as_point(link.tau_a, link.tau_b, chi)
    lam = bisector_lam(ta, tb, c)
    if lam[0] <= 0.0:
        raise DomainError(
            f"chi = {chi} is not above the loss floor beta^2/alpha = "
            f"{link.beta * link.beta / link.alpha}, where the rate formula has its pole"
        )
    return _report(protocol, ta, tb, lam, lam, c)
