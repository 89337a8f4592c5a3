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
(:func:`decoupled_rate`).

The public functions only pick (lam, lam', chi) through the noise algebra
of :mod:`cvmdi.core` and check the domain, and return a
:class:`KeyRateReport` in bits per relay use (negative rates are reported
unclamped and flagged via ``secure``): the general rate :func:`key_rate`
against an explicit ancilla, the closed form :func:`key_rate_closed` at
given (lam, lam'), and the worst cases :func:`key_rate_min_thermal` (known
thermal noises) and :func:`key_rate_min_chi` (known equivalent noise chi).
None of them branches on whether the link is symmetric, and all of them
return the same report shape.

The kernel is written once, in numpy, and takes the links as (tau_a,
tau_b) so that lattices of links broadcast.  Single points run it on
1-element arrays, through the same numpy loops as lattices, so a sweep
cell equals the single-point call bit for bit (the sweep tests check it).
Alice's raw key is always the reference; swapping tau_a and tau_b
evaluates the opposite reference choice.  The formulas assume
the large-modulation regime, so mu enters only through mu^(xi-1) and the
mutual information.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    H_CLAMP_TOL,
    AncillaState,
    DomainError,
    LinkPair,
    NonphysicalStateError,
    ProtocolParams,
    bisector_lam,
    derive_noise,
    effective_noise,
    entropy_h,
    entropy_scaled,
    equivalent_chi,
    g_max,
    is_physical,
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
    here.  ``out``: six float arrays and one boolean array, as for the
    array formulas of :mod:`cvmdi.core`."""
    o_rate, o_nu, o_s, *o_h = out or (None,) * 7
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
    """Where :func:`rate_kernel` is defined: lam, lam' > 0 and
    |dtau| <= sqrt(lam lam') < inf, the first bound within the entropy clamp
    slack.  Works on floats and elementwise on arrays.  (nu >= 1 follows:
    (tau_a + lam)(tau_a + lam') >= (tau_a + s)^2 >= tau_b^2.)  ``out``: one
    float array and two boolean ones."""
    o_s2, o_ok, o_flag = out or (None,) * 3
    floor = abs(tau_a - tau_b) * (1.0 - H_CLAMP_TOL)
    with np.errstate(over="ignore"):  # an overflowed product is inf, outside the domain
        s2 = np.multiply(lam, lam_prime, out=o_s2)
    ok = np.logical_and(np.greater(lam, 0.0, out=o_ok), np.greater(lam_prime, 0.0, out=o_flag),
                        out=o_ok)
    ok = np.logical_and(ok, np.greater_equal(s2, floor * floor, out=o_flag), out=o_ok)
    ok = np.logical_and(ok, np.less(s2, math.inf, out=o_flag), out=o_ok)
    return ok if np.ndim(ok) else bool(ok)


def decoupled(tau_a, tau_b, lam, lam_prime):
    """Where the adversary is decoupled: lam = lam' = 0 at dtau = 0 (lossless
    symmetric links), outside :func:`in_domain`; floats or arrays."""
    return (lam == 0.0) & (lam_prime == 0.0) & (tau_a == tau_b)


def decoupled_rate(mu, xi):
    """Rate xi log2(mu / 4) at :func:`decoupled` points (chi = 4, I_EA = 0)."""
    return xi * mutual_information(mu, 4.0)


def min_thermal_noise(tau_a, tau_b, omega_a, omega_b):
    """(lam_opt, chi_opt) of :func:`key_rate_min_thermal` on floats or arrays
    of links: the noise lam_opt = kappa + u g_max at the anticorrelated
    physicality boundary (g, g') = (-g_max, g_max), and its chi."""
    gm = g_max(omega_a, omega_b)
    lam = effective_noise(tau_a, tau_b, omega_a, omega_b, -gm, gm)[0]
    return lam, equivalent_chi(tau_a, tau_b, lam, lam)


def _report(
    protocol: ProtocolParams, link: LinkPair, lam: float, lam_prime: float, chi: float
) -> KeyRateReport:
    """The report at one point: :func:`rate_kernel` on 1-element arrays, or
    the :func:`decoupled` rate; a :class:`DomainError` anywhere else."""
    mu, xi = protocol.mu, protocol.xi
    if decoupled(link.tau_a, link.tau_b, lam, lam_prime):  # then i_ea = 0.0 exactly
        chi, rate, nu = 4.0, decoupled_rate(mu, xi), 1.0
    elif in_domain(link.tau_a, link.tau_b, lam, lam_prime):
        rate, nu = (float(x[0]) for x in rate_kernel(
            mu, xi, link.tau_a, link.tau_b, *np.atleast_1d(lam, lam_prime, chi)))
    else:
        raise DomainError(
            f"rate undefined at lam = {lam}, lam' = {lam_prime}: needs "
            f"lam, lam' > 0 and sqrt(lam lam') >= |dtau| = {link.delta_tau}"
        )
    i_ab = mutual_information(mu, chi)
    dtau = link.delta_tau
    return KeyRateReport(
        chi=chi, rate=rate, i_ab=i_ab, i_ea=xi * i_ab - rate, nu=nu,
        nu2=math.sqrt(lam * lam_prime) / dtau if dtau else None, secure=rate > 0.0,
    )


def mutual_information(mu: float, chi: float) -> float:
    """Shared information of the honest parties: log2(mu / chi)."""
    if chi <= 0.0:
        raise DomainError(f"chi must be > 0, got {chi}")
    if mu <= 0.0:
        raise DomainError(f"mu must be > 0, got {mu}")
    return math.log2(mu / chi)


def key_rate(
    protocol: ProtocolParams, link: LinkPair, ancilla: AncillaState
) -> KeyRateReport:
    """General rate xi * I_AB - I_EA against an explicit attack ancilla,
    which must be physical."""
    if not is_physical(ancilla):
        raise NonphysicalStateError(
            f"attack covariance is not physical: {ancilla}"
        )
    noise = derive_noise(link, ancilla)
    return _report(protocol, link, noise.lam, noise.lam_prime, noise.chi)


def key_rate_closed(
    protocol: ProtocolParams, link: LinkPair, lam: float, lam_prime: float
) -> KeyRateReport:
    """Closed form at given effective noises (lam, lam'), on any link pair:

    R = log2(2 beta mu^(xi-1) / (e |dtau| chi^xi))
        + h(nu) - h(sqrt(lam lam') / |dtau|),

    evaluated as the kernel, so it is also defined at dtau = 0, where with
    tau_a = tau_b = tau it is the symmetric form

    R = log2(8 tau mu^(xi-1) / (e^2 chi^xi sqrt(lam lam'))) + h(nu),
    nu = sqrt((tau + lam)(tau + lam')) / tau,

    and lam = lam' = 0 (lossless links, adversary decoupled) degenerates to
    R = xi log2(mu / 4).
    """
    chi = equivalent_chi(link.tau_a, link.tau_b, lam, lam_prime)
    return _report(protocol, link, lam, lam_prime, chi)


def key_rate_min_thermal(
    protocol: ProtocolParams, link: LinkPair, omega_a: float, omega_b: float
) -> KeyRateReport:
    """Worst-case rate when the thermal noises are known.

    The minimum over all physical correlations sits on the anticorrelation
    bisector at the physicality boundary, lam = lam' = lam_opt = kappa +
    u |g|_max, with chi_opt = beta (beta + lam_opt) / alpha.  On symmetric
    links this is

    R = h((tau + lam_opt)/tau) + log2(8 tau mu^(xi-1) / (e^2 chi_opt^xi lam_opt)),

    and on asymmetric links the asymmetric closed form at lam_opt.
    """
    lam_opt, chi = min_thermal_noise(link.tau_a, link.tau_b, omega_a, omega_b)
    return _report(protocol, link, lam_opt, lam_opt, chi)


def key_rate_min_chi(
    protocol: ProtocolParams, link: LinkPair, chi: float
) -> KeyRateReport:
    """Worst-case rate when the equivalent noise chi is known, at
    lam = lam' = (alpha chi - beta^2) / beta.  On symmetric links (pole at
    the loss floor chi = 4):

    R = h((chi - 2)/2) + log2(16 mu^(xi-1) / (e^2 chi^xi (chi - 4))).

    On asymmetric links:

    R = log2(2 beta mu^(xi-1) / (e |dtau| chi^xi))
        + h(tau_a chi / beta - 1) - h((alpha chi - beta^2) / (|dtau| beta)).
    """
    lam = bisector_lam(link.tau_a, link.tau_b, chi)
    if lam <= 0.0:
        raise DomainError(
            f"chi = {chi} is not above the loss floor beta^2/alpha = "
            f"{link.beta * link.beta / link.alpha}, where the rate formula has its pole"
        )
    return _report(protocol, link, lam, lam, chi)
