"""Secret-key-rate formulas for the dual-homodyne relay protocol.

Every path evaluates one rate kernel, :func:`rate_kernel`:

    R = log2(2 beta mu^(xi-1) / (e chi^xi s)) + h(nu) - tail(|dtau| / s),
    s = sqrt(lam lam'),  nu = sqrt((tau_a + lam)(tau_a + lam')) / tau_b,

with tail(r) = h(1/r) + log2(r) (:func:`cvmdi.core.entropy_tail`).  This
is the asymmetric closed form with its log2(1/|dtau|) cancelled against
h(s/|dtau|) analytically, so it holds no 1/|dtau| term: it stays accurate
as |dtau| -> 0 and at dtau = 0, where tail(0) = log2(e/2), it is exactly
the symmetric closed form.  Its domain is lam, lam' > 0 with
sqrt(lam lam') >= |dtau|; the one special case is lossless symmetric
links (lam = lam' = 0 at dtau = 0), where the adversary is decoupled and
R = xi log2(mu / 4).

The public functions only pick (lam, lam', chi) through the noise algebra
of :mod:`cvmdi.core` and check the domain, and return a
:class:`KeyRateReport` in bits per relay use (negative rates are reported
unclamped and flagged via ``secure``): the general rate :func:`key_rate`
against an explicit ancilla, the closed forms :func:`key_rate_closed_sym`
/ :func:`key_rate_closed_asym` at given (lam, lam'), and the worst cases
:func:`key_rate_min_thermal` (known thermal noises) and
:func:`key_rate_min_chi` (known equivalent noise chi).

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
    DerivedNoise,
    DomainError,
    LinkPair,
    NonphysicalStateError,
    ProtocolParams,
    bisector_lam,
    derive_noise,
    effective_noise,
    entropy_h,
    entropy_tail,
    equivalent_chi,
    g_max,
    is_physical,
)


@dataclass(frozen=True)
class KeyRateReport:
    """Rate plus the intermediates that produced it.

    ``rate = xi * i_ab - i_ea`` holds on every path; ``secure`` is simply
    ``rate > 0``.  The kernel's nu is reported as ``nu1`` on symmetric
    links and as ``nu`` otherwise; ``nu2`` is lam / |dtau| on the
    asymmetric minimized-chi path.
    """

    rate: float
    i_ab: float
    i_ea: float
    chi: float
    secure: bool
    formula_tag: str
    nu: float | None = None
    nu1: float | None = None
    nu2: float | None = None
    nu3: float | None = None


def rate_kernel(mu, xi, tau_a, tau_b, lam, lam_prime, chi):
    """(R, nu) of the module-level kernel formula, elementwise over numpy
    arrays that broadcast together (``tau_a``/``tau_b`` may be floats).
    Every element must lie inside :func:`in_domain`; nothing is checked
    here."""
    s = np.sqrt(lam * lam_prime)
    nu = np.sqrt((tau_a + lam) * (tau_a + lam_prime)) / tau_b
    rate = (
        np.log2(2.0 * (tau_a + tau_b) * mu ** (xi - 1.0) / (math.e * chi ** xi * s))
        + entropy_h(nu)
        - entropy_tail(abs(tau_a - tau_b) / s)
    )
    return rate, nu


def in_domain(tau_a, tau_b, lam, lam_prime):
    """Where :func:`rate_kernel` is defined: lam, lam' > 0 and
    sqrt(lam lam') >= |dtau|, the last within the entropy clamp slack.
    Works on floats and elementwise on arrays.  (nu >= 1 follows:
    (tau_a + lam)(tau_a + lam') >= (tau_a + s)^2 >= tau_b^2.)"""
    floor = abs(tau_a - tau_b) * (1.0 - H_CLAMP_TOL)
    return (lam > 0.0) & (lam_prime > 0.0) & (lam * lam_prime >= floor * floor)


def min_thermal_noise(tau_a, tau_b, omega_a, omega_b):
    """(lam_opt, chi_opt) of :func:`key_rate_min_thermal` on floats or arrays
    of links: the noise lam_opt = kappa + u g_max at the anticorrelated
    physicality boundary (g, g') = (-g_max, g_max), and its chi."""
    gm = g_max(omega_a, omega_b)
    lam = effective_noise(tau_a, tau_b, omega_a, omega_b, -gm, gm)[0]
    return lam, equivalent_chi(tau_a, tau_b, lam, lam)


def _kernel_at(mu, xi, link: LinkPair, lam, lam_prime, chi) -> tuple[float, float]:
    """:func:`rate_kernel` at one point inside :func:`in_domain`, run on
    1-element arrays."""
    if not in_domain(link.tau_a, link.tau_b, lam, lam_prime):
        raise DomainError(
            f"rate undefined at lam = {lam}, lam' = {lam_prime}: needs "
            f"lam, lam' > 0 and sqrt(lam lam') >= |dtau| = {link.delta_tau}"
        )
    rate, nu = rate_kernel(
        mu, xi, link.tau_a, link.tau_b, *np.atleast_1d(lam, lam_prime, chi)
    )
    return float(rate[0]), float(nu[0])


def _report(
    protocol: ProtocolParams,
    link: LinkPair,
    lam: float,
    lam_prime: float,
    chi: float,
    tag: str,
    nu2: float | None = None,
) -> KeyRateReport:
    mu, xi = protocol.mu, protocol.xi
    if lam == 0.0 and lam_prime == 0.0 and link.delta_tau == 0.0:
        # lossless symmetric links: the adversary is decoupled
        i_ab = mutual_information(mu, 4.0)
        rate = xi * i_ab
        return KeyRateReport(
            rate=rate, i_ab=i_ab, i_ea=0.0, chi=4.0,
            secure=rate > 0.0, formula_tag=tag, nu1=1.0,
        )
    rate, nu = _kernel_at(mu, xi, link, lam, lam_prime, chi)
    i_ab = mutual_information(mu, chi)
    nus = {"nu1": nu} if link.is_symmetric else {"nu": nu}
    return KeyRateReport(
        rate=rate, i_ab=i_ab, i_ea=xi * i_ab - rate, chi=chi,
        secure=rate > 0.0, formula_tag=tag, nu2=nu2, **nus,
    )


def mutual_information(mu: float, chi: float) -> float:
    """Shared information of the honest parties: log2(mu / chi)."""
    if chi <= 0.0:
        raise DomainError(f"chi must be > 0, got {chi}")
    if mu <= 0.0:
        raise DomainError(f"mu must be > 0, got {mu}")
    return math.log2(mu / chi)


def eve_holevo(link: LinkPair, noise: DerivedNoise, mu: float) -> float:
    """Holevo bound on the adversary's information about Alice's raw key:

    h(sqrt(lam lam') / |dtau|) + log2(e |dtau| mu / (2 beta)) - h(nu),
    nu = sqrt((tau_a + lam)(tau_a + lam')) / tau_b.

    Since R = xi * I_AB - I_EA, this is minus the kernel rate at xi = 0,
    which keeps it accurate as |dtau| -> 0 and defined at dtau = 0.
    """
    return -_kernel_at(mu, 0.0, link, noise.lam, noise.lam_prime, noise.chi)[0]


def key_rate(
    protocol: ProtocolParams, link: LinkPair, ancilla: AncillaState
) -> KeyRateReport:
    """General rate xi * I_AB - I_EA against an explicit attack ancilla,
    which must be physical.  Symmetric links are tagged
    ``symmetric-closed``, the form the kernel takes there."""
    if not is_physical(ancilla):
        raise NonphysicalStateError(
            f"attack covariance is not physical: {ancilla}"
        )
    noise = derive_noise(link, ancilla)
    tag = "symmetric-closed" if link.is_symmetric else "general"
    return _report(protocol, link, noise.lam, noise.lam_prime, noise.chi, tag)


def key_rate_closed_sym(
    protocol: ProtocolParams, tau: float, lam: float, lam_prime: float
) -> KeyRateReport:
    """Closed form for symmetric links tau_a = tau_b = tau:

    R = log2(8 tau mu^(xi-1) / (e^2 chi^xi sqrt(lam lam'))) + h(nu1),
    nu1 = sqrt((tau + lam)(tau + lam')) / tau.

    lam = lam' = 0 (lossless links, adversary decoupled) degenerates to
    R = xi log2(mu / 4).
    """
    link = LinkPair(tau, tau)
    chi = equivalent_chi(tau, tau, lam, lam_prime)
    return _report(protocol, link, lam, lam_prime, chi, "symmetric-closed")


def key_rate_closed_asym(
    protocol: ProtocolParams, link: LinkPair, lam: float, lam_prime: float
) -> KeyRateReport:
    """Closed form for any link pair:

    R = log2(2 beta mu^(xi-1) / (e |dtau| chi^xi))
        + h(nu) - h(sqrt(lam lam') / |dtau|),

    evaluated as the kernel, so it is also defined at dtau = 0, where it
    equals :func:`key_rate_closed_sym`.
    """
    chi = equivalent_chi(link.tau_a, link.tau_b, lam, lam_prime)
    return _report(protocol, link, lam, lam_prime, chi, "asymmetric-closed")


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
    tag = "min-thermal-symmetric" if link.is_symmetric else "min-thermal-asymmetric"
    return _report(protocol, link, lam_opt, lam_opt, chi, tag)


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
    if link.is_symmetric:
        return _report(protocol, link, lam, lam, chi, "min-chi-symmetric")
    return _report(
        protocol, link, lam, lam, chi, "min-chi-asymmetric", nu2=lam / link.delta_tau
    )
