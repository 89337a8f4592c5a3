"""High-precision (mpmath) reference implementations of the rate formulas.

Everything here is written directly from the closed-form expressions at 50
decimal digits, independently of the float implementation in the package.
The test suite uses these functions to freeze expected values and, in the
acceptance tests, to recompute reference rates at runtime before comparing
against the package output.
"""

import mpmath as mp

mp.mp.dps = 50

TWO = mp.mpf(2)


H_CLAMP_TOL = mp.mpf("1e-12")
"""Same slack as cvmdi.core.H_CLAMP_TOL: float arguments that are exactly 1
(tau_b = 1 at epsilon = 0) can round just below it."""


def _digits(x):
    """Working digits for a difference of two terms that are about x times
    larger than itself: the module's digits plus log10(x) of them."""
    return mp.mp.dps + 5 + max(0, int(mp.log10(x)))


def h(x):
    """((x+1)/2) log2((x+1)/2) - ((x-1)/2) log2((x-1)/2), with h(1) = 0;
    arguments within H_CLAMP_TOL below 1 are taken as 1.  The subtraction
    cancels about log10(x) digits, which the working precision adds."""
    x = mp.mpf(x)
    if x < 1 - H_CLAMP_TOL:
        raise ValueError(f"h undefined below 1, got {x}")
    if x <= 1:
        return mp.mpf(0)
    with mp.workdps(_digits(x)):
        a = (x + 1) / 2
        b = (x - 1) / 2
        return a * mp.log(a, 2) - b * mp.log(b, 2)


def log_ratio(x):
    """log2((x+1)/(x-1)) for x > 1; the ratio rounds toward 1 by about
    log10(x) digits, which the working precision adds."""
    x = mp.mpf(x)
    with mp.workdps(_digits(x)):
        return mp.log((x + 1) / (x - 1), 2)


def chi_equivalent(tau_a, tau_b, epsilon):
    tau_a, tau_b = mp.mpf(tau_a), mp.mpf(tau_b)
    return 2 * (tau_a + tau_b) / (tau_a * tau_b) + mp.mpf(epsilon)


def lam_from_chi(tau_a, tau_b, chi):
    alpha = mp.mpf(tau_a) * mp.mpf(tau_b)
    beta = mp.mpf(tau_a) + mp.mpf(tau_b)
    return alpha * mp.mpf(chi) / beta - beta


def chi_from_lams(tau_a, tau_b, lam, lam_prime):
    alpha = mp.mpf(tau_a) * mp.mpf(tau_b)
    beta = mp.mpf(tau_a) + mp.mpf(tau_b)
    return beta / alpha * mp.sqrt((beta + mp.mpf(lam)) * (beta + mp.mpf(lam_prime)))


def holevo_eve(mu, tau_a, tau_b, lam, lam_prime):
    """Eve's information about Alice's raw key (asymmetric links only)."""
    mu, ta, tb = mp.mpf(mu), mp.mpf(tau_a), mp.mpf(tau_b)
    lam, lamp = mp.mpf(lam), mp.mpf(lam_prime)
    dt = abs(ta - tb)
    nu = mp.sqrt((ta + lam) * (ta + lamp)) / tb
    return (h(mp.sqrt(lam * lamp) / dt)
            + mp.log(mp.e * dt * mu / (2 * (ta + tb)), 2)
            - h(nu))


def rate_general(xi, mu, tau_a, tau_b, lam, lam_prime):
    """xi * log2(mu/chi) minus the Holevo term, chi from the noise relation."""
    chi = chi_from_lams(tau_a, tau_b, lam, lam_prime)
    i_ab = mp.log(mp.mpf(mu) / chi, 2)
    return mp.mpf(xi) * i_ab - holevo_eve(mu, tau_a, tau_b, lam, lam_prime)


def rate_sym_closed(xi, mu, tau, lam, lam_prime):
    xi, mu, tau = mp.mpf(xi), mp.mpf(mu), mp.mpf(tau)
    lam, lamp = mp.mpf(lam), mp.mpf(lam_prime)
    chi = chi_from_lams(tau, tau, lam, lamp)
    nu1 = mp.sqrt((tau + lam) * (tau + lamp)) / tau
    return (mp.log(8 * tau * mu ** (xi - 1)
                   / (mp.e ** 2 * chi ** xi * mp.sqrt(lam * lamp)), 2)
            + h(nu1))


def rate_asym_closed(xi, mu, tau_a, tau_b, lam, lam_prime):
    xi, mu = mp.mpf(xi), mp.mpf(mu)
    ta, tb = mp.mpf(tau_a), mp.mpf(tau_b)
    lam, lamp = mp.mpf(lam), mp.mpf(lam_prime)
    dt = abs(ta - tb)
    chi = chi_from_lams(ta, tb, lam, lamp)
    nu = mp.sqrt((ta + lam) * (ta + lamp)) / tb
    return (mp.log(2 * (ta + tb) * mu ** (xi - 1) / (mp.e * dt * chi ** xi), 2)
            + h(nu) - h(mp.sqrt(lam * lamp) / dt))


def rate_min_chi_sym(xi, mu, chi):
    xi, mu, chi = mp.mpf(xi), mp.mpf(mu), mp.mpf(chi)
    return (h((chi - 2) / 2)
            + mp.log(16 * mu ** (xi - 1) / (mp.e ** 2 * chi ** xi * (chi - 4)), 2))


def rate_min_chi_asym(xi, mu, tau_a, tau_b, chi):
    xi, mu, chi = mp.mpf(xi), mp.mpf(mu), mp.mpf(chi)
    ta, tb = mp.mpf(tau_a), mp.mpf(tau_b)
    alpha, beta, dt = ta * tb, ta + tb, abs(ta - tb)
    return (mp.log(2 * beta * mu ** (xi - 1) / (mp.e * dt * chi ** xi), 2)
            + h(ta * chi / beta - 1)
            - h((alpha * chi - beta ** 2) / (dt * beta)))


def nu_minus(omega_a, omega_b, g, g_prime):
    """Smaller symplectic eigenvalue, nu_-^2 = 2 det / (Delta + sqrt(Delta^2
    - 4 det)): the sum does not cancel, as (Delta - sqrt(...)) / 2 does once
    Delta >> det.  The differences inside det lose up to log10(Delta)
    digits, which the working precision adds."""
    wa, wb = mp.mpf(omega_a), mp.mpf(omega_b)
    g, gp = mp.mpf(g), mp.mpf(g_prime)
    with mp.workdps(_digits(wa ** 2 + wb ** 2 + 2 * abs(g * gp))):
        delta = wa ** 2 + wb ** 2 + 2 * g * gp
        det = (wa * wb - g ** 2) * (wa * wb - gp ** 2)
        return mp.sqrt(2 * det / (delta + mp.sqrt(delta ** 2 - 4 * det)))


def g_max(omega_a, omega_b):
    """Largest g with nu_minus(omega_a, omega_b, g, -g) >= 1, by bisection."""
    wa, wb = mp.mpf(omega_a), mp.mpf(omega_b)
    if wa == wb:
        return mp.sqrt(wa ** 2 - 1)
    lo, hi = mp.mpf(0), mp.sqrt(wa * wb)
    if nu_minus(wa, wb, lo, -lo) < 1:
        return lo
    for _ in range(200):
        mid = (lo + hi) / 2
        if mid ** 2 < wa * wb and nu_minus(wa, wb, mid, -mid) >= 1:
            lo = mid
        else:
            hi = mid
    return lo


def rate_min_thermal(xi, mu, tau_a, tau_b, omega_a, omega_b):
    """Worst-case rate at fixed thermal noise: the general rate evaluated at
    the anticorrelated physicality boundary (lam = lam' = kappa + u*g_max).
    Lossless links decouple the adversary: xi log2(mu / 4)."""
    ta, tb = mp.mpf(tau_a), mp.mpf(tau_b)
    if ta == tb == 1:
        return mp.mpf(xi) * mp.log(mp.mpf(mu) / 4, 2)
    wa, wb = mp.mpf(omega_a), mp.mpf(omega_b)
    kappa = (1 - ta) * wa + (1 - tb) * wb
    u = 2 * mp.sqrt((1 - ta) * (1 - tb))
    lam_opt = kappa + u * g_max(wa, wb)
    if ta == tb:
        return rate_sym_closed(xi, mu, ta, lam_opt, lam_opt)
    return rate_general(xi, mu, ta, tb, lam_opt, lam_opt)


def chi_y_domain(tau_a, tau_b, chi):
    """(y_min, y_max) of the fixed-chi variable: y_min = alpha chi / beta and
    y_max = (y_min^2 + beta^2) / (2 beta)."""
    ta, tb, chi = mp.mpf(tau_a), mp.mpf(tau_b), mp.mpf(chi)
    beta = ta + tb
    y_min = ta * tb * chi / beta
    return y_min, (y_min ** 2 + beta ** 2) / (2 * beta)


def chi_nus_sq(tau_a, tau_b, chi, y):
    """(a1, a2, nu1^2, nu2^2) on the fixed-chi domain of an asymmetric link:
    nu1^2 = b1 - a1 y with a1 = 2 / tau_b, b1 = 1 + tau_a^2 chi^2 / beta^2,
    and nu2^2 = b2 - a2 y with a2 = 2 beta / dtau^2, b2 = (beta^2 + alpha^2
    chi^2 / beta^2) / dtau^2.  The differences cancel near y_max, so they
    are taken at twice the module's digits."""
    ta, tb, chi, y = mp.mpf(tau_a), mp.mpf(tau_b), mp.mpf(chi), mp.mpf(y)
    with mp.workdps(2 * mp.mp.dps):
        alpha, beta, dt2 = ta * tb, ta + tb, (ta - tb) ** 2
        a1, b1 = 2 / tb, 1 + ta ** 2 * chi ** 2 / beta ** 2
        a2, b2 = 2 * beta / dt2, (beta ** 2 + alpha ** 2 * chi ** 2 / beta ** 2) / dt2
        return a1, a2, b1 - a1 * y, b2 - a2 * y


def p_prime(tau_a, tau_b, chi, y):
    """p'(y) = (a2 nu1 - a1 nu2) / (4 nu1 nu2), the y-derivative of
    (nu1 - nu2) / 2, at a y where nu2 > 0."""
    a1, a2, nu1_sq, nu2_sq = chi_nus_sq(tau_a, tau_b, chi, y)
    nu1, nu2 = mp.sqrt(nu1_sq), mp.sqrt(nu2_sq)
    return (a2 * nu1 - a1 * nu2) / (4 * nu1 * nu2)
