"""Independent reference values for the benchmark's output checks.

Rates come from the 50-digit mpmath oracle in ``tests/mp_oracle.py``,
imported read-only; the helpers here only pick the oracle formula that
applies to a link pair and handle the one point the oracle cannot
evaluate (the lossless corner tau_a = tau_b = 1 under thermal knowledge,
where lam = 0 and the exact rate is xi * log2(mu / 4)).  Inputs are the
exact floats the program received, so the comparison measures the
program's arithmetic and nothing else.
"""

from __future__ import annotations

import math

import mp_oracle as oracle
import mpmath as mp

REL_TOL = 1e-9
"""Relative bound of acceptance criterion 1: |a - b| / max(1, |a|, |b|)."""


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def close_printed(field: str, ref) -> bool:
    """A CSV field printed at 9 significant digits agrees with ``ref``
    within REL_TOL plus half a unit in its last printed digit."""
    value, ref = float(field), float(ref)
    if ref == 0.0:
        return value == 0.0
    half_digit = 0.5 * 10.0 ** (math.floor(math.log10(abs(ref))) - 8)
    return abs(value - ref) <= REL_TOL * max(1.0, abs(ref)) + half_digit


def lattice(lo: float, hi: float, n: int) -> list[float]:
    """Evenly spaced points from lo to hi, both ends exact."""
    return [lo + (hi - lo) * i / (n - 1) for i in range(n - 1)] + [hi]


def chi_equivalent(tau_a: float, tau_b: float, epsilon: float) -> mp.mpf:
    """2 beta / alpha + epsilon, exact to 50 digits, so that the entropy
    arguments that equal 1 at tau = 1 do not round below 1."""
    return oracle.chi_equivalent(tau_a, tau_b, epsilon)


def min_chi_defined(tau_a: float, tau_b: float, chi) -> bool:
    """Where the worst-case rate at known chi is finite: above the pole
    at chi = 4 on symmetric links, at or above the loss floor
    beta^2 / alpha otherwise."""
    if tau_a == tau_b:
        return chi > 4.0
    ta, tb = mp.mpf(tau_a), mp.mpf(tau_b)
    return chi >= (ta + tb) ** 2 / (ta * tb)


def _h(x: mp.mpf) -> mp.mpf:
    """``oracle.h`` with arguments within 1e-40 below 1 taken as 1: with
    no excess noise the entropy arguments at tau = 1 are exactly 1 and
    50-digit rounding can land just below, where ``oracle.h`` raises."""
    if 1 - mp.mpf(10) ** -40 < x < 1:
        x = mp.mpf(1)
    return oracle.h(x)


def rate_min_chi(xi: float, mu: float, tau_a: float, tau_b: float, chi) -> float:
    """``oracle.rate_min_chi_sym`` / ``rate_min_chi_asym``; the asymmetric
    form is written out here to evaluate its entropies through ``_h``."""
    if tau_a == tau_b:
        return float(oracle.rate_min_chi_sym(xi, mu, chi))
    xi, mu = mp.mpf(xi), mp.mpf(mu)
    ta, tb = mp.mpf(tau_a), mp.mpf(tau_b)
    alpha, beta, dt = ta * tb, ta + tb, abs(ta - tb)
    return float(mp.log(2 * beta * mu ** (xi - 1) / (mp.e * dt * chi ** xi), 2)
                 + _h(ta * chi / beta - 1)
                 - _h((alpha * chi - beta ** 2) / (dt * beta)))


def g_max(omega_a: float, omega_b: float) -> mp.mpf:
    return oracle.g_max(omega_a, omega_b)


def lam_opt(tau_a: float, tau_b: float, omega_a: float, omega_b: float, gm: mp.mpf) -> mp.mpf:
    ta, tb = mp.mpf(tau_a), mp.mpf(tau_b)
    kappa = (1 - ta) * omega_a + (1 - tb) * omega_b
    return kappa + 2 * mp.sqrt((1 - ta) * (1 - tb)) * gm


def rate_min_thermal(
    xi: float, mu: float, tau_a: float, tau_b: float,
    omega_a: float, omega_b: float, gm: mp.mpf,
) -> float:
    """Oracle worst-case rate at known thermal noise, with g_max passed
    in so a sweep computes it once."""
    lam = lam_opt(tau_a, tau_b, omega_a, omega_b, gm)
    if tau_a == tau_b:
        if lam == 0:
            return float(mp.mpf(xi) * mp.log(mp.mpf(mu) / 4, 2))
        return float(oracle.rate_sym_closed(xi, mu, tau_a, lam, lam))
    return float(oracle.rate_general(xi, mu, tau_a, tau_b, lam, lam))


def thermal_chi(tau_a: float, tau_b: float, lam: mp.mpf) -> float:
    """Equivalent noise beta (beta + lam) / alpha on the bisector."""
    ta, tb = mp.mpf(tau_a), mp.mpf(tau_b)
    return float((ta + tb) * (ta + tb + lam) / (ta * tb))


def rate_at(
    xi: float, mu: float, tau_a: float, tau_b: float,
    omega_a: float, omega_b: float, g: float, g_prime: float,
) -> float:
    """Oracle general rate against the ancilla (omega_a, omega_b, g, g')."""
    ta, tb = mp.mpf(tau_a), mp.mpf(tau_b)
    kappa = (1 - ta) * omega_a + (1 - tb) * omega_b
    u = 2 * mp.sqrt((1 - ta) * (1 - tb))
    lam = kappa - u * mp.mpf(g)
    lam_prime = kappa + u * mp.mpf(g_prime)
    if tau_a == tau_b:
        return float(oracle.rate_sym_closed(xi, mu, tau_a, lam, lam_prime))
    return float(oracle.rate_general(xi, mu, tau_a, tau_b, lam, lam_prime))
