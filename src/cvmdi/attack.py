"""Worst-case search over the adversary's ancilla correlations.

A two-stage brute-force minimization of the general rate over the physical
correlation square certifies that the analytic minimized formulas are true
lower envelopes.  The coarse pass scans the full square (both sectors, so
the bisector symmetry is checked rather than assumed).  The refinement
pass re-grids a small window centred on the coarse argmin's projection
onto the bisector g = -g'; the g' axis is the exact mirror image of the g
axis, so the refined lattice is symmetric about the bisector even where
the window is clipped at the edge of the square.  Grid rates come from the
one rate kernel (:func:`cvmdi.keyrate.rate_kernel`) on the physical and
admissible lattice points, with the physicality test and noise algebra of
:mod:`cvmdi.core`; the reported minimum is re-evaluated through
:func:`cvmdi.keyrate.key_rate`, which runs the same code on the single
ancilla and reports its intermediates.  The thermal rate profiles run
through the same lattice evaluation.

Lattice points that are physical but outside the kernel's domain
(:func:`cvmdi.keyrate.in_domain`: sqrt(lam lam') below |dtau|, or a
nonpositive effective noise) are excluded from the argmin and counted in
``n_skipped``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    AncillaState,
    DomainError,
    EmptyDomainError,
    LinkPair,
    ProtocolParams,
    attack_coords,
    effective_noise,
    equivalent_chi,
    g_max,
    is_physical,
)
from .keyrate import in_domain, key_rate, key_rate_min_thermal, rate_kernel


REFINE_MARGIN = 2
"""Coarse cells spanned by the refinement window on each side of its centre."""


@dataclass(frozen=True)
class AttackGrid:
    """Resolution of the two-stage search.  ``n`` points per axis on the
    coarse pass, ``refine_n`` on the refinement window, which spans
    ``REFINE_MARGIN`` coarse cells on each side of the coarse argmin.
    Odd counts keep the bisector on lattice points."""

    n: int = 201
    refine_n: int = 801

    def __post_init__(self) -> None:
        for name, n in (("n", self.n), ("refine_n", self.refine_n)):
            if n < 3 or n % 2 == 0:
                raise ValueError(f"{name} must be odd and >= 3, got {n}")


@dataclass(frozen=True)
class ArgMinReport:
    """Outcome of the brute-force minimization."""

    g_star: float
    g_prime_star: float
    rate_star: float
    bisector_distance: float
    analytic_rate: float
    gap: float
    g_max: float
    gmax_distance: float
    cell_size: float
    n_evaluated: int
    n_skipped: int


@dataclass(frozen=True)
class RateProfile:
    """Rate sampled along the monotonicity variable y.  Inadmissible or
    nonphysical sample points are omitted and counted in ``skipped``."""

    mode: str
    y: np.ndarray
    d_prime: np.ndarray
    rate: np.ndarray
    skipped: int


def physical_bounds(omega_a: float, omega_b: float) -> tuple[float, float]:
    """Bounding interval [-sqrt(omega_a omega_b), +sqrt(omega_a omega_b)]
    of the physical correlation region; applies to each of g and g'."""
    if omega_a < 1.0 or omega_b < 1.0:
        raise ValueError("ancilla variances must be >= 1 SNU")
    b = math.sqrt(omega_a * omega_b)
    return -b, b


def _axis(lo: float, hi: float, n: int) -> np.ndarray:
    # Mirror-build symmetric axes so 0 and +-v pairs are exact lattice points.
    if lo == -hi:
        half = np.linspace(0.0, hi, (n + 1) // 2)
        return np.concatenate([-half[:0:-1], half])
    return np.linspace(lo, hi, n)


def _grid_rates(
    protocol: ProtocolParams,
    link: LinkPair,
    omega_a: float,
    omega_b: float,
    g: np.ndarray,
    gp: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized general rate over correlation arrays.

    Returns (rates, physical mask, admissible mask); the kernel runs only
    where physical & admissible, with the physicality test and noise
    algebra of :func:`cvmdi.keyrate.key_rate`, and rates are +inf elsewhere.
    """
    ta, tb = link.tau_a, link.tau_b
    physical = is_physical(AncillaState(omega_a, omega_b, g, gp))
    lam, lam_prime = effective_noise(ta, tb, omega_a, omega_b, g, gp)
    admissible = in_domain(ta, tb, lam, lam_prime)
    mask = physical & admissible
    lam, lam_prime = lam[mask], lam_prime[mask]
    chi = equivalent_chi(ta, tb, lam, lam_prime)
    rates = np.full(g.shape, np.inf)
    rates[mask] = rate_kernel(protocol.mu, protocol.xi, ta, tb, lam, lam_prime, chi)[0]
    return rates, physical, admissible


def _argmin_tiebreak(
    g: np.ndarray, gp: np.ndarray, rates: np.ndarray, mask: np.ndarray
) -> tuple[float, float]:
    idx = np.flatnonzero(mask.ravel())
    vals = rates.ravel()[idx]
    ties = idx[vals == vals.min()]
    gr, gpr = g.ravel(), gp.ravel()
    best = min(ties, key=lambda k: (abs(gr[k] + gpr[k]), gr[k], gpr[k]))
    return float(gr[best]), float(gpr[best])


def min_rate_brute(
    protocol: ProtocolParams,
    link: LinkPair,
    omega_a: float,
    omega_b: float,
    grid: AttackGrid | None = None,
) -> ArgMinReport:
    """Brute-force minimum of the general rate over physical (g, g').

    Coarse scan over the full physicality bounding box, then a
    ``refine_n``-point-per-axis refinement on a window centred on the
    coarse argmin's projection onto the bisector.  Ties are broken toward
    the bisector (smaller |g + g'|), then lexicographically.
    """
    if grid is None:
        grid = AttackGrid()
    lo, hi = physical_bounds(omega_a, omega_b)
    axis = _axis(lo, hi, grid.n)
    g, gp = np.meshgrid(axis, axis, indexing="ij")
    rates, physical, admissible = _grid_rates(protocol, link, omega_a, omega_b, g, gp)
    mask = physical & admissible
    if not mask.any():
        raise EmptyDomainError(
            "no admissible lattice point in the physical correlation region"
        )
    n_eval = int(mask.sum())
    n_skip = int((physical & ~admissible).sum())
    g0, gp0 = _argmin_tiebreak(g, gp, rates, mask)

    # Centre the window on the argmin's projection onto the bisector and
    # mirror the g axis into the g' axis, so clipping at the edge of the
    # square cannot tilt the refined lattice off the bisector.
    gc = attack_coords(g0, gp0).l
    half = REFINE_MARGIN * (axis[1] - axis[0])
    ax_g = np.linspace(max(lo, gc - half), min(hi, gc + half), grid.refine_n)
    ax_gp = -ax_g[::-1]
    rg, rgp = np.meshgrid(ax_g, ax_gp, indexing="ij")
    rrates, rphys, radm = _grid_rates(protocol, link, omega_a, omega_b, rg, rgp)
    rmask = rphys & radm
    n_eval += int(rmask.sum())
    n_skip += int((rphys & ~radm).sum())
    if rmask.any():
        g_star, gp_star = _argmin_tiebreak(rg, rgp, rrates, rmask)
    else:  # refinement window can miss the physical region only in
        g_star, gp_star = g0, gp0  # pathological single-point domains

    rate_star = key_rate(
        protocol, link, AncillaState(omega_a, omega_b, g_star, gp_star)
    ).rate
    analytic = key_rate_min_thermal(protocol, link, omega_a, omega_b).rate
    gm = g_max(omega_a, omega_b)
    cell_size = float(ax_g[1] - ax_g[0])
    return ArgMinReport(
        g_star=g_star,
        g_prime_star=gp_star,
        rate_star=rate_star,
        bisector_distance=attack_coords(g_star, gp_star).d,
        analytic_rate=analytic,
        gap=rate_star - analytic,
        g_max=gm,
        gmax_distance=abs(abs(g_star) - gm),
        cell_size=cell_size,
        n_evaluated=n_eval,
        n_skipped=n_skip,
    )


def _physical_dprime_max(omega_a: float, omega_b: float, l: float) -> float:
    """Largest d' >= 0 keeping the ancilla (d' + l, d' - l) physical.

    With X = d'^2 and m = omega_a omega_b, nu_minus >= 1 reads
    det - Delta + 1 = X^2 - 2 b X + c >= 0 with b = l^2 + m + 1 and
    c = (m - 1 - l^2)^2 - (omega_a - omega_b)^2, so the boundary is the
    smaller root X1 = c / (b + sqrt(b^2 - c)), where
    b^2 - c = 4 m l^2 + (omega_a + omega_b)^2 has no cancellation.
    """
    if not is_physical(AncillaState(omega_a, omega_b, l, -l)):
        return 0.0
    m = omega_a * omega_b
    c = (m - 1.0 - l * l) ** 2 - (omega_a - omega_b) ** 2
    root = math.sqrt(4.0 * m * l * l + (omega_a + omega_b) ** 2)
    return math.sqrt(max(c / (l * l + m + 1.0 + root), 0.0))


def chi_y_domain(link: LinkPair, chi: float) -> tuple[float, float]:
    """Range of the fixed-chi variable y: y_min = alpha chi / beta and y_max =
    (y_min^2 + beta^2) / (2 beta); :class:`DomainError` below the loss floor."""
    alpha, beta = link.alpha, link.beta
    if chi < beta * beta / alpha:
        raise DomainError(
            f"chi = {chi} below the loss floor beta^2/alpha = {beta * beta / alpha}"
        )
    y_min = alpha * chi / beta
    return y_min, (y_min * y_min + beta * beta) / (2.0 * beta)


def rate_profile_y(
    protocol: ProtocolParams,
    link: LinkPair,
    *,
    omegas: tuple[float, float] | None = None,
    l: float | None = None,
    chi: float | None = None,
    samples: int = 200,
) -> RateProfile:
    """Rate along the monotonicity variable y at d' >= 0.

    Fixed-thermal mode (pass ``omegas`` and ``l``): the bisector
    projection l is held, d' varies, y = u^2 d'^2.  The samples are the
    general rate at the ancillas (d' + l, d' - l), evaluated as one
    lattice; nonphysical points are skipped, and so are points outside the
    kernel's domain unless :func:`cvmdi.keyrate.key_rate` defines them
    (lossless symmetric links).

    Fixed-chi mode (pass ``chi``): y = sqrt(u^2 d'^2 + (alpha chi / beta)^2)
    runs over :func:`chi_y_domain`; the samples come from the array kernel
    at lam = delta -+ u d', with delta = y - beta, and samples outside its
    domain are skipped.

    When u = 0 the variable y is frozen and the profile is constant.
    Samples are log-spaced toward the d' = 0 endpoint, which is always
    included exactly.
    """
    if samples < 2:
        raise ValueError("samples must be >= 2")
    if (omegas is None) == (chi is None):
        raise ValueError("pass exactly one of omegas+l (thermal) or chi")

    if omegas is not None:
        if l is None:
            raise ValueError("thermal mode requires the bisector coordinate l")
        wa, wb = omegas
        u = link.u
        delta = effective_noise(link.tau_a, link.tau_b, wa, wb, l, -l)[0]
        if delta <= 0.0 and u > 0.0:
            raise DomainError(f"delta = kappa - u l = {delta} must be positive")
        d_phys = _physical_dprime_max(wa, wb, l)
        if u == 0.0:
            d_primes = np.linspace(0.0, d_phys if d_phys > 0.0 else 1.0, samples)
        else:
            d_cap = min(delta / u, d_phys) * (1.0 - 1e-9)
            if d_cap <= 0.0:
                d_primes = np.array([0.0])
            else:
                d_primes = np.concatenate(
                    [[0.0], np.geomspace(d_cap * 1e-4, d_cap, samples - 1)]
                )
        rates, physical, admissible = _grid_rates(
            protocol, link, wa, wb, d_primes + l, d_primes - l
        )
        ok = physical & admissible
        for k in np.flatnonzero(physical & ~admissible):
            ancilla = AncillaState(wa, wb, d_primes[k] + l, d_primes[k] - l)
            try:
                rates[k] = key_rate(protocol, link, ancilla).rate
            except DomainError:
                continue
            ok[k] = True
        if not ok.any():
            raise EmptyDomainError("no admissible sample on the thermal profile")
        ds = d_primes[ok]
        return RateProfile(
            mode="thermal",
            y=u * u * ds * ds,
            d_prime=ds,
            rate=rates[ok],
            skipped=int((~ok).sum()),
        )

    beta, u = link.beta, link.u
    y_min, y_max = chi_y_domain(link, chi)
    span = y_max - y_min  # zero only at chi exactly on the loss floor
    if u == 0.0 or span <= 0.0:
        y_vals = np.full(1, y_min)
    else:
        y_vals = y_min + np.concatenate(
            [[0.0], np.geomspace(span * 1e-8, span, samples - 1)]
        )
    # y = beta + delta and u d' = sqrt(y^2 - y_min^2), so lam = delta -+ u d'
    ud = np.sqrt(np.maximum(y_vals * y_vals - y_min * y_min, 0.0))
    lam = y_vals - beta - ud
    lam_prime = y_vals - beta + ud
    ok = in_domain(link.tau_a, link.tau_b, lam, lam_prime)
    if not ok.any():
        raise EmptyDomainError("no admissible sample on the fixed-chi profile")
    rate, _ = rate_kernel(
        protocol.mu, protocol.xi, link.tau_a, link.tau_b, lam[ok], lam_prime[ok], chi
    )
    return RateProfile(
        mode="chi",
        y=y_vals[ok],
        d_prime=(ud / u if u > 0.0 else ud)[ok],
        rate=rate,
        skipped=int((~ok).sum()),
    )
