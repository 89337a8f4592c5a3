"""Worst-case search over the adversary's ancilla correlations.

A two-stage brute-force minimization of the general rate over the physical
correlation square certifies that the analytic minimized formulas are true
lower envelopes.  The coarse pass scans the full square (both sectors, so
the bisector symmetry is checked rather than assumed).  The refinement
pass re-grids a small window centred on the coarse argmin's projection
onto the bisector g = -g'; the g' axis is the exact mirror image of the g
axis, so the refined lattice is symmetric about the bisector even where
the window is clipped at the edge of the square.  Grid rates come from the
array backend of the one rate kernel (:func:`cvmdi.keyrate.rate_kernel`),
evaluated only on physical and admissible lattice points; the reported
minimum is re-evaluated through the scalar :func:`cvmdi.keyrate.key_rate`
path so the report matches single-point calls exactly.

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
    PHYSICALITY_TOL,
    AncillaState,
    DomainError,
    EmptyDomainError,
    LinkPair,
    ProtocolParams,
    g_max,
    is_physical,
)
from .keyrate import ARRAY, in_domain, key_rate, key_rate_min_thermal, rate_kernel


@dataclass(frozen=True)
class AttackGrid:
    """Resolution of the two-stage search.  ``n`` points per axis on the
    coarse pass, ``refine_n`` on the refinement window, which spans
    ``refine_margin`` coarse cells on each side of the coarse argmin.
    Odd counts keep the bisector on lattice points."""

    n: int = 201
    refine_n: int = 801
    refine_margin: int = 2

    def __post_init__(self) -> None:
        for name, n in (("n", self.n), ("refine_n", self.refine_n)):
            if n < 3 or n % 2 == 0:
                raise ValueError(f"{name} must be odd and >= 3, got {n}")
        if self.refine_margin < 1:
            raise ValueError("refine_margin must be >= 1")


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


def _physical_mask(
    omega_a: float, omega_b: float, g: np.ndarray, gp: np.ndarray
) -> np.ndarray:
    """Elementwise :func:`cvmdi.core.is_physical` over correlation arrays."""
    m = omega_a * omega_b
    pos = (m - g * g > 0.0) & (m - gp * gp > 0.0)
    delta = omega_a * omega_a + omega_b * omega_b + 2.0 * g * gp
    det = np.where(pos, (m - g * g) * (m - gp * gp), 1.0)
    disc = np.maximum(delta * delta - 4.0 * det, 0.0)
    nu_minus = np.sqrt(np.maximum(0.5 * (delta - np.sqrt(disc)), 0.0))
    return pos & (nu_minus >= 1.0 - PHYSICALITY_TOL)


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
    where physical & admissible, and rates are +inf elsewhere.
    """
    physical = _physical_mask(omega_a, omega_b, g, gp)
    kappa = (1.0 - link.tau_a) * omega_a + (1.0 - link.tau_b) * omega_b
    lam = kappa - link.u * g
    lam_prime = kappa + link.u * gp
    admissible = in_domain(link, lam, lam_prime)
    mask = physical & admissible
    lam, lam_prime = lam[mask], lam_prime[mask]
    chi = link.beta / link.alpha * np.sqrt((link.beta + lam) * (link.beta + lam_prime))
    rates = np.full(g.shape, np.inf)
    rates[mask] = rate_kernel(
        ARRAY, protocol.mu, protocol.xi, link, lam, lam_prime, chi
    )[0]
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
    gc = 0.5 * (g0 - gp0)
    half = grid.refine_margin * (axis[1] - axis[0])
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
        bisector_distance=abs(g_star + gp_star) / math.sqrt(2.0),
        analytic_rate=analytic,
        gap=rate_star - analytic,
        g_max=gm,
        gmax_distance=abs(abs(g_star) - gm),
        cell_size=cell_size,
        n_evaluated=n_eval,
        n_skipped=n_skip,
    )


def _physical_dprime_max(omega_a: float, omega_b: float, l: float) -> float:
    """Largest d' >= 0 keeping the ancilla (d' + l, d' - l) physical."""

    def physical(dp: float) -> bool:
        return is_physical(AncillaState(omega_a, omega_b, dp + l, dp - l))

    if not physical(0.0):
        return 0.0
    lo = 0.0
    hi = math.sqrt(omega_a * omega_b) + abs(l) + 1.0  # positivity surely broken
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if physical(mid):
            lo = mid
        else:
            hi = mid
    return lo


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
    projection l is held, d' varies, y = u^2 d'^2.  Each sample evaluates
    the general rate at the ancilla (d' + l, d' - l); nonphysical or
    inadmissible points are skipped.

    Fixed-chi mode (pass ``chi``): y = sqrt(u^2 d'^2 + (alpha chi / beta)^2)
    runs over [alpha chi / beta, ((alpha chi / beta)^2 + beta^2) / (2 beta)];
    the samples come from the array kernel at lam = delta -+ u d', with
    delta = y - beta, and samples outside its domain are skipped.

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
        kappa = (1.0 - link.tau_a) * wa + (1.0 - link.tau_b) * wb
        u = link.u
        delta = kappa - u * l
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
        ys, ds, rs = [], [], []
        skipped = 0
        for dp in d_primes:
            ancilla_g = dp + l
            ancilla_gp = dp - l
            try:
                ancilla = AncillaState(wa, wb, ancilla_g, ancilla_gp)
                if not is_physical(ancilla):
                    skipped += 1
                    continue
                rep = key_rate(protocol, link, ancilla)
            except DomainError:
                skipped += 1
                continue
            ys.append(u * u * dp * dp)
            ds.append(dp)
            rs.append(rep.rate)
        if not ys:
            raise EmptyDomainError("no admissible sample on the thermal profile")
        return RateProfile(
            mode="thermal",
            y=np.asarray(ys),
            d_prime=np.asarray(ds),
            rate=np.asarray(rs),
            skipped=skipped,
        )

    alpha, beta, u = link.alpha, link.beta, link.u
    if chi < beta * beta / alpha:
        raise DomainError(
            f"chi = {chi} below the loss floor beta^2/alpha = {beta * beta / alpha}"
        )
    y_min = alpha * chi / beta
    y_max = (y_min * y_min + beta * beta) / (2.0 * beta)
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
    ok = in_domain(link, lam, lam_prime)
    if not ok.any():
        raise EmptyDomainError("no admissible sample on the fixed-chi profile")
    rate, _ = rate_kernel(
        ARRAY, protocol.mu, protocol.xi, link, lam[ok], lam_prime[ok], chi
    )
    return RateProfile(
        mode="chi",
        y=y_vals[ok],
        d_prime=(ud / u if u > 0.0 else ud)[ok],
        rate=rate,
        skipped=int((~ok).sum()),
    )
