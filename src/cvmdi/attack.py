"""Worst-case search over the adversary's ancilla correlations.

A brute-force minimization of the general rate over the physical
correlation square certifies that the analytic minimized formulas are true
lower envelopes.  The coarse pass scans the full square.  Each zoom level
re-grids a window centred on the previous argmin's projection onto the
bisector g = -g'; the g' axis is the exact mirror image of the g axis, so
every level is symmetric about the bisector even where the window is
clipped at the edge of the square.  The mirror (g, g') -> (-g', -g) swaps
lam and lam' and leaves the rate, the physicality test and the kernel's
domain unchanged bit for bit, so each level evaluates every unordered
(lam, lam') pair once, on one cached pair layout per level size; a pair
counts as two points, a bisector pair as one, and the tests check the
mirror bitwise.  Grid rates come from the one rate kernel
(:func:`cvmdi.keyrate.rate_kernel`) on the whole lattice, with the physicality
test and the noise algebra and domain of :func:`cvmdi.keyrate._report`: points off
the physical ones and the domain are parked (:func:`cvmdi.keyrate.park`) and
rated +inf, but physical decoupled ones (lossless symmetric links) get
:func:`cvmdi.keyrate.decoupled_rate`.  The minimum is the lattice's own
rate; the thermal rate profiles run through the same lattice evaluation.

Lattice points that are physical but neither inside the kernel's domain
(:func:`cvmdi.keyrate.in_domain`: sqrt(lam lam') below |dtau|, or a
nonpositive effective noise) nor decoupled are excluded from the argmin
and counted in ``n_skipped``.

Each level computes in place, in writable float arrays cached per level
size beside its pair layout (:func:`_pair_layout`): the lattice
coordinates and the workspace in which :func:`_grid_rates` runs the
shared formulas through their ``out`` arrays (:mod:`cvmdi.core`).  A
coarse level's float arrays are about 160 KB, above glibc's 128 KB mmap
threshold, and fresh ones were page-faulted in anew at every level, about
40 % of a certificate; its masks are 20 KB, below it, and stay plain
expressions.  Every cached array is written before it is read,
so nothing carries over from one call to the next, and none escapes: the
report holds floats, and the profiles compute in fresh arrays.  The
arrays are shared by the process, so two threads must not run
:func:`min_rate_brute` at once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    AncillaState,
    DomainError,
    EmptyDomainError,
    LinkPair,
    ProtocolParams,
    as_point,
    beta_over_alpha,
    bisector_lam,
    effective_noise,
    equivalent_chi,
    g_max,
    is_physical,
    require,
    require_count,
    require_omega,
    require_unit,
)
from .keyrate import decoupled, decoupled_rate, park, rate_kernel
from .keyrate import key_rate_min_thermal


REFINE_MARGIN = 2
"""Cells of the previous level a zoom window spans on each side of its centre."""
ZOOM_N = 41
"""Points per axis of a zoom level, which cuts the cell (ZOOM_N - 1) / 4 = 10x."""


@dataclass(frozen=True)
class AttackGrid:
    """Resolution of the search: ``n`` points per axis on the coarse pass,
    and a final cell of 2 ``REFINE_MARGIN`` coarse cells / (``refine_n`` - 1)
    for the zoom levels.  Odd counts keep the bisector on lattice points."""

    n: int = 201
    refine_n: int = 801

    def __post_init__(self) -> None:
        for name, n in (("n", self.n), ("refine_n", self.refine_n)):
            require_count(name, n, 3)
            require(n % 2 == 1, name, "be odd", n)


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
    """Rate sampled along the monotonicity variable y on its leading run of
    physical, admissible points; the rest are omitted and counted in ``skipped``."""

    mode: str
    y: np.ndarray
    d_prime: np.ndarray
    rate: np.ndarray
    skipped: int


def physical_bounds(omega_a: float, omega_b: float) -> tuple[float, float]:
    """Bounding interval [-sqrt(omega_a omega_b), +sqrt(omega_a omega_b)]
    of the physical correlation region; applies to each of g and g'."""
    require_omega("omega_a", omega_a)
    require_omega("omega_b", omega_b)
    b = math.sqrt(omega_a * omega_b)
    return -b, b


def _axis(hi: float, n: int) -> np.ndarray:
    # Mirror-build [-hi, hi] so 0 and +-v pairs are exact lattice points.
    half = np.linspace(0.0, hi, (n + 1) // 2)
    return np.concatenate([-half[:0:-1], half])


class _Level(NamedTuple):
    """A certificate level of n points per axis: the read-only pairs i <= j
    and the positions of those with i = j, and writable float arrays of the
    pair count for the lattice coordinates and the nine of the workspace of
    :func:`_grid_rates`."""

    i: np.ndarray
    j: np.ndarray
    diag: np.ndarray
    g: np.ndarray
    gp: np.ndarray
    work: list[np.ndarray]


@functools.lru_cache(maxsize=3)  # a certificate's sizes: grid.n, ZOOM_N, last + 1
def _pair_layout(n: int) -> _Level:
    """The :class:`_Level` of an n-point level, built once per size."""
    i, j = np.triu_indices(n)
    layout = i, j, np.flatnonzero(i == j)
    for a in layout:
        a.flags.writeable = False
    g, gp, *work = (np.empty(i.size) for _ in range(11))
    return _Level(*layout, g, gp, work)


def _grid_rates(protocol: ProtocolParams, tau_a, tau_b, omega_a, omega_b, g, gp,
                work: list[np.ndarray] | None = None):
    """Vectorized general rate over correlation arrays.

    Returns (rates, physical mask, rated mask) by the physicality test, noise
    algebra and domain of :func:`cvmdi.keyrate._report`: rated = physical & (in
    domain | decoupled), rates are :func:`cvmdi.keyrate.decoupled_rate` at the
    decoupled points and +inf off rated, and the kernel runs on every point,
    parked (:func:`cvmdi.keyrate.park`) off physical & in domain.  Links, ancilla
    variances and ``protocol.xi`` are floats or arrays broadcasting with ``g``,
    which has the shape of the lattice.  With ``work``, nine float arrays of
    ``g.size`` (``g`` 1-D), every float array is computed in them and the
    returned rates are a view of one; without, each is fresh.  Masks are fresh.
    """
    f = work or (None,) * 9
    physical = is_physical(AncillaState(omega_a, omega_b, g, gp), out=f[:6])
    lam, lam_prime = effective_noise(tau_a, tau_b, omega_a, omega_b, g, gp, out=f[:2])
    off = park(tau_a, tau_b, lam, lam_prime, physical, out=f[2:3])
    chi = equivalent_chi(tau_a, tau_b, lam, lam_prime, out=f[2:4])
    rates = rate_kernel(protocol.mu, protocol.xi, tau_a, tau_b, lam, lam_prime, chi,
                        out=f[3:])[0]
    np.copyto(rates, np.inf, where=off)
    free = physical & off
    if free.any():  # decoupled points are among these, and park moved their noises
        lam, lam_prime = effective_noise(tau_a, tau_b, omega_a, omega_b, g, gp, out=f[:2])
        free &= decoupled(tau_a, tau_b, lam, lam_prime)
        np.copyto(rates, decoupled_rate(protocol.mu, protocol.xi), where=free)
    return rates, physical, ~off | free


def min_rate_brute(
    protocol: ProtocolParams,
    link: LinkPair,
    omega_a: float,
    omega_b: float,
    grid: AttackGrid | None = None,
) -> ArgMinReport:
    """Brute-force minimum of the general rate over physical (g, g').

    Coarse scan over the full physicality bounding box, then zoom levels
    down to the final cell of ``grid``, each spanning ``REFINE_MARGIN``
    cells of the previous level on each side of its argmin's projection
    onto the bisector.  Ties are broken toward the bisector (smaller
    |g + g'|), then lexicographically.
    """
    if grid is None:
        grid = AttackGrid()
    # ZOOM_N levels cut the next window's span, counted in final cells, 10x
    # each (span = (refine_n - 1) / cut); the last window widens its span to
    # an even number of final cells, so its last + 1 points land on the
    # final cell and keep the centre point.
    levels, span, cut = [grid.n], grid.refine_n - 1, 1
    while span > (ZOOM_N - 1) * cut:
        levels.append(ZOOM_N)
        cut *= (ZOOM_N - 1) // (2 * REFINE_MARGIN)
    last = 2 * math.ceil(span / (2 * cut))
    lo, hi = physical_bounds(omega_a, omega_b)
    ax = _axis(hi, grid.n)
    ta, tb = link.tau_a, link.tau_b
    n_eval = n_skip = 0
    for level, n in enumerate(levels + [last + 1]):
        if level:
            # the g' axis mirrors the g axis: clipped windows stay on the bisector
            gc = (g_star - gp_star) / 2.0
            half = REFINE_MARGIN * (ax[1] - ax[0])
            if level == len(levels):
                half *= last * cut / span
            ax = np.linspace(max(lo, gc - half), min(hi, gc + half), n)
        # the lattice (ax[i], -ax[j]) holds each point's mirror (ax[j], -ax[i]):
        # the pairs i <= j stand for both, and once on the bisector i = j
        layout = _pair_layout(n)
        g = np.take(ax, layout.i, out=layout.g, mode="clip")
        gp = np.negative(np.take(ax, layout.j, out=layout.gp, mode="clip"), out=layout.gp)
        rates, phys, rated = _grid_rates(protocol, ta, tb, omega_a, omega_b, g, gp, layout.work)
        n_level, n_phys = (2 * int(np.count_nonzero(m)) - int(np.count_nonzero(m[layout.diag]))
                           for m in (rated, phys))
        n_eval, n_skip = n_eval + n_level, n_skip + n_phys - n_level  # physical, not rated
        if n_level:  # a zoom window misses only single-point domains
            rate_star = float(rates.min())  # +inf off the mask
            # a mirror (-g', -g) keeps |g + g'| and has no smaller g (the
            # pairs hold g <= -g'), so the full square's pick is a pair
            ties = np.flatnonzero(rates == rate_star)
            k = min(ties, key=lambda k: (abs(g[k] + gp[k]), g[k], gp[k]))
            g_star, gp_star = float(g[k]), float(gp[k])
        elif not level:
            raise EmptyDomainError(
                "no admissible lattice point in the physical correlation region"
            )

    analytic = key_rate_min_thermal(protocol, link, omega_a, omega_b).rate
    gm = float(g_max(omega_a, omega_b))
    return ArgMinReport(
        g_star=g_star,
        g_prime_star=gp_star,
        rate_star=rate_star,
        bisector_distance=abs(g_star + gp_star) / math.sqrt(2.0),
        analytic_rate=analytic,
        gap=rate_star - analytic,
        g_max=gm,
        gmax_distance=abs(abs(g_star) - gm),
        cell_size=float(ax[1] - ax[0]),
        n_evaluated=n_eval,
        n_skipped=n_skip,
    )


def _physical_dprime_max(omega_a, omega_b, l):
    """Largest d' >= 0 keeping the ancilla (d' + l, d' - l) physical, elementwise.

    With X = d'^2 and m = omega_a omega_b, nu_minus >= 1 reads
    det - Delta + 1 = X^2 - 2 b X + c >= 0 with b = l^2 + m + 1 and
    c = (m - 1 - l^2)^2 - (omega_a - omega_b)^2, so the boundary is the
    smaller root X1 = c / (b + sqrt(b^2 - c)), where
    b^2 - c = 4 m l^2 + (omega_a + omega_b)^2 has no cancellation.
    """
    m = omega_a * omega_b
    c = (m - 1.0 - l * l) ** 2 - (omega_a - omega_b) ** 2
    root = np.sqrt(4.0 * m * l * l + (omega_a + omega_b) ** 2)
    d = np.sqrt(np.maximum(c / (l * l + m + 1.0 + root), 0.0))
    return np.where(is_physical(AncillaState(omega_a, omega_b, l, -l)), d, 0.0)


def chi_y_domain(tau_a: np.ndarray, tau_b: np.ndarray, chi: np.ndarray):
    """Range of the fixed-chi variable y, elementwise on arrays of links:
    y_min = alpha chi / beta and y_max = (y_min^2 + beta^2) / (2 beta);
    :class:`ParameterError` if any tau is outside (0, 1] or any chi is not
    finite, :class:`DomainError` if any chi is below the loss floor, alpha
    underflows, or chi^2 overflows (chi above about 1.34e154), as it would
    in the fixed-chi formulas of y."""
    require_unit("tau_a", tau_a)
    require_unit("tau_b", tau_b)
    require(np.isfinite(chi), "chi", "be finite", chi)
    beta_over_alpha(tau_a, tau_b)  # its rule: alpha must not underflow
    alpha, beta = tau_a * tau_b, tau_a + tau_b
    below = chi < beta * beta / alpha
    if below.any():
        raise DomainError(f"chi = {chi[below][0]} below the loss floor beta^2/alpha = "
                          f"{(beta * beta / alpha)[below][0]}")
    with np.errstate(over="ignore"):
        huge = np.isinf(chi * chi)
    if huge.any():
        raise DomainError(f"chi = {chi[huge][0]} is too large for double precision: "
                          "chi^2 overflows")
    y_min = alpha * chi / beta
    return y_min, (y_min * y_min + beta * beta) / (2.0 * beta)


class _Profiles(NamedTuple):
    """Rate profiles of a batch of scenarios, one per row: the first ``count``
    samples of a row, in order; the rest of the row repeats its first sample."""

    mode: str
    y: np.ndarray
    d_prime: np.ndarray
    rate: np.ndarray
    count: np.ndarray
    skipped: np.ndarray

    def first(self) -> RateProfile:
        n = self.count[0]
        return RateProfile(self.mode, self.y[0, :n], self.d_prime[0, :n],
                           self.rate[0, :n], int(self.skipped[0]))


def _profiles(mode, present, ok, y, d_prime, rate) -> _Profiles:
    """Keep each row's leading run of ``ok`` samples; samples that are
    ``present`` but not in that run count as skipped.  The run holds every
    ``ok`` sample: lam lam' falls with the sample index along both profiles,
    and the physical d' form an interval."""
    count = ok.cumprod(axis=1).sum(axis=1)
    if not count.all():
        where = "fixed-chi" if mode == "chi" else mode
        raise EmptyDomainError(f"no admissible sample on the {where} profile")
    lead = np.arange(ok.shape[1]) < count[:, None]
    y, d_prime, rate = (np.where(lead, a, a[:, :1]) for a in (y, d_prime, rate))
    return _Profiles(mode, y, d_prime, rate, count, (present & ~lead).sum(axis=1))


def _thermal_profiles(protocol, tau_a, tau_b, omega_a, omega_b, l, samples):
    """Fixed-thermal profiles of :func:`rate_profile_y` from 1-D parameter
    arrays; ``protocol.xi`` is a float or a column, one xi per row."""
    require_count("samples", samples, 2)
    require_unit("tau_a", tau_a)
    require_unit("tau_b", tau_b)
    require_omega("omega_a", omega_a)
    require_omega("omega_b", omega_b)
    require(np.isfinite(l), "l", "be finite", l)
    u = 2.0 * np.sqrt((1.0 - tau_a) * (1.0 - tau_b))
    delta = effective_noise(tau_a, tau_b, omega_a, omega_b, l, -l)[0]
    bad = (delta <= 0.0) & (u > 0.0)
    if bad.any():
        raise DomainError(f"delta = kappa - u l = {delta[bad][0]} must be positive")
    d_phys = _physical_dprime_max(omega_a, omega_b, l)
    d_cap = np.minimum(delta / np.where(u > 0.0, u, 1.0), d_phys) * (1.0 - 1e-9)
    spread, frozen = (u > 0.0) & (d_cap > 0.0), u == 0.0
    cap = np.where(spread, d_cap, 1.0)
    d = np.zeros((u.size, samples))
    d[:, 1:] = np.geomspace(cap * 1e-4, cap, samples - 1).T * spread[:, None]
    top = np.where(d_phys > 0.0, d_phys, 1.0)
    d = np.where(frozen[:, None], np.linspace(0.0, top, samples).T, d)
    present = (spread | frozen)[:, None] | (np.arange(samples) == 0)
    ta, tb, wa, wb, lc, uc = (x[:, None] for x in (tau_a, tau_b, omega_a, omega_b, l, u))
    g, gp = d + lc, d - lc
    rates, _, rated = _grid_rates(protocol, ta, tb, wa, wb, g, gp)
    return _profiles("thermal", present, present & rated, uc * uc * d * d, d, rates)


def _chi_profiles(protocol, tau_a, tau_b, chi, samples):
    """Fixed-chi profiles of :func:`rate_profile_y` from 1-D parameter
    arrays; ``protocol.xi`` is a float or a column, one xi per row."""
    require_count("samples", samples, 2)
    y_min, y_max = chi_y_domain(tau_a, tau_b, chi)
    u = 2.0 * np.sqrt((1.0 - tau_a) * (1.0 - tau_b))
    span = y_max - y_min  # zero only at chi exactly on the loss floor
    spread = (u > 0.0) & (span > 0.0)
    top = np.where(spread, span, 1.0)
    off = np.zeros((u.size, samples))
    off[:, 1:] = np.geomspace(top * 1e-8, top, samples - 1).T * spread[:, None]
    present = spread[:, None] | (np.arange(samples) == 0)
    ta, tb, chi, y_min, u = (x[:, None] for x in (tau_a, tau_b, chi, y_min, u))
    y = y_min + off
    # y = beta + delta and u d' = sqrt(y^2 - y_min^2); lam = delta -+ u d',
    # taken from the bisector noise at d' = 0, where beta + lam = y_min
    with np.errstate(over="ignore"):  # an overflowed ud is inf, outside in_domain
        ud = np.sqrt(np.maximum(y * y - y_min * y_min, 0.0))
    lam_b = bisector_lam(ta, tb, chi) + off
    lam, lam_prime = lam_b - ud, lam_b + ud
    off = park(ta, tb, lam, lam_prime, present)
    rates = rate_kernel(protocol.mu, protocol.xi, ta, tb, lam, lam_prime, chi)[0]
    return _profiles("chi", present, ~off, y, ud / np.where(u > 0.0, u, 1.0), rates)


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
    kernel's domain but for :func:`cvmdi.keyrate.decoupled` ones (lossless
    symmetric links), which get :func:`cvmdi.keyrate.decoupled_rate`.

    Fixed-chi mode (pass ``chi``): y = sqrt(u^2 d'^2 + (alpha chi / beta)^2)
    runs over :func:`chi_y_domain`; the samples come from the array kernel
    at lam = delta -+ u d', with delta = y - beta counted from the bisector
    noise of chi (:func:`cvmdi.core.bisector_lam`), and samples outside its
    domain are skipped.

    When u = 0 the variable y is frozen and the profile is constant.
    Samples are log-spaced toward the d' = 0 endpoint, which is always
    included exactly.  Runs the batched profile on a single row.
    """
    if (omegas is None) == (chi is None):
        raise ValueError("pass exactly one of omegas+l (thermal) or chi")
    ta, tb = as_point(link.tau_a, link.tau_b)
    if chi is not None:
        return _chi_profiles(protocol, ta, tb, *as_point(chi), samples).first()
    if l is None:
        raise ValueError("thermal mode requires the bisector coordinate l")
    return _thermal_profiles(protocol, ta, tb, *as_point(*omegas, l), samples).first()
