"""Shared domain types and Gaussian-attack algebra.

Conventions used throughout the package:

- All variances are in shot-noise units (SNU): vacuum noise = 1.
- Logarithms are base 2; rates come out in bits per relay use.
- The adversary injects a two-mode Gaussian ancilla described by the 4x4
  covariance matrix with diagonal blocks ``omega_a * I``, ``omega_b * I``
  and off-diagonal block ``diag(g, g_prime)``.  Physicality of that matrix
  (positive definiteness plus smallest symplectic eigenvalue >= 1) defines
  the admissible attack domain.

All functions are pure and the dataclasses are frozen.  Each formula runs
on floats and elementwise on numpy arrays (a float gives a float back);
only this module maps an ancilla to (lam, lam', chi) and to physicality.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

H_CLAMP_TOL = 1e-12
"""Arguments of entropy_h within this slack below 1 are clamped to 1."""

PHYSICALITY_TOL = 1e-12
"""Slack on nu_minus >= 1 when testing physicality."""

SYMMETRIC_TAU_TOL = 1e-9
"""Below this |tau_a - tau_b| a link pair is treated as symmetric."""

LOG2E = math.log2(math.e)


class DomainError(ValueError):
    """A quantity left the mathematical domain of a rate or entropy formula."""


class NonphysicalStateError(DomainError):
    """A covariance matrix is not a valid Gaussian quantum state."""


class SymmetricDegenerateError(DomainError):
    """A formula that needs tau_a != tau_b was evaluated on a symmetric link."""


class EmptyDomainError(DomainError):
    """A search domain contains no admissible point."""


@dataclass(frozen=True)
class ProtocolParams:
    """Trusted-party knobs: reconciliation efficiency ``xi`` (dimensionless,
    in (0, 1]), Gaussian modulation variance ``phi`` (SNU, > 0) and excess
    noise ``epsilon`` (SNU, >= 0).  Defaults reproduce the reference
    simulation parameter set."""

    xi: float = 0.97
    phi: float = 60.0
    epsilon: float = 0.01

    def __post_init__(self) -> None:
        if not 0.0 < self.xi <= 1.0:
            raise ValueError(f"xi must be in (0, 1], got {self.xi}")
        if self.phi <= 0.0:
            raise ValueError(f"phi must be > 0, got {self.phi}")
        if self.epsilon < 0.0:
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")

    @property
    def mu(self) -> float:
        """Coherent-state variance mu = phi + 1 (SNU)."""
        return self.phi + 1.0


@dataclass(frozen=True)
class LinkPair:
    """Channel transmissivities of the two links into the relay."""

    tau_a: float
    tau_b: float

    def __post_init__(self) -> None:
        for name, tau in (("tau_a", self.tau_a), ("tau_b", self.tau_b)):
            if not 0.0 < tau <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {tau}")

    @property
    def alpha(self) -> float:
        return self.tau_a * self.tau_b

    @property
    def beta(self) -> float:
        return self.tau_a + self.tau_b

    @property
    def u(self) -> float:
        """Loss-coupling factor 2 sqrt((1 - tau_a)(1 - tau_b))."""
        return 2.0 * math.sqrt((1.0 - self.tau_a) * (1.0 - self.tau_b))

    @property
    def delta_tau(self) -> float:
        return abs(self.tau_a - self.tau_b)

    @property
    def is_symmetric(self) -> bool:
        return self.delta_tau < SYMMETRIC_TAU_TOL


@dataclass(frozen=True)
class AncillaState:
    """Parameters of the adversary's two-mode ancilla covariance:
    variances ``omega_a, omega_b`` (SNU, >= 1) and quadrature correlations
    ``g`` (position block) and ``g_prime`` (momentum block)."""

    omega_a: float
    omega_b: float
    g: float
    g_prime: float

    def __post_init__(self) -> None:
        for name, w in (("omega_a", self.omega_a), ("omega_b", self.omega_b)):
            if w < 1.0:
                raise ValueError(f"{name} must be >= 1 SNU, got {w}")


@dataclass(frozen=True)
class DerivedNoise:
    """Noise quantities induced by a (LinkPair, AncillaState) pair.

    ``kappa`` is the total back-injected thermal noise, ``lam``/``lam_prime``
    the effective noises of the two quadrature branches, ``delta`` their
    mean, and ``chi`` the equivalent input-referred noise."""

    kappa: float
    lam: float
    lam_prime: float
    delta: float
    chi: float


@dataclass(frozen=True)
class AttackCoords:
    """Rotated correlation coordinates: ``d`` is the distance of
    ``(g, g_prime)`` from the anticorrelation bisector g = -g', ``d_prime``
    the signed half-sum, ``l`` the bisector projection.  ``y`` is the
    monotonicity variable of the proof checks; its definition depends on
    the knowledge model, so it is optional here and reported alongside the
    sampled profiles instead."""

    d: float
    d_prime: float
    l: float
    y: float | None = None


@dataclass(frozen=True)
class SymplecticPair:
    """The two symplectic eigenvalues of a two-mode covariance, sorted."""

    nu_minus: float
    nu_plus: float


def _floats_or_arrays(body):
    """Run an array formula on floats too: a float is evaluated as a
    1-element array, through the same numpy loops as a lattice element,
    and handed back as a float."""
    @functools.wraps(body)
    def formula(x):
        arr = np.asarray(x, dtype=float)
        return body(arr) if arr.ndim else float(body(arr.reshape(1))[0])
    return formula


def _plain(x):
    """A Python float for a scalar result, arrays unchanged."""
    return x if isinstance(x, np.ndarray) else float(x)


@_floats_or_arrays
def entropy_h(x):
    """Thermal-spectrum entropy ((x+1)/2) log2((x+1)/2) - ((x-1)/2) log2((x-1)/2)
    of a float, or elementwise of an array.  Continuously extended by
    h(1) = 0; arguments within ``H_CLAMP_TOL`` below 1 are clamped to 1 so
    rounding at physical boundaries does not raise.  Raises
    :class:`DomainError` if any argument lies below the clamp window, which
    signals a nonphysical intermediate quantity.
    """
    lo = x.min(initial=np.inf)
    if lo < 1.0 - H_CLAMP_TOL:
        raise DomainError(f"entropy_h argument {float(lo)!r} < 1: nonphysical value")
    xm = np.maximum(x, 1.0)
    a = (xm + 1.0) / 2.0
    b = (xm - 1.0) / 2.0
    return a * np.log2(a) - b * np.log2(np.where(b > 0.0, b, 1.0))


@_floats_or_arrays
def entropy_tail(r):
    """tail(r) = h(1/r) + log2(r) on 0 <= r <= 1, on a float or elementwise
    on an array, written without the cancellation between its two terms as
    r -> 0:

    tail(r) = -1 + (ln(1 - r^2) / 2 + atanh(r) / r) / ln 2,

    continuously extended by tail(0) = log2(e / 2) and tail(1) = 0.  The
    product (1 - r)(1 + r) keeps ln(1 - r^2) accurate as r -> 1.  Within
    the entropy clamp slack above 1, h(1/r) is 0 and tail(r) = log2(r);
    beyond it :class:`DomainError` is raised.
    """
    hi = r.max(initial=0.0)
    if hi * (1.0 - H_CLAMP_TOL) > 1.0:
        raise DomainError(f"entropy_tail argument {float(hi)!r} > 1: nonphysical value")
    out = np.log2(np.maximum(r, 1.0))
    inner = (r > 0.0) & (r < 1.0)
    x = r[inner]
    out[inner] = -1.0 + (0.5 * np.log((1.0 - x) * (1.0 + x)) + np.arctanh(x) / x) * LOG2E
    out[r == 0.0] = LOG2E - 1.0
    return out


@_floats_or_arrays
def log_ratio_g(x):
    """log2((x+1)/(x-1)) for x > 1, on a float or elementwise on an array;
    strictly decreasing, pole at x = 1."""
    lo = x.min(initial=np.inf)
    if lo <= 1.0:
        raise DomainError(f"log_ratio_g argument {float(lo)!r} <= 1")
    return np.log2((x + 1.0) / (x - 1.0))


def _invariants(ancilla: AncillaState):
    """Positive-definiteness margins m - g^2, m - g'^2 (m = omega_a omega_b),
    Delta = omega_a^2 + omega_b^2 + 2 g g', Delta^2 - 4 det with det =
    (m - g^2)(m - g'^2), and nu_minus^2 = (Delta - sqrt(Delta^2 - 4 det)) / 2
    (clamped at 0), on floats or elementwise when ``g``/``g_prime`` are
    arrays (Weedbrook et al., Rev. Mod. Phys. 84, 621)."""
    wa, wb, g, gp = ancilla.omega_a, ancilla.omega_b, ancilla.g, ancilla.g_prime
    m = wa * wb
    pos_g, pos_gp = m - g * g, m - gp * gp
    delta = wa * wa + wb * wb + 2.0 * g * gp
    det = pos_g * pos_gp
    disc = delta * delta - 4.0 * det
    nu_minus = np.sqrt(np.maximum(0.5 * (delta - np.sqrt(np.maximum(disc, 0.0))), 0.0))
    return pos_g, pos_gp, delta, disc, nu_minus


def symplectic_spectrum(ancilla: AncillaState) -> SymplecticPair:
    """Symplectic eigenvalues of the two-mode ancilla covariance from its
    invariants (:func:`_invariants`), with nu_plus^2 = Delta - nu_minus^2."""
    pos_g, pos_gp, delta, disc, nu_minus = _invariants(ancilla)
    if pos_g <= 0.0 or pos_gp <= 0.0:
        m, g, gp = ancilla.omega_a * ancilla.omega_b, ancilla.g, ancilla.g_prime
        raise NonphysicalStateError(
            f"covariance not positive definite: omega_a*omega_b = {m} "
            f"vs g = {g}, g_prime = {gp}"
        )
    if disc < -1e-9 * max(1.0, delta * delta):
        raise NonphysicalStateError("complex symplectic spectrum")
    nu_minus = float(nu_minus)
    return SymplecticPair(nu_minus, math.sqrt(delta - nu_minus * nu_minus))


def is_physical(ancilla: AncillaState):
    """True iff the ancilla covariance is a bona fide Gaussian state:
    both quadrature blocks positive definite and nu_minus >= 1 (within
    ``PHYSICALITY_TOL``).  A bool for float correlations, a boolean array
    elementwise when ``g``/``g_prime`` are arrays.  Never raises."""
    pos_g, pos_gp, _, _, nu_minus = _invariants(ancilla)
    ok = (pos_g > 0.0) & (pos_gp > 0.0) & (nu_minus >= 1.0 - PHYSICALITY_TOL)
    return ok if isinstance(ok, np.ndarray) else bool(ok)


def g_max(omega_a: float, omega_b: float) -> float:
    """Largest g >= 0 such that the anticorrelated ancilla (g, -g) stays
    physical: g_max = sqrt((omega_min - 1)(omega_max + 1)).

    On the line (g, -g) the invariants are Delta = omega_a^2 + omega_b^2
    - 2 g^2 and det = (omega_a omega_b - g^2)^2, and nu_minus = 1 solves
    to g^2 = omega_a omega_b - 1 - |omega_a - omega_b|.  nu_minus decreases
    strictly in g, so this first crossing is the boundary; a vacuum mode
    (omega_min = 1) pins it to exactly 0.
    """
    if omega_a < 1.0 or omega_b < 1.0:
        raise ValueError("ancilla variances must be >= 1 SNU")
    lo, hi = min(omega_a, omega_b), max(omega_a, omega_b)
    return math.sqrt((lo - 1.0) * (hi + 1.0))


def effective_noise(tau_a, tau_b, omega_a, omega_b, g, g_prime):
    """Noises (lam, lam') = (kappa - u g, kappa + u g') of the two quadrature
    branches: kappa = (1 - tau_a) omega_a + (1 - tau_b) omega_b is the
    back-injected thermal noise, u = 2 sqrt((1 - tau_a)(1 - tau_b)) the
    loss coupling.  Floats give floats; arrays broadcast."""
    kappa = (1.0 - tau_a) * omega_a + (1.0 - tau_b) * omega_b
    u = 2.0 * np.sqrt((1.0 - tau_a) * (1.0 - tau_b))
    return _plain(kappa - u * g), _plain(kappa + u * g_prime)


def equivalent_chi(tau_a, tau_b, lam, lam_prime):
    """Equivalent noise chi = (beta / alpha) sqrt((beta + lam)(beta + lam'))
    of effective noises, on floats or arrays.  Raises :class:`DomainError`
    if any beta + lam or beta + lam' is not positive."""
    beta = tau_a + tau_b
    fa, fb = beta + lam, beta + lam_prime
    if np.minimum(fa, fb).min(initial=np.inf) <= 0.0:
        raise DomainError(
            f"equivalent noise undefined: beta + lam = {np.min(fa)}, "
            f"beta + lam' = {np.min(fb)}"
        )
    return _plain(beta / (tau_a * tau_b) * np.sqrt(fa * fb))


def bisector_lam(tau_a, tau_b, chi):
    """Bisector noise lam = lam' = (alpha chi - beta^2) / beta of equivalent
    noise chi (:func:`equivalent_chi` inverted at lam = lam'); floats or arrays."""
    alpha, beta = tau_a * tau_b, tau_a + tau_b
    return (alpha * chi - beta * beta) / beta


def derive_noise(link: LinkPair, ancilla: AncillaState) -> DerivedNoise:
    """Noise algebra of a link/ancilla pair (:func:`effective_noise`,
    :func:`equivalent_chi`): kappa is the noise at zero correlation,
    (lam, lam') the noise at (g, g'), delta = kappa - u l at l = (g - g')/2."""
    ta, tb, wa, wb = link.tau_a, link.tau_b, ancilla.omega_a, ancilla.omega_b
    kappa, _ = effective_noise(ta, tb, wa, wb, 0.0, 0.0)
    lam, lam_prime = effective_noise(ta, tb, wa, wb, ancilla.g, ancilla.g_prime)
    l = attack_coords(ancilla.g, ancilla.g_prime).l
    delta, _ = effective_noise(ta, tb, wa, wb, l, -l)
    chi = equivalent_chi(ta, tb, lam, lam_prime)
    return DerivedNoise(kappa=kappa, lam=lam, lam_prime=lam_prime, delta=delta, chi=chi)


def chi_equivalent(link: LinkPair, epsilon: float) -> float:
    """Equivalent input-referred noise 2 beta / alpha + epsilon of a lossy
    link pair with excess noise epsilon; always >= beta^2 / alpha."""
    if epsilon < 0.0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    return 2.0 * link.beta / link.alpha + epsilon


def attack_coords(g: float, g_prime: float) -> AttackCoords:
    """Rotate correlations into bisector coordinates: d' = (g + g')/2,
    l = (g - g')/2, d = |g + g'| / sqrt(2).  Intended for the sector
    g + g' >= 0 (the other sector is its mirror image)."""
    return AttackCoords(
        d=abs(g + g_prime) / math.sqrt(2.0),
        d_prime=(g + g_prime) / 2.0,
        l=(g - g_prime) / 2.0,
    )


def coords_to_correlations(d_prime: float, l: float) -> tuple[float, float]:
    """Inverse of :func:`attack_coords`: g = d' + l, g' = d' - l."""
    return d_prime + l, d_prime - l
