"""Shared domain types and Gaussian-attack algebra.

Conventions used throughout the package:

- All variances are in shot-noise units (SNU): vacuum noise = 1.
- Logarithms are base 2; rates come out in bits per relay use.
- The adversary injects a two-mode Gaussian ancilla described by the 4x4
  covariance matrix with diagonal blocks ``omega_a * I``, ``omega_b * I``
  and off-diagonal block ``diag(g, g_prime)``.  Physicality of that matrix
  (positive definiteness plus smallest symplectic eigenvalue >= 1) defines
  the admissible attack domain.

All functions are pure and the dataclasses are frozen.  Only this module
maps an ancilla to (lam, lam', chi) and to physicality.  The formulas here
and in :mod:`cvmdi.keyrate` take numpy arrays that broadcast and return
arrays (numpy's 0-d results for 0-d operands); none has a float mode.  The
single-point API (:func:`chi_equivalent` and the ``key_rate*`` reports)
converts once, to Python floats and bools.

The array formulas can compute in place.  Each takes an optional ``out``:
a tuple of writable float arrays of the broadcast shape of its operands,
as many as its docstring says, and writes every float step of its ufunc
chain into one of them, in the operation order of the formula as written;
a float result lands in the first.  Without ``out`` (or where an entry is
None) each step allocates its result, as the written expression does;
both give the same bits.  The arrays must not overlap the operands.
Comparisons are plain expressions: their boolean arrays are an eighth of
a float array, below glibc's mmap threshold on a certificate's lattices.
A caller that evaluates many lattices of one size passes the same arrays
each time: a fresh lattice-sized float temporary above that threshold is
page-faulted in anew on every use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

H_CLAMP_TOL = 1e-12
"""Relative slack below c within which entropy_scaled(a, c) clamps a to c."""

PHYSICALITY_TOL = 1e-12
"""Slack on nu_minus >= 1 when testing physicality."""

SYMMETRIC_TAU_TOL = 1e-9
"""Below this |tau_a - tau_b| a link pair is treated as symmetric."""

OMEGA_MAX = 1e76
"""Largest ancilla variance (SNU): the physicality invariants grow as omega^4
(Delta^2 up to 16 omega^4) and stay finite in double precision up to here."""

EPSILON_MAX = 1e76
"""Largest excess noise (SNU): lam lam' and chi^2 overflow near epsilon = 1e154."""

LOG2E = math.log2(math.e)


class DomainError(ValueError):
    """A quantity left the mathematical domain of a rate or entropy formula."""


class NonphysicalStateError(DomainError):
    """A covariance matrix is not a valid Gaussian quantum state."""


class SymmetricDegenerateError(DomainError):
    """A formula that needs tau_a != tau_b was evaluated on a symmetric link."""


class EmptyDomainError(DomainError):
    """A search domain contains no admissible point."""


class ParameterError(ValueError):
    """An input parameter is outside its admissible range; ``name`` is its
    library name, ``rule`` the rest of the message.  Not a :class:`DomainError`:
    the input is wrong, not a quantity computed from admissible inputs."""

    def __init__(self, name: str, rule: str) -> None:
        super().__init__(f"{name} {rule}")
        self.name, self.rule = name, rule


def require(ok, name: str, rule: str, value) -> None:
    """Raise :class:`ParameterError` "<name> must <rule>, got <value>" unless
    ``ok`` (a bool, or a boolean array that must hold everywhere: <value> is
    its first failing element and flat index).  Rules are written in accepting
    form, ``0.0 < x < math.inf`` not ``x <= 0.0``, so NaN and infinities fail."""
    if not (ok.all() if isinstance(ok, np.ndarray) else ok):
        if isinstance(ok, np.ndarray):
            k = int(np.flatnonzero(~ok)[0])
            value = f"{np.broadcast_to(value, ok.shape).flat[k]} at index {k}"
        raise ParameterError(name, f"must {rule}, got {value}")


def require_unit(name: str, value) -> None:
    """The rule of xi, of transmissivities and of their products, on floats
    or arrays: (0, 1]."""
    require((0.0 < value) & (value <= 1.0), name, "be in (0, 1]", value)


def require_epsilon(epsilon) -> None:
    """The excess-noise rule, on floats or arrays: >= 0 and <= ``EPSILON_MAX`` SNU."""
    ok = (0.0 <= epsilon) & (epsilon < math.inf)
    require(ok, "epsilon", "be finite and >= 0", epsilon)
    require(epsilon <= EPSILON_MAX, "epsilon", f"be at most {EPSILON_MAX:g} SNU", epsilon)


def require_omega(name: str, omega) -> None:
    """The ancilla-variance rule, on floats or arrays: given, finite and >= 1
    SNU, and at most ``OMEGA_MAX``."""
    ok = omega is not None and (1.0 <= omega) & (omega < math.inf)
    require(ok, name, "be finite and >= 1 SNU", omega)
    require(omega <= OMEGA_MAX, name, f"be at most {OMEGA_MAX:g} SNU", omega)


def require_count(name: str, value: int, least: int) -> None:
    """The rule of step, sample, scenario and trial counts: an integer (a
    Python or numpy one, not a float) of at least ``least``."""
    ok = isinstance(value, (int, np.integer)) and value >= least
    require(ok, name, f"be an integer >= {least}", value)


@dataclass(frozen=True)
class ProtocolParams:
    """Trusted-party knobs: reconciliation efficiency ``xi`` (dimensionless,
    in (0, 1]) and Gaussian modulation variance ``phi`` (SNU, > 0); the
    adversary's noise belongs to the knowledge models of :mod:`cvmdi.sweep`.
    Defaults reproduce the reference simulation parameter set.  ``xi`` may
    also be an array that broadcasts against the rows of a batch, such as
    a column of one xi per scenario; ``mu`` stays a float."""

    xi: float = 0.97
    phi: float = 60.0

    def __post_init__(self) -> None:
        require_unit("xi", self.xi)
        require(0.0 < self.phi < math.inf, "phi", "be finite and > 0", self.phi)

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
        require_unit("tau_a", self.tau_a)
        require_unit("tau_b", self.tau_b)

    @property
    def alpha(self) -> float:
        return self.tau_a * self.tau_b

    @property
    def beta(self) -> float:
        return self.tau_a + self.tau_b


@dataclass(frozen=True)
class AncillaState:
    """Parameters of the adversary's two-mode ancilla covariance:
    variances ``omega_a, omega_b`` (SNU, >= 1) and quadrature correlations
    ``g`` (position block) and ``g_prime`` (momentum block), or arrays."""

    omega_a: float
    omega_b: float
    g: float
    g_prime: float

    def __post_init__(self) -> None:
        require_omega("omega_a", self.omega_a)
        require_omega("omega_b", self.omega_b)


@dataclass(frozen=True)
class AttackCoords:
    """Rotated correlation coordinates: ``d`` is the distance of
    ``(g, g_prime)`` from the anticorrelation bisector g = -g', ``d_prime``
    the signed half-sum, ``l`` the bisector projection."""

    d: float
    d_prime: float
    l: float


def as_point(*xs):
    """Single-point inputs as 1-element float arrays, for the array formulas."""
    return (np.array([x], dtype=float) for x in xs)


def uniform_rows(u, *ranges):
    """lo + (hi - lo) u of uniform [0, 1) draws ``u``, one (lo, hi) per column,
    returned one row per column.  This is the arithmetic of ``rng.uniform``,
    so a row equals the ``rng.uniform(lo, hi)`` calls, one per draw, that
    would have drawn the same numbers."""
    lo, hi = np.array(ranges).T
    return (lo + (hi - lo) * u).T


def entropy_scaled(a, c, out=None):
    """h(a/c) + log2(c) for a >= c >= 0, elementwise on arrays that
    broadcast, as two nonnegative terms, so nothing cancels:

    log2((a + c) / 2) + log2(e) ln(1 + t) / t,  t = 2c / (a - c),

    with ln(1 + t) / t exactly 0 at a = c and exactly 1 at c = 0.  An a
    within ``H_CLAMP_TOL`` below c is clamped to c, so rounding at physical
    boundaries does not raise; below that window :class:`DomainError`
    signals a nonphysical intermediate quantity.  ``out``: three float
    arrays (module docstring).
    """
    o_h, o_t, o_tail = out or (None,) * 3
    low = np.less(a, c * (1.0 - H_CLAMP_TOL))  # a numpy bool for float operands too
    if low.any():
        a, c = (float(np.broadcast_to(v, low.shape)[low][0]) for v in (a, c))
        raise DomainError(f"entropy argument {a!r} < {c!r}: nonphysical value")
    h = np.maximum(a, c, out=o_h)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.divide(2.0 * c, np.subtract(h, c, out=o_t), out=o_t)
        tail = np.divide(np.log1p(t, out=o_tail), t, out=o_tail)
    # fmax passes over the nan of the two limits: 1 at t = 0, 0 at t = inf
    tail = np.fmax(tail, t == 0.0, out=o_tail)
    h = np.log2(np.multiply(np.add(h, c, out=o_h), 0.5, out=o_h), out=o_h)
    return np.add(h, np.multiply(LOG2E, tail, out=o_tail), out=o_h)


def entropy_h(x, out=None):
    """Thermal-spectrum entropy ((x+1)/2) log2((x+1)/2) - ((x-1)/2) log2((x-1)/2)
    elementwise: :func:`entropy_scaled` at c = 1, accurate at any x, h(1) = 0
    exactly, with its clamp and error below 1; ``out`` as for
    :func:`entropy_scaled`."""
    return entropy_scaled(x, 1.0, out=out)


def log_ratio_g(x):
    """log2((x+1)/(x-1)) = log2(e) log1p(2/(x-1)) for x > 1, elementwise on
    an array; strictly decreasing, pole at x = 1."""
    lo = np.min(x, initial=np.inf)
    if lo <= 1.0:
        raise DomainError(f"log_ratio_g argument {float(lo)!r} <= 1")
    return LOG2E * np.log1p(2.0 / (x - 1.0))


def _invariants(ancilla: AncillaState, out=None):
    """Positive-definiteness margins m - g^2, m - g'^2 (m = omega_a omega_b),
    Delta = omega_a^2 + omega_b^2 + 2 g g', Delta^2 - 4 det with det =
    (m - g^2)(m - g'^2), and nu_minus, elementwise over the ancilla's
    arrays (Weedbrook et al., Rev. Mod. Phys. 84, 621).
    ``out``: six float arrays (module docstring).

    nu_minus^2 = (Delta - sqrt(Delta^2 - 4 det)) / 2 cancels once Delta >> 1,
    so it is taken as 2 det / (Delta + sqrt(Delta^2 - 4 det)), clamped at 0.
    The denominator is positive wherever both margins are; where it is not
    (at omega = 1, |g| = 1, say) a margin already fails, and a unit
    denominator keeps the division finite."""
    wa, wb, g, gp = ancilla.omega_a, ancilla.omega_b, ancilla.g, ancilla.g_prime
    o_pos_g, o_pos_gp, o_delta, o_det, o_disc, o_nu = out or (None,) * 6
    m = wa * wb
    pos_g = np.subtract(m, np.multiply(g, g, out=o_pos_g), out=o_pos_g)
    pos_gp = np.subtract(m, np.multiply(gp, gp, out=o_pos_gp), out=o_pos_gp)
    delta = np.multiply(np.multiply(2.0, g, out=o_delta), gp, out=o_delta)
    delta = np.add(wa * wa + wb * wb, delta, out=o_delta)
    det = np.multiply(pos_g, pos_gp, out=o_det)
    disc = np.subtract(np.multiply(delta, delta, out=o_disc), np.multiply(4.0, det, out=o_nu),
                       out=o_disc)
    big = np.add(delta, np.sqrt(np.maximum(disc, 0.0, out=o_nu), out=o_nu), out=o_nu)
    # np.where(big > 0, big, 1): fmax takes 1 where big > 0 fails, nan included
    big = np.fmax(big, ~(big > 0.0), out=o_nu)
    nu_minus = np.divide(np.multiply(2.0, det, out=o_det), big, out=o_det)
    nu_minus = np.sqrt(np.maximum(nu_minus, 0.0, out=o_det), out=o_nu)
    return pos_g, pos_gp, delta, disc, nu_minus


def is_physical(ancilla: AncillaState, out=None):
    """True iff the ancilla covariance is a bona fide Gaussian state:
    both quadrature blocks positive definite and nu_minus >= 1 (within
    ``PHYSICALITY_TOL``), elementwise over the ancilla's arrays: a boolean
    array.  Never raises.  ``out``: the six float arrays of
    :func:`_invariants`."""
    pos_g, pos_gp, _, _, nu_minus = _invariants(ancilla, out=out)
    return (pos_g > 0.0) & (pos_gp > 0.0) & (nu_minus >= 1.0 - PHYSICALITY_TOL)


def g_max(omega_a, omega_b):
    """Largest g >= 0 such that the anticorrelated ancilla (g, -g) stays
    physical: g_max = sqrt((omega_min - 1)(omega_max + 1)), elementwise.

    On the line (g, -g) the invariants are Delta = omega_a^2 + omega_b^2
    - 2 g^2 and det = (omega_a omega_b - g^2)^2, and nu_minus = 1 solves
    to g^2 = omega_a omega_b - 1 - |omega_a - omega_b|.  nu_minus decreases
    strictly in g, so this first crossing is the boundary; a vacuum mode
    (omega_min = 1) pins it to exactly 0.
    """
    require_omega("omega_a", omega_a)
    require_omega("omega_b", omega_b)
    lo, hi = np.minimum(omega_a, omega_b), np.maximum(omega_a, omega_b)
    return np.sqrt((lo - 1.0) * (hi + 1.0))


def beta_over_alpha(tau_a, tau_b):
    """beta / alpha = (tau_a + tau_b) / (tau_a tau_b), elementwise, by which chi
    scales: :class:`DomainError` where it is not finite, as where alpha
    underflows (tau_a = tau_b = 1e-300) or it overflows (1, 1e-320)."""
    with np.errstate(divide="ignore", over="ignore"):
        ratio = np.divide(np.add(tau_a, tau_b), np.multiply(tau_a, tau_b))
    if not np.isfinite(ratio).all():
        raise DomainError("beta / alpha = (tau_a + tau_b) / (tau_a tau_b) overflows: "
                          "the links are too lossy for double precision")
    return ratio


def effective_noise(tau_a, tau_b, omega_a, omega_b, g, g_prime, out=None):
    """Noises (lam, lam') = (kappa - u g, kappa + u g') of the two quadrature
    branches: kappa = (1 - tau_a) omega_a + (1 - tau_b) omega_b is the
    back-injected thermal noise, u = 2 sqrt((1 - tau_a)(1 - tau_b)) the
    loss coupling, elementwise.  ``out``: two float arrays, for lam and
    lam'."""
    o_lam, o_lam_prime = out or (None, None)
    kappa = (1.0 - tau_a) * omega_a + (1.0 - tau_b) * omega_b
    u = 2.0 * np.sqrt((1.0 - tau_a) * (1.0 - tau_b))
    lam = np.subtract(kappa, np.multiply(u, g, out=o_lam), out=o_lam)
    lam_prime = np.add(kappa, np.multiply(u, g_prime, out=o_lam_prime), out=o_lam_prime)
    return lam, lam_prime


def equivalent_chi(tau_a, tau_b, lam, lam_prime, out=None):
    """Equivalent noise chi = (beta / alpha) sqrt((beta + lam)(beta + lam'))
    of effective noises, elementwise.  Raises :class:`DomainError` if any
    beta + lam or beta + lam' is not positive, or by
    :func:`beta_over_alpha`.  ``out``: two float arrays."""
    o_fa, o_fb = out or (None, None)
    beta = tau_a + tau_b
    fa, fb = np.add(beta, lam, out=o_fa), np.add(beta, lam_prime, out=o_fb)
    if np.minimum(fa.min(initial=np.inf), fb.min(initial=np.inf)) <= 0.0:
        raise DomainError(
            f"equivalent noise undefined: beta + lam = {np.min(fa)}, "
            f"beta + lam' = {np.min(fb)}"
        )
    chi = np.sqrt(np.multiply(fa, fb, out=o_fa), out=o_fa)
    return np.multiply(beta_over_alpha(tau_a, tau_b), chi, out=o_fa)


def bisector_lam(tau_a, tau_b, chi):
    """Bisector noise lam = lam' = (alpha chi - beta^2) / beta of equivalent
    noise chi (:func:`equivalent_chi` inverted at lam = lam'), elementwise.
    Computed as (alpha / beta)((chi - 4) - dtau^2 / alpha), by beta^2 = 4 alpha +
    dtau^2: chi - 4 is exact near the loss-floor pole, so nothing cancels there."""
    beta_over_alpha(tau_a, tau_b)  # its rule: alpha must not underflow
    alpha, beta, dtau = tau_a * tau_b, tau_a + tau_b, tau_a - tau_b
    return alpha / beta * ((chi - 4.0) - dtau * dtau / alpha)


def excess_chi(tau_a, tau_b, epsilon):
    """2 beta / alpha + epsilon of :func:`chi_equivalent`, elementwise."""
    return 2.0 * beta_over_alpha(tau_a, tau_b) + epsilon


def chi_equivalent(link: LinkPair, epsilon: float) -> float:
    """Equivalent input-referred noise 2 beta / alpha + epsilon of a lossy
    link pair with excess noise epsilon; always >= beta^2 / alpha."""
    require_epsilon(epsilon)
    return float(excess_chi(link.tau_a, link.tau_b, epsilon))


def attack_coords(g: float, g_prime: float) -> AttackCoords:
    """Rotate correlations into bisector coordinates: d' = (g + g')/2,
    l = (g - g')/2, d = |g + g'| / sqrt(2).  Intended for the sector
    g + g' >= 0 (the other sector is its mirror image)."""
    return AttackCoords(
        d=abs(g + g_prime) / math.sqrt(2.0),
        d_prime=(g + g_prime) / 2.0,
        l=(g - g_prime) / 2.0,
    )
