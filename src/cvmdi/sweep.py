"""Transmissivity sweeps, relay-placement scans and tabular export.

Sweeps evaluate the minimized rate formulas on a deterministic (tau_a
outer, tau_b inner, both ascending) lattice: every cell inside the rate
kernel's domain in one kernel call, the rest through the single-point
functions.  Cells whose rate formula is undefined are recorded with a NaN
rate and the single-point error message instead of aborting the sweep.
Output is CSV or JSON with 9 significant digits; records round-trip
byte-identically.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .core import DomainError, LinkPair, ProtocolParams, bisector_lam, chi_equivalent
from .keyrate import in_domain, min_thermal_noise, rate_kernel
from .keyrate import key_rate_min_chi, key_rate_min_thermal


@dataclass(frozen=True)
class ChiKnowledge:
    """Equivalent-noise knowledge model: chi = 2 beta / alpha + epsilon
    per lattice cell, with epsilon taken from the protocol parameters."""


@dataclass(frozen=True)
class ThermalKnowledge:
    """Thermal-noise knowledge model with fixed ancilla variances."""

    omega_a: float
    omega_b: float


Knowledge = ChiKnowledge | ThermalKnowledge


@dataclass(frozen=True)
class SweepConfig:
    tau_a_range: tuple[float, float] = (0.5, 1.0)
    tau_b_range: tuple[float, float] = (0.5, 1.0)
    steps_a: int = 51
    steps_b: int = 51
    protocol: ProtocolParams = ProtocolParams()
    knowledge: Knowledge = ChiKnowledge()

    def __post_init__(self) -> None:
        for name, (lo, hi), steps in (
            ("tau_a", self.tau_a_range, self.steps_a),
            ("tau_b", self.tau_b_range, self.steps_b),
        ):
            if not (0.0 < lo <= hi <= 1.0):
                raise ValueError(f"{name}_range must satisfy 0 < lo <= hi <= 1")
            if steps < 2:
                raise ValueError(f"steps for {name} must be >= 2")


@dataclass(frozen=True)
class SweepRecord:
    tau_a: float
    tau_b: float
    chi: float
    rate: float
    secure: bool
    error: str | None = None


@dataclass(frozen=True)
class RelayScanReport:
    """Records along a fixed total-transmissivity contour plus the
    best-rate placement found on it."""

    records: list[SweepRecord]
    argmax: SweepRecord


def distance_to_tau(d_km: float, loss_db_per_km: float = 0.2) -> float:
    """Fiber transmissivity 10^(-loss * d / 10) of d_km of fiber."""
    if d_km < 0.0:
        raise ValueError(f"distance must be >= 0, got {d_km}")
    if loss_db_per_km <= 0.0:
        raise ValueError(f"loss must be > 0 dB/km, got {loss_db_per_km}")
    return 10.0 ** (-loss_db_per_km * d_km / 10.0)


def _eval_cell(
    protocol: ProtocolParams, knowledge: Knowledge, tau_a: float, tau_b: float
) -> SweepRecord:
    link = LinkPair(tau_a, tau_b)
    chi = math.nan
    try:
        if isinstance(knowledge, ThermalKnowledge):
            wa, wb = knowledge.omega_a, knowledge.omega_b
            report = key_rate_min_thermal(protocol, link, wa, wb)
        else:
            chi = chi_equivalent(link, protocol.epsilon)
            report = key_rate_min_chi(protocol, link, chi)
    except DomainError as exc:
        return SweepRecord(tau_a, tau_b, chi, math.nan, False, error=str(exc))
    return SweepRecord(tau_a, tau_b, report.chi, report.rate, report.secure)


def _eval_cells(
    protocol: ProtocolParams,
    knowledge: Knowledge,
    tau_a: np.ndarray,
    tau_b: np.ndarray,
) -> list[SweepRecord]:
    """Records of the cells (tau_a[k], tau_b[k]), each equal to
    :func:`_eval_cell` bit for bit: the in-domain cells are one kernel
    call, the others go through :func:`_eval_cell` itself."""
    if isinstance(knowledge, ThermalKnowledge):
        lam, chi = min_thermal_noise(tau_a, tau_b, knowledge.omega_a, knowledge.omega_b)
    else:
        chi = 2.0 * (tau_a + tau_b) / (tau_a * tau_b) + protocol.epsilon
        lam = bisector_lam(tau_a, tau_b, chi)
    ok = in_domain(tau_a, tau_b, lam, lam)
    rate = np.full(tau_a.shape, math.nan)
    rate[ok] = rate_kernel(
        protocol.mu, protocol.xi, tau_a[ok], tau_b[ok], lam[ok], lam[ok], chi[ok]
    )[0]
    return [
        SweepRecord(tau_a=ta, tau_b=tb, chi=c, rate=r, secure=r > 0.0) if good
        else _eval_cell(protocol, knowledge, ta, tb)
        for ta, tb, c, r, good in zip(
            tau_a.tolist(), tau_b.tolist(), chi.tolist(), rate.tolist(), ok.tolist()
        )
    ]


def run_sweep(config: SweepConfig) -> list[SweepRecord]:
    """Evaluate the minimized rate on the configured lattice, in row order
    tau_a outer ascending, tau_b inner ascending."""
    taus_a = np.linspace(*config.tau_a_range, config.steps_a)
    taus_b = np.linspace(*config.tau_b_range, config.steps_b)
    tau_a, tau_b = np.meshgrid(taus_a, taus_b, indexing="ij")
    return _eval_cells(config.protocol, config.knowledge, tau_a.ravel(), tau_b.ravel())


def relay_scan(
    total_transmissivity: float,
    protocol: ProtocolParams,
    steps: int = 51,
    knowledge: Knowledge = ChiKnowledge(),
) -> RelayScanReport:
    """Scan relay placements along the contour tau_a * tau_b = total.

    tau_a runs ascending over [total, 1] (tau_a = 1 puts the relay at
    Alice).  The argmax record identifies the best placement; NaN cells
    never win.
    """
    if not 0.0 < total_transmissivity <= 1.0:
        raise ValueError(
            f"total transmissivity must be in (0, 1], got {total_transmissivity}"
        )
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    taus_a = np.linspace(total_transmissivity, 1.0, steps)
    taus_b = np.minimum(1.0, total_transmissivity / taus_a)
    records = _eval_cells(protocol, knowledge, taus_a, taus_b)
    finite = [r for r in records if not math.isnan(r.rate)]
    if not finite:
        raise DomainError("every contour cell failed its rate formula")
    argmax = max(finite, key=lambda r: r.rate)
    return RelayScanReport(records=records, argmax=argmax)


def _fmt(x: float) -> str:
    return format(x, ".9g")


def export(records: list[SweepRecord], fmt: str = "csv") -> str:
    """Serialize records; CSV header is exactly `tau_a,tau_b,chi,rate,secure`
    and NaN rate/chi cells become empty fields (CSV) or nulls plus an
    `error` tag (JSON)."""
    if not records:
        raise ValueError("no records to export")
    if fmt == "csv":
        lines = ["tau_a,tau_b,chi,rate,secure"]
        for r in records:
            chi = "" if math.isnan(r.chi) else _fmt(r.chi)
            rate = "" if math.isnan(r.rate) else _fmt(r.rate)
            secure = "true" if r.secure else "false"
            lines.append(f"{_fmt(r.tau_a)},{_fmt(r.tau_b)},{chi},{rate},{secure}")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        payload = [
            {
                "tau_a": r.tau_a,
                "tau_b": r.tau_b,
                "chi": None if math.isnan(r.chi) else r.chi,
                "rate": None if math.isnan(r.rate) else r.rate,
                "secure": r.secure,
                "error": r.error,
            }
            for r in records
        ]
        return json.dumps(payload) + "\n"
    raise ValueError(f"unknown export format {fmt!r}")


def parse_csv(text: str) -> list[SweepRecord]:
    """Inverse of CSV export (used for round-trip checks)."""
    lines = text.strip().split("\n")
    if lines[0] != "tau_a,tau_b,chi,rate,secure":
        raise ValueError(f"unexpected CSV header {lines[0]!r}")
    records = []
    for line in lines[1:]:
        ta, tb, chi, rate, secure = line.split(",")
        records.append(
            SweepRecord(
                tau_a=float(ta),
                tau_b=float(tb),
                chi=float(chi) if chi else math.nan,
                rate=float(rate) if rate else math.nan,
                secure=secure == "true",
            )
        )
    return records
