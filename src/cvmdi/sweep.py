"""Transmissivity sweeps, relay-placement scans and tabular export.

Sweeps evaluate the minimized rate formulas on a deterministic (tau_a
outer, tau_b inner, both ascending) lattice into a :class:`SweepTable` of
columns.  Evaluation and export both go through the cells in blocks of
``BLOCK``, so their working memory is a block's, not the table's; every
step is elementwise, so the blocks change no output byte.  In each block
the knowledge model, which holds the adversary's noise parameters, gives
the worst-case (lam, chi) of the block's links, which rate its in-domain
cells in one kernel call on the whole block, and the single-point report
of each other cell.  Cells whose rate formula is undefined get a NaN rate
and the report's error message instead of aborting the sweep.  Export is
CSV (9 significant digits, round-trips byte-identically) or JSON (``repr``
floats, as ``json.dumps`` writes): one ``%`` operation per block over its
rows' tau_b, chi and rate, with one row template per row that already
holds the row's tau_a text and secure flag.  The rows of a run of equal
tau_a (one lattice row of a sweep) share one false/true template pair, so
each row formats only its three other fields.  Only rows with a
non-finite field or an error entry format their own text.  The block
texts come framed, one piece at a time, from ``_block_texts``: ``export``
joins them into one string, and the CLI writes an ``--output`` file piece
by piece, so it never holds the whole text.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .core import DomainError, LinkPair, ProtocolParams, bisector_lam, chi_equivalent
from .core import excess_chi, require, require_count, require_epsilon, require_omega, require_unit
from .keyrate import KeyRateReport, min_thermal_noise, park, rate_kernel
from .keyrate import key_rate_min_chi, key_rate_min_thermal

BLOCK = 4096
"""Cells per block: sweeps evaluate and export their cells in blocks of
this many, so the kernel's temporaries and the export's per-field lists
stay this size whatever the table's."""


@dataclass(frozen=True)
class ChiKnowledge:
    """Equivalent-noise knowledge model: chi = 2 beta / alpha + epsilon per
    link, with excess noise ``epsilon`` (SNU; a float, or an array that
    broadcasts against the links), and lam on the bisector."""

    epsilon: float = 0.01

    def __post_init__(self) -> None:
        require_epsilon(self.epsilon)

    def noise(self, tau_a, tau_b):
        chi = excess_chi(tau_a, tau_b, self.epsilon)
        return bisector_lam(tau_a, tau_b, chi), chi

    def report(self, protocol: ProtocolParams, link: LinkPair) -> KeyRateReport:
        return key_rate_min_chi(protocol, link, chi_equivalent(link, self.epsilon))


@dataclass(frozen=True)
class ThermalKnowledge:
    """Thermal-noise knowledge model with fixed ancilla variances, worst at
    (lam_opt, chi_opt)."""

    omega_a: float
    omega_b: float

    def __post_init__(self) -> None:
        require_omega("omega_a", self.omega_a)
        require_omega("omega_b", self.omega_b)

    def noise(self, tau_a, tau_b):
        return min_thermal_noise(tau_a, tau_b, self.omega_a, self.omega_b)

    def report(self, protocol: ProtocolParams, link: LinkPair) -> KeyRateReport:
        return key_rate_min_thermal(protocol, link, self.omega_a, self.omega_b)


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
        for axis, (lo, hi), steps in (
            ("a", self.tau_a_range, self.steps_a),
            ("b", self.tau_b_range, self.steps_b),
        ):
            require(0.0 < lo <= hi <= 1.0, f"tau_{axis}_range",
                    "satisfy 0 < lo <= hi <= 1", (lo, hi))
            require_count(f"steps_{axis}", steps, 2)


@dataclass(frozen=True)
class SweepRecord:
    """One cell of a :class:`SweepTable`, built on demand."""

    tau_a: float
    tau_b: float
    chi: float
    rate: float
    secure: bool
    error: str | None = None


@dataclass(frozen=True, eq=False)
class SweepTable:
    """Sweep cells as float columns plus, by cell index, the error text of
    each cell whose rate formula is undefined (NaN rate).  A cell is secure
    where rate > 0; ``table[k]`` and iteration give :class:`SweepRecord`s."""

    tau_a: np.ndarray
    tau_b: np.ndarray
    chi: np.ndarray
    rate: np.ndarray
    errors: dict[int, str]

    def __len__(self) -> int:
        return len(self.rate)

    def __getitem__(self, k: int) -> SweepRecord:
        k = range(len(self))[k]
        rate = float(self.rate[k])
        return SweepRecord(float(self.tau_a[k]), float(self.tau_b[k]),
                           float(self.chi[k]), rate, rate > 0.0, self.errors.get(k))


@dataclass(frozen=True)
class RelayScanReport:
    """The cells along a fixed total-transmissivity contour plus the
    best-rate placement found on it."""

    records: SweepTable
    argmax: SweepRecord


def _eval_cells(
    protocol: ProtocolParams,
    knowledge: Knowledge,
    tau_a: np.ndarray,
    tau_b: np.ndarray,
) -> SweepTable:
    """Table of the cells (tau_a[k], tau_b[k]), each equal to the
    knowledge model's single-point report bit for bit: the in-domain cells
    of each block keep the rates of one kernel call on the whole block, the
    others go through the report itself.  A cell whose report fails keeps
    the model's chi.  Only the chi model fails cells: the thermal lam_opt =
    kappa + u g_max >= kappa >= |dtau| is finite up to OMEGA_MAX, so its
    cells leave the domain only where decoupled."""
    chi = np.empty(tau_a.shape)
    rate = np.full(tau_a.shape, math.nan)
    errors = {}
    for start in range(0, len(tau_a), BLOCK):
        cells = slice(start, start + BLOCK)
        ta, tb = tau_a[cells], tau_b[cells]
        lam, chi[cells] = knowledge.noise(ta, tb)
        off = park(ta, tb, lam, lam)
        kernel = rate_kernel(protocol.mu, protocol.xi, ta, tb, lam, lam, chi[cells])[0]
        np.copyto(rate[cells], kernel, where=~off)
        for k in (start + np.flatnonzero(off)).tolist():
            link = LinkPair(float(tau_a[k]), float(tau_b[k]))
            try:
                report = knowledge.report(protocol, link)
            except DomainError as exc:
                errors[k] = str(exc)
            else:
                chi[k], rate[k] = report.chi, report.rate
    return SweepTable(tau_a, tau_b, chi, rate, errors)


def run_sweep(config: SweepConfig) -> SweepTable:
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
    require_unit("total_transmissivity", total_transmissivity)
    require_count("steps", steps, 2)
    taus_a = np.linspace(total_transmissivity, 1.0, steps)
    taus_b = np.minimum(1.0, total_transmissivity / taus_a)
    table = _eval_cells(protocol, knowledge, taus_a, taus_b)
    if np.isnan(table.rate).all():
        raise DomainError("every contour cell failed its rate formula")
    return RelayScanReport(records=table, argmax=table[int(np.nanargmax(table.rate))])


def _fmt_axis(values: np.ndarray, spec: str) -> list[str]:
    """``spec % x`` of each cell of a block, formatting each distinct value
    (by bit pattern, so -0.0 is not 0.0) once."""
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.int64)
    distinct, index = np.unique(bits, return_inverse=True)
    texts = np.array([spec % x for x in distinct.view(np.float64).tolist()], dtype=object)
    return texts[index].tolist()


# head, tau_a spec, the rest of a row with a %s for its secure flag, row
# separator, tail and tau_b spec of each format; the tau_a spec opens a row
_FORMATS = {
    "csv": ("tau_a,tau_b,chi,rate,secure\n", "%.9g", ",%%s,%%.9g,%%.9g,%s\n", "", "", "%.9g"),
    "json": ("[", '{"tau_a": %r', ', "tau_b": %%s, "chi": %%r, "rate": %%r, "secure": %s, '
                                  '"error": null}', ", ", "]\n", "%r"),
}
_OWN_ROW = "%s%.0s%.0s"  # a row's own text; its other two fields print nothing


def _block_texts(table: SweepTable, fmt: str) -> Iterator[str]:
    """The framed pieces of a table's text, in order: the head, the text of
    each block of rows (led by the row separator after the first block)
    and the tail.  A block's text is one ``%`` operation over its rows'
    tau_b, chi and rate, with one row template per row that already holds
    the row's tau_a text and secure flag.  The rows of a run of equal tau_a
    (by bit pattern, as ``_fmt_axis`` keys values, so -0.0 is not 0.0)
    share one false/true template pair, built once per run and block; a run
    is one lattice row of a sweep and one row of a relay contour.  Each
    piece's lists die before the next piece, so a caller that writes the
    pieces one by one holds one block's text at a time."""
    n = len(table)
    if not n:
        raise ValueError("no records to export")
    if fmt not in _FORMATS:
        raise ValueError(f"unknown export format {fmt!r}")
    head, spec_a, rest, sep, tail, spec_b = _FORMATS[fmt]
    ends = (rest % "false", rest % "true")
    marked = ~(np.isfinite(table.tau_a) & np.isfinite(table.tau_b)
               & np.isfinite(table.chi) & np.isfinite(table.rate))
    marked[list(table.errors)] = True  # once: filtering the errors per block is quadratic
    secure = table.rate > 0.0
    bits = np.ascontiguousarray(table.tau_a, dtype=np.float64).view(np.int64)
    new_run = np.ones(n, dtype=bool)
    new_run[1:] = bits[1:] != bits[:-1]
    yield head
    for start in range(0, n, BLOCK):
        cells = slice(start, min(start + BLOCK, n))
        runs = new_run[cells].copy()
        runs[0] = True
        run_texts = [spec_a % x for x in table.tau_a[start + np.flatnonzero(runs)].tolist()]
        pairs = np.array([x + end for x in run_texts for end in ends], dtype=object)
        rows = pairs[2 * np.cumsum(runs) - 2 + secure[cells]].tolist()
        flat = [None] * (3 * len(rows))  # row-major: tau_b, chi, rate
        flat[0::3] = _fmt_axis(table.tau_b[cells], spec_b)
        flat[1::3], flat[2::3] = table.chi[cells].tolist(), table.rate[cells].tolist()
        for k in (start + np.flatnonzero(marked[cells])).tolist():
            j = 3 * (k - start)
            tb, chi, rate = flat[j:j + 3]
            chi, rate = (None if math.isnan(x) else x for x in (chi, rate))
            if fmt == "csv":
                chi, rate = ("" if x is None else format(x, ".9g") for x in (chi, rate))
                flat[j] = (f"{spec_a % float(table.tau_a[k])},{tb},{chi},{rate},"
                           f"{'true' if secure[k] else 'false'}\n")
            else:
                flat[j] = json.dumps(dict(
                    tau_a=float(table.tau_a[k]), tau_b=float(table.tau_b[k]), chi=chi,
                    rate=rate, secure=bool(secure[k]), error=table.errors.get(k)))
            rows[k - start] = _OWN_ROW
        if start:
            rows[0] = sep + rows[0]
        yield sep.join(rows) % tuple(flat)
    yield tail


def export(table: SweepTable, fmt: str = "csv") -> str:
    """Serialize a table; CSV header is exactly `tau_a,tau_b,chi,rate,secure`
    and NaN rate/chi cells become empty fields (CSV) or nulls plus an
    `error` tag (JSON)."""
    return "".join(_block_texts(table, fmt))
