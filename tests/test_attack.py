"""Tests for the brute-force worst-case search and the rate profiles."""

import contextlib
import math
import tracemalloc
import warnings
from dataclasses import astuple

import numpy as np
import pytest

import mp_oracle
import cvmdi.attack as attack_module
import cvmdi.keyrate as keyrate_module
from cvmdi import (
    AncillaState,
    AttackGrid,
    DomainError,
    EmptyDomainError,
    LinkPair,
    ProtocolParams,
    g_max,
    is_physical,
    key_rate_min_chi,
    key_rate_min_thermal,
    min_rate_brute,
    physical_bounds,
    rate_profile_y,
)
from cvmdi.attack import (
    REFINE_MARGIN,
    ZOOM_N,
    ArgMinReport,
    _axis,
    _grid_rates,
    _pair_layout,
    _physical_dprime_max,
    _profiles,
    _thermal_profiles,
)
from cvmdi.core import as_point, effective_noise, equivalent_chi
from cvmdi.keyrate import _report, in_domain

FAST_GRID = AttackGrid(n=101, refine_n=201)


class TestPhysicalBounds:
    def test_vacuum(self):
        assert physical_bounds(1.0, 1.0) == (-1.0, 1.0)

    def test_equal(self):
        assert physical_bounds(2.0, 2.0) == (-2.0, 2.0)

    def test_product(self):
        assert physical_bounds(1.0, 4.0) == (-2.0, 2.0)


def _dprime_max_by_bisection(omega_a, omega_b, l):
    """Reference: 80-step bisection of is_physical along (d' + l, d' - l)."""

    def physical(dp):
        return is_physical(AncillaState(omega_a, omega_b, dp + l, dp - l))

    if not physical(0.0):
        return 0.0
    lo, hi = 0.0, math.sqrt(omega_a * omega_b) + abs(l) + 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if physical(mid):
            lo = mid
        else:
            hi = mid
    return lo


class TestPhysicalDPrimeMax:
    def test_closed_form_is_the_physicality_boundary(self):
        rng = np.random.default_rng(11)
        for k in range(300):
            wa, wb = (float(w) for w in rng.uniform(1.1, 5.0, size=2))
            l = float(rng.uniform(-0.85, 0.85)) * g_max(wa, wb)
            d = _physical_dprime_max(wa, wb, l)
            inner, outer = d * (1.0 - 1e-9), d * (1.0 + 1e-6)
            assert is_physical(AncillaState(wa, wb, inner + l, inner - l))
            assert not is_physical(AncillaState(wa, wb, outer + l, outer - l))
            ref = _dprime_max_by_bisection(wa, wb, l)
            assert abs(d - ref) <= 1e-8 * ref
            if k < 20:  # nu_minus = 1 exactly on the boundary
                nu = mp_oracle.nu_minus(wa, wb, d + l, d - l)
                assert abs(float(nu) - 1.0) <= 1e-12

    def test_nonphysical_at_zero_gives_zero(self):
        gm = g_max(2.0, 3.0)
        assert _physical_dprime_max(2.0, 3.0, 1.01 * gm) == 0.0
        assert _physical_dprime_max(1.0, 1.0, 0.0) == 0.0  # vacuum ancilla


class TestGridConstruction:
    def test_symmetric_axis_has_exact_zero_and_pairs(self):
        ax = _axis(2.0, 201)
        assert ax[100] == 0.0
        assert np.all(ax == -ax[::-1])

    def test_grid_config_validation(self):
        with pytest.raises(ValueError):
            AttackGrid(n=200)
        with pytest.raises(ValueError):
            AttackGrid(n=1)


class TestMinRateBrute:
    def test_vacuum_singleton(self):
        report = min_rate_brute(
            ProtocolParams(), LinkPair(0.9, 0.6), 1.0, 1.0, FAST_GRID
        )
        assert report.g_star == 0.0
        assert report.g_prime_star == 0.0
        assert abs(report.gap) <= 1e-12

    @pytest.mark.parametrize("omega_a", [1e4, 1e6, 1e8, 1e76])
    def test_vacuum_mode_pins_argmin_to_origin(self, omega_a):
        # omega_b = 1 leaves g = g' = 0 the one physical lattice point; a
        # cancelling nu_minus admitted correlated points below the analytic
        # minimum, and at 1e76 none at all
        report = min_rate_brute(ProtocolParams(), LinkPair(0.9, 0.7), omega_a, 1.0)
        assert (report.g_star, report.g_prime_star) == (0.0, 0.0)
        assert report.gap >= -1e-12

    def test_symmetric_argmin_on_boundary(self):
        report = min_rate_brute(
            ProtocolParams(xi=1.0), LinkPair(0.99, 0.99), 2.0, 2.0, FAST_GRID
        )
        assert report.bisector_distance <= math.sqrt(2.0) * report.cell_size
        assert report.gmax_distance <= report.cell_size
        assert report.gap >= -1e-4
        assert report.rate_star >= report.analytic_rate - 1e-4

    def test_asymmetric_argmin_on_boundary(self):
        report = min_rate_brute(
            ProtocolParams(), LinkPair(0.85, 0.55), 3.0, 1.7, FAST_GRID
        )
        assert report.bisector_distance <= math.sqrt(2.0) * report.cell_size
        assert report.gmax_distance <= report.cell_size
        assert report.gap >= -1e-4

    def test_rate_star_matches_scalar_path(self):
        link = LinkPair(0.85, 0.55)
        report = min_rate_brute(ProtocolParams(), link, 3.0, 1.7, FAST_GRID)
        ancilla = AncillaState(3.0, 1.7, report.g_star, report.g_prime_star)
        assert is_physical(ancilla)
        point = [*as_point(0.85, 0.55, *effective_noise(0.85, 0.55, *astuple(ancilla)))]
        direct = _report(ProtocolParams(), *point, equivalent_chi(*point)).rate
        assert report.rate_star == direct

    def test_bisector_proximity_random(self):
        # seed recorded; tau spans the full [0.3, 0.999] range
        rng = np.random.default_rng(31)
        for i in range(12):
            ta, tb = rng.uniform(0.3, 0.999, size=2)
            wa, wb = rng.uniform(1.0, 10.0, size=2)
            xi = (1.0, 0.97)[i % 2]
            report = min_rate_brute(
                ProtocolParams(xi=xi), LinkPair(ta, tb), wa, wb, FAST_GRID
            )
            cell = report.cell_size
            assert report.bisector_distance <= math.sqrt(2.0) * cell
            assert report.gmax_distance <= cell
            assert report.gap >= -1e-4


    def test_clipped_window_stays_on_bisector(self):
        # draw 33 of acceptance criterion 2's generator at seed 1: the
        # coarse argmin sits one cell off the bisector next to the edge of
        # the square, so the refinement window is clipped; the refined
        # lattice must stay symmetric about the bisector
        link = LinkPair(0.9704660831776306, 0.8345182530973749)
        report = min_rate_brute(
            ProtocolParams(xi=0.97), link, 8.120205533555247, 7.83341650485622,
            AttackGrid(n=201, refine_n=801),
        )
        cell = report.cell_size
        assert report.bisector_distance <= math.sqrt(2.0) * cell
        assert report.gmax_distance <= cell
        assert report.gap >= -1e-4

    @pytest.mark.parametrize("tau_b, omegas, g_star", [
        (0.7, (2.0, 2.0), -1.732),
        (0.5, (3.0, 1.5), -1.4141782070340354),
    ])
    def test_ties_go_to_the_bisector(self, tau_b, omegas, g_star):
        # at tau_a = 1, u = 0 and the noise does not depend on (g, g'), so
        # every admissible lattice point ties: the tie-break alone puts the
        # argmin on the bisector, at its smallest g (a key without |g + g'|
        # lands 6e-4 off it, at g = -1.6504 and -1.0505)
        report = min_rate_brute(ProtocolParams(), LinkPair(1.0, tau_b), *omegas)
        assert report.g_star == g_star == -report.g_prime_star
        assert report.bisector_distance == 0.0
        assert report.gap == 0.0


def _argmin_tiebreak(g, gp, rates, mask):
    """Argmin of ``rates`` on ``mask`` over a whole lattice: ties go toward
    the bisector (smaller |g + g'|), then lexicographically."""
    idx = np.flatnonzero(mask.ravel())
    vals = rates.ravel()[idx]
    ties = idx[vals == vals.min()]
    gr, gpr = g.ravel(), gp.ravel()
    best = min(ties, key=lambda k: (abs(gr[k] + gpr[k]), gr[k], gpr[k]))
    return float(gr[best]), float(gpr[best])


def _min_rate_full_square(protocol, link, wa, wb, grid):
    """Reference: the zoom levels of :func:`min_rate_brute`, each evaluated
    on its full meshgrid square, both mirror images of every point."""
    levels, span, cut = [grid.n], grid.refine_n - 1, 1
    while span > (ZOOM_N - 1) * cut:
        levels.append(ZOOM_N)
        cut *= (ZOOM_N - 1) // (2 * REFINE_MARGIN)
    last = 2 * math.ceil(span / (2 * cut))
    lo, hi = physical_bounds(wa, wb)
    ax = _axis(hi, grid.n)
    n_eval = n_skip = 0
    for level, n in enumerate(levels + [last + 1]):
        if level:
            gc = (g_star - gp_star) / 2.0
            half = REFINE_MARGIN * (ax[1] - ax[0])
            if level == len(levels):
                half *= last * cut / span
            ax = np.linspace(max(lo, gc - half), min(hi, gc + half), n)
        g, gp = np.meshgrid(ax, -ax[::-1], indexing="ij")
        rates, phys, adm = _grid_rates(protocol, link.tau_a, link.tau_b, wa, wb, g, gp)
        mask = phys & adm
        n_eval += int(mask.sum())
        n_skip += int((phys & ~adm).sum())
        if mask.any():
            g_star, gp_star = _argmin_tiebreak(g, gp, rates, mask)
            rate_star = float(rates.min())
        elif not level:
            raise EmptyDomainError("no admissible lattice point")
    analytic = key_rate_min_thermal(protocol, link, wa, wb).rate
    gm = float(g_max(wa, wb))
    return ArgMinReport(
        g_star, gp_star, rate_star, abs(g_star + gp_star) / math.sqrt(2.0), analytic,
        rate_star - analytic, gm, abs(abs(g_star) - gm), float(ax[1] - ax[0]),
        n_eval, n_skip,
    )


def _min_rate_one_window(protocol, link, wa, wb, grid):
    """Reference: the coarse pass and one refine_n-point window spanning
    +-REFINE_MARGIN coarse cells, the search before the zoom levels.
    Returns (g*, g'*, rate*, cell)."""
    lo, hi = physical_bounds(wa, wb)
    axis = _axis(hi, grid.n)
    g, gp = np.meshgrid(axis, axis, indexing="ij")
    rates, phys, adm = _grid_rates(protocol, link.tau_a, link.tau_b, wa, wb, g, gp)
    g0, gp0 = _argmin_tiebreak(g, gp, rates, phys & adm)
    gc = (g0 - gp0) / 2.0
    half = REFINE_MARGIN * (axis[1] - axis[0])
    ax_g = np.linspace(max(lo, gc - half), min(hi, gc + half), grid.refine_n)
    rg, rgp = np.meshgrid(ax_g, -ax_g[::-1], indexing="ij")
    rrates, rphys, radm = _grid_rates(protocol, link.tau_a, link.tau_b, wa, wb, rg, rgp)
    rmask = rphys & radm
    g_star, gp_star = (
        _argmin_tiebreak(rg, rgp, rrates, rmask) if rmask.any() else (g0, gp0)
    )
    ancilla = AncillaState(wa, wb, g_star, gp_star)
    assert is_physical(ancilla)
    lams = effective_noise(link.tau_a, link.tau_b, *astuple(ancilla))
    point = [*as_point(link.tau_a, link.tau_b, *lams)]
    rate = _report(protocol, *point, equivalent_chi(*point)).rate
    return g_star, gp_star, rate, float(ax_g[1] - ax_g[0])


_FIG = dict(phi=60.0)
ZOOM_CASES = [
    (ProtocolParams(), LinkPair(0.9, 0.7), 2.0, 2.0),
    (ProtocolParams(), LinkPair(0.85, 0.55), 3.0, 1.7),
    (ProtocolParams(xi=1.0), LinkPair(0.99, 0.99), 2.0, 2.0),
    (ProtocolParams(), LinkPair(0.9, 0.6), 1.0, 1.0),  # vacuum
    # criterion 2's generator, windows clipped at the edge of the
    # square: seed 1 draws 33 and 84, seed 202 draw 7
    (ProtocolParams(xi=0.97, **_FIG),
     LinkPair(0.9704660831776306, 0.8345182530973749),
     8.120205533555247, 7.83341650485622),
    (ProtocolParams(xi=1.0, **_FIG),
     LinkPair(0.8147043823216626, 0.38750217636656087),
     8.257140412357213, 8.481259977717531),
    (ProtocolParams(xi=0.97, **_FIG),
     LinkPair(0.5624047632484349, 0.5777756435689785),
     9.437611446183974, 9.496580592972716),
]


class TestZoomLevels:
    def test_matches_single_refinement_window(self):
        grid = AttackGrid()
        for protocol, link, wa, wb in ZOOM_CASES:
            report = min_rate_brute(protocol, link, wa, wb, grid)
            g, gp, rate, cell = _min_rate_one_window(protocol, link, wa, wb, grid)
            assert abs(report.g_star - g) <= 1e-9 * cell
            assert abs(report.g_prime_star - gp) <= 1e-9 * cell
            assert abs(report.rate_star - rate) <= 1e-13 * max(1.0, abs(rate))

    def test_default_grid_cost(self):
        # the single 801^2 window evaluated 273 250 points at 47 MB traced
        tracemalloc.start()
        try:
            report = min_rate_brute(ProtocolParams(), LinkPair(0.9, 0.7), 2.0, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.n_evaluated <= 27325
        assert peak < 10e6

    def test_repeated_default_grid_peak(self):
        # fresh lattice-sized temporaries peaked at 1.75-1.98 MB traced; a
        # repeated certificate computes in its cached level arrays and stays
        # below 1.5 coarse float arrays (20 301 pairs at 201 points): a
        # buffered take's output and its index copy were 2.02 of them
        args = (ProtocolParams(), LinkPair(0.9, 0.7), 2.0, 2.0)
        min_rate_brute(*args)
        tracemalloc.start()
        try:
            min_rate_brute(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * 20301

    @pytest.mark.parametrize("refine_n", [803, 1003])
    def test_non_nested_within_a_final_cell(self, refine_n):
        # (refine_n - 1) / 40 final cells is no whole number, so the zoom
        # lattices do not nest in the single window's; both argmins still
        # sit within one final cell of each other
        grid = AttackGrid(refine_n=refine_n)
        for protocol, link, wa, wb in ZOOM_CASES:
            report = min_rate_brute(protocol, link, wa, wb, grid)
            g, gp, _, cell = _min_rate_one_window(protocol, link, wa, wb, grid)
            assert abs(report.g_star - g) <= cell * (1.0 + 1e-9)
            assert abs(report.g_prime_star - gp) <= cell * (1.0 + 1e-9)
            assert report.gap >= -1e-12

    @pytest.mark.parametrize("refine_n", [803, 1003])
    def test_non_nested_cost(self, refine_n):
        # a whole refine_n^2 window evaluated 274 505 points at 803
        grid = AttackGrid(refine_n=refine_n)
        report = min_rate_brute(ProtocolParams(), LinkPair(0.9, 0.7), 2.0, 2.0, grid)
        assert report.n_evaluated <= 27325

    @pytest.mark.parametrize("refine_n", [3, 5, 41, 43, 201, 801, 803, 1003])
    def test_lands_on_final_cell(self, refine_n):
        # the window around g_max = sqrt(3) is not clipped, so the last
        # level reaches 2 REFINE_MARGIN coarse cells / (refine_n - 1) up
        # to the rounding of linspace
        report = min_rate_brute(
            ProtocolParams(), LinkPair(0.9, 0.7), 2.0, 2.0,
            AttackGrid(n=201, refine_n=refine_n),
        )
        coarse = _axis(2.0, 201)
        final = 2 * REFINE_MARGIN * (coarse[1] - coarse[0]) / (refine_n - 1)
        assert report.cell_size <= final * (1.0 + 1e-9)
        assert report.cell_size == pytest.approx(final, rel=1e-9)


class TestGridRateSymmetries:
    def test_bisector_reflection(self):
        # the rate, the physical mask and the admissible mask are invariant
        # under (g, g') -> (-g', -g), bit for bit, on the lattice
        # (ax[i], -ax[j]) of min_rate_brute's levels: the point (i, j) mirrors
        # (n-1-j, n-1-i) of the meshgrid, on the mirror-built coarse axis
        # and on a clipped zoom axis that is not symmetric about 0
        cases = [
            (ProtocolParams(), LinkPair(0.85, 0.55), 2.0, 2.0),
            (ProtocolParams(xi=1.0), LinkPair(0.7, 0.7), 3.0, 1.5),
            (ProtocolParams(xi=0.9), LinkPair(0.6, 0.95), 1.3, 4.0),
        ]
        for protocol, link, wa, wb in cases:
            lo, hi = physical_bounds(wa, wb)
            zoom = np.linspace(hi - 0.37 * (hi - lo), hi, 41)
            for ax in (_axis(hi, 41), zoom):
                g, gp = np.meshgrid(ax, -ax[::-1], indexing="ij")
                rates, phys, adm = _grid_rates(
                    protocol, link.tau_a, link.tau_b, wa, wb, g, gp)
                assert (phys & adm).sum() > 100 and np.isfinite(rates).sum() > 100
                for a in (rates, phys, adm):
                    assert np.array_equal(a, a[::-1, ::-1].T)
        assert not np.array_equal(zoom, -zoom[::-1])

    def test_admissibility_mask_excludes_lambda_domain_violations(self):
        # the formula domain requires sqrt(lam lam') >= |dtau|; points below
        # it are excluded from the argmin rather than evaluated
        link = LinkPair(0.9, 0.3)
        wa = wb = 4.0
        kappa = (1.0 - 0.9) * wa + (1.0 - 0.3) * wb
        u = 2.0 * math.sqrt((1.0 - 0.9) * (1.0 - 0.3))
        g_violating = (kappa - 0.1) / u  # lam = 0.1 < dtau = 0.6
        g = np.array([g_violating, 0.0])
        gp = np.array([-g_violating, 0.0])
        _, _, admissible = _grid_rates(
            ProtocolParams(), link.tau_a, link.tau_b, wa, wb, g, gp
        )
        assert not admissible[0]
        assert admissible[1]


class TestGridRatesMatchKeyRate:
    """Every point of a lattice equals the single-point general rate bit for
    bit, and is +inf exactly where the ancilla is not physical or
    :func:`cvmdi.keyrate._report` raises: the lattice runs
    the kernel on parked points too, and the full-square reference calls
    ``_grid_rates`` itself, so only this comparison sees a parked rate leak."""

    @pytest.mark.parametrize("workspace", [False, True], ids=["fresh", "workspace"])
    @pytest.mark.parametrize("link, omegas, n_inadmissible", [
        (LinkPair(0.85, 0.55), (2.0, 2.0), 52),  # all of them nonphysical
        (LinkPair(0.9, 0.3), (4.0, 4.0), 0),
        (LinkPair(0.999, 0.2), (1e8, 5.0), 0),
        # lossless: lam = lam' = 0 everywhere, outside in_domain but decoupled
        (LinkPair(1.0, 1.0), (2.0, 3.0), 41 * 41),
    ], ids=str)
    def test_every_point_equals_key_rate(self, link, omegas, n_inadmissible, workspace):
        protocol, (wa, wb) = ProtocolParams(), omegas
        ax = np.linspace(-1.05, 1.05, 41) * physical_bounds(wa, wb)[1]
        g, gp = (a.ravel() for a in np.meshgrid(ax, ax, indexing="ij"))
        # a workspace filled with garbage, as a previous level could leave it
        work = [np.full(g.size, np.nan) for _ in range(9)] if workspace else None
        want = np.empty(g.size)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rates, phys, rated = _grid_rates(protocol, link.tau_a, link.tau_b, wa, wb,
                                             g, gp, work)
            for k, ancilla in enumerate(AncillaState(wa, wb, *x) for x in zip(g, gp)):
                want[k] = math.inf
                if is_physical(ancilla):
                    lams = effective_noise(link.tau_a, link.tau_b, *astuple(ancilla))
                    point = [*as_point(link.tau_a, link.tau_b, *lams)]
                    with contextlib.suppress(DomainError):
                        want[k] = _report(protocol, *point, equivalent_chi(*point)).rate
        assert np.array_equal(rates.view(np.int64), want.view(np.int64))
        assert np.array_equal(np.isinf(rates), ~rated)
        assert (~phys).sum() > 100 and rated.sum() > 100
        assert (phys & ~rated).sum() == 0
        lam, lam_prime = effective_noise(link.tau_a, link.tau_b, wa, wb, g, gp)
        assert (~in_domain(link.tau_a, link.tau_b, lam, lam_prime)).sum() == n_inadmissible


def _seeded_cases(count, seed=15):
    """Links and ancillas drawn at a recorded seed; every fourth link symmetric."""
    rng, cases = np.random.default_rng(seed), []
    for k in range(count):
        ta, tb = (float(t) for t in rng.uniform(0.3, 0.999, size=2))
        wa, wb = (float(w) for w in rng.uniform(1.0, 10.0, size=2))
        link = LinkPair(ta, ta if k % 4 == 0 else tb)
        cases.append((ProtocolParams(xi=(1.0, 0.97, 0.9)[k % 3]), link, wa, wb))
    return cases


class TestTriangleMatchesFullSquare:
    @pytest.mark.parametrize("grid", [AttackGrid(3, 3), AttackGrid(5, 41),
                                      AttackGrid(201, 803)], ids=str)
    def test_report_equals_full_square_reference(self, grid):
        # one evaluation per unordered (lam, lam') pair gives the report of
        # the full square, every field equal with no tolerance
        for protocol, link, wa, wb in ZOOM_CASES + _seeded_cases(12):
            report = min_rate_brute(protocol, link, wa, wb, grid)
            reference = _min_rate_full_square(protocol, link, wa, wb, grid)
            assert report == reference
            assert repr(report) == repr(reference)  # signed zeros too
            # an np.int64 count would make json.dumps raise
            assert type(report.n_evaluated) is int and type(report.n_skipped) is int
        for n in {grid.n, ZOOM_N}:
            level = _pair_layout(n)
            assert level is _pair_layout(n)
            assert not any(a.flags.writeable for a in (level.i, level.j, level.diag))


def _cached_arrays(sizes):
    """Every writable array of the cached levels of ``sizes``."""
    arrays = []
    for n in sizes:
        level = _pair_layout(n)
        arrays += [level.g, level.gp, *level.work]
    return arrays


class TestWorkspace:
    """The cached level arrays carry nothing from one certificate to the next."""

    ARGS = (ProtocolParams(), LinkPair(0.85, 0.55), 3.0, 1.7, FAST_GRID)
    SIZES = (FAST_GRID.n, ZOOM_N, 21)  # FAST_GRID's levels: 101, 41 and 20 + 1 points

    def fresh(self):
        _pair_layout.cache_clear()
        return min_rate_brute(*self.ARGS)

    def test_same_after_eviction(self):
        want = self.fresh()
        assert {len(_pair_layout(n).g) for n in self.SIZES} == {5151, 861, 231}
        evicted = _pair_layout(FAST_GRID.n)
        for n in (5, 7, 9, 11):  # four other sizes, with 3 for their last level
            min_rate_brute(ProtocolParams(xi=0.5), LinkPair(0.9, 0.3), 2.0, 5.0,
                           AttackGrid(n, 3))
        report = min_rate_brute(*self.ARGS)
        assert _pair_layout(FAST_GRID.n) is not evicted
        assert report == want and repr(report) == repr(want)
        assert all(type(v) in (float, int) for v in astuple(report))

    @pytest.mark.parametrize("raise_at", [1, 3], ids=["coarse", "last"])
    def test_same_after_a_certificate_raised_mid_level(self, monkeypatch, raise_at):
        # the kernel of the raising level fills every cached array with
        # garbage first, as an interrupted level could leave them
        want = self.fresh()
        calls = []

        def interrupted(*args, **kwargs):
            calls.append(1)
            result = keyrate_module.rate_kernel(*args, **kwargs)
            if len(calls) == raise_at:
                for a in _cached_arrays(self.SIZES):
                    a.fill(np.nan if a.dtype == float else True)
                raise RuntimeError("interrupted")
            return result

        monkeypatch.setattr(attack_module, "rate_kernel", interrupted)
        with pytest.raises(RuntimeError, match="interrupted"):
            min_rate_brute(*self.ARGS)
        monkeypatch.undo()
        report = min_rate_brute(*self.ARGS)
        assert report == want and repr(report) == repr(want)

    def test_repeated_certificates_fault_in_no_pages(self):
        # what the cached arrays are for: with fresh lattice-sized float
        # arrays, above glibc's mmap threshold, these 20 certificates took
        # about 14 000 minor page faults
        resource = pytest.importorskip("resource")
        args = (ProtocolParams(), LinkPair(0.9, 0.7), 2.0, 2.0)
        min_rate_brute(*args)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(20):
            min_rate_brute(*args)
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 40

    def test_profiles_share_no_cached_array(self):
        # 231 samples match the pair count of FAST_GRID's last level
        protocol, link, wa, wb, _ = self.ARGS
        min_rate_brute(*self.ARGS)
        profiles = [
            rate_profile_y(protocol, link, omegas=(wa, wb), l=1.0, samples=231),
            rate_profile_y(protocol, link, chi=8.0, samples=231),
        ]
        cached = _cached_arrays(self.SIZES)
        for profile in profiles:
            for a in (profile.y, profile.d_prime, profile.rate):
                assert not any(np.shares_memory(a, c) for c in cached)


class TestRateProfileThermal:
    def test_frozen_y_when_lossless(self):
        profile = rate_profile_y(
            ProtocolParams(), LinkPair(1.0, 1.0), omegas=(2.0, 2.0), l=0.1, samples=50
        )
        assert np.all(profile.y == 0.0)
        assert np.all(profile.rate == profile.rate[0])

    def test_endpoint_is_bisector_rate(self):
        protocol = ProtocolParams()
        link = LinkPair(0.8, 0.5)
        profile = rate_profile_y(
            protocol, link, omegas=(1.3, 2.0), l=-0.3, samples=100
        )
        assert profile.y[0] == 0.0
        ancilla = AncillaState(1.3, 2.0, -0.3, 0.3)
        assert is_physical(ancilla)
        point = [*as_point(0.8, 0.5, *effective_noise(0.8, 0.5, *astuple(ancilla)))]
        anchor = _report(protocol, *point, equivalent_chi(*point)).rate
        assert profile.rate[0] == anchor

    def test_monotone_increasing(self):
        profile = rate_profile_y(
            ProtocolParams(xi=1.0),
            LinkPair(0.9, 0.9),
            omegas=(2.0, 2.0),
            l=0.0,
            samples=200,
        )
        assert profile.y.size == 200
        assert np.all(np.diff(profile.rate) > 0.0)

    def test_minimizing_slice_reproduces_thermal_minimum(self):
        protocol = ProtocolParams()
        link = LinkPair(0.8, 0.5)
        gm = g_max(1.3, 2.0)
        profile = rate_profile_y(
            protocol, link, omegas=(1.3, 2.0), l=-gm, samples=50
        )
        target = key_rate_min_thermal(protocol, link, 1.3, 2.0).rate
        assert profile.rate[0] == pytest.approx(target, rel=1e-12)
        assert float(profile.rate.min()) == pytest.approx(target, rel=1e-12)

    def test_requires_positive_delta(self):
        link = LinkPair(0.99, 0.99)  # kappa small, u > 0
        with pytest.raises(DomainError):
            rate_profile_y(
                ProtocolParams(), link, omegas=(1.2, 1.2), l=50.0, samples=10
            )


def _thermal_profile_by_sample(protocol, link, omegas, l, samples):
    """Reference: the thermal profile as one single-point report per sample,
    on the sample grid of rate_profile_y."""
    wa, wb = omegas
    kappa = (1.0 - link.tau_a) * wa + (1.0 - link.tau_b) * wb
    u = 2.0 * math.sqrt((1.0 - link.tau_a) * (1.0 - link.tau_b))
    delta = kappa - u * l
    d_phys = _physical_dprime_max(wa, wb, l)
    if u == 0.0:
        d_primes = np.linspace(0.0, d_phys if d_phys > 0.0 else 1.0, samples)
    else:
        d_cap = min(delta / u, d_phys) * (1.0 - 1e-9)
        d_primes = np.concatenate(
            [[0.0], np.geomspace(d_cap * 1e-4, d_cap, samples - 1)]
        ) if d_cap > 0.0 else np.array([0.0])
    ys, rates, skipped = [], [], 0
    for dp in d_primes:
        try:
            ancilla = AncillaState(wa, wb, dp + l, dp - l)
            if not is_physical(ancilla):
                skipped += 1
                continue
            lams = effective_noise(link.tau_a, link.tau_b, *astuple(ancilla))
            point = [*as_point(link.tau_a, link.tau_b, *lams)]
            rates.append(_report(protocol, *point, equivalent_chi(*point)).rate)
        except DomainError:
            skipped += 1
            continue
        ys.append(u * u * dp * dp)
    return np.asarray(ys), np.asarray(rates), skipped


class TestRateProfileThermalLattice:
    def test_matches_per_sample_key_rate(self):
        protocol = ProtocolParams()
        rng = np.random.default_rng(4)
        cases = [
            (LinkPair(0.8, 0.5), (1.3, 2.0), -0.3),
            (LinkPair(0.5, 0.8), (1.3, 2.0), 0.4),
            (LinkPair(0.9, 0.9), (2.0, 2.0), 0.0),
            (LinkPair(1.0, 1.0), (2.0, 2.0), 0.1),  # lossless: outside the kernel
            (LinkPair(1.0, 0.7), (1.5, 3.0), 0.2),  # u = 0 on a lossy link
            # on the boundary the physical d' range is the single point 0
            (LinkPair(0.8, 0.5), (1.3, 2.0), -g_max(1.3, 2.0)),
        ]
        for _ in range(6):
            ta, tb = (float(t) for t in rng.uniform(0.3, 1.0, size=2))
            wa, wb = (float(w) for w in rng.uniform(1.0, 5.0, size=2))
            cases.append((LinkPair(ta, tb), (wa, wb),
                          float(rng.uniform(-0.9, 0.9)) * g_max(wa, wb)))
        for link, omegas, l in cases:
            profile = rate_profile_y(protocol, link, omegas=omegas, l=l, samples=60)
            ys, rates, skipped = _thermal_profile_by_sample(
                protocol, link, omegas, l, 60
            )
            assert np.array_equal(profile.y, ys)
            assert np.array_equal(profile.rate, rates)  # 0 ulp
            assert profile.skipped == skipped

    def test_no_physical_sample_raises(self):
        # u = 0 and l beyond the boundary: every sample is nonphysical
        with pytest.raises(EmptyDomainError):
            rate_profile_y(
                ProtocolParams(), LinkPair(1.0, 1.0),
                omegas=(2.0, 2.0), l=2.0, samples=20,
            )


def count_reports(monkeypatch) -> list:
    """Record every call of the single-point report builder keyrate._report."""
    calls, original = [], keyrate_module._report

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(keyrate_module, "_report", counting)
    return calls


class TestArrayPathsSkipSinglePointReports:
    """The certificate and the profiles evaluate every point in the array
    path; a single-point report is built only for the analytic minimum."""

    @pytest.mark.parametrize("link, omegas", [
        (LinkPair(0.9, 0.7), (2.0, 2.0)),
        (LinkPair(0.8, 0.8), (1.3, 2.5)),
        (LinkPair(0.6, 0.95), (3.0, 1.5)),
        (LinkPair(1.0, 1.0), (2.0, 3.0)),  # lossless: every physical point decoupled
    ])
    def test_min_rate_brute_reports_once(self, monkeypatch, link, omegas):
        protocol = ProtocolParams()
        calls = count_reports(monkeypatch)
        report = min_rate_brute(protocol, link, *omegas, FAST_GRID)
        assert len(calls) == 1  # key_rate_min_thermal's analytic minimum
        # the lattice's own rate at the argmin is the general rate there
        ancilla = AncillaState(*omegas, report.g_star, report.g_prime_star)
        assert is_physical(ancilla)
        lams = effective_noise(link.tau_a, link.tau_b, *astuple(ancilla))
        point = [*as_point(link.tau_a, link.tau_b, *lams)]
        assert report.rate_star == _report(protocol, *point, equivalent_chi(*point)).rate  # 0 ulp

    def test_lossless_profile_reports_nothing(self, monkeypatch):
        protocol, link = ProtocolParams(), LinkPair(1.0, 1.0)
        calls = count_reports(monkeypatch)
        profile = rate_profile_y(protocol, link, omegas=(2.0, 2.0), l=0.1, samples=200)
        assert calls == []
        monkeypatch.undo()
        ys, rates, skipped = _thermal_profile_by_sample(
            protocol, link, (2.0, 2.0), 0.1, 200)
        assert profile.rate.size == 200
        assert np.array_equal(profile.y, ys)
        assert np.array_equal(profile.rate, rates)  # 0 ulp
        assert profile.skipped == skipped

    def test_lossless_rows_take_their_own_xi(self):
        # a batch with one xi per row: each decoupled row gets xi log2(mu / 4)
        xi = np.array([[1.0], [0.97], [0.5]])
        ones, omegas = np.ones(3), np.array([2.0, 1.5, 3.0])
        prof = _thermal_profiles(ProtocolParams(xi=xi), ones, ones, omegas, omegas,
                                 np.array([0.1, 0.0, -0.2]), 20)
        for row, x in enumerate(xi[:, 0]):
            ancilla = AncillaState(omegas[row], omegas[row], 0.0, 0.0)
            assert is_physical(ancilla)
            point = [*as_point(1.0, 1.0, *effective_noise(1.0, 1.0, *astuple(ancilla)))]
            want = _report(ProtocolParams(xi=x), *point, equivalent_chi(*point)).rate
            assert np.all(prof.rate[row] == want)


class TestProfilesLeadingRun:
    def test_mask_with_a_gap_is_cut_at_the_gap(self):
        # profiles keep each row's leading run of admissible samples; an
        # admissible sample after a skipped one is left out and skipped
        ok = np.array([[True, True, False, True, True],
                       [True, True, True, True, True],
                       [True, False, False, False, True]])
        present = np.ones_like(ok)
        y = np.arange(15.0).reshape(3, 5)
        prof = _profiles("chi", present, ok, y, -y, 2.0 * y)
        assert prof.count.tolist() == [2, 5, 1]
        assert prof.skipped.tolist() == [3, 0, 4]
        assert prof.y.tolist() == [[0, 1, 0, 0, 0], [5, 6, 7, 8, 9], [10] * 5]
        assert np.array_equal(prof.d_prime, -prof.y)
        assert np.array_equal(prof.rate, 2.0 * prof.y)
        assert prof.first().y.tolist() == [0.0, 1.0] and prof.first().skipped == 3

    def test_leading_skip_is_an_empty_profile(self):
        ok = np.array([[False, True, True]])
        with pytest.raises(EmptyDomainError, match="fixed-chi"):
            _profiles("chi", np.ones_like(ok), ok, *np.zeros((3, 1, 3)))


class TestRateProfileChi:
    def test_endpoint_matches_min_chi(self):
        protocol = ProtocolParams()
        for link in (LinkPair(0.95, 0.95), LinkPair(0.98, 0.6)):
            chi = 2.0 * link.beta / link.alpha + 0.01
            profile = rate_profile_y(protocol, link, chi=chi, samples=150)
            target = key_rate_min_chi(protocol, link, chi).rate
            assert profile.rate[0] == pytest.approx(target, rel=1e-12)
            assert profile.y[0] == pytest.approx(
                link.alpha * chi / link.beta, rel=1e-15
            )

    def test_strictly_increasing(self):
        link = LinkPair(0.95, 0.95)
        profile = rate_profile_y(
            ProtocolParams(), link, chi=2.0 * link.beta / link.alpha + 0.01,
            samples=150,
        )
        assert np.all(np.diff(profile.rate) > 0.0)

    def test_d_prime_zero_at_start(self):
        link = LinkPair(0.9, 0.6)
        profile = rate_profile_y(
            ProtocolParams(), link, chi=2.0 * link.beta / link.alpha + 0.05,
            samples=100,
        )
        assert profile.d_prime[0] == 0.0
        assert np.all(np.diff(profile.d_prime) > 0.0)

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_endpoint_near_loss_floor_matches_oracle(self, symmetric):
        # chi eps above the loss floor beta^2 / alpha, where y_min - beta
        # cancels; the asymmetric family keeps lam = beta eps = 2 |dtau|
        protocol = ProtocolParams(xi=0.97)
        worst = 0.0
        for tau in (0.6, 0.9, 0.97):
            for eps in (1e-6, 1e-9, 1e-12):
                link = LinkPair(tau, tau if symmetric else tau * (1.0 - eps))
                chi = link.beta ** 2 / link.alpha * (1.0 + eps)
                if symmetric:
                    want = mp_oracle.rate_min_chi_sym(0.97, 61, chi)
                else:
                    want = mp_oracle.rate_min_chi_asym(0.97, 61, *astuple(link), chi)
                got = float(rate_profile_y(protocol, link, chi=chi).rate[0])
                err = abs(got - float(want)) / max(1.0, abs(got), abs(float(want)))
                worst = max(worst, err)
        assert worst <= 1e-12

    def test_underflowed_noise_sample_is_skipped(self):
        # alpha = 1e-320 is subnormal: lam lam' underflows to 0 at the last
        # sample, which is outside the domain, not a log2(0) rate of +inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            profile = rate_profile_y(ProtocolParams(), LinkPair(1e-160, 1e-160), chi=5.0,
                                     samples=6)
        assert len(profile.rate) == 5 and np.isfinite(profile.rate).all()
        assert profile.skipped == 1

    def test_overflowed_noise_samples_are_skipped_without_warning(self):
        # y_max ~ 1e199 at chi = 1e100, so y * y overflows: an inf u d',
        # outside the domain, and no overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            profile = rate_profile_y(ProtocolParams(), LinkPair(0.5, 0.99), chi=1e100)
        assert len(profile.rate) == 1 and np.isfinite(profile.rate).all()
        assert profile.skipped == 199

    def test_overflowing_chi_raises_before_any_warning(self):
        # chi^2 overflows above about 1.34e154; 1e150 keeps its profile
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"chi\^2 overflows"):
                rate_profile_y(ProtocolParams(), LinkPair(0.5, 0.99), chi=1e155)
            profile = rate_profile_y(ProtocolParams(), LinkPair(0.5, 0.99), chi=1e150)
        assert profile.y[0] == 3.322147651006711e+149 and profile.skipped == 199
        assert profile.rate.tolist() == [-483.3713430667445]

    def test_mode_selection_is_exclusive(self):
        with pytest.raises(ValueError):
            rate_profile_y(ProtocolParams(), LinkPair(0.9, 0.6), samples=10)
        with pytest.raises(ValueError):
            rate_profile_y(
                ProtocolParams(), LinkPair(0.9, 0.6),
                omegas=(2.0, 2.0), l=0.0, chi=5.0, samples=10,
            )


class TestAnalyticLowerBound:
    def test_analytic_value_lower_bounds_grid_samples(self):
        # stronger than the argmin check: every admissible lattice point
        # must sit above the minimized closed form
        protocol = ProtocolParams(xi=0.97)
        link = LinkPair(0.9, 0.7)
        wa, wb = 2.5, 1.8
        lo, hi = physical_bounds(wa, wb)
        ax = _axis(hi, 201)
        g, gp = np.meshgrid(ax, ax, indexing="ij")
        rates, phys, adm = _grid_rates(protocol, link.tau_a, link.tau_b, wa, wb, g, gp)
        mask = phys & adm
        analytic = key_rate_min_thermal(protocol, link, wa, wb).rate
        assert float(rates[mask].min()) >= analytic - 1e-4


SCAN_LINKS = [(0.9, 0.7), (0.8, 0.8), (0.5, 0.99), (0.3, 0.31)]
SCAN_OMEGA_A = [1.0, 1.5, 10.0, 1e2, 1e4, 1e6, 1e10, 1e20, 1e40, 1e76]
SCAN_OMEGA_B = [1.0, 2.0, 1e3, 1e10, 1e76]


def test_large_noise_scan_never_undercuts_the_minimum():
    # 200 certificates up to OMEGA_MAX.  Before the entropy had one
    # non-cancelling form, 26 of them (each with a mode at omega = 1e10)
    # reported a rate below the analytic minimum, down to -1.2e-5
    protocol = ProtocolParams()
    worst = math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for ta, tb in SCAN_LINKS:
            for wa in SCAN_OMEGA_A:
                for wb in SCAN_OMEGA_B:
                    rep = min_rate_brute(protocol, LinkPair(ta, tb), wa, wb)
                    worst = min(worst, rep.gap / max(1.0, abs(rep.analytic_rate)))
    assert worst >= -1e-12
