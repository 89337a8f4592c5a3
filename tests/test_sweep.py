"""Tests for the transmissivity sweeps, relay scan and export formats."""

import io
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import cvmdi.sweep as sweep_module
from cvmdi import (
    ChiKnowledge,
    DomainError,
    LinkPair,
    ParameterError,
    ProtocolParams,
    SweepConfig,
    SweepRecord,
    SweepTable,
    ThermalKnowledge,
    export,
    key_rate_min_chi,
    key_rate_min_thermal,
    relay_scan,
    run_sweep,
)
from cvmdi.core import OMEGA_MAX, excess_chi
from cvmdi.keyrate import min_thermal_noise

FIG_PROTOCOL = ProtocolParams(xi=0.97, phi=60.0)
NO_EXCESS = ChiKnowledge(epsilon=0.0)


def read_csv(text: str) -> SweepTable:
    """A CSV export read back by numpy's reader (blank fields are NaN),
    without error text: the round trip needs no parser in the package."""
    assert text.startswith("tau_a,tau_b,chi,rate,secure\n")
    cells = np.genfromtxt(io.StringIO(text), delimiter=",", skip_header=1, usecols=range(4))
    return SweepTable(*np.atleast_2d(cells).T, errors={})


def table_of(*rows: SweepRecord) -> SweepTable:
    """The SweepTable whose rows are `rows`."""
    tau_a, tau_b, chi, rate = (np.array(col, dtype=float) for col in
                               zip(*((r.tau_a, r.tau_b, r.chi, r.rate) for r in rows)))
    errors = {k: r.error for k, r in enumerate(rows) if r.error is not None}
    return SweepTable(tau_a, tau_b, chi, rate, errors)


def reference_export(records: list[SweepRecord], fmt: str) -> str:
    """Record-per-cell export, kept as the reference for the columnar one."""
    def fmt9(x: float) -> str:
        return format(x, ".9g")

    if fmt == "csv":
        lines = ["tau_a,tau_b,chi,rate,secure"]
        for r in records:
            chi = "" if math.isnan(r.chi) else fmt9(r.chi)
            rate = "" if math.isnan(r.rate) else fmt9(r.rate)
            secure = "true" if r.secure else "false"
            lines.append(f"{fmt9(r.tau_a)},{fmt9(r.tau_b)},{chi},{rate},{secure}")
        return "\n".join(lines) + "\n"
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


def assert_single_point_cells(protocol, knowledge, records) -> int:
    """Assert that every record equals the knowledge model's single-point
    call bit for bit, error text included; return how many cells failed."""
    errors = 0
    for record in records:
        link = LinkPair(record.tau_a, record.tau_b)
        chi = math.nan
        try:
            if isinstance(knowledge, ThermalKnowledge):
                wa, wb = knowledge.omega_a, knowledge.omega_b
                expected = key_rate_min_thermal(protocol, link, wa, wb)
                chi = expected.chi
            else:
                chi = excess_chi(link.tau_a, link.tau_b, knowledge.epsilon)
                expected = key_rate_min_chi(protocol, link, chi)
        except DomainError as exc:
            errors += 1
            assert record.error == str(exc)
            assert math.isnan(record.rate) and not record.secure
            both_nan = math.isnan(record.chi) and math.isnan(chi)
            assert record.chi == chi or both_nan
            continue
        assert record.error is None
        assert record.rate == expected.rate  # 0 ulp
        assert record.chi == chi
        assert record.secure == expected.secure
    return errors


class TestRunSweep:
    def test_two_by_two_corners(self):
        config = SweepConfig(
            tau_a_range=(0.95, 0.98), tau_b_range=(0.95, 0.98),
            steps_a=2, steps_b=2, protocol=FIG_PROTOCOL,
        )
        records = run_sweep(config)
        assert len(records) == 4
        sym_cell = records[0]
        assert (sym_cell.tau_a, sym_cell.tau_b) == (0.95, 0.95)
        assert sym_cell.rate == pytest.approx(1.41476008143047, rel=1e-10)
        assert sym_cell.secure

    def test_record_count(self):
        config = SweepConfig(steps_a=7, steps_b=5)
        assert len(run_sweep(config)) == 35

    def test_row_order(self):
        config = SweepConfig(
            tau_a_range=(0.6, 0.8), tau_b_range=(0.7, 0.9), steps_a=3, steps_b=3
        )
        records = run_sweep(config)
        seen = [(r.tau_a, r.tau_b) for r in records]
        assert seen == sorted(seen)  # tau_a outer, tau_b inner, ascending

    def test_cells_match_single_point_calls_exactly(self):
        # lattice cells come from one kernel call, out-of-domain cells from
        # the single-point functions; either way a record must equal the
        # single-point call bit for bit, error text included
        thermal = ThermalKnowledge(1.5, 2.0)
        cases = [
            (FIG_PROTOCOL, ChiKnowledge(), run_sweep(SweepConfig(
                tau_a_range=(0.55, 0.95), tau_b_range=(0.6, 1.0),
                steps_a=5, steps_b=5, protocol=FIG_PROTOCOL,
            ))),
            (FIG_PROTOCOL, thermal, run_sweep(SweepConfig(
                tau_a_range=(0.5, 1.0), tau_b_range=(0.5, 1.0),
                steps_a=6, steps_b=6, protocol=FIG_PROTOCOL, knowledge=thermal,
            ))),
            # reaches tau = 1: the chi-pole cell at (1, 1)
            (FIG_PROTOCOL, NO_EXCESS, run_sweep(SweepConfig(
                tau_a_range=(0.9, 1.0), tau_b_range=(0.8, 1.0),
                steps_a=3, steps_b=5, protocol=FIG_PROTOCOL, knowledge=NO_EXCESS,
            ))),
            (FIG_PROTOCOL, ChiKnowledge(),
             relay_scan(0.5, FIG_PROTOCOL, steps=9).records),
            (FIG_PROTOCOL, thermal,
             relay_scan(0.7, FIG_PROTOCOL, steps=9, knowledge=thermal).records),
        ]
        errors = sum(assert_single_point_cells(*case) for case in cases)
        assert errors == 1  # the pole; the thermal (1, 1) corner is lossless

    def test_thermal_knowledge(self):
        config = SweepConfig(
            tau_a_range=(0.8, 0.9), tau_b_range=(0.8, 0.9), steps_a=2, steps_b=2,
            protocol=FIG_PROTOCOL, knowledge=ThermalKnowledge(1.5, 2.0),
        )
        records = run_sweep(config)
        link = LinkPair(0.8, 0.9)
        expected = key_rate_min_thermal(FIG_PROTOCOL, link, 1.5, 2.0).rate
        assert records[1].rate == expected

    def test_error_cells_tagged_not_fatal(self):
        # epsilon = 0 makes the lossless symmetric corner hit the chi pole
        config = SweepConfig(
            tau_a_range=(0.99, 1.0), tau_b_range=(0.99, 1.0), steps_a=2, steps_b=2,
            protocol=FIG_PROTOCOL, knowledge=NO_EXCESS,
        )
        records = run_sweep(config)
        corner = records[-1]
        assert (corner.tau_a, corner.tau_b) == (1.0, 1.0)
        assert math.isnan(corner.rate)
        assert not corner.secure
        assert corner.error
        assert sum(r.error is not None for r in records) == 1

    def test_largest_omega_gives_finite_cells(self):
        # at OMEGA_MAX nothing overflows: every cell is a finite rate (the
        # lossless corner is decoupled); above it the model is refused
        config = SweepConfig(
            steps_a=3, steps_b=3, protocol=FIG_PROTOCOL,
            knowledge=ThermalKnowledge(OMEGA_MAX, OMEGA_MAX),
        )
        table = run_sweep(config)
        assert table.errors == {} and np.isfinite(table.rate).all()
        with pytest.raises(ParameterError, match="omega_b must be at most"):
            ThermalKnowledge(2.0, 1e200)

    def test_surface_decreases_with_loss(self):
        config = SweepConfig(
            tau_a_range=(0.5, 1.0), tau_b_range=(0.5, 1.0), steps_a=6, steps_b=6,
            protocol=FIG_PROTOCOL,
        )
        records = {(r.tau_a, r.tau_b): r.rate for r in run_sweep(config)}
        taus = sorted({k[0] for k in records})
        for lo, hi in zip(taus, taus[1:]):
            assert records[(lo, lo)] < records[(hi, hi)]


def count_reports(monkeypatch, knowledge_type) -> list:
    """Record the link of every single-point report a knowledge model builds."""
    calls, original = [], knowledge_type.report

    def counting(self, protocol, link):
        calls.append((link.tau_a, link.tau_b))
        return original(self, protocol, link)

    monkeypatch.setattr(knowledge_type, "report", counting)
    return calls


class TestKnowledgeModels:
    """Each model holds its own noise parameters; ``noise`` reads only the links."""

    def test_chi_noise_per_link_epsilon(self):
        ta, tb = np.array([0.9, 0.8]), np.array([0.7, 0.8])
        lam, chi = ChiKnowledge(epsilon=np.array([0.0, 0.3])).noise(ta, tb)
        assert chi.tolist() == [excess_chi(0.9, 0.7, 0.0), excess_chi(0.8, 0.8, 0.3)]
        assert lam.shape == (2,)

    def test_thermal_noise(self):
        ta, tb = np.array([0.9, 0.8]), np.array([0.7, 0.8])
        got, want = THERMAL.noise(ta, tb), min_thermal_noise(ta, tb, 1.5, 2.0)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


class TestSinglePointReports:
    """Only the cells outside the rate kernel's domain reach the knowledge
    model's single-point report."""

    @pytest.mark.parametrize("config, reached", [
        (SweepConfig(), []),
        (SweepConfig(knowledge=NO_EXCESS), [(1.0, 1.0)]),
        (SweepConfig(knowledge=ThermalKnowledge(1.5, 2.0)), [(1.0, 1.0)]),
    ], ids=["default", "epsilon-0", "thermal"])
    def test_only_out_of_domain_cells(self, monkeypatch, config, reached):
        calls = count_reports(monkeypatch, type(config.knowledge))
        table = run_sweep(config)
        assert calls == reached
        assert len(table) == 51 * 51


class TestRelayScan:
    def test_placement_ordering(self):
        scan = relay_scan(0.588, FIG_PROTOCOL, steps=25)
        assert len(scan.records) == 25
        end = scan.records[-1]
        assert end.tau_a == 1.0
        midpoint_rate = key_rate_min_chi(
            FIG_PROTOCOL,
            LinkPair(math.sqrt(0.588), math.sqrt(0.588)),
            excess_chi(math.sqrt(0.588), math.sqrt(0.588), 0.01),
        ).rate
        assert midpoint_rate == pytest.approx(-0.644952626003161, rel=1e-10)
        asym_rate = key_rate_min_chi(
            FIG_PROTOCOL, LinkPair(0.98, 0.6),
            excess_chi(0.98, 0.6, 0.01),
        ).rate
        assert asym_rate == pytest.approx(0.379392191958814, rel=1e-10)
        assert asym_rate > midpoint_rate

    def test_argmax_at_alice_extreme(self):
        for total in (0.4, 0.6, 0.8):
            scan = relay_scan(total, FIG_PROTOCOL, steps=31)
            assert scan.argmax.tau_a == scan.records[-1].tau_a == 1.0

    def test_mirror_point_insecure(self):
        link = LinkPair(0.6, 0.98)
        rate = key_rate_min_chi(FIG_PROTOCOL, link, excess_chi(link.tau_a, link.tau_b, 0.01)).rate
        assert rate == pytest.approx(-1.08803005629537, rel=1e-10)

    def test_contour_product(self):
        scan = relay_scan(0.5, FIG_PROTOCOL, steps=11)
        for record in scan.records:
            assert record.tau_a * record.tau_b == pytest.approx(0.5, rel=1e-12)


class TestExport:
    def test_single_record_csv(self):
        text = export(table_of(SweepRecord(1.0, 1.0, 4.0, 0.123456789, True)), "csv")
        lines = text.splitlines()
        assert lines[0] == "tau_a,tau_b,chi,rate,secure"
        assert lines[1] == "1,1,4,0.123456789,true"
        assert len(lines) == 2

    def test_csv_round_trip_byte_identical(self):
        config = SweepConfig(
            tau_a_range=(0.7, 0.95), tau_b_range=(0.6, 1.0), steps_a=4, steps_b=4
        )
        text = export(run_sweep(config), "csv")
        assert export(read_csv(text), "csv") == text

    def test_error_cell_fields(self):
        record = SweepRecord(1.0, 1.0, 4.0, math.nan, False, error="pole")
        line = export(table_of(record), "csv").splitlines()[1]
        assert line == "1,1,4,,false"
        payload = json.loads(export(table_of(record), "json"))
        assert payload[0]["rate"] is None
        assert payload[0]["error"] == "pole"

    def test_json_keys_identical(self):
        records = table_of(
            SweepRecord(0.9, 0.8, 5.0, 0.5, True),
            SweepRecord(1.0, 1.0, 4.0, math.nan, False, error="pole"),
        )
        payload = json.loads(export(records, "json"))
        assert [set(obj) for obj in payload] == [
            {"tau_a", "tau_b", "chi", "rate", "secure", "error"}
        ] * 2

    def test_default_sweep_line_count(self):
        records = run_sweep(SweepConfig())  # 51 x 51 default lattice
        text = export(records, "csv")
        assert len(text.splitlines()) == 2602

    def test_nine_significant_digits(self):
        record = SweepRecord(0.123456789123, 0.9, 5.0, 1.0 / 3.0, True)
        text = export(table_of(record), "csv")
        assert text.splitlines()[1].split(",")[0] == "0.123456789"
        assert text.splitlines()[1].split(",")[3] == "0.333333333"

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            export([], "csv")


THERMAL = ThermalKnowledge(1.5, 2.0)


# non-finite values, signed zeros, subnormals and values whose repr needs
# 17 digits, beside any float
VALUES = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324,
                          2.2250738585072014e-308, 0.1 + 0.2, 1.0 / 3.0, 0.5]) | st.floats()


class TestSweepTable:
    @pytest.mark.parametrize("make", [
        # epsilon = 0 reaches the chi pole at the (1, 1) corner
        lambda: run_sweep(SweepConfig(
            tau_a_range=(0.5, 1.0), tau_b_range=(0.5, 1.0),
            steps_a=11, steps_b=11, protocol=FIG_PROTOCOL, knowledge=NO_EXCESS,
        )),
        # thermal knowledge with the lossless (1, 1) corner
        lambda: run_sweep(SweepConfig(
            tau_a_range=(0.5, 1.0), tau_b_range=(0.5, 1.0),
            steps_a=11, steps_b=11, protocol=FIG_PROTOCOL, knowledge=THERMAL,
        )),
        lambda: relay_scan(0.5, FIG_PROTOCOL, steps=21).records,
        lambda: relay_scan(0.5, FIG_PROTOCOL, steps=21, knowledge=THERMAL).records,
        # signed zeros and non-finite values on the axes too
        lambda: SweepTable(np.array([0.0, -0.0, math.nan, math.inf]),
                           np.array([-0.0, 0.0, 0.5, 0.5]),
                           np.array([math.nan, 1.0, -math.inf, 0.1 + 0.2]),
                           np.array([0.5, -0.0, 5e-324, math.nan]), {3: "pole"}),
    ], ids=["chi-pole", "thermal-lossless", "relay-chi", "relay-thermal", "edge-values"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_export_matches_record_reference(self, make, fmt):
        table = make()
        assert export(table, fmt) == reference_export(list(table), fmt)

    @given(st.data())
    def test_export_matches_record_reference_on_any_table(self, data):
        n = data.draw(st.integers(1, 12))
        axis = data.draw(st.lists(VALUES, min_size=1, max_size=4))
        tau_a, tau_b = (data.draw(st.lists(st.sampled_from(axis), min_size=n, max_size=n))
                        for _ in "ab")
        chi, rate = (data.draw(st.lists(VALUES, min_size=n, max_size=n))
                     for _ in "cr")
        errors = data.draw(st.dictionaries(st.integers(0, n - 1), st.text(max_size=8)))
        table = SweepTable(*(np.array(c, dtype=float) for c in (tau_a, tau_b, chi, rate)),
                           errors)
        # at BLOCK = 3, rows with their own text land in later blocks too
        for block in (sweep_module.BLOCK, 3):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(sweep_module, "BLOCK", block)
                for fmt in ("csv", "json"):
                    assert export(table, fmt) == reference_export(list(table), fmt)

    def test_sweep_and_export_build_no_rows(self, monkeypatch):
        def no_rows(*args, **kwargs):
            raise AssertionError("a SweepRecord row was built")

        monkeypatch.setattr(sweep_module, "SweepRecord", no_rows)
        table = run_sweep(SweepConfig(knowledge=NO_EXCESS))  # reaches the pole
        assert len(table.errors) == 1
        export(table, "csv")
        export(table, "json")

    def test_row_view(self):
        table = run_sweep(SweepConfig(
            tau_a_range=(0.9, 1.0), tau_b_range=(0.8, 1.0),
            steps_a=3, steps_b=5, protocol=FIG_PROTOCOL, knowledge=NO_EXCESS,
        ))
        assert len(table) == 15
        rate = key_rate_min_chi(
            FIG_PROTOCOL, LinkPair(0.9, 0.8), excess_chi(0.9, 0.8, 0.0)
        ).rate
        assert table[0] == SweepRecord(0.9, 0.8, table.chi[0], rate, rate > 0.0)
        with pytest.raises(DomainError) as pole:
            key_rate_min_chi(FIG_PROTOCOL, LinkPair(1.0, 1.0), 4.0)
        assert table[-15] == table[0]
        assert (table[-1].tau_a, table[-1].tau_b, table[-1].chi) == (1.0, 1.0, 4.0)
        assert math.isnan(table[-1].rate) and not table[-1].secure
        assert table[-1].error == str(pole.value)
        assert table.errors == {14: str(pole.value)}
        rows = list(table)
        assert len(rows) == 15 and rows[0] == table[0]
        assert [r.secure for r in rows] == (table.rate > 0.0).tolist()
        assert [r.error is None for r in rows] == [True] * 14 + [False]
        with pytest.raises(IndexError):
            table[15]


def runs_table(tau_a, rate, errors=None) -> SweepTable:
    """A table with the given tau_a and rate columns, tau_b counting up and
    chi a constant."""
    n = len(tau_a)
    return SweepTable(np.array(tau_a, dtype=float), np.linspace(0.5, 0.9, n),
                      np.full(n, 4.0), np.array(rate, dtype=float), errors or {})


class TestRowTemplates:
    """Each row's template holds its tau_a text and secure flag, one
    false/true pair per run of equal tau_a; the export still matches the
    record-per-cell reference wherever a run starts, ends or breaks."""

    @pytest.mark.parametrize("make, block", [
        # 7 is no multiple of steps_b = 5: blocks start inside lattice rows
        (lambda: run_sweep(SweepConfig(
            tau_a_range=(0.6, 0.9), tau_b_range=(0.5, 1.0), steps_a=4, steps_b=5,
            protocol=FIG_PROTOCOL)), 7),
        # the chi pole (1, 1) in the middle of the tau_a = 1 run, with
        # secure rows on both sides of it
        (lambda: sweep_module._eval_cells(
            FIG_PROTOCOL, NO_EXCESS, np.repeat([0.9, 1.0], 5),
            np.tile([0.8, 0.95, 1.0, 0.99, 0.85], 2)), None),
        # NaN and non-finite fields inside runs, secure flags mixed
        (lambda: runs_table([0.7] * 4 + [0.8] * 4, [0.5, math.nan, -0.5, 0.5,
                                                   -0.5, math.inf, 0.5, -math.inf]), None),
        (lambda: relay_scan(0.5, FIG_PROTOCOL, steps=21).records, None),
        (lambda: relay_scan(0.5, FIG_PROTOCOL, steps=21, knowledge=THERMAL).records, 4),
        (lambda: runs_table([0.8], [0.5]), None),
        (lambda: runs_table([0.8], [math.nan], {0: "pole"}), None),
        # -0.0 and 0.0 compare equal but print apart: each is its own run
        (lambda: runs_table([0.0, 0.0, -0.0, -0.0, 0.0, -0.0],
                            [0.5, -0.5, 0.5, -0.5, -0.5, 0.5]), None),
        (lambda: runs_table([-0.0, 0.0, 0.0, -0.0], [-0.5, 0.5, -0.5, 0.5]), 3),
    ], ids=["block-inside-run", "pole-mid-run", "nan-mid-run", "relay-chi",
            "relay-thermal", "one-row", "one-error-row", "signed-zero-runs",
            "signed-zero-blocks"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_export_matches_record_reference(self, monkeypatch, make, block, fmt):
        table = make()
        if block is not None:
            monkeypatch.setattr(sweep_module, "BLOCK", block)
        assert export(table, fmt) == reference_export(list(table), fmt)

    def test_pole_is_mid_run(self):
        table = sweep_module._eval_cells(FIG_PROTOCOL, NO_EXCESS, np.repeat([0.9, 1.0], 5),
                                         np.tile([0.8, 0.95, 1.0, 0.99, 0.85], 2))
        assert list(table.errors) == [7]
        assert (table.rate[[5, 6, 8, 9]] > 0).all()

    def test_pieces_are_framed_blocks(self, monkeypatch):
        monkeypatch.setattr(sweep_module, "BLOCK", 2)
        table = runs_table([0.7, 0.7, 0.8, 0.8, 0.9], [0.5, -0.5, 0.5, 0.5, -0.5])
        pieces = list(sweep_module._block_texts(table, "json"))
        assert pieces[0] == "[" and pieces[-1] == "]\n"
        # head, three blocks of at most two rows, each after the first led
        # by the row separator, tail
        assert len(pieces) == 5
        assert pieces[1].startswith('{"tau_a": 0.7, "tau_b": 0.5, ')
        assert pieces[2].startswith(', {"tau_a": 0.8, "tau_b": 0.7, ')
        assert pieces[3].startswith(', {"tau_a": 0.9, "tau_b": 0.9, ')
        assert "".join(pieces) == export(table, "json")


def boundary_table(protocol: ProtocolParams, knowledge, block: int) -> SweepTable:
    """A sweep of three blocks and five cells whose (1, 1) cells, outside
    the kernel's domain, sit at the last cell of the first block, the first
    cell of the second and the table's last cell."""
    n = 3 * block + 5
    taus = np.linspace(0.3, 0.99, 97)
    tau_a, tau_b = np.resize(np.repeat(taus, taus.size), n), np.resize(taus, n)
    for k in (block - 1, block, n - 1):
        tau_a[k] = tau_b[k] = 1.0
    return sweep_module._eval_cells(protocol, knowledge, tau_a, tau_b)


class TestBlocks:
    """Sweeps evaluate and export in blocks of BLOCK cells; a table of
    several blocks gives what one cell at a time would."""

    @pytest.mark.parametrize("knowledge, errors", [(NO_EXCESS, 3), (THERMAL, 0)],
                             ids=["chi-pole", "thermal-lossless"])
    def test_cells_at_block_edges_match_single_point_calls(self, monkeypatch, knowledge,
                                                           errors):
        monkeypatch.setattr(sweep_module, "BLOCK", 8)
        table = boundary_table(FIG_PROTOCOL, knowledge, 8)
        assert assert_single_point_cells(FIG_PROTOCOL, knowledge, table) == errors
        if errors:
            assert sorted(table.errors) == [7, 8, len(table) - 1]

    @pytest.mark.parametrize("knowledge", [NO_EXCESS, THERMAL],
                             ids=["chi-pole", "thermal-lossless"])
    def test_blocks_match_one_block(self, monkeypatch, knowledge):
        block = sweep_module.BLOCK
        blocked = boundary_table(FIG_PROTOCOL, knowledge, block)
        monkeypatch.setattr(sweep_module, "BLOCK", len(blocked))
        whole = boundary_table(FIG_PROTOCOL, knowledge, block)
        for column in ("tau_a", "tau_b", "chi", "rate"):
            got, want = getattr(blocked, column), getattr(whole, column)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))  # bit for bit
        assert blocked.errors == whole.errors

    @pytest.mark.parametrize("block", [8, sweep_module.BLOCK], ids=["block-8", "block"])
    @pytest.mark.parametrize("knowledge", [NO_EXCESS, THERMAL],
                             ids=["chi-pole", "thermal-lossless"])
    def test_export_at_block_edges_matches_record_reference(self, monkeypatch, block,
                                                            knowledge):
        monkeypatch.setattr(sweep_module, "BLOCK", block)
        table = boundary_table(FIG_PROTOCOL, knowledge, block)
        for fmt in ("csv", "json"):
            assert export(table, fmt) == reference_export(list(table), fmt)
        text = export(table, "csv")
        assert export(read_csv(text), "csv") == text


def traced_peak(fn, *args):
    """(result, tracemalloc peak in bytes) of one call."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSweepMemory:
    """A sweep's working memory is a block's: it scales with the output,
    not with a table's worth of temporaries."""

    @pytest.fixture(scope="class")
    def table(self):
        for fmt in ("csv", "json"):  # first calls import and cache what they use
            export(run_sweep(SweepConfig(steps_a=2, steps_b=2)), fmt)
        return run_sweep(SweepConfig(steps_a=301, steps_b=301))

    def test_run_sweep_peak_is_about_its_columns(self, table):
        # one kernel call over the whole table peaked at 4.6 x its columns
        _, peak = traced_peak(run_sweep, SweepConfig(steps_a=301, steps_b=301))
        assert peak <= 2 * 4 * table.rate.nbytes

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_export_peak_is_about_twice_its_text(self, table, fmt):
        # the block texts and their join; one % operation over the whole
        # table's fields peaked at 3.5 x (CSV) and 2.4 x (JSON) its text
        text, peak = traced_peak(export, table, fmt)
        assert peak <= 2.2 * len(text)


class TestSweepConfigValidation:
    def test_range_validation(self):
        with pytest.raises(ValueError):
            SweepConfig(tau_a_range=(0.0, 1.0))
        with pytest.raises(ValueError):
            SweepConfig(tau_b_range=(0.9, 0.5))
        with pytest.raises(ValueError):
            SweepConfig(steps_a=1)
