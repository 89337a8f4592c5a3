"""Tests for the transmissivity sweeps, relay scan and export formats."""

import json
import math

import pytest

from cvmdi import (
    ChiKnowledge,
    DomainError,
    LinkPair,
    ProtocolParams,
    SweepConfig,
    SweepRecord,
    ThermalKnowledge,
    chi_equivalent,
    distance_to_tau,
    export,
    key_rate_min_chi,
    key_rate_min_thermal,
    parse_csv,
    relay_scan,
    run_sweep,
)

FIG_PROTOCOL = ProtocolParams(xi=0.97, phi=60.0, epsilon=0.01)


class TestDistanceToTau:
    def test_zero_distance(self):
        assert distance_to_tau(0.0, 0.2) == 1.0

    def test_ten_db(self):
        assert distance_to_tau(50.0, 0.2) == pytest.approx(0.1, rel=1e-15)

    def test_frozen(self):
        assert distance_to_tau(15.0, 0.2) == pytest.approx(
            0.501187233627272, rel=1e-12
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            distance_to_tau(-1.0, 0.2)
        with pytest.raises(ValueError):
            distance_to_tau(10.0, 0.0)


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
        no_excess = ProtocolParams(xi=0.97, phi=60.0, epsilon=0.0)
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
            (no_excess, ChiKnowledge(), run_sweep(SweepConfig(
                tau_a_range=(0.9, 1.0), tau_b_range=(0.8, 1.0),
                steps_a=3, steps_b=5, protocol=no_excess,
            ))),
            (FIG_PROTOCOL, ChiKnowledge(),
             relay_scan(0.5, FIG_PROTOCOL, steps=9).records),
            (FIG_PROTOCOL, thermal,
             relay_scan(0.7, FIG_PROTOCOL, steps=9, knowledge=thermal).records),
        ]
        errors = 0
        for protocol, knowledge, records in cases:
            for record in records:
                link = LinkPair(record.tau_a, record.tau_b)
                chi = math.nan
                try:
                    if isinstance(knowledge, ThermalKnowledge):
                        wa, wb = knowledge.omega_a, knowledge.omega_b
                        expected = key_rate_min_thermal(protocol, link, wa, wb)
                        chi = expected.chi
                    else:
                        chi = chi_equivalent(link, protocol.epsilon)
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
            protocol=ProtocolParams(xi=0.97, phi=60.0, epsilon=0.0),
        )
        records = run_sweep(config)
        corner = records[-1]
        assert (corner.tau_a, corner.tau_b) == (1.0, 1.0)
        assert math.isnan(corner.rate)
        assert not corner.secure
        assert corner.error
        assert sum(r.error is not None for r in records) == 1

    def test_surface_decreases_with_loss(self):
        config = SweepConfig(
            tau_a_range=(0.5, 1.0), tau_b_range=(0.5, 1.0), steps_a=6, steps_b=6,
            protocol=FIG_PROTOCOL,
        )
        records = {(r.tau_a, r.tau_b): r.rate for r in run_sweep(config)}
        taus = sorted({k[0] for k in records})
        for lo, hi in zip(taus, taus[1:]):
            assert records[(lo, lo)] < records[(hi, hi)]


class TestRelayScan:
    def test_placement_ordering(self):
        scan = relay_scan(0.588, FIG_PROTOCOL, steps=25)
        assert len(scan.records) == 25
        end = scan.records[-1]
        assert end.tau_a == 1.0
        midpoint_rate = key_rate_min_chi(
            FIG_PROTOCOL,
            LinkPair(math.sqrt(0.588), math.sqrt(0.588)),
            chi_equivalent(LinkPair(math.sqrt(0.588), math.sqrt(0.588)), 0.01),
        ).rate
        assert midpoint_rate == pytest.approx(-0.644952626003161, rel=1e-10)
        asym_rate = key_rate_min_chi(
            FIG_PROTOCOL, LinkPair(0.98, 0.6),
            chi_equivalent(LinkPair(0.98, 0.6), 0.01),
        ).rate
        assert asym_rate == pytest.approx(0.379392191958814, rel=1e-10)
        assert asym_rate > midpoint_rate

    def test_argmax_at_alice_extreme(self):
        for total in (0.4, 0.6, 0.8):
            scan = relay_scan(total, FIG_PROTOCOL, steps=31)
            assert scan.argmax.tau_a == scan.records[-1].tau_a == 1.0

    def test_mirror_point_insecure(self):
        link = LinkPair(0.6, 0.98)
        rate = key_rate_min_chi(FIG_PROTOCOL, link, chi_equivalent(link, 0.01)).rate
        assert rate == pytest.approx(-1.08803005629537, rel=1e-10)

    def test_contour_product(self):
        scan = relay_scan(0.5, FIG_PROTOCOL, steps=11)
        for record in scan.records:
            assert record.tau_a * record.tau_b == pytest.approx(0.5, rel=1e-12)


class TestExport:
    def test_single_record_csv(self):
        text = export([SweepRecord(1.0, 1.0, 4.0, 0.123456789, True)], "csv")
        lines = text.splitlines()
        assert lines[0] == "tau_a,tau_b,chi,rate,secure"
        assert lines[1] == "1,1,4,0.123456789,true"
        assert len(lines) == 2

    def test_csv_round_trip_byte_identical(self):
        config = SweepConfig(
            tau_a_range=(0.7, 0.95), tau_b_range=(0.6, 1.0), steps_a=4, steps_b=4
        )
        text = export(run_sweep(config), "csv")
        assert export(parse_csv(text), "csv") == text

    def test_error_cell_fields(self):
        record = SweepRecord(1.0, 1.0, 4.0, math.nan, False, error="pole")
        line = export([record], "csv").splitlines()[1]
        assert line == "1,1,4,,false"
        payload = json.loads(export([record], "json"))
        assert payload[0]["rate"] is None
        assert payload[0]["error"] == "pole"

    def test_json_keys_identical(self):
        records = [
            SweepRecord(0.9, 0.8, 5.0, 0.5, True),
            SweepRecord(1.0, 1.0, 4.0, math.nan, False, error="pole"),
        ]
        payload = json.loads(export(records, "json"))
        assert [set(obj) for obj in payload] == [
            {"tau_a", "tau_b", "chi", "rate", "secure", "error"}
        ] * 2

    def test_default_sweep_line_count(self):
        records = run_sweep(SweepConfig())  # 51 x 51 default lattice
        text = export(records, "csv")
        assert len(text.splitlines()) == 2602

    def test_nine_significant_digits(self):
        text = export([SweepRecord(0.123456789123, 0.9, 5.0, 1.0 / 3.0, True)], "csv")
        assert text.splitlines()[1].split(",")[0] == "0.123456789"
        assert text.splitlines()[1].split(",")[3] == "0.333333333"

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            export([], "csv")


class TestSweepConfigValidation:
    def test_range_validation(self):
        with pytest.raises(ValueError):
            SweepConfig(tau_a_range=(0.0, 1.0))
        with pytest.raises(ValueError):
            SweepConfig(tau_b_range=(0.9, 0.5))
        with pytest.raises(ValueError):
            SweepConfig(steps_a=1)
