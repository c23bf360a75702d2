"""Tests for the TLE codec."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satiot.orbits.tle import (TLE, TLEError, checksum, format_tle,
                               parse_tle, parse_tle_file)
from satiot.orbits.tle import _format_exp_field, _parse_exp_field

from tests.conftest import make_test_tle


class TestChecksum:
    def test_digits_and_minus(self):
        # minus counts 1, letters count 0
        line = "1" + " " * 67
        assert checksum(line) == 1
        assert checksum("-" + " " * 67) == 1
        assert checksum("A" * 68) == 0

    def test_known_line(self):
        tle = make_test_tle()
        line1, line2 = format_tle(tle)
        assert int(line1[68]) == checksum(line1)
        assert int(line2[68]) == checksum(line2)


class TestExpField:
    @pytest.mark.parametrize("text,value", [
        (" 00000+0", 0.0),
        (" 12345-4", 0.12345e-4),
        ("-12345-4", -0.12345e-4),
        (" 50000-3", 0.5e-3),
    ])
    def test_parse_known(self, text, value):
        assert _parse_exp_field(text) == pytest.approx(value, rel=1e-9)

    @given(st.floats(min_value=1e-9, max_value=0.09) | st.just(0.0))
    @settings(max_examples=100)
    def test_roundtrip(self, value):
        encoded = _format_exp_field(value)
        assert len(encoded) == 8
        decoded = _parse_exp_field(encoded)
        assert decoded == pytest.approx(value, rel=1e-4, abs=1e-12)

    def test_negative_roundtrip(self):
        assert _parse_exp_field(_format_exp_field(-3.2e-5)) \
            == pytest.approx(-3.2e-5, rel=1e-4)

    def test_bad_field_raises(self):
        with pytest.raises(TLEError):
            _parse_exp_field("garbage!")


class TestRoundtrip:
    def test_full_roundtrip(self):
        tle = make_test_tle()
        line1, line2 = format_tle(tle)
        assert len(line1) == 69 and len(line2) == 69
        back = parse_tle(line1, line2, name=tle.name)
        assert back.norad_id == tle.norad_id
        assert back.inclination_deg == pytest.approx(tle.inclination_deg)
        assert back.raan_deg == pytest.approx(tle.raan_deg)
        assert back.eccentricity == pytest.approx(tle.eccentricity)
        assert back.mean_motion_rev_day \
            == pytest.approx(tle.mean_motion_rev_day, abs=1e-7)
        assert back.bstar == pytest.approx(tle.bstar, rel=1e-4)
        assert back.epochdays == pytest.approx(tle.epochdays)

    @given(
        incl=st.floats(0.0, 180.0),
        raan=st.floats(0.0, 359.99),
        ecc=st.floats(0.0, 0.1),
        argp=st.floats(0.0, 359.99),
        ma=st.floats(0.0, 359.99),
        n=st.floats(10.0, 16.9),
    )
    @settings(max_examples=100)
    def test_roundtrip_property(self, incl, raan, ecc, argp, ma, n):
        tle = TLE(name="X", norad_id=12345, classification="U",
                  intl_designator="24001A", epochyr=24, epochdays=100.5,
                  ndot=0.0, nddot=0.0, bstar=1e-5, ephemeris_type=0,
                  element_set_no=1, inclination_deg=incl, raan_deg=raan,
                  eccentricity=ecc, argp_deg=argp, mean_anomaly_deg=ma,
                  mean_motion_rev_day=n, rev_number=1)
        back = parse_tle(*format_tle(tle))
        assert back.inclination_deg == pytest.approx(incl, abs=1e-4)
        assert back.eccentricity == pytest.approx(ecc, abs=1e-7)
        assert back.mean_motion_rev_day == pytest.approx(n, abs=1e-7)


class TestParsingErrors:
    def test_bad_checksum(self):
        line1, line2 = format_tle(make_test_tle())
        corrupted = line1[:68] + str((int(line1[68]) + 1) % 10)
        with pytest.raises(TLEError, match="checksum"):
            parse_tle(corrupted, line2)

    def test_checksum_can_be_skipped(self):
        line1, line2 = format_tle(make_test_tle())
        corrupted = line1[:68] + str((int(line1[68]) + 1) % 10)
        parse_tle(corrupted, line2, validate_checksum=False)

    def test_wrong_line_numbers(self):
        line1, line2 = format_tle(make_test_tle())
        with pytest.raises(TLEError, match="line numbers"):
            parse_tle(line2, line1)

    def test_short_lines(self):
        with pytest.raises(TLEError, match="69 columns"):
            parse_tle("1 short", "2 short")

    def test_catalog_number_mismatch(self):
        a = format_tle(make_test_tle(norad_id=11111))
        b = format_tle(make_test_tle(norad_id=22222))
        with pytest.raises(TLEError, match="mismatch"):
            parse_tle(a[0], b[1])

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field,line,start,end", [
        ("ndot", 0, 33, 43),
        ("inclination_deg", 1, 8, 16),
        ("raan_deg", 1, 17, 25),
        ("argp_deg", 1, 34, 42),
        ("mean_anomaly_deg", 1, 43, 51),
        ("mean_motion_rev_day", 1, 52, 63),
    ])
    def test_non_finite_field_named(self, field, line, start, end, text):
        """``float()`` reads nan/inf; a checksummed line must not pass."""
        lines = list(format_tle(make_test_tle()))
        body = lines[line][:start] + text.rjust(end - start) \
            + lines[line][end:68]
        lines[line] = body + str(checksum(body))
        with pytest.raises(TLEError, match=f"non-finite {field}"):
            parse_tle(*lines)

    @pytest.mark.parametrize("field", [
        "epochdays", "ndot", "nddot", "bstar", "inclination_deg",
        "raan_deg", "eccentricity", "argp_deg", "mean_anomaly_deg",
        "mean_motion_rev_day"])
    def test_format_refuses_non_finite(self, field):
        tle = replace(make_test_tle(), **{field: float("nan")})
        with pytest.raises(TLEError, match=f"non-finite {field}"):
            format_tle(tle)


class TestDerivedAccessors:
    def test_no_kozai_units(self):
        tle = make_test_tle()
        # rev/day to rad/min: n * 2 pi / 1440
        import math
        expected = tle.mean_motion_rev_day * 2 * math.pi / 1440.0
        assert tle.no_kozai_rad_min == pytest.approx(expected)

    def test_period(self):
        tle = make_test_tle(altitude_km=850.0)
        # 850 km orbit: period just over 101.9 minutes.
        assert tle.period_minutes == pytest.approx(101.9, abs=0.5)

    def test_epoch_year(self):
        assert make_test_tle().epoch.calendar()[0] == 2024


class TestFileParsing:
    def test_three_line_format(self):
        tle = make_test_tle()
        line1, line2 = format_tle(tle)
        text = ["MY SATELLITE", line1, line2]
        parsed = parse_tle_file(text)
        assert len(parsed) == 1
        assert parsed[0].name == "MY SATELLITE"

    def test_two_line_format_no_names(self):
        line1, line2 = format_tle(make_test_tle())
        parsed = parse_tle_file([line1, line2, line1, line2])
        assert len(parsed) == 2
        assert parsed[0].name == ""

    def test_dangling_line_raises(self):
        line1, _ = format_tle(make_test_tle())
        with pytest.raises(TLEError, match="dangling"):
            parse_tle_file([line1])

    def test_blank_lines_ignored(self):
        line1, line2 = format_tle(make_test_tle())
        parsed = parse_tle_file(["", line1, line2, "  \n"])
        assert len(parsed) == 1
