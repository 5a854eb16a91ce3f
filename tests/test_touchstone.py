"""Touchstone v1 two-port file handling.

Write -> read must reproduce every value to 1e-12, the three data
formats must agree through the internal complex representation, and
malformed files must be rejected with the offending line number.
"""

import cmath
import math

import pytest

from wptkit.errors import TouchstoneFormatError
from wptkit.touchstone import (
    TouchstoneFormat,
    TouchstoneRecord,
    format_touchstone,
    parse_touchstone,
    read_touchstone,
    record_from_matrices,
    write_touchstone,
)


def sample_record(n=6, r=50.0):
    freqs, rows = [], []
    for i in range(n):
        f = 1e6 * (i + 1)
        s11 = complex(0.31 - 0.01 * i, -0.22 + 0.005 * i)
        s21 = complex(0.05 * (i + 1), 0.4 - 0.03 * i)
        s22 = complex(-0.12, 0.08 * i)
        freqs.append(f)
        rows.append((s11, s21, s21, s22))
    return TouchstoneRecord(tuple(freqs), tuple(rows), TouchstoneFormat.RI, r)


class TestParse:
    def test_ri_option_line(self):
        text = "# HZ S RI R 50\n1e6 0 0 1 0 1 0 0 0\n2e6 0 0 1 0 1 0 0 0\n"
        record = parse_touchstone(text)
        assert record.format is TouchstoneFormat.RI
        assert record.resistance == 50.0
        assert record.frequencies == (1e6, 2e6)

    def test_v1_column_order_is_s11_s21_s12_s22(self):
        text = "# HZ S RI R 50\n1e6 0.1 0 0.2 0 0.3 0 0.4 0\n2e6 0.1 0 0.2 0 0.3 0 0.4 0\n"
        record = parse_touchstone(text)
        s11, s12, s21, s22 = record.s[0]
        assert (s11, s21, s12, s22) == (0.1, 0.2, 0.3, 0.4)

    def test_frequency_units(self):
        text = "# MHZ S RI R 75\n1 0 0 1 0 1 0 0 0\n2 0 0 1 0 1 0 0 0\n"
        record = parse_touchstone(text)
        assert record.frequencies == (1e6, 2e6)
        assert record.resistance == 75.0

    def test_comments_and_blanks_ignored(self):
        text = ("! measured data\n\n# HZ S RI R 50\n"
                "1e6 0 0 1 0 1 0 0 0 ! row comment\n"
                "2e6 0 0 1 0 1 0 0 0\n")
        record = parse_touchstone(text)
        assert len(record.frequencies) == 2

    def test_db_format_zero_db_is_unity(self):
        text = "# HZ S DB R 50\n1e6 0 0 0 0 0 0 0 0\n2e6 0 0 0 0 0 0 0 0\n"
        record = parse_touchstone(text)
        for value in record.s[0]:
            assert value == pytest.approx(1.0 + 0j)

    def test_ma_format(self):
        text = "# HZ S MA R 50\n1e6 0.5 90 1 0 1 0 0.5 -90\n2e6 0.5 90 1 0 1 0 0.5 -90\n"
        record = parse_touchstone(text)
        assert record.s[0][0] == pytest.approx(0.5j)
        assert record.s[0][3] == pytest.approx(-0.5j)


class TestRoundTrip:
    def test_write_read_exact(self, tmp_path):
        record = sample_record()
        path = tmp_path / "link.s2p"
        write_touchstone(record, path)
        back = read_touchstone(path)
        assert back.resistance == record.resistance
        for f_a, f_b in zip(record.frequencies, back.frequencies):
            assert abs(f_a - f_b) <= 1e-12 * f_a
        for row_a, row_b in zip(record.s, back.s):
            for a, b in zip(row_a, row_b):
                assert abs(a - b) <= 1e-12

    def test_ma_source_reaches_same_complex_values(self, tmp_path):
        # An MA file and the re-serialized RI file must parse identically.
        lines = ["# HZ S MA R 50"]
        freqs = [1e6, 2e6, 3e6]
        mags = [(0.4, 30.0), (0.5, -45.0), (0.6, 120.0)]
        for f, (m, ang) in zip(freqs, mags):
            v = f"{m} {ang}"
            lines.append(f"{f} {v} {v} {v} {v}")
        ma_record = parse_touchstone("\n".join(lines))
        ri_record = parse_touchstone(format_touchstone(ma_record))
        for row_a, row_b in zip(ma_record.s, ri_record.s):
            for a, b in zip(row_a, row_b):
                assert abs(a - b) <= 1e-12
        assert ma_record.s[0][0] == pytest.approx(cmath.rect(0.4, math.radians(30.0)))

    def test_record_from_matrices(self):
        import wptkit
        freqs = [1e7, 2e7]
        mats = [wptkit.s_matrix(0.1, 0.5, 0.5, 0.2, 50, 50) for _ in freqs]
        record = record_from_matrices(freqs, mats)
        assert record.s[0][1] == 0.5
        assert wptkit.import_override(record).at(freqs[0]).m21 == 0.5


class TestRejection:
    def test_bad_option_line(self):
        with pytest.raises(TouchstoneFormatError) as err:
            parse_touchstone("# HZ Y RI R 50\n1e6 0 0 1 0 1 0 0 0\n")
        assert err.value.line == 1

    def test_missing_option_line(self):
        with pytest.raises(TouchstoneFormatError) as err:
            parse_touchstone("1e6 0 0 1 0 1 0 0 0\n")
        assert err.value.line == 1

    def test_wrong_column_count(self):
        with pytest.raises(TouchstoneFormatError) as err:
            parse_touchstone("# HZ S RI R 50\n1e6 0 0 1 0\n")
        assert err.value.line == 2

    def test_non_monotone_frequency(self):
        text = "# HZ S RI R 50\n2e6 0 0 1 0 1 0 0 0\n1e6 0 0 1 0 1 0 0 0\n"
        with pytest.raises(TouchstoneFormatError) as err:
            parse_touchstone(text)
        assert err.value.line == 3

    def test_non_numeric_data(self):
        text = "# HZ S RI R 50\n1e6 0 0 one 0 1 0 0 0\n"
        with pytest.raises(TouchstoneFormatError) as err:
            parse_touchstone(text)
        assert err.value.line == 2

    def test_single_row_rejected(self):
        with pytest.raises(TouchstoneFormatError):
            parse_touchstone("# HZ S RI R 50\n1e6 0 0 1 0 1 0 0 0\n")

    def test_unknown_unit(self):
        with pytest.raises(TouchstoneFormatError) as err:
            parse_touchstone("# THZ S RI R 50\n")
        assert err.value.line == 1

    def test_nonpositive_resistance(self):
        with pytest.raises(TouchstoneFormatError):
            parse_touchstone("# HZ S RI R 0\n1e6 0 0 1 0 1 0 0 0\n2e6 0 0 1 0 1 0 0 0\n")

    @pytest.mark.parametrize("option, row", [
        ("RI R 50", "2e6 nan 0 1 0 1 0 0 0"),
        ("RI R 50", "2e6 0 0 1 0 -inf 0 0 0"),
        ("RI R 50", "inf 0 0 1 0 1 0 0 0"),
        ("MA R 50", "2e6 1 inf 1 0 1 0 0 0"),
        ("DB R 50", "2e6 0 0 7000 0 0 0 0 0"),  # 10^350 overflows
        ("RI R 50", "2e6 0 0 1.5e308 1.5e308 1.5e308 1.5e308 0 0"),  # |S21| overflows
    ])
    def test_non_finite_value(self, option, row):
        text = f"# HZ S {option}\n1e6 0 0 0 0 0 0 0 0\n{row}\n"
        with pytest.raises(TouchstoneFormatError, match="non-finite") as err:
            parse_touchstone(text)
        assert err.value.line == 3

    def test_non_finite_resistance(self):
        with pytest.raises(TouchstoneFormatError) as err:
            parse_touchstone("# HZ S RI R inf\n1e6 0 0 1 0 1 0 0 0\n2e6 0 0 1 0 1 0 0 0\n")
        assert err.value.line == 1

    def test_duplicate_option_line(self):
        text = "# HZ S RI R 50\n# HZ S RI R 50\n"
        with pytest.raises(TouchstoneFormatError) as err:
            parse_touchstone(text)
        assert err.value.line == 2


class TestRecordValidation:
    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            TouchstoneRecord((1e6,), ((0j, 0j, 0j, 0j),), TouchstoneFormat.RI, 50.0)

    def test_strictly_increasing(self):
        rows = ((0j, 0j, 0j, 0j),) * 2
        with pytest.raises(ValueError):
            TouchstoneRecord((2e6, 1e6), rows, TouchstoneFormat.RI, 50.0)
