"""Touchstone v1 two-port reader/writer.

Accepts the classic option line ``# <freq-unit> S <RI|MA|DB> R <ohms>``
followed by 9-column data rows (frequency + four complex values in the
v1 two-port column order S11, S21, S12, S22).  Writing always emits RI
format with the frequency in Hz.  Errors carry 1-based line numbers.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .errors import TouchstoneFormatError

_FREQ_UNITS = {"HZ": 1.0, "KHZ": 1e3, "MHZ": 1e6, "GHZ": 1e9}
# An RI pair whose parts lie within this bound has a finite magnitude.
_RI_BOUND = 2.0 ** 1022


class TouchstoneFormat(Enum):
    RI = "RI"
    MA = "MA"
    DB = "DB"


@dataclass(frozen=True)
class TouchstoneRecord:
    """Parsed two-port data: strictly increasing frequency axis plus one
    (S11, S12, S21, S22) tuple per row (matrix order, not file order)."""

    frequencies: tuple[float, ...]
    s: tuple[tuple[complex, complex, complex, complex], ...]
    format: TouchstoneFormat
    resistance: float

    def __post_init__(self):
        if len(self.frequencies) != len(self.s):
            raise ValueError("frequency and data row counts differ")
        if len(self.frequencies) < 2:
            raise ValueError("need at least two rows for interpolation")
        if any(map(operator.le, self.frequencies[1:], self.frequencies)):
            raise ValueError("frequencies must be strictly increasing")
        if not self.resistance > 0:
            raise ValueError("reference resistance must be > 0")


def _complex_from(fmt: TouchstoneFormat, a: float, b: float) -> complex:
    if fmt is TouchstoneFormat.MA:
        return cmath.rect(a, math.radians(b))
    return cmath.rect(10.0 ** (a / 20.0), math.radians(b))


def parse_touchstone(text: str) -> TouchstoneRecord:
    fmt: TouchstoneFormat | None = None
    unit_scale = 1.0
    resistance = 50.0
    freqs: list[float] = []
    rows: list[tuple[complex, complex, complex, complex]] = []

    for line_no, line in enumerate(text.splitlines(), start=1):
        if "!" in line:
            line = line[:line.index("!")]
        fields = line.split()
        if not fields:
            continue
        if fields[0].startswith("#"):
            if fmt is not None:
                raise TouchstoneFormatError(line_no, "duplicate option line")
            tokens = line.strip()[1:].split()
            if len(tokens) != 5:
                raise TouchstoneFormatError(
                    line_no, "option line must read '# <freq-unit> S <RI|MA|DB> R <ohms>'")
            unit, param, fmt_token, r_token, r_value = (t.upper() for t in tokens)
            if unit not in _FREQ_UNITS:
                raise TouchstoneFormatError(line_no, f"unknown frequency unit {tokens[0]!r}")
            if param != "S":
                raise TouchstoneFormatError(line_no, f"only S-parameter files supported, got {tokens[1]!r}")
            if fmt_token not in TouchstoneFormat.__members__:
                raise TouchstoneFormatError(line_no, f"unknown data format {tokens[2]!r}")
            if r_token != "R":
                raise TouchstoneFormatError(line_no, "expected 'R <ohms>' in option line")
            try:
                resistance = float(r_value)
            except ValueError:
                raise TouchstoneFormatError(line_no, f"bad reference resistance {tokens[4]!r}")
            if not 0 < resistance < math.inf:
                raise TouchstoneFormatError(line_no, "reference resistance must be finite and > 0")
            unit_scale = _FREQ_UNITS[unit]
            fmt = TouchstoneFormat[fmt_token]
            convert = complex if fmt is TouchstoneFormat.RI else functools.partial(_complex_from, fmt)
            continue
        if fmt is None:
            raise TouchstoneFormatError(line_no, "data before option line")
        if len(fields) != 9:
            raise TouchstoneFormatError(
                line_no, f"expected 9 columns (freq + 8 values), got {len(fields)}")
        try:
            values = list(map(float, fields))
        except ValueError:
            raise TouchstoneFormatError(line_no, f"non-numeric data in {line.strip()!r}")
        f = values[0] * unit_scale
        if freqs and f <= freqs[-1]:
            raise TouchstoneFormatError(line_no, "frequency axis not strictly increasing")
        try:
            # v1 two-port column order: S11, S21, S12, S22.
            s11, s21, s12, s22 = map(convert, values[1::2], values[2::2])
            finite = (convert is complex and math.isfinite(f) and math.hypot(*values) <= _RI_BOUND
                      or all(map(math.isfinite, map(abs, (f, s11, s12, s21, s22)))))
        except (OverflowError, ValueError):  # a magnitude or angle past the float range
            finite = False
        if not finite:
            raise TouchstoneFormatError(line_no, f"non-finite value in {line.strip()!r}")
        freqs.append(f)
        rows.append((s11, s12, s21, s22))

    if fmt is None:
        raise TouchstoneFormatError(1, "missing option line")
    if len(freqs) < 2:
        raise TouchstoneFormatError(1, "need at least two data rows")
    return TouchstoneRecord(tuple(freqs), tuple(rows), fmt, resistance)


def read_touchstone(path: str | Path) -> TouchstoneRecord:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        # The bytes before the bad one decode; count their lines as the parser does.
        line = len((exc.object[:exc.start].decode("utf-8") + "x").splitlines())
        raise TouchstoneFormatError(
            line, f"not UTF-8 text ({exc.reason}: byte 0x{exc.object[exc.start]:02x})") from None
    return parse_touchstone(text)


def format_touchstone(record: TouchstoneRecord) -> str:
    """Render as RI-format text with the frequency axis in Hz."""
    lines = [f"# HZ S RI R {record.resistance:.17g}"]
    for f, (s11, s12, s21, s22) in zip(record.frequencies, record.s):
        parts = [f"{f:.17g}"]
        for value in (s11, s21, s12, s22):  # v1 two-port file order
            parts.append(f"{value.real:.17g}")
            parts.append(f"{value.imag:.17g}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def write_touchstone(record: TouchstoneRecord, path: str | Path) -> None:
    Path(path).write_text(format_touchstone(record), encoding="utf-8")


def record_from_matrices(frequencies, matrices, resistance: float = 50.0) -> TouchstoneRecord:
    """Build a record from per-frequency S matrices (TwoPortMatrix)."""
    rows = tuple((m.m11, m.m12, m.m21, m.m22) for m in matrices)
    return TouchstoneRecord(tuple(float(f) for f in frequencies), rows,
                            TouchstoneFormat.RI, resistance)
