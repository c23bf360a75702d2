"""Two-Line Element (TLE) codec.

Parses and formats NORAD two-line element sets, including the fixed-point
"assumed decimal" notation used for B*, n-dot/n-ddot and eccentricity, plus
the modulo-10 line checksum.  The :class:`TLE` value type is the interchange
format between the constellation generator and the SGP4 propagator.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Tuple


from .constants import DEG2RAD, MINUTES_PER_DAY, TWO_PI
from .timebase import Epoch, epoch_from_tle_date

__all__ = ["TLE", "TLEError", "checksum", "parse_tle", "format_tle"]


class TLEError(ValueError):
    """Raised for malformed TLE lines."""


def checksum(line: str) -> int:
    """Modulo-10 TLE checksum of the first 68 columns.

    Digits count as their value; minus signs count as 1; everything else
    counts as 0.
    """
    total = 0
    for ch in line[:68]:
        if ch.isdigit():
            total += int(ch)
        elif ch == "-":
            total += 1
    return total % 10


def _parse_exp_field(field: str) -> float:
    """Parse the TLE 'assumed decimal with exponent' notation, e.g. ' 12345-4'."""
    field = field.strip()
    if not field or set(field) <= {"0", "+", "-", " "}:
        return 0.0
    sign = -1.0 if field[0] == "-" else 1.0
    body = field[1:] if field[0] in "+-" else field
    match = re.fullmatch(r"(\d+)([+-]\d)", body)
    if match is None:
        raise TLEError(f"bad exponent field: {field!r}")
    mantissa, exponent = match.groups()
    return sign * float(f"0.{mantissa}") * 10.0 ** int(exponent)


def _format_exp_field(value: float) -> str:
    """Inverse of :func:`_parse_exp_field`, producing an 8-column field.

    The field holds a 5-digit mantissa and a single signed exponent
    digit.  Normalized mantissas cover ``[1e-10, 1e9)``; below that the
    mantissa is *denormalized* (leading zeros, exponent pinned at -9,
    e.g. ``1e-11`` -> ``' 01000-9'``) down to the absolute floor of
    ``5e-15``, under which the value underflows to the zero field.
    Magnitudes at or above ``1e9`` cannot be written and raise
    :class:`TLEError`.
    """
    if value == 0.0:
        return " 00000+0"
    sign = "-" if value < 0 else " "
    mag = abs(value)
    exponent = int(math.floor(math.log10(mag))) + 1
    if exponent < -9:
        # Denormalized: parse accepts leading-zero mantissas (Celestrak
        # emits them), so sub-1e-10 magnitudes keep their digits instead
        # of collapsing to zero — format(parse(line)) stays a fixed
        # point on such lines.
        mantissa_digits = int(round(mag * 1e14))
        if mantissa_digits == 0:
            return " 00000+0"
        return f"{sign}{mantissa_digits:05d}-9"
    mantissa = mag / 10.0 ** exponent
    mantissa_digits = int(round(mantissa * 1e5))
    if mantissa_digits >= 100000:  # rounding carried over, e.g. 0.999999
        mantissa_digits = 10000
        exponent += 1
    if exponent > 9:
        raise TLEError(f"magnitude too large for exponent field: {value!r}")
    exp_str = f"{exponent:+d}"
    return f"{sign}{mantissa_digits:05d}{exp_str}"


#: The float fields of a :class:`TLE`: ``float()`` reads ``nan`` and
#: ``inf`` from a line, and neither is an element value.
_FLOAT_FIELDS = ("epochdays", "ndot", "nddot", "bstar", "inclination_deg",
                 "raan_deg", "eccentricity", "argp_deg", "mean_anomaly_deg",
                 "mean_motion_rev_day")


def _check_finite(tle: TLE) -> None:
    for field in _FLOAT_FIELDS:
        value = getattr(tle, field)
        if not math.isfinite(value):
            raise TLEError(f"non-finite {field}: {value!r}")


@dataclass(frozen=True)
class TLE:
    """A parsed two-line element set.

    Angles are stored in **degrees** and mean motion in **revolutions per
    day**, exactly as written in the element set; use the ``*_rad`` /
    :meth:`no_kozai_rad_min` accessors for propagation units.
    """

    name: str
    norad_id: int
    classification: str
    intl_designator: str
    epochyr: int          # two-digit year
    epochdays: float      # fractional day of year (1.0 = Jan 1, 00:00)
    ndot: float           # rev/day^2 / 2 (as written in the TLE)
    nddot: float          # rev/day^3 / 6
    bstar: float          # 1/earth-radii
    ephemeris_type: int
    element_set_no: int
    inclination_deg: float
    raan_deg: float
    eccentricity: float
    argp_deg: float
    mean_anomaly_deg: float
    mean_motion_rev_day: float
    rev_number: int

    # ------------------------------------------------------------------
    # Derived accessors
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> Epoch:
        return Epoch(epoch_from_tle_date(self.epochyr, self.epochdays))

    @property
    def inclination_rad(self) -> float:
        return self.inclination_deg * DEG2RAD

    @property
    def raan_rad(self) -> float:
        return self.raan_deg * DEG2RAD

    @property
    def argp_rad(self) -> float:
        return self.argp_deg * DEG2RAD

    @property
    def mean_anomaly_rad(self) -> float:
        return self.mean_anomaly_deg * DEG2RAD

    @property
    def no_kozai_rad_min(self) -> float:
        """Mean motion in radians per minute (the SGP4 input unit)."""
        return self.mean_motion_rev_day * TWO_PI / MINUTES_PER_DAY

    @property
    def period_minutes(self) -> float:
        return MINUTES_PER_DAY / self.mean_motion_rev_day

    @cached_property
    def fingerprint(self) -> str:
        """Stable 16-hex-digit fingerprint of the element set.

        SHA-256 over the two formatted lines (the name is not part of
        them), so it is invariant under a parse → format → parse
        round trip.  Computed on first use and kept on the instance:
        the dataclass is frozen but has no slots, so
        ``cached_property`` can store it.
        """
        line1, line2 = format_tle(self)
        digest = hashlib.sha256(f"{line1}\n{line2}".encode("ascii"))
        return digest.hexdigest()[:16]

    def with_name(self, name: str) -> "TLE":
        return replace(self, name=name)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_lines(self) -> Tuple[str, str]:
        return format_tle(self)

    def __str__(self) -> str:
        line1, line2 = self.to_lines()
        return f"{self.name}\n{line1}\n{line2}"


def parse_tle(line1: str, line2: str, name: str = "",
              validate_checksum: bool = True) -> TLE:
    """Parse a TLE from its two element lines."""
    line1 = line1.rstrip("\n")
    line2 = line2.rstrip("\n")
    if len(line1) < 69 or len(line2) < 69:
        raise TLEError("TLE lines must be at least 69 columns")
    if line1[0] != "1" or line2[0] != "2":
        raise TLEError("TLE line numbers must be 1 and 2")
    if validate_checksum:
        for line in (line1, line2):
            expected = checksum(line)
            actual = int(line[68])
            if expected != actual:
                raise TLEError(
                    f"checksum mismatch on line {line[0]}: "
                    f"expected {expected}, found {actual}")

    norad1 = int(line1[2:7])
    norad2 = int(line2[2:7])
    if norad1 != norad2:
        raise TLEError(f"catalog number mismatch: {norad1} vs {norad2}")

    try:
        tle = TLE(
            name=name.strip(),
            norad_id=norad1,
            classification=line1[7],
            intl_designator=line1[9:17].strip(),
            epochyr=int(line1[18:20]),
            epochdays=float(line1[20:32]),
            ndot=float(line1[33:43]),
            nddot=_parse_exp_field(line1[44:52]),
            bstar=_parse_exp_field(line1[53:61]),
            ephemeris_type=int(line1[62]) if line1[62].strip() else 0,
            element_set_no=int(line1[64:68]),
            inclination_deg=float(line2[8:16]),
            raan_deg=float(line2[17:25]),
            eccentricity=float("0." + line2[26:33].strip()),
            argp_deg=float(line2[34:42]),
            mean_anomaly_deg=float(line2[43:51]),
            mean_motion_rev_day=float(line2[52:63]),
            rev_number=int(line2[63:68]),
        )
    except ValueError as exc:
        raise TLEError(f"malformed TLE field: {exc}") from exc

    _check_finite(tle)
    if not 0.0 <= tle.eccentricity < 1.0:
        raise TLEError(f"eccentricity out of range: {tle.eccentricity}")
    if tle.mean_motion_rev_day <= 0.0:
        raise TLEError("mean motion must be positive")
    if not 0.0 < tle.epochdays < 367.0:
        raise TLEError(f"epoch day-of-year out of range: {tle.epochdays}")
    return tle


def format_tle(tle: TLE) -> Tuple[str, str]:
    """Render a :class:`TLE` back to its two 69-column lines."""
    _check_finite(tle)
    if not 0 <= tle.norad_id <= 99999:
        raise TLEError(f"catalog number out of range: {tle.norad_id}")
    if not 0 <= tle.epochyr <= 99:
        raise TLEError(f"two-digit epoch year out of range: {tle.epochyr}")
    if not 0.0 < tle.epochdays < 367.0:
        raise TLEError(f"epoch day-of-year out of range: {tle.epochdays}")
    if len(tle.intl_designator) > 8:
        raise TLEError(
            f"international designator too long: {tle.intl_designator!r}")
    if not 0 <= tle.element_set_no <= 9999:
        raise TLEError(
            f"element set number out of range: {tle.element_set_no}")
    if not 0 <= tle.ephemeris_type <= 9:
        raise TLEError(
            f"ephemeris type out of range: {tle.ephemeris_type}")
    if not 0 <= tle.rev_number <= 99999:
        raise TLEError(f"rev number out of range: {tle.rev_number}")
    # First-derivative field is written ' .00001234' / '-.00001234':
    # a sign column followed by the fraction with its leading zero dropped.
    # The field has no integer digits, so |ndot| must round below 1; a
    # magnitude that rounds to zero loses its sign (parsing the zero
    # field yields +0.0, so writing '-' would break the parse → format
    # fixed point the fingerprint relies on).
    ndot_body = f"{abs(tle.ndot):.8f}"
    if not ndot_body.startswith("0."):
        raise TLEError(f"ndot out of representable range: {tle.ndot}")
    sign = "-" if tle.ndot < 0 and float(ndot_body) != 0.0 else " "
    ndot_str = sign + ndot_body[1:]

    # Validate the *rounded* epoch day too: 366.999999999 is in range
    # but renders as '367.00000000', which the parser rejects.
    days_str = f"{tle.epochdays:012.8f}"
    if not 0.0 < float(days_str) < 367.0:
        raise TLEError(
            f"epoch day-of-year rounds out of range: {tle.epochdays!r} "
            f"-> {days_str}")

    line1 = (f"1 {tle.norad_id:05d}{tle.classification} "
             f"{tle.intl_designator:<8s} "
             f"{tle.epochyr:02d}{days_str} "
             f"{ndot_str} "
             f"{_format_exp_field(tle.nddot)} "
             f"{_format_exp_field(tle.bstar)} "
             f"{tle.ephemeris_type:1d} "
             f"{tle.element_set_no:4d}")
    line1 = f"{line1}{checksum(line1)}"

    # The eccentricity field holds only the 7 fraction digits, so a
    # value that *rounds* to 1.0 cannot be written (0.99999996 would
    # silently come back as 0.0).
    ecc_full = f"{tle.eccentricity:.7f}"
    if not ecc_full.startswith("0."):
        raise TLEError(
            f"eccentricity rounds outside [0, 1): {tle.eccentricity!r}")
    ecc_str = ecc_full[2:]
    line2 = (f"2 {tle.norad_id:05d} "
             f"{tle.inclination_deg:8.4f} "
             f"{tle.raan_deg:8.4f} "
             f"{ecc_str} "
             f"{tle.argp_deg:8.4f} "
             f"{tle.mean_anomaly_deg:8.4f} "
             f"{tle.mean_motion_rev_day:11.8f}"
             f"{tle.rev_number:5d}")
    line2 = f"{line2}{checksum(line2)}"

    if len(line1) != 69 or len(line2) != 69:
        raise TLEError("internal error: formatted line width != 69")
    return line1, line2
