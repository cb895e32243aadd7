"""Unit conventions and conversions.

Everything internal is SI: meters, radians, hertz, watts. Decibel values
only appear at interfaces (configs, reports, CLI), and angles in degrees
only at the CLI/file boundary.
"""

import math

SPEED_OF_LIGHT = 299792458.0  # m/s


def wavelength(carrier_hz: float) -> float:
    if not (math.isfinite(carrier_hz) and carrier_hz > 0):
        raise ValueError(f"carrier_hz must be finite and positive, got {carrier_hz}")
    return SPEED_OF_LIGHT / carrier_hz


def db_to_linear(value_db: float) -> float:
    return 10.0 ** (value_db / 10.0)


def dbm_to_watts(power_dbm: float) -> float:
    return 10.0 ** ((power_dbm - 30.0) / 10.0)


def watts_to_dbm(power_w: float) -> float:
    if power_w <= 0:
        raise ValueError(f"cannot express non-positive power {power_w} W in dBm")
    return 10.0 * math.log10(power_w) + 30.0
