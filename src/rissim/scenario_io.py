"""Scenario files: YAML documents describing link operating points.

A bundle holds panel geometry, codebook bits, element mode, one MCS table,
per-scenario defaults, and a list of scenarios. Scenario entries override
defaults key by key. Validation is strict: an unknown key is an error that
names the key and where it sits.

The packaged ``tables_4_5_6.scenario`` bundle encodes the desk-scale
measurement campaign (array gain, obstacle, and beam-steering rows) with MCS
thresholds calibrated once against this model; ``scripts/calibrate_mcs.py``
regenerates it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import yaml

from .channel import GainProfile
from .elements import Mode
from .errors import ConfigError
from .geometry import ArrayGeometry, Pose
from .link import LinkScenario, MCSRow, MCSTable, Obstacle

BUNDLED_SCENARIO_NAME = "tables_4_5_6.scenario"

_GEOMETRY_KEYS = {"num_x", "num_y", "spacing_x_m", "spacing_y_m"}
_GAIN_FIELDS = {  # bundle key -> GainProfile field
    "tx_dbi": "tx_gain_dbi", "rx_dbi": "rx_gain_dbi",
    "ris_rx_side_dbi": "ris_rx_side_gain_dbi", "ris_tx_side_dbi": "ris_tx_side_gain_dbi",
}
_POSE_KEYS = {"range_m", "polar_deg", "azimuth_deg"}
_OBSTACLE_KEYS = {"attenuation_db", "position"}
_MCS_KEYS = {"min_snr_db", "rate_mbps", "label"}
_SCENARIO_KEYS = {
    "name",
    "transmit_power_dbm",
    "carrier_hz",
    "bandwidth_hz",
    "noise_figure_db",
    "gains",
    "tx_pose",
    "rx_pose",
    "ris_present",
    "obstacle",
    "expected_rate_mbps",
}
_TOP_KEYS = {"description", "geometry", "bits", "mode", "mcs", "defaults", "scenarios"}

# libyaml's C parser when PyYAML was built with it; same documents, same errors
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


@dataclass(frozen=True)
class ScenarioBundle:
    description: str
    geometry: ArrayGeometry
    bits: int
    mode: Mode
    mcs: MCSTable
    scenarios: tuple[LinkScenario, ...]


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ConfigError(f"{context}: missing required key '{key}'")
    return mapping[key]


def _load_yaml(path: Path):
    """Parse a YAML file safely; malformed YAML raises :class:`ConfigError`."""
    try:
        return yaml.load(path.read_text(), Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML: {exc}") from exc


def _check_keys(mapping: dict, allowed: set[str], context: str) -> None:
    if not isinstance(mapping, dict):
        raise ConfigError(f"{context} must be a mapping, got {mapping!r}")
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"{context}: unknown key(s) {sorted(map(str, unknown))}")


def _parse_number(value, key: str, context: str) -> float:
    if isinstance(value, str):
        # YAML 1.1 reads exponent literals like 27.0e9 as strings
        try:
            return float(value)
        except ValueError:
            pass
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise ConfigError(f"{context}: key '{key}' must be a number, got {value!r}")


def _number(mapping: dict, key: str, context: str, default: float | None = None) -> float:
    """``mapping[key]`` as a number; a missing key takes ``default``, or is refused without one."""
    value = _require(mapping, key, context) if default is None else mapping.get(key, default)
    return _parse_number(value, key, context)


def _parse_count(value, key: str, context: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{context}: key '{key}' must be an integer, got {value!r}")
    return value


def _parse_geometry(raw: dict, context: str) -> ArrayGeometry:
    _check_keys(raw, _GEOMETRY_KEYS, context)
    return ArrayGeometry(
        num_x=_parse_count(_require(raw, "num_x", context), "num_x", context),
        num_y=_parse_count(_require(raw, "num_y", context), "num_y", context),
        spacing_x=_number(raw, "spacing_x_m", context),
        spacing_y=_number(raw, "spacing_y_m", context),
    )


def _parse_gains(raw: dict, context: str) -> GainProfile:
    _check_keys(raw, set(_GAIN_FIELDS), context)
    gains = {name: _number(raw, key, context) for key, name in _GAIN_FIELDS.items()}
    try:
        return GainProfile(**gains)
    except ValueError as exc:  # it names the field; name the bundle key it was read from instead
        key, name = next((k, n) for k, n in _GAIN_FIELDS.items() if str(exc).startswith(n))
        raise ConfigError(f"{context}: {str(exc).replace(name, f'key {key!r}', 1)}") from None


def _parse_pose(raw: dict, context: str) -> Pose:
    """A face-local pose in front of the face: finite positive range, polar angle in [0, 90)
    deg and finite azimuth."""
    _check_keys(raw, _POSE_KEYS, context)
    range_m = _number(raw, "range_m", context)
    azimuth_deg = _number(raw, "azimuth_deg", context, 0.0)
    for key, value in (("range_m", range_m), ("azimuth_deg", azimuth_deg)):
        if not math.isfinite(value):
            raise ConfigError(f"{context}: key '{key}' must be finite, got {value}")
    if range_m <= 0:  # range 0 sits on the panel
        raise ConfigError(f"{context}: key 'range_m' must be positive, got {range_m}")
    polar_deg = _number(raw, "polar_deg", context, 0.0)
    if not 0.0 <= polar_deg < 90.0:  # NaN too
        raise ConfigError(f"{context}: key 'polar_deg' must lie in [0, 90) deg, got {polar_deg}")
    return Pose.from_spherical(range_m, math.radians(polar_deg), math.radians(azimuth_deg))


def _parse_obstacle(raw, context: str) -> Obstacle | None:
    if raw is None:
        return None
    _check_keys(raw, _OBSTACLE_KEYS, context)
    return Obstacle(attenuation_db=_number(raw, "attenuation_db", context,
                                           Obstacle().attenuation_db),
                    position=str(raw.get("position", "tx_side")))


def _parse_mcs(raw, context: str) -> MCSTable:
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{context}: 'mcs' must be a non-empty list of rows")
    rows = []
    for i, entry in enumerate(raw):
        ctx = f"{context}: mcs[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{ctx}: each row must be a mapping")
        _check_keys(entry, _MCS_KEYS, ctx)
        rows.append(MCSRow(min_snr_db=_number(entry, "min_snr_db", ctx),
                           rate_mbps=_number(entry, "rate_mbps", ctx),
                           label=str(entry.get("label", ""))))
    return MCSTable(rows=tuple(rows))


def load_scenario_bundle(path: str | Path) -> ScenarioBundle:
    """Parse and validate a scenario bundle file."""
    path = Path(path)
    raw = _load_yaml(path)
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    ctx = str(path)
    _check_keys(raw, _TOP_KEYS, ctx)
    geometry = _parse_geometry(_require(raw, "geometry", ctx), f"{ctx}: geometry")
    bits = _parse_count(_require(raw, "bits", ctx), "bits", ctx)
    mode = str(raw.get("mode", "realized"))
    if mode not in ("nominal", "realized"):
        raise ConfigError(f"{ctx}: mode must be 'nominal' or 'realized', got {mode!r}")
    mcs = _parse_mcs(_require(raw, "mcs", ctx), ctx)

    defaults = raw.get("defaults", {})
    _check_keys(defaults, _SCENARIO_KEYS - {"name", "expected_rate_mbps"}, f"{ctx}: defaults")

    entries = _require(raw, "scenarios", ctx)
    if not isinstance(entries, list) or not entries:
        raise ConfigError(f"{ctx}: 'scenarios' must be a non-empty list")

    scenarios = []
    for i, entry in enumerate(entries):
        sctx = f"{ctx}: scenarios[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{sctx}: each scenario must be a mapping")
        _check_keys(entry, _SCENARIO_KEYS, sctx)
        merged = {**defaults, **entry}
        name = str(merged.get("name", f"scenario_{i}"))
        ris_present = merged.get("ris_present", True)
        if not isinstance(ris_present, bool):  # a YAML boolean, not a string or number
            raise ConfigError(f"{sctx} ({name}): key 'ris_present' must be true or false, "
                              f"got {ris_present!r}")
        scenarios.append(
            LinkScenario(
                name=name,
                transmit_power_dbm=_number(merged, "transmit_power_dbm", sctx),
                carrier_hz=_number(merged, "carrier_hz", sctx),
                bandwidth_hz=_number(merged, "bandwidth_hz", sctx),
                noise_figure_db=_number(merged, "noise_figure_db", sctx, 0.0),
                gains=_parse_gains(_require(merged, "gains", sctx), f"{sctx}: gains"),
                tx_pose=_parse_pose(_require(merged, "tx_pose", sctx), f"{sctx}: tx_pose"),
                rx_pose=_parse_pose(_require(merged, "rx_pose", sctx), f"{sctx}: rx_pose"),
                ris_present=ris_present,
                obstacle=_parse_obstacle(merged.get("obstacle"), f"{sctx}: obstacle"),
                mcs=mcs,
                expected_rate_mbps=(None if merged.get("expected_rate_mbps") is None
                                    else _number(merged, "expected_rate_mbps", sctx)),
            )
        )
    return ScenarioBundle(
        description=str(raw.get("description", "")),
        geometry=geometry,
        bits=bits,
        mode=mode,
        mcs=mcs,
        scenarios=tuple(scenarios),
    )


def bundled_scenario_path() -> Path:
    """Filesystem path of the packaged calibration bundle."""
    return Path(resources.files("rissim").joinpath("data", BUNDLED_SCENARIO_NAME))
