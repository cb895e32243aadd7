"""Batch front end: subcommand dispatch, config ingestion, file outputs.

Subcommands: ``codebook`` (code grid + bias bitstream), ``pattern``
(radiation cuts + metrics), ``scan`` (steer sweep + scan loss), ``quantloss``
(loss vs bits), ``link`` (evaluate a scenario file), ``reproduce`` (scenario
bundle plus the chamber-style metric suite). Exit code 0 on success, 1 on
domain errors, 2 on usage errors. All numeric CSV columns carry unit
suffixes, and outputs are byte-deterministic for a fixed config.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import os
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .beams import (exhaustive_oracle, optimal_codebook, quantization_loss, synthesize_codebook,
                    uniform_phase_loss_db)
from .channel import exponent_from_gain, feed_illuminations
from .codebook import TWO_PI, encode_bias_bitstream, pack_bitstream, quantize_phases
from .elements import ElementStateTable, code_table, default_element_table, state_coefficients
from .errors import ConfigError, RisSimError
from .geometry import ArrayGeometry, Pose, exact_distances
from .link import required_transmit_power, evaluate_scenario
from .patterns import (
    DEFAULT_CUT_STEP_DEG,
    PLANE_AZIMUTHS,
    PatternMetrics,
    RadiationPattern,
    directivity_and_gain,
    aperture_efficiency,
    cut_grid,
    pattern_metrics,
    pattern_to_csv,
    principal_cut,
    scan_loss,
)
from .scenario_io import (_GEOMETRY_KEYS, _check_keys, _load_yaml, _parse_count, _parse_geometry,
                          _parse_number, _parse_pose, bundled_scenario_path, load_scenario_bundle)
from .units import wavelength

OUT_DIR_ENV = "RISSIM_OUT"

DEFAULT_FEED_RANGE_M = 0.05
DEFAULT_FEED_GAIN_DBI = 12.7  # panel feed horn; exponent follows from G = 2(q+1)
FAR_FIELD_RANGE_M = 100.0

_FEED_KEYS = {"range_m", "gain_dbi"}
_BEAM_KEYS = {"tx_pose", "rx_pose"}
_GEOMETRY_DEFAULTS = {"num_x": 16, "num_y": 16, "spacing_x_m": 4.9e-3, "spacing_y_m": 4.9e-3}


@dataclass
class RunConfig:
    """Resolved run options shared by the subcommands."""

    output_dir: Path
    geometry: ArrayGeometry = ArrayGeometry(16, 16)  # frozen, so one shared default
    element_table: ElementStateTable = field(default_factory=default_element_table)
    element_table_path: str = "(built-in)"
    carrier_hz: float = 27.0e9
    grid_deg: float = 0.25
    bits: tuple[int, ...] = (2,)
    mode: str = "nominal"
    seed: int = 0
    feed_range_m: float = DEFAULT_FEED_RANGE_M
    feed_exponent: float = exponent_from_gain(DEFAULT_FEED_GAIN_DBI)
    beam: dict = field(default_factory=dict)  # the run config's checked `beam` section
    scenario_path: Path | None = None

    def single_bits(self) -> int:
        if len(self.bits) != 1:
            raise ConfigError("this subcommand needs a single --bits value, not a range")
        return self.bits[0]

    def header_lines(self, *used: str, table: ElementStateTable | None = None) -> list[str]:
        """What a subcommand read, then its output dir.

        ``used`` names any of ``panel``, ``bits``, ``mode``, ``grid`` and
        ``seed``; ``table`` is the state table its codes were read against.
        """
        g = self.geometry
        lines = []
        if "panel" in used:
            lines.append(f"panel: {g.num_x}x{g.num_y} elements at ({g.spacing_x * 1e3:.3f}, "
                         f"{g.spacing_y * 1e3:.3f}) mm pitch")
        if table is not None:
            name = self.element_table_path if table is self.element_table else "ideal"
            lines.append(f"element table: {name} ({table.bits}-bit)")
        values = {"bits": ",".join(str(b) for b in self.bits), "mode": self.mode,
                  "grid": f"{self.grid_deg} deg", "seed": self.seed}
        settings = "  ".join(f"{name}: {value}" for name, value in values.items() if name in used)
        return lines + ([settings] if settings else []) + [f"output dir: {self.output_dir}"]

    def output_path(self, name: str) -> Path:
        """Where output file ``name`` goes; the output dir is made at a command's first write."""
        self.output_dir.mkdir(parents=True, exist_ok=True)
        return self.output_dir / name


def parse_bits(text: str) -> tuple[int, ...]:
    """Parse '2' or a range '1..4' into a tuple of bit counts."""
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
            if hi < lo:
                raise ValueError
            return tuple(range(lo, hi + 1))
        return (int(text),)
    except ValueError:
        raise ConfigError(f"--bits expects an integer or a range like 1..4, got {text!r}") from None


def load_run_config(path: str | Path) -> dict:
    """Read a run-config YAML file into plain options, checking each section's keys."""
    path = Path(path)
    try:
        raw = _load_yaml(path)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    _check_keys(raw.get("geometry", {}), _GEOMETRY_KEYS, f"{path}: geometry")
    _check_keys(raw.get("feed", {}), _FEED_KEYS, f"{path}: feed")
    _check_keys(raw.get("beam", {}), _BEAM_KEYS, f"{path}: beam")
    for key in ("output_dir", "element_table", "scenario"):  # checked before any is opened
        if key in raw and not isinstance(raw[key], str):
            raise ConfigError(f"{path}: key '{key}' must be a path, got {raw[key]!r}")
    return raw


def build_run_config(args: argparse.Namespace) -> RunConfig:
    """Merge config-file values and CLI flags (flags win) into a RunConfig.

    Once every value has parsed, a run-config key that the subcommand does
    not read (``args.config_keys``) is refused, before any file is written.
    """
    file_cfg = load_run_config(args.config) if args.config else {}

    out = args.out or file_cfg.get("output_dir") or os.environ.get(OUT_DIR_ENV) or "rissim_out"
    cfg = RunConfig(output_dir=Path(out))

    if "geometry" in file_cfg:
        geometry = {**_GEOMETRY_DEFAULTS, **file_cfg["geometry"]}
        cfg.geometry = _parse_geometry(geometry, "geometry")
    if "element_table" in file_cfg:
        cfg.element_table = ElementStateTable.from_csv(file_cfg["element_table"])
        cfg.element_table_path = str(file_cfg["element_table"])
    feed = {key: _parse_number(value, key, "feed")
            for key, value in file_cfg.get("feed", {}).items()}
    for key, value in feed.items():
        if not math.isfinite(value):
            raise ConfigError(f"feed: key '{key}' must be finite, got {value}")
    cfg.feed_range_m = feed.get("range_m", cfg.feed_range_m)
    if not cfg.feed_range_m > 0:  # the feed sits on the panel's normal, in front of it
        raise ConfigError(f"feed: key 'range_m' must be positive, got {cfg.feed_range_m}")
    if "gain_dbi" in feed:
        try:
            cfg.feed_exponent = exponent_from_gain(feed["gain_dbi"])
        except ValueError as exc:
            raise ConfigError(f"feed: key 'gain_dbi': {exc}") from None
    cfg.beam = file_cfg.get("beam", {})
    if "scenario" in file_cfg:
        cfg.scenario_path = Path(file_cfg["scenario"])

    flags = vars(args)  # only the common flags the subcommand declares
    cfg.carrier_hz = flags.get("carrier_hz", cfg.carrier_hz)
    cfg.grid_deg = flags["grid_deg"] if flags.get("grid_deg") is not None else _parse_number(
        file_cfg.get("grid_deg", cfg.grid_deg), "grid_deg", "run config")
    if flags.get("bits") is not None:
        cfg.bits = parse_bits(flags["bits"])
    elif "bits" in file_cfg:
        cfg.bits = parse_bits(str(file_cfg["bits"]))
    if flags.get("mode") is not None:
        cfg.mode = flags["mode"]
    elif "mode" in file_cfg:
        mode = str(file_cfg["mode"])
        if mode not in ("nominal", "realized"):
            raise ConfigError(f"mode must be 'nominal' or 'realized', got {mode!r}")
        cfg.mode = mode
    cfg.seed = flags["seed"] if flags.get("seed") is not None else _parse_count(
        file_cfg.get("seed", 0), "seed", "run config")
    if not (math.isfinite(cfg.grid_deg) and cfg.grid_deg > 0):
        raise ConfigError(f"grid_deg must be finite and positive, got {cfg.grid_deg}")
    try:
        cut_grid(cfg.grid_deg)
    except ValueError:
        raise ConfigError(f"grid_deg must divide 180 deg, got {cfg.grid_deg}") from None
    unread = sorted(map(str, set(file_cfg) - args.config_keys))  # YAML keys may be numbers
    if unread:
        raise ConfigError(f"{args.config}: rissim {args.command} does not read "
                          f"run-config key(s) {unread}")
    return cfg


def _beam_poses(beam: dict, args: argparse.Namespace) -> tuple[Pose, Pose]:
    """The run config's (tx, rx) poses with each given flag winning, field by field."""
    poses = []
    for side in ("tx", "rx"):
        raw = beam.get(f"{side}_pose", {"range_m": FAR_FIELD_RANGE_M})
        if isinstance(raw, dict):  # anything else is refused by _parse_pose, naming the field
            given = {key: getattr(args, f"{side}_{flag}") for key, flag in (
                ("range_m", "range"), ("polar_deg", "polar_deg"), ("azimuth_deg", "azimuth_deg"))}
            raw = {**raw, **{key: value for key, value in given.items() if value is not None}}
        poses.append(_parse_pose(raw, f"beam.{side}_pose"))
    return tuple(poses)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------- codebook


def cmd_codebook(cfg: RunConfig, args: argparse.Namespace) -> int:
    bits = cfg.single_bits()
    tx, rx = _beam_poses(cfg.beam, args)
    codes = synthesize_codebook(tx, rx, cfg.geometry, cfg.carrier_hz, bits)
    codes_path = cfg.output_path("codes.csv")
    _write_csv(codes_path, [f"code_n{n}" for n in range(cfg.geometry.num_y)], codes.tolist())
    outputs = [str(codes_path)]
    if bits == 2:
        packed = pack_bitstream(encode_bias_bitstream(codes, bits))
        bin_path = cfg.output_path("bias_bitstream.bin")
        bin_path.write_bytes(packed)
        hex_path = cfg.output_path("bias_bitstream.hex")
        hex_path.write_text(packed.hex() + "\n")
        outputs += [str(bin_path), str(hex_path)]
    for line in cfg.header_lines("panel", "bits"):
        print(line)
    print(f"tx: d={tx.range} m polar={math.degrees(tx.polar):.2f} deg; "
          f"rx: d={rx.range} m polar={math.degrees(rx.polar):.2f} deg")
    hist = np.bincount(codes.reshape(-1), minlength=1 << bits)
    print("code histogram: " + " ".join(f"{c}:{n}" for c, n in enumerate(hist)))
    print("wrote: " + ", ".join(outputs))
    return 0


# ----------------------------------------------------------------- pattern


@functools.lru_cache(maxsize=4)
def _feed(range_m: float, exponent: float, geom: ArrayGeometry, carrier_hz: float):
    """The path less the center path, and the illumination A, of a boresight feed; read-only."""
    feed = Pose.from_spherical(range_m, 0.0, 0.0)
    path = exact_distances(feed, geom) - feed.range
    illumination = feed_illuminations(feed, geom, carrier_hz, exponent)
    path.flags.writeable = illumination.flags.writeable = False
    return path, illumination


class _SteerStudy:
    """Beams steered from the feed horn into far-field directions, and their patterns.

    The feed is a point and a steer target a direction: each element's code
    quantizes 2 pi / lambda times its feed path less the center path, plus the
    plane-wave path -(x sin(theta) cos(phi) + y sin(theta) sin(phi)) toward
    the direction. The feed path and illumination A are computed once per
    process per feed, and one study serves a whole command: each steer's codes,
    read against the state table, become the weight grid W = Gamma exp(j phi) A
    its patterns are sampled from. The codes have the table's bit depth.
    """

    def __init__(self, cfg: RunConfig, geom: ArrayGeometry, carrier_hz: float,
                 table: ElementStateTable):
        self.geom, self.carrier_hz, self.table = geom, carrier_hz, table
        self.feed_path, self.illumination = _feed(cfg.feed_range_m, cfg.feed_exponent, geom,
                                                  carrier_hz)
        self.cut_step_deg = cfg.grid_deg

    def weights(self, steer_deg: float, plane: str) -> np.ndarray:
        """W of the codes that steer the feed's beam to a signed steer angle in a plane."""
        azimuth = PLANE_AZIMUTHS[plane] + (0.0 if steer_deg >= 0 else math.pi)
        st = math.sin(math.radians(abs(steer_deg)))
        xe, ye = self.geom.element_grid()
        plane_wave = -(xe * st * math.cos(azimuth) + ye * st * math.sin(azimuth))
        phases = TWO_PI * (self.feed_path + plane_wave) / wavelength(self.carrier_hz)
        codes = quantize_phases(phases, self.table.bits)
        return state_coefficients(self.table, codes) * self.illumination

    def cut(self, weights: np.ndarray, plane: str, element_exponent: float) -> RadiationPattern:
        return principal_cut(weights, self.geom, self.carrier_hz, plane=plane,
                             step_deg=self.cut_step_deg, element_exponent=element_exponent)

    def patterns(self, steer_deg: float, planes: list[str], element_exponent: float,
                 loss_budget_db: float):
        """(cuts, metrics) per plane and (directivity_dbi, gain_dbi) of the first plane's beam.

        The peak comes from the first plane's cut, sampled again at the default
        step when the study's is coarser. All computed before a caller writes,
        so a rejected input writes no file.
        """
        weights = [self.weights(steer_deg, plane) for plane in planes]
        cuts = [self.cut(w, plane, element_exponent) for w, plane in zip(weights, planes)]
        metrics = [pattern_metrics(cut) for cut in cuts]
        peak_cut = cuts[0]
        if self.cut_step_deg > DEFAULT_CUT_STEP_DEG:  # a coarse cut can step over the peak
            peak_cut = principal_cut(weights[0], self.geom, self.carrier_hz, plane=planes[0],
                                     element_exponent=element_exponent)
        return cuts, metrics, *directivity_and_gain(
            weights[0], self.geom, self.carrier_hz, cut=peak_cut,
            element_exponent=element_exponent, loss_budget_db=loss_budget_db)


def cmd_pattern(cfg: RunConfig, args: argparse.Namespace) -> int:
    bits = cfg.single_bits()
    if not -90 <= args.steer_deg <= 90:  # beyond 90 deg the target lies behind the panel
        raise ConfigError(f"--steer-deg must lie in [-90, 90], got {args.steer_deg}")
    planes = ["E", "H"] if args.plane == "both" else [args.plane]
    table = code_table(bits, cfg.mode, cfg.element_table)
    for line in cfg.header_lines("panel", "bits", "mode", "grid", table=table):
        print(line)
    study = _SteerStudy(cfg, cfg.geometry, cfg.carrier_hz, table)
    cuts, metrics, directivity_dbi, gain_dbi = study.patterns(
        args.steer_deg, planes, args.element_exponent, args.loss_budget_db)
    rows = []
    for plane, cut, m in zip(planes, cuts, metrics):
        path = cfg.output_path(f"pattern_cut_{plane.lower()}.csv")
        pattern_to_csv(cut, path)
        rows.append([plane, f"{m.peak_direction_deg:.3f}", f"{m.sidelobe_level_db:.3f}",
                     f"{m.hpbw_deg:.3f}"])
        print(f"{plane}-plane: peak {m.peak_direction_deg:+.2f} deg, "
              f"SLL {m.sidelobe_level_db:.2f} dB, HPBW {m.hpbw_deg:.2f} deg -> {path}")
    _write_csv(
        cfg.output_path("pattern_metrics.csv"),
        ["plane", "peak_direction_deg", "sidelobe_level_db", "hpbw_deg"],
        rows,
    )
    print(f"directivity {directivity_dbi:.2f} dBi, gain {gain_dbi:.2f} dBi "
          f"(loss budget {args.loss_budget_db:.2f} dB)")
    return 0


# -------------------------------------------------------------------- scan


def _steer_sweep(study: _SteerStudy, angles: list[float],
                 element_exponent: float) -> dict[str, list[tuple[float, float]]]:
    """Scan loss and array-factor peak per plane for beams steered to -angle.

    Each (plane, angle) gets one codebook and one array-factor cut
    (gamma = 0), whose peak gives the pointing. The same cut times the
    element factor cos^gamma(theta) gives the scan loss, taken against the
    first angle's. Returns {plane: [(loss_db, peak_deg) per angle]}.
    """
    sweep = {"E": [], "H": []}
    for plane, results in sweep.items():
        reference = None
        for angle in angles:
            af_cut = study.cut(study.weights(-angle, plane), plane, 0.0)
            cut = af_cut.with_element_factor(element_exponent)
            if reference is None:
                reference = cut
            peak_deg = math.degrees(af_cut.theta[int(np.argmax(af_cut.power[:, 0]))])
            results.append((scan_loss(reference, cut), peak_deg))
    return sweep


def cmd_scan(cfg: RunConfig, args: argparse.Namespace) -> int:
    bits = cfg.single_bits()  # reject bit ranges before any work
    if not (math.isfinite(args.step_deg) and args.step_deg > 0):
        raise ConfigError(f"--step-deg must be positive, got {args.step_deg}")
    tenths = args.step_deg * 10  # the steer_deg column carries one decimal
    if round(tenths) < 1 or abs(tenths - round(tenths)) > 1e-9:
        raise ConfigError(f"--step-deg must be a multiple of 0.1 deg, got {args.step_deg}")
    if not 0 <= args.max_deg <= 90:  # beyond 90 deg the target lies behind the panel
        raise ConfigError(f"--max-deg must lie in [0, 90], got {args.max_deg}")
    count = math.floor(args.max_deg / args.step_deg + 1e-9)  # 0.7 / 0.1 is 6.999...
    angles = [args.step_deg * i for i in range(count + 1)]
    table = code_table(bits, cfg.mode, cfg.element_table)
    for line in cfg.header_lines("panel", "bits", "mode", "grid", table=table):
        print(line)
    study = _SteerStudy(cfg, cfg.geometry, cfg.carrier_hz, table)
    sweep = _steer_sweep(study, angles, args.element_exponent)
    rows = []
    for angle, e_plane, h_plane in zip(angles, sweep["E"], sweep["H"]):
        row = [f"{angle:.1f}"] + [f"{value:.3f}" for value in (*e_plane, *h_plane)]
        rows.append(row)
        print(f"steer {angle:5.1f} deg: E loss {row[1]} dB @ {row[2]} deg, "
              f"H loss {row[3]} dB @ {row[4]} deg")
    path = cfg.output_path("scan_loss.csv")
    _write_csv(
        path,
        ["steer_deg", "e_plane_loss_db", "e_plane_peak_deg", "h_plane_loss_db", "h_plane_peak_deg"],
        rows,
    )
    print(f"wrote: {path}")
    return 0


# --------------------------------------------------------------- quantloss


_QUANTLOSS_HEADER = ["bits_count", "loss_db", "uniform_phase_closed_form_db"]


def _quantloss_row(bits: int, loss_db: float) -> list[str]:
    return [str(bits), f"{loss_db:.4f}", f"{uniform_phase_loss_db(bits):.4f}"]


def cmd_quantloss(cfg: RunConfig, args: argparse.Namespace) -> int:
    for flag, range_m in (("--tx-range", args.tx_range), ("--rx-range", args.rx_range)):
        if range_m <= 0:  # range 0 sits on the panel
            raise ConfigError(f"{flag} must be positive, got {range_m}")
    tx = Pose.from_spherical(args.tx_range, 0.0, 0.0)
    rx = Pose.from_spherical(args.rx_range, 0.0, 0.0)
    for line in cfg.header_lines("panel", "bits"):
        print(line)
    rows = []
    for bits in cfg.bits:
        loss = quantization_loss(cfg.geometry, tx, rx, cfg.carrier_hz, bits)
        rows.append(_quantloss_row(bits, loss))
        print(f"b={bits}: loss {loss:.3f} dB "
              f"(uniform-phase closed form {uniform_phase_loss_db(bits):.3f} dB)")
    path = cfg.output_path("quantization_loss.csv")
    _write_csv(path, _QUANTLOSS_HEADER, rows)
    print(f"wrote: {path}")
    return 0


# -------------------------------------------------------------------- link


def _evaluate_bundle(cfg: RunConfig, path: Path):
    """The bundle, the state table its mode reads codes against, and each scenario's result."""
    bundle = load_scenario_bundle(path)
    table = code_table(bundle.bits, bundle.mode, cfg.element_table)
    results = [(scenario, evaluate_scenario(scenario, bundle.geometry, bundle.bits, table=table))
               for scenario in bundle.scenarios]
    return bundle, table, results


def _link_rows(results) -> list[list[str]]:
    rows = []
    for scenario, res in results:
        expected = scenario.expected_rate_mbps
        status = ""
        if expected is not None:
            status = "ok" if res.rate_mbps == expected else "MISMATCH"
        rows.append([
            scenario.name,
            f"{scenario.transmit_power_dbm:.1f}",
            "1" if scenario.ris_present else "0",
            f"{scenario.obstacle.attenuation_db:.1f}" if scenario.obstacle else "0.0",
            f"{scenario.tx_steer_angle_deg:.1f}",
            f"{res.received_power_dbm:.3f}",
            f"{res.snr_db:.3f}",
            f"{res.rate_mbps:.0f}",
            "" if expected is None else f"{expected:.0f}",
            status,
        ])
    return rows


_LINK_HEADER = [
    "name", "transmit_power_dbm", "ris_present_flag", "obstacle_db", "steer_deg",
    "received_power_dbm", "snr_db", "rate_mbps", "expected_rate_mbps", "status",
]


def cmd_link(cfg: RunConfig, args: argparse.Namespace) -> int:
    path = Path(args.scenario) if args.scenario else (cfg.scenario_path or bundled_scenario_path())
    bundle, table, results = _evaluate_bundle(cfg, path)
    for line in cfg.header_lines(table=table):
        print(line)
    print(f"scenario file: {path} ({bundle.description})")
    rows = _link_rows(results)
    widths = [max(len(h), max(len(r[i]) for r in rows)) for i, h in enumerate(_LINK_HEADER)]
    print("  ".join(h.ljust(w) for h, w in zip(_LINK_HEADER, widths)))
    for row in rows:
        print("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    out = cfg.output_path("link_report.csv")
    _write_csv(out, _LINK_HEADER, rows)
    print(f"wrote: {out}")
    mismatches = [r for r in rows if r[-1] == "MISMATCH"]
    if mismatches:
        print(f"{len(mismatches)} scenario(s) missed their expected rate", file=sys.stderr)
        return 1
    return 0


# --------------------------------------------------------------- reproduce

# The release criteria: each of the paper's measured claims and the closed
# window [low, high] its measured value must fall in. `rissim reproduce` and
# tests/test_acceptance.py both judge them through measure_campaign.
RELEASE_CRITERIA: dict[str, tuple[float, float]] = {
    "scenario rates": (0.0, 0.0),  # rows off the campaign's rate column
    "transmit-power reduction": (7.0, 10.5),  # dB
    "2-bit quantization loss": (uniform_phase_loss_db(2) - 0.3, 1.0),  # dB
    "1-bit quantization loss": (3.0, 4.5),  # dB
    "broadside sidelobes": (-math.inf, -18.0),  # dB
    "broadside beamwidth": (6.0, 10.0),  # deg
    "broadside gain": (20.0, 24.0),  # dBi
    "aperture-efficiency identity": (25.3 - 0.1, 25.3 + 0.1),  # percent
    "steered pointing": (-math.inf, 1.0),  # worst error, deg
    "60-deg scan loss": (2.5, 6.0),  # dB, each plane
    "codebook-vs-oracle gap": (-math.inf, 0.05),  # worst gap, dB
}

_QUANTIZATION_BITS = (1, 2, 3, 4)
_STEER_ANGLES_DEG = [0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0]


@dataclass(frozen=True)
class Verdict:
    """One release criterion judged: its measured value against its window."""

    name: str
    value: float | tuple[float, ...]  # a tuple when every entry must lie in the window
    window: tuple[float, float]
    passed: bool
    detail: str

    @classmethod
    def judged(cls, name: str, value: float | tuple[float, ...], detail: str,
               holds: bool = True) -> "Verdict":
        """Judge a value against the window of release criterion ``name``.

        It passes when ``holds`` and every entry lies in the window; an empty
        value fails.
        """
        low, high = RELEASE_CRITERIA[name]
        values = value if isinstance(value, tuple) else (value,)
        passed = bool(holds and values and all(low <= v <= high for v in values))
        return cls(name, value, (low, high), passed, detail)

    def line(self) -> str:
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}: {self.detail}"


@dataclass(frozen=True)
class Campaign:
    """The measured release campaign and one verdict per release criterion."""

    link_results: list
    losses_db: list[float]  # per bit count in _QUANTIZATION_BITS
    broadside: PatternMetrics
    directivity_dbi: float
    gain_dbi: float
    aperture_efficiency: float
    sweep: dict[str, list[tuple[float, float]]]  # _steer_sweep over _STEER_ANGLES_DEG
    verdicts: list[Verdict]


def measure_campaign(cfg: RunConfig, oracle_trials: int) -> Campaign:
    """Measure the release campaign once and judge every release criterion.

    Measurements are shared between criteria: the 2-bit loss as written to
    ``quantization_loss.csv`` enters the gain budget, and one steer sweep
    gives both the pointing and the scan loss. The oracle trials draw their
    random 2x2 poses from ``cfg.seed``; there must be at least one.
    """
    if oracle_trials < 1:
        raise ConfigError(f"oracle trials must be at least 1, got {oracle_trials}")
    verdicts: list[Verdict] = []

    def judge(name: str, value, detail: str, holds: bool = True) -> None:
        verdicts.append(Verdict.judged(name, value, detail, holds))

    # scenario bundle
    path = cfg.scenario_path or bundled_scenario_path()
    bundle, table, results = _evaluate_bundle(cfg, path)
    bad = [s.name for s, r in results
           if s.expected_rate_mbps is not None and r.rate_mbps != s.expected_rate_mbps]
    judge("scenario rates", len(bad),
          f"{len(results)} rows from {path.name}" + (f"; mismatches: {bad}" if bad else ""))

    # required-power reduction for the back-to-back rate pair
    no_panel = next(s for s, _ in results if s.name == "array_gain_without_panel")
    with_panel = next(s for s, _ in results if s.name == "array_gain_with_panel")
    p_direct = required_transmit_power(no_panel, bundle.geometry, bundle.bits, 1024.0,
                                       table=table)
    p_panel = required_transmit_power(with_panel, bundle.geometry, bundle.bits, 1121.0,
                                      table=table)
    delta = p_direct - p_panel
    judge("transmit-power reduction", delta,
          f"{p_direct:.1f} dBm for 1024 Mbps direct vs {p_panel:.1f} dBm for 1121 Mbps "
          f"with panel: {delta:.2f} dB saved")

    # quantization loss ladder, judged at the 4 decimals the CSV holds
    carrier = bundle.scenarios[0].carrier_hz
    tx = Pose.from_spherical(FAR_FIELD_RANGE_M, 0.0, 0.0)
    rx = Pose.from_spherical(0.05, 0.0, 0.0)
    losses = [quantization_loss(bundle.geometry, tx, rx, carrier, bits)
              for bits in _QUANTIZATION_BITS]
    loss1, loss2 = round(losses[0], 4), round(losses[1], 4)
    judge("2-bit quantization loss", loss2,
          f"{loss2:.3f} dB (closed form {uniform_phase_loss_db(2):.3f} dB)")
    judge("1-bit quantization loss", loss1, f"{loss1:.3f} dB")

    # broadside pattern metrics and gain estimate; the steer sweep shares the study
    study = _SteerStudy(cfg, bundle.geometry, carrier, code_table(bundle.bits, "nominal"))
    budget = cfg.element_table.mean_insertion_loss_db() + loss2
    _, (m,), directivity_dbi, gain_dbi = study.patterns(0.0, ["E"], 1.0, budget)
    judge("broadside sidelobes", m.sidelobe_level_db, f"SLL {m.sidelobe_level_db:.2f} dB")
    judge("broadside beamwidth", m.hpbw_deg, f"HPBW {m.hpbw_deg:.2f} deg")
    eff = aperture_efficiency(gain_dbi, bundle.geometry.aperture_area, carrier)
    judge("broadside gain", gain_dbi,
          f"directivity {directivity_dbi:.2f} dBi - {budget:.2f} dB budget = {gain_dbi:.2f} dBi "
          f"(aperture efficiency {100 * eff:.1f}%)")

    # aperture-efficiency identity at the measured panel gain
    eff_meas = 100 * aperture_efficiency(22.0, 0.0784 * 0.0784, 27.0e9)
    judge("aperture-efficiency identity", eff_meas,
          f"22.0 dBi over 78.4x78.4 mm at 27 GHz -> {eff_meas:.2f}%")

    # steering: pointing on array-factor cuts, scan loss with the element factor
    sweep = _steer_sweep(study, _STEER_ANGLES_DEG, 1.0)
    pointing_error = max(abs(peak_deg + angle)
                         for plane in ("E", "H")
                         for angle, (_, peak_deg) in zip(_STEER_ANGLES_DEG, sweep[plane])
                         if angle >= 10.0)
    judge("steered pointing", pointing_error,
          "array-factor peaks within 1 deg of target, both planes")
    sixty = (sweep["E"][-1][0], sweep["H"][-1][0])
    judge("60-deg scan loss", sixty,
          f"E {sixty[0]:.3f} dB, H {sixty[1]:.3f} dB (window 2.5..6.0)")

    # small-panel oracle agreement; the solver may never beat the brute-force optimum
    rng = random.Random(cfg.seed)
    small = ArrayGeometry(2, 2, bundle.geometry.spacing_x, bundle.geometry.spacing_y)
    ideal = ElementStateTable.ideal(2)
    worst = 0.0
    dominated = True
    for _ in range(oracle_trials):
        tx = Pose.from_spherical(rng.uniform(0.5, 3.0), rng.uniform(0, math.pi / 3),
                                 rng.uniform(0, 2 * math.pi))
        rx = Pose.from_spherical(rng.uniform(0.03, 0.5), rng.uniform(0, math.pi / 3),
                                 rng.uniform(0, 2 * math.pi))
        _, p_solver = optimal_codebook(tx, rx, small, carrier, ideal)
        _, p_oracle = exhaustive_oracle(tx, rx, small, carrier, ideal)
        dominated &= p_oracle >= p_solver * (1 - 1e-12)
        worst = max(worst, 10.0 * math.log10(p_oracle / p_solver))
    judge("codebook-vs-oracle gap", worst,
          f"worst gap {worst:.4f} dB over {oracle_trials} random 2x2 poses (seed {cfg.seed})",
          holds=dominated)

    return Campaign(results, losses, m, directivity_dbi, gain_dbi, eff, sweep, verdicts)


def cmd_reproduce(cfg: RunConfig, args: argparse.Namespace) -> int:
    for line in cfg.header_lines("grid", "seed", table=cfg.element_table):
        print(line)
    campaign = measure_campaign(cfg, args.oracle_trials)
    _write_csv(cfg.output_path("link_report.csv"), _LINK_HEADER, _link_rows(campaign.link_results))
    _write_csv(cfg.output_path("quantization_loss.csv"), _QUANTLOSS_HEADER,
               [_quantloss_row(bits, loss)
                for bits, loss in zip(_QUANTIZATION_BITS, campaign.losses_db)])
    m = campaign.broadside
    _write_csv(cfg.output_path("pattern_metrics.csv"),
               ["plane", "peak_direction_deg", "sidelobe_level_db", "hpbw_deg",
                "directivity_dbi", "gain_dbi", "aperture_efficiency_pct"],
               [["E", f"{m.peak_direction_deg:.3f}", f"{m.sidelobe_level_db:.3f}",
                 f"{m.hpbw_deg:.3f}", f"{campaign.directivity_dbi:.3f}",
                 f"{campaign.gain_dbi:.3f}", f"{100 * campaign.aperture_efficiency:.3f}"]])
    _write_csv(cfg.output_path("scan_loss.csv"),
               ["plane", "steer_deg", "scan_loss_db", "af_peak_deg"],
               [[plane, f"{angle:.1f}", f"{loss:.3f}", f"{peak_deg:.3f}"]
                for plane in ("E", "H")
                for angle, (loss, peak_deg) in zip(_STEER_ANGLES_DEG, campaign.sweep[plane])])
    for verdict in campaign.verdicts:
        print(verdict.line())
    failed = [v.name for v in campaign.verdicts if not v.passed]
    print(f"\n{len(campaign.verdicts) - len(failed)}/{len(campaign.verdicts)} checks passed"
          + (f"; failed: {failed}" if failed else ""))
    return 1 if failed else 0


# ---------------------------------------------------------------- dispatch

# The flags several subcommands share; each subcommand declares those it reads.
_COMMON_FLAGS = {
    "--grid-deg": dict(type=float, help="cut resolution in degrees"),
    "--bits": dict(help="phase bits: N or a range like 1..4"),
    "--mode": dict(choices=("nominal", "realized"),
                   help="element model: ideal grid phases or measured states"),
    "--seed": dict(type=int, help="seed for randomized checks"),
    "--carrier-hz": dict(type=float, default=27.0e9, help="carrier frequency in Hz"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: ``parse_args`` leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="rissim",
        description="Transmissive-panel mmWave link simulator",
    )
    parser.add_argument("--version", action="version", version=f"rissim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name: str, help: str, flags: tuple[str, ...],
                   keys: tuple[str, ...]) -> argparse.ArgumentParser:
        """A subcommand with --config, --out and the common flags it reads.

        ``keys`` are the run-config keys it reads besides ``output_dir``; a
        run config that sets any other key is refused.
        """
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="run-config YAML file")
        p.add_argument("--out", help=f"output directory (default ${OUT_DIR_ENV} or ./rissim_out)")
        for flag in flags:
            p.add_argument(flag, **_COMMON_FLAGS[flag])
        p.set_defaults(config_keys={"output_dir", *keys})
        return p

    p = subcommand("codebook", "synthesize a code grid and its bias bitstream",
                   flags=("--bits", "--carrier-hz"), keys=("bits", "geometry", "beam"))
    # Each given flag wins over the run config's beam field; unset, the field or its default
    # (100 m, 0 deg, 0 deg, 0 deg) holds.
    for side in ("tx", "rx"):
        for flag in ("range", "polar-deg", "azimuth-deg"):
            p.add_argument(f"--{side}-{flag}", type=float)
    p.set_defaults(func=cmd_codebook)

    steer_flags = ("--grid-deg", "--bits", "--mode", "--carrier-hz")
    steer_keys = ("grid_deg", "bits", "mode", "element_table", "geometry", "feed")
    p = subcommand("pattern", "radiation-pattern cuts and metrics",
                   flags=steer_flags, keys=steer_keys)
    p.add_argument("--steer-deg", type=float, default=0.0, help="signed steer angle")
    p.add_argument("--plane", choices=("E", "H", "both"), default="both")
    p.add_argument("--element-exponent", type=float, default=1.0)
    p.add_argument("--loss-budget-db", type=float, default=0.0,
                   help="subtracted from directivity to report gain")
    p.set_defaults(func=cmd_pattern)

    p = subcommand("scan", "steer sweep: scan loss and pointing",
                   flags=steer_flags, keys=steer_keys)
    p.add_argument("--max-deg", type=float, default=60.0)
    p.add_argument("--step-deg", type=float, default=10.0)
    p.add_argument("--element-exponent", type=float, default=1.0)
    p.set_defaults(func=cmd_scan)

    p = subcommand("quantloss", "quantization loss vs bit count",
                   flags=("--bits", "--carrier-hz"), keys=("bits", "geometry"))
    p.add_argument("--tx-range", type=float, default=FAR_FIELD_RANGE_M)
    p.add_argument("--rx-range", type=float, default=0.05)
    p.set_defaults(func=cmd_quantloss)

    p = subcommand("link", "evaluate a scenario file",
                   flags=(), keys=("element_table", "scenario"))
    p.add_argument("--scenario", help="scenario bundle path (default: packaged bundle)")
    p.set_defaults(func=cmd_link)

    p = subcommand("reproduce", "run the packaged scenario bundle and metric suite",
                   flags=("--grid-deg", "--seed"),
                   keys=("grid_deg", "seed", "element_table", "scenario", "feed"))
    p.add_argument("--oracle-trials", type=int, default=20)
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(build_run_config(args), args)
    except (RisSimError, ValueError, OSError) as exc:
        print(f"rissim: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
