"""Batch front end: subcommand dispatch, config ingestion, file outputs.

It parses flags and run configs, calls the library (the release campaign and
the steer study are :mod:`rissim.campaign`), and writes the CSVs and stdout.

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
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, campaign
from .beams import quantization_loss, synthesize_codebook, uniform_phase_loss_db
from .channel import exponent_from_gain
from .codebook import encode_bias_bitstream, pack_bitstream
from .elements import ElementStateTable, code_table, default_element_table
from .errors import ConfigError, RisSimError
from .geometry import ArrayGeometry, Pose
from .patterns import cut_grid, pattern_to_csv
from .scenario_io import (_GEOMETRY_KEYS, _check_keys, _load_yaml, _parse_count, _parse_geometry,
                          _parse_number, _parse_pose, bundled_scenario_path)

OUT_DIR_ENV = "RISSIM_OUT"

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
    feed_range_m: float = campaign.DEFAULT_FEED_RANGE_M
    feed_exponent: float = campaign.DEFAULT_FEED_EXPONENT
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
        raw = beam.get(f"{side}_pose", {"range_m": campaign.FAR_FIELD_RANGE_M})
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


# ---------------------------------------------------------- pattern, scan


def _steer_study(cfg: RunConfig) -> campaign.SteerStudy:
    """The steer study of ``pattern`` and ``scan``, once their header is printed."""
    table = code_table(cfg.single_bits(), cfg.mode, cfg.element_table)
    for line in cfg.header_lines("panel", "bits", "mode", "grid", table=table):
        print(line)
    return campaign.SteerStudy(cfg.geometry, cfg.carrier_hz, table, cfg.feed_range_m,
                               cfg.feed_exponent, cfg.grid_deg)


def cmd_pattern(cfg: RunConfig, args: argparse.Namespace) -> int:
    if not -90 <= args.steer_deg <= 90:  # beyond 90 deg the target lies behind the panel
        raise ConfigError(f"--steer-deg must lie in [-90, 90], got {args.steer_deg}")
    planes = ["E", "H"] if args.plane == "both" else [args.plane]
    cuts, metrics, directivity_dbi, gain_dbi = _steer_study(cfg).patterns(
        args.steer_deg, planes, args.element_exponent, args.loss_budget_db)
    rows = []
    for plane, cut, m in zip(planes, cuts, metrics):
        path = cfg.output_path(f"pattern_cut_{plane.lower()}.csv")
        pattern_to_csv(cut, path)
        rows.append([plane, f"{m.peak_direction_deg:.3f}", f"{m.sidelobe_level_db:.3f}",
                     f"{m.hpbw_deg:.3f}"])
        print(f"{plane}-plane: peak {m.peak_direction_deg:+.2f} deg, "
              f"SLL {m.sidelobe_level_db:.2f} dB, HPBW {m.hpbw_deg:.2f} deg -> {path}")
    _write_csv(cfg.output_path("pattern_metrics.csv"),
               ["plane", "peak_direction_deg", "sidelobe_level_db", "hpbw_deg"], rows)
    print(f"directivity {directivity_dbi:.2f} dBi, gain {gain_dbi:.2f} dBi "
          f"(loss budget {args.loss_budget_db:.2f} dB)")
    return 0


def cmd_scan(cfg: RunConfig, args: argparse.Namespace) -> int:
    if not (math.isfinite(args.step_deg) and args.step_deg > 0):
        raise ConfigError(f"--step-deg must be positive, got {args.step_deg}")
    tenths = args.step_deg * 10  # the steer_deg column carries one decimal
    if round(tenths) < 1 or abs(tenths - round(tenths)) > 1e-9:
        raise ConfigError(f"--step-deg must be a multiple of 0.1 deg, got {args.step_deg}")
    if not 0 <= args.max_deg <= 90:  # beyond 90 deg the target lies behind the panel
        raise ConfigError(f"--max-deg must lie in [0, 90], got {args.max_deg}")
    count = math.floor(args.max_deg / args.step_deg + 1e-9)  # 0.7 / 0.1 is 6.999...
    angles = [args.step_deg * i for i in range(count + 1)]
    sweep = campaign.steer_sweep(_steer_study(cfg), angles, args.element_exponent)
    rows = []
    for angle, e_plane, h_plane in zip(angles, sweep["E"], sweep["H"]):
        row = [f"{angle:.1f}"] + [f"{value:.3f}" for value in (*e_plane, *h_plane)]
        rows.append(row)
        print(f"steer {angle:5.1f} deg: E loss {row[1]} dB @ {row[2]} deg, "
              f"H loss {row[3]} dB @ {row[4]} deg")
    path = cfg.output_path("scan_loss.csv")
    _write_csv(path, ["steer_deg", "e_plane_loss_db", "e_plane_peak_deg", "h_plane_loss_db",
                      "h_plane_peak_deg"], rows)
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


def _link_rows(results, mismatches) -> list[list[str]]:
    rows = []
    for scenario, res in results:
        expected = scenario.expected_rate_mbps
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
            "" if expected is None else "MISMATCH" if scenario in mismatches else "ok",
        ])
    return rows


_LINK_HEADER = [
    "name", "transmit_power_dbm", "ris_present_flag", "obstacle_db", "steer_deg",
    "received_power_dbm", "snr_db", "rate_mbps", "expected_rate_mbps", "status",
]


def cmd_link(cfg: RunConfig, args: argparse.Namespace) -> int:
    path = Path(args.scenario) if args.scenario else (cfg.scenario_path or bundled_scenario_path())
    bundle, table, results, mismatches = campaign.evaluate_bundle(path, cfg.element_table)
    for line in cfg.header_lines(table=table):
        print(line)
    print(f"scenario file: {path} ({bundle.description})")
    rows = _link_rows(results, mismatches)
    widths = [max(len(h), max(len(r[i]) for r in rows)) for i, h in enumerate(_LINK_HEADER)]
    print("  ".join(h.ljust(w) for h, w in zip(_LINK_HEADER, widths)))
    for row in rows:
        print("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    out = cfg.output_path("link_report.csv")
    _write_csv(out, _LINK_HEADER, rows)
    print(f"wrote: {out}")
    if mismatches:
        print(f"{len(mismatches)} scenario(s) missed their expected rate", file=sys.stderr)
        return 1
    return 0


# --------------------------------------------------------------- reproduce


def cmd_reproduce(cfg: RunConfig, args: argparse.Namespace) -> int:
    for line in cfg.header_lines("grid", "seed", table=cfg.element_table):
        print(line)
    run = campaign.measure_campaign(cfg.scenario_path, cfg.element_table, cfg.feed_range_m,
                                    cfg.feed_exponent, cfg.grid_deg, cfg.seed, args.oracle_trials)
    _write_csv(cfg.output_path("link_report.csv"), _LINK_HEADER,
               _link_rows(run.link_results, run.mismatches))
    _write_csv(cfg.output_path("quantization_loss.csv"), _QUANTLOSS_HEADER,
               [_quantloss_row(bits, loss)
                for bits, loss in zip(campaign.QUANTIZATION_BITS, run.losses_db)])
    m = run.broadside
    _write_csv(cfg.output_path("pattern_metrics.csv"),
               ["plane", "peak_direction_deg", "sidelobe_level_db", "hpbw_deg",
                "directivity_dbi", "gain_dbi", "aperture_efficiency_pct"],
               [["E", f"{m.peak_direction_deg:.3f}", f"{m.sidelobe_level_db:.3f}",
                 f"{m.hpbw_deg:.3f}", f"{run.directivity_dbi:.3f}",
                 f"{run.gain_dbi:.3f}", f"{100 * run.aperture_efficiency:.3f}"]])
    _write_csv(cfg.output_path("scan_loss.csv"),
               ["plane", "steer_deg", "scan_loss_db", "af_peak_deg"],
               [[plane, f"{angle:.1f}", f"{loss:.3f}", f"{peak_deg:.3f}"]
                for plane in ("E", "H")
                for angle, (loss, peak_deg) in zip(campaign.STEER_ANGLES_DEG, run.sweep[plane])])
    for verdict in run.verdicts:
        print(verdict.line())
    failed = [v.name for v in run.verdicts if not v.passed]
    print(f"\n{len(run.verdicts) - len(failed)}/{len(run.verdicts)} checks passed"
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
    p.add_argument("--tx-range", type=float, default=campaign.FAR_FIELD_RANGE_M)
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
