import csv
import hashlib
import math

import numpy as np
import pytest

from rissim.campaign import judge
from rissim.cli import build_parser, main, parse_bits
from rissim.errors import ConfigError


def run(*argv) -> int:
    return main(list(argv))


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_parse_bits():
    assert parse_bits("2") == (2,)
    assert parse_bits("1..4") == (1, 2, 3, 4)
    with pytest.raises(ConfigError):
        parse_bits("4..1")
    with pytest.raises(ConfigError):
        parse_bits("two")


def test_codebook_broadside_outputs(tmp_path):
    assert run("codebook", "--out", str(tmp_path)) == 0
    rows = read_csv(tmp_path / "codes.csv")
    assert len(rows) == 16
    assert all(v == "0" for row in rows for v in row.values())
    blob = (tmp_path / "bias_bitstream.bin").read_bytes()
    assert blob == b"\x00" * 64  # 512 zero bits
    assert (tmp_path / "bias_bitstream.hex").read_text().strip() == "00" * 64


def test_codebook_near_focus_uses_all_codes(tmp_path, capsys):
    assert run("codebook", "--out", str(tmp_path), "--rx-range", "0.05") == 0
    rows = read_csv(tmp_path / "codes.csv")
    codes = {v for row in rows for v in row.values()}
    assert codes == {"0", "1", "2", "3"}
    line = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("tx: "))
    assert line == "tx: d=100.0 m polar=0.00 deg; rx: d=0.05 m polar=0.00 deg"


def test_quantloss_ladder(tmp_path):
    assert run("quantloss", "--bits", "1..4", "--out", str(tmp_path)) == 0
    rows = read_csv(tmp_path / "quantization_loss.csv")
    losses = {int(r["bits_count"]): float(r["loss_db"]) for r in rows}
    assert losses[1] == pytest.approx(3.9, abs=0.5)
    assert losses[2] == pytest.approx(0.9, abs=0.3)
    assert losses[3] == pytest.approx(0.22, abs=0.1)
    assert losses[4] == pytest.approx(0.06, abs=0.05)


def test_quantloss_deterministic_output(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run("quantloss", "--bits", "1..2", "--out", str(out1)) == 0
    assert run("quantloss", "--bits", "1..2", "--out", str(out2)) == 0
    assert (out1 / "quantization_loss.csv").read_bytes() == (out2 / "quantization_loss.csv").read_bytes()


def test_link_bundled_scenarios(tmp_path):
    assert run("link", "--out", str(tmp_path)) == 0
    rows = read_csv(tmp_path / "link_report.csv")
    assert len(rows) == 10
    assert all(r["status"] == "ok" for r in rows)
    assert rows[0]["rate_mbps"] == "1024"


def test_link_mismatch_exits_nonzero(tmp_path, capsys):
    from rissim import bundled_scenario_path

    doctored = bundled_scenario_path().read_text().replace(
        "expected_rate_mbps: 1024", "expected_rate_mbps: 450", 1
    )
    path = tmp_path / "doctored.scenario"
    path.write_text(doctored)
    assert run("link", "--scenario", str(path), "--out", str(tmp_path)) == 1


@pytest.mark.parametrize("row", ["array_gain_without_panel", "array_gain_with_panel"])
def test_reproduce_refuses_a_bundle_without_a_power_pair_row(tmp_path, capsys, row):
    from rissim import bundled_scenario_path

    doctored = bundled_scenario_path().read_text().replace(f"name: {row}\n", "name: renamed\n")
    path, config, out = tmp_path / "doctored.scenario", tmp_path / "run.yaml", tmp_path / "out"
    path.write_text(doctored)
    config.write_text(f"scenario: {path}\n")
    assert run("reproduce", "--config", str(config), "--out", str(out)) == 1
    assert f"{path}: scenario bundle has no '{row}' row" in capsys.readouterr().err
    assert not out.exists()


def test_link_missing_file_is_domain_error(tmp_path):
    assert run("link", "--scenario", str(tmp_path / "nope.scenario"),
               "--out", str(tmp_path)) == 1


def test_pattern_coarse_grid(tmp_path):
    assert run("pattern", "--out", str(tmp_path), "--grid-deg", "1.0", "--plane", "E") == 0
    rows = read_csv(tmp_path / "pattern_cut_e.csv")
    assert rows[0].keys() == {"theta_deg", "phi_deg", "power_db_normalized"}
    metrics = read_csv(tmp_path / "pattern_metrics.csv")
    assert float(metrics[0]["sidelobe_level_db"]) <= -18.0


def test_scan_subcommand(tmp_path):
    assert run("scan", "--out", str(tmp_path), "--step-deg", "30", "--max-deg", "60") == 0
    rows = read_csv(tmp_path / "scan_loss.csv")
    assert [r["steer_deg"] for r in rows] == ["0.0", "30.0", "60.0"]
    assert 2.5 <= float(rows[-1]["e_plane_loss_db"]) <= 6.0


def test_scan_keeps_a_last_angle_the_step_does_not_divide_exactly(tmp_path):
    assert run("scan", "--out", str(tmp_path), "--max-deg", "0.7", "--step-deg", "0.1") == 0
    rows = read_csv(tmp_path / "scan_loss.csv")
    assert [r["steer_deg"] for r in rows] == [f"{0.1 * i:.1f}" for i in range(8)]


def test_reproduce_small(tmp_path):
    assert run("reproduce", "--out", str(tmp_path), "--oracle-trials", "3", "--seed", "7") == 0
    for name in ("link_report.csv", "quantization_loss.csv", "pattern_metrics.csv",
                 "scan_loss.csv"):
        assert (tmp_path / name).exists()
    # reproduce's steer sweep is nominal-mode, so it matches `rissim scan` at its defaults
    assert run("scan", "--out", str(tmp_path / "scan")) == 0
    scan_rows = read_csv(tmp_path / "scan" / "scan_loss.csv")
    expected = [
        [plane, row["steer_deg"], row[f"{plane.lower()}_plane_loss_db"],
         row[f"{plane.lower()}_plane_peak_deg"]]
        for plane in ("E", "H") for row in scan_rows
    ]
    assert [list(row.values()) for row in read_csv(tmp_path / "scan_loss.csv")] == expected


def test_unknown_subcommand_usage_error():
    with pytest.raises(SystemExit) as err:
        run("frobnicate")
    assert err.value.code == 2


def test_unknown_flag_usage_error():
    with pytest.raises(SystemExit) as err:
        run("codebook", "--frequency", "1e9")
    assert err.value.code == 2


def test_config_file_round_trip(tmp_path):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(
        "output_dir: {out}\n"
        "bits: 2\n"
        "geometry: {{num_x: 8, num_y: 8, spacing_x_m: 0.0049, spacing_y_m: 0.0049}}\n".format(
            out=tmp_path / "results"
        )
    )
    assert run("codebook", "--config", str(cfg)) == 0
    rows = read_csv(tmp_path / "results" / "codes.csv")
    assert len(rows) == 8


@pytest.mark.parametrize("geometry,field", [
    ("{num_x: 2.5, num_y: 3.9}", "num_x"),
    ("{num_x: 16.7}", "num_x"),
    ("{num_y: true}", "num_y"),
])
def test_config_rejects_non_integer_counts(tmp_path, capsys, geometry, field):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(f"output_dir: {tmp_path / 'results'}\ngeometry: {geometry}\n")
    assert run("codebook", "--config", str(cfg)) == 1
    assert f"'{field}' must be an integer" in capsys.readouterr().err
    assert not (tmp_path / "results" / "codes.csv").exists()


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.yaml"
    cfg.write_text("output_dir: x\nturbo_mode: yes\n")
    assert run("codebook", "--config", str(cfg)) == 1
    assert "turbo_mode" in capsys.readouterr().err


def test_out_dir_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("RISSIM_OUT", str(tmp_path / "from_env"))
    monkeypatch.chdir(tmp_path)
    assert run("codebook") == 0
    assert (tmp_path / "from_env" / "codes.csv").exists()


@pytest.mark.parametrize("bits", [1, 2, 3])
def test_steer_codes_quantize_the_feed_path_plus_a_plane_wave(bits):
    from rissim import ArrayGeometry, ElementStateTable, state_coefficients, wavelength
    from rissim.campaign import DEFAULT_FEED_EXPONENT, SteerStudy

    panel, carrier_hz = ArrayGeometry(16, 16), 27.0e9
    table = ElementStateTable.ideal(bits)
    study = SteerStudy(panel, carrier_hz, table, 0.05, DEFAULT_FEED_EXPONENT, 0.25)
    xe, ye = panel.element_grid()
    feed_path = np.sqrt(xe**2 + ye**2 + 0.05**2) - 0.05  # the 5 cm feed on the axis
    step = 2 * math.pi / (1 << bits)
    for plane, (ux, uy) in {"E": (1.0, 0.0), "H": (0.0, 1.0)}.items():
        for steer_deg in (-60.0, -23.4, -0.5, 0.0, 17.3, 47.5, 60.0):
            s = math.sin(math.radians(steer_deg))  # signed: a negative angle turns the azimuth
            phase = 2 * math.pi * (feed_path - (xe * s * ux + ye * s * uy)) / wavelength(
                carrier_hz)
            codes = np.ceil(np.mod(phase, 2 * math.pi) / step - 0.5).astype(int) % (1 << bits)
            expected = state_coefficients(table, codes) * study.illumination
            assert np.array_equal(study.weights(steer_deg, plane), expected), (plane, steer_deg)


def test_pattern_steered(tmp_path):
    assert run("pattern", "--out", str(tmp_path), "--grid-deg", "0.5",
               "--steer-deg", "-30", "--plane", "E") == 0
    metrics = read_csv(tmp_path / "pattern_metrics.csv")
    assert float(metrics[0]["peak_direction_deg"]) == pytest.approx(-30.0, abs=1.0)


# sha256 of pattern_cut_e.csv, pattern_cut_h.csv and pattern_metrics.csv, and the last
# stdout line, of `rissim pattern --plane both`, keyed by (mode, steer angle). Recorded
# from an earlier pattern engine; every engine since has reproduced them byte for byte.
PINNED_PATTERN_OUTPUTS = {
    ("nominal", "-30"): (
        "f2063a0d831b58a0813df2cdc9949960725d874c018831be2bc704ccecc1897d",
        "a845ededfa6218a5bb78a3be462a266a54c3143bae2737fdfc665f7b037519c3",
        "941493bee2ac48acef15cca26a4f53e1e9845620330ac586c7cb907a3e7da9a2",
        "directivity 24.84 dBi, gain 24.84 dBi (loss budget 0.00 dB)"),
    ("nominal", "0"): (
        "a3ce543f2f2f863672856c35e779fd1175b23bc9342a98947ec6c22deae1232f",
        "a8ff369a246aa5abf4ab5bd8a9a1a355f041832e26df0a178f80fd8c51accd97",
        "bb5b4112c221fcc1e47e4c91683fb84d1a400b955587c3168719cda89434aaba",
        "directivity 25.44 dBi, gain 25.44 dBi (loss budget 0.00 dB)"),
    ("nominal", "47.5"): (
        "14da09c6a506b296b8d7ff5a61a5caac89e516bee8ea72c29ff63fba9dd304a0",
        "169a82811273cb066e304e0fce88b73be19c705cb4cef628267e63c34c3ff0a6",
        "c9ca881c119f0ff5d69801e8d513d878a1b54241acd66742f99785ca122550dc",
        "directivity 23.70 dBi, gain 23.70 dBi (loss budget 0.00 dB)"),
    ("realized", "-30"): (
        "47fd0a776ea13ac00ede393a85f3fe709803cadbf2c23bbe0b139e793dbbf6ab",
        "adf9dd62d3e2ff042b7e0e03f30e3b7961d4bc70cf271e4a135572c436b295f7",
        "3a8784288757db9678f7e46cae0de6b70be4e037c17bf9c051b8aa831831ad78",
        "directivity 24.84 dBi, gain 24.84 dBi (loss budget 0.00 dB)"),
}


@pytest.mark.parametrize("mode,steer_deg", list(PINNED_PATTERN_OUTPUTS))
def test_pattern_outputs_match_their_pinned_digests(tmp_path, capsys, mode, steer_deg):
    assert run("pattern", "--mode", mode, "--steer-deg", steer_deg, "--plane", "both",
               "--out", str(tmp_path)) == 0
    *digests, line = PINNED_PATTERN_OUTPUTS[mode, steer_deg]
    names = ("pattern_cut_e.csv", "pattern_cut_h.csv", "pattern_metrics.csv")
    assert [hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in names] == digests
    assert capsys.readouterr().out.splitlines()[-1] == line


PINNED_CODEBOOK_OUTPUTS = {
    "2-bit broadside": (
        ["--rx-range", "0.05"],
        {"codes.csv": "0a647f355b925845bb27b8be08f6401d55078a963aabb6dbfe43ca7a59e0ecd5",
         "bias_bitstream.bin": "099cbd503856bc50cea1a8a1a41fc8c314e834a59f9cc8fea93354ec0fe42d88",
         "bias_bitstream.hex": "78231f53942ec2d411515bc80f577174b8654dc90047f5fc4407acd9dbedad0b"},
        "code histogram: 0:60 1:80 2:64 3:52"),
    "3-bit off-axis": (  # no bitstream: it is defined for 2-bit panels only
        ["--bits", "3", "--tx-range", "2", "--tx-polar-deg", "30", "--rx-range", "0.07",
         "--rx-polar-deg", "20"],
        {"codes.csv": "63e5b55a44514594f62a2d73ae6e6f4597e615ae1a7ea22b13b8b4e11a34ef0c"},
        "code histogram: 0:34 1:30 2:34 3:26 4:40 5:42 6:22 7:28"),
}


@pytest.mark.parametrize("case", list(PINNED_CODEBOOK_OUTPUTS))
def test_codebook_outputs_match_their_pinned_digests(tmp_path, capsys, case):
    flags, digests, line = PINNED_CODEBOOK_OUTPUTS[case]
    assert run("codebook", *flags, "--out", str(tmp_path)) == 0
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in tmp_path.iterdir()} == digests
    assert line in capsys.readouterr().out.splitlines()


def test_repeated_pattern_runs_in_one_process_keep_their_bytes(tmp_path, capsys):
    """The tables cached by one run (steering rows, CSV templates, feed) do not leak into the next."""
    pinned = ["pattern", "--mode", "nominal", "--steer-deg", "-30", "--plane", "both"]
    h_cut = ["pattern", "--mode", "realized", "--plane", "H", "--steer-deg", "60",
             "--element-exponent", "0"]
    near_feed, default_feed = tmp_path / "near_feed.yaml", tmp_path / "default_feed.yaml"
    near_feed.write_text("feed: {range_m: 0.1}\ngrid_deg: 1.0\n")
    default_feed.write_text("grid_deg: 1.0\n")
    *digests, line = PINNED_PATTERN_OUTPUTS["nominal", "-30"]
    names = ("pattern_cut_e.csv", "pattern_cut_h.csv", "pattern_metrics.csv")
    for out, argv in [("first", pinned), ("near", [*h_cut, "--config", str(near_feed)]),
                      ("third", pinned), ("default", [*h_cut, "--config", str(default_feed)])]:
        assert run(*argv, "--out", str(tmp_path / out)) == 0
        if argv is pinned:
            assert [hashlib.sha256((tmp_path / out / name).read_bytes()).hexdigest()
                    for name in names] == digests
            assert capsys.readouterr().out.splitlines()[-1] == line
    near, default = ((tmp_path / out / "pattern_cut_h.csv").read_bytes() for out in ("near", "default"))
    assert near != default  # the feed study is keyed on the feed


@pytest.mark.parametrize("grid_deg", ["0.25", "5", "10"])
def test_directivity_does_not_depend_on_the_cut_step(tmp_path, capsys, grid_deg):
    assert run("pattern", "--steer-deg", "47.5", "--grid-deg", grid_deg,
               "--out", str(tmp_path)) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "directivity 23.70 dBi, gain 23.70 dBi (loss budget 0.00 dB)")


def test_pattern_loss_budget_gain_line(tmp_path, capsys):
    assert run("pattern", "--loss-budget-db", "2.5", "--out", str(tmp_path)) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "directivity 25.44 dBi, gain 22.94 dBi (loss budget 2.50 dB)")


@pytest.mark.parametrize("beam,flags,alone", [
    ("{rx_pose: {range_m: 1.0}}", ["--rx-range", "0.05"], ["--rx-range", "0.05"]),
    ("{tx_pose: {range_m: 2.0, polar_deg: 10}, rx_pose: {range_m: 1.0, polar_deg: 20}}",
     ["--tx-polar-deg", "30", "--rx-range", "0.05"],
     ["--tx-range", "2.0", "--tx-polar-deg", "30", "--rx-range", "0.05", "--rx-polar-deg", "20"]),
], ids=["range", "field-by-field"])
def test_codebook_flags_win_over_the_run_config_beam(tmp_path, beam, flags, alone):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(f"beam: {beam}\n")
    assert run("codebook", "--config", str(cfg), *flags, "--out", str(tmp_path / "merged")) == 0
    assert run("codebook", *alone, "--out", str(tmp_path / "flags")) == 0
    merged, given = ((tmp_path / d / "codes.csv").read_bytes() for d in ("merged", "flags"))
    assert merged == given


def test_codebook_rejects_bits_range(tmp_path):
    assert run("codebook", "--out", str(tmp_path), "--bits", "1..3") == 1


def test_element_table_override(tmp_path):
    states = tmp_path / "states.csv"
    states.write_text(
        "code,phase_deg,loss_db\n0,0,0\n1,90,0\n2,180,0\n3,270,0\n"
    )
    cfg = tmp_path / "run.yaml"
    cfg.write_text(f"output_dir: {tmp_path / 'r'}\nelement_table: {states}\n")
    assert run("link", "--config", str(cfg)) == 0


@pytest.mark.parametrize("command,phase", [(["scan", "--mode", "realized"], "inf"),
                                           (["link"], "nan")])
def test_a_non_finite_table_phase_is_refused(tmp_path, capsys, command, phase):
    states = tmp_path / "states.csv"
    states.write_text(f"code,phase_deg,loss_db\n0,0,0\n1,{phase},0\n2,180,0\n3,270,0\n")
    cfg = tmp_path / "run.yaml"
    cfg.write_text(f"element_table: {states}\n")
    out = tmp_path / "out"
    assert run(*command, "--config", str(cfg), "--out", str(out)) == 1
    assert f"element table {states}: code 1 phase must be finite, got {phase}" in (
        capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("command,key", [("codebook", "element_table"), ("link", "element_table"),
                                         ("link", "scenario"), ("codebook", "output_dir"),
                                         ("reproduce", "output_dir")])
@pytest.mark.parametrize("value", ["0", "3", "null"])
@pytest.mark.parametrize("with_out", [True, False], ids=["out-flag", "no-out-flag"])
def test_run_config_paths_must_be_strings(tmp_path, capsys, monkeypatch, command, key, value,
                                          with_out):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("RISSIM_OUT", raising=False)
    cfg = tmp_path / "run.yaml"
    cfg.write_text(f"{key}: {value}\n")
    out = ["--out", str(tmp_path / "out")] if with_out else []
    assert run(command, "--config", str(cfg), *out) == 1
    assert f"key '{key}' must be a path, got " in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["run.yaml"]  # nothing written


def test_pattern_one_bit_reads_its_own_phases(tmp_path):
    assert run("pattern", "--out", str(tmp_path), "--bits", "1", "--steer-deg", "30",
               "--plane", "E") == 0
    metrics = read_csv(tmp_path / "pattern_metrics.csv")
    assert float(metrics[0]["peak_direction_deg"]) == pytest.approx(29.75, abs=1e-9)


def test_realized_scan_rejects_table_of_other_bit_depth(tmp_path, capsys):
    assert run("scan", "--out", str(tmp_path), "--bits", "3", "--mode", "realized") == 1
    err = capsys.readouterr().err
    assert "3-bit codes" in err and "2-bit state table" in err
    assert not (tmp_path / "scan_loss.csv").exists()


@pytest.mark.parametrize("flags,name", [
    (["--step-deg", "0"], "--step-deg"),
    (["--step-deg", "-10"], "--step-deg"),
    (["--step-deg", "nan"], "--step-deg"),
    (["--max-deg", "-10"], "--max-deg"),
    (["--max-deg", "inf"], "--max-deg"),
    (["--max-deg", "100", "--step-deg", "50"], "--max-deg"),  # steers behind the panel
    # the steer_deg column carries one decimal, so the step is a multiple of 0.1 deg
    (["--max-deg", "0.3", "--step-deg", "0.05", "--grid-deg", "0.05"], "--step-deg"),
    (["--step-deg", "0.25"], "--step-deg"),
    (["--max-deg", "0", "--step-deg", "1e-12"], "--step-deg"),
])
def test_scan_rejects_bad_step_or_range(tmp_path, capsys, flags, name):
    assert run("scan", "--out", str(tmp_path), *flags) == 1
    assert name in capsys.readouterr().err
    assert not (tmp_path / "scan_loss.csv").exists()


@pytest.mark.parametrize("argv,message", [
    (["quantloss", "--carrier-hz", "nan"], "carrier_hz must be finite"),
    (["pattern", "--carrier-hz", "inf"], "carrier_hz must be finite"),
    (["scan", "--element-exponent", "inf"], "element exponent must be finite"),
    (["pattern", "--loss-budget-db", "inf"], "loss_budget_db must be finite"),
    (["pattern", "--steer-deg", "95"], "--steer-deg must lie in [-90, 90]"),  # behind the panel
    (["pattern", "--config", "feed: {gain_dbi: .nan}"], "feed: key 'gain_dbi' must be finite"),
    (["pattern", "--config", "feed: {gain_dbi: .inf}"], "feed: key 'gain_dbi' must be finite"),
    (["pattern", "--config", "feed: {range_m: .nan}"], "feed: key 'range_m' must be finite"),
    (["reproduce", "--config", "feed: {gain_dbi: .nan}"], "feed: key 'gain_dbi' must be finite"),
    (["reproduce", "--config", "feed: {range_m: .nan}"], "feed: key 'range_m' must be finite"),
    (["pattern", "--config", "feed: {range_m: -1}"], "feed: key 'range_m' must be positive"),
    (["pattern", "--config", "feed: {range_m: 0}"], "feed: key 'range_m' must be positive"),
    (["pattern", "--config", "feed: {gain_dbi: 2}"],
     "feed: key 'gain_dbi': gain 2.0 dBi is below the hemispheric minimum (3.01 dBi)"),
    (["reproduce", "--config", "feed: {range_m: -1}"], "feed: key 'range_m' must be positive"),
    (["reproduce", "--config", "feed: {range_m: 0}"], "feed: key 'range_m' must be positive"),
    (["reproduce", "--config", "feed: {gain_dbi: 2}"],
     "feed: key 'gain_dbi': gain 2.0 dBi is below the hemispheric minimum (3.01 dBi)"),
    (["pattern", "--element-exponent", "400"],  # every sidelobe sample underflows to zero
     "sidelobe level undefined: every sample outside the main lobe is zero"),
    (["codebook", "--config", "beam: {tx_model: spherical}"],  # every point is phased exactly
     "beam: unknown key(s) ['tx_model']"),
    (["codebook", "--config", "beam: {offset_deg: 10}"],  # no free phase constant
     "beam: unknown key(s) ['offset_deg']"),
    (["link", "--scenario", ("rx_pose: {range_m: 0.05", "rx_pose: {range_m: .nan")],
     "scenarios[0]: rx_pose: key 'range_m' must be finite, got nan"),
    (["link", "--scenario", ("azimuth_deg: 0.0", "azimuth_deg: .inf")],
     "scenarios[0]: tx_pose: key 'azimuth_deg' must be finite, got inf"),
    (["codebook", "--config", "beam: {tx_pose: {range_m: .inf}}"],
     "beam.tx_pose: key 'range_m' must be finite, got inf"),
    (["codebook", "--tx-range", "nan"], "beam.tx_pose: key 'range_m' must be finite, got nan"),
    (["codebook", "--tx-azimuth-deg", "inf"],
     "beam.tx_pose: key 'azimuth_deg' must be finite, got inf"),
    (["quantloss", "--tx-range", "nan"], "--tx-range must be finite, got nan"),
    (["quantloss", "--rx-range", "inf"], "--rx-range must be finite, got inf"),
], ids=["carrier-nan", "carrier-inf", "element-exponent-inf",
        "loss-budget-inf", "steer-95", "feed-gain-nan", "feed-gain-inf",
        "feed-range-nan", "reproduce-feed-gain-nan", "reproduce-feed-range-nan",
        "feed-range-negative", "feed-range-zero", "feed-gain-2", "reproduce-feed-range-negative",
        "reproduce-feed-range-zero", "reproduce-feed-gain-2", "element-exponent-400",
        "beam-tx-model", "beam-offset-deg", "bundle-rx-range-nan", "bundle-tx-azimuth-inf",
        "beam-tx-range-inf", "codebook-tx-range-nan", "codebook-tx-azimuth-inf",
        "quantloss-tx-range-nan", "quantloss-rx-range-inf"])
def test_bad_numbers_are_rejected_naming_the_field(tmp_path, capsys, argv, message):
    if "--config" in argv:  # the entry after --config is the run config's text
        i = argv.index("--config") + 1
        config = tmp_path / "run.yaml"
        config.write_text(argv[i] + "\n")
        argv = [*argv[:i], str(config), *argv[i + 1:]]
    if "--scenario" in argv:  # the entry after --scenario is an (old, new) edit of the bundle
        from rissim import bundled_scenario_path

        i = argv.index("--scenario") + 1
        bundle = tmp_path / "edited.scenario"
        bundle.write_text(bundled_scenario_path().read_text().replace(*argv[i], 1))
        argv = [*argv[:i], str(bundle), *argv[i + 1:]]
    out = tmp_path / "out"
    assert run(*argv, "--out", str(out)) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()  # checked before the first write


@pytest.mark.parametrize("source", ["flag", "run config", "bundle"])
def test_a_pose_behind_its_face_is_rejected(tmp_path, capsys, source):
    out = tmp_path / "out"
    if source == "flag":
        argv = ["codebook", "--rx-polar-deg", "120"]
    elif source == "run config":
        config = tmp_path / "run.yaml"
        config.write_text("beam: {rx_pose: {range_m: 0.05, polar_deg: 120}}\n")
        argv = ["codebook", "--config", str(config)]
    else:
        from rissim import bundled_scenario_path

        bundle = tmp_path / "behind.scenario"
        bundle.write_text(bundled_scenario_path().read_text().replace(
            "polar_deg: 30.0", "polar_deg: 120.0", 1))
        argv = ["link", "--scenario", str(bundle)]
    assert run(*argv, "--out", str(out)) == 1
    assert "'polar_deg' must lie in [0, 90) deg, got 120.0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("source,name", [
    ("codebook flag", "beam.rx_pose: key 'range_m'"), ("run config", "beam.tx_pose: key 'range_m'"),
    ("bundle", "rx_pose: key 'range_m'"), ("quantloss flag", "--tx-range"),
], ids=["codebook-flag", "run-config", "bundle", "quantloss-flag"])
def test_an_endpoint_at_range_zero_is_rejected(tmp_path, capsys, source, name):
    """Range 0 puts the endpoint on the panel surface."""
    out = tmp_path / "out"
    if source == "codebook flag":
        argv = ["codebook", "--rx-range", "0"]
    elif source == "run config":
        config = tmp_path / "run.yaml"
        config.write_text("beam: {tx_pose: {range_m: 0, polar_deg: 30}}\n")
        argv = ["codebook", "--config", str(config)]
    elif source == "bundle":
        from rissim import bundled_scenario_path

        bundle = tmp_path / "on_panel.scenario"
        bundle.write_text(bundled_scenario_path().read_text().replace(
            "range_m: 0.05", "range_m: 0", 1))
        argv = ["link", "--scenario", str(bundle)]
    else:
        argv = ["quantloss", "--tx-range", "0"]
    assert run(*argv, "--out", str(out)) == 1
    assert f"{name} must be positive, got 0.0" in capsys.readouterr().err
    assert not out.exists()


def test_a_bundle_gain_below_the_hemispheric_minimum_is_rejected(tmp_path, capsys):
    from rissim import bundled_scenario_path

    bundle = tmp_path / "weak_face.scenario"
    bundle.write_text(bundled_scenario_path().read_text().replace(
        "ris_tx_side_dbi: 5.0", "ris_tx_side_dbi: 2", 1))
    out = tmp_path / "out"
    assert run("link", "--scenario", str(bundle), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert "gains: key 'ris_tx_side_dbi'" in err
    assert "gain 2.0 dBi is below the hemispheric minimum (3.01 dBi)" in err
    assert not out.exists()


@pytest.mark.parametrize("section", ["geometry", "feed", "beam"])
def test_config_section_must_be_a_mapping(tmp_path, capsys, section):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(f"output_dir: {tmp_path / 'results'}\n{section}: 5\n")
    assert run("codebook", "--config", str(cfg)) == 1
    assert f"{section} must be a mapping" in capsys.readouterr().err
    assert not (tmp_path / "results" / "codes.csv").exists()


@pytest.mark.parametrize("entry,key", [
    ("feed: {range_m: true}", "range_m"),
    ("feed: {gain_dbi: twelve}", "gain_dbi"),
    ("grid_deg: true", "grid_deg"),
])
def test_config_numbers_are_not_booleans(tmp_path, capsys, entry, key):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(f"output_dir: {tmp_path / 'results'}\n{entry}\n")
    assert run("codebook", "--config", str(cfg)) == 1
    assert f"'{key}' must be a number" in capsys.readouterr().err
    assert not (tmp_path / "results" / "codes.csv").exists()


@pytest.mark.parametrize("feed", ["{exponent: 8.31}", "{gain_dbi: 12.7, exponent: 8.31}"],
                         ids=["alone", "beside-gain"])
def test_feed_exponent_is_not_a_run_config_key(tmp_path, capsys, feed):
    # the feed pattern is set by its gain alone, G = 2(q + 1)
    cfg = tmp_path / "run.yaml"
    cfg.write_text(f"feed: {feed}\n")
    out = tmp_path / "out"
    assert run("pattern", "--config", str(cfg), "--out", str(out)) == 1
    assert "feed: unknown key(s) ['exponent']" in capsys.readouterr().err
    assert not out.exists()


# the run-config keys each subcommand reads, besides output_dir
READ_KEYS = {
    "codebook": {"bits", "geometry", "beam"},
    "quantloss": {"bits", "geometry"},
    "pattern": {"grid_deg", "bits", "mode", "element_table", "geometry", "feed"},
    "scan": {"grid_deg", "bits", "mode", "element_table", "geometry", "feed"},
    "link": {"element_table", "scenario"},
    "reproduce": {"grid_deg", "seed", "element_table", "scenario", "feed"},
}
# one valid entry per key; {states} and {scenario} are filled with paths. No subcommand reads
# hemisphere_grid_deg, the step of the grid the directivity once sampled, so each refuses it.
KEY_ENTRIES = {
    "grid_deg": "grid_deg: 1.0",
    "hemisphere_grid_deg": "hemisphere_grid_deg: 2.0",
    "bits": "bits: 3",
    "mode": "mode: nominal",
    "seed": "seed: 4",
    "element_table": "element_table: {states}",
    "geometry": "geometry: {{num_x: 8, num_y: 8}}",
    "feed": "feed: {{gain_dbi: 12.7}}",
    "beam": "beam: {{rx_pose: {{range_m: 1.0}}}}",
    "scenario": "scenario: {scenario}",
}


@pytest.mark.parametrize("command,key", [
    (command, key) for command, keys in READ_KEYS.items() for key in KEY_ENTRIES
    if key not in keys
], ids="-".join)
def test_a_subcommand_refuses_a_run_config_key_it_does_not_read(tmp_path, capsys, command, key):
    from rissim import bundled_scenario_path

    states = tmp_path / "states.csv"
    states.write_text("code,phase_deg,loss_db\n0,0,0\n1,90,0\n2,180,0\n3,270,0\n")
    cfg = tmp_path / "run.yaml"
    cfg.write_text(KEY_ENTRIES[key].format(states=states, scenario=bundled_scenario_path()) + "\n")
    out = tmp_path / "out"
    assert run(command, "--config", str(cfg), "--out", str(out)) == 1
    assert f"rissim {command} does not read run-config key(s) ['{key}']" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text,message", [
    ("1: x\nturbo_mode: y\n", "does not read run-config key(s) ['1', 'turbo_mode']"),
    ("feed: {2: x, turbo: y}\n", "feed: unknown key(s) ['2', 'turbo']"),
], ids=["top-level", "section"])
def test_config_keys_that_are_numbers_are_named(tmp_path, capsys, text, message):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert run("pattern", "--config", str(cfg), "--out", str(out)) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_config_seed_must_be_an_integer(tmp_path, capsys):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(f"output_dir: {tmp_path / 'results'}\nseed: 2.7\n")
    assert run("codebook", "--config", str(cfg)) == 1
    assert "'seed' must be an integer" in capsys.readouterr().err


def test_oracle_verdict_fails_when_solver_beats_the_oracle(monkeypatch):
    import rissim.beams as beams
    from rissim import default_element_table
    from rissim.campaign import DEFAULT_FEED_EXPONENT, measure_campaign

    def weak_oracle(*args, **kwargs):
        config, power = beams.optimal_codebook(*args, **kwargs)
        return config, power / 2.0  # the solver beats it by 3 dB

    monkeypatch.setattr(beams, "exhaustive_oracle", weak_oracle)
    campaign = measure_campaign(None, default_element_table(), 0.05, DEFAULT_FEED_EXPONENT, 0.25,
                                seed=0, oracle_trials=2)
    verdict = {v.name: v for v in campaign.verdicts}["codebook-vs-oracle gap"]
    low, high = verdict.window
    assert low <= verdict.value <= high and not verdict.passed


# The namespaces a per-layer tracer patches: the package, its layer modules and the CLI, not
# the campaign module. So the campaign calls each layer function through its module.
TRACED_NAMESPACES = ("rissim", "rissim.geometry", "rissim.elements", "rissim.codebook",
                     "rissim.channel", "rissim.beams", "rissim.patterns", "rissim.link",
                     "rissim.scenario_io", "rissim.cli")


@pytest.mark.parametrize("argv,calls", [
    (["reproduce"], {"principal_cut": 15, "evaluate_scenario": 12, "quantize_phases": 21}),
    (["pattern", "--plane", "both"],
     {"principal_cut": 2, "evaluate_scenario": 0, "quantize_phases": 2}),
], ids=["reproduce", "pattern"])
def test_layer_calls_are_seen_on_the_traced_namespaces(tmp_path, monkeypatch, argv, calls):
    import importlib

    import rissim

    counts = dict.fromkeys(calls, 0)

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    originals = {name: getattr(rissim, name) for name in calls}
    for module in map(importlib.import_module, TRACED_NAMESPACES):
        for name, fn in originals.items():
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counting(name, fn))
    assert run(*argv, "--out", str(tmp_path)) == 0
    assert counts == calls


@pytest.mark.parametrize("entry", [
    "grid_deg: 0", "grid_deg: .inf",
])
def test_config_grid_steps_must_be_positive(tmp_path, capsys, entry):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(f"output_dir: {tmp_path / 'results'}\n{entry}\n")
    assert run("pattern", "--config", str(cfg)) == 1
    assert f"{entry.split(':')[0]} must be finite and positive" in capsys.readouterr().err
    assert not (tmp_path / "results" / "pattern_metrics.csv").exists()


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("step", ["0.7", "100"])
def test_cut_step_must_divide_a_half_turn(tmp_path, capsys, source, step):
    if source == "flag":
        argv = ["--grid-deg", step, "--out", str(tmp_path / "results")]
    else:
        cfg = tmp_path / "run.yaml"
        cfg.write_text(f"output_dir: {tmp_path / 'results'}\ngrid_deg: {step}\n")
        argv = ["--config", str(cfg)]
    assert run("pattern", *argv) == 1
    assert f"grid_deg must divide 180 deg, got {float(step)}" in capsys.readouterr().err
    assert not (tmp_path / "results").exists()


def test_parser_is_reused_across_calls(tmp_path):
    parser = build_parser()
    steer = ["pattern", "--steer-deg", "23.4", "--plane", "both"]
    assert run(*steer, "--out", str(tmp_path / "first")) == 0
    with pytest.raises(SystemExit) as rejected:
        run("pattern", "--grid-deg", "1.0", "--plane", "X")
    assert rejected.value.code == 2
    assert run("scan", "--max-deg", "20", "--step-deg", "10", "--grid-deg", "1.0",
               "--out", str(tmp_path / "scan")) == 0
    assert run(*steer, "--out", str(tmp_path / "again")) == 0
    assert build_parser() is parser
    names = sorted(p.name for p in (tmp_path / "first").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "again").iterdir())
    assert len(names) == 3
    for name in names:
        assert (tmp_path / "first" / name).read_bytes() == (tmp_path / "again" / name).read_bytes()


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_reproduce_needs_an_oracle_trial(tmp_path, capsys, trials):
    assert run("reproduce", "--out", str(tmp_path), "--oracle-trials", trials) == 1
    assert f"oracle trials must be at least 1, got {trials}" in capsys.readouterr().err
    assert not (tmp_path / "link_report.csv").exists()


def test_a_verdict_over_no_values_fails():
    assert not judge("60-deg scan loss", (), "no planes").passed
    assert judge("60-deg scan loss", (5.5, 5.5), "both planes").passed


@pytest.mark.parametrize("argv", [
    ["link", "--mode", "nominal"],
    ["link", "--bits", "3"],
    ["link", "--seed", "2"],
    ["link", "--grid-deg", "1"],
    ["link", "--carrier-hz", "28e9"],
    ["reproduce", "--mode", "nominal"],
    ["reproduce", "--bits", "3"],
    ["reproduce", "--carrier-hz", "28e9"],
    ["quantloss", "--mode", "realized"],
    ["quantloss", "--seed", "9"],
    ["quantloss", "--grid-deg", "1"],
    ["codebook", "--mode", "realized"],
    ["codebook", "--grid-deg", "1"],
    ["codebook", "--seed", "4"],
    ["codebook", "--tx-model", "planar"],  # no per-side wavefront model
    ["codebook", "--offset-deg", "10"],  # no free phase constant
    ["pattern", "--seed", "1"],
    ["scan", "--seed", "1"],
], ids=" ".join)
def test_a_subcommand_refuses_a_common_flag_it_does_not_read(tmp_path, capsys, argv):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as rejected:
        run(*argv, "--out", str(out))
    assert rejected.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv,header", [
    (["codebook"], ["panel: 16x16 elements at (4.900, 4.900) mm pitch", "bits: 2"]),
    (["quantloss", "--bits", "1..2"], ["panel: 16x16 elements at (4.900, 4.900) mm pitch",
                                       "bits: 1,2"]),
    (["scan", "--max-deg", "0"], ["panel: 16x16 elements at (4.900, 4.900) mm pitch",
                                  "element table: ideal (2-bit)",
                                  "bits: 2  mode: nominal  grid: 0.25 deg"]),
    (["scan", "--max-deg", "0", "--mode", "realized"],
     ["panel: 16x16 elements at (4.900, 4.900) mm pitch", "element table: (built-in) (2-bit)",
      "bits: 2  mode: realized  grid: 0.25 deg"]),
    (["link"], ["element table: (built-in) (2-bit)"]),
], ids=["codebook", "quantloss", "scan-nominal", "scan-realized", "link"])
def test_the_header_prints_only_what_the_command_read(tmp_path, capsys, argv, header):
    assert run(*argv, "--out", str(tmp_path)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:len(header) + 1] == [*header, f"output dir: {tmp_path}"]
