import pytest
import yaml

from rissim import ConfigError, bundled_scenario_path, load_scenario_bundle

MINIMAL = """\
geometry: {num_x: 4, num_y: 4, spacing_x_m: 0.0049, spacing_y_m: 0.0049}
bits: 2
mcs:
  - {min_snr_db: 10.0, rate_mbps: 450, label: low}
defaults:
  transmit_power_dbm: 10.0
  carrier_hz: 27.0e9
  bandwidth_hz: 8.0e8
  gains: {tx_dbi: 20.0, rx_dbi: 9.0, ris_rx_side_dbi: 5.0, ris_tx_side_dbi: 5.0}
  tx_pose: {range_m: 2.6}
  rx_pose: {range_m: 0.05}
scenarios:
  - name: only
"""


def test_bundled_scenarios_load():
    bundle = load_scenario_bundle(bundled_scenario_path())
    assert bundle.bits == 2
    assert bundle.mode == "realized"
    assert bundle.geometry.num_x == 16 and bundle.geometry.num_y == 16
    assert len(bundle.scenarios) == 10
    assert all(s.expected_rate_mbps is not None for s in bundle.scenarios)
    rates = sorted({row.rate_mbps for row in bundle.mcs.rows})
    assert rates == [450.0, 1024.0, 1121.0, 1683.0]


def test_defaults_merge(tmp_path):
    path = tmp_path / "mini.scenario"
    path.write_text(MINIMAL)
    bundle = load_scenario_bundle(path)
    scenario = bundle.scenarios[0]
    assert scenario.name == "only"
    assert scenario.transmit_power_dbm == 10.0
    assert scenario.ris_present is True
    assert scenario.obstacle is None
    assert scenario.tx_pose.range == 2.6
    assert scenario.tx_pose.polar == 0.0  # pose angle keys default to zero
    assert scenario.mcs == bundle.mcs


def test_scenario_overrides_defaults(tmp_path):
    path = tmp_path / "mini.scenario"
    path.write_text(MINIMAL + "    transmit_power_dbm: -3.0\n    ris_present: false\n")
    scenario = load_scenario_bundle(path).scenarios[0]
    assert scenario.transmit_power_dbm == -3.0
    assert scenario.ris_present is False


@pytest.mark.parametrize("value", ['"false"', '"no"', "2.5"])
def test_ris_present_must_be_a_yaml_boolean(tmp_path, value):
    path = tmp_path / "flag.scenario"
    path.write_text(MINIMAL + f"    ris_present: {value}\n")
    with pytest.raises(ConfigError, match=r"scenarios\[0\] \(only\): key 'ris_present' must be "
                                          r"true or false"):
        load_scenario_bundle(path)


@pytest.mark.parametrize("value,flag", [("true", True), ("false", False)])
def test_ris_present_accepts_true_and_false(tmp_path, value, flag):
    path = tmp_path / "flag.scenario"
    path.write_text(MINIMAL + f"    ris_present: {value}\n")
    assert load_scenario_bundle(path).scenarios[0].ris_present is flag


def test_missing_key_names_it(tmp_path):
    path = tmp_path / "broken.scenario"
    path.write_text(MINIMAL.replace("  transmit_power_dbm: 10.0\n", ""))
    with pytest.raises(ConfigError, match="transmit_power_dbm"):
        load_scenario_bundle(path)


def test_missing_top_level_key(tmp_path):
    path = tmp_path / "broken.scenario"
    path.write_text(MINIMAL.replace("bits: 2\n", ""))
    with pytest.raises(ConfigError, match="bits"):
        load_scenario_bundle(path)


@pytest.mark.parametrize("old,new,key", [
    ("num_x: 4, num_y: 4", "num_x: 2.5, num_y: 3.9", "num_x"),
    ("num_x: 4", "num_x: 16.7", "num_x"),
    ("num_y: 4", "num_y: true", "num_y"),
    ("bits: 2", "bits: 2.5", "bits"),
])
def test_non_integer_counts_rejected(tmp_path, old, new, key):
    path = tmp_path / "counts.scenario"
    path.write_text(MINIMAL.replace(old, new, 1))
    with pytest.raises(ConfigError, match=f"'{key}' must be an integer"):
        load_scenario_bundle(path)


@pytest.mark.parametrize("old,new,section", [
    ("geometry: {num_x: 4, num_y: 4, spacing_x_m: 0.0049, spacing_y_m: 0.0049}",
     "geometry: 5", "geometry"),
    ("  gains: {tx_dbi: 20.0, rx_dbi: 9.0, ris_rx_side_dbi: 5.0, ris_tx_side_dbi: 5.0}",
     "  gains: 5", "gains"),
    ("  tx_pose: {range_m: 2.6}", "  tx_pose: 5", "tx_pose"),
])
def test_section_must_be_a_mapping(tmp_path, old, new, section):
    path = tmp_path / "sections.scenario"
    path.write_text(MINIMAL.replace(old, new, 1))
    with pytest.raises(ConfigError, match=f"{section} must be a mapping"):
        load_scenario_bundle(path)


@pytest.mark.parametrize("old,new,context", [
    ("defaults:\n", "defaults:\n  mystery_knob: 3\n", "defaults"),
    ("ris_tx_side_dbi: 5.0}", "ris_tx_side_dbi: 5.0, mystery_knob: 3}", "scenarios[0]: gains"),
    ("{range_m: 2.6}", "{range_m: 2.6, mystery_knob: 3}", "scenarios[0]: tx_pose"),
    ("  - name: only\n", "  - name: only\n    obstacle: {mystery_knob: 3}\n",
     "scenarios[0]: obstacle"),
    ("label: low}", "label: low, mystery_knob: 3}", "mcs[0]"),
    ("spacing_y_m: 0.0049}", "spacing_y_m: 0.0049, mystery_knob: 3}", "geometry"),
    ("bits: 2\n", "bits: 2\nmystery_knob: 3\n", "extra.scenario"),
    ("  - name: only\n", "  - name: only\n    mystery_knob: 3\n", "scenarios[0]"),
], ids=["defaults", "gains", "tx_pose", "obstacle", "mcs_row", "geometry", "top", "scenario"])
def test_unknown_key_names_key_and_context(tmp_path, old, new, context):
    path = tmp_path / "extra.scenario"
    path.write_text(MINIMAL.replace(old, new, 1))
    with pytest.raises(ConfigError) as excinfo:
        load_scenario_bundle(path)
    assert str(excinfo.value).endswith(f"{context}: unknown key(s) ['mystery_knob']")


def test_obstacle_and_expected_rate_parse(tmp_path):
    path = tmp_path / "obs.scenario"
    path.write_text(
        MINIMAL
        + "    obstacle: {attenuation_db: 6.5, position: rx_side}\n"
        + "    expected_rate_mbps: 450\n"
    )
    scenario = load_scenario_bundle(path).scenarios[0]
    assert scenario.obstacle.attenuation_db == 6.5
    assert scenario.obstacle.position == "rx_side"
    assert scenario.expected_rate_mbps == 450.0


def test_bad_yaml_and_bad_shape(tmp_path):
    bad = tmp_path / "bad.scenario"
    bad.write_text("geometry: [unterminated\n")
    with pytest.raises(ConfigError, match="YAML"):
        load_scenario_bundle(bad)
    flat = tmp_path / "flat.scenario"
    flat.write_text("- 1\n- 2\n")
    with pytest.raises(ConfigError, match="mapping"):
        load_scenario_bundle(flat)


def test_c_and_python_yaml_loaders_agree_on_the_bundle():
    if not hasattr(yaml, "CSafeLoader"):
        pytest.skip("PyYAML built without libyaml")
    text = bundled_scenario_path().read_text()
    assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)


def test_mode_validation(tmp_path):
    path = tmp_path / "mode.scenario"
    path.write_text(MINIMAL + "mode: measured\n")
    with pytest.raises(ConfigError, match="mode"):
        load_scenario_bundle(path)


def test_mcs_row_validation(tmp_path):
    path = tmp_path / "mcs.scenario"
    path.write_text(MINIMAL.replace("min_snr_db: 10.0", "min_snr_db: true"))
    with pytest.raises(ConfigError, match="min_snr_db"):
        load_scenario_bundle(path)
