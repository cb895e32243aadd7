"""Simulator for a 2-bit transmissive-panel mmWave link.

Covers panel geometry, free-space channel and element behavior, phase
codebook synthesis and quantization, array-theory radiation patterns, and
end-to-end link budgets with SNR-to-rate mapping.
"""

from .beams import (
    exhaustive_oracle,
    optimal_codebook,
    optimal_phases,
    quantization_loss,
    synthesize_codebook,
    uniform_phase_loss_db,
)
from .channel import (
    GainProfile,
    coherent_power_bound,
    cos_power_pattern,
    exponent_from_gain,
    feed_illuminations,
    received_power,
)
from .codebook import encode_bias_bitstream, pack_bitstream, quantize_phases
from .elements import (
    ElementStateTable,
    code_table,
    default_element_table,
    state_coefficients,
)
from .errors import (
    ConfigError,
    DegenerateGeometryError,
    InfeasibleTargetError,
    MetricUndefinedError,
    RisSimError,
    SearchSpaceError,
    UnsupportedConfigurationError,
)
from .geometry import (
    ArrayGeometry,
    Pose,
    cartesian_to_spherical,
    exact_distances,
    spherical_to_cartesian,
)
from .link import (
    LinkResult,
    LinkScenario,
    MCSRow,
    MCSTable,
    Obstacle,
    evaluate_scenario,
    noise_power,
    required_transmit_power,
)
from .patterns import (
    PatternMetrics,
    RadiationPattern,
    aperture_efficiency,
    cut_grid,
    directivity_and_gain,
    pattern_metrics,
    pattern_to_csv,
    principal_cut,
    radiation_pattern,
    scan_loss,
)
from .scenario_io import (
    ScenarioBundle,
    bundled_scenario_path,
    load_scenario_bundle,
)
from .units import SPEED_OF_LIGHT, wavelength

__version__ = "0.1.0"
