"""Synthetic THz channel sounding and passive-reflector coverage analysis.

The pipeline mirrors a frequency-sweep channel-sounding campaign end to end:
image-method channel synthesis, system-response calibration, power-delay-
angular profiles with noise elimination, directional/omnidirectional path
loss, angle-dependent additional-reflection-loss fitting, and SNR-based
coverage ratios.
"""

from .calibrate import SystemResponse, apply_system, calibrate
from .coverage import (
    CoverageMap,
    LinkBudget,
    coverage_curve,
    coverage_ratio,
    default_thresholds,
    interpolate_path_loss,
    snr_db,
)
from .pathloss import CiModel, ci_path_loss, directional_path_loss, omni_path_loss
from .pdap import (
    DEFAULT_NOISE_THRESHOLD_DB,
    SENTINEL_DB,
    Pdap,
    eliminate_noise,
    export_pdap_csv,
    pdap_from_sweeps,
)
from .reflfit import (
    FitResult,
    ReflLossModel,
    ReflSample,
    additional_reflection_loss,
    eval_refl_model,
    fit_refl_model,
    generate_samples,
)
from .scene import (
    SPEED_OF_LIGHT,
    AntennaPattern,
    FrequencyPlan,
    FrequencySweep,
    LossTable,
    NirsPanel,
    Rectangle,
    ScanGrid,
    Scene,
    Wall,
    frequency_grid,
    load_scene,
    nirs_angle_set,
    rx_link_geometry,
    save_scene,
    specular_point,
)
from .synthchan import (
    PropagationPath,
    SweepBundle,
    enumerate_paths,
    phasor_transfer,
    read_bundle,
    read_sweep_csv,
    synthesize_sweep,
    write_bundle,
    write_sweep_csv,
)

__version__ = "0.1.0"
