"""rofsim: simulator of a photonic self-interference-cancellation link for
in-band full-duplex radio-over-fiber systems.

A central office up-converts an IF signal onto an optical carrier with a
dual-polarization SSB modulator, a remote unit re-modulates the received RF
onto the spare polarization rail, and balanced detection at the central
office subtracts an attenuated, delayed reference copy to cancel the
self-interference while preserving the uplink signal of interest.
"""

from .errors import (
    AliasError,
    AttenuatorInfeasible,
    AxisError,
    DelayRangeError,
    FilterSpecError,
    GridError,
    LockError,
    RailConflict,
    RangeError,
    ResolutionError,
    RofsimError,
    ScenarioError,
    SimulationError,
    TapError,
)
from .signal_core import (
    DEFAULT_GRID,
    QamSignalSpec,
    SampledWaveform,
    SpectralWaveform,
    SpectrumEstimate,
    TimeGrid,
    ToneSpec,
    band_power,
    demodulate_evm,
    fractional_delay,
    filter_band,
    make_qam,
    make_tone,
    phase_shift,
    welch_psd,
)
from .optics import (
    FiberParams,
    ModulatorParams,
    OpticalField,
    dd_mzm_ssb,
    dp_bpsk_modulate,
    fiber_propagate,
    fiber_transfer,
    pbc,
    pbs,
    photodetect,
    polarizer,
    split_branch,
)
from .link import (
    LinkMetrics,
    LinkResult,
    LinkScenario,
    SelfInterferencePath,
    SicSettings,
    build_soi_waveform,
    downlink_taps,
    make_received_signal,
    run_downlink,
    run_full,
)
from .tuner import (
    PHASE_CONSTANT,
    TuneReport,
    analytic_alpha,
    analytic_tau2,
    auto_tune,
    refine,
    seed_settings,
)
from .scenario import (
    bundled_scenario_dir,
    bundled_scenarios,
    load_scenario,
    save_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "PHASE_CONSTANT",
    "DEFAULT_GRID",
    # errors
    "RofsimError",
    "GridError",
    "AliasError",
    "ResolutionError",
    "RangeError",
    "FilterSpecError",
    "LockError",
    "RailConflict",
    "DelayRangeError",
    "AttenuatorInfeasible",
    "SimulationError",
    "ScenarioError",
    "AxisError",
    "TapError",
    # signal core
    "TimeGrid",
    "SampledWaveform",
    "SpectralWaveform",
    "ToneSpec",
    "QamSignalSpec",
    "SpectrumEstimate",
    "make_tone",
    "make_qam",
    "welch_psd",
    "band_power",
    "filter_band",
    "demodulate_evm",
    "fractional_delay",
    "phase_shift",
    # optics
    "OpticalField",
    "ModulatorParams",
    "FiberParams",
    "dd_mzm_ssb",
    "split_branch",
    "dp_bpsk_modulate",
    "polarizer",
    "pbs",
    "pbc",
    "fiber_propagate",
    "fiber_transfer",
    "photodetect",
    # link
    "LinkScenario",
    "SelfInterferencePath",
    "LinkMetrics",
    "LinkResult",
    "downlink_taps",
    "run_downlink",
    "build_soi_waveform",
    "make_received_signal",
    "run_full",
    # tuner
    "SicSettings",
    "TuneReport",
    "analytic_alpha",
    "analytic_tau2",
    "seed_settings",
    "refine",
    "auto_tune",
    # scenario io
    "load_scenario",
    "save_scenario",
    "bundled_scenario_dir",
    "bundled_scenarios",
]
