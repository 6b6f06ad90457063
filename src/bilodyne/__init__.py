"""Quantum-noise modelling for balanced optical detection.

Closed-form photocurrent spectra, SNR and noise-figure accounting for
mono- and bichromatic local oscillators, cross-validated by a
stochastic photoemission Monte Carlo.
"""

__version__ = "0.1.0"

from .analytic import (
    SensitivityRow,
    Spectrum,
    noise_figure,
    output_signal_power,
    psd_analytic,
    pulse_transfer,
    sensitivity_table,
    shot_floor_psd,
    snr_in,
    snr_out,
)
from .correlators import (
    MomentTable,
    excess_lines,
    hypothesis_moments,
)
from .model import (
    DetectorParams,
    FieldMode,
    FieldState,
    Hypothesis,
    LocalOscillator,
    MeasurementConfig,
    ModeLabel,
    Scan,
    Scene,
    SqueezePair,
    calibrate_photon_energy,
    photon_flux,
    validate_measurement,
)
from .montecarlo import (
    BeatnoteEstimate,
    CheckResult,
    ExperimentReport,
    extract_beatnote,
    run_experiment,
)
