"""Closed-form photocurrent statistics for balanced detection.

PSD conventions: spectra are one-sided current power spectral densities
(current^2 per Hz) versus ordinary frequency in Hz.  With the unit load
resistance, "power" and "current squared" coincide.

SNR conventions: both input and output SNR count detected photons, so
the detector efficiency appears in both.  Input SNR is the mean photon
number eta * flux * t registered in a counting window t = 1 / rbw;
output SNR is the beat power over the shot power in one resolution
bandwidth.  The noise figure is their difference in dB by definition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import correlators
from .errors import ConfigViolation, InvalidSpec, Unsupported
from .model import (
    TWO_PI,
    DetectorParams,
    FieldState,
    LocalOscillator,
    MeasurementConfig,
    ModeLabel,
    Scan,
    photon_flux,
    validate_measurement,
)


@dataclass(frozen=True)
class Spectrum:
    """One-sided PSD samples on a strictly increasing frequency grid (Hz)."""

    freqs_hz: np.ndarray
    psd: np.ndarray
    rbw_hz: float

    def __post_init__(self):
        if self.freqs_hz.shape != self.psd.shape or self.freqs_hz.ndim != 1:
            raise InvalidSpec("frequency grid and PSD must be 1-d arrays of equal length")
        f = self.freqs_hz
        if not (np.all(np.isfinite(f)) and np.all(f[1:] > f[:-1])):
            raise InvalidSpec("frequency grid must be finite and strictly increasing")
        if not (self.rbw_hz > 0 and math.isfinite(self.rbw_hz)):
            raise InvalidSpec("resolution bandwidth must be positive and finite")
        if not np.all(np.isfinite(self.psd)):
            raise InvalidSpec("PSD contains non-finite values")
        if np.any(self.psd < 0):
            raise InvalidSpec("PSD must be non-negative everywhere")
        self.freqs_hz.setflags(write=False)
        self.psd.setflags(write=False)


def pulse_transfer(tau: float, omega):
    """Fourier transform K(w) of the single-emission current pulse of charge e = 1.

    An exponential pulse of decay tau gives 1 / (1 - i w tau), i.e.
    |K|^2 = 1 / (1 + w^2 tau^2), and 0 where w tau is beyond the float
    range; the delta pulse, tau = 0, gives exactly K = 1.  Raises
    InvalidSpec for a tau that is not >= 0 and finite or an omega that
    is not finite.
    """
    w = np.asarray(omega, dtype=float)
    if not np.all(np.isfinite(w)):
        raise InvalidSpec("pulse transfer frequencies must be finite")
    if not 0.0 <= tau < math.inf:
        raise InvalidSpec(f"pulse decay time must be >= 0 and finite, got {tau!r}")
    den = np.ones(w.shape, dtype=complex)
    with np.errstate(over="ignore"):
        den.imag = -w * tau
    out = 1.0 / den
    return out if out.shape else complex(out)


def shot_floor_psd(lo: LocalOscillator, det: DetectorParams, omega) -> np.ndarray | float:
    """One-sided shot-noise floor 2 eta |K(w)|^2 E_l^2 of the difference current.

    This is the strong-LO closed form: the total rate is the LO flux
    E_l^2 alone, identical for mono and bichromatic oscillators of the
    same total amplitude.
    """
    k = pulse_transfer(det.pulse_tau, omega)
    return 2.0 * det.eta * np.abs(k) ** 2 * lo.amplitude**2


def psd_analytic(
    state: FieldState,
    lo: LocalOscillator,
    det: DetectorParams,
    cfg: MeasurementConfig,
) -> Spectrum:
    """One-sided noise PSD of the difference current: shot floor plus excess-noise lines.

    The grid runs from 0 to sample_rate / 2 in steps of rbw.  The
    period-averaged excess noise of a squeezed input lives in discrete
    beat lines; each line of power P appears as P / rbw on the grid
    point nearest its frequency, the way a spectrum analyzer of that
    resolution bandwidth would display it.  The coherent heterodyne
    beat is not part of this spectrum: output_signal_power reports it.
    Raises ConfigViolation if a squeezed dip is deeper than the shot
    floor can absorb within one bin (the discrete-pair model is invalid
    at such a fine rbw), or if the record does not meet
    validate_measurement's limits, which it names generically.
    """
    validate_measurement(cfg, lo)
    n_bins = int(round(cfg.sample_rate / 2.0 / cfg.rbw))
    freqs_hz = cfg.rbw * np.arange(n_bins + 1)
    omega = TWO_PI * freqs_hz
    psd = np.asarray(shot_floor_psd(lo, det, omega), dtype=float).copy()
    lines = correlators.excess_lines(state, lo)
    k2 = np.abs(pulse_transfer(det.pulse_tau, np.array([w for w, _ in lines]))) ** 2
    for (w_line, power), k2_line in zip(lines, k2):
        f_line = w_line / TWO_PI
        if f_line > freqs_hz[-1] + cfg.rbw / 2.0 or power == 0.0:
            continue
        idx = int(np.argmin(np.abs(freqs_hz - f_line)))
        psd[idx] += det.eta**2 * k2_line * power / cfg.rbw
    if np.any(psd < 0):
        raise ConfigViolation(
            "squeezed dip exceeds the shot floor within one rbw bin; the "
            "discrete-pair model needs a coarser rbw at this squeezing"
        )
    return Spectrum(freqs_hz=freqs_hz, psd=psd, rbw_hz=cfg.rbw)


def _single_signal_amplitude(state: FieldState) -> float:
    excited = state.excited_modes()
    if not excited and state.signal_modes():
        return 0.0
    if len(excited) != 1 or excited[0].label is not ModeLabel.SIGNAL:
        raise Unsupported("beat power is defined for exactly one excited signal mode")
    return abs(excited[0].amplitude)


def output_signal_power(state: FieldState, lo: LocalOscillator, det: DetectorParams) -> float:
    """Mean power of the heterodyne beat in the difference current.

    With a fixed signal phase the beat amplitude is
    2 eta alpha E_l cos(theta_s - theta_bar), giving time-averaged
    power 2 (eta alpha E_l)^2 cos^2(theta_s - theta_bar); averaging
    uniformly over theta_s leaves (eta alpha E_l)^2.  A non-delta
    pulse filters the beat by |K(Omega)|^2.
    """
    if not lo.is_bichromatic:
        raise Unsupported("output_signal_power is defined for the bichromatic LO")
    alpha = _single_signal_amplitude(state)
    k_beat = pulse_transfer(det.pulse_tau, lo.omega_het)
    base = (det.eta * alpha * lo.amplitude) ** 2 * abs(k_beat) ** 2
    if state.theta_s is None:
        return base
    return 2.0 * base * math.cos(state.theta_s - lo.theta_bar) ** 2


def snr_out(
    state: FieldState,
    lo: LocalOscillator,
    det: DetectorParams,
    rbw_hz: float = 1.0,
) -> float:
    """Output SNR in dB: beat power over shot power in one rbw.

    The pulse transfer function cancels between numerator and floor, so
    the result is pulse-independent: eta alpha^2 / (2 rbw) for the
    phase-averaged convention.  Zero signal gives -inf dB; an rbw that
    is not positive and finite is refused, and so is a shot power or a
    ratio outside the float range.
    """
    if state.is_squeezed():
        raise Unsupported("snr_out closed form applies to coherent input only")
    if not 0.0 < rbw_hz < math.inf:
        raise InvalidSpec(f"rbw must be positive and finite, got {rbw_hz!r}")
    p_out = output_signal_power(state, lo, det)
    noise = float(shot_floor_psd(lo, det, lo.omega_het)) * rbw_hz
    if not 0.0 < noise < math.inf:
        raise InvalidSpec(f"shot power {noise!r} in rbw {rbw_hz!r} Hz is not positive and finite")
    ratio = p_out / noise
    if p_out > 0.0 and not 0.0 < ratio < math.inf:
        raise InvalidSpec(f"beat power {p_out!r} over shot power {noise!r} has no finite dB value")
    return 10.0 * math.log10(ratio) if ratio > 0 else -math.inf


def snr_in(state: FieldState, det: DetectorParams, rbw_hz: float = 1.0) -> float:
    """Input SNR in dB: mean detected photon number in a 1/rbw window.

    Shot-limited counting of the signal alone gives SNR = eta * flux * t
    with t = 1 / rbw.  Zero flux gives -inf dB; an rbw that is not
    positive and finite is refused, and so is a count outside the float
    range.
    """
    if not 0.0 < rbw_hz < math.inf:
        raise InvalidSpec(f"rbw must be positive and finite, got {rbw_hz!r}")
    flux = photon_flux(state)
    n_mean = det.eta * flux / rbw_hz
    if flux > 0.0 and not 0.0 < n_mean < math.inf:
        raise InvalidSpec(f"rbw {rbw_hz!r} Hz gives no positive finite photon count in 1 / rbw")
    return 10.0 * math.log10(n_mean) if n_mean > 0 else -math.inf


def noise_figure(
    state: FieldState,
    lo: LocalOscillator,
    det: DetectorParams,
    rbw_hz: float = 1.0,
) -> float:
    """Noise figure in dB, snr_in - snr_out: NaN for zero signal, where both are -inf."""
    return snr_in(state, det, rbw_hz) - snr_out(state, lo, det, rbw_hz)


@dataclass(frozen=True)
class SensitivityRow:
    """One optical power in the sensitivity table."""

    power_w: float
    photon_flux: float
    snr_in_db: float
    snr_out_db: float
    nf_db: float


def sensitivity_table(scan: Scan) -> list[SensitivityRow]:
    """Input/output SNR and noise figure at each power of the scan.

    Each row runs the full snr_in / snr_out chain on the phase-averaged
    form of that power's scan scene, with rbw = 1 / window.  The closed
    forms read no record geometry, so the scan's f_het against its rbw
    and sample rate is left unchecked here: a beat too slow for
    scan.rbw_hz, which the Monte Carlo scan refuses, still gives a
    table (and `table1` exit code 0).
    """
    rbw = 1.0 / scan.window_s
    rows = []
    for power, scene in zip(scan.powers_w, scan.scenes):
        state = replace(scene.state, theta_s=None)
        s_in = snr_in(state, scene.det, rbw)
        s_out = snr_out(state, scene.lo, scene.det, rbw)
        rows.append(
            SensitivityRow(
                power_w=power,
                photon_flux=power / scan.photon_energy_j,
                snr_in_db=s_in,
                snr_out_db=s_out,
                nf_db=s_in - s_out,
            )
        )
    return rows
