"""Field, local-oscillator and detector descriptions.

Conventions used throughout the package:

* Optical frequencies (modes, LO tones) are angular, rad/s.  Measurement
  frequencies (resolution bandwidth, sample rate, spectra) are ordinary
  frequencies in Hz; conversion happens exactly once, at the boundary.
* Photon units: the electron charge e = 1 and the load resistance 1 are
  fixed units, so |amplitude|^2 of an LO tone is a photon flux
  (photons/s), |alpha|^2 / 2 is the signal photon flux and a current is
  photoemissions per second.
  Physical scales are recovered through :func:`calibrate_photon_energy`.
* A mode with amplitude exactly 0 is a vacuum (or squeezed-vacuum) mode.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from .errors import ConfigViolation, InvalidSpec, Unsupported

TWO_PI = 2.0 * math.pi

# Relative tolerance used when two optical frequencies must coincide.
# Float error at optical scale (~1e15 rad/s) is ~0.2 rad/s; beat
# separations are >= 1e4 rad/s.  1e-13 relative (~1e2 rad/s absolute)
# sits safely between the two.
FREQ_RTOL = 1e-13
# Largest photon flux of a scene, in photons/s:
# ~2e11 W at 1 um, and far from float overflow in products of two fluxes
MAX_PHOTON_FLUX = 1e30
# Largest squeeze parameter: the pair's population sinh(r)^2 stays within
# MAX_PHOTON_FLUX (r ~ 35.2), far from the r ~ 177 where products of two
# populations overflow
MAX_SQUEEZE_R = math.asinh(math.sqrt(MAX_PHOTON_FLUX))


class ModeLabel(str, enum.Enum):
    """Role of a mode in the detection geometry.

    ``SIGNAL`` is the excited carrier; ``IMAGE1``/``IMAGE2`` are the
    image-band vacua that a bichromatic LO couples in; ``SIDEBAND``
    marks a member of a symmetric sideband pair inside the signal band.
    """

    SIGNAL = "signal"
    IMAGE1 = "image1"
    IMAGE2 = "image2"
    SIDEBAND = "sideband"


class Hypothesis(str, enum.Enum):
    """How the mode set is grouped into independent detected fields.

    ``ONE_FIELD`` treats every mode as one broadband field.
    ``THREE_FIELDS`` treats the two image bands as fields separate from
    the signal band, which suppresses cross-band moment entries.
    """

    ONE_FIELD = "one-field"
    THREE_FIELDS = "three-fields"


@dataclass(frozen=True)
class FieldMode:
    """A single mode of the input field.

    frequency: angular frequency, rad/s (> 0).
    amplitude: coherent amplitude; |amplitude|^2 / 2 is the photon flux
        carried by the mode.  Must be 0 for non-signal labels.
    """

    frequency: float
    amplitude: complex
    label: ModeLabel = ModeLabel.SIGNAL

    def __post_init__(self):
        if not (self.frequency > 0.0 and math.isfinite(self.frequency)):
            raise InvalidSpec(f"mode frequency must be positive and finite, got {self.frequency!r}")
        if self.label is not ModeLabel.SIGNAL and self.amplitude != 0:
            raise InvalidSpec(f"{self.label.value} modes are vacuum modes and must have amplitude 0")


@dataclass(frozen=True)
class SqueezePair:
    """Two-mode squeezing between modes at freq_a and freq_b (rad/s).

    r is the squeeze parameter (>= 0), phi the squeeze angle.  The pair
    populates both modes with sinh(r)^2 photons and installs the
    anomalous moment e^{i phi} cosh(r) sinh(r) between them.
    """

    freq_a: float
    freq_b: float
    r: float
    phi: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.r <= MAX_SQUEEZE_R:
            raise InvalidSpec(
                f"squeeze parameter must be in [0, {MAX_SQUEEZE_R:.6g}], where the pair's "
                f"population sinh(r)^2 is within MAX_PHOTON_FLUX = {MAX_PHOTON_FLUX:g}, "
                f"got {self.r!r}"
            )


@dataclass(frozen=True)
class SqueezeSpec:
    """Collection of squeeze pairs; a frequency may appear in at most one."""

    pairs: tuple[SqueezePair, ...]

    def __post_init__(self):
        seen: list[float] = []
        for pair in self.pairs:
            for freq in (pair.freq_a, pair.freq_b):
                for other in seen:
                    if math.isclose(freq, other, rel_tol=FREQ_RTOL):
                        raise InvalidSpec(
                            "a mode frequency may participate in at most one squeeze pair"
                        )
                seen.append(freq)


@dataclass(frozen=True)
class PhaseMode:
    """Signal-phase convention: a fixed theta_s or a uniform average over it."""

    averaged: bool
    theta_s: float = 0.0

    @classmethod
    def fixed(cls, theta_s: float) -> "PhaseMode":
        return cls(averaged=False, theta_s=theta_s)

    @classmethod
    def averaged_phase(cls) -> "PhaseMode":
        return cls(averaged=True, theta_s=0.0)


@dataclass(frozen=True)
class FieldState:
    """Input field: modes, their grouping hypothesis, squeezing and phase.

    THREE_FIELDS treats separate fields as statistically independent,
    which is what distinguishes the two hypotheses in the detected
    spectrum.
    """

    modes: tuple[FieldMode, ...]
    hypothesis: Hypothesis = Hypothesis.ONE_FIELD
    squeeze: SqueezeSpec | None = None
    phase: PhaseMode = field(default_factory=lambda: PhaseMode.fixed(0.0))

    def excited_modes(self) -> tuple[FieldMode, ...]:
        return tuple(m for m in self.modes if m.amplitude != 0)

    def signal_modes(self) -> tuple[FieldMode, ...]:
        return tuple(m for m in self.modes if m.label is ModeLabel.SIGNAL)

    def is_squeezed(self) -> bool:
        return self.squeeze is not None and any(p.r > 0 for p in self.squeeze.pairs)


@dataclass(frozen=True)
class LocalOscillator:
    """Strong classical local oscillator, mono- or bichromatic.

    amplitude is the total amplitude E_l: the monochromatic LO carries
    the full E_l on one tone, the bichromatic LO splits it as E_l/sqrt(2)
    per tone so both variants deliver the same photon flux E_l^2.
    """

    amplitude: float
    omega_1: float
    theta_1: float = 0.0
    omega_2: float | None = None
    theta_2: float | None = None

    def __post_init__(self):
        if not (self.amplitude > 0.0 and math.isfinite(self.amplitude)):
            raise InvalidSpec(f"LO amplitude must be positive, got {self.amplitude!r}")
        if self.omega_1 <= 0.0:
            raise InvalidSpec("LO tone frequency must be positive")
        if (self.omega_2 is None) != (self.theta_2 is None):
            raise InvalidSpec("bichromatic LO needs both omega_2 and theta_2")
        if self.omega_2 is not None:
            if self.omega_2 <= 0.0:
                raise InvalidSpec("LO tone frequency must be positive")
            if not self.omega_1 > self.omega_2:
                raise InvalidSpec("bichromatic LO requires omega_1 > omega_2")

    @classmethod
    def mono(cls, amplitude: float, omega_l: float, theta_l: float = 0.0) -> "LocalOscillator":
        return cls(amplitude=amplitude, omega_1=omega_l, theta_1=theta_l)

    @classmethod
    def bichromatic(
        cls,
        amplitude: float,
        omega_1: float,
        theta_1: float,
        omega_2: float,
        theta_2: float,
    ) -> "LocalOscillator":
        return cls(
            amplitude=amplitude,
            omega_1=omega_1,
            theta_1=theta_1,
            omega_2=omega_2,
            theta_2=theta_2,
        )

    @property
    def is_bichromatic(self) -> bool:
        return self.omega_2 is not None

    def tones(self) -> tuple[tuple[float, complex], ...]:
        """(angular frequency, complex tone amplitude) for each tone."""
        if not self.is_bichromatic:
            return ((self.omega_1, self.amplitude * _cis(self.theta_1)),)
        per_tone = self.amplitude / math.sqrt(2.0)
        return (
            (self.omega_1, per_tone * _cis(self.theta_1)),
            (self.omega_2, per_tone * _cis(self.theta_2)),
        )

    @property
    def theta_bar(self) -> float:
        """Mean tone phase (theta_1 + theta_2) / 2 of a bichromatic LO."""
        if not self.is_bichromatic:
            raise Unsupported("theta_bar is defined only for a bichromatic LO")
        return 0.5 * (self.theta_1 + self.theta_2)

    @property
    def omega_het(self) -> float:
        """Half the tone spacing; the beat frequency against a centred carrier."""
        if not self.is_bichromatic:
            raise Unsupported("omega_het is defined only for a bichromatic LO")
        return 0.5 * (self.omega_1 - self.omega_2)

    def carrier(self) -> float:
        """Centre frequency of the LO (rad/s)."""
        if not self.is_bichromatic:
            return self.omega_1
        return 0.5 * (self.omega_1 + self.omega_2)


@dataclass(frozen=True)
class PulseShape:
    """Single-photoemission current pulse.

    tau is the exponential decay time in seconds; tau None means an
    ideal delta pulse (instantaneous charge deposition).
    """

    tau: float | None = None

    def __post_init__(self):
        if self.tau is not None and not (self.tau > 0.0 and math.isfinite(self.tau)):
            raise InvalidSpec(f"pulse decay time must be positive, got {self.tau!r}")

    @classmethod
    def delta(cls) -> "PulseShape":
        return cls(tau=None)

    @classmethod
    def exponential(cls, tau: float) -> "PulseShape":
        return cls(tau=tau)

    @property
    def is_delta(self) -> bool:
        return self.tau is None


@dataclass(frozen=True)
class DetectorParams:
    """Balanced detector pair: quantum efficiency and pulse; each emission carries e = 1."""

    eta: float
    pulse: PulseShape = field(default_factory=PulseShape.delta)

    def __post_init__(self):
        if not (0.0 < self.eta <= 1.0):
            raise InvalidSpec(f"quantum efficiency must be in (0, 1], got {self.eta!r}")


@dataclass(frozen=True)
class MeasurementConfig:
    """Spectral-measurement parameters (ordinary frequencies, Hz)."""

    duration: float
    rbw: float
    sample_rate: float
    n_segments: int = 16

    def __post_init__(self):
        if not (self.duration > 0.0 and math.isfinite(self.duration)):
            raise InvalidSpec("measurement duration must be positive and finite")
        if not (self.rbw > 0.0 and math.isfinite(self.rbw)):
            raise InvalidSpec("resolution bandwidth must be positive and finite")
        if not (self.sample_rate > 0.0 and math.isfinite(self.sample_rate)):
            raise InvalidSpec("sample rate must be positive and finite")
        if self.n_segments < 1:
            raise InvalidSpec("segment count must be >= 1")


@dataclass(frozen=True)
class Scene:
    """One detection experiment: input field, LO, detector and measurement.

    f_het_hz is the configured heterodyne frequency.  lo.omega_het / 2 pi
    recovers it only to ~1e-7 relative, because the tones sit at optical
    frequencies, and the line and floor masks on the Hz grid need it exact.
    """

    state: FieldState
    lo: LocalOscillator
    det: DetectorParams
    meas: MeasurementConfig
    f_het_hz: float


@dataclass(frozen=True)
class Scan:
    """Sensitivity scan: scenes[k] is the fixed-phase scene at powers_w[k].

    A scene's signal flux is powers_w[k] / photon_energy_j.  Input SNR
    counts detected signal photons in window_s, over count_windows
    windows; output SNR uses rbw = 1 / window_s.
    """

    photon_energy_j: float
    window_s: float
    count_windows: int
    powers_w: tuple[float, ...]
    scenes: tuple[Scene, ...]


def _cis(phi: float) -> complex:
    return complex(math.cos(phi), math.sin(phi))


def build_field_state(
    modes,
    hypothesis: Hypothesis = Hypothesis.ONE_FIELD,
    squeeze: SqueezeSpec | None = None,
    phase: PhaseMode | None = None,
) -> FieldState:
    """Validate a mode collection and assemble a FieldState.

    Raises InvalidSpec for duplicate mode frequencies, for squeeze pairs
    not symmetric about the signal carrier, and for a frequency that
    appears in more than one pair (checked by SqueezeSpec itself).
    Whether a pair's frequencies actually match declared modes is not
    checked here; that surfaces as UnknownMode when moments are built.
    """
    mode_tuple = tuple(modes)
    if not mode_tuple:
        raise InvalidSpec("a field state needs at least one mode")
    freqs = [m.frequency for m in mode_tuple]
    for i, fi in enumerate(freqs):
        for fj in freqs[i + 1 :]:
            if math.isclose(fi, fj, rel_tol=FREQ_RTOL):
                raise InvalidSpec(f"duplicate mode frequency {fi!r}")
    if squeeze is not None and squeeze.pairs:
        signal = [m for m in mode_tuple if m.label is ModeLabel.SIGNAL]
        if len(signal) != 1:
            raise InvalidSpec("squeeze pairs need exactly one signal mode as the carrier reference")
        carrier = signal[0].frequency
        for pair in squeeze.pairs:
            centre = 0.5 * (pair.freq_a + pair.freq_b)
            if not math.isclose(centre, carrier, rel_tol=FREQ_RTOL):
                raise InvalidSpec(
                    "squeeze pair must be symmetric about the signal carrier: "
                    f"pair centre {centre!r} vs carrier {carrier!r}"
                )
    return FieldState(
        modes=mode_tuple,
        hypothesis=hypothesis,
        squeeze=squeeze,
        phase=phase if phase is not None else PhaseMode.fixed(0.0),
    )


def photon_flux(state: FieldState) -> float:
    """Total coherent photon flux sum |alpha_k|^2 / 2 (photons/s).

    Defined for coherent states only; squeezed populations carry flux
    that this closed form does not include, so those states are refused.
    """
    if state.is_squeezed():
        raise Unsupported("photon_flux is defined for coherent (unsqueezed) states only")
    return sum(abs(m.amplitude) ** 2 for m in state.modes) / 2.0


def calibrate_photon_energy(
    optical_power_w: float,
    window_s: float,
    eta: float,
    snr_in_db: float,
) -> float:
    """Photon energy (J) that maps an optical power to a stated input SNR.

    The input SNR equals the mean detected photon number eta * P * t / E_ph
    in a counting window t, so E_ph = eta * P * t / 10^(SNR_dB / 10).
    """
    if optical_power_w <= 0.0 or window_s <= 0.0:
        raise InvalidSpec("optical power and window must be positive")
    if not (0.0 < eta <= 1.0):
        raise InvalidSpec("quantum efficiency must be in (0, 1]")
    try:
        energy = eta * optical_power_w * window_s / 10.0 ** (snr_in_db / 10.0)
    except (OverflowError, ZeroDivisionError):
        energy = math.nan
    if not (energy > 0.0 and math.isfinite(energy)):
        raise InvalidSpec(f"input SNR {snr_in_db!r} dB gives no positive finite photon energy")
    return energy


def validate_measurement(cfg: MeasurementConfig, lo: LocalOscillator) -> None:
    """Check RBW and sample-rate constraints for a heterodyne run.

    For a bichromatic LO the beat frequency must clear the resolution
    bandwidth (Omega / 2 pi >= 10 * rbw) and the sample rate must cover
    it (sample_rate >= 10 * Omega / 2 pi).  Mono LO runs only need the
    record to support the requested RBW.  The tones carry Omega only to
    about one ulp of an optical frequency, so a beat within that of a
    limit is taken to meet it.
    """
    if cfg.rbw * cfg.duration < 1.0:
        raise ConfigViolation(
            f"duration {cfg.duration} s cannot resolve rbw {cfg.rbw} Hz (need rbw * T >= 1)"
        )
    if lo.is_bichromatic:
        f_het = lo.omega_het / TWO_PI
        f_tol = math.ulp(lo.omega_1) / TWO_PI
        if f_het + f_tol < 10.0 * cfg.rbw:
            raise ConfigViolation(
                f"heterodyne frequency {f_het:g} Hz must be >= 10x rbw ({cfg.rbw:g} Hz)"
            )
        if cfg.sample_rate < 10.0 * (f_het - f_tol):
            raise ConfigViolation(
                f"sample rate {cfg.sample_rate:g} Hz must be >= 10x heterodyne frequency ({f_het:g} Hz)"
            )
