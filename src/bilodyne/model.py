"""Field, local-oscillator and detector descriptions.

Conventions used throughout the package:

* A scene has one optical carrier.  Every mode, squeeze-pair member and
  LO tone is held as its angular offset from that carrier, rad/s, so a
  beat is the difference of two small numbers, exact wherever the
  offsets are: the config builds each from its Hz value with one
  multiplication by 2 pi, so tones at +-2 pi f_het beat at exactly
  2 pi f_het.  Only the Scene holds the carrier itself, to refuse a mode
  or tone at or below 0 Hz.  Measurement frequencies (resolution
  bandwidth, sample rate, spectra) are ordinary frequencies in Hz;
  conversion happens exactly once, at the boundary.
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
import numbers
from dataclasses import dataclass

from .errors import ConfigViolation, InvalidSpec, Unsupported

TWO_PI = 2.0 * math.pi

# Largest optical carrier and largest offset magnitude, rad/s: sums of a
# few stay far from overflow
MAX_FREQUENCY = 1e300
# Largest photon flux of a scene, in photons/s:
# ~2e11 W at 1 um, and far from float overflow in products of two fluxes
MAX_PHOTON_FLUX = 1e30
# Largest squeeze parameter: the pair's population sinh(r)^2 stays within
# MAX_PHOTON_FLUX (r ~ 35.2), far from the r ~ 177 where products of two
# populations overflow
MAX_SQUEEZE_R = math.asinh(math.sqrt(MAX_PHOTON_FLUX))
# Largest phase magnitude, rad: from 2^52 on, floats lie 1 rad apart
MAX_PHASE = 2.0**52
# Largest record (duration * sample rate, or a scan's count_windows of the
# counting run) and Welch segment or analytic grid (sample rate / rbw) a
# run may ask for, in samples.  The streamed Monte Carlo pass takes
# ~0.05 us per sample on a 2-vCPU VM at default.cfg's ~0.035
# photoemissions per sample and arm, 0.12-0.2 us at 100 times its LO
# flux, so MAX_RECORD_SAMPLES is one to three minutes of it.  A run with
# segments of MAX_SEGMENT_SAMPLES peaks at ~280 MiB of RSS (simulate
# shot-floor, 7 s record), most of it the Welch sum's segment-sized arrays.
MAX_RECORD_SAMPLES = 10**9
MAX_SEGMENT_SAMPLES = 1 << 22


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

    frequency: angular offset from the scene's carrier, rad/s, finite,
        |frequency| <= MAX_FREQUENCY.
    amplitude: coherent amplitude; |amplitude|^2 / 2 is the photon flux
        carried by the mode, at most MAX_PHOTON_FLUX.  Must be 0 for
        non-signal labels.
    """

    frequency: float
    amplitude: complex
    label: ModeLabel = ModeLabel.SIGNAL

    def __post_init__(self):
        if not abs(self.frequency) <= MAX_FREQUENCY:
            raise InvalidSpec(
                f"mode frequency must be finite, |offset| <= MAX_FREQUENCY, got {self.frequency!r}"
            )
        if not abs(self.amplitude) <= math.sqrt(2.0 * MAX_PHOTON_FLUX):
            raise InvalidSpec(
                f"mode amplitude must be finite, flux <= MAX_PHOTON_FLUX, got {self.amplitude!r}"
            )
        if self.label is not ModeLabel.SIGNAL and self.amplitude != 0:
            raise InvalidSpec(f"{self.label.value} modes are vacuum modes and must have amplitude 0")


@dataclass(frozen=True)
class SqueezePair:
    """Two-mode squeezing between modes at offsets freq_a and freq_b (rad/s).

    r is the squeeze parameter (>= 0), phi the squeeze angle.  The pair
    populates both modes with sinh(r)^2 photons and installs the
    anomalous moment e^{i phi} cosh(r) sinh(r) between them.
    """

    freq_a: float
    freq_b: float
    r: float
    phi: float = 0.0

    def __post_init__(self):
        freqs = (self.freq_a, self.freq_b)
        if not all(abs(f) <= MAX_FREQUENCY for f in freqs):
            raise InvalidSpec(
                f"pair frequencies must be finite, |offset| <= MAX_FREQUENCY, got {freqs!r}"
            )
        if not 0.0 <= self.r <= MAX_SQUEEZE_R:
            raise InvalidSpec(
                f"squeeze parameter must be in [0, {MAX_SQUEEZE_R:.6g}], where the pair's "
                f"population sinh(r)^2 is within MAX_PHOTON_FLUX = {MAX_PHOTON_FLUX:g}, "
                f"got {self.r!r}"
            )
        if not abs(self.phi) <= MAX_PHASE:
            raise InvalidSpec(f"squeeze angle must be finite, |phi| <= MAX_PHASE, got {self.phi!r}")


@dataclass(frozen=True)
class FieldState:
    """Input field: modes, their grouping hypothesis, squeeze pairs and signal phase.

    THREE_FIELDS treats separate fields as statistically independent,
    which is what distinguishes the two hypotheses in the detected
    spectrum.  theta_s is the fixed signal phase, or None for a uniform
    average over it.  Raises InvalidSpec, however the state is made
    (dataclasses.replace too), for no modes, duplicate mode frequencies,
    a frequency in more than one pair, pairs without exactly one signal
    mode, pairs whose mean frequency is not the signal mode's, and a
    non-finite theta_s.  Whether a pair's frequencies match declared
    modes is not checked here; that surfaces as UnknownMode when moments
    are built.
    """

    modes: tuple[FieldMode, ...]
    hypothesis: Hypothesis = Hypothesis.ONE_FIELD
    squeeze: tuple[SqueezePair, ...] = ()
    theta_s: float | None = 0.0

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))
        object.__setattr__(self, "squeeze", tuple(self.squeeze))
        if not self.modes:
            raise InvalidSpec("a field state needs at least one mode")
        duplicate = _first_repeat([m.frequency for m in self.modes])
        if duplicate is not None:
            raise InvalidSpec(f"duplicate mode frequency {duplicate!r}")
        if _first_repeat([f for p in self.squeeze for f in (p.freq_a, p.freq_b)]) is not None:
            raise InvalidSpec("a mode frequency may participate in at most one squeeze pair")
        if self.theta_s is not None and not abs(self.theta_s) <= MAX_PHASE:
            raise InvalidSpec(
                f"theta_s must be None or finite, |theta_s| <= MAX_PHASE, got {self.theta_s!r}"
            )
        if self.squeeze:
            signal = self.signal_modes()
            if len(signal) != 1:
                raise InvalidSpec(
                    "squeeze pairs need exactly one signal mode as the carrier reference"
                )
            for pair in self.squeeze:
                centre = 0.5 * (pair.freq_a + pair.freq_b)
                if centre != signal[0].frequency:
                    raise InvalidSpec(
                        "squeeze pair must be symmetric about the signal carrier: "
                        f"pair centre {centre!r} vs signal mode {signal[0].frequency!r}"
                    )

    def excited_modes(self) -> tuple[FieldMode, ...]:
        return tuple(m for m in self.modes if m.amplitude != 0)

    def signal_modes(self) -> tuple[FieldMode, ...]:
        return tuple(m for m in self.modes if m.label is ModeLabel.SIGNAL)

    def is_squeezed(self) -> bool:
        return any(p.r > 0 for p in self.squeeze)


@dataclass(frozen=True)
class LocalOscillator:
    """Strong classical local oscillator, mono- or bichromatic.

    amplitude is the total amplitude E_l: the monochromatic LO carries
    the full E_l on one tone at omega_1 with phase theta_1; giving
    omega_2 and theta_2 too makes it bichromatic, and it splits E_l as
    E_l/sqrt(2) per tone so both variants deliver the same photon flux
    E_l^2, at most MAX_PHOTON_FLUX.  The tones' frequencies are angular
    offsets from the scene's carrier, rad/s.
    """

    amplitude: float
    omega_1: float
    theta_1: float = 0.0
    omega_2: float | None = None
    theta_2: float | None = None

    def __post_init__(self):
        if not 0.0 < self.amplitude <= math.sqrt(MAX_PHOTON_FLUX):
            raise InvalidSpec(
                f"LO amplitude must be finite, > 0, flux <= MAX_PHOTON_FLUX, got {self.amplitude!r}"
            )
        if (self.omega_2 is None) != (self.theta_2 is None):
            raise InvalidSpec("bichromatic LO needs both omega_2 and theta_2")
        omegas = [w for w in (self.omega_1, self.omega_2) if w is not None]
        phases = [t for t in (self.theta_1, self.theta_2) if t is not None]
        if not all(abs(w) <= MAX_FREQUENCY for w in omegas):
            raise InvalidSpec(
                f"LO tone frequencies must be finite, |offset| <= MAX_FREQUENCY, got {omegas!r}"
            )
        if not all(abs(t) <= MAX_PHASE for t in phases):
            raise InvalidSpec(
                f"LO tone phases must be finite, |theta| <= MAX_PHASE, got {phases!r}"
            )
        if len(omegas) == 2 and not self.omega_1 > self.omega_2:
            raise InvalidSpec("bichromatic LO requires omega_1 > omega_2")

    @property
    def is_bichromatic(self) -> bool:
        return self.omega_2 is not None

    def tones(self) -> tuple[tuple[float, complex], ...]:
        """(angular offset, complex tone amplitude) for each tone."""
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


@dataclass(frozen=True)
class DetectorParams:
    """Balanced detector pair: quantum efficiency and current pulse; each emission carries e = 1.

    pulse_tau is the exponential pulse's decay time in seconds; 0 is
    an ideal delta pulse (instantaneous charge deposition).
    """

    eta: float
    pulse_tau: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.pulse_tau < math.inf:
            raise InvalidSpec(f"pulse decay time must be >= 0 and finite, got {self.pulse_tau!r}")
        if not (0.0 < self.eta <= 1.0):
            raise InvalidSpec(f"quantum efficiency must be in (0, 1], got {self.eta!r}")


@dataclass(frozen=True)
class MeasurementConfig:
    """Spectral-measurement parameters (ordinary frequencies, Hz).

    A record above MAX_RECORD_SAMPLES or a segment above
    MAX_SEGMENT_SAMPLES is refused (ConfigViolation) when the config is made.
    """

    duration: float
    rbw: float
    sample_rate: float

    def __post_init__(self):
        for name in ("duration", "rbw", "sample_rate"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise InvalidSpec(f"{name} must be positive and finite, got {value!r}")
        samples, segment = self.duration * self.sample_rate, self.sample_rate / self.rbw
        if not samples <= MAX_RECORD_SAMPLES:
            raise ConfigViolation(
                f"duration * sample rate = {samples:g} samples, "
                f"more than MAX_RECORD_SAMPLES = {MAX_RECORD_SAMPLES:g}"
            )
        if not segment <= MAX_SEGMENT_SAMPLES:
            raise ConfigViolation(
                f"sample rate / rbw = {segment:g} samples per segment, "
                f"more than MAX_SEGMENT_SAMPLES = {MAX_SEGMENT_SAMPLES}"
            )


@dataclass(frozen=True)
class Scene:
    """One detection experiment: input field, LO, detector and measurement.

    carrier is the optical carrier, rad/s, that the modes' and LO tones'
    offsets are taken from.  Raises InvalidSpec, however the scene is
    made, for a carrier outside (0, MAX_FREQUENCY] and for a mode or LO
    tone that it puts at or below 0 Hz.
    """

    state: FieldState
    lo: LocalOscillator
    det: DetectorParams
    meas: MeasurementConfig
    carrier: float

    def __post_init__(self):
        if not 0.0 < self.carrier <= MAX_FREQUENCY:
            raise InvalidSpec(
                f"optical carrier must be finite, in (0, MAX_FREQUENCY], got {self.carrier!r} rad/s"
            )
        offsets = [m.frequency for m in self.state.modes] + [w for w, _ in self.lo.tones()]
        lowest = min(offsets)
        if not self.carrier + lowest > 0.0:
            raise InvalidSpec(
                f"the carrier {self.carrier!r} rad/s puts a mode or LO tone offset by "
                f"{lowest!r} rad/s at or below 0 Hz"
            )


@dataclass(frozen=True)
class Scan:
    """Sensitivity scan: scenes[k] is the fixed-phase scene at powers_w[k].

    A scene's signal flux is powers_w[k] / photon_energy_j.  Input SNR
    counts detected signal photons in window_s, over count_windows
    windows; output SNR uses rbw = 1 / window_s.  Raises InvalidSpec,
    however the scan is made, unless photon_energy_j and window_s are
    positive and finite, count_windows is an integer in
    [1, MAX_RECORD_SAMPLES] and powers_w is non-empty, positive, finite
    and one per scene.
    """

    photon_energy_j: float
    window_s: float
    count_windows: int
    powers_w: tuple[float, ...]
    scenes: tuple[Scene, ...]

    def __post_init__(self):
        scales = (self.photon_energy_j, self.window_s, *self.powers_w)
        if not all(x > 0.0 and math.isfinite(x) for x in scales):
            raise InvalidSpec(f"scan energy, window and powers must be > 0 and finite: {scales!r}")
        windows = self.count_windows
        if not (isinstance(windows, numbers.Integral) and 1 <= windows <= MAX_RECORD_SAMPLES):
            raise InvalidSpec(
                f"count_windows must be an integer in [1, MAX_RECORD_SAMPLES = "
                f"{MAX_RECORD_SAMPLES:g}], got {windows!r}"
            )
        if not 0 < len(self.powers_w) == len(self.scenes):
            raise InvalidSpec("a scan needs one scene per power and at least one power")


def _cis(phi: float) -> complex:
    return complex(math.cos(phi), math.sin(phi))


def _first_repeat(freqs: list[float]) -> float | None:
    """The first frequency that a later one equals, else None."""
    for i, f in enumerate(freqs):
        if f in freqs[i + 1 :]:
            return f
    return None


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
    Raises InvalidSpec unless P and t are positive and finite, eta is in
    (0, 1] and the energy is positive and finite.
    """
    for name, value in (("optical power", optical_power_w), ("counting window", window_s)):
        if not (value > 0.0 and math.isfinite(value)):
            raise InvalidSpec(f"{name} must be positive and finite, got {value!r}")
    if not (0.0 < eta <= 1.0):
        raise InvalidSpec(f"quantum efficiency must be in (0, 1], got {eta!r}")
    try:
        energy = eta * optical_power_w * window_s / 10.0 ** (snr_in_db / 10.0)
    except (OverflowError, ZeroDivisionError):
        energy = math.nan
    if not (energy > 0.0 and math.isfinite(energy)):
        raise InvalidSpec(
            f"input SNR {snr_in_db!r} dB at {optical_power_w!r} W in {window_s!r} s "
            "gives no positive finite photon energy"
        )
    return energy


def validate_measurement(
    cfg: MeasurementConfig,
    lo: LocalOscillator,
    names=("Omega / 2 pi", "duration", "rbw", "sample rate"),
) -> None:
    """Check the RBW and sample-rate limits of a heterodyne run's record.

    The record must resolve the resolution bandwidth (rbw * duration >=
    1).  For a bichromatic LO the beat frequency Omega / 2 pi, read from
    lo.omega_het, must clear it (Omega / 2 pi >= 10 * rbw) and the sample
    rate must cover the beat (sample_rate >= 10 * Omega / 2 pi).  The
    errors name the settings of the beat frequency, duration, rbw and
    sample rate by names.
    """
    beat_name, duration_name, rbw_name, rate_name = names
    if cfg.rbw * cfg.duration < 1.0:
        raise ConfigViolation(
            f"{duration_name} = {cfg.duration:g} s cannot resolve {rbw_name} = {cfg.rbw:g} Hz "
            "(need rbw * T >= 1)"
        )
    if lo.is_bichromatic:
        f_het = lo.omega_het / TWO_PI
        beat = f"heterodyne frequency {beat_name} = {f_het:g} Hz"
        if f_het < 10.0 * cfg.rbw:
            raise ConfigViolation(f"{beat} must be >= 10x {rbw_name} = {cfg.rbw:g} Hz")
        if cfg.sample_rate < 10.0 * f_het:
            raise ConfigViolation(f"{rate_name} = {cfg.sample_rate:g} Hz must be >= 10x {beat}")
