"""Run configuration: strict flat key-value files and object assembly.

Format: one `key = value` pair per line, `#` starts a comment, blank
lines ignored.  Keys are dotted and flat (no sections).  Unknown keys
are rejected rather than ignored, so typos fail loudly.  All
frequencies in config files are ordinary frequencies in Hz; angular
frequencies exist only inside the model layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigViolation, ParseError, UnknownKey
from .model import (
    MAX_PHOTON_FLUX,
    MAX_SQUEEZE_R,
    TWO_PI,
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
)


# Largest record (duration * sample rate, or scan.count_windows of the
# counting run) and Welch segment or analytic grid (sample rate / rbw) a
# config may ask for, in samples.  The
# streamed Monte Carlo pass takes ~0.05 us per sample on a 2-vCPU VM at
# default.cfg's ~0.035 photoemissions per sample and arm, 0.12-0.2 us at 100
# times its LO flux, so MAX_RECORD_SAMPLES is one to three minutes of it.
# A run with segments of MAX_SEGMENT_SAMPLES peaks at ~280 MiB of RSS
# (simulate shot-floor, 7 s record), most of it the Welch sum's
# segment-sized arrays.
MAX_RECORD_SAMPLES = 10**9
MAX_SEGMENT_SAMPLES = 1 << 22


def _parse_bool(text: str) -> bool:
    low = text.lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(v.strip()) for v in text.split(",") if v.strip())


# key -> (converter, default).  None default means "must be set if used".
SCHEMA: dict = {
    "field.signal_flux": (float, 1.0e3),
    "field.carrier_hz": (float, 2.82e14),
    "field.theta_s": (float, 0.0),
    "field.phase_averaged": (_parse_bool, False),
    "field.hypothesis": (str, "one-field"),
    "squeeze.enabled": (_parse_bool, False),
    "squeeze.r": (float, 0.5),
    "squeeze.phi": (float, 0.0),
    "squeeze.offset_hz": (float, 2.0e5),
    "squeeze.placement": (str, "image"),
    "lo.kind": (str, "bichromatic"),
    "lo.flux": (float, 1.0e6),
    "lo.f_het_hz": (float, 1.0e5),
    "lo.theta_1": (float, 0.0),
    "lo.theta_2": (float, 0.0),
    "detector.eta": (float, 0.7),
    "detector.pulse": (str, "delta"),
    "detector.pulse_tau_s": (float, 0.0),
    "measurement.duration_s": (float, 2.0),
    "measurement.rbw_hz": (float, 1.0e3),
    "measurement.sample_rate_hz": (float, 1.0e7),
    "measurement.seed": (int, 20260815),
    "measurement.n_segments": (int, 16),
    "simulate.scenario": (str, "default"),
    "scan.powers_nw": (_parse_float_list, (0.5, 1.0, 2.0)),
    "scan.window_s": (float, 1.0e-3),
    "scan.anchor_snr_db": (float, 62.68),
    "scan.lo_ratio": (float, 100.0),
    "scan.f_het_hz": (float, 2.0e6),
    "scan.sample_rate_hz": (float, 4.0e7),
    "scan.rbw_hz": (float, 2.0e5),
    "scan.duration_s": (float, 1.7e-4),
    "scan.count_windows": (int, 4),
    "output.write_trace": (_parse_bool, False),
}

_CHOICES = {
    "field.hypothesis": ("one-field", "three-fields"),
    "squeeze.placement": ("image", "sideband"),
    "lo.kind": ("mono", "bichromatic"),
    "detector.pulse": ("delta", "exponential"),
    "simulate.scenario": ("default", "shot-floor", "beatnote", "null-phase", "sensitivity"),
}


def parse_config(path: Path | str) -> dict:
    """Read a config file into a fully-defaulted, validated value map."""
    values = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in SCHEMA:
            raise UnknownKey(f"{path}:{lineno}: unknown key {key!r}")
        if not value:
            raise ParseError(f"{path}:{lineno}: empty value for {key!r}")
        converter, _ = SCHEMA[key]
        try:
            values[key] = converter(value)
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from None
    return _with_defaults(values, path)


def _with_defaults(settings: dict, where: Path | str) -> dict:
    """The SCHEMA defaults overridden by settings, with the choices checked."""
    values = {key: default for key, (_, default) in SCHEMA.items()}
    values.update(settings)
    for key, choices in _CHOICES.items():
        if values[key] not in choices:
            raise ParseError(f"{where}: {key} must be one of {choices}, got {values[key]!r}")
    if values["detector.pulse"] == "exponential" and values["detector.pulse_tau_s"] <= 0:
        raise ParseError(f"{where}: exponential pulse needs detector.pulse_tau_s > 0")
    return values


@dataclass(frozen=True)
class RunConfig:
    """A parsed config plus the command-line scenario selection.

    The build_* methods are the only place where config values become
    model objects: every scenario runs the scenes built here.
    """

    scenario: str
    values: dict

    def __post_init__(self):
        # measurement.seed, after any --seed: it seeds the Monte Carlo, not a scene
        seed = self.values["measurement.seed"]
        if seed < 0:
            raise ConfigViolation(f"measurement.seed must be a non-negative integer, got {seed}")

    @classmethod
    def load(cls, scenario: str, path: Path | str, seed_override: int | None = None) -> "RunConfig":
        values = parse_config(path)
        if seed_override is not None:
            values = dict(values, **{"measurement.seed": seed_override})
        return cls(scenario=scenario, values=values)

    @classmethod
    def defaults(cls, overrides: dict | None = None) -> "RunConfig":
        """The SCHEMA defaults with typed overrides, checked like a parsed file."""
        overrides = overrides or {}
        for key in overrides:
            if key not in SCHEMA:
                raise UnknownKey(f"unknown key {key!r}")
        return cls(scenario="simulate", values=_with_defaults(overrides, "overrides"))

    def _flux(self, key: str) -> float:
        flux = self.values[key]
        if not 0.0 <= flux <= MAX_PHOTON_FLUX:
            raise ConfigViolation(
                f"{key} must be in [0, MAX_PHOTON_FLUX = {MAX_PHOTON_FLUX:g}], got {flux!r}"
            )
        return flux

    def _finite(self, key: str) -> float:
        value = self.values[key]
        if not math.isfinite(value):
            raise ConfigViolation(f"{key} must be finite, got {value!r}")
        return value

    def _record_geometry(self, group: str) -> tuple[float, float, float]:
        """Duration, rbw and sample rate of the group.* keys, finite and within the bounds.

        The bounds are checked before any array exists; the signs are
        MeasurementConfig's to check.
        """
        duration, rbw, rate = (
            self._finite(f"{group}.{key}") for key in ("duration_s", "rbw_hz", "sample_rate_hz")
        )
        if min(duration, rbw, rate) > 0.0:
            samples, segment = duration * rate, rate / rbw
            if not samples <= MAX_RECORD_SAMPLES:
                raise ConfigViolation(
                    f"{group}.duration_s * {group}.sample_rate_hz = {samples:g} samples, "
                    f"more than MAX_RECORD_SAMPLES = {MAX_RECORD_SAMPLES:g}"
                )
            if not segment <= MAX_SEGMENT_SAMPLES:
                raise ConfigViolation(
                    f"{group}.sample_rate_hz / {group}.rbw_hz = {segment:g} samples per segment, "
                    f"more than MAX_SEGMENT_SAMPLES = {MAX_SEGMENT_SAMPLES}"
                )
        return duration, rbw, rate

    def build_state(self) -> FieldState:
        v = self.values
        omega_s = TWO_PI * v["field.carrier_hz"]
        alpha = math.sqrt(2.0 * self._flux("field.signal_flux"))
        modes = [FieldMode(frequency=omega_s, amplitude=alpha, label=ModeLabel.SIGNAL)]
        squeeze = ()
        if v["squeeze.enabled"]:
            d = TWO_PI * v["squeeze.offset_hz"]
            upper = ModeLabel.IMAGE1 if v["squeeze.placement"] == "image" else ModeLabel.SIDEBAND
            lower = ModeLabel.IMAGE2 if v["squeeze.placement"] == "image" else ModeLabel.SIDEBAND
            modes.append(FieldMode(frequency=omega_s + d, amplitude=0.0, label=upper))
            modes.append(FieldMode(frequency=omega_s - d, amplitude=0.0, label=lower))
            r = v["squeeze.r"]
            if not 0.0 <= r <= MAX_SQUEEZE_R:
                raise ConfigViolation(
                    f"squeeze.r must be in [0, {MAX_SQUEEZE_R:.6g}], where the squeeze "
                    "parameter's fluctuation flux sinh(r)^2 is within MAX_PHOTON_FLUX = "
                    f"{MAX_PHOTON_FLUX:g}, got {r!r}"
                )
            squeeze = (SqueezePair(omega_s + d, omega_s - d, r, self._finite("squeeze.phi")),)
        return FieldState(
            modes,
            hypothesis=Hypothesis(v["field.hypothesis"]),
            squeeze=squeeze,
            theta_s=None if v["field.phase_averaged"] else self._finite("field.theta_s"),
        )

    def build_lo(self) -> LocalOscillator:
        v = self.values
        omega_s = TWO_PI * v["field.carrier_hz"]
        amplitude = math.sqrt(self._flux("lo.flux"))
        theta_1 = self._finite("lo.theta_1")
        if v["lo.kind"] == "mono":
            return LocalOscillator.mono(amplitude, omega_s, theta_1)
        d = TWO_PI * v["lo.f_het_hz"]
        return LocalOscillator.bichromatic(
            amplitude=amplitude,
            omega_1=omega_s + d,
            theta_1=theta_1,
            omega_2=omega_s - d,
            theta_2=self._finite("lo.theta_2"),
        )

    def build_detector(self) -> DetectorParams:
        v = self.values
        tau = None if v["detector.pulse"] == "delta" else v["detector.pulse_tau_s"]
        return DetectorParams(eta=v["detector.eta"], pulse_tau=tau)

    def build_measurement(self) -> MeasurementConfig:
        duration, rbw, rate = self._record_geometry("measurement")
        return MeasurementConfig(
            duration=duration,
            rbw=rbw,
            sample_rate=rate,
            n_segments=self.values["measurement.n_segments"],
        )

    def build_scene(self) -> Scene:
        return Scene(
            state=self.build_state(),
            lo=self.build_lo(),
            det=self.build_detector(),
            meas=self.build_measurement(),
            f_het_hz=self.values["lo.f_het_hz"],
        )

    def build_scan(self) -> Scan:
        """The sensitivity scan: one scene per power in scan.powers_nw.

        The photon energy is calibrated so that counting the detected
        photons of the first power in scan.window_s gives
        scan.anchor_snr_db of input SNR.  Each scene is this config's
        scene with a coherent signal of that power at the LO mean phase,
        a bichromatic LO of scan.lo_ratio times its flux at
        scan.f_het_hz, and the scan.* record geometry; the carrier, the
        LO tone phases and the detector stay.
        """
        v = self.values
        powers = tuple(p * 1e-9 for p in v["scan.powers_nw"])
        if not powers or not all(p > 0.0 and math.isfinite(p) for p in powers):
            raise ParseError(
                f"scan.powers_nw must list positive finite powers, got {v['scan.powers_nw']!r}"
            )
        if not 1 <= v["scan.count_windows"] <= MAX_RECORD_SAMPLES:
            raise ConfigViolation(
                f"scan.count_windows must be in [1, MAX_RECORD_SAMPLES = {MAX_RECORD_SAMPLES:g}], "
                f"got {v['scan.count_windows']}"
            )
        window, snr_db = self._finite("scan.window_s"), self._finite("scan.anchor_snr_db")
        e_ph = calibrate_photon_energy(powers[0], window, v["detector.eta"], snr_db)
        duration, rbw, rate = self._record_geometry("scan")
        geometry = {
            "field.phase_averaged": False,
            "field.theta_s": 0.5 * (v["lo.theta_1"] + v["lo.theta_2"]),
            "squeeze.enabled": False,
            "lo.kind": "bichromatic",
            "lo.f_het_hz": v["scan.f_het_hz"],
            "measurement.duration_s": duration,
            "measurement.rbw_hz": rbw,
            "measurement.sample_rate_hz": rate,
        }
        ratio = self._finite("scan.lo_ratio")
        if ratio < 0.0:
            raise ConfigViolation(f"scan.lo_ratio must be >= 0, got {ratio!r}")
        scenes = []
        for power in powers:
            flux = power / e_ph
            values = {**v, **geometry, "field.signal_flux": flux, "lo.flux": ratio * flux}
            try:
                scenes.append(RunConfig(self.scenario, values).build_scene())
            except ConfigViolation as exc:
                raise ConfigViolation(f"scan.powers_nw = {power * 1e9:g} nW: {exc}") from exc
        return Scan(
            photon_energy_j=e_ph,
            window_s=window,
            count_windows=v["scan.count_windows"],
            powers_w=powers,
            scenes=tuple(scenes),
        )
