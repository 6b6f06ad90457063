"""Run configuration: strict flat key-value files and object assembly.

Format: one `key = value` pair per line, `#` starts a comment, blank
lines ignored.  Keys are dotted and flat (no sections).  Unknown keys
are rejected rather than ignored, so typos fail loudly.  All
frequencies in config files are ordinary frequencies in Hz; angular
frequencies exist only inside the model layer, where every mode and LO
tone is its offset from field.carrier_hz times 2 pi.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

from .errors import BilodyneError, ConfigViolation, ParseError, UnknownKey
from .model import (
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
    "detector.pulse_tau_s": (float, 0.0),
    "measurement.duration_s": (float, 2.0),
    "measurement.rbw_hz": (float, 1.0e3),
    "measurement.sample_rate_hz": (float, 1.0e7),
    "measurement.seed": (int, 20260815),
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

# The settings of a record's beat frequency, duration, rbw and sample rate,
# in the order validate_measurement names them: a scene's and a scan scene's
MEASUREMENT_KEYS = (
    "lo.f_het_hz",
    "measurement.duration_s",
    "measurement.rbw_hz",
    "measurement.sample_rate_hz",
)
SCAN_KEYS = ("scan.f_het_hz", "scan.duration_s", "scan.rbw_hz", "scan.sample_rate_hz")
# The settings that calibrate a scan's photon energy, and so its fluxes
_CALIBRATION_KEYS = ("scan.powers_nw", "scan.window_s", "detector.eta", "scan.anchor_snr_db")

_CHOICES = {
    "field.hypothesis": ("one-field", "three-fields"),
    "squeeze.placement": ("image", "sideband"),
    "lo.kind": ("mono", "bichromatic"),
    "simulate.scenario": ("default", "shot-floor", "null-phase", "sensitivity"),
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
    return values


@dataclass(frozen=True)
class RunConfig:
    """A parsed config: the SCHEMA defaults with the file's settings.

    The build_* methods are the only place where config values become
    model objects: every scenario runs the scenes built here.  The model
    types check every value; a builder re-raises an object's refusal as
    a ConfigViolation that names the keys the object was made from.
    """

    values: dict
    # the keys named for a value the builders read: the key itself, unless
    # the value was derived from others (see _ScanSceneConfig)
    _FED_BY: ClassVar[dict[str, tuple[str, ...]]] = {}

    def __post_init__(self):
        # measurement.seed, after any --seed: it seeds the Monte Carlo, not a scene
        seed = self.values["measurement.seed"]
        if not (isinstance(seed, numbers.Integral) and seed >= 0):
            raise ConfigViolation(f"measurement.seed must be a non-negative integer, got {seed!r}")

    @classmethod
    def load(cls, path: Path | str, seed_override: int | None = None) -> "RunConfig":
        values = parse_config(path)
        if seed_override is not None:
            values = dict(values, **{"measurement.seed": seed_override})
        return cls(values)

    @classmethod
    def defaults(cls, overrides: dict | None = None) -> "RunConfig":
        """The SCHEMA defaults with typed overrides, checked like a parsed file."""
        overrides = overrides or {}
        for key in overrides:
            if key not in SCHEMA:
                raise UnknownKey(f"unknown key {key!r}")
        return cls(_with_defaults(overrides, "overrides"))

    def _names(self, keys) -> str:
        """The config keys behind the values read under keys, each once."""
        return ", ".join(dict.fromkeys(n for key in keys for n in self._FED_BY.get(key, (key,))))

    def _make(self, keys, make, *args, **kwargs):
        """make(*args, **kwargs), its refusal re-raised as a ConfigViolation that names keys."""
        try:
            return make(*args, **kwargs)
        except BilodyneError as exc:
            raise ConfigViolation(f"{self._names(keys)}: {exc}") from exc

    def _flux(self, key: str) -> float:
        flux = self.values[key]
        if not flux >= 0.0:
            raise ConfigViolation(f"{self._names([key])}: photon flux must be >= 0, got {flux!r}")
        return flux

    def build_state(self) -> FieldState:
        """The field: the signal at the carrier, and a squeezed pair at +-squeeze.offset_hz."""
        v = self.values
        alpha = math.sqrt(2.0 * self._flux("field.signal_flux"))
        modes = [self._make(("field.signal_flux",), FieldMode, 0.0, alpha)]
        squeeze, state_keys = (), ("field.theta_s",)
        if v["squeeze.enabled"]:
            keys = ("squeeze.offset_hz",)
            d = TWO_PI * v["squeeze.offset_hz"]
            freqs = (d, -d)
            image = v["squeeze.placement"] == "image"
            labels = (ModeLabel.IMAGE1, ModeLabel.IMAGE2) if image else (ModeLabel.SIDEBAND,) * 2
            modes += [self._make(keys, FieldMode, f, 0.0, label) for f, label in zip(freqs, labels)]
            pair = (*freqs, v["squeeze.r"], v["squeeze.phi"])
            squeeze = (self._make((*keys, "squeeze.r", "squeeze.phi"), SqueezePair, *pair),)
            state_keys += ("squeeze.offset_hz",)
        return self._make(
            state_keys,
            FieldState,
            modes,
            hypothesis=Hypothesis(v["field.hypothesis"]),
            squeeze=squeeze,
            theta_s=None if v["field.phase_averaged"] else v["field.theta_s"],
        )

    def build_lo(self) -> LocalOscillator:
        """The LO: one tone at the carrier (mono), or two at +-lo.f_het_hz."""
        v = self.values
        amplitude = math.sqrt(self._flux("lo.flux"))
        if v["lo.kind"] == "mono":
            keys = ("lo.flux", "lo.theta_1")
            return self._make(keys, LocalOscillator, amplitude, 0.0, v["lo.theta_1"])
        d = TWO_PI * v["lo.f_het_hz"]
        keys = ("lo.flux", "lo.f_het_hz", "lo.theta_1", "lo.theta_2")
        tones = (d, v["lo.theta_1"], -d, v["lo.theta_2"])
        return self._make(keys, LocalOscillator, amplitude, *tones)

    def build_detector(self) -> DetectorParams:
        """The detector; its refusal names detector.pulse_tau_s unless the pulse is a delta (0 s)."""
        v = self.values
        tau = v["detector.pulse_tau_s"]
        keys = ("detector.eta",) if tau == 0.0 else ("detector.eta", "detector.pulse_tau_s")
        return self._make(keys, DetectorParams, v["detector.eta"], tau)

    def build_measurement(self) -> MeasurementConfig:
        keys = MEASUREMENT_KEYS[1:]
        return self._make(keys, MeasurementConfig, *(self.values[key] for key in keys))

    def build_scene(self) -> Scene:
        """The scene at field.carrier_hz; its refusal names the carrier and the offsets in use."""
        state, lo = self.build_state(), self.build_lo()
        keys = ["field.carrier_hz"]
        if lo.is_bichromatic:
            keys.append(MEASUREMENT_KEYS[0])
        if state.squeeze:
            keys.append("squeeze.offset_hz")
        carrier = TWO_PI * self.values["field.carrier_hz"]
        parts = state, lo, self.build_detector(), self.build_measurement()
        return self._make(keys, Scene, *parts, carrier)

    def build_scan(self) -> Scan:
        """The sensitivity scan: one scene per power in scan.powers_nw.

        The photon energy is calibrated so that counting the detected
        photons of the first power in scan.window_s gives
        scan.anchor_snr_db of input SNR.  Each scene is this config's
        scene with a coherent signal of that power at the LO mean phase,
        a bichromatic LO of scan.lo_ratio times its flux at
        scan.f_het_hz, and the scan.* record geometry; the carrier, the
        LO tone phases and the detector stay.  A scene's refusal names
        the power and the scan.* keys behind the value refused.
        """
        v = self.values
        powers = tuple(p * 1e-9 for p in v["scan.powers_nw"])
        if not powers:
            raise ParseError(
                f"scan.powers_nw must list positive finite powers, got {v['scan.powers_nw']!r}"
            )
        window = v["scan.window_s"]
        anchor = (powers[0], window, v["detector.eta"], v["scan.anchor_snr_db"])
        e_ph = self._make(_CALIBRATION_KEYS, calibrate_photon_energy, *anchor)
        geometry = {
            "field.phase_averaged": False,
            "field.theta_s": 0.5 * (v["lo.theta_1"] + v["lo.theta_2"]),
            "squeeze.enabled": False,
            "lo.kind": "bichromatic",
            **{key: v[scan_key] for key, scan_key in zip(MEASUREMENT_KEYS, SCAN_KEYS)},
        }
        scenes = []
        for power in powers:
            flux = power / e_ph
            fluxes = {"field.signal_flux": flux, "lo.flux": v["scan.lo_ratio"] * flux}
            values = {**v, **geometry, **fluxes}
            try:
                scenes.append(_ScanSceneConfig(values).build_scene())
            except ConfigViolation as exc:
                raise ConfigViolation(f"scan.powers_nw = {power * 1e9:g} nW: {exc}") from exc
        keys = ("scan.powers_nw", "scan.window_s", "scan.count_windows")
        return self._make(keys, Scan, e_ph, window, v["scan.count_windows"], powers, tuple(scenes))


class _ScanSceneConfig(RunConfig):
    """The config of one scan scene: build_scan's values, named by the keys they came from."""

    # a power's signal flux is the power over the calibrated photon energy;
    # the LO's is scan.lo_ratio times that flux, which its mode has checked;
    # the signal sits at the LO mean phase
    _FED_BY = {
        **{key: (scan_key,) for key, scan_key in zip(MEASUREMENT_KEYS, SCAN_KEYS)},
        "field.signal_flux": _CALIBRATION_KEYS,
        "lo.flux": ("scan.lo_ratio",),
        "field.theta_s": ("lo.theta_1", "lo.theta_2"),
    }
