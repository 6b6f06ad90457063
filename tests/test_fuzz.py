"""Property tests of the command line and of the library's exported calls.

Whatever the values of one- and two-key overrides of the shipped
configs, a run ends in exit 0 or 2, or in exit 1 with an `error:` line
on stderr; never in a traceback.  Monte Carlo records are kept to about
10^5 samples so that the examples stay fast; a geometry above the
record or segment bound must be refused before any array exists.
Whatever bad scalar a library call is given, it raises a BilodyneError
or returns a documented value, without a warning; a value of the wrong
type is refused (InvalidSpec) where it is made.
"""

from __future__ import annotations

import contextlib
import dataclasses
import inspect
import io
import itertools
import math
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from bilodyne import (
    DetectorParams,
    FieldMode,
    FieldState,
    LocalOscillator,
    MeasurementConfig,
    ModeLabel,
    Scan,
    Scene,
    Spectrum,
    SqueezePair,
    calibrate_photon_energy,
    excess_lines,
    hypothesis_moments,
    noise_figure,
    output_signal_power,
    photon_flux,
    psd_analytic,
    pulse_transfer,
    run_experiment,
    sensitivity_table,
    shot_floor_psd,
    snr_in,
    snr_out,
    validate_measurement,
)
from bilodyne.cli import main
from bilodyne.config import _CHOICES, SCHEMA, RunConfig, parse_config
from bilodyne.errors import BilodyneError, InvalidSpec
from bilodyne.model import MAX_RECORD_SAMPLES, MAX_SEGMENT_SAMPLES
from tests.conftest import (
    CARRIER,
    OMEGA_HET,
    OMEGA_S,
    coherent_state,
    standard_lo,
    standard_measurement,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SHIPPED = ("default.cfg", "sensitivity.cfg", "squeezed.cfg")

# A simulate run starts from a 10^5-sample record (0.01 s at 10 MHz, 2 kHz
# rbw, 39 Welch segments); overrides may change it.
SMALL_RECORD = "\nmeasurement.duration_s = 0.01\nmeasurement.rbw_hz = 2e3\n"
# The Monte Carlo work a simulate example may ask for, in samples or
# counting windows, unless it is above the bound and so refused
SIMULATE_WORK = 2 * 10**5

NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(
        ["0", "-0", "1", "-1", "0.5", "2", "8", "1e-12", "1e-3", "1e3", "1e6", "1e9", "1e12",
         "1e300", "-1e300", "nan", "inf", "-inf"]
    ),
    st.integers(-(10**20), 10**20).map(str),
)
WORDS = st.sampled_from(
    sorted({c for choices in _CHOICES.values() for c in choices} | {"true", "false", "yes", "off"})
)
ANY_VALUE = st.one_of(
    NUMBERS,
    WORDS,
    st.lists(NUMBERS, max_size=4).map(", ".join),
    st.text(st.characters(codec="ascii", exclude_categories=("Cc",)), max_size=12),
)


def _values(key: str):
    """Values of the key's own type, near its default or far from it, or any value at all."""
    converter, default = SCHEMA[key]
    if key in _CHOICES:
        typed = st.sampled_from(_CHOICES[key])
    elif converter is int:
        typed = st.one_of(st.integers(-2, 40), st.integers(default // 1000 - 1, default * 1000))
        typed = typed.map(str)
    elif converter is float:
        typed = st.one_of(
            st.floats(0.0, 5.0).map(lambda x: repr(default * x) if default else repr(x)),
            NUMBERS,
        )
    elif key == "scan.powers_nw":
        typed = st.lists(st.floats(1e-3, 1e3).map(repr), min_size=1, max_size=4).map(", ".join)
    else:
        typed = WORDS
    return st.one_of(typed, ANY_VALUE)


OVERRIDES = st.lists(st.sampled_from(sorted(SCHEMA)), min_size=1, max_size=2, unique=True).flatmap(
    lambda keys: st.fixed_dictionaries({key: _values(key) for key in keys})
)
RUNS = st.sampled_from(
    [(scenario, name) for scenario in ("analytic", "table1", "squeezed-compare", "simulate")
     for name in SHIPPED]
)


def _config_text(scenario: str, name: str, overrides: dict) -> str:
    text = (CONFIGS / name).read_text()
    if scenario == "simulate":
        text += SMALL_RECORD
    return text + "".join(f"\n{key} = {value}" for key, value in overrides.items()) + "\n"


def _simulate_work(path: Path) -> float:
    """Samples of the record a simulate config asks for (and its counting windows), 0 if refused."""
    try:
        v = parse_config(path)
    except BilodyneError:
        return 0.0
    if v["simulate.scenario"] == "sensitivity":
        work = v["scan.duration_s"] * v["scan.sample_rate_hz"], float(v["scan.count_windows"])
    else:
        work = (v["measurement.duration_s"] * v["measurement.sample_rate_hz"],)
    # a record above the bound must be refused, so it costs nothing
    return max((w for w in work if math.isfinite(w) and w <= MAX_RECORD_SAMPLES), default=0.0)


def _run(scenario: str, text: str) -> tuple[int, str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        path.write_text(text)
        if scenario == "simulate":
            assume(_simulate_work(path) <= SIMULATE_WORK)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([scenario, "--config", str(path), "--out", str(Path(tmp) / "out")])
    return code, err.getvalue()


@settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(run=RUNS, overrides=OVERRIDES)
def test_every_override_ends_in_an_exit_code(run, overrides):
    code, err = _run(run[0], _config_text(*run, overrides))
    assert code in (0, 1, 2)
    if code == 1:
        assert err.startswith("error: ")


# the group of record keys each run reads
GROUPS = {"analytic": "measurement", "squeezed-compare": "measurement", "table1": "scan"}


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(
    run=st.sampled_from(
        [("analytic", "default.cfg"), ("squeezed-compare", "squeezed.cfg"),
         ("table1", "sensitivity.cfg"), ("simulate", "default.cfg"),
         ("simulate", "sensitivity.cfg")]
    ),
    segment=st.booleans(),
    excess=st.floats(1.0001, 1e200),
)
def test_oversized_geometry_is_refused_before_any_array(run, segment, excess):
    scenario, name = run
    group = GROUPS.get(scenario) or ("scan" if name == "sensitivity.cfg" else "measurement")
    rate = 1e7
    if segment:  # rate / rbw above MAX_SEGMENT_SAMPLES in a short record
        key, value = f"{group}.rbw_hz", rate / (MAX_SEGMENT_SAMPLES * excess)
    else:  # duration * rate above MAX_RECORD_SAMPLES
        key, value = f"{group}.duration_s", MAX_RECORD_SAMPLES * excess / rate
    overrides = {f"{group}.sample_rate_hz": repr(rate), key: repr(value)}
    text = _config_text(scenario, name, overrides)
    tracemalloc.start()
    try:
        code, err = _run(scenario, text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1
    assert err.startswith("error: ") and "MAX_" in err
    assert peak < 2**20


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(
    scenario=st.sampled_from(["analytic", "squeezed-compare"]),
    r=st.one_of(
        st.floats(0.0, 800.0),
        st.sampled_from([35.2, 35.3, 100.0, 177.0, 178.0, 200.0, 355.5, 355.6, 356.0, 711.0]),
    ),
)
def test_any_squeeze_ends_without_a_runtime_warning(scenario, r):
    # a squeeze that overflows the moment table must be refused, not
    # warned about on its way to another error
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, err = _run(scenario, _config_text(scenario, "squeezed.cfg", {"squeeze.r": repr(r)}))
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert code in (0, 1, 2)
    if code == 1:
        assert err.startswith("error: ")


# Library calls.  Bad scalars go into every constructor and closed form that
# bilodyne/__init__.py exports: NaN, +-inf, negative values, zero, 1e308
# and a float where an int belongs; each of BAD_VALUES into each argument
# on its own, and Hypothesis draws pairs of them and other negative values.
# Each call must raise a BilodyneError or return a documented value: a
# finite one, or the -inf dB SNR and NaN noise figure of zero signal.  The
# result containers (SensitivityRow, CheckResult, ExperimentReport),
# MomentTable's matrices and the enums hold no scalar to check.  Values of
# the wrong type go into the same arguments: see WRONG_TYPES.

BAD_VALUES = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, -1e308, 1e308, 2.5, 16.0]
BAD = st.one_of(st.sampled_from(BAD_VALUES), st.floats(max_value=-1e-300, allow_nan=False))

# the scene's scalars, each valid on its own: an exponential pulse and, when
# drawn, a squeezed pair at +-2 f_het and a mono LO (the first tone alone);
# every frequency but the carrier is an offset from it
SCENE = {
    "signal_frequency": OMEGA_S,
    "signal_amplitude": math.sqrt(2e3),
    "theta_s": 0.0,
    "squeeze_offset": 2.0 * OMEGA_HET,
    "r": 0.5,
    "phi": 0.0,
    "lo_amplitude": 1e3,
    "tone_1_offset": OMEGA_S + OMEGA_HET,
    "tone_1_phase": 0.0,
    "tone_2_offset": OMEGA_S - OMEGA_HET,
    "tone_2_phase": 0.0,
    "eta": 0.7,
    "pulse_tau": 1e-7,
    "duration": 2.0,
    "rbw": 1e3,
    "sample_rate": 1e7,
    "carrier": CARRIER,
}


def _documented(value) -> bool:
    """Only finite numbers, in whatever containers hold them."""
    if dataclasses.is_dataclass(value):
        value = [getattr(value, f.name) for f in dataclasses.fields(value)]
    if isinstance(value, (list, tuple)):
        return all(_documented(v) for v in value)
    return value is None or isinstance(value, str) or bool(np.all(np.isfinite(value)))


def _scene(p: dict, squeezed: bool, mono: bool) -> Scene:
    tones = ((p["tone_1_offset"], p["tone_1_phase"]), (p["tone_2_offset"], p["tone_2_phase"]))
    modes = [FieldMode(p["signal_frequency"], p["signal_amplitude"])]
    pairs = ()
    if squeezed:
        centre, offset = p["signal_frequency"], p["squeeze_offset"]
        # a value of the wrong type goes to the pair as it is
        numeric = all(isinstance(x, float) for x in (centre, offset))
        up, down = (centre + offset, centre - offset) if numeric else (offset, offset)
        modes += [FieldMode(up, 0.0, ModeLabel.IMAGE1), FieldMode(down, 0.0, ModeLabel.IMAGE2)]
        pairs = (SqueezePair(up, down, p["r"], p["phi"]),)
    return Scene(
        FieldState(modes, squeeze=pairs, theta_s=p["theta_s"]),
        LocalOscillator(p["lo_amplitude"], tones[:1] if mono else tones),
        DetectorParams(p["eta"], p["pulse_tau"]),
        MeasurementConfig(p["duration"], p["rbw"], p["sample_rate"]),
        p["carrier"],
    )


def _closed_forms(scene: Scene):
    """Each closed form of the scene, with the non-finite value it documents (None if none).

    No signal flux gives snr_in = snr_out = -inf and a NaN noise figure.
    A signal whose flux is not 0 but that has no beat at Omega (off the
    carrier, say) gives snr_out = -inf and a noise figure of +inf.
    """
    state, lo, det, meas = scene.state, scene.lo, scene.det, scene.meas
    silent = not state.is_squeezed() and photon_flux(state) == 0.0
    try:
        dark = output_signal_power(state, lo, det) == 0.0
    except BilodyneError:
        dark = False
    snr_in_doc = -math.inf if silent else None
    snr_out_doc = -math.inf if silent or dark else None
    nf = math.nan if silent else math.inf if dark else None
    return [
        (lambda: photon_flux(state), None),
        (lambda: hypothesis_moments(state), None),
        (lambda: excess_lines(state, lo), None),
        (lambda: pulse_transfer(det.pulse_tau, lo.omega_het), None),
        (lambda: shot_floor_psd(lo, det, lo.omega_het), None),
        (lambda: output_signal_power(state, lo, det), None),
        (lambda: snr_in(state, det, meas.rbw), snr_in_doc),
        (lambda: snr_out(state, lo, det, meas.rbw), snr_out_doc),
        (lambda: noise_figure(state, lo, det, meas.rbw), nf),
        (lambda: validate_measurement(meas, lo), None),
        (lambda: psd_analytic(state, lo, det, meas), None),
    ]


def _check(call, documented=None) -> None:
    """call() raises a BilodyneError, or returns finite numbers or documented, and never warns."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            value = call()
        except BilodyneError:
            return
    if documented is not None and not _documented(value):
        assert value == documented or (math.isnan(documented) and math.isnan(value))
    else:
        assert _documented(value), value


def _check_scene(bad: dict, squeezed: bool, mono: bool) -> None:
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scene = _scene({**SCENE, **bad}, squeezed, mono)
    except BilodyneError:
        return
    for call, documented in _closed_forms(scene):
        _check(call, documented)


def test_each_bad_scene_scalar_is_refused_or_documented():
    for key, x in itertools.product(SCENE, BAD_VALUES):
        for squeezed, mono in itertools.product((False, True), repeat=2):
            _check_scene({key: x}, squeezed, mono)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(
    bad=st.dictionaries(st.sampled_from(sorted(SCENE)), BAD, min_size=1, max_size=2),
    squeezed=st.booleans(),
    mono=st.booleans(),
)
def test_bad_scene_scalars_are_refused_or_documented(bad, squeezed, mono):
    _check_scene(bad, squeezed, mono)


SCAN = RunConfig.defaults().build_scan()
GRID = np.arange(100.0)
MONO_SCENE = dataclasses.replace(SCAN.scenes[0], lo=LocalOscillator(1e3, ((OMEGA_S, 0.0),)))
STATE, LO, DET = coherent_state(), standard_lo(), DetectorParams(0.7, 1e-7)
# each closed form and constructor's scalar arguments, one bad value at a time
SCALAR_CALLS = {
    "calibrate_photon_energy.optical_power_w": lambda x: calibrate_photon_energy(x, 1e-3, 0.7, 60.0),
    "calibrate_photon_energy.window_s": lambda x: calibrate_photon_energy(5e-10, x, 0.7, 60.0),
    "calibrate_photon_energy.eta": lambda x: calibrate_photon_energy(5e-10, 1e-3, x, 60.0),
    "calibrate_photon_energy.snr_in_db": lambda x: calibrate_photon_energy(5e-10, 1e-3, 0.7, x),
    "Scan.photon_energy_j": lambda x: dataclasses.replace(SCAN, photon_energy_j=x),
    "Scan.window_s": lambda x: dataclasses.replace(SCAN, window_s=x),
    "Scan.count_windows": lambda x: dataclasses.replace(SCAN, count_windows=x),
    "Scan.powers_w": lambda x: dataclasses.replace(SCAN, powers_w=(x,), scenes=SCAN.scenes[:1]),
    "sensitivity_table": lambda x: sensitivity_table(dataclasses.replace(SCAN, window_s=x)),
    "Spectrum.rbw_hz": lambda x: Spectrum(GRID, np.ones(100), x),
    "Spectrum.psd": lambda x: Spectrum(GRID, np.full(100, x), 1.0),
    "Spectrum.freqs_hz": lambda x: Spectrum(np.array([0.0, x]), np.ones(2), 1.0),
    "pulse_transfer.tau": lambda x: pulse_transfer(x, OMEGA_HET),
    "pulse_transfer.omega": lambda x: pulse_transfer(1e-7, np.array([0.0, x])),
    "shot_floor_psd": lambda x: shot_floor_psd(LO, DET, x),
    "snr_in": lambda x: snr_in(STATE, DET, x),
    "snr_out": lambda x: snr_out(STATE, LO, DET, x),
    "noise_figure": lambda x: noise_figure(STATE, LO, DET, x),
    "Scene.carrier": lambda x: dataclasses.replace(SCAN.scenes[0], carrier=x),
    # a mono-LO scene, which the Monte Carlo refuses, so a valid seed runs nothing
    "run_experiment.seed": lambda x: run_experiment("default", MONO_SCENE, seed=x),
}


def test_each_bad_scalar_argument_is_refused_or_documented():
    for call in SCALAR_CALLS.values():
        for x in BAD_VALUES:
            _check(lambda: call(x))


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(name=st.sampled_from(sorted(SCALAR_CALLS)), x=BAD)
def test_bad_scalar_arguments_are_refused_or_documented(name, x):
    _check(lambda: SCALAR_CALLS[name](x))


# Values of the wrong type, each into each scalar argument above on its own,
# and tones that are not (offset, phase) pairs: each ended in a TypeError or
# a ValueError, or a string was read as a number
WRONG_TYPES = [None, "1.0"]
NON_PAIRS = [OMEGA_HET, (OMEGA_HET,), (OMEGA_HET, 0.0, 0.0), "ab", None]
# The exported closed forms, each model-typed argument of which is filled
# with a value of the wrong type while the others stay valid: each such
# value, and each below in a model constructor, ended in an AttributeError
# or a TypeError
CLOSED_FORMS = (
    photon_flux, hypothesis_moments, excess_lines, shot_floor_psd, output_signal_power, snr_in,
    snr_out, noise_figure, psd_analytic, validate_measurement, sensitivity_table,
)
MODEL_ARGS = {"state": STATE, "lo": LO, "det": DET, "cfg": standard_measurement(), "scan": SCAN}


def _model_calls() -> dict:
    """name -> a call with x in that model-typed argument, every other argument valid."""
    scene = SCAN.scenes[0]
    calls = {
        "FieldState.modes": lambda x: FieldState(x),
        "FieldState.modes[0]": lambda x: FieldState([x]),
        "FieldState.squeeze": lambda x: FieldState(STATE.modes, squeeze=x),
        "FieldState.squeeze[0]": lambda x: FieldState(STATE.modes, squeeze=[x]),
        "Scan.scenes": lambda x: dataclasses.replace(SCAN, scenes=x, powers_w=(1e-9,)),
        "Scan.scenes[0]": lambda x: dataclasses.replace(SCAN, scenes=(x,), powers_w=(1e-9,)),
    }
    for part in ("state", "lo", "det", "meas"):
        calls[f"Scene.{part}"] = lambda x, part=part: dataclasses.replace(scene, **{part: x})
    valid = {"omega": OMEGA_HET, **MODEL_ARGS}
    for form in CLOSED_FORMS:
        params = [p for p in inspect.signature(form).parameters if p in valid]
        for name in set(params) & MODEL_ARGS.keys():
            calls[f"{form.__name__}.{name}"] = lambda x, form=form, name=name, params=params: (
                form(**{p: x if p == name else valid[p] for p in params})
            )
    return calls


MODEL_CALLS = _model_calls()


def test_each_wrong_type_is_refused_where_it_is_made():
    for key, x in itertools.product(SCENE, WRONG_TYPES):
        if key == "theta_s" and x is None:
            continue  # the phase-averaged signal
        # the squeezed, bichromatic scene reads every key
        with pytest.raises(InvalidSpec):
            _scene({**SCENE, key: x}, squeezed=True, mono=False)
    for name, x in itertools.product(SCALAR_CALLS, WRONG_TYPES):
        with pytest.raises(InvalidSpec):
            SCALAR_CALLS[name](x)
    for tone in NON_PAIRS:
        for tones in (tone, (tone, (OMEGA_S - OMEGA_HET, 0.0))):
            with pytest.raises(InvalidSpec):
                LocalOscillator(1e3, tones)
    for name, x in itertools.product(MODEL_CALLS, WRONG_TYPES):
        with pytest.raises(InvalidSpec, match=r"must be (a sequence of )?[A-Z]"):
            MODEL_CALLS[name](x)
