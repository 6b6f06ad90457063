"""Validation and unit conventions of the scene description layer."""

from __future__ import annotations

import dataclasses
import math
import re

import pytest

from bilodyne.analytic import pulse_transfer
from bilodyne.errors import ConfigViolation, InvalidSpec, Unsupported
from bilodyne.model import (
    MAX_SQUEEZE_R,
    TWO_PI,
    DetectorParams,
    FieldMode,
    FieldState,
    Hypothesis,
    LocalOscillator,
    MeasurementConfig,
    ModeLabel,
    Scene,
    SqueezePair,
    calibrate_photon_energy,
    photon_flux,
    validate_measurement,
)
from tests.conftest import (
    CARRIER,
    OMEGA_HET,
    OMEGA_S,
    coherent_state,
    squeezed_state,
    standard_detector,
    standard_lo,
    standard_measurement,
)


class TestFieldMode:
    def test_frequency_is_an_offset_of_either_sign(self):
        for offset in (0.0, -1.0, OMEGA_HET):
            assert FieldMode(frequency=offset, amplitude=1.0).frequency == offset

    def test_rejects_excited_image_mode(self):
        with pytest.raises(InvalidSpec):
            FieldMode(frequency=OMEGA_S, amplitude=1.0, label=ModeLabel.IMAGE1)

    def test_vacuum_image_mode_allowed(self):
        mode = FieldMode(frequency=OMEGA_S, amplitude=0.0, label=ModeLabel.IMAGE2)
        assert mode.amplitude == 0.0


SIGNAL = FieldMode(frequency=OMEGA_S, amplitude=1.0)
UPPER = FieldMode(frequency=OMEGA_S + OMEGA_HET, amplitude=0.0, label=ModeLabel.IMAGE1)
LOWER = FieldMode(frequency=OMEGA_S - OMEGA_HET, amplitude=0.0, label=ModeLabel.IMAGE2)
PAIR = SqueezePair(OMEGA_S + OMEGA_HET, OMEGA_S - OMEGA_HET, 0.5, 0.0)

# field states that break one invariant: (id, fields, message)
INVALID_STATES = [
    ("no-modes", {"modes": ()}, "at least one mode"),
    (
        "duplicate-frequency",
        {"modes": (SIGNAL, FieldMode(frequency=OMEGA_S, amplitude=0.0, label=ModeLabel.IMAGE1))},
        "duplicate mode frequency",
    ),
    (
        "asymmetric-pair",
        {
            "modes": (
                SIGNAL,
                FieldMode(OMEGA_S + 2 * OMEGA_HET, 0.0, ModeLabel.IMAGE1),
                LOWER,
            ),
            "squeeze": (SqueezePair(OMEGA_S + 2 * OMEGA_HET, OMEGA_S - OMEGA_HET, 0.5, 0.0),),
        },
        "symmetric about the signal carrier",
    ),
    (
        "frequency-in-two-pairs",
        {
            "modes": (SIGNAL, UPPER, LOWER),
            "squeeze": (PAIR, SqueezePair(OMEGA_S + OMEGA_HET, OMEGA_S - 3 * OMEGA_HET, 0.2, 0.0)),
        },
        "at most one squeeze pair",
    ),
    (
        "pairs-without-a-signal-mode",
        {"modes": (UPPER, LOWER), "squeeze": (PAIR,)},
        "exactly one signal mode",
    ),
    (
        "pairs-with-two-signal-modes",
        {
            "modes": (SIGNAL, FieldMode(OMEGA_S + 3 * OMEGA_HET, 1.0), UPPER, LOWER),
            "squeeze": (PAIR,),
        },
        "exactly one signal mode",
    ),
]


class TestFieldState:
    @pytest.mark.parametrize("build", ["direct", "replace"])
    @pytest.mark.parametrize(
        "fields, message", [c[1:] for c in INVALID_STATES], ids=[c[0] for c in INVALID_STATES]
    )
    def test_every_construction_path_checks_the_invariants(self, build, fields, message):
        with pytest.raises(InvalidSpec, match=message):
            if build == "direct":
                FieldState(**fields)
            else:
                valid = FieldState((SIGNAL, UPPER, LOWER), squeeze=(PAIR,))
                dataclasses.replace(valid, **fields)

    def test_nearby_beat_scale_frequencies_are_distinct(self):
        # Splittings of order the heterodyne frequency sit far above float
        # rounding at optical scale and must not trip the duplicate check.
        state = squeezed_state(Hypothesis.ONE_FIELD)
        assert len(state.modes) == 3

    def test_mode_and_pair_lists_become_tuples(self):
        state = FieldState([SIGNAL, UPPER, LOWER], squeeze=[PAIR])
        assert state.modes == (SIGNAL, UPPER, LOWER)
        assert state.squeeze == (PAIR,)
        assert state.is_squeezed()
        assert hash(state) == hash(FieldState((SIGNAL, UPPER, LOWER), squeeze=(PAIR,)))

    def test_negative_squeeze_strength_rejected(self):
        with pytest.raises(InvalidSpec):
            SqueezePair(OMEGA_S + OMEGA_HET, OMEGA_S - OMEGA_HET, -0.1, 0.0)

    def test_squeeze_beyond_the_flux_bound_rejected(self):
        # sinh(35.3)^2 ~ 1.1e30 photons/s, above MAX_PHOTON_FLUX
        with pytest.raises(InvalidSpec, match="MAX_PHOTON_FLUX"):
            SqueezePair(OMEGA_S + OMEGA_HET, OMEGA_S - OMEGA_HET, 35.3, 0.0)
        assert SqueezePair(OMEGA_S + OMEGA_HET, OMEGA_S - OMEGA_HET, MAX_SQUEEZE_R, 0.0)


class TestPhotonFlux:
    def test_coherent_flux_is_half_amplitude_squared(self):
        state = FieldState(
            [FieldMode(frequency=OMEGA_S, amplitude=math.sqrt(2.0 * 1e3))]
        )
        assert photon_flux(state) == pytest.approx(1e3, rel=1e-12)

    def test_multimode_fluxes_add(self):
        state = FieldState(
            [
                FieldMode(frequency=OMEGA_S, amplitude=2.0),
                FieldMode(frequency=OMEGA_S + OMEGA_HET, amplitude=4.0),
            ]
        )
        assert photon_flux(state) == pytest.approx(2.0 + 8.0, rel=1e-12)

    def test_vacuum_flux_is_zero(self):
        state = FieldState(
            [FieldMode(frequency=OMEGA_S, amplitude=0.0)]
        )
        assert photon_flux(state) == 0.0

    def test_squeezed_state_unsupported(self):
        state = squeezed_state(Hypothesis.ONE_FIELD)
        with pytest.raises(Unsupported):
            photon_flux(state)


class TestCalibration:
    def test_round_trips_detected_count(self):
        e_ph = calibrate_photon_energy(0.5e-9, 1e-3, 0.7, 62.68)
        detected = 0.7 * 0.5e-9 * 1e-3 / e_ph
        assert 10.0 * math.log10(detected) == pytest.approx(62.68, abs=1e-9)

    def test_consistent_across_rows(self):
        # Doubling the power twice should raise the detected count by almost
        # exactly 3.01 dB per step, so all three rows give the same energy.
        e_1 = calibrate_photon_energy(0.5e-9, 1e-3, 0.7, 62.68)
        e_2 = calibrate_photon_energy(1.0e-9, 1e-3, 0.7, 65.69)
        e_3 = calibrate_photon_energy(2.0e-9, 1e-3, 0.7, 68.70)
        assert e_2 == pytest.approx(e_1, rel=1e-2)
        assert e_3 == pytest.approx(e_1, rel=1e-2)

    def test_energy_matches_near_infrared_photon(self):
        # hc / E_ph should land close to 1.05 um.
        e_ph = calibrate_photon_energy(0.5e-9, 1e-3, 0.7, 62.68)
        h = 6.62607015e-34
        c = 2.99792458e8
        wavelength = h * c / e_ph
        assert 1.0e-6 < wavelength < 1.1e-6
        assert wavelength == pytest.approx(1.052e-6, rel=1e-3)

    def test_frozen_value(self):
        assert calibrate_photon_energy(0.5e-9, 1e-3, 0.7, 62.68) == pytest.approx(
            1.8882871788029474e-19, rel=1e-14
        )

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidSpec):
            calibrate_photon_energy(0.0, 1e-3, 0.7, 62.68)
        with pytest.raises(InvalidSpec):
            calibrate_photon_energy(0.5e-9, 1e-3, 1.5, 62.68)

    @pytest.mark.parametrize("snr_db", [math.inf, -math.inf, math.nan, 1e4, -1e4])
    def test_rejects_snr_without_a_finite_energy(self, snr_db):
        with pytest.raises(InvalidSpec):
            calibrate_photon_energy(0.5e-9, 1e-3, 0.7, snr_db)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1e-9])
    @pytest.mark.parametrize("argument", ["optical power", "counting window"])
    def test_power_and_window_are_blamed_not_the_snr(self, argument, value):
        # a NaN power or an infinite window ended in "input SNR 60 dB gives
        # no positive finite photon energy"
        args = [0.5e-9, 1e-3, 0.7, 60.0]
        args[argument == "counting window"] = value
        with pytest.raises(InvalidSpec, match=f"{argument} must be positive and finite"):
            calibrate_photon_energy(*args)


class TestLocalOscillator:
    def test_bichromatic_tone_split(self):
        lo = standard_lo()
        tones = lo.tones()
        assert len(tones) == 2
        total = sum(abs(a) ** 2 for _, a in tones)
        assert total == pytest.approx(lo.amplitude**2, rel=1e-12)
        for _, amp in tones:
            assert abs(amp) == pytest.approx(lo.amplitude / math.sqrt(2.0), rel=1e-12)

    def test_tone_ordering_enforced(self):
        with pytest.raises(InvalidSpec):
            LocalOscillator(
                amplitude=1.0,
                omega_1=OMEGA_S - OMEGA_HET,
                theta_1=0.0,
                omega_2=OMEGA_S + OMEGA_HET,
                theta_2=0.0,
            )

    def test_heterodyne_frequency(self):
        # tones at +-Omega from the carrier beat at exactly Omega
        lo = standard_lo()
        assert lo.omega_het == OMEGA_HET
        assert lo.is_bichromatic

    def test_mean_phase(self):
        lo = standard_lo(theta_1=0.3, theta_2=0.7)
        assert lo.theta_bar == pytest.approx(0.5, rel=1e-12)

    def test_mono_has_single_tone(self):
        lo = LocalOscillator(2.0, OMEGA_S, 0.1)
        assert not lo.is_bichromatic
        tones = lo.tones()
        assert len(tones) == 1
        assert abs(tones[0][1]) == pytest.approx(2.0, rel=1e-12)
        with pytest.raises(Unsupported):
            lo.omega_het


class TestDetectorAndMeasurement:
    def test_eta_bounds(self):
        with pytest.raises(InvalidSpec):
            DetectorParams(eta=0.0)
        with pytest.raises(InvalidSpec):
            DetectorParams(eta=1.2)
        DetectorParams(eta=1.0)

    def test_pulse_decay_time_is_zero_or_positive_and_finite(self):
        for tau in (-1e-6, -1.0, math.inf, math.nan):
            with pytest.raises(InvalidSpec, match="pulse decay time"):
                DetectorParams(eta=0.7, pulse_tau=tau)
        assert DetectorParams(eta=0.7, pulse_tau=1e-6).pulse_tau == 1e-6
        # 0, the default, is the delta pulse
        assert DetectorParams(eta=0.7, pulse_tau=0.0) == DetectorParams(eta=0.7)
        assert DetectorParams(eta=0.7).pulse_tau == 0.0

    def test_measurement_validation(self):
        with pytest.raises(InvalidSpec):
            MeasurementConfig(duration=0.0, rbw=1e3, sample_rate=1e7)
        with pytest.raises(InvalidSpec):
            MeasurementConfig(duration=2.0, rbw=0.0, sample_rate=1e7)
        for bad in (math.inf, math.nan):
            for field in ("duration", "rbw", "sample_rate"):
                values = {"duration": 2.0, "rbw": 1e3, "sample_rate": 1e7, field: bad}
                with pytest.raises(InvalidSpec):
                    MeasurementConfig(**values)
        # Record too short to resolve the requested bandwidth.
        cfg = MeasurementConfig(duration=0.5, rbw=1.0, sample_rate=1e6)
        with pytest.raises(ConfigViolation, match="cannot resolve"):
            validate_measurement(cfg, standard_lo())

    def test_beatnote_must_clear_resolution_bandwidth(self):
        cfg = MeasurementConfig(duration=2.0, rbw=5e4, sample_rate=1e7)
        with pytest.raises(ConfigViolation):
            validate_measurement(cfg, standard_lo())

    def test_sample_rate_must_clear_beatnote(self):
        cfg = MeasurementConfig(duration=2.0, rbw=1e3, sample_rate=5e5)
        with pytest.raises(ConfigViolation):
            validate_measurement(cfg, standard_lo())

    def test_default_geometry_validates(self):
        cfg = MeasurementConfig(duration=2.0, rbw=1e3, sample_rate=1e7)
        validate_measurement(cfg, standard_lo())

    def test_beat_exactly_at_the_limit_validates(self):
        # tones at +-2 pi 2 MHz carry exactly the 2 MHz beat, 10 rbw
        d = TWO_PI * 2e6
        lo = LocalOscillator(1e3, OMEGA_S + d, 0.0, OMEGA_S - d, 0.0)
        assert lo.omega_het / TWO_PI == 2e6
        for rbw, rate in ((2e5, 4e7), (1e5, 2e7)):
            validate_measurement(MeasurementConfig(duration=1e-3, rbw=rbw, sample_rate=rate), lo)
        for rbw, rate in ((2.0001e5, 4e7), (1e5, 1.9999e7)):
            with pytest.raises(ConfigViolation):
                validate_measurement(MeasurementConfig(1e-3, rbw=rbw, sample_rate=rate), lo)

    @pytest.mark.parametrize("f_het_hz", [0.05, 10.0, 50.0, 1e5, 2e6])
    def test_limits_read_the_beat_the_tones_carry(self, f_het_hz):
        # tones at +-2 pi f_het carry f_het itself, so a record 10x on either
        # side of it validates and one a hair inside either limit does not
        d = TWO_PI * f_het_hz
        lo = LocalOscillator(1e3, d, 0.0, -d, 0.0)
        assert lo.omega_het / TWO_PI == f_het_hz
        cfg = MeasurementConfig(duration=1e3 / f_het_hz, rbw=f_het_hz / 10.0, sample_rate=f_het_hz * 10)
        validate_measurement(cfg, lo)
        names = ("f_het", "T", "rbw", "rate")
        for rbw, rate in ((f_het_hz / 9.999, f_het_hz * 10), (f_het_hz / 10, f_het_hz * 9.999)):
            with pytest.raises(ConfigViolation, match=re.escape(f"f_het = {f_het_hz:g} Hz")):
                validate_measurement(MeasurementConfig(1e3 / f_het_hz, rbw, rate), lo, names)


class TestScene:
    @staticmethod
    def scene(carrier, state=None, lo=None):
        state, lo = state or coherent_state(), lo or standard_lo()
        return Scene(state, lo, standard_detector(), standard_measurement(), carrier)

    def test_holds_the_carrier(self):
        assert self.scene(CARRIER).carrier == CARRIER

    @pytest.mark.parametrize("carrier", [0.0, -1.0, math.nan, math.inf, 1e301])
    def test_carrier_must_be_positive_and_finite(self, carrier):
        with pytest.raises(InvalidSpec, match="optical carrier must be finite"):
            self.scene(carrier)

    @pytest.mark.parametrize(
        "state",
        [coherent_state(), squeezed_state(Hypothesis.ONE_FIELD, offset=2e6)],
        ids=["lo-tone", "squeezed-mode"],
    )
    def test_refuses_a_mode_or_tone_at_or_below_zero_hz(self, state):
        # a carrier of OMEGA_HET puts the lower tone at 0 Hz; the squeezed
        # pair's lower mode sits below that
        with pytest.raises(InvalidSpec, match="at or below 0 Hz"):
            self.scene(OMEGA_HET, state)
        assert self.scene(2.0 * OMEGA_HET + 2e6, state)


NAN, INF = math.nan, math.inf


class TestNonFiniteScalars:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: LocalOscillator(1e3, OMEGA_S + OMEGA_HET, NAN, OMEGA_S, 0.0),
            lambda: LocalOscillator(1e3, OMEGA_S + OMEGA_HET, 0.0, OMEGA_S, INF),
            lambda: LocalOscillator(1e3, NAN),
            lambda: LocalOscillator(1e3, INF),
            lambda: LocalOscillator(1e3, OMEGA_S, NAN),
            lambda: FieldMode(frequency=OMEGA_S, amplitude=NAN),
            lambda: FieldMode(frequency=OMEGA_S, amplitude=complex(1.0, INF)),
            lambda: FieldState((SIGNAL,), theta_s=NAN),
            lambda: FieldState((SIGNAL,), theta_s=-INF),
            lambda: SqueezePair(OMEGA_S + OMEGA_HET, OMEGA_S - OMEGA_HET, 0.5, NAN),
            lambda: SqueezePair(OMEGA_S + OMEGA_HET, OMEGA_S - OMEGA_HET, 0.5, INF),
            lambda: SqueezePair(NAN, OMEGA_S - OMEGA_HET, 0.5, 0.0),
            lambda: DetectorParams(0.7, NAN),
            lambda: DetectorParams(0.7, INF),
            lambda: pulse_transfer(NAN, OMEGA_HET),
            lambda: pulse_transfer(-1e-7, OMEGA_HET),
            lambda: pulse_transfer(1e-7, [0.0, INF]),
            lambda: LocalOscillator(1e200, 1e15),
            lambda: FieldMode(frequency=OMEGA_S, amplitude=1e200),
            lambda: FieldMode(frequency=1e308, amplitude=1.0),
            lambda: FieldState((SIGNAL,), theta_s=1e308),
            lambda: LocalOscillator(1e3, OMEGA_S, 1e308),
            lambda: Scene(coherent_state(), standard_lo(), DetectorParams(0.7),
                          MeasurementConfig(2.0, 1e3, 1e7), NAN),
            lambda: FieldMode(frequency=-INF, amplitude=1.0),
            lambda: SqueezePair(OMEGA_S + OMEGA_HET, -INF, 0.5, 0.0),
            lambda: LocalOscillator(1e3, OMEGA_HET, 0.0, -1e301, 0.0),
        ],
        ids=[
            "lo-theta_1-nan",
            "lo-theta_2-inf",
            "mono-omega-nan",
            "mono-omega-inf",
            "mono-theta-nan",
            "mode-amplitude-nan",
            "mode-amplitude-inf",
            "theta_s-nan",
            "theta_s-inf",
            "squeeze-phi-nan",
            "squeeze-phi-inf",
            "squeeze-freq_a-nan",
            "detector-pulse-tau-nan",
            "detector-pulse-tau-inf",
            "pulse-tau-nan",
            "pulse-tau-negative",
            "pulse-omega-inf",
            "lo-flux-1e400",
            "mode-flux-1e400",
            "mode-frequency-1e308",
            "theta_s-1e308",
            "mono-theta-1e308",
            "scene-carrier-nan",
            "mode-frequency-minus-inf",
            "squeeze-freq_b-minus-inf",
            "lo-omega_2-minus-1e301",
        ],
    )
    def test_refused_where_they_are_made(self, build):
        with pytest.raises(InvalidSpec, match="finite"):
            build()


class TestSignalPhase:
    def test_fixed_carries_angle(self):
        assert coherent_state(theta_s=0.25).theta_s == 0.25
        assert FieldState((SIGNAL,)).theta_s == 0.0

    def test_averaged_has_no_angle(self):
        assert coherent_state(averaged=True).theta_s is None
        # an average over theta_s keeps no angle, so there is one averaged state
        assert coherent_state(theta_s=1.3, averaged=True) == coherent_state(averaged=True)

    def test_two_pi_constant(self):
        assert TWO_PI == pytest.approx(2.0 * math.pi, rel=0.0)
