"""Validation and unit conventions of the scene description layer."""

from __future__ import annotations

import dataclasses
import math

import pytest

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
    SqueezePair,
    calibrate_photon_energy,
    photon_flux,
    validate_measurement,
)
from tests.conftest import OMEGA_HET, OMEGA_S, coherent_state, squeezed_state, standard_lo


class TestFieldMode:
    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(InvalidSpec):
            FieldMode(frequency=0.0, amplitude=1.0)
        with pytest.raises(InvalidSpec):
            FieldMode(frequency=-1.0, amplitude=1.0)

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
            LocalOscillator.bichromatic(
                amplitude=1.0,
                omega_1=OMEGA_S - OMEGA_HET,
                theta_1=0.0,
                omega_2=OMEGA_S + OMEGA_HET,
                theta_2=0.0,
            )

    def test_heterodyne_frequency_and_carrier(self):
        lo = standard_lo()
        # Tone frequencies are constructed at optical scale, so the recovered
        # beat frequency carries float rounding of order 1e-7 relative.
        assert lo.omega_het == pytest.approx(OMEGA_HET, rel=1e-6)
        assert lo.carrier() == pytest.approx(OMEGA_S, rel=1e-15)
        assert lo.is_bichromatic

    def test_mean_phase(self):
        lo = standard_lo(theta_1=0.3, theta_2=0.7)
        assert lo.theta_bar == pytest.approx(0.5, rel=1e-12)

    def test_mono_has_single_tone(self):
        lo = LocalOscillator.mono(2.0, OMEGA_S, 0.1)
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

    def test_exponential_pulse_requires_timescale(self):
        for tau in (0.0, -1e-6, math.inf, math.nan):
            with pytest.raises(InvalidSpec, match="pulse decay time"):
                DetectorParams(eta=0.7, pulse_tau=tau)
        assert DetectorParams(eta=0.7, pulse_tau=1e-6).pulse_tau == 1e-6
        assert DetectorParams(eta=0.7).pulse_tau is None

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
        cfg = MeasurementConfig(duration=0.5, rbw=1.0, sample_rate=1e7)
        with pytest.raises(ConfigViolation):
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
        # at f_het = 10 rbw the beat recovered from the optical tones is
        # 1999999.98 Hz; that is within the tones' precision of the limit
        d = TWO_PI * 2e6
        lo = LocalOscillator.bichromatic(1e3, OMEGA_S + d, 0.0, OMEGA_S - d, 0.0)
        assert lo.omega_het / TWO_PI < 2e6
        for rbw, rate in ((2e5, 4e7), (1e5, 2e7)):
            validate_measurement(MeasurementConfig(duration=1e-3, rbw=rbw, sample_rate=rate), lo)
        for rbw, rate in ((2.0001e5, 4e7), (1e5, 1.9999e7)):
            with pytest.raises(ConfigViolation):
                validate_measurement(MeasurementConfig(1e-3, rbw=rbw, sample_rate=rate), lo)


NAN, INF = math.nan, math.inf


class TestNonFiniteScalars:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: LocalOscillator.bichromatic(1e3, OMEGA_S + OMEGA_HET, NAN, OMEGA_S, 0.0),
            lambda: LocalOscillator.bichromatic(1e3, OMEGA_S + OMEGA_HET, 0.0, OMEGA_S, INF),
            lambda: LocalOscillator.mono(1e3, NAN),
            lambda: LocalOscillator.mono(1e3, INF),
            lambda: LocalOscillator.mono(1e3, OMEGA_S, NAN),
            lambda: FieldMode(frequency=OMEGA_S, amplitude=NAN),
            lambda: FieldMode(frequency=OMEGA_S, amplitude=complex(1.0, INF)),
            lambda: FieldState((SIGNAL,), theta_s=NAN),
            lambda: FieldState((SIGNAL,), theta_s=-INF),
            lambda: SqueezePair(OMEGA_S + OMEGA_HET, OMEGA_S - OMEGA_HET, 0.5, NAN),
            lambda: SqueezePair(OMEGA_S + OMEGA_HET, OMEGA_S - OMEGA_HET, 0.5, INF),
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
