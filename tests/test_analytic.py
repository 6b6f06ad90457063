"""Closed-form noise floor, beat power, SNR chain, and analytic PSD."""

from __future__ import annotations

import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from bilodyne.analytic import (
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
from bilodyne.config import RunConfig
from bilodyne.errors import ConfigViolation, InvalidSpec, Unsupported
from bilodyne.model import (
    TWO_PI,
    DetectorParams,
    Hypothesis,
    MeasurementConfig,
    calibrate_photon_energy,
)
from tests.conftest import (
    ETA,
    LO_FLUX,
    OMEGA_HET,
    OMEGA_S,
    SIGNAL_FLUX,
    coherent_state,
    mono_lo,
    squeezed_state,
    standard_detector,
    standard_lo,
    standard_measurement,
)

ALPHA = math.sqrt(2.0 * SIGNAL_FLUX)
E_LO = math.sqrt(LO_FLUX)


class TestPulseTransfer:
    def test_delta_is_flat(self):
        # the delta pulse is the exponential one at tau = 0: exactly 1 at every
        # finite w, the extremes and the smallest subnormal included
        w = np.array([0.0, 1e3, 1e7, 1e300, -1e300, 5e-324])
        k = pulse_transfer(0.0, w)
        np.testing.assert_array_equal(k, np.full(w.size, 1.0 + 0.0j))
        np.testing.assert_array_equal(np.abs(k) ** 2, np.ones(w.size))
        assert pulse_transfer(0.0, 0.0) == 1.0 + 0.0j

    def test_exponential_matches_quadrature(self):
        # Independent route: numerically Fourier-transform the normalized
        # pulse (1/tau) e^{-t/tau} and compare with the closed form.
        tau = 2.5e-6
        for w_tau in (0.5, 1.0, 2.0):
            w = w_tau / tau
            re, _ = quad(lambda t: math.exp(-t / tau) / tau * math.cos(w * t), 0.0, 60.0 * tau)
            im, _ = quad(lambda t: math.exp(-t / tau) / tau * math.sin(w * t), 0.0, 60.0 * tau)
            value = pulse_transfer(tau, w)
            assert value.real == pytest.approx(re, rel=1e-9)
            assert value.imag == pytest.approx(im, rel=1e-9)

    def test_exponential_half_power_point(self):
        tau = 1e-6
        value = pulse_transfer(tau, 1.0 / tau)
        assert abs(value) ** 2 == pytest.approx(0.5, rel=1e-12)


class TestShotFloor:
    def test_delta_floor_value(self):
        floor = shot_floor_psd(standard_lo(), standard_detector(), 0.0)
        assert floor == 2.0 * ETA * LO_FLUX
        assert floor == 1400000.0

    def test_mono_and_bichromatic_floors_identical(self):
        w = TWO_PI * np.linspace(0.0, 5e6, 101)
        f_mono = shot_floor_psd(mono_lo(), standard_detector(), w)
        f_bi = shot_floor_psd(standard_lo(), standard_detector(), w)
        np.testing.assert_array_equal(f_mono, f_bi)

    def test_exponential_rolloff(self):
        tau = 1e-7
        det = DetectorParams(eta=ETA, pulse_tau=tau)
        w = np.array([0.0, 1.0 / tau, 3.0 / tau])
        floor = shot_floor_psd(standard_lo(), det, w)
        expected = 2.0 * ETA * LO_FLUX / (1.0 + (w * tau) ** 2)
        np.testing.assert_allclose(floor, expected, rtol=1e-12)


class TestAnalyticPsd:
    def test_coherent_psd_is_the_flat_floor(self):
        spec = psd_analytic(
            coherent_state(), standard_lo(), standard_detector(), standard_measurement()
        )
        np.testing.assert_array_equal(spec.psd, np.full(spec.psd.size, 1400000.0))
        assert spec.freqs_hz[0] == 0.0
        assert spec.freqs_hz[-1] == pytest.approx(5e6)

    def test_mono_and_bichromatic_coherent_psd_bitwise_equal(self):
        det = standard_detector()
        cfg = standard_measurement()
        spec_bi = psd_analytic(coherent_state(), standard_lo(), det, cfg)
        spec_mono = psd_analytic(coherent_state(), mono_lo(), det, cfg)
        assert np.array_equal(spec_bi.psd, spec_mono.psd)

    def test_hypothesis_choice_invisible_for_coherent_input(self):
        det = standard_detector()
        cfg = standard_measurement()
        one = psd_analytic(coherent_state(), standard_lo(), det, cfg)
        state3 = coherent_state()
        state3 = type(state3)(
            modes=state3.modes,
            hypothesis=Hypothesis.THREE_FIELDS,
            squeeze=state3.squeeze,
            theta_s=state3.theta_s,
        )
        three = psd_analytic(state3, standard_lo(), det, cfg)
        assert np.array_equal(one.psd, three.psd)

    def test_squeezed_lines_rendered_at_beat_bins(self):
        r = 0.5
        state = squeezed_state(Hypothesis.ONE_FIELD, r=r)
        cfg = standard_measurement()
        spec = psd_analytic(state, standard_lo(), standard_detector(), cfg)
        line_power = LO_FLUX * (math.e - 1.0) / 2.0
        expected_bump = ETA**2 * line_power / cfg.rbw
        i1 = int(round(1e5 / cfg.rbw))
        i3 = int(round(3e5 / cfg.rbw))
        assert spec.psd[i1] - 1400000.0 == pytest.approx(expected_bump, rel=1e-9)
        assert spec.psd[i3] - 1400000.0 == pytest.approx(expected_bump, rel=1e-9)
        off = np.ones(spec.psd.size, dtype=bool)
        off[[i1, i3]] = False
        np.testing.assert_array_equal(spec.psd[off], np.full(off.sum(), 1400000.0))

    def test_antimatched_dip_sits_below_floor(self):
        state = squeezed_state(Hypothesis.ONE_FIELD, r=0.5, theta_s=math.pi / 2.0)
        cfg = standard_measurement()
        spec = psd_analytic(state, standard_lo(), standard_detector(), cfg)
        i1 = int(round(1e5 / cfg.rbw))
        dip = ETA**2 * LO_FLUX * (math.exp(-1.0) - 1.0) / 2.0 / cfg.rbw
        assert spec.psd[i1] - 1400000.0 == pytest.approx(dip, rel=1e-9)
        assert spec.psd[i1] < 1400000.0

    def test_dip_deeper_than_floor_rejected(self):
        # the default grid at a 0.1 Hz rbw, 201 bins up to 20 Hz, at the
        # default optical carrier: Hz offsets from it are exact
        def scene(theta_s):
            return RunConfig.defaults(
                {
                    "field.theta_s": theta_s,
                    "lo.f_het_hz": 2.0,
                    "squeeze.enabled": True,
                    "squeeze.r": 2.0,
                    "squeeze.offset_hz": 4.0,
                    "measurement.rbw_hz": 0.1,
                    "measurement.sample_rate_hz": 40.0,
                    "measurement.duration_s": 10.0,
                }
            ).build_scene()

        # the matched phase puts the same lines above the floor
        bump = scene(0.0)
        spec = psd_analytic(bump.state, bump.lo, bump.det, bump.meas)
        assert spec.freqs_hz.size == 201
        dip = scene(math.pi / 2.0)
        with pytest.raises(ConfigViolation, match="squeezed dip"):
            psd_analytic(dip.state, dip.lo, dip.det, dip.meas)

    def test_geometry_violations_propagate(self):
        cfg = standard_measurement(rbw=5e4)
        with pytest.raises(ConfigViolation):
            psd_analytic(coherent_state(), standard_lo(), standard_detector(), cfg)

    def test_slow_beat_refused_by_the_sample_rate_limit(self):
        # the tones carry a 0.05 Hz beat exactly, so a 5e-3 Hz sample rate is
        # refused as the CLI refuses it, not read as a 3-bin spectrum that
        # ends at 2 mHz, below the beat
        scene = RunConfig.defaults({"lo.f_het_hz": 0.05}).build_scene()
        cfg = MeasurementConfig(2e4, 1e-3, 5e-3)
        refusal = "sample rate = 0.005 Hz must be >= 10x heterodyne frequency Omega / 2 pi = 0.05 Hz"
        with pytest.raises(ConfigViolation, match=re.escape(refusal)):
            psd_analytic(scene.state, scene.lo, scene.det, cfg)

    def test_oversized_grid_refused_before_it_is_made(self):
        # 1e7 Hz / 2 Hz is a 5e6-sample segment, above MAX_SEGMENT_SAMPLES: the
        # grid of 2.5e6 bins would take 20 MB per array; the config is refused
        # when it is made
        tracemalloc.start()
        try:
            with pytest.raises(ConfigViolation, match="MAX_SEGMENT_SAMPLES"):
                cfg = MeasurementConfig(duration=8.0, rbw=2.0, sample_rate=1e7)
                psd_analytic(coherent_state(), standard_lo(), standard_detector(), cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestSpectrumContainer:
    def test_rejects_unsorted_grid(self):
        with pytest.raises(InvalidSpec):
            Spectrum(
                freqs_hz=np.array([0.0, 2.0, 1.0]),
                psd=np.ones(3),
                rbw_hz=1.0,
            )

    def test_rejects_negative_psd(self):
        with pytest.raises(InvalidSpec):
            Spectrum(
                freqs_hz=np.array([0.0, 1.0, 2.0]),
                psd=np.array([1.0, -0.1, 1.0]),
                rbw_hz=1.0,
            )

    def test_rejects_non_finite_psd(self):
        with pytest.raises(InvalidSpec):
            Spectrum(
                freqs_hz=np.array([0.0, 1.0]),
                psd=np.array([1.0, math.nan]),
                rbw_hz=1.0,
            )

    @pytest.mark.parametrize("rbw_hz", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_rbw_not_positive_and_finite(self, rbw_hz):
        with pytest.raises(InvalidSpec, match="resolution bandwidth"):
            Spectrum(freqs_hz=np.arange(100.0), psd=np.ones(100), rbw_hz=rbw_hz)


class TestOutputSignalPower:
    def test_phase_averaged_value(self):
        state = coherent_state(averaged=True)
        power = output_signal_power(state, standard_lo(), standard_detector())
        assert power == pytest.approx((ETA * ALPHA * E_LO) ** 2, rel=1e-12)

    def test_fixed_matched_phase_doubles_averaged(self):
        fixed = coherent_state(theta_s=0.0)
        averaged = coherent_state(averaged=True)
        det = standard_detector()
        assert output_signal_power(fixed, standard_lo(), det) == pytest.approx(
            2.0 * output_signal_power(averaged, standard_lo(), det), rel=1e-12
        )
        assert output_signal_power(fixed, standard_lo(), det) == pytest.approx(
            1.96e9, rel=1e-9
        )

    def test_quarter_wave_phase_equals_averaged(self):
        fixed = coherent_state(theta_s=math.pi / 4.0)
        averaged = coherent_state(averaged=True)
        det = standard_detector()
        assert output_signal_power(fixed, standard_lo(), det) == pytest.approx(
            output_signal_power(averaged, standard_lo(), det), rel=1e-12
        )

    def test_exponential_pulse_filters_beat(self):
        tau = 1.0 / OMEGA_HET
        det = DetectorParams(eta=ETA, pulse_tau=tau)
        state = coherent_state(averaged=True)
        filtered = output_signal_power(state, standard_lo(), det)
        flat = output_signal_power(state, standard_lo(), standard_detector())
        assert filtered / flat == pytest.approx(0.5, rel=1e-6)

    def test_mono_lo_unsupported(self):
        # a homodyne, one tone at the carrier, has its beat at DC and is refused
        with pytest.raises(Unsupported, match="DC"):
            output_signal_power(coherent_state(), mono_lo(omega=OMEGA_S), standard_detector())
        # one tone offset by the beat gives (eta alpha E_l)^2 |K|^2 at every
        # phase; at Omega tau = 1, |K|^2 = 1/2
        det = DetectorParams(eta=ETA, pulse_tau=1.0 / OMEGA_HET)
        expected = (ETA * ALPHA * E_LO) ** 2 * 0.5
        for theta_s, theta in itertools.product((0.0, 0.7, math.pi / 2.0, 2.5), (0.0, -1.1)):
            lo = mono_lo(theta=theta, omega=OMEGA_S + OMEGA_HET)
            power = output_signal_power(coherent_state(theta_s=theta_s), lo, det)
            assert power == pytest.approx(expected, rel=1e-12)
        averaged = output_signal_power(coherent_state(averaged=True), lo, det)
        assert averaged == pytest.approx(expected, rel=1e-12)


class TestSnrChain:
    def test_noise_figure_vanishes_for_phase_averaged_coherent(self):
        det_pairs = [
            (1e2, 0.3, 1e5, 1.0),
            (1e3, 0.7, 1e6, 1e3),
            (5e4, 1.0, 1e7, 10.0),
            (2.6e9, 0.7, 2.6e11, 1e3),
        ]
        for flux, eta, lo_flux, rbw in det_pairs:
            state = coherent_state(flux=flux, averaged=True)
            lo = standard_lo(flux=lo_flux)
            det = standard_detector(eta=eta)
            nf = noise_figure(state, lo, det, rbw)
            assert abs(nf) < 1e-9

    def test_snr_out_is_pulse_independent(self):
        state = coherent_state(averaged=True)
        det_exp = DetectorParams(eta=ETA, pulse_tau=3e-6)
        assert snr_out(state, standard_lo(), det_exp, 1e3) == pytest.approx(
            snr_out(state, standard_lo(), standard_detector(), 1e3), rel=1e-12
        )

    def test_fixed_matched_phase_gains_three_db(self):
        nf = noise_figure(coherent_state(theta_s=0.0), standard_lo(), standard_detector(), 1e3)
        assert nf == pytest.approx(-10.0 * math.log10(2.0), abs=1e-9)

    def test_zero_signal_markers(self):
        state = coherent_state(flux=0.0, averaged=True)
        det = standard_detector()
        assert snr_in(state, det, 1e3) == -math.inf
        assert snr_out(state, standard_lo(), det, 1e3) == -math.inf
        assert math.isnan(noise_figure(state, standard_lo(), det, 1e3))

    def test_squeezed_input_unsupported(self):
        state = squeezed_state(Hypothesis.ONE_FIELD)
        with pytest.raises(Unsupported):
            snr_out(state, standard_lo(), standard_detector(), 1e3)

    def test_rbw_must_be_positive(self):
        state = coherent_state(averaged=True)
        for rbw in (0.0, -1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidSpec):
                snr_in(state, standard_detector(), rbw)
            with pytest.raises(InvalidSpec):
                snr_out(state, standard_lo(), standard_detector(), rbw)


REFERENCE_SCAN = {
    "scan.powers_nw": (0.5, 1.0, 2.0),
    "scan.window_s": 1e-3,
    "detector.eta": 0.7,
    "scan.anchor_snr_db": 62.68,
}


def reference_scan(**overrides):
    values = dict(REFERENCE_SCAN)
    values.update({f"scan.{key}": value for key, value in overrides.items()})
    return RunConfig.defaults(values).build_scan()


class TestSensitivityTable:
    def test_reference_rows(self):
        rows = sensitivity_table(reference_scan())
        assert [round(r.power_w * 1e9, 2) for r in rows] == [0.5, 1.0, 2.0]
        expected_snr = (62.68, 65.69, 68.70)
        for row, snr in zip(rows, expected_snr):
            assert row.snr_in_db == pytest.approx(snr, abs=5e-3)
            assert row.snr_out_db == pytest.approx(snr, abs=5e-3)
            assert abs(row.nf_db) < 1e-9

    def test_anchor_flux(self):
        e_ph = calibrate_photon_energy(0.5e-9, 1e-3, 0.7, 62.68)
        scan = reference_scan()
        rows = sensitivity_table(scan)
        assert scan.photon_energy_j == e_ph
        assert rows[0].photon_flux == pytest.approx(0.5e-9 / e_ph, rel=1e-12)
        assert rows[0].photon_flux == pytest.approx(2647902319.3859834, rel=1e-6)

    def test_rejects_nonpositive_energy(self):
        # a zero counting window would calibrate a zero photon energy
        with pytest.raises(ConfigViolation, match="scan.window_s"):
            reference_scan(window_s=0.0)

    def test_row_consistency(self):
        rows = sensitivity_table(reference_scan(powers_nw=(1.0,)))
        assert isinstance(rows[0], SensitivityRow)
        assert rows[0].nf_db == rows[0].snr_in_db - rows[0].snr_out_db

    def test_rows_independent_of_scan_lo(self):
        # SNR_out is beat power over shot power: the LO flux and the beat
        # frequency cancel, so the table describes any scan LO alike
        base = sensitivity_table(reference_scan())
        other = sensitivity_table(reference_scan(lo_ratio=1e4, f_het_hz=5e6))
        for a, b in zip(base, other):
            assert b.snr_out_db == pytest.approx(a.snr_out_db, abs=1e-12)
            assert b.snr_in_db == a.snr_in_db
