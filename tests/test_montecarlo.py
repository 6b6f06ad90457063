"""Stochastic photoemission sampler, current synthesis, and PSD estimation."""

from __future__ import annotations

import math

import numpy as np
import pytest

from bilodyne.analytic import mean_diff_current
from bilodyne.config import RunConfig
from bilodyne.errors import (
    ConfigViolation,
    InvalidSpec,
    NonClassicalInput,
    RateUnbounded,
    TooShort,
    Unresolved,
)
from bilodyne.model import DetectorParams, Hypothesis, MeasurementConfig, PulseShape
from bilodyne.montecarlo import (
    CheckResult,
    CurrentTrace,
    EmissionTimes,
    ExperimentReport,
    estimate_psd,
    extract_beatnote,
    flatness_t_statistic,
    floor_statistics,
    intensity_rate,
    rate_bound,
    run_experiment,
    sample_emission_times,
    synthesize_current,
    thinning_sample,
)
from bilodyne.analytic import Spectrum, SpectrumKind
from tests.conftest import (
    ETA,
    LO_FLUX,
    SIGNAL_FLUX,
    coherent_state,
    squeezed_state,
    standard_detector,
    standard_lo,
)


class TestIntensityRate:
    def test_rates_are_nonnegative(self):
        state = coherent_state(theta_s=0.4)
        lo = standard_lo()
        det = standard_detector()
        t = np.random.default_rng(0).uniform(0.0, 1e-3, 400)
        for arm in (1, 2):
            assert np.all(intensity_rate(state, lo, det, arm, t) >= 0.0)

    def test_arm_sum_is_total_intensity(self):
        # the beamsplitter conserves photons: r1 + r2 = eta (|E|^2 + |M|^2)
        state = coherent_state(theta_s=0.4)
        lo = standard_lo()
        det = standard_detector()
        t = np.linspace(0.0, 2e-5, 64)
        total = intensity_rate(state, lo, det, 1, t) + intensity_rate(state, lo, det, 2, t)
        lo_intensity = np.abs(
            math.sqrt(LO_FLUX / 2.0)
            * (np.exp(-1j * 2.0 * math.pi * 1e5 * t) + np.exp(1j * 2.0 * math.pi * 1e5 * t))
        ) ** 2
        expected = ETA * (lo_intensity + SIGNAL_FLUX)
        np.testing.assert_allclose(total, expected, rtol=1e-4)

    def test_arm_difference_is_mean_current(self):
        state = coherent_state(theta_s=0.3)
        lo = standard_lo()
        det = standard_detector()
        t = np.linspace(0.0, 5e-5, 173)
        diff = det.charge * (
            intensity_rate(state, lo, det, 1, t) - intensity_rate(state, lo, det, 2, t)
        )
        np.testing.assert_allclose(
            diff, mean_diff_current(state, lo, det, t), rtol=1e-10, atol=1e-6
        )

    def test_invalid_arm_index(self):
        with pytest.raises(InvalidSpec):
            intensity_rate(coherent_state(), standard_lo(), standard_detector(), 3, 0.0)

    def test_squeezed_input_rejected(self):
        state = squeezed_state(Hypothesis.ONE_FIELD)
        with pytest.raises(NonClassicalInput):
            intensity_rate(state, standard_lo(), standard_detector(), 1, 0.0)
        with pytest.raises(NonClassicalInput):
            rate_bound(state, standard_lo(), standard_detector())


class TestRateBound:
    def test_bounds_the_rate_everywhere(self):
        state = coherent_state(theta_s=0.9)
        lo = standard_lo(theta_1=0.2, theta_2=-0.5)
        det = standard_detector()
        bound = rate_bound(state, lo, det)
        t = np.linspace(0.0, 1e-4, 20001)
        for arm in (1, 2):
            assert np.max(intensity_rate(state, lo, det, arm, t)) <= bound * (1 + 1e-12)

    def test_bound_is_tight_at_constructive_alignment(self):
        # with all phases zero both tones and the signal line up at t = 0
        state = coherent_state(theta_s=0.0)
        lo = standard_lo()
        det = standard_detector()
        bound = rate_bound(state, lo, det)
        peak = max(
            float(np.max(intensity_rate(state, lo, det, arm, np.linspace(0, 2e-5, 40001))))
            for arm in (1, 2)
        )
        assert peak >= 0.95 * bound


class TestThinningSample:
    def test_constant_rate_poisson_count(self):
        rng = np.random.default_rng(42)
        rate, duration = 1e4, 20.0
        times = thinning_sample(
            lambda t: np.full(np.asarray(t).shape, rate), duration, rng, r_max=rate
        )
        expect = rate * duration
        assert abs(times.size - expect) < 5.0 * math.sqrt(expect)
        assert np.all(np.diff(times) >= 0.0)
        assert times[0] >= 0.0 and times[-1] < duration

    def test_step_rate_profile(self):
        rng = np.random.default_rng(1)
        duration = 20.0
        rate_fn = lambda t: np.where(np.asarray(t) < duration / 2.0, 100.0, 900.0)
        times = thinning_sample(rate_fn, duration, rng, r_max=900.0)
        n_lo = int(np.sum(times < duration / 2.0))
        n_hi = times.size - n_lo
        assert abs(n_lo - 1000.0) < 5.0 * math.sqrt(1000.0)
        assert abs(n_hi - 9000.0) < 5.0 * math.sqrt(9000.0)

    def test_deterministic_given_rng_state(self):
        make = lambda: thinning_sample(
            lambda t: np.full(np.asarray(t).shape, 500.0),
            2.0,
            np.random.default_rng(7),
            r_max=500.0,
        )
        np.testing.assert_array_equal(make(), make())

    def test_zero_bound_gives_empty_stream(self):
        times = thinning_sample(lambda t: np.zeros(np.asarray(t).shape), 1.0,
                                np.random.default_rng(0), r_max=0.0)
        assert times.size == 0

    def test_non_finite_bound_rejected(self):
        rng = np.random.default_rng(0)
        for bad in (math.inf, math.nan, -1.0):
            with pytest.raises(RateUnbounded):
                thinning_sample(lambda t: np.ones(np.asarray(t).shape), 1.0, rng, r_max=bad)

    def test_rate_above_bound_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(RateUnbounded):
            thinning_sample(
                lambda t: np.full(np.asarray(t).shape, 10.0), 5.0, rng, r_max=5.0
            )

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(InvalidSpec):
            thinning_sample(
                lambda t: np.ones(np.asarray(t).shape), 0.0,
                np.random.default_rng(0), r_max=1.0,
            )


class TestSampleEmissionTimes:
    def test_deterministic_by_seed(self):
        state = coherent_state()
        lo = standard_lo()
        det = standard_detector()
        a = sample_emission_times(state, lo, det, 0.01, seed=5)
        b = sample_emission_times(state, lo, det, 0.01, seed=5)
        np.testing.assert_array_equal(a.times_1, b.times_1)
        np.testing.assert_array_equal(a.times_2, b.times_2)

    def test_seed_changes_stream(self):
        state = coherent_state()
        lo = standard_lo()
        det = standard_detector()
        a = sample_emission_times(state, lo, det, 0.01, seed=5)
        b = sample_emission_times(state, lo, det, 0.01, seed=6)
        assert a.times_1.size != b.times_1.size or not np.array_equal(a.times_1, b.times_1)

    def test_arms_are_distinct_streams(self):
        state = coherent_state()
        times = sample_emission_times(state, standard_lo(), standard_detector(), 0.01, seed=5)
        assert not np.array_equal(times.times_1, times.times_2)
        # both arms see roughly eta E^2 / 2 on average
        expect = ETA * (LO_FLUX + SIGNAL_FLUX) / 2.0 * 0.01
        for n in times.counts:
            assert abs(n - expect) < 6.0 * math.sqrt(expect)

    def test_validation_of_time_arrays(self):
        with pytest.raises(InvalidSpec):
            EmissionTimes(
                times_1=np.array([0.5, 0.2]),
                times_2=np.array([]),
                duration=1.0,
                seed=0,
                rate_bound=1.0,
            )
        with pytest.raises(InvalidSpec):
            EmissionTimes(
                times_1=np.array([0.5, 1.2]),
                times_2=np.array([]),
                duration=1.0,
                seed=0,
                rate_bound=1.0,
            )


class TestSynthesizeCurrent:
    def _times(self, n: int, duration: float, seed: int = 3) -> EmissionTimes:
        rng = np.random.default_rng(seed)
        t1 = np.sort(rng.uniform(0.0, duration, n))
        t2 = np.sort(rng.uniform(0.0, duration, n // 2))
        return EmissionTimes(times_1=t1, times_2=t2, duration=duration,
                             seed=seed, rate_bound=0.0)

    def test_delta_pulses_conserve_charge_exactly(self):
        times = self._times(5000, 0.01)
        trace = synthesize_current(times, standard_detector(), 1e6)
        assert float(trace.j1.sum()) * trace.dt == pytest.approx(5000.0, abs=1e-9)
        assert float(trace.j2.sum()) * trace.dt == pytest.approx(2500.0, abs=1e-9)
        np.testing.assert_array_equal(trace.jdiff, trace.j1 - trace.j2)

    def test_exponential_pulses_conserve_charge(self):
        # events kept clear of the record end so no pulse tail is cut off;
        # the only residual is the sub-0.1% kernel discretization
        tau = 1e-5  # ten samples at 1 MHz
        det = DetectorParams(eta=ETA, pulse=PulseShape.exponential(tau))
        rng = np.random.default_rng(3)
        t1 = np.sort(rng.uniform(0.0, 0.005, 5000))
        times = EmissionTimes(times_1=t1, times_2=np.empty(0), duration=0.01,
                              seed=3, rate_bound=0.0)
        trace = synthesize_current(times, det, 1e6)
        total = float(trace.j1.sum()) * trace.dt
        assert total == pytest.approx(5000.0, rel=1e-3)
        assert total <= 5000.0

    def test_trace_geometry(self):
        times = self._times(100, 0.01)
        trace = synthesize_current(times, standard_detector(), 1e6)
        assert trace.jdiff.size == 10000
        assert trace.duration == pytest.approx(0.01)
        assert trace.sample_rate == pytest.approx(1e6)

    def test_invalid_sample_rate(self):
        times = self._times(10, 0.01)
        with pytest.raises(InvalidSpec):
            synthesize_current(times, standard_detector(), 0.0)


def _cosine_trace(amp: float, f_hz: float, fs: float, duration: float) -> CurrentTrace:
    n = int(round(duration * fs))
    t = np.arange(n) / fs
    j = amp * np.cos(2.0 * math.pi * f_hz * t)
    zero = np.zeros(n)
    return CurrentTrace(j1=j, j2=zero, jdiff=j, dt=1.0 / fs, seed=0)


class TestEstimatePsd:
    def test_segment_count_floor(self):
        trace = _cosine_trace(1.0, 1e4, 1e6, 0.1)
        cfg = MeasurementConfig(duration=0.1, rbw=1e3, sample_rate=1e6, n_segments=4)
        with pytest.raises(ConfigViolation):
            estimate_psd(trace, cfg)

    def test_short_record_rejected(self):
        trace = _cosine_trace(1.0, 1e4, 1e6, 0.01)
        cfg = MeasurementConfig(duration=0.01, rbw=1e3, sample_rate=1e6, n_segments=16)
        with pytest.raises(TooShort):
            estimate_psd(trace, cfg)

    def test_pure_tone_line_power(self):
        amp, f0 = 3.0, 1.2e4
        trace = _cosine_trace(amp, f0, 1e6, 0.1)
        cfg = MeasurementConfig(duration=0.1, rbw=1e3, sample_rate=1e6, n_segments=16)
        spec = estimate_psd(trace, cfg)
        beat = extract_beatnote(spec, f0)
        assert beat.power == pytest.approx(amp**2 / 2.0, rel=1e-2)

    def test_parseval_for_pure_tone(self):
        amp, f0 = 3.0, 1.2e4
        trace = _cosine_trace(amp, f0, 1e6, 0.1)
        cfg = MeasurementConfig(duration=0.1, rbw=1e3, sample_rate=1e6, n_segments=16)
        spec = estimate_psd(trace, cfg)
        integrated = float(np.trapezoid(spec.psd, spec.freqs_hz))
        assert integrated == pytest.approx(np.var(trace.jdiff), rel=1e-2)

    def test_shot_noise_floor_of_poisson_difference(self):
        # vacuum signal: the difference of the two arm currents is pure
        # shot noise with one-sided floor 2 eta e^2 E_l^2
        state = coherent_state(flux=0.0)
        lo = standard_lo()
        det = standard_detector()
        times = sample_emission_times(state, lo, det, 0.25, seed=12)
        trace = synthesize_current(times, det, 1e7)
        cfg = MeasurementConfig(duration=0.25, rbw=1e3, sample_rate=1e7, n_segments=16)
        spec = estimate_psd(trace, cfg)
        floor_mean, _, _ = floor_statistics(spec, 1e5)
        assert floor_mean == pytest.approx(2.0 * ETA * LO_FLUX, rel=0.03)


class TestExtractBeatnote:
    def test_outside_grid_rejected(self):
        spec = Spectrum(
            freqs_hz=np.arange(0.0, 101.0), psd=np.ones(101), rbw_hz=1.0,
            kind=SpectrumKind.ESTIMATED,
        )
        with pytest.raises(Unresolved):
            extract_beatnote(spec, 500.0)

    def test_coarse_grid_rejected(self):
        spec = Spectrum(
            freqs_hz=np.arange(0.0, 500.0, 5.0), psd=np.ones(100), rbw_hz=1.0,
            kind=SpectrumKind.ESTIMATED,
        )
        with pytest.raises(Unresolved):
            extract_beatnote(spec, 250.0)

    def test_line_between_grid_points_rejected(self):
        # grid spacing 1.0 with rbw 0.8: the spacing is acceptable but a
        # line half a bin off the grid cannot be placed within rbw/2
        spec = Spectrum(
            freqs_hz=np.arange(0.0, 101.0), psd=np.ones(101), rbw_hz=0.8,
            kind=SpectrumKind.ESTIMATED,
        )
        with pytest.raises(Unresolved):
            extract_beatnote(spec, 50.5)

    def test_flat_floor_gives_zero_power(self):
        spec = Spectrum(
            freqs_hz=np.arange(0.0, 101.0), psd=np.ones(101), rbw_hz=1.0,
            kind=SpectrumKind.ESTIMATED,
        )
        beat = extract_beatnote(spec, 50.0)
        assert beat.power == pytest.approx(0.0, abs=1e-12)
        assert beat.floor == pytest.approx(1.0)


class TestFloorStatistics:
    def test_line_bins_are_excluded(self):
        f = np.arange(0.0, 1001.0)
        psd = np.ones(f.size)
        for line in (0.0, 100.0, 200.0):
            psd[np.abs(f - line) <= 2.0] = 50.0
        spec = Spectrum(freqs_hz=f, psd=psd, rbw_hz=1.0, kind=SpectrumKind.ESTIMATED)
        mean, sigma, mask = floor_statistics(spec, 100.0)
        assert mean == pytest.approx(1.0)
        assert sigma == pytest.approx(0.0)
        assert not mask[100] and not mask[200] and not mask[0]

    def test_extra_exclusions(self):
        f = np.arange(0.0, 1001.0)
        psd = np.ones(f.size)
        psd[np.abs(f - 300.0) <= 2.0] = 9.0
        spec = Spectrum(freqs_hz=f, psd=psd, rbw_hz=1.0, kind=SpectrumKind.ESTIMATED)
        mean, _, _ = floor_statistics(spec, 100.0, extra_exclude_hz=(300.0,))
        assert mean == pytest.approx(1.0)


class TestFlatness:
    def test_flat_noise_passes(self):
        rng = np.random.default_rng(8)
        f = np.arange(0.0, 2001.0)
        psd = 1.0 + 0.01 * rng.standard_normal(f.size)
        psd = np.clip(psd, 0.0, None)
        spec = Spectrum(freqs_hz=f, psd=psd, rbw_hz=1.0, kind=SpectrumKind.ESTIMATED)
        mask = np.ones(f.size, dtype=bool)
        t_stat, t_crit = flatness_t_statistic(spec, mask)
        assert abs(t_stat) <= t_crit

    def test_sloped_floor_fails(self):
        rng = np.random.default_rng(9)
        f = np.arange(0.0, 2001.0)
        psd = 1.0 + 5e-4 * f + 0.01 * rng.standard_normal(f.size)
        spec = Spectrum(freqs_hz=f, psd=psd, rbw_hz=1.0, kind=SpectrumKind.ESTIMATED)
        mask = np.ones(f.size, dtype=bool)
        t_stat, t_crit = flatness_t_statistic(spec, mask)
        assert abs(t_stat) > t_crit


class TestReportTypes:
    def test_check_result_dict(self):
        check = CheckResult(name="x", value=1.0, target=1.1, tolerance=0.2, passed=True)
        d = check.as_dict()
        assert d == {"name": "x", "value": 1.0, "target": 1.1, "tolerance": 0.2,
                     "passed": True}

    def test_report_pass_logic(self):
        good = CheckResult(name="a", value=0.0, target=0.0, tolerance=1.0, passed=True)
        bad = CheckResult(name="b", value=9.0, target=0.0, tolerance=1.0, passed=False)
        assert ExperimentReport(scenario="s", seed=0, checks=[good]).passed
        assert not ExperimentReport(scenario="s", seed=0, checks=[good, bad]).passed


class TestRunExperiment:
    def test_unknown_scenario(self):
        with pytest.raises(InvalidSpec):
            run_experiment("nonsense")

    def test_short_shot_floor_run(self):
        scene = RunConfig.defaults({"measurement.duration_s": 0.5}).build_scene()
        report = run_experiment("shot-floor", scene, seed=4)
        assert report.passed
        names = [c.name for c in report.checks]
        assert names == ["shot_floor_level", "shot_floor_flatness_t"]
        assert "difference_current" in report.spectra

    def test_deterministic_spectra(self):
        scene = RunConfig.defaults({"measurement.duration_s": 0.25}).build_scene()
        a = run_experiment("shot-floor", scene, seed=21)
        b = run_experiment("shot-floor", scene, seed=21)
        np.testing.assert_array_equal(
            a.spectra["difference_current"].psd, b.spectra["difference_current"].psd
        )
        assert [c.as_dict() for c in a.checks] == [c.as_dict() for c in b.checks]

    def test_seed_sensitivity(self):
        scene = RunConfig.defaults({"measurement.duration_s": 0.25}).build_scene()
        a = run_experiment("shot-floor", scene, seed=21)
        b = run_experiment("shot-floor", scene, seed=22)
        assert not np.array_equal(
            a.spectra["difference_current"].psd, b.spectra["difference_current"].psd
        )

    def test_keep_traces(self):
        scene = RunConfig.defaults({"measurement.duration_s": 0.25}).build_scene()
        report = run_experiment("shot-floor", scene, seed=4, keep_traces=True)
        trace = report.traces["difference_current"]
        assert isinstance(trace, CurrentTrace)
        assert trace.duration == pytest.approx(0.25)
