"""Stochastic photoemission sampler, current synthesis, and PSD estimation."""

from __future__ import annotations

import itertools
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bilodyne import montecarlo
from bilodyne.analytic import mean_diff_current
from bilodyne.config import RunConfig
from bilodyne.errors import (
    ConfigViolation,
    InvalidSpec,
    NonClassicalInput,
    TooShort,
    Unresolved,
)
from bilodyne.model import DetectorParams, Hypothesis, MeasurementConfig, PulseShape
from bilodyne.montecarlo import (
    CheckResult,
    CurrentTrace,
    ExperimentReport,
    bin_means,
    estimate_psd,
    extract_beatnote,
    flatness_t_statistic,
    floor_statistics,
    intensity_rate,
    lockin_power,
    run_experiment,
    sample_bin_counts,
    synthesize_current,
)
from bilodyne.analytic import Spectrum, SpectrumKind
from tests.conftest import (
    DEFAULT_SEED,
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
            bin_means(state, standard_lo(), standard_detector(), 10, 1e-7)


_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(16)

# the default scene, the scan's anchor scene, and the default scene
# with the LO tones and the signal turned away from zero phase
BIN_MEAN_SCENES = {
    "default": lambda: RunConfig.defaults().build_scene(),
    "scan": lambda: RunConfig.defaults().build_scan().scenes[0],
    "rotated": lambda: RunConfig.defaults(
        {"lo.theta_1": 0.7, "lo.theta_2": -0.4, "field.theta_s": 1.1}
    ).build_scene(),
}


def _quadrature_bin_means(scene, arm: int, first: int, stop: int, dt: float) -> np.ndarray:
    """16-node Gauss-Legendre integral of intensity_rate over bins first..stop-1."""
    centres = (np.arange(first, stop) + 0.5) * dt
    t = centres[:, None] + 0.5 * dt * _NODES[None, :]
    rate = intensity_rate(scene.state, scene.lo, scene.det, arm, t.ravel()).reshape(t.shape)
    return 0.5 * dt * (rate @ _WEIGHTS)


class TestBinMeans:
    @pytest.mark.parametrize("name", sorted(BIN_MEAN_SCENES))
    def test_matches_quadrature_of_the_rate(self, name):
        scene = BIN_MEAN_SCENES[name]()
        n = int(round(scene.meas.duration * scene.meas.sample_rate))
        dt = 1.0 / scene.meas.sample_rate
        means = bin_means(scene.state, scene.lo, scene.det, n, dt)
        for arm, mean in zip((1, 2), means):
            assert mean.shape == (n,)
            head = _quadrature_bin_means(scene, arm, 0, 3000, dt)
            assert np.max(np.abs(mean[:3000] - head) / head) <= 1e-10
            # near the record end (t = 2 s for the default geometry) the
            # float phase D t limits both sides
            tail = _quadrature_bin_means(scene, arm, n - 3000, n, dt)
            assert np.max(np.abs(mean[n - 3000 :] - tail) / tail) <= 1e-7

    def test_arm_sum_counts_every_photon(self):
        # the beamsplitter conserves photons: both arms together detect
        # eta (|E_lo|^2 + |M|^2), whose LO part averages to the LO flux
        # over whole beat periods; the tones carry the beat only to ~1e-7
        # relative, which leaves a fraction of a period over
        state, lo, det = coherent_state(theta_s=0.4), standard_lo(), standard_detector()
        dt, n = 1e-7, 100000  # 10 ms, 2000 periods of the LO-LO beat
        m1, m2 = bin_means(state, lo, det, n, dt)
        assert float(np.sum(m1 + m2)) == pytest.approx(
            ETA * (LO_FLUX + SIGNAL_FLUX) * n * dt, rel=1e-6
        )

    def test_empty_grid_rejected(self):
        args = (coherent_state(), standard_lo(), standard_detector())
        with pytest.raises(InvalidSpec):
            bin_means(*args, 0, 1e-7)
        with pytest.raises(InvalidSpec):
            bin_means(*args, 10, 0.0)


class TestSampleBinCounts:
    def _means(self, n: int = 100000):
        return bin_means(coherent_state(), standard_lo(), standard_detector(), n, 1e-7)

    def test_deterministic_by_seed(self):
        means = self._means()
        a = sample_bin_counts(means, seed=5)
        b = sample_bin_counts(means, seed=5)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_seed_changes_stream(self):
        means = self._means()
        a = sample_bin_counts(means, seed=5)
        b = sample_bin_counts(means, seed=6)
        assert not np.array_equal(a[0], b[0])

    def test_arms_are_distinct_streams(self):
        counts = sample_bin_counts(self._means(), seed=5)
        assert not np.array_equal(counts[0], counts[1])
        # both arms see roughly eta E^2 / 2 on average
        expect = ETA * (LO_FLUX + SIGNAL_FLUX) / 2.0 * 0.01
        for c in counts:
            assert abs(int(c.sum()) - expect) < 6.0 * math.sqrt(expect)

    def test_totals_and_dispersion_match_the_means(self):
        # a rate 1000x the default LO puts ~35 events in a bin, so the
        # per-bin dispersion index var(c - mu) / mu is well defined
        lo = standard_lo(flux=1e9)
        means = bin_means(coherent_state(flux=1e6), lo, standard_detector(), 200000, 1e-7)
        for mu, c in zip(means, sample_bin_counts(means, seed=13)):
            total = float(mu.sum())
            assert abs(int(c.sum()) - total) <= 4.0 * math.sqrt(total)
            # E[(c - mu)^2 / mu] = 1 per bin, with variance 2 + 1 / mu
            ratio = (c - mu) ** 2 / mu
            se = math.sqrt(float(np.mean(2.0 + 1.0 / mu)) / mu.size)
            assert abs(float(ratio.mean()) - 1.0) <= 4.0 * se

    def test_zero_means_give_no_counts(self):
        zero = (np.zeros(1000), np.zeros(1000))
        counts = sample_bin_counts(zero, seed=1)
        assert all(int(c.sum()) == 0 for c in counts)


class TestSynthesizeCurrent:
    def _counts(self, n: int, bins: int, seed: int = 3):
        # n events in arm 1 and n // 2 in arm 2, spread over the bins
        rng = np.random.default_rng(seed)
        arm_1 = np.bincount(rng.integers(0, bins, n), minlength=bins)
        arm_2 = np.bincount(rng.integers(0, bins, n // 2), minlength=bins)
        return arm_1, arm_2

    def test_delta_pulses_conserve_charge_exactly(self):
        trace = synthesize_current(self._counts(5000, 10000), standard_detector(), 1e6)
        assert float(trace.j1.sum()) * trace.dt == pytest.approx(5000.0, abs=1e-9)
        assert float(trace.j2.sum()) * trace.dt == pytest.approx(2500.0, abs=1e-9)
        np.testing.assert_array_equal(trace.jdiff, trace.j1 - trace.j2)

    def test_exponential_pulses_conserve_charge(self):
        # events kept clear of the record end so no pulse tail is cut off;
        # the only residual is the sub-0.1% kernel discretization
        tau = 1e-5  # ten samples at 1 MHz
        det = DetectorParams(eta=ETA, pulse=PulseShape.exponential(tau))
        arm_1, _ = self._counts(5000, 5000)
        counts = (np.concatenate([arm_1, np.zeros(5000, dtype=arm_1.dtype)]), np.zeros(10000))
        trace = synthesize_current(counts, det, 1e6)
        total = float(trace.j1.sum()) * trace.dt
        assert total == pytest.approx(5000.0, rel=1e-3)
        assert total <= 5000.0

    def test_trace_geometry(self):
        trace = synthesize_current(self._counts(100, 10000), standard_detector(), 1e6)
        assert trace.jdiff.size == 10000
        assert trace.duration == pytest.approx(0.01)
        assert trace.sample_rate == pytest.approx(1e6)

    def test_invalid_sample_rate(self):
        with pytest.raises(InvalidSpec):
            synthesize_current(self._counts(10, 100), standard_detector(), 0.0)

    def test_arms_must_share_the_grid(self):
        with pytest.raises(InvalidSpec):
            synthesize_current((np.ones(10), np.ones(9)), standard_detector(), 1e6)


def _cosine_trace(amp: float, f_hz: float, fs: float, duration: float) -> CurrentTrace:
    n = int(round(duration * fs))
    t = np.arange(n) / fs
    j = amp * np.cos(2.0 * math.pi * f_hz * t)
    zero = np.zeros(n)
    return CurrentTrace(j1=j, j2=zero, jdiff=j, dt=1.0 / fs)


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
        means = bin_means(state, lo, det, 2500000, 1e-7)
        trace = synthesize_current(sample_bin_counts(means, seed=12), det, 1e7)
        cfg = MeasurementConfig(duration=0.25, rbw=1e3, sample_rate=1e7, n_segments=16)
        spec = estimate_psd(trace, cfg)
        floor_mean, _, _ = floor_statistics(spec, 1e5)
        assert floor_mean == pytest.approx(2.0 * ETA * LO_FLUX, rel=0.03)


class TestLockinPower:
    def test_pure_tone_on_the_record_grid(self):
        # 150000 samples are two whole blocks and a tail; 0.15 s holds
        # 1800 periods of 12 kHz
        amp, f0, fs = 3.0, 1.2e4, 1e6
        trace = _cosine_trace(amp, f0, fs, 0.15)
        assert lockin_power(trace.jdiff, f0, trace.dt) == pytest.approx(amp**2 / 2.0, rel=1e-9)

    def test_matches_the_direct_sum(self):
        x = np.random.default_rng(4).standard_normal(150001)
        w = 2.0 * math.pi * 1.2e4 * 1e-6
        direct = 2.0 * abs(np.sum(x * np.exp(-1j * w * np.arange(x.size)))) ** 2 / x.size**2
        assert lockin_power(x, 1.2e4, 1e-6) == pytest.approx(direct, rel=1e-9)

    def test_white_noise_adds_floor_over_duration(self):
        # one-sided PSD S = 2 sigma^2 dt; the estimate averages S / T
        rng = np.random.default_rng(6)
        n, dt = 4096, 1e-6
        values = [lockin_power(rng.standard_normal(n), 1.2e4, dt) for _ in range(300)]
        floor = 2.0 * dt / (n * dt)
        # each value is exponential about the floor: 300 give a 6 % standard error
        assert float(np.mean(values)) == pytest.approx(floor, rel=0.25)


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


class TestStreamedRun:
    """The one-pass run against the same record held whole."""

    SCENE = RunConfig.defaults({"measurement.duration_s": 0.25}).build_scene()

    def test_matches_the_whole_record(self):
        scene = self.SCENE
        report = run_experiment("default", scene, seed=DEFAULT_SEED, keep_traces=True)
        # the record's seed, drawn from the run's seed as _scenario_floor draws it
        root = np.random.SeedSequence(DEFAULT_SEED)
        seed = int(root.generate_state(1, dtype=np.uint64)[0] >> 1)
        dt = 1.0 / scene.meas.sample_rate
        n = int(round(scene.meas.duration * scene.meas.sample_rate))
        means = bin_means(scene.state, scene.lo, scene.det, n, dt)
        counts = sample_bin_counts(means, seed)
        assert report.scalars["counts_1"] == int(counts[0].sum())
        assert report.scalars["counts_2"] == int(counts[1].sum())

        whole = synthesize_current(counts, scene.det, scene.meas.sample_rate)
        kept = report.traces["difference_current"]
        assert kept.jdiff.tobytes() == whole.jdiff.tobytes()
        assert kept.dt == whole.dt

        from scipy import signal

        nperseg = int(round(scene.meas.sample_rate / scene.meas.rbw))
        freqs, psd = signal.welch(
            whole.jdiff, fs=whole.sample_rate, window="hann", nperseg=nperseg,
            noverlap=nperseg // 2, detrend="constant", scaling="density",
        )
        spec = report.spectra["difference_current"]
        np.testing.assert_array_equal(spec.freqs_hz, freqs)
        assert np.max(np.abs(spec.psd - psd) / psd) <= 1e-12

        checks = {c.name: c.value for c in report.checks}
        w = 2.0 * math.pi * scene.f_het_hz * dt
        direct = 2.0 * abs(np.dot(whole.jdiff, np.exp(-1j * w * np.arange(n)))) ** 2 / n**2
        floor = report.scalars["floor_mean"]
        assert checks["beatnote_power"] == pytest.approx(direct - floor / whole.duration, rel=1e-12)
        integrated = float(np.trapezoid(psd, freqs))
        assert checks["parseval_ratio"] == pytest.approx(
            integrated / float(np.var(whole.jdiff)), rel=1e-12
        )
        to_current = scene.det.charge / dt
        product = (whole.j1 - means[0] * to_current) * (whole.j2 - means[1] * to_current)
        z = product.mean() / (product.std(ddof=1) / math.sqrt(n))
        assert checks["arm_cross_covariance_z"] == pytest.approx(z, rel=1e-12)

    def test_memory_stays_within_blocks(self):
        # the whole 2.5e6-sample record would take 20 MB per array;
        # the streamed pass holds a few blocks of 2^16 samples
        tracemalloc.start()
        try:
            run_experiment("default", self.SCENE, seed=DEFAULT_SEED)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_report_does_not_depend_on_the_blas_thread_count(self):
        # a BLAS dot product splits a long vector over the thread count read
        # when numpy loads, which changes its last bits; the sums call no BLAS
        src = str(Path(montecarlo.__file__).resolve().parents[1])
        code = (
            f"import sys; sys.path.insert(0, {src!r}); "
            "from bilodyne.config import RunConfig; from bilodyne.montecarlo import run_experiment; "
            "scene = RunConfig.defaults({'measurement.duration_s': 0.25}).build_scene(); "
            f"report = run_experiment('default', scene, seed={DEFAULT_SEED}); "
            "print([c.value.hex() for c in report.checks])"
        )
        values = {
            threads: subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, check=True,
                env={**os.environ, **{f"{lib}_NUM_THREADS": threads for lib in ("OPENBLAS", "OMP", "MKL")}},
            ).stdout
            for threads in ("1", "2")
        }
        assert values["1"] == values["2"] != ""


def test_counting_run_in_blocks_matches_one_draw():
    # the sensitivity run's input side draws its counting windows _BLOCK at a time
    scan = RunConfig.defaults({"scan.powers_nw": (0.5,), "scan.count_windows": 70_000}).build_scan()
    report = run_experiment("sensitivity", scan, seed=DEFAULT_SEED)
    (child,) = np.random.SeedSequence(DEFAULT_SEED).spawn(1)
    _, count = child.spawn(2)
    rng = np.random.default_rng(int(count.generate_state(1, dtype=np.uint64)[0] >> 1))
    flux = scan.powers_w[0] / scan.photon_energy_j
    n_mean = rng.poisson(scan.scenes[0].det.eta * flux * scan.window_s, 70_000).mean()
    assert report.scalars["rows"][0]["snr_in_db"] == 10.0 * math.log10(n_mean)


def _raised_by(run, timeout: float = 60.0):
    """The exception run() raises, from a thread joined with a timeout, so that a hang fails."""
    caught = []

    def target():
        try:
            run()
        except BaseException as exc:  # handed to the test, which checks it
            caught.append(exc)

    runner = threading.Thread(target=target)
    runner.start()
    runner.join(timeout)
    assert not runner.is_alive(), f"the run did not end within {timeout} s"
    return caught[0] if caught else None


class TestTwoThreadPass:
    """The streamed pass's drawing thread: its errors, an early exit, and the serial path."""

    # 5e5 samples: 8 blocks, so the pass runs on two threads
    SCENE = RunConfig.defaults({"measurement.duration_s": 0.05}).build_scene()

    def test_drawing_error_is_raised_and_the_thread_ends(self, monkeypatch):
        error = InvalidSpec("third block")
        real = montecarlo._bin_mean_blocks

        def two_blocks_then_fail(*args):
            blocks = real(*args)
            yield next(blocks)
            yield next(blocks)
            raise error

        monkeypatch.setattr(montecarlo, "_bin_mean_blocks", two_blocks_then_fail)
        before = threading.active_count()
        raised = _raised_by(lambda: run_experiment("default", self.SCENE, seed=DEFAULT_SEED))
        assert raised is error
        assert threading.active_count() == before

    def test_consumer_error_is_raised_and_the_thread_ends(self, monkeypatch):
        error = InvalidSpec("third Welch block")
        calls = itertools.count(1)
        real_add = montecarlo._Welch.add

        def add(welch, x):
            if next(calls) == 3:
                raise error
            real_add(welch, x)

        monkeypatch.setattr(montecarlo._Welch, "add", add)
        before = threading.active_count()
        raised = _raised_by(lambda: run_experiment("default", self.SCENE, seed=DEFAULT_SEED))
        assert raised is error
        assert threading.active_count() == before

    def test_frequent_thread_switches_change_no_count(self):
        scene = self.SCENE
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            report = run_experiment("default", scene, seed=DEFAULT_SEED, keep_traces=True)
        finally:
            sys.setswitchinterval(interval)
        seed = int(np.random.SeedSequence(DEFAULT_SEED).generate_state(1, dtype=np.uint64)[0] >> 1)
        n = int(round(scene.meas.duration * scene.meas.sample_rate))
        means = bin_means(scene.state, scene.lo, scene.det, n, 1.0 / scene.meas.sample_rate)
        counts = sample_bin_counts(means, seed)
        totals = report.scalars["counts_1"], report.scalars["counts_2"]
        assert totals == tuple(int(c.sum()) for c in counts)
        whole = synthesize_current(counts, scene.det, scene.meas.sample_rate)
        assert report.traces["difference_current"].jdiff.tobytes() == whole.jdiff.tobytes()

    def test_only_a_record_of_several_blocks_starts_a_thread(self, monkeypatch):
        seen = []
        real = montecarlo.synthesize_current

        def counting_threads(*args):
            seen.append(threading.active_count())
            return real(*args)

        monkeypatch.setattr(montecarlo, "synthesize_current", counting_threads)
        before = threading.active_count()
        # three scan records of 6,800 samples, one block each
        run_experiment("sensitivity", RunConfig.defaults().build_scan(), seed=DEFAULT_SEED)
        assert seen == [before] * 3
        seen.clear()
        run_experiment("shot-floor", self.SCENE, seed=DEFAULT_SEED)
        assert len(seen) == 8 and set(seen) == {before + 1}
        assert threading.active_count() == before
