"""Stochastic photoemission sampler, the streamed pass's currents, sums and trace."""

from __future__ import annotations

import dataclasses
import itertools
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bilodyne import correlators, montecarlo
from bilodyne.config import MEASUREMENT_KEYS, SCAN_KEYS, RunConfig
from bilodyne.errors import (
    ConfigViolation,
    InvalidSpec,
    NonClassicalInput,
    TooShort,
    Unresolved,
)
from bilodyne.io import TraceWriter, read_trace_bin
from bilodyne.model import MAX_RECORD_SAMPLES, TWO_PI, Hypothesis, MeasurementConfig
from bilodyne.montecarlo import (
    _BLOCK,
    _SUB,
    _THIN_PEAK_MEAN,
    CheckResult,
    ExperimentReport,
    _arm_counts,
    _arm_phasors,
    _arm_rngs,
    _bin_mean_blocks,
    _block_currents,
    _check_scene,
    _Lockin,
    _Moments,
    _Welch,
    flatness_t_statistic,
    floor_statistics,
    run_experiment,
)
from bilodyne.analytic import Spectrum
from tests.conftest import (
    DEFAULT_SEED,
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
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
ALPHA = math.sqrt(2.0 * SIGNAL_FLUX)
E_LO = math.sqrt(LO_FLUX)


def intensity_rate(state, lo, det, arm: int, t) -> np.ndarray:
    """Photoemission rate eta/2 |E_lo(t) -+ i M(t)|^2 of one arm over the times t.

    Evaluated in the rotating frame, so exact at any t: the reference
    that the bin means are checked against by quadrature.
    """
    (t_offs, t_amps), (m_offs, m_amps) = _arm_phasors(state, lo)
    offsets = np.concatenate([t_offs, m_offs])
    amps = np.concatenate([t_amps, m_amps if arm == 1 else -m_amps])
    field = np.exp(-1j * np.multiply.outer(np.asarray(t, dtype=float), offsets)) @ amps
    return 0.5 * det.eta * np.abs(field) ** 2


def bin_means(state, lo, det, n: int, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Both arms' bin means of a whole record, each block copied out before the next is made."""
    blocks = _bin_mean_blocks(state, lo, det, n, dt)  # checks n and dt first
    arms = np.empty(n), np.empty(n)
    for start, means in zip(range(0, n, _BLOCK), blocks):
        for whole, part in zip(arms, means):
            whole[start : start + part.size] = part
    return arms


def _read_only(view: np.ndarray) -> np.ndarray:
    view.setflags(write=False)
    return view


def sample_bin_counts(means, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Both arms' counts of a whole record, drawn by the streamed pass's worker generator.

    _block_currents yields only the difference current, so each arm's
    counts are read from a run of unit pulses with the other arm's means
    set to zero: each arm draws from its own stream, so the other arm's
    means change none of its counts.  How a block is drawn depends on
    its means, so only the pass's blocks reproduce its counts.  The
    blocks are read-only views, so a write into the means raises.
    """
    zero = np.zeros(means[0].size)
    arms = []
    for alone, sign in (((means[0], zero), 1.0), ((zero, means[1]), -1.0)):
        blocks = (
            tuple(_read_only(mu[s : s + _BLOCK]) for mu in alone)
            for s in range(0, zero.size, _BLOCK)
        )
        # each block's current is copied before the next overwrites its buffer
        currents = _block_currents(blocks, _arm_rngs(seed), 1.0, 0.0, *_worker_sums())
        arms.append(np.concatenate([sign * jdiff for jdiff in currents]).astype(np.int64))
    return tuple(arms)


def _worker_sums():
    """Fresh totals and covariance, lock-in and variance sums for _block_currents to feed."""
    return [0, 0], _Moments(), _Lockin(0.0, 1.0, _BLOCK), _Moments()


def _counts(rng, mu: np.ndarray) -> np.ndarray:
    """The counts _arm_counts draws for the means mu, in a buffer of their own."""
    counts, _, _ = _arm_counts(rng, mu, np.empty(mu.size))
    return counts


def _record_seed(seed: int) -> int:
    """The seed of a scenario's record, drawn from the run's seed as _scenario_record draws it."""
    return int(np.random.SeedSequence(seed).generate_state(1, dtype=np.uint64)[0] >> 1)


def _traced_run(tmp_path, scenario: str, scene, seed: int):
    """run_experiment with a trace writer; returns (report, dt, samples) of trace.bin."""
    with TraceWriter(tmp_path / "trace.bin") as trace:
        report = run_experiment(scenario, scene, seed=seed, trace=trace)
    return (report, *read_trace_bin(tmp_path / "trace.bin"))


class TestIntensityRate:
    """The quadrature's reference rate itself."""

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
            if n >= _BLOCK + 1500:
                # across the first block's end, which also ends a sub-table;
                # the scan's one block has its sub-table seam in the tail
                seam = _quadrature_bin_means(scene, arm, _BLOCK - 1500, _BLOCK + 1500, dt)
                assert np.max(np.abs(mean[_BLOCK - 1500 : _BLOCK + 1500] - seam) / seam) <= 1e-10
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

    def test_squeezed_input_rejected(self):
        state = squeezed_state(Hypothesis.ONE_FIELD)
        with pytest.raises(NonClassicalInput):
            bin_means(state, standard_lo(), standard_detector(), 10, 1e-7)


def _beat_amplitude(state, lo, n: int = 100) -> float:
    """Amplitude of the beat in the arms' mean count difference, per second, at the LO offset.

    The n bins span one period of the offset Omega, so projecting the
    difference onto e^{-i Omega t_c} over them keeps the beat alone;
    dividing by dt sinc(Omega dt / 2) undoes the bin integral.
    """
    omega = abs(correlators.tone_phasors(lo)[0][0])
    dt = TWO_PI / (omega * n)
    m1, m2 = bin_means(state, lo, standard_detector(), n, dt)
    t_c = (np.arange(n) + 0.5) * dt
    projection = 2.0 / n * abs(np.sum((m1 - m2) * np.exp(-1j * omega * t_c)))
    return float(projection / (dt * np.sinc(omega * dt / TWO_PI)))


class TestBeatAmplitude:
    """The mean difference current's beat, read off one beat period of bin means (unit charge)."""

    @pytest.mark.parametrize("theta_s", [0.0, 0.7])
    def test_follows_the_signal_phase(self, theta_s):
        # the bichromatic LO's beat is 2 eta alpha E_l cos(theta_s - theta_bar), theta_bar = 0 here
        expected = 2.0 * ETA * ALPHA * E_LO * abs(math.cos(theta_s))
        assert _beat_amplitude(coherent_state(theta_s=theta_s), standard_lo()) == pytest.approx(
            expected, rel=1e-9
        )

    def test_quadrature_phase_cancels(self):
        # at theta_s - theta_bar = pi/2 the two tones' beats are equal and opposite
        amplitude = _beat_amplitude(coherent_state(theta_s=math.pi / 2.0), standard_lo())
        assert amplitude < 1e-9 * 2.0 * ETA * ALPHA * E_LO

    def test_mono_lo_offset_by_the_beat(self):
        # one tone at omega_s + Omega carries the whole LO flux: sqrt(2) eta alpha E_l
        lo = mono_lo(omega=OMEGA_S + OMEGA_HET)
        assert _beat_amplitude(coherent_state(), lo) == pytest.approx(
            math.sqrt(2.0) * ETA * ALPHA * E_LO, rel=1e-9
        )


class TestToneOffsets:
    """Every mode and LO tone sits at exactly 2 pi times its configured offset from the carrier.

    So the sampler draws its tones at +-2 pi f_het, bit for bit, and the
    lock-in, at lo.omega_het, runs at that very beat.
    """

    @staticmethod
    def assert_sampled_at(scene, f_het_hz: float):
        d = TWO_PI * f_het_hz
        # the sampler refuses a squeezed state, so its pair is dropped here
        state = dataclasses.replace(scene.state, squeeze=())
        (tones, _), (modes, _) = _arm_phasors(state, scene.lo)
        assert tones.tolist() == [d, -d]
        assert modes.tolist() == [m.frequency for m in scene.state.modes]
        assert modes[0] == 0.0
        assert scene.lo.omega_het == d

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"lo.f_het_hz": 50.0},
            {"lo.f_het_hz": 0.05},
            {"field.carrier_hz": 1.0e14, "lo.f_het_hz": 3.7e4},
            {"field.carrier_hz": 5.0e8},
        ],
        ids=["default", "50Hz", "0.05Hz", "1e14Hz-carrier", "rf-carrier"],
    )
    def test_config_scene(self, overrides):
        cfg = RunConfig.defaults(overrides)
        self.assert_sampled_at(cfg.build_scene(), cfg.values["lo.f_het_hz"])

    @pytest.mark.parametrize("name", ["default.cfg", "sensitivity.cfg", "squeezed.cfg"])
    def test_shipped_config_and_its_scan(self, name):
        cfg = RunConfig.load(CONFIGS / name)
        scene = cfg.build_scene()
        self.assert_sampled_at(scene, cfg.values["lo.f_het_hz"])
        if cfg.values["squeeze.enabled"]:
            d = TWO_PI * cfg.values["squeeze.offset_hz"]
            assert [m.frequency for m in scene.state.modes] == [0.0, d, -d]
            assert [(p.freq_a, p.freq_b) for p in scene.state.squeeze] == [(d, -d)]
        for scan_scene in cfg.build_scan().scenes:
            self.assert_sampled_at(scan_scene, cfg.values["scan.f_het_hz"])

    def test_squeeze_offset_below_the_old_resolution(self):
        # a 10 Hz offset is 3.5e-14 of the carrier: the pair builds, and its
        # lines sit at exactly the tones' and modes' offset differences
        cfg = RunConfig.defaults({"squeeze.enabled": True, "squeeze.offset_hz": 10.0})
        scene = cfg.build_scene()
        w, d = TWO_PI * 1e5, TWO_PI * 10.0
        assert [m.frequency for m in scene.state.modes] == [0.0, d, -d]
        lines = correlators.excess_lines(scene.state, scene.lo)
        assert [nu for nu, _ in lines] == [w - d, w + d]
        assert all(power > 0.0 for _, power in lines)

    def test_zero_squeeze_offset_is_a_duplicate_mode(self):
        cfg = RunConfig.defaults({"squeeze.enabled": True, "squeeze.offset_hz": 0.0})
        with pytest.raises(ConfigViolation, match="squeeze.offset_hz: duplicate mode frequency"):
            cfg.build_scene()


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


class _Candidates:
    """A generator stand-in for _arm_counts' thinning path: the given candidates' bins and uniforms.

    It records the arguments of its calls, in order.
    """

    def __init__(self, bins, uniforms):
        self.bins = np.array(bins, dtype=np.int64)
        self.uniforms = np.array(uniforms, dtype=float)
        self.calls = []

    def poisson(self, lam):
        self.calls.append(("poisson", lam))
        return self.bins.size

    def integers(self, low, high, size):
        self.calls.append(("integers", low, high, size))
        return self.bins[:size].copy()

    def random(self, size):
        self.calls.append(("random", size))
        return self.uniforms[:size].copy()


class TestArmCounts:
    """The two ways _arm_counts draws a block: thinning, or one draw per bin."""

    def _default_means(self, n: int = 4 * _BLOCK) -> tuple[np.ndarray, np.ndarray]:
        scene = RunConfig.defaults().build_scene()
        return bin_means(scene.state, scene.lo, scene.det, n, 1.0 / scene.meas.sample_rate)

    def test_default_scene_takes_the_sparse_path_and_the_scan_the_dense(self):
        for mu in self._default_means(_BLOCK):
            assert float(mu.mean()) > 0.03 and float(mu.max()) <= _THIN_PEAK_MEAN
        scene = RunConfig.defaults().build_scan().scenes[0]
        n = int(round(scene.meas.duration * scene.meas.sample_rate))
        for mu in bin_means(scene.state, scene.lo, scene.det, n, 1.0 / scene.meas.sample_rate):
            assert float(mu.min()) > _THIN_PEAK_MEAN

    def test_sparse_totals_and_dispersion_match_the_means(self):
        # the default scene's ~0.035 expected per bin, with the LO beat taking
        # the bins near its nodes down to ~3e-5
        means = self._default_means()
        for mu, c in zip(means, sample_bin_counts(means, seed=13)):
            total = float(mu.sum())
            assert abs(int(c.sum()) - total) <= 4.0 * math.sqrt(total)
            # E[(c - mu)^2 / mu] = 1 per bin, with variance 2 + 1 / mu
            ratio = (c - mu) ** 2 / mu
            se = math.sqrt(float(np.mean(2.0 + 1.0 / mu)) / mu.size)
            assert abs(float(ratio.mean()) - 1.0) <= 4.0 * se

    def test_sparse_counts_follow_the_rate_within_a_beat_period(self):
        # the LO intensity beats with a period of 50 bins; summed over the
        # record, each of the 50 phases must get counts in proportion to
        # its mean, whose span is over five hundredfold
        mu = self._default_means(_BLOCK)[0][: 50 * (_BLOCK // 50)]
        counts = np.zeros(mu.size)
        rng, out = np.random.default_rng(17), np.empty(mu.size)
        for _ in range(100):
            counts += _arm_counts(rng, mu, out)[0]
        expect = 100.0 * mu.reshape(-1, 50).sum(axis=0)
        got = counts.reshape(-1, 50).sum(axis=0)
        assert expect.max() > 500.0 * expect.min()
        chi2 = float(np.sum((got - expect) ** 2 / expect))
        assert chi2 < 49 + 6.0 * math.sqrt(2 * 49)

    def test_zero_mean_bins_get_no_counts(self):
        mu = self._default_means(_BLOCK)[0].copy()
        mu[1000:3000] = 0.0  # inside the block
        mu[-700:] = 0.0  # at its end
        mu[:5] = 0.0  # at its start
        rng, out = np.random.default_rng(3), np.empty(mu.size)
        for _ in range(20):  # each block's counts made in the same buffer
            c, _, _ = _arm_counts(rng, mu, out)
            assert c.shape == mu.shape
            assert not np.any(c[mu == 0.0])
            assert int(c.sum()) > 0

    def test_a_candidate_is_kept_only_below_its_bins_mean(self):
        # the peak 0.25 sets the candidate count; a candidate in bin i is kept
        # when u * 0.25 < mu[i]: just below a mean it is kept, on it dropped,
        # and a bin of zero mean keeps none, not even at u = 0
        mu = np.zeros(8)
        mu[[2, 5]] = 0.25, 0.125
        top = float(np.nextafter(1.0, 0.0))  # the largest value Generator.random gives
        below_half = float(np.nextafter(0.5, 0.0))
        rng = _Candidates(bins=[2, 5, 5, 0, 7], uniforms=[top, 0.5, below_half, 0.0, 0.0])
        c, total, bins = _arm_counts(rng, mu, np.full(8, -1.0))
        np.testing.assert_array_equal(c, [0, 0, 1, 0, 0, 1, 0, 0])
        assert total == 2 and sorted(bins.tolist()) == [2, 5]
        assert rng.calls == [("poisson", 2.0), ("integers", 0, 8, 5), ("random", 5)]

    def test_one_dense_bin_sends_its_block_to_the_dense_path(self):
        # a block of small average but one bin far above the crossover: the
        # peak sets the candidate count, so the block takes one draw per bin
        mu = self._default_means(_BLOCK)[0].copy()
        mu[4321] = 40.0 * _THIN_PEAK_MEAN
        assert float(mu.mean()) < 0.04
        c = _counts(np.random.default_rng(9), mu)
        np.testing.assert_array_equal(c, np.random.default_rng(9).poisson(mu))

    @pytest.mark.parametrize(
        "peak", [1.0001 * _THIN_PEAK_MEAN, 2.0, 2340.0], ids=["crossover", "two", "scan"]
    )
    def test_dense_path_is_one_poisson_draw_per_bin(self, peak):
        mu = self._default_means(_BLOCK)[0]
        mu = mu * (peak / float(mu.max()))
        c = _counts(np.random.default_rng(9), mu)
        np.testing.assert_array_equal(c, np.random.default_rng(9).poisson(mu))

    @pytest.mark.parametrize("peak", [0.073, 2340.0], ids=["thinned", "dense"])
    def test_total_is_the_sum_of_the_counts(self, peak):
        # the worker adds the returned total to the arm's photoemission count
        # without summing the block; every bin with a count is among bins
        mu = self._default_means(_BLOCK)[0]
        mu = mu * (peak / float(mu.max()))
        rng, out = np.random.default_rng(4), np.empty(mu.size)
        for _ in range(5):
            c, total, bins = _arm_counts(rng, mu, out)
            assert type(total) is int and total == int(c.sum()) > 0
            hit = np.zeros(mu.size, dtype=bool)
            hit[bins] = True
            assert not np.any(c[~hit])

    def test_each_arm_draws_from_its_own_child_stream(self):
        # the worker's difference current and totals are those of the two
        # children of the seed, each drawing its own block; identical means
        # keep the arms' paths alike: thinning for the default block, one
        # draw per bin for that block scaled to one count per bin on average
        block = self._default_means(_BLOCK)[0]
        for mu in (block, block * (1.0 / float(block.mean()))):
            sums = _worker_sums()
            totals = sums[0]
            currents = _block_currents(iter([(mu, mu)]), _arm_rngs(21), 1.0, 0.0, *sums)
            (jdiff,) = currents
            children = np.random.SeedSequence(21).spawn(2)
            counts = [_counts(np.random.default_rng(child), mu) for child in children]
            np.testing.assert_array_equal(jdiff, counts[0] - counts[1])
            assert totals == [int(c.sum()) for c in counts]
            assert np.any(jdiff)


class TestStreamedCurrent:
    """The difference current the streamed pass forms and writes to the trace."""

    SCENE = RunConfig.defaults({"measurement.duration_s": 0.02}).build_scene()

    def test_delta_pulses_conserve_charge_exactly(self, tmp_path):
        report, dt, jdiff = _traced_run(tmp_path, "shot-floor", self.SCENE, seed=3)
        charge = report.scalars["counts_1"] - report.scalars["counts_2"]
        assert float(jdiff.sum()) * dt == pytest.approx(charge, abs=1e-6)

    def test_trace_geometry(self, tmp_path):
        _, dt, jdiff = _traced_run(tmp_path, "shot-floor", self.SCENE, seed=3)
        assert jdiff.size == 200000
        assert dt == 1.0 / self.SCENE.meas.sample_rate
        assert jdiff.size * dt == pytest.approx(0.02)


def _cosine(amp: float, f_hz: float, fs: float, duration: float) -> np.ndarray:
    t = np.arange(int(round(duration * fs))) / fs
    return amp * np.cos(2.0 * math.pi * f_hz * t)


def _welch_psd(x: np.ndarray, fs: float, cfg: MeasurementConfig):
    """The streamed pass's Welch sum over the record x fed as one chunk."""
    welch = _Welch(int(round(fs / cfg.rbw)), fs)
    welch.add(x)
    return welch.spectrum()


def _lockin_power(x: np.ndarray, f_hz: float, dt: float) -> float:
    lockin = _Lockin(TWO_PI * f_hz, dt, x.size)
    lockin.add(x)
    return lockin.power()


def _scene_measured_by(cfg: MeasurementConfig):
    return dataclasses.replace(RunConfig.defaults().build_scene(), meas=cfg)


class TestEstimatePsd:
    def test_record_must_hold_sixteen_segments(self):
        # 16 segments of 1 / rbw are 16,000 samples at 1 MHz: one sample
        # fewer is refused, naming both keys, and exactly 16 / rbw is admitted
        short = MeasurementConfig(duration=15_999 / 1e6, rbw=1e3, sample_rate=1e6)
        with pytest.raises(TooShort, match="measurement.duration_s: .*measurement.rbw_hz"):
            _check_scene(_scene_measured_by(short), MEASUREMENT_KEYS)
        exact = MeasurementConfig(duration=16 / 1e3, rbw=1e3, sample_rate=1e6)
        _check_scene(_scene_measured_by(exact), MEASUREMENT_KEYS)

    def test_scan_record_rule_names_the_scan_keys(self):
        # the scan's scenes meet the same 16-segment rule, and the refusal
        # names the scan.* pair the scene's record was set under
        short = MeasurementConfig(duration=15_999 / 1e6, rbw=1e3, sample_rate=1e6)
        with pytest.raises(TooShort, match="scan.duration_s: .*scan.rbw_hz"):
            _check_scene(_scene_measured_by(short), SCAN_KEYS)
        exact = MeasurementConfig(duration=16 / 1e3, rbw=1e3, sample_rate=1e6)
        _check_scene(_scene_measured_by(exact), SCAN_KEYS)

    def test_short_record_rejected(self):
        cfg = MeasurementConfig(duration=0.01, rbw=1e3, sample_rate=1e6)
        with pytest.raises(TooShort, match="measurement.duration_s: .*measurement.rbw_hz"):
            _check_scene(_scene_measured_by(cfg), MEASUREMENT_KEYS)

    def test_pure_tone_line_power(self):
        amp, f0 = 3.0, 1.2e4
        cfg = MeasurementConfig(duration=0.1, rbw=1e3, sample_rate=1e6)
        spec = _welch_psd(_cosine(amp, f0, 1e6, 0.1), 1e6, cfg)
        # the Hann line's bins within 2 rbw, on a floor of zero
        band = np.abs(spec.freqs_hz - f0) <= 2.0 * spec.rbw_hz
        power = float(np.sum(spec.psd[band])) * (spec.freqs_hz[1] - spec.freqs_hz[0])
        assert power == pytest.approx(amp**2 / 2.0, rel=1e-2)

    def test_parseval_for_pure_tone(self):
        x = _cosine(3.0, 1.2e4, 1e6, 0.1)
        cfg = MeasurementConfig(duration=0.1, rbw=1e3, sample_rate=1e6)
        spec = _welch_psd(x, 1e6, cfg)
        integrated = float(np.trapezoid(spec.psd, spec.freqs_hz))
        assert integrated == pytest.approx(np.var(x), rel=1e-2)

    def test_shot_noise_floor_of_poisson_difference(self):
        # vacuum signal: the difference of the two arm currents is pure
        # shot noise with one-sided floor 2 eta e^2 E_l^2
        state = coherent_state(flux=0.0)
        lo = standard_lo()
        det = standard_detector()
        counts = sample_bin_counts(bin_means(state, lo, det, 2500000, 1e-7), seed=12)
        jdiff = (counts[0] - counts[1]) * (1.0 * 1e7)
        cfg = MeasurementConfig(duration=0.25, rbw=1e3, sample_rate=1e7)
        spec = _welch_psd(jdiff, 1e7, cfg)
        floor_mean, _, _ = floor_statistics(spec, 1e5)
        assert floor_mean == pytest.approx(2.0 * ETA * LO_FLUX, rel=0.03)


class TestLockinPower:
    def test_pure_tone_on_the_record_grid(self):
        # 150000 samples are two whole blocks and a tail; 0.15 s holds
        # 1800 periods of 12 kHz
        amp, f0, fs = 3.0, 1.2e4, 1e6
        x = _cosine(amp, f0, fs, 0.15)
        assert _lockin_power(x, f0, 1.0 / fs) == pytest.approx(amp**2 / 2.0, rel=1e-9)

    @pytest.mark.parametrize("phase", [math.pi / 3.0, math.pi / 2.0, math.pi, 1.25 * math.pi])
    def test_pure_tone_at_any_phase(self, phase):
        # the scan reads its beat at whatever phase the line has against the table
        amp, f0, fs = 3.0, 1.2e4, 1e6
        t = np.arange(150000) / fs
        x = amp * np.cos(TWO_PI * f0 * t + phase)
        assert _lockin_power(x, f0, 1.0 / fs) == pytest.approx(amp**2 / 2.0, rel=1e-9)

    @pytest.mark.parametrize("cycles", [0.1, 0.25, 0.5, 0.9, 1.0])
    def test_detuned_tone_keeps_the_dirichlet_share(self, cycles):
        # a line `cycles` / T off the lock-in keeps the squared Dirichlet
        # kernel sin^2(n u) / (n sin u)^2, u = pi delta dt, of its power:
        # 0.754 at 0.0144 Hz over 20 s, the gap between a configured and a
        # sampled 50 Hz beat.  The image at 2 f0 adds under 1e-3 here.
        amp, f0, fs, n = 3.0, 1.2e4, 1e6, 150000
        delta = cycles * fs / n
        x = amp * np.cos(TWO_PI * (f0 + delta) * np.arange(n) / fs)
        u = math.pi * delta / fs
        share = (math.sin(n * u) / (n * math.sin(u))) ** 2
        assert _lockin_power(x, f0, 1.0 / fs) == pytest.approx(
            amp**2 / 2.0 * share, rel=2e-3, abs=1e-9
        )

    @pytest.mark.parametrize("chunk", [1000, _SUB - 1, _SUB, _SUB + 1, 2 * _SUB + 3])
    def test_chunks_match_the_whole_record(self, chunk):
        # the streamed pass feeds the lock-in block by block; where the
        # chunks split the table changes only the last bits
        x = np.random.default_rng(8).standard_normal(3 * _SUB + 17)
        whole = _lockin_power(x, 1.2e4, 1e-6)
        lockin = _Lockin(TWO_PI * 1.2e4, 1e-6, x.size)
        for start in range(0, x.size, chunk):
            lockin.add(x[start : start + chunk])
        assert lockin.power() == pytest.approx(whole, rel=1e-12)

    def test_matches_the_direct_sum(self):
        x = np.random.default_rng(4).standard_normal(150001)
        w = 2.0 * math.pi * 1.2e4 * 1e-6
        direct = 2.0 * abs(np.sum(x * np.exp(-1j * w * np.arange(x.size)))) ** 2 / x.size**2
        assert _lockin_power(x, 1.2e4, 1e-6) == pytest.approx(direct, rel=1e-9)

    def test_white_noise_adds_floor_over_duration(self):
        # one-sided PSD S = 2 sigma^2 dt; the estimate averages S / T
        rng = np.random.default_rng(6)
        n, dt = 4096, 1e-6
        values = [_lockin_power(rng.standard_normal(n), 1.2e4, dt) for _ in range(300)]
        floor = 2.0 * dt / (n * dt)
        # each value is exponential about the floor: 300 give a 6 % standard error
        assert float(np.mean(values)) == pytest.approx(floor, rel=0.25)


class TestMoments:
    SIZES = (7, 4096, 1, 65536, 300)  # unequal blocks, as the streamed pass feeds them

    def test_merged_blocks_match_the_whole_record_and_are_left_as_they_are(self):
        # blocks about a large mean, which the two sums alone would cancel
        rng = np.random.default_rng(8)
        blocks = [1e3 + rng.standard_normal(n) for n in self.SIZES]
        whole = np.concatenate(blocks)
        moments = _Moments()
        for x in blocks:
            before = x.copy()
            moments.add(x)
            np.testing.assert_array_equal(x, before)
        assert moments.n == whole.size
        assert moments.mean == pytest.approx(float(whole.mean()), rel=1e-14)
        assert moments.var() == pytest.approx(float(np.var(whole)), rel=1e-10)
        assert moments.var(ddof=1) == pytest.approx(float(np.var(whole, ddof=1)), rel=1e-10)

    @pytest.mark.parametrize("quantity", ["difference current", "arm product"])
    def test_blocks_shaped_like_the_pass_match_numpy(self, quantity):
        # each arm's delta-pulse current about its mean current, over a
        # bichromatic LO's intensity: the difference current has zero mean,
        # the product of the two fluctuations the arm covariance, also ~0
        rng = np.random.default_rng(9)
        moments, parts = _Moments(), []
        for n in self.SIZES:
            means = 0.07 * (1.0 + np.cos(0.01 * np.arange(n)))
            j1, j2 = (rng.poisson(means) * 1e7 for _ in range(2))
            x = j1 - j2 if quantity == "difference current" else (j1 - 1e7 * means) * (j2 - 1e7 * means)
            parts.append(x)
            moments.add(x)
        whole = np.concatenate(parts)
        assert moments.n == whole.size
        assert abs(moments.mean - float(np.mean(whole))) <= 1e-12 * float(np.std(whole))
        assert moments.var() == pytest.approx(float(np.var(whole)), rel=1e-12)
        assert moments.var(ddof=1) == pytest.approx(float(np.var(whole, ddof=1)), rel=1e-12)


class TestFloorStatistics:
    def test_line_bins_are_excluded(self):
        f = np.arange(0.0, 1001.0)
        psd = np.ones(f.size)
        for line in (0.0, 100.0, 200.0):
            psd[np.abs(f - line) <= 2.0] = 50.0
        spec = Spectrum(freqs_hz=f, psd=psd, rbw_hz=1.0)
        mean, sigma, mask = floor_statistics(spec, 100.0)
        assert mean == pytest.approx(1.0)
        assert sigma == pytest.approx(0.0)
        assert not mask[100] and not mask[200] and not mask[0]


class TestFlatness:
    def test_flat_noise_passes(self):
        rng = np.random.default_rng(8)
        f = np.arange(0.0, 2001.0)
        psd = 1.0 + 0.01 * rng.standard_normal(f.size)
        psd = np.clip(psd, 0.0, None)
        spec = Spectrum(freqs_hz=f, psd=psd, rbw_hz=1.0)
        mask = np.ones(f.size, dtype=bool)
        t_stat, t_crit = flatness_t_statistic(spec, mask)
        assert abs(t_stat) <= t_crit

    def test_sloped_floor_fails(self):
        rng = np.random.default_rng(9)
        f = np.arange(0.0, 2001.0)
        psd = 1.0 + 5e-4 * f + 0.01 * rng.standard_normal(f.size)
        spec = Spectrum(freqs_hz=f, psd=psd, rbw_hz=1.0)
        mask = np.ones(f.size, dtype=bool)
        t_stat, t_crit = flatness_t_statistic(spec, mask)
        assert abs(t_stat) > t_crit


class TestReportTypes:
    def test_check_result_dict(self):
        check = CheckResult(name="x", value=1.0, target=1.1, tolerance=0.2, passed=True)
        d = dataclasses.asdict(check)
        assert d == {"name": "x", "value": 1.0, "target": 1.1, "tolerance": 0.2,
                     "passed": True}

    def test_report_pass_logic(self):
        good = CheckResult(name="a", value=0.0, target=0.0, tolerance=1.0, passed=True)
        bad = CheckResult(name="b", value=9.0, target=0.0, tolerance=1.0, passed=False)
        assert ExperimentReport(scenario="s", checks=[good]).passed
        assert not ExperimentReport(scenario="s", checks=[good, bad]).passed


class TestRunExperiment:
    def test_unknown_scenario(self):
        with pytest.raises(InvalidSpec):
            run_experiment("nonsense")

    @pytest.mark.parametrize(
        "scenario, scene, seed",
        [
            ("shot-floor", None, -1),
            ("shot-floor", None, 1.5),
            ("sensitivity", "scene", 0),
            ("default", "scan", 0),
        ],
        ids=["negative-seed", "fractional-seed", "scene-for-sensitivity", "scan-for-default"],
    )
    def test_library_call_refused_before_any_work(self, monkeypatch, scenario, scene, seed):
        # a library caller gets no RunConfig checks: run_experiment refuses
        # its arguments itself, before a scene is checked or a block is made
        cfg = RunConfig.defaults()
        built = {"scene": cfg.build_scene(), "scan": cfg.build_scan(), None: None}[scene]

        def no_work(*args, **kwargs):
            raise AssertionError("work started before the arguments were refused")

        monkeypatch.setattr(montecarlo, "_check_scene", no_work)
        monkeypatch.setattr(montecarlo, "_stream_record", no_work)
        monkeypatch.setattr(montecarlo.RunConfig, "defaults", no_work)
        with pytest.raises(InvalidSpec):
            run_experiment(scenario, built, seed=seed)

    @pytest.mark.parametrize(
        "change",
        [
            {"count_windows": 0},
            {"count_windows": 2.5},
            {"window_s": 0.0},
            {"window_s": math.nan},
            {"photon_energy_j": 0.0},
            {"photon_energy_j": math.inf},
            {"powers_w": ()},
            {"powers_w": (0.5e-9, -1e-9, 2e-9)},
            {"powers_w": (0.5e-9, 1e-9)},
            {"count_windows": MAX_RECORD_SAMPLES + 1},
        ],
        ids=lambda change: "-".join(f"{k}={v}" for k, v in change.items()),
    )
    def test_scan_refuses_bad_fields(self, change):
        # these ended in ZeroDivisionError or TypeError inside the scan, or
        # (no powers) in a report with no checks that passed
        scan = RunConfig.defaults().build_scan()
        with pytest.raises(InvalidSpec):
            dataclasses.replace(scan, **change)

    @pytest.mark.parametrize(
        "duration, rbw, bound",
        [(8.0, 2.0, "MAX_SEGMENT_SAMPLES"), (101.0, 1e3, "MAX_RECORD_SAMPLES")],
        ids=["segment-5e6", "record-1.01e9"],
    )
    def test_oversized_scene_refused_before_the_record(self, monkeypatch, duration, rbw, bound):
        # a measurement built directly is bounded when it is made, before any record
        def no_work(*args, **kwargs):
            raise AssertionError("the record started before the scene was refused")

        monkeypatch.setattr(montecarlo, "_stream_record", no_work)
        with pytest.raises(ConfigViolation, match=bound):
            meas = MeasurementConfig(duration=duration, rbw=rbw, sample_rate=1e7)
            scene = dataclasses.replace(RunConfig.defaults().build_scene(), meas=meas)
            run_experiment("default", scene)

    def test_one_tone_lo_is_refused_at_any_offset(self, monkeypatch):
        # one tone offset by the beat now clears the beat limits, but the
        # checks' targets are the bichromatic LO's, so it is refused as mono
        def no_work(*args, **kwargs):
            raise AssertionError("the record started before the scene was refused")

        monkeypatch.setattr(montecarlo, "_stream_record", no_work)
        scene = RunConfig.defaults().build_scene()
        for omega in (OMEGA_S, OMEGA_S + OMEGA_HET):
            one_tone = dataclasses.replace(scene, lo=mono_lo(omega=omega))
            with pytest.raises(ConfigViolation, match="lo.kind = mono"):
                run_experiment("default", one_tone)

    def test_scan_takes_a_numpy_window_count(self):
        scan = RunConfig.defaults().build_scan()
        assert dataclasses.replace(scan, count_windows=np.int64(3)).count_windows == 3

    FLOOR = ["shot_floor_level", "shot_floor_flatness_t"]
    FLOOR_SCALARS = {"floor_mean", "floor_sigma", "floor_target", "counts_1", "counts_2"}
    BEAT = ["beatnote_power"]
    BEAT_SCALARS = {"beat_power", "beat_target"}

    @pytest.mark.parametrize(
        "scenario, checks, scalars",
        [
            ("shot-floor", FLOOR, FLOOR_SCALARS),
            (
                "default",
                FLOOR + BEAT + ["parseval_ratio", "arm_cross_covariance_z"],
                FLOOR_SCALARS | BEAT_SCALARS,
            ),
            ("null-phase", ["null_phase_peak_psd"], {"floor_mean", "floor_sigma", "peak_psd"}),
        ],
        ids=["shot-floor", "default", "null-phase"],
    )
    def test_short_record_run(self, scenario, checks, scalars):
        # every single-record scenario's checks, in order, and the scalars it writes
        scene = RunConfig.defaults({"measurement.duration_s": 0.5}).build_scene()
        report = run_experiment(scenario, scene, seed=4)
        assert [c.name for c in report.checks] == checks
        assert set(report.scalars) == scalars
        assert isinstance(report.spectrum, Spectrum)
        # the level passes at every seed; the slope test's t understates its
        # standard error (Welch bins 2 f_het apart are correlated), so its
        # verdict is left to scripts/seed_sweep.py
        assert report.checks[0].passed

    def test_sensitivity_report(self):
        # one check per scan power, named by the power, in scan order, and
        # one row per power with that power
        scan = RunConfig.defaults().build_scan()
        report = run_experiment("sensitivity", scan, seed=DEFAULT_SEED)
        assert [c.name for c in report.checks] == [
            "noise_figure_0.5nW",
            "noise_figure_1.0nW",
            "noise_figure_2.0nW",
        ]
        assert set(report.scalars) == {"rows", "photon_energy_j"}
        assert [row["power_w"] for row in report.scalars["rows"]] == list(scan.powers_w)
        assert report.spectrum is None

    def test_null_phase_peak_is_the_band_maximum(self, null_phase_run):
        # the largest PSD bin within 2 rbw of f_het, on the floor's mask
        spec = null_phase_run.spectrum
        f_het = RunConfig.defaults().values["lo.f_het_hz"]
        band = np.abs(spec.freqs_hz - f_het) <= 2.0 * spec.rbw_hz
        assert np.count_nonzero(band) == 5
        (check,) = null_phase_run.checks
        assert check.value == null_phase_run.scalars["peak_psd"] == float(spec.psd[band].max())

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_lockin_runs_at_the_sampled_beat(self, seed):
        # a lock-in 0.0144 Hz off a 50 Hz line keeps sinc^2(pi 0.0144 Hz 20 s)
        # = 0.754 of its power over 20 s, and the 5 % gate fails: the lock-in
        # must run at the beat the tones carry, which is 2 pi f_het exactly
        scene = RunConfig.defaults(
            {
                "lo.f_het_hz": 50.0,
                "measurement.rbw_hz": 1.0,
                "measurement.sample_rate_hz": 1e3,
                "measurement.duration_s": 20.0,
            }
        ).build_scene()
        report = run_experiment("default", scene, seed=seed)
        (beat,) = (c for c in report.checks if c.name == "beatnote_power")
        assert beat.passed, beat

    def test_deterministic_spectra(self):
        scene = RunConfig.defaults({"measurement.duration_s": 0.25}).build_scene()
        a = run_experiment("shot-floor", scene, seed=21)
        b = run_experiment("shot-floor", scene, seed=21)
        np.testing.assert_array_equal(a.spectrum.psd, b.spectrum.psd)
        assert a.checks == b.checks

    def test_seed_sensitivity(self):
        scene = RunConfig.defaults({"measurement.duration_s": 0.25}).build_scene()
        a = run_experiment("shot-floor", scene, seed=21)
        b = run_experiment("shot-floor", scene, seed=22)
        assert not np.array_equal(a.spectrum.psd, b.spectrum.psd)

    def test_keep_traces(self, tmp_path):
        scene = RunConfig.defaults({"measurement.duration_s": 0.25}).build_scene()
        _, dt, samples = _traced_run(tmp_path, "shot-floor", scene, seed=4)
        assert samples.size * dt == pytest.approx(0.25)

    def test_failed_run_leaves_no_trace(self, tmp_path):
        # so faint a detector that the difference current is all zeros:
        # the Parseval check raises after the whole record was written
        scene = RunConfig.defaults(
            {"measurement.duration_s": 0.05, "detector.eta": 1e-302}
        ).build_scene()
        with pytest.raises(Unresolved):
            _traced_run(tmp_path, "default", scene, seed=4)
        assert list(tmp_path.iterdir()) == []

    def test_sensitivity_writes_no_trace(self, tmp_path):
        with TraceWriter(tmp_path / "trace.bin") as trace:
            run_experiment("sensitivity", seed=DEFAULT_SEED, trace=trace)
        assert list(tmp_path.iterdir()) == []


class TestStreamedRun:
    """The one-pass run against the same record held whole."""

    SCENE = RunConfig.defaults({"measurement.duration_s": 0.25}).build_scene()

    def test_matches_the_whole_record(self, tmp_path):
        scene = self.SCENE
        report, kept_dt, kept = _traced_run(tmp_path, "default", scene, DEFAULT_SEED)
        dt = 1.0 / scene.meas.sample_rate
        n = int(round(scene.meas.duration * scene.meas.sample_rate))
        means = bin_means(scene.state, scene.lo, scene.det, n, dt)
        counts = sample_bin_counts(means, _record_seed(DEFAULT_SEED))
        assert report.scalars["counts_1"] == int(counts[0].sum())
        assert report.scalars["counts_2"] == int(counts[1].sum())

        # the currents of the whole record, delta pulses of charge / dt
        j1, j2 = (c * (1.0 * scene.meas.sample_rate) for c in counts)
        jdiff = j1 - j2
        assert kept.tobytes() == jdiff.tobytes()
        assert kept_dt == dt

        from scipy import signal

        nperseg = int(round(scene.meas.sample_rate / scene.meas.rbw))
        freqs, psd = signal.welch(
            jdiff, fs=1.0 / dt, window="hann", nperseg=nperseg,
            noverlap=nperseg // 2, detrend="constant", scaling="density",
        )
        spec = report.spectrum
        np.testing.assert_array_equal(spec.freqs_hz, freqs)
        assert np.max(np.abs(spec.psd - psd) / psd) <= 1e-12

        checks = {c.name: c.value for c in report.checks}
        w = scene.lo.omega_het * dt
        direct = 2.0 * abs(np.dot(jdiff, np.exp(-1j * w * np.arange(n)))) ** 2 / n**2
        floor = report.scalars["floor_mean"]
        assert checks["beatnote_power"] == pytest.approx(direct - floor / (n * dt), rel=1e-12)
        integrated = float(np.trapezoid(psd, freqs))
        assert checks["parseval_ratio"] == pytest.approx(
            integrated / float(np.var(jdiff)), rel=1e-12
        )
        to_current = 1.0 / dt
        product = (j1 - means[0] * to_current) * (j2 - means[1] * to_current)
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

    def test_memory_is_pinned_in_blocks(self):
        # what the pass holds, in 2^16-sample float64 arrays: the bin means
        # (2), the difference current's ring (3), the arm product's factors
        # (2, which also take a thinned block's counts) and ~4.5 of the Welch
        # sum's detrended rows and spectra (2.1 each), held samples and
        # window; ~12.7 in all, where block-long tables and work arrays took
        # ~28
        block = 8 * _BLOCK
        tracemalloc.start()
        try:
            run_experiment("default", self.SCENE, seed=DEFAULT_SEED)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20 * block

    def test_memory_stays_within_blocks_with_a_trace(self, tmp_path):
        # each block's difference current goes to the file as it is made
        tracemalloc.start()
        try:
            with TraceWriter(tmp_path / "trace.bin") as trace:
                run_experiment("default", self.SCENE, seed=DEFAULT_SEED, trace=trace)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert (tmp_path / "trace.bin").stat().st_size == 32 + 8 * 2_500_000

    def test_report_does_not_depend_on_the_blas_thread_count(self):
        # a BLAS dot product splits a long vector over the thread count read
        # when numpy loads, which changes its last bits; the sums call no BLAS,
        # and the bin means' products are too small to be split
        src = str(Path(montecarlo.__file__).resolve().parents[1])
        code = (
            f"import hashlib, sys; sys.path.insert(0, {src!r}); "
            "from bilodyne.config import RunConfig; from bilodyne.montecarlo import run_experiment; "
            "scene = RunConfig.defaults({'measurement.duration_s': 0.25}).build_scene(); "
            f"report = run_experiment('default', scene, seed={DEFAULT_SEED}); "
            "print([c.value.hex() for c in report.checks], "
            "report.scalars['counts_1'], report.scalars['counts_2'], "
            "hashlib.sha256(report.spectrum.psd.tobytes()).hexdigest())"
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

    def test_frequent_thread_switches_change_no_count(self, tmp_path):
        scene = self.SCENE
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            report, _, kept = _traced_run(tmp_path, "default", scene, DEFAULT_SEED)
        finally:
            sys.setswitchinterval(interval)
        n = int(round(scene.meas.duration * scene.meas.sample_rate))
        means = bin_means(scene.state, scene.lo, scene.det, n, 1.0 / scene.meas.sample_rate)
        counts = sample_bin_counts(means, _record_seed(DEFAULT_SEED))
        totals = report.scalars["counts_1"], report.scalars["counts_2"]
        assert totals == tuple(int(c.sum()) for c in counts)
        # charge * fs is a whole number here, so both forms of the current are exact
        expected = 1.0 * scene.meas.sample_rate * (counts[0] - counts[1])
        assert kept.tobytes() == expected.tobytes()

    def test_threaded_pass_equals_the_serial_one(self, monkeypatch):
        # the worker feeds the totals and the covariance sum, the caller the
        # rest; with threads switching often, and the caller late to each
        # block so that the worker runs ahead as far as it may, every field
        # of the record must be that of the same pass run serially
        real_add = montecarlo._Welch.add

        def late_add(welch, x):
            time.sleep(0.01)
            real_add(welch, x)

        monkeypatch.setattr(montecarlo._Welch, "add", late_add)
        seed = _record_seed(DEFAULT_SEED)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = montecarlo._stream_record(self.SCENE, seed)
            monkeypatch.setattr(montecarlo, "_read_ahead", lambda pool, items: items)
            serial = montecarlo._stream_record(self.SCENE, seed)
        finally:
            sys.setswitchinterval(interval)
        assert threaded.spectrum.freqs_hz.tobytes() == serial.spectrum.freqs_hz.tobytes()
        assert threaded.spectrum.psd.tobytes() == serial.spectrum.psd.tobytes()
        assert threaded.totals == serial.totals
        assert (threaded.duration, threaded.lockin, threaded.variance, threaded.cross_z) == (
            serial.duration, serial.lockin, serial.variance, serial.cross_z
        )

    def test_only_a_record_of_several_blocks_starts_a_thread(self, monkeypatch):
        seen = []
        real = montecarlo._Welch.add

        def counting_threads(welch, x):  # called once per block
            seen.append(threading.active_count())
            return real(welch, x)

        monkeypatch.setattr(montecarlo._Welch, "add", counting_threads)
        before = threading.active_count()
        # three scan records of 6,800 samples, one block each
        run_experiment("sensitivity", RunConfig.defaults().build_scan(), seed=DEFAULT_SEED)
        assert seen == [before] * 3
        seen.clear()
        run_experiment("shot-floor", self.SCENE, seed=DEFAULT_SEED)
        assert len(seen) == 8 and set(seen) == {before + 1}
        assert threading.active_count() == before
