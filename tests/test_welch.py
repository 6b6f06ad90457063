"""The streamed Welch sum and the slope test against their scipy references.

scipy is imported here only: the package computes both in numpy.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from scipy import signal, stats

from bilodyne.analytic import Spectrum, SpectrumKind
from bilodyne.model import MeasurementConfig
from bilodyne.montecarlo import (
    _BLOCK,
    CurrentTrace,
    _Welch,
    estimate_psd,
    flatness_t_statistic,
)

FS = 1.0e6


def _record(n: int, seed: int = 3) -> np.ndarray:
    """White noise on a DC offset with a tone, so detrending and lines both count."""
    rng = np.random.default_rng(seed)
    t = np.arange(n) / FS
    return 5.0 + rng.standard_normal(n) + 0.3 * np.cos(2.0 * math.pi * 1.1e4 * t)


def _scipy_welch(x: np.ndarray, nperseg: int):
    return signal.welch(
        x,
        fs=FS,
        window="hann",
        nperseg=nperseg,
        noverlap=nperseg // 2,
        detrend="constant",
        scaling="density",
    )


def _chunks(x: np.ndarray, sizes):
    start = 0
    for size in itertools.cycle(sizes):
        if start >= x.size:
            return
        yield x[start : start + size]
        start += size


# (nperseg, record length): even and odd segments, records that are not
# a multiple of the hop or of _BLOCK, and segments longer than a block
GEOMETRIES = [
    (1000, 3 * _BLOCK + 12345),
    (999, 200_003),
    (8, 10_001),
    (9, 4_099),
    (70_001, 300_000),
]


class TestWelchAgainstScipy:
    @pytest.mark.parametrize("nperseg, n", GEOMETRIES)
    def test_one_chunk(self, nperseg, n):
        x = _record(n)
        freqs, ref = _scipy_welch(x, nperseg)
        welch = _Welch(nperseg, FS)
        welch.add(x)
        spec = welch.spectrum()
        np.testing.assert_array_equal(spec.freqs_hz, freqs)
        assert np.max(np.abs(spec.psd - ref) / ref) <= 1e-12
        assert spec.rbw_hz == FS / nperseg

    @pytest.mark.parametrize("nperseg, n", GEOMETRIES)
    def test_uneven_chunks(self, nperseg, n):
        x = _record(n, seed=5)
        _, ref = _scipy_welch(x, nperseg)
        hop = nperseg - nperseg // 2
        sizes = (1, nperseg - 1, 3 * hop + 7, _BLOCK, 2, 2 * _BLOCK + 3, nperseg + 1)
        welch = _Welch(nperseg, FS)
        for chunk in _chunks(x, sizes):
            welch.add(chunk)
        assert welch.segments == (n - nperseg) // hop + 1
        assert np.max(np.abs(welch.spectrum().psd - ref) / ref) <= 1e-12

    def test_estimate_psd_is_the_one_chunk_sum(self):
        x = _record(150_000)
        trace = CurrentTrace(j1=x, j2=np.zeros_like(x), jdiff=x, dt=1.0 / FS)
        cfg = MeasurementConfig(duration=0.15, rbw=1e3, sample_rate=FS, n_segments=16)
        freqs, ref = _scipy_welch(x, 1000)
        spec = estimate_psd(trace, cfg)
        np.testing.assert_array_equal(spec.freqs_hz, freqs)
        assert np.max(np.abs(spec.psd - ref) / ref) <= 1e-12


class TestFlatnessAgainstScipy:
    @pytest.mark.parametrize("slope", [0.0, 2e-5, -1e-4])
    def test_matches_linregress_and_t_ppf(self, slope):
        rng = np.random.default_rng(17)
        f = np.arange(0.0, 3001.0)
        psd = 1.0 + slope * f + 0.05 * rng.standard_normal(f.size)
        mask = np.abs(f - 1000.0) > 2.0
        spec = Spectrum(freqs_hz=f, psd=psd, rbw_hz=1.0, kind=SpectrumKind.ESTIMATED)
        t_stat, t_crit = flatness_t_statistic(spec, mask)
        fit = stats.linregress(f[mask][::3], psd[mask][::3])
        ref_t = fit.slope / fit.stderr
        ref_crit = stats.t.ppf(0.975, f[mask][::3].size - 2)
        assert t_crit == ref_crit
        assert abs(t_stat - ref_t) <= 1e-12 * max(1.0, abs(ref_t))
