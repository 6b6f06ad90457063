"""The streamed Welch sum, the slope test and its t quantile against their scipy references.

scipy is imported here only: the package computes the first two in
numpy and the quantile with the standard library.  The Welch sum is
also checked bit for bit against the loop of one rfft call per group of
segments that it replaced.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from scipy import signal, special, stats

from bilodyne.analytic import Spectrum
from bilodyne.model import MeasurementConfig
from bilodyne.montecarlo import (
    _BLOCK,
    _Welch,
    flatness_t_statistic,
    student_t_quantile,
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


class _PerBatchWelch:
    """The Welch sum with each chunk's segments transformed batch segments per rfft call.

    The loop _Welch ran before it took every segment a chunk completes
    in one call: the samples so far are kept whole, and each batch is
    detrended, windowed, transformed, squared and summed on its own.
    The sums go to a _Welch of the same segment, so that its spectrum
    scales them.
    """

    def __init__(self, nperseg: int):
        self.sums = _Welch(nperseg, FS)
        self.samples = np.empty(0)

    def add(self, x: np.ndarray) -> None:
        w = self.sums
        self.samples = np.concatenate([self.samples, x])
        if self.samples.size < w.nperseg:
            return
        segs = np.lib.stride_tricks.sliding_window_view(self.samples, w.nperseg)[:: w.hop]
        for first in range(0, len(segs), w.batch):
            part = segs[first : first + w.batch]
            spec = np.fft.rfft((part - part.mean(axis=1, keepdims=True)) * w.window, axis=1)
            power = spec.real * spec.real + spec.imag * spec.imag
            w.total += power[0] if len(part) == 1 else power.sum(axis=0)
        w.segments += len(segs)
        self.samples = self.samples[len(segs) * w.hop :]


def _feed(welch, x: np.ndarray, nperseg: int, how: str) -> None:
    """Feed x to welch whole, in uneven chunks, or in uneven chunks of one reused buffer.

    The reused buffer is filled with NaN after every add, as the
    streamed pass overwrites its current buffer with every block.
    """
    if how == "whole":
        welch.add(x)
        return
    hop = nperseg - nperseg // 2
    sizes = (1, nperseg - 1, 3 * hop + 7, _BLOCK, 2, 2 * _BLOCK + 3, nperseg + 1)
    buffer = np.empty(max(sizes))
    for chunk in _chunks(x, sizes):
        if how == "reused":
            part = buffer[: chunk.size]
            part[:] = chunk
            chunk = part
        welch.add(chunk)
        buffer.fill(np.nan)


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
        welch = _Welch(nperseg, FS)
        _feed(welch, x, nperseg, "uneven")
        assert welch.segments == (n - nperseg) // welch.hop + 1
        assert np.max(np.abs(welch.spectrum().psd - ref) / ref) <= 1e-12

    @pytest.mark.parametrize("nperseg, n", [(1000, 3 * _BLOCK + 12345), (70_001, 300_000)])
    def test_chunks_from_one_reused_buffer(self, nperseg, n):
        # the streamed pass overwrites its current buffer with every block, so
        # _Welch must hold over no chunk by reference, however short it is
        x = _record(n, seed=7)
        _, ref = _scipy_welch(x, nperseg)
        welch = _Welch(nperseg, FS)
        _feed(welch, x, nperseg, "reused")
        assert welch.segments == (n - nperseg) // welch.hop + 1
        assert np.max(np.abs(welch.spectrum().psd - ref) / ref) <= 1e-12

    def test_one_chunk_at_the_configured_segment_length(self):
        x = _record(150_000)
        cfg = MeasurementConfig(duration=0.15, rbw=1e3, sample_rate=FS)
        freqs, ref = _scipy_welch(x, 1000)
        welch = _Welch(int(round(FS / cfg.rbw)), FS)
        welch.add(x)
        spec = welch.spectrum()
        np.testing.assert_array_equal(spec.freqs_hz, freqs)
        assert np.max(np.abs(spec.psd - ref) / ref) <= 1e-12


@pytest.mark.parametrize("how", ["whole", "uneven", "reused"])
@pytest.mark.parametrize("nperseg, n", GEOMETRIES)
def test_bits_match_the_per_batch_loop(nperseg, n, how):
    # each row of one rfft call over a chunk's segments must have the bits
    # it has in a call of batch rows, and the powers must still be summed
    # in groups of batch segments counted from each chunk's first, so that
    # the total, and so every spectrum, keeps its bits
    x = _record(n, seed=11)
    welch, ref = _Welch(nperseg, FS), _PerBatchWelch(nperseg)
    _feed(welch, x, nperseg, how)
    _feed(ref, x, nperseg, how)
    assert welch.segments == ref.sums.segments
    assert welch.total.tobytes() == ref.sums.total.tobytes()
    assert welch.spectrum().psd.tobytes() == ref.sums.spectrum().psd.tobytes()


class TestFlatnessAgainstScipy:
    @pytest.mark.parametrize("slope", [0.0, 2e-5, -1e-4])
    def test_matches_linregress_and_t_ppf(self, slope):
        rng = np.random.default_rng(17)
        f = np.arange(0.0, 3001.0)
        psd = 1.0 + slope * f + 0.05 * rng.standard_normal(f.size)
        mask = np.abs(f - 1000.0) > 2.0
        spec = Spectrum(freqs_hz=f, psd=psd, rbw_hz=1.0)
        t_stat, t_crit = flatness_t_statistic(spec, mask)
        fit = stats.linregress(f[mask][::3], psd[mask][::3])
        ref_t = fit.slope / fit.stderr
        ref_crit = stats.t.ppf(0.975, f[mask][::3].size - 2)
        assert abs(t_crit - ref_crit) <= 1e-12 * ref_crit
        assert abs(t_stat - ref_t) <= 1e-12 * max(1.0, abs(ref_t))


# log-spaced integer dof from 8 to 10^6, across the switch from Newton
# steps to the Cornish-Fisher expansion at 500
DOFS = sorted({int(round(d)) for d in np.logspace(np.log10(8), 6, 60)} | {499, 500})


@pytest.mark.parametrize("dof", DOFS)
def test_t_quantile_matches_stdtrit(dof):
    ref = float(special.stdtrit(dof, 0.975))
    assert abs(student_t_quantile(0.975, dof) - ref) <= 1e-12 * ref


def test_t_quantile_has_closed_forms_at_small_dof():
    # t_p = tan(pi (p - 1/2)) at dof 1 and (2p - 1) sqrt(2 / (1 - (2p - 1)^2)) at dof 2
    for p in (0.5, 0.75, 0.975):
        a = 2.0 * p - 1.0
        exact = math.tan(math.pi * (p - 0.5)), a * math.sqrt(2.0 / (1.0 - a * a))
        for dof, ref in zip((1, 2), exact):
            assert student_t_quantile(p, dof) == pytest.approx(ref, rel=1e-13, abs=1e-15)
