"""Stochastic photoemission simulation of balanced detection.

The chain is: semiclassical emission rates -> closed-form mean count
of every sample bin (one np.matmul per block, from cos/sin tables of
_SUB samples) -> Poisson counts per bin (a sparse block thinned from a
homogeneous process, a denser one by one draw per bin) -> currents ->
Welch PSD (the floor) and lock-in sum (the beat).  A record runs as one
pass over blocks of _BLOCK samples, each block feeding running sums
and, when a trace is asked for, the trace file, with one buffer per
live quantity made once, so memory is O(_BLOCK + Welch segment)
whatever the record length.  Every stage is deterministic given the
seed; the two detectors draw from independent child streams of one
seed sequence.

A record of more than one block runs on two threads: a worker makes the
bin means, draws the counts, forms the currents and feeds every sum but
the Welch sum (arm totals, zero-lag covariance, lock-in, variance) up to
_READ_AHEAD blocks ahead, and the calling thread feeds the Welch sum
with the difference current and writes the trace.  Only the worker draws,
block after block, and each sum is fed by one thread in block order, so
the results are bit for bit those of a serial pass.  A one-block record
runs serially.

Rates here are the semiclassical ones for coherent (or vacuum) input:
eta/2 |E_lo(t) -+ i M(t)|^2 per arm, which is manifestly non-negative.
Squeezed input has no such rate picture and is refused.
"""

from __future__ import annotations

import cmath
import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

# numpy loads these submodules on first use; loading them here keeps that
# cost in the import rather than in the first run
import numpy.fft
import numpy.random

from . import correlators
from .analytic import SensitivityRow, Spectrum, output_signal_power, shot_floor_psd
from .config import _CHOICES, MEASUREMENT_KEYS, SCAN_KEYS, RunConfig
from .errors import ConfigViolation, InvalidSpec, NonClassicalInput, TooShort, Unresolved
from .io import TraceWriter
from .model import (
    TWO_PI,
    FieldState,
    LocalOscillator,
    Scan,
    Scene,
    validate_measurement,
)

# samples per block of the streamed pass; 2^16 doubles is 512 KiB per array
_BLOCK = 1 << 16
# samples per row of the bin-mean and lock-in cos/sin tables, and per
# sub-block that one rotation of their coefficients covers: a divisor of
# _BLOCK whose table rows stay in cache (2^12 doubles is 32 KiB)
_SUB = 1 << 12
# blocks the drawing thread of the streamed pass may run ahead of the
# calling thread: depth 1 leaves it waiting on the caller, 3 gains nothing
_READ_AHEAD = 2
# numpy draws a Poisson count only for a mean below ~9.2e18 (int64); a
# run whose bins or counting windows could ask more is refused first
_MAX_POISSON_MEAN = 1e18
# largest expected count of any bin in a block up to which _arm_counts
# draws the block by thinning rather than one draw per bin.  On a 2-vCPU
# VM, 2^16-bin blocks shaped as default.cfg's (mean half the peak) cost
# both ways about the same at a peak of 1-2 per bin (thinning 1.2-2.3 ms
# against 1.8-2.6 ms per arm at 1; 0.12 against 1.1 ms at default.cfg's
# 0.073), and a flat block at ~3; any value from 0.073 to ~2,300 thins
# every default.cfg block and draws every sensitivity.cfg scan block dense
_THIN_PEAK_MEAN = 1.0
# stride of the floor's slope test over the unmasked bins; see flatness_t_statistic
_SLOPE_STRIDE = 3
# segments of 1 / rbw a Monte Carlo record must hold for its Welch average
_MIN_SEGMENTS = 16


def _arm_phasors(state: FieldState, lo: LocalOscillator):
    """(offsets, amplitudes) of the LO and the signal in arm 1's E_lo - i M; arm 2 negates M."""
    if state.is_squeezed():
        raise NonClassicalInput("squeezed input has no Poisson rate representation")
    t_offs, t_amps = correlators.tone_phasors(lo)
    m_offs, m_amps = correlators.mode_phasors(state)
    return (t_offs, t_amps), (m_offs, -1j * m_amps)


def _bin_mean_blocks(state, lo, det, n: int, dt: float):
    """Iterator over (mean_1, mean_2) of bins [k dt, (k+1) dt), _BLOCK bins at a time.

    The arm rate eta/2 |sum_k a_k e^{-i d_k t}|^2 is a trigonometric
    polynomial, so its integral over the bin centred at t_c is
    eta/2 sum_{k,l} a_k a_l* sinc(D_kl dt/2) e^{-i D_kl t_c} dt with
    D_kl = d_k - d_l.  The arms share the LO and signal self terms and
    differ only in the sign of the LO-signal cross terms.  Each distinct
    D has one cos and one sin row in a table of K rows over _SUB bins; a
    block is filled by one np.matmul of the coefficients of each of its
    sub-blocks of _SUB bins, rotated by the sub-block's start phase
    e^{-i D t0}, with that table: a (2 x K) @ (K x _SUB) BLAS product
    per sub-block, each bin's mean a sum of K terms.  Its 2 K _SUB
    multiply-adds (49k on default.cfg, K = 6) are below the size at
    which OpenBLAS splits a product over threads, and a split would
    divide the bins, not a bin's K terms, so the bits do not follow the
    thread count.  They are BLAS's rounding (fused multiply-adds where
    the CPU has them), not that of separate products and sums.  The
    arguments and the state are checked at the call, before the first
    block.

    Every block is written into the same pair of arrays, so a block's
    means stay valid only until the next block is made: the streamed
    pass reads them on its drawing thread, before it asks for the next.
    """
    if n < 1 or not dt > 0.0:
        raise InvalidSpec(f"need at least one bin of positive width, got n={n}, dt={dt!r}")
    lo_ph, sig_ph = _arm_phasors(state, lo)

    def collect(*pairs):  # the products a_k b_l* e^{-i (d_k - d_l) t} of each pair of sums
        return correlators.collect_beats(
            (d_a - d_b, a * np.conj(b))
            for ph_a, ph_b in pairs
            for d_a, a in zip(*ph_a)
            for d_b, b in zip(*ph_b)
        )

    common = collect((lo_ph, lo_ph), (sig_ph, sig_ph))
    cross = collect((lo_ph, sig_ph), (sig_ph, lo_ph))
    beats = np.array(sorted(common.keys() | cross.keys()))
    # the bin integral of e^{-i D t} is dt sinc(D dt / 2) e^{-i D t_c}; arm 1 adds
    # the cross terms to the common ones, arm 2 subtracts them
    weights = 0.5 * det.eta * dt * np.sinc(beats * dt / TWO_PI)
    c, x = (np.array([terms.get(d, 0.0) for d in beats.tolist()]) for terms in (common, cross))
    arms = np.stack([c + x, c - x]) * weights
    # Re(w e^{-i D tau}) = Re(w) cos(D tau) + Im(w) sin(D tau); D = 0 has cos 1 and sin 0
    tau = (np.arange(min(n, _SUB)) + 0.5) * dt
    phase = np.multiply.outer(beats, tau)
    table = np.concatenate([np.cos(phase), np.sin(phase)])
    # a sub-block's start phase is its block's e^{-i D t0}, then its offset's in the block
    offsets = np.exp(-1j * np.multiply.outer(np.arange(0, min(n, _BLOCK), _SUB) * dt, beats))
    means = np.empty((2, min(n, _BLOCK)))

    def blocks():
        for start in range(0, n, _BLOCK):
            m = min(_BLOCK, n - start)
            w = (arms * np.exp(-1j * beats * (start * dt))) * offsets[:, None, :]
            coef = np.concatenate([w.real, w.imag], axis=2)  # (sub-block, arm, table row)
            out = means[:, :m]
            subs, rest = divmod(m, _SUB)
            if subs:  # written through a (sub-block, arm, bin) view of the block
                full = out[:, : subs * _SUB].reshape(2, subs, _SUB).transpose(1, 0, 2)
                np.matmul(coef[:subs], table, out=full)
            if rest:
                np.matmul(coef[subs], table[:, :rest], out=out[:, subs * _SUB :])
            yield out[0], out[1]

    return blocks()


def _arm_rngs(seed: int) -> list[np.random.Generator]:
    """The two arms' generators, independent child streams of one seed sequence."""
    return [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(2)]


class _Welch:
    """Running Welch sum (Welch 1967) over samples that arrive in chunks of any size.

    Hann window (periodic), segments of nperseg samples every
    nperseg - nperseg // 2, each with its mean removed, one-sided density
    scaling: the estimate scipy.signal.welch makes of the concatenated
    chunks with window="hann", noverlap=nperseg // 2 and
    detrend="constant".  Every segment a chunk completes is detrended
    into one row of a work array and all of them go through one rfft
    call: a segment inside the chunk is read from the chunk itself, one
    that starts among the samples held over from earlier chunks (fewer
    than nperseg, kept in a copy, so the caller may overwrite a chunk
    once add returns) is first assembled in its row.  The spectra are
    squared in place as one float array and each power, the sum of a
    real and an imaginary square, goes to the real parts' memory.  The
    powers are added to the total in groups of batch segments, counted
    from the first segment of each add, and a group of one as it is, so
    the sum, and its bits, do not depend on how many rows one rfft call
    takes.

    Memory: the window, the held samples (at most a segment each) and
    the running total (half a segment); and, made for the most segments
    a chunk of the size seen can complete, so once for equal chunks, the
    detrended rows and their complex spectra, each about twice the
    chunk when segments are shorter than it (they overlap by half) and
    one segment when they are longer.  A default.cfg record's 2^16-sample
    blocks and 10^4-sample segments take 14 rows, 2.1 blocks each.
    """

    def __init__(self, nperseg: int, fs: float):
        self.nperseg, self.hop, self.fs = nperseg, nperseg - nperseg // 2, fs
        self.window = 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, nperseg + 1))[:-1]
        # summed here, while its segment-sized square is the only temporary
        self.window_power = float((self.window * self.window).sum())
        self.batch = max(1, _BLOCK // nperseg)  # segments per group of the total
        self.total = np.zeros(nperseg // 2 + 1)
        self.segments = 0
        self.held = np.empty(nperseg)
        self.held_size = 0
        self.means = np.empty((0, 1))
        self.rows = np.empty((0, nperseg))
        self.spec = np.empty((0, self.total.size), dtype=complex)
        self.power_sum = np.empty(self.total.size) if self.batch > 1 else None

    def add(self, x: np.ndarray) -> None:
        n, hop, held = self.nperseg, self.hop, self.held_size
        end = held + x.size
        if end < n:
            self.held[held:end] = x
            self.held_size = end
            return
        count = (end - n) // hop + 1  # the segments this chunk completes
        if count > len(self.rows):
            most = (x.size - 1) // hop + 1  # with nperseg - 1 samples held
            self.means = np.empty((most, 1))
            self.rows = np.empty((most, n))
            self.spec = np.empty((most, self.total.size), dtype=complex)
        rows, means = self.rows[:count], self.means[:count]
        split = min(count, -(-held // hop))  # the segments that start among the held samples
        for j in range(split):
            s = j * hop
            rows[j, : held - s] = self.held[s:held]
            rows[j, held - s :] = x[: n - held + s]
        parts = [(rows[:split], rows[:split], means[:split])]
        if split < count:
            segs = np.lib.stride_tricks.sliding_window_view(x, n)[split * hop - held :: hop]
            parts.append((segs[: count - split], rows[split:], means[split:]))
        for segs, out, mean in parts:
            np.subtract(segs, segs.mean(axis=1, keepdims=True, out=mean), out=out)
        rows *= self.window
        spec = np.fft.rfft(rows, axis=1, out=self.spec[:count])
        squares = spec.view(float)
        np.multiply(squares, squares, out=squares)
        power = spec.real
        power += spec.imag
        for first in range(0, count, self.batch):
            part = power[first : first + self.batch]
            self.total += part[0] if len(part) == 1 else part.sum(axis=0, out=self.power_sum)
        self.segments += count
        done = count * hop
        self.held_size = end - done
        if done >= held:
            self.held[: self.held_size] = x[done - held :]
        else:
            self.held[: held - done] = self.held[done:held]
            self.held[held - done : self.held_size] = x

    def spectrum(self) -> Spectrum:
        psd = self.total / (self.segments * self.fs * self.window_power)
        psd[1 : None if self.nperseg % 2 else -1] *= 2.0
        # np.fft.rfftfreq's own grid, made as one float array
        freqs = np.arange(self.total.size, dtype=float)
        freqs *= 1.0 / (self.nperseg * (1.0 / self.fs))
        return Spectrum(freqs_hz=freqs, psd=psd, rbw_hz=self.fs / self.nperseg)


class _Lockin:
    """Running sum of x[n] e^{-i omega n dt} over the samples fed so far.

    Each sub-block of at most _SUB samples is a product with one stacked
    cos/sin table, rotated by the phase omega n dt of its first sample, so no
    full-length complex temporary is made.  The products of a chunk's
    sub-blocks are summed by one einsum, which calls no BLAS: a BLAS dot
    splits long vectors over threads of its own, and its last bits
    depend on their number.
    """

    def __init__(self, omega: float, dt: float, n: int):
        self.w = omega * dt  # the phase step per sample
        phase = self.w * np.arange(min(n, _SUB))  # a table no longer than the record
        self.table = np.stack([np.cos(phase), np.sin(phase)])
        self.total = 0j
        self.n = 0

    def add(self, x: np.ndarray) -> None:
        sub = self.table.shape[1]
        whole = x.size - x.size % sub
        parts = [x[:whole].reshape(-1, sub)]
        if whole < x.size:
            parts.append(x[whole:].reshape(1, -1))
        for part in parts:
            m = part.shape[1]
            for re, im in np.einsum("sj,kj->sk", part, self.table[:, :m]).tolist():
                self.total += complex(re, -im) * cmath.exp(-1j * self.w * self.n)
                self.n += m

    def power(self) -> float:
        """Lock-in power 2 |total|^2 / n^2 of a line at omega.

        White noise of one-sided PSD S adds S / (n dt) on average, which
        the caller subtracts.
        """
        return float(2.0 * abs(self.total) ** 2 / self.n**2)


class _Moments:
    """Running count, mean and sum of squared deviations of the values fed so far.

    Each block is read where it lies, never written: its sum, and its
    sum of squares q by einsum, as in _Lockin.  Its squared deviations
    are q less m times its mean squared, so no deviation pass and no
    copy is made, and blocks merge by the pairwise update of Chan, Golub
    & LeVeque (1979).  The subtraction cancels the share of q its mean
    holds, which for the streamed pass's blocks, a difference current of
    zero mean and an arm product whose mean is the small covariance, is
    next to none; a block whose mean holds over half of q takes its
    deviations from the mean in a temporary instead.
    """

    def __init__(self):
        self.n, self.mean, self.m2 = 0, 0.0, 0.0

    def add(self, x: np.ndarray) -> None:
        m, squares = x.size, float(np.einsum("i,i->", x, x))
        mean = float(x.sum()) / m
        m2 = squares - m * mean * mean
        if not m2 >= 0.5 * squares:
            dev = x - mean
            m2 = float(np.einsum("i,i->", dev, dev))
        delta, total = mean - self.mean, self.n + m
        self.m2 += m2 + delta * delta * self.n * m / total
        self.mean += delta * m / total
        self.n = total

    def var(self, ddof: int = 0) -> float:
        return self.m2 / (self.n - ddof)


def floor_statistics(spectrum: Spectrum, f_het_hz: float) -> tuple[float, float, np.ndarray]:
    """Mean and per-bin scatter of the flat floor, with line bins masked.

    Excludes +-2 rbw around DC, the beat and its second harmonic.
    Returns (mean, sigma_of_bin, mask).
    """
    f = spectrum.freqs_hz
    rbw = spectrum.rbw_hz
    mask = np.ones(f.size, dtype=bool)
    for f0 in (0.0, f_het_hz, 2.0 * f_het_hz):
        mask &= np.abs(f - f0) > 2.0 * rbw
    if not np.any(mask):
        raise Unresolved("no floor bins left after exclusions")
    kept = spectrum.psd[mask]
    return float(kept.mean()), float(kept.std(ddof=1)), mask


def flatness_t_statistic(spectrum: Spectrum, mask: np.ndarray):
    """OLS slope t-test of the floor versus frequency.

    Uses every _SLOPE_STRIDE-th unmasked bin so neighbouring-bin
    correlation from the Hann overlap does not understate the standard
    error.  Returns (t_statistic, t_critical_95), the critical value
    from student_t_quantile.
    """
    f = spectrum.freqs_hz[mask][::_SLOPE_STRIDE]
    y = spectrum.psd[mask][::_SLOPE_STRIDE]
    if f.size < 10:
        raise Unresolved("too few floor bins for a slope test")
    fd, yd = f - f.mean(), y - y.mean()
    # einsum rather than BLAS dots, as in _Lockin
    sxx = float(np.einsum("i,i->", fd, fd))
    slope = float(np.einsum("i,i->", fd, yd)) / sxx
    resid = yd - slope * fd
    dof = f.size - 2
    stderr = math.sqrt(float(np.einsum("i,i->", resid, resid)) / dof / sxx)
    t_stat = slope / stderr if stderr > 0 else 0.0
    return t_stat, student_t_quantile(0.975, dof)


def _t_upper_tail(t: float, dof: int) -> float:
    """P(T > t) of Student's t with an integer dof, by the finite series of A&S 26.7.3-4."""
    theta = math.atan(t / math.sqrt(dof))
    c2 = math.cos(theta) ** 2
    terms = [1.0]
    if dof % 2:
        for k in range(1, (dof - 1) // 2):
            terms.append(terms[-1] * c2 * (2 * k) / (2 * k + 1))
        inner = math.sin(theta) * math.cos(theta) * math.fsum(terms) if dof > 1 else 0.0
        inside = 2.0 / math.pi * (theta + inner)
    else:
        for k in range(1, dof // 2):
            terms.append(terms[-1] * c2 * (2 * k - 1) / (2 * k))
        inside = math.sin(theta) * math.fsum(terms)
    return 0.5 * (1.0 - inside)  # inside is P(|T| < t)


def student_t_quantile(p: float, dof: int) -> float:
    """The p quantile of Student's t with an integer dof >= 1, for 1/2 <= p < 1.

    From the normal quantile z, the Cornish-Fisher expansion in 1/dof
    to fourth order (A&S 26.7.5) is taken as it is for dof >= 500; below
    that, Newton steps on the exact upper tail of _t_upper_tail refine
    it.  Only the standard library is used.  At p = 0.975 the result is
    within 3e-14 relative of scipy.special.stdtrit for every dof from 8
    to 10^6 (the test suite pins 1e-12); towards p = 1 the tail,
    formed as 1 - P(|T| < t), loses the digits of 1 - p.
    """
    if not (0.5 <= p < 1.0 and dof >= 1):
        raise InvalidSpec(f"need 1/2 <= p < 1 and dof >= 1, got p={p!r}, dof={dof!r}")
    # imported here: statistics is not needed before the first slope test
    from statistics import NormalDist

    z = NormalDist().inv_cdf(p)
    z2 = z * z
    g = (
        (z2 + 1.0) * z / 4.0,
        ((5.0 * z2 + 16.0) * z2 + 3.0) * z / 96.0,
        (((3.0 * z2 + 19.0) * z2 + 17.0) * z2 - 15.0) * z / 384.0,
        ((((79.0 * z2 + 776.0) * z2 + 1482.0) * z2 - 1920.0) * z2 - 945.0) * z / 92160.0,
    )
    t = z + sum(gk / dof ** (k + 1) for k, gk in enumerate(g))
    if dof >= 500:
        return t
    # the density's normalisation in lgamma; its rounding slows Newton, it does not move the root
    log_norm = math.lgamma((dof + 1) / 2) - math.lgamma(dof / 2) - 0.5 * math.log(dof * math.pi)
    for _ in range(50):
        density = math.exp(log_norm - (dof + 1) / 2 * math.log1p(t * t / dof))
        step = (_t_upper_tail(t, dof) - (1.0 - p)) / density
        t += step
        if abs(step) <= 4e-16 * abs(t):
            break
    return t


# ---------------------------------------------------------------------------
# packaged experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    """One pass/fail comparison produced by a scenario."""

    name: str
    value: float
    target: float
    tolerance: float
    passed: bool

    @classmethod
    def within(cls, name: str, value: float, target: float, tolerance: float) -> "CheckResult":
        """The check |value - target| <= tolerance."""
        return cls(name, value, target, tolerance, abs(value - target) <= tolerance)


@dataclass
class ExperimentReport:
    """Everything a scenario produced: checks, scalars and its record's spectrum."""

    scenario: str
    checks: list[CheckResult] = field(default_factory=list)
    scalars: dict = field(default_factory=dict)
    spectrum: Spectrum | None = None  # the difference current's PSD; None for `sensitivity`

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _binning_power_loss(f_hz: float, sample_rate: float) -> float:
    """Known power attenuation of a spectral line from charge binning.

    Binning integrates the current over each sample: a boxcar of width
    dt, which scales a line at f by sinc^2(pi f dt).  Deterministic, so
    expected values are corrected by it rather than fudged.
    """
    x = math.pi * f_hz / sample_rate
    if x == 0.0:
        return 1.0
    return (math.sin(x) / x) ** 2


@dataclass(frozen=True)
class _Record:
    """The statistics of one simulated record."""

    spectrum: Spectrum
    totals: tuple[int, int]  # photoemissions per arm
    duration: float
    lockin: float  # lock-in power at lo.omega_het, see _Lockin.power
    variance: float  # of the difference current
    cross_z: float  # z-score of the zero-lag arm covariance

    def beat_power(self, floor: float) -> float:
        """The beat's power: the lock-in power less floor / duration, a white floor's share of it.

        floor is the floor's one-sided PSD, see _Lockin.power.
        """
        return self.lockin - floor / self.duration


def _arm_counts(rng: np.random.Generator, means: np.ndarray, out: np.ndarray):
    """Poisson counts of one arm's block of bins with the given means: (counts, total, bins).

    A sparse block, whose largest mean lam is at most _THIN_PEAK_MEAN, is
    drawn by thinning (Lewis & Shedler 1979) on the bins: a homogeneous
    process of lam per bin puts a Poisson(lam m) number of candidates in
    uniformly chosen bins, and a candidate in bin i is kept with
    probability means[i] / lam, when u lam < means[i] for a uniform u on
    [0, 1).  The kept candidates of a bin are then Poisson with its mean,
    independent of the other bins, as one draw per bin makes them, at a
    cost of O(candidates) = O(lam m).  A bin of zero mean keeps none.
    The rule reads the peak because it sets the candidate count, which
    _THIN_PEAK_MEAN bounds before anything is allocated.  A denser block
    takes one draw per bin.

    The counts are made in out[:m], a float64 buffer the caller keeps
    from block to block (a block-sized array made and freed per block
    would have the allocator return its pages and fault them in again):
    a thinned block's are counted there, a dense block's copied from the
    int64 array of its draw, so that no later product of counts and a
    float runs through numpy's cast loop.  total is the number of
    counts: a thinned block's kept candidates, whose bins are returned
    as bins, one entry per count, so every bin that holds a count is in
    it; a dense block's bins are every bin.
    """
    m = means.size
    lam = means.max()
    counts = out[:m]
    if not lam <= _THIN_PEAK_MEAN:
        draw = rng.poisson(means)
        counts[:] = draw
        return counts, int(draw.sum()), slice(None)
    idx = rng.integers(0, m, rng.poisson(lam * m))
    kept = idx[rng.random(idx.size) * lam < means[idx]]
    counts.fill(0.0)
    np.add.at(counts, kept, 1.0)
    return counts, kept.size, kept


def _block_currents(
    mean_blocks,
    rngs,
    to_pulses: float,
    to_current: float,
    totals: list,
    cross: _Moments,
    lockin: _Lockin,
    variance: _Moments,
):
    """The difference current of each block of means, in block order: the drawing half of the pass.

    Each arm's counts come from _arm_counts with that arm's generator;
    their totals are added to totals, and the zero-lag product of the
    arms' fluctuations, each the delta-pulse current (count times
    to_pulses) less the mean current (mean times to_current), is fed to
    cross.  The difference current j1 - j2 is fed to lockin and
    variance, then yielded.  Its arrays are a ring of _READ_AHEAD + 1
    buffers taken in turn, so a block's current stays valid until
    _READ_AHEAD more blocks have been made, which is as far as
    _read_ahead runs ahead of the block its caller is summing.

    No pass runs over the bins that hold no count (~93 % of a
    default.cfg block's).  Each arm's factor is its mean current with
    the pulses added at the bins its counts lie in.  The difference
    current is arm 1's thinned counts, made in the block's ring buffer
    and so zero elsewhere, with arm 1's pulses written over them and arm
    2's subtracted at arm 2's bins; arm 2's thinned counts are made in
    the array its factor is formed in next.  Each element so goes
    through the IEEE operations of the dense formulas, mean tc + count
    tp and count_1 tp - count_2 tp, less the exact zeros a bin without
    a count adds, and has their bits (a zero factor may differ in the
    sign of its zero).  A dense arm's counts are made in the same
    buffers and its bins are every bin.  The means are only read: one
    array may serve both arms.
    """
    for k, means in enumerate(mean_blocks):
        m = means[0].size
        if k == 0:  # the first block is the largest
            ring = np.empty((_READ_AHEAD + 1, m))
            scratch = np.empty((2, m))
        a, b = scratch[:, :m]
        jdiff = ring[k % len(ring), :m]
        (c1, n1, bins1), (c2, n2, bins2) = (
            _arm_counts(rng, mu, out) for rng, mu, out in zip(rngs, means, (jdiff, a))
        )
        totals[0] += n1
        totals[1] += n2
        p1, p2 = c1[bins1] * to_pulses, c2[bins2] * to_pulses
        np.multiply(means[0], to_current, out=b)
        b[bins1] += p1
        np.multiply(means[1], to_current, out=a)
        a[bins2] += p2
        b *= a
        cross.add(b)
        jdiff[bins1] = p1
        jdiff[bins2] -= p2
        lockin.add(jdiff)
        variance.add(jdiff)
        yield jdiff


def _read_ahead(pool: ThreadPoolExecutor, items):
    """The items of an iterator, each taken on pool's one thread up to _READ_AHEAD items early.

    The worker's error is raised here, in place of its item.  Shutting
    the pool down waits for the items still pending.
    """
    pending = deque(pool.submit(next, items, None) for _ in range(_READ_AHEAD))
    while (item := pending.popleft().result()) is not None:
        pending.append(pool.submit(next, items, None))
        yield item


def _stream_record(scene: Scene, seed: int, trace: TraceWriter | None = None) -> _Record:
    """Simulate one record of a scene _check_scene admits in one pass of _BLOCK-bin blocks.

    Each block gets its bin means, each arm's counts from _arm_counts and
    its currents, which feed the Welch sum, the lock-in sum at the beat, the
    variance of the difference current and the zero-lag covariance of
    the arms.  The deterministic beat lives in both arm means with
    opposite signs, so the covariance is taken after subtracting each
    bin's exact mean current (its mean count times charge / dt): the
    remaining shot fluctuations must be uncorrelated.  When a trace
    writer is given, its header goes out before the first block and
    each block's difference current after it.

    A record of more than one block runs on two threads: a worker runs
    _block_currents up to _READ_AHEAD blocks ahead, drawing the counts
    and feeding the arm totals, the covariance, the lock-in and the
    variance sums, and the calling thread feeds the Welch sum with each
    block's difference current and writes the trace.  That split evens
    the two threads' busy time on a default.cfg record, where the Welch
    sum is the largest single cost.  Every sum is fed by one thread
    only, in block order, and only the worker touches the two
    generators, so the counts and every sum are those of a serial pass.
    A record of one block has nothing to overlap and runs serially.

    No block-sized array is made per block but a dense block's draw and
    pulses; a thinned block's candidates number its peak mean per bin,
    at most one (0.073 on default.cfg).  One buffer holds each live quantity:
    the bin means' pair, the ring of difference currents and the scratch
    pair of the arm product's factors (which also take a thinned block's
    counts) are made once, the bin-mean and lock-in tables span _SUB
    samples, not a block, and the sums keep nothing of a block but the
    Welch sum's copy of its incomplete segment.  Memory is therefore a fixed number of blocks plus a few
    segments, whatever the record length; a default.cfg record peaks at
    about 12.7 blocks of doubles (6.4 MiB), the 4.3 of its Welch sum's
    rows and spectra included.
    """
    meas = scene.meas
    n = int(round(meas.duration * meas.sample_rate))
    dt = 1.0 / meas.sample_rate
    fs = 1.0 / dt  # the trace's rate, which may differ from meas.sample_rate in the last bit
    welch = _Welch(int(round(fs / meas.rbw)), fs)
    lockin = _Lockin(scene.lo.omega_het, dt, n)
    variance, cross = _Moments(), _Moments()
    to_current = -1.0 / dt
    to_pulses = meas.sample_rate  # a delta pulse's unit charge spread over its bin
    totals = [0, 0]
    currents = _block_currents(
        _bin_mean_blocks(scene.state, scene.lo, scene.det, n, dt), _arm_rngs(seed),
        to_pulses, to_current, totals, cross, lockin, variance,
    )
    if trace is not None:
        trace.start(dt, n)
    with ThreadPoolExecutor(1) as pool:  # it starts its thread at the first submit
        if n > _BLOCK:
            currents = _read_ahead(pool, currents)
        for jdiff in currents:
            welch.add(jdiff)
            if trace is not None:
                trace.write(jdiff)
    se = math.sqrt(cross.var(ddof=1) / n)
    return _Record(
        spectrum=welch.spectrum(),
        totals=tuple(totals),
        duration=n * dt,
        lockin=lockin.power(),
        variance=variance.var(),
        cross_z=cross.mean / se if se > 0 else 0.0,
    )


def _check_scene(scene: Scene, keys: tuple[str, str, str, str]) -> None:
    """Refuse a scene that _stream_record cannot run or the packaged checks cannot model.

    The check targets assume a coherent signal at a fixed phase, a
    bichromatic LO and delta pulses; the error names the config setting
    that asks for anything else.  The geometry must pass
    validate_measurement, whose limits on the configured beat leave a
    Welch segment of at least 100 samples, and the record, as
    _stream_record takes it, must hold _MIN_SEGMENTS segments of 1 / rbw
    (TooShort).  A geometry error names keys, the settings of the
    scene's beat frequency, duration, rbw and sample rate.
    """
    for refused, setting in (
        (not scene.lo.is_bichromatic, "lo.kind = mono"),
        (scene.state.theta_s is None, "field.phase_averaged = true"),
        (scene.state.is_squeezed(), "squeeze.enabled = true"),
        (scene.det.pulse_tau > 0.0, f"detector.pulse_tau_s = {scene.det.pulse_tau!r}"),
    ):
        if refused:
            raise ConfigViolation(
                f"{setting}: the Monte Carlo checks model only a coherent fixed-phase "
                "signal, a bichromatic LO and delta pulses"
            )
    meas = scene.meas
    validate_measurement(meas, scene.lo, keys)
    _, duration_key, rbw_key, _ = keys
    dt = 1.0 / meas.sample_rate
    record = round(meas.duration * meas.sample_rate) * dt
    if record < _MIN_SEGMENTS / meas.rbw - 1e-12:
        raise TooShort(
            f"{duration_key}: a record of {record:g} s cannot average {_MIN_SEGMENTS} "
            f"segments at {rbw_key} = {meas.rbw:g} Hz"
        )
    # no bin of either arm expects more than eta/2 (sum of |amplitudes|)^2 dt
    amps = np.concatenate([a for _, a in _arm_phasors(scene.state, scene.lo)])
    peak = 0.5 * scene.det.eta * float(np.abs(amps).sum()) ** 2 / meas.sample_rate
    if not peak <= _MAX_POISSON_MEAN:
        raise ConfigViolation(
            f"a sample bin may expect {peak:g} photoemissions, more than the "
            f"{_MAX_POISSON_MEAN:g} a Poisson draw takes: lower field.signal_flux or lo.flux "
            "(scan.powers_nw or scan.lo_ratio for the scan)"
        )


def run_experiment(
    scenario: str,
    scene: Scene | Scan | None = None,
    *,
    seed: int = 20260815,
    trace: TraceWriter | None = None,
) -> ExperimentReport:
    """Run a packaged Monte Carlo experiment and check it against theory.

    scene is a Scene from RunConfig.build_scene, or for `sensitivity` a
    Scan from RunConfig.build_scan; None runs the config defaults.
    Every other scenario runs one record, whose spectrum the report
    keeps and whose difference current goes to trace, when given, block
    by block as it is made.

    Scenarios:
      shot-floor   vacuum signal; floor level (3 %) and flatness (95 %).
      null-phase   signal phase in quadrature to the LO mean phase; no
                   PSD bin within 2 rbw of f_het above floor + 3 sigma.
      sensitivity  empirical SNR_in/SNR_out/NF across the power scan;
                   NF within 0.3 dB of zero for each power.
      default      coherent signal; the floor checks, lock-in line power
                   within 5 % of theory (beatnote_power), a Parseval
                   consistency check and a zero-lag arm cross-covariance
                   check.

    An unknown scenario, a seed that is not a non-negative integer and a
    scene of the wrong type are refused (InvalidSpec) before any work.
    """
    if scenario not in _CHOICES["simulate.scenario"]:
        raise InvalidSpec(f"unknown scenario {scenario!r}")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InvalidSpec(f"seed must be a non-negative integer, got {seed!r}")
    kind = Scan if scenario == "sensitivity" else Scene
    if scene is None:
        cfg = RunConfig.defaults()
        scene = cfg.build_scan() if kind is Scan else cfg.build_scene()
    elif not isinstance(scene, kind):
        raise InvalidSpec(
            f"scenario {scenario!r} runs a {kind.__name__}, got {type(scene).__name__}"
        )
    report = ExperimentReport(scenario=scenario)
    root = np.random.SeedSequence(seed)
    if scenario == "sensitivity":
        _scenario_sensitivity(report, scene, root)
    else:
        _scenario_record(report, scene, root, trace)
    return report


def _scenario_record(
    report: ExperimentReport,
    scene: Scene,
    root: np.random.SeedSequence,
    trace: TraceWriter | None,
) -> None:
    """One record of the scene, checked against the closed forms (see run_experiment).

    The scene is checked as given, then `shot-floor` runs it with every
    mode in vacuum and `null-phase` with the signal in quadrature to the
    LO mean phase.
    """
    _check_scene(scene, MEASUREMENT_KEYS)
    scenario = report.scenario
    if scenario == "shot-floor":
        vacuum = tuple(replace(m, amplitude=0.0) for m in scene.state.modes)
        scene = replace(scene, state=replace(scene.state, modes=vacuum))
    elif scenario == "null-phase":
        quadrature = scene.lo.theta_bar + math.pi / 2.0
        scene = replace(scene, state=replace(scene.state, theta_s=quadrature))
    lo, det = scene.lo, scene.det
    f_het = lo.omega_het / TWO_PI
    seed = int(root.generate_state(1, dtype=np.uint64)[0] >> 1)
    record = _stream_record(scene, seed, trace)
    spec = report.spectrum = record.spectrum
    floor_mean, floor_sigma, mask = floor_statistics(spec, f_het)
    report.scalars.update({"floor_mean": floor_mean, "floor_sigma": floor_sigma})
    if scenario == "null-phase":
        peak = float(spec.psd[np.abs(spec.freqs_hz - f_het) <= 2.0 * spec.rbw_hz].max())
        tol = 3.0 * floor_sigma
        report.checks.append(
            CheckResult("null_phase_peak_psd", peak, floor_mean, tol, peak <= floor_mean + tol)
        )
        report.scalars["peak_psd"] = peak
        return

    floor_target = float(shot_floor_psd(lo, det, lo.omega_het))
    report.checks.append(
        CheckResult.within("shot_floor_level", floor_mean, floor_target, 0.03 * floor_target)
    )
    t_stat, t_crit = flatness_t_statistic(spec, mask)
    report.checks.append(CheckResult.within("shot_floor_flatness_t", t_stat, 0.0, t_crit))
    report.scalars.update(
        {"floor_target": floor_target, "counts_1": record.totals[0], "counts_2": record.totals[1]}
    )
    if scenario == "shot-floor":
        return
    power = record.beat_power(floor_mean)
    loss = _binning_power_loss(f_het, scene.meas.sample_rate)
    target = output_signal_power(scene.state, lo, det) * loss
    report.checks.append(CheckResult.within("beatnote_power", power, target, 0.05 * target))
    report.scalars.update({"beat_power": power, "beat_target": target})
    var = record.variance
    if not var > 0.0:
        raise Unresolved("the difference current is constant, so the Parseval ratio is undefined")
    integrated = float(np.trapezoid(spec.psd, spec.freqs_hz))
    report.checks.append(CheckResult.within("parseval_ratio", integrated / var, 1.0, 0.02))
    report.checks.append(CheckResult.within("arm_cross_covariance_z", record.cross_z, 0.0, 3.0))


def _scenario_sensitivity(
    report: ExperimentReport,
    scan: Scan,
    root: np.random.SeedSequence,
) -> None:
    """Empirical SNR chain across the power scan.

    Each power gets two runs sharing one seed branch: a fixed-phase
    heterodyne run of its scan scene (theta_s = theta_bar) for the
    output side, and a signal-only counting run for the input side.
    The beat power is the record's lock-in power, as for `default`; at
    the fixed phase it is halved to convert to the
    phase-averaged convention before forming
    SNR_out = P / (floor * rbw_ref), rbw_ref = 1 / window.
    """
    for power, scene in zip(scan.powers_w, scan.scenes):
        _check_scene(scene, SCAN_KEYS)
        if not scene.det.eta * power / scan.photon_energy_j * scan.window_s <= _MAX_POISSON_MEAN:
            raise ConfigViolation(
                f"the counting run at {power * 1e9:g} nW expects more than {_MAX_POISSON_MEAN:g} "
                "photoemissions per window: lower scan.powers_nw or scan.window_s"
            )
    window = scan.window_s
    rbw_ref = 1.0 / window
    rows = []
    for power, scene, child in zip(scan.powers_w, scan.scenes, root.spawn(len(scan.scenes))):
        flux = power / scan.photon_energy_j
        f_het = scene.lo.omega_het / TWO_PI
        seed_het, seed_count = (int(s.generate_state(1, dtype=np.uint64)[0] >> 1) for s in child.spawn(2))
        record = _stream_record(scene, seed_het)
        floor_mean, _, _ = floor_statistics(record.spectrum, f_het)
        loss = _binning_power_loss(f_het, scene.meas.sample_rate)
        p_avg = 0.5 * record.beat_power(floor_mean) / loss

        # input side: count detected signal photons without the LO, _BLOCK windows at a time
        rng = np.random.default_rng(seed_count)
        lam, windows = scene.det.eta * flux * window, scan.count_windows
        n_mean = sum(
            float(rng.poisson(lam, min(_BLOCK, windows - k)).sum(dtype=float))
            for k in range(0, windows, _BLOCK)
        ) / windows
        if not (p_avg > 0.0 and floor_mean > 0.0 and n_mean > 0.0):
            raise Unresolved(
                f"at {power * 1e9:g} nW the measured beat power ({p_avg:g}), floor "
                f"({floor_mean:g}) or mean count ({n_mean:g}) is not positive, so its SNR in dB "
                "is undefined"
            )
        snr_out_emp = 10.0 * math.log10(p_avg / (floor_mean * rbw_ref))
        snr_in_emp = 10.0 * math.log10(n_mean)
        nf_emp = snr_in_emp - snr_out_emp
        rows.append(asdict(SensitivityRow(power, flux, snr_in_emp, snr_out_emp, nf_emp)))
        name = f"noise_figure_{power * 1e9:.1f}nW"
        report.checks.append(CheckResult.within(name, nf_emp, 0.0, 0.3))
    report.scalars["rows"] = rows
    report.scalars["photon_energy_j"] = scan.photon_energy_j
