"""Stochastic photoemission simulation of balanced detection.

The chain is: semiclassical emission rates -> closed-form mean count
of every sample bin (one einsum per block, from cos/sin tables of _SUB
samples) -> Poisson counts per bin (a sparse block thinned from a
homogeneous process, a denser one by one draw per bin) -> currents ->
Welch PSD -> beat and floor extraction.  A record runs as one pass over
blocks of _BLOCK samples, each block feeding running sums and, when a
trace is asked for, the trace file, with one buffer per live quantity
made once, so memory is O(_BLOCK + Welch segment) whatever the record
length.  Every stage is deterministic given the seed; the two detectors
draw from independent child streams of one seed sequence.

A record of more than one block runs on two threads: a worker makes the
bin means, draws the counts, forms the currents and feeds the count-only
sums (arm totals, zero-lag covariance) up to _READ_AHEAD blocks ahead,
and the calling thread feeds the Welch, lock-in and variance sums with
the difference current and writes the trace.  Only the worker draws,
block after block, and each sum is fed by one thread in block order, so
the results are bit for bit those of a serial pass.  A one-block record
runs serially.

Rates here are the semiclassical ones for coherent (or vacuum) input:
eta/2 |E_lo(t) -+ i M(t)|^2 per arm, which is manifestly non-negative.
Squeezed input has no such rate picture and is refused.
"""

from __future__ import annotations

import cmath
import contextlib
import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

# numpy loads these submodules on first use; loading them here keeps that
# cost in the import rather than in the first run
import numpy.fft
import numpy.random

from . import correlators
from .analytic import Spectrum, shot_floor_psd, output_signal_power
from .config import _CHOICES, RunConfig
from .errors import ConfigViolation, InvalidSpec, NonClassicalInput, TooShort, Unresolved
from .io import TraceWriter
from .model import (
    TWO_PI,
    FieldState,
    LocalOscillator,
    MeasurementConfig,
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


def _arm_phasors(state: FieldState, lo: LocalOscillator):
    """(offsets, amplitudes) of the LO and the signal in arm 1's E_lo - i M; arm 2 negates M."""
    if state.is_squeezed():
        raise NonClassicalInput("squeezed input has no Poisson rate representation")
    ref = correlators.reference_frequency(state, lo)
    t_offs, t_amps = correlators.tone_phasors(lo, ref)
    m_offs, m_amps = correlators.mode_phasors(state, ref)
    return (t_offs, t_amps), (m_offs, -1j * m_amps)


def _bin_mean_blocks(state, lo, det, n: int, dt: float):
    """Iterator over (mean_1, mean_2) of bins [k dt, (k+1) dt), _BLOCK bins at a time.

    The arm rate eta/2 |sum_k a_k e^{-i d_k t}|^2 is a trigonometric
    polynomial, so its integral over the bin centred at t_c is
    eta/2 sum_{k,l} a_k a_l* sinc(D_kl dt/2) e^{-i D_kl t_c} dt with
    D_kl = d_k - d_l.  The arms share the LO and signal self terms and
    differ only in the sign of the LO-signal cross terms.  Each distinct
    D has one cos and one sin row in a table over _SUB bins; a block is
    filled by one einsum of that table with the coefficients of each of
    its sub-blocks of _SUB bins, rotated by the sub-block's start phase
    e^{-i D t0}.  The arguments and the state are checked at the call,
    before the first block.

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
            if subs:
                full = out[:, : subs * _SUB].reshape(2, subs, _SUB)
                np.einsum("sak,kj->asj", coef[:subs], table, out=full)
            if rest:
                np.einsum("ak,kj->aj", coef[subs], table[:, :rest], out=out[:, subs * _SUB :])
            yield out[0], out[1]

    return blocks()


def _arm_rngs(seed: int) -> list[np.random.Generator]:
    """The two arms' generators, independent child streams of one seed sequence."""
    return [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(2)]


def _segment_length(duration: float, sample_rate: float, cfg: MeasurementConfig) -> int:
    """Welch segment length sample_rate / rbw, once the record is known to hold the average.

    Raises TooShort when the record cannot hold cfg.n_segments
    non-overlapping segments.
    """
    if cfg.n_segments < 8:
        raise ConfigViolation("PSD estimation needs at least 8 averaging segments")
    if duration < cfg.n_segments / cfg.rbw - 1e-12:
        raise TooShort(
            f"record of {duration:g} s cannot average {cfg.n_segments} "
            f"segments at rbw {cfg.rbw:g} Hz"
        )
    nperseg = int(round(sample_rate / cfg.rbw))
    if nperseg < 8:
        raise ConfigViolation("rbw too coarse for this sample rate (segment < 8 samples)")
    return nperseg


class _Welch:
    """Running Welch sum (Welch 1967) over samples that arrive in chunks of any size.

    Hann window (periodic), segments of nperseg samples every
    nperseg - nperseg // 2, each with its mean removed, one-sided density
    scaling: the estimate scipy.signal.welch makes of the concatenated
    chunks with window="hann", noverlap=nperseg // 2 and
    detrend="constant".  Each chunk is copied behind the samples held
    over from the start of the first incomplete segment, so the caller
    may overwrite it once add returns; the segments are transformed
    batch by batch in arrays made once.  Each spectrum's real and
    imaginary parts are squared in place and their sum, the power, goes
    to the real parts' memory, so no power array is made; a batch of one
    segment is added as it is.  At one segment per batch (nperseg >
    _BLOCK / 2) the sum so holds about four and a half segments of
    doubles besides the rfft's own: the window, the held samples, the
    detrended segment and the complex spectrum take one each, the
    running total half.
    """

    def __init__(self, nperseg: int, fs: float):
        self.nperseg, self.hop, self.fs = nperseg, nperseg - nperseg // 2, fs
        self.window = 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, nperseg + 1))[:-1]
        # summed here, while its segment-sized square is the only temporary
        self.window_power = float((self.window * self.window).sum())
        self.batch = max(1, _BLOCK // nperseg)  # segments per rfft call
        self.total = np.zeros(nperseg // 2 + 1)
        self.segments = 0
        # the held samples, fewer than nperseg, then the next chunk
        self.held = np.empty(0)
        self.held_size = 0
        self.means = np.empty((self.batch, 1))
        self.detrended = np.empty((self.batch, nperseg))
        self.spec = np.empty((self.batch, self.total.size), dtype=complex)
        self.power_sum = np.empty(self.total.size) if self.batch > 1 else None

    def add(self, x: np.ndarray) -> None:
        start, end = self.held_size, self.held_size + x.size
        if end > self.held.size:
            # room for chunks of this size up to _BLOCK: every streamed block fits after the first
            grown = np.empty(max(end, self.nperseg + min(x.size, _BLOCK)))
            grown[:start] = self.held[:start]
            self.held = grown
        self.held[start:end] = x
        self.held_size = end
        if end < self.nperseg:
            return
        segs = np.lib.stride_tricks.sliding_window_view(self.held[:end], self.nperseg)[:: self.hop]
        for first in range(0, len(segs), self.batch):
            part = segs[first : first + self.batch]
            k = len(part)
            means = part.mean(axis=1, keepdims=True, out=self.means[:k])
            part = np.subtract(part, means, out=self.detrended[:k])
            part *= self.window
            spec = np.fft.rfft(part, axis=1, out=self.spec[:k])
            # each part squared in place, then the power in the real parts' memory
            power, imag = spec.real, spec.imag
            np.multiply(power, power, out=power)
            power += np.multiply(imag, imag, out=imag)
            self.total += power[0] if k == 1 else power.sum(axis=0, out=self.power_sum)
        self.segments += len(segs)
        done = len(segs) * self.hop
        self.held_size = end - done
        self.held[: self.held_size] = self.held[done:end]

    def spectrum(self) -> Spectrum:
        psd = self.total / (self.segments * self.fs * self.window_power)
        psd[1 : None if self.nperseg % 2 else -1] *= 2.0
        # np.fft.rfftfreq's own grid, made as one float array
        freqs = np.arange(self.total.size, dtype=float)
        freqs *= 1.0 / (self.nperseg * (1.0 / self.fs))
        return Spectrum(freqs_hz=freqs, psd=psd, rbw_hz=self.fs / self.nperseg)


@dataclass(frozen=True)
class BeatnoteEstimate:
    """Integrated line power after local floor subtraction."""

    power: float
    floor: float
    peak_psd: float


def _median(x: np.ndarray) -> float:
    """np.median of a non-empty float array, bit for bit, without importing numpy.ma.

    The same partition as np.median (the middle index or two, and the
    last for NaNs), then the mean of the middle value or two; NaN when
    the partition puts a NaN last.
    """
    mid = x.size // 2
    kth = [mid, -1] if x.size % 2 else [mid - 1, mid, -1]
    part = np.partition(x, kth)
    if np.isnan(part[-1]):
        return float(part[-1])
    return float(np.mean(part[kth[0] : mid + 1]))


def extract_beatnote(spectrum: Spectrum, f_beat_hz: float) -> BeatnoteEstimate:
    """Integrate the spectral line at f_beat_hz above its local floor.

    The line band is +-2 rbw around the target; the floor is the median
    of the flanking bins 3..8 rbw away.  Raises Unresolved when the grid
    cannot place the line (off-grid or out of range).
    """
    f = spectrum.freqs_hz
    rbw = spectrum.rbw_hz
    if f_beat_hz < f[0] or f_beat_hz > f[-1]:
        raise Unresolved(f"beat frequency {f_beat_hz:g} Hz outside the grid")
    df = float(f[1] - f[0]) if f.size > 1 else rbw
    if df > rbw * 1.5:
        raise Unresolved("grid spacing exceeds the resolution bandwidth")
    idx = int(np.argmin(np.abs(f - f_beat_hz)))
    if abs(f[idx] - f_beat_hz) > rbw / 2.0 + 1e-9 * max(1.0, f_beat_hz):
        raise Unresolved(f"no grid point within rbw/2 of {f_beat_hz:g} Hz")
    in_band = np.abs(f - f_beat_hz) <= 2.0 * rbw
    flank = (np.abs(f - f_beat_hz) > 2.0 * rbw) & (np.abs(f - f_beat_hz) <= 8.0 * rbw)
    if not np.any(flank):
        raise Unresolved("no flanking bins available to estimate the local floor")
    floor = _median(spectrum.psd[flank])
    power = float(np.sum(spectrum.psd[in_band] - floor) * df)
    return BeatnoteEstimate(power=power, floor=floor, peak_psd=float(np.max(spectrum.psd[in_band])))


class _Lockin:
    """Running sum of x[n] e^{-i w n dt} over the samples fed so far.

    Each sub-block of at most _SUB samples is a product with one stacked
    cos/sin table, rotated by the phase w n dt of its first sample, so no
    full-length complex temporary is made.  The products of a chunk's
    sub-blocks are summed by one einsum, which calls no BLAS: a BLAS dot
    splits long vectors over threads of its own, and its last bits
    depend on their number.
    """

    def __init__(self, f_hz: float, dt: float, n: int):
        self.w = TWO_PI * f_hz * dt
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
        """Lock-in power 2 |total|^2 / n^2 of a line at f_hz.

        White noise of one-sided PSD S adds S / (n dt) on average, which
        the caller subtracts.
        """
        return float(2.0 * abs(self.total) ** 2 / self.n**2)


class _Moments:
    """Running count, mean and sum of squared deviations of the values fed so far.

    Blocks merge by the pairwise update of Chan, Golub & LeVeque (1979);
    within a block the squares are summed by einsum, as in _Lockin.  add
    takes each block's deviations from its mean in the block's own
    memory, so a caller hands over a block it reads no more.
    """

    def __init__(self):
        self.n, self.mean, self.m2 = 0, 0.0, 0.0

    def add(self, x: np.ndarray) -> None:
        """Merge the block x into the sums, overwriting x with its deviations from its mean."""
        m, mean = x.size, float(x.mean())
        dev = np.subtract(x, mean, out=x)
        delta, total = mean - self.mean, self.n + m
        self.m2 += float(np.einsum("i,i->", dev, dev)) + delta * delta * self.n * m / total
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

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "value": self.value,
            "target": self.target,
            "tolerance": self.tolerance,
            "passed": bool(self.passed),
        }


@dataclass
class ExperimentReport:
    """Everything a scenario produced: checks, scalars and spectra."""

    scenario: str
    seed: int
    checks: list[CheckResult] = field(default_factory=list)
    scalars: dict = field(default_factory=dict)
    spectra: dict = field(default_factory=dict)

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
    lockin: float  # lock-in power at f_het, see _Lockin.power
    variance: float  # of the difference current
    cross_z: float  # z-score of the zero-lag arm covariance


def _arm_counts(rng: np.random.Generator, means: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Poisson counts of one arm's block of bins with the given means.

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

    A thinned block's counts are made in out[:m], an int64 buffer the
    caller keeps from block to block; a dense block's come in the new
    array of its draw.  A block-sized array made and freed per block
    would have the allocator return its pages and fault them in again.
    """
    m = means.size
    lam = means.max()
    if not lam <= _THIN_PEAK_MEAN:
        return rng.poisson(means)
    idx = rng.integers(0, m, rng.poisson(lam * m))
    keep = rng.random(idx.size) * lam < means[idx]
    counts = out[:m]
    counts.fill(0)
    np.add.at(counts, idx[keep], 1)
    return counts


def _block_currents(
    mean_blocks, rngs, to_pulses: float, to_current: float, totals: list, cross: _Moments
):
    """The difference current of each block of means, in block order: the drawing half of the pass.

    Each arm's counts come from _arm_counts with that arm's generator
    and its row of a counts buffer pair; they are added to totals, made
    into the delta-pulse currents j1 and j2 (count times to_pulses), and
    the zero-lag product of the arms' fluctuations (j - mean times
    to_current) is fed to cross.  Only the difference current j1 - j2 is
    yielded.  Its arrays are a ring of _READ_AHEAD + 1 buffers taken in
    turn, so a block's current stays valid until _READ_AHEAD more blocks
    have been made, which is as far as _read_ahead runs ahead of the
    block its caller is summing.  The product's two factors are formed
    in one scratch pair, overwritten by the next block, and j2 in the
    block's ring buffer, which j1 - j2 then replaces; j1 is made twice
    rather than held in a third array.  The means are only read: one
    array may serve both arms.
    """
    for k, means in enumerate(mean_blocks):
        m = means[0].size
        if k == 0:  # the first block is the largest
            ring = np.empty((_READ_AHEAD + 1, m))
            scratch = np.empty((2, m))
            counts = np.empty((2, m), dtype=np.int64)
        c1, c2 = (_arm_counts(*arm) for arm in zip(rngs, means, counts))
        totals[0] += int(c1.sum())
        totals[1] += int(c2.sum())
        a, b = scratch[:, :m]
        jdiff = ring[k % len(ring), :m]
        # the product's factors j - mean current, with j2 left in jdiff's buffer
        np.multiply(c1, to_pulses, out=a)
        np.multiply(means[0], to_current, out=b)
        b += a
        np.multiply(means[1], to_current, out=a)
        a += np.multiply(c2, to_pulses, out=jdiff)
        b *= a
        cross.add(b)
        np.subtract(np.multiply(c1, to_pulses, out=a), jdiff, out=jdiff)  # j1 again, less j2
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
    """Simulate one record of a validated delta-pulse scene in one pass of _BLOCK-bin blocks.

    Each block gets its bin means, each arm's counts from _arm_counts and
    its currents, which feed the Welch sum, the lock-in sum at f_het, the
    variance of the difference current and the zero-lag covariance of
    the arms.  The deterministic beat lives in both arm means with
    opposite signs, so the covariance is taken after subtracting each
    bin's exact mean current (its mean count times charge / dt): the
    remaining shot fluctuations must be uncorrelated.  When a trace
    writer is given, its header goes out before the first block and
    each block's difference current after it.

    A record of more than one block runs on two threads: a worker runs
    _block_currents up to _READ_AHEAD blocks ahead, drawing the counts
    and feeding the arm totals and the covariance sum, and the calling
    thread feeds the Welch, lock-in and variance sums with each block's
    difference current and writes the trace.  Every sum is fed by one
    thread only, in block order, and only the worker touches the two
    generators, so the counts and every sum are those of a serial pass.
    A record of one block has nothing to overlap and runs serially.

    No block-sized array is made per block but a dense block's counts;
    a thinned block's candidates number its peak mean per bin, at most
    one (0.073 on default.cfg).  One buffer holds each live quantity:
    the bin means' pair, the counts' pair, the ring of difference
    currents and the scratch pair of the arm product's factors are made
    once, the bin-mean and lock-in tables span _SUB samples, not a
    block, and the sums keep nothing of a block but the Welch sum's copy
    of its incomplete segment; the moment sums take their deviations in
    the block they are handed, its last use.  Memory is therefore a
    fixed number of blocks plus a segment, whatever the record length; a
    default.cfg record peaks at about 13 blocks of doubles (6.6 MiB),
    its Welch sum's ~3.5 included.
    """
    meas = scene.meas
    n = int(round(meas.duration * meas.sample_rate))
    dt = 1.0 / meas.sample_rate
    fs = 1.0 / dt  # the trace's rate, which may differ from meas.sample_rate in the last bit
    welch = _Welch(_segment_length(n * dt, fs, meas), fs)
    lockin = _Lockin(scene.f_het_hz, dt, n)
    variance, cross = _Moments(), _Moments()
    to_current = -1.0 / dt
    to_pulses = meas.sample_rate  # a delta pulse's unit charge spread over its bin
    totals = [0, 0]
    currents = _block_currents(
        _bin_mean_blocks(scene.state, scene.lo, scene.det, n, dt), _arm_rngs(seed),
        to_pulses, to_current, totals, cross,
    )
    if trace is not None:
        trace.start(dt, n)
    with contextlib.ExitStack() as stack:
        if n > _BLOCK:
            currents = _read_ahead(stack.enter_context(ThreadPoolExecutor(1)), currents)
        for jdiff in currents:
            welch.add(jdiff)
            lockin.add(jdiff)
            if trace is not None:
                trace.write(jdiff)
            variance.add(jdiff)  # the block's last use: it becomes its deviations
    se = math.sqrt(cross.var(ddof=1) / n)
    return _Record(
        spectrum=welch.spectrum(),
        totals=tuple(totals),
        duration=n * dt,
        lockin=lockin.power(),
        variance=variance.var(),
        cross_z=cross.mean / se if se > 0 else 0.0,
    )


def _check_scene(scene: Scene) -> None:
    """Refuse a scene the packaged checks cannot model, then validate its geometry.

    The check targets assume a coherent signal at a fixed phase, a
    bichromatic LO and delta pulses; the error names the config setting
    that asks for anything else.
    """
    for refused, setting in (
        (not scene.lo.is_bichromatic, "lo.kind = mono"),
        (scene.state.theta_s is None, "field.phase_averaged = true"),
        (scene.state.is_squeezed(), "squeeze.enabled = true"),
        (scene.det.pulse_tau is not None, "detector.pulse = exponential"),
    ):
        if refused:
            raise ConfigViolation(
                f"{setting}: the Monte Carlo checks model only a coherent fixed-phase "
                "signal, a bichromatic LO and delta pulses"
            )
    validate_measurement(scene.meas, scene.lo)
    # no bin of either arm expects more than eta/2 (sum of |amplitudes|)^2 dt
    amps = np.concatenate([a for _, a in _arm_phasors(scene.state, scene.lo)])
    peak = 0.5 * scene.det.eta * float(np.abs(amps).sum()) ** 2 / scene.meas.sample_rate
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
    trace, when given, receives the difference current of the record of
    every scenario but `sensitivity`, block by block as it is made.

    Scenarios:
      shot-floor   vacuum signal; floor level (3 %) and flatness (95 %).
      beatnote     coherent signal; lock-in line power within 5 % of
                   theory, plus floor checks.
      null-phase   signal phase in quadrature to the LO mean phase; no
                   line above floor + 3 sigma.
      sensitivity  empirical SNR_in/SNR_out/NF across the power scan;
                   NF within 0.3 dB of zero for each power.
      default      beatnote checks plus a Parseval consistency check and
                   a zero-lag arm cross-covariance check.

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
    report = ExperimentReport(scenario=scenario, seed=seed)
    root = np.random.SeedSequence(seed)
    if scenario == "shot-floor":
        _scenario_floor(report, scene, root, signal=False, trace=trace)
    elif scenario == "beatnote":
        _scenario_floor(report, scene, root, signal=True, trace=trace)
    elif scenario == "default":
        _scenario_floor(report, scene, root, signal=True, extras=True, trace=trace)
    elif scenario == "null-phase":
        _scenario_null_phase(report, scene, root, trace=trace)
    else:
        _scenario_sensitivity(report, scene, root)
    return report


def _scenario_floor(
    report: ExperimentReport,
    scene: Scene,
    root: np.random.SeedSequence,
    *,
    signal: bool,
    extras: bool = False,
    trace: TraceWriter | None = None,
) -> None:
    _check_scene(scene)
    if not signal:
        vacuum = tuple(replace(m, amplitude=0.0) for m in scene.state.modes)
        scene = replace(scene, state=replace(scene.state, modes=vacuum))
    state, lo, det, meas, f_het = scene.state, scene.lo, scene.det, scene.meas, scene.f_het_hz
    seed = int(root.generate_state(1, dtype=np.uint64)[0] >> 1)
    record = _stream_record(scene, seed, trace)
    spec = record.spectrum

    floor_target = float(shot_floor_psd(lo, det, TWO_PI * f_het))
    floor_mean, floor_sigma, mask = floor_statistics(spec, f_het)
    report.checks.append(
        CheckResult.within("shot_floor_level", floor_mean, floor_target, 0.03 * floor_target)
    )
    t_stat, t_crit = flatness_t_statistic(spec, mask)
    report.checks.append(CheckResult.within("shot_floor_flatness_t", t_stat, 0.0, t_crit))
    report.scalars.update(
        {
            "floor_mean": floor_mean,
            "floor_sigma": floor_sigma,
            "floor_target": floor_target,
            "counts_1": record.totals[0],
            "counts_2": record.totals[1],
        }
    )
    if signal:
        power = record.lockin - floor_mean / record.duration
        target = output_signal_power(state, lo, det) * _binning_power_loss(
            f_het, meas.sample_rate
        )
        report.checks.append(CheckResult.within("beatnote_power", power, target, 0.05 * target))
        report.scalars["beat_power"] = power
        report.scalars["beat_target"] = target
    if extras:
        var = record.variance
        if not var > 0.0:
            raise Unresolved(
                "the difference current is constant, so the Parseval ratio is undefined"
            )
        integrated = float(np.trapezoid(spec.psd, spec.freqs_hz))
        report.checks.append(CheckResult.within("parseval_ratio", integrated / var, 1.0, 0.02))
        report.checks.append(CheckResult.within("arm_cross_covariance_z", record.cross_z, 0.0, 3.0))
    report.spectra["difference_current"] = spec


def _scenario_null_phase(
    report: ExperimentReport,
    scene: Scene,
    root: np.random.SeedSequence,
    *,
    trace: TraceWriter | None = None,
) -> None:
    _check_scene(scene)
    quadrature = scene.lo.theta_bar + math.pi / 2.0
    scene = replace(scene, state=replace(scene.state, theta_s=quadrature))
    seed = int(root.generate_state(1, dtype=np.uint64)[0] >> 1)
    record = _stream_record(scene, seed, trace)
    spec = record.spectrum
    floor_mean, floor_sigma, _ = floor_statistics(spec, scene.f_het_hz)
    beat = extract_beatnote(spec, scene.f_het_hz)
    threshold = floor_mean + 3.0 * floor_sigma
    report.checks.append(
        CheckResult(
            name="null_phase_peak_psd",
            value=beat.peak_psd,
            target=floor_mean,
            tolerance=3.0 * floor_sigma,
            passed=beat.peak_psd <= threshold,
        )
    )
    report.scalars.update(
        {"floor_mean": floor_mean, "floor_sigma": floor_sigma, "peak_psd": beat.peak_psd}
    )
    report.spectra["difference_current"] = spec


def _scenario_sensitivity(
    report: ExperimentReport,
    scan: Scan,
    root: np.random.SeedSequence,
) -> None:
    """Empirical SNR chain across the power scan.

    Each power gets two runs sharing one seed branch: a fixed-phase
    heterodyne run of its scan scene (theta_s = theta_bar) for the
    output side, and a signal-only counting run for the input side.
    The fixed-phase beat power is halved to convert to the
    phase-averaged convention before forming
    SNR_out = P / (floor * rbw_ref), rbw_ref = 1 / window.
    """
    for power, scene in zip(scan.powers_w, scan.scenes):
        _check_scene(scene)
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
        f_het = scene.f_het_hz
        seed_het, seed_count = (int(s.generate_state(1, dtype=np.uint64)[0] >> 1) for s in child.spawn(2))
        spec = _stream_record(scene, seed_het).spectrum
        beat = extract_beatnote(spec, f_het)
        floor_mean, _, _ = floor_statistics(spec, f_het)
        p_avg = 0.5 * beat.power / _binning_power_loss(f_het, scene.meas.sample_rate)

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
        rows.append(
            {
                "power_w": power,
                "photon_flux": flux,
                "snr_in_db": snr_in_emp,
                "snr_out_db": snr_out_emp,
                "nf_db": nf_emp,
            }
        )
        name = f"noise_figure_{power * 1e9:.1f}nW"
        report.checks.append(CheckResult.within(name, nf_emp, 0.0, 0.3))
    report.scalars["rows"] = rows
    report.scalars["photon_energy_j"] = scan.photon_energy_j
