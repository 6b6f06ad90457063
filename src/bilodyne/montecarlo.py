"""Stochastic photoemission simulation of balanced detection.

The chain is: semiclassical emission rates -> closed-form mean count
of every sample bin -> one Poisson draw per bin -> current traces ->
Welch PSD -> beat and floor extraction.  A record runs as one pass over
blocks of _BLOCK samples, each block feeding running sums, so memory is
O(_BLOCK + Welch segment) whatever the record length.  Every stage is
deterministic given the seed; the two detectors draw from independent
child streams of one seed sequence.

A record of more than one block runs on two threads: a worker makes the
bin means and draws the counts up to _READ_AHEAD blocks ahead, and the
calling thread synthesizes the currents and feeds the running sums.
Only the worker draws, block after block, and the sums are fed in block
order, so the results are bit for bit those of a serial pass; memory is
O(_READ_AHEAD + 1 blocks + segment).  A one-block record runs serially.

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
# cost in the import rather than in the first run (np.median loads numpy.ma)
import numpy.fft
import numpy.ma
import numpy.random

from . import correlators
from .analytic import Spectrum, SpectrumKind, shot_floor_psd, output_signal_power
from .config import RunConfig
from .errors import ConfigViolation, InvalidSpec, NonClassicalInput, TooShort, Unresolved
from .model import (
    TWO_PI,
    DetectorParams,
    FieldState,
    LocalOscillator,
    MeasurementConfig,
    PhaseMode,
    Scan,
    Scene,
    validate_measurement,
)

# samples per block of the streamed pass and of its bin-mean and lock-in
# tables; 2^16 doubles is 512 KiB per array
_BLOCK = 1 << 16
# blocks the drawing thread of the streamed pass may run ahead of the
# calling thread: depth 1 leaves it waiting on the caller, 3 gains nothing
_READ_AHEAD = 2
# numpy draws a Poisson count only for a mean below ~9.2e18 (int64); a
# run whose bins or counting windows could ask more is refused first
_MAX_POISSON_MEAN = 1e18


@dataclass(frozen=True)
class CurrentTrace:
    """Sampled currents of the two arms and their difference."""

    j1: np.ndarray
    j2: np.ndarray
    jdiff: np.ndarray
    dt: float

    def __post_init__(self):
        if not (self.j1.shape == self.j2.shape == self.jdiff.shape):
            raise InvalidSpec("current arrays must share one grid")
        if self.dt <= 0:
            raise InvalidSpec("sample interval must be positive")
        for a in (self.j1, self.j2, self.jdiff):
            a.setflags(write=False)

    @property
    def duration(self) -> float:
        return self.jdiff.size * self.dt

    @property
    def sample_rate(self) -> float:
        return 1.0 / self.dt


def _arm_phasors(state: FieldState, lo: LocalOscillator):
    """(offsets, amplitudes) of the LO and the signal in arm 1's E_lo - i M; arm 2 negates M."""
    if state.is_squeezed():
        raise NonClassicalInput("squeezed input has no Poisson rate representation")
    ref = correlators.reference_frequency(state, lo)
    t_offs, t_amps = correlators.tone_phasors(lo, ref)
    m_offs, m_amps = correlators.mode_phasors(state, ref)
    return (t_offs, t_amps), (m_offs, -1j * m_amps)


def intensity_rate(
    state: FieldState,
    lo: LocalOscillator,
    det: DetectorParams,
    detector: int,
    t,
):
    """Expected photoemission rate of one detector arm at time t.

    eta/2 |E_lo(t) -+ i M(t)|^2 evaluated in the rotating frame (exact
    at any t); the tests' reference for bin_means.  Raises
    NonClassicalInput for squeezed states, whose emission statistics
    are not an inhomogeneous Poisson process.
    """
    if detector not in (1, 2):
        raise InvalidSpec("detector index must be 1 or 2")
    (t_offs, t_amps), (m_offs, m_amps) = _arm_phasors(state, lo)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    offsets = np.concatenate([t_offs, m_offs])
    amps = np.concatenate([t_amps, m_amps if detector == 1 else -m_amps])
    out = 0.5 * det.eta * np.abs(correlators.phasor_sum(offsets, amps, t_arr)) ** 2
    return out if np.ndim(t) else float(out[0])


def _beat_terms(phasors_a, phasors_b, terms: dict) -> None:
    """Add each pair a_k b_l* e^{-i (d_k - d_l) t} to terms, keyed by |d_k - d_l|.

    Only real parts count in a rate, and conjugation keeps them, so a
    pair at a negative frequency is conjugated onto the positive one.
    """
    for d_a, a in zip(*phasors_a):
        for d_b, b in zip(*phasors_b):
            d, c = float(d_a - d_b), complex(a * np.conj(b))
            if d < 0.0:
                d, c = -d, c.conjugate()
            terms[d] = terms.get(d, 0.0) + c


def _bin_mean_blocks(state, lo, det, n: int, dt: float):
    """Iterator over (mean_1, mean_2) of bins [k dt, (k+1) dt), _BLOCK bins at a time.

    The arm rate eta/2 |sum_k a_k e^{-i d_k t}|^2 is a trigonometric
    polynomial, so its integral over the bin centred at t_c is
    eta/2 sum_{k,l} a_k a_l* sinc(D_kl dt/2) e^{-i D_kl t_c} dt with
    D_kl = d_k - d_l.  The arms share the LO and signal self terms and
    differ only in the sign of the LO-signal cross terms.  Each distinct
    D has one cos/sin table over a block, which a block rescales by its
    start phase e^{-i D t0}.  The arguments and the state are checked
    at the call, before the first block.
    """
    if n < 1 or not dt > 0.0:
        raise InvalidSpec(f"need at least one bin of positive width, got n={n}, dt={dt!r}")
    lo_ph, sig_ph = _arm_phasors(state, lo)
    common, cross = {}, {}
    _beat_terms(lo_ph, lo_ph, common)
    _beat_terms(sig_ph, sig_ph, common)
    _beat_terms(lo_ph, sig_ph, cross)
    _beat_terms(sig_ph, lo_ph, cross)
    scale = 0.5 * det.eta * dt
    tau = (np.arange(min(n, _BLOCK)) + 0.5) * dt
    tables = {d: (np.cos(d * tau), np.sin(d * tau)) for d in common.keys() | cross.keys() if d}

    def block(terms: dict, t0: float, m: int) -> np.ndarray:
        out = np.zeros(m)
        for d, c in terms.items():
            # the bin integral of e^{-i D t} is dt sinc(D dt / 2) e^{-i D t_c}, and
            # Re(w e^{-i D tau}) = Re(w) cos(D tau) + Im(w) sin(D tau)
            w = scale * float(np.sinc(d * dt / TWO_PI)) * c * cmath.exp(-1j * d * t0)
            if d == 0.0:
                out += w.real
                continue
            cos_t, sin_t = tables[d]
            out += w.real * cos_t[:m]
            out += w.imag * sin_t[:m]
        return out

    def blocks():
        for start in range(0, n, _BLOCK):
            m = min(_BLOCK, n - start)
            shared = block(common, start * dt, m)
            beat = block(cross, start * dt, m)
            yield shared + beat, shared - beat

    return blocks()


def bin_means(state, lo, det, n: int, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact expected photoemission count of each bin [k dt, (k+1) dt), per arm.

    The whole record of the blocks the streamed pass draws from; see
    _bin_mean_blocks for the closed form.
    """
    arms = zip(*_bin_mean_blocks(state, lo, det, n, dt))
    return tuple(np.concatenate(blocks) for blocks in arms)


def _arm_rngs(seed: int) -> list[np.random.Generator]:
    """The two arms' generators, independent child streams of one seed sequence."""
    return [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(2)]


def sample_bin_counts(means, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Photoemission counts of every bin of both arms, one Poisson draw per bin.

    Counts of an inhomogeneous Poisson process in disjoint bins are
    independent Poisson variables with the bins' integrated rates as
    means.  Each arm draws from its own child stream of the seed, one
    bin after the other, so drawing a record block by block from the
    same generators gives the same counts.
    """
    return tuple(rng.poisson(m) for rng, m in zip(_arm_rngs(seed), means))


def synthesize_current(counts, det: DetectorParams, sample_rate: float) -> CurrentTrace:
    """Turn the per-bin counts of both arms into sampled currents and their difference.

    Delta pulses deposit charge/dt in their bin, conserving charge
    exactly, and a block of bins is synthesized on its own.  Exponential
    pulses convolve the count train with the sampled pulse, conserving
    charge to 0.1 % once tau covers a few samples (the test suite pins
    this); their tails cross blocks, so they need the whole record.
    """
    if sample_rate <= 0:
        raise InvalidSpec("sample rate must be positive")
    if counts[0].shape != counts[1].shape:
        raise InvalidSpec("both arms need the same bin grid")
    dt = 1.0 / sample_rate
    n = counts[0].size

    def one_arm(c: np.ndarray) -> np.ndarray:
        if det.pulse.is_delta:
            return c * (det.charge * sample_rate)
        # imported here: no packaged scenario reaches this branch, and
        # scipy stays off the import path of the command line
        from scipy.signal import fftconvolve

        tau = det.pulse.tau
        m = max(1, int(math.ceil(20.0 * tau * sample_rate)))
        kernel = (det.charge / tau) * np.exp(-(np.arange(m) + 0.5) * dt / tau)
        return fftconvolve(c.astype(float), kernel)[:n]

    j1, j2 = (one_arm(c) for c in counts)
    return CurrentTrace(j1=j1, j2=j2, jdiff=j1 - j2, dt=dt)


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
    detrend="constant".  The samples from the start of the first
    incomplete segment on are held over to the next chunk.
    """

    def __init__(self, nperseg: int, fs: float):
        self.nperseg, self.hop, self.fs = nperseg, nperseg - nperseg // 2, fs
        self.window = 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, nperseg + 1))[:-1]
        self.batch = max(1, _BLOCK // nperseg)  # segments per rfft call
        self.total = np.zeros(nperseg // 2 + 1)
        self.segments = 0
        self.held: list[np.ndarray] = []
        self.held_size = 0

    def add(self, x: np.ndarray) -> None:
        self.held.append(x)
        self.held_size += x.size
        if self.held_size < self.nperseg:
            return
        buf = self.held[0] if len(self.held) == 1 else np.concatenate(self.held)
        segs = np.lib.stride_tricks.sliding_window_view(buf, self.nperseg)[:: self.hop]
        for first in range(0, len(segs), self.batch):
            part = segs[first : first + self.batch]
            part = part - part.mean(axis=1, keepdims=True)
            part *= self.window
            spec = np.fft.rfft(part, axis=1)
            self.total += (spec.real**2 + spec.imag**2).sum(axis=0)
        self.segments += len(segs)
        rest = buf[len(segs) * self.hop :].copy()
        self.held, self.held_size = [rest], rest.size

    def spectrum(self) -> Spectrum:
        psd = self.total / (self.segments * self.fs * float((self.window * self.window).sum()))
        psd[1 : None if self.nperseg % 2 else -1] *= 2.0
        return Spectrum(
            freqs_hz=np.fft.rfftfreq(self.nperseg, 1.0 / self.fs),
            psd=psd,
            rbw_hz=self.fs / self.nperseg,
            kind=SpectrumKind.ESTIMATED,
        )


def estimate_psd(trace: CurrentTrace, cfg: MeasurementConfig) -> Spectrum:
    """Welch PSD of the difference current (one-sided, density scaling).

    Hann window, 50 % overlap, per-segment constant detrend; segment
    length is sample_rate / rbw so the grid spacing equals the
    resolution bandwidth.  Raises TooShort when the record cannot hold
    cfg.n_segments non-overlapping segments.
    """
    welch = _Welch(_segment_length(trace.duration, trace.sample_rate, cfg), trace.sample_rate)
    welch.add(trace.jdiff)
    return welch.spectrum()


@dataclass(frozen=True)
class BeatnoteEstimate:
    """Integrated line power after local floor subtraction."""

    power: float
    freq_hz: float
    floor: float
    floor_sigma: float
    peak_psd: float


def extract_beatnote(spectrum: Spectrum, f_beat_hz: float) -> BeatnoteEstimate:
    """Integrate the spectral line at f_beat_hz above its local floor.

    The line band is +-2 rbw around the target; the floor and its
    per-bin scatter come from the flanking bins 3..8 rbw away.  Raises
    Unresolved when the grid cannot place the line (off-grid or out of
    range).
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
    floor = float(np.median(spectrum.psd[flank]))
    floor_sigma = float(np.std(spectrum.psd[flank], ddof=1)) if flank.sum() > 1 else 0.0
    power = float(np.sum(spectrum.psd[in_band] - floor) * df)
    return BeatnoteEstimate(
        power=power,
        freq_hz=float(f[idx]),
        floor=floor,
        floor_sigma=floor_sigma,
        peak_psd=float(np.max(spectrum.psd[in_band])),
    )


class _Lockin:
    """Running sum of x[n] e^{-i w n dt} over the samples fed so far.

    Each block of at most _BLOCK samples is a product with one cos/sin
    table, rotated by the phase w n dt of its first sample, so no
    full-length complex temporary is made.  The products are summed by
    einsum, which calls no BLAS: a BLAS dot splits long vectors over
    threads of its own, and its last bits depend on their number.
    """

    def __init__(self, f_hz: float, dt: float, n: int):
        self.w = TWO_PI * f_hz * dt
        phase = self.w * np.arange(min(n, _BLOCK))  # tables no longer than the record
        self.cos, self.sin = np.cos(phase), np.sin(phase)
        self.total = 0j
        self.n = 0

    def add(self, x: np.ndarray) -> None:
        for start in range(0, x.size, _BLOCK):
            part = x[start : start + _BLOCK]
            m = part.size
            re, im = (np.einsum("i,i->", part, table[:m]) for table in (self.cos, self.sin))
            row = complex(re, -im)
            self.total += row * cmath.exp(-1j * self.w * self.n)
            self.n += m

    def power(self) -> float:
        return float(2.0 * abs(self.total) ** 2 / self.n**2)


def lockin_power(x: np.ndarray, f_hz: float, dt: float) -> float:
    """Full-record lock-in power 2 |sum_n x[n] e^{-i w n dt}|^2 / N^2 of a line at f_hz.

    White noise of one-sided PSD S adds S / (N dt) on average, which the
    caller subtracts.
    """
    lockin = _Lockin(f_hz, dt, x.size)
    lockin.add(x)
    return lockin.power()


class _Moments:
    """Running count, mean and sum of squared deviations of the values fed so far.

    Blocks merge by the pairwise update of Chan, Golub & LeVeque (1979);
    within a block the squares are summed by einsum, as in _Lockin.
    """

    def __init__(self):
        self.n, self.mean, self.m2 = 0, 0.0, 0.0

    def add(self, x: np.ndarray) -> None:
        m, mean = x.size, float(x.mean())
        dev = x - mean
        delta, total = mean - self.mean, self.n + m
        self.m2 += float(np.einsum("i,i->", dev, dev)) + delta * delta * self.n * m / total
        self.mean += delta * m / total
        self.n = total

    def var(self, ddof: int = 0) -> float:
        return self.m2 / (self.n - ddof)


def floor_statistics(
    spectrum: Spectrum,
    f_het_hz: float,
    *,
    extra_exclude_hz: tuple[float, ...] = (),
) -> tuple[float, float, np.ndarray]:
    """Mean and per-bin scatter of the flat floor, with line bins masked.

    Excludes +-2 rbw around DC, the beat, its second harmonic and any
    caller-supplied lines.  Returns (mean, sigma_of_bin, mask).
    """
    f = spectrum.freqs_hz
    rbw = spectrum.rbw_hz
    mask = np.ones(f.size, dtype=bool)
    for f0 in (0.0, f_het_hz, 2.0 * f_het_hz, *extra_exclude_hz):
        mask &= np.abs(f - f0) > 2.0 * rbw
    if not np.any(mask):
        raise Unresolved("no floor bins left after exclusions")
    kept = spectrum.psd[mask]
    return float(kept.mean()), float(kept.std(ddof=1)), mask


def flatness_t_statistic(spectrum: Spectrum, mask: np.ndarray, decimate: int = 3):
    """OLS slope t-test of the floor versus frequency.

    Uses every decimate-th unmasked bin so neighbouring-bin correlation
    from the Hann overlap does not understate the standard error.
    Returns (t_statistic, t_critical_95).
    """
    f = spectrum.freqs_hz[mask][::decimate]
    y = spectrum.psd[mask][::decimate]
    if f.size < 10:
        raise Unresolved("too few floor bins for a slope test")
    fd, yd = f - f.mean(), y - y.mean()
    # einsum rather than BLAS dots, as in _Lockin
    sxx = float(np.einsum("i,i->", fd, fd))
    slope = float(np.einsum("i,i->", fd, yd)) / sxx
    resid = yd - slope * fd
    dof = f.size - 2
    stderr = math.sqrt(float(np.einsum("i,i->", resid, resid)) / dof / sxx)
    # imported here so that scipy stays off the import path of the command line
    from scipy.special import stdtrit

    t_crit = float(stdtrit(dof, 0.975))
    t_stat = slope / stderr if stderr > 0 else 0.0
    return t_stat, t_crit


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
    traces: dict = field(default_factory=dict)

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
    """The statistics of one simulated record, and its trace when kept."""

    spectrum: Spectrum
    totals: tuple[int, int]  # photoemissions per arm
    duration: float
    lockin: float  # lock-in power at f_het, see lockin_power
    variance: float  # of the difference current
    cross_z: float  # z-score of the zero-lag arm covariance
    trace: CurrentTrace | None


def _draws(mean_blocks, rngs):
    """(means, counts) of each block of means, one Poisson draw per bin and arm, in block order."""
    for means in mean_blocks:
        yield means, tuple(rng.poisson(m) for rng, m in zip(rngs, means))


def _read_ahead(pool: ThreadPoolExecutor, items):
    """The items of an iterator, each taken on pool's one thread up to _READ_AHEAD items early.

    The worker's error is raised here, in place of its item.  Shutting
    the pool down waits for the items still pending.
    """
    pending = deque(pool.submit(next, items, None) for _ in range(_READ_AHEAD))
    while (item := pending.popleft().result()) is not None:
        pending.append(pool.submit(next, items, None))
        yield item


def _stream_record(scene: Scene, seed: int, keep_trace: bool = False) -> _Record:
    """Simulate one record of a validated delta-pulse scene in one pass of _BLOCK-bin blocks.

    Each block gets its bin means, one Poisson draw per bin and arm and
    its currents, which feed the Welch sum, the lock-in sum at f_het, the
    variance of the difference current and the zero-lag covariance of
    the arms.  The deterministic beat lives in both arm means with
    opposite signs, so the covariance is taken after subtracting each
    bin's exact mean current (its mean count times charge / dt): the
    remaining shot fluctuations must be uncorrelated.  The whole trace
    is kept, 24 bytes per sample, only when keep_trace asks for it.

    A record of more than one block runs on two threads.  A worker
    thread makes the bin means and draws both arms' counts, up to
    _READ_AHEAD blocks ahead; the calling thread synthesizes the
    currents and feeds every running sum and the kept trace, in block
    order.  Only the worker touches the two generators, block after
    block, so the counts, and every sum fed in the same order, are those
    of a serial pass; memory is O(_READ_AHEAD + 1 blocks + segment).  A
    record of one block has nothing to overlap and runs serially.
    """
    meas, det = scene.meas, scene.det
    n = int(round(meas.duration * meas.sample_rate))
    dt = 1.0 / meas.sample_rate
    fs = 1.0 / dt  # the kept trace's sample_rate, so its estimate_psd has this grid
    welch = _Welch(_segment_length(n * dt, fs, meas), fs)
    lockin = _Lockin(scene.f_het_hz, dt, n)
    variance, cross = _Moments(), _Moments()
    to_current = -det.charge / dt
    totals, start = [0, 0], 0
    whole = [np.empty(n) for _ in range(3)] if keep_trace else []  # j1, j2, jdiff
    draws = _draws(_bin_mean_blocks(scene.state, scene.lo, det, n, dt), _arm_rngs(seed))
    with contextlib.ExitStack() as stack:
        if n > _BLOCK:
            draws = _read_ahead(stack.enter_context(ThreadPoolExecutor(1)), draws)
        for means, counts in draws:
            totals = [total + int(c.sum()) for total, c in zip(totals, counts)]
            block = synthesize_current(counts, det, meas.sample_rate)
            welch.add(block.jdiff)
            lockin.add(block.jdiff)
            variance.add(block.jdiff)
            d1 = np.multiply(means[0], to_current)
            d1 += block.j1
            d2 = np.multiply(means[1], to_current)
            d2 += block.j2
            d1 *= d2
            cross.add(d1)
            for out, part in zip(whole, (block.j1, block.j2, block.jdiff)):
                out[start : start + part.size] = part
            start += block.jdiff.size
    se = math.sqrt(cross.var(ddof=1) / n)
    return _Record(
        spectrum=welch.spectrum(),
        totals=tuple(totals),
        duration=n * dt,
        lockin=lockin.power(),
        variance=variance.var(),
        cross_z=cross.mean / se if se > 0 else 0.0,
        trace=CurrentTrace(*whole, dt=dt) if keep_trace else None,
    )


def _check_scene(scene: Scene) -> None:
    """Refuse a scene the packaged checks cannot model, then validate its geometry.

    The check targets assume a coherent signal at a fixed phase, a
    bichromatic LO and delta pulses; the error names the config setting
    that asks for anything else.
    """
    for refused, setting in (
        (not scene.lo.is_bichromatic, "lo.kind = mono"),
        (scene.state.phase.averaged, "field.phase_averaged = true"),
        (scene.state.is_squeezed(), "squeeze.enabled = true"),
        (not scene.det.pulse.is_delta, "detector.pulse = exponential"),
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
    keep_traces: bool = False,
) -> ExperimentReport:
    """Run a packaged Monte Carlo experiment and check it against theory.

    scene is a Scene from RunConfig.build_scene, or for `sensitivity` a
    Scan from RunConfig.build_scan; None runs the config defaults.

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
    """
    if scene is None:
        cfg = RunConfig.defaults()
        scene = cfg.build_scan() if scenario == "sensitivity" else cfg.build_scene()
    report = ExperimentReport(scenario=scenario, seed=seed)
    root = np.random.SeedSequence(seed)
    if scenario == "shot-floor":
        _scenario_floor(report, scene, root, signal=False, keep_traces=keep_traces)
    elif scenario == "beatnote":
        _scenario_floor(report, scene, root, signal=True, keep_traces=keep_traces)
    elif scenario == "default":
        _scenario_floor(report, scene, root, signal=True, extras=True, keep_traces=keep_traces)
    elif scenario == "null-phase":
        _scenario_null_phase(report, scene, root, keep_traces=keep_traces)
    elif scenario == "sensitivity":
        _scenario_sensitivity(report, scene, root)
    else:
        raise InvalidSpec(f"unknown scenario {scenario!r}")
    return report


def _scenario_floor(
    report: ExperimentReport,
    scene: Scene,
    root: np.random.SeedSequence,
    *,
    signal: bool,
    extras: bool = False,
    keep_traces: bool = False,
) -> None:
    _check_scene(scene)
    if not signal:
        vacuum = tuple(replace(m, amplitude=0.0) for m in scene.state.modes)
        scene = replace(scene, state=replace(scene.state, modes=vacuum))
    state, lo, det, meas, f_het = scene.state, scene.lo, scene.det, scene.meas, scene.f_het_hz
    seed = int(root.generate_state(1, dtype=np.uint64)[0] >> 1)
    record = _stream_record(scene, seed, keep_traces)
    spec = record.spectrum

    floor_target = float(shot_floor_psd(lo, det, TWO_PI * f_het))
    floor_mean, floor_sigma, mask = floor_statistics(spec, f_het)
    report.checks.append(
        CheckResult(
            name="shot_floor_level",
            value=floor_mean,
            target=floor_target,
            tolerance=0.03 * floor_target,
            passed=abs(floor_mean - floor_target) <= 0.03 * floor_target,
        )
    )
    t_stat, t_crit = flatness_t_statistic(spec, mask)
    report.checks.append(
        CheckResult(
            name="shot_floor_flatness_t",
            value=t_stat,
            target=0.0,
            tolerance=t_crit,
            passed=abs(t_stat) <= t_crit,
        )
    )
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
        report.checks.append(
            CheckResult(
                name="beatnote_power",
                value=power,
                target=target,
                tolerance=0.05 * target,
                passed=abs(power - target) <= 0.05 * target,
            )
        )
        report.scalars["beat_power"] = power
        report.scalars["beat_target"] = target
    if extras:
        var = record.variance
        if not var > 0.0:
            raise Unresolved(
                "the difference current is constant, so the Parseval ratio is undefined"
            )
        integrated = float(np.trapezoid(spec.psd, spec.freqs_hz))
        report.checks.append(
            CheckResult(
                name="parseval_ratio",
                value=integrated / var,
                target=1.0,
                tolerance=0.02,
                passed=abs(integrated / var - 1.0) <= 0.02,
            )
        )
        report.checks.append(
            CheckResult(
                name="arm_cross_covariance_z",
                value=record.cross_z,
                target=0.0,
                tolerance=3.0,
                passed=abs(record.cross_z) <= 3.0,
            )
        )
    report.spectra["difference_current"] = spec
    if keep_traces:
        report.traces["difference_current"] = record.trace


def _scenario_null_phase(
    report: ExperimentReport,
    scene: Scene,
    root: np.random.SeedSequence,
    *,
    keep_traces: bool = False,
) -> None:
    _check_scene(scene)
    quadrature = PhaseMode.fixed(scene.lo.theta_bar + math.pi / 2.0)
    scene = replace(scene, state=replace(scene.state, phase=quadrature))
    seed = int(root.generate_state(1, dtype=np.uint64)[0] >> 1)
    record = _stream_record(scene, seed, keep_traces)
    spec = record.spectrum
    if keep_traces:
        report.traces["difference_current"] = record.trace
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
        report.checks.append(
            CheckResult(
                name=f"noise_figure_{power * 1e9:.1f}nW",
                value=nf_emp,
                target=0.0,
                tolerance=0.3,
                passed=abs(nf_emp) <= 0.3,
            )
        )
    report.scalars["rows"] = rows
    report.scalars["photon_energy_j"] = scan.photon_energy_j
