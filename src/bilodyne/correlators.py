"""Second-order moments and intensity-fluctuation correlators.

Mode and tone frequencies are offsets from the scene's optical carrier
(see model), so every beat is an exact float difference of small
offsets and every phasor is taken in the frame rotating at the carrier.
collect_beats is the one beat rule: the sampler's bin
means and excess_lines both collect their products of phasor sums with
it.

Moment conventions, with d = fluctuation operator (a - <a>):
    normal[m, n]    = <d_m^dag d_n>      (Hermitian, real diagonal)
    anomalous[m, n] = <d_m d_n>          (symmetric)
A two-mode squeeze pair (r, phi) between modes a and b populates
normal[a, a] = normal[b, b] = sinh(r)^2 and sets
anomalous[a, b] = anomalous[b, a] = e^{i phi} cosh(r) sinh(r),
the Schmidt-basis convention of exp(xi a^dag b^dag - xi* a b)|00>.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec, UnknownMode, Unsupported, WeakLO
from .model import FieldState, Hypothesis, LocalOscillator, ModeLabel

# Bound saturated by pure squeezed states; allow this much numerical slack.
HEISENBERG_TOL = 1e-12


@dataclass(frozen=True)
class MomentTable:
    """Normal and anomalous second moments over a fixed mode list.

    frequencies are the mode frequencies (offsets, rad/s) in the order
    the matrices are indexed.
    """

    frequencies: tuple[float, ...]
    normal: np.ndarray
    anomalous: np.ndarray

    def __post_init__(self):
        n = len(self.frequencies)
        if self.normal.shape != (n, n) or self.anomalous.shape != (n, n):
            raise InvalidSpec("moment matrices must be square over the mode list")
        self.normal.setflags(write=False)
        self.anomalous.setflags(write=False)
        if not np.allclose(self.normal, self.normal.conj().T, atol=HEISENBERG_TOL, rtol=0.0):
            raise InvalidSpec("normal moment matrix must be Hermitian")
        diag = np.diag(self.normal)
        if np.any(diag.real < -HEISENBERG_TOL) or np.any(np.abs(diag.imag) > HEISENBERG_TOL):
            raise InvalidSpec("mode populations must be real and non-negative")
        if not np.allclose(self.anomalous, self.anomalous.T, atol=HEISENBERG_TOL, rtol=0.0):
            raise InvalidSpec("anomalous moment matrix must be symmetric")
        # uncertainty bound |<d_m d_n>|^2 <= g(N_mm) g(N_nn) with
        # g(N) = sqrt(N (N + 1)); pure squeezed states saturate it.
        pop = np.clip(diag.real, 0.0, None)
        g = np.sqrt(pop * (pop + 1.0))
        bound = np.outer(g, g)
        # Saturating pure states must pass at any magnitude, so the slack
        # needs a relative part on top of the absolute floor.
        slack = bound * HEISENBERG_TOL + HEISENBERG_TOL
        if np.any(np.abs(self.anomalous) ** 2 > bound + slack):
            raise InvalidSpec("anomalous moment violates the uncertainty bound")

    def is_zero(self) -> bool:
        return not (np.any(self.normal) or np.any(self.anomalous))


def _match_mode(freqs: tuple[float, ...], target: float) -> int:
    for k, f in enumerate(freqs):
        if f == target:
            return k
    raise UnknownMode(f"no mode at frequency {target!r} (rad/s) in the state")


def mode_field_index(label: ModeLabel) -> int:
    """Field-group index of a mode label under the three-field split."""
    if label is ModeLabel.IMAGE1:
        return 1
    if label is ModeLabel.IMAGE2:
        return 2
    return 0


def hypothesis_moments(state: FieldState) -> MomentTable:
    """Fluctuation moments of the state as seen by the detection model.

    Coherent and vacuum modes contribute nothing; each squeeze pair adds
    its thermal populations and anomalous entry.  Under THREE_FIELDS,
    modes in different field groups belong to statistically independent
    fields, so their cross moments are zeroed.  Raises UnknownMode if a
    pair references a frequency absent from the mode list.
    """
    freqs = tuple(m.frequency for m in state.modes)
    n = len(freqs)
    normal = np.zeros((n, n), dtype=complex)
    anomalous = np.zeros((n, n), dtype=complex)
    for pair in state.squeeze:
        ia = _match_mode(freqs, pair.freq_a)
        ib = _match_mode(freqs, pair.freq_b)
        ch, sh = math.cosh(pair.r), math.sinh(pair.r)
        normal[ia, ia] += sh * sh
        if ib != ia:
            normal[ib, ib] += sh * sh
        m = cmath.exp(1j * pair.phi) * ch * sh
        anomalous[ia, ib] = m
        anomalous[ib, ia] = m
    if state.hypothesis is Hypothesis.THREE_FIELDS:
        groups = np.array([mode_field_index(m.label) for m in state.modes])
        split = groups[:, None] != groups[None, :]
        normal[split] = 0.0
        anomalous[split] = 0.0
    return MomentTable(frequencies=freqs, normal=normal, anomalous=anomalous)


# ---------------------------------------------------------------------------
# rotating-frame phasor decompositions
# ---------------------------------------------------------------------------


def tone_phasors(lo: LocalOscillator) -> tuple[np.ndarray, np.ndarray]:
    """LO field as sum_p L_p e^{-i d_p t} in the frame rotating at the carrier.

    Returns (offsets d_p rad/s, complex amplitudes L_p); each of the n
    tones carries L_p = E_l/sqrt(n) e^{i theta_p}.
    """
    per_tone = lo.amplitude / math.sqrt(len(lo.tones))
    offs = np.array([w for w, _ in lo.tones])
    amps = np.array([per_tone * complex(math.cos(t), math.sin(t)) for _, t in lo.tones])
    return offs, amps


def mode_phasors(state: FieldState) -> tuple[np.ndarray, np.ndarray]:
    """Mean signal field as sum_k m_k e^{-i d_k t} in the frame rotating at the carrier.

    The i/sqrt(2) convention and the signal phase theta_s are folded
    into the coefficients, so the mean field is exactly
    e^{-i carrier t} * sum_k m_k e^{-i d_k t}.  A phase-averaged state has
    no such mean field and is refused (Unsupported).
    """
    if state.theta_s is None:
        raise Unsupported("the mean field needs a fixed signal phase, not a phase average")
    phase_factor = 1j / math.sqrt(2.0) * cmath.exp(1j * state.theta_s)
    offs = np.array([m.frequency for m in state.modes])
    amps = np.array([phase_factor * m.amplitude for m in state.modes], dtype=complex)
    return offs, amps


def collect_beats(terms, tol: float = 0.0) -> dict[float, complex]:
    """The one beat rule: the terms (f, c) of sum c e^{-i f t}, summed by |f|.

    A term at f < 0 is conjugated onto -f, which keeps its real part,
    the only part a caller reads.  Terms at one |f| are summed in their
    order.  With tol > 0 the frequencies are then grouped in ascending
    order: a group starts at its smallest frequency and takes every one
    within tol above it.  Its terms are summed at that smallest
    frequency, or at 0.0 when it lies within tol of 0.
    """
    beats: dict[float, complex] = {}
    for f, c in terms:
        f, c = float(f), complex(c)
        if f < 0.0:
            f, c = -f, c.conjugate()
        beats[f] = beats.get(f, 0.0) + c
    if tol <= 0.0:
        return beats
    merged: dict[float, complex] = {}
    head = -math.inf
    for f in sorted(beats):
        if f - head > tol:
            head, key = f, (0.0 if f <= tol else f)
        merged[key] = merged.get(key, 0.0) + beats[f]
    return merged


def fluctuation_flux(table: MomentTable) -> float:
    """Photon flux carried by fluctuation populations, sum_m N_mm / 2."""
    return float(np.diag(table.normal).real.sum()) / 2.0


def require_strong_lo(state: FieldState, lo: LocalOscillator, table: MomentTable) -> None:
    """The strong-LO expansion needs E_l^2 >= 100x the total signal flux."""
    coherent = sum(abs(m.amplitude) ** 2 for m in state.modes) / 2.0
    total = coherent + fluctuation_flux(table)
    if lo.amplitude**2 < 100.0 * total:
        raise WeakLO(
            f"LO flux {lo.amplitude ** 2:g} is below 100x the signal flux {total:g}; "
            "the leading-order fluctuation expansion does not apply"
        )


def excess_lines(state: FieldState, lo: LocalOscillator) -> list[tuple[float, float]]:
    """Discrete beat lines of the beyond-shot photocurrent noise.

    Returns [(angular frequency >= 0, one-sided line power)] for the
    period-averaged excess autocorrelation of the difference current,
    before detector factors: multiply each power by eta^2 |K(w)|^2 to
    get the contribution to the current PSD.

    Phase averaging wipes out the anomalous (squeeze-angle sensitive)
    contributions; the population terms survive it.  A weak LO is
    refused (WeakLO) before a state without fluctuations returns [].
    """
    table = hypothesis_moments(state)
    require_strong_lo(state, lo, table)
    if table.is_zero():
        return []
    t_offs, t_amps = tone_phasors(lo)
    m_offs = np.array(table.frequencies)
    normal, anomalous = table.normal, table.anomalous
    # phase averaging drops the squeeze beats
    sq_phase = None if state.theta_s is None else cmath.exp(-2j * state.theta_s)
    scale = max(1.0, float(np.max(np.abs(m_offs)) if m_offs.size else 1.0),
                float(np.max(np.abs(t_offs))))
    tol = 1e-9 * scale
    terms = []
    tones, modes = range(len(t_offs)), range(len(m_offs))
    for p, q, m, n_ in itertools.product(tones, tones, modes, modes):
        # population beat: (d_m - d_p) + (d_q - d_n) = 0
        if normal[m, n_] != 0 and abs((m_offs[m] - t_offs[p]) + (t_offs[q] - m_offs[n_])) <= tol:
            c = 0.5 * t_amps[p] * np.conj(t_amps[q]) * normal[m, n_]
            terms.append((t_offs[q] - m_offs[n_], c))
        # squeeze beat: d_m + d_n = d_p + d_q
        if (
            sq_phase is not None
            and anomalous[m, n_] != 0
            and abs((m_offs[m] - t_offs[p]) + (m_offs[n_] - t_offs[q])) <= tol
        ):
            c = 0.5 * sq_phase * t_amps[p] * t_amps[q] * np.conj(anomalous[m, n_])
            terms.append((m_offs[n_] - t_offs[q], c))
    # a line is a term at nu plus its conjugate at -nu: power 2 Re c
    return sorted((nu, 2.0 * c.real) for nu, c in collect_beats(terms, tol).items())
