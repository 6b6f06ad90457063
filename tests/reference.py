"""Independent references that the package's closed forms are checked against.

None of these is on a production path: the truncated Fock-space oracle
for the squeeze moments, the prepared state's moments before any field
grouping, and the per-time intensity correlator that the extracted beat
lines must rebuild.  scipy is needed here only, by the oracle.
"""

from __future__ import annotations

import cmath
import dataclasses

import numpy as np

from bilodyne.correlators import (
    MomentTable,
    hypothesis_moments,
    reference_frequency,
    require_strong_lo,
    tone_phasors,
)
from bilodyne.errors import BilodyneError, InvalidSpec
from bilodyne.model import FieldState, Hypothesis, LocalOscillator

# Fock-space population allowed at the truncation edge before the
# oracle refuses to trust its own numbers.
TAIL_TOL = 1e-10


class TruncationInsufficient(BilodyneError):
    """Fock-space truncation too small for the requested squeezing."""


def fock_oracle_moments(r: float, phi: float, n_trunc: int) -> dict:
    """Two-mode squeezed vacuum moments from truncated Fock-space evolution.

    Builds the squeeze generator xi a^dag b^dag - xi* a b on a
    (n_trunc x n_trunc)-level lattice, applies exp(G) to |0,0> and reads
    the moments off the state vector.  Completely independent of the
    closed-form expressions in hypothesis_moments, so the two can check
    each other.

    Raises TruncationInsufficient when the population at either
    truncation edge reaches TAIL_TOL.
    """
    import scipy.sparse as sp
    from scipy.sparse.linalg import expm_multiply

    if n_trunc < 2:
        raise InvalidSpec("need at least two Fock levels per mode")
    if r < 0.0:
        raise InvalidSpec("squeeze parameter must be >= 0")
    n = n_trunc
    lower = sp.diags(np.sqrt(np.arange(1.0, n)), 1, format="csr")
    eye = sp.identity(n, format="csr")
    op_a = sp.kron(lower, eye, format="csr")
    op_b = sp.kron(eye, lower, format="csr")
    xi = r * cmath.exp(1j * phi)
    gen = xi * (op_a.conj().T @ op_b.conj().T) - xi.conjugate() * (op_a @ op_b)
    psi0 = np.zeros(n * n, dtype=complex)
    psi0[0] = 1.0
    psi = expm_multiply(gen, psi0)
    prob = np.abs(psi.reshape(n, n)) ** 2
    tail = prob[-1, :].sum() + prob[:, -1].sum() - prob[-1, -1]
    if tail >= TAIL_TOL:
        raise TruncationInsufficient(
            f"population {tail:.3e} at truncation edge {n - 1} exceeds {TAIL_TOL:g}; "
            "increase n_trunc"
        )

    def ev(op) -> complex:
        return complex(np.vdot(psi, op @ psi))

    mean_a = ev(op_a)
    mean_b = ev(op_b)
    return {
        "mean_a": mean_a,
        "mean_b": mean_b,
        "n_a": ev(op_a.conj().T @ op_a) - abs(mean_a) ** 2,
        "n_b": ev(op_b.conj().T @ op_b) - abs(mean_b) ** 2,
        "cross_normal": ev(op_a.conj().T @ op_b) - mean_a.conjugate() * mean_b,
        "anomalous_ab": ev(op_a @ op_b) - mean_a * mean_b,
        "anomalous_aa": ev(op_a @ op_a) - mean_a * mean_a,
        "anomalous_bb": ev(op_b @ op_b) - mean_b * mean_b,
        "tail_population": float(tail),
    }


def second_moments(state: FieldState) -> MomentTable:
    """Fluctuation moments of the prepared state, before any field grouping.

    These are hypothesis_moments under ONE_FIELD, which keeps every
    cross moment.  Raises UnknownMode if a pair references a frequency
    absent from the mode list.
    """
    return hypothesis_moments(dataclasses.replace(state, hypothesis=Hypothesis.ONE_FIELD))


def lambda_ij(
    state: FieldState,
    lo: LocalOscillator,
    i: int,
    j: int,
    t: float,
    iota: float,
) -> float:
    """Leading-order intensity-fluctuation correlator of detectors i and j.

    Evaluates <: dI_i(t) dI_j(t + iota) :> in the strong-LO limit, where
    dI_i keeps only LO x fluctuation cross terms.  The result carries
    the detector sign product (-1)^(i+j) and is identically zero for
    coherent input, once a weak LO has been refused (WeakLO).
    Real-valued by construction.
    """
    if i not in (1, 2) or j not in (1, 2):
        raise InvalidSpec("detector indices must be 1 or 2")
    table = hypothesis_moments(state)
    require_strong_lo(state, lo, table)
    if table.is_zero():
        return 0.0
    ref = reference_frequency(state, lo)
    t_offs, t_amps = tone_phasors(lo, ref)
    m_offs = np.array([f - ref for f in table.frequencies])
    t2 = t + iota
    lo_t = t_amps @ np.exp(-1j * t_offs * t)
    lo_t2 = t_amps @ np.exp(-1j * t_offs * t2)
    u_t = np.exp(1j * m_offs * t)
    u_t2 = np.exp(1j * m_offs * t2)
    # <dE-(t) dE+(t2)> x E+(t) E-(t2), summed over mode pairs
    term_n = 0.5 * lo_t * np.conj(lo_t2) * (u_t @ table.normal @ np.conj(u_t2))
    # -<dE+(t) dE+(t2)>* x E+(t) E+(t2)
    term_a = 0.0
    if state.theta_s is not None:
        sq_phase = cmath.exp(-2j * state.theta_s)
        term_a = 0.5 * sq_phase * lo_t * lo_t2 * (u_t @ table.anomalous.conj() @ u_t2)
    sign = 1.0 if i == j else -1.0
    return float(sign * 0.5 * (term_n + term_a).real)
