"""Shared geometry builders, the spectrum CSV reader and the session-wide default MC run."""

from __future__ import annotations

import math
import time
from pathlib import Path

import numpy as np
import pytest

from bilodyne.errors import ParseError
from bilodyne.model import (
    TWO_PI,
    DetectorParams,
    FieldMode,
    FieldState,
    Hypothesis,
    LocalOscillator,
    MeasurementConfig,
    ModeLabel,
    SqueezePair,
)
from bilodyne.montecarlo import run_experiment

# default.cfg's optical carrier, rad/s; modes and LO tones are offsets from
# it, and the signal mode sits at the carrier, offset 0
CARRIER = TWO_PI * 2.82e14
OMEGA_S = 0.0
OMEGA_HET = TWO_PI * 1.0e5
LO_FLUX = 1.0e6
SIGNAL_FLUX = 1.0e3
ETA = 0.7
DEFAULT_SEED = 20260815


def coherent_state(flux: float = SIGNAL_FLUX, theta_s: float = 0.0, averaged: bool = False):
    return FieldState(
        (FieldMode(frequency=OMEGA_S, amplitude=math.sqrt(2.0 * flux)),),
        theta_s=None if averaged else theta_s,
    )


def squeezed_state(
    hypothesis: Hypothesis,
    *,
    r: float = 0.5,
    phi: float = 0.0,
    offset: float = 2.0 * OMEGA_HET,
    labels=(ModeLabel.IMAGE1, ModeLabel.IMAGE2),
    theta_s: float = 0.0,
    averaged: bool = False,
    flux: float = SIGNAL_FLUX,
):
    modes = (
        FieldMode(frequency=OMEGA_S, amplitude=math.sqrt(2.0 * flux)),
        FieldMode(frequency=OMEGA_S + offset, amplitude=0.0, label=labels[0]),
        FieldMode(frequency=OMEGA_S - offset, amplitude=0.0, label=labels[1]),
    )
    return FieldState(
        modes,
        hypothesis=hypothesis,
        squeeze=(SqueezePair(OMEGA_S + offset, OMEGA_S - offset, r, phi),),
        theta_s=None if averaged else theta_s,
    )


def standard_lo(theta_1: float = 0.0, theta_2: float = 0.0, flux: float = LO_FLUX):
    return LocalOscillator(
        math.sqrt(flux), ((OMEGA_S + OMEGA_HET, theta_1), (OMEGA_S - OMEGA_HET, theta_2))
    )


def mono_lo(flux: float = LO_FLUX, theta: float = 0.0, omega: float = OMEGA_S):
    return LocalOscillator(math.sqrt(flux), ((omega, theta),))


def standard_detector(eta: float = ETA):
    return DetectorParams(eta=eta)


def standard_measurement(duration: float = 2.0, rbw: float = 1e3, fs: float = 1e7):
    return MeasurementConfig(duration=duration, rbw=rbw, sample_rate=fs)


def read_spectrum_csv(path: Path | str) -> tuple[np.ndarray, np.ndarray]:
    """The two columns of a spectrum CSV; a header-only file gives two empty arrays."""
    rows = Path(path).read_text().strip().splitlines()
    if not rows or rows[0] != "freq_hz,psd":
        raise ParseError(f"{path}: not a spectrum CSV")
    try:
        pairs = [(float(f), float(p)) for f, p in (row.split(",") for row in rows[1:])]
    except ValueError as exc:
        raise ParseError(f"{path}: bad spectrum row ({exc})") from None
    data = np.array(pairs, dtype=float).reshape(-1, 2)
    return data[:, 0], data[:, 1]


@pytest.fixture(scope="session")
def default_run():
    """The full default Monte Carlo experiment plus its wall time."""
    start = time.perf_counter()
    report = run_experiment("default", seed=DEFAULT_SEED)
    return report, time.perf_counter() - start


@pytest.fixture(scope="session")
def null_phase_run():
    report = run_experiment("null-phase", seed=DEFAULT_SEED)
    return report


@pytest.fixture(scope="session")
def sensitivity_run():
    report = run_experiment("sensitivity", seed=DEFAULT_SEED)
    return report
