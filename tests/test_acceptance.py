"""Top-level gate: one test per headline guarantee of the package.

Each test prints a single PASS/FAIL line (visible on failure, and in the
`pytest -s` output) and enforces the stated tolerance and, where given,
a wall-time budget.  Everything here runs against frozen reference
numbers or cross-validated targets, never against the code under test.
"""

from __future__ import annotations

import dataclasses
import math
import time

import numpy as np

from bilodyne.analytic import output_signal_power, psd_analytic, sensitivity_table
from bilodyne.config import RunConfig
from tests.reference import fock_oracle_moments, lambda_ij, second_moments
from bilodyne.model import Hypothesis
from bilodyne.montecarlo import run_experiment
from tests.conftest import (
    ETA,
    LO_FLUX,
    SIGNAL_FLUX,
    coherent_state,
    mono_lo,
    squeezed_state,
    standard_detector,
    standard_lo,
    standard_measurement,
)


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {name} ({detail})")
    assert ok, f"{name}: {detail}"


def _check(report, name):
    for c in report.checks:
        if c.name == name:
            return c
    raise AssertionError(f"report has no check named {name!r}")


def test_sensitivity_table_reproduces_reference_rows():
    start = time.perf_counter()
    reference = {"scan.powers_nw": (0.5, 1.0, 2.0), "scan.window_s": 1e-3,
                 "detector.eta": 0.7, "scan.anchor_snr_db": 62.68}
    rows = sensitivity_table(RunConfig.defaults(reference).build_scan())
    elapsed = time.perf_counter() - start
    targets = (62.68, 65.69, 68.70)
    worst = 0.0
    for row, target in zip(rows, targets):
        worst = max(worst, abs(row.snr_in_db - target), abs(row.snr_out_db - target),
                    abs(row.nf_db))
    ok = len(rows) == 3 and worst <= 0.01 and elapsed < 1.0
    _verdict(
        "sensitivity table at 0.5/1.0/2.0 nW within 0.01 dB, noise figure 0.00 dB",
        ok,
        f"max deviation {worst:.2e} dB in {elapsed:.3f} s",
    )


def test_shot_floor_identical_for_mono_and_bichromatic_lo():
    det = standard_detector()
    cfg = standard_measurement()
    spec_bi = psd_analytic(coherent_state(), standard_lo(), det, cfg)
    spec_mono = psd_analytic(coherent_state(), mono_lo(), det, cfg)
    identical = np.array_equal(spec_bi.psd, spec_mono.psd)
    level = bool(np.all(spec_bi.psd == 2.0 * ETA * LO_FLUX))
    _verdict(
        "mono and bichromatic LOs share one flat floor at twice the detected LO flux",
        identical and level,
        f"bitwise equal={identical}, level 2*eta*E^2={2.0 * ETA * LO_FLUX:.1f}",
    )


def test_field_hypotheses_indistinguishable_for_coherent_input():
    det = standard_detector()
    cfg = standard_measurement()
    results = []
    for averaged in (False, True):
        one = coherent_state(averaged=averaged)
        three = dataclasses.replace(one, hypothesis=Hypothesis.THREE_FIELDS)
        spec_one = psd_analytic(one, standard_lo(), det, cfg)
        spec_three = psd_analytic(three, standard_lo(), det, cfg)
        results.append(np.array_equal(spec_one.psd, spec_three.psd))
    _verdict(
        "one-field and three-fields spectra are bitwise identical for coherent input",
        all(results),
        f"fixed phase {results[0]}, averaged phase {results[1]}",
    )


def test_monte_carlo_shot_floor_level_and_flatness(default_run):
    report, elapsed = default_run
    level = _check(report, "shot_floor_level")
    flat = _check(report, "shot_floor_flatness_t")
    ok = level.passed and flat.passed and elapsed < 120.0
    _verdict(
        "simulated shot floor within 3% of theory and flat at 95% confidence",
        ok,
        f"floor {level.value:.1f} vs {level.target:.1f}, "
        f"slope t={flat.value:.2f} (crit {flat.tolerance:.2f}), run {elapsed:.1f} s",
    )


def test_monte_carlo_beatnote_power_and_phase_null(default_run, null_phase_run):
    report, _ = default_run
    beat = _check(report, "beatnote_power")
    # the check target must itself equal the closed-form beat power
    # 2 (eta alpha E_l)^2 up to the deterministic binning attenuation
    f_het, fs = 1e5, 1e7
    x = math.pi * f_het / fs
    closed_form = 2.0 * (ETA * math.sqrt(2.0 * SIGNAL_FLUX) * math.sqrt(LO_FLUX)) ** 2
    closed_form *= (math.sin(x) / x) ** 2
    target_ok = abs(beat.target - closed_form) <= 1e-6 * closed_form
    null = _check(null_phase_run, "null_phase_peak_psd")
    ok = beat.passed and target_ok and null.passed
    _verdict(
        "beatnote within 5% of closed form and absent at quadrature phase",
        ok,
        f"beat {beat.value:.3e} vs {beat.target:.3e}, "
        f"null peak {null.value:.3e} <= floor+3sigma {null.target + null.tolerance:.3e}",
    )


def test_empirical_noise_figure_is_zero_across_powers(sensitivity_run):
    checks = [c for c in sensitivity_run.checks if c.name.startswith("noise_figure_")]
    ok = len(checks) == 3 and all(c.passed for c in checks)
    detail = ", ".join(f"{c.name.split('_')[-1]}: {c.value:+.3f} dB" for c in checks)
    _verdict("empirical noise figure within 0.3 dB of zero at all scanned powers", ok, detail)


def test_moments_agree_with_fock_space_evolution():
    start = time.perf_counter()
    worst = 0.0
    for r in (0.1, 0.3, 0.5, 0.8):
        phi = 0.4
        oracle = fock_oracle_moments(r, phi, n_trunc=80)
        table = second_moments(squeezed_state(Hypothesis.ONE_FIELD, r=r, phi=phi))
        worst = max(
            worst,
            abs(table.normal[1, 1] - oracle["n_a"]),
            abs(table.normal[2, 2] - oracle["n_b"]),
            abs(table.anomalous[1, 2] - oracle["anomalous_ab"]),
            abs(table.normal[1, 2] - oracle["cross_normal"]),
            abs(table.anomalous[1, 1] - oracle["anomalous_aa"]),
            abs(oracle["mean_a"]),
        )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    _verdict(
        "closed-form moments match truncated Fock evolution for r in 0.1..0.8",
        ok,
        f"max |difference| {worst:.2e} in {elapsed:.2f} s",
    )


def test_squeezed_spectra_separate_the_field_hypotheses():
    det = standard_detector()
    cfg = standard_measurement()
    one = psd_analytic(
        squeezed_state(Hypothesis.ONE_FIELD), standard_lo(), det, cfg
    )
    three = psd_analytic(
        squeezed_state(Hypothesis.THREE_FIELDS), standard_lo(), det, cfg
    )
    gap = float(np.max(np.abs(one.psd - three.psd)))
    numeric_tol = 1e-9 * float(np.max(one.psd))
    nonneg = bool(np.all(one.psd >= 0.0) and np.all(three.psd >= 0.0))
    ok = gap > 10.0 * numeric_tol and nonneg
    _verdict(
        "squeezed input separates the hypotheses far above numerical noise",
        ok,
        f"max gap {gap:.3f} vs 10x tolerance {10.0 * numeric_tol:.2e}, "
        f"spectra nonnegative={nonneg}",
    )


def test_statistical_properties_of_the_pipeline(default_run):
    start = time.perf_counter()
    report, _ = default_run

    # same seed, same bytes; different seed, different stream
    scene = RunConfig.defaults({"measurement.duration_s": 0.25}).build_scene()
    rerun_a = run_experiment("shot-floor", scene, seed=21)
    rerun_b = run_experiment("shot-floor", scene, seed=21)
    rerun_c = run_experiment("shot-floor", scene, seed=22)
    deterministic = np.array_equal(
        rerun_a.spectrum.psd,
        rerun_b.spectrum.psd,
    ) and not np.array_equal(
        rerun_a.spectrum.psd,
        rerun_c.spectrum.psd,
    )

    parseval = _check(report, "parseval_ratio")
    cross = _check(report, "arm_cross_covariance_z")

    coherent_lambda_zero = True
    rng = np.random.default_rng(2)
    state = coherent_state(theta_s=0.3)
    for _ in range(25):
        value = lambda_ij(
            state, standard_lo(), 1, 1, rng.uniform(0, 1e-4), rng.uniform(-1e-4, 1e-4)
        )
        coherent_lambda_zero &= value == 0.0

    nonneg = bool(np.all(report.spectrum.psd >= 0.0))
    elapsed = time.perf_counter() - start
    ok = (
        deterministic
        and parseval.passed
        and cross.passed
        and coherent_lambda_zero
        and nonneg
        and elapsed < 300.0
    )
    _verdict(
        "determinism, Parseval balance, coherent null correlator, uncorrelated arms, "
        "nonnegative spectra",
        ok,
        f"parseval ratio {parseval.value:.4f}, cross z {cross.value:+.2f}, "
        f"checks in {elapsed:.1f} s",
    )
