"""Command-line entry point.

Usage:
    bilodyne <scenario> --config <path> [--out <dir>] [--seed <int>]

Scenarios:
    analytic          closed-form PSD and detection report
    simulate          Monte Carlo experiment (simulate.scenario in config)
    table1            SNR / noise-figure table over the configured powers
    squeezed-compare  analytic PSD under both field-grouping hypotheses

Exit codes: 0 success, 2 a tolerance check failed, 1 config or model error.
All outputs land in the --out directory; reruns with the same config and
seed are byte-identical except the report timestamp.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .analytic import (
    output_signal_power,
    psd_analytic,
    sensitivity_table,
    shot_floor_psd,
    snr_in,
    snr_out,
)
from .config import MEASUREMENT_KEYS, RunConfig
from .errors import BilodyneError, ConfigViolation
from .io import TraceWriter, write_report_json, write_spectrum_csv
from .model import TWO_PI, Hypothesis, validate_measurement
from .montecarlo import run_experiment


def _shot_floor(cfg: RunConfig, scene) -> float:
    """The shot floor at 2 pi lo.f_het_hz, the bichromatic LO's omega_het.

    A mono LO has no beat, but an exponential pulse shapes its floor, so
    it too is read at the configured beat.
    """
    omega = TWO_PI * cfg.values["lo.f_het_hz"]
    return float(cfg._make(MEASUREMENT_KEYS[:1], shot_floor_psd, scene.lo, scene.det, omega))


def _run_analytic(cfg: RunConfig, out_dir: Path) -> tuple[dict, int]:
    scene = cfg.build_scene()
    validate_measurement(scene.meas, scene.lo, MEASUREMENT_KEYS)
    state, lo, det, meas = scene.state, scene.lo, scene.det, scene.meas
    spectrum = psd_analytic(state, lo, det, meas)
    write_spectrum_csv(out_dir / "spectrum.csv", spectrum)
    results: dict = {"shot_floor": _shot_floor(cfg, scene)}
    if not state.is_squeezed() and lo.omega_het > 0.0:
        s_in, s_out = snr_in(state, det, meas.rbw), snr_out(state, lo, det, meas.rbw)
        results.update(
            {
                "snr_in_db": _json_float(s_in),
                "snr_out_db": _json_float(s_out),
                "nf_db": _json_float(s_in - s_out),  # noise_figure's difference
                "output_power": output_signal_power(state, lo, det),
                "beat_freq_hz": cfg.values["lo.f_het_hz"],
            }
        )
    return results, 0


def _json_float(x: float):
    """JSON has no inf/nan literals; encode them as strings."""
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "-inf" if x < 0 else "inf"
    return x


def _run_simulate(cfg: RunConfig, out_dir: Path) -> tuple[dict, int]:
    scenario = cfg.values["simulate.scenario"]
    trace = TraceWriter(out_dir / "trace.bin") if cfg.values["output.write_trace"] else None
    # trace.bin is written during the run and appears only if the run completes
    with trace or contextlib.nullcontext():
        report = run_experiment(
            scenario,
            cfg.build_scan() if scenario == "sensitivity" else cfg.build_scene(),
            seed=cfg.values["measurement.seed"],
            trace=trace,
        )
    if report.spectrum is not None:
        write_spectrum_csv(out_dir / "spectrum.csv", report.spectrum)
    for check in report.checks:
        verdict = "PASS" if check.passed else "FAIL"
        print(
            f"{verdict}: {check.name} "
            f"(value={check.value:.6g}, target={check.target:.6g}, "
            f"tol={check.tolerance:.3g})"
        )
    results = {
        "mc_scenario": report.scenario,
        "checks": [dataclasses.asdict(c) for c in report.checks],
        "scalars": report.scalars,
        "passed": report.passed,
    }
    return results, 0 if report.passed else 2


def _run_table(cfg: RunConfig, out_dir: Path) -> tuple[dict, int]:
    scan = cfg.build_scan()
    rows = sensitivity_table(scan)
    lines = ["power_nw,snr_in_db,snr_out_db,nf_db"]
    for row in rows:
        lines.append(
            f"{row.power_w * 1e9:.2f},{row.snr_in_db:.2f},{row.snr_out_db:.2f},{row.nf_db:.2f}"
        )
    (out_dir / "table.csv").write_text("\n".join(lines) + "\n")
    results = {
        "photon_energy_j": scan.photon_energy_j,
        "rows": [dataclasses.asdict(row) for row in rows],
    }
    return results, 0


def _run_squeezed_compare(cfg: RunConfig, out_dir: Path) -> tuple[dict, int]:
    if not cfg.values["squeeze.enabled"]:
        raise ConfigViolation("squeezed-compare needs squeeze.enabled = true")
    scene = cfg.build_scene()
    validate_measurement(scene.meas, scene.lo, MEASUREMENT_KEYS)
    state, lo, det, meas = scene.state, scene.lo, scene.det, scene.meas
    one, three = (
        psd_analytic(dataclasses.replace(state, hypothesis=hyp), lo, det, meas)
        for hyp in (Hypothesis.ONE_FIELD, Hypothesis.THREE_FIELDS)
    )
    write_spectrum_csv(out_dir / "spectrum_one_field.csv", one)
    write_spectrum_csv(out_dir / "spectrum_three_fields.csv", three)
    diff = one.psd - three.psd
    results = {
        "max_abs_difference": float(abs(diff).max()),
        "min_psd_one_field": float(one.psd.min()),
        "min_psd_three_fields": float(three.psd.min()),
        "shot_floor": _shot_floor(cfg, scene),
    }
    return results, 0


# scenario -> runner; a runner writes its data files and returns report.json's
# results and the exit code
RUNNERS = {
    "analytic": _run_analytic,
    "simulate": _run_simulate,
    "table1": _run_table,
    "squeezed-compare": _run_squeezed_compare,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bilodyne",
        description="Quantum-noise spectra and photoemission Monte Carlo "
        "for balanced detection with mono- and bichromatic local oscillators.",
    )
    parser.add_argument("scenario", choices=RUNNERS)
    parser.add_argument("--config", required=True, help="path to a key = value config file")
    parser.add_argument("--out", default="out", help="output directory (created if missing)")
    parser.add_argument("--seed", type=int, default=None, help="override measurement.seed")
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig.load(args.config, seed_override=args.seed)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        results, code = RUNNERS[args.scenario](cfg, out_dir)
        payload = {
            "scenario": args.scenario,
            "generated_at": datetime.now(timezone.utc).isoformat(),
            "version": __version__,
            "seed": cfg.values["measurement.seed"],
            "config": cfg.values,
            "results": results,
        }
        write_report_json(out_dir / "report.json", payload)
        return code
    except (BilodyneError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
