"""Output checks for one CLI invocation, against values known exactly.

Each check returns a list of problems; an empty list means the outputs
are right.  A statistical check of the program that fails (exit 2,
`passed: false`) is not a problem here: its verdict is counted as
measured, and the benchmark never re-seeds to hide it.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

TABLE_ANCHOR_ROW = "0.50,62.68,62.68,0.00"
FLOOR_RTOL = 1e-12


def _spectrum(path: Path) -> list[float]:
    rows = path.read_text().splitlines()
    if not rows or rows[0] != "freq_hz,psd":
        raise ValueError(f"{path.name}: not a spectrum CSV")
    return [float(r.split(",")[1]) for r in rows[1:]]


def _report(out: Path) -> dict:
    return json.loads((out / "report.json").read_text())["results"]


def check_analytic(out: Path, rc: int, expect: dict) -> list[str]:
    """The coherent-input PSD is the shot floor 2 eta lo.flux at every bin."""
    if rc != 0:
        return [f"analytic exited {rc}"]
    floor = expect["floor"]
    psd = _spectrum(out / "spectrum.csv")
    problems = []
    if len(psd) != expect["bins"]:
        problems.append(f"analytic: {len(psd)} bins, expected {expect['bins']}")
    worst = max(abs(p - floor) / floor for p in psd) if psd else math.inf
    if not worst <= FLOOR_RTOL:
        problems.append(f"analytic: PSD off the shot floor by {worst:.3g} relative")
    if abs(_report(out)["shot_floor"] - floor) > FLOOR_RTOL * floor:
        problems.append("analytic: report.json shot_floor differs from 2 eta lo.flux")
    return problems


def check_table1(out: Path, rc: int, expect: dict) -> list[str]:
    if rc != 0:
        return [f"table1 exited {rc}"]
    rows = (out / "table.csv").read_text().splitlines()
    if len(rows) < 2 or rows[1] != TABLE_ANCHOR_ROW:
        return [f"table1: anchor row reads {rows[1:2]}, expected {TABLE_ANCHOR_ROW!r}"]
    _report(out)
    return []


def check_squeezed(out: Path, rc: int, expect: dict) -> list[str]:
    if rc != 0:
        return [f"squeezed-compare exited {rc}"]
    problems = []
    for name in ("spectrum_one_field.csv", "spectrum_three_fields.csv"):
        psd = _spectrum(out / name)
        if len(psd) != expect["bins"] or not all(math.isfinite(p) and p >= 0 for p in psd):
            problems.append(f"squeezed-compare: {name} has bad rows")
    if not _report(out)["max_abs_difference"] > 0:
        problems.append("squeezed-compare: max_abs_difference is not > 0")
    return problems


def check_simulate(out: Path, rc: int, expect: dict) -> tuple[list[str], int, int]:
    """Returns (problems, checks run, checks failed)."""
    if rc not in (0, 2):
        return [f"simulate exited {rc}"], 0, 0
    results = _report(out)
    checks = results["checks"]
    failed = sum(1 for c in checks if not c["passed"])
    problems = []
    if not checks:
        problems.append("simulate: report.json lists no checks")
    if results["passed"] != (rc == 0) or (failed > 0) != (rc == 2):
        problems.append(f"simulate: exit {rc} disagrees with the report verdict")
    scalars = results["scalars"]
    spectra = sorted(out.glob("spectrum*.csv"))
    # the sensitivity scan reports per-power rows instead of a spectrum
    if not spectra and "rows" not in scalars:
        problems.append("simulate: no spectrum written")
    for path in spectra:
        psd = _spectrum(path)
        if not psd or not all(math.isfinite(p) and p >= 0 for p in psd):
            problems.append(f"simulate: {path.name} is empty, non-finite or negative")
        elif not max(psd) > 0:
            # a zero spectrum means no events reached the current
            problems.append(f"simulate: {path.name} is all zero")
    for key in ("counts_1", "counts_2"):
        if key in scalars and not scalars[key] > 0:
            problems.append(f"simulate: {key} = {scalars[key]}")
    for row in scalars.get("rows", ()):
        # snr_in_db is 10 log10 of the mean photon count per window, and a
        # finite snr_out_db needs a beat, hence heterodyne events and samples
        if not (math.isfinite(row["snr_in_db"]) and row["snr_in_db"] > 0):
            problems.append(f"simulate: no counting events at {row['power_w']:g} W")
        if not math.isfinite(row["snr_out_db"]):
            problems.append(f"simulate: no heterodyne beat at {row['power_w']:g} W")
    return problems, len(checks), failed


CHECKS = {
    "analytic": check_analytic,
    "table1": check_table1,
    "squeezed-compare": check_squeezed,
}


def check(scenario: str, out: Path, rc: int, expect: dict) -> tuple[list[str], int, int]:
    """Problems, program checks run and program checks failed for one call."""
    try:
        if scenario == "simulate":
            return check_simulate(out, rc, expect)
        return CHECKS[scenario](out, rc, expect), 0, 0
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"{scenario}: unreadable output ({type(exc).__name__}: {exc})"], 0, 0
