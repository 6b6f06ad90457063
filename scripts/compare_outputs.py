"""Run every CLI scenario in this checkout and in another, and name the outputs that differ.

    python scripts/compare_outputs.py PARENT_CHECKOUT

Each checkout runs with its own `src/` and `configs/`, one fresh
interpreter per run: `analytic`, `table1` and `squeezed-compare` on each
shipped config, and `simulate` in all five Monte Carlo scenarios
(`default.cfg` with `simulate.scenario` set, `sensitivity.cfg` for the
scan, and `squeezed.cfg`, which the Monte Carlo refuses), every
`simulate` run with `output.write_trace = true`.  Then the settings the
shipped configs leave at their defaults: `analytic` and
`squeezed-compare` on `squeezed.cfg` with the phase-averaged signal and
with the exponential pulse, `squeezed-compare` with the sideband
placement, and `simulate` on `default.cfg` with each of the first two,
which it refuses; and the monochromatic LO (`lo.kind = mono`):
`analytic` on `default.cfg`, `squeezed-compare` on `squeezed.cfg` and
`simulate` on `default.cfg`, which refuses it.  Then two Welch segment
lengths the shipped configs do not use, both `simulate shot-floor` on
`default.cfg`: `measurement.rbw_hz = 100`, whose 10^5-sample segment is
longer than half a block, and `measurement.rbw_hz = 3000.3`, whose
segment has an odd length (3,333 samples).  Last, the failing path:
`simulate beatnote` and `simulate default` on `default.cfg` with the
signal in quadrature to the LO (`field.theta_s = pi/2`), whose beat
power misses its near-zero target, so both exit 2.  Then eight refusals
of one bad key each, which exit 1 with an `error:` line naming it:
`simulate` with `measurement.duration_s = -1` and `analytic` with
`detector.eta = 0` on `default.cfg`, `table1` with `scan.window_s = 0`
on `sensitivity.cfg`, `analytic` with `lo.f_het_hz = 4e3` (a beat below
10x the rbw) on `default.cfg`, the sensitivity scan with
`lo.theta_1 = nan`, and the Monte Carlo's Welch average: `simulate` on
`default.cfg` with `measurement.n_segments = 4` and with
`measurement.duration_s = 0.01` (too short for 16 segments), and the
scan with `scan.duration_s = 5e-5`.  A run's exit code,
stdout, stderr and every file it writes (`spectrum*.csv`, `table.csv`,
`trace.bin`, `report.json`) are compared byte for byte, `report.json`
without its `generated_at` line and with the values of the checks in
TOLERANT each compared to its relative tolerance instead: sums of
squares and products over a record, which a change in summation order
moves in their last bits.  One line per run, followed by both stderr
texts where they differ and by each tolerant value that moved, with
its relative change; then exit 0 when every run is identical or within
tolerance and 1 otherwise.  The Monte Carlo runs take
about a second each, so the whole comparison takes under a minute on a
2-vCPU VM.  Not part of the test suite.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ("default.cfg", "sensitivity.cfg", "squeezed.cfg")
# report.json check name -> relative tolerance of its value
TOLERANT = {"parseval_ratio": 1e-12, "arm_cross_covariance_z": 1e-12}

# run name -> (scenario, shipped config, lines appended to the config)
RUNS = {
    f"{scenario} {config}": (scenario, config, "")
    for scenario in ("analytic", "table1", "squeezed-compare")
    for config in CONFIGS
}
RUNS.update(
    {
        f"simulate {scenario} {config}": ("simulate", config, f"simulate.scenario = {scenario}\n")
        for scenario, config in (
            ("default", "default.cfg"),
            ("shot-floor", "default.cfg"),
            ("beatnote", "default.cfg"),
            ("null-phase", "default.cfg"),
            ("sensitivity", "sensitivity.cfg"),
            ("default", "squeezed.cfg"),
        )
    }
)
UNSHIPPED = {
    "phase-averaged": "field.phase_averaged = true\n",
    "exponential": "detector.pulse = exponential\ndetector.pulse_tau_s = 1e-7\n",
}
RUNS.update(
    {
        f"{scenario} {config} {setting}": (scenario, config, UNSHIPPED[setting])
        for scenario, config in (
            ("analytic", "squeezed.cfg"),
            ("squeezed-compare", "squeezed.cfg"),
            ("simulate", "default.cfg"),
        )
        for setting in UNSHIPPED
    }
)
RUNS["squeezed-compare squeezed.cfg sideband"] = (
    "squeezed-compare",
    "squeezed.cfg",
    "squeeze.placement = sideband\n",
)
RUNS.update(
    {
        f"{scenario} {config} mono": (scenario, config, "lo.kind = mono\n")
        for scenario, config in (
            ("analytic", "default.cfg"),
            ("squeezed-compare", "squeezed.cfg"),
            ("simulate", "default.cfg"),
        )
    }
)
# Welch segments longer than half a block (one segment per group of the
# running sum) and of odd length (3,333 samples)
RUNS.update(
    {
        f"simulate shot-floor default.cfg {name}": (
            "simulate",
            "default.cfg",
            f"simulate.scenario = shot-floor\nmeasurement.rbw_hz = {rbw}\n",
        )
        for name, rbw in (("rbw 100", 100), ("nperseg 3333", 3000.3))
    }
)
RUNS.update(
    {
        f"simulate {scenario} default.cfg quadrature": (
            "simulate",
            "default.cfg",
            f"simulate.scenario = {scenario}\nfield.theta_s = 1.5707963267948966\n",
        )
        for scenario in ("beatnote", "default")
    }
)

# one bad key each: the error line must name it
RUNS.update(
    {
        f"{scenario} {config} refused {setting}": (scenario, config, f"{setting}\n")
        for scenario, config, setting in (
            ("simulate", "default.cfg", "measurement.duration_s = -1"),
            ("analytic", "default.cfg", "detector.eta = 0"),
            ("table1", "sensitivity.cfg", "scan.window_s = 0"),
            ("analytic", "default.cfg", "lo.f_het_hz = 4e3"),
            ("simulate", "sensitivity.cfg", "lo.theta_1 = nan"),
            ("simulate", "default.cfg", "measurement.n_segments = 4"),
            ("simulate", "default.cfg", "measurement.duration_s = 0.01"),
            ("simulate", "sensitivity.cfg", "scan.duration_s = 5e-5"),
        )
    }
)


def _outputs(repo: Path, work: Path, name: str) -> dict[str, bytes]:
    """Exit code, stdout, stderr and written files of one run of the checkout repo in work."""
    scenario, config, extra = RUNS[name]
    if scenario == "simulate":
        extra += "output.write_trace = true\n"
    cfg, out = work / "run.cfg", work / "out"
    cfg.write_text((repo / "configs" / config).read_text() + "\n" + extra)
    env = dict(os.environ, PYTHONPATH=str(repo / "src"))
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    cmd = [sys.executable, "-m", "bilodyne.cli", scenario, "--config", str(cfg), "--out", str(out)]
    done = subprocess.run(cmd, capture_output=True, env=env, check=False)
    found = {"exit code": b"%d" % done.returncode, "stdout": done.stdout, "stderr": done.stderr}
    for path in sorted(out.iterdir()) if out.is_dir() else ():
        data = path.read_bytes()
        if path.name == "report.json":
            data = b"\n".join(l for l in data.split(b"\n") if b'"generated_at"' not in l)
        found[path.name] = data
    return found


def _tolerant_values(report: bytes) -> tuple[bytes, dict[str, float]]:
    """report.json with the value of each TOLERANT check blanked, and those values by name.

    write_report_json sorts keys, so a check's "name" line comes before its "value" line.
    """
    lines, values, name = [], {}, None
    for line in report.split(b"\n"):
        key, _, rest = line.strip().partition(b": ")
        if key == b'"name"':
            name = json.loads(rest.rstrip(b","))
        elif key == b'"value"' and name in TOLERANT:
            values[name] = float(rest.rstrip(b","))
            line = line.partition(b":")[0] + b": (compared within tolerance)"
        lines.append(line)
    return b"\n".join(lines), values


def _moved(here: dict, there: dict) -> tuple[list[str], bool]:
    """Each TOLERANT value that moved between the two reports, and whether all are within tolerance."""
    if "report.json" not in here or "report.json" not in there:
        return [], False
    (rest_here, ours), (rest_there, theirs) = (
        _tolerant_values(found["report.json"]) for found in (here, there)
    )
    lines, within = [], rest_here == rest_there and ours.keys() == theirs.keys()
    for name in sorted(ours.keys() & theirs.keys()):
        new, old = ours[name], theirs[name]
        if new == old or (math.isnan(new) and math.isnan(old)):
            continue
        change = abs(new - old) / abs(old) if old else math.inf
        ok = math.isclose(new, old, rel_tol=TOLERANT[name], abs_tol=0.0)
        within &= ok
        verdict = "within" if ok else "BEYOND"
        lines.append(f"{name} {old!r} -> {new!r} ({change:.2g} relative, {verdict} {TOLERANT[name]:g})")
    return lines, within


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="the checkout to compare this one against")
    args = parser.parse_args(argv)
    parent = args.parent.resolve()
    differing = tolerated = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name in RUNS:
            here, there = (
                _outputs(repo, Path(tempfile.mkdtemp(dir=tmp)), name) for repo in (ROOT, parent)
            )
            diff = sorted(k for k in here.keys() | there.keys() if here.get(k) != there.get(k))
            moved, within = _moved(here, there)
            if within and "report.json" in diff:
                diff.remove("report.json")
            differing += bool(diff)
            tolerated += bool(moved) and not diff
            files = ", ".join(k for k in here if k not in ("exit code", "stdout", "stderr"))
            verdict = f"DIFFERS: {', '.join(diff)}" if diff else "identical"
            if moved and not diff:
                verdict += " within tolerance"
            exit_code = here["exit code"].decode()
            print(f"{name:44s} exit {exit_code}  {verdict}  [{files or 'no files'}]")
            if "stderr" in diff:
                for label, found in (("parent", there), ("here", here)):
                    print(f"    {label}: {found['stderr'].decode().strip()}")
            for line in moved:
                print(f"    moved: {line}")
    print(f"{differing} of {len(RUNS)} runs differ, {tolerated} more only within tolerance")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
