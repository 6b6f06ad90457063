"""Run every CLI scenario in this checkout and in another, and name the outputs that differ.

    python scripts/compare_outputs.py PARENT_CHECKOUT

Each checkout runs with its own `src/` and `configs/`, one fresh
interpreter per run: `analytic`, `table1` and `squeezed-compare` on each
shipped config, and `simulate` in all four Monte Carlo scenarios
(`default.cfg` with `simulate.scenario` set, `sensitivity.cfg` for the
scan, and `squeezed.cfg`, which the Monte Carlo refuses), every
`simulate` run with `output.write_trace = true`.  Then the settings the
shipped configs leave at their defaults: `analytic` on `default.cfg`,
whose SNR block then reports the averaged and the pulse-filtered beat
power, and `analytic` and `squeezed-compare` on `squeezed.cfg`, each
with the phase-averaged signal and with the exponential pulse
(`detector.pulse_tau_s = 1e-7`),
`squeezed-compare` with the sideband placement, and `simulate` on
`default.cfg` with each of the first two, which it refuses; and the
monochromatic LO (`lo.kind = mono`): `analytic` on `default.cfg`,
also with its tone's phase `lo.theta_1 = 0.3`, `squeezed-compare` on
`squeezed.cfg` and `simulate` on `default.cfg`, which refuses it.
Then two Welch segment lengths the shipped configs do not use, both
`simulate shot-floor` on `default.cfg`:
`measurement.rbw_hz = 100`, whose 10^5-sample segment is longer than
half a block, and `measurement.rbw_hz = 3000.3`, whose segment has an
odd length (3,333 samples).  Last, the failing path: `simulate default`
on `default.cfg` with the signal in quadrature to the LO
(`field.theta_s = pi/2`), whose beat power misses its near-zero target,
so it exits 2.  Then nine refusals of one bad key each, which exit 1
with an `error:` line naming it: `simulate` with
`measurement.duration_s = -1` and `analytic` with `detector.eta = 0` on
`default.cfg`, `table1` with `scan.window_s = 0` on `sensitivity.cfg`,
`analytic` on `default.cfg` with `lo.f_het_hz = 4e3` (a beat below 10x
the rbw), `lo.f_het_hz = 0` (both tones at the carrier) and
`lo.f_het_hz = -1e5` (the tones in increasing order), the sensitivity
scan with `lo.theta_1 = nan`, and the Monte Carlo's Welch average: `simulate` on `default.cfg` with
`measurement.duration_s = 0.01` (too short for 16 segments), and the
scan with `scan.duration_s = 5e-5`.  A run's exit code, stdout, stderr
and every file it writes (`spectrum*.csv`, `table.csv`, `trace.bin`,
`report.json`) are compared byte for byte, `report.json` without its
`generated_at` line.  Where `report.json` differs, every value that
moved is listed by its JSON path, old -> new, a value present in one
run only as `(absent)`.  The values of the checks in TOLERANT are each
judged against their relative tolerance: sums of squares and products
over a record, which a change in summation order moves in their last
bits.  One line per run, followed by both stderr texts where they
differ and by each value that moved; then exit 0 when every run is
identical or within tolerance and 1 otherwise.  The Monte Carlo runs
take about a second each, so the whole comparison takes under a minute
on a 2-vCPU VM.  Not part of the test suite.
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


class _Absent:
    """A report.json value present in the other run only."""

    def __repr__(self) -> str:
        return "(absent)"


ABSENT = _Absent()

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
            ("null-phase", "default.cfg"),
            ("sensitivity", "sensitivity.cfg"),
            ("default", "squeezed.cfg"),
        )
    }
)
UNSHIPPED = {
    "phase-averaged": "field.phase_averaged = true\n",
    "exponential": "detector.pulse_tau_s = 1e-7\n",
}
RUNS.update(
    {
        f"{scenario} {config} {setting}": (scenario, config, UNSHIPPED[setting])
        for scenario, config in (
            ("analytic", "default.cfg"),
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
RUNS["analytic default.cfg mono theta_1"] = (
    "analytic",
    "default.cfg",
    "lo.kind = mono\nlo.theta_1 = 0.3\n",
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
RUNS["simulate default default.cfg quadrature"] = (
    "simulate",
    "default.cfg",
    "simulate.scenario = default\nfield.theta_s = 1.5707963267948966\n",
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
            ("analytic", "default.cfg", "lo.f_het_hz = 0"),
            ("analytic", "default.cfg", "lo.f_het_hz = -1e5"),
            ("simulate", "sensitivity.cfg", "lo.theta_1 = nan"),
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


def _leaves(node, path: str = "", tolerance: float | None = None):
    """(JSON path, value, relative tolerance or None) of each scalar of a parsed report.json."""
    if isinstance(node, dict):
        name = node.get("name")
        for key, item in node.items():
            tol = TOLERANT.get(name) if key == "value" and isinstance(name, str) else None
            yield from _leaves(item, f"{path}.{key}" if path else key, tol)
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, node, tolerance


def _moved(here: dict, there: dict) -> tuple[list[str], bool]:
    """Each report.json value that moved between two runs, and whether all moved within TOLERANT.

    Values compare by repr, so 1 and 1.0, 0.0 and -0.0 differ and NaN equals NaN.
    """
    try:
        new, old = (
            {path: (value, tol) for path, value, tol in _leaves(json.loads(found["report.json"]))}
            for found in (here, there)
        )
    except (KeyError, ValueError):
        return [], False
    lines, within = [], True
    for path in dict.fromkeys([*old, *new]):
        (a, tol), (b, _) = old.get(path, (ABSENT, None)), new.get(path, (ABSENT, None))
        if repr(a) == repr(b):
            continue
        line = f"{path}: {a!r} -> {b!r}"
        ok = tol is not None and all(isinstance(v, float) for v in (a, b))
        if ok:
            ok = math.isclose(b, a, rel_tol=tol, abs_tol=0.0)
            change = abs(b - a) / abs(a) if a else math.inf
            line += f" ({change:.2g} relative, {'within' if ok else 'BEYOND'} {tol:g})"
        within &= ok
        lines.append(line)
    return lines, within and bool(lines)


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
