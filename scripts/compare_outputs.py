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
which it refuses.  A run's exit code,
stdout, stderr and every file it writes (`spectrum*.csv`, `table.csv`,
`trace.bin`, `report.json`) are compared byte for byte, `report.json`
without its `generated_at` line.  One line per run, then exit 0 when
every run is identical and 1 otherwise.  The Monte Carlo runs take
about a second each, so the whole comparison takes under a minute on a
2-vCPU VM.  Not part of the test suite.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ("default.cfg", "sensitivity.cfg", "squeezed.cfg")

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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="the checkout to compare this one against")
    args = parser.parse_args(argv)
    parent = args.parent.resolve()
    differing = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name in RUNS:
            here, there = (
                _outputs(repo, Path(tempfile.mkdtemp(dir=tmp)), name) for repo in (ROOT, parent)
            )
            diff = sorted(k for k in here.keys() | there.keys() if here.get(k) != there.get(k))
            differing += bool(diff)
            files = ", ".join(k for k in here if k not in ("exit code", "stdout", "stderr"))
            verdict = f"DIFFERS: {', '.join(diff)}" if diff else "identical"
            exit_code = here["exit code"].decode()
            print(f"{name:44s} exit {exit_code}  {verdict}  [{files or 'no files'}]")
    print(f"{differing} of {len(RUNS)} runs differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
