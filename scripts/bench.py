"""Wall time and peak memory of every CLI scenario, written to BENCH_<label>.json.

    python scripts/bench.py --label head
    python scripts/bench.py --label parent --repo ../parent-checkout
    python scripts/bench.py --label head --parent ../parent-checkout

Runs `analytic`, `table1` and `squeezed-compare` on their shipped
configs, and `simulate` in each of the four Monte Carlo scenarios
(`default.cfg` with `simulate.scenario` set, `sensitivity.cfg` for the
scan), plus `simulate default +trace` (`output.write_trace = true`, so
`trace.bin` is written), each in REPEATS = 10 fresh interpreters one
after the other.  A
run times `bilodyne.cli.main` alone; the import is timed apart as
set-up.  Per scenario the file holds the median wall and set-up time,
the median process CPU time of the call (`ru_utime + ru_stime`, every
thread's), the median `ru_maxrss`, minor page faults and system time,
and every run's wall and CPU time.  It also holds one wall time of the
tier-1 suite (`python -m pytest -q` in the checkout), the
Python and numpy versions, scipy's when it is installed, the CPU, the commit measured
(`git describe --dirty`) and `src_lines`, the line count of every
`*.py` under the checkout's `src/`, so that two bench files give the
net change in source lines between their checkouts.

--repo names the checkout to measure (its `src/`, `configs/` and
tests); the file goes to the root of the checkout this script is in,
so two checkouts can be measured into one place.  --parent measures a
second checkout in the same sitting, run by run: each scenario's runs
go in pairs, one fresh interpreter per checkout, the first of a pair
alternating between them, and the sitting writes BENCH_parent.json as
well.  Each scenario of BENCH_<label>.json then also holds every pair's
wall and CPU time differences (this checkout's less the parent's) and
the number of pairs this checkout won on each, so that a comparison
rests on one sitting and not on the box's drift between two.  The CPU
time shows a cut in work where the wall does not: a Monte Carlo record
runs on two threads, and while both have a core its wall follows the
busier one alone.  OPENBLAS_NUM_THREADS
is set to 1 unless it is set already; the file records its value.
Each Monte Carlo run of `default.cfg` takes ~0.8 s and ~46 MiB, so the
whole bench takes about two minutes on a 2-vCPU VM, and twice that with
--parent.  Not part of the
test suite.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MONTE_CARLO = ("default", "shot-floor", "null-phase", "sensitivity")
# fresh processes per scenario: medians of at least three runs, and ten
# because a shared 2-vCPU VM moves single runs by a fifth, and a claimed
# gain must win at least nine of ten pairs of a --parent sitting
REPEATS = 10

# one run in a fresh interpreter: import, then one timed cli.main call
CHILD = """
import json, resource, sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import bilodyne.cli
t1 = time.perf_counter()
r0 = resource.getrusage(resource.RUSAGE_SELF)
rc = bilodyne.cli.main(sys.argv[2:])
t2 = time.perf_counter()
r1 = resource.getrusage(resource.RUSAGE_SELF)
print(json.dumps({
    "rc": rc, "setup_s": t1 - t0, "wall_s": t2 - t1,
    "minflt": r1.ru_minflt - r0.ru_minflt, "stime_s": r1.ru_stime - r0.ru_stime,
    "cpu_s": (r1.ru_utime + r1.ru_stime) - (r0.ru_utime + r0.ru_stime),
    "maxrss_mib": r1.ru_maxrss / 1024.0,
}))
"""


def _scenarios(repo: Path, tmp: Path) -> dict[str, list[str]]:
    """Scenario name -> cli arguments before --out."""
    configs = repo / "configs"
    runs = {
        "analytic": ["analytic", "--config", str(configs / "default.cfg")],
        "table1": ["table1", "--config", str(configs / "sensitivity.cfg")],
        "squeezed-compare": ["squeezed-compare", "--config", str(configs / "squeezed.cfg")],
    }
    # each Monte Carlo scenario, then `default` writing trace.bin
    variants = [(s, "") for s in MONTE_CARLO] + [("default", "output.write_trace = true\n")]
    for scenario, extra in variants:
        base = "sensitivity.cfg" if scenario == "sensitivity" else "default.cfg"
        name = scenario + (" +trace" if extra else "")
        cfg = tmp / f"{name.replace(' +', '-')}.cfg"
        cfg.write_text((configs / base).read_text() + f"\nsimulate.scenario = {scenario}\n{extra}")
        runs[f"simulate {name}"] = ["simulate", "--config", str(cfg)]
    return runs


def _run(repo: Path, argv: list[str], out: Path, env: dict) -> dict:
    cmd = [sys.executable, "-c", CHILD, str(repo / "src"), *argv, "--out", str(out)]
    done = subprocess.run(cmd, capture_output=True, text=True, env=env, check=False)
    if done.returncode != 0 or not done.stdout.strip():
        raise SystemExit(f"{' '.join(argv)} failed:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _tier1(repo: Path, env: dict) -> dict:
    paths = [str(repo / "src"), env.get("PYTHONPATH")]
    env = dict(env, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    cmd.append("--continue-on-collection-errors")
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=repo, capture_output=True, text=True, env=env, check=False)
    wall = time.perf_counter() - t0
    lines = done.stdout.strip().splitlines()
    summary = lines[-1] if lines else ""
    return {"wall_s": round(wall, 2), "summary": summary, "exit": done.returncode}


def _versions(repo: Path, env: dict) -> dict:
    # scipy is a test requirement only: its version is recorded when it is installed
    code = (
        "import sys, numpy\n"
        "try:\n    import scipy\n    scipy_version = scipy.__version__\n"
        "except ImportError:\n    scipy_version = '-'\n"
        "print(sys.version.split()[0], numpy.__version__, scipy_version)"
    )
    py, np_version, scipy_version = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    ).stdout.split()
    cpu = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        match = re.search(r"^model name\s*:\s*(.+)$", cpuinfo.read_text(), re.M)
        cpu = match.group(1) if match else cpu
    # the commit, marked -dirty when the checkout has changes on top of it
    commit = subprocess.run(
        ["git", "-C", str(repo), "describe", "--always", "--dirty"],
        capture_output=True, text=True, check=False,
    ).stdout.strip()
    return {
        "python": py,
        "numpy": np_version,
        "scipy": None if scipy_version == "-" else scipy_version,
        "cpu": cpu,
        "cpus": os.cpu_count(),
        "commit": commit or None,
    }


def _src_lines(repo: Path) -> int:
    """Lines of every *.py file under the checkout's src/."""
    return sum(len(path.read_bytes().splitlines()) for path in (repo / "src").rglob("*.py"))


def _row(runs: list[dict]) -> dict:
    """A scenario's entry in a bench file: the medians of its runs, and every run's wall time."""
    return {
        "exit": sorted({r["rc"] for r in runs}),
        "wall_s": round(statistics.median(r["wall_s"] for r in runs), 4),
        "setup_s": round(statistics.median(r["setup_s"] for r in runs), 4),
        "cpu_s": round(statistics.median(r["cpu_s"] for r in runs), 4),
        "maxrss_mib": round(statistics.median(r["maxrss_mib"] for r in runs), 1),
        "minflt": int(statistics.median(r["minflt"] for r in runs)),
        "stime_s": round(statistics.median(r["stime_s"] for r in runs), 3),
        "runs_wall_s": [round(r["wall_s"], 4) for r in runs],
        "runs_cpu_s": [round(r["cpu_s"], 4) for r in runs],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="the file is BENCH_<label>.json")
    parser.add_argument("--repo", type=Path, default=ROOT, help="checkout to measure")
    parser.add_argument(
        "--parent", type=Path, help="a checkout to measure in pairs with it, as BENCH_parent.json"
    )
    args = parser.parse_args(argv)
    checkouts = {args.label: args.repo.resolve()}
    if args.parent is not None:
        if args.label == "parent":
            parser.error("--parent writes BENCH_parent.json; give this checkout another --label")
        checkouts["parent"] = args.parent.resolve()
    env = dict(os.environ)
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    results = {
        label: {
            "label": label,
            **_versions(repo, env),
            "src_lines": _src_lines(repo),
            "env": {"OPENBLAS_NUM_THREADS": env["OPENBLAS_NUM_THREADS"]},
            "repeats": REPEATS,
            "scenarios": {},
        }
        for label, repo in checkouts.items()
    }
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cli_args = {}
        for label, repo in checkouts.items():
            (tmp / label).mkdir()
            cli_args[label] = _scenarios(repo, tmp / label)
        for name in cli_args[args.label]:
            runs = {label: [] for label in checkouts}
            for k in range(REPEATS):
                # the first run of a pair alternates, so neither checkout always runs second
                for label in list(checkouts)[:: -1 if k % 2 else 1]:
                    argv = cli_args[label][name]
                    runs[label].append(_run(checkouts[label], argv, tmp / "out", env))
            for label in checkouts:
                results[label]["scenarios"][name] = _row(runs[label])
            row = results[args.label]["scenarios"][name]
            line = (f"{name:28s} wall {row['wall_s']:7.3f} s  cpu {row['cpu_s']:7.3f} s  "
                    f"rss {row['maxrss_mib']:6.1f} MiB  faults {row['minflt']}")
            if args.parent is not None:
                pairs = list(zip(runs[args.label], runs["parent"]))
                for key, won in (("wall", "pairs_won"), ("cpu", "pairs_cpu_won")):
                    diffs = [here[f"{key}_s"] - there[f"{key}_s"] for here, there in pairs]
                    row[f"pairs_{key}_diff_s"] = [round(d, 4) for d in diffs]
                    row[won] = sum(d < 0.0 for d in diffs)
                parent = results["parent"]["scenarios"][name]
                line += (f"  parent {parent['wall_s']:7.3f} / {parent['cpu_s']:7.3f} s  "
                         f"won {row['pairs_won']} / {row['pairs_cpu_won']} of {REPEATS}")
            print(line)
    for label, repo in checkouts.items():
        result = results[label]
        result["tier1"] = _tier1(repo, env)
        print(f"{label} tier-1 {result['tier1']['wall_s']} s: {result['tier1']['summary']}")
        path = ROOT / f"BENCH_{label}.json"
        path.write_text(json.dumps(result, indent=2) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
