"""Pass rate and spread of every Monte Carlo gate over many seeds.

    PYTHONPATH=src python scripts/seed_sweep.py --seeds 100

Runs the packaged `default`, `null-phase` and `sensitivity` experiments
(the ones the acceptance tests gate on) once per seed, seeds
first..first+N-1, and prints for each check its pass rate and the mean
and standard deviation of its statistic: value / target where the
target is non-zero, else the value itself.  Beside the lock-in
`beatnote_power` it prints the +-2-bin Welch line estimate of the same
records (`extract_beatnote`) judged against the same target and
tolerance.  One seed takes ~60 MiB and about 4.2 s on a 2-vCPU VM,
so 100 seeds take about seven minutes.  Not part of the test suite.
"""

from __future__ import annotations

import argparse
import math
import time
from collections import defaultdict

from bilodyne.config import RunConfig
from bilodyne.montecarlo import extract_beatnote, run_experiment

WELCH = "beatnote_power (Welch +-2 bins)"


def sweep(scenarios, seeds) -> dict:
    """name -> list of (value, target, passed), one entry per seed."""
    f_het = RunConfig.defaults().build_scene().f_het_hz
    results = defaultdict(list)
    for scenario in scenarios:
        for seed in seeds:
            report = run_experiment(scenario, seed=seed)
            for check in report.checks:
                results[check.name].append((check.value, check.target, check.passed))
                if check.name == "beatnote_power":
                    welch = extract_beatnote(report.spectra["difference_current"], f_het).power
                    ok = abs(welch - check.target) <= check.tolerance
                    results[WELCH].append((welch, check.target, ok))
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=100, help="number of seeds")
    parser.add_argument("--first", type=int, default=1, help="first seed")
    parser.add_argument(
        "--scenarios", nargs="+", default=["default", "null-phase", "sensitivity"]
    )
    args = parser.parse_args(argv)
    start = time.perf_counter()
    results = sweep(args.scenarios, range(args.first, args.first + args.seeds))
    print(f"{args.seeds} seeds from {args.first}, {time.perf_counter() - start:.0f} s")
    print(f"{'check':34s} {'pass rate':>10s} {'mean':>10s} {'std':>9s}  statistic")
    for name, rows in results.items():
        ratio = all(target for _, target, _ in rows)
        stats = [value / target if ratio else value for value, target, _ in rows]
        mean = sum(stats) / len(stats)
        std = math.sqrt(sum((s - mean) ** 2 for s in stats) / max(1, len(stats) - 1))
        passed = sum(ok for _, _, ok in rows)
        kind = "value / target" if ratio else "value"
        print(f"{name:34s} {passed:4d}/{len(rows):<5d} {mean:10.5g} {std:9.3g}  {kind}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
