"""Pass rate and spread of every Monte Carlo gate over many seeds.

    PYTHONPATH=src python scripts/seed_sweep.py --seeds 100

Runs the packaged `default`, `null-phase` and `sensitivity` experiments
(the ones the acceptance tests gate on) once per seed, seeds
first..first+N-1, and prints for each check its pass rate and the mean
and standard deviation of its statistic: value / target where the
target is non-zero, else the value itself.  One seed takes about
0.9 s of wall and 1.4 s of CPU on a 2-vCPU VM (a `default` run 0.43 s,
`null-phase` 0.41 s, `sensitivity` 18 ms), and the sweep peaks at
~45 MiB, so 100 seeds take about a minute and a half.
Not part of the test suite.
"""

from __future__ import annotations

import argparse
import math
import time
from collections import defaultdict

from bilodyne.montecarlo import run_experiment


def sweep(scenarios, seeds) -> dict:
    """name -> list of (value, target, passed), one entry per seed."""
    results = defaultdict(list)
    for scenario in scenarios:
        for seed in seeds:
            report = run_experiment(scenario, seed=seed)
            for check in report.checks:
                results[check.name].append((check.value, check.target, check.passed))
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
