"""Benchmark of the bilodyne command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it imports `bilodyne` from ./src and
builds its inputs from ./configs.  It writes only under ./.perfbench_work.

Workloads (run.py starts one worker process at a time; BLAS and
OpenMP threads capped at 1):
  mc-default    `simulate` on configs/default.cfg; sample-heavy (2e7
                samples, Welch and the zero-lag check dominate).  One
                fresh process per invocation, as a CLI user runs it,
                after a memory warm-up (see worker.py).
  mc-scan       `simulate`, sensitivity scenario at the anchor power
                0.5 nW only; event-heavy (thinning dominates).  One
                fresh process per invocation.
  cli-analytic  the triplet `analytic` (default.cfg), `table1`
                (sensitivity.cfg), `squeezed-compare` (squeezed.cfg) in
                one process after a warm-up triplet.
The seed sets measurement.seed of each MC invocation, and field.theta_s
and squeeze.phi of cli-analytic; nothing else changes in the shipped
configs.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of a separate traced run (see tracing.py).  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import EXACT_COUNTS

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = ROOT / ".perfbench_work"
SHIPPED = ("default.cfg", "sensitivity.cfg", "squeezed.cfg")
THREAD_CAPS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
# interpreter starts made only to time set-up; the MC workloads need
# none, since every invocation starts a fresh worker
SETUP_STARTS = {"mc-default": 0, "mc-scan": 0, "cli-analytic": 3}
# every run must end within 180 s; no worker starts after this and a
# worker still running at it is killed
DEADLINE_S = 165.0
TAIL_BEYOND = 10
# peak RSS of one invocation on the seed commit plus interpreter margin
NEED_MIB = {"mc-default": 2400, "mc-scan": 1200, "cli-analytic": 300}
# memory a worker has touched just before each fresh-process invocation,
# about that invocation's peak RSS on the seed commit (see worker.py)
WARM_MIB = {"mc-default": 2150, "mc-scan": 1030, "cli-analytic": 0}


def set_key(text: str, key: str, value) -> str:
    """Replace `key = ...` in a config text, or append it."""
    line = f"{key} = {value}"
    pattern = re.compile(rf"^{re.escape(key)}\s*=.*$", re.M)
    if pattern.search(text):
        return pattern.sub(line, text)
    return text.rstrip("\n") + "\n" + line + "\n"


def config_value(text: str, key: str) -> str:
    match = re.search(rf"^{re.escape(key)}\s*=\s*([^#\s]+)", text, re.M)
    if match is None:
        raise SystemExit(f"perfbench: {key} missing from a shipped config")
    return match.group(1)


class Inputs:
    """Generated config files of one run; the program sees only these."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.rng = random.Random(f"{workload}:{seed}")
        self.dir = work / "inputs"
        self.dir.mkdir(parents=True)
        self.out = work / "out"
        self.shipped = {name: (ROOT / "configs" / name).read_text() for name in SHIPPED}
        self.made = 0

    def _write(self, name: str, text: str) -> str:
        path = self.dir / name
        path.write_text(text)
        return str(path)

    def _call(self, scenario: str, cfg: str, expect: dict | None = None) -> dict:
        out = str(self.out / scenario)
        return {
            "scenario": scenario,
            "argv": [scenario, "--config", cfg, "--out", out],
            "out": out,
            "expect": expect or {},
        }

    def invocation(self) -> list[dict]:
        """The calls of the next invocation, with freshly drawn values."""
        self.made += 1
        k = self.made
        if self.workload == "cli-analytic":
            return self._analytic_triplet()
        base = "default.cfg" if self.workload == "mc-default" else "sensitivity.cfg"
        text = self.shipped[base]
        if self.workload == "mc-scan":
            text = set_key(text, "scan.powers_nw", "0.5")
        text = set_key(text, "measurement.seed", self.rng.randrange(1, 2**31))
        return [self._call("simulate", self._write(f"{self.workload}-{k}.cfg", text))]

    def _analytic_triplet(self) -> list[dict]:
        default = self.shipped["default.cfg"]
        theta = self.rng.uniform(0.0, 2.0 * math.pi)
        # phi within 60 degrees of 2 theta_s: at phi = 2 theta_s + pi/2 the
        # two field hypotheses give identical spectra and the
        # squeezed-compare output check (difference > 0) would be void
        phi = (2.0 * theta + self.rng.uniform(-math.pi / 3, math.pi / 3)) % (2.0 * math.pi)
        analytic = set_key(default, "field.theta_s", repr(theta))
        squeezed = set_key(self.shipped["squeezed.cfg"], "field.theta_s", repr(theta))
        squeezed = set_key(squeezed, "squeeze.phi", repr(phi))
        floor = 2.0 * float(config_value(default, "detector.eta")) * float(
            config_value(default, "lo.flux")
        )

        def bins(text):
            rate = float(config_value(text, "measurement.sample_rate_hz"))
            return int(round(rate / 2.0 / float(config_value(text, "measurement.rbw_hz")))) + 1

        return [
            self._call(
                "analytic",
                self._write("analytic.cfg", analytic),
                {"floor": floor, "bins": bins(analytic)},
            ),
            self._call("table1", self._write("table1.cfg", self.shipped["sensitivity.cfg"])),
            self._call(
                "squeezed-compare",
                self._write("squeezed.cfg", squeezed),
                {"bins": bins(squeezed)},
            ),
        ]


class Runner:
    """Starts one worker at a time and collects its result."""

    def __init__(self, work: Path, deadline: float, warm_mib: int):
        self.work = work
        self.warm_mib = warm_mib
        self.deadline = deadline
        self.started = 0
        self.env = dict(os.environ, **THREAD_CAPS)
        # bilodyne comes from ./src only, and its bytecode is cached the way
        # an installed package's is, whatever the caller's environment says
        self.env.pop("PYTHONPATH", None)
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def expired(self) -> bool:
        return time.monotonic() >= self.deadline

    def run(self, mode: str, calls=(), trace: str = "off", seconds: float = 0.0):
        """Returns (seconds from spawn to `bilodyne.cli` imported, result), or None."""
        self.started += 1
        k = self.started
        job = {
            "src": str(ROOT / "src"),
            "mode": mode,
            "calls": list(calls),
            "trace": trace,
            "seconds": seconds,
            "warm_mib": self.warm_mib,
            "result": str(self.work / f"result-{k}.json"),
            "spans": str(self.work / f"spans-{k}.json"),
        }
        job_path = self.work / f"job-{k}.json"
        job_path.write_text(json.dumps(job))
        log_path = self.work / f"worker-{k}.log"
        with open(log_path, "w") as log:
            spawned = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "worker.py"), str(job_path)],
                cwd=ROOT,
                env=self.env,
                stdout=log,
                stderr=subprocess.STDOUT,
            )
            try:
                code = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                code = "killed at the run deadline"
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        result_path = Path(job["result"])
        if code != 0 or not result_path.exists():
            tail = log_path.read_text().strip().splitlines()[-3:]
            print(f"worker {k} ({mode}) ended with {code}: {' | '.join(tail)}", file=sys.stderr)
            return None
        result = json.loads(result_path.read_text())
        return result["ready"] - spawned, result


def tail_value(values: list[float]) -> tuple[float, str]:
    """Highest percentile with TAIL_BEYOND samples beyond it.

    The MC workloads fit only a few invocations in a run, too few for any
    percentile to have TAIL_BEYOND beyond it; the upper quartile is
    reported then, since the maximum of a handful is too noisy to compare.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n > TAIL_BEYOND:
        return ordered[n - TAIL_BEYOND - 1], f"p{100.0 * (n - TAIL_BEYOND) / n:.1f} of {n}"
    if n < 2:
        return ordered[0], "the only invocation"
    upper = statistics.quantiles(ordered, n=4, method="inclusive")[2]
    return upper, f"upper quartile of {n} (no percentile has {TAIL_BEYOND} beyond it)"


def environment(versions: dict) -> dict:
    def read(path: str) -> str:
        try:
            return Path(path).read_text()
        except OSError:
            return ""

    model = re.search(r"^model name\s*:\s*(.+)$", read("/proc/cpuinfo"), re.M)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model.group(1) if model else "unknown",
        "l3": read("/sys/devices/system/cpu/cpu0/cache/index3/size").strip() or "unknown",
        **versions,
        "thread_caps": THREAD_CAPS,
    }


def available_mib() -> float:
    """Memory this process may still use: MemAvailable, capped by a cgroup limit."""
    text = Path("/proc/meminfo").read_text()
    avail = int(re.search(r"^MemAvailable:\s+(\d+) kB", text, re.M).group(1)) / 1024.0
    try:
        limit = Path("/sys/fs/cgroup/memory.max").read_text().strip()
        used = Path("/sys/fs/cgroup/memory.current").read_text().strip()
        if limit != "max":
            avail = min(avail, (int(limit) - int(used)) / 2**20)
    except OSError:
        pass
    return avail


def typical_wall(workload: str, walls: list[float]) -> tuple[float, str]:
    """Median invocation of an MC run; fastest invocation of cli-analytic.

    The shared reference box runs at one of two speeds about 2x apart,
    switching within about half a second (see README.md).  An MC
    invocation lasts seconds and averages over both, so their median is
    steady, as the fastest of 2-4 is not.  A cli-analytic triplet takes
    20-40 ms and runs in one speed or the other: the median of a run
    follows the share of slow time, while the fastest of about 1,000
    triplets, as timeit reports, stays with the fast speed.
    """
    fastest, median = min(walls), statistics.median(walls)
    n = len(walls)
    if workload == "cli-analytic":
        return fastest, f"fastest of {n} invocations (median {median:.6g} s)"
    return median, f"median of {n} invocations (fastest {fastest:.6g} s)"


def end_to_end(workload, inputs, runner, seconds, setup):
    """Timed run with tracing off.  Returns (attempted, failed, metrics, notes)."""
    records, peaks = [], []
    lost = 0  # invocations that left no record: a worker died or timed out
    start = time.monotonic()
    while True:
        began = time.monotonic()
        if workload == "cli-analytic":
            got = runner.run("loop", inputs.invocation(), seconds=seconds)
        else:
            got = runner.run("once", inputs.invocation())
        if got is None:
            lost += 1
        else:
            setup.append(got[0])
            records += got[1]["invocations"]
            peaks.append(got[1]["peak_rss_mb"])
        # start another fresh process only if it should end nearer to
        # `seconds` than now, going by the last one: the measured time is
        # then `seconds` give or take half an invocation
        now = time.monotonic()
        if workload == "cli-analytic" or runner.expired() or (now - start) + (now - began) / 2 > seconds:
            break
    attempted = len(records) + lost
    failed = lost + sum(1 for r in records if r["problems"])
    problems = [p for r in records for p in r["problems"]]
    walls = [r["wall"] for r in records if not r.get("warmup")]
    if not walls or not setup:
        return attempted, failed, None, problems
    tail, tail_note = tail_value(walls)
    checks_run = sum(r["checks_run"] for r in records)
    checks_failed = sum(r["checks_failed"] for r in records)
    metrics = {
        "setup_s": (statistics.median(setup), f"median of {len(setup)} interpreter starts"),
        "wall_s": typical_wall(workload, walls),
        "wall_tail_s": (tail, tail_note),
        "peak_rss_mb": (statistics.median(peaks), f"median of {len(peaks)} processes"),
        "ok_frac": (
            (attempted - failed) / attempted,
            f"errors_frac = {failed / attempted:.4g}: {failed} of {attempted} invocations failed",
        ),
    }
    notes = [
        f"checks_failed_frac = {checks_failed / checks_run if checks_run else 0.0:.4g} "
        f"fraction ({checks_failed} of {checks_run} program checks failed)"
    ]
    return attempted, failed, metrics, problems + notes


def traced(workload, inputs, runner, seconds):
    """Separate traced run.  Returns (attempted, failed, metrics, notes)."""
    calls = inputs.invocation()
    results = []
    if workload == "cli-analytic":
        # two workers, each alternating untraced and traced triplets
        for _ in range(2):
            results.append(runner.run("loop", calls, trace="alternate", seconds=seconds / 2))
    else:
        # the first fresh MC process in a run is slower than the rest, so an
        # untraced warm-up comes first; then traced and untraced alternate
        for trace in ("off", "on", "off", "on"):
            results.append(runner.run("once", calls, trace=trace))
        if results[0] is not None:
            results[0][1]["invocations"][0]["warmup"] = True
    notes = []
    if any(r is None for r in results):
        return len(results), sum(r is None for r in results), None, ["a traced worker failed"]
    records = [rec for _, res in results for rec in res["invocations"]]
    failed = sum(1 for r in records if r["problems"])
    notes += [p for r in records for p in r["problems"]]
    on = [r for r in records if r["traced"]]
    off = [r for r in records if not (r["traced"] or r.get("warmup"))]
    counts = [{k: r["layers"][k] for k in EXACT_COUNTS} for r in on]
    differing = [c for c in counts if c != counts[0]]
    if len(on) < 2 or differing:
        notes.append(f"self-test failed: traced counts differ, {counts[0]} vs {differing[:1]}")
        failed += 1
    metrics = {name: statistics.fmean(r["layers"][name] for r in on) for name in on[0]["layers"]}
    metrics["process.cpu_s"] = statistics.fmean(r["cpu_s"] for r in on)
    metrics["process.page_faults"] = statistics.fmean(r["page_faults"] for r in on)
    # per-layer figures are means per traced invocation, so the walls are too
    wall_on = statistics.fmean(r["wall"] for r in on)
    wall_off = statistics.fmean(r["wall"] for r in off)
    metrics["tracing.overhead_frac"] = (wall_on - wall_off) / wall_off
    absent = sorted({a for _, res in results for a in res["absent"]})
    notes.append(f"traced wall {wall_on:.4f} s over {len(on)} invocations, untraced {wall_off:.4f} s over {len(off)}")
    if absent:
        notes.append("absent: " + ", ".join(absent))
    return len(records), failed, (metrics, wall_on), notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(NEED_MIB))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    t_begin = time.monotonic()

    needed = ["BENCHMARK.json", "src/bilodyne/cli.py", *(f"configs/{c}" for c in SHIPPED)]
    missing = [p for p in needed if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not the root of a bilodyne checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    need = NEED_MIB[args.workload]
    have = available_mib()
    if have < need:
        print(
            f"perfbench: {args.workload} peaks near {need} MiB but only {have:.0f} MiB "
            "is available; not starting it",
            file=sys.stderr,
        )
        return 3
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs = Inputs(args.workload, args.seed, work)
    runner = Runner(work, t_begin + DEADLINE_S, WARM_MIB[args.workload])

    # the first start writes src/ bytecode and fills the page cache; discard it
    first = runner.run("start")
    if first is None:
        print("perfbench: bilodyne.cli does not import from ./src", file=sys.stderr)
        return 2
    env = environment(first[1]["versions"])
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))

    if args.trace == 0:
        setup = []
        for _ in range(SETUP_STARTS[args.workload]):
            got = runner.run("start")
            if got is not None:
                setup.append(got[0])
        attempted, failed, metrics, notes = end_to_end(args.workload, inputs, runner, args.seconds, setup)
        if metrics is None:
            print("\n".join(notes), file=sys.stderr)
            return 1
        out = {}
        for spec in bench["end_to_end"]:
            value, note = metrics[spec["name"]]
            print(f"{spec['name']:<14} {value:>12.6g} {spec['unit']:<8} {note}")
            out[spec["name"]] = {"value": value, "unit": spec["unit"]}
    else:
        attempted, failed, result, notes = traced(args.workload, inputs, runner, args.seconds)
        if result is None:
            print("\n".join(notes), file=sys.stderr)
            return 1
        metrics, wall = result
        out = {}
        for spec in bench["per_layer"]:
            value, unit = metrics[spec["name"]], spec["unit"]
            share = f"{100.0 * value / wall:5.1f} % of traced wall" if unit == "s" else ""
            print(f"{spec['name']:<30} {value:>14.6g} {unit:<9} {share}")
            out[spec["name"]] = {"value": value, "unit": unit}
    for note, times in collections.Counter(notes).items():
        print(note if times == 1 else f"{note}  (x{times})")
    print(f"run took {time.monotonic() - t_begin:.1f} s, {runner.started} worker processes")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
