"""One benchmark worker: a fresh interpreter that imports the CLI and runs it.

    python3 perfbench/worker.py JOB.json

The job (written by run.py) names the checkout's src directory, the
invocations to run and where to write the result.  An invocation is a
list of `bilodyne.cli.main` calls; each call's outputs are removed
before it runs and checked after it, outside the timed region.

Modes:
  start  import bilodyne.cli and stop (set-up time only)
  once   one invocation, after touching `warm_mib` MiB of memory in a
         child process
  loop   one warm-up invocation (checked, flagged `warmup` and not
         timed by run.py), then invocations until `seconds` have passed

With `trace` set to "on" every invocation is traced; "alternate" traces
every second one, so the untraced ones in between measure the tracing
overhead under the same conditions.
"""

from __future__ import annotations

import json
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path


def _usage() -> tuple[float, int]:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime, ru.ru_minflt + ru.ru_majflt


def _invoke(cli, checks, calls: list[dict], tracer=None) -> dict:
    for call in calls:
        shutil.rmtree(call["out"], ignore_errors=True)
    if tracer is not None:
        tracer.install()
    cpu0, faults0 = _usage()
    wall = 0.0
    codes = []
    problems = []
    try:
        for call in calls:
            t0 = time.perf_counter()
            try:
                codes.append(cli.main(call["argv"]))
            except Exception:  # a traceback escaping main is a failed invocation
                codes.append(None)
                problems.append(traceback.format_exc(limit=3).strip().splitlines()[-1])
            wall += time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.remove()
    cpu1, faults1 = _usage()
    run = failed = 0
    for call, rc in zip(calls, codes):
        if rc is None:
            continue
        found, n_run, n_failed = checks.check(call["scenario"], Path(call["out"]), rc, call["expect"])
        problems += found
        run += n_run
        failed += n_failed
    return {
        "wall": wall,
        "traced": tracer is not None,
        "problems": problems,
        "checks_run": run,
        "checks_failed": failed,
        "cpu_s": cpu1 - cpu0,
        "page_faults": faults1 - faults0,
    }


def _warm_memory(mib: int) -> None:
    """Touch `mib` MiB in a child process that then exits.

    The reference box is a VM that hands memory freed for about 2 s back
    to its host (virtio-balloon free page reporting).  Touching it again
    then takes a host fault per page: 2 GiB took 0.4-0.6 s right after a
    free but 1.1 s after 3 s idle and 2.5 s after 20 s, varying with the
    host's load.  Touching the invocation's peak just before it starts
    makes its page faults cost what they cost on a machine of its own.
    The child's memory is not in this process's peak RSS.
    """
    subprocess.run(
        [sys.executable, "-c", f"import numpy; numpy.ones({mib} << 17)"],
        check=True,
    )


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text())
    sys.path.insert(0, job["src"])
    import bilodyne.cli as cli

    ready = time.monotonic()
    import bilodyne
    import numpy
    import scipy

    import checks
    import tracing

    src = Path(job["src"]).resolve()
    if src not in Path(bilodyne.__file__).resolve().parents:
        print(f"bilodyne imported from {bilodyne.__file__}, not from {src}", file=sys.stderr)
        return 1
    result = {
        "ready": ready,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "invocations": [],
        "absent": [],
    }
    tracer = tracing.Tracer(bilodyne) if job["trace"] != "off" else None
    records = result["invocations"]

    def run_one(traced: bool) -> None:
        if traced:
            tracer.invocation = len(records)
        record = _invoke(cli, checks, job["calls"], tracer if traced else None)
        if traced:
            record["layers"] = tracing.layer_metrics(tracer.spans, len(records))
        records.append(record)

    if job["mode"] == "once":
        if job["warm_mib"]:
            _warm_memory(job["warm_mib"])
        run_one(job["trace"] == "on")
    elif job["mode"] == "loop":
        records.append(dict(_invoke(cli, checks, job["calls"]), warmup=True))
        start = time.monotonic()
        while len(records) < 3 or time.monotonic() - start < job["seconds"]:
            traced = job["trace"] == "on" or (job["trace"] == "alternate" and len(records) % 2 == 0)
            run_one(traced)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["absent"] = tracer.absent
        Path(job["spans"]).write_text(json.dumps(tracer.spans))
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
