"""One fresh CLI process of a benchmark run.

Usage: python3 child.py JOB_JSON

The job names the ``src`` directory to import ``longdep`` from, the
argument lists to pass to ``longdep.cli.main`` one after another, whether
to install the tracer, and where to write the result. The timed region
starts before ``longdep`` is imported and ends when the last command
returns, so import cost counts and interpreter start-up does not. Before
exiting, the process waits for every child it started (the stub scorer of
an ``external`` backend exits once its stdin is closed).

The result holds the timed region's wall time and its CPU time: this
process's CPU time, all threads, over the timed region, plus the whole
CPU time of the children it waited for. CPU time leaves out the time the
host's hypervisor gave this virtual machine's CPUs to other guests
(steal), which on a shared host made wall times of one job vary by 1.5x.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import subprocess
import sys
import time


def _reap_children(deadline_s: float = 10.0) -> None:
    # ``score`` never closes an external backend, and subprocess keeps a
    # dropped Popen, pipes included, alive until it can reap it, so the
    # stub scorer would see EOF only when this process exits.
    gc.collect()
    for obj in gc.get_objects():
        if isinstance(obj, subprocess.Popen) and obj.stdin and not obj.stdin.closed:
            obj.stdin.close()
    stop = time.monotonic() + deadline_s
    while time.monotonic() < stop:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            time.sleep(0.005)
    raise RuntimeError("a child of the CLI process did not exit")


def main(job_path: str) -> int:
    with open(job_path, "r", encoding="utf-8") as handle:
        job = json.load(handle)
    start = time.perf_counter()
    cpu_start = time.process_time()
    sys.path.insert(0, job["src"])
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    from longdep.cli import main as cli_main

    codes = []
    for argv in job["calls"]:
        codes.append(cli_main(argv))
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu_start
    result = {
        "codes": codes,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["trace"] = tracer.raw()
        with open(job["spans"], "w", encoding="utf-8") as handle:
            json.dump(tracer.spans, handle)
    _reap_children()
    reaped = os.times()
    result["cpu_s"] = cpu + reaped.children_user + reaped.children_system
    with open(job["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0 if all(code == 0 for code in codes) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
