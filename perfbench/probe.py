"""Speed probe: how fast the CPU a pass runs on is while the pass runs.

Usage: python3 probe.py CPU

On a shared virtual machine the speed a CPU gives a process changes with
the host's load, in steps of up to 2x that last from a second to minutes,
so the CPU time of one scoring job varied by a quarter between passes.
The probe runs on the same CPU as the pass, beside it: every
``PERIOD_S`` it times one call of a fixed pure-Python kernel in its own
CPU time and sleeps again, taking about a twentieth of the CPU. The
scheduler interleaves it with the pass at millisecond scale, so its
samples see the speed the pass saw, and the benchmark scales the pass's
CPU time by ``REFERENCE_S / mean kernel time``. A change of the machine's
speed moves the kernel and the pass alike and cancels; a change to the
program does not move the kernel, which imports nothing from ``longdep``.

The probe prints ``ready`` once it has a sample, and on SIGTERM prints
its samples as one JSON list and exits; it also exits if its parent
does.
"""

from __future__ import annotations

import json
import math
import os
import random
import signal
import subprocess
import sys
import time

# Mean kernel time, in CPU seconds, that a scaled second stands for: about
# the mean seen beside a pass on the 2-vCPU VM (Python 3.11) the first
# baseline was measured on.
REFERENCE_S = 0.001
PERIOD_S = 0.02
# Share of the samples dropped at each end before averaging, against
# samples cut by an interrupt or a migration.
TRIM = 0.1

_VOCAB = [f"w{i}" for i in range(400)]


def _model():
    rng = random.Random(7)
    counts: dict[tuple, dict[str, int]] = {}
    for _ in range(6000):
        hist = (rng.choice(_VOCAB), rng.choice(_VOCAB))
        slot = counts.setdefault(hist, {})
        tok = rng.choice(_VOCAB)
        slot[tok] = slot.get(tok, 0) + 1
    totals = {h: sum(s.values()) for h, s in counts.items()}
    tokens = [rng.choice(_VOCAB) for _ in range(1000)]
    return counts, totals, tokens


def kernel(counts, totals, tokens) -> float:
    """A fixed unit of what the scorer does most: tuple-keyed dict
    lookups, ``math.log`` and float sums in an interpreted loop."""
    total = 0.0
    for idx in range(2, len(tokens)):
        hist = (tokens[idx - 2], tokens[idx - 1])
        slot = counts.get(hist)
        seen = slot.get(tokens[idx], 0) if slot else 0
        total += math.log((seen + 0.01) / (totals.get(hist, 0) + 4.0))
    return total


def trimmed_mean(samples: list[float]) -> float:
    ordered = sorted(samples)
    cut = int(len(ordered) * TRIM)
    kept = ordered[cut:len(ordered) - cut] or ordered
    return sum(kept) / len(kept)


class SpeedProbe:
    """A probe process on ``cpu`` for the duration of a ``with`` block.

    After the block, ``scale`` is ``REFERENCE_S`` over the mean kernel
    time: multiply a CPU time measured inside the block by it.
    """

    def __init__(self, cpu: int):
        self.cpu = cpu
        self.scale: float | None = None
        self._proc: subprocess.Popen | None = None

    def __enter__(self) -> "SpeedProbe":
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), str(self.cpu)],
            stdout=subprocess.PIPE, text=True,
        )
        if self._proc.stdout.readline().strip() != "ready":
            self._stop()
            raise RuntimeError("the speed probe did not start")
        return self

    def __exit__(self, exc_type, *_exc) -> None:
        samples = self._stop()
        if samples:
            self.scale = REFERENCE_S / trimmed_mean(samples)
        elif exc_type is None:
            raise RuntimeError("the speed probe returned no samples")

    def _stop(self) -> list[float]:
        proc, self._proc = self._proc, None
        try:
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return []
        lines = out.strip().splitlines()
        return json.loads(lines[-1]) if proc.returncode == 0 and lines else []


def main(cpu: int) -> int:
    os.sched_setaffinity(0, {cpu})
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    data = _model()
    samples: list[float] = []
    parent = os.getppid()
    # Stop on SIGTERM, or if the benchmark died without sending it.
    while not stop and os.getppid() == parent:
        start = time.thread_time()
        kernel(*data)
        samples.append(time.thread_time() - start)
        if len(samples) == 1:
            print("ready", flush=True)
        time.sleep(PERIOD_S)
    print(json.dumps(samples), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1])))
