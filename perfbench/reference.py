"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark runs on small shared virtual machines whose speed drifts by
up to ~40% over minutes (co-tenant load on the same physical cores, steal).
The drift moves every time the runner measures, in all workloads at once,
and is far larger than the regressions the bounds are meant to catch.

The kernel mixes the two kinds of work the workloads do: interpreter work
(loops, dict updates, string keys, as in parsing and the CLI) and many
numpy calls on 4,096-element arrays (as in the path engine).  It does not
touch ``harnack_lab``, so a change to the package cannot make it faster or
slower.  The runner times it right before and right after every timed round
and multiplies the round's wall and CPU time by the kernel's nominal time
over its measured time: a time metric then reads as the seconds the round
would take on a host that runs the kernel in its nominal time, which is the
time it typically took on the machine the benchmark was built on.  Raw times
are reported beside the scaled ones.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

# the kernel's median wall and CPU seconds on the 2-vCPU Xeon VM (2.1 GHz
# nominal) the benchmark was built on; the scaled metrics refer to them
NOMINAL_WALL_S = 0.0080
NOMINAL_CPU_S = 0.0080
# kernel runs per sample; the sample keeps their medians
REPEATS = 3


@dataclass
class Sample:
    wall: float          # median wall seconds of the kernel runs
    cpu: float           # median CPU seconds of the kernel runs
    kernel_cpu: float    # CPU seconds of all the kernel runs
    other_cpu: float     # CPU seconds other threads of the process used meanwhile


def kernel() -> None:
    # numpy is imported here, not at the top, so that importing this module
    # leaves the package's measured import time alone
    import numpy as np

    acc = 0
    table: dict[str, int] = {}
    for i in range(5000):
        key = f"k{i % 97}"
        table[key] = table.get(key, 0) + i
        acc += i * i % 13
    x = np.linspace(0.0, 1.0, 4096)
    for _ in range(100):
        x = np.sin(x) * 0.5 + np.sqrt(x + 1.0)


def sample(repeats: int = REPEATS) -> Sample:
    """``repeats`` kernel runs, reduced to their medians."""
    walls, cpus, others = [], [], []
    for _ in range(repeats):
        p0, c0, t0 = time.process_time(), time.thread_time(), time.perf_counter()
        kernel()
        t1, c1, p1 = time.perf_counter(), time.thread_time(), time.process_time()
        walls.append(t1 - t0)
        cpus.append(c1 - c0)
        others.append(max(0.0, (p1 - p0) - (c1 - c0)))
    return Sample(statistics.median(walls), statistics.median(cpus), sum(cpus), sum(others))
