"""Machine-speed sampling for rescaling measured times.

The speed of a shared machine drifts, and each of its CPUs drifts on its
own: a fixed loop pinned to one CPU ran from 1,870 to 2,950 rounds per
second from one second to the next.  So before the first child of a run
and after each one, while none of the benchmark's other processes runs,
the load generator times a few rounds of the kernel below on every CPU it
may use, and multiplies every time the run reports by
``REF_ROUND_S / mean(seconds per round)`` over all of the run's samples.
Reported times are thus seconds at the reference speed, where one round
takes ``REF_ROUND_S``.

No sample overlaps a child, so the child's load never slows the samples:
slowdowns the child inflicts on itself, such as pool workers or BLAS
threads competing for the CPUs, stay in the reported times.  One factor
per run, rather than one per child, averages out the second-to-second
changes that a sample at the edge of a child cannot see.
"""

import os
import time

import numpy as np

# Seconds per kernel round at the reference speed.
REF_ROUND_S = 0.00112

# Rounds timed on each CPU per sample.
ROUNDS_PER_CPU = 40

_QR_BATCH = np.random.default_rng(0).standard_normal((256, 10, 4))


def tick(rounds: int) -> float:
    """CPU seconds per round of a fixed mix of batched small QRs and dict
    inserts, the two kinds of work a replication spends its time on."""
    c0 = time.thread_time()
    for _ in range(rounds):
        np.linalg.qr(_QR_BATCH)
        d = {}
        for i in range(1500):
            d[(i, i + 1)] = float(i)
    return (time.thread_time() - c0) / rounds


def sample(rounds: int = ROUNDS_PER_CPU) -> list[float]:
    """Seconds per round on each CPU this process may run on, one CPU at a time."""
    allowed = os.sched_getaffinity(0)
    per_cpu = []
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            per_cpu.append(tick(rounds))
    finally:
        os.sched_setaffinity(0, allowed)
    return per_cpu


def factor(seconds_per_round: list[float]) -> float:
    """The rescaling factor for work done while these samples were taken."""
    return REF_ROUND_S / (sum(seconds_per_round) / len(seconds_per_round))
