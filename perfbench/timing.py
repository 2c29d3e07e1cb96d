"""Stage timing that cancels the benchmark host's changing speed.

The host shares its cores. The same code runs up to twice as slowly for
seconds at a time, and no statistic over one run removes that. So, besides
wall seconds, each timed region reports its seconds *at reference speed*.
A timer signal interrupts the region every ``TICK_S`` and takes a
sample: the time of a short, fixed CPU-bound loop and of a pointer chase
through an 8 MB cycle, which waits on memory. Neither uses package code.
The region's seconds exclude the sampling time. They are divided by the
host's slowdown, the geometric mean of the two mean sample times over
their reference values. Contention slows the samples and the region
alike, so it cancels, and a change to the package moves only the region.
The CPU loop runs twice and the second run counts, so the caches the
region evicted do not count as host slowness. The chase always misses
cache. The collector is off while sampling, so sample times do not grow
with the package's heap. On the 2-vCPU host the bounds were set on, this
cut the per-operation spread of a 32k-router generation from 10% to 4%.
A region shorter than ``MIN_SAMPLES`` ticks has too few samples of its
own, so it is scaled by the run's last ``MIN_SAMPLES * 2`` samples.

A signal handler runs in the main thread between bytecodes, so sampling
starts no thread.
"""

from __future__ import annotations

import contextlib
import collections
import gc
import hashlib
import random
import signal
from dataclasses import dataclass
from statistics import fmean
from time import perf_counter
from typing import Optional

import numpy as np

TICK_S = 0.025
CHASE_ENTRIES = 1 << 21  # uint32, 8 MB
CHASE_STEPS = 2000
MIN_SAMPLES = 4
# Sample times on an idle core of the host the bounds were set on (2 vCPUs,
# Python 3.11, numpy 2.4). They only set the scale of scaled seconds.
REFERENCE_S = 150e-6
CHASE_S = 250e-6

_TABLE = np.arange(512, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)


def chase_cycle(entries: int = CHASE_ENTRIES) -> np.ndarray:
    """``next`` links that visit every entry once, in a seeded random order."""
    order = np.arange(entries, dtype=np.uint32)
    np.random.default_rng(5).shuffle(order)
    links = np.empty(entries, dtype=np.uint32)
    chunk = 1 << 18  # bounds the index temporaries
    for start in range(0, entries, chunk):
        stop = min(start + chunk, entries - 1)
        links[order[start:stop]] = order[start + 1:stop + 1]
    links[order[-1]] = order[0]
    return links


def reference_loop() -> float:
    """Seconds for a fixed mix of the package's kinds of work.

    Seeded random bytes, SHA-256, big-int XOR, string formatting, a numpy
    partition, a dict and a keyed sort.
    """
    start = perf_counter()
    rng = random.Random(1)
    acc = 0
    items = []
    for i in range(60):
        key = hashlib.sha256(rng.randbytes(96)).digest()
        items.append((key, f"{rng.choice('KLMNOPX')}R.{i}:{key[:4].hex()}"))
        acc ^= int.from_bytes(key, "big")
    np.partition(_TABLE ^ np.uint64(acc & 0xFFFFFFFFFFFFFFFF), 3)
    by_key = dict(items)
    sorted(by_key, key=lambda k: int.from_bytes(k, "big") ^ acc)
    return perf_counter() - start


def chase(links, steps: int = CHASE_STEPS) -> float:
    """Seconds to follow ``steps`` links of the cycle: one cache miss each."""
    start = perf_counter()
    j = 0
    for _ in range(steps):
        j = links[j]
    return perf_counter() - start


@dataclass
class Region:
    seconds: float = 0.0  # wall seconds, sampling excluded
    scaled: float = 0.0  # seconds at reference speed


class SpeedSampler:
    """Times regions and samples the host's speed while they run.

    The SIGALRM handler stays installed for the life of the process, so a
    tick that arrives after a region closed is ignored rather than
    delivered to the default action.
    """

    def __init__(self) -> None:
        self._cycle = chase_cycle()
        self._links = memoryview(self._cycle)
        self._samples: Optional[list] = None  # (loop, chase) times of the open region
        self._recent = collections.deque(maxlen=2 * MIN_SAMPLES)
        self._spent = 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def _sample(self) -> tuple:
        enabled = gc.isenabled()
        gc.disable()
        try:
            reference_loop()
            sample = reference_loop(), chase(self._links)
        finally:
            if enabled:
                gc.enable()
        self._recent.append(sample)
        return sample

    def _tick(self, signum, frame) -> None:
        if self._samples is None:
            return
        start = perf_counter()
        self._samples.append(self._sample())
        self._spent += perf_counter() - start

    @contextlib.contextmanager
    def region(self):
        """Time the body; the yielded Region is filled in when it ends."""
        if self._samples is not None:
            raise RuntimeError("timed regions do not nest")
        region = Region()
        samples = [self._sample()]
        self._samples, self._spent = samples, 0.0
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        start = perf_counter()
        try:
            yield region
            end = perf_counter()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._samples = None
        samples.append(self._sample())
        if len(samples) < MIN_SAMPLES:
            samples = list(self._recent)
        slowdown = (fmean(s[0] for s in samples) / REFERENCE_S
                    * fmean(s[1] for s in samples) / CHASE_S) ** 0.5
        region.seconds = end - start - self._spent
        region.scaled = region.seconds / slowdown


@dataclass
class Clock:
    """What an operation times its stages with: a sampler and, when tracing, a tracer."""

    sampler: SpeedSampler
    tracer: object = None
