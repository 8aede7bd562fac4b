"""Shared helpers: timing hygiene, summary statistics, result digests.

Nothing here imports the program under test, so ``run.py`` can report a
missing source tree before any ``repro`` import is attempted.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import signal
import statistics
import time
from typing import Dict, Iterable, List, Sequence, Tuple

#: The dataset the pipeline and serving workloads run on: the repository's
#: canonical synthetic graphs at full scale (~134k triples).
SCALE = 1.0
#: Dataset seed.  Fixed rather than derived from the workload seed: the
#: expert ``movie_genre`` query takes 4.3 s on one dataset seed and 8.1 s
#: on another, so a per-seed dataset would make every pipeline metric's
#: run-to-run spread a property of the data, not of the program.
DATASET_SEED = 42
#: How many times set-up is repeated per run; ``setup_s`` is the median.
SETUP_REPEATS = 3

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")


def quiesce() -> None:
    """Put the collector in the same state before every timed operation.

    Long-lived set-up objects (the dataset's indexes) are frozen out of
    collection once by :func:`freeze_setup`; each timed operation then
    starts right after a full collection, with the collector enabled, so
    garbage the program creates is collected the way a user would see.
    """
    gc.collect()


#: Loop steps of one probe round (about 0.4 ms), and rounds
#: per stand-alone probe.
PROBE_STEPS, PROBE_ROUNDS = 2000, 15
#: Seconds one probe round takes at the reference speed: the fastest
#: rounds seen on an idle 2-core Intel Xeon at 2.0 GHz.  Reported times
#: are rescaled to this speed (see :func:`at_ref`).
PROBE_REF_S = 0.00040
#: Share of the slowest probe rounds a speed estimate leaves out (see
#: :func:`speed`).
TRIM = 0.1
#: Inside a timed region, one probe round runs every this many seconds.
SAMPLE_EVERY = 0.025
#: The CPUs the process may use when it starts (at most eight are probed).
CPUS = sorted(os.sched_getaffinity(0))[:8] \
    if hasattr(os, "sched_getaffinity") else []


def probe_round() -> float:
    """CPU seconds of the calling thread for a fixed piece of interpreter
    work like the program's: integer arithmetic, small dict reads and
    writes, tuple and list building.  It calls nothing of the program, so
    no change to the program moves it; only the speed the host gives this
    process does.  Its data fits the CPU's private caches, so the program
    running between rounds barely moves it (5-14% slower than alone,
    against 46-72% for reads over a 16,384-row table).  Thread CPU time
    leaves out waits for the interpreter lock."""
    start = time.thread_time()
    table: Dict[int, Tuple[int, int]] = {}
    rows: List[Tuple[int, int]] = []
    acc = 0
    for i in range(PROBE_STEPS):
        key = (i * 7919) & 255
        row = table.get(key)
        if row is None:
            row = (key, i)
        else:
            acc += row[1] % 13
            row = (row[0], row[1] + i)
        table[key] = row
        rows.append(row)
        if len(rows) > 64:
            rows = rows[32:]
    return time.thread_time() - start


def probe() -> float:
    """The host's speed now: the median of ``PROBE_ROUNDS`` probe rounds,
    in seconds per round."""
    return statistics.median(probe_round() for _ in range(PROBE_ROUNDS))


def speed(rounds: Sequence[float]) -> float:
    """The probe's seconds per round over a stretch of time: the mean of
    its rounds, the slowest ``TRIM`` share left out.

    A region's wall time adds up the host's speed over the region, so the
    mean of rounds spread evenly through it is the matching estimate; the
    slowest rounds are left out because something that stalls the probe
    alone (an interrupt, a page fault) stalls the region far less.  Over
    18 executions of each of six pipeline and expert queries in one
    process, the wall time's quartile spread was 0.22-0.54; divided by this
    estimate 0.05-0.08, by the median round 0.10-0.17, and by the plain
    mean 0.09-0.35."""
    ordered = sorted(rounds)
    kept = ordered[:max(1, int(len(ordered) * (1 - TRIM)) + 1)]
    return sum(kept) / len(kept)


def at_ref(seconds: float, probe_s: float) -> float:
    """``seconds`` of wall time rescaled to the reference speed, given the
    probe's :func:`speed` over them.  The probe is benchmark code, so a
    change that makes the program slower or faster moves the rescaled
    time by the same share as the wall time."""
    return seconds * PROBE_REF_S / probe_s


class Timed:
    """A timed region of the main thread whose host speed is sampled
    while it runs.

    A timer signal interrupts the region every ``SAMPLE_EVERY`` seconds
    and runs one probe round; ``wall`` is the region's wall seconds less
    the rounds' time, ``probe`` the rounds' :func:`speed` and ``ref`` the
    wall time rescaled to the reference speed by it.  A region too short
    for three rounds is probed after it ends.  Sampling costs 2-3% of the
    region, the same for every version of the program."""

    def __init__(self):
        self.samples: List[float] = []
        self.paused = 0.0
        self.wall = self.probe = self.ref = 0.0
        self._start = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(probe_round())
        self.paused += time.perf_counter() - start

    def __enter__(self) -> "Timed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.wall = end - self._start - self.paused
        while len(self.samples) < 3:
            self.samples.append(probe_round())
        self.probe = speed(self.samples)
        self.ref = at_ref(self.wall, self.probe)


def pin_cpu() -> None:
    """Pin the calling thread, and threads it starts later, to one CPU:
    the one the speed probe runs fastest on now.

    The sandbox's virtual CPUs do not always run at the same speed: on a
    2-core sandbox a fixed loop took 0.21-0.29 s on one and 0.12-0.24 s on
    the other in the same minute, and which one is slow changes over time.
    One CPU is enough: the interpreter lock runs one thread at a time, and
    ``serving_rw``'s generator and server worker handed it across two CPUs
    in some runs and not in others (queue wait p90 0.3 ms or 3.5-5 ms)."""
    if len(CPUS) < 2:
        return
    times = {}
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        times[cpu] = probe()
    os.sched_setaffinity(0, {min(CPUS, key=times.__getitem__)})


def freeze_setup() -> None:
    """Move every object alive after set-up into the permanent generation,
    so full collections during timed work do not re-walk the dataset."""
    gc.collect()
    gc.freeze()


def out_path(name: str) -> str:
    """A path for run output (span dumps, the store directory), in an
    ignored directory of the checkout."""
    os.makedirs(OUT_DIR, exist_ok=True)
    return os.path.join(OUT_DIR, name)


def now() -> float:
    return time.perf_counter()


def peak_rss_mb() -> float:
    """The process's peak resident set size in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, int(round(q / 100.0 * len(ordered) + 0.5 - 1e-9)))
    return ordered[min(rank, len(ordered)) - 1]


def bag_digest(columns: Sequence[str], rows: Iterable[Sequence]) -> str:
    """An order-insensitive digest of a bag of rows.

    Columns are put in name order first, so two answers that differ only
    in column or row order digest the same, while a missing, extra or
    duplicated row changes the digest.
    """
    order = sorted(range(len(columns)), key=lambda i: columns[i])
    lines = sorted(repr(tuple(row[i] for i in order)) for row in rows)
    digest = hashlib.sha256()
    digest.update(repr([columns[i] for i in order]).encode())
    for line in lines:
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def frame_digest(frame) -> str:
    """:func:`bag_digest` of a :class:`~repro.dataframe.DataFrame`."""
    columns = frame.columns
    data = [frame[c] for c in columns]
    return bag_digest(columns, zip(*data))


def load_json(name: str) -> Dict:
    with open(os.path.join(HERE, name)) as handle:
        return json.load(handle)


def metric(value: float, unit: str) -> Dict:
    return {"value": value, "unit": unit}


class Tally:
    """Operations attempted and failed, with the first failures kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, why: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(why)

    def share_ok(self) -> float:
        return (self.attempted - self.failed) / max(1, self.attempted)
