"""Timing, statistics and OS readings shared by every workload.

Everything here reads the process from outside the program under
test: wall clocks, ``/proc/self/status`` (RSS), ``/proc/self/io``
(bytes moved through ``read(2)``), ``getrusage`` (page faults) and the
sizes of the files the program left on disk.
"""

from __future__ import annotations

import os
import resource
import statistics
import time
from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

#: Busy seconds before any timed phase.  The host runs the first half
#: second after idle about 40% slow; spinning first keeps that ramp
#: out of the measurements.
SPIN_SECONDS = 2.0

#: Contiguous segments a timed phase is cut into (unless the workload
#: has a cycle).  Percentiles and throughput are computed per segment
#: and the median across segments is reported, so one slow episode
#: (they last ~0.5 s on this kind of host) moves at most one segment.
SEGMENTS = 5

MIB = float(1 << 20)

#: Mean seconds of a calibration unit (:func:`calibration_units`) on
#: the reference host, a 2-vCPU Intel Xeon sandbox, between the
#: operations of a timed phase.  Timing metrics are scaled to this
#: speed; see :func:`segment_summary`.
REFERENCE_UNIT_S = 0.0004

#: A calibration round of :data:`UNITS_PER_ROUND` units runs after an
#: operation once this many seconds have passed since the last round:
#: ten rounds a second cost about two per cent of the run and give
#: every segment dozens of them.
CALIBRATION_INTERVAL_S = 0.1
UNITS_PER_ROUND = 4

_CAL_WORDS = np.arange(1 << 17, dtype=np.uint64)


def spin(seconds: float = SPIN_SECONDS) -> None:
    """Keep the CPU busy with mixed interpreter and numpy work."""
    deadline = time.perf_counter() + seconds
    block = np.arange(1 << 16, dtype=np.uint64)
    acc = 0
    while time.perf_counter() < deadline:
        acc ^= int(np.bitwise_xor.reduce(block ^ np.uint64(acc & 0xFFFF)))
        acc += sum(range(2000))


def _calibration_pass(acc: int) -> int:
    acc ^= int(np.bitwise_xor.reduce(_CAL_WORDS ^ np.uint64(acc & 0xFFFF)))
    acc += sum(range(3000))
    return acc + len({i: i for i in range(300)})


def calibration_units(count: int) -> List[float]:
    """Seconds each of ``count`` calibration units takes now, after one
    untimed pass that warms the caches.

    A unit is a fixed piece of interpreter and numpy work.  The host's
    speed drifts by 15-40% over seconds to minutes (no steal; CPU time
    drifts with wall time), and the unit slows and speeds up with it,
    as the program does; timing the unit beside the program, on the
    program's CPU (see :func:`pin_one_cpu`), measures the drift so
    that it can be divided out.
    """
    acc = _calibration_pass(0)
    out: List[float] = []
    for _ in range(count):
        start = time.perf_counter()
        acc = _calibration_pass(_calibration_pass(acc))
        out.append(time.perf_counter() - start)
    return out


def pin_one_cpu() -> None:
    """Pin the calling thread, and so every thread it starts later, to
    the lowest-numbered CPU it may use.

    Each CPU of the host runs at one of two speeds and flips between
    them on its own, so a program whose threads spread over two CPUs
    runs at a speed no unit timed on one CPU can follow.  On one CPU
    the program and the calibration units share a speed."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Calibrator:
    """Calibration rounds interleaved with a timed phase, outside the
    timed operations."""

    def __init__(self) -> None:
        self._samples: List[float] = []
        self._last = -float("inf")

    def maybe(self) -> None:
        """Run a round if the interval has passed since the last one."""
        if time.perf_counter() - self._last >= CALIBRATION_INTERVAL_S:
            self._samples.extend(calibration_units(UNITS_PER_ROUND))
            self._last = time.perf_counter()

    def take(self) -> List[float]:
        """The unit times recorded since the last call."""
        out, self._samples = self._samples, []
        return out


def speed(samples: Sequence[float]) -> float:
    """Host speed relative to the reference: above 1 when the host
    runs faster than :data:`REFERENCE_UNIT_S` says (1 with no samples).

    The mean, not the median: a CPU of this host runs at one of two
    speeds (about 0.25 and 0.37 ms a unit) and flips between them
    every few tens of milliseconds to seconds, so the unit times are
    bimodal.  The median jumps between the modes while the mean moves
    smoothly with the share of time spent in each, as the program's
    own times do."""
    return REFERENCE_UNIT_S / statistics.fmean(samples) if samples else 1.0


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    return float(np.percentile(np.asarray(values, dtype=float), q))


class Block(NamedTuple):
    """One timed block: its program seconds (wall time minus the
    harness's own work), its ``(class, seconds, ok)`` operations and
    the calibration unit times measured between them."""

    program: float
    ops: List[Tuple[str, float, bool]]
    calibration: List[float]


def split_segments(n_blocks: int, cycle_blocks: int = 1) -> List[range]:
    """Cut ``n_blocks`` whole blocks into segments: one per cycle
    when ``cycle_blocks`` is above 1, else at most :data:`SEGMENTS`
    runs of near-equal length."""
    if cycle_blocks > 1:
        return [
            range(start, min(start + cycle_blocks, n_blocks))
            for start in range(0, n_blocks, cycle_blocks)
        ]
    count = max(1, min(SEGMENTS, n_blocks))
    base, extra = divmod(n_blocks, count)
    out: List[range] = []
    start = 0
    for i in range(count):
        size = base + (1 if i < extra else 0)
        out.append(range(start, start + size))
        start += size
    return out


def segment_summary(
    records: Sequence[Block],
    classes: Sequence[str],
    cycle_blocks: int = 1,
    normalise: bool = True,
) -> Dict[str, float]:
    """Median across segments of per-class p50/p90 and throughput.

    Throughput is completed operations per second of timed wall time:
    the segment's completed operations divided by its blocks' program
    seconds.  With ``normalise``, each segment's figures are scaled to
    the reference host speed by the mean calibration unit of that
    segment: latencies are multiplied by :func:`speed`, throughput is
    divided by it.  Without it they are plain wall-clock figures.
    """
    per_segment: Dict[str, List[float]] = {"ops_per_s": []}
    for cls in classes:
        per_segment[f"{cls}_p50_ms"] = []
        per_segment[f"{cls}_p90_ms"] = []
    for seg in split_segments(len(records), cycle_blocks):
        lat: Dict[str, List[float]] = {cls: [] for cls in classes}
        busy = 0.0
        done = 0
        calibration: List[float] = []
        for b in seg:
            busy += records[b].program
            calibration.extend(records[b].calibration)
            for cls, seconds, ok in records[b].ops:
                if ok:
                    done += 1
                    lat[cls].append(seconds * 1e3)
        scale = speed(calibration) if normalise else 1.0
        per_segment["ops_per_s"].append(done / busy / scale if busy > 0 else 0.0)
        for cls in classes:
            if lat[cls]:
                per_segment[f"{cls}_p50_ms"].append(percentile(lat[cls], 50) * scale)
                per_segment[f"{cls}_p90_ms"].append(percentile(lat[cls], 90) * scale)
    return {
        name: float(statistics.median(values)) if values else 0.0
        for name, values in per_segment.items()
    }


# ----------------------------------------------------------------------
# /proc and getrusage readings
# ----------------------------------------------------------------------
def _status_kb(field: str) -> int:
    with open("/proc/self/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"{field} missing from /proc/self/status")


def rss_mib() -> float:
    return _status_kb("VmRSS") * 1024 / MIB


def hwm_mib() -> float:
    return _status_kb("VmHWM") * 1024 / MIB


def reset_hwm() -> None:
    """Reset VmHWM to the current RSS (``clear_refs`` value 5)."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
        handle.write("5")


def read_io() -> Dict[str, int]:
    with open("/proc/self/io", "r", encoding="ascii") as handle:
        text = handle.read()
    out: Dict[str, int] = {}
    for line in text.splitlines():
        key, _, value = line.partition(":")
        out[key.strip()] = int(value)
    return out


class OsSampler:
    """``rchar`` and page-fault deltas across a phase.

    Reading ``/proc/self/io`` is itself a ``read(2)``, so the bytes of
    one such read are measured up front and subtracted; what remains
    is what the program (and its helper threads) read.
    """

    def __init__(self) -> None:
        first = read_io()["rchar"]
        second = read_io()["rchar"]
        self._self_read = second - first
        self._io = read_io()["rchar"]
        usage = resource.getrusage(resource.RUSAGE_SELF)
        self._minflt = usage.ru_minflt
        self._majflt = usage.ru_majflt

    def finish(self) -> Dict[str, int]:
        rchar = read_io()["rchar"] - self._io - self._self_read
        usage = resource.getrusage(resource.RUSAGE_SELF)
        return {
            "rchar": rchar,
            "minflt": usage.ru_minflt - self._minflt,
            "majflt": usage.ru_majflt - self._majflt,
        }


def disk_bytes(directory: str) -> int:
    """Total size of the regular files under ``directory``."""
    total = 0
    for root, _dirs, files in os.walk(directory):
        for name in files:
            path = os.path.join(root, name)
            if os.path.isfile(path) and not os.path.islink(path):
                total += os.path.getsize(path)
    return total
