"""Span capture, self time, percentiles and peak-RSS sampling.

Spans come from the program's own :mod:`repro.obs` tracer.  The front
door drains its tracer when a call returns, so :class:`SpanTap` keeps a
copy of every finished span (local, or shipped home by a shard worker)
as the tracer records it.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import math
import os
import resource
import threading


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]); 0.0 for no samples."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


def tail_ok(count: int, q: float = 0.99) -> bool:
    """Whether at least ten samples lie beyond the ``q`` percentile."""
    return count * (1.0 - q) >= 10


class SpanTap:
    """Keeps every span the process tracer records."""

    def __init__(self) -> None:
        self.spans: list[dict] = []

    def install(self, tracer) -> None:
        record = tracer.record

        def tapped(span_dict: dict) -> None:
            self.spans.append(span_dict)
            record(span_dict)

        tracer.record = tapped


def self_times(spans: list[dict]) -> dict[str, float]:
    """span_id -> duration minus the part its children cover.

    Child intervals are clipped to the parent and merged before they are
    subtracted, so overlapping children (a batch span shared by several
    requests) are not counted twice.
    """
    children: dict[str, list[tuple[float, float]]] = {}
    for record in spans:
        if record.get("parent_id"):
            start = record["ts"]
            children.setdefault(record["parent_id"], []).append(
                (start, start + record["duration_s"])
            )
    result = {}
    for record in spans:
        start, end = record["ts"], record["ts"] + record["duration_s"]
        covered, cursor = 0.0, start
        for lo, hi in sorted(children.get(record["span_id"], [])):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[record["span_id"]] = max(record["duration_s"] - covered, 0.0)
    return result


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _child_pids() -> set[int]:
    pids: set[int] = set()
    try:
        tasks = os.listdir("/proc/self/task")
    except OSError:
        return pids
    for tid in tasks:
        try:
            with open(f"/proc/self/task/{tid}/children", encoding="ascii") as handle:
                pids.update(int(p) for p in handle.read().split())
        except OSError:
            continue
    return pids


class PeakRss:
    """Peak RSS of this process plus every child it forks (sampled)."""

    def __init__(self, interval: float = 0.2) -> None:
        self._interval = interval
        self._children: dict[int, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _sample(self) -> None:
        for pid in _child_pids():
            self._children[pid] = max(self._children.get(pid, 0), _vm_hwm_kb(pid))

    def _loop(self) -> None:
        while not self._stop.wait(self._interval):
            self._sample()

    def __enter__(self) -> "PeakRss":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stop.set()
        self._thread.join()

    def megabytes(self) -> float:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        kids = max(sum(self._children.values()), reaped)
        return (own + kids) / 1024.0
