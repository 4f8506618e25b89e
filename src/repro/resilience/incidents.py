"""Structured incident records shared by the resilience subsystem.

Every noteworthy runtime event — a fault, a circuit-breaker demotion, a
half-open probe, a re-promotion, a checkpoint restore, a stagnation
remediation, a deadline abort, a leak detection, an admission rejection
or overload transition in the solve service — is appended to an
:class:`IncidentLog` as an :class:`IncidentRecord`.  The log is the
single audit trail of a supervised solve: the supervisor returns it on
the solve result, mirrors each record onto the involved compiled
pipeline's :class:`~repro.passes.manager.CompileReport`, and
``examples/report.py`` renders or persists it.

The log is thread-safe (the multi-tenant solve service appends from
every worker thread) and optionally **capacity-bounded**: constructed
with ``capacity=n`` it becomes a ring buffer that retains the most
recent ``n`` records and counts what it dropped (plus the wall-clock
timestamps of the first and last drop), so a long-running service
cannot grow its audit trail without bound while still reporting,
loudly, that truncation happened.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Iterator

__all__ = ["IncidentRecord", "IncidentLog"]


@dataclass
class IncidentRecord:
    """One resilience event.

    ``kind`` is the event class (``fault``, ``demote``, ``probe``,
    ``promote``, ``checkpoint-restore``, ``stagnation``, ``deadline``,
    ``leak``, ``admission-reject``, ``overload``, ...); ``variant`` the
    ladder rung involved; ``cycle`` the multigrid cycle index
    (supervisor events) and ``invocation`` the pipeline invocation
    count; ``action`` the remediation taken; ``error`` the stringified
    fault, when one triggered the event.
    """

    seq: int
    kind: str
    variant: str | None = None
    cycle: int | None = None
    invocation: int | None = None
    action: str | None = None
    error: str | None = None
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        d: dict = {"seq": self.seq, "kind": self.kind}
        for key in ("variant", "cycle", "invocation", "action", "error"):
            value = getattr(self, key)
            if value is not None:
                d[key] = value
        if self.details:
            d["details"] = dict(self.details)
        return d

    def __str__(self) -> str:
        parts = [f"#{self.seq} {self.kind}"]
        if self.variant is not None:
            parts.append(f"variant={self.variant}")
        if self.cycle is not None:
            parts.append(f"cycle={self.cycle}")
        if self.action is not None:
            parts.append(f"action={self.action}")
        if self.error is not None:
            parts.append(f"error={self.error}")
        return " ".join(parts)


class IncidentLog:
    """Append-only, order-preserving record of resilience events.

    Parameters
    ----------
    capacity:
        ``None`` (default) keeps every record — the right choice for a
        single supervised solve.  A positive integer turns the log into
        a ring buffer holding the most recent ``capacity`` records;
        older records are dropped (counted in :attr:`dropped`, with the
        wall-clock time of the first and last drop retained) so a
        service running for days keeps bounded memory.  Sequence
        numbers keep counting monotonically across drops, so a gap in
        ``seq`` is visible evidence of truncation.
    """

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be positive or None")
        self.capacity = capacity
        self._records: deque[IncidentRecord] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._seq = 0
        self.dropped = 0
        self.first_drop_ts: float | None = None
        self.last_drop_ts: float | None = None

    @property
    def records(self) -> list[IncidentRecord]:
        """Snapshot of the retained records, oldest first."""
        with self._lock:
            return list(self._records)

    def record(self, kind: str, **fields) -> IncidentRecord:
        with self._lock:
            rec = IncidentRecord(seq=self._seq, kind=kind, **fields)
            self._seq += 1
            if (
                self.capacity is not None
                and len(self._records) == self.capacity
            ):
                now = time.time()
                self.dropped += 1
                if self.first_drop_ts is None:
                    self.first_drop_ts = now
                self.last_drop_ts = now
            self._records.append(rec)
            return rec

    def ring_stats(self) -> dict:
        """Ring-buffer accounting: capacity, retained count, drop
        counter, and first/last drop timestamps (``None`` when nothing
        was ever dropped)."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "retained": len(self._records),
                "total_recorded": self._seq,
                "dropped": self.dropped,
                "first_drop_ts": self.first_drop_ts,
                "last_drop_ts": self.last_drop_ts,
            }

    def kinds(self) -> list[str]:
        return [r.kind for r in self.records]

    def count(self, kind: str) -> int:
        return sum(1 for r in self.records if r.kind == kind)

    def of_kind(self, kind: str) -> list[IncidentRecord]:
        return [r for r in self.records if r.kind == kind]

    def to_dicts(self) -> list[dict]:
        return [r.to_dict() for r in self.records]

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dicts(), indent=indent)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def __iter__(self) -> Iterator[IncidentRecord]:
        return iter(self.records)

    def __str__(self) -> str:
        return "\n".join(str(r) for r in self.records)
