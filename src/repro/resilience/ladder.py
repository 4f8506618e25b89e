"""Graded degradation ladder with per-variant circuit breakers.

A binary fallback drops straight from the optimized variant to
``polymg-naive`` on any fault, and every later invocation pays the slow
path.  The ladder replaces that with *graded* degradation over the
ordered rung list contributed by the registered execution tiers
(``TIERS.ladder_order()``, re-exported as
:data:`repro.variants.LADDER_ORDER`):

``polymg-driver`` -> ``polymg-native`` -> ``polymg-opt+`` ->
``polymg-opt`` -> ``polymg-naive``

Each rung carries a :class:`VariantHealth` record — sliding-window
error rate, consecutive-failure count — and a circuit breaker with the
classic three states:

* **closed** — healthy, serves traffic;
* **open** — tripped after ``failure_threshold`` consecutive failures;
  skipped by :meth:`DegradationLadder.select` until its exponential
  cooldown expires (``base_cooldown * cooldown_factor**(trips-1)``,
  capped at ``max_cooldown``);
* **half-open** — cooldown expired; the rung is *probed* with live
  traffic.  ``promote_after`` consecutive probe successes close the
  circuit again (automatic re-promotion); a single probe failure
  re-trips it with an escalated cooldown.

Selection always walks the ladder top-down, so a re-closed fast rung
is preferred again immediately — one transient fault no longer pins a
pipeline to the slow path.  The last rung is the degradation floor: if
every circuit is open, it serves anyway (loud, recorded, but alive).

The ladder is purely a control-plane object: it never compiles or
executes anything itself (see
:class:`~repro.resilience.pipeline.ResilientPipeline`), so it is
trivially testable with a fake clock.

**Concurrency.**  One ladder is shared by every worker of the
multi-tenant solve service, so all state transitions run under an
internal re-entrant lock, and the half-open *probe slot* is explicitly
accounted: the transition open -> half-open hands exactly one caller
the probe (``VariantHealth.probe_in_flight``); concurrent selectors
skip a rung whose probe is already in flight and serve the next rung
down instead, so one faulty variant is never probed by the whole fleet
at once (a stampede would multiply the fault, not heal it).  Recording
the probe's outcome — success or failure — releases the slot.  The
slot is a *lease*, not a lock: if the prober dies without recording an
outcome (e.g. a non-``ReproError`` escaped the attempt entirely), the
claim expires after ``probe_timeout`` seconds and :meth:`select` hands
the probe to the next caller instead of leaving the rung stuck
half-open forever.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from ..backend.registry import TIERS
from .incidents import IncidentLog

__all__ = [
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "VariantHealth",
    "DegradationLadder",
]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


@dataclass
class VariantHealth:
    """Health record of one ladder rung."""

    name: str
    state: str = CLOSED
    window: deque = field(default_factory=lambda: deque(maxlen=16))
    consecutive_failures: int = 0
    invocations: int = 0
    failures: int = 0
    trips: int = 0
    cooldown: float = 0.0
    open_until: float = 0.0
    half_open_successes: int = 0
    #: a half-open rung serves exactly one in-flight probe at a time;
    #: set when :meth:`DegradationLadder.select` hands the probe to a
    #: caller, cleared when its outcome is recorded
    probe_in_flight: bool = False
    #: clock stamp of the current probe claim — the lease start; a
    #: claim older than the ladder's ``probe_timeout`` is reclaimable
    probe_claimed_at: float = 0.0

    def error_rate(self) -> float:
        """Failure fraction over the sliding window (0.0 when empty)."""
        if not self.window:
            return 0.0
        return sum(1 for ok in self.window if not ok) / len(self.window)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "state": self.state,
            "error_rate": round(self.error_rate(), 4),
            "consecutive_failures": self.consecutive_failures,
            "invocations": self.invocations,
            "failures": self.failures,
            "trips": self.trips,
            "cooldown": self.cooldown,
        }


class DegradationLadder:
    """Ordered variants with circuit-breaker demotion and re-promotion.

    Parameters
    ----------
    variants:
        Rung names, fastest first (default: the registry ladder,
        ``TIERS.ladder_order()`` — see
        :class:`~repro.backend.registry.TierRegistry`).
    window:
        Sliding-window length of each rung's error-rate record.
    failure_threshold:
        Consecutive failures that trip a closed circuit (1 = demote on
        the first fault, the right default for mid-solve recovery).
    base_cooldown / cooldown_factor / max_cooldown:
        Exponential cooldown schedule (seconds) between trips.
    promote_after:
        Consecutive half-open probe successes required to re-close.
    probe_timeout:
        Lease duration (seconds) of the single half-open probe slot.
        A prober that dies without recording an outcome would
        otherwise leave its rung half-open-with-slot-taken forever —
        skipped by every worker with no recovery path; after this long
        :meth:`select` reclaims the slot and re-probes.
    clock:
        Monotonic time source (injectable for tests).
    log:
        Shared :class:`~repro.resilience.incidents.IncidentLog`; ladder
        moves (``demote``/``probe``/``promote``) are recorded there.
    """

    def __init__(
        self,
        variants: tuple[str, ...] | None = None,
        *,
        window: int = 16,
        failure_threshold: int = 1,
        base_cooldown: float = 2.0,
        cooldown_factor: float = 2.0,
        max_cooldown: float = 300.0,
        promote_after: int = 2,
        probe_timeout: float = 60.0,
        clock: Callable[[], float] = time.monotonic,
        log: IncidentLog | None = None,
    ) -> None:
        if variants is None:
            variants = TIERS.ladder_order()
        if len(variants) < 2:
            raise ValueError("a ladder needs at least two rungs")
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be positive")
        if promote_after < 1:
            raise ValueError("promote_after must be positive")
        if probe_timeout <= 0:
            raise ValueError("probe_timeout must be positive")
        self.variants = tuple(variants)
        self.probe_timeout = probe_timeout
        self.failure_threshold = failure_threshold
        self.base_cooldown = base_cooldown
        self.cooldown_factor = cooldown_factor
        self.max_cooldown = max_cooldown
        self.promote_after = promote_after
        self.clock = clock
        self.log = log if log is not None else IncidentLog()
        self.health: dict[str, VariantHealth] = {
            name: VariantHealth(name, window=deque(maxlen=window))
            for name in self.variants
        }
        #: guards every state transition — the ladder is shared by all
        #: solve-service workers (re-entrant: ``record_failure`` calls
        #: ``trip`` with the lock held)
        self._lock = threading.RLock()

    def _start_index(self, ceiling: str | None) -> int:
        if ceiling is None:
            return 0
        try:
            return self.variants.index(ceiling)
        except ValueError:
            raise KeyError(
                f"unknown ladder rung {ceiling!r}; known: {self.variants}"
            ) from None

    # -- selection ------------------------------------------------------
    def select(self, *, ceiling: str | None = None) -> str:
        """The rung to serve the next invocation: the highest variant
        whose circuit admits traffic.  An open circuit whose cooldown
        has expired transitions to half-open (a probe) here; the caller
        that receives the transition owns the single probe slot, and
        concurrent callers skip the rung until the probe's outcome is
        recorded.

        ``ceiling`` restricts selection to rungs at or below the named
        variant — the solve service forces ``polymg-naive`` for
        low-priority tenants under overload by passing it here.
        """
        with self._lock:
            now = self.clock()
            for name in self.variants[self._start_index(ceiling):]:
                h = self.health[name]
                if h.state == CLOSED:
                    return name
                if h.state == OPEN and now >= h.open_until:
                    h.state = HALF_OPEN
                    h.half_open_successes = 0
                    h.probe_in_flight = True
                    h.probe_claimed_at = now
                    self.log.record(
                        "probe",
                        variant=name,
                        details={"after_cooldown": h.cooldown},
                    )
                    return name
                if h.state == HALF_OPEN and not h.probe_in_flight:
                    h.probe_in_flight = True
                    h.probe_claimed_at = now
                    return name
                if (
                    h.state == HALF_OPEN
                    and now - h.probe_claimed_at >= self.probe_timeout
                ):
                    # the probe lease expired: its holder died without
                    # ever recording an outcome; hand the slot to this
                    # caller so the rung is not skipped forever
                    h.probe_claimed_at = now
                    self.log.record(
                        "probe",
                        variant=name,
                        action="lease-reclaimed",
                        details={"probe_timeout": self.probe_timeout},
                    )
                    return name
                # OPEN still cooling, or HALF_OPEN with its probe slot
                # leased to another worker: try the next rung down
            # every circuit is open or probing: the last rung is the
            # degradation floor — it serves regardless
            return self.variants[-1]

    def active(self, *, ceiling: str | None = None) -> str:
        """Like :meth:`select` but side-effect free (no probe
        transition, no slot claim): the rung :meth:`select` would
        *currently* return if every open cooldown were still running."""
        with self._lock:
            for name in self.variants[self._start_index(ceiling):]:
                h = self.health[name]
                if h.state in (CLOSED, HALF_OPEN):
                    return name
            return self.variants[-1]

    # -- outcome recording ----------------------------------------------
    def record_success(self, name: str) -> None:
        with self._lock:
            h = self.health[name]
            h.invocations += 1
            h.window.append(True)
            if h.state == HALF_OPEN:
                h.probe_in_flight = False
                h.probe_claimed_at = 0.0
                h.half_open_successes += 1
                if h.half_open_successes >= self.promote_after:
                    h.state = CLOSED
                    h.consecutive_failures = 0
                    h.cooldown = 0.0
                    self.log.record(
                        "promote",
                        variant=name,
                        details={
                            "probe_successes": h.half_open_successes
                        },
                    )
            else:
                h.consecutive_failures = 0

    def record_failure(
        self, name: str, error: Exception | None = None
    ) -> None:
        with self._lock:
            h = self.health[name]
            h.invocations += 1
            h.failures += 1
            h.window.append(False)
            h.consecutive_failures += 1
            if h.state == HALF_OPEN:
                h.probe_in_flight = False
                h.probe_claimed_at = 0.0
            if h.state == HALF_OPEN or (
                h.state == CLOSED
                and h.consecutive_failures >= self.failure_threshold
            ):
                self.trip(name, error=error)

    def trip(self, name: str, *, error: Exception | None = None,
             reason: str | None = None) -> None:
        """Open ``name``'s circuit (demotion) with exponential cooldown.
        Also callable directly, e.g. by the supervisor's stagnation
        remediation."""
        with self._lock:
            h = self.health[name]
            h.trips += 1
            if h.cooldown <= 0.0:
                h.cooldown = self.base_cooldown
            else:
                h.cooldown = min(
                    h.cooldown * self.cooldown_factor, self.max_cooldown
                )
            h.open_until = self.clock() + h.cooldown
            h.state = OPEN
            h.half_open_successes = 0
            h.probe_in_flight = False
            h.probe_claimed_at = 0.0
            self.log.record(
                "demote",
                variant=name,
                error=(
                    f"{type(error).__name__}: {error}"
                    if error is not None
                    else None
                ),
                action=reason or "circuit-open",
                details={"cooldown": h.cooldown, "trips": h.trips},
            )

    # -- reporting ------------------------------------------------------
    def snapshot(self) -> dict:
        """Health of every rung, for structured reports."""
        with self._lock:
            return {
                name: self.health[name].to_dict()
                for name in self.variants
            }
