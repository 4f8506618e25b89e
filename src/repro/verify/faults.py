"""Fault injection: deliberately corrupt compiled artifacts.

A verifier that never fires is indistinguishable from one that cannot
fire.  Each injector below plants one member of a known fault class
into a :class:`~repro.backend.executor.CompiledPipeline` **in place**
and returns a :class:`FaultRecord` describing the corruption, so the
tests (``tests/verify/``) can assert that

* the corresponding verifier/sentinel catches the fault, and
* :class:`~repro.resilience.pipeline.ResilientPipeline` degrades
  gracefully, producing the reference answer on a lower ladder rung.

Fault classes (mirroring the failure modes of the paper's storage and
scheduling transformations):

``slot-swap``      — an intra-group scratchpad slot is reassigned to a
                     stage whose predecessor tenant is still live (the
                     canonical illegal ``remapStorage`` output).
``ghost-shrink``   — a full array's ghost-zone allocation is shrunk by
                     one element, so a tenant no longer fits.
``group-reorder``  — a producer group is scheduled after its consumer.
``nan-poison``     — a scratch buffer is overwritten with NaN during
                     execution (models an out-of-bounds write or a
                     numerically broken kernel).
``nan-poison-once``— the transient flavour: NaN poison on exactly one
                     pipeline invocation, clean before and after
                     (models a single-event upset; the scenario the
                     degradation ladder's demote -> probe -> re-promote
                     path must survive end to end).

A second family targets the *native* tier: the ``native-*`` injectors
do not mutate a compiled pipeline — they transform a
:class:`~repro.config.PolyMgConfig` so the C emitter compiles a real
fault (wild store, infinite loop, ``abort()``) into the shared
object's entry point (see
``repro.backend.codegen_c._Emitter._emit_injected_fault``).  The
faulted artifact loads and validates like a healthy one, then takes
its process down on invocation — exactly the failure class the
sandbox (:mod:`repro.backend.sandbox`) exists to contain.  Because
``native_fault`` is part of the config fingerprint, a faulted
artifact's content hash never collides with the healthy build.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..passes.schedule import PipelineSchedule
from .invariants import _scratch_live_ranges

if TYPE_CHECKING:  # pragma: no cover
    from ..backend.executor import CompiledPipeline

__all__ = [
    "FaultRecord",
    "inject_slot_swap",
    "inject_ghost_shrink",
    "inject_group_reorder",
    "inject_nan_poison",
    "inject_transient_nan_poison",
    "inject_native_segfault",
    "inject_native_spin",
    "inject_native_abort",
    "FAULT_INJECTORS",
    "NATIVE_FAULT_INJECTORS",
]


@dataclass
class FaultRecord:
    """What was corrupted, for test assertions and incident reports."""

    kind: str
    details: dict = field(default_factory=dict)

    def __str__(self) -> str:
        parts = ", ".join(f"{k}={v}" for k, v in self.details.items())
        return f"{self.kind}({parts})"


def inject_slot_swap(compiled: "CompiledPipeline") -> FaultRecord:
    """Reassign a scratchpad slot so two concurrently-live internal
    stages share it.

    Prefers a pair whose lifetimes overlap strictly (the victim is read
    again after the intruder's write); falls back to a handoff pair
    (intruder is the victim's last consumer), which Algorithm 3's
    strict-release rule equally forbids.
    """
    fallback_site = None
    for gi, group in enumerate(compiled.grouping.groups):
        splan = compiled.storage.scratch.get(gi)
        if splan is None or len(set(splan.buffer_of.values())) < 2:
            continue
        internal = group.internal_stages()
        ranges = _scratch_live_ranges(
            compiled.grouping, compiled.schedule, internal, group
        )
        ordered = sorted(internal, key=lambda s: ranges[s][0])
        for a, b in itertools.combinations(ordered, 2):
            if splan.buffer_of[a] == splan.buffer_of[b]:
                continue
            birth_b = ranges[b][0]
            death_a = ranges[a][1]
            if birth_b > death_a:
                continue
            if birth_b < death_a:
                return _apply_slot_swap(gi, splan, a, b)
            if fallback_site is None:
                fallback_site = (gi, splan, a, b)
    if fallback_site is not None:
        return _apply_slot_swap(*fallback_site)
    raise ValueError(
        "no injectable scratchpad site (pipeline has no group with "
        "two live scratch slots)"
    )


def _apply_slot_swap(gi, splan, a, b) -> FaultRecord:
    old = splan.buffer_of[b]
    splan.buffer_of[b] = splan.buffer_of[a]
    return FaultRecord(
        "slot-swap",
        {
            "group": gi,
            "victim": a.name,
            "intruder": b.name,
            "slot": splan.buffer_of[a],
            "old_slot": old,
        },
    )


def inject_ghost_shrink(compiled: "CompiledPipeline") -> FaultRecord:
    """Shrink one full array's innermost extent by one element, so a
    tenant's ghost zone no longer fits."""
    storage = compiled.storage
    bindings = compiled.bindings
    for stage, aid in sorted(
        storage.array_of.items(), key=lambda kv: kv[0].uid
    ):
        shape = storage.array_shapes[aid]
        need = stage.domain_box(bindings).shape()
        # shrink only where the tenant needs the full extent, so the
        # fault is guaranteed illegal
        if shape[-1] == need[-1] and shape[-1] > 1:
            storage.array_shapes[aid] = shape[:-1] + (shape[-1] - 1,)
            return FaultRecord(
                "ghost-shrink",
                {
                    "array": aid,
                    "stage": stage.name,
                    "old_shape": shape,
                    "new_shape": storage.array_shapes[aid],
                },
            )
    raise ValueError("no injectable full-array site")


def inject_group_reorder(compiled: "CompiledPipeline") -> FaultRecord:
    """Swap a producer group after one of its consumers and rebuild the
    schedule, so the consumer executes before its input exists."""
    grouping = compiled.grouping
    groups = grouping.groups
    for i, group in enumerate(groups):
        for consumer in grouping.consumers_of_group(group):
            j = next(
                k for k, g in enumerate(groups) if g is consumer
            )
            if j <= i:
                continue
            groups[i], groups[j] = groups[j], groups[i]
            # the schedule now follows the corrupted group order
            compiled.schedule = PipelineSchedule(grouping)
            return FaultRecord(
                "group-reorder",
                {
                    "producer": group.anchor.name,
                    "consumer": consumer.anchor.name,
                    "positions": (i, j),
                },
            )
    raise ValueError("no injectable group pair (single-group pipeline)")


def inject_nan_poison(compiled: "CompiledPipeline") -> FaultRecord:
    """Arm a fault hook that overwrites one internal stage's scratch
    buffer with NaN during execution."""
    target = None
    for gi, group in enumerate(compiled.grouping.groups):
        internal = group.internal_stages()
        if internal:
            target = internal[0]
            target_group = gi
            break
    if target is None:
        raise ValueError(
            "no injectable scratch stage (pipeline has no fused group "
            "with internal stages)"
        )

    def poison(stage, out: np.ndarray, _target=target) -> None:
        if stage is _target:
            out.fill(np.nan)

    compiled.fault_injector = poison
    return FaultRecord(
        "nan-poison", {"group": target_group, "stage": target.name}
    )


def inject_transient_nan_poison(
    compiled: "CompiledPipeline", invocation: int = 1
) -> FaultRecord:
    """Arm a *transient* fault: NaN-poison one internal stage's scratch
    buffer during exactly the ``invocation``-th ``execute`` call
    (1-based), leaving every other invocation clean.  This is the
    single-event-upset scenario the degradation ladder must recover
    from without pinning the pipeline to a slow rung."""
    target = None
    for gi, group in enumerate(compiled.grouping.groups):
        internal = group.internal_stages()
        if internal:
            target = internal[0]
            target_group = gi
            break
    if target is None:
        raise ValueError(
            "no injectable scratch stage (pipeline has no fused group "
            "with internal stages)"
        )

    def poison(stage, out: np.ndarray, _target=target) -> None:
        # stats.executions increments at execute() entry, so it equals
        # the 1-based invocation number while the hook runs
        if compiled.stats.executions == invocation and stage is _target:
            out.fill(np.nan)

    compiled.fault_injector = poison
    return FaultRecord(
        "nan-poison-once",
        {
            "group": target_group,
            "stage": target.name,
            "invocation": invocation,
        },
    )


def _inject_native_fault(config, fault: str):
    new_config = config.with_(native_fault=fault)
    return new_config, FaultRecord(
        f"native-{fault}", {"native_fault": fault}
    )


def inject_native_segfault(config):
    """Emit a wild store into the native entry point: the kernel
    SIGSEGVs on its first invocation.  Returns ``(config, record)`` —
    compile with the returned config to build the crashing artifact."""
    return _inject_native_fault(config, "segfault")


def inject_native_spin(config):
    """Emit an infinite loop into the native entry point: the kernel
    never returns and only the sandbox watchdog can reclaim the
    worker.  Returns ``(config, record)``."""
    return _inject_native_fault(config, "spin")


def inject_native_abort(config):
    """Emit ``abort()`` into the native entry point: the kernel kills
    its process with ``SIGABRT``.  Returns ``(config, record)``."""
    return _inject_native_fault(config, "abort")


FAULT_INJECTORS = {
    "slot-swap": inject_slot_swap,
    "ghost-shrink": inject_ghost_shrink,
    "group-reorder": inject_group_reorder,
    "nan-poison": inject_nan_poison,
}

#: config-transforming native crash injectors — separate from
#: :data:`FAULT_INJECTORS` because they take a ``PolyMgConfig`` (and
#: return a new one) instead of mutating a compiled pipeline
NATIVE_FAULT_INJECTORS = {
    "native-segfault": inject_native_segfault,
    "native-spin": inject_native_spin,
    "native-abort": inject_native_abort,
}
