"""Table printers for the examples' incident trails.

:func:`print_incident_log` renders a resilience incident trail
(:class:`~repro.resilience.incidents.IncidentLog`, a supervised solve
result, or a compile report carrying incidents) as a table;
:func:`dump_incident_log` writes it as JSON — the artifact the CI chaos
job uploads on failure (``examples/resilient_solve.py
--incident-log``).
"""

from __future__ import annotations

import json
from typing import Iterable, Sequence

__all__ = [
    "print_table",
    "banner",
    "print_incident_log",
    "dump_incident_log",
]


def banner(title: str) -> None:
    line = "=" * max(60, len(title) + 4)
    print(f"\n{line}\n  {title}\n{line}")


def print_table(
    headers: Sequence[str],
    rows: Iterable[Sequence],
    floatfmt: str = "{:.2f}",
) -> None:
    rendered = []
    for row in rows:
        rendered.append(
            [
                floatfmt.format(v) if isinstance(v, float) else str(v)
                for v in row
            ]
        )
    widths = [
        max(len(h), *(len(r[i]) for r in rendered)) if rendered else len(h)
        for i, h in enumerate(headers)
    ]
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    print(line)
    print("-" * len(line))
    for row in rendered:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))


def _incident_dicts(log) -> list[dict]:
    """Accept an IncidentLog, a SupervisedSolveResult, a CompileReport,
    or a plain list of record dicts."""
    if hasattr(log, "to_dicts"):  # IncidentLog
        return log.to_dicts()
    if hasattr(log, "incidents"):  # SupervisedSolveResult / CompileReport
        inner = log.incidents
        return inner.to_dicts() if hasattr(inner, "to_dicts") else list(inner)
    return list(log)


def _ring_stats(log) -> dict | None:
    """Ring-buffer accounting of a capacity-bounded IncidentLog (also
    reachable through a result/report's ``.incidents``), else None."""
    if hasattr(log, "ring_stats"):
        return log.ring_stats()
    inner = getattr(log, "incidents", None)
    if hasattr(inner, "ring_stats"):
        return inner.ring_stats()
    return None


def print_incident_log(log, title: str = "incident log") -> None:
    """Render a resilience incident trail
    (:class:`~repro.resilience.incidents.IncidentLog`, a supervised
    solve result, or a compile report carrying incidents) as a table.
    A ring-buffered log that dropped records says so up front — a
    truncated audit trail must never read as a complete one."""
    records = _incident_dicts(log)
    ring = _ring_stats(log)
    banner(f"{title} ({len(records)} incidents)")
    if ring and ring["dropped"]:
        span = ring["last_drop_ts"] - ring["first_drop_ts"]
        print(
            f"!! ring buffer dropped {ring['dropped']} older incidents "
            f"({ring['total_recorded']} total recorded, capacity "
            f"{ring['capacity']}, drops spanned {span:.1f}s)"
        )
    if not records:
        print("(clean run)")
        return
    rows = []
    for rec in records:
        rows.append(
            [
                rec.get("seq", ""),
                rec.get("kind", ""),
                rec.get("variant", "") or "",
                rec.get("cycle", "") if rec.get("cycle") is not None else "",
                rec.get("action", "") or "",
                (rec.get("error", "") or "")[:60],
            ]
        )
    print_table(
        ["#", "kind", "variant", "cycle", "action", "error"], rows
    )


def dump_incident_log(log, path) -> None:
    """Write an incident trail to ``path`` as JSON (the chaos-CI
    artifact format: a list of record dicts).  When the log is a ring
    buffer that dropped records, a leading ``ring-stats`` pseudo-record
    carries the drop accounting so the artifact is self-describing."""
    records = _incident_dicts(log)
    ring = _ring_stats(log)
    if ring and ring["dropped"]:
        records = [{"kind": "ring-stats", **ring}] + records
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=2)
        fh.write("\n")
