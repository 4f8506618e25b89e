"""Compare two result files written by ``run --out``.

    python -m benchmarks.suite.compare A.json B.json

One row per (end-to-end metric, workload): both medians, the ratio
B / A with A as its base, the metric's bound, and a verdict:

``unresolved``  the sets of A or of B spread by more than the bound
                (unless every B reads better than every A)
``worse``       B's median is worse than A's by more than the bound
``better``      B's median is better by more than either side's spread
``same``        anything else

The spread of a side is (max - min) / median over its sets; make them
with ``run --sets N``.  A side with one set has no known spread, and
the bound stands in for it.  Exits 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys


def collect(doc: dict) -> dict[tuple[str, str], list[float]]:
    """``{(metric, workload): [value per set]}`` from the untraced
    passes of a result file."""
    out: dict[tuple[str, str], list[float]] = {}
    for results in doc["sets"]:
        for result in results:
            if result["traced"] or "end_to_end" not in result:
                continue
            for name in doc["bounds"]:
                value = result["end_to_end"].get(name)
                if value is not None:
                    out.setdefault((name, result["workload"]), []).append(value)
    return out


def spread(values) -> float | None:
    if len(values) < 2:
        return None
    return (max(values) - min(values)) / statistics.median(values)


def verdict(a, b, better: str, bound: float) -> tuple[str, float]:
    """Verdict and the ratio ``median(b) / median(a)``."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    ratio = med_b / med_a
    # positive = B worse than A, as a share of A
    worse_by = (ratio - 1.0) if better == "lower" else (1.0 - ratio)
    spreads = [s for s in (spread(a), spread(b)) if s is not None]
    noise = max(spreads) if len(spreads) == 2 else bound
    clean_win = (
        max(b) < min(a) if better == "lower" else min(b) > max(a)
    )
    if spreads and max(spreads) > bound and not clean_win:
        return "unresolved", ratio
    if worse_by > bound:
        return "worse", ratio
    if -worse_by > noise:
        return "better", ratio
    return "same", ratio


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(argv[0]) as fa, open(argv[1]) as fb:
        doc_a, doc_b = json.load(fa), json.load(fb)
    a, b = collect(doc_a), collect(doc_b)
    print(
        f"{'metric':<14}{'workload':<16}{'A (base)':>12}{'B':>12}"
        f"{'B/A':>8}{'bound':>7}  verdict"
    )
    any_worse = False
    for key in sorted(a.keys() & b.keys(), key=lambda k: (k[1], k[0])):
        name, workload = key
        bound = doc_a["bounds"][name]
        word, ratio = verdict(a[key], b[key], doc_a["better"][name], bound)
        any_worse |= word == "worse"
        print(
            f"{name:<14}{workload:<16}{statistics.median(a[key]):>12.5g}"
            f"{statistics.median(b[key]):>12.5g}{ratio:>8.3f}"
            f"{bound:>7.0%}  {word}"
        )
    for key in sorted(a.keys() ^ b.keys()):
        print(f"{key[0]:<14}{key[1]:<16} only in {'A' if key in a else 'B'}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
