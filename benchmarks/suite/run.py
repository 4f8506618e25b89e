"""One command for the whole benchmark.

People run it as (from the repository root)::

    PYTHONPATH=src python -m benchmarks.suite.run \\
        [--workload W]... [--seed S] [--seconds T] [--traced] \\
        [--sets N] [--out F]

which runs every workload (or the named ones), gates every result on
correctness, prints every metric by name with its unit, and exits
non-zero on any failure.  ``BENCHMARK.json`` names the other form::

    python3 benchmarks/suite/run.py --workload W --seed S --seconds T --trace 0|1

one workload, one pass (untraced end-to-end or traced per-layer), the
last line of standard output a JSON object for the driver.

Each workload runs in a subprocess of its own, so one that dies is
charged as failed operations instead of taking the harness with it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.suite import harness, metrics  # noqa: E402
from benchmarks.suite.workloads import WORKLOADS  # noqa: E402

WORK = ROOT / ".bench_work"
#: a workload subprocess gets this long before it is killed; the
#: driver allows 180 s for the whole command
CHILD_TIMEOUT_S = 165.0
DEFAULT_SECONDS = 20.0


# ---------------------------------------------------------------------------
# the workload subprocess
# ---------------------------------------------------------------------------

def child_main(args) -> int:
    """Run one workload, one pass; write the result as JSON."""
    from benchmarks.suite.layers import NULL, Context, OpLog
    from benchmarks.suite.workloads import end_to_end

    cls = WORKLOADS[args.child]
    tracer = harness.Tracer() if args.trace else NULL
    ctx = Context(
        name=args.child, seed=args.seed, seconds=args.seconds,
        traced=bool(args.trace), workdir=Path(args.workdir),
        threads=cls.kernel_threads(), tracer=tracer,
    )
    workload = cls(ctx)
    result: dict = {
        "workload": ctx.name, "seed": ctx.seed, "traced": ctx.traced,
        "kernel_threads": ctx.threads, "requested_seconds": ctx.seconds,
    }
    try:
        workload.setup()
        setup_s = time.time() - args.t0
        untraced = None
        if ctx.traced:
            # tracing off and on in alternating windows of the same
            # process and set-up: the difference is what the spans cost
            untraced, log = OpLog(), OpLog()
            for index in range(cls.trace_windows):
                on = index % 2 == 1
                (log if on else untraced).merge(
                    workload.window(
                        tracer if on else NULL,
                        ctx.seconds / cls.trace_windows,
                    )
                )
        else:
            log = workload.window(NULL, ctx.seconds)
        rss_mb = harness.peak_rss_mb()
        result["end_to_end"] = end_to_end(log, setup_s, rss_mb)
        result["attempted"] = log.attempted
        result["failures"] = log.failures
        if ctx.traced:
            result["per_layer"] = _per_layer(workload, log, untraced, result)
            tracer.write_jsonl(args.spans)
        result["envelope"] = harness.host_envelope()
    finally:
        workload.close()
    Path(args.result).write_text(json.dumps(result))
    return 0


def _per_layer(workload, log, untraced, result) -> dict:
    spans = workload.ctx.tracer.spans
    values = workload.layers(log)
    result["layer_detail"] = values.pop("_detail", {})
    e2e = result["end_to_end"]
    base = statistics.median(untraced.latencies_ms)
    values["trace.overhead_share"] = (e2e["solve_p50_ms"] - base) / base
    result["layer_detail"]["untraced_p50_ms"] = base
    result["failures"] = untraced.failures + result["failures"]
    result["attempted"] += untraced.attempted
    own = harness.self_times(spans)
    ops = [s for s in spans if s["name"] == "op"]
    values["trace.unaccounted_share"] = sum(own[s["id"]] for s in ops) / sum(
        s["end"] - s["start"] for s in ops
    )
    values["e2e.solve_p90_ms"] = e2e["solve_p90_ms"] or 0.0
    values["e2e.failed_share"] = e2e["failed_share"]
    return {name: float(values.get(name, 0.0)) for name in metrics.PER_LAYER}


# ---------------------------------------------------------------------------
# the harness side
# ---------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    """Run one pass of one workload in its own process group.  A child
    that dies, hangs or writes nothing comes back as a result whose
    planned operations all failed."""
    workdir = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "tmp").mkdir(parents=True)
    result_path = workdir / "result.json"
    spans_path = WORK / f"spans-{name}.jsonl"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    env["TMPDIR"] = str(workdir / "tmp")
    env["REPRO_NATIVE_CACHE_DIR"] = str(workdir / "store-init")
    cmd = [
        sys.executable, "-m", "benchmarks.suite.run", "--child", name,
        "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(int(traced)), "--workdir", str(workdir),
        "--result", str(result_path), "--spans", str(spans_path),
        "--t0", repr(time.time()),
    ]
    died = None
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=sys.stderr, start_new_session=True
    )
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
        if code != 0:
            died = f"workload process exited with code {code}"
    except subprocess.TimeoutExpired:
        died = f"workload process exceeded {CHILD_TIMEOUT_S:.0f} s"
    finally:
        # the child leads its own process group: whatever it left
        # behind (sandbox workers, a compiler) goes with it
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    result = None
    if died is None:
        try:
            result = json.loads(result_path.read_text())
        except (OSError, ValueError) as exc:
            died = f"workload process left no result: {exc}"
    shutil.rmtree(workdir, ignore_errors=True)
    if result is None:
        planned = WORKLOADS[name].planned_ops
        result = {
            "workload": name, "seed": seed, "traced": traced,
            "crashed": died, "attempted": planned,
            "failures": [died] * planned,
        }
    if traced and "per_layer" in result:
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    return result


def contract_line(result: dict) -> str:
    """The driver's JSON object for one pass."""
    if result["traced"]:
        values = result.get("per_layer") or dict.fromkeys(metrics.PER_LAYER, 0.0)
        units = {k: v[0] for k, v in metrics.PER_LAYER.items()}
    else:
        e2e = result.get("end_to_end") or {}
        values = {k: e2e.get(k) or 0.0 for k in metrics.BOUNDED}
        units = {k: v[0] for k, v in metrics.BOUNDED.items()}
    return json.dumps({
        "correct": not result["failures"],
        "attempted": max(1, result["attempted"]),
        "failed": len(result["failures"]),
        "metrics": {
            k: {"value": float(values[k]), "unit": units[k]} for k in values
        },
    })


def print_result(result: dict) -> None:
    head = (
        f"== {result['workload']}  seed {result['seed']}  "
        f"{'traced' if result['traced'] else 'untraced'}"
    )
    if "crashed" in result:
        print(f"{head} ==\n  CRASHED: {result['crashed']}")
        return
    e2e = result["end_to_end"]
    print(
        f"{head}  {e2e['samples']} samples in {e2e['window_s']:.1f} s  "
        f"{result['kernel_threads']} kernel thread(s)  "
        f"{e2e['cycles_to_tol']} cycles to rtol =="
    )
    for name, (unit, _, bound) in metrics.END_TO_END.items():
        value = e2e[name]
        shown = (
            f"n/a ({e2e['samples']} samples < 100)" if value is None
            else f"{value:.6g} {unit}"
        )
        note = f"  [bound {bound:.0%}]" if bound is not None else ""
        print(f"  {name:<28}{shown}{note}")
    for failure in result["failures"][:5]:
        print(f"  FAILED: {failure}")
    if result["traced"]:
        for name, (unit, _) in metrics.PER_LAYER.items():
            print(f"  {name:<28}{result['per_layer'][name]:.6g} {unit}")
        share = result["per_layer"]["trace.overhead_share"]
        if share > metrics.TRACE_OVERHEAD_LIMIT:
            print(
                f"  FLAGGED: tracing cost {share:.1%} of solve_p50_ms "
                f"(limit {metrics.TRACE_OVERHEAD_LIMIT:.0%}); read the "
                "per-layer times with that in mind"
            )
        print(f"  spans: {result.get('spans_file')}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", action="append", choices=sorted(WORKLOADS),
        help="run only this workload (repeatable; default: all four)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=None,
        help="driver form: one workload, untraced (0) or traced (1) "
        "pass only, JSON object on the last line",
    )
    parser.add_argument(
        "--traced", action="store_true",
        help="after each untraced pass also make the traced one",
    )
    parser.add_argument("--sets", type=int, default=1,
                        help="repeat everything N times back to back")
    parser.add_argument("--out", help="write all results as JSON here")
    # the workload subprocess
    parser.add_argument("--child", choices=sorted(WORKLOADS),
                        help=argparse.SUPPRESS)
    for hidden in ("--workdir", "--result", "--spans"):
        parser.add_argument(hidden, help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.child and args.trace is not None and len(args.workload or ()) != 1:
        parser.error("--trace needs exactly one --workload")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        try:
            return child_main(args)
        except BaseException:
            traceback.print_exc()
            return 1
    if not (ROOT / "src" / "repro").is_dir():
        harness.eprint(f"no program to measure: {ROOT / 'src' / 'repro'} missing")
        return 2
    names = args.workload or list(WORKLOADS)
    passes = [bool(args.trace)] if args.trace is not None else (
        [False, True] if args.traced else [False]
    )
    sets = []
    failed = False
    last = None
    for index in range(args.sets):
        results = []
        for name in names:
            for traced in passes:
                last = run_workload(name, args.seed + index, args.seconds, traced)
                print_result(last)
                failed |= bool(last["failures"])
                results.append(last)
        sets.append(results)
    if args.out:
        Path(args.out).write_text(json.dumps({
            # the host these numbers belong to (every result repeats it)
            "envelope": next(
                (r["envelope"] for rs in sets for r in rs if "envelope" in r),
                None,
            ),
            "bounds": {k: v[2] for k, v in metrics.BOUNDED.items()},
            "better": {
                **{k: v[1] for k, v in metrics.END_TO_END.items()},
                **{k: v[1] for k, v in metrics.PER_LAYER.items()},
            },
            "sets": sets,
        }, indent=1))
    if args.trace is not None:
        print(contract_line(last))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
