"""Resilient solve: a supervised multigrid solve surviving a fault.

Builds a 2-D Poisson V-cycle, arms a *transient* NaN poison on the
rung the ladder serves first (``LADDER_ORDER[0]``, the whole-solve
driver: it misbehaves on exactly one invocation, modelling a
single-event upset), and runs the solve under the full resilience
subsystem (DESIGN.md sections 10 and 12):

* an armed injector makes the rung serve per-cycle (its hook points
  live in the numpy tiers), so the poison fires on its first cycle and
  trips the rung's circuit breaker — the degradation ladder demotes to
  the next rung;
* the supervisor restores the last-known-good checkpoint and retries
  the same cycle on the demoted rung, so no converged work is lost;
* after the cooldown the ladder probes the top rung with live traffic
  and re-promotes it — the solve finishes on the rung it started on;
* the whole trail lands in the structured incident log.

Run:  python examples/resilient_solve.py [--seed N] [--incident-log F]

Doubles as the CI chaos runner: ``--seed`` varies the right-hand side
and ``--incident-log`` dumps the trail as JSON (the artifact uploaded
on failure).  Exits non-zero if the solve does not converge, the fault
never fired, or the ladder does not recover the faulted rung.
"""

import argparse
import sys

import numpy as np

from report import banner, dump_incident_log, print_incident_log
from repro.multigrid import MultigridOptions, build_poisson_cycle
from repro.resilience import DegradationLadder, SolveSupervisor, SupervisorPolicy
from repro.variants import LADDER_ORDER
from repro.verify.faults import inject_transient_nan_poison


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n", type=int, default=32)
    parser.add_argument(
        "--incident-log",
        metavar="FILE",
        help="dump the incident trail to FILE as JSON",
    )
    args = parser.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    n = args.n
    f = np.zeros((n + 2, n + 2))
    f[1:-1, 1:-1] = rng.standard_normal((n, n))

    opts = MultigridOptions(cycle="V", n1=2, n2=2, n3=2, levels=3)
    pipe = build_poisson_cycle(2, n, opts)

    ladder = DegradationLadder(base_cooldown=0.001, promote_after=2)
    supervisor = SolveSupervisor(
        pipe,
        SupervisorPolicy(max_cycles=80, tol=1e-5),
        ladder=ladder,
        config_overrides={"tile_sizes": {2: (8, 16)}},
    )

    # arm the single-event upset on the first invocation of the rung
    # the ladder serves first
    top = LADDER_ORDER[0]
    compiled = supervisor.resilient.compiled_for(top)
    record = inject_transient_nan_poison(compiled, invocation=1)
    banner(f"solving with injected fault: {record}")

    result = supervisor.solve(f)

    print(
        f"\nstatus={result.status}  cycles={result.cycles}  "
        f"restores={result.restores}  "
        f"final residual={result.residual_norms[-1]:.3e}"
    )
    print("variant trail:", " ".join(result.variant_trail))
    print_incident_log(result)
    banner("per-rung health")
    for name, health in result.health.items():
        print(
            f"  {name:18s} state={health['state']:9s} "
            f"error_rate={health['error_rate']:.3f} "
            f"trips={health['trips']}"
        )

    if args.incident_log:
        dump_incident_log(result, args.incident_log)
        print(f"\nincident log written to {args.incident_log}")

    fired = result.health[top]["trips"] > 0
    recovered = (
        result.variant_trail
        and result.variant_trail[-1] == top
        and result.health[top]["state"] == "closed"
    )
    if not result.converged:
        print("FAIL: solve did not converge", file=sys.stderr)
        return 1
    if not fired:
        print(f"FAIL: the fault never fired on {top}", file=sys.stderr)
        return 1
    if not recovered:
        print(f"FAIL: ladder did not re-promote {top}", file=sys.stderr)
        return 1
    print(f"\nOK: converged, fault on {top} survived, {top} re-promoted")
    return 0


if __name__ == "__main__":
    sys.exit(main())
