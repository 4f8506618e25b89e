"""Solve service demo: multi-tenant admission, overload, drain, recover.

Runs a small :class:`repro.service.SolveService` through its whole
life (DESIGN.md section 13):

* three tenants submit mixed-priority 2-D Poisson solves concurrently
  and every ticket resolves with a verified result;
* a burst of same-spec requests is coalesced through the batched
  execution tier (one kernel-plan walk, many right-hand sides) and the
  registry-sourced per-tier health sections are printed;
* a rate-limited tenant and a tight fleet budget show the typed
  refusals (``TenantRateLimited``, ``AdmissionDeferred`` /
  ``ServiceOverloaded``) and the graded overload posture;
* a worker is killed mid-solve — the solve is preempted at a cycle
  boundary and resumed by the respawned worker, nothing lost;
* the service drains: an unfinished solve persists its checkpoint, and
  a *second* service instance recovers and finishes it.

Run:  python examples/service_demo.py [--seed N]

Exits non-zero if any stage misbehaves.
"""

import argparse
import sys
import tempfile

import numpy as np

from report import banner, print_incident_log
from repro.errors import AdmissionRejected, SolvePreempted, TenantRateLimited
from repro.multigrid import MultigridOptions
from repro.service import (
    ServiceConfig,
    SolveRequest,
    SolveService,
    TenantPolicy,
)

N = 32
OPTS = MultigridOptions(cycle="V", n1=4, n2=4, n3=4, levels=4, omega=0.8)
LADDER = ("polymg-opt+", "polymg-naive")


def make_request(rng, tenant, priority="normal", **kw):
    f = np.zeros((N + 2, N + 2))
    f[1:-1, 1:-1] = rng.standard_normal((N, N))
    return SolveRequest(
        tenant=tenant,
        ndim=2,
        N=N,
        f=f,
        opts=OPTS,
        priority=priority,
        **kw,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    checkpoint_dir = tempfile.mkdtemp(prefix="service-demo-")

    def config():
        return ServiceConfig(
            workers=2,
            queue_capacity=8,
            ladder_variants=LADDER,
            checkpoint_dir=checkpoint_dir,
            tenant_policies={
                "metered": TenantPolicy(rate=0.2, burst=1.0)
            },
        )

    service = SolveService(config())

    banner("1. multi-tenant traffic")
    tickets = [
        service.submit(make_request(rng, t, p))
        for t, p in [
            ("alpha", "high"),
            ("beta", "normal"),
            ("gamma", "low"),
            ("alpha", "normal"),
        ]
    ]
    for ticket in tickets:
        result = ticket.result(timeout=300)
        print(
            f"  {ticket.request.tenant:>6}/{ticket.request.priority:<6}"
            f" -> {result.status:12s} residual"
            f" {result.residual_norms[-1]:.2e}"
            f" in {ticket.latency():.3f}s"
        )

    banner("2. same-spec coalescing through the batched tier")
    # one worker pops a fresh request and claims its queued same-spec
    # peers (ServiceConfig.batch_max), solving them in lockstep: one
    # kernel-plan walk, many right-hand sides, bitwise-identical
    # iterates
    burst = [
        service.submit(make_request(rng, "alpha", max_cycles=6))
        for _ in range(4)
    ]
    for ticket in burst:
        ticket.result(timeout=300)
    health = service.healthz()
    print(f"  coalesced {health['counters']['coalesced']} request(s)")
    for tier, section in health["tiers"].items():
        print(
            f"  tier {tier:>11}: breaker {section['breaker']:>8},"
            f" {section['executions']} execution(s),"
            f" {section['failures']} failure(s)"
        )

    banner("3. typed refusals")
    service.submit(make_request(rng, "metered")).result(timeout=300)
    try:
        service.submit(make_request(rng, "metered"))
    except TenantRateLimited as err:
        print(f"  rate-limited, retry in {err.retry_after:.1f}s: {err}")
    service.budget.max_bytes = 10**6
    service.budget.reserve(10**6, 0)  # synthetic saturation: shed level
    try:
        service.submit(make_request(rng, "beta"))
    except AdmissionRejected as err:
        print(f"  overloaded: {type(err).__name__}")
    service.budget.release(10**6, 0)
    service.budget.max_bytes = None

    banner("4. worker kill: the solve survives")
    slow = service.submit(
        make_request(rng, "alpha", max_cycles=200, tol=1e-30)
    )
    while slow.started_at is None:
        pass
    service.kill_worker()
    result = slow.result(timeout=300)
    print(
        f"  preempted + resumed -> {result.status}, "
        f"{len(result.residual_norms) - 1} cycles total"
    )

    banner("5. drain persists, a fresh instance recovers")
    unfinished = service.submit(
        make_request(rng, "beta", max_cycles=5000, tol=1e-300)
    )
    while unfinished.started_at is None:
        pass
    summary = service.drain(timeout=0.2)
    print(f"  drain: {summary['preempted']} solve(s) preempted")
    try:
        unfinished.result(timeout=1)
    except SolvePreempted as err:
        print(f"  checkpoint at {err.checkpoint_path}")

    second = SolveService(config())
    recovered = second.recover()
    print(f"  recovered {len(recovered)} solve(s)")
    final = recovered[0].result(timeout=600)
    print(
        f"  finished: {final.status}, residual"
        f" {final.residual_norms[-1]:.2e}"
    )
    health = second.healthz()
    print(f"  healthz: {health['status']}, counters {health['counters']}")
    second.drain(timeout=30)

    print_incident_log(service.log, title="first instance incident log")

    ok = (
        all(t.error is None for t in tickets)
        and summary["preempted"] == 1
        and len(recovered) == 1
        and final.status in ("converged", "cycle-budget")
    )
    print("OK" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
