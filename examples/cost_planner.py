#!/usr/bin/env python3
"""Scenario: provisioning under a deadline and a budget.

The operations question behind the paper's motivation: "my campus queue
is full and I need this analysis by tonight — what do I rent?" This
example composes the simulator with the cost model to answer it: it
simulates every environment for an application, prices each under the
2011 AWS tariff, and picks (a) the cheapest configuration that meets a
deadline and (b) the fastest configuration under a budget.

Run:  python examples/cost_planner.py
"""

from __future__ import annotations

from repro.bench.experiments import run_figure3

APP = "pagerank"
DEADLINE_S = 900.0
BUDGET = 5.00

#: The lab owns 16 dedicated cores; anything beyond queues behind other
#: users. The paper's Section I cites a wait:execution ratio near 4 on
#: Jaguar (2007) — we charge a flat queue wait when a configuration needs
#: the shared half of the campus cluster.
DEDICATED_LOCAL_CORES = 16
QUEUE_WAIT_S = 1800.0


def main() -> None:
    print(f"Planning a {APP} run: deadline {DEADLINE_S:.0f}s, "
          f"cloud budget ${BUDGET:.2f}")
    print(f"(only {DEDICATED_LOCAL_CORES} local cores are dedicated; using "
          f"more queues ~{QUEUE_WAIT_S:.0f}s behind other users)")
    print()
    run = run_figure3(APP)

    options = []
    for env, cost in run.bills().items():
        wait = (
            QUEUE_WAIT_S
            if run.configs[env].compute.local_cores > DEDICATED_LOCAL_CORES
            else 0.0
        )
        options.append((env, run.reports[env].makespan + wait, cost))

    print(f"{'env':>10s} {'completion':>10s} {'cloud bill':>10s} {'total':>8s}")
    for env, completion, cost in options:
        print(f"{env:>10s} {completion:9.1f}s ${cost.cloud_total:8.2f} "
              f"${cost.total:7.2f}")
    print()

    feasible = [(env, t, c) for env, t, c in options if t <= DEADLINE_S]
    if feasible:
        env, t, c = min(feasible, key=lambda o: o[2].total)
        print(f"Cheapest config meeting the {DEADLINE_S:.0f}s deadline: "
              f"{env} ({t:.0f}s, ${c.total:.2f})")
    else:
        print(f"No configuration meets the {DEADLINE_S:.0f}s deadline.")

    affordable = [(env, t, c) for env, t, c in options
                  if c.cloud_total <= BUDGET]
    if affordable:
        env, t, c = min(affordable, key=lambda o: o[1])
        print(f"Fastest config under the ${BUDGET:.2f} cloud budget: "
              f"{env} ({t:.0f}s, cloud bill ${c.cloud_total:.2f})")
    else:
        print(f"Nothing fits a ${BUDGET:.2f} cloud budget except env-local.")
    print()
    print(
        "The planner captures the paper's economics: the campus alone is "
        "free but queue-bound; all-cloud is fastest to *start* but "
        "priciest; the balanced hybrid buys most of the speed for half "
        "the EC2 bill — unless skew adds S3-egress charges."
    )


if __name__ == "__main__":
    main()
