"""Negative self-tests: each output check must reject a broken output.

    python3 perfbench/selftest.py

On a small experiment (16-rank IOR on an 8-node testbed) it produces a
real campaign record, plan and served plan, shows that each passes its
check, then breaks each one and shows that the check fails:

* a campaign record with the wrong byte count;
* a plan with one domain dropped;
* a served plan whose spec hash does not match the client's, and a hit
  that serves a different plan than the verified one.

Exits 0 when every check guards, 1 otherwise.
"""

from __future__ import annotations

import copy
import dataclasses
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT, SRC, CheckFailed  # noqa: E402

sys.path.insert(0, str(SRC))

from repro import Campaign, Experiment, PlanClient, mib  # noqa: E402
from repro.io.domains import aggregate_access  # noqa: E402

from checks import check_plan, check_record, check_served  # noqa: E402

N_PROCS = 16
BLOCK = mib(4)


def expect(name: str, guarded: bool, failures: list[str]) -> None:
    print(f"{'ok  ' if guarded else 'FAIL'} {name}")
    if not guarded:
        failures.append(name)


def rejects(fn, *args) -> bool:
    try:
        fn(*args)
    except CheckFailed:
        return True
    return False


def main() -> int:
    failures: list[str] = []
    exp = Experiment(
        machine="testbed-8", workload="ior", strategy="mc", n_procs=N_PROCS,
        procs_per_node=2, cb_buffer=mib(1), memory_variance_mean=mib(2),
        workload_params={"block_size": BLOCK, "transfer_size": mib(1)}, seed=5,
    )
    total = N_PROCS * BLOCK
    key = exp.spec_hash()

    record = Campaign([exp]).run().records[0]
    check_record(record, total)
    wrong = copy.deepcopy(record)
    wrong["result"]["nbytes"] += 1
    expect("record with the wrong byte count is rejected",
           rejects(check_record, wrong, total), failures)

    plan = exp.plan()
    extents = aggregate_access(exp.requests())
    check_plan(plan, key, extents, total, exp.label())
    dropped = dataclasses.replace(plan, domains=plan.domains[:-1])
    expect("plan with a domain dropped is rejected",
           rejects(check_plan, dropped, key, extents, total, exp.label()), failures)

    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT))
    try:
        client = PlanClient(cache_dir=str(tmp))
        served = client.plan(exp)
        digest = check_served(served, key, "miss", None, extents, exp.label())
        other = exp.replace(seed=6).spec_hash()
        relabelled = dataclasses.replace(served, plan={**served.plan, "spec_hash": other})
        expect("served plan stamped with another spec hash is rejected",
               rejects(check_served, relabelled, key, "miss", None, extents, exp.label()), failures)
        swapped = dataclasses.replace(
            served, spec_hash=other, plan={**served.plan, "spec_hash": other})
        expect("served plan for another spec is rejected",
               rejects(check_served, swapped, key, "miss", None, extents, exp.label()), failures)
        hit = client.plan(exp)
        check_served(hit, key, "hit", digest, extents, exp.label())
        changed = dataclasses.replace(
            hit, plan={**hit.plan, "domains": hit.plan["domains"][:-1]})
        expect("hit serving a different plan is rejected",
               rejects(check_served, changed, key, "hit", digest, extents, exp.label()), failures)
        expect("first sighting of a plan with a domain dropped is rejected",
               rejects(check_served, changed, key, "hit", None, extents, exp.label()), failures)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
