"""Output checks shared by the workloads and by ``selftest.py``.

Each raises :class:`common.CheckFailed` on a wrong output. Worker-only:
needs ``src/`` on the path.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro import verify_plan
from repro.core.plans import CollectivePlan

from common import check, plan_digest


def check_record(record: Mapping, expected_bytes: int) -> None:
    """A campaign record moved exactly the workload's bytes, and its
    telemetry accounts for every one of them."""
    label = record.get("label", "?")
    if record["status"] != "ok":
        raise RuntimeError(f"{label}: {record['error']}")
    result = record["result"]
    check(result["nbytes"] == expected_bytes,
          f"{label}: moved {result['nbytes']} bytes, expected {expected_bytes}")
    io_bytes = sum(r["io_bytes"] for r in result["telemetry"]["rounds"])
    check(io_bytes == result["nbytes"],
          f"{label}: telemetry I/O bytes {io_bytes} != result bytes {result['nbytes']}")


def check_plan(plan: CollectivePlan, key: str, extents, expected_bytes: int, label: str) -> None:
    """A plan passes the verifier with byte conservation against the
    workload's extents (PV110) and the spec hash (PV111), and its
    domains cover exactly ``expected_bytes``."""
    report = verify_plan(plan, expected_spec_hash=key, workload_extents=extents)
    check(report.ok, f"{label}: plan fails verification {report.by_rule()}")
    covered = sum(d.covered_bytes for d in plan.domains)
    check(covered == expected_bytes, f"{label}: plan covers {covered} bytes, expected {expected_bytes}")


def check_plan_dict(plan: Mapping, key: str, extents, label: str) -> None:
    """A served plan dict carries ``key`` and passes the verifier with
    byte conservation against the spec's ``extents``."""
    check(plan.get("spec_hash") == key,
          f"{label}: plan stamped {str(plan.get('spec_hash'))[:12]}, client hash {key[:12]}")
    report = verify_plan(plan, expected_spec_hash=key, workload_extents=extents)
    check(report.ok, f"{label}: served plan fails verification {report.by_rule()}")


def check_served(
    response, key: str, state: str, digest: str | None, extents, label: str
) -> str:
    """A served plan is in the state the schedule predicts, carries the
    client's spec hash, and is either the plan already verified for that
    spec (``digest``) or passes :func:`check_plan_dict` itself. Returns
    its digest."""
    check(response.cache_state == state,
          f"{label}: served {response.cache_state}, schedule says {state}")
    check(response.spec_hash == key,
          f"{label}: response hash {response.spec_hash[:12]} != client {key[:12]}")
    served = plan_digest(response.plan)
    if digest is not None:
        check(served == digest, f"{label}: served a different plan than the verified one")
    else:
        check_plan_dict(response.plan, key, extents, label)
    return served
