"""``plan-shapes``: spec hash + plan + verify, no execution.

Each cycle is four ops, one per shape: interleaved IOR, ``coll_perf``,
``hotspot`` and ``nested-strided`` at roughly 1k-3k ranks on the
640-node testbed. Every op gets an experiment seed and a shape size this
process has not used before, so nothing memoized across ops can be
reused. Node memory is the testbed's own (no variance draw): a draw
flips hotspot plans between 1 and ~50 rounds, which would make the
priced bandwidth a lottery over seeds; ``sweep-ior-120`` covers the
memory-variance regime.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro import Experiment, kib, mib, verify_plan
from repro.analysis.model import price_domains
from repro.api import resolve_machine, resolve_strategy
from repro.core.plans import plan_to_dict
from repro.io.domains import aggregate_access
from repro.workloads.coll_perf import proc_grid

from checks import check_plan
from common import Tracer, check, peak_rss_mib, plan_digest
from layers import experiment_plan

PROCS_PER_NODE = 12
IOR_BLOCK = mib(2)
IOR_TRANSFER = kib(256)
NESTED_BLOCK = kib(64)  # the registry's defaults for nested-strided
NESTED_INNER = 4
NESTED_OUTER = 4
HOTSPOT_RANK_BYTES = mib(1)


def coll_perf_sizes() -> list[tuple[int, int]]:
    """(ranks, array edge) pairs near 1.2k ranks whose process grid
    divides the edge and whose extent count (edge^2 x grid[0]) lies in a
    narrow band, so every pick costs about the same."""
    sizes = []
    for n in range(900, 1500):
        grid = proc_grid(n, 3)
        for edge in range(96, 200):
            if all(edge % d == 0 for d in grid) and 130_000 <= edge * edge * grid[0] <= 180_000:
                sizes.append((n, edge))
    return sizes


def closed_form_bytes(workload: str, n: int, params: dict) -> int:
    """Bytes each shape touches, from its parameters alone."""
    if workload == "ior":
        return n * params["block_size"]
    if workload == "coll_perf":
        return params["array_edge"] ** 3 * 4  # 4-byte INT elements
    if workload == "hotspot":
        return n * HOTSPOT_RANK_BYTES
    if workload == "nested-strided":
        return n * NESTED_BLOCK * NESTED_INNER * NESTED_OUTER
    raise ValueError(workload)


class Bench:
    def __init__(self, seed: int, tmp, *, traced: bool) -> None:
        self.seed = seed
        self.traced = traced
        self.parity_ops = 0
        self.sim_bytes = 0
        self.sim_s = 0.0
        self._digest = ""
        self._last_dt = 0.0

    def setup(self) -> None:
        self.machine = resolve_machine("testbed")
        resolve_strategy("mc", self.machine)  # auto-tunes the testbed once
        rng = np.random.default_rng(self.seed)
        coll = coll_perf_sizes()
        self.exp_seeds = iter(int(s) for s in rng.choice(2**30, size=4096, replace=False) + 1000)
        self.sizes = {
            "ior": [int(n) for n in rng.permutation(np.arange(2000, 2600, 12))],
            "coll_perf": [coll[i] for i in rng.permutation(len(coll))],
            "hotspot": [int(n) for n in rng.permutation(np.arange(1000, 1400, 4))],
            "nested-strided": [int(n) for n in rng.permutation(np.arange(2000, 2600, 6))],
        }

    def _experiment(self, workload: str, cycle: int) -> Experiment:
        sizes = self.sizes[workload]
        size = sizes[cycle % len(sizes)]
        if workload == "coll_perf":
            n, params = size[0], {"array_edge": size[1]}
        elif workload == "ior":
            n, params = size, {"block_size": IOR_BLOCK, "transfer_size": IOR_TRANSFER}
        elif workload == "hotspot":
            n, params = size, {"total_bytes": size * HOTSPOT_RANK_BYTES}
        else:
            n, params = size, {}
        return Experiment(
            machine="testbed",
            workload=workload,
            strategy="mc",
            n_procs=n,
            procs_per_node=PROCS_PER_NODE,
            seed=next(self.exp_seeds),
            workload_params=params,
        )

    def ops(self, cycle: int) -> list[Experiment]:
        return [
            self._experiment(workload, cycle)
            for workload in ("ior", "coll_perf", "hotspot", "nested-strided")
        ]

    def run(self, exp: Experiment) -> tuple[tuple[str, ...], float, float]:
        c0 = time.process_time()
        t0 = time.perf_counter()
        key = exp.spec_hash()
        plan = exp.plan()
        report = verify_plan(plan, expected_spec_hash=key)
        dt = time.perf_counter() - t0
        cpu = time.process_time() - c0
        self._last_dt = dt
        label = exp.label()
        check(report.ok, f"{label}: plan fails verification {report.by_rule()}")
        check(plan.spec_hash == key, f"{label}: plan stamped {plan.spec_hash[:12]}, spec {key[:12]}")
        expected = closed_form_bytes(exp.workload, exp.n_procs, dict(exp.workload_params))
        check_plan(plan, key, aggregate_access(exp.requests()), expected, label)
        price = price_domains(
            self.machine, plan.domains, n_nodes=math.ceil(exp.n_procs / PROCS_PER_NODE)
        )
        self.sim_bytes += price.total_bytes
        self.sim_s += price.elapsed_s
        if self.traced:
            self._digest = plan_digest(plan_to_dict(plan))
        return ("op", "miss"), cpu, dt

    def finish(self) -> dict:
        return {
            "sim_bandwidth_mibps": self.sim_bytes / self.sim_s / mib(1),
            "peak_rss_mib": peak_rss_mib(),
        }

    def trace(self, exp: Experiment, tracer: Tracer) -> float:
        with tracer.operation("plan.op"):
            with tracer.span("api.spec_hash"):
                key = exp.spec_hash()
            plan = experiment_plan(exp, tracer)
            with tracer.span("core.plan_encode"):
                data = plan_to_dict(plan)
            with tracer.span("analysis.verify"):
                report = verify_plan(data, expected_spec_hash=key)
        check(report.ok, f"{exp.label()}: traced plan fails verification")
        check(plan_digest(data) == self._digest,
              f"{exp.label()}: traced plan differs from Experiment.plan()")
        self.parity_ops += 1
        return self._last_dt

    def layer_extras(self, tracer: Tracer) -> dict[str, float]:
        return {}

    def helper_cpu_s(self) -> float:
        return 0.0

    def close(self) -> None:
        pass
