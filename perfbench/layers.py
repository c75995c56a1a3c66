"""Traced decompositions of the program's public paths.

Each function performs, in order, the public calls that one public
entry point makes, with a span around each layer. Worker-only: needs
``src/`` on the path.
"""

from __future__ import annotations

from repro import Experiment
from repro.core import MemoryConsciousCollectiveIO
from repro.core.plans import CollectivePlan
from repro.mpi.requests import flatten_requests

from common import Tracer


def build_plan(strategy: MemoryConsciousCollectiveIO, ctx, flat) -> CollectivePlan:
    """``strategy.build_plan`` from already-flattened columns."""
    plan = CollectivePlan.from_tuple(strategy.plan_flat(ctx, flat))
    plan.msg_ind = strategy.config.msg_ind
    plan.mem_min = strategy.config.mem_min
    pool = ctx.machine.remote_pool
    plan.pool_capacity = pool.capacity if pool is not None else 0
    return plan


def plan_and_count(tracer: Tracer, strategy, ctx, requests) -> CollectivePlan:
    """Flatten + plan under spans, recording the planner's counts."""
    with tracer.span("mpi.flatten"):
        flat = flatten_requests(requests)
    with tracer.span("core.plan"):
        plan = build_plan(strategy, ctx, flat)
    tracer.count("mpi.extents", len(flat.offsets))
    tracer.count("core.domains", plan.n_domains)
    tracer.count("core.groups", len(plan.group_sizes))
    tracer.count("core.remerges", plan.stats.n_remerges)
    return plan


def experiment_plan(exp: Experiment, tracer: Tracer) -> CollectivePlan:
    """``Experiment.plan()``, layer by layer."""
    with tracer.span("api.resolve"):
        machine = exp.resolve_machine()
        strategy = exp.resolve_strategy(machine)
    with tracer.span("io.context"):
        ctx = exp.context()
    with tracer.span("workloads.requests"):
        requests = exp.requests()
    plan = plan_and_count(tracer, strategy, ctx, requests)
    with tracer.span("api.spec_hash"):
        plan.spec_hash = exp.spec_hash()
    if exp.strategy == "auto":
        with tracer.span("api.resolve"):
            plan.auto_choice = exp.auto_choice().provenance()
    return plan
