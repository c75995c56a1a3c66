"""``sweep-ior-120``: the Fig-7 memory sweep through ``Campaign.run``.

120-rank interleaved IOR (32 MiB blocks, 2 MiB transfers) on the
640-node testbed; memory 2, 32 and 128 MiB; strategies two-phase, mc
and auto; write and read. ``mc``/``auto`` see per-node memory drawn
from Normal(mem, 50 MiB); the benchmark seed generates one draw seed
per (kind, memory) pair. One op is one grid point run as a one-point campaign (one
worker, no plan cache); every point reuses one workload object.
"""

from __future__ import annotations

import time

import numpy as np

from repro import Campaign, Experiment, auto_tune, mib
from repro.analysis.selection import StrategyChoice
from repro.api import resolve_machine
from repro.core import MemoryConsciousCollectiveIO
from repro.core.plans import plan_to_dict
from repro.io.domains import aggregate_access
from repro.metrics.export import result_to_dict
from repro.workloads import IORWorkload

from checks import check_plan, check_record
from common import Tracer, check, peak_rss_mib, plan_digest
from layers import plan_and_count

N_PROCS = 120
PROCS_PER_NODE = 12
BLOCK = mib(32)
TRANSFER = mib(2)
#: Fig-7's low end (mc wins), the point where the cost model picks mc
#: though two-phase simulates faster, and the high end
MEMORY_MIB = (2, 32, 128)
STRATEGIES = ("two-phase", "mc", "auto")
KINDS = ("write", "read")
VARIANCE_STD = mib(50)


def annotate_auto(result, choice: StrategyChoice) -> None:
    """The auto-pick annotation ``Experiment.run`` adds to a result."""
    result.extras["auto_strategy"] = choice.chosen
    result.extras["auto_prices"] = {
        name: float(price) for name, price in sorted(choice.prices.items())
    }
    if result.telemetry is not None:
        result.telemetry.count(f"auto_pick_{choice.chosen}")
        for name, price in sorted(choice.prices.items()):
            result.telemetry.count(f"auto_price_us_{name}", price * 1e6)


class Bench:
    def __init__(self, seed: int, tmp, *, traced: bool) -> None:
        self.seed = seed
        self.traced = traced
        self.parity_ops = 0
        self.points: dict[tuple, tuple] = {}
        self.plan_digests: dict[tuple, str] = {}
        self.sim_bytes = 0
        self.sim_s = 0.0
        self.extents = None
        self.point_walls: list[float] = []
        self._last_dt = 0.0

    # ------------------------------------------------------------ set-up
    def setup(self) -> None:
        machine = resolve_machine("testbed")
        config = auto_tune(machine).as_config()
        workload = IORWorkload(N_PROCS, block_size=BLOCK, transfer_size=TRANSFER)
        rng = np.random.default_rng(self.seed)
        # One memory draw per (kind, memory) pair, shared by its three
        # strategies so auto can be compared with the point it picks.
        draws = {(kind, mem): int(rng.integers(1, 2**31 - 1)) for kind in KINDS for mem in MEMORY_MIB}
        self.grid = [
            Experiment(
                machine=machine,
                workload=workload,
                strategy=strategy,
                n_procs=N_PROCS,
                procs_per_node=PROCS_PER_NODE,
                seed=draws[kind, mem],
                kind=kind,
                cb_buffer=mib(mem),
                memory_variance_mean=None if strategy == "two-phase" else mib(mem),
                memory_variance_std=VARIANCE_STD,
                config=config,
                file_name="bench",
            )
            for kind in KINDS
            for mem in MEMORY_MIB
            for strategy in STRATEGIES
        ]

    def ops(self, cycle: int) -> list[Experiment]:
        return self.grid

    @staticmethod
    def key(exp: Experiment) -> tuple:
        return exp.strategy, exp.cb_buffer, exp.kind

    # ---------------------------------------------------------- timed op
    def run(self, exp: Experiment) -> tuple[tuple[str, ...], float, float]:
        c0 = time.process_time()
        t0 = time.perf_counter()
        outcome = Campaign([exp]).run()
        dt = time.perf_counter() - t0
        cpu = time.process_time() - c0
        self._last_dt = dt
        record = outcome.records[0]
        del outcome
        facts = self._facts(exp, record)
        self.point_walls.append(record["wall_s"])
        del record
        self.sim_bytes += facts[1]
        self.sim_s += facts[0]
        key = self.key(exp)
        if key in self.points:
            check(self.points[key] == facts, f"{exp.label()}: re-run gave {facts}, first run {self.points[key]}")
        self.points[key] = facts
        if exp.strategy == "two-phase":
            return ("op",), cpu, dt
        self._check_plan(exp, facts[1])
        return ("op", "miss"), cpu, dt

    @staticmethod
    def _facts(exp: Experiment, record: dict) -> tuple:
        """Checked record -> (simulated s, bytes, strategy run, rounds)."""
        check_record(record, N_PROCS * BLOCK)
        result = record["result"]
        chosen = result["extras"].get("auto_strategy") if exp.strategy == "auto" else exp.strategy
        return result["elapsed_s"], result["nbytes"], chosen, result["n_rounds"]

    def _check_plan(self, exp: Experiment, nbytes: int) -> None:
        if self.extents is None:
            self.extents = aggregate_access(exp.requests())
        plan = exp.plan()
        check_plan(plan, exp.spec_hash(), self.extents, nbytes, exp.label())
        if self.traced:
            self.plan_digests[self.key(exp)] = plan_digest(plan_to_dict(plan))

    # ------------------------------------------------------- whole run
    def finish(self) -> dict:
        """Whole-grid checks over the points whose op did not fail."""
        for exp in self.grid:
            if exp.strategy != "auto" or self.key(exp) not in self.points:
                continue
            elapsed, _, chosen, _ = self.points[self.key(exp)]
            twin = exp.replace(strategy=chosen)
            if chosen == "two-phase":
                # The grid's two-phase points run without the memory
                # draw; the twin of an auto pick keeps it.
                twin_elapsed = twin.run().elapsed
            elif self.key(twin) in self.points:
                twin_elapsed = self.points[self.key(twin)][0]
            else:
                continue
            check(elapsed == twin_elapsed,
                  f"{exp.label()}: elapsed {elapsed} != {chosen} twin {twin_elapsed}")
        for kind in KINDS:
            mc = self.points.get(("mc", mib(MEMORY_MIB[0]), kind))
            base = self.points.get(("two-phase", mib(MEMORY_MIB[0]), kind))
            if mc is not None and base is not None:
                check(mc[0] < base[0],
                      f"mc does not beat two-phase at {MEMORY_MIB[0]} MiB {kind}: {mc[0]} vs {base[0]} s")
        # One point again, untimed: a sweep point must repeat exactly.
        again = self.grid[-1]
        if self.key(again) in self.points:
            facts = self._facts(again, Campaign([again]).run().records[0])
            check(facts == self.points[self.key(again)],
                  f"{again.label()}: re-run gave {facts}, first run {self.points[self.key(again)]}")
        return {
            "sim_bandwidth_mibps": self.sim_bytes / self.sim_s / mib(1),
            "peak_rss_mib": peak_rss_mib(),
        }

    # ----------------------------------------------------------- traced
    def trace(self, exp: Experiment, tracer: Tracer) -> float:
        """``run_experiment_record`` without a cache, layer by layer."""
        plan = None
        with tracer.operation("campaign.point"):
            exp.label()
            with tracer.span("api.spec_hash"):
                key = exp.spec_hash()
            with tracer.span("api.resolve"):
                machine = exp.resolve_machine()
                strategy = exp.resolve_strategy(machine)
            with tracer.span("io.context"):
                ctx = exp.context()
                file = ctx.pfs.open(exp.file_name)
            with tracer.span("workloads.requests"):
                requests = exp.requests()
            if isinstance(strategy, MemoryConsciousCollectiveIO):
                plan = plan_and_count(tracer, strategy, ctx, requests)
                with tracer.span("io.execute"):
                    result = strategy.run(ctx, file, requests, kind=exp.kind, plan=plan)
            else:
                with tracer.span("io.execute"):
                    result = strategy.run(ctx, file, requests, kind=exp.kind)
            choice = None
            if exp.strategy == "auto":
                with tracer.span("api.resolve"):
                    choice = exp.auto_choice()
                annotate_auto(result, choice)
            with tracer.span("metrics.encode"):
                result_to_dict(result)
        tracer.count("io.rounds", result.n_rounds)
        first = self.points[self.key(exp)]
        check(result.elapsed == first[0],
              f"{exp.label()}: traced elapsed {result.elapsed} != untraced {first[0]}")
        if plan is not None:
            plan.spec_hash = key
            if choice is not None:
                plan.auto_choice = choice.provenance()
            check(plan_digest(plan_to_dict(plan)) == self.plan_digests[self.key(exp)],
                  f"{exp.label()}: traced plan differs from Experiment.plan()")
        self.parity_ops += 1
        return self._last_dt

    def layer_extras(self, tracer: Tracer) -> dict[str, float]:
        walls = self.point_walls
        return {"campaign.point_ms": 1e3 * sum(walls) / max(len(walls), 1)}

    def helper_cpu_s(self) -> float:
        return 0.0

    def close(self) -> None:
        pass
