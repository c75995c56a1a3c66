"""``serve-mixed``: one ``PlanClient`` against a ``repro serve`` daemon.

The daemon listens on a unix socket, keeps an 8-shard verified plan
cache and plans in one worker process. Set-up starts it and warms a
fixed set of eight 120-960-rank specs. The timed stream is a closed
loop of cycles of 50 requests: 47 ask for warm specs in Zipf(1)
proportions (verified cache hits; every cycle holds the same 47), 3
ask for a spec never seen before (a 480-rank IOR with a fresh seed:
plan + put). The benchmark seed draws the request order, the miss
positions and the fresh seeds.

An op's CPU time is the client's plus that of every thread of the
daemon and its planning worker over the round trip.
"""

from __future__ import annotations

import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro import Experiment, PlanClient, mib, verify_plan
from repro.io.domains import aggregate_access
from repro.analysis.model import price_domains
from repro.api import resolve_machine
from repro.core.plans import canonical_json, plan_from_dict, plan_to_dict
from repro.serve import ShardedPlanCache
from repro.serve.protocol import PlanRequest, experiment_from_fields

from checks import check_plan_dict, check_served
from common import (
    ROOT, CheckFailed, Tracer, check, child_env, cpu_s, descendants, peak_rss_mib, plan_digest,
)
from layers import experiment_plan

PROCS_PER_NODE = 12
MEMORY_MEAN = mib(16)
WARM_SEED = 3
#: (workload, ranks, params), most popular first
WARM_SPECS = (
    ("ior", 480, {"block_size": mib(4)}),
    ("nested-strided", 960, {}),
    ("ior", 120, {}),
    ("hotspot", 480, {}),
    ("ior-segmented", 960, {"block_size": mib(2)}),
    ("ior", 960, {"block_size": mib(2)}),
    ("nested-strided", 240, {}),
    ("ior", 240, {"block_size": mib(8)}),
)
MISS_SPEC = ("ior", 480, {"block_size": mib(4)})
CYCLE = 50
MISSES_PER_CYCLE = 3
ZIPF_S = 1.0
SHARDS = 8


def zipf_counts(total: int, n: int, s: float) -> list[int]:
    """``total`` requests over ``n`` specs in Zipf(s) proportions,
    rounded by largest remainder."""
    weights = [1.0 / (k + 1) ** s for k in range(n)]
    quotas = [total * w / sum(weights) for w in weights]
    counts = [int(q) for q in quotas]
    by_remainder = sorted(range(n), key=lambda k: counts[k] - quotas[k])
    for k in by_remainder[: total - sum(counts)]:
        counts[k] += 1
    return counts


HIT_COUNTS = zipf_counts(CYCLE - MISSES_PER_CYCLE, len(WARM_SPECS), ZIPF_S)


def experiment(spec: tuple, seed: int) -> Experiment:
    workload, n, params = spec
    return Experiment(
        machine="testbed",
        workload=workload,
        strategy="mc",
        n_procs=n,
        procs_per_node=PROCS_PER_NODE,
        seed=seed,
        memory_variance_mean=MEMORY_MEAN,
        workload_params=params,
    )


class Bench:
    def __init__(self, seed: int, tmp: Path, *, traced: bool) -> None:
        self.seed = seed
        self.tmp = tmp
        self.traced = traced
        self.parity_ops = 0
        self.daemon: subprocess.Popen | None = None
        self.helpers: list[int] = []
        self.client: PlanClient | None = None
        self.seen: set = set()
        self.hashes: dict = {}
        self.digests: dict = {}
        self.prices: dict = {}
        self.warm_plans: dict = {}
        self.stream_hits = 0
        self.stream_misses = 0
        self.server_s: dict[str, list[float]] = {"hit": [], "miss": []}
        self.wire_s: list[float] = []
        self.sim_bytes = 0
        self.sim_s = 0.0
        self._last_server_s = 0.0

    # ------------------------------------------------------------ set-up
    def setup(self) -> None:
        self.tmp.mkdir(parents=True, exist_ok=True)
        # Relative paths keep the socket path short whatever the checkout.
        sock = os.path.relpath(self.tmp / "s.sock", ROOT)
        cache = os.path.relpath(self.tmp / "cache", ROOT)
        self._log = open(self.tmp / "daemon.log", "w")
        self.daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--no-tcp", "--unix-socket", sock,
             "--cache-dir", cache, "--shards", str(SHARDS), "--pool", "process",
             "--pool-workers", "1"],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=self._log,
            text=True, start_new_session=True,
        )
        line = self.daemon.stdout.readline()
        check("listening" in line, f"daemon did not start: {line!r}")
        self.client = PlanClient(unix_socket=sock, fallback=False, timeout=120.0)
        self.machine = resolve_machine("testbed")
        self.warm = [experiment(spec, WARM_SEED) for spec in WARM_SPECS]
        for i, exp in enumerate(self.warm):
            response = self.client.plan(exp)
            check(response.cache_state == "miss", f"warm-up of {exp.label()} was {response.cache_state}")
            self.warm_plans[("warm", i)] = response.plan
            self._price(("warm", i), exp, response.plan)
        # The daemon and the planning worker the warm-up started.
        self.helpers = descendants(self.daemon.pid)
        rng = np.random.default_rng(self.seed)
        self.rng = rng
        self.miss_seeds = iter(int(s) for s in rng.choice(2**30, size=4096, replace=False) + 1000)
        if self.traced:
            self.mirror = ShardedPlanCache(self.tmp / "mirror", shards=SHARDS)
            for i, exp in enumerate(self.warm):
                self._replay(exp, Tracer())

    def ops(self, cycle: int) -> list[tuple]:
        misses = set(self.rng.choice(CYCLE, size=MISSES_PER_CYCLE, replace=False).tolist())
        picks = iter(self.rng.permutation(np.repeat(np.arange(len(WARM_SPECS)), HIT_COUNTS)))
        ops = []
        for pos in range(CYCLE):
            if pos in misses:
                seed = next(self.miss_seeds)
                ops.append((("miss", seed), experiment(MISS_SPEC, seed)))
            else:
                i = int(next(picks))
                ops.append((("warm", i), self.warm[i]))
        return ops

    # ---------------------------------------------------------- timed op
    def run(self, op: tuple) -> tuple[tuple[str, ...], float, float]:
        key_id, exp = op
        helpers0 = cpu_s(self.helpers)
        c0 = time.process_time()
        t0 = time.perf_counter()
        response = self.client.plan(exp)
        dt = time.perf_counter() - t0
        client = time.process_time() - c0
        cpu = client + cpu_s(self.helpers) - helpers0
        hit = key_id in self.seen
        state = "hit" if hit else "miss"
        key = self._client_hash(key_id, exp)
        if hit:
            check_served(response, key, state, self.digests[key_id], None, exp.label())
            self.stream_hits += 1
        else:
            extents = aggregate_access(exp.requests())
            check_served(response, key, state, None, extents, exp.label())
            self._price(key_id, exp, response.plan)
            self.stream_misses += 1
        bytes_, secs = self.prices[key_id]
        self.sim_bytes += bytes_
        self.sim_s += secs
        self.server_s[state].append(response.server_wall_s)
        self._last_server_s = response.server_wall_s
        if hit:
            self.wire_s.append(dt - response.server_wall_s)
        return (("op",) if hit else ("miss",)), cpu, dt

    def _client_hash(self, key_id, exp: Experiment) -> str:
        if key_id not in self.hashes:
            self.hashes[key_id] = exp.spec_hash()
        return self.hashes[key_id]

    def _price(self, key_id, exp: Experiment, plan: dict) -> None:
        """First sighting of a plan: remember its digest and price it."""
        price = price_domains(
            self.machine, plan_from_dict(plan).domains,
            n_nodes=math.ceil(exp.n_procs / PROCS_PER_NODE),
        )
        self.prices[key_id] = (price.total_bytes, price.elapsed_s)
        self.digests[key_id] = plan_digest(plan)
        self.seen.add(key_id)

    # ------------------------------------------------------- whole run
    def finish(self) -> dict:
        for (kind, i), plan in self.warm_plans.items():
            exp = self.warm[i]
            extents = aggregate_access(exp.requests())
            check_plan_dict(plan, self._client_hash((kind, i), exp), extents, exp.label())
        counters = self.client.server_metrics()["counters"]
        expected = {
            "hits": self.stream_hits,
            "misses": len(WARM_SPECS) + self.stream_misses,
            "planning_jobs": len(WARM_SPECS) + self.stream_misses,
            "rejects": 0,
            "overloads": 0,
        }
        for name, want in expected.items():
            got = int(counters.get(name, 0))
            check(got == want, f"daemon counter {name}={got}, schedule predicts {want}")
        tree = descendants(self.daemon.pid)
        check(tree == self.helpers,
              f"daemon process tree changed from {self.helpers} to {tree}: op CPU times miss a process")
        return {
            "sim_bandwidth_mibps": self.sim_bytes / self.sim_s / mib(1),
            "peak_rss_mib": peak_rss_mib(self.daemon.pid),
        }

    # ----------------------------------------------------------- traced
    def _replay(self, exp: Experiment, tracer: Tracer) -> dict:
        """The service's pipeline for one request, in process."""
        with tracer.operation("serve.request"):
            request = PlanRequest.from_experiment(exp)
            with tracer.span("api.spec_hash"):
                key = request.spec_hash()
            with tracer.span("serve.cache_get"):
                plan = self.mirror.shard(key).load_raw(key)
            if plan is not None:
                with tracer.span("analysis.verify"):
                    report = verify_plan(plan, expected_spec_hash=key, subject=key)
                check(report.ok, f"{exp.label()}: cached plan fails verification")
                tracer.count("serve.hits", 1)
            else:
                with tracer.span("serve.plan_payload"):
                    built = experiment_plan(experiment_from_fields(request.experiment), tracer)
                    with tracer.span("core.plan_encode"):
                        data = plan_to_dict(built)
                    plan = json.loads(canonical_json(data))
                with tracer.span("serve.cache_put"):
                    self.mirror.put(key, plan)
                tracer.count("serve.misses", 1)
                tracer.count("serve.planning_jobs", 1)
        return plan

    def trace(self, op: tuple, tracer: Tracer) -> float:
        key_id, exp = op
        plan = self._replay(exp, tracer)
        check(plan_digest(plan) == self.digests[key_id],
              f"{exp.label()}: in-process replay differs from the served plan")
        self.parity_ops += 1
        return self._last_server_s

    def layer_extras(self, tracer: Tracer) -> dict[str, float]:
        def mean_ms(values: list[float]) -> float:
            return 1e3 * sum(values) / len(values) if values else 0.0

        return {
            "serve.hit_server_ms": mean_ms(self.server_s["hit"]),
            "serve.hit_wire_ms": mean_ms(self.wire_s),
            "serve.miss_server_ms": mean_ms(self.server_s["miss"]),
        }

    def helper_cpu_s(self) -> float:
        return cpu_s(self.helpers)

    # ----------------------------------------------------------- teardown
    def close(self) -> None:
        if self.client is not None:
            self.client.close()
        if self.daemon is None:
            return
        try:
            self.daemon.send_signal(signal.SIGINT)
            self.daemon.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(self.daemon.pid, signal.SIGKILL)
            self.daemon.wait()
            raise CheckFailed("daemon did not stop within 60 s of SIGINT") from None
        finally:
            self._log.close()
