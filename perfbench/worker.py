"""One workload in one fresh interpreter (started by ``run.py``).

Modes:

* ``probe`` — set the workload up, report the set-up time, tear down;
* ``measure`` — set up, then run whole cycles of the workload's op list
  with tracing off until the ops have taken ``--seconds`` of wall time,
  check every output, and report the end-to-end figures;
* ``trace`` — as ``measure``, but every op is followed by the same op
  decomposed into its public calls under a span recorder; reports the
  per-layer figures, the parity of the two paths and the overhead.

Set-up and ops are timed in CPU seconds of every process doing the
work (this one, and for ``serve-mixed`` the daemon and its planning
worker), which leaves out the time the host takes the virtual CPUs
away. The worker also times a fixed reference job (``yardstick_s``)
three times after set-up and between ops (at most every half second),
so that ``run.py`` can scale the times to a reference host speed. Wall times
are reported alongside as diagnostics. The result is one JSON object
on the last line of stdout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT, SRC, YARDSTICK_EVERY_S, CheckFailed, Tracer, yardstick_s  # noqa: E402

RESULTS = ROOT / "perfbench" / "results"

MODULES = {
    "sweep-ior-120": "wl_sweep",
    "plan-shapes": "wl_shapes",
    "serve-mixed": "wl_serve",
}

#: per-layer metric -> span name whose self time it reports
SPAN_METRICS = {
    "api.spec_hash_ms": "api.spec_hash",
    "api.resolve_ms": "api.resolve",
    "workloads.requests_ms": "workloads.requests",
    "mpi.flatten_ms": "mpi.flatten",
    "io.context_ms": "io.context",
    "core.plan_ms": "core.plan",
    "core.plan_encode_ms": "core.plan_encode",
    "analysis.verify_ms": "analysis.verify",
    "io.execute_ms": "io.execute",
    "metrics.encode_ms": "metrics.encode",
    "serve.cache_get_ms": "serve.cache_get",
    "serve.plan_payload_ms": "serve.plan_payload",
    "serve.cache_put_ms": "serve.cache_put",
}
#: per-layer counts, mean per op (filled by the workloads' traced ops)
COUNT_METRICS = (
    "mpi.extents", "core.domains", "core.groups", "core.remerges",
    "io.rounds", "serve.hits", "serve.misses", "serve.planning_jobs",
)
#: figures only some workloads produce (0 elsewhere), in ms
EXTRA_MS_METRICS = (
    "campaign.point_ms", "serve.hit_server_ms", "serve.hit_wire_ms",
    "serve.miss_server_ms",
)


def _layer_metrics(tracer: Tracer, extras: dict[str, float]) -> dict[str, dict]:
    n = max(tracer.n_ops, 1)
    selfs = tracer.self_times()
    out: dict[str, dict] = {}
    for metric, span in SPAN_METRICS.items():
        out[metric] = {"value": 1e3 * selfs.get(span, 0.0) / n, "unit": "ms"}
    for metric in EXTRA_MS_METRICS:
        out[metric] = {"value": extras.get(metric, 0.0), "unit": "ms"}
    out["python.gc_ms"] = {"value": 1e3 * tracer.gc_s / n, "unit": "ms"}
    for metric in COUNT_METRICS:
        out[metric] = {"value": tracer.counts.get(metric, 0.0) / n, "unit": "count"}
    out["python.gc_collections"] = {"value": tracer.gc_n / n, "unit": "count"}
    return out


def _self_time_table(tracer: Tracer) -> list[str]:
    n = max(tracer.n_ops, 1)
    rows = sorted(tracer.self_times().items(), key=lambda kv: -kv[1])
    return [f"  {name:<22} {1e3 * s / n:10.3f} ms/op self" for name, s in rows]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(MODULES))
    parser.add_argument("--mode", required=True, choices=["probe", "measure", "trace"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="parent's time.monotonic() just before the spawn")
    parser.add_argument("--tmp", required=True, help="scratch directory")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    module = importlib.import_module(MODULES[args.workload])
    traced = args.mode == "trace"
    bench = module.Bench(args.seed, Path(args.tmp), traced=traced)
    out: dict = {}
    try:
        bench.setup()
        out["setup_wall_s"] = time.monotonic() - args.spawned_at
        out["setup_s"] = time.process_time() + bench.helper_cpu_s()
        out["setup_yardsticks"] = [yardstick_s() for _ in range(3)]
        if args.mode != "probe":
            spans = RESULTS / f"{args.workload}-seed{args.seed}.spans.json"
            out.update(_measure(bench, args.seconds, spans if traced else None))
    except CheckFailed as exc:
        out["check_failed"] = str(exc)
    finally:
        bench.close()
    print(json.dumps(out))
    return 0


def _measure(bench, seconds: float, spans: Path | None) -> dict:
    """Whole cycles of ops until they took ``seconds``; with ``spans``,
    each op is also traced and the spans are written there at the end."""
    traced = spans is not None
    tracer = Tracer() if traced else None
    samples: dict[str, list[float]] = defaultdict(list)
    walls: dict[str, list[float]] = defaultdict(list)
    attempted = failed = 0
    busy = busy_cpu = 0.0
    untraced_walls: list[float] = []
    yardsticks: list[float] = []
    wall0 = last_yardstick = time.perf_counter()
    cycle = 0
    while True:
        for op in bench.ops(cycle):
            attempted += 1
            try:
                classes, cpu, dt = bench.run(op)
            except CheckFailed:
                raise
            except Exception:  # noqa: BLE001 — a failed op is counted, not fatal
                failed += 1
                traceback.print_exc(file=sys.stderr)
                continue
            busy += dt
            busy_cpu += cpu
            for cls in classes:
                samples[cls].append(cpu)
                walls[cls].append(dt)
            if tracer is not None:
                untraced_walls.append(bench.trace(op, tracer))
            if time.perf_counter() - last_yardstick >= YARDSTICK_EVERY_S:
                yardsticks.append(yardstick_s())
                last_yardstick = time.perf_counter()
        cycle += 1
        spent = time.perf_counter() - wall0 if traced else busy
        if spent >= seconds:
            break
    if not yardsticks:  # a run shorter than one yardstick interval
        yardsticks.append(yardstick_s())
    done = attempted - failed

    def p50_ms(values: list[float]) -> float:
        return 1e3 * statistics.median(values) if values else 0.0

    out: dict = {
        "attempted": attempted,
        "failed": failed,
        "cycles": cycle,
        "busy_s": busy,
        "busy_cpu_s": busy_cpu,
        "yardsticks": yardsticks,
        "samples": {cls: len(v) for cls, v in samples.items()},
        "op_cpu_s": {cls: v for cls, v in samples.items()},
        "ops_per_cpu_s": done / busy_cpu if busy_cpu > 0 else 0.0,
        "op_cpu_p50_ms": p50_ms(samples["op"]),
        "miss_cpu_p50_ms": p50_ms(samples["miss"]),
        "wall": {
            "ops_per_s": done / busy if busy > 0 else 0.0,
            "op_p50_ms": p50_ms(walls["op"]),
            "miss_p50_ms": p50_ms(walls["miss"]),
        },
    }
    out.update(bench.finish())
    if tracer is not None:
        spans.parent.mkdir(exist_ok=True)
        tracer.dump(spans)
        traced_walls = tracer.root_walls()
        selfs = tracer.self_times()
        roots = {s[0] for s in tracer.spans if s[3] is None}
        unattributed = sum(selfs.get(r, 0.0) for r in roots)
        out["layers"] = _layer_metrics(tracer, bench.layer_extras(tracer))
        out["trace"] = {
            "ops": tracer.n_ops,
            "spans": len(tracer.spans),
            "traced_wall_s": sum(traced_walls),
            "untraced_wall_s": sum(untraced_walls),
            "difference_pct": 100.0 * (sum(traced_walls) / sum(untraced_walls) - 1.0),
            "recorder_pct": 100.0 * len(tracer.spans) * Tracer.span_cost_s()
            / sum(untraced_walls),
            "unattributed_ms_per_op": 1e3 * unattributed / max(tracer.n_ops, 1),
            "unattributed_pct": 100.0 * unattributed / sum(traced_walls)
            if traced_walls else 0.0,
            "self_times": _self_time_table(tracer),
            "parity_ops": bench.parity_ops,
            "spans_file": str(spans.relative_to(ROOT)),
        }
    return out


if __name__ == "__main__":
    sys.exit(main())
