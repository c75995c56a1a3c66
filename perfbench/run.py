"""End-to-end benchmark of the repro program: one workload per call.

    python3 perfbench/run.py --workload sweep-ior-120 --seed 7 --seconds 20 --trace 0

Each workload runs in fresh interpreters (``worker.py``) with a fixed
``PYTHONHASHSEED``: two set-up probes, then the measuring process. With
``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics, timed in CPU seconds of the processes doing the work and
scaled to a reference host speed by a yardstick job timed in the same
run; with
``--trace 1`` every op is also replayed layer by layer under a span
recorder and the line carries the per-layer metrics. Diagnostics (host
steal time, a reference-loop rate, wall-clock figures, sample counts,
the span table) are printed before it. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    ROOT, SRC, WORKLOADS, YARDSTICK_LOOPS, YARDSTICK_NOMINAL_S, child_env, read_steal_s, tail,
)

SETUP_PROBES = 2
#: every worker must end within this many seconds of the run's start
DEADLINE_S = 170.0


def spawn(workload: str, mode: str, seed: int, seconds: float, tmp: Path, t_start: float) -> dict:
    """Run one worker to completion; returns its JSON result."""
    budget = DEADLINE_S - (time.monotonic() - t_start)
    if budget <= 0:
        raise RuntimeError("out of time before starting a worker")
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "worker.py"),
        "--workload", workload, "--mode", mode, "--seed", str(seed),
        "--seconds", str(seconds), "--tmp", str(tmp),
        "--spawned-at", repr(time.monotonic()),
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{mode} worker exceeded {budget:.0f} s") from None
    finally:
        # The worker's own children (daemon, planning pool) share its
        # session; make sure none outlives it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{mode} worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2

    t_start = time.monotonic()
    steal0 = read_steal_s()
    tmp = ROOT / ".perfbench_run" / str(os.getpid())
    mode = "trace" if args.trace else "measure"
    try:
        setups, setup_walls = [], []
        if not args.trace:
            for i in range(SETUP_PROBES):
                probe = spawn(args.workload, "probe", args.seed, args.seconds,
                              tmp / f"probe{i}", t_start)
                if "check_failed" in probe:
                    return _incorrect(probe["check_failed"])
                setups.append(_scaled_setup(probe))
                setup_walls.append(probe["setup_wall_s"])
        result = spawn(args.workload, mode, args.seed, args.seconds, tmp / mode, t_start)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    if "check_failed" in result:
        return _incorrect(result["check_failed"])
    setups.append(_scaled_setup(result))
    setup_walls.append(result["setup_wall_s"])
    # Op CPU times are scaled by the yardsticks timed between the ops.
    yardsticks = result["yardsticks"]
    scale = YARDSTICK_NOMINAL_S / statistics.median(yardsticks)
    steal = read_steal_s() - steal0

    print(f"perfbench: {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"perfbench: host steal {steal:.2f} s during the run; reference loop "
          f"{YARDSTICK_LOOPS / statistics.median(yardsticks) / 1e6:.2f} Mop/s (median of "
          f"{len(yardsticks)} yardsticks)")
    print(f"perfbench: {result['cycles']} cycle(s), {result['attempted']} ops attempted, "
          f"{result['failed']} failed; samples {result['samples']}; "
          f"set-ups {', '.join(f'{s:.2f}' for s in setups)} scaled CPU s, "
          f"{', '.join(f'{s:.2f}' for s in setup_walls)} wall s")
    wall = result["wall"]
    print(f"perfbench: wall clock {wall['ops_per_s']:.3f} ops/s, op p50 {wall['op_p50_ms']:.2f} ms, "
          f"miss p50 {wall['miss_p50_ms']:.2f} ms; CPU {result['busy_cpu_s']:.2f} s of "
          f"{result['busy_s']:.2f} s op wall time")
    print(f"perfbench: CPU times x {scale:.4f} (yardstick median "
          f"{1e3 * statistics.median(yardsticks):.2f} ms, nominal {1e3 * YARDSTICK_NOMINAL_S:.1f} ms); "
          f"unscaled {result['ops_per_cpu_s']:.3f} ops/CPU s, op p50 {result['op_cpu_p50_ms']:.2f} ms, "
          f"miss p50 {result['miss_cpu_p50_ms']:.2f} ms")
    hits = result["op_cpu_s"].get("op", [])
    if args.workload == "serve-mixed":
        high = tail(hits)
        if high is not None:
            print(f"perfbench: hit p{high[0]:.1f} = {1e3 * high[1] * scale:.2f} scaled CPU ms "
                  f"over {len(hits)} hits")
    metrics: dict[str, dict] = {}
    if args.trace:
        trace = result["trace"]
        print(f"perfbench: traced {trace['ops']} ops, {trace['spans']} spans; every op "
              f"matched the untraced path ({trace['parity_ops']} parity checks)")
        print(f"perfbench: tracing overhead {trace['recorder_pct']:.3f}% of untraced op time "
              f"(span recorder cost x {trace['spans']} spans); traced minus untraced op time "
              f"{trace['difference_pct']:+.1f}% ({trace['traced_wall_s']:.2f} s vs "
              f"{trace['untraced_wall_s']:.2f} s; the traced copy runs second, on warm state)")
        print(f"perfbench: unattributed {trace['unattributed_ms_per_op']:.3f} ms/op "
              f"({trace['unattributed_pct']:.2f}% of traced op time)")
        for line in trace["self_times"]:
            print(line)
        print(f"perfbench: spans written to {trace['spans_file']}")
        metrics = result["layers"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_cpu_s": {"value": result["ops_per_cpu_s"] / scale, "unit": "1/s"},
            "op_cpu_p50_ms": {"value": result["op_cpu_p50_ms"] * scale, "unit": "ms"},
            "miss_cpu_p50_ms": {"value": result["miss_cpu_p50_ms"] * scale, "unit": "ms"},
            "peak_rss_mib": {"value": result["peak_rss_mib"], "unit": "MiB"},
            "sim_bandwidth_mibps": {"value": result["sim_bandwidth_mibps"], "unit": "MiB/s"},
        }
    print(json.dumps({
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


def _scaled_setup(worker: dict) -> float:
    """A worker's set-up CPU time, scaled to the yardstick's nominal time
    by the yardsticks that worker timed right after its set-up. CPU
    times are scaled to the host speed at which the yardstick takes
    YARDSTICK_NOMINAL_S: a host slowed by other tenants slows the
    yardstick as much as the program."""
    return worker["setup_s"] * YARDSTICK_NOMINAL_S / statistics.median(worker["setup_yardsticks"])


def _incorrect(message: str) -> int:
    print(f"perfbench: output check failed: {message}", file=sys.stderr)
    print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
    return 1


if __name__ == "__main__":
    sys.exit(main())
