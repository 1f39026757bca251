"""Layered benchmark of the ftmc reproduction (FT-S / Algorithm 1 and its services).

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig3-kill --seed 0 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for corpus shapes and the layers each
one exercises or skips):

- ``fig3-kill``    -- ``fig3_point`` over Fig. 3 panels (a)/(b);
- ``fig3-degrade`` -- ``fig3_point`` over Fig. 3 panels (c)/(d);
- ``serve-mix``    -- ``ftmc serve`` under two closed-loop HTTP clients;
- ``campaign-degrade`` -- ``run_campaign("fig3", jobs=2)`` over the
  ``fig3-degrade`` corpus.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` a separate traced run reports the per-layer metrics
(layers a workload does not exercise read 0) and writes its spans under
``.perfbench/traces/``.  Every run records its environment (CPU count,
Python, numpy, OpenBLAS threads, hypervisor steal over the run) in the
line before the result and in ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any

import common
import serve_mix

WORKLOADS = ("fig3-kill", "fig3-degrade", "serve-mix", "campaign-degrade")
#: A worker run may take this long beyond ``--seconds`` (last round,
#: correctness checks) before it is killed.
WORKER_SLACK_S = 120.0

END_TO_END_UNITS = {
    "sets_per_s": "1/s",
    "req_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "gen.busy_s": "s",
    "ft.line2.busy_s": "s",
    "baseline.busy_s": "s",
    "baseline.accept_ratio": "ratio",
    "ft.calls": "count",
    "ft.line4.busy_s": "s",
    "ft.line4.unsafe_ratio": "ratio",
    "ft.line4_unneeded_ratio": "ratio",
    "ft.line8.busy_s": "s",
    "ft.finish.busy_s": "s",
    "ft.self_s": "s",
    "ft.success_ratio": "ratio",
    "safety.killing_series.hit_ratio": "ratio",
    "core.profile_memo.hit_ratio": "ratio",
    "core.sched_cache.hit_ratio": "ratio",
    "proc.cpu_ratio": "ratio",
    "proc.minor_faults": "count",
    **{
        f"api.{op}.{q}_ms": "ms"
        for op in serve_mix.PATHS
        for q in ("p50", "p90")
    },
    "api.server_share": "ratio",
    "api.dbf.coalesced_ratio": "ratio",
    "runner.shards": "count",
    "runner.attempts": "count",
    "runner.shard_p50_ms": "ms",
    "runner.slot_busy_ratio": "ratio",
    "runner.supervisor_cpu_s": "s",
    "runner.children_cpu_s": "s",
    "runner.checkpoint_bytes": "bytes",
    "runner.shared_cache.hits": "count",
    "runner.shared_cache.stores": "count",
    "trace.overhead_ratio": "ratio",
}


def _sweep_metrics(unit_s: list[float], sets: int, setup_s: float, rss: float) -> dict[str, float]:
    """End-to-end metrics of a fig3 sweep from each point's fastest cold pass."""
    total = sum(unit_s)
    return {
        "sets_per_s": sets / total,
        "req_per_s": len(unit_s) / total,
        "latency_p50_ms": common.quantile(unit_s, 0.5) * 1e3,
        "latency_p99_ms": common.quantile(unit_s, 0.99) * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": rss,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, trace_path: str) -> dict[str, Any]:
    if workload == "serve-mix":
        return serve_mix.run(seed, seconds, trace, trace_path)
    config = {"seed": seed, "seconds": seconds, "trace": trace, "trace_path": trace_path}
    timeout = seconds + WORKER_SLACK_S
    if workload == "campaign-degrade":
        out = common.run_worker({"mode": "campaign", **config}, timeout)
        # A campaign round is one indivisible unit: its fastest cold round.
        total = min(out["round_s"])
        metrics = _sweep_metrics(out["shard_min_s"], out["sets"], out["setup_s"], out["peak_rss_mb"])
        metrics["sets_per_s"] = out["sets"] / total
        metrics["req_per_s"] = len(out["shard_min_s"]) / total
    else:
        out = common.run_worker({"mode": "fig3", "workload": workload, **config}, timeout)
        metrics = _sweep_metrics(out["point_min_s"], out["sets"], out["setup_s"], out["peak_rss_mb"])
    out["metrics"] = metrics
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(common.SRC, "repro", "__init__.py")):
        print(
            f"perfbench: no program sources under {common.SRC}; "
            "run from the root of a full checkout",
            file=sys.stderr,
        )
        return 2

    trace = bool(args.trace)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    trace_path = os.path.join(common.WORK_DIR, "traces", f"{tag}.jsonl")
    steal0, begin = common.steal_seconds(), time.perf_counter()
    out = run_workload(args.workload, args.seed, args.seconds, trace, trace_path)
    environment = common.run_environment(
        {
            **out.get("env", {}),
            "steal_s": round(common.steal_seconds() - steal0, 3),
            "run_wall_s": round(time.perf_counter() - begin, 3),
        }
    )

    if trace:
        units = PER_LAYER_UNITS
        values = {name: float(out["layers"].get(name, 0.0)) for name in units}
    else:
        units = END_TO_END_UNITS
        values = {name: float(out["metrics"][name]) for name in units}
    result = {
        "correct": out["failed"] == 0,
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment,
        "notes": out.get("notes", []),
        "diagnostics": {
            name: out[name]
            for name in ("samples", "check_s", "round_s", "round_req_per_s")
            if name in out
        },
        "result": result,
    }
    os.makedirs(os.path.join(common.WORK_DIR, "results"), exist_ok=True)
    with open(os.path.join(common.WORK_DIR, "results", f"{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
    print(json.dumps({"environment": environment, "notes": record["notes"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
