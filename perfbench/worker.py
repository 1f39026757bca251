"""Benchmark worker: runs one workload's cold rounds inside the program's process.

Invoked by ``run.py`` as ``python3 perfbench/worker.py '<json config>'``
with the checkout's ``src`` on ``PYTHONPATH``; prints one JSON object as
its last stdout line.  Modes:

- ``setup``: import what a workload needs and exit (timed from outside);
- ``setup-campaign``: run a one-shard fig3 campaign (supervisor start-up);
- ``fig3``: cold rounds of ``fig3_point`` over a fig3 corpus, then the
  correctness checks; with ``trace`` the rounds alternate with traced
  rounds that drive the same corpus step by step through Algorithm 1;
- ``campaign``: cold rounds of ``run_campaign("fig3", ...)`` over the
  ``fig3-degrade`` corpus with ``jobs=2``;
- ``serve-corpus`` / ``serve-answers``: the ``serve-mix`` request sequence
  and its in-process answers;
- ``expected``: rewrite ``expected/fig3-seed0.json``, the committed
  default-seed rows (only when the fig3 semantics change on purpose).

Every timed round starts cold: the fork-reset memo clears and the
schedulability verdict cache are emptied first.
"""

from __future__ import annotations

import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import replace
from typing import Any

import common
from spans import SpanRecorder

MIN_ROUNDS = 3
ORACLE_POINTS = 3
ORACLE_SETS = 1
#: Obs counter families reported as ``<prefix>.hit_ratio``.
HIT_RATIOS = ("safety.killing_series", "core.profile_memo", "core.sched_cache")
EXPECTED_PATH = os.path.join(common.BENCH_DIR, "expected", "fig3-seed0.json")


def _cold() -> None:
    from repro.core.backends import clear_schedulability_cache
    from repro.obs.trace import reset_inherited_session

    reset_inherited_session()
    clear_schedulability_cache()


def _peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _cpu_s(who: int = resource.RUSAGE_SELF) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _minor_faults() -> int:
    """Minor page faults of this process and its reaped children."""
    return sum(
        resource.getrusage(who).ru_minflt
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )


def _environment() -> dict[str, Any]:
    import numpy

    return {"numpy": numpy.__version__, "openblas_threads": common.openblas_threads()}


# -- fig3: untraced rounds ------------------------------------------------------


def _fig3_round(options: dict[str, Any]) -> tuple[list[list[Any]], list[float]]:
    """One cold pass of ``fig3_point`` over the corpus: rows and point times."""
    from repro.experiments.fig3 import FIG3_PANELS, fig3_point

    _cold()
    rows, times = [], []
    for panel, f, index, u in common.corpus_points(options):
        begin = time.perf_counter()
        row = fig3_point(
            FIG3_PANELS[panel], f, index, u, options["sets_per_point"], options["seed"]
        )
        times.append(time.perf_counter() - begin)
        rows.append(list(row))
    return rows, times


def _check_rows(
    workload: str, options: dict[str, Any], rows: list[list[Any]]
) -> tuple[int, int, list[str]]:
    """Expected rows (default seed), with >= without, scalar-oracle sample."""
    from repro.experiments.fig3 import FIG3_PANELS, fig3_point

    attempted, failed, notes = 0, 0, []
    if options["seed"] == common.DEFAULT_SEED:
        with open(EXPECTED_PATH, encoding="utf-8") as handle:
            expected = json.load(handle)[workload]
        attempted += 1
        if expected != rows:
            failed += 1
            notes.append("rows differ from the committed default-seed rows")
    for row in rows:
        attempted += 1
        if row[2] < row[1]:
            failed += 1
            notes.append(f"acceptance_with < acceptance_without at {row}")
    # Scalar oracle on the first ORACLE_SETS sets of a few seeded points:
    # fig3_point with fewer sets generates a prefix of the same point.
    points = common.corpus_points(options)
    sample = random.Random(options["seed"]).sample(range(len(points)), ORACLE_POINTS)
    for position in sorted(sample):
        panel, f, index, u = points[position]
        answers = []
        for scalar in (False, True):
            if scalar:
                os.environ["REPRO_NO_NUMPY"] = "1"
                os.environ["REPRO_NO_BATCH"] = "1"
            try:
                _cold()
                answers.append(
                    list(fig3_point(FIG3_PANELS[panel], f, index, u, ORACLE_SETS, options["seed"]))
                )
            finally:
                os.environ.pop("REPRO_NO_NUMPY", None)
                os.environ.pop("REPRO_NO_BATCH", None)
        attempted += 1
        if answers[0] != answers[1]:
            failed += 1
            notes.append(f"scalar oracle {answers[1]} != batch tier {answers[0]}")
    return attempted, failed, notes


# -- fig3: traced decomposition -------------------------------------------------


class _TracedFig3:
    """Drives a fig3 corpus through Algorithm 1 step by step, with spans.

    The order is ``fig3_point``'s (generation, line 2 for every set, the
    no-adaptation baseline over the eligible sets) followed by
    ``ft_schedule``'s for each set the baseline rejects (line 2 again,
    line 4, line 8, and the finishing conversion and PFH bounds).
    """

    def __init__(self, options: dict[str, Any], recorder: SpanRecorder) -> None:
        self.options = options
        self.rec = recorder

    def run_round(self) -> dict[str, Any]:
        from repro.obs import metrics as obs_metrics

        obs_metrics.registry().reset()
        obs_metrics.enable()
        self.counts = {
            "eligible": 0, "baseline_ok": 0, "ft_calls": 0, "ft_ok": 0,
            "line4_calls": 0, "line4_unsafe": 0, "line8_none": 0,
        }
        self.line4_failures: list[tuple[Any, int, int, Any]] = []
        _cold()
        cpu0, wall0 = _cpu_s(), time.perf_counter()
        faults0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        rows, times = [], []
        try:
            for point in common.corpus_points(self.options):
                begin = time.perf_counter()
                rows.append(self._point(*point))
                times.append(time.perf_counter() - begin)
        finally:
            obs_metrics.disable()
        wall = time.perf_counter() - wall0
        cpu = _cpu_s() - cpu0
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults0
        counters = obs_metrics.registry().snapshot()["counters"]
        # Would line 8 alone have settled the calls that stopped at line 5?
        # Probed after the round's counters are read, outside every span.
        from repro.core.profiles import maximal_adaptation_profile

        for taskset, n_hi, n_lo, backend in self.line4_failures:
            if maximal_adaptation_profile(taskset, n_hi, n_lo, backend) is None:
                self.counts["line8_none"] += 1
        self.line4_failures = []
        return {
            "rows": rows, "times": times, "wall": wall, "cpu": cpu,
            "faults": faults, "counts": dict(self.counts), "counters": counters,
        }

    def _point(self, panel_key: str, f: float, index: int, u: float) -> list[Any]:
        import numpy as np

        from repro.core.backends import baseline_schedulable_series
        from repro.core.profiles import minimal_reexecution_profiles
        from repro.experiments.fig3 import FIG3_PANELS
        from repro.gen.taskset import PAPER_CONFIG, generate_taskset
        from repro.model.faults import ReexecutionProfile

        span = self.rec.span
        panel = FIG3_PANELS[panel_key]
        sets = self.options["sets_per_point"]
        seed = self.options["seed"]
        config = replace(PAPER_CONFIG, failure_probability=f)
        with span("point", panel=panel_key, f=f, u=u):
            tasksets = []
            for set_index in range(sets):
                with span("gen"):
                    rng = np.random.default_rng([seed, index, set_index, int(f * 1e9)])
                    tasksets.append(generate_taskset(u, panel.spec, rng, config))
            with span("ft.line2"):
                profiles = [minimal_reexecution_profiles(ts) for ts in tasksets]
            eligible = [(ts, p) for ts, p in zip(tasksets, profiles) if p is not None]
            with span("baseline"):
                baselines = baseline_schedulable_series(
                    [ts for ts, _ in eligible],
                    [ReexecutionProfile.uniform(ts, p.n_hi, p.n_lo) for ts, p in eligible],
                )
            base_ok = sum(baselines)
            adapted_ok = base_ok
            for (taskset, _), baseline in zip(eligible, baselines):
                if not baseline:
                    adapted_ok += self._ft_schedule(taskset, panel.mechanism)
            self.counts["eligible"] += len(eligible)
            self.counts["baseline_ok"] += base_ok
        return [u, base_ok / sets, adapted_ok / sets, sets]

    def _ft_schedule(self, taskset: Any, mechanism: str) -> bool:
        from repro.core.backends import EDFVDBackend, EDFVDDegradationBackend
        from repro.core.conversion import convert_uniform
        from repro.core.profiles import (
            maximal_adaptation_profile,
            minimal_adaptation_profile,
            minimal_reexecution_profiles,
            pfh_lo_adapted,
        )
        from repro.experiments.fig3 import (
            FIG3_DEGRADATION_FACTOR,
            FIG3_OPERATION_HOURS,
        )
        from repro.model.criticality import CriticalityRole
        from repro.model.faults import ReexecutionProfile
        from repro.safety.pfh import pfh_plain

        span = self.rec.span
        hours = FIG3_OPERATION_HOURS
        self.counts["ft_calls"] += 1
        with span("ft"):
            backend = (
                EDFVDBackend() if mechanism == "kill"
                else EDFVDDegradationBackend(FIG3_DEGRADATION_FACTOR)
            )
            with span("ft.line2"):
                profiles = minimal_reexecution_profiles(taskset)
            n_hi, n_lo = profiles.n_hi, profiles.n_lo
            self.counts["line4_calls"] += 1
            with span("ft.line4"):
                n1 = minimal_adaptation_profile(
                    taskset, n_hi, n_lo, backend.mechanism, hours, True
                )
            if n1 is None:
                self.counts["line4_unsafe"] += 1
                self.line4_failures.append((taskset, n_hi, n_lo, backend))
                return False
            with span("ft.line8"):
                n2 = maximal_adaptation_profile(taskset, n_hi, n_lo, backend)
            if n2 is None:
                self.counts["line8_none"] += 1
                return False
            if n1 > n2:
                return False
            with span("ft.finish"):
                mc = convert_uniform(taskset, n_hi, n_lo, n2)
                reexecution = ReexecutionProfile.uniform(taskset, n_hi, n_lo)
                pfh_plain(taskset, CriticalityRole.HI, reexecution, True)
                pfh_lo_adapted(taskset, n_hi, n_lo, n2, backend.mechanism, hours, True)
                backend.utilization_metric(mc)
            self.counts["ft_ok"] += 1
            return True


def _fig3_layers(traced: list[dict[str, Any]], recorder: SpanRecorder) -> dict[str, float]:
    """Per-layer metrics: medians over the traced rounds."""
    per_round = []
    for round_id, result in enumerate(traced):
        busy = recorder.busy_s(round_id)
        own = recorder.self_s(round_id)
        counts, counters = result["counts"], result["counters"]
        per_round.append(
            {
                "gen.busy_s": busy.get("gen", 0.0),
                "ft.line2.busy_s": busy.get("ft.line2", 0.0),
                "baseline.busy_s": busy.get("baseline", 0.0),
                "baseline.accept_ratio": common.ratio(
                    counts["baseline_ok"], counts["eligible"]
                ),
                "ft.calls": counts["ft_calls"],
                "ft.line4.busy_s": busy.get("ft.line4", 0.0),
                "ft.line4.unsafe_ratio": common.ratio(
                    counts["line4_unsafe"], counts["line4_calls"]
                ),
                "ft.line4_unneeded_ratio": common.ratio(
                    counts["line8_none"], counts["ft_calls"]
                ),
                "ft.line8.busy_s": busy.get("ft.line8", 0.0),
                "ft.finish.busy_s": busy.get("ft.finish", 0.0),
                "ft.self_s": own.get("ft", 0.0),
                "ft.success_ratio": common.ratio(counts["ft_ok"], counts["ft_calls"]),
                **{
                    f"{prefix}.hit_ratio": common.hit_ratio(counters, prefix)
                    for prefix in HIT_RATIOS
                },
                "proc.cpu_ratio": result["cpu"] / result["wall"],
                "proc.minor_faults": result["faults"],
            }
        )
    return {name: statistics.median([r[name] for r in per_round]) for name in per_round[0]}


def run_fig3(config: dict[str, Any]) -> dict[str, Any]:
    from repro.experiments.fig3 import DEFAULT_UTILIZATIONS

    workload = config["workload"]
    options = common.corpus_options(workload, config["seed"], DEFAULT_UTILIZATIONS)
    trace = config["trace"]
    recorder = SpanRecorder()
    tracer = _TracedFig3(options, recorder)
    starts = common.StartTimer(
        config["seconds"], lambda: common.time_start(common.worker_command({"mode": "setup"}))
    )
    deadline = time.perf_counter() + config["seconds"]
    untraced: list[list[float]] = []
    traced: list[dict[str, Any]] = []
    reference: list[list[Any]] | None = None
    attempted = failed = 0
    notes: list[str] = []
    while True:
        rows, times = _fig3_round(options)
        untraced.append(times)
        attempted += len(rows)
        if reference is None:
            reference = rows
        elif rows != reference:
            failed += 1
            notes.append(f"round {len(untraced)} rows differ from round 1")
        if trace:
            recorder.round = len(traced)
            result = tracer.run_round()
            traced.append(result)
            attempted += len(result["rows"])
            if result["rows"] != reference:
                failed += 1
                notes.append("traced decomposition counts differ from fig3_point")
        starts.maybe()
        if time.perf_counter() >= deadline and len(untraced) >= MIN_ROUNDS:
            break
    assert reference is not None
    check_begin = time.perf_counter()
    checked, bad, check_notes = _check_rows(workload, options, reference)
    out: dict[str, Any] = {
        "setup_s": starts.fastest(),
        "point_min_s": [min(col) for col in zip(*untraced)],
        "round_s": [sum(times) for times in untraced],
        "sets": options["sets_per_point"] * len(reference),
        "samples": len(reference),
        "rows": reference,
        "attempted": attempted + checked,
        "failed": failed + bad,
        "notes": notes + check_notes,
        "check_s": time.perf_counter() - check_begin,
        "peak_rss_mb": _peak_rss_mb(),
        "env": _environment(),
    }
    if trace:
        layers = _fig3_layers(traced, recorder)
        traced_min = sum(min(col) for col in zip(*(r["times"] for r in traced)))
        layers["trace.overhead_ratio"] = traced_min / sum(out["point_min_s"]) - 1.0
        out["layers"] = layers
        recorder.write(config["trace_path"])
    return out


# -- campaign ---------------------------------------------------------------------


def _reference_results(options: dict[str, Any]) -> dict[str, str]:
    """The ``fig3-degrade`` rows computed in process, as result-file bytes."""
    from repro.experiments.fig3 import FIG3_PANELS, fig3_panel_skeleton

    rows, _ = _fig3_round(options)
    results, position = [], 0
    for panel in options["panels"]:
        for f in options["failure_probabilities"]:
            result = fig3_panel_skeleton(FIG3_PANELS[panel], f)
            for _ in options["utilizations"]:
                result.add_row(*rows[position])
                position += 1
            results.append(result)
    # The bytes atomic_write_json gives the campaign's result files.
    return {
        f"{result.name}.json": json.dumps(result.to_dict(), indent=2) + "\n"
        for result in results
    }


def _campaign_round(options: dict[str, Any], out_dir: str) -> dict[str, Any]:
    from repro.runner.supervisor import run_campaign

    _cold()
    cpu0, children0 = _cpu_s(), _cpu_s(resource.RUSAGE_CHILDREN)
    faults0 = _minor_faults()
    begin = time.perf_counter()
    report = run_campaign("fig3", dict(options), output_dir=out_dir, jobs=2)
    wall = time.perf_counter() - begin
    files = {}
    for path in report.result_files:
        if path.endswith(".json"):
            with open(path, encoding="utf-8") as handle:
                files[os.path.basename(path)] = handle.read()
    return {
        "wall": wall,
        "supervisor_cpu": _cpu_s() - cpu0,
        "children_cpu": _cpu_s(resource.RUSAGE_CHILDREN) - children0,
        "faults": _minor_faults() - faults0,
        "shards": report.total,
        "completed": len(report.completed),
        "attempts": sum(o.attempts for o in report.outcomes),
        "durations": [o.duration_s for o in report.outcomes],
        "shared_cache": report.shared_cache or {},
        "checkpoint_bytes": os.path.getsize(report.checkpoint_path),
        "files": files,
    }


def run_campaign_rounds(config: dict[str, Any]) -> dict[str, Any]:
    from repro.experiments.fig3 import DEFAULT_UTILIZATIONS
    from repro.obs import metrics as obs_metrics

    options = common.corpus_options("campaign-degrade", config["seed"], DEFAULT_UTILIZATIONS)
    reference = _reference_results(options)
    base_dir = os.path.join(common.WORK_DIR, f"campaign-{os.getpid()}")
    trace = config["trace"]
    recorder = SpanRecorder()
    untraced: list[dict[str, Any]] = []
    traced: list[dict[str, Any]] = []
    attempted = failed = 0
    notes: list[str] = []
    starts = common.StartTimer(
        config["seconds"],
        lambda: common.time_start(common.worker_command({"mode": "setup-campaign"})),
    )
    deadline = time.perf_counter() + config["seconds"]
    try:
        while True:
            modes = [False, True] if trace else [False]
            for traced_round in modes:
                out_dir = os.path.join(base_dir, f"round-{len(untraced) + len(traced)}")
                if traced_round:
                    recorder.round = len(traced)
                    obs_metrics.registry().reset()
                    obs_metrics.enable()
                    try:
                        with recorder.span("campaign", jobs=2):
                            result = _campaign_round(options, out_dir)
                    finally:
                        obs_metrics.disable()
                    traced.append(result)
                else:
                    result = _campaign_round(options, out_dir)
                    untraced.append(result)
                shutil.rmtree(out_dir, ignore_errors=True)
                attempted += result["shards"] + 1
                failed += result["shards"] - result["completed"]
                if result["files"] != reference:
                    failed += 1
                    notes.append("campaign result files differ from the fig3-degrade rows")
                starts.maybe()
            if time.perf_counter() >= deadline and len(untraced) >= MIN_ROUNDS:
                break
    finally:
        shutil.rmtree(base_dir, ignore_errors=True)
    shard_ids = range(untraced[0]["shards"])
    out: dict[str, Any] = {
        "setup_s": starts.fastest(),
        "round_s": [r["wall"] for r in untraced],
        "shard_min_s": [min(r["durations"][i] for r in untraced) for i in shard_ids],
        "sets": options["sets_per_point"] * untraced[0]["shards"],
        "samples": untraced[0]["shards"],
        "attempted": attempted,
        "failed": failed,
        "notes": notes,
        "peak_rss_mb": max(_peak_rss_mb(), _peak_rss_mb(resource.RUSAGE_CHILDREN)),
        "env": _environment(),
    }
    if trace:
        rows = []
        for r in traced:
            rows.append(
                {
                    "runner.shards": r["shards"],
                    "runner.attempts": r["attempts"],
                    "runner.shard_p50_ms": statistics.median(r["durations"]) * 1e3,
                    "runner.slot_busy_ratio": sum(r["durations"]) / (2 * r["wall"]),
                    "runner.supervisor_cpu_s": r["supervisor_cpu"],
                    "runner.children_cpu_s": r["children_cpu"],
                    "runner.checkpoint_bytes": r["checkpoint_bytes"],
                    "runner.shared_cache.hits": r["shared_cache"].get("hits", 0),
                    "runner.shared_cache.stores": r["shared_cache"].get("stores", 0),
                    "proc.cpu_ratio": (r["supervisor_cpu"] + r["children_cpu"]) / r["wall"],
                    "proc.minor_faults": r["faults"],
                }
            )
        layers = {name: statistics.median([r[name] for r in rows]) for name in rows[0]}
        layers["trace.overhead_ratio"] = (
            min(r["wall"] for r in traced) / min(out["round_s"]) - 1.0
        )
        out["layers"] = layers
        recorder.write(config["trace_path"])
    return out


def setup_campaign() -> dict[str, Any]:
    """A one-shard, one-set fig3 campaign: supervisor start-up and teardown."""
    from repro.runner.supervisor import run_campaign

    options = {
        "panels": ["c"],
        "failure_probabilities": [1e-3],
        "utilizations": [0.4],
        "sets_per_point": 1,
        "seed": 0,
    }
    out_dir = os.path.join(common.WORK_DIR, f"setup-{os.getpid()}")
    try:
        report = run_campaign("fig3", options, output_dir=out_dir, jobs=2)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return {"completed": len(report.completed)}


# -- serve-mix: request corpus and in-process answers ------------------------------

SERVE_POOL = 64
#: The pool's task sets come from this fixed seed; ``--seed`` orders and
#: parameterizes the requests.  With a pool drawn per seed, a run's
#: throughput and p99 followed its few hardest sets by +-15%, more than
#: the benchmark's bounds.
SERVE_POOL_SEED = 0
#: Requests per pool set in one pass of the sequence: 5 schedulability,
#: 2 schedule (one per backend), and 1 each of pfh, dbf, analyze and plan.
#: Every set gets the same mix, so the cost of a pass depends on the seed
#: only through the 64 sets' task parameters, not through which sets
#: happen to draw the expensive operations.  The schedulability and pfh
#: requests, the fast class, are 6 of 11, so the median latency falls
#: inside that class rather than on the edge between two classes, where
#: it would jump from run to run.
SERVE_MIX = (
    ("schedulability", 5), ("schedule", 2), ("pfh", 1),
    ("dbf", 1), ("analyze", 1), ("plan", 1),
)
#: The sequence is this many passes over the pool's requests, each in its
#: own seeded order.  How often two expensive requests meet in the server
#: depends on the order, and a run that covers several orders averages
#: that out.
SERVE_PASSES = 4
#: Branch-and-bound budget of the plan requests.  Node counts are heavy
#: tailed (one set of 64 can need over 1000 nodes), which made a run's
#: throughput follow the few sets its seed happened to draw.
SERVE_PLAN_NODES = 100
#: dbf requests draw their workload from this many pool sets, so that the
#: two clients' requests can share a micro-batch.
SERVE_DBF_HOT = 4


def serve_corpus(seed: int) -> list[list[str]]:
    """The seeded request sequence: ``[op, JSON body]`` pairs over 64 B/C sets."""
    import numpy as np

    from repro.core.profiles import minimal_reexecution_profiles
    from repro.gen.taskset import PAPER_CONFIG, generate_taskset
    from repro.io import taskset_to_dict
    from repro.model.criticality import DualCriticalitySpec

    spec = DualCriticalitySpec.from_names("B", "C")
    rng = random.Random(seed)
    pool = []
    attempt = 0
    while len(pool) < SERVE_POOL:
        # Utilizations spread evenly over 0.5..1.1; f alternates.
        u = 0.5 + 0.6 * (len(pool) + 0.5) / SERVE_POOL
        f = common.FAILURE_PROBABILITIES[len(pool) % 2]
        taskset = generate_taskset(
            u, spec, np.random.default_rng([SERVE_POOL_SEED, 7, attempt]),
            replace(PAPER_CONFIG, failure_probability=f),
        )
        attempt += 1
        profiles = minimal_reexecution_profiles(taskset)
        if profiles is not None:
            pool.append((taskset_to_dict(taskset), profiles.n_hi, profiles.n_lo))
    requests = []
    for position, (doc, n_hi, n_lo) in enumerate(pool):
        for op, weight in SERVE_MIX:
            for repeat in range(weight):
                body: dict[str, Any] = {"taskset": doc}
                if op == "schedulability":
                    body.update(n_hi=n_hi, n_lo=n_lo, n_prime_hi=rng.randint(1, n_hi))
                elif op == "schedule" and repeat == 1:
                    body.update(backend="edf-vd-degradation", degradation_factor=6.0)
                elif op == "pfh":
                    mechanism = ("plain", "kill", "degrade")[position % 3]
                    body.update(n_hi=n_hi, n_lo=n_lo, mechanism=mechanism)
                    if mechanism != "plain":
                        body["adaptation"] = rng.randint(1, n_hi)
                elif op == "dbf":
                    tasks = pool[(position + repeat) % SERVE_DBF_HOT][0]["tasks"]
                    horizon = 4 * max(t["period"] for t in tasks)
                    body = {
                        "workload": [
                            {"period": t["period"], "deadline": t["deadline"], "wcet": t["wcet"]}
                            for t in tasks
                        ],
                        "instants": sorted(round(horizon * rng.random(), 3) for _ in range(32)),
                    }
                elif op == "plan":
                    body.update(cores=2, max_nodes=SERVE_PLAN_NODES)
                requests.append([op, json.dumps(body, sort_keys=True)])
    sequence = []
    for _ in range(SERVE_PASSES):
        rng.shuffle(requests)
        sequence.extend(requests)
    return sequence


def serve_answers(requests: list[list[str]]) -> list[str]:
    """In-process ``AnalysisService`` answers, encoded as the server encodes them."""
    from repro.api import service as api_service
    from repro.api import types as api_types

    service = api_service.AnalysisService()
    request_types = {
        "schedule": (service.schedule, api_types.ScheduleRequest),
        "schedulability": (service.schedulability, api_types.SchedulabilityRequest),
        "pfh": (service.pfh, api_types.PFHRequest),
        "dbf": (service.dbf, api_types.DbfRequest),
        "analyze": (service.analyze, api_types.AnalyzeRequest),
        "plan": (service.plan, api_types.PlanRequest),
    }
    answers = []
    for op, body in requests:
        call, request_type = request_types[op]
        response = call(request_type.from_dict(json.loads(body))).to_dict()
        answers.append(json.dumps(response, sort_keys=True) + "\n")
    return answers


def write_expected() -> dict[str, Any]:
    """Recompute and commit the default-seed rows of both fig3 corpora."""
    from repro.experiments.fig3 import DEFAULT_UTILIZATIONS

    expected = {}
    for workload in common.FIG3_PANELS:
        options = common.corpus_options(workload, common.DEFAULT_SEED, DEFAULT_UTILIZATIONS)
        expected[workload] = _fig3_round(options)[0]
    os.makedirs(os.path.dirname(EXPECTED_PATH), exist_ok=True)
    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        handle.write("{\n")
        for position, (workload, rows) in enumerate(expected.items()):
            lines = ",\n".join(f"    {json.dumps(row)}" for row in rows)
            comma = "," if position + 1 < len(expected) else ""
            handle.write(f'  "{workload}": [\n{lines}\n  ]{comma}\n')
        handle.write("}\n")
    return {"written": EXPECTED_PATH}


def main(argv: list[str]) -> int:
    config = json.loads(argv[1])
    mode = config["mode"]
    if mode == "setup":
        import repro.experiments.fig3  # noqa: F401

        result: dict[str, Any] = {"ok": True}
    elif mode == "setup-campaign":
        result = setup_campaign()
    elif mode == "fig3":
        result = run_fig3(config)
    elif mode == "campaign":
        result = run_campaign_rounds(config)
    elif mode == "expected":
        result = write_expected()
    elif mode == "serve-corpus":
        result = {"requests": serve_corpus(config["seed"]), "env": _environment()}
    elif mode == "serve-answers":
        with open(config["input_path"], encoding="utf-8") as handle:
            result = {"answers": serve_answers(json.load(handle))}
    else:
        raise SystemExit(f"unknown worker mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
