"""The ``serve-mix`` workload: ``ftmc serve`` under two closed-loop clients.

Each round starts a fresh server process (cold caches), waits for
``/healthz`` (one ``setup_s`` sample), then two keep-alive clients replay
the seeded request sequence from its start: each client sends its next
request only after the reply to its last one arrived.  Every response
must be a 200 and byte-identical to every other response to the same
request; after the timed phase each distinct request is answered again
by an in-process ``AnalysisService`` and compared byte for byte.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Any

import common
from spans import SpanRecorder

CLIENTS = 2
ROUNDS = 4
HEALTH_TIMEOUT_S = 60.0
PATHS = {
    "schedule": "/v1/schedule",
    "schedulability": "/v1/schedulability",
    "pfh": "/v1/pfh",
    "dbf": "/v1/dbf",
    "analyze": "/v1/analyze",
    "plan": "/v1/plan",
}


class Server:
    """One ``python -m repro serve`` process on an ephemeral port."""

    def __init__(self, obs: bool) -> None:
        begin = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            env=common.child_env(obs=obs, PYTHONUNBUFFERED="1"),
            cwd=common.ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        try:
            line = self.proc.stdout.readline()
            address = line.split("http://", 1)[1].split()[0]
            self.host, port = address.rsplit(":", 1)
            self.port = int(port)
            self.setup_s = self._wait_healthy(begin)
        except BaseException:
            self.stop()
            raise

    def _wait_healthy(self, begin: float) -> float:
        while time.perf_counter() - begin < HEALTH_TIMEOUT_S:
            try:
                status, _ = self.get("/healthz")
                if status == 200:
                    return time.perf_counter() - begin
            except OSError:
                pass
            time.sleep(0.002)
        raise RuntimeError("ftmc serve did not answer /healthz")

    def get(self, path: str) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def _client(
    server: Server,
    sequence: list[list[str]],
    cursor: list[int],
    lock: threading.Lock,
    stop_at: float,
    samples: list[tuple[int, float, float]],
    bodies: dict[int, bytes],
    errors: list[str],
) -> None:
    conn = http.client.HTTPConnection(server.host, server.port, timeout=60)
    headers = {"Content-Type": "application/json"}
    try:
        while time.perf_counter() < stop_at:
            with lock:
                position = cursor[0]
                cursor[0] += 1
            index = position % len(sequence)
            op, body = sequence[index]
            begin = time.perf_counter()
            conn.request("POST", PATHS[op], body, headers)
            response = conn.getresponse()
            data = response.read()
            samples.append((position, begin, time.perf_counter() - begin))
            if response.status != 200:
                errors.append(f"{op} answered {response.status}")
            elif bodies.setdefault(index, data) != data:
                errors.append(f"{op} request {index} answered differently")
    except (OSError, http.client.HTTPException) as exc:
        errors.append(f"client error {type(exc).__name__}: {exc}")
    finally:
        conn.close()


def _load_round(
    sequence: list[list[str]], seconds: float, obs: bool
) -> dict[str, Any]:
    """One cold server, loaded by the closed-loop clients for ``seconds``."""
    server = Server(obs)
    try:
        cpu0, faults0 = common.proc_stat(server.proc.pid)
        lock = threading.Lock()
        cursor = [0]
        per_client = [([], {}, []) for _ in range(CLIENTS)]
        begin = time.perf_counter()
        threads = [
            threading.Thread(
                target=_client,
                args=(server, sequence, cursor, lock, begin + seconds, *state),
            )
            for state in per_client
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - begin
        cpu1, faults1 = common.proc_stat(server.proc.pid)
        stats = None
        if obs:
            status, raw = server.get("/v1/stats")
            stats = json.loads(raw) if status == 200 else None
        peak = common.proc_peak_rss_mb(server.proc.pid)
    finally:
        server.stop()
    samples = [s for state in per_client for s in state[0]]
    bodies: dict[int, bytes] = {}
    errors = [e for state in per_client for e in state[2]]
    for state in per_client:
        for index, data in state[1].items():
            if bodies.setdefault(index, data) != data:
                errors.append(f"request {index} answered differently by client")
    return {
        "setup_s": server.setup_s, "wall": wall, "samples": samples,
        "bodies": bodies, "errors": errors, "stats": stats, "peak_rss_mb": peak,
        "cpu": cpu1 - cpu0, "faults": faults1 - faults0,
    }


def _answers(sequence: list[list[str]], indices: list[int]) -> list[str]:
    """In-process answers to ``sequence[i]`` for each ``i`` in ``indices``."""
    distinct = list(dict.fromkeys(tuple(sequence[i]) for i in indices))
    path = os.path.join(common.WORK_DIR, f"serve-requests-{os.getpid()}.json")
    os.makedirs(common.WORK_DIR, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(distinct, handle)
    try:
        answers = common.run_worker(
            {"mode": "serve-answers", "input_path": path}, timeout=120
        )["answers"]
    finally:
        os.remove(path)
    by_request = dict(zip(distinct, answers))
    return [by_request[tuple(sequence[i])] for i in indices]


def _layers(rounds: list[dict[str, Any]], sequence: list[list[str]]) -> dict[str, float]:
    """Per-layer metrics of the traced rounds (client latencies + /v1/stats)."""
    layers: dict[str, float] = {}
    for op in PATHS:
        latencies = [
            t for r in rounds for k, _, t in r["samples"] if _op(sequence, k) == op
        ]
        layers[f"api.{op}.p50_ms"] = common.quantile(latencies, 0.5) * 1e3
        layers[f"api.{op}.p90_ms"] = common.quantile(latencies, 0.9) * 1e3
    server_ns = client_s = 0.0
    counters: dict[str, int] = {}
    for r in rounds:
        metrics = r["stats"]["metrics"]
        for name, value in metrics["counters"].items():
            counters[name] = counters.get(name, 0) + value
        server_ns += sum(
            h["total"] for name, h in metrics["histograms"].items()
            if name.startswith("api.latency_ns.")
        )
        client_s += sum(t for _, _, t in r["samples"])
    layers["api.server_share"] = server_ns / 1e9 / client_s
    layers["api.dbf.coalesced_ratio"] = common.ratio(
        counters.get("api.dbf.coalesced", 0), counters.get("api.requests.dbf", 0)
    )
    for prefix in ("core.sched_cache", "core.profile_memo", "safety.killing_series"):
        layers[f"{prefix}.hit_ratio"] = common.hit_ratio(counters, prefix)
    wall = sum(r["wall"] for r in rounds)
    layers["proc.cpu_ratio"] = sum(r["cpu"] for r in rounds) / wall
    layers["proc.minor_faults"] = statistics.median([r["faults"] for r in rounds])
    return layers


def _op(sequence: list[list[str]], position: int) -> str:
    return sequence[position % len(sequence)][0]


def _cold_start() -> float:
    server = Server(obs=False)
    server.stop()
    return server.setup_s


def _write_spans(
    rounds: list[dict[str, Any]], sequence: list[list[str]], path: str
) -> None:
    """One client-side ``api.<op>`` span per traced request."""
    recorder = SpanRecorder()
    for round_id, r in enumerate(rounds):
        for k, begin, elapsed in sorted(r["samples"], key=lambda s: s[1]):
            start = int(begin * 1e9)
            recorder.spans.append(
                [len(recorder.spans), None, round_id, f"api.{_op(sequence, k)}",
                 start, start + int(elapsed * 1e9), {"position": k}]
            )
    recorder.write(path)


def run(seed: int, seconds: float, trace: bool, trace_path: str) -> dict[str, Any]:
    corpus = common.run_worker({"mode": "serve-corpus", "seed": seed}, timeout=120)
    sequence = corpus["requests"]
    # Untraced rounds only, or traced rounds interleaved with untraced ones.
    plan = [False, True, False, True] if trace else [False] * ROUNDS
    rounds, setups = [], []
    for obs in plan:
        rounds.append(_load_round(sequence, seconds / len(plan), obs))
        setups.append(rounds[-1]["setup_s"])
        # Spread the extra cold starts between the rounds.
        if len(setups) < common.SETUP_STARTS:
            setups.append(_cold_start())
    while len(setups) < common.SETUP_STARTS:
        setups.append(_cold_start())

    errors = [e for r in rounds for e in r["errors"]]
    attempted = sum(len(r["samples"]) for r in rounds)
    bodies: dict[int, bytes] = {}
    for r in rounds:
        for index, data in r["bodies"].items():
            if bodies.setdefault(index, data) != data:
                errors.append(f"request {index} answered differently across rounds")
    indices = sorted(bodies)
    for index, answer in zip(indices, _answers(sequence, indices)):
        attempted += 1
        if answer.encode("utf-8") != bodies[index]:
            errors.append(f"request {index} differs from the in-process answer")

    # Every round replays the same sequence on a cold server, and
    # interference only adds time: each request position keeps its fastest
    # round trip over the rounds, and the rates take the best round.
    untraced = [r for r, obs in zip(rounds, plan) if not obs]
    per_round = [{k: t for k, _, t in r["samples"]} for r in untraced]
    positions = set(per_round[0]).intersection(*per_round[1:])
    latencies = [min(times[k] for times in per_round) for k in positions]
    with_sets = [
        sum(1 for k, _, _ in r["samples"] if _op(sequence, k) != "dbf") for r in untraced
    ]
    out: dict[str, Any] = {
        "attempted": attempted,
        "failed": len(errors),
        "notes": errors[:20],
        "env": corpus["env"],
        "samples": len(latencies),
        "round_req_per_s": [len(r["samples"]) / r["wall"] for r in untraced],
        "metrics": {
            "sets_per_s": max(n / r["wall"] for n, r in zip(with_sets, untraced)),
            "req_per_s": max(len(r["samples"]) / r["wall"] for r in untraced),
            "latency_p50_ms": common.quantile(latencies, 0.5) * 1e3,
            "latency_p99_ms": common.quantile(latencies, 0.99) * 1e3,
            "setup_s": min(setups),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in rounds),
        },
    }
    if trace:
        traced = [r for r, obs in zip(rounds, plan) if obs]
        layers = _layers(traced, sequence)
        traced_rate = max(len(r["samples"]) / r["wall"] for r in traced)
        layers["trace.overhead_ratio"] = out["metrics"]["req_per_s"] / traced_rate - 1.0
        out["layers"] = layers
        _write_spans(traced, sequence, trace_path)
    return out
