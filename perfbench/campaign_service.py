"""The ``campaign-service`` workload: a campaign driven over HTTP.

An in-process :class:`TuningService` with one pool worker sits behind a
:class:`TuningServer`; one closed-loop client (each request waits for the
previous reply) opens a fresh localhost connection for every request.
Each repetition POSTs a ``random`` + ``grid`` x {nginx, redis} x 2-seed
campaign on the reduced Linux space, follows ``/events`` until
``job-finished``, makes one cold ``GET /report``, then a fixed sequence of
status and report polls.  No surrogate model runs, so time goes to
simulated evaluation, history ingest, checkpoint appends with fsync,
campaign-manifest lease operations, report aggregation and HTTP.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import sys
import tempfile
import time
import traceback
from typing import Any, Dict, List, Optional, Tuple

from common import (Budget, median, percentile, records_digest,
                    samples_for_tail, session_seeds, tree_bytes)
from layers import install_layers, layer_metrics
from tracer import Tracer, spans_between

from repro.analysis.campaign_report import campaign_report_document
from repro.platform.campaign_runner import STATUS_COMPLETE, load_manifest
from repro.platform.results import load_history_document
from repro.service import TuningServer, TuningService
from repro.service.events import EventBridgeObserver

#: trials per experiment; 8 experiments per campaign.
ITERATIONS = 200
#: the post-completion poll sequence repeats this cycle of paths.  Three in
#: four are the cached report, so the median and the tail both fall among
#: report requests; sub-millisecond status replies swing with the host far
#: more than the report path does.
POLL_CYCLE = ("report", "report", "report", "status")
POLLS = 120
#: tail percentiles of the trial steps and of the poll latencies.
TAIL_PCT = 99.0
POLL_TAIL_PCT = 95.0
SETUP_REPEATS = 8
TENANT = "bench"
SPACE = {"extra_compile": 20, "extra_runtime": 12, "extra_boot": 4}


def campaign_spec(seeds: List[int], iterations: int) -> Dict[str, Any]:
    return {"name": "bench", "applications": ["nginx", "redis"],
            "algorithms": ["random", "grid"], "seeds": seeds,
            "base": {"metric": "auto", "iterations": iterations,
                     "space_options": dict(SPACE)}}


class Client:
    """Closed-loop JSON client, one connection per request.

    That is how the repository's own clients (``urllib.request``) talk to
    the service.  A keep-alive connection would instead measure a TCP
    stall: the server writes headers and body separately, and Nagle's
    algorithm holds the body until the client's delayed ACK, ~40 ms.
    """

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.requests = 0
        self.failures = 0

    def call(self, method: str, path: str,
             body: Optional[Dict[str, Any]] = None) -> Tuple[int, bytes]:
        payload = None if body is None else json.dumps(body).encode()
        headers = {"Connection": "close"}
        if body is not None:
            headers["Content-Type"] = "application/json"
        connection = http.client.HTTPConnection(self.host, self.port,
                                                timeout=120)
        try:
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            data = response.read()
        finally:
            connection.close()
        self.requests += 1
        if not 200 <= response.status < 300:
            self.failures += 1
        return response.status, data

    def wait_finished(self, job: str) -> Optional[Dict[str, Any]]:
        """Follow the job's NDJSON event stream to its terminal event."""
        stream = http.client.HTTPConnection(self.host, self.port, timeout=300)
        try:
            stream.request("GET", "/v1/jobs/{}/events".format(job))
            response = stream.getresponse()
            self.requests += 1
            if response.status != 200:
                self.failures += 1
                return None
            for line in response:
                event = json.loads(line)
                if event["event"] in ("job-finished", "job-error"):
                    return event
            self.failures += 1
            return None
        finally:
            stream.close()


def time_setup(workdir: str) -> float:
    """Start the service and its HTTP front until it answers a health check."""
    root = tempfile.mkdtemp(dir=workdir)
    try:
        started = time.perf_counter()
        server = TuningServer(TuningService(root, workers=1))
        thread = server.serve_in_thread()
        status, _ = Client(*server.address).call("GET", "/v1/health")
        elapsed = time.perf_counter() - started
        server.shutdown()
        thread.join(timeout=30)
        if status != 200:
            raise RuntimeError("health check answered {}".format(status))
        return elapsed
    finally:
        shutil.rmtree(root)


def trial_steps_ms(checkpoints: List[Tuple[int, float]]) -> List[float]:
    """Wall time between consecutive checkpoints of the same experiment.

    *checkpoints* holds (trials in the history, time) per checkpoint event.
    The service checkpoints every trial, so one step is one trial, the
    checkpoint-cadence step ``StepTimer`` measures in the DeepTune loops.
    """
    return [1e3 * (now - then)
            for (count, now), (previous, then) in zip(checkpoints[1:],
                                                      checkpoints)
            if count == previous + 1]


def run_campaign(client: Client, service: TuningService, root: str,
                 seeds: List[int], iterations: int,
                 checkpoints: List[Tuple[int, float]],
                 tracer: Optional[Tracer] = None) -> Dict[str, Any]:
    """Submit one campaign, wait for it, read its report and poll it."""
    before = client.requests, client.failures
    mark = len(checkpoints)
    hits, misses = service.reports.hits, service.reports.misses
    if tracer is not None:
        install_layers(tracer)
    try:
        started = time.perf_counter()
        status, body = client.call("POST", "/v1/campaigns", {
            "tenant": TENANT, "campaign": campaign_spec(seeds, iterations)})
        submitted = time.perf_counter()
        if status != 201:
            raise RuntimeError("submit answered {}: {}".format(status, body))
        job = json.loads(body)["job"]
        finish = client.wait_finished(job)
        finished = time.perf_counter()
        report_path = "/v1/jobs/{}/report".format(job)
        paths = {"status": "/v1/jobs/{}".format(job), "report": report_path}
        cold_started = time.perf_counter()
        _, cold_report = client.call("GET", report_path)
        cold_ms = 1e3 * (time.perf_counter() - cold_started)
        latencies, replies = [], []
        for index in range(POLLS):
            kind = POLL_CYCLE[index % len(POLL_CYCLE)]
            request_started = time.perf_counter()
            _, data = client.call("GET", paths[kind])
            latencies.append(1e3 * (time.perf_counter() - request_started))
            replies.append((kind, data))
    finally:
        if tracer is not None:
            tracer.remove()

    # -- correctness, outside every timed region ---------------------------
    directory = os.path.join(root, TENANT, job.rpartition("-")[2])
    manifest = load_manifest(directory)
    entries = manifest["experiments"]
    failed = sum(entry["status"] != STATUS_COMPLETE for entry in entries)
    expected = (json.dumps(campaign_report_document(directory), indent=2,
                           sort_keys=True) + "\n").encode()
    failed += cold_report != expected
    for kind, data in replies:
        if kind == "report":
            failed += data != expected
        else:
            failed += json.loads(data).get("phase") != "complete"
    failed += finish is None or finish.get("state") != "complete"
    records = []
    for entry in entries:
        history = load_history_document(
            os.path.join(directory, entry["name"] + ".json"))
        records.extend(history["records"])
    factors = [entry["summary"]["improvement_factor"] for entry in entries
               if entry.get("summary")]
    utilization = [sum(entry["summary"]["worker_utilization"])
                   / len(entry["summary"]["worker_utilization"])
                   for entry in entries if entry.get("summary")]
    campaign = {
        "job": job,
        "seeds": seeds,
        "loop_s": finished - started,
        "cold_ms": cold_ms,
        "latencies_ms": latencies,
        "steps_ms": trial_steps_ms(checkpoints[mark:]),
        "state_bytes": tree_bytes(directory),
        "improvement_factor": median(factors),
        "digest": records_digest(records),
        "attempted": client.requests - before[0] + len(entries),
        "failed": client.failures - before[1] + failed,
    }
    if tracer is not None:
        loop_spans = spans_between(tracer.spans, started, finished)
        campaign["layers"] = layer_metrics(
            tracer.spans, loop_spans, tracer.counts, finished - started,
            {"report_cache_hits": service.reports.hits - hits,
             "report_cache_misses": service.reports.misses - misses,
             "submit_ms": 1e3 * (submitted - started),
             "utilization": sum(utilization) / len(utilization)})
    shutil.rmtree(directory)
    return campaign


def run(workload: str, seed: int, seconds: float, trace: bool,
        workdir: str) -> Dict[str, Any]:
    steps_per_campaign = 8 * (ITERATIONS - 1)
    quality_campaigns = -(-samples_for_tail(TAIL_PCT) // steps_per_campaign)
    budget = Budget(seconds, 1 if trace else quality_campaigns)
    seeds = session_seeds(seed, 2000)
    setups = [time_setup(workdir) for _ in range(SETUP_REPEATS)]

    # the step clock: the service's own session observer, timed on its class
    checkpoints: List[Tuple[int, float]] = []
    clock = Tracer()
    clock.install(EventBridgeObserver, "on_checkpoint", None,
                  lambda counts, args, result: checkpoints.append(
                      (len(args[1].history), time.perf_counter())))

    root = tempfile.mkdtemp(dir=workdir)
    service = TuningService(root, workers=1)
    server = TuningServer(service)
    thread = server.serve_in_thread()
    client = Client(*server.address)
    campaigns: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    attempted = failed = 0
    try:
        run_campaign(client, service, root, seeds[-2:], 5,
                     checkpoints)  # warm-up
        while budget.another():
            started = time.perf_counter()
            pair = seeds[2 * len(budget.durations):][:2]
            try:
                campaign = run_campaign(client, service, root, pair,
                                        ITERATIONS, checkpoints)
                if trace:
                    shadow = run_campaign(client, service, root, pair,
                                          ITERATIONS, checkpoints, Tracer())
                    # tracing must not perturb the program: same records
                    failed += shadow["digest"] != campaign["digest"]
                    attempted += shadow["attempted"]
                    failed += shadow["failed"]
                    shadow["layers"]["trace.overhead_s"] = (
                        shadow["loop_s"] - campaign["loop_s"])
                    traced.append(shadow)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                attempted += 1
                failed += 1
                budget.record(started)
                continue
            attempted += campaign["attempted"]
            failed += campaign["failed"]
            campaigns.append(campaign)
            budget.record(started)
    finally:
        clock.remove()
        server.shutdown()
        thread.join(timeout=30)
    if not campaigns:
        raise RuntimeError("no campaign completed")

    latencies = [value for campaign in campaigns
                 for value in campaign["latencies_ms"]]
    steps = [value for campaign in campaigns
             for value in campaign["steps_ms"]]
    quality = campaigns[:quality_campaigns]
    detail = {
        "campaigns": [{key: campaign[key] for key in
                       ("job", "seeds", "loop_s", "cold_ms", "state_bytes",
                        "improvement_factor", "digest")}
                      for campaign in campaigns],
        "steps": len(steps),
        "tail_percentile": TAIL_PCT,
        "requests": len(latencies),
        "request_p50_ms": median(latencies),
        "request_tail_ms": percentile(latencies, POLL_TAIL_PCT),
        "request_tail_percentile": POLL_TAIL_PCT,
        "setups": len(setups),
        "iterations": ITERATIONS,
    }
    if trace:
        metrics = {name: median([campaign["layers"][name]
                                 for campaign in traced])
                   for name in traced[0]["layers"]}
    else:
        metrics = {
            "setup_s": median(setups),
            "loop_s": median([c["loop_s"] for c in campaigns]),
            "step_p50_ms": median(steps),
            "step_tail_ms": percentile(steps, TAIL_PCT),
            "state_mb": median([c["state_bytes"] for c in quality]) / 1e6,
            "improvement_factor": median([c["improvement_factor"]
                                          for c in quality]),
        }
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "detail": detail}
