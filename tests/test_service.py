"""Tests for the tuning service: the HTTP/JSON control plane.

Covers the pieces bottom-up — event bus fan-out, per-tenant FIFO queue —
then the HTTP surface end to end against an in-thread server (submission,
structured 400s, NDJSON event streaming, report equality with the CLI),
the manifest-only restart recovery (in-process and across real server
processes with a mid-campaign ``SIGKILL``), and the dict-payload
validation the API surfaces as 400 bodies.
"""

from __future__ import annotations

import contextlib
import http.client
import io
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time
import urllib.error
import urllib.request

import pytest

from repro.core.campaign import CampaignSpec
from repro.core.spec import ExperimentSpec
from repro.platform.campaign_runner import CampaignRunner, load_manifest
from repro.service.events import EventBridgeObserver, JobEventBus
from repro.service.queue import JobQueue
from repro.service.server import TuningServer, TuningService

from tests.conftest import SMALL_SPACE_OPTIONS
from tests.test_chaos import history_bytes

BASE = {"metric": "auto", "iterations": 4,
        "space_options": SMALL_SPACE_OPTIONS}


def tiny_campaign_payload(name, iterations=4, algorithms=("random",)):
    return {"name": name, "applications": ["nginx"],
            "algorithms": list(algorithms), "seeds": [3],
            "base": dict(BASE, iterations=iterations)}


def http_json(url, payload=None, method=None):
    """One JSON request; returns (status, parsed body)."""
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(url, data=data, method=method)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def read_events(url, **params):
    query = "&".join("{}={}".format(k, v) for k, v in params.items())
    with urllib.request.urlopen(url + ("?" + query if query else ""),
                                timeout=60) as response:
        return [json.loads(line) for line in response]


class TestJobEventBus:
    def test_replay_then_live_then_sentinel(self):
        bus = JobEventBus()
        bus.publish({"event": "a"})
        subscriber = bus.subscribe()
        bus.publish({"event": "b"})
        bus.close({"event": "end"})
        events = []
        while True:
            item = subscriber.get(timeout=1)
            if item is None:
                break
            events.append(item)
        assert [e["event"] for e in events] == ["a", "b", "end"]
        # sequence numbers are global and ordered
        assert [e["seq"] for e in events] == [0, 1, 2]

    def test_late_subscriber_gets_replay_and_immediate_close(self):
        bus = JobEventBus()
        bus.publish({"event": "a"})
        bus.close()
        subscriber = bus.subscribe()
        assert subscriber.get(timeout=1)["event"] == "a"
        assert subscriber.get(timeout=1) is None

    def test_publish_after_close_is_dropped(self):
        bus = JobEventBus()
        bus.close()
        bus.publish({"event": "late"})
        assert bus.subscribe().get(timeout=1) is None

    def test_replay_buffer_is_bounded(self):
        bus = JobEventBus(replay_limit=3)
        for index in range(10):
            bus.publish({"event": "e{}".format(index)})
        subscriber = bus.subscribe()
        replayed = [subscriber.get_nowait()["event"] for _ in range(3)]
        assert replayed == ["e7", "e8", "e9"]

    def test_observer_bridges_session_callbacks(self):
        bus = JobEventBus()
        observer = EventBridgeObserver(bus, "exp-1")
        subscriber = bus.subscribe()

        class FakeStage:
            value = "benchmark"

        class FakeRecord:
            index = 5
            objective = 123.0
            crashed = False
            failure_stage = FakeStage()
            duration_s = 1.5
            worker = 2

        observer.on_dispatch(None, None, worker=1)
        observer.on_trial(None, FakeRecord())
        events = [subscriber.get_nowait() for _ in range(2)]
        assert events[0]["event"] == "dispatch"
        assert events[0]["experiment"] == "exp-1"
        assert events[1] == {"event": "trial", "experiment": "exp-1",
                             "trial": 5, "objective": 123.0, "crashed": False,
                             "failure_stage": "benchmark", "duration_s": 1.5,
                             "worker": 2, "seq": 1}


class TestJobQueue:
    def test_fifo_within_tenant_round_robin_across(self):
        import threading

        order = []
        gate = threading.Event()

        def execute(tenant, job_id):
            gate.wait(timeout=5)
            order.append(job_id)

        queue = JobQueue(execute, workers=1)
        # enqueue before releasing the gate so ordering is fully queued
        for job in ("a-0", "a-1", "b-0", "a-2", "b-1"):
            queue.enqueue(job.split("-")[0], job)
        gate.set()
        deadline = time.time() + 10
        while len(order) < 5 and time.time() < deadline:
            time.sleep(0.01)
        queue.shutdown()
        assert len(order) == 5
        # within each tenant strict submission order
        assert [j for j in order if j.startswith("a")] == ["a-0", "a-1", "a-2"]
        assert [j for j in order if j.startswith("b")] == ["b-0", "b-1"]
        # across tenants round-robin: b gets a turn before a drains
        assert order.index("b-0") < order.index("a-2")

    def test_execute_errors_are_captured_not_fatal(self):
        done = []

        def execute(tenant, job_id):
            if job_id == "t-bad":
                raise RuntimeError("boom")
            done.append(job_id)

        queue = JobQueue(execute, workers=1)
        queue.enqueue("t", "t-bad")
        queue.enqueue("t", "t-good")
        deadline = time.time() + 10
        while not done and time.time() < deadline:
            time.sleep(0.01)
        queue.shutdown()
        assert done == ["t-good"]
        assert "boom" in queue.last_error("t-bad")
        assert queue.last_error("t-good") is None


@pytest.fixture
def service_root(tmp_path):
    return str(tmp_path / "service-results")


@pytest.fixture
def server(service_root):
    service = TuningService(service_root, workers=1)
    server = TuningServer(service, port=0)
    server.serve_in_thread()
    yield server
    server.shutdown()


def wait_for_phase(base, job, phase, timeout_s=60.0):
    deadline = time.time() + timeout_s
    while time.time() < deadline:
        status, body = http_json("{}/v1/jobs/{}".format(base, job))
        assert status == 200
        if body["phase"] == phase:
            return body
        time.sleep(0.05)
    raise AssertionError("job {} never reached phase {!r}".format(job, phase))


class TestHttpApi:
    def test_submit_campaign_stream_events_and_report(self, server,
                                                      service_root):
        base = server.url
        iterations = 4
        status, submitted = http_json(
            base + "/v1/campaigns",
            {"tenant": "acme",
             "campaign": tiny_campaign_payload("svc", iterations)})
        assert status == 201
        job = submitted["job"]
        assert job == "acme-000000"
        assert submitted["experiments"] == ["svc-nginx-random-s3"]

        # the event stream ends when the job does; at least one event per
        # trial is the acceptance bar — here it is exactly one "trial"
        # event per trial plus the lifecycle framing
        events = read_events("{}/v1/jobs/{}/events".format(base, job),
                             timeout_s=60)
        kinds = [event["event"] for event in events]
        assert kinds[0] == "job-started"
        assert kinds[-1] == "job-finished"
        assert kinds.count("trial") == iterations
        assert "experiment-claimed" in kinds
        assert "experiment-finished" in kinds
        trial_events = [e for e in events if e["event"] == "trial"]
        assert [e["trial"] for e in trial_events] == list(range(iterations))
        assert all(e["experiment"] == "svc-nginx-random-s3"
                   for e in trial_events)
        # a late subscriber replays the identical stream
        assert read_events("{}/v1/jobs/{}/events".format(base, job),
                           timeout_s=5) == events

        body = wait_for_phase(base, job, "complete")
        assert body["state"] == "complete"
        assert [e["status"] for e in body["experiments"]] == ["complete"]

        # /report is byte-identical to `campaign report --json`
        directory = os.path.join(service_root, "acme", "000000")
        with urllib.request.urlopen(
                "{}/v1/jobs/{}/report".format(base, job)) as response:
            http_report = response.read().decode()
        from repro.cli import main

        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            assert main(["campaign", "report", "--results", directory,
                         "--json"]) == 0
        assert buffer.getvalue() == http_report
        document = json.loads(http_report)
        assert document["campaign"] == "svc"
        assert document["status"] == {"complete": 1}

    def test_submit_experiment_wraps_into_campaign(self, server):
        base = server.url
        status, submitted = http_json(
            base + "/v1/experiments",
            {"spec": dict(BASE, application="redis", algorithm="random",
                          metric="latency", seed=7)})
        assert status == 201
        assert submitted["kind"] == "experiment"
        job = submitted["job"]
        assert job.startswith("default-")
        body = wait_for_phase(base, job, "complete")
        [experiment] = body["experiments"]
        assert experiment["status"] == "complete"
        assert experiment["error"] is None

    def test_validation_errors_are_structured_400s(self, server):
        base = server.url
        cases = [
            ("/v1/experiments", {"spec": {"seed": "three"}},
             "spec field 'seed' must be an integer (got str 'three')"),
            ("/v1/experiments", {"spec": {"bogus": 1}},
             "unknown spec fields: bogus"),
            ("/v1/experiments", {"spec": ["not", "a", "dict"]},
             "spec payload must be a JSON object (got list)"),
            ("/v1/campaigns", {"campaign": {"name": "x",
                                            "applications": "nginx"}},
             "campaign field 'applications' must be a list (got str 'nginx')"),
            ("/v1/campaigns", {"campaign": {"applications": ["nginx"]}},
             "a campaign needs a name"),
            ("/v1/campaigns",
             {"campaign": {"name": "x", "base": {"iterations": "six"}}},
             "spec field 'iterations' must be an integer (got str 'six')"),
        ]
        for path, payload, message in cases:
            status, body = http_json(base + path, payload)
            assert status == 400, (path, payload, body)
            assert body["error"] == message

    def test_request_level_errors(self, server):
        base = server.url
        status, body = http_json(base + "/v1/jobs/acme-000099")
        assert status == 404
        status, body = http_json(base + "/v1/jobs/not-a-job/report")
        assert status == 404
        status, body = http_json(base + "/v1/nope")
        assert status == 404
        status, body = http_json(base + "/v1/experiments",
                                 {"spec": {}, "surprise": 1})
        assert status == 400 and "surprise" in body["error"]
        status, body = http_json(base + "/v1/experiments", {})
        assert status == 400 and "'spec' required" in body["error"]
        # malformed JSON body
        request = urllib.request.Request(base + "/v1/experiments",
                                         data=b"{nope")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        status, body = http_json(base + "/v1/health")
        assert status == 200 and body == {"status": "ok"}

    def test_jobs_listing(self, server):
        base = server.url
        status, body = http_json(base + "/v1/jobs")
        assert status == 200 and body["jobs"] == []
        http_json(base + "/v1/campaigns",
                  {"tenant": "acme", "campaign": tiny_campaign_payload("l1")})
        status, body = http_json(base + "/v1/jobs")
        assert [job["job"] for job in body["jobs"]] == ["acme-000000"]
        assert body["jobs"][0]["campaign"] == "l1"

    def test_keep_alive_replies_do_not_stall(self, server):
        """Headers and body of a reply go out together on a reused connection.

        With Nagle's algorithm on, the body write waits for the client's
        delayed ACK of the headers, adding ~40 ms to every keep-alive request.
        """
        host, port = server.address
        connection = http.client.HTTPConnection(host, port, timeout=10)
        latencies = []
        try:
            for _ in range(20):
                started = time.perf_counter()
                connection.request("GET", "/v1/health")
                response = connection.getresponse()
                assert response.status == 200
                assert json.loads(response.read()) == {"status": "ok"}
                latencies.append(time.perf_counter() - started)
        finally:
            connection.close()
        assert statistics.median(latencies) < 0.010


class TestRecovery:
    def test_restart_recovers_queued_manifest_and_sweeps_tmp(self,
                                                             service_root):
        # a previous server prepared a job but died before running it;
        # its crash left an orphaned staging file behind
        campaign = CampaignSpec.from_dict(tiny_campaign_payload("rec"))
        directory = os.path.join(service_root, "acme", "000000")
        CampaignRunner(campaign, directory, procs=1).prepare()
        stale = os.path.join(directory, "rec-nginx-random-s3.json.99999.tmp")
        with open(stale, "w") as handle:
            handle.write("{")

        service = TuningService(service_root, workers=1)
        try:
            assert service._recovered == ["acme-000000"]
            assert not os.path.exists(stale)  # pid 99999 is not running
            deadline = time.time() + 60
            while time.time() < deadline:
                if load_manifest(directory)["state"] == "complete":
                    break
                time.sleep(0.05)
            assert load_manifest(directory)["state"] == "complete"
            # a fresh submission from the same tenant continues the sequence
            submitted = service.submit_campaign(
                "acme", tiny_campaign_payload("rec2"))
            assert submitted["job"] == "acme-000001"
        finally:
            service.shutdown()

    def test_completed_jobs_are_not_re_enqueued(self, service_root):
        service = TuningService(service_root, workers=1)
        try:
            job = service.submit_campaign(
                "acme", tiny_campaign_payload("done"))["job"]
            directory = os.path.join(service_root, "acme", "000000")
            deadline = time.time() + 60
            while time.time() < deadline:
                if load_manifest(directory)["state"] == "complete":
                    break
                time.sleep(0.05)
        finally:
            service.shutdown()
        second = TuningService(service_root, workers=1)
        try:
            assert second._recovered == []
            # manifest facts still served for pre-restart jobs
            status = second.job_status(job)
            assert status["phase"] == "complete"
            bus = second.job_events(job)
            subscriber = bus.subscribe()
            final = subscriber.get(timeout=1)
            assert final["event"] == "job-finished"
            assert subscriber.get(timeout=1) is None
        finally:
            second.shutdown()


def _spawn_server(results_root, *extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--results",
         results_root, "--port", "0", "--workers", "1", *extra],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env)
    base = None
    deadline = time.time() + 60
    while time.time() < deadline:
        line = process.stdout.readline()
        if not line:
            break
        if line.startswith("listening on "):
            base = line.split("listening on ", 1)[1].strip()
            break
    if base is None:
        process.kill()
        raise AssertionError("server never announced its address")
    return process, base


class TestServerProcessRestart:
    def test_sigkill_mid_campaign_then_restart_completes_bit_exact(
            self, tmp_path):
        """The acceptance-criteria restart test: a server killed mid-campaign
        loses nothing — a fresh ``repro serve`` on the same results root
        recovers the job from its manifest and drives it to records
        byte-identical to an uninterrupted run."""
        root = str(tmp_path / "root")
        payload = tiny_campaign_payload("restart", iterations=12)
        process, base = _spawn_server(root, "--lease-s", "0.5")
        try:
            status, submitted = http_json(
                base + "/v1/campaigns",
                {"tenant": "acme", "campaign": payload})
            assert status == 201
            job = submitted["job"]
            # follow the live stream until the search is demonstrably mid-
            # flight (two trials committed), then kill -9 the server
            with urllib.request.urlopen(
                    "{}/v1/jobs/{}/events".format(base, job),
                    timeout=60) as stream:
                trials = 0
                for line in stream:
                    if json.loads(line)["event"] == "trial":
                        trials += 1
                        if trials >= 2:
                            break
        finally:
            os.kill(process.pid, signal.SIGKILL)
            process.wait(timeout=10)

        process, base = _spawn_server(root, "--lease-s", "0.5")
        try:
            body = wait_for_phase(base, job, "complete", timeout_s=120)
            assert [e["status"] for e in body["experiments"]] == ["complete"]
        finally:
            process.terminate()
            process.wait(timeout=10)

        # reference: the same campaign run uninterrupted, no service involved
        campaign = CampaignSpec.from_dict(payload)
        reference_dir = str(tmp_path / "reference")
        result = CampaignRunner(campaign, reference_dir, procs=1).run()
        assert result.ok
        job_dir = os.path.join(root, "acme", "000000")
        assert history_bytes(job_dir, campaign) == history_bytes(
            reference_dir, campaign)


class TestPayloadHardening:
    """Satellite: malformed dicts name the offending key and expected type."""

    def test_spec_field_type_errors(self):
        cases = [
            ({"seed": "three"},
             "spec field 'seed' must be an integer (got str 'three')"),
            ({"seed": True},
             "spec field 'seed' must be an integer (got bool True)"),
            ({"iterations": 2.5},
             "spec field 'iterations' must be an integer (got float 2.5)"),
            ({"enable_skip_build": "yes"},
             "spec field 'enable_skip_build' must be a boolean "
             "(got str 'yes')"),
            ({"frozen": ["a"]},
             "spec field 'frozen' must be an object (got list ['a'])"),
            ({"application": 7},
             "spec field 'application' must be a string (got int 7)"),
        ]
        for payload, message in cases:
            with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
                ExperimentSpec.from_dict(payload)

    def test_spec_nullable_fields_accept_null(self):
        spec = ExperimentSpec.from_dict(
            {"iterations": None, "favor": None, "time_budget_s": None,
             "frozen": None})
        assert spec.iterations is None and spec.favor is None

    def test_spec_payload_must_be_object(self):
        with pytest.raises(ValueError,
                           match="spec payload must be a JSON object"):
            ExperimentSpec.from_dict([1, 2])

    def test_campaign_axes_must_be_lists(self):
        with pytest.raises(ValueError,
                           match="campaign field 'applications' must be a "
                                 "list"):
            CampaignSpec(name="x", applications="nginx")
        with pytest.raises(ValueError,
                           match="campaign field 'seeds' must be a list of "
                                 "integers"):
            CampaignSpec(name="x", seeds=["zero"])
        with pytest.raises(ValueError,
                           match="campaign field 'algorithms' must be a "
                                 "list"):
            CampaignSpec(name="x", algorithms="random")
        with pytest.raises(ValueError,
                           match="campaign field 'base' must be an object"):
            CampaignSpec(name="x", base="iterations")
        with pytest.raises(ValueError,
                           match="campaign field 'overrides' must be a "
                                 "list"):
            CampaignSpec(name="x", overrides={"set": {}})
        with pytest.raises(ValueError,
                           match="campaign field 'name' must be a non-empty "
                                 "string"):
            CampaignSpec(name=7)

    def test_campaign_base_fields_type_checked(self):
        with pytest.raises(ValueError,
                           match="spec field 'iterations' must be an "
                                 "integer"):
            CampaignSpec(name="x", base={"iterations": "six"})

    def test_campaign_payload_must_be_object(self):
        with pytest.raises(ValueError,
                           match="campaign payload must be a JSON object"):
            CampaignSpec.from_dict(["x"])

    def test_round_trip_still_works(self):
        campaign = CampaignSpec.from_dict(tiny_campaign_payload("rt"))
        assert CampaignSpec.from_dict(campaign.to_dict()) == campaign
        spec = campaign.expand()[0]
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec


class TestReportDocument:
    """Satellite: machine-readable report pinned content-equal to the text."""

    def _campaign_dir(self, tmp_path):
        campaign = CampaignSpec.from_dict(
            tiny_campaign_payload("doc", algorithms=("random", "grid")))
        directory = str(tmp_path / "campaign")
        assert CampaignRunner(campaign, directory, procs=1).run().ok
        return directory

    def test_document_matches_rendered_tables(self, tmp_path):
        from repro.analysis.campaign_report import (
            best_objective_table, campaign_report_document, load_campaign,
            render_campaign_report, time_to_best_table)

        directory = self._campaign_dir(tmp_path)
        document = campaign_report_document(directory)
        results = load_campaign(directory)

        # every numeric cell of the text tables is the formatted twin of
        # the document's raw value
        text = best_objective_table(results)
        for row in document["best_objective"]["rows"]:
            assert row[0] in text
            for value in row[1:]:
                assert "{:.2f}".format(value) in text
        text = time_to_best_table(results)
        for row in document["time_to_best"]["rows"]:
            algorithm, experiments, ttb_h, improvement, crash, util = row
            assert algorithm in text
            assert "{:.2f}".format(ttb_h) in text
            assert "{:.2f}x".format(improvement) in text
        assert document["status"] == {"complete": 2}
        assert document["experiments"] == 2
        assert [series["algorithm"]
                for series in document["per_iteration_cost"]] == \
            ["random", "grid"]
        for series in document["per_iteration_cost"]:
            assert len(series["points"]) == 4
        assert document["failed"]["rows"] == []
        # the full text report still renders (shared documents underneath)
        assert "mean best objective" in render_campaign_report(directory)

    def test_document_is_json_round_trippable(self, tmp_path):
        from repro.analysis.campaign_report import campaign_report_document

        directory = self._campaign_dir(tmp_path)
        document = campaign_report_document(directory)
        assert json.loads(json.dumps(document)) == document


def fake_job(root, tenant, seq, campaign="camp", state="complete"):
    """A minimal complete on-disk job: directory + loadable manifest."""
    from repro.platform.campaign_runner import MANIFEST_FORMAT_VERSION

    directory = os.path.join(root, tenant, "{:06d}".format(seq))
    os.makedirs(directory, exist_ok=True)
    manifest = {"kind": "campaign",
                "format_version": MANIFEST_FORMAT_VERSION,
                "campaign": {"name": campaign}, "invocation": None,
                "experiments": [], "state": state}
    with open(os.path.join(directory, "campaign.json"), "w") as handle:
        json.dump(manifest, handle)
    return directory


class TestJobsPagination:
    def _service(self, service_root, jobs=7):
        for seq in range(jobs):
            tenant = "acme" if seq % 2 == 0 else "zeta"
            fake_job(service_root, tenant, seq, campaign="c{}".format(seq))
        service = TuningService(service_root, workers=1)
        service.shutdown()  # listing is disk-driven; no workers needed
        return service

    def test_stable_tenant_then_sequence_order(self, service_root):
        service = self._service(service_root)
        body = service.list_jobs()
        assert [job["job"] for job in body["jobs"]] == [
            "acme-000000", "acme-000002", "acme-000004", "acme-000006",
            "zeta-000001", "zeta-000003", "zeta-000005"]
        assert body["total"] == 7 and body["offset"] == 0
        assert "limit" not in body

    def test_offset_and_limit_slice_the_listing(self, service_root):
        service = self._service(service_root)
        everything = [job["job"] for job in service.list_jobs()["jobs"]]
        body = service.list_jobs(offset=2, limit=3)
        assert [job["job"] for job in body["jobs"]] == everything[2:5]
        assert body["total"] == 7
        assert body["offset"] == 2 and body["limit"] == 3
        # walking pages tiles the full listing with no gaps or overlaps
        paged = []
        for offset in range(0, 7, 3):
            paged.extend(job["job"] for job in
                         service.list_jobs(offset=offset, limit=3)["jobs"])
        assert paged == everything
        # past-the-end pages are empty, not errors
        assert service.list_jobs(offset=99, limit=3)["jobs"] == []

    def test_http_pagination_and_validation(self, server, service_root):
        base = server.url
        for seq in range(3):
            fake_job(service_root, "acme", seq)
        status, body = http_json(base + "/v1/jobs?offset=1&limit=1")
        assert status == 200
        assert [job["job"] for job in body["jobs"]] == ["acme-000001"]
        assert body["total"] == 3
        # malformed or out-of-range parameters are structured 400s
        for query in ("offset=abc", "limit=zero", "offset=-1", "limit=0"):
            status, body = http_json(base + "/v1/jobs?" + query)
            assert status == 400, query
            assert "query parameter" in body["error"]


class TestReportCache:
    def test_cache_hits_until_the_manifest_changes(self, tmp_path):
        from repro.service.cache import ReportCache

        manifest = str(tmp_path / "campaign.json")
        with open(manifest, "w") as handle:
            handle.write("{\"v\": 1}")
        cache = ReportCache()
        builds = []

        def build():
            builds.append(1)
            return {"report": len(builds)}

        directory = str(tmp_path)
        assert cache.get(directory, manifest, build) == {"report": 1}
        assert cache.get(directory, manifest, build) == {"report": 1}
        assert len(builds) == 1 and cache.hits == 1
        # any manifest byte change invalidates
        with open(manifest, "w") as handle:
            handle.write("{\"v\": 2}")
        assert cache.get(directory, manifest, build) == {"report": 2}
        assert len(builds) == 2

    def test_lru_eviction_is_bounded(self, tmp_path):
        from repro.service.cache import ReportCache

        cache = ReportCache(capacity=2)
        manifests = []
        for index in range(3):
            manifest = str(tmp_path / "m{}.json".format(index))
            with open(manifest, "w") as handle:
                handle.write("{}")
            manifests.append((str(tmp_path / "d{}".format(index)), manifest))
        for directory, manifest in manifests:
            cache.get(directory, manifest, dict)
        assert cache.misses == 3
        # the oldest entry (d0) was evicted; d2 is still warm
        cache.get(*manifests[2], build=dict)
        assert cache.hits == 1
        cache.get(*manifests[0], build=dict)
        assert cache.misses == 4

    def test_job_report_builds_once_per_manifest_version(self, service_root,
                                                         monkeypatch):
        import repro.analysis.campaign_report as campaign_report

        directory = fake_job(service_root, "acme", 0)
        service = TuningService(service_root, workers=1)
        service.shutdown()
        builds = []

        def counting_document(path):
            builds.append(path)
            return {"document": len(builds)}

        monkeypatch.setattr(campaign_report, "campaign_report_document",
                            counting_document)
        assert service.job_report("acme-000000") == {"document": 1}
        assert service.job_report("acme-000000") == {"document": 1}
        assert builds == [directory]
        # a manifest rewrite (new experiment completed, say) rebuilds
        fake_job(service_root, "acme", 0, campaign="renamed")
        assert service.job_report("acme-000000") == {"document": 2}
        assert len(builds) == 2
