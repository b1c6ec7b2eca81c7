"""Where the benchmark opens spans, and how spans become per-layer metrics.

A layer is named after the module that owns it.  Every traced run reports
the same metric set (a layer a workload never calls reads 0 there); the
README maps each metric to the end-to-end metric it should move.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, List, Sequence, Tuple

from tracer import Span, Tracer, self_times

#: per-layer metrics in report order: (name, unit).  Every ``*_s`` time is
#: a self time (children removed); ``other_s`` is the end-to-end loop time
#: no span covers.
PER_LAYER: List[Tuple[str, str]] = [
    ("deeptune.propose_s", "s"),
    ("search.sample_s", "s"),
    ("search.sample_calls", "count"),
    ("config.encode_s", "s"),
    ("config.encode_rows", "count"),
    ("config.cache_hit_ratio", "ratio"),
    ("deeptune.pool_unique_ratio", "ratio"),
    ("deeptune.predict_s", "s"),
    ("deeptune.predict_rows", "count"),
    ("deeptune.score_s", "s"),
    ("deeptune.train_s", "s"),
    ("deeptune.train_calls", "count"),
    ("deeptune.observe_s", "s"),
    ("results.checkpoint_s", "s"),
    ("results.serialize_s", "s"),
    ("results.write_s", "s"),
    ("results.saves", "count"),
    ("results.bytes_per_save", "B"),
    ("results.load_s", "s"),
    ("results.restore_s", "s"),
    ("trialstore.append_s", "s"),
    ("trialstore.rows", "count"),
    ("history.ingest_s", "s"),
    ("executor.evaluate_s", "s"),
    ("executor.trials", "count"),
    ("executor.crash_share", "ratio"),
    ("executor.virtual_s", "sim_s"),
    ("executor.utilization", "ratio"),
    ("campaign.manifest_ops", "count"),
    ("campaign.manifest_s", "s"),
    ("analysis.report_s", "s"),
    ("service.publish_s", "s"),
    ("service.cache_hits", "count"),
    ("service.cache_misses", "count"),
    ("service.submit_ms", "ms"),
    ("service.queue_wait_ms", "ms"),
    ("other_s", "s"),
    ("trace.overhead_s", "s"),
]

#: span names whose self time is reported as ``<span>_s``.
_TIMED_SPANS = ("deeptune.propose", "search.sample", "config.encode",
                "deeptune.predict", "deeptune.score", "deeptune.train",
                "deeptune.observe", "results.checkpoint", "results.serialize",
                "results.write", "results.load", "results.restore",
                "trialstore.append", "history.ingest", "executor.evaluate",
                "campaign.manifest", "analysis.report", "service.publish")


# -- counters (run after the wrapped call returns, outside its span) ---------
def _rows_returned(counts, args, result) -> None:
    counts["config.encode_rows"] += len(result)


def _one_row(counts, args, result) -> None:
    counts["config.encode_rows"] += 1


def _predict_rows(counts, args, result) -> None:
    counts["deeptune.predict_rows"] += len(result)


def _checkpoint_bytes(counts, args, result) -> None:
    counts["results.bytes"] += os.path.getsize(result)


def _rows_appended(counts, args, result) -> None:
    counts["trialstore.rows"] += len(args[1])


def _trial_outcome(counts, args, result) -> None:
    counts["executor.crashes"] += bool(result.crashed)
    counts["executor.virtual_s"] += result.duration_s


def _job_started(counts, args, result) -> None:
    if args[1].get("event") == "job-started":
        counts["service.started_at"] = time.perf_counter()


def _job_enqueued(counts, args, result) -> None:
    counts["service.enqueued_at"] = time.perf_counter()


def install_layers(tracer: Tracer) -> None:
    """Wrap each layer's public entry points on its class or module."""
    import repro.analysis.campaign_report as campaign_report
    import repro.core.wayfinder as wayfinder
    import repro.deeptune.algorithm as deeptune_algorithm
    import repro.platform.campaign_runner as campaign_runner
    import repro.platform.results as results
    from repro.config.encoding import ConfigEncoder
    from repro.deeptune.model import DeepTuneModel
    from repro.platform.history import ExplorationHistory
    from repro.platform.pipeline import BenchmarkingPipeline
    from repro.platform.trialstore import TrialStoreWriter
    from repro.search.base import ConfigurationSampler
    from repro.service.events import JobEventBus
    from repro.service.queue import JobQueue

    search = deeptune_algorithm.DeepTuneSearch
    install = tracer.install
    install(search, "propose_batch", "deeptune.propose")
    install(search, "propose", "deeptune.propose")
    install(ConfigurationSampler, "sample", "search.sample")
    install(ConfigurationSampler, "mutate", "search.sample")
    install(ConfigEncoder, "encode_batch", "config.encode", _rows_returned)
    install(ConfigEncoder, "encode", "config.encode", _one_row)
    install(DeepTuneModel, "predict", "deeptune.predict", _predict_rows)
    install(deeptune_algorithm, "score_candidates", "deeptune.score")
    install(search, "observe", "deeptune.observe")
    install(DeepTuneModel, "fit_incremental", "deeptune.train")
    install(results.SessionCheckpointer, "save", "results.checkpoint")
    install(results.SessionCheckpointer, "build_document", "results.serialize")
    install(results.ResultsStore, "save_checkpoint", "results.write",
            _checkpoint_bytes)
    # Wayfinder.resume calls the names it imported, so both bindings.
    install(results, "load_checkpoint_file", "results.load")
    install(wayfinder, "load_checkpoint_file", "results.load")
    install(wayfinder, "restore_search_session", "results.restore")
    install(TrialStoreWriter, "extend", "trialstore.append", _rows_appended)
    install(TrialStoreWriter, "flush", "trialstore.append")
    install(ExplorationHistory, "add_batch", "history.ingest")
    install(BenchmarkingPipeline, "evaluate", "executor.evaluate",
            _trial_outcome)
    install(campaign_runner, "load_manifest", "campaign.manifest")
    install(campaign_runner, "atomic_write_text", "campaign.manifest")
    install(campaign_report, "campaign_report_document", "analysis.report")
    install(JobEventBus, "publish", "service.publish", _job_started)
    install(JobQueue, "enqueue", None, _job_enqueued)


def layer_metrics(spans: Sequence[Span], loop_spans: Sequence[Span],
                  counts: Dict[str, float], loop_s: float,
                  extra: Dict[str, Any]) -> Dict[str, float]:
    """Every per-layer metric of one traced session.

    *spans* are all spans of the session, *loop_spans* those inside the
    end-to-end loop window of *loop_s* seconds.  *extra* carries values
    read from the program's own counters after the session (encoder cache
    hits/misses, candidate pool size, worker utilization, report cache
    hits/misses, POST latency).  ``trace.overhead_s`` needs the untraced
    twin of the session, so the caller fills it in.
    """
    seconds, calls = self_times(spans)
    loop_seconds, _ = self_times(loop_spans)
    values = {name + "_s": seconds.get(name, 0.0) for name in _TIMED_SPANS}
    lookups = extra.get("cache_hits", 0) + extra.get("cache_misses", 0)
    predicts = calls.get("deeptune.predict", 0)
    saves = calls.get("results.write", 0)
    trials = calls.get("executor.evaluate", 0)
    values.update({
        "search.sample_calls": calls.get("search.sample", 0),
        "config.encode_rows": counts.get("config.encode_rows", 0),
        "config.cache_hit_ratio": (extra.get("cache_hits", 0) / lookups
                                   if lookups else 0.0),
        "deeptune.pool_unique_ratio": (
            counts.get("deeptune.predict_rows", 0)
            / (predicts * extra["pool_size"]) if predicts else 0.0),
        "deeptune.predict_rows": counts.get("deeptune.predict_rows", 0),
        "deeptune.train_calls": calls.get("deeptune.train", 0),
        "results.saves": saves,
        "results.bytes_per_save": (counts.get("results.bytes", 0) / saves
                                   if saves else 0.0),
        "trialstore.rows": counts.get("trialstore.rows", 0),
        "executor.trials": trials,
        "executor.crash_share": (counts.get("executor.crashes", 0) / trials
                                 if trials else 0.0),
        "executor.virtual_s": counts.get("executor.virtual_s", 0.0),
        "executor.utilization": extra.get("utilization", 0.0),
        "campaign.manifest_ops": calls.get("campaign.manifest", 0),
        "service.cache_hits": extra.get("report_cache_hits", 0),
        "service.cache_misses": extra.get("report_cache_misses", 0),
        "service.submit_ms": extra.get("submit_ms", 0.0),
        "service.queue_wait_ms": (
            1e3 * (counts["service.started_at"] - counts["service.enqueued_at"])
            if "service.started_at" in counts else 0.0),
        "other_s": loop_s - sum(loop_seconds.values()),
        "trace.overhead_s": 0.0,
    })
    return {name: float(values[name]) for name, _ in PER_LAYER}
