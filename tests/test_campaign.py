"""Campaign expansion, multi-process execution, fault-tolerant resume.

The acceptance bar of the campaign subsystem: per-experiment results are
byte-identical (records and summaries) whatever the process count, and an
interrupted campaign — killed between experiments or mid-experiment with
only a checkpoint on disk — resumed with ``resume=True`` reproduces the
uninterrupted campaign exactly, manifest included.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.config.jobfile import dump_campaign_file, load_campaign_file
from repro.core.campaign import CampaignSpec
from repro.core.spec import ExperimentSpec
from repro.core.wayfinder import Wayfinder
from repro.platform.campaign_runner import (
    CampaignRunner,
    load_manifest,
)
from repro.platform.results import ResultsStore

from tests.conftest import SMALL_SPACE_OPTIONS
from tests.oracles import history_document

#: the 2-app x 2-algorithm x 1-seed grid the determinism tests pin.
GRID_BASE = {"metric": "auto", "iterations": 5,
             "space_options": SMALL_SPACE_OPTIONS}


def make_campaign(name="grid", **kwargs):
    fields = dict(applications=["nginx", "redis"],
                  algorithms=["random", "grid"], seeds=[3], base=GRID_BASE)
    fields.update(kwargs)
    return CampaignSpec(name=name, **fields)


def _file_bytes(directory, name):
    with open(os.path.join(directory, name + ".json"), "rb") as handle:
        return handle.read()


def _result_files(campaign):
    return [spec.name for spec in campaign.expand()] + ["campaign"]


@pytest.fixture(scope="module")
def reference_dir(tmp_path_factory):
    """The uninterrupted single-process campaign every variant must match."""
    directory = str(tmp_path_factory.mktemp("campaign-reference"))
    result = CampaignRunner(make_campaign(), directory, procs=1).run()
    assert result.ok
    return directory


class TestCampaignSpec:
    def test_expansion_order_and_names(self):
        campaign = make_campaign()
        specs = campaign.expand()
        assert [spec.name for spec in specs] == [
            "grid-nginx-random-s3", "grid-nginx-grid-s3",
            "grid-redis-random-s3", "grid-redis-grid-s3"]
        assert len(campaign) == 4
        assert all(spec.iterations == 5 for spec in specs)
        # base fields are shared, axes vary
        assert {spec.application for spec in specs} == {"nginx", "redis"}
        assert {spec.algorithm for spec in specs} == {"random", "grid"}

    def test_expanded_specs_are_plain_experiment_specs(self):
        spec = make_campaign().expand()[0]
        assert isinstance(spec, ExperimentSpec)
        assert spec.to_dict()["name"] == "grid-nginx-random-s3"

    def test_favor_axis(self):
        campaign = make_campaign(favors=["runtime", "none"])
        specs = campaign.expand()
        assert len(specs) == 8
        assert specs[0].name.endswith("-fruntime")
        assert specs[1].name.endswith("-fnone")
        assert specs[0].favor == "runtime"
        assert specs[1].favor is None

    def test_executions_axis(self):
        campaign = make_campaign(executions=["batch", "async"])
        specs = campaign.expand()
        assert len(specs) == 8
        assert specs[0].name.endswith("-xbatch")
        assert specs[1].name.endswith("-xasync")
        assert specs[0].execution == "batch"
        assert specs[1].execution == "async"
        # round-trips like every other axis
        from repro.core.campaign import CampaignSpec

        assert CampaignSpec.from_dict(campaign.to_dict()) == campaign
        # and overrides can match a single execution slice
        sliced = make_campaign(executions=["batch", "async"], overrides=[
            {"match": {"execution": "async"}, "set": {"iterations": 9}}])
        for spec in sliced.expand():
            assert spec.iterations == (9 if spec.execution == "async" else 5)

    def test_executions_axis_validation(self):
        with pytest.raises(ValueError, match="unknown execution"):
            make_campaign(executions=["batch", "eager"])
        with pytest.raises(ValueError, match="repeats"):
            make_campaign(executions=["async", "async"])
        with pytest.raises(ValueError, match="cannot set execution"):
            make_campaign(executions=["batch", "async"],
                          base=dict(GRID_BASE, execution="async"))

    def test_per_axis_overrides(self):
        campaign = make_campaign(overrides=[
            {"match": {"application": "redis"}, "set": {"metric": "latency"}},
            {"match": {"application": "nginx", "algorithm": "grid"},
             "set": {"iterations": 3}},
        ])
        by_name = {spec.name: spec for spec in campaign.expand()}
        assert by_name["grid-redis-random-s3"].metric == "latency"
        assert by_name["grid-nginx-random-s3"].metric == "auto"
        assert by_name["grid-nginx-grid-s3"].iterations == 3
        assert by_name["grid-redis-grid-s3"].iterations == 5

    def test_override_matching_the_unfavored_slice(self):
        # the file spelling "none" matches the normalized favor value None
        campaign = make_campaign(favors=["runtime", "none"], overrides=[
            {"match": {"favor": "none"}, "set": {"iterations": 9}}])
        for spec in campaign.expand():
            assert spec.iterations == (9 if spec.favor is None else 5)

    def test_override_without_favor_axis_may_set_favor(self):
        campaign = make_campaign(overrides=[
            {"match": {"algorithm": "grid"}, "set": {"favor": "none"}}])
        by_name = {spec.name: spec for spec in campaign.expand()}
        assert by_name["grid-nginx-grid-s3"].favor is None
        assert by_name["grid-nginx-random-s3"].favor == "runtime"

    def test_validation(self):
        with pytest.raises(ValueError, match="repeats"):
            make_campaign(applications=["nginx", "nginx"])
        with pytest.raises(ValueError, match="must not be empty"):
            make_campaign(algorithms=[])
        with pytest.raises(ValueError, match="axes"):
            make_campaign(base=dict(GRID_BASE, application="redis"))
        with pytest.raises(ValueError, match="^unknown spec fields: bogus$"):
            make_campaign(base=dict(GRID_BASE, bogus=1))
        with pytest.raises(ValueError, match="favors axis"):
            make_campaign(favors=["runtime"],
                          base=dict(GRID_BASE, favor="boot"))
        with pytest.raises(ValueError, match="match"):
            make_campaign(overrides=[{"match": {"metric": "auto"},
                                      "set": {"iterations": 2}}])
        with pytest.raises(ValueError, match="cannot set"):
            make_campaign(overrides=[{"match": {}, "set": {"seed": 9}}])
        # the grid axes are the campaign's identity: patching them would
        # make the deterministic experiment names lie about what ran
        with pytest.raises(ValueError, match="cannot set"):
            make_campaign(overrides=[{"match": {"algorithm": "grid"},
                                      "set": {"algorithm": "random"}}])
        with pytest.raises(ValueError, match="cannot set"):
            make_campaign(overrides=[{"match": {}, "set": {"application": "redis"}}])
        with pytest.raises(ValueError, match="cannot set"):
            make_campaign(favors=["runtime", "none"],
                          overrides=[{"match": {"algorithm": "grid"},
                                      "set": {"favor": "boot"}}])
        # a match no grid point satisfies would be silently inert
        with pytest.raises(ValueError, match="no grid point"):
            make_campaign(overrides=[{"match": {"application": "sqlite"},
                                      "set": {"iterations": 2}}])
        with pytest.raises(ValueError, match="no grid point"):
            make_campaign(overrides=[{"match": {"favor": "boot"},
                                      "set": {"iterations": 2}}])
        with pytest.raises(ValueError, match="favor preset"):
            make_campaign(favors=["sideways"])
        # an invalid grid point surfaces at construction, not mid-campaign
        with pytest.raises(ValueError, match="unknown algorithm"):
            make_campaign(algorithms=["magic"])

    def test_dict_round_trip(self):
        campaign = make_campaign(favors=["runtime", "none"], overrides=[
            {"match": {"application": "redis"}, "set": {"metric": "latency"}}])
        clone = CampaignSpec.from_dict(campaign.to_dict())
        assert clone == campaign
        assert [s.name for s in clone.expand()] == [s.name
                                                    for s in campaign.expand()]
        with pytest.raises(ValueError, match="unknown campaign fields"):
            CampaignSpec.from_dict(dict(campaign.to_dict(), extra=1))

    def test_yaml_and_json_files_round_trip(self, tmp_path):
        campaign = make_campaign(overrides=[
            {"match": {"application": "redis"}, "set": {"metric": "latency"}}])
        for suffix in (".yaml", ".json"):
            path = str(tmp_path / ("campaign" + suffix))
            dump_campaign_file(campaign, path)
            assert load_campaign_file(path) == campaign

    def test_non_campaign_file_rejected(self, tmp_path):
        path = str(tmp_path / "other.yaml")
        with open(path, "w") as handle:
            handle.write("job:\n  name: not-a-campaign\n")
        with pytest.raises(ValueError, match="campaign"):
            load_campaign_file(path)


class TestCampaignDeterminism:
    def test_procs_do_not_change_results(self, reference_dir, tmp_path):
        """--procs 2 output is byte-identical to --procs 1 (records+summaries)."""
        campaign = make_campaign()
        result = CampaignRunner(campaign, str(tmp_path), procs=2).run()
        assert result.ok
        for name in _result_files(campaign):
            assert _file_bytes(str(tmp_path), name) == \
                _file_bytes(reference_dir, name), name

    @pytest.mark.parametrize("procs", [1, 2])
    def test_interrupted_campaign_resumes_identically(self, procs,
                                                      reference_dir, tmp_path):
        """Kill after 2 completed experiments + mid-way through the 3rd,
        resume, and match the uninterrupted campaign byte for byte."""
        campaign = make_campaign()
        directory = str(tmp_path)
        partial = CampaignRunner(campaign, directory, procs=procs).run(
            max_experiments=2)
        assert len(partial.completed) == 2 and len(partial.pending) == 2

        # simulate a worker killed mid-experiment: the third experiment has
        # written per-batch checkpoints but no final history
        victim = campaign.expand()[2]
        store = ResultsStore(directory)
        wayfinder = Wayfinder.from_spec(victim)
        wayfinder.enable_checkpointing(store, name=victim.name, every=1)
        wayfinder.specialize(iterations=2)
        assert os.path.exists(store.checkpoint_path(victim.name))
        assert not os.path.exists(store.history_path(victim.name))

        resumed = CampaignRunner.open(directory, procs=procs).run(resume=True)
        assert resumed.ok
        for name in _result_files(campaign):
            assert _file_bytes(directory, name) == \
                _file_bytes(reference_dir, name), name

    def test_completed_experiments_not_rerun_on_resume(self, tmp_path):
        campaign = make_campaign()
        directory = str(tmp_path)
        CampaignRunner(campaign, directory, procs=1).run(max_experiments=1)
        done = campaign.expand()[0].name
        marker = os.path.getmtime(os.path.join(directory, done + ".json"))
        CampaignRunner.open(directory).run(resume=True)
        assert os.path.getmtime(os.path.join(directory, done + ".json")) == marker

    def test_resume_reruns_complete_entry_with_missing_results(self, tmp_path):
        campaign = make_campaign()
        directory = str(tmp_path)
        CampaignRunner(campaign, directory, procs=1).run(max_experiments=1)
        done = campaign.expand()[0].name
        os.remove(os.path.join(directory, done + ".json"))
        result = CampaignRunner.open(directory).run(resume=True,
                                                    max_experiments=1)
        assert os.path.exists(os.path.join(directory, done + ".json"))
        assert [e["name"] for e in result.completed] == [done]


class TestCampaignRunner:
    def test_refuses_to_clobber_existing_campaign(self, tmp_path):
        campaign = make_campaign()
        CampaignRunner(campaign, str(tmp_path), procs=1).run(max_experiments=1)
        with pytest.raises(ValueError, match="resume"):
            CampaignRunner(campaign, str(tmp_path), procs=1).run()

    def test_resume_rejects_a_different_campaign(self, tmp_path):
        CampaignRunner(make_campaign(), str(tmp_path)).run(max_experiments=1)
        other = make_campaign(seeds=[4])
        with pytest.raises(ValueError, match="does not match"):
            CampaignRunner(other, str(tmp_path)).run(resume=True)

    def test_manifest_records_grid_and_statuses(self, tmp_path):
        campaign = make_campaign()
        CampaignRunner(campaign, str(tmp_path), procs=1,
                       checkpoint_every=2).run(max_experiments=1)
        manifest = load_manifest(str(tmp_path))
        assert manifest["campaign"] == campaign.to_dict()
        assert manifest["checkpoint_every"] == 2
        statuses = [entry["status"] for entry in manifest["experiments"]]
        assert statuses == ["complete", "pending", "pending", "pending"]
        first = manifest["experiments"][0]
        assert first["spec"] == campaign.expand()[0].to_dict()
        assert first["summary"]["trials"] == 5
        # wall-clock overhead must never leak into stored summaries: it would
        # break byte-identical results across process counts
        assert "search_overhead_s" not in first["summary"]

    def test_version_1_manifest_is_rejected(self, tmp_path):
        CampaignRunner(make_campaign(), str(tmp_path)).run(max_experiments=1)
        path = os.path.join(str(tmp_path), "campaign.json")
        with open(path) as handle:
            manifest = json.load(handle)
        manifest["format_version"] = 1
        with open(path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(ValueError, match="unsupported campaign manifest"):
            load_manifest(str(tmp_path))

    def test_open_restores_cadence_from_manifest(self, tmp_path):
        CampaignRunner(make_campaign(), str(tmp_path),
                       checkpoint_every=3).run(max_experiments=1)
        runner = CampaignRunner.open(str(tmp_path), procs=2)
        assert runner.checkpoint_every == 3
        assert runner.campaign == make_campaign()

    @pytest.mark.parametrize("procs", [1, 2])
    def test_failed_experiment_does_not_sink_the_campaign(self, procs,
                                                          tmp_path):
        from repro.platform.faults import RetryPolicy

        # the redis point passes validation but freezes a parameter its
        # space does not have: a deterministic failure at run time
        campaign = CampaignSpec(
            name="flaky", applications=["nginx", "redis"],
            algorithms=["random"], seeds=[0], base=GRID_BASE,
            overrides=[{"match": {"application": "redis"},
                        "set": {"frozen": {"bogus.option": 1}}}])
        retry = RetryPolicy(max_attempts=2, base_delay_s=0.001)
        result = CampaignRunner(campaign, str(tmp_path), procs=procs,
                                retry=retry).run()
        assert not result.ok
        assert [e["name"] for e in result.completed] == ["flaky-nginx-random-s0"]
        (failure,) = result.failed
        assert failure["name"] == "flaky-redis-random-s0"
        assert "bogus.option" in failure["error"]
        # a deterministic failure is retried max_attempts times and then
        # quarantined, with the attempts and error kept in the manifest
        assert result.quarantined == result.failed
        stored = load_manifest(str(tmp_path))
        assert [e["status"] for e in stored["experiments"]] == \
            ["complete", "failed-permanent"]
        assert stored["experiments"][1]["attempts"] == 2
        # quarantine is terminal: the campaign has drained, nothing left to do
        assert stored["state"] == "complete"

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError, match="procs"):
            CampaignRunner(make_campaign(), str(tmp_path), procs=0)
        with pytest.raises(ValueError, match="cadence"):
            CampaignRunner(make_campaign(), str(tmp_path), checkpoint_every=0)


class TestCampaignReport:
    def test_report_renders_tables_and_series(self, reference_dir):
        from repro.analysis.campaign_report import (
            best_objective_table,
            load_campaign,
            per_iteration_cost_series,
            render_campaign_report,
            time_to_best_table,
        )

        results = load_campaign(reference_dir)
        assert results.axis_values("application") == ["nginx", "redis"]
        assert results.axis_values("algorithm") == ["random", "grid"]

        table = best_objective_table(results)
        assert "nginx" in table and "redis" in table
        assert "random" in table and "grid" in table

        efficiency = time_to_best_table(results)
        assert "time to best (h)" in efficiency

        series = per_iteration_cost_series(results, "random")
        assert len(series) == 5
        assert series[0][0] == 0.0 and series[0][1] > 0

        report = render_campaign_report(reference_dir, max_points=8)
        assert "4 experiments" in report
        assert "mean best objective per application" in report
        assert "per-iteration cost (grid)" in report

    def test_report_tolerates_incomplete_campaigns(self, tmp_path):
        from repro.analysis.campaign_report import render_campaign_report

        CampaignRunner(make_campaign(), str(tmp_path)).run(max_experiments=1)
        report = render_campaign_report(str(tmp_path))
        assert "1 complete" in report and "3 pending" in report
        # pending cells render as placeholders, not crashes
        assert "-" in report

    def test_summaries_match_stored_documents(self, reference_dir):
        """Manifest summaries agree with the per-experiment history files."""
        from repro.analysis.campaign_report import load_campaign

        results = load_campaign(reference_dir)
        for entry in results.completed:
            document = history_document(results, entry["name"])
            assert document["summary"]["trials"] == entry["summary"]["trials"]
            assert document["summary"]["best_objective"] == \
                entry["summary"]["best_objective"]
            assert document["metadata"]["campaign"] == "grid"
            assert document["metadata"]["algorithm"] == \
                entry["spec"]["algorithm"]
            records = document["records"]
            assert len(records) == entry["summary"]["trials"]
            assert json.dumps(records, sort_keys=True)  # JSON-clean
