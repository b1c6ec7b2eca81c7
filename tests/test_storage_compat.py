"""Golden-file pinning of the format-v4 store and the reports built on it.

A campaign stored in the columnar format (block-compressed payload sidecar,
format version 4) must keep producing byte-identical report text and JSON.
The expected bytes are committed under ``tests/data/``; any change to trial
rows, sidecar frames, the readers or the aggregation that moves a single
byte of the report fails here.  Regenerate the files only for a deliberate
report change, and say so in the change that does it.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.platform.results import (
    ResultsStore,
    load_history_document,
    open_history_view,
)

from tests.oracles import per_iteration_cost_series_reference
from tests.test_campaign import make_campaign

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def _golden(name):
    with open(os.path.join(DATA, name)) as handle:
        return handle.read()


@pytest.fixture(scope="module")
def v4_dir(tmp_path_factory):
    """A complete campaign stored in the current (version 4) format."""
    from repro.platform.campaign_runner import CampaignRunner

    directory = str(tmp_path_factory.mktemp("golden-v4"))
    result = CampaignRunner(make_campaign(), directory, procs=1).run()
    assert result.ok
    return directory


class TestDocumentEquivalence:
    """The lazy view and the materializing loader agree on v4 stores."""

    def test_fixtures_are_the_claimed_formats(self, v4_dir):
        for name in ResultsStore(v4_dir).list_histories():
            with open(os.path.join(v4_dir, name + ".json")) as handle:
                assert json.load(handle)["format_version"] == 4

    def test_campaign_manifest_is_not_a_history(self, v4_dir):
        """A campaign directory lists exactly its experiments' histories,
        and the campaign manifest beside them is no history's metadata."""
        store = ResultsStore(v4_dir)
        assert store.list_histories() == sorted(
            spec.name for spec in make_campaign().expand())
        with pytest.raises(ValueError):
            store.load_metadata("campaign")

    def test_view_matches_materializing_loader(self, v4_dir):
        for name in ResultsStore(v4_dir).list_histories():
            path = os.path.join(v4_dir, name + ".json")
            reference = load_history_document(path)
            view = open_history_view(path)
            assert len(view) == len(reference["records"])
            assert view.record_dicts() == reference["records"]
            for position, entry in enumerate(reference["records"]):
                assert view.record_dict(position) == entry


class TestReportEquivalence:
    """The report over a v4 campaign matches the committed bytes."""

    def test_report_json_is_byte_identical(self, v4_dir):
        from repro.analysis.campaign_report import campaign_report_document

        document = json.dumps(campaign_report_document(v4_dir),
                              indent=2, sort_keys=True)
        assert document == _golden("campaign_report.json")

    def test_report_text_is_byte_identical(self, v4_dir):
        from repro.analysis.campaign_report import render_campaign_report

        assert render_campaign_report(v4_dir, max_points=8) == \
            _golden("campaign_report.txt")

    def test_streaming_series_matches_reference_path(self, v4_dir):
        from repro.analysis.campaign_report import (
            load_campaign,
            per_iteration_cost_series,
        )

        results = load_campaign(v4_dir)
        for algorithm in results.axis_values("algorithm"):
            streaming = per_iteration_cost_series(results, algorithm)
            reference = per_iteration_cost_series_reference(
                load_campaign(v4_dir), algorithm)
            assert streaming == reference
            assert json.dumps(streaming) == json.dumps(reference)
