"""Unit tests for job-file serialization and the YAML-subset parser."""

import re

import pytest

from repro.config.jobfile import (
    JobFile,
    dump_job_file,
    dump_yaml,
    load_job_file,
    load_yaml,
    parameter_from_dict,
)


class TestYamlSubset:
    def test_roundtrip_nested_mapping(self):
        data = {
            "job": {"name": "nginx-perf", "iterations": 250, "ratio": 0.5,
                    "quiet": True, "comment": None},
            "values": [1, 2, 3],
        }
        assert load_yaml(dump_yaml(data)) == data

    def test_roundtrip_list_of_mappings(self):
        data = {"parameters": [
            {"name": "net.core.somaxconn", "type": "int", "minimum": 16},
            {"name": "CONFIG_NET", "type": "bool", "default": True},
        ]}
        assert load_yaml(dump_yaml(data)) == data

    def test_list_item_with_block_valued_first_key(self):
        # the hand-written campaign-file idiom: a list item opening with a
        # block-valued key, with sibling keys at the item's own indent
        text = """
overrides:
  - match:
      application: redis
    set:
      metric: latency
  - match:
      algorithm: grid
    set:
      iterations: 3
"""
        assert load_yaml(text) == {"overrides": [
            {"match": {"application": "redis"}, "set": {"metric": "latency"}},
            {"match": {"algorithm": "grid"}, "set": {"iterations": 3}},
        ]}

    def test_comments_and_blank_lines_ignored(self):
        text = """
# a job file
job:
  name: demo   # inline comment
  iterations: 10

  seed: 3
"""
        assert load_yaml(text) == {"job": {"name": "demo", "iterations": 10, "seed": 3}}

    def test_scalar_parsing(self):
        text = "a: true\nb: false\nc: null\nd: 0x10\ne: 2.5\nf: hello\ng: \"quoted: yes\""
        parsed = load_yaml(text)
        assert parsed == {"a": True, "b": False, "c": None, "d": 16, "e": 2.5,
                          "f": "hello", "g": "quoted: yes"}

    def test_empty_document(self):
        assert load_yaml("") == {}
        assert load_yaml("\n# only a comment\n") == {}

    def test_special_strings_are_quoted_on_dump(self):
        text = dump_yaml({"key": "value: with colon"})
        assert load_yaml(text) == {"key": "value: with colon"}

    def test_numeric_looking_strings_round_trip_as_strings(self):
        # regression: these previously dumped unquoted and parsed back as
        # ints/floats ("1.5" -> 1.5, "007" -> 7, "0x1f" -> 31, "1e3" -> 1000.0)
        data = {"a": "1.5", "b": "007", "c": "0x1f", "d": "1e3",
                "e": "nan", "f": "-inf", "g": "0b101", "h": "+3"}
        roundtripped = load_yaml(dump_yaml(data))
        assert roundtripped == data
        for value in roundtripped.values():
            assert isinstance(value, str)

    def test_numbers_still_round_trip_as_numbers(self):
        data = {"a": 1.5, "b": 7, "c": 0.0, "d": -3}
        assert load_yaml(dump_yaml(data)) == data

    def test_leading_indicator_strings_round_trip(self):
        # "-x" as a list item previously rendered as "- -x"; "?y" is a YAML
        # indicator.  Both must survive in mappings and in lists.
        data = {"values": ["-x", "- spaced", "?y", "plain"],
                "flag": "-x", "question": "?y"}
        assert load_yaml(dump_yaml(data)) == data

    def test_control_characters_are_quoted(self):
        # an unquoted newline used to end the line early, so a name could
        # rewrite another field: {"name": "x", "seed": 5} came back
        data = {"name": "x\nseed: 5", "tab": "a\tb", "sep": "a\u2028b"}
        text = dump_yaml(data)
        assert len(text.splitlines()) == 3
        assert load_yaml(text) == data

    def test_escaped_quote_before_a_hash_is_not_a_comment(self):
        data = {"key": 'a"#b', "list": ['say "hi" # twice']}
        assert load_yaml(dump_yaml(data)) == data

    def test_empty_top_level_containers_round_trip(self):
        assert load_yaml(dump_yaml({})) == {}
        assert load_yaml(dump_yaml([])) == []

    def test_reserved_words_round_trip_as_strings(self):
        data = {"values": ["null", "true", "no", "~"]}
        roundtripped = load_yaml(dump_yaml(data))
        assert roundtripped == data
        assert all(isinstance(v, str) for v in roundtripped["values"])


class TestParameterFromDict:
    def test_int_roundtrip(self, small_space):
        parameter = small_space["net.core.somaxconn"]
        rebuilt = parameter_from_dict(parameter.to_dict())
        assert rebuilt == parameter

    def test_categorical_roundtrip(self, small_space):
        parameter = small_space["net.ipv4.tcp_congestion_control"]
        rebuilt = parameter_from_dict(parameter.to_dict())
        assert rebuilt.choices == parameter.choices

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            parameter_from_dict({"name": "x", "type": "mystery", "kind": "runtime",
                                 "default": 1})


def every_field_spec(**changes):
    """A spec that sets every ExperimentSpec field away from its default."""
    from repro.core.spec import ExperimentSpec

    from tests.conftest import SMALL_SPACE_OPTIONS

    fields = dict(
        name="redis-latency", os_name="linux", application="redis",
        metric="latency", algorithm="bayesian", favor=None, seed=7,
        iterations=100, time_budget_s=3600.5, plateau_trials=12, workers=4,
        batch_size=8, execution="async", enable_skip_build=False,
        frozen={"kernel.randomize_va_space": 2},
        algorithm_options={"initial_random": 3, "hidden_dims": [24, 12]},
        os_version="v6.0", architecture="aarch64",
        space_options=SMALL_SPACE_OPTIONS,
        warm_start={"zoo": "campaign/", "min_similarity": 0.4,
                    "donor": "nginx"})
    assert set(fields) == set(ExperimentSpec.FIELDS)
    fields.update(changes)
    return ExperimentSpec(**fields)


class TestJobFile:
    @pytest.mark.parametrize("extension", ["yaml", "json"])
    def test_dump_and_load_roundtrip(self, tmp_path, small_space, extension):
        job = JobFile(every_field_spec(), small_space)
        path = str(tmp_path / ("job." + extension))
        dump_job_file(job, path)
        loaded = load_job_file(path)
        assert loaded.spec == job.spec
        assert loaded.spec.favor is None
        assert len(loaded.space) == len(small_space)
        assert loaded.space.frozen_parameters == {"kernel.randomize_va_space": 2}

    @pytest.mark.parametrize("extension", ["yaml", "json"])
    def test_unspecified_favor_round_trips_resolved(self, tmp_path, small_space,
                                                    extension):
        from repro.core.spec import UNSPECIFIED

        spec = every_field_spec(favor=UNSPECIFIED)
        path = str(tmp_path / ("job." + extension))
        dump_job_file(JobFile(spec, small_space), path)
        loaded = load_job_file(path).spec
        assert loaded == spec
        assert loaded.favor == "runtime"  # the linux default, written out

    def test_job_block_is_the_spec_dict(self, small_space):
        spec = every_field_spec()
        assert JobFile(spec, small_space).to_dict()["job"] == spec.to_dict()

    def test_loaded_space_parameters_match_types(self, tmp_path, small_space):
        job = JobFile(every_field_spec(), small_space)
        path = str(tmp_path / "job.yaml")
        dump_job_file(job, path)
        loaded = load_job_file(path)
        for parameter in small_space.parameters():
            assert parameter.name in loaded.space
            assert loaded.space[parameter.name].type_name == parameter.type_name

    def test_from_dict_defaults(self):
        # an empty job block is the spec's defaults: no iteration budget
        from repro.core.spec import ExperimentSpec

        job = JobFile.from_dict({"job": {}, "parameters": []})
        assert job.spec == ExperimentSpec()
        assert job.spec.iterations is None
        assert len(job.space) == 0

    def test_old_format_is_rejected(self):
        with pytest.raises(ValueError, match="^unknown spec fields: "
                           "bench_tool, favor_kinds, os$"):
            JobFile.from_dict({"job": {"os": "linux", "bench_tool": "wrk",
                                       "favor_kinds": ["runtime"]},
                               "parameters": []})

    @pytest.mark.parametrize("data, message", [
        ([], "a job file is a mapping"),
        ({"parameters": []}, "a job file is a mapping"),
        ({"job": {}, "extra": 1}, "unknown job file sections: extra"),
        ({"job": {}, "parameters": {"a": 1}}, "must be a list"),
        ({"job": {}, "parameters": [{"name": "x"}]}, "malformed job file parameter"),
        ({"job": {}, "parameters": [5]}, "malformed job file parameter"),
    ])
    def test_malformed_documents_are_value_errors(self, data, message):
        with pytest.raises(ValueError, match=message):
            JobFile.from_dict(data)

    @pytest.mark.parametrize("field, value", [
        ("iterations", True),
        ("workers", 2.7),
        ("favor", "sideways"),
        ("surprise", 1),
        ("seed", "abc"),
        ("batch_size", "8"),
        ("time_budget_s", "1h"),
        ("os_name", 5),
        ("frozen", ["a"]),
        ("application", "nosuchapp"),
    ])
    def test_fields_validate_like_the_spec(self, tmp_path, capsys, field, value):
        """One bad field gives one message on every input surface: the spec,
        a job file, a campaign's base block, the tuning service and
        ``repro run --job``."""
        from repro.cli import main
        from repro.core.campaign import CampaignSpec
        from repro.core.spec import ExperimentSpec
        from repro.service.api import ApiError
        from repro.service.server import TuningService

        with pytest.raises(ValueError) as spec_error:
            ExperimentSpec.from_dict({field: value})
        message = str(spec_error.value)
        exactly = "^" + re.escape(message) + "$"

        with pytest.raises(ValueError, match=exactly):
            JobFile.from_dict({"job": {field: value}, "parameters": []})
        if field == "application":  # a campaign sweeps it as an axis
            with pytest.raises(ValueError, match=exactly):
                CampaignSpec.from_dict({"name": "c", "applications": [value]})
        elif field != "seed":  # a campaign's seeds are its own axis
            with pytest.raises(ValueError, match=exactly):
                CampaignSpec.from_dict({"name": "c", "base": {field: value}})
        service = TuningService(str(tmp_path / "service"), workers=1)
        try:
            with pytest.raises(ApiError) as api_error:
                service.submit_experiment("acme", {field: value})
        finally:
            service.shutdown()
        assert api_error.value.status == 400
        assert api_error.value.message == message
        path = tmp_path / "job.yaml"
        path.write_text(dump_yaml({"job": {field: value}, "parameters": []}))
        assert main(["run", "--job", str(path)]) == 2
        assert capsys.readouterr().err == message + "\n"
