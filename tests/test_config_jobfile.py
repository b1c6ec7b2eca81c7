"""Unit tests for job-file serialization and the YAML-subset parser."""

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


class TestJobFile:
    def make_job(self, small_space):
        return JobFile(
            name="nginx-throughput",
            os_name="linux",
            application="nginx",
            bench_tool="wrk",
            metric="throughput",
            space=small_space,
            iterations=100,
            favor_kinds=["runtime"],
            frozen={"kernel.randomize_va_space": 2},
            seed=7,
            workers=4,
            batch_size=8,
        )

    @pytest.mark.parametrize("extension", ["yaml", "json"])
    def test_dump_and_load_roundtrip(self, tmp_path, small_space, extension):
        job = self.make_job(small_space)
        path = str(tmp_path / ("job." + extension))
        dump_job_file(job, path)
        loaded = load_job_file(path)
        assert loaded.name == job.name
        assert loaded.application == "nginx"
        assert loaded.metric == "throughput"
        assert loaded.iterations == 100
        assert loaded.seed == 7
        assert loaded.workers == 4
        assert loaded.batch_size == 8
        assert len(loaded.space) == len(small_space)
        assert loaded.space.frozen_parameters == {"kernel.randomize_va_space": 2}

    def test_loaded_space_parameters_match_types(self, tmp_path, small_space):
        job = self.make_job(small_space)
        path = str(tmp_path / "job.yaml")
        dump_job_file(job, path)
        loaded = load_job_file(path)
        for parameter in small_space.parameters():
            assert parameter.name in loaded.space
            assert loaded.space[parameter.name].type_name == parameter.type_name

    def test_from_dict_defaults(self):
        job = JobFile.from_dict({"job": {}, "parameters": []})
        assert job.os_name == "linux"
        assert job.iterations == 250
        assert job.workers == 1
        assert job.batch_size == 1

    @pytest.mark.parametrize("key, value, field", [
        ("iterations", True, "iterations"),
        ("workers", 2.7, "workers"),
        ("seed", "abc", "seed"),
        ("batch_size", "8", "batch_size"),
        ("time_budget_s", "1h", "time_budget_s"),
        ("os", 5, "os_name"),
        ("frozen", ["a"], "frozen"),
    ])
    def test_fields_validate_like_the_spec(self, key, value, field):
        from repro.core.spec import ExperimentSpec

        with pytest.raises(ValueError) as spec_error:
            ExperimentSpec.from_dict({field: value})
        with pytest.raises(ValueError) as job_error:
            JobFile.from_dict({"job": {key: value}, "parameters": []})
        assert str(job_error.value) == str(spec_error.value)
        assert str(job_error.value).startswith(
            "spec field {!r} must be".format(field))
