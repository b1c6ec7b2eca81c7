"""Property-style tests for the append-only columnar trial store.

The store is the durability layer under checkpoints and saved histories, so
the bar is bit-exactness: every ``TrialRecord`` field — including NaN
objectives on crashed trials, worker attribution, timestamps, and unicode
failure reasons — must survive append → flush → reopen → mmap read
unchanged, and torn writes must recover through the results store's
``.prev``/``.corrupt`` manifest fallback with the sidecars' valid prefix.
"""

import json
import math
import os
import random
import struct
import zlib

import numpy as np
import pytest

from repro.config.space import Configuration
from repro.platform import trialstore
from repro.platform.history import TrialRecord
from repro.platform.results import ResultsStore, record_from_dict, record_to_dict
from repro.platform.trialstore import (
    HEADER_SIZE,
    TRIAL_DTYPE,
    ColumnarHistoryView,
    TrialStoreWriter,
    open_columns,
)
from repro.vm.failures import FailureStage

from tests.conftest import SMALL_SPACE_OPTIONS


def view_over(columns_path, payloads_path, count):
    """A :class:`ColumnarHistoryView` over two sidecars, as a manifest next
    to them referencing their first *count* rows would open it."""
    document = {"trials": count,
                "trial_columns": os.path.basename(columns_path),
                "trial_payloads": os.path.basename(payloads_path)}
    manifest_path = os.path.join(os.path.dirname(columns_path), "m.json")
    return ColumnarHistoryView(manifest_path, document)


def read_record_dicts(columns_path, payloads_path, count):
    """The first *count* stored rows, materialized through the view."""
    return view_over(columns_path, payloads_path, count).record_dicts()


def random_record(space, rng, index):
    """A randomized record exercising every field shape the store must hold."""
    crashed = rng.random() < 0.3
    stage = rng.choice([FailureStage.BUILD, FailureStage.BOOT, FailureStage.RUN]) \
        if crashed else FailureStage.NONE
    objective = None if crashed else rng.uniform(-1e6, 1e6)
    # a genuine NaN measurement must stay distinguishable from "no value"
    if not crashed and rng.random() < 0.1:
        objective = float("nan")
    return TrialRecord(
        index=index,
        configuration=space.sample_configuration(rng),
        objective=objective,
        crashed=crashed,
        failure_stage=stage,
        failure_reason="boom ☃ {}".format(index) if crashed else "",
        metric_value=None if crashed else rng.uniform(0, 1e4),
        memory_mb=None if rng.random() < 0.2 else rng.uniform(10, 4000),
        duration_s=rng.uniform(0, 1e4),
        started_at_s=rng.uniform(0, 1e7),
        build_skipped=rng.random() < 0.5,
        worker=rng.randrange(0, 16),
    )


class TestRoundTrip:
    def test_records_survive_bit_exactly(self, tmp_path, small_space):
        rng = random.Random(7)
        records = [random_record(small_space, rng, i) for i in range(60)]
        columns_path = str(tmp_path / "t.trials.bin")
        payloads_path = str(tmp_path / "t.trials.jsonl")
        with TrialStoreWriter(columns_path, payloads_path) as writer:
            writer.extend(records)
            assert writer.flush() == 60
        loaded = read_record_dicts(columns_path, payloads_path, 60)
        # canonical JSON comparison: NaN objectives are equal as serialized
        # bytes where float equality would reject NaN == NaN
        assert json.dumps(loaded, sort_keys=True) \
            == json.dumps([record_to_dict(r) for r in records], sort_keys=True)
        # the dict shapes rebuild into records with identical field values
        rebuilt = [record_from_dict(entry, small_space) for entry in loaded]
        for original, copy in zip(records, rebuilt):
            assert copy.configuration == original.configuration
            assert copy.crashed == original.crashed
            assert copy.worker == original.worker
            assert copy.failure_stage is original.failure_stage
            assert copy.started_at_s == original.started_at_s
            if original.objective is None:
                assert copy.objective is None
            elif math.isnan(original.objective):
                assert math.isnan(copy.objective)
            else:
                assert copy.objective == original.objective

    def test_mmap_read_is_zero_copy(self, tmp_path, small_space):
        rng = random.Random(3)
        records = [random_record(small_space, rng, i) for i in range(20)]
        columns_path = str(tmp_path / "z.trials.bin")
        with TrialStoreWriter(columns_path, str(tmp_path / "z.trials.jsonl")) as w:
            w.extend(records)
            w.flush()
        columns = open_columns(columns_path, 20)
        assert isinstance(columns, np.memmap)
        assert not columns.flags.writeable
        view = view_over(columns_path, str(tmp_path / "z.trials.jsonl"), 20)
        objective, crashed = view.objective, view.crashed
        assert objective.base is not None  # a view, not a copy
        for i, record in enumerate(records):
            if record.objective is not None and not math.isnan(record.objective):
                assert objective[i] == record.objective
            assert bool(crashed[i]) == record.crashed

    def test_reopen_continues_appending(self, tmp_path, small_space):
        rng = random.Random(11)
        records = [random_record(small_space, rng, i) for i in range(30)]
        columns_path = str(tmp_path / "c.trials.bin")
        payloads_path = str(tmp_path / "c.trials.jsonl")
        with TrialStoreWriter(columns_path, payloads_path) as writer:
            writer.extend(records[:12])
            writer.flush()
        with TrialStoreWriter(columns_path, payloads_path) as writer:
            assert writer.count == 12  # picked up from the files themselves
            writer.extend(records[12:])
            assert writer.flush() == 30
        assert read_record_dicts(columns_path, payloads_path, 30) \
            == [record_to_dict(r) for r in records]

    def test_rewind_truncates_a_divergent_tail(self, tmp_path, small_space):
        rng = random.Random(5)
        records = [random_record(small_space, rng, i) for i in range(10)]
        columns_path = str(tmp_path / "r.trials.bin")
        payloads_path = str(tmp_path / "r.trials.jsonl")
        with TrialStoreWriter(columns_path, payloads_path) as writer:
            writer.extend(records)
            writer.flush()
            writer.rewind(4)
            assert writer.count == 4
            replacement = [random_record(small_space, rng, i) for i in range(4, 8)]
            writer.extend(replacement)
            assert writer.flush() == 8
        loaded = read_record_dicts(columns_path, payloads_path, 8)
        assert loaded == [record_to_dict(r) for r in records[:4] + replacement]
        with pytest.raises(ValueError):
            read_record_dicts(columns_path, payloads_path, 9)

    def test_rewind_refuses_unflushed_and_overlong(self, tmp_path, small_space):
        writer = TrialStoreWriter(str(tmp_path / "x.trials.bin"),
                                  str(tmp_path / "x.trials.jsonl"))
        with pytest.raises(ValueError):
            writer.rewind(3)  # nothing durable yet
        writer.append(random_record(small_space, random.Random(0), 0))
        with pytest.raises(RuntimeError):
            writer.rewind(0)  # pending rows must be flushed or dropped first
        writer.close()


class TestCorruptionDetection:
    def _write(self, tmp_path, small_space, n=8):
        rng = random.Random(2)
        records = [random_record(small_space, rng, i) for i in range(n)]
        columns_path = str(tmp_path / "d.trials.bin")
        payloads_path = str(tmp_path / "d.trials.jsonl")
        with TrialStoreWriter(columns_path, payloads_path) as writer:
            writer.extend(records)
            writer.flush()
        return columns_path, payloads_path, records

    def test_bad_magic_rejected(self, tmp_path, small_space):
        columns_path, payloads_path, _ = self._write(tmp_path, small_space)
        with open(columns_path, "r+b") as handle:
            handle.write(b"GARBAGE!")
        with pytest.raises(ValueError):
            read_record_dicts(columns_path, payloads_path, 8)

    def test_short_columns_rejected(self, tmp_path, small_space):
        columns_path, payloads_path, _ = self._write(tmp_path, small_space)
        size = os.path.getsize(columns_path)
        with open(columns_path, "r+b") as handle:
            handle.truncate(size - TRIAL_DTYPE.itemsize // 2)
        with pytest.raises(ValueError):
            read_record_dicts(columns_path, payloads_path, 8)
        # ... but the surviving 7-row prefix stays readable
        assert len(read_record_dicts(columns_path, payloads_path, 7)) == 7

    def test_short_payloads_rejected(self, tmp_path, small_space):
        columns_path, payloads_path, _ = self._write(tmp_path, small_space)
        with open(payloads_path, "r+b") as handle:
            handle.truncate(os.path.getsize(payloads_path) - 3)
        with pytest.raises(ValueError):
            read_record_dicts(columns_path, payloads_path, 8)

    def test_torn_column_tail_dropped_on_reopen(self, tmp_path, small_space):
        columns_path, payloads_path, records = self._write(tmp_path, small_space)
        with open(columns_path, "ab") as handle:
            handle.write(b"\x01" * (TRIAL_DTYPE.itemsize - 5))  # partial row
        with TrialStoreWriter(columns_path, payloads_path) as writer:
            assert writer.count == 8
        assert os.path.getsize(columns_path) \
            == HEADER_SIZE + 8 * TRIAL_DTYPE.itemsize


class TestManifestFallback:
    """Torn manifest writes recover through ``.prev`` with the sidecar prefix."""

    def _checkpointed_store(self, tmp_path, iterations=6):
        from repro.core.spec import ExperimentSpec
        from repro.core.wayfinder import Wayfinder

        spec = ExperimentSpec(
            application="nginx", metric="throughput", algorithm="random",
            seed=3, iterations=iterations, space_options=SMALL_SPACE_OPTIONS,
            name="torn")
        store = ResultsStore(str(tmp_path))
        wayfinder = Wayfinder.from_spec(spec)
        wayfinder.enable_checkpointing(store, name="torn", every=1)
        result = wayfinder.specialize()
        return store, result

    def test_torn_manifest_resumes_older_sidecar_prefix(self, tmp_path):
        store, result = self._checkpointed_store(tmp_path)
        path = store.checkpoint_path("torn")
        with open(path) as handle:
            text = handle.read()
        with open(path, "w") as handle:
            handle.write(text[:len(text) // 3])  # torn write
        recovered = store.latest_valid_checkpoint("torn")
        assert recovered == path
        from repro.platform.results import load_checkpoint_file

        document = load_checkpoint_file(recovered)
        # the promoted .prev manifest references one checkpoint earlier, a
        # strict prefix of the (longer) sidecars
        assert document["trials"] == len(result.history) - 1
        assert len(document["records"]) == document["trials"]
        expected = [record_to_dict(r)
                    for r in list(result.history)[:document["trials"]]]
        assert document["records"] == expected

    def test_corrupt_sidecar_fails_over_like_a_corrupt_manifest(self, tmp_path):
        store, _ = self._checkpointed_store(tmp_path)
        columns_path = store.checkpoint_trial_paths("torn")[0]
        with open(columns_path, "r+b") as handle:
            handle.write(b"NOTMAGIC")
        # both manifests now reference unreadable sidecars → fresh start
        assert store.latest_valid_checkpoint("torn") is None

    def test_resume_after_torn_manifest_truncates_and_rewrites(self, tmp_path):
        from repro.core.wayfinder import Wayfinder

        store, result = self._checkpointed_store(tmp_path)
        reference = [(r.index, r.configuration, r.objective)
                     for r in result.history]
        path = store.checkpoint_path("torn")
        with open(path) as handle:
            text = handle.read()
        with open(path, "w") as handle:
            handle.write(text[: len(text) // 3])
        recovered = store.latest_valid_checkpoint("torn")
        resumed = Wayfinder.resume(recovered)
        resumed.enable_checkpointing(store, name="torn", every=1)
        rerun = resumed.specialize()
        # the re-run continues from the surviving prefix and lands on the
        # exact same trajectory (deterministic-bytes invariant)
        assert [(r.index, r.configuration, r.objective)
                for r in rerun.history] == reference
        document = store.load_checkpoint("torn")
        assert document["trials"] == len(reference)


class TestCompressedSidecar:
    """Format-v3 specifics: block frames, torn-header and torn-tail recovery."""

    def _records(self, small_space, n, seed=13):
        rng = random.Random(seed)
        return [random_record(small_space, rng, i) for i in range(n)]

    def _paths(self, tmp_path, stem="b"):
        return (str(tmp_path / (stem + ".trials.bin")),
                str(tmp_path / (stem + ".trials.jsonl")))

    def test_fresh_writer_creates_a_blocked_sidecar(self, tmp_path, small_space):
        columns_path, payloads_path = self._paths(tmp_path)
        with TrialStoreWriter(columns_path, payloads_path) as writer:
            writer.extend(self._records(small_space, 6))
            writer.flush()
        with open(payloads_path, "rb") as handle:
            assert handle.read(8) == trialstore.PAYLOAD_MAGIC
        blocks = trialstore.scan_payload_blocks(payloads_path)
        # logical offsets and sizes tile the uncompressed stream exactly
        assert blocks[0]["raw_offset"] == 0
        for before, after in zip(blocks, blocks[1:]):
            assert after["raw_offset"] == \
                before["raw_offset"] + before["raw_size"]

    def test_torn_sidecar_header_reinitializes_compressed(self, tmp_path,
                                                          small_space):
        records = self._records(small_space, 10)
        columns_path, payloads_path = self._paths(tmp_path, "torn-header")
        # a crash while creating the store: empty columns, 7 of the 8 magic
        # bytes of the sidecar header
        open(columns_path, "wb").close()
        with open(payloads_path, "wb") as handle:
            handle.write(trialstore.PAYLOAD_MAGIC[:7])
        with TrialStoreWriter(columns_path, payloads_path) as writer:
            assert writer.count == 0
            assert os.path.getsize(payloads_path) \
                == trialstore.PAYLOAD_HEADER_SIZE
            writer.extend(records)
            writer.flush()
        with open(payloads_path, "rb") as handle:
            assert handle.read(8) == trialstore.PAYLOAD_MAGIC
        # JSON-bytes comparison: NaN objectives defeat float equality
        assert json.dumps(
            read_record_dicts(columns_path, payloads_path, 10),
            sort_keys=True) \
            == json.dumps([record_to_dict(r) for r in records],
                          sort_keys=True)

    def test_headerless_sidecar_under_durable_rows_is_rejected(
            self, tmp_path, small_space):
        columns_path, payloads_path = self._paths(tmp_path, "raw")
        # the raw JSONL sidecar earlier formats wrote: no magic header
        columns, payloads = trialstore.serialize_records(
            self._records(small_space, 6))
        with open(columns_path, "wb") as handle:
            handle.write(trialstore.make_header() + columns)
        with open(payloads_path, "wb") as handle:
            handle.write(payloads)
        with pytest.raises(ValueError):
            TrialStoreWriter(columns_path, payloads_path)
        with pytest.raises(ValueError):
            read_record_dicts(columns_path, payloads_path, 6)
        with pytest.raises(ValueError):
            trialstore.BlockPayloadReader(payloads_path)

    def test_multi_block_flush_reads_back(self, tmp_path, small_space):
        records = self._records(small_space, 40)
        columns_path, payloads_path = self._paths(tmp_path, "m")
        with TrialStoreWriter(columns_path, payloads_path,
                              block_raw_bytes=256) as writer:
            writer.extend(records)
            writer.flush()
        blocks = trialstore.scan_payload_blocks(payloads_path)
        assert len(blocks) > 3  # the tiny budget forced many frames
        # every block boundary falls on a JSONL line boundary
        reader = trialstore.BlockPayloadReader(payloads_path)
        for entry in blocks:
            raw = reader.read(entry["raw_offset"], entry["raw_size"])
            assert raw.endswith(b"\n")
        assert json.dumps(
            read_record_dicts(columns_path, payloads_path, 40),
            sort_keys=True) \
            == json.dumps([record_to_dict(r) for r in records],
                          sort_keys=True)

    def test_reopen_scans_frames_without_a_manifest(self, tmp_path,
                                                    small_space):
        records = self._records(small_space, 12)
        columns_path, payloads_path = self._paths(tmp_path, "s")
        with TrialStoreWriter(columns_path, payloads_path,
                              block_raw_bytes=512) as writer:
            writer.extend(records[:7])
            writer.flush()
        with TrialStoreWriter(columns_path, payloads_path,
                              block_raw_bytes=512) as writer:
            assert writer.count == 7  # recovered from the frames alone
            writer.extend(records[7:])
            writer.flush()
        assert json.dumps(
            read_record_dicts(columns_path, payloads_path, 12),
            sort_keys=True) \
            == json.dumps([record_to_dict(r) for r in records],
                          sort_keys=True)

    def test_torn_block_tail_drops_uncovered_rows(self, tmp_path, small_space):
        records = self._records(small_space, 20)
        columns_path, payloads_path = self._paths(tmp_path, "t")
        with TrialStoreWriter(columns_path, payloads_path,
                              block_raw_bytes=512) as writer:
            writer.extend(records)
            writer.flush()
        blocks = trialstore.scan_payload_blocks(payloads_path)
        assert len(blocks) >= 2
        # crash mid-frame: the last block's frame loses its final bytes
        with open(payloads_path, "r+b") as handle:
            handle.truncate(os.path.getsize(payloads_path) - 4)
        survivors = trialstore.scan_payload_blocks(payloads_path)
        assert survivors == blocks[:-1]  # whole-block prefix validity
        with TrialStoreWriter(columns_path, payloads_path,
                              block_raw_bytes=512) as writer:
            # rows whose payload lived in the torn frame are dropped; the
            # remainder reads back bit-exactly
            count = writer.count
            coverage = survivors[-1]["raw_offset"] + survivors[-1]["raw_size"]
            assert 0 < count < 20
            assert json.dumps(
                read_record_dicts(columns_path, payloads_path, count),
                sort_keys=True) \
                == json.dumps([record_to_dict(r) for r in records[:count]],
                              sort_keys=True)
            assert coverage >= sum(
                len(trialstore.encode_payload(r)) for r in records[:count])
        assert trialstore.scan_payload_blocks(payloads_path) == survivors

    def test_mid_block_rewind_splits_the_straddling_frame(self, tmp_path,
                                                          small_space):
        records = self._records(small_space, 16)
        columns_path, payloads_path = self._paths(tmp_path, "w")
        with TrialStoreWriter(columns_path, payloads_path) as writer:
            writer.extend(records)
            writer.flush()  # one flush → one big block; rewind lands inside it
            writer.rewind(5)
            assert writer.count == 5
            replacement = self._records(small_space, 5, seed=99)[:5]
            for index, record in enumerate(replacement):
                record.index = 5 + index
            writer.extend(replacement)
            writer.flush()
        assert json.dumps(
            read_record_dicts(columns_path, payloads_path, 10),
            sort_keys=True) \
            == json.dumps(
                [record_to_dict(r) for r in records[:5] + replacement],
                sort_keys=True)

    def test_corrupt_frame_raises_value_error(self, tmp_path, small_space):
        columns_path, payloads_path = self._paths(tmp_path, "c")
        with TrialStoreWriter(columns_path, payloads_path) as writer:
            writer.extend(self._records(small_space, 4))
            writer.flush()
        # flip bytes inside the zlib stream, keeping the frame header intact
        with open(payloads_path, "r+b") as handle:
            handle.seek(trialstore.PAYLOAD_HEADER_SIZE
                        + trialstore.BLOCK_HEADER_SIZE + 2)
            handle.write(b"\xff\xff\xff\xff")
        with pytest.raises(ValueError):
            read_record_dicts(columns_path, payloads_path, 4)

    def test_old_payload_layout_is_refused(self, tmp_path, small_space):
        columns_path, payloads_path = self._paths(tmp_path, "x")
        with TrialStoreWriter(columns_path, payloads_path) as writer:
            writer.extend(self._records(small_space, 3))
            writer.flush()
        # the layout-1 sidecar: plain frames only, index in the manifest
        with open(payloads_path, "r+b") as handle:
            handle.seek(8)
            handle.write(struct.pack("<I", 1))
        with pytest.raises(ValueError, match="unsupported payload block"):
            trialstore.BlockPayloadReader(payloads_path)
        with pytest.raises(ValueError, match="unsupported payload block"):
            read_record_dicts(columns_path, payloads_path, 3)
        with pytest.raises(ValueError, match="unsupported payload block"):
            TrialStoreWriter(columns_path, payloads_path)


class TestDictionaryFrames:
    """Later frames compress against the first block's raw bytes."""

    def _records(self, small_space, n, seed=21):
        rng = random.Random(seed)
        return [random_record(small_space, rng, i) for i in range(n)]

    def _store(self, tmp_path, stem, flushes):
        """Write one store, one flush per record list; returns its paths."""
        columns_path = str(tmp_path / (stem + ".trials.bin"))
        payloads_path = str(tmp_path / (stem + ".trials.jsonl"))
        with TrialStoreWriter(columns_path, payloads_path) as writer:
            for records in flushes:
                writer.extend(records)
                writer.flush()
        return columns_path, payloads_path

    @staticmethod
    def _bytes(*paths):
        contents = []
        for path in paths:
            with open(path, "rb") as handle:
                contents.append(handle.read())
        return contents

    def _frame_magics(self, payloads_path):
        with open(payloads_path, "rb") as handle:
            data = handle.read()
        return [data[block["offset"]:block["offset"] + 4]
                for block in trialstore.scan_payload_blocks(payloads_path)]

    def test_one_row_frames_round_trip_small(self, tmp_path, small_space):
        records = self._records(small_space, 12)
        columns_path, payloads_path = self._store(
            tmp_path, "d", [[record] for record in records])
        assert self._frame_magics(payloads_path) \
            == [trialstore.BLOCK_MAGIC] + [trialstore.DICT_BLOCK_MAGIC] * 11
        assert json.dumps(read_record_dicts(columns_path, payloads_path, 12),
                          sort_keys=True) \
            == json.dumps([record_to_dict(r) for r in records],
                          sort_keys=True)
        # a row framed against the dictionary costs far less than one
        # compressed on its own
        blocks = trialstore.scan_payload_blocks(payloads_path)
        plain = sum(len(zlib.compress(trialstore.encode_payload(r), 6))
                    for r in records[1:])
        assert sum(block["size"] for block in blocks[1:]) < plain / 2
        view = view_over(columns_path, payloads_path, 12)
        for position in (11, 0, 5):
            assert json.dumps(view.record_dict(position), sort_keys=True) \
                == json.dumps(record_to_dict(records[position]),
                              sort_keys=True)

    def test_rewind_into_block_zero_reframes_it_plain(self, tmp_path,
                                                      small_space):
        records = self._records(small_space, 9)
        columns_path, payloads_path = self._store(
            tmp_path, "a", [records[:5], [records[5]], [records[6]]])
        with TrialStoreWriter(columns_path, payloads_path) as writer:
            writer.rewind(3)  # inside block 0: the new block 0 is rows 0-2
            for record in records[3:]:
                writer.append(record)
                writer.flush()
        # the same bytes as a store whose first flush held rows 0-2: the
        # re-framed prefix is the dictionary of every later frame
        reference = self._store(
            tmp_path, "b", [records[:3]] + [[r] for r in records[3:]])
        assert self._bytes(columns_path, payloads_path) \
            == self._bytes(*reference)
        with TrialStoreWriter(columns_path, payloads_path) as writer:
            writer.rewind(0)
            assert os.path.getsize(payloads_path) \
                == trialstore.PAYLOAD_HEADER_SIZE
            writer.extend(records[:2])
            writer.flush()
        assert self._frame_magics(payloads_path) == [trialstore.BLOCK_MAGIC]

    def test_reopen_and_rewind_walk_the_frames_once(self, tmp_path,
                                                    small_space, monkeypatch):
        """A checkpointer reopens its store and rewinds it to the manifest's
        row count: the recovery scan serves the trim, and a rewind to the
        current count walks no frame header at all."""
        records = self._records(small_space, 8)
        columns_path, payloads_path = self._store(
            tmp_path, "a", [[record] for record in records])
        scans = []
        scan = trialstore.scan_payload_blocks

        def counting_scan(*args):
            scans.append(args)
            return scan(*args)

        monkeypatch.setattr(trialstore, "scan_payload_blocks", counting_scan)
        with TrialStoreWriter(columns_path, payloads_path) as writer:
            writer.rewind(writer.count)
            assert writer.count == 8
        assert len(scans) == 1
        assert read_record_dicts(columns_path, payloads_path, 8) \
            == [record_to_dict(record) for record in records]

    def test_rewind_past_block_zero_keeps_the_dictionary(self, tmp_path,
                                                         small_space):
        records = self._records(small_space, 9)
        columns_path, payloads_path = self._store(
            tmp_path, "a", [records[:2], records[2:7], [records[7]]])
        with TrialStoreWriter(columns_path, payloads_path) as writer:
            writer.rewind(4)  # inside the dictionary frame of rows 2-6
            writer.extend(records[4:])
            writer.flush()
        reference = self._store(
            tmp_path, "b", [records[:2], records[2:4], records[4:]])
        assert self._bytes(columns_path, payloads_path) \
            == self._bytes(*reference)

    def test_reopen_after_a_torn_dictionary_frame(self, tmp_path, small_space):
        records = self._records(small_space, 6)
        columns_path, payloads_path = self._store(
            tmp_path, "t", [[record] for record in records])
        intact = self._bytes(columns_path, payloads_path)
        with open(payloads_path, "r+b") as handle:
            handle.truncate(os.path.getsize(payloads_path) - 3)
        with TrialStoreWriter(columns_path, payloads_path) as writer:
            assert writer.count == 5  # the torn frame's row is dropped
            # the recovered dictionary frames the row exactly as before
            writer.append(records[5])
            writer.flush()
        assert self._bytes(columns_path, payloads_path) == intact

    def test_corrupt_block_zero_fails_every_row_after_it(self, tmp_path,
                                                         small_space):
        records = self._records(small_space, 6)
        columns_path, payloads_path = self._store(
            tmp_path, "c", [records[:2]] + [[r] for r in records[2:]])
        first = trialstore.scan_payload_blocks(payloads_path)[0]
        with open(payloads_path, "rb") as handle:
            intact = handle.read()
        start, end = first["offset"], first["offset"] + first["size"]
        # a flipped bit in block 0's zlib stream
        flipped = bytearray(intact)
        flipped[start + trialstore.BLOCK_HEADER_SIZE + 3] ^= 0x04
        # a well-formed block 0 of the same raw length holding other bytes
        raw = trialstore.decode_payload_block(intact[start:end],
                                              payloads_path, None)
        other = raw.replace(b'"failure_reason":"', b'"failure_reason":"!', 1)
        other = other[:len(raw) - 1] + b"\n"
        swapped, _ = trialstore.compress_payload_blocks(other, None)
        for damaged in (bytes(flipped), intact[:start] + swapped + intact[end:]):
            with open(payloads_path, "wb") as handle:
                handle.write(damaged)
            for position in range(2, 6):
                with pytest.raises(ValueError, match="undecodable"):
                    view_over(columns_path, payloads_path, 6).payload(position)
            with pytest.raises(ValueError):
                read_record_dicts(columns_path, payloads_path, 6)

    def test_frames_past_a_manifest_prefix_are_never_read(self, tmp_path,
                                                          small_space):
        records = self._records(small_space, 5)
        columns_path, payloads_path = self._store(
            tmp_path, "p", [[record] for record in records])
        blocks = trialstore.scan_payload_blocks(payloads_path)
        # garbage over the last frame and a torn tail after it
        with open(payloads_path, "r+b") as handle:
            handle.seek(blocks[-1]["offset"])
            handle.write(b"JUNK")
            handle.seek(0, os.SEEK_END)
            handle.write(trialstore.DICT_BLOCK_MAGIC + b"\x01")
        assert json.dumps(read_record_dicts(columns_path, payloads_path, 4),
                          sort_keys=True) \
            == json.dumps([record_to_dict(r) for r in records[:4]],
                          sort_keys=True)
        with pytest.raises(ValueError):
            read_record_dicts(columns_path, payloads_path, 5)


def test_configuration_payloads_roundtrip_unicode(tmp_path, small_space):
    record = random_record(small_space, random.Random(1), 0)
    record.failure_reason = "φάσμα — 🙂 \"quoted\"\nline"
    record.crashed = True
    record.objective = None
    record.failure_stage = FailureStage.RUN
    columns_path = str(tmp_path / "u.trials.bin")
    payloads_path = str(tmp_path / "u.trials.jsonl")
    with TrialStoreWriter(columns_path, payloads_path) as writer:
        writer.append(record)
        writer.flush()
    (loaded,) = read_record_dicts(columns_path, payloads_path, 1)
    assert loaded == record_to_dict(record)
    assert isinstance(loaded["configuration"], dict)
    assert Configuration(small_space, loaded["configuration"]) == record.configuration
