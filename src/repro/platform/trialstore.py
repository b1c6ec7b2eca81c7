"""Append-only columnar storage for trial records.

JSON-per-record storage is fine at 10² trials and hopeless at the 10⁵–10⁶ a
large campaign grid produces: every checkpoint re-serializes the whole
history, so checkpoint cost grows O(history) and the Figure 7/8 flat-cost
invariant dies in the results layer.  This module stores the fixed-width
numeric measurements of every trial (objective, crash flags, timestamps,
worker attribution) as rows of one packed numpy structured dtype in an
append-only binary file, with a sidecar holding the variable-width payload
(configuration values, failure reason) as one compact JSON line per trial.
Each row carries the byte offset and length of its payload line *in the
uncompressed payload stream*, so both files support random access and
prefix truncation.

The payload sidecar is block-compressed (format v4, the only format): the
line stream is cut at line boundaries into zlib-compressed blocks, each
framed by a small header (magic, compressed size, raw size) behind a
file-level magic header.  The first block is a plain zlib frame
(:data:`BLOCK_MAGIC`); every later block is compressed with the first
block's raw bytes as zlib preset dictionary (:data:`DICT_BLOCK_MAGIC`), so
a one-row frame costs tens of bytes instead of a whole compressed line.
Row offsets are *logical* (uncompressed-stream) offsets; the block index
that maps logical ranges to physical frames is rebuilt from the frame
headers alone (:func:`scan_payload_blocks`), so no manifest carries it and
a checkpoint save costs the same at any history length.  A sidecar
without the magic header, or of another layout version, is rejected with
``ValueError``.

Two properties carry the crash-safety story:

* **Prefix validity** — both files are append-only, so every prefix written
  by a completed flush stays valid forever.  The JSON manifest (checkpoint
  or history document) is the authority on how many rows are live; a torn
  append past the manifest's count is invisible, and the rolling ``.prev``
  manifest fallback of :class:`~repro.platform.results.ResultsStore` keeps
  working unchanged because an older manifest simply references a shorter
  prefix of the same files — a shorter prefix of *whole blocks*, because
  manifests are only ever written at block boundaries.  Readers scan
  frames only up to the payload end of a manifest's last row, so frames
  past that prefix (a later save's, a torn tail) never fail it.
* **Deterministic bytes** — a trial's row and sidecar line are pure
  functions of the record, every frame a pure function of its lines and
  the first block's, and the platform's bit-exact resume invariant
  means every worker (re)computes identical records.  A presumed-dead
  writer waking up therefore re-writes the same bytes at the same offsets
  it would have written anyway, never diverging content.

Readers get zero-copy access: :func:`open_columns` maps the binary file
read-only with :func:`numpy.memmap`, and field access on the returned
structured array (``columns["objective"]``) is a view into the mapping, so
training-scale reads never materialize per-record Python objects.
:class:`ColumnarHistoryView` packages that for the analysis tier: lazy
column views over one stored manifest plus an on-demand payload decoder,
so cross-experiment aggregation streams off the mmap and never parses a
payload it does not need.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from bisect import bisect_right
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.platform.history import TrialRecord
from repro.vm.failures import FailureStage

#: file magic + on-disk layout version of the columns file header.
MAGIC = b"REPROTRL"
LAYOUT_VERSION = 1
HEADER_SIZE = 16  # magic (8) + version (u4) + itemsize (u4)

#: failure stages by on-disk code (the enum's declaration order).
FAILURE_STAGES = tuple(stage for stage in FailureStage)
_STAGE_CODES = {stage: code for code, stage in enumerate(FAILURE_STAGES)}

#: one trial = one packed row.  Optional floats (objective, metric value,
#: memory) store NaN when absent, with an explicit presence flag so a
#: genuine NaN measurement and "no measurement" stay distinguishable.
TRIAL_DTYPE = np.dtype([
    ("index", "<i8"),
    ("objective", "<f8"),
    ("metric_value", "<f8"),
    ("memory_mb", "<f8"),
    ("duration_s", "<f8"),
    ("started_at_s", "<f8"),
    ("payload_offset", "<i8"),
    ("payload_length", "<i8"),
    ("worker", "<i4"),
    ("has_objective", "u1"),
    ("has_metric_value", "u1"),
    ("has_memory_mb", "u1"),
    ("crashed", "u1"),
    ("failure_stage", "u1"),
    ("build_skipped", "u1"),
])


def make_header() -> bytes:
    return MAGIC + struct.pack("<II", LAYOUT_VERSION, TRIAL_DTYPE.itemsize)


def check_header(header: bytes, path: str) -> None:
    """Validate a columns-file header; raises ``ValueError`` on mismatch."""
    if len(header) < HEADER_SIZE or header[:8] != MAGIC:
        raise ValueError("{} is not a columnar trial file".format(path))
    version, itemsize = struct.unpack("<II", header[8:HEADER_SIZE])
    if version != LAYOUT_VERSION or itemsize != TRIAL_DTYPE.itemsize:
        raise ValueError(
            "unsupported trial column layout in {} (version {}, itemsize {})".format(
                path, version, itemsize))


#: file magic + layout version of a block-compressed payload sidecar.
PAYLOAD_MAGIC = b"REPROPLZ"
PAYLOAD_LAYOUT_VERSION = 2
PAYLOAD_HEADER_SIZE = 16  # magic (8) + version (u4) + reserved (u4)

#: per-block frame: magic (4) + compressed size (u4) + raw size (u4).  The
#: first block is plain zlib; every later one is zlib with the first
#: block's raw bytes as preset dictionary.
BLOCK_MAGIC = b"RPLB"
DICT_BLOCK_MAGIC = b"RPLD"
BLOCK_HEADER_SIZE = 12

#: target uncompressed bytes per block.  Blocks only split at payload line
#: boundaries, so a block can run past the target by up to one line.
DEFAULT_BLOCK_RAW_BYTES = 1 << 18


def make_payload_header() -> bytes:
    return PAYLOAD_MAGIC + struct.pack("<II", PAYLOAD_LAYOUT_VERSION, 0)


def check_payload_header(header: bytes, path: str) -> None:
    """Validate a compressed-sidecar header; raises ``ValueError`` on mismatch."""
    if len(header) < PAYLOAD_HEADER_SIZE or header[:8] != PAYLOAD_MAGIC:
        raise ValueError(
            "{} is not a block-compressed payload sidecar".format(path))
    version, _reserved = struct.unpack("<II", header[8:PAYLOAD_HEADER_SIZE])
    if version != PAYLOAD_LAYOUT_VERSION:
        raise ValueError(
            "unsupported payload block layout in {} (version {})".format(
                path, version))


def compress_payload_blocks(
        payload: bytes, dictionary: Optional[bytes],
        block_raw_bytes: int = DEFAULT_BLOCK_RAW_BYTES,
        level: int = 6) -> Tuple[bytes, Optional[bytes]]:
    """Frame *payload* (whole JSON lines) into compressed blocks.

    *dictionary* is the raw bytes of the sidecar's first block, or ``None``
    when *payload* starts the sidecar: its first block is then framed plain
    and becomes the dictionary every later block is compressed against.
    Returns ``(frames, dictionary)``.  Blocks split only at line boundaries,
    so every row's payload line decodes from whole blocks, and zlib is
    deterministic, preserving the deterministic-bytes invariant.
    """
    frames: List[bytes] = []
    position = 0
    total = len(payload)
    while position < total:
        cut = position + block_raw_bytes
        if cut >= total:
            cut = total
        else:
            boundary = payload.find(b"\n", cut - 1)
            cut = total if boundary < 0 else boundary + 1
        chunk = payload[position:cut]
        if dictionary is None:
            magic, compressed, dictionary = \
                BLOCK_MAGIC, zlib.compress(chunk, level), chunk
        else:
            compressor = zlib.compressobj(level, zdict=dictionary)
            magic = DICT_BLOCK_MAGIC
            compressed = compressor.compress(chunk) + compressor.flush()
        frames.append(magic + struct.pack("<II", len(compressed), len(chunk))
                      + compressed)
        position = cut
    return b"".join(frames), dictionary


def decode_payload_block(frame: bytes, path: str,
                         dictionary: Optional[bytes]) -> bytes:
    """Decompress one framed block; raises ``ValueError`` on any corruption.

    *dictionary* is ``None`` for the sidecar's first block and that block's
    raw bytes for every later one.  A damaged dictionary fails the zlib
    dictionary check, so no later block ever decodes to wrong bytes.
    """
    magic = BLOCK_MAGIC if dictionary is None else DICT_BLOCK_MAGIC
    if len(frame) < BLOCK_HEADER_SIZE or frame[:4] != magic:
        raise ValueError("{} holds a corrupt payload block".format(path))
    compressed_size, raw_size = struct.unpack("<II", frame[4:BLOCK_HEADER_SIZE])
    body = frame[BLOCK_HEADER_SIZE:BLOCK_HEADER_SIZE + compressed_size]
    if len(body) < compressed_size:
        raise ValueError("{} holds a truncated payload block".format(path))
    decompressor = (zlib.decompressobj() if dictionary is None
                    else zlib.decompressobj(zdict=dictionary))
    try:
        raw = decompressor.decompress(body)
    except zlib.error as error:
        raise ValueError(
            "{} holds an undecodable payload block: {}".format(path, error))
    if not decompressor.eof or decompressor.unused_data \
            or len(raw) != raw_size:
        raise ValueError(
            "{} holds a payload block of unexpected size".format(path))
    return raw


def scan_payload_blocks(path: str,
                        end: Optional[int] = None) -> List[Dict[str, int]]:
    """Recover the block index of *path* from its frame headers.

    With *end* given the scan stops at the first block reaching logical
    offset *end* (a manifest's last payload byte), so nothing past that
    prefix is read.  The scan also ends at the first frame it cannot walk —
    a torn tail (incomplete header or body) or bytes that are not the next
    frame's header — which is the prefix-validity rule: the complete frames
    before it stay valid, and rows referencing past them fail in the reader
    (a ``ValueError``) and are dropped by the writer.
    """
    blocks: List[Dict[str, int]] = []
    with open(path, "rb") as handle:
        check_payload_header(handle.read(PAYLOAD_HEADER_SIZE), path)
        size = os.fstat(handle.fileno()).st_size
        physical = PAYLOAD_HEADER_SIZE
        raw_offset = 0
        while end is None or raw_offset < end:
            frame_header = handle.read(BLOCK_HEADER_SIZE)
            magic = DICT_BLOCK_MAGIC if blocks else BLOCK_MAGIC
            if len(frame_header) < BLOCK_HEADER_SIZE \
                    or frame_header[:4] != magic:
                break
            compressed_size, raw_size = struct.unpack("<II", frame_header[4:])
            frame_size = BLOCK_HEADER_SIZE + compressed_size
            if physical + frame_size > size:
                break
            blocks.append({"offset": physical, "size": frame_size,
                           "raw_offset": raw_offset, "raw_size": raw_size})
            handle.seek(compressed_size, os.SEEK_CUR)
            physical += frame_size
            raw_offset += raw_size
    return blocks


def encode_payload(record: TrialRecord) -> bytes:
    """The sidecar line of one record: configuration values + failure reason."""
    payload = {"configuration": record.configuration.as_dict(),
               "failure_reason": record.failure_reason}
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode("utf-8")


def encode_row(record: TrialRecord, payload_offset: int,
               payload_length: int) -> tuple:
    """The fixed-width row of one record, as a ``TRIAL_DTYPE`` value tuple."""
    return (
        record.index,
        float("nan") if record.objective is None else float(record.objective),
        float("nan") if record.metric_value is None else float(record.metric_value),
        float("nan") if record.memory_mb is None else float(record.memory_mb),
        float(record.duration_s),
        float(record.started_at_s),
        payload_offset,
        payload_length,
        int(record.worker),
        record.objective is not None,
        record.metric_value is not None,
        record.memory_mb is not None,
        bool(record.crashed),
        _STAGE_CODES[record.failure_stage],
        bool(record.build_skipped),
    )


def serialize_records(records: Sequence[TrialRecord],
                      payload_offset: int = 0) -> Tuple[bytes, bytes]:
    """Encode *records* as (columns bytes, payload bytes), header excluded.

    *payload_offset* is the sidecar position the first payload line will be
    written at; stored offsets are absolute so rows stay valid however the
    bytes are appended.
    """
    rows = np.empty(len(records), dtype=TRIAL_DTYPE)
    payloads: List[bytes] = []
    offset = payload_offset
    for position, record in enumerate(records):
        line = encode_payload(record)
        rows[position] = encode_row(record, offset, len(line))
        payloads.append(line)
        offset += len(line)
    return rows.tobytes(), b"".join(payloads)


def row_to_dict(row, payload: Dict[str, object]) -> Dict[str, object]:
    """One stored row as a plain dict, shaped exactly like ``record_to_dict``.

    Values are native Python scalars (never numpy types), so the result is
    JSON-clean and bit-identical to what the record originally serialized to.
    """
    return {
        "index": int(row["index"]),
        "configuration": payload["configuration"],
        "objective": float(row["objective"]) if row["has_objective"] else None,
        "crashed": bool(row["crashed"]),
        "failure_stage": FAILURE_STAGES[int(row["failure_stage"])].value,
        "failure_reason": str(payload.get("failure_reason", "")),
        "metric_value": (float(row["metric_value"])
                         if row["has_metric_value"] else None),
        "memory_mb": float(row["memory_mb"]) if row["has_memory_mb"] else None,
        "duration_s": float(row["duration_s"]),
        "started_at_s": float(row["started_at_s"]),
        "build_skipped": bool(row["build_skipped"]),
        "worker": int(row["worker"]),
    }


def open_columns(path: str, count: int) -> np.ndarray:
    """Map the first *count* rows of a columns file read-only (zero copy).

    Raises ``ValueError`` when the header is invalid or the file is shorter
    than *count* rows — i.e. corruption surfaces exactly where the results
    store's fallback machinery expects it.
    """
    with open(path, "rb") as handle:
        check_header(handle.read(HEADER_SIZE), path)
        handle.seek(0, os.SEEK_END)
        size = handle.tell()
    if size < HEADER_SIZE + count * TRIAL_DTYPE.itemsize:
        raise ValueError("{} holds fewer than {} trial rows".format(path, count))
    if count == 0:
        return np.empty(0, dtype=TRIAL_DTYPE)
    columns = np.memmap(path, dtype=TRIAL_DTYPE, mode="r",
                        offset=HEADER_SIZE, shape=(count,))
    return columns


def payload_end(columns: np.ndarray) -> int:
    """Logical end of the last payload line *columns* reference (0 if none)."""
    if len(columns) == 0:
        return 0
    last = columns[-1]
    return int(last["payload_offset"] + last["payload_length"])


class BlockPayloadReader:
    """Random access over a block-compressed payload sidecar.

    Offsets are logical (uncompressed-stream) positions — the same offsets
    trial rows carry.  The block index is rebuilt by
    :func:`scan_payload_blocks`, up to logical offset *end* when given (a
    manifest's payload end), so frames past that prefix are never read; a
    file without the sidecar header raises ``ValueError``.  The first block
    (every later block's dictionary) is decoded once per reader, and a
    small LRU of decompressed blocks makes sequential row iteration
    decompress each block once.
    """

    _CACHE_BLOCKS = 4

    def __init__(self, path: str, end: Optional[int] = None) -> None:
        self._path = path
        self._blocks = scan_payload_blocks(path, end)
        self._starts = [block["raw_offset"] for block in self._blocks]
        self._dictionary: Optional[bytes] = None
        self._cache: "OrderedDict[int, bytes]" = OrderedDict()

    @property
    def coverage(self) -> int:
        """Logical bytes covered by complete blocks."""
        if not self._blocks:
            return 0
        last = self._blocks[-1]
        return last["raw_offset"] + last["raw_size"]

    def _decode(self, position: int) -> bytes:
        dictionary = self._first_block() if position else None
        block = self._blocks[position]
        with open(self._path, "rb") as handle:
            handle.seek(block["offset"])
            frame = handle.read(block["size"])
        return decode_payload_block(frame, self._path, dictionary)

    def _first_block(self) -> bytes:
        if self._dictionary is None:
            self._dictionary = self._decode(0)
        return self._dictionary

    def _load(self, position: int) -> bytes:
        if position == 0:
            return self._first_block()
        cached = self._cache.get(position)
        if cached is not None:
            self._cache.move_to_end(position)
            return cached
        raw = self._decode(position)
        self._cache[position] = raw
        while len(self._cache) > self._CACHE_BLOCKS:
            self._cache.popitem(last=False)
        return raw

    def read(self, offset: int, length: int) -> bytes:
        if length == 0:
            return b""
        end = offset + length
        if offset < 0 or end > self.coverage:
            raise ValueError(
                "{} is shorter than its trial rows reference".format(self._path))
        position = bisect_right(self._starts, offset) - 1
        pieces: List[bytes] = []
        cursor = offset
        while cursor < end:
            block = self._blocks[position]
            raw = self._load(position)
            start = cursor - block["raw_offset"]
            take = min(end, block["raw_offset"] + block["raw_size"]) - cursor
            pieces.append(raw[start:start + take])
            cursor += take
            position += 1
        return b"".join(pieces)

    def read_prefix(self, end: int) -> bytes:
        return self.read(0, end)


def check_manifest(document: object, path: str) -> Dict[str, object]:
    """*document* if its trial-row fields are well formed, else ``ValueError``.

    ``trials`` must be a non-negative integer and ``trial_columns`` and
    ``trial_payloads`` must name sidecar files.
    """
    if not isinstance(document, dict):
        raise ValueError("{} is not a JSON object".format(path))
    trials = document.get("trials")
    if type(trials) is not int or trials < 0:
        raise ValueError("{}: 'trials' must be a non-negative integer, "
                         "not {!r}".format(path, trials))
    for key in ("trial_columns", "trial_payloads"):
        sidecar_path(path, document, key)
    return document


def sidecar_path(manifest_path: str, document: Dict[str, object],
                 key: str) -> str:
    """Resolve the sidecar file the manifest field *key* names.

    Only the basename counts, and it resolves next to the manifest itself,
    so a results directory (or an archived copy of a manifest inside it)
    stays relocatable as a unit.
    """
    name = document.get(key)
    base = os.path.basename(name) if isinstance(name, str) else ""
    if base in ("", ".", ".."):
        raise ValueError("{}: {!r} does not name a sidecar file".format(
            manifest_path, key))
    directory = os.path.dirname(os.path.abspath(manifest_path))
    return os.path.join(directory, base)


class ColumnarHistoryView:
    """Lazy zero-copy view over one stored history/checkpoint document.

    The view is the streaming read tier for analysis: numeric aggregation
    (best objective, per-iteration cost, crash counts) runs on mmap-backed
    column views and never opens the payload sidecar; payload access is
    per-row and on-demand through the sidecar's block index (rebuilt from
    the frame headers of the referenced prefix), so decoding one
    configuration from a 10⁵-trial store decompresses one block and the
    dictionary block, not the whole file.
    """

    def __init__(self, manifest_path: str, document: Dict[str, object]) -> None:
        self._manifest_path = manifest_path
        self._document = document
        self._columns: Optional[np.ndarray] = None
        self._reader: Optional[BlockPayloadReader] = None
        self._count = document["trials"]

    def __len__(self) -> int:
        return self._count

    @property
    def count(self) -> int:
        return self._count

    @property
    def document(self) -> Dict[str, object]:
        """The manifest document this view was opened over (records excluded)."""
        return self._document

    def _sidecar_path(self, key: str) -> str:
        return sidecar_path(self._manifest_path, self._document, key)

    @property
    def columns(self) -> np.ndarray:
        """The packed ``TRIAL_DTYPE`` rows (a zero-copy memmap)."""
        if self._columns is None:
            self._columns = open_columns(
                self._sidecar_path("trial_columns"), self._count)
        return self._columns

    @property
    def objective(self) -> np.ndarray:
        """float64 objectives, NaN where absent (zero-copy view)."""
        return self.columns["objective"]

    @property
    def has_objective(self) -> np.ndarray:
        return self.columns["has_objective"].view(np.bool_)

    @property
    def cost(self) -> np.ndarray:
        """Per-trial evaluation cost (``duration_s``), in completion order."""
        return self.columns["duration_s"]

    @property
    def iteration(self) -> np.ndarray:
        """Per-trial iteration index (``index`` column)."""
        return self.columns["index"]

    @property
    def worker(self) -> np.ndarray:
        return self.columns["worker"]

    @property
    def crashed(self) -> np.ndarray:
        return self.columns["crashed"].view(np.bool_)

    def cost_by_iteration(self) -> np.ndarray:
        """Durations reordered by ascending iteration index (stable)."""
        columns = self.columns
        order = np.argsort(columns["index"], kind="stable")
        return columns["duration_s"][order]

    def _payload_reader(self) -> BlockPayloadReader:
        if self._reader is None:
            self._reader = BlockPayloadReader(
                self._sidecar_path("trial_payloads"),
                payload_end(self.columns))
        return self._reader

    def payload(self, position: int) -> Dict[str, object]:
        """Decode one row's payload (configuration + failure reason)."""
        row = self.columns[position]
        line = self._payload_reader().read(
            int(row["payload_offset"]), int(row["payload_length"]))
        return json.loads(line)

    def record_dict(self, position: int) -> Dict[str, object]:
        """One trial as a ``record_to_dict``-shaped dict."""
        return row_to_dict(self.columns[position], self.payload(position))

    def record_dicts(self) -> List[Dict[str, object]]:
        """All trials as dicts — the one path that materializes rows.

        The referenced payload prefix is decompressed in one pass, so a
        full read costs each block one decompression.
        """
        columns = self.columns
        if len(columns) == 0:
            return []
        blob = self._payload_reader().read_prefix(payload_end(columns))
        payloads = [json.loads(blob[int(offset):int(offset + length)])
                    for offset, length in zip(columns["payload_offset"],
                                              columns["payload_length"])]
        return [row_to_dict(row, payload)
                for row, payload in zip(columns, payloads)]


class TrialStoreWriter:
    """Incremental append-only writer over one columns file + sidecar.

    The writer is positioned by :meth:`rewind` — ``rewind(n)`` truncates
    both files to exactly *n* durable rows (dropping any tail a superseded
    checkpoint manifest no longer references) — after which :meth:`append`
    buffers rows and :meth:`flush` writes and fsyncs them.  Call sequence
    per checkpoint: ``append`` the records added since the last save, then
    ``flush``, then write the manifest carrying the new row count; a crash
    at any instant leaves the manifest pointing at a fully durable prefix.

    Every flush frames its payload bytes into whole zlib blocks of the
    block-compressed sidecar, compressed against the first block's raw
    bytes, which the writer keeps in memory (decoded from disk on reopen).
    A store with no durable rows gets a fresh sidecar header whatever a
    crash left in the file; a sidecar without the header under durable
    rows raises ``ValueError``.
    """

    def __init__(self, columns_path: str, payloads_path: str,
                 block_raw_bytes: int = DEFAULT_BLOCK_RAW_BYTES) -> None:
        self.columns_path = columns_path
        self.payloads_path = payloads_path
        self._block_raw_bytes = int(block_raw_bytes)
        self.count = 0
        self._pending: List[TrialRecord] = []
        #: raw bytes of the sidecar's first block, ``None`` while empty.
        self._dictionary: Optional[bytes] = None
        self._payload_offset = 0
        created = not os.path.exists(columns_path)
        self._columns = open(columns_path, "a+b")
        self._payloads = open(payloads_path, "a+b")
        try:
            self._recover(created)
        except BaseException:
            self.close()
            raise

    def _recover(self, created: bool) -> None:
        """Validate both files and drop torn tails; sets the durable state."""
        self._columns.seek(0, os.SEEK_END)
        size = self._columns.tell()
        if size < HEADER_SIZE:
            self._columns.truncate(0)
            self._columns.write(make_header())
            self._columns.flush()
            size = HEADER_SIZE
        else:
            self._columns.seek(0)
            check_header(self._columns.read(HEADER_SIZE), self.columns_path)
        if created:
            _fsync_directory(self.columns_path)
        # a torn append leaves complete rows then a partial one; the floor
        # division drops the partial tail, and every complete row is durable
        # because payloads flush before their columns do.
        self.count = (size - HEADER_SIZE) // TRIAL_DTYPE.itemsize
        # drop torn tails now: the files are opened in append mode, so every
        # write lands at EOF — EOF must therefore sit exactly after the last
        # complete row / the block holding its last referenced payload byte.
        if self.count == 0:
            self._payloads.truncate(0)
            self._payloads.write(make_payload_header())
            self._payloads.flush()
        else:
            columns = open_columns(self.columns_path, self.count)
            blocks = scan_payload_blocks(self.payloads_path,
                                         payload_end(columns))
            if blocks:
                try:
                    self._dictionary = self._decode(blocks[0])
                except ValueError:
                    blocks = []  # no row decodes without the first block
            coverage = (blocks[-1]["raw_offset"] + blocks[-1]["raw_size"]
                        if blocks else 0)
            # rows referencing past the complete blocks lost their payload
            # to a torn or undecodable frame; drop them with it.
            ends = np.asarray(
                columns["payload_offset"] + columns["payload_length"],
                dtype=np.int64)
            self.count = int(np.searchsorted(ends, coverage, side="right"))
            self._payload_offset = self._payload_end(self.count)
            self._trim_blocks(self._payload_offset, blocks)
        self._columns.truncate(HEADER_SIZE + self.count * TRIAL_DTYPE.itemsize)
        self._columns.seek(0, os.SEEK_END)
        self._payloads.seek(0, os.SEEK_END)

    def _payload_end(self, count: int) -> int:
        if count == 0:
            return 0
        return payload_end(open_columns(self.columns_path, count))

    def _decode(self, block: Dict[str, int]) -> bytes:
        """The raw bytes of the durable *block*."""
        self._payloads.seek(block["offset"])
        frame = self._payloads.read(block["size"])
        return decode_payload_block(
            frame, self.payloads_path,
            self._dictionary if block["raw_offset"] else None)

    def _trim_blocks(self, target_raw_end: int,
                     scanned: Optional[List[Dict[str, int]]] = None) -> None:
        """Truncate the compressed sidecar to *target_raw_end* logical bytes.

        Whole blocks past the target are dropped; a block straddling it is
        split — its surviving prefix re-framed as a fresh block (plain when
        it is the first block, whose prefix becomes the new dictionary) —
        so the durable stream ends exactly at the last referenced payload
        byte.  Only blocks past the last manifest write are ever split
        (manifests land at flush — hence block — boundaries), so older
        manifests keep referencing untouched frames.  *scanned* is a block
        index already walked past the target, which saves walking it again.
        """
        if scanned is None:
            scanned = scan_payload_blocks(self.payloads_path, target_raw_end)
        blocks = [block for block in scanned
                  if block["raw_offset"] < target_raw_end]
        covered = (blocks[-1]["raw_offset"] + blocks[-1]["raw_size"]
                   if blocks else 0)
        if covered < target_raw_end:
            raise ValueError("{} is shorter than its trial rows "
                             "reference".format(self.payloads_path))
        prefix = b""
        if covered > target_raw_end:
            # read the straddling block's bytes *before* truncating them away.
            straddler = blocks.pop()
            prefix = self._decode(straddler)[
                :target_raw_end - straddler["raw_offset"]]
        if not blocks:
            self._dictionary = None
        self._payloads.truncate(blocks[-1]["offset"] + blocks[-1]["size"]
                                if blocks else PAYLOAD_HEADER_SIZE)
        if prefix:
            frames, self._dictionary = compress_payload_blocks(
                prefix, self._dictionary, self._block_raw_bytes)
            self._payloads.seek(0, os.SEEK_END)
            self._payloads.write(frames)
        self._payloads.flush()
        os.fsync(self._payloads.fileno())

    def rewind(self, count: int) -> None:
        """Truncate both files to exactly *count* rows and position after them."""
        if self._pending:
            raise RuntimeError("cannot rewind with unflushed rows pending")
        if count > self.count:
            raise ValueError(
                "cannot rewind to {} rows: only {} are on disk".format(
                    count, self.count))
        if count == self.count:
            return
        raw_end = self._payload_end(count)
        self._columns.truncate(HEADER_SIZE + count * TRIAL_DTYPE.itemsize)
        self._trim_blocks(raw_end)
        self._columns.seek(0, os.SEEK_END)
        self._payloads.seek(0, os.SEEK_END)
        self.count = count
        self._payload_offset = raw_end

    def append(self, record: TrialRecord) -> None:
        """Buffer one record for the next :meth:`flush`."""
        self._pending.append(record)

    def extend(self, records: Sequence[TrialRecord]) -> None:
        self._pending.extend(records)

    def flush(self) -> int:
        """Write and fsync all buffered rows; returns the durable row count."""
        if self._pending:
            columns, payloads = serialize_records(self._pending,
                                                  self._payload_offset)
            frames, self._dictionary = compress_payload_blocks(
                payloads, self._dictionary, self._block_raw_bytes)
            self._payloads.write(frames)
            self._payloads.flush()
            os.fsync(self._payloads.fileno())
            self._columns.write(columns)
            self._columns.flush()
            os.fsync(self._columns.fileno())
            self.count += len(self._pending)
            self._payload_offset += len(payloads)
            self._pending = []
        return self.count

    def close(self) -> None:
        self._columns.close()
        self._payloads.close()

    def __enter__(self) -> "TrialStoreWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _fsync_directory(path: str) -> None:
    """Best-effort fsync of the directory holding *path* (durable renames)."""
    try:
        fd = os.open(os.path.dirname(os.path.abspath(path)) or ".",
                     os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)
