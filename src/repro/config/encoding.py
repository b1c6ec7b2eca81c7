"""Numeric encoding of configurations for the machine-learning optimizers.

DeepTune and the Bayesian-optimization baseline operate on fixed-width float
vectors.  Each configuration ``x`` is split, as in §3.2 of the paper, into the
categorical part ``x_k`` (bools, tristates, strings, enumerations — one-hot
encoded) and the numeric part ``x_n`` (ints and hex values — min/max or
log-scaled to [0, 1]).  The encoder stops there: z-scoring the encoded
columns, the form the RBF uncertainty branch expects (the paper fits the RBF
smoothing parameter gamma assuming z-scored inputs), is the job of the DTM's
own :class:`~repro.nn.normalize.StandardScaler`.

Encoding sits on the hottest path of the search loop: every iteration encodes
a full candidate pool (192 configurations by default) plus the observed
configuration, over spaces with hundreds of parameters.  The encoder therefore
compiles an *encoding plan* at construction time — one vectorized column
writer per parameter — so :meth:`encode_batch` fills the (n, width) matrix
column-group by column-group with numpy array operations instead of a
per-configuration Python loop.  An LRU vector cache keyed by the (hashable)
configuration serves repeat encodes of the same configuration.  The fast
path is bit-identical to the naive per-parameter path,
:meth:`ConfigEncoder.encode_per_parameter` (log-scaled columns go through
``math.log1p`` exactly like :meth:`Parameter.encode` does, because
``np.log1p`` differs from the C library in the last ulp on some platforms).

Each writer codes a value column as int64 *codes* and encodes the codes.
DeepTune draws its candidate pool directly as codes (each writer's
:meth:`~_ColumnWriter.draw` has the distribution of ``Parameter.sample``) and
encodes them with :meth:`ConfigEncoder.encode_codes`, bypassing the cache: a
pool row is encoded once, bit-identically to :meth:`ConfigEncoder.encode` of
the configuration it stands for (:meth:`ConfigEncoder.configuration`).
"""

from __future__ import annotations

import math
import random
from collections import OrderedDict
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.config.parameter import (
    BoolParameter,
    CategoricalParameter,
    IntParameter,
    Parameter,
    TristateParameter,
)
from repro.config.space import Configuration, ConfigSpace


def _object_array(values: Sequence) -> np.ndarray:
    """*values* as a 1-d object array (tuples stay single elements)."""
    return np.fromiter(values, dtype=object, count=len(values))


class _ColumnWriter:
    """One compiled writer: encodes a column of raw values for one parameter.

    A column travels as *codes*, one int64 per row: the value itself for int
    and hex parameters, 0/1 for bools and the domain index for tristates and
    categoricals.  ``write`` fills ``out[:, start:stop]`` for every row at
    once by coding the values and writing the codes, so a column drawn as
    codes (:meth:`draw`) encodes bit-identically to the same values encoded
    through :meth:`ConfigEncoder.encode`.  The output matrix is
    zero-initialized, so one-hot writers only set the hot entries.
    """

    __slots__ = ("parameter", "start", "stop")

    def __init__(self, parameter: Parameter, start: int, stop: int) -> None:
        self.parameter = parameter
        self.start = start
        self.stop = stop

    def write(self, out: np.ndarray, values: Sequence, rows: np.ndarray) -> None:
        self.write_codes(out, self.codes(values), rows)

    def codes(self, values: Sequence) -> np.ndarray:
        """The code of each value of a column."""
        raise NotImplementedError

    def write_codes(self, out: np.ndarray, codes: np.ndarray, rows: np.ndarray) -> None:
        raise NotImplementedError

    def value(self, code: int) -> Any:
        """The parameter value a code stands for."""
        raise NotImplementedError

    def values(self, codes: np.ndarray) -> np.ndarray:
        """The values a code column stands for, as an object array."""
        return np.fromiter(map(self.value, codes.tolist()), dtype=object,
                           count=len(codes))

    def draw(self, generator: np.random.Generator, n: int) -> np.ndarray:
        """*n* codes drawn with the distribution of ``Parameter.sample``."""
        raise NotImplementedError


class _FallbackWriter(_ColumnWriter):
    """Reference path for parameter types without a vectorized writer.

    Values are coded by interning them in a table that only grows, so a
    code means the same value for the writer's whole life.  Draws call the
    parameter's own ``sample``.
    """

    __slots__ = ("_table", "_index")

    def __init__(self, parameter: Parameter, start: int, stop: int) -> None:
        super().__init__(parameter, start, stop)
        self._table: List[Any] = []
        self._index: Dict[Any, int] = {}

    def write(self, out: np.ndarray, values: Sequence, rows: np.ndarray) -> None:
        start, stop = self.start, self.stop
        encode = self.parameter.encode
        for row, value in enumerate(values):
            out[row, start:stop] = encode(value)

    def _intern(self, value: Any) -> int:
        try:
            code = self._index.setdefault(value, len(self._table))
        except TypeError:  # unhashable: look it up by equality
            code = next((i for i, known in enumerate(self._table)
                         if known == value), len(self._table))
        if code == len(self._table):
            self._table.append(value)
        return code

    def codes(self, values: Sequence) -> np.ndarray:
        return np.fromiter(map(self._intern, values), dtype=np.int64,
                           count=len(values))

    def write_codes(self, out: np.ndarray, codes: np.ndarray, rows: np.ndarray) -> None:
        self.write(out, [self._table[code] for code in codes.tolist()], rows)

    def value(self, code: int) -> Any:
        return self._table[code]

    def draw(self, generator: np.random.Generator, n: int) -> np.ndarray:
        rng = random.Random(int(generator.integers(2 ** 63)))
        sample = self.parameter.sample
        return self.codes([sample(rng) for _ in range(n)])


class _BoolWriter(_ColumnWriter):
    __slots__ = ()

    def codes(self, values: Sequence) -> np.ndarray:
        try:
            flags = np.array(values, dtype=bool)
        except (TypeError, ValueError):
            flags = np.fromiter((bool(value) for value in values),
                                dtype=bool, count=len(values))
        return flags.astype(np.int64)

    def write_codes(self, out: np.ndarray, codes: np.ndarray, rows: np.ndarray) -> None:
        out[:, self.start] = codes

    def value(self, code: int) -> Any:
        return bool(code)

    def values(self, codes: np.ndarray) -> np.ndarray:
        return _object_array((False, True))[codes]

    def draw(self, generator: np.random.Generator, n: int) -> np.ndarray:
        return generator.integers(0, 2, size=n)


class _OneHotWriter(_ColumnWriter):
    """Index-arithmetic one-hot writer for tristate/categorical parameters.

    ``index`` maps a domain value to its hot column offset, which is also
    its code; ``miss`` is the code used for out-of-domain values (-1 leaves
    the row all-zero, which is what ``TristateParameter.encode`` produces,
    while categoricals clip to their default choice).
    """

    __slots__ = ("index", "miss", "domain")

    def __init__(self, parameter: Parameter, start: int, stop: int,
                 index: Dict, miss: int) -> None:
        super().__init__(parameter, start, stop)
        self.index = index
        self.miss = miss
        self.domain = tuple(index)

    def codes(self, values: Sequence) -> np.ndarray:
        n = len(values)
        try:
            # Common case: every value is in the domain — a C-level map over
            # dict.__getitem__ with no per-value Python frame.
            return np.fromiter(map(self.index.__getitem__, values),
                               dtype=np.int64, count=n)
        except KeyError:
            lookup = self.index.get
            miss = self.miss
            return np.fromiter((lookup(value, miss) for value in values),
                               dtype=np.int64, count=n)

    def write_codes(self, out: np.ndarray, codes: np.ndarray, rows: np.ndarray) -> None:
        if self.miss < 0:
            keep = codes >= 0
            if not keep.all():
                rows, codes = rows[keep], codes[keep]
        out[rows, self.start + codes] = 1.0

    def value(self, code: int) -> Any:
        return self.domain[code]

    def values(self, codes: np.ndarray) -> np.ndarray:
        return _object_array(self.domain)[codes]

    def draw(self, generator: np.random.Generator, n: int) -> np.ndarray:
        return generator.integers(0, len(self.domain), size=n)


class _NumericWriter(_ColumnWriter):
    """Min-max / log1p scaler for int and hex parameters."""

    __slots__ = ("minimum", "maximum", "log_scale", "lo", "hi")

    def __init__(self, parameter: IntParameter, start: int, stop: int) -> None:
        super().__init__(parameter, start, stop)
        self.minimum = parameter.minimum
        self.maximum = parameter.maximum
        self.log_scale = parameter.log_scale
        if self.log_scale:
            self.lo = math.log1p(self.minimum)
            self.hi = math.log1p(self.maximum)
        else:
            self.lo = self.hi = 0.0

    def codes(self, values: Sequence) -> np.ndarray:
        try:
            # int64 conversion truncates floats toward zero, exactly like the
            # scalar path's int(value).
            clipped = np.array(values, dtype=np.int64)
        except (TypeError, ValueError, OverflowError):
            clipped = np.array(
                [self.parameter.clip(value) for value in values], dtype=np.int64
            )
        np.maximum(clipped, self.minimum, out=clipped)
        np.minimum(clipped, self.maximum, out=clipped)
        return clipped

    def write_codes(self, out: np.ndarray, codes: np.ndarray, rows: np.ndarray) -> None:
        if self.maximum == self.minimum:
            out[:, self.start] = 0.0
        elif self.log_scale:
            # math.log1p (not np.log1p) for bit-identity with Parameter.encode.
            logs = np.fromiter(map(math.log1p, codes.tolist()),
                               dtype=np.float64, count=len(codes))
            out[:, self.start] = (logs - self.lo) / (self.hi - self.lo)
        else:
            out[:, self.start] = ((codes - self.minimum)
                                  / float(self.maximum - self.minimum))

    def value(self, code: int) -> Any:
        return int(code)

    def values(self, codes: np.ndarray) -> np.ndarray:
        return codes.astype(object)

    def draw(self, generator: np.random.Generator, n: int) -> np.ndarray:
        if not self.log_scale or self.maximum == self.minimum:
            return generator.integers(self.minimum, self.maximum, size=n,
                                      endpoint=True)
        # IntParameter.sample: a uniform point on the log1p axis, rounded
        # back to an integer and clipped.
        units = self.lo + generator.random(n) * (self.hi - self.lo)
        drawn = np.rint(np.expm1(units)).astype(np.int64)
        np.maximum(drawn, self.minimum, out=drawn)
        np.minimum(drawn, self.maximum, out=drawn)
        return drawn


def _compile_writer(parameter: Parameter, start: int, stop: int) -> _ColumnWriter:
    """Pick the vectorized writer matching *parameter*'s encode implementation.

    A subclass that overrides ``encode``, ``sample`` (or the numeric helpers)
    falls back to the reference per-value path, which encodes and draws
    through the parameter itself, so custom parameter types stay correct.
    """
    cls = type(parameter)
    if cls.encode is BoolParameter.encode and cls.sample is BoolParameter.sample:
        return _BoolWriter(parameter, start, stop)
    if cls.encode is TristateParameter.encode and cls.sample is TristateParameter.sample:
        # The subclass's own STATES: an override with different states (but
        # inherited encode) must one-hot against those, not the base tuple.
        states = type(parameter).STATES
        if len(states) != stop - start:
            return _FallbackWriter(parameter, start, stop)
        index = {state: i for i, state in enumerate(states)}
        return _OneHotWriter(parameter, start, stop, index, miss=-1)
    if (cls.encode is CategoricalParameter.encode
            and cls.clip is CategoricalParameter.clip
            and cls.sample is CategoricalParameter.sample):
        index = {choice: i for i, choice in enumerate(parameter.choices)}
        return _OneHotWriter(parameter, start, stop, index,
                             miss=index[parameter.default])
    if (cls.encode is IntParameter.encode
            and cls.clip is IntParameter.clip
            and cls._to_unit is IntParameter._to_unit
            and cls.sample is IntParameter.sample
            and cls._from_unit is IntParameter._from_unit):
        return _NumericWriter(parameter, start, stop)
    return _FallbackWriter(parameter, start, stop)


class ConfigEncoder:
    """Encodes configurations of one space into flat numpy vectors."""

    #: default capacity of the LRU vector cache (vectors, not bytes).
    DEFAULT_CACHE_SIZE = 4096

    def __init__(self, space: ConfigSpace,
                 cache_size: int = DEFAULT_CACHE_SIZE) -> None:
        self.space = space
        self._names: List[str] = space.parameter_names()
        self._slices: Dict[str, Tuple[int, int]] = {}
        self._plan: List[_ColumnWriter] = []
        offset = 0
        for parameter in space.parameters():
            width = parameter.encoding_width
            self._slices[parameter.name] = (offset, offset + width)
            self._plan.append(_compile_writer(parameter, offset, offset + width))
            offset += width
        self._width = offset
        # Column -> owning parameter lookup table (O(1) parameter_for_column).
        self._column_owner: List[Parameter] = []
        for writer in self._plan:
            self._column_owner.extend(
                [writer.parameter] * (writer.stop - writer.start))
        # LRU cache of encoded vectors keyed by the configuration itself.
        self._cache: "OrderedDict[Configuration, np.ndarray]" = OrderedDict()
        self._cache_size = max(0, int(cache_size))
        self.cache_hits = 0
        self.cache_misses = 0
        #: batches in which a vectorized writer raised and its parameter was
        #: re-encoded through the reference path — should stay 0; a nonzero
        #: count means the fast path is silently degrading.
        self.plan_fallbacks = 0

    # -- geometry -------------------------------------------------------------
    @property
    def width(self) -> int:
        """Dimension of the encoded vector."""
        return self._width

    def slice_for(self, name: str) -> Tuple[int, int]:
        """Return the [start, stop) columns occupied by parameter *name*."""
        return self._slices[name]

    def parameter_for_column(self, column: int) -> Parameter:
        """Return the parameter that owns encoded column *column*."""
        if not 0 <= column < self._width:
            raise IndexError("column {} outside encoded width {}".format(column, self._width))
        return self._column_owner[column]

    def column_labels(self) -> List[str]:
        """Human-readable label per encoded column (for importance reports)."""
        labels = []
        for parameter in self.space.parameters():
            width = parameter.encoding_width
            if width == 1:
                labels.append(parameter.name)
            else:
                values = parameter.domain_values() or range(width)
                labels.extend(
                    "{}={}".format(parameter.name, value) for value in list(values)[:width]
                )
        return labels

    # -- vector cache ----------------------------------------------------------
    def clear_cache(self) -> None:
        """Drop every cached vector (hit/miss counters are kept)."""
        self._cache.clear()

    @property
    def cache_len(self) -> int:
        return len(self._cache)

    def _cache_lookup(self, configuration: Configuration) -> Optional[np.ndarray]:
        if not self._cache_size:
            return None
        cached = self._cache.get(configuration)
        if cached is not None:
            self._cache.move_to_end(configuration)
        return cached

    def _cache_store(self, configuration: Configuration, vector: np.ndarray) -> None:
        if not self._cache_size:
            return
        self._cache[configuration] = vector
        if len(self._cache) > self._cache_size:
            self._cache.popitem(last=False)

    # -- encode / decode --------------------------------------------------------
    def _value_columns(self, configurations: Sequence[Configuration]) -> List[tuple]:
        """One tuple of raw values per parameter, in plan order."""
        # Configuration._values dicts are built in space parameter order, so a
        # single C-level transpose yields one value column per parameter —
        # much cheaper than a per-parameter dict-lookup comprehension at
        # 192 x 362 items.  Configurations whose key order differs (foreign
        # spaces) are re-gathered by name.
        names = self._names
        value_rows = []
        for configuration in configurations:
            values_dict = configuration._values
            row = list(values_dict.values())
            if len(row) != len(names) or list(values_dict) != names:
                row = [values_dict[name] for name in names]
            value_rows.append(row)
        return list(zip(*value_rows))

    def _encode_plan(self, configurations: Sequence[Configuration]) -> np.ndarray:
        """Columnar fast path: run every compiled writer over the batch."""
        out = np.zeros((len(configurations), self._width), dtype=np.float64)
        rows = np.arange(len(configurations))
        for writer, values in zip(self._plan, self._value_columns(configurations)):
            try:
                writer.write(out, values, rows)
            except Exception:
                # Any surprise in the vectorized path (unhashable values,
                # overflow, exotic types) falls back to the reference encoder
                # for this parameter's columns only.
                self.plan_fallbacks += 1
                out[:, writer.start:writer.stop] = 0.0
                encode = writer.parameter.encode
                for row, value in enumerate(values):
                    out[row, writer.start:writer.stop] = encode(value)
        return out

    # -- code rows -------------------------------------------------------------
    # A code row holds one int64 per parameter (see _ColumnWriter): the form
    # DeepTune draws its candidate pool in, so a pool is encoded and
    # deduplicated without building a Configuration per candidate.
    def code_rows(self, configurations: Sequence[Configuration]) -> np.ndarray:
        """The (n, parameters) code matrix of *configurations*."""
        codes = np.empty((len(configurations), len(self._plan)), dtype=np.int64)
        if len(configurations):
            for column, (writer, values) in enumerate(
                    zip(self._plan, self._value_columns(configurations))):
                codes[:, column] = writer.codes(values)
        return codes

    def encode_codes(self, codes: np.ndarray) -> np.ndarray:
        """Encode a code matrix; row i equals ``encode`` of ``configuration(codes[i])``."""
        out = np.zeros((len(codes), self._width), dtype=np.float64)
        rows = np.arange(len(codes))
        for column, writer in enumerate(self._plan):
            writer.write_codes(out, codes[:, column], rows)
        return out

    def draw_codes(self, column: int, generator: np.random.Generator,
                   n: int) -> np.ndarray:
        """*n* codes for parameter number *column*, distributed like its ``sample``."""
        return self._plan[column].draw(generator, n)

    def configuration(self, code_row: np.ndarray) -> Configuration:
        """The configuration one code row stands for."""
        values = [writer.value(code)
                  for writer, code in zip(self._plan, code_row.tolist())]
        return Configuration(self.space, dict(zip(self._names, values)))

    def column_values(self, column: int, codes: np.ndarray) -> np.ndarray:
        """The values a column of codes for parameter number *column* stands for."""
        return self._plan[column].values(codes)

    def encode_per_parameter(self, configuration: Configuration) -> np.ndarray:
        """Naive scalar path: one ``Parameter.encode`` call per parameter.

        Unicorn encodes through this on purpose, to keep the cost profile of
        Figure 7; it bypasses the plan and the cache, and the tests pin the
        vectorized plan bit-identical to it.
        """
        vector = np.empty(self._width, dtype=np.float64)
        for parameter in self.space.parameters():
            start, stop = self._slices[parameter.name]
            vector[start:stop] = parameter.encode(configuration[parameter.name])
        return vector

    def encode(self, configuration: Configuration) -> np.ndarray:
        """Encode a single configuration into a float vector of length width.

        Returns a fresh array every call: mutating the result never poisons
        the cache.
        """
        cached = self._cache_lookup(configuration)
        if cached is None:
            self.cache_misses += 1
            cached = self._encode_plan([configuration])[0]
            self._cache_store(configuration, cached)
        else:
            self.cache_hits += 1
        return cached.copy()

    def encode_batch(self, configurations: Iterable[Configuration]) -> np.ndarray:
        """Encode many configurations into a (n, width) matrix."""
        configurations = list(configurations)
        if not configurations:
            return np.empty((0, self._width), dtype=np.float64)
        out = np.empty((len(configurations), self._width), dtype=np.float64)
        misses: List[Configuration] = []
        miss_index: Dict[Configuration, int] = {}
        pending: List[Tuple[int, int]] = []  # (output row, miss position)
        for row, configuration in enumerate(configurations):
            cached = self._cache_lookup(configuration)
            if cached is None:
                # Duplicates inside one batch are encoded exactly once.
                position = miss_index.get(configuration)
                if position is None:
                    position = len(misses)
                    miss_index[configuration] = position
                    misses.append(configuration)
                elif self._cache_size:
                    # In-batch dedup only reads as a hit when a cache exists.
                    self.cache_hits += 1
                pending.append((row, position))
            else:
                self.cache_hits += 1
                out[row] = cached
        if misses:
            self.cache_misses += len(misses)
            encoded = self._encode_plan(misses)
            for row, position in pending:
                out[row] = encoded[position]
            for configuration, vector in zip(misses, encoded):
                # Store a copy: rows of `out` are handed to the caller.
                self._cache_store(configuration, vector.copy())
        return out

    def decode(self, vector: Sequence[float]) -> Configuration:
        """Best-effort inverse of :meth:`encode`."""
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != (self._width,):
            raise ValueError(
                "expected vector of shape ({},), got {}".format(self._width, vector.shape)
            )
        values = {}
        for parameter in self.space.parameters():
            start, stop = self._slices[parameter.name]
            values[parameter.name] = parameter.decode(list(vector[start:stop]))
        return Configuration(self.space, values)
