"""One codec for saved state: a JSON tree of builtins plus its NumPy arrays.

Session checkpoints (the algorithm, backend and simulator state of
:mod:`repro.platform.results`) and the surrogate zoo's ``.model.npz``
archives (:mod:`repro.deeptune.transfer`) hold the same kind of value: a
tree of dicts, lists, strings, numbers, booleans and ``None`` whose leaves
include NumPy arrays.  :func:`dumps` writes such a tree as one ``.npz``
archive: member ``tree.npy`` is the tree as UTF-8 JSON, each array replaced
by ``{"__array__": "<member>"}``, and every other member is one array.

* Arrays round-trip bit-exactly (raw ``.npy`` members), floats through
  JSON's shortest round-trip ``repr``.  Tuples come back as lists.
* The archive is byte-stable: members are stored uncompressed with a fixed
  timestamp, so equal trees give equal bytes.
* Object arrays are refused on both sides (NumPy's loader default), so
  nothing in an archive can name code to run.  :func:`loads` turns every
  defect of the archive into ``ValueError``.

This module imports nothing from the package, so every layer can use it.
"""

from __future__ import annotations

import io
import json
import zipfile
from typing import List

import numpy as np

#: the archive member holding the JSON tree.
TREE_MEMBER = "tree"
#: the one key of the object that stands for an array in the JSON tree.
ARRAY_KEY = "__array__"
#: zip members carry this timestamp, never the wall clock.
_EPOCH = (1980, 1, 1, 0, 0, 0)


def dumps(tree: object) -> bytes:
    """Encode *tree* (builtins and ``np.ndarray`` leaves) as ``.npz`` bytes.

    Raises ``TypeError`` for any other leaf type, object arrays included,
    so nothing is saved that :func:`loads` could not restore exactly.
    """
    arrays: List[np.ndarray] = []

    def park(value: object) -> dict:
        if not isinstance(value, np.ndarray) or value.dtype.hasobject:
            raise TypeError("cannot encode a {} in saved state".format(
                type(value).__name__))
        arrays.append(value)
        return {ARRAY_KEY: str(len(arrays) - 1)}

    text = json.dumps(tree, separators=(",", ":"), default=park)
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as archive:
        _add_member(archive, TREE_MEMBER,
                    np.frombuffer(text.encode("utf-8"), dtype=np.uint8))
        for index, array in enumerate(arrays):
            _add_member(archive, str(index), array)
    return buffer.getvalue()


def _add_member(archive: zipfile.ZipFile, name: str, array: np.ndarray) -> None:
    with archive.open(zipfile.ZipInfo(name + ".npy", _EPOCH), "w") as member:
        np.lib.format.write_array(member, array)


def loads(data: bytes) -> object:
    """Decode bytes written by :func:`dumps`; ``ValueError`` on any defect."""
    try:
        with np.load(io.BytesIO(data)) as archive:
            arrays = {name: archive[name] for name in archive.files}
        text = arrays.pop(TREE_MEMBER).tobytes().decode("utf-8")
        return json.loads(text, object_hook=lambda node: (
            arrays[node[ARRAY_KEY]] if node.keys() == {ARRAY_KEY} else node))
    # a damaged zip surfaces as BadZipFile, EOFError, KeyError and more; this
    # is the corruption boundary, so every failure becomes one type.
    except Exception as error:  # noqa: BLE001
        raise ValueError("unreadable state archive: {}".format(error)) from error
