"""Atomic file outputs: CSV, JSON, and flat binary fields."""

from __future__ import annotations

import contextlib
import csv
import json
import os
import struct
import tempfile
from itertools import repeat

import numpy as np


@contextlib.contextmanager
def atomic_open(path: str, mode: str):
    """Open a temporary file beside ``path`` for writing (``"w"`` for UTF-8
    text, ``"wb"`` for bytes) and move it onto ``path`` when the block
    completes.  On any error the target is left as it was and the temporary
    file is removed."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        # mkstemp creates the file 0600; give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        binary = "b" in mode
        with os.fdopen(fd, mode, encoding=None if binary else "utf-8",
                       newline=None if binary else "") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_bytes(path: str, data: bytes) -> None:
    with atomic_open(path, "wb") as fh:
        fh.write(data)


def write_csv(path: str, header, rows) -> None:
    """Write the header and the rows straight into the temporary file."""
    with atomic_open(path, "w") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


_ROW_BLOCK = 1024      # rows converted per tolist call


def column_rows(*columns):
    """CSV rows of plain Python values from aligned columns.

    A 1-D array gives one field per row, an (n, k) array k fields, and a
    scalar the same field in every row.  Arrays are converted with
    ``tolist`` a block of rows at a time, which is much faster than
    indexing numpy scalars row by row and keeps the lists small; ``csv``
    writes a Python float and a numpy float64 with the same text.
    """
    n = next(len(c) for c in columns if np.ndim(c))
    for start in range(0, n, _ROW_BLOCK):
        fields = []
        for col in columns:
            if np.ndim(col) == 0:
                fields.append(repeat(col))
            elif np.ndim(col) == 1:
                fields.append(col[start:start + _ROW_BLOCK].tolist())
            else:
                fields.extend(col[start:start + _ROW_BLOCK].T.tolist())
        yield from zip(*fields)


def write_json(path: str, obj) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    atomic_write_bytes(path, text.encode("utf-8"))


def write_field(path: str, values: np.ndarray, h: float) -> None:
    """Flat binary field: int64 n, float64 h, int64 d, then float64 node
    values in lexicographic (C) order."""
    values = np.asarray(values, dtype=np.float64)
    header = struct.pack("<qdq", values.shape[0], float(h), values.ndim)
    atomic_write_bytes(path, header + values.tobytes(order="C"))
