"""Atomic file outputs (CSV, JSON, flat binary fields); the key check of JSON inputs."""

from __future__ import annotations

import contextlib
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


def check_keys(obj, allowed, where: str, required=()) -> None:
    """Refuse a JSON object that lacks a required key or has one outside allowed."""
    missing = [key for key in required if key not in obj]
    if missing:
        raise ValueError(f"{where} is missing required key(s): {', '.join(missing)}")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ValueError(f"unknown keys {sorted(unknown)} in {where}")


def atomic_write_bytes(path: str, data: bytes) -> None:
    with atomic_open(path, "wb") as fh:
        fh.write(data)


_ROW_BLOCK = 1024      # rows converted per block


def write_csv(path: str, header, columns) -> None:
    """Write the header and the rows of aligned columns, a block of rows at
    a time, into the temporary file.

    A 1-D array or list gives one field per row, an (n, k) array k fields,
    and a scalar the same field in every row.  Each block is converted one
    column at a time by ``tolist`` and ``str``, which gives a float its
    shortest round-trip text, as ``csv`` does.  Fields are never quoted, so
    none may hold a comma, a quote or a newline.
    """
    ndims = [np.ndim(col) for col in columns]
    lengths = list(dict.fromkeys(len(c) for c, nd in zip(columns, ndims) if nd))
    if len(lengths) > 1:
        raise ValueError(f"CSV columns are not aligned: {lengths[0]} and {lengths[1]} rows")
    with atomic_open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, lengths[0] if lengths else 0, _ROW_BLOCK):
            block, fields = slice(start, start + _ROW_BLOCK), []
            for col, nd in zip(columns, ndims):
                if nd == 0:
                    fields.append(repeat(str(col)))
                elif nd == 1:
                    part = col[block]
                    fields.append(map(str, part.tolist() if hasattr(part, "tolist") else part))
                else:
                    fields.extend(map(str, f) for f in col[block].T.tolist())
            fh.write("\n".join(map(",".join, zip(*fields))) + "\n")


def write_json(path: str, obj) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    atomic_write_bytes(path, text.encode("utf-8"))


def write_field(path: str, values: np.ndarray, h: float) -> None:
    """Flat binary field: int64 n, float64 h, int64 d, then float64 node
    values in lexicographic (C) order."""
    values = np.asarray(values, dtype=np.float64)
    header = struct.pack("<qdq", values.shape[0], float(h), values.ndim)
    atomic_write_bytes(path, header + values.tobytes(order="C"))
