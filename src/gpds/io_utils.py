"""CSV and JSON helpers.

Floats are written with 17 significant digits so a write/read round trip
reproduces every value bit-exactly.  Every writer goes through
:func:`_replacing`, so an output file is either the complete new content or
whatever was there before, never half-written.
"""
from __future__ import annotations

import json
import os
import uuid
from contextlib import contextmanager
from pathlib import Path

import numpy as np


def fmt_float(x: float) -> str:
    return f"{float(x):.17g}"


@contextmanager
def _replacing(path: str | Path):
    """Yield a text file that replaces ``path`` once the block completes.

    The content goes to a hidden temporary file in the same directory, which
    ``os.replace`` then renames over ``path`` in one step.  If the block
    raises, the temporary file is removed, ``path`` is untouched and the
    exception propagates.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex[:12]}.tmp")
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path: str | Path, header: list[str], rows) -> None:
    """Write ``header`` and then ``rows``, each value as :func:`fmt_float`
    writes it; one ``%``-template per row does the formatting."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float)) if np.size(rows) else np.empty((0, len(header)))
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    with _replacing(path) as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line % tuple(row) for row in rows.tolist())


def read_csv(path: str | Path) -> tuple[list[str], np.ndarray]:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header:
            raise ValueError(f"{path}: missing header row")
        names = [h.strip() for h in header.split(",")]
        data = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != len(names):
                raise ValueError(f"{path}:{lineno}: expected {len(names)} fields")
            data.append([float(p) for p in parts])
    arr = np.asarray(data, dtype=float) if data else np.empty((0, len(names)))
    return names, arr


def read_data_csv(path: str | Path) -> np.ndarray:
    """Read a data file with x1..xD columns and at least one row, all finite."""
    names, arr = read_csv(path)
    expected = [f"x{i + 1}" for i in range(len(names))]
    if names != expected:
        raise ValueError(f"{path}: expected header {','.join(expected)}, got {','.join(names)}")
    if arr.shape[0] == 0:
        raise ValueError(f"{path}: no data rows")
    bad = ~np.all(np.isfinite(arr), axis=1)
    if bad.any():
        raise ValueError(f"{path}: {int(bad.sum())} row(s) with non-finite values, "
                         f"first data row {int(np.argmax(bad)) + 1}")
    return arr


def write_json(path: str | Path, payload: dict) -> None:
    with _replacing(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
