"""Deterministic artifact writers (JSON and CSV).

Every writer is byte-reproducible: keys are sorted, floats use the
shortest round-trip representation (JSON) or 17 significant digits
(CSV), non-finite values are mapped to ``null``, there are no
timestamps, and files are written atomically via a temporary name in the
same directory.
"""

import json
import os
import tempfile

import numpy as np


def sanitize(obj):
    """Recursively convert to JSON-safe plain Python (non-finite -> None)."""
    if isinstance(obj, dict):
        return {str(k): sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if np.isfinite(v) else None
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, complex) or isinstance(obj, np.complexfloating):
        re, im = float(obj.real), float(obj.imag)
        return [re if np.isfinite(re) else None, im if np.isfinite(im) else None]
    return obj


def _atomic_write(path, text):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path, obj):
    payload = json.dumps(sanitize(obj), sort_keys=True, indent=2, allow_nan=False)
    _atomic_write(path, payload + "\n")


def write_csv(path, columns, rows):
    write_csv_blocks(path, columns, [np.atleast_2d(np.asarray(rows, float))])


def write_csv_blocks(path, columns, blocks):
    """Write a float table given as consecutive 2D blocks of rows; each block
    is formatted as it arrives, and the file is written after the last."""
    lines = [",".join(columns)]
    for rows in blocks:
        fmt = ",".join(["%.17g"] * rows.shape[1])
        # row by row: the whole table as Python floats would raise the peak memory
        lines += [fmt % tuple(row.tolist()) for row in rows]
    _atomic_write(path, "\n".join(lines) + "\n")


def write_trajectory_csv(trajectory, path):
    columns, rows = trajectory.csv_rows()
    write_csv(path, columns, rows)
