"""Deterministic artifact writers (JSON and CSV).

Every writer is byte-reproducible: keys are sorted, floats use the
shortest round-trip representation (JSON) or 17 significant digits
(CSV), non-finite values are mapped to ``null`` (JSON) or written as
``nan``/``inf`` (CSV), there are no timestamps, and files are written
atomically via a temporary name in the same directory, with the mode
that the umask gives a new file.
"""

import json
import math
import os
import tempfile

import numpy as np

from .dynamics import Trajectory


def sanitize(obj):
    """Recursively convert to JSON-safe plain Python (non-finite -> None)."""
    # most payload values are plain floats: test them first, without numpy
    if type(obj) is float:
        return obj if math.isfinite(obj) else None
    if isinstance(obj, (list, tuple)):
        return [sanitize(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): sanitize(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return [sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else None
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, complex) or isinstance(obj, np.complexfloating):
        re, im = float(obj.real), float(obj.imag)
        return [re if math.isfinite(re) else None, im if math.isfinite(im) else None]
    return obj


def _atomic_write(path, parts):
    # parts: an iterable of strings, written one after the other
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(parts)
        # mkstemp creates the file 0600; give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path, obj):
    payload = json.dumps(sanitize(obj), sort_keys=True, indent=2, allow_nan=False)
    _atomic_write(path, (payload, "\n"))


def _formatted(rows):
    # a 2D block of rows as CSV lines, by one % over its values
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    return line * len(rows) % tuple(rows.ravel().tolist())


def write_csv_blocks(path, columns, blocks):
    """Write a float table given as consecutive 2D blocks of rows; each block
    is formatted as it arrives, and the file is written after the last.
    Nothing is written, not even a temporary file, when ``blocks`` raises."""
    parts = [",".join(columns) + "\n"]
    parts += [_formatted(rows) for rows in blocks]
    _atomic_write(path, parts)


def write_trajectory_csv(blocks, path):
    """The trajectory table from the ``csv_rows()`` of consecutive chunks."""
    write_csv_blocks(path, Trajectory.CSV_COLUMNS, blocks)
