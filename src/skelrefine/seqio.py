"""Sequence file IO.

A sequence file is line-delimited JSON: a header object
``{"frame_rate_hz": 30.0, "encoding": "absolute"}`` followed by one record
``{"t": i, "joints": [48 floats]}`` per frame, in frame order. Files are
written atomically (see atomic_open).
"""

from __future__ import annotations

import itertools
import json
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DataError
from .optim import real_number
from .skeleton import POSE_DIM, Encoding, SkeletonSequence


@contextmanager
def atomic_open(path, newline: str | None = None):
    """Open a text file for writing atomically.

    The content goes to a temporary file beside path, which is renamed into
    place when the block completes, so a failed write leaves any previous
    file intact and no partial file behind.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with tmp.open("w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_sequence(path, seq: SkeletonSequence) -> None:
    """Write a sequence file atomically (see atomic_open)."""
    header = {"frame_rate_hz": seq.frame_rate_hz, "encoding": seq.encoding.value}
    with atomic_open(path) as fh:
        fh.write(json.dumps(header) + "\n")
        # tolist() gives the Python floats float(v) gives, so the bytes
        # match a per-element conversion
        for t, row in enumerate(seq.data.tolist()):
            fh.write(json.dumps({"t": t, "joints": row}) + "\n")


def read_sequence(path) -> SkeletonSequence:
    """Read a sequence file; any malformed content raises DataError.

    Errors in a frame record name the file and line.
    """
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise DataError(f"cannot read sequence file {path}: {exc}") from exc
    if not lines:
        raise DataError(f"{path}: empty sequence file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: malformed header line: {exc}") from exc
    if not isinstance(header, dict) or "frame_rate_hz" not in header or "encoding" not in header:
        raise DataError(f"{path}: header must carry frame_rate_hz and encoding")
    try:
        encoding = Encoding(header["encoding"])
    except ValueError as exc:
        raise DataError(f"{path}: unknown encoding {header['encoding']!r}") from exc
    try:
        frame_rate = real_number(header["frame_rate_hz"], "frame_rate_hz")
    except ConfigurationError as exc:
        raise DataError(f"{path}: {exc}") from exc
    if not frame_rate > 0:
        raise DataError(f"{path}: frame_rate_hz must be positive, got {frame_rate!r}")

    frames = []
    linenos = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}:{lineno}: malformed frame record: {exc}") from exc
        if not isinstance(record, dict):
            raise DataError(f"{path}:{lineno}: frame record must be a JSON object")
        joints = record.get("joints")
        if not isinstance(joints, list) or len(joints) != POSE_DIM:
            raise DataError(f"{path}:{lineno}: frame record needs {POSE_DIM} joint values")
        # a JSON integer: true and 1.0 compare equal to 1 but are refused
        if type(record.get("t")) is not int or record["t"] != len(frames):
            raise DataError(
                f"{path}:{lineno}: frame index {record.get('t')!r}, expected {len(frames)}"
            )
        frames.append(joints)
        linenos.append(lineno)
    if not frames:
        raise DataError(f"{path}: sequence file has no frames")
    data = finite_rows(frames)
    if data is None:
        lineno = next(n for joints, n in zip(frames, linenos) if finite_rows([joints]) is None)
        raise DataError(f"{path}:{lineno}: joint values must be finite numbers")
    return SkeletonSequence(data, encoding, frame_rate)


# the types json.loads gives a number; bool is not among them, nor str,
# which np.array would convert ("1.5" and true would read as 1.5 and 1.0)
_NUMBER_TYPES = frozenset((int, float))


def finite_rows(rows: list, width: int = POSE_DIM) -> np.ndarray | None:
    """rows, lists of JSON values, as an (n, width) float64 array, or None
    unless every row holds width values and each is a finite JSON number
    (null converts to NaN, so it is refused too). Sequence frames and
    checkpoint arrays are read through this one type pass."""
    if not _NUMBER_TYPES.issuperset(map(type, itertools.chain.from_iterable(rows))):
        return None
    try:
        data = np.array(rows, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        return None
    if data.shape != (len(rows), width) or not np.isfinite(data).all():
        return None
    return data
